//! The crash corpus (§VII-3).
//!
//! *"In these cases, the test case, as well as the submitted VM seeds,
//! are saved for further investigation with the aim of crash analysis to
//! reveal potential bugs in the source code."*

use crate::failure::FailureKind;
use crate::mutation::AppliedMutation;
use crate::testcase::TestCase;
use iris_core::seed::VmSeed;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One saved crash: everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecord {
    /// The planned test case that found it.
    pub testcase: TestCase,
    /// Which mutant in the sequence (0-based).
    pub mutant_index: usize,
    /// The mutated seed that was submitted.
    pub seed: VmSeed,
    /// The mutation that produced it.
    pub mutation: Option<AppliedMutation>,
    /// The classification.
    pub kind: FailureKind,
    /// The console message the crash left.
    pub console: String,
}

/// Whether two crash records carry the same signature:
/// `(kind, mutation site/area, console message)`. The flipped-bit
/// position is deliberately *not* part of the key — a crashy mutation
/// site produces the same failure for many bit positions, and those are
/// exactly the duplicates that used to flood the corpus. A VMCS site is
/// identified by the *field* the flipped read pair names, not by the
/// seed-relative pair index: the corpus dedups campaign-wide, and
/// `reads[2]` means a different field in every seed.
#[must_use]
pub fn same_signature(a: &CrashRecord, b: &CrashRecord) -> bool {
    a.kind == b.kind
        && a.console == b.console
        && match (&a.mutation, &b.mutation) {
            (
                Some(AppliedMutation::VmcsBitFlip { index: ia, .. }),
                Some(AppliedMutation::VmcsBitFlip { index: ib, .. }),
            ) => {
                let field = |r: &CrashRecord, i: usize| r.seed.reads.get(i).map(|pair| pair.0);
                field(a, *ia) == field(b, *ib)
            }
            (
                Some(AppliedMutation::GprBitFlip { gpr: ga, .. }),
                Some(AppliedMutation::GprBitFlip { gpr: gb, .. }),
            ) => ga == gb,
            (None, None) => true,
            _ => false,
        }
}

/// A collection of crash records, deduplicated by signature.
///
/// Every observed crash is *counted* ([`Corpus::observed`]), but only
/// the first record of each `(kind, mutation site, console)` signature
/// is *stored* ([`Corpus::len`] / [`Corpus::unique`]) — one reproducer
/// per distinct failure, however many bit positions retrigger it.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Corpus {
    /// Deduplicated crash records, in discovery order.
    pub crashes: Vec<CrashRecord>,
    /// Crashes observed, including deduplicated duplicates.
    observed: u64,
}

impl Deserialize for Corpus {
    /// Hand-written for backward compatibility: corpora persisted before
    /// dedup carry no `observed` field and may hold duplicate records.
    /// Loaded records are re-pushed through the dedup path (restoring
    /// the "one record per signature" invariant, with every record
    /// counted as observed), and the persisted `observed` count — when
    /// present and larger — wins, so a modern save/load round-trips.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::msg("corpus must be a map"))?;
        let records = match serde::value::map_get(entries, "crashes") {
            Some(c) => Vec::<CrashRecord>::from_value(c)?,
            None => Vec::new(),
        };
        let persisted_observed = serde::value::map_get(entries, "observed")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0);
        let mut corpus = Corpus::new();
        for record in records {
            corpus.push(record);
        }
        corpus.observed = corpus.observed.max(persisted_observed);
        Ok(corpus)
    }
}

impl Corpus {
    /// Empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a crash. The observation is always counted; the record is
    /// stored only when its signature is new. Returns whether it was
    /// stored.
    pub fn push(&mut self, record: CrashRecord) -> bool {
        self.observed += 1;
        self.insert_unique(record)
    }

    /// Merge another corpus in: its observation count is added and its
    /// records are re-deduplicated against this one, preserving `other`'s
    /// discovery order. Folding per-worker corpora in plan order yields
    /// exactly the corpus a sequential run over the same plan builds.
    pub fn absorb(&mut self, other: Corpus) {
        self.observed += other.observed;
        for record in other.crashes {
            self.insert_unique(record);
        }
    }

    fn insert_unique(&mut self, record: CrashRecord) -> bool {
        if self.crashes.iter().any(|c| same_signature(c, &record)) {
            return false;
        }
        self.crashes.push(record);
        true
    }

    /// Number of stored crash records (`crashes.len()` — the container
    /// convention). Because storage dedups, this equals [`Corpus::unique`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// Number of crashes observed, including deduplicated duplicates —
    /// the count that matches [`crate::failure::FailureStats`]' crash totals.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of distinct crash signatures stored.
    #[must_use]
    pub fn unique(&self) -> usize {
        self.crashes.len()
    }

    /// Whether any crash was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observed == 0
    }

    /// Crashes of one kind.
    pub fn of_kind(&self, kind: FailureKind) -> impl Iterator<Item = &CrashRecord> {
        self.crashes.iter().filter(move |c| c.kind == kind)
    }

    /// Persist as JSON, atomically, through the shared
    /// [`crate::checkpoint::atomic_write_json`] helper: the bytes go to
    /// a `.tmp` sibling first and are `rename`d into place, so a
    /// campaign interrupted mid-save can never leave a torn corpus
    /// behind — the previous complete corpus (if any) survives intact.
    /// Errors carry the path they happened on.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_vec_pretty(self)
            .map_err(|e| annotate(e.into(), "serializing corpus for", path))?;
        crate::checkpoint::atomic_write_json(path, &json)
    }

    /// Load from JSON. Errors carry the path they happened on.
    pub fn load(path: &Path) -> io::Result<Corpus> {
        let bytes = std::fs::read(path).map_err(|e| annotate(e, "reading corpus from", path))?;
        serde_json::from_slice(&bytes).map_err(|e| annotate(e.into(), "parsing corpus in", path))
    }
}

pub(crate) use crate::checkpoint::annotate;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::JsonWriter;
    use crate::mutation::SeedArea;
    use iris_guest::workloads::Workload;
    use iris_vtx::exit::ExitReason;

    use iris_vtx::fields::VmcsField;

    fn record(kind: FailureKind) -> CrashRecord {
        let mut seed = VmSeed::new(ExitReason::CrAccess);
        seed.push_read(VmcsField::VmExitReason, 28);
        seed.push_read(VmcsField::ExitQualification, 0x10);
        seed.push_read(VmcsField::GuestRip, 0x1000);
        seed.push_read(VmcsField::GuestCr0, 0x31);
        CrashRecord {
            testcase: TestCase::new(Workload::OsBoot, 1, ExitReason::CrAccess, SeedArea::Vmcs, 0),
            mutant_index: 42,
            seed,
            mutation: None,
            kind,
            console: "FATAL: unexpected VM exit reason 7".to_owned(),
        }
    }

    #[test]
    fn push_filter_and_persist() {
        let mut c = Corpus::new();
        assert!(c.push(record(FailureKind::VmCrash)));
        assert!(c.push(record(FailureKind::HypervisorCrash)));
        assert!(
            !c.push(record(FailureKind::HypervisorCrash)),
            "same signature must not be stored twice"
        );
        assert_eq!(c.observed(), 3, "every observation is counted");
        assert_eq!(c.len(), 2, "len matches the stored records");
        assert_eq!(c.unique(), 2, "only distinct signatures are stored");
        assert_eq!(c.of_kind(FailureKind::HypervisorCrash).count(), 1);

        let p = std::env::temp_dir().join("iris-corpus-test.json");
        c.save(&p).unwrap();
        assert_eq!(Corpus::load(&p).unwrap(), c);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dedup_keys_on_kind_site_and_console() {
        let flip = |index, bit| Some(AppliedMutation::VmcsBitFlip { index, bit });
        let mut c = Corpus::new();
        let base = CrashRecord {
            mutation: flip(2, 17),
            ..record(FailureKind::HypervisorCrash)
        };
        assert!(c.push(base.clone()));
        // Same site, different bit position: the classic flood — dropped.
        assert!(!c.push(CrashRecord {
            mutation: flip(2, 43),
            mutant_index: 99,
            ..base.clone()
        }));
        // Different mutation site (reads[3] names another field): stored.
        assert!(c.push(CrashRecord {
            mutation: flip(3, 17),
            ..base.clone()
        }));
        // The site is the *field*, not the pair index: a crash from a
        // different test case whose seed lists GuestRip at another index
        // is the same failure — dropped.
        assert!(!c.push(CrashRecord {
            mutation: flip(0, 9),
            seed: {
                let mut s = VmSeed::new(ExitReason::CrAccess);
                s.push_read(VmcsField::GuestRip, 0x2000);
                s
            },
            ..base.clone()
        }));
        // Different console banner: stored.
        assert!(c.push(CrashRecord {
            console: "FATAL: unexpected VM exit reason 9".to_owned(),
            ..base.clone()
        }));
        // Same site but the domain died instead of the hypervisor: stored.
        assert!(c.push(CrashRecord {
            kind: FailureKind::VmCrash,
            ..base.clone()
        }));
        // GPR flips key on the register, not the bit.
        let gpr = |gpr, bit| Some(AppliedMutation::GprBitFlip { gpr, bit });
        assert!(c.push(CrashRecord {
            mutation: gpr(iris_vtx::gpr::Gpr::Rax, 1),
            ..base.clone()
        }));
        assert!(!c.push(CrashRecord {
            mutation: gpr(iris_vtx::gpr::Gpr::Rax, 60),
            ..base.clone()
        }));
        assert_eq!(c.observed(), 8);
        assert_eq!(c.unique(), 5);
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp_sibling() {
        let dir = std::env::temp_dir();
        let p = dir.join("iris-corpus-atomic-test.json");
        let tmp = dir.join("iris-corpus-atomic-test.json.tmp");
        std::fs::remove_file(&p).ok();

        let mut c = Corpus::new();
        c.push(record(FailureKind::VmCrash));
        c.save(&p).unwrap();
        assert!(!tmp.exists(), "tmp sibling must be renamed away");
        assert_eq!(Corpus::load(&p).unwrap(), c);

        // Overwriting an existing corpus goes through the same rename.
        c.push(record(FailureKind::HypervisorCrash));
        c.save(&p).unwrap();
        assert!(!tmp.exists());
        assert_eq!(Corpus::load(&p).unwrap(), c);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn io_errors_carry_the_path() {
        let missing = std::env::temp_dir().join("iris-no-such-corpus.json");
        let err = Corpus::load(&missing).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "kind preserved");
        assert!(
            err.to_string().contains("iris-no-such-corpus.json"),
            "path context missing: {err}"
        );

        let unwritable = std::env::temp_dir()
            .join("iris-no-such-dir")
            .join("corpus.json");
        let err = Corpus::new().save(&unwritable).unwrap_err();
        assert!(
            err.to_string().contains("iris-no-such-dir"),
            "path context missing: {err}"
        );

        // A torn/corrupt file reports the parse failure with its path.
        let bad = std::env::temp_dir().join("iris-corrupt-corpus.json");
        std::fs::write(&bad, b"{\"crashes\": [trunc").unwrap();
        let err = Corpus::load(&bad).unwrap_err();
        assert!(
            err.to_string().contains("iris-corrupt-corpus.json"),
            "path context missing: {err}"
        );
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn legacy_json_without_observed_count_loads_consistently() {
        // A corpus persisted before dedup landed: only a `crashes` list,
        // possibly holding flood duplicates.
        let legacy = serde_json::to_string(&serde::Value::Map(vec![(
            serde::Value::Str("crashes".to_owned()),
            vec![
                record(FailureKind::VmCrash),
                record(FailureKind::HypervisorCrash),
                record(FailureKind::HypervisorCrash),
                record(FailureKind::HypervisorCrash),
            ]
            .to_value(),
        )]))
        .unwrap();
        let c: Corpus = serde_json::from_str(&legacy).unwrap();
        assert_eq!(c.unique(), 2, "legacy duplicates are re-deduplicated");
        assert_eq!(c.observed(), 4, "every legacy record counts as observed");
        assert_eq!(c.len(), c.unique());
        assert_eq!(c.of_kind(FailureKind::HypervisorCrash).count(), 1);
        assert!(!c.is_empty());

        // A modern save/load still round-trips exactly.
        let mut modern = Corpus::new();
        for _ in 0..5 {
            modern.push(record(FailureKind::VmCrash));
        }
        let json = serde_json::to_string(&modern).unwrap();
        assert_eq!(serde_json::from_str::<Corpus>(&json).unwrap(), modern);
    }

    // The campaign's corpus writer is a `JsonWriter<Corpus>`; these pin
    // that what it writes loads back as a corpus, and that its errors
    // name the corpus path.

    #[test]
    fn corpus_writer_persists_the_newest_snapshot_atomically() {
        let p = std::env::temp_dir().join("iris-corpus-writer-test.json");
        let tmp = std::env::temp_dir().join("iris-corpus-writer-test.json.tmp");
        std::fs::remove_file(&p).ok();

        let writer = JsonWriter::<Corpus>::spawn(p.clone());
        let mut c = Corpus::new();
        c.push(record(FailureKind::VmCrash));
        writer.persist(c.clone());
        c.push(record(FailureKind::HypervisorCrash));
        writer.persist(c.clone());
        let saves = writer.finish().unwrap();
        assert!(saves >= 1, "at least one snapshot must reach disk");
        assert!(!tmp.exists(), "atomic-save semantics preserved");
        // Whatever got coalesced, the final state on disk is the newest.
        assert_eq!(Corpus::load(&p).unwrap(), c);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corpus_writer_surfaces_write_errors_at_finish() {
        let unwritable = std::env::temp_dir()
            .join("iris-no-such-dir")
            .join("corpus.json");
        let writer = JsonWriter::<Corpus>::spawn(unwritable);
        writer.persist(Corpus::new());
        writer.persist(Corpus::new());
        let err = writer.finish().unwrap_err();
        assert!(
            err.to_string().contains("iris-no-such-dir"),
            "path context missing: {err}"
        );
    }

    #[test]
    fn absorb_rededups_and_keeps_counts() {
        let mut a = Corpus::new();
        a.push(record(FailureKind::HypervisorCrash));
        let mut b = Corpus::new();
        b.push(record(FailureKind::HypervisorCrash)); // duplicate of a's
        b.push(record(FailureKind::VmCrash));
        b.push(record(FailureKind::VmCrash));
        a.absorb(b);
        assert_eq!(a.observed(), 4);
        assert_eq!(a.unique(), 2);

        // Absorbing in plan order equals pushing in plan order.
        let mut seq = Corpus::new();
        for _ in 0..2 {
            seq.push(record(FailureKind::HypervisorCrash));
        }
        for _ in 0..2 {
            seq.push(record(FailureKind::VmCrash));
        }
        assert_eq!(seq, a);
    }
}
