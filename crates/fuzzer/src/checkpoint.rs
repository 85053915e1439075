//! Durable checkpoint/resume for campaigns and guided runs.
//!
//! Long runs die: workers panic, hosts get preempted, operators hit
//! Ctrl-C, and a fleet-scale sweep cannot afford to restart from
//! zero. This module makes progress **durable** at the two natural
//! synchronization points the engines already have:
//!
//! * a campaign checkpoints at **test-case fold boundaries** — the
//!   aggregator folds completed test cases into the report in plan
//!   order, so "the first `folded` results plus the report they built"
//!   is a complete, self-contained prefix of the run;
//! * a guided shared-corpus run checkpoints at **generation barriers**
//!   — the barrier merge leaves the engine in its canonical
//!   deterministic state (coverage map, promotions, crash corpus,
//!   growth curve, next slot), and every value a future generation
//!   depends on is in the snapshot.
//!
//! Because both engines are deterministic given their config (the
//! per-index RNG law for campaigns, the slot law for guided runs), a
//! run resumed from a checkpoint finishes with a report
//! **byte-identical** to the uninterrupted run's — a `kill -9` costs
//! at most the work since the last barrier/fold. The conformance suite
//! pins that equality; RELIABILITY.md documents the rules.
//!
//! Checkpoints are versioned JSON, written **atomically** through
//! [`atomic_write_json`] (a `.tmp` sibling + `rename`, the pattern
//! factored out of [`Corpus::save`]) — a crash mid-write can never
//! truncate the previous checkpoint. Each checkpoint embeds a
//! **fingerprint** of the run configuration (target, workload, seeds,
//! budgets — everything the result depends on, deliberately excluding
//! `jobs`/`chunk`, which the determinism laws make irrelevant);
//! loading validates both the format version and the fingerprint, so
//! a checkpoint can only resume the run it belongs to.
//!
//! The [`JsonWriter`] at the bottom is the one background persistence
//! loop, for checkpoints and crash corpora alike: snapshots are
//! enqueued without blocking the engine, coalesced (newest wins), and
//! every I/O error is collected and surfaced joined at the end.

use crate::corpus::Corpus;
use crate::executor::ExecutorError;
use crate::failure::FailureStats;
use crate::guided::GuidedConfig;
use crate::parallel::{CampaignReport, FoldError};
use iris_core::seed::VmSeed;
use iris_hv::coverage::CoverageMap;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

/// Checkpoint format version. Bump on any layout change; loaders
/// reject other versions instead of guessing. (v2: guided checkpoints
/// carry the promotion lineage, from which the snapshot-forest seed
/// paths are rebuilt on resume.)
pub const CHECKPOINT_VERSION: u32 = 2;

/// Wrap an I/O error with the operation and path it happened on, keeping
/// the original [`io::ErrorKind`] so callers can still match on it.
pub(crate) fn annotate(e: io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Write `json` to `path` **atomically**: the bytes go to a `.tmp`
/// sibling first and are `rename`d into place, so a crash mid-write can
/// never leave a torn or truncated artifact — the previous complete
/// file (if any) survives intact. Errors carry the path they happened
/// on.
///
/// This is the one write path every durable JSON artifact shares:
/// corpus snapshots ([`Corpus::save`]), checkpoints, and the CLI's
/// `--json` report emitters.
///
/// # Errors
///
/// Propagates the failed write or rename, annotated with its path; a
/// failed rename removes the orphan `.tmp` sibling before returning.
pub fn atomic_write_json(path: &Path, json: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, json).map_err(|e| annotate(e, "writing", &tmp))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Don't leave the orphan sibling behind on a failed rename.
        std::fs::remove_file(&tmp).ok();
        annotate(e, "committing", path)
    })
}

/// The configuration fingerprint of a guided shared-corpus run:
/// everything the byte-identical result depends on. `jobs` is
/// deliberately absent — the shared engine's determinism law makes the
/// result worker-count-independent, so a run may resume with a
/// different worker count. The `ram=` segment names the stock dummy-VM
/// size every factory builds, which no option changes; dropping it
/// would orphan the checkpoints already written.
#[must_use]
pub fn guided_fingerprint(
    target: &str,
    workload: &str,
    exits: usize,
    config: &GuidedConfig,
) -> String {
    format!(
        "guided/{target}/{workload}/exits={exits}/seed={}/budget={}/gen={}/ram={}",
        config.rng_seed,
        config.budget,
        config.generation.max(1),
        crate::campaign::DEFAULT_RAM_BYTES
    )
}

/// The configuration fingerprint of a campaign run. `jobs` and `chunk`
/// are deliberately absent — the campaign report is byte-identical for
/// every `(jobs, chunk)` combination, so a run may resume with
/// different sharding.
#[must_use]
pub fn campaign_fingerprint(
    target: &str,
    workload: &str,
    exits: usize,
    seed: u64,
    mutants: usize,
    plan_len: usize,
) -> String {
    format!(
        "campaign/{target}/{workload}/exits={exits}/seed={seed}/mutants={mutants}/plan={plan_len}"
    )
}

fn validate(version: u32, fingerprint: &str, expected: &str, path: &Path) -> io::Result<()> {
    if version != CHECKPOINT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint {} has format version {version}; this build reads version \
                 {CHECKPOINT_VERSION}",
                path.display()
            ),
        ));
    }
    if fingerprint != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint {} belongs to a different run: its fingerprint is \
                 \"{fingerprint}\" but this invocation's is \"{expected}\"",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// The one `--resume` rule, shared by the in-process CLI and the
/// coordinator: no path, or a path where no file exists, is a fresh
/// start (`Ok(None)`) — so a crash before the first checkpoint write,
/// or a stale path, cannot strand the operator — while a file that is
/// present must `load` (one of the `Checkpoint::load`s) and match this
/// run's `fingerprint`.
///
/// # Errors
/// Whatever `load` returns for the file that is present.
pub fn load_if_present<T>(
    path: Option<&Path>,
    fingerprint: &str,
    load: impl FnOnce(&Path, &str) -> io::Result<T>,
) -> io::Result<Option<T>> {
    match path {
        Some(path) if path.exists() => load(path, fingerprint).map(Some),
        _ => Ok(None),
    }
}

/// A fingerprint-valid checkpoint whose *structure* contradicts the run
/// it claims to belong to — what [`crate::guided::SharedEngine::resume`]
/// and [`crate::parallel::CampaignEngine::resume`] return instead of
/// panicking or silently loading a wrong state. The fingerprint only
/// proves the file was written for this configuration; these checks
/// prove its contents can be continued from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointMismatch {
    /// Guided: `next_slot` is past the budget or off a generation
    /// boundary — checkpoints are only taken at barriers.
    SlotOffBoundary {
        /// The checkpoint's next slot.
        next_slot: u64,
        /// The run's generation size.
        generation: u64,
    },
    /// Guided: promoted seeds and lineage entries do not pair up.
    LineageLength {
        /// Lineage entries in the checkpoint.
        lineage: usize,
        /// Promoted seeds in the checkpoint.
        promoted: usize,
    },
    /// Guided: lineage entry `entry` names a mutation base that did not
    /// exist yet when that promotion happened.
    LineageBase {
        /// Position of the offending lineage entry.
        entry: usize,
        /// The base index it names.
        base: usize,
    },
    /// Campaign: `folded` disagrees with the stored results or exceeds
    /// the plan.
    FoldedCount {
        /// The checkpoint's folded counter.
        folded: usize,
        /// Results actually stored in its report.
        results: usize,
        /// Test cases in this run's plan.
        plan: usize,
    },
    /// Guided: the growth curve does not have one point per generation
    /// completed before `next_slot`.
    GrowthLength {
        /// Points in the checkpoint's growth curve.
        growth: usize,
        /// Generations `next_slot` says have completed.
        generations: u64,
    },
    /// Campaign: stored result `index` is not the plan's test case at
    /// that position — the report is not a folded prefix of this plan.
    PlanPrefix {
        /// First position where result and plan disagree.
        index: usize,
    },
    /// Campaign: the report's failure totals are not the sum of its
    /// stored results' counters.
    FailureTotals {
        /// The report's totals.
        stored: FailureStats,
        /// The sum of its results' counters.
        merged: FailureStats,
    },
}

impl std::fmt::Display for CheckpointMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::SlotOffBoundary {
                next_slot: slot,
                generation: gen,
            } => write!(
                f,
                "slot {slot} is past the budget or off a {gen}-slot boundary"
            ),
            Self::LineageLength { lineage, promoted } => {
                write!(f, "{lineage} lineage entries for {promoted} promoted seeds")
            }
            Self::LineageBase { entry, base } => {
                write!(
                    f,
                    "lineage entry {entry} names base {base} before it existed"
                )
            }
            Self::FoldedCount {
                folded,
                results,
                plan,
            } => write!(
                f,
                "folded={folded}, {results} stored results, plan of {plan}"
            ),
            Self::GrowthLength {
                growth,
                generations,
            } => write!(
                f,
                "{growth} growth points for {generations} completed generations"
            ),
            Self::PlanPrefix { index } => {
                write!(
                    f,
                    "stored result {index} is not the plan's test case {index}"
                )
            }
            Self::FailureTotals { stored, merged } => {
                write!(f, "totals {stored:?} are not the results' sum {merged:?}")
            }
        }
    }
}

impl std::error::Error for CheckpointMismatch {}

/// Options for a resumable in-process session: a
/// [`crate::parallel::ParallelCampaign::run_session`] resumes from a
/// [`CampaignCheckpoint`], a [`crate::guided::run_guided_shared_session`]
/// from a [`GuidedCheckpoint`]. The default is a fresh, uninterruptible
/// run.
#[derive(Debug)]
pub struct RunOptions<'a, C> {
    /// Cooperative stop flag, checked at every executor claim point and
    /// at the engine's own fold boundaries.
    pub stop: Option<&'a AtomicBool>,
    /// Resume from a fold-boundary checkpoint (fingerprint-checked at
    /// load; the engine's `resume` checks its structure).
    pub resume: Option<C>,
}

impl<C> Default for RunOptions<'_, C> {
    fn default() -> Self {
        Self {
            stop: None,
            resume: None,
        }
    }
}

/// Why a resumable in-process session
/// ([`crate::parallel::ParallelCampaign::run_session`],
/// [`crate::guided::run_guided_shared_session`]) gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The executor gave up (restart budget exhausted).
    Executor(ExecutorError),
    /// The resume checkpoint cannot be continued from.
    Checkpoint(CheckpointMismatch),
    /// A chunk output did not fit the campaign's chunk list.
    Fold(FoldError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Executor(e) => e.fmt(f),
            Self::Checkpoint(e) => write!(f, "resume checkpoint is inconsistent: {e}"),
            Self::Fold(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ExecutorError> for SessionError {
    fn from(e: ExecutorError) -> Self {
        Self::Executor(e)
    }
}

impl From<CheckpointMismatch> for SessionError {
    fn from(e: CheckpointMismatch) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<FoldError> for SessionError {
    fn from(e: FoldError) -> Self {
        Self::Fold(e)
    }
}

fn load_json<T: Deserialize>(path: &Path) -> io::Result<T> {
    let bytes = std::fs::read(path).map_err(|e| annotate(e, "reading checkpoint from", path))?;
    serde_json::from_slice(&bytes).map_err(|e| annotate(e.into(), "parsing checkpoint in", path))
}

fn save_json<T: Serialize>(value: &T, path: &Path) -> io::Result<()> {
    let json = serde_json::to_vec_pretty(value)
        .map_err(|e| annotate(e.into(), "serializing checkpoint for", path))?;
    atomic_write_json(path, &json)
}

/// Everything a guided shared-corpus run needs to continue from a
/// generation barrier. The scheduling corpus itself is *not* stored:
/// it is always `initial_corpus(trace) ++ promoted`, and the
/// fingerprint guarantees the resuming run records the identical
/// trace, so storing the promotions suffices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuidedCheckpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the run configuration
    /// ([`guided_fingerprint`]); resume validates it.
    pub fingerprint: String,
    /// The next slot to execute — always a generation boundary (a
    /// multiple of the generation size, or the budget).
    pub next_slot: u64,
    /// Lines the initial corpus alone covered.
    pub baseline_lines: u64,
    /// The evolving coverage map at the barrier.
    pub seen: CoverageMap,
    /// Promotions so far.
    pub promotions: u64,
    /// The promoted mutants, in promotion order.
    pub promoted: Vec<VmSeed>,
    /// Promotion lineage, aligned with `promoted`: each entry is
    /// `(base_index, extended)` — the mutation base's corpus index and
    /// whether the promoted mutant ran to completion (a crashing
    /// promotion inherits its base's state path instead of extending
    /// it). Together with the rebuilt corpus this reconstructs every
    /// entry's seed path, so a resumed run positions slots (and pins
    /// forest nodes) exactly like the uninterrupted one. Note that
    /// forest *configuration* is deliberately absent from both the
    /// checkpoint and the fingerprint, like `jobs`/`chunk`: the forest
    /// is a pure accelerator, so a run may resume with it toggled.
    pub lineage: Vec<(usize, bool)>,
    /// Folded failure counters so far.
    pub failures: FailureStats,
    /// The crash corpus so far.
    pub crashes: Corpus,
    /// The growth curve so far (one point per completed generation).
    pub growth: Vec<u64>,
}

impl GuidedCheckpoint {
    /// Persist atomically as versioned JSON.
    ///
    /// # Errors
    /// Propagates serialization and [`atomic_write_json`] failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_json(self, path)
    }

    /// Load and validate: the format version must be
    /// [`CHECKPOINT_VERSION`] and the stored fingerprint must equal
    /// `expected_fingerprint`.
    ///
    /// # Errors
    /// I/O and parse failures (annotated with the path), and
    /// [`io::ErrorKind::InvalidData`] on version or fingerprint
    /// mismatch.
    pub fn load(path: &Path, expected_fingerprint: &str) -> io::Result<Self> {
        let cp: Self = load_json(path)?;
        validate(cp.version, &cp.fingerprint, expected_fingerprint, path)?;
        Ok(cp)
    }
}

/// Everything a campaign needs to continue from a test-case fold
/// boundary: the report holding the first `folded` results (folded in
/// plan order) — re-running the remaining plan suffix on top of it
/// yields the uninterrupted report byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the run configuration
    /// ([`campaign_fingerprint`]); resume validates it.
    pub fingerprint: String,
    /// Test cases fully folded into `report` — the plan prefix to
    /// skip on resume.
    pub folded: usize,
    /// The partial report over the folded prefix.
    pub report: CampaignReport,
}

impl CampaignCheckpoint {
    /// Persist atomically as versioned JSON.
    ///
    /// # Errors
    /// Propagates serialization and [`atomic_write_json`] failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_json(self, path)
    }

    /// Load and validate: the format version must be
    /// [`CHECKPOINT_VERSION`] and the stored fingerprint must equal
    /// `expected_fingerprint`.
    ///
    /// # Errors
    /// I/O and parse failures (annotated with the path), and
    /// [`io::ErrorKind::InvalidData`] on version or fingerprint
    /// mismatch.
    pub fn load(path: &Path, expected_fingerprint: &str) -> io::Result<Self> {
        let cp: Self = load_json(path)?;
        validate(cp.version, &cp.fingerprint, expected_fingerprint, path)?;
        Ok(cp)
    }
}

/// Join a batch of write errors into one, preserving the first error's
/// [`io::ErrorKind`]; each message already carries its path (see
/// [`annotate`]).
pub(crate) fn join_write_errors(mut errors: Vec<io::Error>) -> Option<io::Error> {
    let kind = errors.first()?.kind();
    if errors.len() == 1 {
        return errors.pop();
    }
    let joined = errors
        .iter()
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    Some(io::Error::new(
        kind,
        format!("{} write errors: {joined}", errors.len()),
    ))
}

/// Background JSON persistence: a dedicated writer thread that
/// serializes and atomically saves snapshots of any `Serialize` state
/// off the engine's aggregator thread, so long runs never pause on
/// JSON I/O. The CLI's `--corpus` (a `JsonWriter<Corpus>`) and
/// `--checkpoint` writers.
///
/// * [`JsonWriter::persist`] enqueues a snapshot and returns
///   immediately (the channel is unbounded — the caller never
///   blocks);
/// * the writer coalesces: when snapshots arrive faster than the disk
///   can absorb them, only the **newest** pending snapshot is written
///   (each snapshot is cumulative, so intermediates carry no extra
///   information);
/// * every write goes through [`atomic_write_json`] — an interrupted
///   run never leaves a torn artifact;
/// * **every** error (serialization, write, rename) is collected —
///   later snapshots are still attempted — and surfaced joined, each
///   with its path, by [`JsonWriter::finish`]; a panicking writer
///   thread surfaces as an error there too instead of re-panicking.
///
/// Dropping the writer without calling `finish` detaches the thread: it
/// still drains and writes pending snapshots, but errors are lost.
#[derive(Debug)]
pub struct JsonWriter<T> {
    tx: std::sync::mpsc::Sender<T>,
    handle: std::thread::JoinHandle<(u64, Vec<io::Error>)>,
    path: PathBuf,
}

impl<T: Serialize + Send + 'static> JsonWriter<T> {
    /// Spawn the writer thread; every snapshot is saved to `path`.
    #[must_use]
    pub fn spawn(path: PathBuf) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<T>();
        let thread_path = path.clone();
        let handle = std::thread::spawn(move || {
            let mut saves = 0u64;
            let mut errors: Vec<io::Error> = Vec::new();
            while let Ok(mut snapshot) = rx.recv() {
                // Coalesce the backlog: later snapshots supersede
                // earlier ones, so skip straight to the newest.
                while let Ok(newer) = rx.try_recv() {
                    snapshot = newer;
                }
                match serde_json::to_vec_pretty(&snapshot) {
                    Ok(json) => match atomic_write_json(&thread_path, &json) {
                        Ok(()) => saves += 1,
                        Err(e) => errors.push(e),
                    },
                    Err(e) => {
                        errors.push(annotate(e.into(), "serializing snapshot for", &thread_path));
                    }
                }
            }
            (saves, errors)
        });
        Self { tx, handle, path }
    }

    /// Enqueue a snapshot for persistence. Non-blocking; serialization
    /// and I/O happen on the writer thread.
    pub fn persist(&self, snapshot: T) {
        // A send can only fail if the writer thread died, and the writer
        // only exits when the channel closes — unreachable while `tx`
        // lives, so losing the snapshot here is fine.
        let _ = self.tx.send(snapshot);
    }

    /// Close the channel, wait for every outstanding write, and surface
    /// **all** collected errors, joined (each carries its path).
    /// Returns the number of snapshots actually written (coalesced
    /// snapshots count once).
    ///
    /// # Errors
    /// The joined write/serialization errors, or an error reporting a
    /// panicked writer thread.
    pub fn finish(self) -> io::Result<u64> {
        let Self { tx, handle, path } = self;
        drop(tx);
        let Ok((saves, errors)) = handle.join() else {
            return Err(io::Error::other(format!(
                "background JSON writer for {} panicked",
                path.display()
            )));
        };
        match join_write_errors(errors) {
            None => Ok(saves),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guided_cp(fingerprint: &str) -> GuidedCheckpoint {
        GuidedCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint.to_owned(),
            next_slot: 512,
            baseline_lines: 10,
            seen: CoverageMap::new(),
            promotions: 0,
            promoted: Vec::new(),
            lineage: Vec::new(),
            failures: FailureStats::default(),
            crashes: Corpus::new(),
            growth: vec![10, 10],
        }
    }

    #[test]
    fn atomic_write_leaves_no_tmp_and_overwrites_atomically() {
        let dir = std::env::temp_dir();
        let p = dir.join("iris-atomic-write-test.json");
        let tmp = dir.join("iris-atomic-write-test.json.tmp");
        std::fs::remove_file(&p).ok();

        atomic_write_json(&p, b"{\"a\":1}").unwrap();
        assert!(!tmp.exists(), "tmp sibling must be renamed away");
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"a\":1}");
        atomic_write_json(&p, b"{\"a\":2}").unwrap();
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"a\":2}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn atomic_write_errors_carry_the_path() {
        let unwritable = std::env::temp_dir().join("iris-no-such-dir").join("x.json");
        let err = atomic_write_json(&unwritable, b"{}").unwrap_err();
        assert!(
            err.to_string().contains("iris-no-such-dir"),
            "path context missing: {err}"
        );
    }

    #[test]
    fn guided_checkpoint_round_trips_and_validates() {
        let p = std::env::temp_dir().join("iris-guided-checkpoint-test.json");
        let fp = guided_fingerprint("iris", "os_boot", 5000, &GuidedConfig::default());
        let cp = guided_cp(&fp);
        cp.save(&p).unwrap();

        let loaded = GuidedCheckpoint::load(&p, &fp).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&cp).unwrap()
        );

        // A different configuration must be rejected.
        let other = guided_fingerprint(
            "iris",
            "os_boot",
            5000,
            &GuidedConfig {
                budget: 9999,
                ..GuidedConfig::default()
            },
        );
        let err = GuidedCheckpoint::load(&p, &other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different run"), "got: {err}");

        // A future format version must be rejected.
        let future = GuidedCheckpoint {
            version: CHECKPOINT_VERSION + 1,
            ..guided_cp(&fp)
        };
        future.save(&p).unwrap();
        let err = GuidedCheckpoint::load(&p, &fp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version"), "got: {err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn campaign_checkpoint_round_trips_and_validates() {
        let p = std::env::temp_dir().join("iris-campaign-checkpoint-test.json");
        let fp = campaign_fingerprint("iris", "os_boot", 5000, 42, 200, 8);
        let cp = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            folded: 0,
            report: CampaignReport {
                results: Vec::new(),
                coverage: CoverageMap::new(),
                failures: FailureStats::default(),
                corpus: Corpus::new(),
            },
        };
        cp.save(&p).unwrap();
        let loaded = CampaignCheckpoint::load(&p, &fp).unwrap();
        assert_eq!(loaded.folded, 0);
        assert_eq!(loaded.report, cp.report);

        let err = CampaignCheckpoint::load(
            &p,
            &campaign_fingerprint("faulty", "os_boot", 5000, 42, 200, 8),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn fingerprints_separate_runs_and_ignore_sharding() {
        let cfg = GuidedConfig::default();
        let a = guided_fingerprint("iris", "os_boot", 5000, &cfg);
        assert_eq!(a, guided_fingerprint("iris", "os_boot", 5000, &cfg));
        assert_ne!(a, guided_fingerprint("faulty", "os_boot", 5000, &cfg));
        assert_ne!(a, guided_fingerprint("iris", "idle", 5000, &cfg));
        assert_ne!(
            a,
            guided_fingerprint(
                "iris",
                "os_boot",
                5000,
                &GuidedConfig { rng_seed: 7, ..cfg }
            )
        );
        // Campaign and guided checkpoints can never cross-resume.
        assert!(a.starts_with("guided/"));
        assert!(campaign_fingerprint("iris", "os_boot", 5000, 42, 200, 8).starts_with("campaign/"));
    }

    #[test]
    fn join_write_errors_reports_every_error() {
        assert!(join_write_errors(Vec::new()).is_none());
        let one = join_write_errors(vec![io::Error::new(
            io::ErrorKind::NotFound,
            "writing /a: gone",
        )])
        .unwrap();
        assert_eq!(one.kind(), io::ErrorKind::NotFound);
        let joined = join_write_errors(vec![
            io::Error::new(io::ErrorKind::PermissionDenied, "writing /a: denied"),
            io::Error::new(io::ErrorKind::NotFound, "committing /b: gone"),
        ])
        .unwrap();
        assert_eq!(
            joined.kind(),
            io::ErrorKind::PermissionDenied,
            "first error's kind wins"
        );
        let msg = joined.to_string();
        assert!(
            msg.contains("/a") && msg.contains("/b"),
            "all paths reported: {msg}"
        );
        assert!(msg.contains("2 write errors"), "count reported: {msg}");
    }

    #[test]
    fn json_writer_persists_newest_and_collects_errors() {
        let p = std::env::temp_dir().join("iris-json-writer-test.json");
        std::fs::remove_file(&p).ok();
        let writer = JsonWriter::<Vec<u32>>::spawn(p.clone());
        writer.persist(vec![1]);
        writer.persist(vec![1, 2]);
        let saves = writer.finish().unwrap();
        assert!(saves >= 1);
        let on_disk: Vec<u32> = serde_json::from_slice(&std::fs::read(&p).unwrap()).unwrap();
        assert_eq!(on_disk, vec![1, 2], "the newest snapshot wins");
        std::fs::remove_file(&p).ok();

        let unwritable = std::env::temp_dir().join("iris-no-such-dir").join("w.json");
        let writer = JsonWriter::<Vec<u32>>::spawn(unwritable);
        writer.persist(vec![9]);
        let err = writer.finish().unwrap_err();
        assert!(
            err.to_string().contains("iris-no-such-dir"),
            "path context missing: {err}"
        );
    }

    #[test]
    fn json_writer_keeps_writing_after_an_error() {
        // A write error does not latch: each later snapshot is still
        // attempted, and every error surfaces joined at finish.
        let dir = std::env::temp_dir().join("iris-json-writer-late-dir");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("w.json");
        let writer = JsonWriter::<Vec<u32>>::spawn(path.clone());
        writer.persist(vec![1]); // fails: the parent dir is missing
        std::thread::sleep(std::time::Duration::from_millis(500));
        std::fs::create_dir_all(&dir).unwrap();
        writer.persist(vec![1, 2]);
        let err = writer.finish().unwrap_err();
        assert!(
            err.to_string().contains("w.json"),
            "path context missing: {err}"
        );
        let on_disk: Vec<u32> = serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(on_disk, vec![1, 2], "the later snapshot landed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_writer_with_no_snapshots_is_a_clean_no_op() {
        let p = std::env::temp_dir().join("iris-json-writer-noop.json");
        std::fs::remove_file(&p).ok();
        let writer = JsonWriter::<Vec<u32>>::spawn(p.clone());
        assert_eq!(writer.finish().unwrap(), 0);
        assert!(!p.exists(), "nothing persisted, nothing written");
    }
}
