//! Untrusted-worker result validation: content digests, the spot-check
//! sample, and the one range execution behind workers and the
//! coordinator's re-execution.
//!
//! The paper's determinism laws make every lease a pure function of its
//! spec — which turns trust into arithmetic. A worker's `ChunkDone` is
//! summarized by a dependency-free FNV-1a digest over its canonical
//! JSON serialization; with `--redundancy K` the coordinator leases
//! each range to K **distinct** workers and folds only when all K
//! digests agree. On divergence the coordinator re-executes the range
//! itself (cheap: one range, not the job) — the local digest is ground
//! truth by the per-range RNG law — and quarantines every worker whose
//! digest disagrees with it. Independently, a deterministic sample of
//! ranges is spot-checked the same way, so even `--redundancy 1` fleets
//! get probabilistic byzantine detection. The votes, grouped by digest
//! into [`Candidate`]s, live in the job's ledger
//! ([`crate::lease::LeaseTable`]), which decides each quorum.
//!
//! Nothing here consults a clock or ambient randomness: the spot-check
//! sample is a pure function of `(fingerprint, lease index, rate)`, so
//! which ranges get audited is itself reproducible.

use crate::proto::{LeaseRange, RangeOutput};
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::campaign::run_mutant_range_with;
use iris_fuzzer::guided::{SlotContext, SlotOutcome};
use iris_fuzzer::target::{Backend, BootPlan, TargetFactory};
use iris_fuzzer::testcase::{MutantRange, TestCase};
use iris_hv::coverage::CoverageMap;

/// FNV-1a 64-bit over `bytes` — the workspace's dependency-free content
/// digest. Not cryptographic: it defends against wrong results and bit
/// rot, not against an adversary engineering collisions (DISTRIBUTED.md
/// "Failure and trust model" spells out that boundary).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content digest of a lease result: FNV-1a over its canonical
/// serialized form (the same serde_json encoding the wire uses, which
/// is deterministic — the workspace bans unordered containers).
///
/// # Errors
/// [`DistError::Protocol`] when the output cannot be serialized.
pub fn digest_output(output: &RangeOutput) -> Result<u64, DistError> {
    let bytes = serde_json::to_vec(output)
        .map_err(|e| DistError::Protocol(format!("digesting result: {e}")))?;
    Ok(fnv1a_64(&bytes))
}

/// The spot-check sampling law: lease `index` of the job with this
/// `fingerprint` is audited iff `fnv1a(fingerprint ‖ index) % rate ==
/// 0`. `rate == 0` disables sampling; `rate == 1` audits everything. A
/// pure function — re-running the job audits the same ranges.
#[must_use]
pub fn spot_check_due(rate: u64, fingerprint: &str, index: u64) -> bool {
    if rate == 0 {
        return false;
    }
    let mut bytes = fingerprint.as_bytes().to_vec();
    bytes.extend_from_slice(&index.to_le_bytes());
    fnv1a_64(&bytes).is_multiple_of(rate)
}

/// One distinct result for a lease entry: who vouched for this digest,
/// and the first delivered copy of the output (duplicate-digest
/// deliveries are not stored twice).
#[derive(Debug)]
pub struct Candidate {
    /// The content digest all these holders produced.
    pub digest: u64,
    /// The workers that delivered this digest, in delivery order.
    pub holders: Vec<u64>,
    /// The output behind the digest.
    pub output: RangeOutput,
}

/// What a range execution needs beyond the trace: the campaign test
/// case, or the guided epoch's scheduling state.
#[derive(Debug)]
pub enum ExecDetail<'a> {
    /// A campaign chunk of this test case.
    Campaign(&'a TestCase),
    /// A guided slot range against this epoch corpus and coverage.
    Guided {
        /// The epoch's scheduling corpus (`initial ++ promoted`).
        corpus: &'a [VmSeed],
        /// Seed path per corpus entry (rebuilt from the epoch's
        /// promotion lineage by [`iris_fuzzer::guided::corpus_paths`]):
        /// where each slot positions its target before submitting.
        paths: &'a [Vec<usize>],
        /// The generation-start coverage map.
        seen: &'a CoverageMap,
    },
}

/// Execute one lease range — the single implementation behind worker
/// leases, divergence adjudication, and spot-checks, so "re-execute and
/// compare" compares like with like by construction. Campaign chunks
/// run [`run_mutant_range_with`]; guided ranges boot a private
/// [`SlotContext`] and run its slot core per slot, exactly as the
/// in-process drivers do.
#[must_use]
pub fn execute_range(
    backend: &Backend,
    trace: &RecordedTrace,
    detail: &ExecDetail<'_>,
    range: LeaseRange,
    rng_seed: u64,
) -> RangeOutput {
    match detail {
        ExecDetail::Campaign(tc) => {
            let mutant_range = MutantRange {
                start: range.start as usize,
                len: range.len as usize,
            };
            RangeOutput::Campaign(Box::new(run_mutant_range_with(
                backend,
                trace,
                tc,
                mutant_range,
            )))
        }
        ExecDetail::Guided {
            corpus,
            paths,
            seen,
        } => {
            let mut ctx = SlotContext::new(backend.build(BootPlan::post_boot(trace)));
            let mut outcomes: Vec<SlotOutcome> = Vec::with_capacity(range.len as usize);
            for slot in range.start..range.start.saturating_add(range.len) {
                outcomes.push(ctx.run_slot(corpus, paths, seen, rng_seed, slot));
            }
            RangeOutput::Guided(outcomes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{LeaseTable, Vote};
    use iris_fuzzer::campaign::ChunkOutput;

    fn sample_output(tag: u64) -> RangeOutput {
        let mut chunk = ChunkOutput {
            range: MutantRange { start: 0, len: 4 },
            baseline: CoverageMap::default(),
            discovered: CoverageMap::default(),
            failures: iris_fuzzer::failure::FailureStats::default(),
            corpus: iris_fuzzer::corpus::Corpus::default(),
        };
        chunk.failures.submitted = tag;
        RangeOutput::Campaign(Box::new(chunk))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digests_separate_distinct_outputs_and_match_equal_ones() {
        let a = digest_output(&sample_output(1)).unwrap();
        let b = digest_output(&sample_output(1)).unwrap();
        let c = digest_output(&sample_output(2)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spot_check_law_is_pure_and_rate_shaped() {
        assert!(!spot_check_due(0, "fp", 3), "rate 0 disables sampling");
        for i in 0..64 {
            assert!(spot_check_due(1, "fp", i), "rate 1 audits everything");
            assert_eq!(spot_check_due(8, "fp", i), spot_check_due(8, "fp", i));
        }
        // Rate 8 samples some but not all of a reasonable window.
        let hits = (0..256).filter(|&i| spot_check_due(8, "fp", i)).count();
        assert!(hits > 0 && hits < 256, "rate 8 hit {hits}/256");
    }

    /// A ledger of `len` entries, each decided by two votes.
    fn quorum_of_two(len: usize) -> LeaseTable {
        LeaseTable::open(len, 1_000, 2, |_| false)
    }

    #[test]
    fn unanimous_quorum_accepts_the_output() {
        let mut t = quorum_of_two(1);
        let d = digest_output(&sample_output(1)).unwrap();
        assert_eq!(t.vote(0, 11, d, sample_output(1)), Vote::Pending);
        assert_eq!(t.vote(0, 12, d, sample_output(1)), Vote::Accepted);
        let accepted: Vec<_> = t.drain().collect();
        assert_eq!(accepted, [(0, sample_output(1))]);
        assert_eq!(t.drain().count(), 0, "quorum consumed the slot's votes");
    }

    #[test]
    fn split_quorum_is_divergent_and_names_the_minority() {
        let good = digest_output(&sample_output(1)).unwrap();
        let bad = digest_output(&sample_output(2)).unwrap();
        for (truth, liars) in [
            (good, vec![(66, bad)]),
            (bad, vec![(11, good)]),
            // Truth matching neither quarantines both.
            (0, vec![(11, good), (66, bad)]),
        ] {
            let mut t = quorum_of_two(4);
            assert_eq!(t.vote(3, 11, good, sample_output(1)), Vote::Pending);
            assert_eq!(t.vote(3, 66, bad, sample_output(2)), Vote::Adjudicate);
            assert_eq!(t.adjudicate(3, truth, sample_output(1)), liars);
        }
    }

    #[test]
    fn disqualification_reopens_pending_quorums() {
        let mut t = quorum_of_two(2);
        let d = digest_output(&sample_output(1)).unwrap();
        assert_eq!(t.vote(0, 11, d, sample_output(1)), Vote::Pending);
        assert_eq!(t.vote(1, 11, d, sample_output(1)), Vote::Pending);
        assert_eq!(t.disqualify(11), 2, "both pending votes are voided");
        // The slot is votable again and completes with honest workers.
        assert_eq!(t.vote(0, 12, d, sample_output(1)), Vote::Pending);
        assert_eq!(t.vote(0, 13, d, sample_output(1)), Vote::Accepted);
    }
}
