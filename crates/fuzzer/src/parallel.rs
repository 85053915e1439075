//! Parallel sharded campaign execution with sub-test-case work stealing.
//!
//! The paper's PoC fuzzer (§VII) submits test cases strictly
//! sequentially ([`ParallelCampaign::run_sequential_with`] is that
//! reference). A campaign plan, however, is embarrassingly parallel — and since the per-range
//! RNG law ([`crate::mutation::mutant_rng`]) made the mutant stream
//! partition-invariant, so is every test case's mutant range.
//! [`ParallelCampaign`] therefore steals work at **chunk** granularity
//! ([`TestCase::chunks`], default [`crate::testcase::DEFAULT_CHUNK`]):
//! the plan is precomputed into a flat chunk list in
//! `(test_case_index, range_start)` order and handed to the shared
//! work-stealing executor ([`crate::executor`]) — N worker threads
//! claim chunks off an **atomic cursor** (one `fetch_add` per claim —
//! no lock on the hot path), each worker runs its chunk on a private
//! target stack ([`crate::campaign::run_mutant_range_with`] — boot to
//! `s1` once per chunk, snapshot-restore per crash), and the executor
//! delivers one [`ChunkOutput`] per chunk (not per seed) back in
//! chunk-index order. The fold itself is [`CampaignEngine`] — the one
//! state machine the thread executor here and the `crates/dist`
//! coordinator both drive: it sees each test case's chunks
//! contiguously and in `range_start` order, assembles them
//! ([`crate::campaign::assemble_test_case`]) and folds completed test
//! cases into the report in **plan order** — coverage word-merged,
//! [`FailureStats`] folded, chunk-local [`Corpus`] shards absorbed by
//! move.
//!
//! Chunking is what keeps one huge-`M` cell (the paper's 10 000-mutant
//! test cases) from pinning a single worker while the rest of the pool
//! idles: wall-clock is bounded by total mutants, not by the largest
//! cell.
//!
//! When the factory enables the snapshot forest
//! ([`TargetFactory::forest`]), workers trade the per-chunk rebuild for
//! a **long-lived target per workload** (a prefix server — a
//! [`SlotContext`], walked by the same `guided::position` as a guided slot's
//! base): positioning
//! at a test case's seed prefix restores the deepest pinned
//! [`iris_core::forest::SnapshotForest`] node and replays only the
//! remaining seeds — O(delta) instead of O(prefix) — and crash recovery
//! inside a chunk restores the prefix node the same way. Pins are pure
//! accelerators (an evicted node is re-derived by replay), so the two
//! paths position targets in identical states.
//!
//! Determinism is a hard requirement: the mutant stream is a pure
//! function of `(rng_seed, mutant_index)`, chunk outputs merge in a
//! defined order, and folding is ordered by plan index — so the report
//! (results, merged coverage, folded stats, deduplicated corpus) is
//! byte-identical for **any** `(jobs, chunk)` combination and forest
//! configuration, and identical to the sequential reference loop over
//! the same plan.

use crate::campaign::{
    assemble_test_case, run_mutant_range_on, run_mutant_range_with, run_test_case_with,
    ChunkOutput, TestCaseResult,
};
use crate::checkpoint::{
    CampaignCheckpoint, CheckpointMismatch, RunOptions, SessionError, CHECKPOINT_VERSION,
};
use crate::corpus::Corpus;
use crate::executor::{run_ordered, ExecutorError};
use crate::failure::FailureStats;
use crate::guided::{position, SlotContext};
use crate::target::{BootPlan, FuzzTarget, IrisHvTarget, TargetFactory};
use crate::testcase::{MutantRange, TestCase, DEFAULT_CHUNK};
use iris_core::trace::RecordedTrace;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use crate::executor::available_jobs;

/// Aggregated outcome of a campaign plan — everything Table I needs,
/// plus the merged coverage and the deduplicated crash corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// One result per planned test case, in plan order.
    pub results: Vec<TestCaseResult>,
    /// Union of every test case's touched coverage (baseline ∪
    /// discovered), merged word-wise.
    pub coverage: CoverageMap,
    /// Folded failure counters over the whole plan.
    pub failures: FailureStats,
    /// Deduplicated crash corpus over the whole plan.
    pub corpus: Corpus,
}

impl CampaignReport {
    /// An empty report — the fold's starting state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            results: Vec::new(),
            coverage: CoverageMap::new(),
            failures: FailureStats::default(),
            corpus: Corpus::new(),
        }
    }

    /// Fold one assembled test case in. Must be called in plan order —
    /// the corpus dedup keeps the *first* record per signature, and plan
    /// order is what makes that choice schedule-independent. (The corpus
    /// itself is absorbed chunk-by-chunk in `self.corpus` by
    /// [`assemble_test_case`] before this runs.) [`CampaignEngine`] and
    /// the sequential reference are the only callers outside tests.
    pub fn fold_assembled(&mut self, result: TestCaseResult, coverage: &CoverageMap) {
        self.failures.merge(&result.failures);
        self.coverage.merge(coverage);
        self.results.push(result);
    }
}

impl Default for CampaignReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Run one chunk on a forest-mode worker's long-lived target for the
/// test case's workload (booted from a prefix-0 plan, so the forest
/// root is the state right before `seeds[0]`, and retained for the
/// worker's whole run): [`position`] at the test case's seed prefix —
/// pinned node restore + remainder replay instead of rebuilding the
/// stack and replaying from scratch — then run the shared chunk core
/// with a `restore_s1` that re-positions the same way after a crash.
/// `server.pins[k]` pins the state after replaying `seeds[..=k]`.
/// Byte-identical to [`run_mutant_range_with`], which boots a fresh
/// target to the same state — a forest node's state is a pure function
/// of the replayed prefix.
fn run_chunk_pinned<T: FuzzTarget>(
    server: &mut SlotContext<T>,
    trace: &RecordedTrace,
    testcase: &TestCase,
    range: MutantRange,
) -> ChunkOutput {
    let SlotContext { target, pins } = server;
    let prefix: Vec<usize> = (0..testcase.seed_index).collect();
    let mut restore_s1 = |t: &mut T| position(t, pins, &trace.seeds, &prefix);
    restore_s1(target);
    run_mutant_range_on(target, &mut restore_s1, trace, testcase, range)
}

/// Progress through the chunks folded so far — **mutant-granular**, so
/// a huge-`M` cell shows progress long before its test case completes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignProgress {
    /// Mutants whose chunks have been folded so far.
    pub mutants_done: u64,
    /// Total mutants the plan submits.
    pub mutants_total: u64,
    /// Test cases fully assembled and folded into the report so far.
    pub results_folded: usize,
}

/// Why [`CampaignEngine::fold`] refused a chunk output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldError {
    /// No chunk with this index exists (or it does not resolve against
    /// the driver's plan and traces).
    UnknownChunk {
        /// The offending chunk index.
        index: usize,
    },
    /// The output covers a different mutant range than the chunk at
    /// that index.
    RangeMismatch {
        /// The offending chunk index.
        index: usize,
    },
    /// The chunk is not the next one in chunk order.
    OutOfOrder {
        /// The chunk the engine folds next.
        expected: usize,
        /// The offending chunk index.
        index: usize,
    },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownChunk { index } => write!(f, "no campaign chunk {index} in this plan"),
            Self::RangeMismatch { index } => {
                write!(f, "chunk output's mutant range is not chunk {index}'s")
            }
            Self::OutOfOrder { expected, index } => {
                write!(f, "chunk {index} arrived while chunk {expected} is next")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// The campaign's ordered fold as an explicit state machine — the
/// campaign's counterpart of [`crate::guided::SharedEngine`]. It owns
/// the plan→chunk flattening, the per-test-case assembly, the progress
/// accounting and the resume-prefix validation; drivers only execute
/// [`CampaignEngine::chunks`] somewhere and hand the outputs back.
/// [`ParallelCampaign`] drives it on the in-process executor, the
/// `crates/dist` coordinator over the wire; both therefore produce the
/// byte-identical report.
#[derive(Debug)]
pub struct CampaignEngine {
    plan: Vec<TestCase>,
    /// Outstanding work in `(test_case_index, range_start)` order — the
    /// resumed plan prefix is skipped.
    chunks: Vec<(usize, MutantRange)>,
    /// The next chunk to fold; every chunk below it has been.
    next: usize,
    /// The chunk outputs of the test case being assembled, in range
    /// order. Dropped as soon as the test case folds, so memory holds
    /// one test case's chunks (each carries two 448-byte coverage maps),
    /// never the plan's.
    pending: Vec<ChunkOutput>,
    report: CampaignReport,
    mutants_done: u64,
    mutants_total: u64,
}

impl CampaignEngine {
    /// An engine over the whole of `plan`, cut into work-stealing
    /// chunks of `chunk` mutants.
    #[must_use]
    pub fn fresh(plan: Vec<TestCase>, chunk: usize) -> Self {
        Self::start(plan, chunk, CampaignReport::new())
    }

    /// Continue from a fold-boundary checkpoint (fingerprint-checked by
    /// [`CampaignCheckpoint::load`]): the checkpointed report must be
    /// exactly the folded prefix of `plan`; only the rest is chunked.
    /// Mutant RNG seeding depends on the test case alone, so the
    /// remainder runs as it would have uninterrupted.
    ///
    /// # Errors
    /// [`CheckpointMismatch`] when `folded` disagrees with the stored
    /// results or the plan length, a stored result is not the plan's
    /// test case at its position, or the report's failure totals are not
    /// the sum of its results'.
    pub fn resume(
        plan: Vec<TestCase>,
        chunk: usize,
        cp: CampaignCheckpoint,
    ) -> Result<Self, CheckpointMismatch> {
        let results = &cp.report.results;
        if cp.folded > plan.len() || cp.folded != results.len() {
            return Err(CheckpointMismatch::FoldedCount {
                folded: cp.folded,
                results: results.len(),
                plan: plan.len(),
            });
        }
        if let Some(index) = (plan.iter().zip(results)).position(|(tc, r)| *tc != r.testcase) {
            return Err(CheckpointMismatch::PlanPrefix { index });
        }
        let mut merged = FailureStats::default();
        for r in results {
            merged.merge(&r.failures);
        }
        if merged != cp.report.failures {
            let stored = cp.report.failures;
            return Err(CheckpointMismatch::FailureTotals { stored, merged });
        }
        Ok(Self::start(plan, chunk, cp.report))
    }

    fn start(plan: Vec<TestCase>, chunk: usize, report: CampaignReport) -> Self {
        let folded = report.results.len();
        let mutants = |n: usize| plan.iter().take(n).map(|tc| tc.mutants as u64).sum();
        Self {
            chunks: (plan.iter().enumerate().skip(folded))
                .flat_map(|(tc_idx, tc)| tc.chunks(chunk).map(move |r| (tc_idx, r)))
                .collect(),
            next: 0,
            pending: Vec::new(),
            mutants_done: mutants(folded),
            mutants_total: mutants(plan.len()),
            report,
            plan,
        }
    }

    /// The plan this engine folds.
    #[must_use]
    pub fn plan(&self) -> &[TestCase] {
        &self.plan
    }

    /// The outstanding work: `(plan index, mutant range)` per chunk, in
    /// fold order. A chunk's position here is the `index`
    /// [`CampaignEngine::fold`] takes; empty when the checkpoint
    /// already covered the whole plan.
    #[must_use]
    pub fn chunks(&self) -> &[(usize, MutantRange)] {
        &self.chunks
    }

    /// Fold chunk `index`'s output, which must be the next chunk in
    /// chunk order — both drivers deliver in that order (the executor
    /// by construction, the fleet's lease table by draining). A test
    /// case assembles and folds into the report the moment its last
    /// chunk does.
    ///
    /// # Errors
    /// [`FoldError`] when `index` is not a chunk of this engine, `out`
    /// covers a different mutant range, or `index` is not the next
    /// chunk; the engine is unchanged.
    pub fn fold(&mut self, index: usize, out: ChunkOutput) -> Result<(), FoldError> {
        let Some(&(tc_idx, range)) = self.chunks.get(index) else {
            return Err(FoldError::UnknownChunk { index });
        };
        if range != out.range {
            return Err(FoldError::RangeMismatch { index });
        }
        if index != self.next {
            let expected = self.next;
            return Err(FoldError::OutOfOrder { expected, index });
        }
        let Some(tc) = self.plan.get(tc_idx) else {
            return Err(FoldError::UnknownChunk { index });
        };
        self.next += 1;
        self.mutants_done += out.range.len as u64;
        // Chunks partition `0..mutants` in order, so the one ending at
        // `mutants` is the test case's last.
        let last = out.range.end() == tc.mutants;
        self.pending.push(out);
        if last {
            let (result, coverage) =
                assemble_test_case(tc, self.pending.drain(..), &mut self.report.corpus);
            self.report.fold_assembled(result, &coverage);
        }
        Ok(())
    }

    /// Progress through the chunks folded so far.
    #[must_use]
    pub fn progress(&self) -> CampaignProgress {
        CampaignProgress {
            mutants_done: self.mutants_done,
            mutants_total: self.mutants_total,
            results_folded: self.report.results.len(),
        }
    }

    /// The report over the folded plan prefix.
    #[must_use]
    pub fn report(&self) -> &CampaignReport {
        &self.report
    }

    /// Snapshot the folded plan prefix as a durable
    /// [`CampaignCheckpoint`] carrying `fingerprint`; chunks of a test
    /// case still being assembled are not part of it (they re-run on
    /// resume).
    #[must_use]
    pub fn checkpoint(&self, fingerprint: &str) -> CampaignCheckpoint {
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint.to_owned(),
            folded: self.report.results.len(),
            report: self.report.clone(),
        }
    }

    /// The report over the folded plan prefix — the whole plan once
    /// every chunk has folded. Chunks of a test case still being
    /// assembled are discarded: folding is all-or-nothing per test case.
    #[must_use]
    pub fn into_report(self) -> CampaignReport {
        self.report
    }
}

/// A campaign executor that shards the planned test cases' mutant
/// ranges across worker threads at chunk granularity, generic over the
/// fuzz-target backend: every worker builds a private
/// [`crate::target::FuzzTarget`] instance per stolen chunk through the
/// shared factory.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCampaign<F: TargetFactory = IrisHvTarget> {
    /// Worker thread count (≥ 1).
    pub jobs: usize,
    /// Mutants per work-stealing chunk (≥ 1); the report is
    /// byte-identical for every value, only the stealing granularity —
    /// and so the load balance — changes.
    pub chunk: usize,
    /// The backend factory workers build their instances from.
    pub factory: F,
}

impl ParallelCampaign {
    /// A stock-backend executor with an explicit worker count (clamped
    /// to ≥ 1) and the sequential campaign's dummy-VM sizing.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self::with_factory(jobs, IrisHvTarget::default())
    }
}

/// The infallible entry points' contract: without a stop flag or a
/// checkpoint the only reachable error is restart-budget exhaustion.
fn completed(outcome: Result<CampaignReport, SessionError>) -> CampaignReport {
    match outcome {
        Ok(report) => report,
        // lint:allow(panic-path-audit) -- infallible wrapper by contract: default options carry no stop flag and no checkpoint, so the only error is restart-budget exhaustion, a crash loop worth a panic
        Err(err) => panic!("campaign run failed: {err}"),
    }
}

impl<F: TargetFactory> ParallelCampaign<F> {
    /// An executor over an explicit backend factory, stealing at the
    /// default chunk granularity ([`DEFAULT_CHUNK`]).
    #[must_use]
    pub fn with_factory(jobs: usize, factory: F) -> Self {
        Self {
            jobs: jobs.max(1),
            chunk: DEFAULT_CHUNK,
            factory,
        }
    }

    /// Override the work-stealing chunk size (clamped to ≥ 1).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Run a plan whose test cases may span several workloads; each test
    /// case runs against the trace recorded for its workload.
    ///
    /// # Panics
    /// Panics if a planned test case names a workload with no trace in
    /// `traces` — a malformed plan, not a runtime condition — or if
    /// worker panics exhaust the executor's restart budget.
    #[must_use]
    pub fn run(
        &self,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
    ) -> CampaignReport {
        completed(self.run_session(traces, plan, RunOptions::default(), |_| {}))
    }

    /// [`ParallelCampaign::run`] with the fault-tolerance knobs and an
    /// observer: resume from a fold-boundary checkpoint, honour a
    /// cooperative stop flag. `observe` runs on the aggregator thread after every
    /// folded chunk: drive progress lines (mutant-granular, so huge-`M`
    /// cells show movement), persist corpus snapshots or checkpoints
    /// ([`CampaignEngine::checkpoint`]; pair with
    /// [`crate::checkpoint::JsonWriter`] to keep the JSON I/O off this
    /// thread).
    ///
    /// Interruption semantics: when the stop flag trips, the test case
    /// being assembled is **discarded** (folding is all-or-nothing per
    /// test case) and the run returns `Ok` with the report over the
    /// folded plan prefix — `report.results.len() < plan.len()` then
    /// marks the run as partial, and a [`CampaignCheckpoint`] built
    /// from it resumes the remainder. A resumed run's final report is
    /// byte-identical to an uninterrupted one.
    ///
    /// # Errors
    /// [`SessionError::Executor`] when worker panics exceed
    /// [`crate::executor::MAX_WORKER_RESTARTS`]; [`SessionError::Checkpoint`] when the resume
    /// checkpoint is not a folded prefix of `plan`.
    ///
    /// # Panics
    /// Panics on a malformed plan (a workload with no trace).
    pub fn run_session<O>(
        &self,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
        options: RunOptions<'_, CampaignCheckpoint>,
        observe: O,
    ) -> Result<CampaignReport, SessionError>
    where
        O: FnMut(&CampaignEngine),
    {
        for tc in plan {
            assert!(
                traces.contains_key(&tc.workload),
                "plan references workload {:?} with no recorded trace",
                tc.workload
            );
        }
        self.run_with(plan, |tc| traces.get(&tc.workload), options, observe)
    }

    /// Run a single-trace plan (every test case targets `trace`).
    ///
    /// # Panics
    /// Panics if worker panics exhaust the executor's restart budget.
    #[must_use]
    pub fn run_trace(&self, trace: &RecordedTrace, plan: &[TestCase]) -> CampaignReport {
        completed(self.run_with(plan, |_| Some(trace), RunOptions::default(), |_| {}))
    }

    /// The thread driver of [`CampaignEngine`]: run the engine's chunk
    /// list on the shared work-stealing executor ([`run_ordered`] —
    /// atomic-cursor claim, chunk-index-ordered delivery) and fold on
    /// this (aggregator) thread as outputs arrive. (Out-of-order
    /// completions park inside the executor, bounded by the
    /// out-of-order window, not the chunk-list length.)
    fn run_with<'t, G, O>(
        &self,
        plan: &[TestCase],
        trace_of: G,
        options: RunOptions<'_, CampaignCheckpoint>,
        mut observe: O,
    ) -> Result<CampaignReport, SessionError>
    where
        G: Fn(&TestCase) -> Option<&'t RecordedTrace>,
        O: FnMut(&CampaignEngine),
    {
        let mut engine = match options.resume {
            Some(cp) => CampaignEngine::resume(plan.to_vec(), self.chunk, cp)?,
            None => CampaignEngine::fresh(plan.to_vec(), self.chunk),
        };
        // Resolve every chunk to its test case and trace once, so the
        // workers share plain references.
        let resolve = |tc_idx: usize| {
            let tc = plan.get(tc_idx)?;
            Some((tc, trace_of(tc)?))
        };
        let items = (engine.chunks().iter().enumerate())
            .map(|(index, &(tc_idx, range))| {
                let (tc, trace) = resolve(tc_idx).ok_or(FoldError::UnknownChunk { index })?;
                Ok((tc, trace, range))
            })
            .collect::<Result<Vec<_>, FoldError>>()?;
        let mut failed = None;
        let mut sink = |index: usize, out: ChunkOutput| {
            if failed.is_none() {
                failed = engine.fold(index, out).err();
                observe(&engine);
            }
        };
        let factory = &self.factory;
        let outcome = if factory.forest().is_some() {
            // Forest mode: persistent per-worker servers (one per
            // workload) position via pinned nodes instead of booting a
            // fresh stack per chunk. Byte-identical output either way —
            // the conformance suite holds the two paths against each
            // other.
            run_ordered(
                &items,
                self.jobs,
                options.stop,
                BTreeMap::new,
                |servers: &mut BTreeMap<Workload, SlotContext<F::Target<'t>>>,
                 _,
                 &(tc, trace, range)| {
                    let server = servers.entry(tc.workload).or_insert_with(|| {
                        SlotContext::new(factory.build(BootPlan::for_test_case(trace, 0)))
                    });
                    run_chunk_pinned(server, trace, tc, range)
                },
                &mut sink,
            )
        } else {
            run_ordered(
                &items,
                self.jobs,
                options.stop,
                || (),
                |(), _, &(tc, trace, range)| run_mutant_range_with(factory, trace, tc, range),
                &mut sink,
            )
        };
        if let Some(err) = failed {
            return Err(err.into());
        }
        match outcome {
            // An interrupted run is not an error: the engine's report
            // covers exactly the folded plan prefix.
            Ok(()) | Err(ExecutorError::Interrupted { .. }) => Ok(engine.into_report()),
            Err(err) => Err(err.into()),
        }
    }

    /// The sequential reference: one shared corpus over the plan, in
    /// order — exactly what a pre-sharding driver did. The parallel path
    /// must produce a byte-identical report to this.
    #[must_use]
    pub fn run_sequential_with(
        factory: &F,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
    ) -> CampaignReport {
        let mut report = CampaignReport::new();
        for tc in plan {
            // lint:allow(panic-path-audit) -- the sequential reference mirrors run_session's contract: a plan workload without a trace is a caller bug worth a panic
            let trace = &traces[&tc.workload];
            let (result, coverage) = run_test_case_with(factory, &mut report.corpus, trace, tc);
            report.fold_assembled(result, &coverage);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::SeedArea;
    use crate::target::record_trace;
    use iris_vtx::exit::ExitReason;

    fn boot_trace(n: usize) -> RecordedTrace {
        record_trace(iris_guest::workloads::Workload::OsBoot, n, 42)
    }

    fn plan_over(trace: &RecordedTrace, mutants: usize) -> Vec<TestCase> {
        let mut plan = Vec::new();
        let mut seen = Vec::new();
        for (idx, seed) in trace.seeds.iter().enumerate() {
            if seen.contains(&seed.reason) {
                continue;
            }
            seen.push(seed.reason);
            for area in SeedArea::ALL {
                plan.push(TestCase {
                    mutants,
                    ..TestCase::new(
                        iris_guest::workloads::Workload::OsBoot,
                        idx,
                        seed.reason,
                        area,
                        0xC0FFEE ^ idx as u64,
                    )
                });
            }
        }
        plan
    }

    #[test]
    fn parallel_report_is_byte_identical_across_worker_counts() {
        let trace = boot_trace(150);
        let plan = plan_over(&trace, 40);
        assert!(plan.len() >= 6, "plan too small to shard meaningfully");
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let sequential =
            ParallelCampaign::run_sequential_with(&IrisHvTarget::default(), &traces, &plan);
        let baseline = serde_json::to_string(&sequential).unwrap();
        for jobs in [1usize, 2, 8] {
            let report = ParallelCampaign::new(jobs).run(&traces, &plan);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "jobs={jobs} diverged from the sequential reference"
            );
        }
    }

    #[test]
    fn report_is_byte_identical_across_jobs_and_chunk_sizes() {
        // The acceptance cross product: jobs × chunk, including chunk=1
        // (every mutant its own steal) and whole-cell chunks, against
        // the sequential reference. The plan keeps seed indices small so
        // the per-chunk boot prefix stays cheap.
        let trace = boot_trace(120);
        let mut plan = Vec::new();
        for (reason, area) in [
            (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
            (ExitReason::Cpuid, SeedArea::Gpr),     // harmless cell
            (ExitReason::IoInstruction, SeedArea::Vmcs),
        ] {
            let idx = trace
                .seeds
                .iter()
                .position(|s| s.reason == reason)
                .expect("reason present in boot trace");
            plan.push(TestCase {
                mutants: 90,
                ..TestCase::new(
                    iris_guest::workloads::Workload::OsBoot,
                    idx,
                    reason,
                    area,
                    0xBEEF ^ idx as u64,
                )
            });
        }
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let sequential =
            ParallelCampaign::run_sequential_with(&IrisHvTarget::default(), &traces, &plan);
        let baseline = serde_json::to_string(&sequential).unwrap();
        assert!(
            sequential.corpus.observed() > 0,
            "the cross-product plan must exercise crash recovery"
        );
        for jobs in [1usize, 2, 8] {
            for chunk in [1usize, 64, usize::MAX] {
                let report = ParallelCampaign::new(jobs)
                    .with_chunk(chunk)
                    .run(&traces, &plan);
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    baseline,
                    "jobs={jobs} chunk={chunk} diverged from the sequential reference"
                );
            }
        }
    }

    #[test]
    fn engine_folds_reverse_order_deliveries_to_the_reference_bytes() {
        // The engine by hand: every chunk executed up front, then folded
        // in chunk order — the bytes match the thread driver and the
        // sequential reference. A reversed delivery is refused chunk by
        // chunk, and a refusal leaves the engine as it was.
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 20);
        let factory = IrisHvTarget::default();
        let mut engine = CampaignEngine::fresh(plan.clone(), 8);
        let outputs: Vec<ChunkOutput> = (engine.chunks().iter())
            .map(|&(tc_idx, range)| run_mutant_range_with(&factory, &trace, &plan[tc_idx], range))
            .collect();
        let last = outputs.len() - 1;
        assert!(last >= plan.len(), "several chunks per test case");
        let wrong = outputs[1].clone();
        assert_eq!(
            engine.fold(0, wrong),
            Err(FoldError::RangeMismatch { index: 0 })
        );
        assert_eq!(
            engine.fold(outputs.len(), outputs[0].clone()),
            Err(FoldError::UnknownChunk {
                index: outputs.len()
            })
        );
        for (index, out) in outputs.iter().enumerate().rev().take(3) {
            assert_eq!(
                engine.fold(index, out.clone()),
                Err(FoldError::OutOfOrder { expected: 0, index })
            );
        }
        assert_eq!(engine.progress().mutants_done, 0, "refusals fold nothing");
        for (index, out) in outputs.iter().enumerate() {
            engine
                .fold(index, out.clone())
                .expect("chunks in order are the engine's own");
            if index < last {
                let redelivered = engine.fold(index, out.clone());
                let expected = index + 1;
                assert_eq!(redelivered, Err(FoldError::OutOfOrder { expected, index }));
            }
        }
        assert_eq!(engine.progress().results_folded, plan.len());
        let folded = serde_json::to_string(&engine.into_report()).unwrap();

        let threaded = ParallelCampaign::new(2)
            .with_chunk(8)
            .run_trace(&trace, &plan);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);
        let sequential = ParallelCampaign::run_sequential_with(&factory, &traces, &plan);
        assert_eq!(folded, serde_json::to_string(&threaded).unwrap());
        assert_eq!(folded, serde_json::to_string(&sequential).unwrap());
    }

    #[test]
    fn forest_mode_report_is_byte_identical_to_forest_off() {
        use crate::target::{Backend, ConfiguredBackend};
        use iris_core::forest::ForestConfig;

        let trace = boot_trace(100);
        let plan = plan_over(&trace, 25);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let plain = ParallelCampaign::with_factory(2, ConfiguredBackend::new(Backend::Iris))
            .run(&traces, &plan);
        let baseline = serde_json::to_string(&plain).unwrap();
        assert!(
            plain.corpus.observed() > 0,
            "the plan must exercise crash recovery"
        );
        // Tight node caps keep eviction pressure on: a stale pin must
        // be a clean miss (re-derived by replay), never a wrong state.
        for (jobs, cap) in [(1usize, ForestConfig::DEFAULT_CAP), (2, 3), (8, 1)] {
            let forest = ParallelCampaign::with_factory(
                jobs,
                ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig { cap })),
            )
            .run(&traces, &plan);
            assert_eq!(
                serde_json::to_string(&forest).unwrap(),
                baseline,
                "forest jobs={jobs} cap={cap} diverged from the forest-off reference"
            );
        }
    }

    #[test]
    fn observer_sees_monotone_chunk_granular_progress() {
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 30);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);
        let total: u64 = plan.iter().map(|tc| tc.mutants as u64).sum();

        let mut seen = Vec::new();
        let report = ParallelCampaign::new(2)
            .with_chunk(8)
            .run_session(&traces, &plan, RunOptions::default(), |engine| {
                let p = engine.progress();
                assert_eq!(p.mutants_total, total);
                assert_eq!(p.results_folded, engine.report().results.len());
                seen.push((p.mutants_done, p.results_folded));
            })
            .expect("no faults, no stop flag");
        assert!(!seen.is_empty(), "observer must fire per chunk");
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "progress must be monotone"
        );
        let &(last_mutants, last_folded) = seen.last().unwrap();
        assert_eq!(last_mutants, total, "every mutant reported");
        assert_eq!(last_folded, plan.len(), "every test case folded");
        assert!(
            seen.len() > plan.len(),
            "chunk granularity: more observations than test cases"
        );
        assert_eq!(report.results.len(), plan.len());
    }

    #[test]
    fn merged_coverage_matches_sequential_union() {
        let trace = boot_trace(120);
        let plan = plan_over(&trace, 25);
        let report = ParallelCampaign::new(4).run_trace(&trace, &plan);

        // Re-run sequentially, unioning per-test-case maps by hand.
        let mut corpus = Corpus::new();
        let maps: Vec<CoverageMap> = plan
            .iter()
            .map(|tc| run_test_case_with(&IrisHvTarget::default(), &mut corpus, &trace, tc).1)
            .collect();
        assert_eq!(report.coverage, CoverageMap::merged(maps.iter()));
        assert!(report.coverage.lines() > 0);
    }

    #[test]
    fn aggregated_stats_fold_every_test_case() {
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 30);
        let report = ParallelCampaign::new(3).run_trace(&trace, &plan);
        assert_eq!(report.results.len(), plan.len());
        assert_eq!(
            report.failures.submitted,
            plan.iter().map(|tc| tc.mutants as u64).sum::<u64>()
        );
        assert_eq!(
            report.corpus.observed(),
            report.failures.vm_crashes + report.failures.hv_crashes,
            "every observed crash is counted"
        );
        assert!(report.corpus.unique() as u64 <= report.corpus.observed());
        // Results come back in plan order, not completion order.
        for (tc, r) in plan.iter().zip(&report.results) {
            assert_eq!(tc, &r.testcase);
        }
    }

    #[test]
    fn more_workers_than_work_is_fine() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .expect("boot trace has CR accesses");
        let plan = vec![TestCase {
            mutants: 10,
            ..TestCase::new(
                iris_guest::workloads::Workload::OsBoot,
                idx,
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                7,
            )
        }];
        let report = ParallelCampaign::new(64).run_trace(&trace, &plan);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures.submitted, 10);
    }

    #[test]
    fn empty_plan_yields_an_empty_report() {
        let trace = boot_trace(40);
        let report = ParallelCampaign::new(4).run_trace(&trace, &[]);
        assert!(report.results.is_empty());
        assert_eq!(report.failures, FailureStats::default());
        assert!(report.corpus.is_empty());
        assert_eq!(report.coverage, CoverageMap::new());
    }

    #[test]
    fn interrupted_campaign_resumes_byte_identically() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let trace = boot_trace(100);
        let plan = plan_over(&trace, 20);
        assert!(plan.len() >= 6, "plan too small to interrupt meaningfully");
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let reference = ParallelCampaign::new(2).run(&traces, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Trip the stop flag from the observer after the first fold,
        // keeping the newest checkpoint as a durable writer would; with
        // one worker the claim loop sees the flag before the plan runs
        // dry, so the partial report is a strict prefix.
        let stop = AtomicBool::new(false);
        let mut checkpoint = None;
        let partial = ParallelCampaign::new(1)
            .run_session(
                &traces,
                &plan,
                RunOptions {
                    stop: Some(&stop),
                    resume: None,
                },
                |engine| {
                    if engine.progress().results_folded >= 1 {
                        checkpoint = Some(engine.checkpoint("test-fingerprint"));
                        stop.store(true, Ordering::Relaxed);
                    }
                },
            )
            .expect("interruption is not an error");
        assert!(
            !partial.results.is_empty() && partial.results.len() < plan.len(),
            "expected a strict prefix, folded {} of {}",
            partial.results.len(),
            plan.len()
        );
        let checkpoint = checkpoint.expect("a fold was observed");
        assert_eq!(checkpoint.report, partial, "the last checkpoint is the run");

        let resumed = ParallelCampaign::new(2)
            .run_session(
                &traces,
                &plan,
                RunOptions {
                    resume: Some(checkpoint),
                    ..RunOptions::default()
                },
                |_| {},
            )
            .expect("resumed run completes");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline,
            "interrupt + resume diverged from the uninterrupted reference"
        );
    }

    /// A backend whose every boot panics: each attempt at a chunk
    /// fails the same way, the crash loop the restart budget bounds.
    struct CrashLoop;

    struct CrashLoopTarget;

    impl FuzzTarget for CrashLoopTarget {
        fn boot(&mut self) {
            panic!("planted panic in boot");
        }

        fn submit(&mut self, _: &iris_core::seed::VmSeed) -> crate::target::SubmitOutcome {
            unreachable!("boot never returns")
        }

        fn reset(&mut self) {
            unreachable!("boot never returns")
        }
    }

    impl TargetFactory for CrashLoop {
        type Target<'t> = CrashLoopTarget;

        fn build<'t>(&self, _: BootPlan<'t>) -> CrashLoopTarget {
            CrashLoopTarget
        }

        fn name(&self) -> &'static str {
            "crash-loop"
        }

        fn description(&self) -> &'static str {
            "every boot panics"
        }
    }

    #[test]
    fn campaign_restart_budget_exhaustion_is_a_typed_error() {
        // One chunk: only its re-leases can reach the budget, and only
        // one worker at a time can hold it.
        let trace = boot_trace(80);
        let plan = plan_over(&trace, 10);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let err = ParallelCampaign::with_factory(2, CrashLoop)
            .run_session(&traces, &plan[..1], RunOptions::default(), |_| {})
            .expect_err("a persistent fault must exhaust the budget");
        match err {
            SessionError::Executor(ExecutorError::RestartBudgetExhausted {
                budget,
                panics,
                lost,
                last_panic,
            }) => {
                assert_eq!(budget, crate::executor::MAX_WORKER_RESTARTS);
                assert_eq!(panics, budget + 1);
                assert_eq!(lost, vec![0]);
                assert!(last_panic.contains("planted panic in boot"), "{last_panic}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "no recorded trace")]
    fn malformed_plan_panics_up_front() {
        let traces = BTreeMap::new();
        let plan = vec![TestCase::new(
            iris_guest::workloads::Workload::Idle,
            0,
            ExitReason::Hlt,
            SeedArea::Gpr,
            1,
        )];
        let _ = ParallelCampaign::new(2).run(&traces, &plan);
    }
}
