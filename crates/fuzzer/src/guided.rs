//! Coverage-guided fuzzing (§IX: *"We plan to experiment Intel PT in
//! IRIS to make feasible an efficient coverage-guided fuzzer"*).
//!
//! A greybox loop on top of the replay engine: a corpus of VM seeds is
//! scheduled round-robin; each scheduled seed is mutated with a rotating
//! [`crate::strategies::Strategy`]; mutants that discover coverage the
//! campaign has never seen are promoted into the corpus (becoming
//! future mutation bases), crashes are recorded, and the loop continues
//! for a fixed budget — the classic AFL feedback cycle, with IRIS seeds
//! as the input format and the hypervisor's basic-block bitmap as the
//! feedback channel.
//!
//! One engine runs that cycle — the **generational shared-corpus**
//! engine ([`SharedEngine`], driven in-process by
//! [`run_guided_shared_session`] and over the wire by the `crates/dist`
//! coordinator): one corpus, N workers, deterministic results for any
//! worker count. (Ensembles — N disjoint corpora — are N such engines
//! at `jobs = 1` over distinct `rng_seed`s, sharded on the executor by
//! whoever wants them; `iris guided --mode ensemble` does exactly
//! that.) The budget is cut into *generations*
//! ([`GuidedConfig::generation`] slots each). Each generation
//! snapshots the corpus and the coverage map, expands
//! deterministically into an indexed batch of slots — slot `g` is a
//! pure function of `(corpus, rng_seed, g)` per the scheduling law
//! ([`crate::strategies::scheduled_mutant`], RNG =
//! `SmallRng(rng_seed ⊕ g)`) — and executes the batch on the shared
//! work-stealing executor ([`crate::executor`]): every worker builds
//! one private booted [`SlotContext`] and serves all the slots it
//! steals on it. Each slot **positions at its mutation base's
//! state** — `s1` plus the base's seed path ([`corpus_paths`]) — so
//! mutation resumes from where the promoted base left off instead of
//! rebooting to `s1`. One walker does that, `position` (shared with
//! the campaign's forest-mode workers): restore the deepest pinned
//! node of the path that survives, else reset to `s1`; replay the
//! rest; pin each step. With a snapshot forest
//! ([`crate::target::TargetFactory::forest`]) that is an O(delta)
//! restore of the base's pinned node; without one no pin ever exists
//! and it is a root reset plus path replay — **state-identical by the
//! forest law**, so the forest is a pure accelerator. At the **generation
//! barrier** the outcomes merge in slot order against the
//! generation-start coverage map: promotions append to the corpus in
//! slot order, crash records fold into the crash corpus in slot
//! order, and the growth curve records one point per generation.
//! Because the from-scratch positioning makes every slot outcome an
//! *exact* pure function of
//! `(corpus, paths, coverage snapshot, rng_seed, g)` — no residual
//! target state leaks between the slots a worker serves — and the
//! merge order is defined, the serialized [`GuidedResult`] is
//! **byte-identical for any `jobs` count and with the forest on or
//! off** — jobs=1 without a forest is the reference semantics. The
//! same law is what lets a panicked worker's lost slots be
//! re-executed byte-identically (see RELIABILITY.md).

use crate::checkpoint::{
    CheckpointMismatch, GuidedCheckpoint, RunOptions, SessionError, CHECKPOINT_VERSION,
};
use crate::corpus::{Corpus, CrashRecord};
use crate::executor::ExecutorError;
use crate::failure::FailureStats;
use crate::strategies::scheduled_mutant;
use crate::target::{BootPlan, CrashVerdict, FuzzTarget, TargetFactory};
use crate::testcase::TestCase;
use iris_core::forest::StateId;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use iris_vtx::exit::ExitReason;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Result of a guided run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GuidedResult {
    /// Mutants executed.
    pub executions: u64,
    /// Corpus size at the end (initial seeds + promoted mutants).
    pub corpus_size: usize,
    /// Mutants promoted for discovering new coverage.
    pub promotions: u64,
    /// Total unique lines discovered over the whole run.
    pub total_lines: u64,
    /// Lines the initial seeds alone covered (the baseline).
    pub baseline_lines: u64,
    /// Failure statistics.
    pub failures: FailureStats,
    /// Coverage growth: total lines after each generation barrier.
    pub growth: Vec<u64>,
    /// The promoted mutants, in promotion order — the shared-corpus
    /// determinism guarantee covers the corpus *order*, so the
    /// serialized result carries it.
    pub promoted: Vec<VmSeed>,
    /// Crash corpus over the run (signature-deduplicated records, every
    /// observation counted) — what `iris guided --corpus` persists.
    pub crashes: Corpus,
}

/// Configuration for a guided run.
#[derive(Debug, Clone, Copy)]
pub struct GuidedConfig {
    /// Total mutant executions.
    pub budget: u64,
    /// RNG seed.
    pub rng_seed: u64,
    /// Slots per generation of the shared-corpus engine (clamped to
    /// ≥ 1). Smaller generations fold
    /// discoveries back into the scheduling corpus sooner; larger ones
    /// expose more parallelism between sync points.
    pub generation: u64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        Self {
            budget: 2_000,
            rng_seed: 42,
            generation: 256,
        }
    }
}

/// The initial corpus: the first seed of each distinct exit reason —
/// the trace's "dictionary" of behaviours. Public because distributed
/// workers rebuild the scheduling corpus
/// locally as `initial_corpus(trace) ++ promoted` instead of shipping
/// it over the wire (the trace re-records deterministically from the
/// job spec).
#[must_use]
pub fn initial_corpus(trace: &RecordedTrace) -> Vec<VmSeed> {
    let mut corpus: Vec<VmSeed> = Vec::new();
    for seed in &trace.seeds {
        if !corpus.iter().any(|s| s.reason == seed.reason) {
            corpus.push(seed.clone());
        }
    }
    corpus
}

/// The workload a trace was recorded from, by label (crash records name
/// their test case's workload). Unlabelled/custom traces fall back to
/// OS BOOT.
fn workload_of(trace: &RecordedTrace) -> Workload {
    Workload::ALL
        .into_iter()
        .find(|w| w.label() == trace.label)
        .unwrap_or(Workload::OsBoot)
}

/// The baseline pass: build one private booted target, submit the
/// initial corpus once, and return the union of its coverage (resetting
/// on crashes); an empty corpus builds nothing and covers nothing. The
/// shared engine (and the `crates/dist` coordinator, which runs this on
/// the serving host) measures the baseline *outside* the batch, so it is
/// identical for every jobs count and every fleet size.
#[must_use]
pub fn measure_baseline<F: TargetFactory>(
    factory: &F,
    trace: &RecordedTrace,
    corpus: &[VmSeed],
) -> CoverageMap {
    let mut seen = CoverageMap::new();
    if corpus.is_empty() {
        return seen;
    }
    let mut target = factory.build(BootPlan::post_boot(trace));
    target.boot();
    for seed in corpus {
        let out = target.submit(seed);
        seen.merge(&out.coverage);
        if out.crash.is_some() {
            // lint:allow(slot-reset-law) -- sequential corpus warm-up outside the slot protocol: this reset is crash recovery, not slot state; run_slot resets unconditionally
            target.reset();
        }
    }
    seen
}

/// The synthetic test case a guided crash record carries: `seed_index`
/// is the mutation base's index within the scheduling corpus (not a
/// trace index), `mutants` is the run's budget.
fn guided_testcase(
    workload: Workload,
    base_index: usize,
    reason: ExitReason,
    area: crate::mutation::SeedArea,
    config: GuidedConfig,
) -> TestCase {
    TestCase {
        mutants: config.budget as usize,
        ..TestCase::new(workload, base_index, reason, area, config.rng_seed)
    }
}

/// Progress snapshot handed to [`run_guided_shared_session`]'s
/// observer at every generation barrier, after the merge — drive
/// progress lines, persist the crash corpus incrementally, or build a
/// durable checkpoint ([`GenerationProgress::checkpoint`]); pair with
/// [`crate::checkpoint::JsonWriter`] to keep the JSON I/O off the
/// engine's thread.
#[derive(Debug)]
pub struct GenerationProgress<'a> {
    /// Generations completed so far (1-based after the first barrier).
    pub generation: usize,
    /// Slots executed so far.
    pub executed: u64,
    /// The run's total budget.
    pub budget: u64,
    /// Unique lines covered so far.
    pub total_lines: u64,
    /// Scheduling-corpus size (initial seeds + promotions so far).
    pub corpus_size: usize,
    /// The crash corpus so far.
    pub crashes: &'a Corpus,
    engine: &'a SharedEngine,
}

impl GenerationProgress<'_> {
    /// [`SharedEngine::checkpoint`] at this barrier.
    #[must_use]
    pub fn checkpoint(&self, fingerprint: &str) -> GuidedCheckpoint {
        self.engine.checkpoint(fingerprint)
    }
}

/// What one slot of a generation produced — everything the barrier
/// merge needs, shipped from whichever worker ran the slot. Coverage is
/// only carried when the slot discovered something new against the
/// generation-start map (a superset check of the barrier's evolving
/// map, so pre-filtering loses nothing), keeping the channel traffic
/// per slot small on the common path. Serializable because this is
/// exactly what a distributed worker ships back per guided slot — the
/// wire carries what the in-process channel carries, nothing more.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// The mutation base's index within the generation-start corpus.
    pub base_index: usize,
    /// The base's exit reason (for the crash record's test case).
    pub reason: ExitReason,
    /// The area the scheduling law picked.
    pub area: crate::mutation::SeedArea,
    /// Crash verdict plus the crashing mutant, if the slot crashed.
    pub crash: Option<(CrashVerdict, VmSeed)>,
    /// The mutant and its coverage, if it touched blocks beyond the
    /// generation-start map (a promotion candidate). Boxed: an outcome
    /// is moved half a dozen times between the slot and the barrier,
    /// and most slots discover nothing — they move a pointer, not a
    /// seed and a coverage map.
    pub discovery: Option<Box<(VmSeed, CoverageMap)>>,
}

/// A contiguous range of global slot indices `[start, start + len)` —
/// what [`SharedEngine::batch`] freezes for execution, and the unit a
/// distributed guided slot lease covers (a lease is a sub-range of the
/// frozen batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRange {
    /// First global slot index.
    pub start: u64,
    /// Number of slots.
    pub len: u64,
}

/// The seed paths of a corpus assembled as `initial ++ promoted`,
/// rebuilt from the promotion lineage. Entry `i`'s path is the sequence
/// of corpus indices to replay from `s1` to reach the state entry `i`
/// mutates from: initial entries mutate from `s1` itself (empty path),
/// a promoted entry that ran to completion extends its base's path with
/// its own index, and a crashing promotion inherits its base's path
/// unchanged (a crashed state is not a useful mutation base). Shared
/// with `crates/dist`, whose workers rebuild the same paths from the
/// lineage the coordinator ships at each epoch.
///
/// # Errors
/// Lineage crosses trust boundaries (checkpoint files, epoch frames):
/// [`CheckpointMismatch::LineageLength`] when it does not pair up with
/// the `promoted` seeds, [`CheckpointMismatch::LineageBase`] when an
/// entry names a base that did not exist at its promotion — a dangling
/// base would position slots at the wrong state.
pub fn corpus_paths(
    initial_len: usize,
    promoted: usize,
    lineage: &[(usize, bool)],
) -> Result<Vec<Vec<usize>>, CheckpointMismatch> {
    if lineage.len() != promoted {
        return Err(CheckpointMismatch::LineageLength {
            lineage: lineage.len(),
            promoted,
        });
    }
    let mut paths: Vec<Vec<usize>> = vec![Vec::new(); initial_len];
    for (entry, &(base, extended)) in lineage.iter().enumerate() {
        let mut path = paths
            .get(base)
            .cloned()
            .ok_or(CheckpointMismatch::LineageBase { entry, base })?;
        if extended {
            path.push(initial_len + entry);
        }
        paths.push(path);
    }
    Ok(paths)
}

/// Put `target` at the state `path` names — the state after replaying
/// `seeds[path[0]], seeds[path[1]], ...` from `s1` — the one walker
/// behind both drivers' pin caches ([`SlotContext`], and the campaign's
/// per-workload prefix server, whose paths are `0..prefix` over the
/// trace): restore the deepest prefix of `path` whose pin survives,
/// replay the rest, and pin each step so later work restores in
/// O(delta). `pins[i]` caches the node pinned after replaying a path
/// that ends in `i`; every entry is a pure accelerator — a pin that was
/// evicted, or a target without a forest (`reset_to` is `false`,
/// `pin_state` is `None`), falls through to [`FuzzTarget::reset`] and a
/// full replay: slower, never wrong.
pub(crate) fn position<T: FuzzTarget>(
    target: &mut T,
    pins: &mut BTreeMap<usize, StateId>,
    seeds: &[VmSeed],
    path: &[usize],
) {
    let mut from = path.len();
    while from > 0 {
        let pin = path.get(from - 1).and_then(|last| pins.get(last));
        if pin.is_some_and(|&id| target.reset_to(id)) {
            break;
        }
        from -= 1;
    }
    if from == 0 {
        // lint:allow(slot-reset-law) -- unconditional per call: every position() starts from a pinned state's restore or, when no pin survives (the empty path IS s1), from this reset; the branch selects the restore mechanism, not whether to reset
        target.reset();
    }
    for &at in path.get(from..).unwrap_or_default() {
        if let Some(seed) = seeds.get(at) {
            let out = target.submit(seed);
            debug_assert!(
                out.crash.is_none(),
                "path replay must be clean: {:?}",
                out.crash
            );
        }
        if let Some(id) = target.pin_state() {
            pins.insert(at, id);
        }
    }
}

/// Per-worker slot execution state: one private booted target plus the
/// worker's cache of pinned forest nodes (corpus index → [`StateId`]).
///
/// [`SlotContext::run_slot`] executes one slot of a generation:
/// `position` the target at the mutation base's state (the state
/// reached by replaying the base's seed path from `s1` — see
/// [`corpus_paths`]), submit the scheduled mutant, and report the
/// outcome. The outcome is pure in `(corpus, paths, seen, rng_seed,
/// slot)` — **exactly**, not empirically: positioning starts from an
/// unconditional reset (or a forest restore, which is state-identical
/// by the forest law), so a slot's outcome cannot depend on which other
/// slots its worker happened to serve first. That independence is what
/// the engine's partition law (byte-identical results for any `jobs`),
/// the executor's re-lease law (a panicked slot re-runs identically on
/// a fresh context), *and* the forest law (byte-identical results with
/// the forest on or off, whatever was evicted) all rest on.
#[derive(Debug)]
pub struct SlotContext<T: FuzzTarget> {
    pub(crate) target: T,
    /// Pinned post-execution node per corpus index (absent = never
    /// pinned by this worker), as [`position`] fills it.
    pub(crate) pins: BTreeMap<usize, StateId>,
}

impl<T: FuzzTarget> SlotContext<T> {
    /// Boot a private target.
    pub fn new(mut target: T) -> Self {
        target.boot();
        Self {
            target,
            pins: BTreeMap::new(),
        }
    }

    /// Execute one slot: schedule the mutant per the slot law, position
    /// at the base's state, submit, and report. See the type docs for
    /// the purity law this must (and does) uphold.
    pub fn run_slot(
        &mut self,
        corpus: &[VmSeed],
        paths: &[Vec<usize>],
        seen: &CoverageMap,
        rng_seed: u64,
        slot: u64,
    ) -> SlotOutcome {
        let scheduled = scheduled_mutant(corpus, rng_seed, slot);
        let path = paths
            .get(scheduled.base_index)
            .map(Vec::as_slice)
            .unwrap_or_default();
        position(&mut self.target, &mut self.pins, corpus, path);
        let out = self.target.submit(&scheduled.mutant);
        let crash = out.crash.map(|verdict| (verdict, scheduled.mutant.clone()));
        let discovery = (seen.new_lines_from(&out.coverage) > 0)
            .then(|| Box::new((scheduled.mutant, out.coverage)));
        SlotOutcome {
            base_index: scheduled.base_index,
            // lint:allow(panic-path-audit) -- scheduled.base_index was issued by the scheduler from this same corpus snapshot
            reason: corpus[scheduled.base_index].reason,
            area: scheduled.area,
            crash,
            discovery,
        }
    }
}

/// The generational shared-corpus engine as an explicit state machine:
/// freeze a batch ([`SharedEngine::batch`]), execute its slots anywhere
/// — in-process workers, or a distributed fleet shipping
/// [`SlotOutcome`]s over TCP — fold them back in slot order
/// ([`SharedEngine::fold_generation`]), repeat until the budget is
/// spent.
///
/// [`run_guided_shared_session`] drives this machine on the in-process
/// work-stealing executor; the `crates/dist` coordinator drives the
/// *same* machine over the wire. Because slot `g` is a pure function of
/// `(corpus, seen, rng_seed, g)` and the fold order is defined, both
/// drivers produce byte-identical serialized results for any worker
/// count, fleet size, or re-lease history — jobs=1 in-process is the
/// reference semantics for all of them.
#[derive(Debug)]
pub struct SharedEngine {
    workload: Workload,
    config: GuidedConfig,
    /// `config.generation` clamped to ≥ 1.
    generation: u64,
    corpus: Vec<VmSeed>,
    /// Seed path per corpus entry (see [`corpus_paths`]): what a slot
    /// replays (or forest-restores) to reach its base's state.
    paths: Vec<Vec<usize>>,
    /// Promotion lineage, aligned with `promoted`: `(base_index,
    /// extended)` per promotion — the wire/checkpoint form of `paths`.
    lineage: Vec<(usize, bool)>,
    seen: CoverageMap,
    baseline_lines: u64,
    failures: FailureStats,
    promoted: Vec<VmSeed>,
    crashes: Corpus,
    growth: Vec<u64>,
    next_slot: u64,
}

impl SharedEngine {
    /// A fresh engine over `trace`'s initial corpus, with the baseline
    /// coverage already measured (see [`measure_baseline`] — the
    /// baseline runs outside the batch so it is jobs-independent).
    #[must_use]
    pub fn fresh(trace: &RecordedTrace, config: GuidedConfig, baseline: CoverageMap) -> Self {
        let corpus = initial_corpus(trace);
        let baseline_lines = baseline.lines();
        let paths = vec![Vec::new(); corpus.len()];
        Self {
            workload: workload_of(trace),
            config,
            generation: config.generation.max(1),
            corpus,
            paths,
            lineage: Vec::new(),
            seen: baseline,
            baseline_lines,
            failures: FailureStats::default(),
            promoted: Vec::new(),
            crashes: Corpus::new(),
            growth: Vec::new(),
            next_slot: 0,
        }
    }

    /// Rebuild an engine from a generation-barrier checkpoint. The
    /// checkpoint's fingerprint was validated at load
    /// ([`GuidedCheckpoint::load`]); every structural property the
    /// engine relies on is checked here, once, for every driver. The
    /// scheduling corpus is always the initial corpus plus the
    /// promotions, in promotion order — rebuilt here instead of stored.
    ///
    /// # Errors
    /// [`CheckpointMismatch`] when `next_slot` is past the budget or
    /// off a generation boundary, when the growth curve does not have
    /// one point per completed generation, when promotions and lineage
    /// do not line up, or when a lineage entry names a base that did
    /// not exist.
    pub fn resume(
        trace: &RecordedTrace,
        config: GuidedConfig,
        cp: GuidedCheckpoint,
    ) -> Result<Self, CheckpointMismatch> {
        let generation = config.generation.max(1);
        if cp.next_slot > config.budget
            || (cp.next_slot != config.budget && !cp.next_slot.is_multiple_of(generation))
        {
            return Err(CheckpointMismatch::SlotOffBoundary {
                next_slot: cp.next_slot,
                generation,
            });
        }
        let (growth, generations) = (cp.growth.len(), cp.next_slot.div_ceil(generation));
        if growth as u64 != generations {
            return Err(CheckpointMismatch::GrowthLength {
                growth,
                generations,
            });
        }
        let mut corpus = initial_corpus(trace);
        let paths = corpus_paths(corpus.len(), cp.promoted.len(), &cp.lineage)?;
        corpus.extend(cp.promoted.iter().cloned());
        Ok(Self {
            workload: workload_of(trace),
            config,
            generation,
            corpus,
            paths,
            lineage: cp.lineage,
            seen: cp.seen,
            baseline_lines: cp.baseline_lines,
            failures: cp.failures,
            promoted: cp.promoted,
            crashes: cp.crashes,
            growth: cp.growth,
            next_slot: cp.next_slot,
        })
    }

    /// The next generation to execute — a frozen batch of slots — or
    /// `None` when the budget is spent or there is no seed to mutate (an
    /// empty corpus: the run's result is then the default
    /// [`GuidedResult`]). The corpus and coverage snapshots
    /// ([`SharedEngine::corpus`], [`SharedEngine::seen`]) stay frozen
    /// while the batch runs; executors only read them.
    #[must_use]
    pub fn batch(&self) -> Option<SlotRange> {
        let work = self.next_slot < self.config.budget && !self.corpus.is_empty();
        work.then(|| SlotRange {
            start: self.next_slot,
            len: self.generation.min(self.config.budget - self.next_slot),
        })
    }

    /// The scheduling corpus frozen for the current batch.
    #[must_use]
    pub fn corpus(&self) -> &[VmSeed] {
        &self.corpus
    }

    /// The coverage map frozen for the current batch.
    #[must_use]
    pub fn seen(&self) -> &CoverageMap {
        &self.seen
    }

    /// Mutants promoted so far, in promotion order. Together with
    /// [`initial_corpus`] this is everything a remote worker needs to
    /// rebuild [`SharedEngine::corpus`] without the wire ever shipping
    /// the full corpus.
    #[must_use]
    pub fn promoted(&self) -> &[VmSeed] {
        &self.promoted
    }

    /// Promotion lineage, aligned with [`SharedEngine::promoted`] —
    /// what a remote worker (or a resumed run) feeds [`corpus_paths`]
    /// to rebuild [`SharedEngine::paths`].
    #[must_use]
    pub fn lineage(&self) -> &[(usize, bool)] {
        &self.lineage
    }

    /// Seed path per corpus entry, frozen for the current batch (see
    /// [`corpus_paths`]).
    #[must_use]
    pub fn paths(&self) -> &[Vec<usize>] {
        &self.paths
    }

    /// The run's scheduling RNG seed (the slot law's `rng_seed`).
    #[must_use]
    pub fn rng_seed(&self) -> u64 {
        self.config.rng_seed
    }

    /// Fold one executed generation back in: the barrier. Outcomes must
    /// arrive in slot order and cover exactly the current
    /// [`SharedEngine::batch`]. Promotions are re-checked against the
    /// *evolving* map so the first slot to reach a block wins, exactly
    /// like a sequential sweep of the batch; crash records and failure
    /// counters fold in slot order; the growth curve gains one point.
    ///
    /// # Panics
    /// Panics when `outcomes` does not cover exactly the current batch
    /// — a protocol violation by the driver, not a runtime condition.
    pub fn fold_generation(&mut self, outcomes: Vec<SlotOutcome>) {
        let len = self.batch().map_or(0, |b| b.len);
        assert!(
            outcomes.len() as u64 == len,
            "generation fold of {} outcomes against a batch of {len}",
            outcomes.len()
        );
        for (offset, out) in outcomes.into_iter().enumerate() {
            let slot = self.next_slot + offset as u64;
            let crashed = out.crash.is_some();
            self.failures
                .record_kind(out.crash.as_ref().map(|(v, _)| v.kind));
            if let Some((verdict, seed)) = out.crash {
                self.crashes.push(CrashRecord {
                    testcase: guided_testcase(
                        self.workload,
                        out.base_index,
                        out.reason,
                        out.area,
                        self.config,
                    ),
                    mutant_index: slot as usize,
                    seed,
                    mutation: None,
                    kind: verdict.kind,
                    console: verdict.console,
                });
            }
            if let Some((mutant, coverage)) = out.discovery.map(|d| *d) {
                if self.seen.new_lines_from(&coverage) > 0 {
                    self.seen.merge(&coverage);
                    // The promoted entry's seed path: its base's path,
                    // extended by its own corpus index when it ran to
                    // completion (a crashed state is not a mutation
                    // base — see corpus_paths).
                    let mut path = self.paths.get(out.base_index).cloned().unwrap_or_default();
                    if !crashed {
                        path.push(self.corpus.len());
                    }
                    self.lineage.push((out.base_index, !crashed));
                    self.paths.push(path);
                    self.promoted.push(mutant.clone());
                    self.corpus.push(mutant);
                }
            }
        }
        self.next_slot += len;
        self.growth.push(self.seen.lines());
    }

    /// Progress through the last completed barrier.
    #[must_use]
    pub fn progress(&self) -> GenerationProgress<'_> {
        GenerationProgress {
            generation: self.growth.len(),
            executed: self.next_slot,
            budget: self.config.budget,
            total_lines: self.seen.lines(),
            corpus_size: self.corpus.len(),
            crashes: &self.crashes,
            engine: self,
        }
    }

    /// Snapshot the state through the last completed barrier as a
    /// durable [`GuidedCheckpoint`] carrying `fingerprint` — a barrier
    /// is the one point where the engine's state is complete and
    /// deterministic, so the snapshot resumes byte-identically.
    #[must_use]
    pub fn checkpoint(&self, fingerprint: &str) -> GuidedCheckpoint {
        GuidedCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint.to_owned(),
            next_slot: self.next_slot,
            baseline_lines: self.baseline_lines,
            seen: self.seen.clone(),
            promotions: self.promoted.len() as u64,
            promoted: self.promoted.clone(),
            lineage: self.lineage.clone(),
            failures: self.failures,
            crashes: self.crashes.clone(),
            growth: self.growth.clone(),
        }
    }

    /// The run's result through the last completed barrier:
    /// `executions` equals the budget on a completed run, `< budget` on
    /// an interrupted one (the resumable prefix).
    #[must_use]
    pub fn result(&self) -> GuidedResult {
        GuidedResult {
            executions: self.next_slot,
            corpus_size: self.corpus.len(),
            promotions: self.promoted.len() as u64,
            total_lines: self.seen.lines(),
            baseline_lines: self.baseline_lines,
            failures: self.failures,
            growth: self.growth.clone(),
            promoted: self.promoted.clone(),
            crashes: self.crashes.clone(),
        }
    }
}

/// The generational shared-corpus engine on the in-process executor —
/// see the module docs for the protocol. The serialized result is
/// byte-identical for any `jobs`; jobs=1 is the reference.
///
/// # Panics
/// Panics if worker panics exhaust the executor's restart budget
/// (a persistent crash-loop) — use [`run_guided_shared_session`] for
/// the typed error.
#[must_use]
pub fn run_guided_shared_with<F: TargetFactory>(
    factory: &F,
    trace: &RecordedTrace,
    config: GuidedConfig,
    jobs: usize,
) -> GuidedResult {
    match run_guided_shared_session(factory, trace, config, jobs, RunOptions::default(), |_| {}) {
        Ok(result) => result,
        // lint:allow(panic-path-audit) -- infallible wrapper by contract: the default options carry no stop flag and no checkpoint, so the only error is a persistent crash loop, itself worth a panic
        Err(err) => panic!("guided shared run failed: {err}"),
    }
}

/// The fault-tolerant form of the generational shared-corpus engine:
/// resume from a generation-barrier checkpoint, absorb worker panics,
/// honour a cooperative stop flag (also at every generation boundary),
/// and call `observe` at every generation barrier (after the merge) —
/// the hook `iris guided --corpus`/`--checkpoint` persist through.
///
/// Interruption semantics: when the stop flag trips, the generation in
/// flight is **discarded** (a generation is all-or-nothing — its
/// barrier never ran) and the run returns `Ok` with the state through
/// the last completed barrier; `executions` then reads `< budget`, and
/// the observer's last checkpoint resumes the run. A resumed run's
/// final result is byte-identical to an uninterrupted one — the
/// conformance suite pins this over every backend.
///
/// # Errors
/// [`SessionError::Executor`] when worker panics exceed
/// [`crate::executor::MAX_WORKER_RESTARTS`];
/// [`SessionError::Checkpoint`] when the resume checkpoint is
/// structurally inconsistent with this run ([`SharedEngine::resume`]).
pub fn run_guided_shared_session<F, O>(
    factory: &F,
    trace: &RecordedTrace,
    config: GuidedConfig,
    jobs: usize,
    options: RunOptions<'_, GuidedCheckpoint>,
    mut observe: O,
) -> Result<GuidedResult, SessionError>
where
    F: TargetFactory,
    O: FnMut(GenerationProgress<'_>),
{
    // Bound for the whole run, not a temporary of the baseline call:
    // freeing it before the engine allocates moves the heap top, and the
    // guided benchmark sections' peak RSS then rises by about a fifth.
    let corpus0 = initial_corpus(trace);
    let mut engine = match options.resume {
        Some(cp) => SharedEngine::resume(trace, config, cp)?,
        None => {
            // Baseline: one target, the initial corpus once — identical
            // for every jobs count (the baseline is not part of the
            // batch).
            let baseline = measure_baseline(factory, trace, &corpus0);
            SharedEngine::fresh(trace, config, baseline)
        }
    };
    while let Some(batch) = engine.batch() {
        // Stop check at the generation boundary: don't launch a batch
        // that a tripped flag would immediately abandon.
        if options
            .stop
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            break;
        }
        // The generation's indexed batch: one work item per slot. The
        // items carry nothing — the executor's item index *is* the slot
        // offset (global slot = batch.start + index), so no slot array
        // is materialized (a `Vec` of zero-sized items never
        // allocates). The corpus and coverage snapshots stay frozen
        // while the batch runs — workers only read them.
        let items = vec![(); batch.len as usize];
        let gen_corpus = engine.corpus();
        let gen_paths = engine.paths();
        let gen_seen = engine.seen();
        let mut outcomes = Vec::with_capacity(items.len());
        match crate::executor::run_ordered(
            &items,
            jobs,
            options.stop,
            || {
                // One private booted SlotContext per worker, serving
                // every slot the worker steals this generation. Each
                // slot positions at its base's state from scratch (an
                // unconditional root reset, or a forest restore that is
                // state-identical by the forest law), so no residual
                // state leaks between the slots a worker serves. A
                // worker that panics is torn down and rebuilt here, and
                // its slot re-executes byte-identically (the slot law
                // is history-independent; a rebuilt context merely
                // starts with a cold node cache).
                SlotContext::new(factory.build(BootPlan::post_boot(trace)))
            },
            |ctx, index, ()| {
                ctx.run_slot(
                    gen_corpus,
                    gen_paths,
                    gen_seen,
                    config.rng_seed,
                    batch.start + index as u64,
                )
            },
            |_, outcome| outcomes.push(outcome),
        ) {
            Ok(()) => {}
            // A generation is all-or-nothing: an interrupted batch is
            // discarded (its barrier never ran), and the run winds
            // down with the state through the last completed barrier.
            Err(ExecutorError::Interrupted { .. }) => break,
            Err(err) => return Err(err.into()),
        }
        engine.fold_generation(outcomes);
        observe(engine.progress());
    }
    Ok(engine.result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{record_trace, IrisHvTarget};
    use iris_guest::workloads::Workload;

    fn boot_trace() -> RecordedTrace {
        record_trace(Workload::OsBoot, 250, 42)
    }

    fn run_guided_shared(trace: &RecordedTrace, config: GuidedConfig, jobs: usize) -> GuidedResult {
        run_guided_shared_with(&IrisHvTarget::default(), trace, config, jobs)
    }

    #[test]
    fn guided_loop_discovers_and_promotes() {
        let trace = boot_trace();
        let r = run_guided_shared(
            &trace,
            GuidedConfig {
                budget: 400,
                ..GuidedConfig::default()
            },
            1,
        );
        assert_eq!(r.executions, 400);
        assert!(r.total_lines > r.baseline_lines, "{r:?}");
        assert!(r.promotions > 0, "feedback must promote mutants");
        assert!(r.corpus_size > 5);
        assert_eq!(r.promoted.len() as u64, r.promotions);
        // Growth curve is monotone.
        assert!(r.growth.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn guided_loop_is_deterministic() {
        let trace = boot_trace();
        let cfg = GuidedConfig {
            budget: 150,
            ..GuidedConfig::default()
        };
        let a = run_guided_shared(&trace, cfg, 1);
        let b = run_guided_shared(&trace, cfg, 1);
        assert_eq!(a.total_lines, b.total_lines);
        assert_eq!(a.promotions, b.promotions);
        assert_eq!(a.failures, b.failures);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn guided_loop_records_crash_corpus() {
        let trace = boot_trace();
        let r = run_guided_shared(
            &trace,
            GuidedConfig {
                budget: 400,
                ..GuidedConfig::default()
            },
            1,
        );
        assert_eq!(
            r.crashes.observed(),
            r.failures.vm_crashes + r.failures.hv_crashes,
            "every observed crash is counted"
        );
        assert!(r.crashes.unique() > 0, "a 400-mutant run crashes something");
        assert!(r
            .crashes
            .crashes
            .iter()
            .all(|c| c.testcase.workload == Workload::OsBoot));
    }

    #[test]
    fn empty_trace_is_a_default_result_in_both_modes() {
        let empty = RecordedTrace::new("empty");
        let sequential = run_guided_shared(&empty, GuidedConfig::default(), 1);
        let shared = run_guided_shared(&empty, GuidedConfig::default(), 2);
        for r in [&sequential, &shared] {
            assert_eq!(r.executions, 0);
            assert_eq!(r.corpus_size, 0);
            assert!(r.growth.is_empty());
            assert!(r.promoted.is_empty());
            assert!(r.crashes.is_empty());
        }
        // Both are exactly the derived zero value.
        let zero = serde_json::to_string(&GuidedResult::default()).unwrap();
        assert_eq!(serde_json::to_string(&sequential).unwrap(), zero);
        assert_eq!(serde_json::to_string(&shared).unwrap(), zero);
    }

    #[test]
    fn shared_engine_is_byte_identical_across_worker_counts() {
        let trace = boot_trace();
        let cfg = GuidedConfig {
            budget: 300,
            generation: 64,
            ..GuidedConfig::default()
        };
        let reference = run_guided_shared(&trace, cfg, 1);
        assert!(reference.promotions > 0, "{reference:?}");
        assert!(reference.total_lines > reference.baseline_lines);
        assert_eq!(
            reference.growth.len(),
            (cfg.budget as usize).div_ceil(cfg.generation as usize),
            "one growth point per generation"
        );
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [2usize, 8] {
            let r = run_guided_shared(&trace, cfg, jobs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                baseline,
                "jobs={jobs} diverged from the jobs=1 reference"
            );
        }
    }

    #[test]
    fn shared_engine_promotions_feed_later_generations() {
        // With a generation smaller than the budget, promoted mutants
        // become scheduling bases in later generations: the corpus the
        // final generation schedules over is larger than the initial
        // one whenever anything was promoted.
        let trace = boot_trace();
        let r = run_guided_shared(
            &trace,
            GuidedConfig {
                budget: 300,
                generation: 50,
                ..GuidedConfig::default()
            },
            2,
        );
        assert!(r.promotions > 0);
        assert_eq!(
            r.corpus_size,
            r.promoted.len() + initial_corpus(&trace).len()
        );
        assert!(r.growth.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            r.crashes.observed(),
            r.failures.vm_crashes + r.failures.hv_crashes
        );
    }

    #[test]
    fn shared_engine_ragged_final_generation_spends_the_whole_budget() {
        let trace = boot_trace();
        let cfg = GuidedConfig {
            budget: 70,
            generation: 32, // 32 + 32 + 6
            ..GuidedConfig::default()
        };
        let r = run_guided_shared(&trace, cfg, 2);
        assert_eq!(r.executions, 70);
        assert_eq!(r.failures.submitted, 70);
        assert_eq!(r.growth.len(), 3);
    }

    #[test]
    fn guided_ensemble_is_worker_count_independent() {
        let trace = boot_trace();
        let configs: Vec<GuidedConfig> = (0..4)
            .map(|i| GuidedConfig {
                budget: 80,
                rng_seed: 100 + i,
                ..GuidedConfig::default()
            })
            .collect();
        let snapshot = |results: &[GuidedResult]| {
            results
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect::<Vec<_>>()
        };
        // An ensemble is N independent shared engines at jobs=1,
        // sharded over the executor — what `iris guided --mode
        // ensemble` runs.
        let ensemble = |jobs: usize| {
            let mut results = Vec::new();
            crate::executor::run_ordered(
                &configs,
                jobs,
                None,
                || (),
                |(), _, cfg| run_guided_shared(&trace, *cfg, 1),
                |_, r| results.push(r),
            )
            .expect("no faults, no stop flag");
            results
        };
        let one = ensemble(1);
        let four = ensemble(4);
        assert_eq!(one.len(), 4);
        assert_eq!(snapshot(&one), snapshot(&four));
        // Each instance equals its standalone run.
        for (cfg, r) in configs.iter().zip(&one) {
            let solo = run_guided_shared(&trace, *cfg, 1);
            assert_eq!(
                serde_json::to_string(&solo).unwrap(),
                serde_json::to_string(r).unwrap()
            );
        }
    }
}
