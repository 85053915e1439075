//! The six workloads: what each prepares, what one timed section runs,
//! and the independent route its result is checked against.
//!
//! Load shape (all workloads): closed loop, one client, `jobs = 1`,
//! backend `iris`, 16 MiB dummy-VM RAM, every input derived from
//! `--seed` (trace RNG seed, `seed ^ seed_index` per test case, guided
//! `rng_seed`). A *section* is one fixed-size pass of the workload; a
//! run repeats sections for `--seconds` and reports the median rate.
//! Sizes are chosen so a section is one to two CPU-seconds on the
//! reference sandbox — long enough that the 10 ms tick of
//! `/proc/self/stat` is ≤ 1 % of it.
//!
//! How fast a fuzzing run goes depends on what its seed happens to find
//! (crash share, promotion lineage depth): one guided run's rate moves
//! ±8 % from seed to seed. So every section works through several
//! *variants* — the same workload on traces and RNG streams derived from
//! `seed`, `seed + 1`, … — and the rate is taken over all of them.

use crate::span::{Recorder, SpanGuard};
use crate::traced::{TracedFactory, CHUNK};
use iris_core::forest::ForestConfig;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_core::snapshot::Snapshot;
use iris_core::trace::RecordedTrace;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_fuzzer::campaign::{assemble_test_case, run_mutant_range_with};
use iris_fuzzer::guided::{
    initial_corpus, measure_baseline, run_guided_shared_with, GuidedConfig, GuidedResult,
    SharedEngine, SlotContext,
};
use iris_fuzzer::parallel::{CampaignReport, ParallelCampaign};
use iris_fuzzer::target::{
    record_trace, Backend, BootPlan, ConfiguredBackend, FuzzTarget, IrisHvTarget, SubmitOutcome,
    TargetFactory,
};
use iris_fuzzer::FailureStats;
use iris_fuzzer::{SeedArea, TestCase};
use iris_guest::workloads::Workload as GuestWorkload;
use iris_hv::coverage::CoverageMap;
use iris_hv::hypervisor::Hypervisor;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Exits of the OS BOOT trace `record_replay` records and replays.
pub const REPLAY_EXITS: usize = 2000;
/// Traces `record_replay` records per section (seeds `seed + i`).
pub const REPLAY_RECORDINGS: u64 = 100;
/// Recorded traces `record_replay` replays (seeds `seed + i`), each on
/// its own booted target.
pub const REPLAY_TRACES: u64 = 4;
/// `reset` + submit-all passes `record_replay` makes per replayed trace.
pub const REPLAY_PASSES: u64 = 300;
/// Replay passes per trace whose seeds get individual spans in a traced
/// section; later passes get one span each (a span costs a tenth of a
/// seed).
pub const REPLAY_DETAILED_PASSES: u64 = 3;
/// Exits of the OS BOOT trace every fuzzing workload mutates.
pub const FUZZ_EXITS: usize = 300;
/// Traces (variants) each campaign workload plans over.
pub const CAMPAIGN_TRACES: u64 = 2;
/// Mutants per cell of `campaign_wide`.
pub const WIDE_MUTANTS: usize = 400;
/// Chunk size that keeps every cell of a plan in one chunk.
pub const WHOLE_CELL_CHUNK: usize = 4096;
/// Mutants per cell of `campaign_chunked`.
pub const CHUNKED_MUTANTS: usize = 64;
/// Chunk size of `campaign_chunked` and of the fleet job.
pub const SMALL_CHUNK: usize = 16;
/// Independent guided runs (variants) per section.
pub const GUIDED_RUNS: u64 = 4;
/// Slot budget of each guided run.
pub const GUIDED_BUDGET: u64 = 2000;
/// Slots per generation of the guided workloads.
pub const GUIDED_GENERATION: u64 = 64;
/// Mutants per cell of the fleet job.
pub const FLEET_MUTANTS: usize = 96;
/// Jobs submitted back to back per `fleet_loopback` section, one per
/// variant seed.
pub const FLEET_JOBS: usize = 3;

/// Span name: one `record_trace` call.
pub const RECORD: &str = "core.record";
/// Span name: one replay pass without per-seed spans.
pub const REPLAY_PASS: &str = "core.replay.pass";
/// Span name: the guided baseline measurement.
pub const GUIDED_BASELINE: &str = "fuzzer.guided.baseline";
/// Span name: building and booting one generation's `SlotContext`.
pub const GUIDED_CONTEXT: &str = "fuzzer.guided.context_new";
/// Span name: one `SlotContext::run_slot`.
pub const GUIDED_SLOT: &str = "fuzzer.guided.slot";
/// Span name: one `SharedEngine::fold_generation`.
pub const GUIDED_FOLD: &str = "fuzzer.guided.fold";
/// Span name: one `client::submit` round trip.
pub const CLIENT_SUBMIT: &str = "dist.client.submit";

/// The benchmark's workloads, in the fixed order `run` cycles them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Record, then replay recorded seeds on one booted target.
    RecordReplay,
    /// Campaign with whole-cell chunks.
    CampaignWide,
    /// Campaign with 16-mutant chunks deep in the trace.
    CampaignChunked,
    /// Guided engine, flat snapshot resets.
    GuidedFlat,
    /// Guided engine, snapshot forest.
    GuidedForest,
    /// Campaign jobs through a loopback coordinator and worker.
    FleetLoopback,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 6] = [
        Kind::RecordReplay,
        Kind::CampaignWide,
        Kind::CampaignChunked,
        Kind::GuidedFlat,
        Kind::GuidedForest,
        Kind::FleetLoopback,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RecordReplay => "record_replay",
            Kind::CampaignWide => "campaign_wide",
            Kind::CampaignChunked => "campaign_chunked",
            Kind::GuidedFlat => "guided_flat",
            Kind::GuidedForest => "guided_forest",
            Kind::FleetLoopback => "fleet_loopback",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists: the layer it stresses and what it
    /// bypasses (the line `BENCHMARK.json` records).
    pub fn why(self) -> &'static str {
        match self {
            Kind::RecordReplay => "record then replay recorded seeds, 1 boot and 1 reset per 2000 seeds: only hv::vm_exit and core record/replay work; bypasses mutation, crash recovery, drivers, wire",
            Kind::CampaignWide => "whole-cell chunks amortise boots to one per cell: cost is mutate + submit + reset-after-crash; the no-change control for per-chunk boot work",
            Kind::CampaignChunked => "16-mutant chunks deep in the trace: each pays build + boot-to-s1 prefix replay + baseline; what a persistent per-worker target must move",
            Kind::GuidedFlat => "generational engine with flat resets: one unconditional reset + lineage-prefix replay per slot, one boot and one fold per generation",
            Kind::GuidedForest => "same engine positioning by snapshot forest (pin_state/reset_to): a reset change that helps one guided workload and costs the other shows here",
            Kind::FleetLoopback => "same chunk=16 cells through dist over loopback TCP (frames, leases, heartbeats, per-side re-derivation): the difference to in-process is the wire",
        }
    }
}

/// What a section produced, one entry per variant. Serialized (outside
/// the timed window) to the bytes whose FNV-1a digest the output checks
/// compare.
#[derive(Debug)]
pub enum Outcome {
    /// `record_replay`'s summary counters.
    Replay(ReplaySummary),
    /// In-process campaign reports.
    Campaign(Vec<CampaignReport>),
    /// Guided results.
    Guided(Vec<GuidedResult>),
    /// The report JSON of each fleet job, as the coordinator sent it.
    Fleet(Vec<String>),
}

/// Everything `record_replay` can be checked on. Both the
/// `FuzzTarget` route (the section) and the bare `ReplayEngine` route
/// (the reference) fill it.
#[derive(Debug, Default, PartialEq, Eq, Serialize)]
pub struct ReplaySummary {
    /// Seeds recorded over all recordings.
    pub recorded_seeds: u64,
    /// Handling cycles summed over all recordings.
    pub recorded_cycles: u64,
    /// Seeds replayed over all passes.
    pub replayed_seeds: u64,
    /// Simulated cycles summed over all replayed seeds.
    pub replay_cycles: u64,
    /// Per-submission coverage lines summed over all replayed seeds.
    pub replay_lines_sum: u64,
    /// Replayed seeds that crashed.
    pub replay_crashes: u64,
    /// Lines in the union of one pass's per-seed coverage, summed over
    /// the replayed traces.
    pub coverage_lines: u64,
}

impl Outcome {
    /// The serialized result the digest is taken over.
    pub fn json(&self) -> String {
        match self {
            Outcome::Replay(s) => serde_json::to_string_pretty(s),
            Outcome::Campaign(r) => serde_json::to_string_pretty(r),
            Outcome::Guided(r) => serde_json::to_string_pretty(r),
            Outcome::Fleet(reports) => return reports.join("\n"),
        }
        .expect("benchmark results serialize")
    }

    /// Final covered lines, summed over the variants.
    pub fn coverage_lines(&self) -> u64 {
        match self {
            Outcome::Replay(s) => s.coverage_lines,
            Outcome::Campaign(r) => r.iter().map(|r| r.coverage.lines()).sum(),
            Outcome::Guided(r) => r.iter().map(|r| r.total_lines).sum(),
            Outcome::Fleet(r) => fleet_reports(r).iter().map(|r| r.coverage.lines()).sum(),
        }
    }

    /// Unique crash signatures in the final corpora, summed over the
    /// variants.
    pub fn unique_crashes(&self) -> u64 {
        (match self {
            Outcome::Replay(_) => 0,
            Outcome::Campaign(r) => r.iter().map(|r| r.corpus.unique()).sum(),
            Outcome::Guided(r) => r.iter().map(|r| r.crashes.unique()).sum(),
            Outcome::Fleet(r) => fleet_reports(r).iter().map(|r| r.corpus.unique()).sum(),
        }) as u64
    }

    /// Submissions that crashed the VM or the hypervisor.
    pub fn crashes(&self) -> u64 {
        let of = |f: &FailureStats| f.vm_crashes + f.hv_crashes;
        match self {
            Outcome::Replay(s) => s.replay_crashes,
            Outcome::Campaign(r) => r.iter().map(|r| of(&r.failures)).sum(),
            Outcome::Guided(r) => r.iter().map(|r| of(&r.failures)).sum(),
            Outcome::Fleet(r) => fleet_reports(r).iter().map(|r| of(&r.failures)).sum(),
        }
    }
}

fn fleet_reports(reports: &[String]) -> Vec<CampaignReport> {
    reports
        .iter()
        .map(|json| {
            serde_json::from_str(json).expect("the coordinator's report is CampaignReport JSON")
        })
        .collect()
}

/// One prepared workload. `prepare` is the set-up the `setup_s` metric
/// times; dropping the value tears it down.
pub trait Workload {
    /// Seeds submitted as useful work by one section.
    fn execs(&self) -> u64;

    /// Run one section — the timed unit. With a recorder, the same work
    /// runs with spans on.
    fn section(&mut self, tracer: Option<&Arc<Recorder>>) -> Outcome;

    /// The section's result by an independent route, for the untimed
    /// output check (also the warm-up).
    fn reference(&mut self) -> Outcome;

    /// Span counts a traced section must show, derived analytically
    /// from the plan and the section's own outcome.
    fn expected_spans(&self, outcome: &Outcome) -> Vec<(&'static str, u64)>;

    /// `(cells, chunks)` of the workload's campaign plans; zeros when
    /// it has none.
    fn plan_shape(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Set a workload up from the seed: record its traces, derive its
/// plans, bring up its fleet.
pub fn prepare(kind: Kind, seed: u64) -> Box<dyn Workload> {
    match kind {
        Kind::RecordReplay => Box::new(RecordReplay {
            seed,
            traces: variant_seeds(seed, REPLAY_TRACES)
                .map(|s| record_trace(GuestWorkload::OsBoot, REPLAY_EXITS, s))
                .collect(),
        }),
        Kind::CampaignWide => Box::new(Campaign::new(seed, WHOLE_CELL_CHUNK, wide_plan)),
        Kind::CampaignChunked => Box::new(Campaign::new(seed, SMALL_CHUNK, chunked_plan)),
        Kind::GuidedFlat => Box::new(Guided::new(seed, None)),
        Kind::GuidedForest => Box::new(Guided::new(seed, Some(ForestConfig::default()))),
        Kind::FleetLoopback => Box::new(FleetLoopback::start(seed)),
    }
}

/// The seeds a workload's variants derive from.
fn variant_seeds(seed: u64, variants: u64) -> impl Iterator<Item = u64> {
    (0..variants).map(move |i| seed.wrapping_add(i))
}

fn fuzz_trace(seed: u64) -> RecordedTrace {
    record_trace(GuestWorkload::OsBoot, FUZZ_EXITS, seed)
}

fn cell(trace: &RecordedTrace, idx: usize, area: SeedArea, mutants: usize, seed: u64) -> TestCase {
    TestCase {
        mutants,
        ..TestCase::new(
            GuestWorkload::OsBoot,
            idx,
            trace.seeds[idx].reason,
            area,
            seed ^ idx as u64,
        )
    }
}

/// First seed of each distinct exit reason × both areas.
fn wide_plan(trace: &RecordedTrace, seed: u64) -> Vec<TestCase> {
    let mut seen = Vec::new();
    let mut plan = Vec::new();
    for (idx, s) in trace.seeds.iter().enumerate() {
        if seen.contains(&s.reason) {
            continue;
        }
        seen.push(s.reason);
        for area in SeedArea::ALL {
            plan.push(cell(trace, idx, area, WIDE_MUTANTS, seed));
        }
    }
    plan
}

/// Seed indices 10, 20, … below the trace length × both areas.
fn chunked_plan(trace: &RecordedTrace, seed: u64) -> Vec<TestCase> {
    (10..trace.seeds.len())
        .step_by(10)
        .flat_map(|idx| SeedArea::ALL.map(|area| cell(trace, idx, area, CHUNKED_MUTANTS, seed)))
        .collect()
}

// --------------------------------------------------------------------
// record_replay

struct RecordReplay {
    seed: u64,
    traces: Vec<RecordedTrace>,
}

impl RecordReplay {
    fn replayed_seeds_per_pass(&self) -> u64 {
        self.traces.iter().map(|t| t.seeds.len() as u64).sum()
    }

    fn record_half(&self, tracer: Option<&Arc<Recorder>>, sum: &mut ReplaySummary) {
        for seed in variant_seeds(self.seed, REPLAY_RECORDINGS) {
            let _span = tracer.map(|r| r.enter(RECORD));
            let trace = record_trace(GuestWorkload::OsBoot, REPLAY_EXITS, seed);
            sum.recorded_seeds += trace.seeds.len() as u64;
            sum.recorded_cycles += trace.metrics.iter().map(|m| m.handling_cycles).sum::<u64>();
        }
    }
}

/// Fold one replayed seed's outcome into the summary; `union` collects
/// a first pass's coverage.
fn fold_replayed(
    sum: &mut ReplaySummary,
    union: Option<&mut CoverageMap>,
    coverage: &CoverageMap,
    cycles: u64,
    crashed: bool,
) {
    sum.replayed_seeds += 1;
    sum.replay_cycles += cycles;
    sum.replay_lines_sum += coverage.lines();
    sum.replay_crashes += u64::from(crashed);
    if let Some(union) = union {
        union.merge(coverage);
    }
}

/// Boot `target`, then `reset` + submit every seed of `trace`
/// [`REPLAY_PASSES`] times, folding every outcome into `sum`.
/// `pass_span` may open a span around a pass and `submit` chooses how a
/// seed is submitted — the two things a traced section does differently.
fn replay_passes<T: FuzzTarget>(
    target: &mut T,
    trace: &RecordedTrace,
    sum: &mut ReplaySummary,
    pass_span: impl Fn(u64) -> Option<SpanGuard>,
    submit: impl Fn(&mut T, u64, &VmSeed) -> SubmitOutcome,
) {
    let mut union = CoverageMap::new();
    target.boot();
    for pass in 0..REPLAY_PASSES {
        target.reset();
        let _span = pass_span(pass);
        for seed in &trace.seeds {
            let out = submit(target, pass, seed);
            let union = (pass == 0).then_some(&mut union);
            let crashed = out.crash.is_some();
            fold_replayed(sum, union, &out.coverage, out.cycles, crashed);
        }
    }
    sum.coverage_lines += union.lines();
}

impl Workload for RecordReplay {
    fn execs(&self) -> u64 {
        REPLAY_RECORDINGS * REPLAY_EXITS as u64 + REPLAY_PASSES * self.replayed_seeds_per_pass()
    }

    fn section(&mut self, tracer: Option<&Arc<Recorder>>) -> Outcome {
        let mut sum = ReplaySummary::default();
        self.record_half(tracer, &mut sum);
        let stock = IrisHvTarget::default();
        for trace in &self.traces {
            let plan = BootPlan::for_test_case(trace, 0);
            match tracer {
                None => replay_passes(
                    &mut stock.build(plan),
                    trace,
                    &mut sum,
                    |_| None,
                    |target, _, seed| target.submit(seed),
                ),
                Some(rec) => replay_passes(
                    &mut TracedFactory::new(stock, rec).build(plan),
                    trace,
                    &mut sum,
                    |pass| (pass >= REPLAY_DETAILED_PASSES).then(|| rec.enter(REPLAY_PASS)),
                    |target, pass, seed| {
                        if pass < REPLAY_DETAILED_PASSES {
                            target.submit(seed)
                        } else {
                            target.untraced().submit(seed)
                        }
                    },
                ),
            }
        }
        Outcome::Replay(sum)
    }

    /// The bare-engine route: `ReplayEngine::submit` on a hand-built
    /// stack with a flat `Snapshot`, no `FuzzTarget` in between. Two
    /// passes per trace are replayed (so the restore is exercised: the
    /// second must reproduce the first) and scaled — passes are
    /// identical by the reset law, which the section's own digest then
    /// confirms.
    fn reference(&mut self) -> Outcome {
        let mut sum = ReplaySummary::default();
        self.record_half(None, &mut sum);
        for trace in &self.traces {
            let mut hv = Hypervisor::new();
            hv.log.set_min_level(Some(iris_hv::log::Level::Warning));
            let dom = hv.create_hvm_domain(iris_fuzzer::campaign::DEFAULT_RAM_BYTES);
            let mut engine = ReplayEngine::new(&mut hv, dom);
            let s1 = Snapshot::take(&hv, dom);
            let mut union = CoverageMap::new();
            let mut first = ReplaySummary::default();
            for round in 0..2 {
                s1.restore_into(&mut hv, dom);
                let mut pass = ReplaySummary::default();
                for seed in &trace.seeds {
                    let out = engine.submit(&mut hv, seed);
                    let union = (round == 0).then_some(&mut union);
                    let crashed = out.exit.crash.is_some();
                    fold_replayed(
                        &mut pass,
                        union,
                        &out.metrics.coverage,
                        out.exit.cycles,
                        crashed,
                    );
                }
                assert!(
                    round == 0 || pass == first,
                    "a replay pass after snapshot restore diverged from the first"
                );
                first = pass;
            }
            sum.replayed_seeds += first.replayed_seeds * REPLAY_PASSES;
            sum.replay_cycles += first.replay_cycles * REPLAY_PASSES;
            sum.replay_lines_sum += first.replay_lines_sum * REPLAY_PASSES;
            sum.replay_crashes += first.replay_crashes * REPLAY_PASSES;
            sum.coverage_lines += union.lines();
        }
        Outcome::Replay(sum)
    }

    fn expected_spans(&self, _outcome: &Outcome) -> Vec<(&'static str, u64)> {
        use crate::traced::{BOOT, RESET_AFTER_CRASH, RESET_CLEAN, SUBMIT};
        vec![
            (RECORD, REPLAY_RECORDINGS),
            (BOOT, REPLAY_TRACES),
            (RESET_CLEAN, REPLAY_TRACES * REPLAY_PASSES),
            (RESET_AFTER_CRASH, 0),
            (
                SUBMIT,
                REPLAY_DETAILED_PASSES * self.replayed_seeds_per_pass(),
            ),
            (
                REPLAY_PASS,
                REPLAY_TRACES * (REPLAY_PASSES - REPLAY_DETAILED_PASSES),
            ),
        ]
    }
}

// --------------------------------------------------------------------
// campaign_wide / campaign_chunked

struct Campaign {
    /// One trace and plan per variant.
    variants: Vec<(RecordedTrace, Vec<TestCase>)>,
    chunk: usize,
}

impl Campaign {
    fn new(seed: u64, chunk: usize, plan: fn(&RecordedTrace, u64) -> Vec<TestCase>) -> Self {
        Self {
            variants: variant_seeds(seed, CAMPAIGN_TRACES)
                .map(|s| {
                    let trace = fuzz_trace(s);
                    let plan = plan(&trace, s);
                    (trace, plan)
                })
                .collect(),
            chunk,
        }
    }

    fn cells(&self) -> impl Iterator<Item = &TestCase> {
        self.variants.iter().flat_map(|(_, plan)| plan)
    }

    /// Every variant's plan through the real sharded executor.
    fn run_with<F: TargetFactory + Clone>(&self, factory: &F) -> Vec<CampaignReport> {
        self.variants
            .iter()
            .map(|(trace, plan)| {
                ParallelCampaign::with_factory(1, factory.clone())
                    .with_chunk(self.chunk)
                    .run_trace(trace, plan)
            })
            .collect()
    }
}

impl Workload for Campaign {
    fn execs(&self) -> u64 {
        self.cells().map(|tc| tc.mutants as u64).sum()
    }

    fn section(&mut self, tracer: Option<&Arc<Recorder>>) -> Outcome {
        let stock = IrisHvTarget::default();
        Outcome::Campaign(match tracer {
            None => self.run_with(&stock),
            Some(rec) => self.run_with(&TracedFactory::new(stock, rec).with_lifetime_span(CHUNK)),
        })
    }

    /// The chunk loop driven by hand, without the executor: the same
    /// `run_mutant_range_with` per chunk, `assemble_test_case` per cell
    /// and `fold_assembled` in plan order, on the calling thread.
    ///
    /// The chunk size is the section's own. A whole-cell run of the
    /// same plan is *not* a valid reference: `run_mutant_range_on`
    /// resets only after a crash, so a surviving mutant's state leaks
    /// into the rest of its chunk and the report depends on the
    /// partition (README.md, "Findings").
    fn reference(&mut self) -> Outcome {
        let stock = IrisHvTarget::default();
        let reports = self
            .variants
            .iter()
            .map(|(trace, plan)| {
                let mut report = CampaignReport::new();
                for tc in plan {
                    let chunks: Vec<_> = tc
                        .chunks(self.chunk)
                        .map(|range| run_mutant_range_with(&stock, trace, tc, range))
                        .collect();
                    let (result, coverage) = assemble_test_case(tc, chunks, &mut report.corpus);
                    report.fold_assembled(result, &coverage);
                }
                report
            })
            .collect();
        Outcome::Campaign(reports)
    }

    fn expected_spans(&self, outcome: &Outcome) -> Vec<(&'static str, u64)> {
        use crate::traced::{BOOT, PIN_STATE, RESET_AFTER_CRASH, RESET_CLEAN, RESET_TO, SUBMIT};
        let (_, chunks) = self.plan_shape();
        let crashes = outcome.crashes();
        vec![
            (CHUNK, chunks),
            (BOOT, chunks),
            // One baseline per chunk, every mutant, one re-baseline per crash.
            (SUBMIT, chunks + self.execs() + crashes),
            (RESET_AFTER_CRASH, crashes),
            (RESET_CLEAN, 0),
            (PIN_STATE, 0),
            (RESET_TO, 0),
        ]
    }

    fn plan_shape(&self) -> (u64, u64) {
        let chunks = self
            .cells()
            .map(|tc| tc.chunks(self.chunk).count() as u64)
            .sum();
        (self.cells().count() as u64, chunks)
    }
}

// --------------------------------------------------------------------
// guided_flat / guided_forest

struct Guided {
    /// One trace and configuration per variant (independent runs).
    variants: Vec<(RecordedTrace, GuidedConfig)>,
    factory: ConfiguredBackend,
}

impl Guided {
    fn new(seed: u64, forest: Option<ForestConfig>) -> Self {
        Self {
            variants: variant_seeds(seed, GUIDED_RUNS)
                .map(|s| {
                    let config = GuidedConfig {
                        budget: GUIDED_BUDGET,
                        generation: GUIDED_GENERATION,
                        rng_seed: s,
                        ..GuidedConfig::default()
                    };
                    (fuzz_trace(s), config)
                })
                .collect(),
            factory: ConfiguredBackend::new(Backend::Iris).with_forest(forest),
        }
    }

    fn run_each(&self, run: impl Fn(&RecordedTrace, GuidedConfig) -> GuidedResult) -> Outcome {
        Outcome::Guided(
            self.variants
                .iter()
                .map(|(trace, config)| run(trace, *config))
                .collect(),
        )
    }
}

/// The generational engine driven by hand: the same
/// `SharedEngine::{fresh, batch, fold_generation}` state machine and
/// `SlotContext::run_slot` core `run_guided_shared_with` drives through
/// the executor, here on the calling thread so the harness can put a
/// span around each step. One `SlotContext` per generation, as the
/// executor builds one per worker per generation.
pub fn guided_by_hand<F: TargetFactory>(
    factory: &F,
    trace: &RecordedTrace,
    config: GuidedConfig,
    tracer: Option<&Arc<Recorder>>,
) -> GuidedResult {
    let enter = |name| tracer.map(|r| r.enter(name));
    let corpus0 = initial_corpus(trace);
    let baseline = {
        let _span = enter(GUIDED_BASELINE);
        measure_baseline(factory, trace, &corpus0)
    };
    let mut engine = SharedEngine::fresh(trace, config, baseline);
    while let Some(batch) = engine.batch() {
        let mut ctx = {
            let _span = enter(GUIDED_CONTEXT);
            SlotContext::new(factory.build(BootPlan::post_boot(trace)))
        };
        let outcomes = (batch.start..batch.start + batch.len)
            .map(|slot| {
                let _span = enter(GUIDED_SLOT);
                ctx.run_slot(
                    engine.corpus(),
                    engine.paths(),
                    engine.seen(),
                    config.rng_seed,
                    slot,
                )
            })
            .collect::<Vec<_>>();
        drop(ctx);
        if let Some(rec) = tracer {
            let path_seeds: usize = outcomes
                .iter()
                .map(|o| engine.paths()[o.base_index].len())
                .sum();
            rec.counters
                .path_seeds
                .fetch_add(path_seeds as u64, Ordering::Relaxed);
        }
        let _span = enter(GUIDED_FOLD);
        engine.fold_generation(outcomes);
    }
    engine.result()
}

impl Workload for Guided {
    fn execs(&self) -> u64 {
        self.variants.iter().map(|(_, c)| c.budget).sum()
    }

    fn section(&mut self, tracer: Option<&Arc<Recorder>>) -> Outcome {
        match tracer {
            None => self
                .run_each(|trace, config| run_guided_shared_with(&self.factory, trace, config, 1)),
            Some(rec) => {
                let traced = TracedFactory::new(self.factory, rec);
                self.run_each(|trace, config| guided_by_hand(&traced, trace, config, tracer))
            }
        }
    }

    /// The flat engine is checked against the hand-driven loop; the
    /// forest engine against the flat engine (the forest is a pure
    /// accelerator).
    fn reference(&mut self) -> Outcome {
        if self.factory.forest.is_none() {
            self.run_each(|trace, config| guided_by_hand(&self.factory, trace, config, None))
        } else {
            let flat = self.factory.with_forest(None);
            self.run_each(|trace, config| run_guided_shared_with(&flat, trace, config, 1))
        }
    }

    fn expected_spans(&self, _outcome: &Outcome) -> Vec<(&'static str, u64)> {
        use crate::traced::BOOT;
        let runs = self.variants.len() as u64;
        let generations: u64 = self
            .variants
            .iter()
            .map(|(_, c)| c.budget.div_ceil(c.generation))
            .sum();
        vec![
            (GUIDED_BASELINE, runs),
            (GUIDED_CONTEXT, generations),
            (GUIDED_SLOT, self.execs()),
            (GUIDED_FOLD, generations),
            // Per run the baseline target, plus one context per generation.
            (BOOT, runs + generations),
        ]
    }
}

// --------------------------------------------------------------------
// fleet_loopback

/// The worker's cooperative stop flag. `WorkerOptions::stop` wants a
/// `'static` flag; fleets in one process run one after another, so one
/// flag serves them all.
static FLEET_STOP: AtomicBool = AtomicBool::new(false);

struct FleetLoopback {
    /// One job per variant seed.
    specs: Vec<JobSpec>,
    server: Option<Server>,
    worker: Option<JoinHandle<()>>,
    addr: String,
    /// Cells over all the specs' plans, learnt by `reference` (a client
    /// never derives a plan, so set-up does not either).
    cells: Option<usize>,
}

impl FleetLoopback {
    fn start(seed: u64) -> Self {
        FLEET_STOP.store(false, Ordering::SeqCst);
        let server = Server::start(ServeOptions::default()).expect("bind a loopback coordinator");
        let addr = server.addr().to_string();
        let opts = WorkerOptions {
            connect: addr.clone(),
            heartbeat_ms: 200,
            stop: Some(&FLEET_STOP),
            ..WorkerOptions::default()
        };
        let worker = std::thread::spawn(move || {
            // A stop request surfaces as Ok; connection loss at
            // teardown is expected and carries no result.
            let _ = run_worker(&opts);
        });
        let fleet = Self {
            specs: variant_seeds(seed, FLEET_JOBS as u64)
                .map(fleet_spec)
                .collect(),
            server: Some(server),
            worker: Some(worker),
            addr,
            cells: None,
        };
        // A fleet is up once it has answered: a one-mutant-per-cell job
        // makes the worker connect, handshake and serve, so bring-up is
        // a measurable quantity rather than two thread spawns.
        let probe = JobSpec {
            kind: JobKind::Campaign {
                mutants: 1,
                chunk: SMALL_CHUNK,
            },
            ..fleet_spec(seed)
        };
        iris_dist::client::submit(&fleet.addr, &probe, |_, _, _| {})
            .expect("a fresh loopback fleet serves its first job");
        fleet
    }
}

/// The campaign job `fleet_loopback` submits for a seed.
pub fn fleet_spec(seed: u64) -> JobSpec {
    JobSpec {
        target: "iris".to_owned(),
        workload: GuestWorkload::OsBoot.label().to_owned(),
        exits: FUZZ_EXITS,
        seed,
        kind: JobKind::Campaign {
            mutants: FLEET_MUTANTS,
            chunk: SMALL_CHUNK,
        },
    }
}

/// The trace and plan every participant re-derives from a fleet spec.
pub fn fleet_plan(spec: &JobSpec) -> (RecordedTrace, Vec<TestCase>) {
    let trace = spec.record_trace().expect("the fleet spec names OS BOOT");
    let plan = spec.plan(&trace).expect("the fleet spec is a campaign");
    (trace, plan)
}

impl Drop for FleetLoopback {
    fn drop(&mut self) {
        FLEET_STOP.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server.stop();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Workload for FleetLoopback {
    fn execs(&self) -> u64 {
        let cells = self
            .cells
            .unwrap_or_else(|| self.specs.iter().map(|s| fleet_plan(s).1.len()).sum());
        (cells * FLEET_MUTANTS) as u64
    }

    fn section(&mut self, tracer: Option<&Arc<Recorder>>) -> Outcome {
        let reports = self
            .specs
            .iter()
            .map(|spec| {
                let _span = tracer.map(|r| r.enter(CLIENT_SUBMIT));
                iris_dist::client::submit(&self.addr, spec, |_, _, _| {})
                    .expect("a loopback job completes")
                    .report
            })
            .collect();
        Outcome::Fleet(reports)
    }

    /// The same specs in-process: `ParallelCampaign` at the spec's chunk
    /// size over the spec's own trace and plan, serialized the way
    /// `iris campaign --json` does.
    fn reference(&mut self) -> Outcome {
        let mut cells = 0;
        let reports = self
            .specs
            .iter()
            .map(|spec| {
                let (trace, plan) = fleet_plan(spec);
                cells += plan.len();
                let report = ParallelCampaign::with_factory(1, Backend::Iris)
                    .with_chunk(SMALL_CHUNK)
                    .run_trace(&trace, &plan);
                serde_json::to_string_pretty(&report).expect("campaign reports serialize")
            })
            .collect();
        self.cells = Some(cells);
        Outcome::Fleet(reports)
    }

    fn expected_spans(&self, _outcome: &Outcome) -> Vec<(&'static str, u64)> {
        vec![(CLIENT_SUBMIT, FLEET_JOBS as u64)]
    }

    fn plan_shape(&self) -> (u64, u64) {
        let cells = self.cells.unwrap_or(0) as u64;
        (cells, cells * FLEET_MUTANTS.div_ceil(SMALL_CHUNK) as u64)
    }
}
