//! The backend-conformance suite: every backend registered in
//! [`Backend`] must honour the [`FuzzTarget`] contract the drivers rely
//! on — deterministic boot, exact `s1` restoration on reset, reproducible
//! coverage — and must aggregate deterministically under the sharded
//! executor (jobs=1/2 byte-identical reports).
//!
//! The `for_every_backend!` macro matches exhaustively on [`Backend`], so
//! registering a new backend fails this file until the suite covers it.

use iris_core::forest::{ForestConfig, StateId};
use iris_core::trace::RecordedTrace;
use iris_fuzzer::checkpoint::{GuidedCheckpoint, RunOptions};
use iris_fuzzer::guided::{
    initial_corpus, run_guided_shared_session, run_guided_shared_with, GuidedConfig,
};
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::ParallelCampaign;
use iris_fuzzer::target::{
    record_trace, Backend, BootPlan, ConfiguredBackend, FuzzTarget, IrisHvTarget, SubmitOutcome,
    TargetFactory,
};
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Run `$body` once per registered backend with `$factory` bound to that
/// backend's factory. Exhaustive over [`Backend`] by construction.
macro_rules! for_every_backend {
    (|$factory:ident, $backend:ident| $body:block) => {
        for $backend in Backend::ALL {
            match $backend {
                Backend::Iris => {
                    let $factory = IrisHvTarget::default();
                    $body
                }
                Backend::Faulty => {
                    let $factory = Backend::Faulty;
                    $body
                }
            }
        }
    };
}

fn boot_trace(n: usize) -> RecordedTrace {
    record_trace(Workload::OsBoot, n, 42)
}

fn find_seed(trace: &RecordedTrace, reason: ExitReason) -> usize {
    trace
        .seeds
        .iter()
        .position(|s| s.reason == reason)
        .expect("reason present in trace")
}

/// A mutant that reliably kills the whole SUT on any backend: steering
/// the interposed exit reason into the never-configured range hits the
/// dispatcher's BUG arm.
fn hv_fatal_mutant(trace: &RecordedTrace, idx: usize) -> iris_core::seed::VmSeed {
    let mut mutant = trace.seeds[idx].clone();
    for pair in &mut mutant.reads {
        if pair.0 == VmcsField::VmExitReason {
            pair.1 = 11; // GETSEC
        }
    }
    mutant
}

#[test]
fn boot_and_submit_are_deterministic_across_instances() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut a = factory.build(BootPlan::for_test_case(&trace, idx));
        let mut b = factory.build(BootPlan::for_test_case(&trace, idx));
        a.boot();
        b.boot();
        for seed in [&trace.seeds[idx], &trace.seeds[0]] {
            let out_a = a.submit(seed);
            let out_b = b.submit(seed);
            assert_eq!(
                out_a.coverage, out_b.coverage,
                "{backend:?}: twin instances diverged on coverage"
            );
            assert_eq!(
                out_a.crash, out_b.crash,
                "{backend:?}: crash verdicts diverged"
            );
            assert_eq!(
                out_a.cycles, out_b.cycles,
                "{backend:?}: cycle costs diverged"
            );
        }
    });
}

#[test]
fn reset_restores_s1_after_a_domain_crash() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
        target.boot();
        let baseline = target.submit(&trace.seeds[idx]);
        assert!(
            baseline.crash.is_none(),
            "{backend:?}: recorded seed crashed"
        );

        // A guest RIP in the canonical hole is a domain crash (the SUT
        // survives, so reset takes the snapshot-restore path).
        let mut mutant = trace.seeds[idx].clone();
        for pair in &mut mutant.reads {
            if pair.0 == VmcsField::GuestRip {
                pair.1 ^= 1u64 << 62;
            }
        }
        let crashed = target.submit(&mutant);
        assert!(
            crashed.crash.is_some(),
            "{backend:?}: bad-RIP mutant must crash the domain"
        );
        target.reset();
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(
            baseline.coverage, again.coverage,
            "{backend:?}: reset did not restore s1 (coverage diverged)"
        );
        assert!(again.crash.is_none(), "{backend:?}: restored s1 crashed");
    });
}

#[test]
fn reset_rebuilds_after_a_sut_fatal_crash() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
        target.boot();
        let baseline = target.submit(&trace.seeds[idx]);

        let crashed = target.submit(&hv_fatal_mutant(&trace, idx));
        assert_eq!(
            crashed.crash.map(|v| v.kind),
            Some(iris_fuzzer::failure::FailureKind::HypervisorCrash),
            "{backend:?}: unhandled exit reason must be SUT-fatal"
        );
        target.reset(); // whole-stack restore path
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(
            baseline.coverage, again.coverage,
            "{backend:?}: the whole-stack restore did not reproduce s1"
        );
        assert!(again.crash.is_none());
    });
}

/// Everything a driver can observe of one submission.
fn observed(out: iris_fuzzer::target::SubmitOutcome) -> impl PartialEq + std::fmt::Debug {
    (out.coverage, out.crash, out.cycles)
}

#[test]
fn fatal_reset_is_indistinguishable_from_a_fresh_boot() {
    // Undoing a SUT-fatal crash restores the whole stack in place; the
    // law is that nobody can tell it from the boot it replaces. Twin B
    // is that boot: after A's crash and recovery the two stacks must
    // print the same, and stay in lockstep over the trace.
    let trace = boot_trace(160);
    let deep = trace.seeds.len() - 55;
    assert!(deep >= 100, "the deep plan must replay a long prefix");
    for backend in Backend::ALL {
        for forest in [None, Some(ForestConfig::default())] {
            let factory = ConfiguredBackend::new(backend).with_forest(forest);
            for plan in [
                BootPlan::for_test_case(&trace, 3),
                BootPlan::for_test_case(&trace, deep),
                BootPlan::post_boot(&trace),
            ] {
                let what = format!(
                    "{backend:?} forest={} prefix={}",
                    forest.is_some(),
                    plan.prefix
                );
                let mut a = factory.build(plan);
                let mut b = factory.build(plan);
                a.boot();
                b.boot();
                let next = &trace.seeds[plan.prefix..plan.prefix + 50];

                let killed = a.submit(&hv_fatal_mutant(&trace, plan.prefix));
                assert!(
                    killed.crash.is_some(),
                    "{what}: the mutant must kill the SUT"
                );
                assert!(!a.stack().0.is_alive(), "{what}");
                a.reset();
                assert_eq!(
                    format!("{:?}", a.stack()),
                    format!("{:?}", b.stack()),
                    "{what}: reset after a fatal crash differs from a fresh boot"
                );

                // Walk on, pin the same state on both (forest only), kill
                // A again further along, and come back to the pin.
                for seed in &next[..5] {
                    assert_eq!(observed(a.submit(seed)), observed(b.submit(seed)), "{what}");
                }
                let pins = (a.pin_state(), b.pin_state());
                for seed in &next[5..10] {
                    assert_eq!(observed(a.submit(seed)), observed(b.submit(seed)), "{what}");
                }
                let _ = a.submit(&hv_fatal_mutant(&trace, plan.prefix));
                match pins {
                    (Some(pin_a), Some(pin_b)) => {
                        assert!(
                            a.reset_to(pin_a) && b.reset_to(pin_b),
                            "{what}: pins survive"
                        );
                        for seed in &next[5..] {
                            assert_eq!(
                                observed(a.submit(seed)),
                                observed(b.submit(seed)),
                                "{what}"
                            );
                        }
                    }
                    _ => {
                        assert!(forest.is_none(), "{what}: a forest target pins");
                        assert!(!a.reset_to(StateId::ROOT), "{what}: no forest, no pins");
                        a.reset();
                        b.reset();
                        for seed in next {
                            assert_eq!(
                                observed(a.submit(seed)),
                                observed(b.submit(seed)),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn coverage_is_reproducible_and_monotone_over_a_sequence() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::Cpuid);
    for_every_backend!(|factory, backend| {
        let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
        target.boot();
        // Same seed from the same state touches the same blocks.
        let first = target.submit(&trace.seeds[idx]);
        let second = target.submit(&trace.seeds[idx]);
        assert_eq!(
            first.coverage, second.coverage,
            "{backend:?}: identical submissions diverged"
        );

        // The union over a crash-free sequence grows monotonically.
        let mut seen = iris_hv::coverage::CoverageMap::new();
        let mut last_lines = 0u64;
        for seed in trace.seeds.iter().take(30) {
            let out = target.submit(seed);
            if out.crash.is_some() {
                target.reset();
            }
            seen.merge(&out.coverage);
            assert!(
                seen.lines() >= last_lines,
                "{backend:?}: coverage union shrank"
            );
            last_lines = seen.lines();
        }
        assert!(last_lines > 0, "{backend:?}: sequence covered nothing");
    });
}

#[test]
fn sharded_reports_are_byte_identical_for_jobs_1_and_2() {
    let trace = boot_trace(150);
    let mut plan = Vec::new();
    let mut seen = Vec::new();
    for (idx, seed) in trace.seeds.iter().enumerate() {
        if seen.contains(&seed.reason) {
            continue;
        }
        seen.push(seed.reason);
        for area in SeedArea::ALL {
            plan.push(TestCase {
                mutants: 30,
                ..TestCase::new(
                    Workload::OsBoot,
                    idx,
                    seed.reason,
                    area,
                    0xC0FFEE ^ idx as u64,
                )
            });
        }
    }
    assert!(plan.len() >= 6, "plan too small to shard meaningfully");

    for_every_backend!(|factory, backend| {
        let one = ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan);
        let two = ParallelCampaign::with_factory(2, factory).run_trace(&trace, &plan);
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&two).unwrap(),
            "{backend:?}: jobs=2 report diverged from jobs=1"
        );
    });
}

#[test]
fn chunked_reports_are_byte_identical_across_jobs_and_chunks() {
    // The chunked twin of the jobs=1/2 determinism case: for every
    // registered backend, the report must be byte-identical whatever
    // the (jobs, chunk) combination — chunk=1 makes every mutant its
    // own steal, chunk=usize::MAX is the whole-cell pre-chunking
    // behavior. The per-range RNG law (`rng_seed ⊕ mutant_index`) plus
    // the `(test_case_index, range_start)` merge order are what every
    // backend must therefore honour: deterministic boot and
    // history-independent submissions from the canonical state.
    let trace = boot_trace(120);
    let mut plan = Vec::new();
    for (reason, area) in [
        (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
        (ExitReason::Cpuid, SeedArea::Gpr),
        (ExitReason::IoInstruction, SeedArea::Vmcs),
    ] {
        plan.push(TestCase {
            mutants: 45,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, reason),
                reason,
                area,
                0xFEED,
            )
        });
    }

    for_every_backend!(|factory, backend| {
        let reference = ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [1usize, 2] {
            for chunk in [1usize, 7, usize::MAX] {
                let report = ParallelCampaign::with_factory(jobs, factory)
                    .with_chunk(chunk)
                    .run_trace(&trace, &plan);
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    baseline,
                    "{backend:?}: jobs={jobs} chunk={chunk} diverged"
                );
            }
        }
    });
}

#[test]
#[ignore = "known counterexample: campaigns reset only after a crash, so a \
            surviving mutant's state leaks into the rest of its chunk; \
            un-ignore with the unconditional-reset follow-up"]
fn chunk_size_law_counterexample_trace_16_cell_290() {
    // The `(jobs, chunk)` byte-identity law is pinned on the cells the
    // suites above run, not in general (benchmark/README.md, "What the
    // first ledgers say" §3): on OS BOOT trace seed 16 the cell (seed
    // index 290, CR ACCESS, VMCS, 64 mutants, rng_seed 16 ^ 290) finds
    // 56 new lines run as one chunk and 50 in chunks of 16.
    let trace = record_trace(Workload::OsBoot, 300, 16);
    assert_eq!(trace.seeds[290].reason, ExitReason::CrAccess);
    let plan = [TestCase {
        mutants: 64,
        ..TestCase::new(
            Workload::OsBoot,
            290,
            ExitReason::CrAccess,
            SeedArea::Vmcs,
            16 ^ 290,
        )
    }];
    let new_lines = |chunk: usize| {
        let report = ParallelCampaign::new(1)
            .with_chunk(chunk)
            .run_trace(&trace, &plan);
        report.results[0].new_lines
    };
    assert_eq!(new_lines(4096), new_lines(16));
}

#[test]
fn guided_shared_reports_are_byte_identical_across_jobs() {
    // The generational shared-corpus engine's acceptance cross product:
    // for every registered backend, jobs ∈ {1, 2, 8} must serialize a
    // byte-identical GuidedResult (promotions, corpus order, coverage,
    // growth curve, failures, crash corpus) — jobs=1 is the reference.
    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        assert!(
            reference.promotions > 0,
            "{backend:?}: the reference run must exercise promotion"
        );
        assert!(
            reference.failures.vm_crashes + reference.failures.hv_crashes > 0,
            "{backend:?}: the reference run must exercise crash recovery"
        );
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [2usize, 8] {
            let r = run_guided_shared_with(&factory, &trace, cfg, jobs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                baseline,
                "{backend:?}: jobs={jobs} diverged from the jobs=1 reference"
            );
        }
    });
}

#[test]
fn guided_shared_forest_reports_are_byte_identical_to_forest_off() {
    // The snapshot-forest acceptance cross product: with the forest on,
    // jobs ∈ {1, 2, 8} must serialize byte-identically to the classic
    // forest-off jobs=1 reference on every registered backend — the
    // forest changes replay cost, never report bytes. cap=3 and cap=1
    // keep the LRU eviction path under pressure while doing it.
    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        assert!(
            reference.promotions > 0,
            "{backend:?}: the reference run must exercise promotion"
        );
        let baseline = serde_json::to_string(&reference).unwrap();
        for (jobs, cap) in [(1usize, ForestConfig::DEFAULT_CAP), (2, 3), (8, 1)] {
            let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let r = run_guided_shared_with(&forest, &trace, cfg, jobs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                baseline,
                "{backend:?}: forest jobs={jobs} cap={cap} diverged from the forest-off reference"
            );
        }
    });
}

#[test]
fn campaign_forest_reports_are_byte_identical_to_forest_off() {
    // The campaign twin: forest-mode prefix servers must fold to the
    // same report bytes as the classic rebuild-per-chunk path for
    // jobs ∈ {1, 2, 8}, on every registered backend, eviction pressure
    // included.
    let trace = boot_trace(120);
    let mut plan = Vec::new();
    for (reason, area) in [
        (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
        (ExitReason::Cpuid, SeedArea::Gpr),
        (ExitReason::IoInstruction, SeedArea::Vmcs),
    ] {
        plan.push(TestCase {
            mutants: 45,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, reason),
                reason,
                area,
                0xFEED,
            )
        });
    }

    for_every_backend!(|factory, backend| {
        let baseline = serde_json::to_string(
            &ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan),
        )
        .unwrap();
        for (jobs, cap) in [(1usize, ForestConfig::DEFAULT_CAP), (2, 2), (8, 1)] {
            let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let report = ParallelCampaign::with_factory(jobs, forest)
                .with_chunk(7)
                .run_trace(&trace, &plan);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "{backend:?}: forest jobs={jobs} cap={cap} diverged from the forest-off reference"
            );
        }
    });
}

#[test]
fn forest_resume_interoperates_with_forest_off_checkpoints() {
    // Checkpoint fingerprints deliberately exclude the forest flag
    // (RELIABILITY.md): a run interrupted without the forest must
    // resume WITH it (and vice versa) to the same bytes as the
    // uninterrupted reference — the promotion lineage in the v2
    // checkpoint is what lets forest workers rebuild seed paths.
    use std::sync::atomic::{AtomicBool, Ordering};

    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Interrupt a forest-off jobs=2 run at its second barrier…
        let stop = AtomicBool::new(false);
        let mut captured: Option<GuidedCheckpoint> = None;
        run_guided_shared_session(
            &factory,
            &trace,
            cfg,
            2,
            RunOptions {
                stop: Some(&stop),
                resume: None,
            },
            |p| {
                captured = Some(p.checkpoint("forest-interop"));
                if p.generation >= 2 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
        .expect("interruption is not an error");

        // …and resume it with the forest on, under eviction pressure.
        let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap: 2 }));
        let resumed = run_guided_shared_session(
            &forest,
            &trace,
            cfg,
            2,
            RunOptions {
                stop: None,
                resume: captured,
            },
            |_| {},
        )
        .expect("resumed run completes");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline,
            "{backend:?}: forest-on resume of a forest-off checkpoint diverged"
        );
    });
}

/// The `boot` and `submit` calls a [`Panicking`] backend panics on,
/// by ordinal: each kind of call is counted across every instance the
/// factory builds, in call order.
#[derive(Default)]
struct Planted {
    boots: Vec<u64>,
    submits: Vec<u64>,
    boot_calls: AtomicU64,
    submit_calls: AtomicU64,
    fired: AtomicUsize,
}

impl Planted {
    fn trip(&self, calls: &AtomicU64, at: &[u64], what: &str) {
        let call = calls.fetch_add(1, Ordering::Relaxed);
        if at.contains(&call) {
            self.fired.fetch_add(1, Ordering::Relaxed);
            panic!("planted panic in {what} {call}");
        }
    }
}

/// A backend with planted panics. They leave the target the way a real
/// backend fault would: through the executor's `work` call, or through
/// the lazy `worker_ctx` build when the panicking `boot` builds a
/// worker's context.
#[derive(Clone)]
struct Panicking<F> {
    inner: F,
    planted: Arc<Planted>,
}

impl<F> Panicking<F> {
    fn new(inner: F, boots: &[u64], submits: &[u64]) -> Self {
        let planted = Planted {
            boots: boots.to_vec(),
            submits: submits.to_vec(),
            ..Planted::default()
        };
        Self {
            inner,
            planted: Arc::new(planted),
        }
    }

    fn fired(&self) -> usize {
        self.planted.fired.load(Ordering::Relaxed)
    }
}

struct PanickingTarget<T> {
    inner: T,
    planted: Arc<Planted>,
}

impl<T: FuzzTarget> FuzzTarget for PanickingTarget<T> {
    fn boot(&mut self) {
        let p = &self.planted;
        p.trip(&p.boot_calls, &p.boots, "boot");
        self.inner.boot();
    }

    fn submit(&mut self, seed: &iris_core::seed::VmSeed) -> SubmitOutcome {
        let p = &self.planted;
        p.trip(&p.submit_calls, &p.submits, "submit");
        self.inner.submit(seed)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn pin_state(&mut self) -> Option<StateId> {
        self.inner.pin_state()
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        self.inner.reset_to(id)
    }
}

impl<F: TargetFactory> TargetFactory for Panicking<F> {
    type Target<'t> = PanickingTarget<F::Target<'t>>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t> {
        PanickingTarget {
            inner: self.inner.build(plan),
            planted: Arc::clone(&self.planted),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        self.inner.forest()
    }
}

#[test]
fn injected_worker_panics_leave_guided_results_byte_identical() {
    // The re-lease law: a worker panicking mid-generation loses its
    // claimed slot to the re-lease list, a fresh context re-runs it,
    // and — because submissions are derived from canonical target
    // state, not worker history — the jobs=2 run with four planted
    // panics still serializes byte-identically to the clean jobs=1
    // reference on every registered backend.
    let trace = boot_trace(150);
    // The baseline's one boot and its submits run on the calling
    // thread, outside the executor; the planted panics come after.
    let warmup = initial_corpus(&trace).len() as u64;
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        let baseline = serde_json::to_string(&reference).unwrap();

        // One worker-context build (its boot) and three slot submits.
        let submits = [warmup + 3, warmup + 17, warmup + 60];
        let panicking = Panicking::new(factory, &[1], &submits);
        let r = run_guided_shared_with(&panicking, &trace, cfg, 2);
        assert_eq!(
            panicking.fired(),
            4,
            "{backend:?}: every planted panic fired"
        );
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            baseline,
            "{backend:?}: injected worker panics changed the guided result"
        );
    });
}

#[test]
fn campaign_survives_injected_worker_panics_byte_identically() {
    // The campaign's re-lease law on every backend: a chunk lost to a
    // panicking boot or submit re-runs on a fresh target and folds to
    // the clean jobs=1 bytes. In forest mode the boot builds a worker's
    // long-lived prefix server, so a panicking boot tears down that
    // lazily built context.
    let trace = boot_trace(120);
    let plan: Vec<TestCase> = [
        (ExitReason::CrAccess, SeedArea::Vmcs),
        (ExitReason::Cpuid, SeedArea::Gpr),
        (ExitReason::IoInstruction, SeedArea::Vmcs),
    ]
    .into_iter()
    .map(|(reason, area)| TestCase {
        mutants: 45,
        ..TestCase::new(
            Workload::OsBoot,
            find_seed(&trace, reason),
            reason,
            area,
            0xFEED,
        )
    })
    .collect();
    for_every_backend!(|factory, backend| {
        let reference = ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();
        let forest = Some(ForestConfig { cap: 2 });
        let cases: [(&str, &[u64], &[u64], _); 4] = [
            ("submit", &[], &[5, 50, 120], None),
            ("boot", &[1, 4], &[], None),
            ("forest submit", &[], &[5, 50, 120], forest),
            ("forest boot", &[0, 1], &[], forest),
        ];
        for (case, boots, submits, forest) in cases {
            let target = ConfiguredBackend::new(backend).with_forest(forest);
            let panicking = Panicking::new(target, boots, submits);
            let report = ParallelCampaign::with_factory(2, panicking.clone())
                .with_chunk(8)
                .run_trace(&trace, &plan);
            let planted = boots.len() + submits.len();
            assert_eq!(panicking.fired(), planted, "{backend:?} {case}: all fired");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "{backend:?} {case}: injected worker panics changed the report"
            );
        }
    });
}

/// One shared trace for the proptest cases — recording is the expensive
/// part, and every case reads it immutably.
fn proptest_trace() -> &'static RecordedTrace {
    static TRACE: OnceLock<RecordedTrace> = OnceLock::new();
    TRACE.get_or_init(|| boot_trace(120))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generational promotion-merge protocol is
    /// partition-independent: for arbitrary (jobs, generation size,
    /// budget, rng seed) — generation=1 makes every slot its own sync
    /// point, budgets that are not generation multiples exercise the
    /// ragged final generation — the shared-mode GuidedResult
    /// serializes byte-identically to the jobs=1 reference on every
    /// registered backend.
    #[test]
    fn generational_promotion_merge_is_partition_independent(
        jobs in 2usize..6,
        generation in 1u64..40,
        budget in 0u64..120,
        rng_seed in any::<u64>(),
    ) {
        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let cfg = GuidedConfig {
                budget,
                generation,
                rng_seed,
            };
            let reference = run_guided_shared_with(&factory, trace, cfg, 1);
            let sharded = run_guided_shared_with(&factory, trace, cfg, jobs);
            let sharded = serde_json::to_string(&sharded).expect("serializes");
            let reference = serde_json::to_string(&reference).expect("serializes");
            prop_assert!(
                sharded == reference,
                "{backend:?}: jobs={jobs} generation={generation} budget={budget} \
                 diverged from the jobs=1 reference"
            );
        });
    }

    /// Arbitrary forest shapes restore byte-identically to a fresh
    /// rebuild from s1: a random walk of submissions, pins, and
    /// restores — depth and branching driven by the action list, LRU
    /// eviction by the tight cap — must leave every surviving node
    /// restoring to exactly the state a forest-off target reaches by
    /// replaying that node's seed path from s1, on every registered
    /// backend. (Node state is pure in the path; the delta encoding is
    /// invisible.)
    #[test]
    fn forest_shapes_restore_byte_identically_to_rebuild_from_s1(
        actions in proptest::collection::vec(any::<u8>(), 1..24),
        cap in 1usize..5,
    ) {
        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let forest_factory =
                ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let mut target = forest_factory.build(BootPlan {
                trace,
                prefix: 0,
                fast_forward: false,
            });
            target.boot();
            // The model: each pin's seed path from s1, mirrored by the
            // walk. A crash resets to the root (the empty path), like
            // the drivers do.
            let mut path: Vec<usize> = Vec::new();
            let mut pins: Vec<(StateId, Vec<usize>)> = Vec::new();
            for &a in &actions {
                match a % 3 {
                    0 => {
                        let k = (a as usize / 3) % trace.seeds.len().min(40);
                        if target.submit(&trace.seeds[k]).crash.is_some() {
                            target.reset();
                            path.clear();
                        } else {
                            path.push(k);
                        }
                    }
                    1 => {
                        if let Some(id) = target.pin_state() {
                            pins.push((id, path.clone()));
                        }
                    }
                    _ => {
                        if pins.is_empty() {
                            target.reset();
                            path.clear();
                        } else {
                            let pick = (a as usize / 3) % pins.len();
                            let (id, p) = pins[pick].clone();
                            if target.reset_to(id) {
                                path = p;
                            } else {
                                // Evicted under the tight cap — fall
                                // back to the root, dropping the stale
                                // pin from the model.
                                pins.remove(pick);
                                target.reset();
                                path.clear();
                            }
                        }
                    }
                }
            }
            // Every pin that still restores must match the fresh
            // rebuild-from-s1 reference for its path, probed by a
            // submission from the restored state.
            for (id, p) in pins {
                if !target.reset_to(id) {
                    continue; // evicted — nothing to compare
                }
                let probe = target.submit(&trace.seeds[0]);

                let mut fresh = factory.build(BootPlan {
                    trace,
                    prefix: 0,
                    fast_forward: false,
                });
                fresh.boot();
                for &k in &p {
                    let out = fresh.submit(&trace.seeds[k]);
                    prop_assert!(
                        out.crash.is_none(),
                        "{backend:?}: model path replay crashed — walk bookkeeping is wrong"
                    );
                }
                let reference = fresh.submit(&trace.seeds[0]);
                prop_assert!(
                    probe.coverage == reference.coverage
                        && probe.crash == reference.crash
                        && probe.cycles == reference.cycles,
                    "{backend:?}: cap={cap} node {id:?} (path {p:?}) diverged from \
                     the rebuild-from-s1 reference"
                );
            }
        });
    }

    /// Interrupt-then-resume is exact at every generation barrier: for
    /// arbitrary (jobs, generation size, budget, interruption point) —
    /// including stops after the final barrier, i.e. resuming an
    /// already-complete checkpoint — capturing the barrier checkpoint,
    /// stopping cooperatively, and resuming from it serializes
    /// byte-identically to the uninterrupted jobs=1 reference on every
    /// registered backend.
    #[test]
    fn interrupt_at_any_barrier_then_resume_is_byte_identical(
        jobs in 1usize..4,
        generation in 1u64..24,
        budget in 1u64..80,
        stop_after in 0usize..6,
        rng_seed in any::<u64>(),
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};

        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let cfg = GuidedConfig {
                budget,
                generation,
                rng_seed,
            };
            let reference = run_guided_shared_with(&factory, trace, cfg, 1);
            let reference = serde_json::to_string(&reference).expect("serializes");

            // First leg: capture the checkpoint at every barrier (the
            // newest one mirrors what a durable writer would hold) and
            // trip the stop flag once `stop_after` generations are in.
            let stop = AtomicBool::new(false);
            let mut captured: Option<GuidedCheckpoint> = None;
            let first = run_guided_shared_session(
                &factory,
                trace,
                cfg,
                jobs,
                RunOptions { stop: Some(&stop), resume: None },
                |p| {
                    captured = Some(p.checkpoint("prop-fingerprint"));
                    if p.generation >= stop_after {
                        stop.store(true, Ordering::Relaxed);
                    }
                },
            )
            .expect("interruption is not an error");
            prop_assert!(
                first.executions <= budget,
                "{backend:?}: interrupted leg overran its budget"
            );

            // Second leg: resume from the captured barrier state.
            let resumed = run_guided_shared_session(
                &factory,
                trace,
                cfg,
                jobs,
                RunOptions { stop: None, resume: captured },
                |_| {},
            )
            .expect("resumed run completes");
            let resumed = serde_json::to_string(&resumed).expect("serializes");
            prop_assert!(
                resumed == reference,
                "{backend:?}: jobs={jobs} generation={generation} budget={budget} \
                 stop_after={stop_after} — interrupt+resume diverged from the \
                 uninterrupted jobs=1 reference"
            );
        });
    }
}

#[test]
fn planted_faults_fire_only_on_the_faulty_backend() {
    let trace = boot_trace(200);
    // One cell per planted defect: (CPUID, GPR) reaches the reserved-leaf
    // BUG, (CR ACCESS, VMCS) the qualification pointer, (I/O, VMCS) the
    // DMA window.
    let plan = vec![
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::Cpuid),
                ExitReason::Cpuid,
                SeedArea::Gpr,
                7,
            )
        },
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::CrAccess),
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                7,
            )
        },
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::IoInstruction),
                ExitReason::IoInstruction,
                SeedArea::Vmcs,
                7,
            )
        },
    ];

    let faulty = ParallelCampaign::with_factory(2, Backend::Faulty).run_trace(&trace, &plan);
    let detections = iris_fuzzer::target::detect_planted_faults(&faulty.corpus);
    for (fault, hit) in &detections {
        assert!(
            hit.is_some(),
            "faulty backend: campaign missed the planted fault {:?}",
            fault.name
        );
    }

    let stock = ParallelCampaign::with_factory(2, IrisHvTarget::default()).run_trace(&trace, &plan);
    assert!(
        stock
            .corpus
            .crashes
            .iter()
            .all(|c| !c.console.contains("planted")),
        "stock backend must not exhibit planted-fault banners"
    );
}
