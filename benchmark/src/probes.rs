//! Per-layer unit costs, measured from outside by timing calls into
//! each layer's public functions.
//!
//! Every probe builds its state untimed, times one call (or one pass
//! over the recorded exit mix, divided by its length) and reports the
//! median of `REPS` repetitions in nanoseconds by the harness clock.
//! Inputs derive from the run's seed like everything else.

use iris_core::forest::{ForestConfig, SnapshotForest, StateId};
use iris_core::metrics::coverage_fitting;
use iris_core::record::Recorder as TraceRecorder;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_core::snapshot::Snapshot;
use iris_core::trace::RecordedTrace;
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::proto::{read_frame, write_frame, Frame, LeaseRange};
use iris_dist::verify::{execute_range, ExecDetail};
use iris_fuzzer::campaign::{assemble_test_case, run_mutant_range_with, ChunkOutput};
use iris_fuzzer::guided::initial_corpus;
use iris_fuzzer::mutation::{mutant_rng, mutate};
use iris_fuzzer::parallel::{CampaignReport, ParallelCampaign};
use iris_fuzzer::strategies::scheduled_mutant;
use iris_fuzzer::target::{record_trace, Backend, IrisHvTarget};
use iris_fuzzer::{Corpus, SeedArea, TestCase};
use iris_guest::runner::{fast_forward_boot, GuestRunner};
use iris_guest::workloads::Workload as GuestWorkload;
use iris_hv::hooks::NoHooks;
use iris_hv::hypervisor::Hypervisor;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::{fleet_plan, fleet_spec, FLEET_MUTANTS, FUZZ_EXITS, SMALL_CHUNK};

/// Repetitions per probe; the median is reported.
const REPS: usize = 15;
/// Repetitions for probes that cost milliseconds apiece.
const SLOW_REPS: usize = 5;
const RAM: u64 = iris_fuzzer::campaign::DEFAULT_RAM_BYTES;

/// Median over `reps` of the nanoseconds `timed` takes on a state
/// `setup` builds untimed.
fn p50_ns<S, R>(reps: usize, mut setup: impl FnMut() -> S, mut timed: impl FnMut(S) -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            let out = timed(state);
            let ns = start.elapsed().as_nanos() as f64;
            drop(black_box(out));
            ns
        })
        .collect();
    crate::stats::median(&samples)
}

fn fresh_stack() -> (Hypervisor, u16) {
    let mut hv = Hypervisor::new();
    let dom = hv.create_hvm_domain(RAM);
    (hv, dom)
}

/// A stack replayed `seeds` deep into `trace`, plus its engine.
fn replayed_stack(trace: &RecordedTrace, seeds: usize) -> (Hypervisor, u16, ReplayEngine) {
    let (mut hv, dom) = fresh_stack();
    let mut engine = ReplayEngine::new(&mut hv, dom);
    for seed in &trace.seeds[..seeds] {
        let _ = engine.submit(&mut hv, seed);
    }
    (hv, dom, engine)
}

fn campaign_cell(trace: &RecordedTrace, seed: u64) -> TestCase {
    let idx = trace.seeds.len() / 2;
    TestCase {
        mutants: FLEET_MUTANTS,
        ..TestCase::new(
            GuestWorkload::OsBoot,
            idx,
            trace.seeds[idx].reason,
            SeedArea::Vmcs,
            seed ^ idx as u64,
        )
    }
}

/// Run every workload-independent probe. Keys are per-layer metric
/// names.
pub fn run(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ops = GuestWorkload::OsBoot.generate(FUZZ_EXITS, seed);
    let trace = record_trace(GuestWorkload::OsBoot, FUZZ_EXITS, seed);
    let n = trace.seeds.len() as f64;

    // hv
    m.insert(
        "hv.vm_exit.ns",
        p50_ns(REPS, fresh_stack, |(mut hv, dom)| {
            let mut runner = GuestRunner::new(dom);
            for op in &ops {
                black_box(runner.step(&mut hv, op, &mut NoHooks));
            }
        }) / ops.len() as f64,
    );
    m.insert("hv.new_domain.ns", p50_ns(REPS, || (), |()| fresh_stack()));

    // guest
    m.insert(
        "guest.fast_forward_boot.ns",
        p50_ns(REPS, fresh_stack, |(mut hv, dom)| {
            fast_forward_boot(&mut hv, dom);
            hv
        }),
    );

    // core::record
    m.insert(
        "core.record.ns_per_exit",
        p50_ns(
            REPS,
            || (fresh_stack(), ops.clone()),
            |((mut hv, dom), ops)| TraceRecorder::new().record_workload(&mut hv, dom, "probe", ops),
        ) / ops.len() as f64,
    );

    // core::replay
    m.insert(
        "core.replay.submit.ns",
        p50_ns(
            REPS,
            || replayed_stack(&trace, 0),
            |(mut hv, _, mut engine)| {
                for seed in &trace.seeds {
                    black_box(engine.submit(&mut hv, seed));
                }
            },
        ) / n,
    );
    {
        let (mut hv, _, mut engine) = replayed_stack(&trace, 0);
        let replayed = engine.replay_trace(&mut hv, &trace);
        m.insert(
            "core.replay.fit_pct",
            coverage_fitting(&trace, &replayed).fitting_percent,
        );
    }

    // core::snapshot
    let half = trace.seeds.len() / 2;
    m.insert(
        "core.snapshot.take.ns",
        p50_ns(
            REPS,
            || replayed_stack(&trace, half),
            |(hv, dom, _)| Snapshot::take(&hv, dom),
        ),
    );
    m.insert(
        "core.snapshot.restore_clean.ns",
        p50_ns(
            REPS,
            || {
                let (hv, dom, _) = replayed_stack(&trace, half);
                let snap = Snapshot::take(&hv, dom);
                (hv, dom, snap)
            },
            |(mut hv, dom, snap)| {
                snap.restore_into(&mut hv, dom);
                hv
            },
        ),
    );
    m.insert(
        "core.snapshot.restore_dirty.ns",
        p50_ns(
            REPS,
            || {
                let (mut hv, dom, mut engine) = replayed_stack(&trace, half);
                let snap = Snapshot::take(&hv, dom);
                for seed in &trace.seeds[half..] {
                    let _ = engine.submit(&mut hv, seed);
                }
                (hv, dom, snap)
            },
            |(mut hv, dom, snap)| {
                snap.restore_into(&mut hv, dom);
                hv
            },
        ),
    );

    // core::forest: pin the state half way, diverge, come back.
    let forest_stack = || {
        let (mut hv, dom, mut engine) = replayed_stack(&trace, half);
        let forest = SnapshotForest::new(&hv, dom, ForestConfig::default())
            .expect("the probe's domain exists");
        hv.domains[dom as usize]
            .memory
            .set_page_dirty_tracking(true);
        for seed in &trace.seeds[half..] {
            let _ = engine.submit(&mut hv, seed);
        }
        (hv, dom, forest)
    };
    m.insert(
        "core.forest.take_delta.ns",
        p50_ns(REPS, forest_stack, |(mut hv, dom, mut forest)| {
            black_box(forest.take_delta(&mut hv, dom));
            (hv, forest)
        }),
    );
    m.insert(
        "core.forest.restore_to.ns",
        p50_ns(REPS, forest_stack, |(mut hv, dom, mut forest)| {
            assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
            (hv, forest)
        }),
    );

    // core::seed
    let encoded: Vec<_> = trace.seeds.iter().map(VmSeed::encode).collect();
    m.insert(
        "core.seed.encode.ns",
        p50_ns(
            REPS,
            || (),
            |()| {
                for seed in &trace.seeds {
                    black_box(seed.encode());
                }
            },
        ) / n,
    );
    m.insert(
        "core.seed.decode.ns",
        p50_ns(
            REPS,
            || (),
            |()| {
                for bytes in &encoded {
                    black_box(VmSeed::decode(bytes).expect("an encoded seed decodes"));
                }
            },
        ) / n,
    );

    // fuzzer::mutation / fuzzer::strategies
    let base = &trace.seeds[half];
    m.insert(
        "fuzzer.mutation.mutate.ns",
        p50_ns(
            REPS,
            || (),
            |()| {
                for i in 0..1000u64 {
                    let area = SeedArea::ALL[(i % 2) as usize];
                    black_box(mutate(base, area, &mut mutant_rng(seed, i)));
                }
            },
        ) / 1000.0,
    );
    let corpus = initial_corpus(&trace);
    m.insert(
        "fuzzer.strategies.scheduled_mutant.ns",
        p50_ns(
            REPS,
            || (),
            |()| {
                for slot in 0..1000u64 {
                    black_box(scheduled_mutant(&corpus, seed, slot));
                }
            },
        ) / 1000.0,
    );

    // fuzzer::campaign — assemble + fold one cell's real chunk outputs.
    let cell = campaign_cell(&trace, seed);
    let factory = IrisHvTarget::default();
    let chunks: Vec<ChunkOutput> = cell
        .chunks(SMALL_CHUNK)
        .map(|r| run_mutant_range_with(&factory, &trace, &cell, r))
        .collect();
    m.insert(
        "fuzzer.campaign.assemble.ns",
        p50_ns(
            REPS,
            || chunks.clone(),
            |chunks| {
                let mut report = CampaignReport::new();
                let mut corpus = Corpus::new();
                let (result, coverage) = assemble_test_case(&cell, chunks, &mut corpus);
                report.fold_assembled(result, &coverage);
                report
            },
        ),
    );

    // dist — codec on one real 16-mutant result frame, job
    // re-derivation, and the lease execution core.
    let spec = fleet_spec(seed);
    let lease = LeaseRange {
        start: 0,
        len: SMALL_CHUNK as u64,
    };
    let result_frame = Frame::ChunkDone {
        job_id: 1,
        range_start: 0,
        output: execute_range(
            &Backend::Iris,
            &trace,
            &ExecDetail::Campaign(&cell),
            lease,
            cell.rng_seed,
        ),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &result_frame).expect("a result frame encodes");
    m.insert("dist.proto.result_frame_bytes", wire.len() as f64);
    m.insert(
        "dist.proto.write_frame.ns",
        p50_ns(
            REPS,
            || Vec::with_capacity(wire.len()),
            |mut buf| {
                write_frame(&mut buf, &result_frame).expect("a result frame encodes");
                buf
            },
        ),
    );
    m.insert(
        "dist.proto.read_frame.ns",
        p50_ns(
            REPS,
            || (),
            |()| read_frame(&mut wire.as_slice()).expect("an encoded frame decodes"),
        ),
    );
    m.insert(
        "dist.job.record_trace.ns",
        p50_ns(
            SLOW_REPS,
            || (),
            |()| spec.record_trace().expect("the probe spec names OS BOOT"),
        ),
    );
    let spec_trace = spec.record_trace().expect("the probe spec names OS BOOT");
    m.insert(
        "dist.job.plan.ns",
        p50_ns(
            SLOW_REPS,
            || (),
            |()| {
                spec.plan(&spec_trace)
                    .expect("the probe spec is a campaign")
            },
        ),
    );
    m.insert(
        "dist.verify.execute_range.ns",
        p50_ns(
            SLOW_REPS,
            || (),
            |()| {
                execute_range(
                    &Backend::Iris,
                    &trace,
                    &ExecDetail::Campaign(&cell),
                    lease,
                    cell.rng_seed,
                )
            },
        ),
    );

    // cli — the `iris campaign` command against the library calls it
    // wraps (same trace recipe, plan, executor and chunk size). What the
    // command adds (flag parsing, signal hook, report rendering) does
    // not grow with the campaign, so a small one shows it best.
    let small = JobSpec {
        exits: 120,
        kind: JobKind::Campaign {
            mutants: 4,
            chunk: SMALL_CHUNK,
        },
        ..spec.clone()
    };
    let args: Vec<String> = format!(
        "campaign os_boot --exits {} --mutants 4 --chunk {SMALL_CHUNK} --jobs 1 --seed {seed}",
        small.exits
    )
    .split(' ')
    .map(str::to_owned)
    .collect();
    let via_cli = p50_ns(
        REPS,
        || (),
        |()| iris_cli::run(&args).expect("the probe's campaign command is well-formed"),
    );
    let direct = p50_ns(
        REPS,
        || (),
        |()| {
            let (trace, plan) = fleet_plan(&small);
            ParallelCampaign::with_factory(1, Backend::Iris)
                .with_chunk(SMALL_CHUNK)
                .run_trace(&trace, &plan)
        },
    );
    m.insert("cli.campaign.overhead_ns", via_cli - direct);

    m
}
