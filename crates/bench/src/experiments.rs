//! Experiment runners regenerating the paper's tables and figures.
//!
//! Every runner is deterministic in its `(exits, seed)` inputs and
//! returns structured data; the rows of [`crate::paper::PAPER`] render
//! and check it.

use iris_core::metrics::{self, DiffByReason, Efficiency};
use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_core::replay::{replay_fresh, ReplayEngine};
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::campaign::DEFAULT_RAM_BYTES;
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::{available_jobs, CampaignReport, ParallelCampaign};
use iris_fuzzer::strategies::{mutate_with, Strategy};
use iris_fuzzer::table1::{Table1, TABLE1_WORKLOADS};
use iris_guest::runner::{fast_forward_boot, GuestRunner};
use iris_guest::workloads::{os_boot, Workload};
use iris_hv::coverage::CoverageMap;
use iris_hv::hooks::NoHooks;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::cr::OperatingMode;
use iris_vtx::exit::ExitReason;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Record `exits` of a workload on a fresh 64 MiB test VM — the size
/// every table and figure of the evaluation is regenerated at.
#[must_use]
pub fn record_workload(workload: Workload, exits: usize, seed: u64) -> (Hypervisor, RecordedTrace) {
    Recorder::new().record_fresh(workload, exits, seed, RECORD_RAM_BYTES)
}

// ---------------------------------------------------------------------
// Fig. 4 — VM-exit reasons over time during OS BOOT.
// ---------------------------------------------------------------------

/// One Fig. 4 sample: for each reason, the exit indices where it occurs
/// (bucketed).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4 {
    /// Total exits (BIOS + kernel).
    pub total_exits: usize,
    /// Exits in the BIOS prefix.
    pub bios_exits: usize,
    /// reason label → per-bucket counts.
    pub buckets: BTreeMap<String, Vec<usize>>,
    /// Bucket width in exits.
    pub bucket_width: usize,
}

/// Run the Fig. 4 timeline: a full boot of `bios + kernel` exits.
/// (The paper's full boot is ≈10K BIOS + ≈510K kernel ≈ 520K exits;
/// scale down with the arguments for quick runs.)
#[must_use]
pub fn fig4_timeline(bios: usize, kernel: usize, bucket_width: usize, seed: u64) -> Fig4 {
    let ops = os_boot::generate_full(bios, kernel, seed);
    let total = ops.len();
    let n_buckets = total.div_ceil(bucket_width);
    let mut buckets: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let reason = ExitReason::from_number(op.event.reason_number)
            .map_or("OTHER", ExitReason::figure_label);
        buckets
            .entry(reason.to_owned())
            .or_insert_with(|| vec![0; n_buckets])[i / bucket_width] += 1;
    }
    Fig4 {
        total_exits: total,
        bios_exits: bios,
        buckets,
        bucket_width,
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — exit-reason distribution per workload.
// ---------------------------------------------------------------------

/// Fig. 5: per workload, the probability of each exit reason.
#[must_use]
pub fn fig5_distribution(exits: usize, seed: u64) -> BTreeMap<Workload, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for w in Workload::ALL {
        let ops = w.generate(exits, seed);
        let mut hist: BTreeMap<String, f64> = BTreeMap::new();
        for op in &ops {
            let label = ExitReason::from_number(op.event.reason_number)
                .map_or("OTHER", ExitReason::figure_label);
            *hist.entry(label.to_owned()).or_insert(0.0) += 1.0;
        }
        for v in hist.values_mut() {
            *v /= exits as f64;
        }
        out.insert(w, hist);
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 6 — cumulative coverage, record vs replay.
// ---------------------------------------------------------------------

/// Fig. 6 data for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// Workload label.
    pub workload: String,
    /// Cumulative recorded coverage per exit.
    pub recording: Vec<u64>,
    /// Cumulative replayed coverage per exit.
    pub replaying: Vec<u64>,
    /// End-of-trace fitting percentage.
    pub fitting_percent: f64,
}

/// Run Fig. 6 for one workload.
#[must_use]
pub fn fig6_coverage(workload: Workload, exits: usize, seed: u64) -> Fig6 {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, _) = replay_with_boot_prefix(workload, &recorded, exits, seed);
    let fit = metrics::coverage_fitting(&recorded, &replayed);
    Fig6 {
        workload: workload.label().to_owned(),
        recording: recorded.cumulative_coverage(),
        replaying: replayed.cumulative_coverage(),
        fitting_percent: fit.fitting_percent,
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — coverage differences by exit reason.
// ---------------------------------------------------------------------

/// Run Fig. 7 for one workload: the per-reason diff ranges and the
/// frequency of >30-LOC divergences.
#[must_use]
pub fn fig7_diffs(workload: Workload, exits: usize, seed: u64) -> DiffByReason {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, _) = replay_with_boot_prefix(workload, &recorded, exits, seed);
    metrics::diff_by_reason(&recorded, &replayed)
}

/// Replay `recorded` on a cold 64 MiB dummy VM — after replaying the
/// boot first, for a post-boot workload (the paper starts both sides
/// from the same state; see §VI-B). Returns the replay trace and the
/// replay time of `recorded` alone in ms.
fn replay_with_boot_prefix(
    workload: Workload,
    recorded: &RecordedTrace,
    exits: usize,
    seed: u64,
) -> (RecordedTrace, f64) {
    if workload == Workload::OsBoot {
        let (_, _, replayed, cycles) = replay_fresh(recorded, RECORD_RAM_BYTES, false);
        (replayed, cycles as f64 / 3.6e6)
    } else {
        let (_, boot) = record_workload(Workload::OsBoot, exits.min(1500), seed);
        let (mut hv, mut engine, _, _) = replay_fresh(&boot, RECORD_RAM_BYTES, false);
        let t0 = hv.tsc.now();
        let rp = engine.replay_trace(&mut hv, recorded);
        (rp, (hv.tsc.now() - t0) as f64 / 3.6e6)
    }
}

// ---------------------------------------------------------------------
// Fig. 8 — the CR0 operating-mode ladder.
// ---------------------------------------------------------------------

/// Fig. 8 data: the mode per exit for recording and replay, plus the
/// guest-state VMWRITE fitting percentage (the paper reports 100%).
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// Mode index (0-based) per exit, recorded execution.
    pub recorded_modes: Vec<u8>,
    /// Mode index per exit, replayed execution.
    pub replayed_modes: Vec<u8>,
    /// Guest-state VMWRITE fitting (%).
    pub vmwrite_fitting_percent: f64,
    /// Distinct modes visited, in first-visit order.
    pub modes_visited: Vec<String>,
}

/// Run Fig. 8 over an OS_BOOT trace.
#[must_use]
pub fn fig8_modes(exits: usize, seed: u64) -> Fig8 {
    let (_, recorded) = record_workload(Workload::OsBoot, exits, seed);
    let (_, _, replayed, _) = replay_fresh(&recorded, RECORD_RAM_BYTES, false);
    let rec_modes = metrics::mode_ladder(&recorded);
    let rep_modes = metrics::mode_ladder(&replayed);
    let mut visited: Vec<OperatingMode> = Vec::new();
    for m in &rec_modes {
        if !visited.contains(m) {
            visited.push(*m);
        }
    }
    Fig8 {
        recorded_modes: rec_modes.iter().map(|m| m.index()).collect(),
        replayed_modes: rep_modes.iter().map(|m| m.index()).collect(),
        vmwrite_fitting_percent: metrics::vmwrite_fitting(&recorded, &replayed),
        modes_visited: visited
            .iter()
            .map(|m| m.figure_label().to_owned())
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 9 — replay efficiency.
// ---------------------------------------------------------------------

/// Fig. 9 data for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Workload label.
    pub workload: String,
    /// Cumulative real-VM time per exit (ms), including guest-local time.
    pub real_vm_ms: Vec<f64>,
    /// Cumulative IRIS replay time per exit (ms).
    pub iris_vm_ms: Vec<f64>,
    /// Summary numbers.
    pub efficiency: Efficiency,
    /// The ideal replay throughput of §VI-C (empty preemption-timer
    /// exits), exits/s.
    pub ideal_exits_per_sec: f64,
}

/// Run Fig. 9 for one workload.
#[must_use]
pub fn fig9_efficiency(workload: Workload, exits: usize, seed: u64) -> Fig9 {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, replay_ms) = replay_with_boot_prefix(workload, &recorded, exits, seed);
    // Cumulative wall time: start-to-start deltas include the guest-local
    // burn.
    let cumulative_ms = |trace: &RecordedTrace| {
        let base = trace.metrics.first().map_or(0, |m| m.start_tsc);
        trace
            .metrics
            .iter()
            .map(|m| (m.start_tsc + m.handling_cycles - base) as f64 / 3.6e6)
            .collect()
    };
    Fig9 {
        workload: workload.label().to_owned(),
        real_vm_ms: cumulative_ms(&recorded),
        iris_vm_ms: cumulative_ms(&replayed),
        efficiency: metrics::efficiency(&recorded, replay_ms),
        ideal_exits_per_sec: ideal_replay_throughput(exits.min(2000)),
    }
}

/// Measure the ideal replay ceiling: raw preemption-timer exits with no
/// seed submission (§VI-C's 50K exits/s).
#[must_use]
pub fn ideal_replay_throughput(exits: usize) -> f64 {
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(DEFAULT_RAM_BYTES);
    let _engine = ReplayEngine::new(&mut hv, dummy);
    let t0 = hv.tsc.now();
    for _ in 0..exits {
        let ev = iris_hv::hypervisor::ExitEvent::new(ExitReason::PreemptionTimer);
        let _ = hv.vm_exit(dummy, &ev, &mut NoHooks);
    }
    let secs = (hv.tsc.now() - t0) as f64 / 3.6e9;
    exits as f64 / secs
}

// ---------------------------------------------------------------------
// Fig. 10 — recording overhead per exit reason.
// ---------------------------------------------------------------------

/// Per-reason handling-time statistics, with and without recording.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// reason label → (median µs without recording, median µs with).
    pub medians_us: BTreeMap<String, (f64, f64)>,
    /// Overall overhead percentage.
    pub overhead_percent: f64,
}

/// Run Fig. 10 over one workload (`runs` repetitions, median taken).
#[must_use]
pub fn fig10_overhead(workload: Workload, exits: usize, runs: usize, seed: u64) -> Fig10 {
    let mut plain: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut recorded: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut total_plain = 0u64;
    let mut total_rec = 0u64;

    for r in 0..runs {
        let ops = workload.generate(exits, seed + r as u64);

        // Without recording.
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(RECORD_RAM_BYTES);
        if workload != Workload::OsBoot {
            fast_forward_boot(&mut hv, dom);
        }
        let mut runner = GuestRunner::new(dom);
        for op in &ops {
            let o = runner.step(&mut hv, op, &mut NoHooks);
            if let Some(reason) = o.handled_reason {
                plain
                    .entry(reason.figure_label().to_owned())
                    .or_default()
                    .push(o.cycles);
                total_plain += o.cycles;
            }
        }

        // With recording.
        let (_, trace) = record_workload(workload, exits, seed + r as u64);
        for m in &trace.metrics {
            recorded
                .entry(m.reason.figure_label().to_owned())
                .or_default()
                .push(m.handling_cycles);
            total_rec += m.handling_cycles;
        }
    }

    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v.get(v.len() / 2).map_or(0.0, |&c| c as f64 / 3600.0) // cycles → µs
    };
    let mut medians_us = BTreeMap::new();
    for (label, mut p) in plain {
        let m_plain = median(&mut p);
        let m_rec = recorded.get_mut(&label).map_or(0.0, median);
        medians_us.insert(label, (m_plain, m_rec));
    }
    Fig10 {
        medians_us,
        overhead_percent: (total_rec as f64 / total_plain as f64 - 1.0) * 100.0,
    }
}

// ---------------------------------------------------------------------
// Table I + §VI-B + §VI-D.
// ---------------------------------------------------------------------

/// Run Table I on the stock backend: the sharded executor with one
/// worker per available CPU, stealing default-sized mutant ranges. The
/// cells (and the crash corpus) are the same for any worker count; only
/// the wall clock changes.
#[must_use]
pub fn table1(exits: usize, mutants: usize, seed: u64) -> (Table1, CampaignReport) {
    let traces = TABLE1_WORKLOADS
        .iter()
        .map(|&w| (w, record_workload(w, exits, seed).1))
        .collect();
    let campaign = ParallelCampaign::new(available_jobs());
    Table1::run_parallel(&campaign, &traces, mutants, seed)
}

/// §VI-B boot-state experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct BootStateExperiment {
    /// Cold replay: seeds completed before the crash, and the log line.
    pub cold_completed: usize,
    /// The `bad RIP for mode 0` console message.
    pub cold_crash_message: String,
    /// Seeds completed when the boot trace was replayed first.
    pub warm_completed: usize,
    /// Total seeds attempted.
    pub total: usize,
}

/// Run the §VI-B experiment for one post-boot workload.
#[must_use]
pub fn boot_state_experiment(workload: Workload, exits: usize, seed: u64) -> BootStateExperiment {
    let (_, trace) = record_workload(workload, exits, seed);
    let (_, boot) = record_workload(Workload::OsBoot, 1000, seed);

    // Cold: fresh dummy VM, no boot replay.
    let (hv, _, cold, _) = replay_fresh(&trace, DEFAULT_RAM_BYTES, false);
    let msg = hv
        .log
        .grep("bad RIP")
        .last()
        .map(|l| l.message.clone())
        .unwrap_or_default();

    // Warm: boot replay first.
    let (mut hv, mut engine, _, _) = replay_fresh(&boot, DEFAULT_RAM_BYTES, false);
    let warm = engine.replay_trace(&mut hv, &trace);

    BootStateExperiment {
        cold_completed: cold.metrics.iter().filter(|m| !m.crashed).count(),
        cold_crash_message: msg,
        warm_completed: warm.metrics.iter().filter(|m| !m.crashed).count(),
        total: trace.seeds.len(),
    }
}

/// §VI-D seed-memory statistics.
#[derive(Debug, Clone, Serialize)]
pub struct SeedMemory {
    /// Worst-case VMCS ops observed in any seed.
    pub max_vmcs_ops: usize,
    /// Mean VMCS ops.
    pub mean_vmcs_ops: f64,
    /// Worst-case seed payload bytes observed.
    pub max_seed_bytes: usize,
    /// The pre-allocation size the paper derives (470 B).
    pub prealloc_bytes: usize,
}

/// Run the §VI-D seed-size measurement across all workloads.
#[must_use]
pub fn seed_memory(exits: usize, seed: u64) -> SeedMemory {
    let seeds: Vec<VmSeed> = Workload::ALL
        .into_iter()
        .flat_map(|w| record_workload(w, exits, seed).1.seeds)
        .collect();
    let ops = seeds.iter().map(|s| s.reads.len());
    SeedMemory {
        max_vmcs_ops: ops.clone().max().unwrap_or(0),
        mean_vmcs_ops: ops.sum::<usize>() as f64 / seeds.len() as f64,
        max_seed_bytes: seeds.iter().map(VmSeed::payload_bytes).max().unwrap_or(0),
        prealloc_bytes: iris_core::seed::WORST_CASE_SEED_BYTES,
    }
}

// ---------------------------------------------------------------------
// §IX ablations — memory-augmented seeds, mutation strategies.
// ---------------------------------------------------------------------

/// One workload of the §IX memory ablation: each pair is (plain seeds,
/// seeds carrying the guest memory they touched).
#[derive(Debug, Clone, Serialize)]
pub struct MemoryAblation {
    /// Workload label.
    pub workload: String,
    /// Coverage fitting (%).
    pub fitting_percent: (f64, f64),
    /// Share of seeds diverging by more than 30 LOC (%).
    pub large_diff_percent: (f64, f64),
}

/// Run the §IX memory ablation for one workload: record with and
/// without EPT-style dirty logging and replay each trace on a fresh
/// dummy VM, which receives the recorded memory before each seed.
#[must_use]
pub fn memory_ablation(workload: Workload, exits: usize, seed: u64) -> MemoryAblation {
    let run = |record_memory| {
        let (_, trace) =
            Recorder { record_memory }.record_fresh(workload, exits, seed, RECORD_RAM_BYTES);
        let (_, _, replayed, _) =
            replay_fresh(&trace, RECORD_RAM_BYTES, workload != Workload::OsBoot);
        (
            metrics::coverage_fitting(&trace, &replayed).fitting_percent,
            metrics::diff_by_reason(&trace, &replayed).large_diff_percent,
        )
    };
    let (plain, mem) = (run(false), run(true));
    MemoryAblation {
        workload: workload.label().to_owned(),
        fitting_percent: (plain.0, mem.0),
        large_diff_percent: (plain.1, mem.1),
    }
}

/// One strategy's yield in the §IX strategy ablation.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyYield {
    /// Strategy label.
    pub strategy: String,
    /// Lines covered by some mutant but not by the unmutated seed.
    pub new_lines: u64,
    /// Mutants that crashed the VM.
    pub vm_crashes: u64,
    /// Mutants that crashed the hypervisor.
    pub hv_crashes: u64,
}

/// Run the §IX strategy ablation: `mutants` VMCS mutants per strategy
/// of the first CR ACCESS seed of an `exits`-exit OS BOOT trace, each
/// submitted where the recording submitted the seed (the dummy VM is
/// re-positioned after every crash).
#[must_use]
pub fn strategy_ablation(exits: usize, mutants: usize, seed: u64) -> Vec<StrategyYield> {
    let (_, trace) = record_workload(Workload::OsBoot, exits, seed);
    let idx = trace
        .seeds
        .iter()
        .position(|s| s.reason == ExitReason::CrAccess)
        .expect("an OS BOOT trace has a CR ACCESS seed");
    let target = &trace.seeds[idx];
    let donor = &trace.seeds[(idx + 7) % trace.seeds.len()];
    let positioned = || {
        let mut hv = Hypervisor::new();
        let dummy = hv.create_hvm_domain(DEFAULT_RAM_BYTES);
        let mut engine = ReplayEngine::new(&mut hv, dummy);
        for s in &trace.seeds[..idx] {
            let _ = engine.submit(&mut hv, s);
        }
        (hv, engine)
    };
    let run = |strategy: Strategy| {
        let (mut hv, mut engine) = positioned();
        let baseline = engine.submit(&mut hv, target).metrics.coverage;
        let mut discovered = CoverageMap::new();
        let (mut vm_crashes, mut hv_crashes) = (0, 0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..mutants {
            let m = mutate_with(target, SeedArea::Vmcs, strategy, Some(donor), &mut rng);
            let out = engine.submit(&mut hv, &m);
            for (b, _) in out.metrics.coverage.iter() {
                if !baseline.contains(b) {
                    discovered.hit(b);
                }
            }
            match &out.exit.crash {
                Some(c) if c.is_hypervisor() => hv_crashes += 1,
                Some(_) => vm_crashes += 1,
                None => continue,
            }
            (hv, engine) = positioned();
        }
        StrategyYield {
            strategy: strategy.label().to_owned(),
            new_lines: discovered.lines(),
            vm_crashes,
            hv_crashes,
        }
    };
    Strategy::ALL.into_iter().map(run).collect()
}

#[cfg(test)]
mod tests {
    // Each runner holds its row's claims at the row's size and seed.
    crate::paper_tests! {
        fig4_buckets_cover_all_exits: "fig4";
        fig5_probabilities_sum_to_one: "fig5";
        fig6_curves_are_monotone_and_fit: "fig6";
        fig8_visits_the_ladder_and_fits_writes: "fig8";
        fig9_idle_speedup_is_large: "fig9";
        boot_state_experiment_matches_paper: "boot_state";
        seed_memory_within_prealloc: "seed_memory";
    }
}
