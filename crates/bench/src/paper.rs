//! The paper's evaluation as one table: a [`Row`] per figure, table or
//! experiment, each run at the one size it publishes, with the paper's
//! number beside the checks that hold the reproduction to it.
//! `iris-experiments <id>|all` prints the rows and writes their JSON;
//! `tests/paper_claims.rs` runs every row and fails on any broken check.
//! To change a row's size, edit the constant in its function.

use crate::experiments::{
    boot_state_experiment, fig10_overhead, fig4_timeline, fig5_distribution, fig6_coverage,
    fig7_diffs, fig8_modes, fig9_efficiency, memory_ablation, seed_memory, strategy_ablation,
    table1,
};
use iris_fuzzer::failure::FailureKind;
use iris_fuzzer::parallel::available_jobs;
use iris_fuzzer::table1::TestCaseCell;
use iris_fuzzer::testcase::DEFAULT_CHUNK;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;
use serde::{Serialize, Value};
use std::fmt::{self, Debug, Display, Formatter};
use std::sync::OnceLock;

/// Seed of every row's recordings.
const SEED: u64 = 42;

/// The workloads of Figs. 6, 7, 9 and 10.
const FIGURE_WORKLOADS: [Workload; 3] = [Workload::OsBoot, Workload::CpuBound, Workload::Idle];

/// One experiment of the evaluation.
pub struct Row {
    /// The `iris-experiments` argument and the `results/<id>.json` stem.
    pub id: &'static str,
    /// Where the paper reports it.
    pub section: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// Run the experiment at the row's size.
    pub run: fn() -> Outcome,
}

/// What one run of a [`Row`] produced.
pub struct Outcome {
    /// The figure or table as printed.
    pub text: String,
    /// The result, as written to `results/<id>.json`.
    pub json: Value,
    /// `Err` names every claim of the row the result breaks.
    pub check: Result<(), String>,
}

impl Outcome {
    /// Render `result`, and judge it by `claims` ([`claim`]).
    fn new(text: String, result: &impl Serialize, claims: Vec<(bool, String)>) -> Self {
        let broken: Vec<String> = claims
            .into_iter()
            .filter_map(|(holds, claim)| (!holds).then_some(claim))
            .collect();
        let check = broken.is_empty().then_some(()).ok_or(broken.join("; "));
        let json = result.to_value();
        Outcome { text, json, check }
    }
}

/// `id (section; paper: …)`, as a verdict line names the row.
impl Display for Row {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}; paper: {})", self.id, self.section, self.paper)
    }
}

/// A claim on a row's result: whether it holds, what it is about, and
/// the measured value a failure quotes (the paper's is in the row).
fn claim(holds: bool, what: &str, measured: impl Debug) -> (bool, String) {
    (holds, format!("{what}: {measured:?}"))
}

/// The evaluation, in the order `iris-experiments all` runs it.
#[rustfmt::skip]
pub const PAPER: &[Row] = &[
    Row { id: "fig4", section: "§VI-A, Fig. 4", run: fig4,
          paper: "OS BOOT ≈ 10K BIOS + ≈ 510K kernel exits; the BIOS prefix is I/O-heavy" },
    Row { id: "fig5", section: "§VI-A, Fig. 5", run: fig5,
          paper: "almost 80 % of post-boot exits are RDTSC; OS BOOT is I/O and CR dominated" },
    Row { id: "fig6", section: "§VI-B, Fig. 6", run: fig6,
          paper: "fitting 99.9 % / 92.1 % / 98.9 %" },
    Row { id: "fig7", section: "§VI-B, Fig. 7", run: fig7,
          paper: ">30-LOC divergences in 0.36 % / 0.18 % / 1.16 % of seeds" },
    Row { id: "fig8", section: "§VI-B, Fig. 8", run: fig8,
          paper: "the CR0 mode ladder replayed; guest-state VMWRITE fitting 100 %" },
    Row { id: "fig9", section: "§VI-C, Fig. 9", run: fig9,
          paper: "time −42.5 % / −85.4 % / −99.6 % (294×); ~20K exits/s, ideal ~50K" },
    Row { id: "fig10", section: "§VI-D, Fig. 10", run: fig10,
          paper: "recording overhead 1.02–1.25 %" },
    Row { id: "table1", section: "§VII, Table I", run: table1_row,
          paper: "new coverage per test case; VMCS mutants crash ~1 % VM, ~15 % hypervisor" },
    Row { id: "boot_state", section: "§VI-B", run: boot_state,
          paper: "cold VM: `bad RIP for mode 0` at once; after OS BOOT replay both complete" },
    Row { id: "seed_memory", section: "§VI-D", run: seed_memory_row,
          paper: "≤ 32 VMCS ops per seed, 470 B pre-allocation" },
    Row { id: "ablation_memory", section: "§IX", run: ablation_memory,
          paper: "future work: recording guest memory removes the replay divergence" },
    Row { id: "ablation_strategies", section: "§IX", run: ablation_strategies,
          paper: "future work: other mutation strategies" },
];

/// The rows `iris-experiments` was asked for by its one argument, a
/// row id or `all`; a usage message naming the bad token otherwise.
pub fn select(args: &[String]) -> Result<Vec<&'static Row>, String> {
    let bad = match args {
        [all] if all == "all" => return Ok(PAPER.iter().collect()),
        [id] => match PAPER.iter().find(|row| row.id == *id) {
            Some(row) => return Ok(vec![row]),
            None => format!("unknown experiment `{id}`"),
        },
        [] => "missing experiment".to_owned(),
        [_, extra, ..] => format!("unexpected argument `{extra}`"),
    };
    let ids: Vec<&str> = PAPER.iter().map(|row| row.id).collect();
    Err(format!(
        "{bad}\nusage: iris-experiments <id>|all\n  ids: {}",
        ids.join(" ")
    ))
}

/// Panic listing every row `id` names (a row id or `all`) whose result
/// breaks a claim, with those claims and the paper's number. A row runs
/// at most once per process, however many tests name it.
pub fn assert_holds(id: &str) {
    static CHECKS: [OnceLock<Result<(), String>>; PAPER.len()] =
        [const { OnceLock::new() }; PAPER.len()];
    let rows = select(&[id.to_owned()]).unwrap_or_else(|usage| panic!("{usage}"));
    let broken: Vec<String> = PAPER
        .iter()
        .zip(&CHECKS)
        .filter(|(row, _)| rows.iter().any(|asked| asked.id == row.id))
        .filter_map(|(row, check)| {
            let broken = check.get_or_init(|| (row.run)().check).as_ref().err()?;
            Some(format!("{row}: {broken}"))
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// One `#[test]` per `name: "id";` entry, asserting that the rows `id`
/// names hold their claims ([`assert_holds`]).
#[macro_export]
macro_rules! paper_tests {
    ($($test:ident: $id:literal;)+) => {$(
        #[test]
        fn $test() { $crate::paper::assert_holds($id) }
    )+};
}

fn fig4() -> Outcome {
    // A tenth of the paper's boot.
    const BIOS: usize = 1_000;
    const KERNEL: usize = 51_000;
    let f = fig4_timeline(BIOS, KERNEL, (BIOS + KERNEL) / 20, SEED);
    let mut out = format!(
        "Fig. 4 — VM exit reasons over time during OS BOOT\n\
         total {} exits ({} BIOS prefix), {} exits per bucket\n\n\
         {:<14} buckets (count per {} exits)\n",
        f.total_exits, f.bios_exits, f.bucket_width, "reason", f.bucket_width
    );
    for (reason, buckets) in &f.buckets {
        let cells: String = buckets.iter().map(|c| format!("{c:>5}")).collect();
        out.push_str(&format!("{reason:<14} {cells}\n"));
    }
    out.push('\n');
    let bucketed: usize = f.buckets.values().flatten().sum();
    let io = f.buckets.get("I/O INST.").map_or(0, |b| b[0]);
    let width = f.bucket_width;
    let claims = vec![
        claim(f.total_exits == BIOS + KERNEL, "exits", f.total_exits),
        claim(bucketed == f.total_exits, "exits bucketed", bucketed),
        // Bucket 0 holds the whole BIOS prefix, and is mostly I/O.
        claim(
            f.bios_exits <= width,
            "BIOS exits in bucket 0",
            f.bios_exits,
        ),
        claim(io * 2 > width, "I/O exits in bucket 0", (io, width)),
    ];
    Outcome::new(out, &f, claims)
}

fn fig5() -> Outcome {
    const EXITS: usize = 5000;
    let d = fig5_distribution(EXITS, SEED);
    let share = |w: Workload, label: &str| d[&w].get(label).copied().unwrap_or(0.0);
    let mut out = format!(
        "Fig. 5 — exit reason probability per workload ({EXITS} exits each)\n\n{:<14}",
        "reason"
    );
    for w in Workload::ALL {
        out.push_str(&format!("{:>11}", w.label()));
    }
    for r in ExitReason::FIGURE_REASONS {
        out.push_str(&format!("\n{:<14}", r.figure_label()));
        for w in Workload::ALL {
            let p = share(w, r.figure_label());
            if p == 0.0 {
                out.push_str(&format!("{:>11}", "-"));
            } else {
                out.push_str(&format!("{p:>11.3}"));
            }
        }
    }
    out.push_str("\n\n");
    let mut claims = Vec::new();
    for w in Workload::ALL {
        let sum: f64 = d[&w].values().sum();
        claims.push(claim((sum - 1.0).abs() < 1e-9, "shares sum", (w, sum)));
        if w != Workload::OsBoot {
            let rdtsc = share(w, "RDTSC");
            claims.push(claim(rdtsc > 0.7, "RDTSC share", (w, rdtsc)));
        }
    }
    let io = share(Workload::OsBoot, "I/O INST.");
    let cr = share(Workload::OsBoot, "CR ACCESS");
    let hlt = share(Workload::Idle, "HLT");
    claims.push(claim(io > 0.3, "OS BOOT I/O share", io));
    claims.push(claim(cr > 0.15, "OS BOOT CR share", cr));
    claims.push(claim(hlt > 0.05, "IDLE HLT share", hlt));
    let json: Vec<_> = d.iter().map(|(w, h)| (w.label(), h)).collect();
    Outcome::new(out, &json, claims)
}

fn fig6() -> Outcome {
    const EXITS: usize = 5000;
    let mut out = format!("Fig. 6 — cumulative coverage, record vs replay ({EXITS} exits)\n\n");
    let mut claims = Vec::new();
    let all = FIGURE_WORKLOADS.map(|w| fig6_coverage(w, EXITS, SEED));
    for f in &all {
        out.push_str(&format!(
            "{:<10}  recorded {:>6} lines  replayed {:>6} lines  fitting {:>6.1}%\n",
            f.workload,
            f.recording.last().copied().unwrap_or(0),
            f.replaying.last().copied().unwrap_or(0),
            f.fitting_percent
        ));
        // The curve at 10 sample points.
        for (side, curve) in [("rec", &f.recording), ("rep", &f.replaying)] {
            let samples = curve.iter().step_by(EXITS / 10).map(|c| format!("{c:>6}"));
            out.push_str(&format!("  {side}: {}\n", samples.collect::<String>()));
            let monotone = curve.windows(2).all(|w| w[0] <= w[1]);
            claims.push(claim(monotone, "monotone curve", (&f.workload, side)));
        }
        out.push('\n');
    }
    let (boot, idle) = (all[0].fitting_percent, all[2].fitting_percent);
    claims.push(claim(boot > 90.0, "OS BOOT fitting %", boot));
    claims.push(claim(idle > 85.0, "IDLE fitting %", idle));
    Outcome::new(out, &all, claims)
}

fn fig7() -> Outcome {
    const EXITS: usize = 5000;
    let mut out = format!("Fig. 7 — coverage differences by exit reason ({EXITS} exits)\n\n");
    let mut claims = Vec::new();
    let mut all = Vec::new();
    for w in FIGURE_WORKLOADS {
        let d = fig7_diffs(w, EXITS, SEED);
        out.push_str(&format!("{}:\n", w.label()));
        for (reason, (lo, hi)) in &d.range_by_reason {
            out.push_str(&format!("  {reason:<14} diff {lo}..{hi} LOC\n"));
        }
        let large = d.large_diff_percent;
        out.push_str(&format!(
            "  >30 LOC divergences: {large:.2}% of {} seeds\n\n",
            d.compared
        ));
        claims.push(claim(large < 2.0, ">30-LOC divergences %", (w, large)));
        all.push((w.label(), d));
    }
    Outcome::new(out, &all, claims)
}

fn fig8() -> Outcome {
    const EXITS: usize = 5000;
    let f = fig8_modes(EXITS, SEED);
    // The ladder at 40 sample points, modes numbered from 1.
    let step = (f.recorded_modes.len() / 40).max(1);
    let ladder = |modes: &[u8]| -> String {
        modes
            .iter()
            .step_by(step)
            .map(|m| (m + 1).to_string())
            .collect()
    };
    let out = format!(
        "Fig. 8 — CR0 operating-mode ladder over OS BOOT ({EXITS} exits)\n\n\
         modes visited (record): {}\n\
         guest-state VMWRITE fitting: {:.1}% (paper: 100%)\n\n\
         record: {}\nreplay: {}\n\n",
        f.modes_visited.join(" -> "),
        f.vmwrite_fitting_percent,
        ladder(&f.recorded_modes),
        ladder(&f.replayed_modes)
    );
    let (modes, fit) = (&f.modes_visited, f.vmwrite_fitting_percent);
    let ladder_start = modes.len() >= 5 && modes[..2] == ["Mode1", "Mode2"];
    let claims = vec![
        claim(ladder_start, "modes visited", modes),
        claim(fit > 99.5, "VMWRITE fitting %", fit),
    ];
    Outcome::new(out, &f, claims)
}

fn fig9() -> Outcome {
    const EXITS: usize = 5000;
    let mut out = format!("Fig. 9 — seed submission time, Real VM vs IRIS VM ({EXITS} exits)\n\n");
    let all = FIGURE_WORKLOADS.map(|w| fig9_efficiency(w, EXITS, SEED));
    for f in &all {
        let e = &f.efficiency;
        out.push_str(&format!(
            "{:<10}  real {:>9.1} ms   replay {:>8.1} ms   \
             -{:>5.1}%   {:>6.1}x   {:>7.0} exits/s\n",
            f.workload,
            e.real_ms,
            e.replay_ms,
            e.decrease_percent,
            e.speedup,
            e.replay_exits_per_sec
        ));
    }
    let ideal = all[0].ideal_exits_per_sec;
    out.push_str(&format!(
        "\nideal replay throughput: {ideal:.0} exits/s (paper: ~50K)\n"
    ));
    let [boot, cpu, idle] = all.each_ref().map(|f| &f.efficiency);
    let (cut, idle_cut) = (boot.decrease_percent, idle.decrease_percent);
    let rate = cpu.replay_exits_per_sec;
    let claims = vec![
        claim(cut > 25.0, "OS BOOT time decrease %", cut),
        claim(idle_cut > 99.0, "IDLE time decrease %", idle_cut),
        claim(idle.speedup > 100.0, "IDLE speed-up", idle.speedup),
        claim((10e3..40e3).contains(&rate), "CPU-bound exits/s", rate),
        claim((35e3..75e3).contains(&ideal), "ideal exits/s", ideal),
    ];
    Outcome::new(out, &all, claims)
}

fn fig10() -> Outcome {
    const EXITS: usize = 2000;
    const RUNS: usize = 3;
    let mut out = format!(
        "Fig. 10 — per-exit time, No Recording vs IRIS Recording ({EXITS} exits x {RUNS} runs)\n\n"
    );
    let mut claims = Vec::new();
    let mut all = Vec::new();
    for w in FIGURE_WORKLOADS {
        let f = fig10_overhead(w, EXITS, RUNS, SEED);
        let overhead = f.overhead_percent;
        out.push_str(&format!(
            "{} (overall overhead {overhead:.2}%):\n",
            w.label()
        ));
        for (reason, (plain, rec)) in &f.medians_us {
            out.push_str(&format!(
                "  {reason:<14} {plain:>8.2} us -> {rec:>8.2} us\n"
            ));
        }
        out.push('\n');
        let small = (0.0..2.0).contains(&overhead);
        claims.push(claim(small, "overhead %", (w, overhead)));
        all.push((w.label(), f));
    }
    Outcome::new(out, &all, claims)
}

fn table1_row() -> Outcome {
    const EXITS: usize = 1000;
    const MUTANTS: usize = 300; // paper: 10 000
    let (table, report) = table1(EXITS, MUTANTS, SEED);
    let mut out = format!(
        "Table I — new coverage per test case ({EXITS}-exit traces, {MUTANTS} mutants/cell, \
         {} workers, chunk {DEFAULT_CHUNK}, target iris)\n\n{}\n",
        available_jobs(),
        table.render()
    );
    let vmcs: Vec<&TestCaseCell> = table
        .cells
        .iter()
        .filter(|((_, _, area), _)| area == "VMCS")
        .map(|(_, c)| c)
        .collect();
    // Mean over cells of each cell's whole-percent crash rate.
    let mean = |rate: fn(&TestCaseCell) -> f64| {
        vmcs.iter().map(|c| rate(c) as u64).sum::<u64>() as f64 / vmcs.len() as f64
    };
    if !vmcs.is_empty() {
        out.push_str(&format!(
            "VMCS-mutation crash rates (mean over cells): VM {:.1}%, hypervisor {:.1}%\n",
            mean(|c| c.vm_crash_percent),
            mean(|c| c.hv_crash_percent)
        ));
    }
    let corpus = &report.corpus;
    out.push_str(&format!(
        "corpus: {} crashes observed, {} unique saved ({} VM, {} hypervisor)\n\
         campaign coverage: {} unique lines over {} submitted mutants\n\n",
        corpus.observed(),
        corpus.unique(),
        corpus.of_kind(FailureKind::VmCrash).count(),
        corpus.of_kind(FailureKind::HypervisorCrash).count(),
        report.coverage.lines(),
        report.failures.submitted
    ));
    let barren = vmcs
        .iter()
        .filter(|c| c.coverage_increase_percent <= 0.0)
        .count();
    let claims = vec![
        claim(!vmcs.is_empty(), "VMCS cells", vmcs.len()),
        claim(barren == 0, "VMCS cells without new coverage", barren),
    ];
    Outcome::new(out, &table, claims)
}

fn boot_state() -> Outcome {
    const EXITS: usize = 200;
    let mut out = format!("§VI-B boot-state experiment ({EXITS} post-boot seeds)\n\n");
    let mut claims = Vec::new();
    let mut all = Vec::new();
    for w in [Workload::CpuBound, Workload::Idle] {
        let e = boot_state_experiment(w, EXITS, SEED);
        let (cold, warm, total) = (e.cold_completed, e.warm_completed, e.total);
        out.push_str(&format!(
            "{}:\n  cold dummy VM : {cold}/{total} seeds before crash — log: \"{}\"\n  \
             after OS_BOOT replay: {warm}/{total} seeds completed\n\n",
            w.label(),
            e.cold_crash_message
        ));
        let log = &e.cold_crash_message;
        let crashed = cold == 0 && log.contains("for mode 0");
        claims.push(claim(crashed, "cold replay", (w, cold, log)));
        claims.push(claim(warm == total, "warm replay", (w, warm, total)));
        all.push((w.label(), e));
    }
    Outcome::new(out, &all, claims)
}

fn seed_memory_row() -> Outcome {
    const EXITS: usize = 2000;
    let m = seed_memory(EXITS, SEED);
    let out = format!(
        "§VI-D seed memory ({EXITS} exits per workload)\n\n\
         max VMCS ops per seed : {} (paper worst case: 32)\n\
         mean VMCS ops per seed: {:.1}\n\
         max seed payload      : {} bytes\n\
         pre-allocation        : {} bytes (paper: 470)\n",
        m.max_vmcs_ops, m.mean_vmcs_ops, m.max_seed_bytes, m.prealloc_bytes
    );
    let claims = vec![
        claim(m.max_vmcs_ops <= 32, "max VMCS ops", m.max_vmcs_ops),
        claim(m.max_seed_bytes <= 470, "max seed bytes", m.max_seed_bytes),
        claim(m.prealloc_bytes == 470, "pre-allocation", m.prealloc_bytes),
    ];
    Outcome::new(out, &m, claims)
}

fn ablation_memory() -> Outcome {
    const EXITS: usize = 3000;
    let mut out = format!(
        "Ablation — §IX memory-augmented seeds ({EXITS} exits)\n\n\
         {:<12} {:>18} {:>18} {:>16} {:>16}\n",
        "workload", "fitting (base)", "fitting (+mem)", ">30LOC (base)", ">30LOC (+mem)"
    );
    let mut claims = Vec::new();
    let workloads = [Workload::OsBoot, Workload::CpuBound, Workload::IoBound];
    let all: Vec<_> = workloads.map(|w| memory_ablation(w, EXITS, SEED)).into();
    for a in &all {
        let ((fit, fit_mem), (large, large_mem)) = (a.fitting_percent, a.large_diff_percent);
        out.push_str(&format!(
            "{:<12} {fit:>17.1}% {fit_mem:>17.1}% {large:>15.2}% {large_mem:>15.2}%\n",
            a.workload
        ));
        let exact = fit_mem > 99.9 && large_mem == 0.0;
        claims.push(claim(exact, "with memory", a));
    }
    Outcome::new(out, &all, claims)
}

fn ablation_strategies() -> Outcome {
    const EXITS: usize = 800;
    const MUTANTS: usize = 400;
    let all = strategy_ablation(EXITS, MUTANTS, SEED);
    let mut out = format!(
        "Ablation — mutation strategies on a CR ACCESS seed ({MUTANTS} mutants each)\n\n\
         {:<14} {:>12} {:>12} {:>12}\n",
        "strategy", "new lines", "VM crashes", "HV crashes"
    );
    let mut claims = Vec::new();
    for s in &all {
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12}\n",
            s.strategy, s.new_lines, s.vm_crashes, s.hv_crashes
        ));
        claims.push(claim(s.new_lines > 0, "new lines", s));
    }
    Outcome::new(out, &all, claims)
}
