//! Ablation for the paper's §IX future-work item: record the guest
//! memory areas touched during execution (EPT-style dirty logging) and
//! replay them into the dummy VM before each seed. This removes the
//! guest-memory-dependent divergence (instruction fetches, string I/O
//! buffers, descriptor loads) that caps the baseline fitting.

use iris_core::metrics;
use iris_core::record::Recorder;
use iris_core::replay::replay_fresh;
use iris_guest::workloads::Workload;

fn run(workload: Workload, exits: usize, record_memory: bool) -> (f64, f64) {
    let (_, trace) = Recorder { record_memory }.record_fresh(workload, exits, 42, 64 << 20);
    let warm = workload != Workload::OsBoot;
    let (_, _, replayed, _) = replay_fresh(&trace, 64 << 20, warm);
    let fit = metrics::coverage_fitting(&trace, &replayed);
    let diffs = metrics::diff_by_reason(&trace, &replayed);
    (fit.fitting_percent, diffs.large_diff_percent)
}

fn main() {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    println!("Ablation — §IX memory-augmented seeds ({exits} exits)\n");
    println!(
        "{:<12} {:>18} {:>18} {:>16} {:>16}",
        "workload", "fitting (base)", "fitting (+mem)", ">30LOC (base)", ">30LOC (+mem)"
    );
    for w in [Workload::OsBoot, Workload::CpuBound, Workload::IoBound] {
        let (fit_base, large_base) = run(w, exits, false);
        let (fit_mem, large_mem) = run(w, exits, true);
        println!(
            "{:<12} {:>17.1}% {:>17.1}% {:>15.2}% {:>15.2}%",
            w.label(),
            fit_base,
            fit_mem,
            large_base,
            large_mem
        );
    }
}
