//! Quickstart: record a guest workload, replay it through the dummy VM,
//! and compare accuracy and efficiency — the IRIS core loop in ~40 lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use iris_core::metrics;
use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_core::replay::replay_fresh;
use iris_guest::workloads::Workload;

fn main() {
    // Record 2000 exits of the CPU-bound workload on a fresh 64 MiB test
    // VM, fast-forwarded past the boot (CPU-bound runs post-boot).
    let (_, recorded) =
        Recorder::new().record_fresh(Workload::CpuBound, 2000, 42, RECORD_RAM_BYTES);
    println!(
        "recorded {} seeds, {} unique lines, {:.1} ms of guest wall time",
        recorded.len(),
        recorded.total_coverage().lines(),
        recorded.wall_time_ms()
    );

    // Replay them as-is through a dummy VM fast-forwarded to the same
    // post-boot state, so both sides begin from the same state.
    let (_, _, replayed, cycles) = replay_fresh(&recorded, RECORD_RAM_BYTES, true);
    let replay_ms = cycles as f64 / 3.6e6;

    // Accuracy: coverage fitting (paper Fig. 6: 92.1% for CPU-bound).
    let fit = metrics::coverage_fitting(&recorded, &replayed);
    println!(
        "coverage fitting: {:.1}% ({} of {} lines reproduced)",
        fit.fitting_percent, fit.common_lines, fit.recorded_lines
    );

    // Efficiency: replay vs real execution (paper Fig. 9b: 85.4% less).
    let eff = metrics::efficiency(&recorded, replay_ms);
    println!(
        "efficiency: real {:.1} ms vs replay {:.1} ms — {:.1}% decrease, {:.1}x speedup, {:.0} seeds/s",
        eff.real_ms, eff.replay_ms, eff.decrease_percent, eff.speedup, eff.replay_exits_per_sec
    );
}
