//! Regenerates Fig. 10: per-exit handling time with and without IRIS
//! recording (paper: 1.02%–1.25% overhead).

use iris_bench::experiments::fig10_overhead;
use iris_guest::workloads::Workload;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let runs: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    println!(
        "Fig. 10 — per-exit time, No Recording vs IRIS Recording ({exits} exits x {runs} runs)\n"
    );
    let mut all = Vec::new();
    for w in [Workload::OsBoot, Workload::CpuBound, Workload::Idle] {
        let f = fig10_overhead(w, exits, runs, 42);
        println!(
            "{} (overall overhead {:.2}%):",
            w.label(),
            f.overhead_percent
        );
        for (reason, (plain, rec)) in &f.medians_us {
            println!("  {reason:<14} {plain:>8.2} us -> {rec:>8.2} us");
        }
        println!();
        all.push((w.label(), f));
    }
    let path = iris_bench::write_json("results/fig10.json", &all)?;
    println!("(JSON written to {})", path.display());
    Ok(())
}
