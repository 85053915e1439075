//! Regenerates Fig. 9: time to submit VM seeds, real guest execution vs
//! IRIS replay (paper: 42.5%/85.4%/99.6% decreases, 6.8x and 294x
//! speedups, ideal ~50K exits/s).

use iris_bench::experiments::fig9_efficiency;
use iris_guest::workloads::Workload;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    println!("Fig. 9 — seed submission time, Real VM vs IRIS VM ({exits} exits)\n");
    let mut all = Vec::new();
    for w in [Workload::OsBoot, Workload::CpuBound, Workload::Idle] {
        let f = fig9_efficiency(w, exits, 42);
        let e = &f.efficiency;
        println!(
            "{:<10}  real {:>9.1} ms   replay {:>8.1} ms   -{:>5.1}%   {:>6.1}x   {:>7.0} exits/s",
            f.workload,
            e.real_ms,
            e.replay_ms,
            e.decrease_percent,
            e.speedup,
            e.replay_exits_per_sec
        );
        all.push(f);
    }
    println!(
        "\nideal replay throughput: {:.0} exits/s (paper: ~50K)",
        all[0].ideal_exits_per_sec
    );
    let path = iris_bench::write_json("results/fig9.json", &all)?;
    println!("(JSON written to {})", path.display());
    Ok(())
}
