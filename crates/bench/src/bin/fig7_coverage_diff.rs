//! Regenerates Fig. 7: code-coverage differences between record and
//! replay, clustered by exit reason; plus the frequency of >30-LOC
//! divergences (paper: 0.36% / 0.18% / 1.16%).

use iris_bench::experiments::fig7_diffs;
use iris_guest::workloads::Workload;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    println!("Fig. 7 — coverage differences by exit reason ({exits} exits)\n");
    let mut all = Vec::new();
    for w in [Workload::OsBoot, Workload::CpuBound, Workload::Idle] {
        let d = fig7_diffs(w, exits, 42);
        println!("{}:", w.label());
        for (reason, (lo, hi)) in &d.range_by_reason {
            println!("  {reason:<14} diff {lo}..{hi} LOC");
        }
        println!(
            "  >30 LOC divergences: {:.2}% of {} seeds\n",
            d.large_diff_percent, d.compared
        );
        all.push((w.label(), d));
    }
    let path = iris_bench::write_json("results/fig7.json", &all)?;
    println!("(JSON written to {})", path.display());
    Ok(())
}
