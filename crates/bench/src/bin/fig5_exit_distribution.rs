//! Regenerates Fig. 5: VM-exit reason distribution across the five
//! target workloads (5000-exit traces).

use iris_bench::experiments::fig5_distribution;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    let d = fig5_distribution(exits, 42);
    println!("Fig. 5 — exit reason probability per workload ({exits} exits each)\n");
    print!("{:<14}", "reason");
    for w in Workload::ALL {
        print!("{:>11}", w.label());
    }
    println!();
    for r in ExitReason::FIGURE_REASONS {
        print!("{:<14}", r.figure_label());
        for w in Workload::ALL {
            let p = d[&w].get(r.figure_label()).copied().unwrap_or(0.0);
            if p == 0.0 {
                print!("{:>11}", "-");
            } else {
                print!("{:>11.3}", p);
            }
        }
        println!();
    }
    let path = iris_bench::write_json(
        "results/fig5.json",
        &d.iter().map(|(w, h)| (w.label(), h)).collect::<Vec<_>>(),
    )?;
    println!("\n(JSON written to {})", path.display());
    Ok(())
}
