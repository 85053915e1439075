//! Regenerates Fig. 6: cumulative code coverage of recording vs
//! replaying across OS BOOT, CPU-bound and IDLE (paper: fittings of
//! 99.9%, 92.1% and 98.9%).

use iris_bench::experiments::fig6_coverage;
use iris_guest::workloads::Workload;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    println!("Fig. 6 — cumulative coverage, record vs replay ({exits} exits)\n");
    let mut all = Vec::new();
    for w in [Workload::OsBoot, Workload::CpuBound, Workload::Idle] {
        let f = fig6_coverage(w, exits, 42);
        println!(
            "{:<10}  recorded {:>6} lines  replayed {:>6} lines  fitting {:>6.1}%",
            f.workload,
            f.recording.last().copied().unwrap_or(0),
            f.replaying.last().copied().unwrap_or(0),
            f.fitting_percent
        );
        // Print the curve at 10 sample points.
        let step = (exits / 10).max(1);
        print!("  rec: ");
        for i in (0..f.recording.len()).step_by(step) {
            print!("{:>6}", f.recording[i]);
        }
        print!("\n  rep: ");
        for i in (0..f.replaying.len()).step_by(step) {
            print!("{:>6}", f.replaying[i]);
        }
        println!("\n");
        all.push(f);
    }
    let path = iris_bench::write_json("results/fig6.json", &all)?;
    println!("(JSON written to {})", path.display());
    Ok(())
}
