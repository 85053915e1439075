//! Regenerates Fig. 8: CR0 operating modes across VM exits during
//! OS_BOOT, recorded vs replayed (paper: VMWRITE fitting 100%).

use iris_bench::experiments::fig8_modes;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    let f = fig8_modes(exits, 42);
    println!("Fig. 8 — CR0 operating-mode ladder over OS BOOT ({exits} exits)\n");
    println!("modes visited (record): {}", f.modes_visited.join(" -> "));
    println!(
        "guest-state VMWRITE fitting: {:.1}% (paper: 100%)\n",
        f.vmwrite_fitting_percent
    );
    // Sampled ladder, both sides.
    let step = (f.recorded_modes.len() / 40).max(1);
    print!("record: ");
    for m in f.recorded_modes.iter().step_by(step) {
        print!("{}", m + 1);
    }
    print!("\nreplay: ");
    for m in f.replayed_modes.iter().step_by(step) {
        print!("{}", m + 1);
    }
    println!();
    let path = iris_bench::write_json("results/fig8.json", &f)?;
    println!("\n(JSON written to {})", path.display());
    Ok(())
}
