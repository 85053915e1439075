//! Regenerates Fig. 4: VM-exit reasons distribution over time during the
//! OS_BOOT workload (BIOS prefix + kernel boot).
//!
//! Usage: `fig4_boot_timeline [bios_exits] [kernel_exits]`
//! (paper scale: 10_000 510_000; default here is a 10× reduction).

use iris_bench::experiments::fig4_timeline;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bios: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1_000);
    let kernel: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(51_000);
    let f = fig4_timeline(bios, kernel, (bios + kernel) / 20, 42);
    println!("Fig. 4 — VM exit reasons over time during OS BOOT");
    println!(
        "total {} exits ({} BIOS prefix), {} exits per bucket\n",
        f.total_exits, f.bios_exits, f.bucket_width
    );
    println!(
        "{:<14} buckets (count per {} exits)",
        "reason", f.bucket_width
    );
    for (reason, buckets) in &f.buckets {
        let cells: Vec<String> = buckets.iter().map(|c| format!("{c:>5}")).collect();
        println!("{reason:<14} {}", cells.join(""));
    }
    let path = iris_bench::write_json("results/fig4.json", &f)?;
    println!("\n(JSON written to {})", path.display());
    Ok(())
}
