//! Regenerates Table I: new code coverage discovered across test cases
//! by the IRIS-based fuzzer prototype, plus the crash statistics of
//! §VII-4 (paper: VM crashes ~1%, hypervisor crashes ~15% under VMCS
//! mutation).
//!
//! Runs on the sharded executor: `table1_fuzzer [exits] [mutants]
//! [jobs] [target] [chunk]`, with `jobs` defaulting to the host's
//! available parallelism, `target` to the stock `iris` backend
//! (`faulty` selects the fault-injection build and appends a
//! ground-truth planted-bug detection report), and `chunk` to the
//! work-stealing granularity default. The table is deterministic in
//! `(exits, mutants, target)` — the same cells and corpus for any
//! `(jobs, chunk)`.

use iris_bench::experiments::table1_parallel_with;
use iris_fuzzer::failure::FailureKind;
use iris_fuzzer::parallel::available_jobs;
use iris_fuzzer::target::{render_planted_fault_report, Backend, TargetFactory};
use iris_fuzzer::testcase::DEFAULT_CHUNK;

fn main() -> std::io::Result<()> {
    let exits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let mutants: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300); // paper: 10_000
    let jobs: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(available_jobs);
    let backend = std::env::args()
        .nth(4)
        .map(|s| Backend::parse(&s).expect("unknown target (iris|faulty)"))
        .unwrap_or(Backend::Iris);
    let chunk: usize = std::env::args()
        .nth(5)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHUNK);
    println!(
        "Table I — new coverage per test case ({exits}-exit traces, {mutants} mutants/cell, {jobs} workers, chunk {chunk}, target {})\n",
        backend.name()
    );
    let (table, report) = table1_parallel_with(backend, exits, mutants, 42, jobs, chunk);
    println!("{}", table.render());

    let mut vmcs_vm = 0u64;
    let mut vmcs_hv = 0u64;
    let mut vmcs_total = 0u64;
    for ((_, _, area), cell) in &table.cells {
        if area == "VMCS" {
            vmcs_total += 100;
            vmcs_vm += cell.vm_crash_percent as u64;
            vmcs_hv += cell.hv_crash_percent as u64;
        }
    }
    if vmcs_total > 0 {
        println!(
            "VMCS-mutation crash rates (mean over cells): VM {:.1}%, hypervisor {:.1}%",
            vmcs_vm as f64 / (vmcs_total as f64 / 100.0),
            vmcs_hv as f64 / (vmcs_total as f64 / 100.0)
        );
    }
    println!(
        "corpus: {} crashes observed, {} unique saved ({} VM, {} hypervisor)",
        report.corpus.observed(),
        report.corpus.unique(),
        report.corpus.of_kind(FailureKind::VmCrash).count(),
        report.corpus.of_kind(FailureKind::HypervisorCrash).count()
    );
    println!(
        "campaign coverage: {} unique lines over {} submitted mutants",
        report.coverage.lines(),
        report.failures.submitted
    );
    if backend == Backend::Faulty {
        print!("{}", render_planted_fault_report(&report.corpus));
    }
    let path = iris_bench::write_json("results/table1.json", &table)?;
    println!("\n(JSON written to {})", path.display());
    Ok(())
}
