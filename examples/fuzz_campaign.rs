//! A small fuzzing campaign with the IRIS-based PoC fuzzer (§VII):
//! record a boot, pick `VM_seed_R` targets per exit reason, submit
//! bit-flip fuzzing sequences, and report new coverage + crashes — then
//! rerun the same plan against the fault-injection backend and check
//! which of its planted bugs the campaign detects.
//!
//! ```sh
//! cargo run --release --example fuzz_campaign
//! ```

use iris_fuzzer::failure::FailureKind;
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::ParallelCampaign;
use iris_fuzzer::target::{record_trace, render_planted_fault_report, Backend, TargetFactory};
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;

fn main() {
    let trace = record_trace(Workload::OsBoot, 600, 42);
    println!(
        "recorded {} OS BOOT seeds as the fuzzing substrate\n",
        trace.len()
    );

    let mut plan = Vec::new();
    for reason in [
        ExitReason::CrAccess,
        ExitReason::IoInstruction,
        ExitReason::Cpuid,
        ExitReason::Rdtsc,
    ] {
        let Some(idx) = trace.seeds.iter().position(|s| s.reason == reason) else {
            continue;
        };
        for area in SeedArea::ALL {
            plan.push(TestCase {
                mutants: 200, // paper uses 10_000; scaled for the example
                ..TestCase::new(Workload::OsBoot, idx, reason, area, 7)
            });
        }
    }
    // The default executor drives the stock `iris` backend; any
    // `TargetFactory` slots in the same way (one worker here — the
    // report is the same for any count).
    let report = ParallelCampaign::new(1).run_trace(&trace, &plan);
    for r in &report.results {
        let tc = &r.testcase;
        println!(
            "{:<12} {:>4}  +{:>4.0}% new coverage   VM crashes {:>5.1}%   HV crashes {:>5.1}%",
            tc.reason.figure_label(),
            tc.area.label(),
            r.coverage_increase_percent,
            r.failures.vm_crash_percent(),
            r.failures.hv_crash_percent()
        );
    }

    println!(
        "\ncorpus: {} crashes observed, {} unique saved ({} VM, {} hypervisor)",
        report.corpus.observed(),
        report.corpus.unique(),
        report.corpus.of_kind(FailureKind::VmCrash).count(),
        report.corpus.of_kind(FailureKind::HypervisorCrash).count()
    );
    if let Some(c) = report.corpus.crashes.first() {
        println!(
            "first crash: mutant #{} of {} ({:?}) — console: \"{}\"",
            c.mutant_index,
            c.testcase.cell_label(),
            c.mutation,
            c.console
        );
    }

    // Same plan, same driver, different backend: the faulty build has a
    // ground truth, so the report can say what the fuzzer *found*.
    let faulty = Backend::Faulty;
    let faulty_report = ParallelCampaign::with_factory(1, faulty).run_trace(&trace, &plan);
    println!(
        "\nsame plan against `{}` ({}):",
        faulty.name(),
        faulty.description()
    );
    print!("{}", render_planted_fault_report(&faulty_report.corpus));
}
