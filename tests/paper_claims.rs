//! The paper's headline claims, asserted as integration tests at reduced
//! scale. Each test names the section/figure it checks. The full-scale
//! numbers are regenerated by the `iris-bench` binaries
//! (`crates/bench/src/bin/`, one per table or figure), which print them
//! and write them to `results/<name>.json`.

use iris_bench::experiments::{
    boot_state_experiment, fig5_distribution, fig6_coverage, fig8_modes, fig9_efficiency,
    ideal_replay_throughput, seed_memory,
};
use iris_guest::workloads::Workload;

/// §I / Fig. 6: "a fitting of code coverage ranging between 92.1% and
/// 100% ... compared to real guest execution."
#[test]
fn claim_coverage_fitting_is_high() {
    let boot = fig6_coverage(Workload::OsBoot, 700, 42);
    assert!(
        boot.fitting_percent > 90.0,
        "OS BOOT fitting {:.1}% (paper: 99.9%)",
        boot.fitting_percent
    );
    let idle = fig6_coverage(Workload::Idle, 400, 42);
    assert!(
        idle.fitting_percent > 85.0,
        "IDLE fitting {:.1}% (paper: 98.9%)",
        idle.fitting_percent
    );
}

/// §I / Fig. 9: "a time improvement from 42.5% to 99.6% compared to the
/// real guest execution."
#[test]
fn claim_replay_time_improvement() {
    let boot = fig9_efficiency(Workload::OsBoot, 500, 42);
    assert!(
        boot.efficiency.decrease_percent > 25.0,
        "OS BOOT decrease {:.1}% (paper: 42.5%)",
        boot.efficiency.decrease_percent
    );
    let idle = fig9_efficiency(Workload::Idle, 300, 42);
    assert!(
        idle.efficiency.decrease_percent > 99.0,
        "IDLE decrease {:.1}% (paper: 99.6%)",
        idle.efficiency.decrease_percent
    );
    assert!(
        idle.efficiency.speedup > 100.0,
        "IDLE speedup {:.0}x (paper: 294x)",
        idle.efficiency.speedup
    );
}

/// §X: "replay them as-is efficiently (in the order of 20K VM seeds per
/// second)".
#[test]
fn claim_replay_throughput_order_of_20k() {
    let f = fig9_efficiency(Workload::CpuBound, 400, 42);
    let tput = f.efficiency.replay_exits_per_sec;
    assert!(
        (10_000.0..40_000.0).contains(&tput),
        "replay throughput {tput:.0} exits/s (paper: 18.5K–23.8K)"
    );
}

/// §VI-C: the ideal replay ceiling is ~50K exits/s.
#[test]
fn claim_ideal_throughput_near_50k() {
    let t = ideal_replay_throughput(2000);
    assert!(
        (35_000.0..75_000.0).contains(&t),
        "ideal {t:.0} exits/s (paper: 50K)"
    );
}

/// §VI-A / Fig. 5: RDTSC dominates the non-boot workloads ("almost 80%
/// of VM exits are related to RDTSC"); OS BOOT is I/O + CR dominated.
#[test]
fn claim_workload_characterisation() {
    let d = fig5_distribution(1500, 42);
    for w in [
        Workload::CpuBound,
        Workload::MemBound,
        Workload::IoBound,
        Workload::Idle,
    ] {
        let rdtsc = d[&w].get("RDTSC").copied().unwrap_or(0.0);
        assert!(rdtsc > 0.6, "{w:?} RDTSC share {rdtsc:.2}");
    }
    let io = d[&Workload::OsBoot]
        .get("I/O INST.")
        .copied()
        .unwrap_or(0.0);
    let cr = d[&Workload::OsBoot]
        .get("CR ACCESS")
        .copied()
        .unwrap_or(0.0);
    assert!(io > 0.25 && cr > 0.15, "OS BOOT io {io:.2} cr {cr:.2}");
    // IDLE is the workload with HLT exits.
    assert!(d[&Workload::Idle].get("HLT").copied().unwrap_or(0.0) > 0.05);
}

/// §VI-B / Fig. 8: the recording reproduces the CR0 mode ladder and the
/// guest-state VMWRITE fitting is 100%.
#[test]
fn claim_mode_ladder_and_vmwrite_fitting() {
    let f = fig8_modes(1200, 42);
    assert!(
        f.modes_visited.len() >= 5,
        "modes visited: {:?}",
        f.modes_visited
    );
    assert_eq!(f.modes_visited[0], "Mode1");
    assert_eq!(f.modes_visited[1], "Mode2");
    assert!(
        f.vmwrite_fitting_percent > 99.5,
        "VMWRITE fitting {:.2}% (paper: 100%)",
        f.vmwrite_fitting_percent
    );
}

/// §VI-B: the boot-state experiment — cold dummy VM crashes with
/// `bad RIP for mode 0`; after OS_BOOT replay both workloads complete.
#[test]
fn claim_boot_state_experiment() {
    for w in [Workload::CpuBound, Workload::Idle] {
        let e = boot_state_experiment(w, 60, 42);
        assert_eq!(e.cold_completed, 0, "{w:?} cold replay crashes at once");
        assert!(
            e.cold_crash_message.contains("for mode 0"),
            "{w:?}: {}",
            e.cold_crash_message
        );
        assert_eq!(e.warm_completed, e.total, "{w:?} warm replay completes");
    }
}

/// §VI-D: worst case 32 VMCS ops → 470-byte seed pre-allocation.
#[test]
fn claim_seed_memory_overhead() {
    let m = seed_memory(400, 42);
    assert!(m.max_vmcs_ops <= 32);
    assert!(m.max_seed_bytes <= 470);
    assert_eq!(m.prealloc_bytes, 470);
}
