//! The §VI-B boot-state scenario end to end: record an OS boot, watch
//! the CR0 mode ladder, then show that post-boot seeds crash a cold
//! dummy VM (`bad RIP for mode 0`) but replay cleanly after the boot
//! seeds re-established the hypervisor state.
//!
//! ```sh
//! cargo run --example os_boot_replay
//! ```

use iris_core::metrics;
use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_core::replay::replay_fresh;
use iris_guest::workloads::Workload;

fn main() {
    // --- Record an OS boot on the test VM. ---------------------------
    let recorder = Recorder::new();
    let (_, boot) = recorder.record_fresh(Workload::OsBoot, 2000, 42, RECORD_RAM_BYTES);
    let ladder = metrics::mode_ladder(&boot);
    let mut seen = Vec::new();
    for m in &ladder {
        if !seen.contains(m) {
            seen.push(*m);
        }
    }
    println!(
        "boot recorded: {} seeds; CR0 mode ladder: {}",
        boot.len(),
        seen.iter()
            .map(|m| m.figure_label())
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // --- Record a post-boot CPU-bound slice. --------------------------
    let (_, cpu) = recorder.record_fresh(Workload::CpuBound, 300, 42, RECORD_RAM_BYTES);

    // --- Cold replay: fresh dummy VM, no boot seeds. -------------------
    let (cold_hv, _, cold, _) = replay_fresh(&cpu, RECORD_RAM_BYTES, false);
    let crash_line = cold_hv
        .log
        .grep("bad RIP")
        .last()
        .map(|l| l.message.clone())
        .unwrap_or_default();
    println!(
        "cold dummy VM: {}/{} seeds before crash — Xen log: \"{crash_line}\"",
        cold.metrics.iter().filter(|m| !m.crashed).count(),
        cpu.len()
    );

    // --- Warm replay: boot seeds first, then the same CPU seeds. -------
    let (mut warm_hv, mut warm_engine, _, _) = replay_fresh(&boot, RECORD_RAM_BYTES, false);
    let dummy = &warm_hv.domains[warm_engine.domain as usize];
    println!(
        "dummy VM mode after boot replay: {:?}",
        dummy.vcpus[0].hvm.mode
    );
    let warm = warm_engine.replay_trace(&mut warm_hv, &cpu);
    println!(
        "after OS_BOOT replay: {}/{} CPU-bound seeds completed",
        warm.metrics.iter().filter(|m| !m.crashed).count(),
        cpu.len()
    );
}
