//! The recording component (§IV-A / §V-A).
//!
//! [`RecordHooks`] is the callback surface compiled into the hypervisor's
//! `vmread()`/`vmwrite()` wrappers: for every VM exit it captures the VM
//! seed ({field, value} read pairs + GPRs) and the metrics (the VMWRITE
//! pairs, and — through the exit outcome — per-seed coverage and cycle
//! timing). [`Recorder`] drives a workload through the hypervisor with
//! those hooks attached and assembles the [`crate::trace::RecordedTrace`].

use crate::seed::VmSeed;
use crate::trace::{RecordedTrace, SeedMetrics};
use iris_guest::event::GuestOp;
use iris_guest::runner::{fast_forward_boot, GuestRunner};
use iris_guest::workloads::Workload;
use iris_hv::costs;
use iris_hv::hooks::VmxHooks;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::ept::PAGE_SHIFT;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::GprSet;

/// The test VM's RAM for every trace the CLI, the fleet, the paper
/// experiments and the examples record, and for the stack
/// [`crate::replay::replay_fresh`] replays those traces on. RAM is a
/// trace coordinate ([`Recorder::record_fresh`]), so this one name is
/// the one place it is chosen.
pub const RECORD_RAM_BYTES: u64 = 64 << 20;

/// Per-exit capture state; implements the instrumentation callbacks.
///
/// The capture buffers are pre-allocated to the paper's worst case
/// ([`crate::seed::MAX_VMCS_OPS`] — §VI-D's 470-byte derivation) and
/// reused across exits: draining a seed empties them without releasing
/// their capacity, so steady-state recording does not grow or reallocate
/// them.
#[derive(Debug)]
pub struct RecordHooks {
    reads: Vec<(VmcsField, u64)>,
    writes: Vec<(VmcsField, u64)>,
    gprs: GprSet,
    cost: u64,
    enabled: bool,
}

impl Default for RecordHooks {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordHooks {
    /// Hooks with recording enabled and worst-case buffers pre-allocated.
    #[must_use]
    pub fn new() -> Self {
        Self {
            reads: Vec::with_capacity(crate::seed::MAX_VMCS_OPS),
            writes: Vec::with_capacity(crate::seed::MAX_VMCS_OPS),
            gprs: GprSet::new(),
            cost: 0,
            enabled: true,
        }
    }

    /// Drain the capture into a seed + write list, resetting for the next
    /// exit. The hooks keep their buffer capacity.
    pub fn drain(&mut self, reason: ExitReason) -> (VmSeed, Vec<(VmcsField, u64)>) {
        let mut seed = VmSeed::new(reason);
        seed.reads
            .reserve_exact(self.reads.len().min(crate::seed::MAX_VMCS_OPS));
        for (f, v) in self.reads.drain(..) {
            seed.push_read(f, v);
        }
        seed.gprs = self.gprs;
        let writes = if self.writes.is_empty() {
            Vec::new()
        } else {
            self.writes.drain(..).collect()
        };
        (seed, writes)
    }
}

impl VmxHooks for RecordHooks {
    fn on_vmread(&mut self, field: VmcsField, real: u64) -> u64 {
        if self.enabled {
            self.reads.push((field, real));
            self.cost += costs::RECORD_CALLBACK_CYCLES;
        }
        real
    }

    fn on_vmwrite(&mut self, field: VmcsField, value: u64) {
        if self.enabled {
            self.writes.push((field, value));
            self.cost += costs::RECORD_CALLBACK_CYCLES;
        }
    }

    fn on_handler_entry(&mut self, gprs: &GprSet) {
        if self.enabled {
            self.gprs = *gprs;
            self.cost += costs::RECORD_BASE_CYCLES;
        }
    }

    fn take_cycle_cost(&mut self) -> u64 {
        std::mem::take(&mut self.cost)
    }
}

/// Drives recording sessions. Every exit yields a seed and its metrics.
#[derive(Debug, Default)]
pub struct Recorder {
    /// §IX extension: also record the guest memory areas the workload
    /// touches (EPT-style dirty logging: the image of every frame an
    /// exit dirtied), producing *memory-augmented* seeds whose replay
    /// does not diverge on guest-memory-dependent handler paths.
    pub record_memory: bool,
}

impl Recorder {
    /// A recorder of seeds and metrics, without the memory log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The one route from a trace's coordinates to the trace: build a
    /// fresh hypervisor with one `ram_bytes` test VM, put it in the
    /// post-boot state unless the workload *is* the boot (§VII-1's
    /// `s0`), and record `exits` exits of `workload` generated from
    /// `seed`. RAM size is a coordinate like the other three — the
    /// `MEMORY_OP` hypercall of OS BOOT and MEM-BOUND returns the frame
    /// count, which the seeds after it carry in RAX — so callers name
    /// theirs. The hypervisor comes back for callers that keep its
    /// clock or log.
    #[must_use]
    pub fn record_fresh(
        &self,
        workload: Workload,
        exits: usize,
        seed: u64,
        ram_bytes: u64,
    ) -> (Hypervisor, RecordedTrace) {
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(ram_bytes);
        if workload != Workload::OsBoot {
            fast_forward_boot(&mut hv, dom);
        }
        let ops = workload.generate(exits, seed);
        let trace = self.record_workload(&mut hv, dom, workload.label(), ops);
        (hv, trace)
    }

    /// Record the execution of `ops` on `domain` (the test VM). Returns
    /// the trace of seeds + metrics, one per executed exit. Stops at a
    /// crash, like the real system would.
    pub fn record_workload<I: IntoIterator<Item = GuestOp>>(
        &self,
        hv: &mut Hypervisor,
        domain: u16,
        label: &str,
        ops: I,
    ) -> RecordedTrace {
        hv.fuzzing_ctl.record_enabled = true;
        if self.record_memory {
            hv.domains[domain as usize]
                .memory
                .set_page_dirty_tracking(true);
        }
        let mut runner = GuestRunner::new(domain);
        let mut hooks = RecordHooks::new();
        let mut trace = RecordedTrace::new(label);
        for op in ops {
            let start_tsc = hv.tsc.now();
            let mut outcome = runner.step(hv, &op, &mut hooks);
            if self.record_memory {
                // What an EPT dirty log records: the image of every
                // frame the exit touched (a frame wiped since is cold
                // again and has no image to carry).
                let memory = &mut hv.domains[domain as usize].memory;
                let pages = (memory.take_dirty_pages().into_iter())
                    .filter_map(|gfn| Some((gfn << PAGE_SHIFT, memory.page(gfn)?.to_vec())))
                    .collect();
                trace.memory.push(pages);
            }
            let reason = outcome
                .handled_reason
                .unwrap_or(ExitReason::PreemptionTimer);
            let (seed, writes) = hooks.drain(reason);
            trace.seeds.push(seed);
            // Move the per-exit map out of the outcome instead of
            // copying it; the outcome is not used past this point.
            let mut coverage = std::mem::take(&mut outcome.coverage);
            coverage.strip_framework();
            trace.metrics.push(SeedMetrics {
                reason,
                coverage,
                vmwrites: writes,
                handling_cycles: outcome.cycles,
                start_tsc,
                crashed: outcome.crash.is_some(),
            });
            if outcome.crash.is_some() {
                break;
            }
        }
        hv.fuzzing_ctl.record_enabled = false;
        if self.record_memory {
            hv.domains[domain as usize]
                .memory
                .set_page_dirty_tracking(false);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: Workload, n: usize) -> (Hypervisor, RecordedTrace) {
        Recorder::new().record_fresh(workload, n, 42, 16 << 20)
    }

    #[test]
    fn recording_captures_one_seed_per_exit() {
        let (_, trace) = record(Workload::CpuBound, 100);
        assert_eq!(trace.seeds.len(), 100);
        assert_eq!(trace.metrics.len(), 100);
    }

    #[test]
    fn seeds_carry_the_pipeline_reads() {
        let (_, trace) = record(Workload::CpuBound, 50);
        for seed in &trace.seeds {
            // Every exit's dispatch reads the reason and RIP.
            assert!(seed.read_value(VmcsField::VmExitReason).is_some());
            assert!(seed.read_value(VmcsField::GuestRip).is_some());
        }
    }

    #[test]
    fn seed_reasons_match_the_workload_mix() {
        let (_, trace) = record(Workload::CpuBound, 300);
        let rdtsc = trace
            .seeds
            .iter()
            .filter(|s| s.reason == ExitReason::Rdtsc)
            .count();
        assert!(rdtsc > 180, "rdtsc seeds {rdtsc}");
    }

    #[test]
    fn metrics_have_coverage_and_cycles() {
        let (_, trace) = record(Workload::OsBoot, 100);
        assert!(trace.metrics.iter().all(|m| m.handling_cycles > 0));
        assert!(trace.metrics.iter().any(|m| m.coverage.lines() > 0));
        // CR seeds produce VMWRITE metrics.
        assert!(trace
            .metrics
            .iter()
            .any(|m| m.reason == ExitReason::CrAccess && !m.vmwrites.is_empty()));
    }

    #[test]
    fn seed_payload_respects_worst_case() {
        let (_, trace) = record(Workload::OsBoot, 500);
        for s in &trace.seeds {
            assert!(s.payload_bytes() <= crate::seed::WORST_CASE_SEED_BYTES);
        }
    }

    #[test]
    fn memory_log_carries_no_bytes_of_a_rejected_write() {
        use iris_hv::hypervisor::ExitEvent;
        let ram = 16u64 << 20;
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(ram);
        // The guest's store starts in the last frame of RAM and runs
        // off the end: the head lands, the tail is refused (BadGfn).
        let mut op = GuestOp::new(ExitEvent::new(ExitReason::Cpuid));
        op.setup.mem_writes.push((ram - 2, vec![1, 2, 3, 4]));
        let recorder = Recorder {
            record_memory: true,
        };
        let trace = recorder.record_workload(&mut hv, dom, "edge", [op]);

        // One page image — the frame the write did reach — and nothing
        // of the refused tail.
        let [(gpa, image)] = trace.memory[0].as_slice() else {
            panic!("one dirtied frame, got {:?}", trace.memory[0]);
        };
        assert_eq!(*gpa, ram - 0x1000);
        assert_eq!(image.len(), 0x1000);
        assert_eq!(image[0xffe..], [1, 2]);
        // So the log replays without a rejected write of its own.
        let mut dummy = iris_hv::mm::GuestMemory::new(ram);
        assert_eq!(dummy.copy_to_guest(*gpa, image), Ok(()));
        assert!(!hv.domains[dom as usize].memory.page_dirty_tracking());
    }

    #[test]
    fn recording_overhead_is_small() {
        // Compare total handling cycles with and without recording:
        // the paper's Fig. 10 shows 1.02%–1.25%.
        let ops = Workload::CpuBound.generate(400, 42);

        let mut hv1 = Hypervisor::new();
        let d1 = hv1.create_hvm_domain(16 << 20);
        fast_forward_boot(&mut hv1, d1);
        let mut plain = 0u64;
        let mut runner = GuestRunner::new(d1);
        for op in &ops {
            plain += runner
                .step(&mut hv1, op, &mut iris_hv::hooks::NoHooks)
                .cycles;
        }

        let mut hv2 = Hypervisor::new();
        let d2 = hv2.create_hvm_domain(16 << 20);
        fast_forward_boot(&mut hv2, d2);
        let trace = Recorder::new().record_workload(&mut hv2, d2, "cpu", ops);
        let recorded: u64 = trace.metrics.iter().map(|m| m.handling_cycles).sum();

        let overhead = recorded as f64 / plain as f64 - 1.0;
        assert!(
            (0.001..0.04).contains(&overhead),
            "record overhead {:.3}%",
            overhead * 100.0
        );
    }
}
