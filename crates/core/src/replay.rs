//! The replaying component (§IV-B / §V-B).
//!
//! Replay submits recorded (or crafted) seeds to the hypervisor through a
//! **dummy VM** whose VMX-preemption timer is armed with zero: every VM
//! entry immediately exits again before any guest instruction runs. Per
//! seed, the engine
//!
//! 1. copies the seed's GPRs into the hypervisor save area (*"GPR values
//!    are simply copied to the corresponding hypervisor data
//!    structures"*),
//! 2. rewrites **writable** seed fields into the VMCS with `vmwrite()`,
//! 3. loads **read-only** (VM-exit information) seed fields into the
//!    `vmread()` interposition map (*"we modify only the return value of
//!    the VMREADs"*),
//! 4. triggers the preemption-timer exit and lets the full pipeline —
//!    dispatch on the (interposed) recorded reason, handler, interrupt
//!    assist, **VM-entry checks** — run normally.
//!
//! A whole trace is replayed onto a fresh dummy VM by [`replay_fresh`].

use crate::seed::{VmSeed, MAX_VMCS_OPS};
use crate::trace::{RecordedTrace, SeedMetrics};
use iris_guest::runner::fast_forward_boot;
use iris_hv::costs;
use iris_hv::hooks::VmxHooks;
use iris_hv::hypervisor::{ExitEvent, ExitOutcome, Hypervisor};
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::{VmcsField, FIELD_COUNT};
use iris_vtx::gpr::Gpr;

/// Interposition state for replayed seeds.
///
/// The read-only field substitutions live in a flat table indexed by
/// [`VmcsField::index`]. The table is owned by the [`ReplayEngine`] and
/// reused for every seed; "clearing" it between seeds is a single
/// generation-counter bump (`begin_seed`), not a memset — an entry is
/// live only when its stamp matches the current generation. Together
/// with the pre-allocated VMWRITE capture buffer this makes seed
/// submission allocation-free on the non-crash path.
#[derive(Debug, Clone)]
pub struct ReplayHooks {
    /// Current seed generation; entries with a different stamp are dead.
    generation: u32,
    /// Per-field generation stamps.
    stamp: [u32; FIELD_COUNT],
    /// Per-field override values (valid only when stamped).
    value: [u64; FIELD_COUNT],
    /// VMWRITEs observed during replay (metrics for accuracy analysis);
    /// capacity is pre-allocated and kept across seeds.
    writes: Vec<(VmcsField, u64)>,
    cost: u64,
}

impl Default for ReplayHooks {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayHooks {
    /// Empty hooks with pre-allocated capture buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            generation: 1,
            stamp: [0; FIELD_COUNT],
            value: [0; FIELD_COUNT],
            writes: Vec::with_capacity(MAX_VMCS_OPS),
            cost: 0,
        }
    }

    /// Start a new seed: invalidate every override via the generation
    /// counter, reset the write capture, and arm the submission cycle
    /// cost (`ops` is the number of submitted VMCS/GPR pairs).
    pub fn begin_seed(&mut self, ops: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 4 billion seeds ago could alias.
            self.stamp = [0; FIELD_COUNT];
            self.generation = 1;
        }
        self.writes.clear();
        self.cost = costs::REPLAY_BASE_CYCLES + ops as u64 * costs::REPLAY_PER_OP_CYCLES;
    }

    /// Install one read-only field substitution for the current seed.
    #[inline]
    pub fn set_override(&mut self, field: VmcsField, value: u64) {
        let idx = field.index() as usize;
        self.stamp[idx] = self.generation;
        self.value[idx] = value;
    }

    /// Drain the VMWRITEs captured while replaying. The internal buffer
    /// keeps its capacity; the returned `Vec` is sized exactly (and is
    /// the empty, non-allocating `Vec` for the common write-free seed).
    pub fn take_writes(&mut self) -> Vec<(VmcsField, u64)> {
        if self.writes.is_empty() {
            Vec::new()
        } else {
            self.writes.drain(..).collect()
        }
    }
}

impl VmxHooks for ReplayHooks {
    #[inline]
    fn on_vmread(&mut self, field: VmcsField, real: u64) -> u64 {
        let idx = field.index() as usize;
        if self.stamp[idx] == self.generation {
            self.value[idx]
        } else {
            real
        }
    }

    fn on_vmwrite(&mut self, field: VmcsField, value: u64) {
        self.writes.push((field, value));
    }

    fn take_cycle_cost(&mut self) -> u64 {
        std::mem::take(&mut self.cost)
    }
}

/// What one seed submission produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The raw exit outcome.
    pub exit: ExitOutcome,
    /// Metrics in the same shape the recorder produces, for accuracy
    /// comparison.
    pub metrics: SeedMetrics,
}

/// The replay engine bound to a dummy VM.
///
/// Owns the interposition state ([`ReplayHooks`]) so per-seed submission
/// reuses the override table and capture buffers instead of rebuilding
/// them.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    /// The dummy domain seeds are submitted through.
    pub domain: u16,
    /// Seeds submitted so far.
    pub submitted: u64,
    hooks: ReplayHooks,
}

impl ReplayEngine {
    /// Create a replay engine over an existing dummy domain, arming its
    /// preemption timer with zero.
    pub fn new(hv: &mut Hypervisor, domain: u16) -> Self {
        let vcpu = &mut hv.domains[domain as usize].vcpus[0];
        vcpu.preempt_timer.set_enabled(true);
        vcpu.preempt_timer.load(0);
        vcpu.vmcs.hw_write(VmcsField::GuestPreemptionTimer, 0);
        hv.fuzzing_ctl.replay_enabled = true;
        Self {
            domain,
            submitted: 0,
            hooks: ReplayHooks::new(),
        }
    }

    /// Put the engine back to the state `image` was cloned at, keeping
    /// the capture buffer's allocation — the engine half of restoring a
    /// whole stack with [`Hypervisor::restore_from`].
    pub fn restore_from(&mut self, image: &ReplayEngine) {
        self.domain = image.domain;
        self.submitted = image.submitted;
        self.hooks.generation = image.hooks.generation;
        self.hooks.stamp = image.hooks.stamp;
        self.hooks.value = image.hooks.value;
        self.hooks.writes.clone_from(&image.hooks.writes);
        self.hooks.cost = image.hooks.cost;
    }

    /// Submit one VM seed (recorded or crafted) to the hypervisor.
    pub fn submit(&mut self, hv: &mut Hypervisor, seed: &VmSeed) -> ReplayOutcome {
        let start_tsc = hv.tsc.now();

        // (1) GPRs into the hypervisor save area, (2) writable fields into
        // the VMCS, (3) read-only fields into the override table.
        self.hooks.begin_seed(seed.reads.len() + Gpr::COUNT);
        {
            let vcpu = &mut hv.domains[self.domain as usize].vcpus[0];
            vcpu.gprs.copy_from(&seed.gprs);
            for &(field, value) in &seed.reads {
                if field.is_read_only() {
                    self.hooks.set_override(field, value);
                } else {
                    let _ = vcpu.vmcs.write(field, value);
                }
            }
        }

        // (4) the dummy VM's zero-armed preemption timer fires before any
        // guest instruction; the recorded reason steers the dispatch via
        // the interposed VM_EXIT_REASON read.
        let event = ExitEvent::new(ExitReason::PreemptionTimer);
        let mut exit = hv.vm_exit(self.domain, &event, &mut self.hooks);
        self.submitted += 1;

        // Move the per-exit map into the metrics instead of copying it;
        // the outcome's copy is not consumed by any caller.
        let mut coverage = std::mem::take(&mut exit.coverage);
        coverage.strip_framework();
        let metrics = SeedMetrics {
            reason: exit.handled_reason.unwrap_or(seed.reason),
            coverage,
            vmwrites: self.hooks.take_writes(),
            handling_cycles: exit.cycles,
            start_tsc,
            crashed: exit.crash.is_some(),
        };
        ReplayOutcome { exit, metrics }
    }

    /// Replay a whole trace, producing a replay-side trace for accuracy
    /// comparison. Stops on a crash (the dummy VM is gone).
    ///
    /// If the trace carries memory-augmented seeds (§IX extension), the
    /// recorded guest-memory writes are applied to the dummy VM before
    /// each seed, eliminating the guest-memory replay divergence.
    pub fn replay_trace(&mut self, hv: &mut Hypervisor, trace: &RecordedTrace) -> RecordedTrace {
        let mut out = RecordedTrace::new(&format!("{} (replay)", trace.label));
        for (i, seed) in trace.seeds.iter().enumerate() {
            if let Some(writes) = trace.memory.get(i) {
                let mem = &mut hv.domains[self.domain as usize].memory;
                for (gpa, data) in writes {
                    let _ = mem.copy_to_guest(*gpa, data);
                }
            }
            let r = self.submit(hv, seed);
            out.seeds.push(seed.clone());
            let stop = r.exit.crash.is_some();
            out.metrics.push(r.metrics);
            if stop {
                break;
            }
        }
        out
    }
}

/// The one route from a recorded trace to its replay, the mirror of
/// [`crate::record::Recorder::record_fresh`]: build a fresh hypervisor
/// with one `ram_bytes` dummy VM, fast-forward its boot when `warm` (the
/// state a post-boot trace was recorded from; §VI-B's cold dummy VM is
/// `warm = false`), and replay `trace` through it. Returns the stack —
/// the hypervisor for its console log, the engine for further
/// submissions — with the replay-side trace and the TSC cycles the
/// replay took.
#[must_use]
pub fn replay_fresh(
    trace: &RecordedTrace,
    ram_bytes: u64,
    warm: bool,
) -> (Hypervisor, ReplayEngine, RecordedTrace, u64) {
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(ram_bytes);
    if warm {
        fast_forward_boot(&mut hv, dummy);
    }
    let mut engine = ReplayEngine::new(&mut hv, dummy);
    let t0 = hv.tsc.now();
    let replayed = engine.replay_trace(&mut hv, trace);
    let cycles = hv.tsc.now() - t0;
    (hv, engine, replayed, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use iris_guest::workloads::Workload;

    fn record_trace(w: Workload, n: usize) -> RecordedTrace {
        Recorder::new().record_fresh(w, n, 42, 16 << 20).1
    }

    #[test]
    fn replayed_seed_steers_dispatch_to_recorded_reason() {
        let trace = record_trace(Workload::CpuBound, 20);
        let (_, _, replayed, _) = replay_fresh(&trace, 16 << 20, true);
        assert_eq!(replayed.metrics.len(), 20);
        for (r, m) in trace.metrics.iter().zip(&replayed.metrics) {
            assert_eq!(r.reason, m.reason, "replay followed the seed's reason");
        }
    }

    #[test]
    fn os_boot_replay_reaches_high_coverage_fitting() {
        let trace = record_trace(Workload::OsBoot, 800);
        let (_, _, replayed, _) = replay_fresh(&trace, 16 << 20, false);
        assert_eq!(replayed.metrics.len(), 800, "no crash during boot replay");
        let rec = trace.total_coverage().lines() as f64;
        let rep = replayed.total_coverage().lines() as f64;
        let fitting = rep / rec * 100.0;
        assert!(fitting > 85.0, "OS_BOOT fitting {fitting:.1}%");
    }

    #[test]
    fn a_booted_dummy_vm_holds_a_handful_of_ept_runs() {
        // An exact size counter, not a timing: what a snapshot copies and
        // a restore compares is this many runs, whatever the RAM size.
        let trace = record_trace(Workload::OsBoot, 300);
        let (hv, engine, replayed, _) = replay_fresh(&trace, 16 << 20, false);
        assert_eq!(replayed.metrics.len(), 300, "no crash during boot replay");
        let runs = hv.domains[engine.domain as usize].ept.runs();
        assert!(runs <= 16, "dummy VM EPT holds {runs} runs after OS BOOT");
    }

    #[test]
    fn replay_updates_hypervisor_internal_state() {
        // Replaying the boot's CR0 seeds must walk the dummy vCPU's mode
        // abstraction up the ladder — that is what makes the §VI-B
        // experiment work.
        let trace = record_trace(Workload::OsBoot, 400);
        let (hv, engine, _, _) = replay_fresh(&trace, 16 << 20, false);
        let mode = hv.domains[engine.domain as usize].vcpus[0].hvm.mode;
        assert!(
            mode >= iris_vtx::cr::OperatingMode::Mode3,
            "dummy VM mode after boot replay: {mode:?}"
        );
    }

    #[test]
    fn cold_dummy_vm_crashes_with_bad_rip_for_mode_0() {
        // §VI-B: replaying post-boot seeds from a VM state without
        // booting the OS crashes the dummy VM.
        let trace = record_trace(Workload::CpuBound, 50);
        let (hv, _, replayed, _) = replay_fresh(&trace, 16 << 20, false);
        assert!(replayed.metrics.len() < 50, "crashed early");
        assert!(replayed.metrics.last().unwrap().crashed);
        assert!(hv.log.grep("for mode 0").count() >= 1, "Xen's log message");
    }

    #[test]
    fn warm_replay_completes_and_cold_post_boot_replay_crashes() {
        // A post-boot trace replays in full on a dummy VM fast-forwarded
        // to the state it was recorded from, and crashes a cold one.
        let trace = Recorder::new()
            .record_fresh(Workload::CpuBound, 50, 1, 16 << 20)
            .1;
        let (_, _, warm, _) = replay_fresh(&trace, 16 << 20, true);
        assert_eq!(warm.metrics.len(), 50);
        assert!(!warm.metrics.last().unwrap().crashed);
        let (hv, _, cold, _) = replay_fresh(&trace, 16 << 20, false);
        assert!(cold.metrics.len() < 50);
        let line = hv.log.grep("bad RIP").last().expect("a crash line");
        assert!(line.message.contains("for mode 0"), "{}", line.message);
    }

    #[test]
    fn post_boot_replay_completes_cpu_and_idle() {
        // §VI-B continued: after replaying the OS_BOOT seeds, CPU-bound
        // and IDLE replays complete.
        let boot = record_trace(Workload::OsBoot, 400);
        for w in [Workload::CpuBound, Workload::Idle] {
            let trace = record_trace(w, 50);
            let (mut hv, mut engine, _, _) = replay_fresh(&boot, 16 << 20, false);
            let replayed = engine.replay_trace(&mut hv, &trace);
            assert_eq!(replayed.metrics.len(), 50, "{w:?} completed");
            assert!(!replayed.metrics.last().unwrap().crashed);
        }
    }

    #[test]
    fn overrides_do_not_leak_between_seeds() {
        // The override table is "cleared" by a generation bump, not a
        // memset — a stale entry from seed N must be invisible to seed
        // N+1 that does not set it.
        let mut hooks = ReplayHooks::new();
        hooks.begin_seed(1);
        hooks.set_override(VmcsField::ExitQualification, 0xdead);
        assert_eq!(hooks.on_vmread(VmcsField::ExitQualification, 7), 0xdead);
        hooks.begin_seed(0);
        assert_eq!(
            hooks.on_vmread(VmcsField::ExitQualification, 7),
            7,
            "previous seed's override leaked through the generation bump"
        );
        hooks.set_override(VmcsField::VmExitReason, 28);
        assert_eq!(hooks.on_vmread(VmcsField::VmExitReason, 1), 28);
        assert_eq!(hooks.on_vmread(VmcsField::GuestRip, 0x1000), 0x1000);
    }

    #[test]
    fn take_writes_resets_but_keeps_capacity() {
        let mut hooks = ReplayHooks::new();
        hooks.begin_seed(0);
        assert!(hooks.take_writes().is_empty());
        hooks.on_vmwrite(VmcsField::GuestRip, 1);
        hooks.on_vmwrite(VmcsField::GuestCr0, 2);
        let writes = hooks.take_writes();
        assert_eq!(
            writes,
            vec![(VmcsField::GuestRip, 1), (VmcsField::GuestCr0, 2)]
        );
        assert!(hooks.take_writes().is_empty());
    }

    #[test]
    fn replay_is_faster_than_real_execution() {
        let trace = record_trace(Workload::Idle, 200);
        let real_ms = trace.wall_time_ms();
        let (_, _, _, cycles) = replay_fresh(&trace, 16 << 20, true);
        let replay_ms = cycles as f64 / 3.6e6;
        assert!(
            replay_ms * 20.0 < real_ms,
            "IDLE: replay {replay_ms:.1}ms vs real {real_ms:.1}ms"
        );
    }
}
