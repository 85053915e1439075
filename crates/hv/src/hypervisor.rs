//! The hypervisor: domain lifecycle plus the VM-exit/VM-entry pipeline.
//!
//! [`Hypervisor::vm_exit`] is the full path of the paper's Fig. 1 steps
//! 4–5: hardware context switch, exit-information capture into the VMCS,
//! prologue sanity checks (including the `bad RIP for mode` check of
//! §VI-B), dispatch to the reason handler, `vmx_intr_assist`, the VM-entry
//! guest-state checks of SDM §26.3, and the hardware switch back. Every
//! VMCS access inside flows through the [`crate::hooks::VmxHooks`]
//! interposition, which is where IRIS records and replays.

use crate::coverage::{Component, CovSink, CoverageMap};
use crate::crash::{Crash, DomainCrashReason, HypervisorCrashReason};
use crate::ctx::{Disposition, ExitCtx};
use crate::domain::{Domain, DomainKind};
use crate::faults::FaultInjection;
use crate::handlers;
use crate::hooks::VmxHooks;
use crate::intr;
use crate::log::{Level, LogRing};
use crate::vcpu::RunState;
use iris_vtx::entry_checks;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use iris_vtx::tsc::VirtualTsc;

/// The physical facts of one VM exit, as the hardware would latch them
/// into the VM-exit information fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExitEvent {
    /// Basic exit reason.
    pub reason_number: u16,
    /// Exit qualification.
    pub qualification: u64,
    /// Guest-physical address (EPT exits).
    pub guest_physical: u64,
    /// Guest-linear address.
    pub guest_linear: u64,
    /// Instruction length for fault-free exits.
    pub instruction_len: u64,
    /// Exit interruption information (external interrupts, exceptions).
    pub intr_info: u64,
    /// Exit interruption error code.
    pub intr_error: u64,
    /// RCX at exit time for string I/O (the `IO_RCX` info field).
    pub io_rcx: u64,
}

impl ExitEvent {
    /// An event for the given reason with empty ancillary data.
    #[must_use]
    pub fn new(reason: ExitReason) -> Self {
        Self {
            reason_number: reason.number(),
            instruction_len: 2,
            ..Self::default()
        }
    }
}

/// What one trip through the exit pipeline produced.
#[derive(Debug, Clone)]
pub struct ExitOutcome {
    /// The reason the dispatch acted on (post-interposition — during
    /// replay this is the *seed's* reason, not the physical one).
    pub handled_reason: Option<ExitReason>,
    /// Coverage this exit contributed (already merged into the global
    /// map as well).
    pub coverage: CoverageMap,
    /// Cycles the whole exit→entry trip took on the virtual TSC.
    pub cycles: u64,
    /// Event vector injected at entry, if any.
    pub injected: Option<u8>,
    /// Crash produced by this exit, if any.
    pub crash: Option<Crash>,
    /// Whether the vCPU halted (HLT semantics).
    pub halted: bool,
}

/// Global hypervisor state. A clone is an image of the whole system —
/// every domain plus the clock, console, coverage and crash record —
/// that [`Hypervisor::restore_from`] can put back.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    /// All domains, indexed by position (domain id == index).
    pub domains: Vec<Domain>,
    /// Cumulative instrumented coverage.
    pub coverage: CoverageMap,
    /// The platform clock.
    pub tsc: VirtualTsc,
    /// The console.
    pub log: LogRing,
    /// Set once a hypervisor-fatal crash occurs.
    pub crashed: Option<HypervisorCrashReason>,
    /// Whether coverage instrumentation is compiled in.
    pub instrumented: bool,
    /// `xc_vmcs_fuzzing` toggles.
    pub fuzzing_ctl: crate::handlers::vmcall::FuzzingCtl,
    /// Planted handler bugs ([`FaultInjection::NONE`] on stock builds).
    pub faults: FaultInjection,
}

impl Default for Hypervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Hypervisor {
    /// Boot the hypervisor with Dom0 only.
    #[must_use]
    pub fn new() -> Self {
        let mut hv = Self {
            domains: vec![Domain::new(0, DomainKind::Control, 64 << 20)],
            coverage: CoverageMap::new(),
            tsc: VirtualTsc::new(),
            log: LogRing::default(),
            crashed: None,
            instrumented: true,
            fuzzing_ctl: crate::handlers::vmcall::FuzzingCtl::default(),
            faults: FaultInjection::NONE,
        };
        hv.log
            .push(0, Level::Info, "Xen-shaped hypervisor booted (IRIS model)");
        hv
    }

    /// Create an HVM DomU with the given RAM size; returns its id.
    pub fn create_hvm_domain(&mut self, ram_bytes: u64) -> u16 {
        let id = self.domains.len() as u16;
        let mut dom = Domain::new(id, DomainKind::Hvm, ram_bytes);
        handlers::cr::init_cr_state(&mut dom.vcpus[0]);
        self.log.push_with(self.tsc.now(), Level::Info, || {
            format!("created HVM domain {id}")
        });
        self.domains.push(dom);
        id
    }

    /// Make the whole system identical to `image` **in place**: every
    /// domain via [`Domain::restore_from`] (so the cost follows the state
    /// that diverged, not the RAM size), then the globals. This is how a
    /// hypervisor-fatal crash is undone without a rebuild — the result
    /// is indistinguishable from the system the image was cloned from.
    pub fn restore_from(&mut self, image: &Hypervisor) {
        self.domains.truncate(image.domains.len());
        for (slot, src) in self.domains.iter_mut().zip(&image.domains) {
            slot.restore_from(src);
        }
        let kept = self.domains.len();
        self.domains
            .extend(image.domains.iter().skip(kept).cloned());
        self.coverage.clone_from(&image.coverage);
        self.tsc.clone_from(&image.tsc);
        self.log.clone_from(&image.log);
        self.crashed.clone_from(&image.crashed);
        self.instrumented = image.instrumented;
        self.fuzzing_ctl = image.fuzzing_ctl;
        self.faults = image.faults;
    }

    /// Whether the whole system is still alive.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.crashed.is_none()
    }

    /// Drive one VM exit through the full pipeline.
    ///
    /// `hooks` is the IRIS interposition surface; pass
    /// [`crate::hooks::NoHooks`] for plain execution.
    pub fn vm_exit(
        &mut self,
        domain_id: u16,
        event: &ExitEvent,
        hooks: &mut dyn VmxHooks,
    ) -> ExitOutcome {
        let start = self.tsc.now();
        let faults = self.faults;
        let mut per_exit = CoverageMap::new();

        if self.crashed.is_some() {
            return ExitOutcome {
                handled_reason: None,
                coverage: per_exit,
                cycles: 0,
                injected: None,
                crash: self.crashed.clone().map(Crash::Hypervisor),
                halted: false,
            };
        }

        // --- Hardware VM exit: context switch + info-field latch. ------
        self.tsc.advance(crate::costs::HW_EXIT_CYCLES);
        let dom = &mut self.domains[domain_id as usize];
        let vcpu = &mut dom.vcpus[0];
        vcpu.exit_count += 1;
        let vmcs = &mut vcpu.vmcs;
        vmcs.hw_write(VmcsField::VmExitReason, u64::from(event.reason_number));
        vmcs.hw_write(VmcsField::ExitQualification, event.qualification);
        vmcs.hw_write(VmcsField::GuestPhysicalAddress, event.guest_physical);
        vmcs.hw_write(VmcsField::GuestLinearAddress, event.guest_linear);
        vmcs.hw_write(VmcsField::VmExitInstructionLen, event.instruction_len);
        vmcs.hw_write(VmcsField::VmExitIntrInfo, event.intr_info);
        vmcs.hw_write(VmcsField::VmExitIntrErrorCode, event.intr_error);
        vmcs.hw_write(VmcsField::IoRcx, event.io_rcx);

        // --- Build the handler context. ---------------------------------
        let Domain {
            vcpus,
            memory,
            ept,
            iobus,
            irq,
            vpt,
            ..
        } = dom;
        let vcpu = &mut vcpus[0];
        let mut cov = CovSink::new(&mut self.coverage, &mut per_exit);
        cov.set_enabled(self.instrumented);
        let mut ctx = ExitCtx {
            vcpu,
            domain_id,
            memory,
            ept,
            iobus,
            irq,
            vpt,
            cov,
            tsc: &mut self.tsc,
            log: &mut self.log,
            hooks,
        };

        // --- vmx_vmexit_handler prologue. --------------------------------
        ctx.cov.hit(Component::Vmx, 0);
        ctx.hooks.on_handler_entry(&ctx.vcpu.gprs);
        ctx.cov.hit(Component::Vmx, 1);
        let raw_reason = ctx.vmread(VmcsField::VmExitReason) as u16;
        let reason = ExitReason::from_number(raw_reason);

        // The mode/RIP consistency check of §VI-B.
        let rip = ctx.vmread(VmcsField::GuestRip);
        let mut disposition = if !ctx.vcpu.rip_valid_for_mode(rip) {
            ctx.cov.hit(Component::Vmx, 2);
            let mode = ctx.vcpu.hvm.mode;
            Disposition::CrashDomain(DomainCrashReason::BadRipForMode { mode, rip })
        } else {
            match reason {
                // A faulty build evaluates its planted defects on the way
                // into the handler; stock builds pay one branch.
                Some(r) => match faults.any().then(|| faults.check(&mut ctx, r)).flatten() {
                    Some(planted) => planted,
                    None => handlers::dispatch(&mut ctx, r),
                },
                None => {
                    ctx.cov.hit(Component::Vmx, 3);
                    Disposition::CrashHypervisor(HypervisorCrashReason::UnhandledExit {
                        reason: raw_reason,
                    })
                }
            }
        };

        // --- Post-handler: interrupt assist + RIP advance + entry. -------
        let mut injected = None;
        let mut halted = false;
        if matches!(
            disposition,
            Disposition::AdvanceAndResume | Disposition::Resume | Disposition::Halt
        ) {
            if matches!(disposition, Disposition::AdvanceAndResume) {
                let len = ctx.vmread(VmcsField::VmExitInstructionLen);
                let rip_now = ctx.vmread(VmcsField::GuestRip);
                ctx.vmwrite(VmcsField::GuestRip, rip_now.wrapping_add(len));
            }
            injected = intr::intr_assist(&mut ctx);
            if injected.is_some() && matches!(disposition, Disposition::Halt) {
                // An injection wakes a halting vCPU.
                halted = false;
                disposition = Disposition::Resume;
            } else {
                halted = matches!(disposition, Disposition::Halt);
            }

            // VM entry: the §26.3 checks guard semantic correctness.
            ctx.cov.hit(Component::Vmx, 4);
            if let Err(failure) = entry_checks::check_guest_state(&ctx.vcpu.vmcs) {
                ctx.cov.hit(Component::Vmx, 5);
                let now = ctx.tsc.now();
                ctx.log
                    .push_with(now, Level::Err, || format!("VM entry failure: {failure:?}"));
                disposition = Disposition::CrashDomain(DomainCrashReason::EntryFailure(failure));
            }
        }

        // Drain costs: handler blocks + hook (record/replay) overhead.
        let handler_cycles = ctx.cov.cycles;
        let hook_cycles = ctx.hooks.take_cycle_cost();
        self.tsc
            .advance(crate::costs::DISPATCH_CYCLES + handler_cycles + hook_cycles);
        self.tsc.advance(crate::costs::HW_ENTRY_CYCLES);

        // --- Apply the disposition. --------------------------------------
        let mut crash = None;
        match disposition {
            Disposition::AdvanceAndResume | Disposition::Resume => {}
            Disposition::Halt => {
                self.domains[domain_id as usize].vcpus[0].runstate = RunState::Halted;
            }
            Disposition::CrashDomain(reason) => {
                self.log
                    .push_with(self.tsc.now(), Level::Err, || reason.console_message());
                self.domains[domain_id as usize].crash(reason.clone());
                crash = Some(Crash::Domain {
                    domain: domain_id,
                    reason,
                });
            }
            Disposition::CrashHypervisor(reason) => {
                self.log
                    .push_with(self.tsc.now(), Level::Crit, || reason.console_message());
                self.crashed = Some(reason.clone());
                crash = Some(Crash::Hypervisor(reason));
            }
        }

        ExitOutcome {
            handled_reason: reason,
            coverage: per_exit,
            cycles: self.tsc.now() - start,
            injected,
            crash,
            halted,
        }
    }

    /// Wake a halted vCPU (interrupt arrival while blocked).
    pub fn wake(&mut self, domain_id: u16) {
        if let Some(d) = self.domains.get_mut(domain_id as usize) {
            if let Some(v) = d.vcpus.first_mut() {
                if matches!(v.runstate, RunState::Halted) {
                    v.runstate = RunState::Running;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use iris_vtx::gpr::Gpr;

    fn hv_with_domu() -> (Hypervisor, u16) {
        let mut hv = Hypervisor::new();
        let id = hv.create_hvm_domain(16 << 20);
        (hv, id)
    }

    #[test]
    fn cpuid_exit_round_trip() {
        let (mut hv, id) = hv_with_domu();
        hv.domains[id as usize].vcpus[0].gprs.set32(Gpr::Rax, 0);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert_eq!(out.handled_reason, Some(ExitReason::Cpuid));
        assert!(out.crash.is_none());
        assert!(out.cycles > crate::costs::HW_EXIT_CYCLES);
        assert!(out.coverage.lines() > 0);
        // EBX of leaf 0 = "Genu".
        assert_eq!(
            hv.domains[id as usize].vcpus[0].gprs.get32(Gpr::Rbx),
            0x756e_6547
        );
    }

    #[test]
    fn rip_advances_on_advance_dispositions() {
        let (mut hv, id) = hv_with_domu();
        let rip0 = hv.domains[id as usize].vcpus[0]
            .vmcs
            .read(VmcsField::GuestRip);
        let mut ev = ExitEvent::new(ExitReason::Rdtsc);
        ev.instruction_len = 2;
        hv.vm_exit(id, &ev, &mut NoHooks);
        let rip1 = hv.domains[id as usize].vcpus[0]
            .vmcs
            .read(VmcsField::GuestRip);
        assert_eq!(rip1, rip0 + 2);
    }

    #[test]
    fn bad_rip_for_mode_0_crashes_domain() {
        let (mut hv, id) = hv_with_domu();
        // Fresh domain is Mode1 (real); force a kernel RIP.
        hv.domains[id as usize].vcpus[0]
            .vmcs
            .hw_write(VmcsField::GuestRip, 0xffff_ffff_8100_0000);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Rdtsc), &mut NoHooks);
        assert!(matches!(
            out.crash,
            Some(Crash::Domain {
                reason: DomainCrashReason::BadRipForMode { .. },
                ..
            })
        ));
        assert_eq!(hv.log.grep("bad RIP").count(), 1);
        assert!(hv.log.grep("for mode 0").count() >= 1);
        assert!(!hv.domains[id as usize].is_alive());
        assert!(hv.is_alive(), "domain crash must not kill the hypervisor");
    }

    #[test]
    fn unhandled_reason_is_a_hypervisor_crash() {
        let (mut hv, id) = hv_with_domu();
        let ev = ExitEvent {
            reason_number: 11, // GETSEC: never configured to exit
            ..ExitEvent::default()
        };
        let out = hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(matches!(out.crash, Some(Crash::Hypervisor(_))));
        assert!(!hv.is_alive());
        // Further exits short-circuit.
        let out2 = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(out2.crash.is_some());
        assert_eq!(out2.cycles, 0);
    }

    #[test]
    fn hlt_halts_and_wake_resumes() {
        let (mut hv, id) = hv_with_domu();
        hv.domains[id as usize].vcpus[0]
            .vmcs
            .hw_write(VmcsField::GuestRflags, 0x202);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Hlt), &mut NoHooks);
        assert!(out.halted);
        assert_eq!(hv.domains[id as usize].vcpus[0].runstate, RunState::Halted);
        hv.wake(id);
        assert_eq!(hv.domains[id as usize].vcpus[0].runstate, RunState::Running);
    }

    #[test]
    fn entry_failure_crashes_domain() {
        let (mut hv, id) = hv_with_domu();
        // Corrupt the link pointer: §26.3 check must fire at entry.
        hv.domains[id as usize].vcpus[0]
            .vmcs
            .hw_write(VmcsField::VmcsLinkPointer, 0);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(matches!(
            out.crash,
            Some(Crash::Domain {
                reason: DomainCrashReason::EntryFailure(_),
                ..
            })
        ));
    }

    #[test]
    fn coverage_accumulates_globally_and_per_exit() {
        let (mut hv, id) = hv_with_domu();
        let o1 = hv.vm_exit(id, &ExitEvent::new(ExitReason::Rdtsc), &mut NoHooks);
        let global_after_one = hv.coverage.lines();
        let o2 = hv.vm_exit(id, &ExitEvent::new(ExitReason::Rdtsc), &mut NoHooks);
        // Same path: no new global lines, same per-exit set.
        assert_eq!(hv.coverage.lines(), global_after_one);
        assert_eq!(o1.coverage.lines(), o2.coverage.lines());
        assert!(o1.coverage.lines() > 0);
    }
}
