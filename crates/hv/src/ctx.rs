//! The per-exit handler context.
//!
//! [`ExitCtx`] bundles everything one VM-exit handler may touch: the vCPU
//! (VMCS + GPRs + HVM state), the owning domain's memory/EPT/devices, the
//! coverage sink, the virtual TSC, the console, and the interposition
//! hooks. All VMCS traffic goes through [`ExitCtx::vmread`] /
//! [`ExitCtx::vmwrite`] so that IRIS sees every access, exactly like the
//! instrumented `vmread()`/`vmwrite()` wrappers in the paper's Xen patches.

use crate::coverage::{Component, CovSink};
use crate::crash::HypervisorCrashReason;
use crate::devices::IoBus;
use crate::hooks::VmxHooks;
use crate::irq::HvmIrq;
use crate::log::{Level, LogRing};
use crate::mm::{GuestMemError, GuestMemory};
use crate::vcpu::HvVcpu;
use crate::vpt::Vpt;
use iris_vtx::ept::Ept;
use iris_vtx::fields::VmcsField;
use iris_vtx::tsc::VirtualTsc;

/// Exception vectors handlers inject.
pub mod vector {
    /// #UD — invalid opcode.
    pub const UD: u8 = 6;
    /// #DF — double fault.
    pub const DF: u8 = 8;
    /// #GP — general protection.
    pub const GP: u8 = 13;
    /// #PF — page fault.
    pub const PF: u8 = 14;
}

/// What the handler wants done with the vCPU afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Advance RIP past the exiting instruction and resume.
    AdvanceAndResume,
    /// Resume without advancing (fault-style exits, e.g. EPT violations
    /// that were resolved by mapping the page).
    Resume,
    /// The vCPU halts until an interrupt (HLT with nothing pending).
    Halt,
    /// The domain must be crashed.
    CrashDomain(crate::crash::DomainCrashReason),
    /// The hypervisor hit a BUG/fatal trap.
    CrashHypervisor(HypervisorCrashReason),
}

/// The context one exit handler runs in.
pub struct ExitCtx<'a> {
    /// The exiting vCPU.
    pub vcpu: &'a mut HvVcpu,
    /// Owning domain id.
    pub domain_id: u16,
    /// Domain guest memory.
    pub memory: &'a mut GuestMemory,
    /// Domain EPT.
    pub ept: &'a mut Ept,
    /// Domain port-I/O devices.
    pub iobus: &'a mut IoBus,
    /// Domain IRQ routing.
    pub irq: &'a mut HvmIrq,
    /// Domain platform timers.
    pub vpt: &'a mut Vpt,
    /// Coverage sink for this exit.
    pub cov: CovSink<'a>,
    /// The global clock.
    pub tsc: &'a mut VirtualTsc,
    /// The hypervisor console.
    pub log: &'a mut LogRing,
    /// IRIS interposition hooks.
    pub hooks: &'a mut dyn VmxHooks,
}

impl ExitCtx<'_> {
    /// Instrumented `vmread()`: the value the handler observes may be
    /// substituted by the hooks (IRIS replay of read-only fields).
    pub fn vmread(&mut self, field: VmcsField) -> u64 {
        let real = self.vcpu.vmcs.read(field);
        self.hooks.on_vmread(field, real)
    }

    /// Instrumented `vmwrite()`. Writing a read-only field is a
    /// hypervisor bug in Xen (`__vmwrite` BUG()s on failure) — the model
    /// logs it and reports the would-be crash to the caller via the
    /// console; handlers never do this on un-fuzzed paths.
    pub fn vmwrite(&mut self, field: VmcsField, value: u64) {
        self.hooks.on_vmwrite(field, value);
        if self.vcpu.vmcs.write(field, value).is_err() {
            self.log.push(
                self.tsc.now(),
                Level::Crit,
                format!("__vmwrite failed for {field:?}"),
            );
        }
    }

    /// `hvm_copy_from_guest_phys` with coverage attribution.
    pub fn copy_from_guest(&mut self, gpa: u64, buf: &mut [u8]) -> Result<(), GuestMemError> {
        self.cov.hit(Component::Hvm, 0);
        let r = self.memory.copy_from_guest(gpa, buf);
        if r.is_err() {
            self.cov.hit(Component::Hvm, 1);
        }
        r
    }

    /// `hvm_copy_to_guest_phys` with coverage attribution.
    pub fn copy_to_guest(&mut self, gpa: u64, data: &[u8]) -> Result<(), GuestMemError> {
        self.cov.hit(Component::Hvm, 2);
        let r = self.memory.copy_to_guest(gpa, data);
        if r.is_err() {
            self.cov.hit(Component::Hvm, 3);
        }
        r
    }

    /// Queue an exception for injection at the next VM entry
    /// (`hvm_inject_hw_exception`). A second exception while one is
    /// pending escalates to a double fault; a third is a triple fault.
    pub fn inject_exception(&mut self, vec: u8, error_code: Option<u32>) -> Option<Disposition> {
        self.cov.hit(Component::Vmx, 200);
        match self.vcpu.hvm.pending_event {
            None => {
                self.vcpu.hvm.pending_event = Some((vec, error_code));
                self.vcpu.hvm.injected_events += 1;
                None
            }
            Some((vector::DF, _)) => {
                self.cov.hit(Component::Vmx, 201);
                self.log
                    .push(self.tsc.now(), Level::Err, "triple fault".to_owned());
                Some(Disposition::CrashDomain(
                    crate::crash::DomainCrashReason::TripleFault,
                ))
            }
            Some(_) => {
                self.cov.hit(Component::Vmx, 202);
                self.vcpu.hvm.pending_event = Some((vector::DF, Some(0)));
                self.vcpu.hvm.injected_events += 1;
                None
            }
        }
    }

    /// Inject #GP(0) — the most common handler fault path.
    pub fn inject_gp(&mut self) -> Option<Disposition> {
        self.cov.hit(Component::Vmx, 203);
        self.inject_exception(vector::GP, Some(0))
    }
}

/// Test support: a throwaway context over owned parts.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use crate::crash::DomainCrashReason;
    use crate::hooks::NoHooks;

    /// Build a throwaway context over owned parts; returns the closure's
    /// result. Shared by other modules' tests.
    pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut ExitCtx<'_>) -> R) -> R {
        let mut vcpu = HvVcpu::new(0);
        let mut memory = GuestMemory::new(1 << 20);
        let mut ept = Ept::new();
        ept.map_ram(0, 0, 256);
        let mut iobus = IoBus::new();
        let mut irq = HvmIrq::new();
        let mut vpt = Vpt::new();
        let mut global = CoverageMap::new();
        let mut per_exit = CoverageMap::new();
        let mut tsc = VirtualTsc::new();
        let mut log = LogRing::default();
        let mut hooks = NoHooks;
        let cov = CovSink::new(&mut global, &mut per_exit);
        let mut ctx = ExitCtx {
            vcpu: &mut vcpu,
            domain_id: 1,
            memory: &mut memory,
            ept: &mut ept,
            iobus: &mut iobus,
            irq: &mut irq,
            vpt: &mut vpt,
            cov,
            tsc: &mut tsc,
            log: &mut log,
            hooks: &mut hooks,
        };
        f(&mut ctx)
    }

    #[test]
    fn vmread_vmwrite_round_trip_through_hooks() {
        with_ctx(|ctx| {
            ctx.vmwrite(VmcsField::GuestRip, 0x1234);
            assert_eq!(ctx.vmread(VmcsField::GuestRip), 0x1234);
        });
    }

    #[test]
    fn vmwrite_to_read_only_logs_but_does_not_panic() {
        with_ctx(|ctx| {
            ctx.vmwrite(VmcsField::VmExitReason, 3);
            assert_eq!(ctx.log.grep("__vmwrite failed").count(), 1);
        });
    }

    #[test]
    fn exception_escalation_gp_df_triple_fault() {
        with_ctx(|ctx| {
            assert_eq!(ctx.inject_gp(), None);
            assert_eq!(ctx.vcpu.hvm.pending_event, Some((vector::GP, Some(0))));
            // Second fault while #GP pending → #DF.
            assert_eq!(ctx.inject_exception(vector::PF, Some(2)), None);
            assert_eq!(ctx.vcpu.hvm.pending_event, Some((vector::DF, Some(0))));
            // Third → triple fault → domain crash.
            assert_eq!(
                ctx.inject_gp(),
                Some(Disposition::CrashDomain(DomainCrashReason::TripleFault))
            );
        });
    }

    #[test]
    fn guest_copy_helpers_track_coverage_on_failure() {
        with_ctx(|ctx| {
            let mut b = [0u8; 4];
            assert!(ctx.copy_from_guest(0x9_0000, &mut b).is_err());
            ctx.copy_to_guest(0x100, &[1, 2]).unwrap();
            ctx.copy_from_guest(0x100, &mut b[..2]).unwrap();
            assert_eq!(&b[..2], &[1, 2]);
        });
    }
}
