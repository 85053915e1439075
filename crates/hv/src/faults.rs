//! Planted handler bugs for ground-truth fuzzer evaluation.
//!
//! A fuzzer's Table I tells you what coverage the mutants opened, but not
//! whether the campaign would have *found* a real hypervisor bug. This
//! module is the answer the paper's methodology implies: a build variant
//! of the hypervisor with known defects planted on handler paths that are
//! unreachable from recorded (well-formed) seeds but reachable through
//! single-bit seed mutations. Campaigns against the faulty build have a
//! ground truth — every planted bug leaves a distinctive console banner,
//! so a report can state exactly which defects the fuzzing sequence
//! detected.
//!
//! The checks run *before* dispatch on [`crate::hypervisor::Hypervisor::vm_exit`]
//! and cost a single branch when no fault is armed, so the stock
//! configuration keeps its zero-overhead exit pipeline.

use crate::coverage::Component;
use crate::crash::{DomainCrashReason, HypervisorCrashReason};
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

/// CPUID leaves in `FAULT_LEAF_RANGE` walk off the end of a planted leaf
/// table. The range sits between the basic leaves and the hypervisor
/// leaves at `0x4000_0000`, so no recorded workload ever queries it — but
/// a single bit flip of a small recorded leaf (bits 12–29 of RAX) lands
/// inside.
pub const FAULT_LEAF_RANGE: std::ops::Range<u32> = 0x1000..0x4000_0000;

/// Which defects are planted. The default (`FaultInjection::NONE`) arms
/// nothing and is what every stock build runs with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// `cpuid.c`: a BUG_ON fires when the guest queries a leaf in
    /// [`FAULT_LEAF_RANGE`] (hypervisor crash; GPR-area mutations of
    /// `RAX` reach it).
    pub cpuid_reserved_leaf: bool,
    /// `vmx/cr.c`: the CR-access path treats qualification bits 63:32 as
    /// a pointer and faults in root mode when any is set (hypervisor
    /// crash; VMCS-area mutations of the exit qualification reach it).
    pub cr_qual_reserved_bits: bool,
    /// `io.c`: an I/O qualification with bits 63:32 set programs a DMA
    /// window beyond the emulated bus and kills the domain (VM crash;
    /// VMCS-area mutations of the exit qualification reach it).
    pub io_dma_window: bool,
}

/// One planted defect's ground-truth descriptor: how a detection report
/// recognises it in a crash corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedFault {
    /// Short name for reports.
    pub name: &'static str,
    /// Substring the crash console banner carries iff this fault fired.
    pub banner: &'static str,
    /// Whether firing it is hypervisor-fatal (vs a domain crash).
    pub hypervisor_fatal: bool,
}

const CPUID_BANNER: &str = "Xen BUG at cpuid.c";
const CR_BANNER: &str = "cr_access qualification";
const IO_BANNER: &str = "DMA window beyond bus";

impl FaultInjection {
    /// No planted faults — the stock hypervisor.
    pub const NONE: FaultInjection = FaultInjection {
        cpuid_reserved_leaf: false,
        cr_qual_reserved_bits: false,
        io_dma_window: false,
    };

    /// The full faulty build: every known defect planted.
    #[must_use]
    pub const fn planted() -> FaultInjection {
        FaultInjection {
            cpuid_reserved_leaf: true,
            cr_qual_reserved_bits: true,
            io_dma_window: true,
        }
    }

    /// Whether any fault is armed (the hot path's single branch).
    #[must_use]
    pub const fn any(&self) -> bool {
        self.cpuid_reserved_leaf || self.cr_qual_reserved_bits || self.io_dma_window
    }

    /// Ground-truth descriptors of the defects [`FaultInjection::planted`]
    /// arms, in a fixed report order.
    #[must_use]
    pub const fn descriptors() -> &'static [PlantedFault] {
        &[
            PlantedFault {
                name: "cpuid reserved-leaf BUG",
                banner: CPUID_BANNER,
                hypervisor_fatal: true,
            },
            PlantedFault {
                name: "cr-access qualification pointer",
                banner: CR_BANNER,
                hypervisor_fatal: true,
            },
            PlantedFault {
                name: "io DMA window overflow",
                banner: IO_BANNER,
                hypervisor_fatal: false,
            },
        ]
    }

    /// Evaluate the armed faults against the exit about to be dispatched.
    /// Returns the crash disposition of the first defect that fires, or
    /// `None` to proceed into the real handler.
    ///
    /// Reads go through the interposed [`ExitCtx::vmread`], so replayed
    /// (and mutated) seed values trigger faults exactly like hardware
    /// values would.
    pub fn check(&self, ctx: &mut ExitCtx<'_>, reason: ExitReason) -> Option<Disposition> {
        match reason {
            ExitReason::Cpuid if self.cpuid_reserved_leaf => {
                let leaf = ctx.vcpu.gprs.get32(Gpr::Rax);
                if FAULT_LEAF_RANGE.contains(&leaf) {
                    ctx.cov.hit(Component::Vmx, 240);
                    return Some(Disposition::CrashHypervisor(HypervisorCrashReason::BugOn {
                        component: "cpuid.c".to_owned(),
                        condition: format!(
                            "planted: reserved leaf {leaf:#x} indexed the leaf table"
                        ),
                    }));
                }
            }
            ExitReason::CrAccess if self.cr_qual_reserved_bits => {
                let qual = ctx.vmread(VmcsField::ExitQualification);
                if qual >> 32 != 0 {
                    ctx.cov.hit(Component::Vmx, 241);
                    return Some(Disposition::CrashHypervisor(
                        HypervisorCrashReason::HostPageFault {
                            addr: qual,
                            context: "planted: cr_access qualification used as pointer".to_owned(),
                        },
                    ));
                }
            }
            ExitReason::IoInstruction if self.io_dma_window => {
                let qual = ctx.vmread(VmcsField::ExitQualification);
                if qual >> 32 != 0 {
                    ctx.cov.hit(Component::Vmx, 242);
                    return Some(Disposition::CrashDomain(DomainCrashReason::IoError {
                        detail: format!("planted: DMA window beyond bus (qual {qual:#x})"),
                    }));
                }
            }
            _ => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::hypervisor::{ExitEvent, Hypervisor};
    use crate::vcpu::RunState;

    fn faulty_with_domu() -> (Hypervisor, u16) {
        let mut hv = Hypervisor::new();
        hv.faults = FaultInjection::planted();
        let id = hv.create_hvm_domain(16 << 20);
        (hv, id)
    }

    #[test]
    fn stock_config_arms_nothing() {
        assert!(!FaultInjection::NONE.any());
        assert!(!FaultInjection::default().any());
        assert!(FaultInjection::planted().any());
        assert_eq!(Hypervisor::new().faults, FaultInjection::NONE);
    }

    #[test]
    fn well_formed_exits_do_not_trigger_planted_faults() {
        let (mut hv, id) = faulty_with_domu();
        // The recorded workloads' leaves/quals never enter the fault
        // windows; the faulty build behaves identically on them.
        hv.domains[id as usize].vcpus[0]
            .gprs
            .set32(iris_vtx::gpr::Gpr::Rax, 0);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(out.crash.is_none());
        let mut ev = ExitEvent::new(ExitReason::IoInstruction);
        ev.qualification = iris_vtx::exit::IoQual {
            size: 1,
            direction: iris_vtx::exit::IoDirection::Out,
            string: false,
            rep: false,
            port: 0x3f8,
        }
        .encode();
        let out = hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(out.crash.is_none(), "{:?}", out.crash);
    }

    #[test]
    fn reserved_cpuid_leaf_is_a_planted_hypervisor_bug() {
        let (mut hv, id) = faulty_with_domu();
        hv.domains[id as usize].vcpus[0]
            .gprs
            .set32(iris_vtx::gpr::Gpr::Rax, 0x0010_0000); // bit 20 of leaf 0
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(matches!(
            out.crash,
            Some(crate::crash::Crash::Hypervisor(_))
        ));
        assert!(!hv.is_alive());
        assert_eq!(hv.log.grep(CPUID_BANNER).count(), 1);
    }

    #[test]
    fn reserved_cr_qualification_bits_fault_in_root_mode() {
        let (mut hv, id) = faulty_with_domu();
        let mut ev = ExitEvent::new(ExitReason::CrAccess);
        ev.qualification = 1u64 << 40; // reserved bits 63:32
        let out = hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(matches!(
            out.crash,
            Some(crate::crash::Crash::Hypervisor(_))
        ));
        assert!(hv.log.grep("FATAL PAGE FAULT").count() >= 1);
        assert!(hv.log.grep(CR_BANNER).count() >= 1);
    }

    #[test]
    fn dma_window_fault_crashes_only_the_domain() {
        let (mut hv, id) = faulty_with_domu();
        let mut ev = ExitEvent::new(ExitReason::IoInstruction);
        ev.qualification = (1u64 << 33) | (0x3f8 << 16);
        let out = hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(matches!(
            out.crash,
            Some(crate::crash::Crash::Domain { .. })
        ));
        assert!(hv.is_alive(), "domain-level planted fault");
        assert!(!hv.domains[id as usize].is_alive());
        assert!(hv.log.grep(IO_BANNER).count() >= 1);
    }

    #[test]
    fn stock_hypervisor_ignores_the_fault_windows() {
        let mut hv = Hypervisor::new();
        let id = hv.create_hvm_domain(16 << 20);
        hv.domains[id as usize].vcpus[0]
            .gprs
            .set32(iris_vtx::gpr::Gpr::Rax, 0x0010_0000);
        let out = hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(
            out.crash.is_none(),
            "stock build: unsupported leaf is benign"
        );
        assert_ne!(hv.domains[id as usize].vcpus[0].runstate, RunState::Halted);
    }

    #[test]
    fn descriptors_match_the_fired_banners() {
        // Every descriptor's banner substring must appear in the console
        // when its fault fires — the contract detection reports rely on.
        let descs = FaultInjection::descriptors();
        assert_eq!(descs.len(), 3);

        let (mut hv, id) = faulty_with_domu();
        hv.domains[id as usize].vcpus[0]
            .gprs
            .set32(iris_vtx::gpr::Gpr::Rax, 0x2000);
        hv.vm_exit(id, &ExitEvent::new(ExitReason::Cpuid), &mut NoHooks);
        assert!(hv.log.grep(descs[0].banner).count() >= 1);
        assert!(descs[0].hypervisor_fatal);

        let (mut hv, id) = faulty_with_domu();
        let mut ev = ExitEvent::new(ExitReason::CrAccess);
        ev.qualification = 1u64 << 35;
        hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(hv.log.grep(descs[1].banner).count() >= 1);

        let (mut hv, id) = faulty_with_domu();
        let mut ev = ExitEvent::new(ExitReason::IoInstruction);
        ev.qualification = 1u64 << 50;
        hv.vm_exit(id, &ev, &mut NoHooks);
        assert!(hv.log.grep(descs[2].banner).count() >= 1);
        assert!(!descs[2].hypervisor_fatal);
    }
}
