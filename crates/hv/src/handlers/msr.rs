//! `MSR READ` / `MSR WRITE` handling.
//!
//! The MSR index comes from RCX, data moves through RDX:RAX — all in the
//! GPR save area, hence fully captured in VM seeds. Writes to EFER and the
//! APIC base have side effects (mode bookkeeping, MMIO relocation); writes
//! to IA32_TSC program the VMCS TSC offset — a `VMWRITE` the accuracy
//! experiment observes.
//!
//! Coverage: component `Hvm` blocks 50–79.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;
use iris_vtx::msr::{index, MsrOutcome};

/// Entry point for `MSR READ` (RDMSR) exits.
pub fn handle_read(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Hvm, 50);
    let msr = ctx.vcpu.gprs.get32(Gpr::Rcx);
    let value = match msr {
        index::IA32_TSC => {
            ctx.cov.hit(Component::Hvm, 51);
            let offset = ctx.vmread(VmcsField::TscOffset);
            ctx.tsc.now().wrapping_add(offset)
        }
        index::IA32_APIC_BASE => {
            ctx.cov.hit(Component::Hvm, 52);
            match ctx.vcpu.hvm.msrs.read(msr, 0) {
                MsrOutcome::Ok(v) => v,
                MsrOutcome::GpFault => return gp(ctx),
            }
        }
        index::IA32_EFER => {
            ctx.cov.hit(Component::Hvm, 53);
            // EFER reads come from the VMCS copy (LMA lives there).
            ctx.vmread(VmcsField::GuestIa32Efer)
        }
        _ => {
            ctx.cov.hit(Component::Hvm, 54);
            match ctx.vcpu.hvm.msrs.read(msr, ctx.tsc.now()) {
                MsrOutcome::Ok(v) => v,
                MsrOutcome::GpFault => {
                    ctx.cov.hit(Component::Hvm, 55);
                    ctx.log.push(
                        ctx.tsc.now(),
                        crate::log::Level::Debug,
                        format!("rdmsr {msr:#x} -> #GP"),
                    );
                    return gp(ctx);
                }
            }
        }
    };
    ctx.vcpu.gprs.set32(Gpr::Rax, value as u32);
    ctx.vcpu.gprs.set32(Gpr::Rdx, (value >> 32) as u32);
    Disposition::AdvanceAndResume
}

/// Entry point for `MSR WRITE` (WRMSR) exits.
pub fn handle_write(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Hvm, 60);
    let msr = ctx.vcpu.gprs.get32(Gpr::Rcx);
    let value =
        u64::from(ctx.vcpu.gprs.get32(Gpr::Rax)) | (u64::from(ctx.vcpu.gprs.get32(Gpr::Rdx)) << 32);
    match msr {
        index::IA32_TSC => {
            ctx.cov.hit(Component::Hvm, 61);
            // Guest TSC writes become a VMCS TSC-offset programming.
            let offset = value.wrapping_sub(ctx.tsc.now());
            ctx.vmwrite(VmcsField::TscOffset, offset);
        }
        index::IA32_EFER => {
            ctx.cov.hit(Component::Hvm, 62);
            match ctx.vcpu.hvm.msrs.write(msr, value) {
                MsrOutcome::Ok(v) => {
                    // LMA is hardware-derived: LME together with the
                    // *hardware* CR0.PG (always set under the shadow-
                    // paging trick) activates long mode.
                    let hw_pg = ctx.vmread(VmcsField::GuestCr0) & iris_vtx::cr::cr0::PG != 0;
                    let lma = if v & iris_vtx::cr::efer::LME != 0 && hw_pg {
                        iris_vtx::cr::efer::LMA
                    } else {
                        0
                    };
                    ctx.vmwrite(VmcsField::GuestIa32Efer, v | lma);
                }
                MsrOutcome::GpFault => {
                    ctx.cov.hit(Component::Hvm, 63);
                    return gp(ctx);
                }
            }
        }
        index::IA32_APIC_BASE => {
            ctx.cov.hit(Component::Hvm, 64);
            match ctx.vcpu.hvm.msrs.write(msr, value) {
                MsrOutcome::Ok(_) => {
                    // Relocating the APIC page moves the MMIO mapping.
                    ctx.cov.hit(Component::P2m, 15);
                    ctx.ept.map_mmio(value >> iris_vtx::ept::PAGE_SHIFT);
                }
                MsrOutcome::GpFault => return gp(ctx),
            }
        }
        index::IA32_SYSENTER_CS => {
            ctx.cov.hit(Component::Hvm, 65);
            let _ = ctx.vcpu.hvm.msrs.write(msr, value);
            ctx.vmwrite(VmcsField::GuestSysenterCs, value);
        }
        index::IA32_SYSENTER_ESP => {
            ctx.cov.hit(Component::Hvm, 66);
            let _ = ctx.vcpu.hvm.msrs.write(msr, value);
            ctx.vmwrite(VmcsField::GuestSysenterEsp, value);
        }
        index::IA32_SYSENTER_EIP => {
            ctx.cov.hit(Component::Hvm, 67);
            let _ = ctx.vcpu.hvm.msrs.write(msr, value);
            ctx.vmwrite(VmcsField::GuestSysenterEip, value);
        }
        index::IA32_FS_BASE => {
            ctx.cov.hit(Component::Hvm, 68);
            let _ = ctx.vcpu.hvm.msrs.write(msr, value);
            ctx.vmwrite(VmcsField::GuestFsBase, value);
        }
        index::IA32_GS_BASE => {
            ctx.cov.hit(Component::Hvm, 69);
            let _ = ctx.vcpu.hvm.msrs.write(msr, value);
            ctx.vmwrite(VmcsField::GuestGsBase, value);
        }
        _ => {
            ctx.cov.hit(Component::Hvm, 70);
            if let MsrOutcome::GpFault = ctx.vcpu.hvm.msrs.write(msr, value) {
                ctx.cov.hit(Component::Hvm, 71);
                ctx.log.push(
                    ctx.tsc.now(),
                    crate::log::Level::Debug,
                    format!("wrmsr {msr:#x} <- {value:#x} -> #GP"),
                );
                return gp(ctx);
            }
        }
    }
    Disposition::AdvanceAndResume
}

fn gp(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    fn rdmsr(ctx: &mut ExitCtx<'_>, msr: u32) -> u64 {
        ctx.vcpu.gprs.set32(Gpr::Rcx, msr);
        handle_read(ctx);
        u64::from(ctx.vcpu.gprs.get32(Gpr::Rax)) | (u64::from(ctx.vcpu.gprs.get32(Gpr::Rdx)) << 32)
    }

    fn wrmsr(ctx: &mut ExitCtx<'_>, msr: u32, v: u64) -> Disposition {
        ctx.vcpu.gprs.set32(Gpr::Rcx, msr);
        ctx.vcpu.gprs.set32(Gpr::Rax, v as u32);
        ctx.vcpu.gprs.set32(Gpr::Rdx, (v >> 32) as u32);
        handle_write(ctx)
    }

    #[test]
    fn tsc_read_applies_vmcs_offset() {
        with_ctx(|ctx| {
            ctx.tsc.advance(1000);
            ctx.vcpu.vmcs.hw_write(VmcsField::TscOffset, 500);
            assert_eq!(rdmsr(ctx, index::IA32_TSC), 1500);
        });
    }

    #[test]
    fn tsc_write_programs_offset_via_vmwrite() {
        with_ctx(|ctx| {
            ctx.tsc.advance(10_000);
            wrmsr(ctx, index::IA32_TSC, 4_000);
            let off = ctx.vcpu.vmcs.read(VmcsField::TscOffset);
            assert_eq!(off, 4_000u64.wrapping_sub(10_000));
            assert_eq!(rdmsr(ctx, index::IA32_TSC), 4_000);
        });
    }

    #[test]
    fn unknown_msr_injects_gp_and_logs() {
        with_ctx(|ctx| {
            rdmsr(ctx, 0xdead);
            assert!(ctx.vcpu.hvm.pending_event.is_some());
            assert_eq!(ctx.log.grep("rdmsr 0xdead").count(), 1);
        });
    }

    #[test]
    fn efer_lme_activates_lma_under_hardware_paging() {
        with_ctx(|ctx| {
            // The HVM shadow trick keeps hardware CR0.PG set.
            ctx.vcpu.vmcs.hw_write(
                VmcsField::GuestCr0,
                iris_vtx::cr::cr0::PE | iris_vtx::cr::cr0::PG | iris_vtx::cr::cr0::ET,
            );
            wrmsr(ctx, index::IA32_EFER, iris_vtx::cr::efer::LME);
            let e = ctx.vcpu.vmcs.read(VmcsField::GuestIa32Efer);
            assert_ne!(e & iris_vtx::cr::efer::LME, 0);
            assert_ne!(e & iris_vtx::cr::efer::LMA, 0);
            // Without hardware PG, LMA stays clear.
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::GuestCr0, iris_vtx::cr::cr0::ET);
            wrmsr(ctx, index::IA32_EFER, iris_vtx::cr::efer::LME);
            let e = ctx.vcpu.vmcs.read(VmcsField::GuestIa32Efer);
            assert_eq!(e & iris_vtx::cr::efer::LMA, 0);
        });
    }

    #[test]
    fn apic_base_relocation_remaps_mmio() {
        with_ctx(|ctx| {
            let before = ctx.ept.entry(0xfed00);
            assert!(before.is_none());
            wrmsr(ctx, index::IA32_APIC_BASE, 0xfed0_0800);
            assert!(ctx.ept.entry(0xfed00).is_some());
        });
    }

    #[test]
    fn sysenter_writes_mirror_into_vmcs() {
        with_ctx(|ctx| {
            wrmsr(ctx, index::IA32_SYSENTER_EIP, 0xc000_1000);
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::GuestSysenterEip), 0xc000_1000);
        });
    }
}
