//! `CR ACCESS` handling — the paper's Fig. 2 walkthrough.
//!
//! A `MOV CR0` from the guest arrives with a qualification naming the
//! register, access type and GPR operand. The handler reads the guest
//! state it needs from the VMCS (`VMREAD`s — captured in the VM seed),
//! consults its internal variables (the cached CRs and mode abstraction in
//! [`crate::vcpu::HvmVcpu`]), and publishes the new state with `VMWRITE`s
//! to the guest-state area and the read shadows — the writes the paper's
//! Fig. 8 validates with 100% fitting.
//!
//! Coverage: component `Vmx` blocks 20–69 plus `Hvm` blocks 10–49 and
//! `P2m` blocks 10–19 for the paging-structure updates.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::cr::{cr0, cr4, efer, guest_visible_cr, Cr0, Cr4};
use iris_vtx::exit::{CrAccessQual, CrAccessType};
use iris_vtx::fields::VmcsField;

/// Host-owned CR0 bits on the paper's (non-unrestricted-guest) setup:
/// the hypervisor pins PE/PG/NE/ET in hardware and lets the guest see its
/// own values through the read shadow.
pub const CR0_HOST_OWNED: u64 = cr0::PE | cr0::PG | cr0::NE | cr0::ET;

/// Host-owned CR4 bits: VMXE must stay hidden from the guest, PAE is
/// controlled for the shadow paging structures.
pub const CR4_HOST_OWNED: u64 = cr4::VMXE;

/// Entry point for `CR ACCESS` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 20);
    let qual = CrAccessQual::decode(ctx.vmread(VmcsField::ExitQualification));
    match qual.access {
        CrAccessType::MovToCr => mov_to_cr(ctx, qual),
        CrAccessType::MovFromCr => mov_from_cr(ctx, qual),
        CrAccessType::Clts => clts(ctx),
        CrAccessType::Lmsw => lmsw(ctx, qual.lmsw_source),
    }
}

fn mov_to_cr(ctx: &mut ExitCtx<'_>, qual: CrAccessQual) -> Disposition {
    ctx.cov.hit(Component::Vmx, 21);
    let value = match qual.gpr {
        Some(g) => ctx.vcpu.gprs.get(g),
        None => ctx.vmread(VmcsField::GuestRsp),
    };
    match qual.cr {
        0 => write_cr0(ctx, value),
        3 => write_cr3(ctx, value),
        4 => write_cr4(ctx, value),
        8 => {
            ctx.cov.hit(Component::Vmx, 22);
            ctx.vcpu.hvm.vlapic.tpr = ((value & 0xf) << 4) as u32;
            Disposition::AdvanceAndResume
        }
        other => {
            ctx.cov.hit(Component::Vmx, 23);
            ctx.log.push(
                ctx.tsc.now(),
                crate::log::Level::Warning,
                format!("mov to unsupported cr{other}"),
            );
            ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume)
        }
    }
}

/// The Fig. 2 scenario: `mov cr0, eax` with PE being set.
fn write_cr0(ctx: &mut ExitCtx<'_>, wanted: u64) -> Disposition {
    ctx.cov.hit(Component::Hvm, 10);
    // Xen's hvm_set_cr0: validate first.
    if !Cr0(wanted).is_valid_write() {
        ctx.cov.hit(Component::Hvm, 11);
        return ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume);
    }
    let old_view = ctx.vcpu.hvm.guest_cr[0];
    let mask = ctx.vmread(VmcsField::Cr0GuestHostMask);

    // Paging enablement/disablement needs structure updates before the
    // VMWRITEs (hvm_update_guest_cr0 → paging path).
    let pg_toggled = (old_view ^ wanted) & cr0::PG != 0;
    if pg_toggled {
        ctx.cov.hit(Component::P2m, 10);
        if wanted & cr0::PG != 0 {
            ctx.cov.hit(Component::P2m, 11);
            // Long-mode activation: PG=1 with EFER.LME set turns on LMA.
            let gefer = ctx.vmread(VmcsField::GuestIa32Efer);
            if gefer & efer::LME != 0 {
                ctx.cov.hit(Component::Hvm, 12);
                ctx.vmwrite(VmcsField::GuestIa32Efer, gefer | efer::LMA);
            }
        } else {
            ctx.cov.hit(Component::P2m, 12);
            let gefer = ctx.vmread(VmcsField::GuestIa32Efer);
            if gefer & efer::LMA != 0 {
                ctx.vmwrite(VmcsField::GuestIa32Efer, gefer & !efer::LMA);
            }
        }
    }

    // The VMWRITE trio of Fig. 2: shadow, hardware CR0, and the mask
    // stays as configured.
    ctx.vmwrite(VmcsField::Cr0ReadShadow, wanted);
    let hw = (wanted & !mask) | (CR0_HOST_OWNED & mask) | (wanted & mask & (cr0::PE | cr0::PG));
    ctx.vmwrite(VmcsField::GuestCr0, hw | cr0::NE | cr0::ET);

    // Internal-variable update: the mode abstraction follows the guest's
    // *view* of CR0.
    ctx.vcpu.hvm.update_cr0(wanted);
    ctx.cov.hit(Component::Vcpu, 0);
    if (old_view ^ wanted) & cr0::PE != 0 {
        ctx.cov.hit(Component::Hvm, 13);
        ctx.log.push(
            ctx.tsc.now(),
            crate::log::Level::Debug,
            format!(
                "d{}v{} {} protected mode",
                ctx.domain_id,
                ctx.vcpu.id,
                if wanted & cr0::PE != 0 {
                    "entering"
                } else {
                    "leaving"
                }
            ),
        );
    }
    Disposition::AdvanceAndResume
}

fn write_cr3(ctx: &mut ExitCtx<'_>, value: u64) -> Disposition {
    ctx.cov.hit(Component::Hvm, 14);
    ctx.vcpu.hvm.guest_cr[3] = value;
    ctx.vmwrite(VmcsField::GuestCr3, value);
    // A CR3 load flushes the TLB — paging-structure bookkeeping — and
    // refreshes the PDPTEs under PAE paging.
    ctx.cov.hit(Component::P2m, 13);
    if ctx.vcpu.hvm.guest_cr[4] & cr4::PAE != 0 {
        load_pdptrs(ctx);
    }
    Disposition::AdvanceAndResume
}

fn write_cr4(ctx: &mut ExitCtx<'_>, wanted: u64) -> Disposition {
    ctx.cov.hit(Component::Hvm, 15);
    if !Cr4(wanted).is_valid_write() {
        ctx.cov.hit(Component::Hvm, 16);
        return ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume);
    }
    let mask = ctx.vmread(VmcsField::Cr4GuestHostMask);
    ctx.vmwrite(VmcsField::Cr4ReadShadow, wanted);
    ctx.vmwrite(
        VmcsField::GuestCr4,
        (wanted & !mask) | ((CR4_HOST_OWNED | wanted) & mask) | cr4::VMXE,
    );
    let old = ctx.vcpu.hvm.guest_cr[4];
    ctx.vcpu.hvm.guest_cr[4] = wanted;
    if (old ^ wanted) & cr4::PAE != 0 {
        ctx.cov.hit(Component::P2m, 14);
        if wanted & cr4::PAE != 0 {
            load_pdptrs(ctx);
        }
    }
    Disposition::AdvanceAndResume
}

/// Xen's `vmx_load_pdptrs`: with PAE paging active (and outside long
/// mode), VM entry validates the four PDPTE fields, so the hypervisor
/// loads them from the guest's page-directory-pointer table whenever CR3
/// or CR4.PAE changes.
fn load_pdptrs(ctx: &mut ExitCtx<'_>) {
    ctx.cov.hit(Component::P2m, 16);
    let cr3 = ctx.vcpu.hvm.guest_cr[3] & !0xfffu64;
    for (i, f) in [
        VmcsField::GuestPdpte0,
        VmcsField::GuestPdpte1,
        VmcsField::GuestPdpte2,
        VmcsField::GuestPdpte3,
    ]
    .into_iter()
    .enumerate()
    {
        ctx.vmwrite(f, (cr3 + (i as u64 + 1) * 0x1000) | 1);
    }
}

fn mov_from_cr(ctx: &mut ExitCtx<'_>, qual: CrAccessQual) -> Disposition {
    ctx.cov.hit(Component::Vmx, 24);
    let value = match qual.cr {
        0 => {
            ctx.cov.hit(Component::Vmx, 25);
            let real = ctx.vmread(VmcsField::GuestCr0);
            let mask = ctx.vmread(VmcsField::Cr0GuestHostMask);
            let shadow = ctx.vmread(VmcsField::Cr0ReadShadow);
            guest_visible_cr(real, mask, shadow)
        }
        3 => {
            ctx.cov.hit(Component::Vmx, 26);
            ctx.vcpu.hvm.guest_cr[3]
        }
        4 => {
            ctx.cov.hit(Component::Vmx, 27);
            let real = ctx.vmread(VmcsField::GuestCr4);
            let mask = ctx.vmread(VmcsField::Cr4GuestHostMask);
            let shadow = ctx.vmread(VmcsField::Cr4ReadShadow);
            guest_visible_cr(real, mask, shadow)
        }
        8 => {
            ctx.cov.hit(Component::Vmx, 28);
            u64::from(ctx.vcpu.hvm.vlapic.tpr >> 4)
        }
        _ => {
            ctx.cov.hit(Component::Vmx, 29);
            return ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume);
        }
    };
    if let Some(g) = qual.gpr {
        ctx.vcpu.gprs.set(g, value);
    }
    Disposition::AdvanceAndResume
}

fn clts(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 30);
    let shadow = ctx.vmread(VmcsField::Cr0ReadShadow) & !cr0::TS;
    ctx.vmwrite(VmcsField::Cr0ReadShadow, shadow);
    let hw = ctx.vmread(VmcsField::GuestCr0) & !cr0::TS;
    ctx.vmwrite(VmcsField::GuestCr0, hw);
    ctx.vcpu.hvm.update_cr0(shadow);
    Disposition::AdvanceAndResume
}

fn lmsw(ctx: &mut ExitCtx<'_>, source: u16) -> Disposition {
    ctx.cov.hit(Component::Vmx, 31);
    let old = ctx.vmread(VmcsField::Cr0ReadShadow);
    // LMSW can set PE/MP/EM/TS but never clear PE.
    let low = (u64::from(source) & 0xf) | (old & cr0::PE);
    let wanted = (old & !0xeu64) | low;
    write_cr0(ctx, wanted)
}

/// Initialize a vCPU's CR masks/shadows the way the domain builder does
/// before first launch.
pub fn init_cr_state(vcpu: &mut crate::vcpu::HvVcpu) {
    let v = &mut vcpu.vmcs;
    v.hw_write(VmcsField::Cr0GuestHostMask, CR0_HOST_OWNED);
    v.hw_write(VmcsField::Cr4GuestHostMask, CR4_HOST_OWNED | cr4::PAE);
    v.hw_write(VmcsField::Cr0ReadShadow, 0);
    v.hw_write(VmcsField::Cr4ReadShadow, 0);
    v.hw_write(VmcsField::GuestCr0, cr0::PE | cr0::PG | cr0::NE | cr0::ET);
    // The *view* starts in real mode even though hardware CR0 has PE|PG
    // (shadow-paging trick on non-unrestricted parts).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use iris_vtx::cr::OperatingMode;
    use iris_vtx::gpr::Gpr;

    fn cr_exit(ctx: &mut ExitCtx<'_>, qual: CrAccessQual) -> Disposition {
        init_cr_state(ctx.vcpu);
        ctx.vcpu
            .vmcs
            .hw_write(VmcsField::ExitQualification, qual.encode());
        handle(ctx)
    }

    #[test]
    fn fig2_protected_mode_switch() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, cr0::PE | cr0::ET);
            let d = cr_exit(
                ctx,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rax),
                    lmsw_source: 0,
                },
            );
            assert_eq!(d, Disposition::AdvanceAndResume);
            // Internal variable moved to protected mode.
            assert_eq!(ctx.vcpu.hvm.mode, OperatingMode::Mode2);
            // Read shadow carries the guest's view.
            assert_eq!(
                ctx.vcpu.vmcs.read(VmcsField::Cr0ReadShadow),
                cr0::PE | cr0::ET
            );
            // Hardware CR0 keeps the host-owned bits.
            let hw = ctx.vcpu.vmcs.read(VmcsField::GuestCr0);
            assert_ne!(hw & cr0::NE, 0);
            // Console notes the transition.
            assert_eq!(ctx.log.grep("entering protected mode").count(), 1);
        });
    }

    #[test]
    fn invalid_cr0_injects_gp() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, cr0::PG); // PG without PE
            let d = cr_exit(
                ctx,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rax),
                    lmsw_source: 0,
                },
            );
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert_eq!(
                ctx.vcpu.hvm.pending_event,
                Some((crate::ctx::vector::GP, Some(0)))
            );
            assert_eq!(ctx.vcpu.hvm.mode, OperatingMode::Mode1); // unchanged
        });
    }

    #[test]
    fn mov_from_cr0_sees_shadow_composition() {
        with_ctx(|ctx| {
            // Guest wrote PE; host owns PG and keeps it set in hardware.
            ctx.vcpu.gprs.set(Gpr::Rax, cr0::PE | cr0::ET);
            cr_exit(
                ctx,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rax),
                    lmsw_source: 0,
                },
            );
            ctx.vcpu.vmcs.hw_write(
                VmcsField::ExitQualification,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::MovFromCr,
                    gpr: Some(Gpr::Rbx),
                    lmsw_source: 0,
                }
                .encode(),
            );
            handle(ctx);
            let seen = ctx.vcpu.gprs.get(Gpr::Rbx);
            assert_eq!(seen & cr0::PE, cr0::PE);
            assert_eq!(seen & cr0::PG, 0, "guest must not see host's PG");
        });
    }

    #[test]
    fn paging_enable_sets_lma_when_lme() {
        with_ctx(|ctx| {
            init_cr_state(ctx.vcpu);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestIa32Efer, efer::LME);
            ctx.vcpu.hvm.update_cr0(cr0::PE | cr0::ET);
            ctx.vcpu.gprs.set(Gpr::Rax, cr0::PE | cr0::PG | cr0::ET);
            ctx.vcpu.vmcs.hw_write(
                VmcsField::ExitQualification,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rax),
                    lmsw_source: 0,
                }
                .encode(),
            );
            handle(ctx);
            let e = ctx.vcpu.vmcs.read(VmcsField::GuestIa32Efer);
            assert_ne!(e & efer::LMA, 0);
            assert_eq!(ctx.vcpu.hvm.mode, OperatingMode::Mode3);
        });
    }

    #[test]
    fn cr3_load_updates_cache_and_vmcs() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rdi, 0x1234000);
            cr_exit(
                ctx,
                CrAccessQual {
                    cr: 3,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rdi),
                    lmsw_source: 0,
                },
            );
            assert_eq!(ctx.vcpu.hvm.guest_cr[3], 0x1234000);
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::GuestCr3), 0x1234000);
        });
    }

    #[test]
    fn clts_clears_task_switched() {
        with_ctx(|ctx| {
            init_cr_state(ctx.vcpu);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::Cr0ReadShadow, cr0::PE | cr0::TS | cr0::ET);
            ctx.vcpu.vmcs.hw_write(
                VmcsField::ExitQualification,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::Clts,
                    gpr: None,
                    lmsw_source: 0,
                }
                .encode(),
            );
            handle(ctx);
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::Cr0ReadShadow) & cr0::TS, 0);
        });
    }

    #[test]
    fn lmsw_cannot_clear_pe() {
        with_ctx(|ctx| {
            init_cr_state(ctx.vcpu);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::Cr0ReadShadow, cr0::PE | cr0::ET);
            ctx.vcpu.hvm.update_cr0(cr0::PE | cr0::ET);
            ctx.vcpu.vmcs.hw_write(
                VmcsField::ExitQualification,
                CrAccessQual {
                    cr: 0,
                    access: CrAccessType::Lmsw,
                    gpr: None,
                    lmsw_source: 0x0, // tries to clear PE
                }
                .encode(),
            );
            handle(ctx);
            assert_eq!(ctx.vcpu.hvm.mode, OperatingMode::Mode2, "PE survives LMSW");
        });
    }

    #[test]
    fn cr8_maps_to_tpr() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rcx, 0x9);
            cr_exit(
                ctx,
                CrAccessQual {
                    cr: 8,
                    access: CrAccessType::MovToCr,
                    gpr: Some(Gpr::Rcx),
                    lmsw_source: 0,
                },
            );
            assert_eq!(ctx.vcpu.hvm.vlapic.tpr, 0x90);
        });
    }
}
