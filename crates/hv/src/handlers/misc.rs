//! Smaller exit handlers: debug registers, cache management, TLB
//! management, XSETBV, PAUSE, and descriptor-table accesses.
//!
//! The descriptor-table handler is the third guest-memory-dependent path
//! (after MMIO emulation and string I/O): an `LGDT`/`LLDT` intercept must
//! read the descriptor from the guest's GDT. The paper names exactly this
//! case when analysing replay divergence: *"VMCS fields like Global and
//! Local Descriptor Table Registers (GDTR and LDTR) include references to
//! the memory of 'exited' guest VM. Such values can be dereferenced by
//! the hypervisor during exit handling."*
//!
//! Coverage: component `Vmx` blocks 180–229.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;
use iris_vtx::segment::ar;

/// `DR ACCESS` (MOV to/from debug register).
pub fn handle_dr(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 180);
    let qual = ctx.vmread(VmcsField::ExitQualification);
    let dr = (qual & 0x7) as u8;
    let write = qual & 0x10 == 0; // direction 0 = MOV to DR
    if dr == 4 || dr == 5 {
        ctx.cov.hit(Component::Vmx, 181);
        // DR4/5 alias DR6/7 only with CR4.DE clear; with DE set → #UD.
        if ctx.vcpu.hvm.guest_cr[4] & iris_vtx::cr::cr4::DE != 0 {
            return ctx
                .inject_exception(crate::ctx::vector::UD, None)
                .unwrap_or(Disposition::AdvanceAndResume);
        }
    }
    if write {
        ctx.cov.hit(Component::Vmx, 182);
        if dr == 7 {
            let v = ctx.vcpu.gprs.get(Gpr::Rax);
            ctx.vmwrite(VmcsField::GuestDr7, v);
        }
    } else {
        ctx.cov.hit(Component::Vmx, 183);
        if dr == 7 {
            let v = ctx.vmread(VmcsField::GuestDr7);
            ctx.vcpu.gprs.set(Gpr::Rax, v);
        } else {
            ctx.vcpu.gprs.set(Gpr::Rax, 0);
        }
    }
    Disposition::AdvanceAndResume
}

/// `WBINVD` / `INVD` — cache flushes; relevant with pass-through only,
/// so mostly bookkeeping.
pub fn handle_wbinvd(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 190);
    // Xen: flush only when the domain has cache-incoherent pass-through;
    // otherwise a no-op with a trace record.
    ctx.cov.hit(Component::Vmx, 191);
    Disposition::AdvanceAndResume
}

/// `INVLPG` — single-entry TLB invalidation.
pub fn handle_invlpg(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 195);
    let _va = ctx.vmread(VmcsField::ExitQualification);
    ctx.cov.hit(Component::P2m, 30);
    Disposition::AdvanceAndResume
}

/// `XSETBV` — XCR0 writes.
pub fn handle_xsetbv(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 199);
    let idx = ctx.vcpu.gprs.get32(Gpr::Rcx);
    let value =
        u64::from(ctx.vcpu.gprs.get32(Gpr::Rax)) | (u64::from(ctx.vcpu.gprs.get32(Gpr::Rdx)) << 32);
    // XCR0 must have bit 0 (x87) set; anything else is #GP.
    if idx != 0 || value & 1 == 0 {
        ctx.cov.hit(Component::Vmx, 204);
        return ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume);
    }
    Disposition::AdvanceAndResume
}

/// `PAUSE` — spin-loop hint (PLE).
pub fn handle_pause(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 210);
    // Pause-loop exiting: yield the pCPU. Single-vCPU domains just resume.
    Disposition::AdvanceAndResume
}

/// `GDTR/IDTR ACCESS` and `LDTR/TR ACCESS` (descriptor-table exiting).
pub fn handle_desc_table(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 220);
    // The guest is loading LDTR/TR or storing/loading GDTR/IDTR. For
    // loads we must read the descriptor from the guest GDT.
    let gdtr_base = ctx.vmread(VmcsField::GuestGdtrBase);
    let selector = ctx.vcpu.gprs.get(Gpr::Rax) & 0xfff8;
    let desc_gpa = (gdtr_base + selector) & 0x3fff_ffff;
    let mut desc = [0u8; 8];
    match ctx.copy_from_guest(desc_gpa, &mut desc) {
        Ok(()) => {
            ctx.cov.hit(Component::Vmx, 221);
            let raw = u64::from_le_bytes(desc);
            // Decode base/limit/AR from the descriptor.
            let base = ((raw >> 16) & 0xff_ffff) | ((raw >> 32) & 0xff00_0000);
            let limit = (raw & 0xffff) | ((raw >> 32) & 0xf_0000);
            let ar_bits = ((raw >> 40) & 0xff) | ((raw >> 44) & 0xf000);
            ctx.vmwrite(VmcsField::GuestLdtrBase, base);
            ctx.vmwrite(VmcsField::GuestLdtrLimit, limit);
            ctx.vmwrite(
                VmcsField::GuestLdtrArBytes,
                if ar_bits & u64::from(ar::P) != 0 {
                    ar_bits
                } else {
                    u64::from(ar::UNUSABLE)
                },
            );
            Disposition::AdvanceAndResume
        }
        Err(_) => {
            // Replay path: the GDT lives in unrecorded guest memory.
            ctx.cov.hit(Component::Vmx, 222);
            ctx.log.push(
                ctx.tsc.now(),
                crate::log::Level::Warning,
                format!("descriptor fetch failed at {desc_gpa:#x}"),
            );
            ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    #[test]
    fn dr7_round_trips_through_vmcs() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, 0x455);
            ctx.vcpu.vmcs.hw_write(VmcsField::ExitQualification, 7); // MOV to DR7
            handle_dr(ctx);
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::GuestDr7), 0x455);
            ctx.vcpu.gprs.set(Gpr::Rax, 0);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::ExitQualification, 7 | 0x10); // MOV from DR7
            handle_dr(ctx);
            assert_eq!(ctx.vcpu.gprs.get(Gpr::Rax), 0x455);
        });
    }

    #[test]
    fn dr4_with_de_injects_ud() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.guest_cr[4] = iris_vtx::cr::cr4::DE;
            ctx.vcpu.vmcs.hw_write(VmcsField::ExitQualification, 4);
            handle_dr(ctx);
            assert_eq!(
                ctx.vcpu.hvm.pending_event,
                Some((crate::ctx::vector::UD, None))
            );
        });
    }

    #[test]
    fn xsetbv_validates_xcr0() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set32(Gpr::Rcx, 0);
            ctx.vcpu.gprs.set32(Gpr::Rax, 0x7);
            assert_eq!(handle_xsetbv(ctx), Disposition::AdvanceAndResume);
            assert!(ctx.vcpu.hvm.pending_event.is_none());
            // x87 bit clear → #GP.
            ctx.vcpu.gprs.set32(Gpr::Rax, 0x6);
            handle_xsetbv(ctx);
            assert!(ctx.vcpu.hvm.pending_event.is_some());
        });
    }

    #[test]
    fn descriptor_load_reads_guest_gdt() {
        with_ctx(|ctx| {
            // Build a descriptor: base 0x1000, limit 0xffff, present LDT.
            let raw: u64 = 0xffff | (0x1000u64 << 16) | (0x82u64 << 40);
            ctx.memory
                .copy_to_guest(0x5000, &raw.to_le_bytes())
                .unwrap();
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestGdtrBase, 0x5000);
            ctx.vcpu.gprs.set(Gpr::Rax, 0); // selector 0 → first descriptor
            let d = handle_desc_table(ctx);
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::GuestLdtrBase), 0x1000);
        });
    }

    #[test]
    fn descriptor_load_from_cold_memory_injects_gp() {
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestGdtrBase, 0x8_0000); // unpopulated
            let d = handle_desc_table(ctx);
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert!(ctx.vcpu.hvm.pending_event.is_some());
            assert_eq!(ctx.log.grep("descriptor fetch failed").count(), 1);
        });
    }
}
