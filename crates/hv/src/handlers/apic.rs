//! `APIC ACCESS` handling.
//!
//! With the APIC-access page configured, guest accesses to the xAPIC page
//! take this dedicated exit instead of a generic EPT violation. The
//! qualification carries the page offset and access type, so — unlike the
//! EPT-violation MMIO path — no instruction fetch from guest memory is
//! needed for the common linear read/write cases. This matches the paper's
//! data: `APIC ACCESS` seeds replay accurately, while `EPT VIOL.` seeds
//! are the divergent ones.
//!
//! Coverage: component `Vmx` blocks 170–189, plus `Vlapic` register
//! traffic.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

/// Entry point for `APIC ACCESS` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 170);
    let qual = ctx.vmread(VmcsField::ExitQualification);
    let offset = (qual & 0xfff) as u32;
    let access_type = (qual >> 12) & 0xf;
    match access_type {
        0 => {
            // Linear read. The emulated convention: data lands in RAX
            // (Xen decodes the instruction; our guests use MOV EAX-forms
            // for APIC reads, which the qualification-only fast path
            // handles).
            ctx.cov.hit(Component::Vmx, 171);
            let now = ctx.tsc.now();
            let v = ctx.vcpu.hvm.vlapic.read(offset, now, &mut ctx.cov);
            ctx.vcpu.gprs.set32(Gpr::Rax, v);
            Disposition::AdvanceAndResume
        }
        1 => {
            // Linear write: data from RAX.
            ctx.cov.hit(Component::Vmx, 172);
            let v = ctx.vcpu.gprs.get32(Gpr::Rax);
            ctx.vcpu.hvm.vlapic.write(offset, v, &mut ctx.cov);
            Disposition::AdvanceAndResume
        }
        _ => {
            // Guest-physical / fetch accesses: route through the full
            // MMIO emulator (guest-memory dependent).
            ctx.cov.hit(Component::Vmx, 173);
            let apic_base = 0xfee0_0000u64;
            let write = access_type == 3 || access_type == 1;
            let outcome = crate::emulate::emulate_mmio(
                ctx,
                apic_base + u64::from(offset),
                write,
                |ctx, gpa| {
                    let off = (gpa & 0xfff) as u32;
                    let now = ctx.tsc.now();
                    u64::from(ctx.vcpu.hvm.vlapic.read(off, now, &mut ctx.cov))
                },
                |ctx, gpa, v| {
                    let off = (gpa & 0xfff) as u32;
                    ctx.vcpu.hvm.vlapic.write(off, v as u32, &mut ctx.cov);
                },
            );
            match outcome {
                crate::emulate::EmulOutcome::Done { len } => {
                    let rip = ctx.vmread(VmcsField::GuestRip);
                    ctx.vmwrite(VmcsField::GuestRip, rip + len);
                    Disposition::Resume
                }
                crate::emulate::EmulOutcome::Unhandleable { .. } => {
                    ctx.cov.hit(Component::Vmx, 174);
                    ctx.inject_exception(crate::ctx::vector::UD, None)
                        .unwrap_or(Disposition::Resume)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use crate::vlapic::reg;

    fn apic_exit(ctx: &mut ExitCtx<'_>, offset: u32, write: bool) -> Disposition {
        let qual = u64::from(offset) | (u64::from(write) << 12);
        ctx.vcpu.vmcs.hw_write(VmcsField::ExitQualification, qual);
        handle(ctx)
    }

    #[test]
    fn linear_write_enables_apic() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set32(Gpr::Rax, 0x1ff);
            let d = apic_exit(ctx, reg::SVR, true);
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert!(ctx.vcpu.hvm.vlapic.enabled());
        });
    }

    #[test]
    fn linear_read_returns_version() {
        with_ctx(|ctx| {
            let d = apic_exit(ctx, reg::VERSION, false);
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rax), 0x0005_0014);
        });
    }

    #[test]
    fn eoi_write_counts() {
        with_ctx(|ctx| {
            apic_exit(ctx, reg::EOI, true);
            assert_eq!(ctx.vcpu.hvm.vlapic.eois, 1);
        });
    }
}
