//! `RDTSC`/`RDTSCP` and `HLT` handling.
//!
//! RDTSC exits dominate the paper's CPU/MEM/IO-bound and IDLE workloads
//! (~80% of exits — Fig. 5), because Linux timekeeping and the scheduler
//! constantly read the TSC. HLT is what makes IDLE *slow to record and
//! fast to replay*: a halted vCPU waits for the next virtual timer tick
//! (tens of ms of guest time), while IRIS replay skips the wait entirely.
//!
//! Coverage: component `Vmx` blocks 110–139.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

/// Entry point for `RDTSC` (and `RDTSCP` when `with_aux`).
pub fn handle_rdtsc(ctx: &mut ExitCtx<'_>, with_aux: bool) -> Disposition {
    ctx.cov.hit(Component::Vmx, 110);
    let offset = ctx.vmread(VmcsField::TscOffset);
    let guest_tsc = ctx.tsc.now().wrapping_add(offset);
    ctx.vcpu.gprs.set32(Gpr::Rax, guest_tsc as u32);
    ctx.vcpu.gprs.set32(Gpr::Rdx, (guest_tsc >> 32) as u32);
    if with_aux {
        ctx.cov.hit(Component::Vmx, 111);
        let aux = ctx
            .vcpu
            .hvm
            .msrs
            .raw(iris_vtx::msr::index::IA32_TSC_AUX)
            .unwrap_or(0);
        ctx.vcpu.gprs.set32(Gpr::Rcx, aux as u32);
    }
    Disposition::AdvanceAndResume
}

/// Entry point for `HLT` exits.
pub fn handle_hlt(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 120);
    // RFLAGS.IF gates whether an interrupt can wake the guest at all;
    // HLT with IF=0 and nothing pending would hang forever → Xen treats
    // it as the guest shutting down.
    let rflags = ctx.vmread(VmcsField::GuestRflags);
    let if_set = rflags & (1 << 9) != 0;
    if ctx.vcpu.hvm.vlapic.highest_pending().is_some() {
        ctx.cov.hit(Component::Vmx, 121);
        // Interrupt already pending: fall straight through.
        return Disposition::AdvanceAndResume;
    }
    if !if_set {
        ctx.cov.hit(Component::Vmx, 122);
        ctx.log.push(
            ctx.tsc.now(),
            crate::log::Level::Warning,
            format!(
                "d{}v{}: HLT with interrupts disabled",
                ctx.domain_id, ctx.vcpu.id
            ),
        );
        return Disposition::Halt; // scheduler treats as blocked forever
    }
    ctx.cov.hit(Component::Vmx, 123);
    Disposition::Halt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use crate::vlapic::reg;

    #[test]
    fn rdtsc_returns_offset_adjusted_edx_eax() {
        with_ctx(|ctx| {
            ctx.tsc.advance(0x1_0000_0005);
            ctx.vcpu.vmcs.hw_write(VmcsField::TscOffset, 0x10);
            assert_eq!(handle_rdtsc(ctx, false), Disposition::AdvanceAndResume);
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rax), 0x15);
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rdx), 1);
        });
    }

    #[test]
    fn rdtscp_also_loads_aux() {
        with_ctx(|ctx| {
            ctx.vcpu
                .hvm
                .msrs
                .force(iris_vtx::msr::index::IA32_TSC_AUX, 3);
            handle_rdtsc(ctx, true);
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rcx), 3);
        });
    }

    #[test]
    fn hlt_blocks_when_idle() {
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x202); // IF set
            assert_eq!(handle_hlt(ctx), Disposition::Halt);
        });
    }

    #[test]
    fn hlt_with_pending_interrupt_continues() {
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x202);
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            let _ = ctx.vcpu.hvm.vlapic.set_irq(0x30, &mut ctx.cov);
            assert_eq!(handle_hlt(ctx), Disposition::AdvanceAndResume);
        });
    }

    #[test]
    fn hlt_with_if_clear_warns() {
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x2);
            assert_eq!(handle_hlt(ctx), Disposition::Halt);
            assert_eq!(ctx.log.grep("interrupts disabled").count(), 1);
        });
    }
}
