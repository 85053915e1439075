//! `PREEMPTION TIMER` handling — the IRIS replay engine's heartbeat.
//!
//! IRIS arms the VMX-preemption timer with **zero** for the dummy VM, so
//! every VM entry immediately exits again before any guest instruction
//! runs (§V-B). The handler reloads the timer and resumes; everything
//! interesting about a replayed exit happens in the seed-steered
//! handler that the dispatch ran *instead* (the recorded reason read via
//! the interposed `VMREAD` of `VM_EXIT_REASON`).
//!
//! When no replay is active (a normal guest with the timer armed for
//! scheduling), the handler charges the domain's scheduler accounting.
//!
//! Coverage: component `Vmx` blocks 130–139.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;

/// Entry point for `PREEMPTION TIMER` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 130);
    // Reload the timer from the VMCS (the VM-entry load).
    let value = ctx.vmread(VmcsField::GuestPreemptionTimer) as u32;
    ctx.vcpu.preempt_timer.load(value);

    // Scheduler accounting: a timer exit means the vCPU consumed its
    // credit slice.
    ctx.cov.hit(Component::Vcpu, 10);

    // Run the virtual-timer update like any other exit-path visit.
    let now = ctx.tsc.now();
    let vlapic = &mut ctx.vcpu.hvm.vlapic;
    ctx.vpt.update(now, ctx.irq, vlapic, &mut ctx.cov);

    ctx.cov.hit(Component::Vmx, 131);
    Disposition::Resume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    #[test]
    fn reloads_timer_from_vmcs() {
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestPreemptionTimer, 0);
            ctx.vcpu.preempt_timer.set_enabled(true);
            assert_eq!(handle(ctx), Disposition::Resume);
            assert_eq!(ctx.vcpu.preempt_timer.value(), 0);
            // Value 0 + enabled = fires again immediately: the replay loop.
            assert!(matches!(
                ctx.vcpu.preempt_timer.run(1_000_000),
                iris_vtx::preemption::TimerOutcome::Fired { .. }
            ));
        });
    }
}
