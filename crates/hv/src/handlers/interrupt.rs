//! `EXTERNAL INTERRUPT`, `INTERRUPT WINDOW` and exception/NMI exits.
//!
//! External-interrupt exits are the host's devices demanding service while
//! the guest runs — inherently asynchronous, hence part of the paper's
//! record/replay noise. Interrupt-window exits complete a deferred
//! injection: when `vmx_intr_assist` wanted to inject but the guest was
//! uninterruptible, it armed the window; this handler performs the
//! delayed delivery.
//!
//! Coverage: component `Vmx` blocks 140–169, `Irq` blocks 10–29.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::fields::VmcsField;

/// Entry point for `EXTERNAL INTERRUPT` exits.
pub fn handle_external(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 140);
    // The vector arrives in the exit-interruption-information field.
    let info = ctx.vmread(VmcsField::VmExitIntrInfo);
    let vector = (info & 0xff) as u8;
    // do_IRQ: acknowledge at the host PIC/APIC and run the host handler.
    ctx.cov.hit(Component::Irq, 10);
    if vector >= 0x20 {
        ctx.cov.hit(Component::Irq, 11);
        // Host timer tick and friends tick the domain's virtual timers.
        let now = ctx.tsc.now();
        let vlapic = &mut ctx.vcpu.hvm.vlapic;
        ctx.vpt.update(now, ctx.irq, vlapic, &mut ctx.cov);
    } else {
        ctx.cov.hit(Component::Irq, 12);
        ctx.log.push(
            ctx.tsc.now(),
            crate::log::Level::Warning,
            format!("spurious host vector {vector:#x}"),
        );
    }
    // External interrupts do not advance the guest: the instruction at
    // RIP was never executed.
    Disposition::Resume
}

/// Entry point for `INTERRUPT WINDOW` exits.
pub fn handle_window(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 150);
    // Close the window request.
    let ctl = ctx.vmread(VmcsField::CpuBasedVmExecControl);
    ctx.vmwrite(VmcsField::CpuBasedVmExecControl, ctl & !(1 << 2));
    ctx.vcpu.hvm.int_window_requested = false;

    // Deliver the highest pending vLAPIC vector now.
    if let Some(vec) = ctx.vcpu.hvm.vlapic.ack_pending(&mut ctx.cov) {
        ctx.cov.hit(Component::Vmx, 151);
        ctx.vmwrite(
            VmcsField::VmEntryIntrInfoField,
            0x8000_0000 | u64::from(vec),
        );
    } else {
        ctx.cov.hit(Component::Vmx, 152);
    }
    Disposition::Resume
}

/// Entry point for exception/NMI exits (reason 0).
pub fn handle_exception(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 160);
    let info = ctx.vmread(VmcsField::VmExitIntrInfo);
    let vector = (info & 0xff) as u8;
    match vector {
        14 => {
            ctx.cov.hit(Component::Vmx, 161);
            // Guest #PF that we intercepted: reflect it back.
            let err = ctx.vmread(VmcsField::VmExitIntrErrorCode) as u32;
            ctx.inject_exception(14, Some(err))
                .unwrap_or(Disposition::Resume)
        }
        6 => {
            ctx.cov.hit(Component::Vmx, 162);
            ctx.inject_exception(6, None).unwrap_or(Disposition::Resume)
        }
        _ => {
            ctx.cov.hit(Component::Vmx, 163);
            ctx.inject_exception(vector, None)
                .unwrap_or(Disposition::Resume)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use crate::vlapic::reg;

    #[test]
    fn external_interrupt_ticks_virtual_timers() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            ctx.vpt.pit_timer.arm(0, 100);
            ctx.tsc.advance(250);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::VmExitIntrInfo, 0x8000_00ef); // host timer vector
            assert_eq!(handle_external(ctx), Disposition::Resume);
            assert_eq!(ctx.vpt.ticks_delivered, 1);
            assert_eq!(ctx.vcpu.hvm.vlapic.highest_pending(), Some(0x30));
        });
    }

    #[test]
    fn spurious_low_vector_logs() {
        with_ctx(|ctx| {
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::VmExitIntrInfo, 0x8000_0005);
            handle_external(ctx);
            assert_eq!(ctx.log.grep("spurious host vector").count(), 1);
        });
    }

    #[test]
    fn window_exit_delivers_deferred_vector() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            let _ = ctx.vcpu.hvm.vlapic.set_irq(0x55, &mut ctx.cov);
            ctx.vcpu.hvm.int_window_requested = true;
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::CpuBasedVmExecControl, 1 << 2);
            assert_eq!(handle_window(ctx), Disposition::Resume);
            assert!(!ctx.vcpu.hvm.int_window_requested);
            assert_eq!(
                ctx.vcpu.vmcs.read(VmcsField::VmEntryIntrInfoField),
                0x8000_0055
            );
            assert_eq!(
                ctx.vcpu.vmcs.read(VmcsField::CpuBasedVmExecControl) & (1 << 2),
                0
            );
        });
    }

    #[test]
    fn guest_page_fault_is_reflected() {
        with_ctx(|ctx| {
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::VmExitIntrInfo, 0x8000_070e);
            ctx.vcpu.vmcs.hw_write(VmcsField::VmExitIntrErrorCode, 0x2);
            handle_exception(ctx);
            assert_eq!(ctx.vcpu.hvm.pending_event, Some((14, Some(2))));
        });
    }
}
