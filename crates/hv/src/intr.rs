//! VM-entry interrupt assist (`intr.c` — `vmx_intr_assist`).
//!
//! Runs after the exit handler, before VM entry: injects any pending
//! exception queued by the handler, else delivers the highest pending
//! vLAPIC interrupt if the guest is interruptible, else arms an
//! interrupt-window exit. All its state changes are `VMWRITE`s to the
//! entry-control fields, so IRIS records them; its *inputs* (whether a
//! virtual interrupt happens to be pending) are timing-dependent, which
//! makes `intr.c` show up in the paper's Fig. 7 divergence clusters.
//!
//! Coverage: component `Intr`, blocks 0–29.

use crate::coverage::Component;
use crate::ctx::ExitCtx;
use iris_vtx::fields::VmcsField;

/// Event-injection information-field bits.
pub mod intr_info {
    /// Valid bit.
    pub const VALID: u64 = 0x8000_0000;
    /// Hardware-exception type (bits 10:8 = 3).
    pub const TYPE_HW_EXCEPTION: u64 = 3 << 8;
    /// External-interrupt type (0).
    pub const TYPE_EXTERNAL: u64 = 0;
    /// Deliver error code bit.
    pub const ERROR_CODE: u64 = 1 << 11;
}

/// Run the interrupt-assist pass. Returns the injected vector, if any.
pub fn intr_assist(ctx: &mut ExitCtx<'_>) -> Option<u8> {
    ctx.cov.hit(Component::Intr, 0);

    // 1. A pending exception from the handler wins.
    if let Some((vec, err)) = ctx.vcpu.hvm.pending_event.take() {
        ctx.cov.hit(Component::Intr, 1);
        let mut info = intr_info::VALID | intr_info::TYPE_HW_EXCEPTION | u64::from(vec);
        if let Some(code) = err {
            info |= intr_info::ERROR_CODE;
            ctx.vmwrite(VmcsField::VmEntryExceptionErrorCode, u64::from(code));
        }
        ctx.vmwrite(VmcsField::VmEntryIntrInfoField, info);
        return Some(vec);
    }

    // 2. Virtual interrupts, gated by RFLAGS.IF and interruptibility.
    let pending = ctx.vcpu.hvm.vlapic.highest_pending();
    if pending.is_none() {
        ctx.cov.hit(Component::Intr, 2);
        return None;
    }
    let rflags = ctx.vmread(VmcsField::GuestRflags);
    let interruptibility = ctx.vmread(VmcsField::GuestInterruptibilityInfo);
    let if_set = rflags & (1 << 9) != 0;
    let blocked = interruptibility & 0x3 != 0; // STI/MOV-SS shadow

    if if_set && !blocked {
        ctx.cov.hit(Component::Intr, 3);
        let vec = ctx
            .vcpu
            .hvm
            .vlapic
            .ack_pending(&mut ctx.cov)
            .expect("pending checked above");
        ctx.vmwrite(
            VmcsField::VmEntryIntrInfoField,
            intr_info::VALID | intr_info::TYPE_EXTERNAL | u64::from(vec),
        );
        Some(vec)
    } else {
        // 3. Not interruptible: open an interrupt window.
        ctx.cov.hit(Component::Intr, 4);
        if !ctx.vcpu.hvm.int_window_requested {
            ctx.cov.hit(Component::Intr, 5);
            let ctl = ctx.vmread(VmcsField::CpuBasedVmExecControl);
            ctx.vmwrite(VmcsField::CpuBasedVmExecControl, ctl | (1 << 2));
            ctx.vcpu.hvm.int_window_requested = true;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use crate::ctx::vector;
    use crate::vlapic::reg;

    #[test]
    fn pending_exception_is_injected_with_error_code() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.pending_event = Some((vector::GP, Some(0)));
            assert_eq!(intr_assist(ctx), Some(vector::GP));
            let info = ctx.vcpu.vmcs.read(VmcsField::VmEntryIntrInfoField);
            assert_eq!(
                info,
                intr_info::VALID
                    | intr_info::TYPE_HW_EXCEPTION
                    | intr_info::ERROR_CODE
                    | u64::from(vector::GP)
            );
            assert!(ctx.vcpu.hvm.pending_event.is_none());
        });
    }

    #[test]
    fn interrupt_delivered_when_if_set() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            let _ = ctx.vcpu.hvm.vlapic.set_irq(0x30, &mut ctx.cov);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x202);
            assert_eq!(intr_assist(ctx), Some(0x30));
            assert_eq!(ctx.vcpu.hvm.vlapic.highest_pending(), None);
        });
    }

    #[test]
    fn window_armed_when_if_clear() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            let _ = ctx.vcpu.hvm.vlapic.set_irq(0x30, &mut ctx.cov);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x2); // IF clear
            assert_eq!(intr_assist(ctx), None);
            assert!(ctx.vcpu.hvm.int_window_requested);
            let ctl = ctx.vcpu.vmcs.read(VmcsField::CpuBasedVmExecControl);
            assert_ne!(ctl & (1 << 2), 0);
            // Second pass does not re-arm.
            assert_eq!(intr_assist(ctx), None);
        });
    }

    #[test]
    fn sti_shadow_blocks_delivery() {
        with_ctx(|ctx| {
            ctx.vcpu.hvm.vlapic.write(reg::SVR, 0x1ff, &mut ctx.cov);
            let _ = ctx.vcpu.hvm.vlapic.set_irq(0x30, &mut ctx.cov);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRflags, 0x202);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::GuestInterruptibilityInfo, 1); // STI shadow
            assert_eq!(intr_assist(ctx), None);
            assert!(ctx.vcpu.hvm.int_window_requested);
        });
    }

    #[test]
    fn nothing_pending_does_nothing() {
        with_ctx(|ctx| {
            assert_eq!(intr_assist(ctx), None);
            assert!(!ctx.vcpu.hvm.int_window_requested);
        });
    }
}
