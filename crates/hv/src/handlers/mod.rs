//! Per-reason VM-exit handlers (the body of `vmx_vmexit_handler`).
//!
//! Each submodule implements one family of exit reasons as a function
//! `fn handle(ctx: &mut ExitCtx<'_>) -> Disposition`. Handlers read their
//! operands exclusively through [`ExitCtx::vmread`] and the GPR save area,
//! and publish state changes through [`ExitCtx::vmwrite`] — which is what
//! makes them *recordable* and *replayable* by IRIS.
//!
//! [`dispatch`] is the `switch (exit_reason)` of `vmx.c`.

use crate::coverage::Component;
use crate::crash::HypervisorCrashReason;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::exit::ExitReason;

pub mod apic;
pub mod cpuid;
pub mod cr;
pub mod ept;
pub mod interrupt;
pub mod io;
pub mod misc;
pub mod msr;
pub mod preempt;
pub mod time;
pub mod vmcall;

/// Route one decoded exit reason to its handler.
///
/// Unknown or never-configured reasons hit Xen's `default:` arm, which is
/// a BUG — the hypervisor-crash path the fuzzer's VMCS mutations of the
/// `VM_EXIT_REASON` field reach.
pub fn dispatch(ctx: &mut ExitCtx<'_>, reason: ExitReason) -> Disposition {
    ctx.cov.hit(Component::Vmx, 10);
    match reason {
        ExitReason::CrAccess => cr::handle(ctx),
        ExitReason::IoInstruction => io::handle(ctx),
        ExitReason::Cpuid => cpuid::handle(ctx),
        ExitReason::MsrRead => msr::handle_read(ctx),
        ExitReason::MsrWrite => msr::handle_write(ctx),
        ExitReason::Rdtsc => time::handle_rdtsc(ctx, false),
        ExitReason::Rdtscp => time::handle_rdtsc(ctx, true),
        ExitReason::Hlt => time::handle_hlt(ctx),
        ExitReason::EptViolation => ept::handle_violation(ctx),
        ExitReason::EptMisconfig => ept::handle_misconfig(ctx),
        ExitReason::ExternalInterrupt => interrupt::handle_external(ctx),
        ExitReason::InterruptWindow => interrupt::handle_window(ctx),
        ExitReason::Vmcall => vmcall::handle(ctx),
        ExitReason::ApicAccess => apic::handle(ctx),
        ExitReason::DrAccess => misc::handle_dr(ctx),
        ExitReason::Wbinvd | ExitReason::Invd => misc::handle_wbinvd(ctx),
        ExitReason::Invlpg => misc::handle_invlpg(ctx),
        ExitReason::Xsetbv => misc::handle_xsetbv(ctx),
        ExitReason::Pause => misc::handle_pause(ctx),
        ExitReason::GdtrIdtrAccess | ExitReason::LdtrTrAccess => misc::handle_desc_table(ctx),
        ExitReason::PreemptionTimer => preempt::handle(ctx),
        ExitReason::TripleFault => {
            ctx.cov.hit(Component::Vmx, 11);
            Disposition::CrashDomain(crate::crash::DomainCrashReason::TripleFault)
        }
        ExitReason::ExceptionNmi => interrupt::handle_exception(ctx),
        other => {
            // Xen: gdprintk + domain_crash for truly unexpected reasons,
            // BUG() for "can't happen" ones. Reasons the hypervisor never
            // enabled exiting for fall in the second class.
            ctx.cov.hit(Component::Vmx, 12);
            Disposition::CrashHypervisor(HypervisorCrashReason::UnhandledExit {
                reason: other.number(),
            })
        }
    }
}
