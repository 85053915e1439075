//! `VMCALL` — the hypercall interface.
//!
//! The hypercall number arrives in RAX, arguments in RDI/RSI/RDX/R10/R8
//! (the Xen 64-bit HVM ABI). The table carries the hypercalls a Linux
//! DomU actually issues plus `xc_vmcs_fuzzing`, the control interface the
//! paper adds for the IRIS manager (§V-C). Several hypercalls copy
//! argument structures from guest memory via `copy_from_guest` — another
//! guest-memory dependency.
//!
//! Coverage: component `Hypercall` blocks 0–69.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::gpr::Gpr;
use serde::{Deserialize, Serialize};

/// Hypercall numbers (Xen ABI subset + the IRIS control call).
pub mod nr {
    /// `memory_op`.
    pub const MEMORY_OP: u64 = 12;
    /// `xen_version`.
    pub const XEN_VERSION: u64 = 17;
    /// `console_io`.
    pub const CONSOLE_IO: u64 = 18;
    /// `grant_table_op`.
    pub const GRANT_TABLE_OP: u64 = 20;
    /// `vcpu_op`.
    pub const VCPU_OP: u64 = 24;
    /// `sched_op`.
    pub const SCHED_OP: u64 = 29;
    /// `event_channel_op`.
    pub const EVENT_CHANNEL_OP: u64 = 32;
    /// `hvm_op`.
    pub const HVM_OP: u64 = 34;
    /// The paper's `xc_vmcs_fuzzing` control hypercall.
    pub const VMCS_FUZZING: u64 = 63;
}

/// `-ENOSYS`, what Xen returns for unknown hypercalls.
pub const ENOSYS: u64 = (-38i64) as u64;
/// `-EINVAL`.
pub const EINVAL: u64 = (-22i64) as u64;

/// Sub-operations of `xc_vmcs_fuzzing` (§V-C: *"to enable and control the
/// recording and replaying phases"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u64)]
pub enum FuzzingSubop {
    /// Enable record mode.
    RecordStart = 0,
    /// Disable record mode.
    RecordStop = 1,
    /// Enable replay mode.
    ReplayStart = 2,
    /// Disable replay mode.
    ReplayStop = 3,
    /// Retrieve recorded seeds/metrics (copy_to_guest of the buffers).
    Fetch = 4,
    /// Submit a VM seed (copy_from_guest of the buffer).
    Submit = 5,
}

impl FuzzingSubop {
    /// Decode a subop number.
    #[must_use]
    pub fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(Self::RecordStart),
            1 => Some(Self::RecordStop),
            2 => Some(Self::ReplayStart),
            3 => Some(Self::ReplayStop),
            4 => Some(Self::Fetch),
            5 => Some(Self::Submit),
            _ => None,
        }
    }
}

/// Hypervisor-side state of the IRIS manager toggles, mutated by
/// `xc_vmcs_fuzzing` and read by `iris-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzingCtl {
    /// Record mode enabled.
    pub record_enabled: bool,
    /// Replay mode enabled.
    pub replay_enabled: bool,
    /// Seeds fetched via the hypercall interface.
    pub fetches: u64,
    /// Seeds submitted via the hypercall interface.
    pub submissions: u64,
}

/// Entry point for `VMCALL` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Hypercall, 0);
    let call = ctx.vcpu.gprs.get(Gpr::Rax);
    let a1 = ctx.vcpu.gprs.get(Gpr::Rdi);
    let a2 = ctx.vcpu.gprs.get(Gpr::Rsi);
    let ret = match call {
        nr::XEN_VERSION => {
            ctx.cov.hit(Component::Hypercall, 10);
            // XENVER_version: (major << 16) | minor.
            (4u64 << 16) | 16
        }
        nr::CONSOLE_IO => {
            ctx.cov.hit(Component::Hypercall, 20);
            // CONSOLEIO_write: a1=op(0), a2=count, arg3=buffer gpa (rdx).
            let count = a2.min(128) as usize;
            let gpa = ctx.vcpu.gprs.get(Gpr::Rdx);
            let mut buf = vec![0u8; count];
            match ctx.copy_from_guest(gpa, &mut buf) {
                Ok(()) => {
                    ctx.cov.hit(Component::Hypercall, 21);
                    let text = String::from_utf8_lossy(&buf).into_owned();
                    ctx.log.push(
                        ctx.tsc.now(),
                        crate::log::Level::Info,
                        format!("(d{}) {text}", ctx.domain_id),
                    );
                    count as u64
                }
                Err(_) => {
                    ctx.cov.hit(Component::Hypercall, 22);
                    EINVAL
                }
            }
        }
        nr::SCHED_OP => {
            ctx.cov.hit(Component::Hypercall, 30);
            match a1 {
                0 => {
                    // SCHEDOP_yield.
                    ctx.cov.hit(Component::Hypercall, 31);
                    0
                }
                1 => {
                    // SCHEDOP_block: like HLT.
                    ctx.cov.hit(Component::Hypercall, 32);
                    ctx.vcpu.gprs.set(Gpr::Rax, 0);
                    return Disposition::Halt;
                }
                _ => {
                    ctx.cov.hit(Component::Hypercall, 33);
                    ENOSYS
                }
            }
        }
        nr::MEMORY_OP => {
            ctx.cov.hit(Component::Hypercall, 40);
            // XENMEM_maximum_ram_page and friends: return something sane.
            ctx.memory.ram_bytes() >> iris_vtx::ept::PAGE_SHIFT
        }
        nr::EVENT_CHANNEL_OP => {
            ctx.cov.hit(Component::Hypercall, 45);
            0
        }
        nr::VCPU_OP => {
            ctx.cov.hit(Component::Hypercall, 50);
            if a2 == u64::from(ctx.vcpu.id) {
                0
            } else {
                EINVAL
            }
        }
        nr::GRANT_TABLE_OP | nr::HVM_OP => {
            ctx.cov.hit(Component::Hypercall, 55);
            0
        }
        nr::VMCS_FUZZING => {
            // The IRIS manager interface. Privileged: only the control
            // domain may drive it.
            ctx.cov.hit(Component::IrisFramework, 0);
            if ctx.domain_id != 0 {
                ctx.cov.hit(Component::IrisFramework, 1);
                EINVAL
            } else {
                match FuzzingSubop::from_u64(a1) {
                    Some(_) => {
                        ctx.cov.hit(Component::IrisFramework, 2);
                        0
                    }
                    None => EINVAL,
                }
            }
        }
        _ => {
            ctx.cov.hit(Component::Hypercall, 60);
            // Campaigns run with the threshold at Warning; lazy push so
            // this debug line never allocates on the fuzzing hot path.
            ctx.log
                .push_with(ctx.tsc.now(), crate::log::Level::Debug, || {
                    format!("unimplemented hypercall {call}")
                });
            ENOSYS
        }
    };
    ctx.vcpu.gprs.set(Gpr::Rax, ret);
    Disposition::AdvanceAndResume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    fn call(ctx: &mut ExitCtx<'_>, nr: u64, a1: u64, a2: u64, a3: u64) -> u64 {
        ctx.vcpu.gprs.set(Gpr::Rax, nr);
        ctx.vcpu.gprs.set(Gpr::Rdi, a1);
        ctx.vcpu.gprs.set(Gpr::Rsi, a2);
        ctx.vcpu.gprs.set(Gpr::Rdx, a3);
        handle(ctx);
        ctx.vcpu.gprs.get(Gpr::Rax)
    }

    #[test]
    fn xen_version_is_4_16() {
        with_ctx(|ctx| {
            assert_eq!(call(ctx, nr::XEN_VERSION, 0, 0, 0), (4 << 16) | 16);
        });
    }

    #[test]
    fn console_io_copies_from_guest_and_logs() {
        with_ctx(|ctx| {
            ctx.memory.copy_to_guest(0x2000, b"hello xen").unwrap();
            let r = call(ctx, nr::CONSOLE_IO, 0, 9, 0x2000);
            assert_eq!(r, 9);
            assert_eq!(ctx.log.grep("hello xen").count(), 1);
        });
    }

    #[test]
    fn console_io_from_cold_memory_fails_einval() {
        with_ctx(|ctx| {
            let r = call(ctx, nr::CONSOLE_IO, 0, 9, 0x9_0000);
            assert_eq!(r, EINVAL);
        });
    }

    #[test]
    fn unknown_hypercall_is_enosys() {
        with_ctx(|ctx| {
            assert_eq!(call(ctx, 999, 0, 0, 0), ENOSYS);
            assert_eq!(ctx.log.grep("unimplemented hypercall 999").count(), 1);
        });
    }

    #[test]
    fn sched_block_halts() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, nr::SCHED_OP);
            ctx.vcpu.gprs.set(Gpr::Rdi, 1);
            assert_eq!(handle(ctx), Disposition::Halt);
        });
    }

    #[test]
    fn vmcs_fuzzing_is_domain0_only() {
        with_ctx(|ctx| {
            // with_ctx builds domain_id 1.
            assert_eq!(call(ctx, nr::VMCS_FUZZING, 0, 0, 0), EINVAL);
        });
    }

    #[test]
    fn fuzzing_subop_decoding() {
        assert_eq!(FuzzingSubop::from_u64(0), Some(FuzzingSubop::RecordStart));
        assert_eq!(FuzzingSubop::from_u64(5), Some(FuzzingSubop::Submit));
        assert_eq!(FuzzingSubop::from_u64(6), None);
    }
}
