//! `I/O INSTRUCTION` handling.
//!
//! Non-string accesses move data between the GPR save area and the
//! emulated port devices. String forms (`INS`/`OUTS`) need guest memory —
//! one of the paths that diverge under IRIS replay (cold dummy-VM
//! memory).
//!
//! Coverage: component `Vmx` blocks 40–55; devices cover under `Io`;
//! string emulation under `Emulate`.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use crate::emulate::{emulate_string_io, EmulOutcome};
use iris_vtx::exit::{IoDirection, IoQual};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

/// Entry point for `I/O INSTRUCTION` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Vmx, 40);
    let qual = IoQual::decode(ctx.vmread(VmcsField::ExitQualification));

    // Hardware only reports 1/2/4-byte accesses; the handler trusts that
    // (as real Xen does). A forged qualification with another size would
    // overflow the emulator's 4-byte element buffer in C — a genuine
    // memory-safety bug the IRIS fuzzer can reach by flipping bits in
    // the qualification. Model it as the hypervisor crash it would be.
    if !matches!(qual.size, 1 | 2 | 4) {
        ctx.cov.hit(Component::Vmx, 47);
        return Disposition::CrashHypervisor(crate::crash::HypervisorCrashReason::HostPageFault {
            addr: u64::from(qual.port),
            context: format!("string I/O buffer overflow: element size {}", qual.size),
        });
    }

    if qual.string {
        ctx.cov.hit(Component::Vmx, 41);
        // Element count: REP uses RCX, which hardware mirrors into the
        // IO_RCX exit-info field (read through the hooks → in the seed).
        let count = if qual.rep {
            ctx.vmread(VmcsField::IoRcx).max(1)
        } else {
            1
        };
        let out = matches!(qual.direction, IoDirection::Out);
        let (done, outcome) = emulate_string_io(ctx, qual.port, qual.size, count, out);
        return match outcome {
            EmulOutcome::Done { .. } => {
                ctx.cov.hit(Component::Vmx, 42);
                if qual.rep {
                    ctx.vcpu.gprs.set(Gpr::Rcx, 0);
                }
                Disposition::AdvanceAndResume
            }
            EmulOutcome::Unhandleable { why } => {
                // Xen retries string I/O that faults mid-way by re-entering
                // the guest un-advanced; total failure injects #GP.
                ctx.cov.hit(Component::Vmx, 43);
                ctx.log.push(
                    ctx.tsc.now(),
                    crate::log::Level::Warning,
                    format!("string io port {:#x}: {why} (done {done})", qual.port),
                );
                if done == 0 {
                    ctx.inject_gp().unwrap_or(Disposition::AdvanceAndResume)
                } else {
                    Disposition::Resume
                }
            }
        };
    }

    ctx.cov.hit(Component::Vmx, 44);
    let tsc = ctx.tsc.now();
    match qual.direction {
        IoDirection::Out => {
            ctx.cov.hit(Component::Vmx, 45);
            let raw = ctx.vcpu.gprs.get32(Gpr::Rax);
            let value = raw & size_mask(qual.size);
            ctx.iobus.access(
                qual.port,
                IoDirection::Out,
                qual.size,
                value,
                tsc,
                &mut ctx.cov,
            );
        }
        IoDirection::In => {
            ctx.cov.hit(Component::Vmx, 46);
            let r = ctx
                .iobus
                .access(qual.port, IoDirection::In, qual.size, 0, tsc, &mut ctx.cov);
            // Partial-width IN merges into RAX like real hardware.
            let old = ctx.vcpu.gprs.get32(Gpr::Rax);
            let m = size_mask(qual.size);
            ctx.vcpu.gprs.set32(Gpr::Rax, (old & !m) | (r & m));
        }
    }
    Disposition::AdvanceAndResume
}

fn size_mask(size: u8) -> u32 {
    match size {
        1 => 0xff,
        2 => 0xffff,
        _ => 0xffff_ffff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    fn io_exit(ctx: &mut ExitCtx<'_>, q: IoQual) -> Disposition {
        ctx.vcpu
            .vmcs
            .hw_write(VmcsField::ExitQualification, q.encode());
        handle(ctx)
    }

    #[test]
    fn out_to_serial_reaches_uart() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, 0x5858_5841); // 'A' in AL
            let d = io_exit(
                ctx,
                IoQual {
                    size: 1,
                    direction: IoDirection::Out,
                    string: false,
                    rep: false,
                    port: 0x3f8,
                },
            );
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert_eq!(ctx.iobus.uart.tx_log, b"A");
        });
    }

    #[test]
    fn in_merges_partial_width_into_rax() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rax, 0x1111_2222);
            io_exit(
                ctx,
                IoQual {
                    size: 1,
                    direction: IoDirection::In,
                    string: false,
                    rep: false,
                    port: 0x3fd, // LSR reads 0x60
                },
            );
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rax), 0x1111_2260);
        });
    }

    #[test]
    fn rep_outs_consumes_rcx_elements() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rsi, 0x3000);
            ctx.vcpu.gprs.set(Gpr::Rcx, 4);
            ctx.memory.copy_to_guest(0x3000, b"xen!").unwrap();
            ctx.vcpu.vmcs.hw_write(VmcsField::IoRcx, 4);
            let d = io_exit(
                ctx,
                IoQual {
                    size: 1,
                    direction: IoDirection::Out,
                    string: true,
                    rep: true,
                    port: 0x3f8,
                },
            );
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert_eq!(ctx.iobus.uart.tx_log, b"xen!");
            assert_eq!(ctx.vcpu.gprs.get(Gpr::Rcx), 0);
        });
    }

    #[test]
    fn string_out_on_cold_memory_injects_gp() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rsi, 0x9_0000); // unpopulated
            ctx.vcpu.vmcs.hw_write(VmcsField::IoRcx, 2);
            let d = io_exit(
                ctx,
                IoQual {
                    size: 1,
                    direction: IoDirection::Out,
                    string: true,
                    rep: true,
                    port: 0x3f8,
                },
            );
            assert_eq!(d, Disposition::AdvanceAndResume);
            assert!(ctx.vcpu.hvm.pending_event.is_some());
            assert_eq!(ctx.log.grep("string io port").count(), 1);
        });
    }

    #[test]
    fn forged_size_qualification_is_a_hypervisor_crash() {
        // Found by the PoC fuzzer: flipping bit 2 of the qualification
        // makes size = 5, which would overflow the 4-byte element buffer
        // in the C emulator.
        with_ctx(|ctx| {
            let mut raw = IoQual {
                size: 1,
                direction: IoDirection::Out,
                string: true,
                rep: true,
                port: 0x3f8,
            }
            .encode();
            raw ^= 0x4; // size bits 2:0 = 4 → size 5
            ctx.vcpu.vmcs.hw_write(VmcsField::ExitQualification, raw);
            let d = handle(ctx);
            assert!(matches!(d, Disposition::CrashHypervisor(_)), "{d:?}");
        });
    }

    #[test]
    fn unclaimed_port_in_returns_all_ones() {
        with_ctx(|ctx| {
            io_exit(
                ctx,
                IoQual {
                    size: 2,
                    direction: IoDirection::In,
                    string: false,
                    rep: false,
                    port: 0x5678,
                },
            );
            assert_eq!(ctx.vcpu.gprs.get32(Gpr::Rax) & 0xffff, 0xffff);
            assert_eq!(ctx.iobus.unclaimed_accesses, 1);
        });
    }
}
