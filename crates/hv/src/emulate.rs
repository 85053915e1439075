//! The HVM instruction emulator (`emulate.c`).
//!
//! When a guest instruction touches emulated MMIO (or uses a string I/O
//! form), the hypervisor cannot rely on the exit qualification alone: it
//! must **fetch and decode the instruction from guest memory**. That
//! dependency is the crux of the paper's accuracy analysis: IRIS does not
//! record guest memory, so during replay the fetch fails and the emulator
//! takes its unhandleable path instead of the decode path — the >30 LOC
//! coverage differences of Fig. 7 (*"These differences refer to the HVM
//! instruction emulator (`emulate.c`)..."*).
//!
//! The decoder handles the MOV forms a Linux kernel actually uses on MMIO
//! plus REP MOVS/STOS for string I/O; everything else is
//! `X86EMUL_UNHANDLEABLE`, which the callers turn into an injected #UD or
//! a domain crash, as Xen does.
//!
//! Coverage block ids: component `Emulate`, blocks 0–79.

use crate::coverage::Component;
use crate::ctx::ExitCtx;
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

/// Result of one emulation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmulOutcome {
    /// Emulated successfully; RIP should advance by the decoded length.
    Done {
        /// Decoded instruction length.
        len: u64,
    },
    /// The instruction could not be fetched or decoded
    /// (`X86EMUL_UNHANDLEABLE`).
    Unhandleable {
        /// Why (for the log).
        why: &'static str,
    },
}

/// A decoded MMIO-capable instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decoded {
    /// `MOV r32/r64 -> [mem]` (0x89 /r with our fixed addressing).
    Store { reg: Gpr, len: u64 },
    /// `MOV [mem] -> r32/r64` (0x8b /r).
    Load { reg: Gpr, len: u64 },
    /// `MOVZX`-style byte load (0x0f 0xb6).
    LoadByte { reg: Gpr, len: u64 },
}

fn reg_from_modrm(modrm: u8) -> Gpr {
    match (modrm >> 3) & 0x7 {
        0 => Gpr::Rax,
        1 => Gpr::Rcx,
        2 => Gpr::Rdx,
        3 => Gpr::Rbx,
        4 => Gpr::Rbp, // RSP slot remapped: our guests don't MMIO via RSP
        5 => Gpr::Rbp,
        6 => Gpr::Rsi,
        _ => Gpr::Rdi,
    }
}

/// Fetch up to 4 instruction bytes at the guest RIP.
///
/// The guest runs with flat segmentation once out of real mode, and our
/// guests identity-map their kernel text, so `CS.base + RIP` low bits are
/// used as the guest-physical fetch address (what Xen's
/// `hvm_fetch_from_guest_linear` resolves via the guest page tables).
fn fetch_instruction(ctx: &mut ExitCtx<'_>) -> Result<[u8; 4], ()> {
    ctx.cov.hit(Component::Emulate, 0);
    let rip = ctx.vmread(VmcsField::GuestRip);
    let cs_base = ctx.vmread(VmcsField::GuestCsBase);
    let fetch_gpa = (cs_base.wrapping_add(rip)) & 0x3fff_ffff; // 1 GiB guests
    let mut bytes = [0u8; 4];
    match ctx.copy_from_guest(fetch_gpa, &mut bytes) {
        Ok(()) => {
            ctx.cov.hit(Component::Emulate, 1);
            Ok(bytes)
        }
        Err(_) => {
            // The replay-divergence path: cold dummy-VM memory.
            ctx.cov.hit(Component::Emulate, 2);
            Err(())
        }
    }
}

fn decode(bytes: [u8; 4], ctx: &mut ExitCtx<'_>) -> Option<Decoded> {
    ctx.cov.hit(Component::Emulate, 3);
    let (op, modrm_idx, base_len) = if bytes[0] == 0x48 || bytes[0] == 0x66 {
        // REX.W / operand-size prefix.
        ctx.cov.hit(Component::Emulate, 4);
        (bytes[1], 2usize, 3u64)
    } else {
        (bytes[0], 1usize, 2u64)
    };
    match op {
        0x89 => {
            ctx.cov.hit(Component::Emulate, 5);
            Some(Decoded::Store {
                reg: reg_from_modrm(bytes[modrm_idx]),
                len: base_len,
            })
        }
        0x8b => {
            ctx.cov.hit(Component::Emulate, 6);
            Some(Decoded::Load {
                reg: reg_from_modrm(bytes[modrm_idx]),
                len: base_len,
            })
        }
        0x0f if bytes[modrm_idx] == 0xb6 => {
            ctx.cov.hit(Component::Emulate, 7);
            Some(Decoded::LoadByte {
                reg: reg_from_modrm(bytes[modrm_idx + 1]),
                len: base_len + 1,
            })
        }
        _ => {
            ctx.cov.hit(Component::Emulate, 8);
            None
        }
    }
}

/// Emulate the instruction that faulted on MMIO address `gpa`.
///
/// `mmio_read`/`mmio_write` perform the device access (the caller routes
/// to the vLAPIC page, HPET, ...).
pub fn emulate_mmio(
    ctx: &mut ExitCtx<'_>,
    gpa: u64,
    write: bool,
    mut mmio_read: impl FnMut(&mut ExitCtx<'_>, u64) -> u64,
    mut mmio_write: impl FnMut(&mut ExitCtx<'_>, u64, u64),
) -> EmulOutcome {
    ctx.cov.hit(Component::Emulate, 10);
    let Ok(bytes) = fetch_instruction(ctx) else {
        return EmulOutcome::Unhandleable {
            why: "instruction fetch failed",
        };
    };
    let Some(decoded) = decode(bytes, ctx) else {
        ctx.cov.hit(Component::Emulate, 11);
        return EmulOutcome::Unhandleable {
            why: "opcode not handled",
        };
    };
    match decoded {
        Decoded::Store { reg, len } => {
            ctx.cov.hit(Component::Emulate, 12);
            if !write {
                // Qualification said read but the instruction stores:
                // inconsistent state the emulator rejects.
                ctx.cov.hit(Component::Emulate, 13);
                return EmulOutcome::Unhandleable {
                    why: "access direction mismatch",
                };
            }
            let v = ctx.vcpu.gprs.get(reg);
            mmio_write(ctx, gpa, v);
            EmulOutcome::Done { len }
        }
        Decoded::Load { reg, len } => {
            ctx.cov.hit(Component::Emulate, 14);
            let v = mmio_read(ctx, gpa);
            ctx.vcpu.gprs.set32(reg, v as u32);
            EmulOutcome::Done { len }
        }
        Decoded::LoadByte { reg, len } => {
            ctx.cov.hit(Component::Emulate, 15);
            let v = mmio_read(ctx, gpa) & 0xff;
            ctx.vcpu.gprs.set(reg, v);
            EmulOutcome::Done { len }
        }
    }
}

/// Emulate a REP OUTS/INS string I/O operation: `count` elements of
/// `size` bytes between guest memory at RSI/RDI and the port.
///
/// Returns the number of elements actually transferred before a guest
/// memory failure (again: replay hits 0 immediately on cold memory).
pub fn emulate_string_io(
    ctx: &mut ExitCtx<'_>,
    port: u16,
    size: u8,
    count: u64,
    out: bool,
) -> (u64, EmulOutcome) {
    ctx.cov.hit(Component::Emulate, 20);
    debug_assert!(matches!(size, 1 | 2 | 4), "caller validates the size");
    let size = size.clamp(1, 4);
    // Xen's hvmemul processes string I/O in bounded chunks and re-enters
    // the guest for the remainder; one exit never transfers more than a
    // chunk (guards against guest-controlled RCX values).
    let count = count.min(4096);
    let mut addr = if out {
        ctx.vcpu.gprs.get(Gpr::Rsi)
    } else {
        ctx.vcpu.gprs.get(Gpr::Rdi)
    } & 0x3fff_ffff;
    let mut done = 0u64;
    let mut buf = [0u8; 4];
    while done < count {
        if out {
            if ctx
                .copy_from_guest(addr, &mut buf[..size as usize])
                .is_err()
            {
                ctx.cov.hit(Component::Emulate, 21);
                return (
                    done,
                    EmulOutcome::Unhandleable {
                        why: "string read from guest failed",
                    },
                );
            }
            ctx.cov.hit(Component::Emulate, 22);
            let v = u32::from_le_bytes(buf);
            let tsc = ctx.tsc.now();
            ctx.iobus.access(
                port,
                iris_vtx::exit::IoDirection::Out,
                size,
                v,
                tsc,
                &mut ctx.cov,
            );
        } else {
            ctx.cov.hit(Component::Emulate, 23);
            let tsc = ctx.tsc.now();
            let value = ctx.iobus.access(
                port,
                iris_vtx::exit::IoDirection::In,
                size,
                0,
                tsc,
                &mut ctx.cov,
            );
            buf = value.to_le_bytes();
            if ctx.copy_to_guest(addr, &buf[..size as usize]).is_err() {
                ctx.cov.hit(Component::Emulate, 24);
                return (
                    done,
                    EmulOutcome::Unhandleable {
                        why: "string write to guest failed",
                    },
                );
            }
        }
        addr += u64::from(size);
        done += 1;
    }
    ctx.cov.hit(Component::Emulate, 25);
    (done, EmulOutcome::Done { len: 2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use iris_vtx::fields::VmcsField;

    fn plant_instruction(ctx: &mut ExitCtx<'_>, rip: u64, bytes: &[u8]) {
        ctx.vcpu.vmcs.hw_write(VmcsField::GuestRip, rip);
        ctx.vcpu.vmcs.hw_write(VmcsField::GuestCsBase, 0);
        ctx.memory.copy_to_guest(rip, bytes).unwrap();
    }

    #[test]
    fn mov_store_to_mmio_is_emulated() {
        with_ctx(|ctx| {
            plant_instruction(ctx, 0x1000, &[0x89, 0x08, 0x90, 0x90]); // mov [rax], ecx
            ctx.vcpu.gprs.set(Gpr::Rcx, 0xabcd);
            let mut written = None;
            let r = emulate_mmio(
                ctx,
                0xfee0_0080,
                true,
                |_, _| 0,
                |_, gpa, v| written = Some((gpa, v)),
            );
            assert_eq!(r, EmulOutcome::Done { len: 2 });
            assert_eq!(written, Some((0xfee0_0080, 0xabcd)));
        });
    }

    #[test]
    fn mov_load_from_mmio_updates_gpr() {
        with_ctx(|ctx| {
            plant_instruction(ctx, 0x1000, &[0x8b, 0x10, 0x90, 0x90]); // mov edx, [rax]
            let r = emulate_mmio(ctx, 0xfee0_0020, false, |_, _| 0x1234_5678, |_, _, _| {});
            assert_eq!(r, EmulOutcome::Done { len: 2 });
            assert_eq!(ctx.vcpu.gprs.get(Gpr::Rdx), 0x1234_5678);
        });
    }

    #[test]
    fn cold_memory_fetch_is_unhandleable() {
        // The replay-divergence path: nothing planted at RIP.
        with_ctx(|ctx| {
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRip, 0x5_0000);
            let r = emulate_mmio(ctx, 0xfee0_0020, false, |_, _| 0, |_, _, _| {});
            assert_eq!(
                r,
                EmulOutcome::Unhandleable {
                    why: "instruction fetch failed"
                }
            );
        });
    }

    #[test]
    fn unknown_opcode_is_unhandleable() {
        with_ctx(|ctx| {
            plant_instruction(ctx, 0x1000, &[0xf4, 0x00, 0x00, 0x00]); // hlt
            let r = emulate_mmio(ctx, 0xfee0_0000, false, |_, _| 0, |_, _, _| {});
            assert_eq!(
                r,
                EmulOutcome::Unhandleable {
                    why: "opcode not handled"
                }
            );
        });
    }

    #[test]
    fn rex_prefix_lengthens_the_instruction() {
        with_ctx(|ctx| {
            plant_instruction(ctx, 0x2000, &[0x48, 0x8b, 0x18, 0x90]); // mov rbx, [rax]
            let r = emulate_mmio(ctx, 0xfee0_0000, false, |_, _| 7, |_, _, _| {});
            assert_eq!(r, EmulOutcome::Done { len: 3 });
            assert_eq!(ctx.vcpu.gprs.get(Gpr::Rbx), 7);
        });
    }

    #[test]
    fn string_out_reads_guest_buffer() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rsi, 0x3000);
            ctx.memory
                .copy_to_guest(0x3000, &[b'h', b'i', b'!', 0])
                .unwrap();
            let (done, r) = emulate_string_io(ctx, 0x3f8, 1, 3, true);
            assert_eq!(done, 3);
            assert_eq!(r, EmulOutcome::Done { len: 2 });
            assert_eq!(ctx.iobus.uart.tx_log, b"hi!");
        });
    }

    #[test]
    fn string_out_from_cold_memory_stops_at_zero() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rsi, 0x8_0000); // never written
            let (done, r) = emulate_string_io(ctx, 0x3f8, 1, 4, true);
            assert_eq!(done, 0);
            assert!(matches!(r, EmulOutcome::Unhandleable { .. }));
        });
    }

    #[test]
    fn string_in_writes_guest_buffer() {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set(Gpr::Rdi, 0x4000);
            ctx.memory.copy_to_guest(0x4000, &[0; 4]).unwrap(); // populate
            let (done, _) = emulate_string_io(ctx, 0x3fd, 1, 2, false);
            assert_eq!(done, 2);
            let mut b = [0u8; 2];
            ctx.memory.copy_from_guest(0x4000, &mut b).unwrap();
            assert_eq!(b, [0x60, 0x60]); // LSR value
        });
    }
}
