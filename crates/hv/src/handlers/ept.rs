//! `EPT VIOLATION` / `EPT MISCONFIG` handling.
//!
//! An EPT violation on an MMIO page routes to the instruction emulator —
//! the guest-memory-dependent path that diverges under IRIS replay. A
//! violation on an unmapped RAM page is populate-on-demand. Misconfigured
//! entries get the `ept_misconfig` recalculation treatment.
//!
//! Coverage: component `P2m` blocks 20–49, plus `Emulate` and `Vlapic`
//! via the emulation path.

use crate::coverage::Component;
use crate::crash::DomainCrashReason;
use crate::ctx::{vector, Disposition, ExitCtx};
use crate::emulate::{emulate_mmio, EmulOutcome};
use iris_vtx::ept::{PageKind, PAGE_SHIFT};
use iris_vtx::exit::EptQual;
use iris_vtx::fields::VmcsField;

/// Entry point for `EPT VIOLATION` exits.
pub fn handle_violation(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::P2m, 20);
    let qual = EptQual::decode(ctx.vmread(VmcsField::ExitQualification));
    let gpa = ctx.vmread(VmcsField::GuestPhysicalAddress);
    let gfn = gpa >> PAGE_SHIFT;

    match ctx.ept.entry(gfn) {
        Some(e) if e.kind == PageKind::Mmio => {
            ctx.cov.hit(Component::P2m, 21);
            handle_mmio(ctx, gpa, qual.write)
        }
        Some(_) => {
            // Present RAM entry but the access still violated: permission
            // fixup (log-dirty / write-protect style).
            ctx.cov.hit(Component::P2m, 22);
            let host_pfn = gfn; // identity within the domain slot
            ctx.ept.map_ram(gfn, host_pfn, 1);
            Disposition::Resume
        }
        None => {
            let ram_frames = ctx.memory.ram_bytes() >> PAGE_SHIFT;
            if gfn < ram_frames {
                ctx.cov.hit(Component::P2m, 23);
                // Populate-on-demand.
                ctx.ept.map_ram(gfn, gfn, 1);
                Disposition::Resume
            } else {
                ctx.cov.hit(Component::P2m, 24);
                ctx.log.push(
                    ctx.tsc.now(),
                    crate::log::Level::Err,
                    format!("EPT violation on unmapped gfn {gfn:#x}"),
                );
                Disposition::CrashDomain(DomainCrashReason::IoError {
                    detail: format!("ept violation gpa {gpa:#x}"),
                })
            }
        }
    }
}

/// MMIO emulation with device routing: the xAPIC page goes to the vLAPIC;
/// anything else is treated as an unbacked device (reads float, writes
/// drop) — matching Xen's default ioreq handling with no device model
/// attached.
fn handle_mmio(ctx: &mut ExitCtx<'_>, gpa: u64, write: bool) -> Disposition {
    ctx.cov.hit(Component::P2m, 25);
    let apic_base = ctx
        .vcpu
        .hvm
        .msrs
        .raw(iris_vtx::msr::index::IA32_APIC_BASE)
        .unwrap_or(0xfee0_0900)
        & !0xfffu64;
    let outcome = emulate_mmio(
        ctx,
        gpa,
        write,
        |ctx, gpa| {
            if gpa & !0xfff == apic_base {
                let off = (gpa & 0xfff) as u32;
                let now = ctx.tsc.now();
                u64::from(ctx.vcpu.hvm.vlapic.read(off, now, &mut ctx.cov))
            } else {
                ctx.cov.hit(Component::P2m, 26);
                u64::MAX
            }
        },
        |ctx, gpa, v| {
            if gpa & !0xfff == apic_base {
                let off = (gpa & 0xfff) as u32;
                ctx.vcpu.hvm.vlapic.write(off, v as u32, &mut ctx.cov);
            } else {
                ctx.cov.hit(Component::P2m, 27);
            }
        },
    );
    match outcome {
        EmulOutcome::Done { len } => {
            ctx.cov.hit(Component::P2m, 28);
            // The emulator completed the instruction: skip it manually.
            let rip = ctx.vmread(VmcsField::GuestRip);
            ctx.vmwrite(VmcsField::GuestRip, rip + len);
            Disposition::Resume
        }
        EmulOutcome::Unhandleable { why } => {
            // Xen's hvm_emulate_one failure path: log and inject #UD so
            // the guest can die on its own terms (vs. crashing the domain
            // outright, which would make every replayed MMIO seed fatal).
            ctx.cov.hit(Component::P2m, 29);
            ctx.log.push(
                ctx.tsc.now(),
                crate::log::Level::Warning,
                format!("mmio emulation failed at {gpa:#x}: {why}"),
            );
            ctx.inject_exception(vector::UD, None)
                .unwrap_or(Disposition::Resume)
        }
    }
}

/// Entry point for `EPT MISCONFIG` exits.
pub fn handle_misconfig(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::P2m, 40);
    let gpa = ctx.vmread(VmcsField::GuestPhysicalAddress);
    let gfn = gpa >> PAGE_SHIFT;
    if ctx.ept.entry(gfn).is_some() {
        // Xen's ept_misconfig: recalculate the entry (memory-type change
        // propagation) and retry.
        ctx.cov.hit(Component::P2m, 41);
        ctx.ept.map_ram(gfn, gfn, 1);
        Disposition::Resume
    } else {
        ctx.cov.hit(Component::P2m, 42);
        Disposition::CrashDomain(DomainCrashReason::IoError {
            detail: format!("ept misconfig on absent gfn {gfn:#x}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;
    use crate::vlapic::reg;
    use iris_vtx::gpr::Gpr;

    fn violation(ctx: &mut ExitCtx<'_>, gpa: u64, write: bool) -> Disposition {
        let q = EptQual {
            read: !write,
            write,
            exec: false,
            gpa_readable: false,
            gpa_writable: false,
            gpa_executable: false,
            linear_valid: true,
        };
        ctx.vcpu
            .vmcs
            .hw_write(VmcsField::ExitQualification, q.encode());
        ctx.vcpu.vmcs.hw_write(VmcsField::GuestPhysicalAddress, gpa);
        handle_violation(ctx)
    }

    #[test]
    fn populate_on_demand_maps_and_resumes() {
        with_ctx(|ctx| {
            // with_ctx maps 256 RAM pages; RAM is 1 MiB (256 frames).
            // Unmap one and fault on it.
            ctx.ept.unmap(0x40);
            assert_eq!(violation(ctx, 0x40_000, false), Disposition::Resume);
            assert!(ctx.ept.entry(0x40).is_some());
        });
    }

    #[test]
    fn apic_mmio_store_reaches_vlapic() {
        with_ctx(|ctx| {
            ctx.ept.map_mmio(0xfee00);
            // Plant `mov [rax], ecx` at RIP and write the SVR.
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRip, 0x1000);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestCsBase, 0);
            ctx.memory
                .copy_to_guest(0x1000, &[0x89, 0x08, 0x90, 0x90])
                .unwrap();
            ctx.vcpu.gprs.set(Gpr::Rcx, 0x1ff);
            let d = violation(ctx, 0xfee0_0000 + u64::from(reg::SVR), true);
            assert_eq!(d, Disposition::Resume);
            assert!(ctx.vcpu.hvm.vlapic.enabled());
            // RIP advanced past the 2-byte MOV.
            assert_eq!(ctx.vcpu.vmcs.read(VmcsField::GuestRip), 0x1002);
        });
    }

    #[test]
    fn cold_memory_mmio_injects_ud_not_crash() {
        // The replay-divergence outcome: same exit, different path.
        with_ctx(|ctx| {
            ctx.ept.map_mmio(0xfee00);
            ctx.vcpu.vmcs.hw_write(VmcsField::GuestRip, 0x7_0000); // unpopulated
            let d = violation(ctx, 0xfee0_00f0, true);
            assert_eq!(d, Disposition::Resume);
            assert_eq!(ctx.vcpu.hvm.pending_event, Some((vector::UD, None)));
            assert_eq!(ctx.log.grep("mmio emulation failed").count(), 1);
        });
    }

    #[test]
    fn out_of_ram_violation_crashes_domain() {
        with_ctx(|ctx| {
            let d = violation(ctx, 0x4000_0000, true); // 1 GiB: outside RAM
            assert!(matches!(d, Disposition::CrashDomain(_)));
        });
    }

    #[test]
    fn misconfig_recalc_vs_crash() {
        with_ctx(|ctx| {
            ctx.ept.misconfigure(0x10);
            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::GuestPhysicalAddress, 0x10_000);
            assert_eq!(handle_misconfig(ctx), Disposition::Resume);
            // Entry is healthy again.
            assert!(!ctx.ept.entry(0x10).unwrap().misconfigured);

            ctx.vcpu
                .vmcs
                .hw_write(VmcsField::GuestPhysicalAddress, 0x9999_0000);
            assert!(matches!(handle_misconfig(ctx), Disposition::CrashDomain(_)));
        });
    }
}
