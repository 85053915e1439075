//! `CPUID` handling.
//!
//! The guest's leaf/subleaf come from RAX/RCX in the GPR save area (part
//! of the VM seed); results go back the same way. Xen filters host
//! capabilities and adds the hypervisor leaves at 0x4000_0000 (the
//! `XenVMMXenVMM` signature a guest probes to detect Xen).
//!
//! Coverage: component `Hvm` blocks 80–129.

use crate::coverage::Component;
use crate::ctx::{Disposition, ExitCtx};
use iris_vtx::gpr::Gpr;

/// Entry point for `CPUID` exits.
pub fn handle(ctx: &mut ExitCtx<'_>) -> Disposition {
    ctx.cov.hit(Component::Hvm, 80);
    let leaf = ctx.vcpu.gprs.get32(Gpr::Rax);
    let subleaf = ctx.vcpu.gprs.get32(Gpr::Rcx);
    let (a, b, c, d) = cpuid_policy(ctx, leaf, subleaf);
    ctx.vcpu.gprs.set32(Gpr::Rax, a);
    ctx.vcpu.gprs.set32(Gpr::Rbx, b);
    ctx.vcpu.gprs.set32(Gpr::Rcx, c);
    ctx.vcpu.gprs.set32(Gpr::Rdx, d);
    Disposition::AdvanceAndResume
}

fn cpuid_policy(ctx: &mut ExitCtx<'_>, leaf: u32, subleaf: u32) -> (u32, u32, u32, u32) {
    match leaf {
        0x0 => {
            ctx.cov.hit(Component::Hvm, 81);
            // Max leaf 0xd, "GenuineIntel".
            (0xd, 0x756e_6547, 0x6c65_746e, 0x4965_6e69)
        }
        0x1 => {
            ctx.cov.hit(Component::Hvm, 82);
            // Family 6 model 60 (Haswell, the paper's testbed), with the
            // hypervisor-present bit (ECX[31]) set and VMX masked out.
            let ecx = (1 << 31) | (1 << 23) | (1 << 19) | (1 << 0); // HV, POPCNT, SSE4.1, SSE3
            let edx = (1 << 25) | (1 << 15) | (1 << 8) | (1 << 6) | (1 << 5) | (1 << 4) | 1;
            (0x0003_06c3, 0x0010_0800, ecx, edx)
        }
        0x2 => {
            ctx.cov.hit(Component::Hvm, 83);
            (0x7636_3301, 0, 0, 0)
        }
        0x4 => {
            ctx.cov.hit(Component::Hvm, 84);
            match subleaf {
                0 => (0x1c00_4121, 0x01c0_003f, 0x3f, 0),
                1 => (0x1c00_4122, 0x01c0_003f, 0x3f, 0),
                2 => (0x1c00_4143, 0x01c0_003f, 0x1ff, 0),
                _ => (0, 0, 0, 0),
            }
        }
        0x7 => {
            ctx.cov.hit(Component::Hvm, 85);
            if subleaf == 0 {
                // SMAP, SMEP, FSGSBASE.
                (0, (1 << 20) | (1 << 7) | (1 << 0), 0, 0)
            } else {
                (0, 0, 0, 0)
            }
        }
        0xb => {
            ctx.cov.hit(Component::Hvm, 86);
            // Topology: one thread, one core (the 1 vCPU pinning of §VI).
            match subleaf {
                0 => (0, 1, 0x100, 0),
                _ => (0, 1, 0x201, 0),
            }
        }
        0xd => {
            ctx.cov.hit(Component::Hvm, 87);
            (0x7, 0x340, 0x340, 0)
        }
        0x4000_0000 => {
            ctx.cov.hit(Component::Hvm, 88);
            // "XenVMMXenVMM", max hypervisor leaf 0x40000002.
            (0x4000_0002, 0x566e_6558, 0x65584d4d, 0x4d4d_566e)
        }
        0x4000_0001 => {
            ctx.cov.hit(Component::Hvm, 89);
            // Xen version 4.16.
            ((4 << 16) | 16, 0, 0, 0)
        }
        0x4000_0002 => {
            ctx.cov.hit(Component::Hvm, 90);
            // Hypercall pages, MSR base.
            (1, 0x4000_0000, 0, 0)
        }
        0x8000_0000 => {
            ctx.cov.hit(Component::Hvm, 91);
            (0x8000_0008, 0, 0, 0)
        }
        0x8000_0001 => {
            ctx.cov.hit(Component::Hvm, 92);
            (0, 0, 1, (1 << 29) | (1 << 20)) // LM, NX
        }
        0x8000_0008 => {
            ctx.cov.hit(Component::Hvm, 93);
            (0x3027, 0, 0, 0) // 39/48 address bits
        }
        _ => {
            ctx.cov.hit(Component::Hvm, 94);
            // Out-of-range leaves return the highest basic leaf's data;
            // we return zeros like Xen's policy for unknown ranges.
            (0, 0, 0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::with_ctx;

    fn run_leaf(leaf: u32, subleaf: u32) -> (u32, u32, u32, u32) {
        with_ctx(|ctx| {
            ctx.vcpu.gprs.set32(Gpr::Rax, leaf);
            ctx.vcpu.gprs.set32(Gpr::Rcx, subleaf);
            assert_eq!(handle(ctx), Disposition::AdvanceAndResume);
            (
                ctx.vcpu.gprs.get32(Gpr::Rax),
                ctx.vcpu.gprs.get32(Gpr::Rbx),
                ctx.vcpu.gprs.get32(Gpr::Rcx),
                ctx.vcpu.gprs.get32(Gpr::Rdx),
            )
        })
    }

    #[test]
    fn leaf0_is_genuine_intel() {
        let (max, b, c, d) = run_leaf(0, 0);
        assert_eq!(max, 0xd);
        let mut sig = Vec::new();
        sig.extend(b.to_le_bytes());
        sig.extend(d.to_le_bytes());
        sig.extend(c.to_le_bytes());
        assert_eq!(&sig, b"GenuineIntel");
    }

    #[test]
    fn leaf1_advertises_hypervisor_bit() {
        let (_, _, c, _) = run_leaf(1, 0);
        assert_ne!(c & (1 << 31), 0, "CPUID.1 ECX[31] hypervisor present");
        assert_eq!(c & (1 << 5), 0, "VMX must be masked from the guest");
    }

    #[test]
    fn xen_signature_leaf() {
        let (max, b, c, d) = run_leaf(0x4000_0000, 0);
        assert_eq!(max, 0x4000_0002);
        let mut sig = Vec::new();
        sig.extend(b.to_le_bytes());
        sig.extend(c.to_le_bytes());
        sig.extend(d.to_le_bytes());
        assert_eq!(&sig[..12], b"XenVMMXenVMM");
    }

    #[test]
    fn xen_version_leaf() {
        let (v, _, _, _) = run_leaf(0x4000_0001, 0);
        assert_eq!(v >> 16, 4);
        assert_eq!(v & 0xffff, 16);
    }

    #[test]
    fn unknown_leaves_are_zero() {
        assert_eq!(run_leaf(0x1234_5678, 0), (0, 0, 0, 0));
    }

    #[test]
    fn cache_subleaves_differ() {
        assert_ne!(run_leaf(4, 0), run_leaf(4, 2));
    }
}
