//! Segmentation state: segment registers with cached descriptors,
//! descriptor-table registers, and access-rights (AR) byte helpers.
//!
//! VM entry checks (SDM §26.3.1.2) validate segment AR bytes heavily, and
//! the protected-mode switch scenario of the paper's Fig. 2 revolves around
//! GDT setup — so the model carries full hidden-part state.

use serde::{Deserialize, Serialize};

/// Access-rights byte layout (as stored in VMCS `*_AR_BYTES` fields).
pub mod ar {
    /// Segment type field (bits 3:0).
    pub const TYPE_MASK: u32 = 0xf;
    /// Descriptor type: 1 = code/data, 0 = system (bit 4).
    pub const S: u32 = 1 << 4;
    /// DPL (bits 6:5).
    pub const DPL_SHIFT: u32 = 5;
    /// Present (bit 7).
    pub const P: u32 = 1 << 7;
    /// 64-bit code segment (bit 13).
    pub const L: u32 = 1 << 13;
    /// Default operation size (bit 14).
    pub const DB: u32 = 1 << 14;
    /// Granularity (bit 15).
    pub const G: u32 = 1 << 15;
    /// Segment unusable (bit 16) — VMX-specific.
    pub const UNUSABLE: u32 = 1 << 16;

    /// Type value for an execute/read, accessed code segment.
    pub const TYPE_CODE_ER_A: u32 = 0xb;
    /// Type value for a read/write, accessed data segment.
    pub const TYPE_DATA_RW_A: u32 = 0x3;
    /// Type value for a busy 32/64-bit TSS.
    pub const TYPE_TSS_BUSY: u32 = 0xb;
    /// Type value for an LDT.
    pub const TYPE_LDT: u32 = 0x2;
}

/// Which segment register (ordering matches the VMCS field blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SegReg {
    Es,
    Cs,
    Ss,
    Ds,
    Fs,
    Gs,
    Ldtr,
    Tr,
}

impl SegReg {
    /// All segment registers in VMCS order.
    pub const ALL: [SegReg; 8] = [
        SegReg::Es,
        SegReg::Cs,
        SegReg::Ss,
        SegReg::Ds,
        SegReg::Fs,
        SegReg::Gs,
        SegReg::Ldtr,
        SegReg::Tr,
    ];
}

/// One segment register: visible selector plus the hidden (cached)
/// descriptor part the VMCS stores explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Visible selector.
    pub selector: u16,
    /// Cached base address.
    pub base: u64,
    /// Cached limit (byte granular as stored in the VMCS).
    pub limit: u32,
    /// Cached access rights in VMCS AR-byte layout.
    pub ar: u32,
}

impl Segment {
    /// The real-mode segment a CPU has after reset for CS
    /// (base = selector << 4 convention, fully accessible).
    #[must_use]
    pub fn real_mode(selector: u16) -> Self {
        Segment {
            selector,
            base: u64::from(selector) << 4,
            limit: 0xffff,
            ar: ar::TYPE_DATA_RW_A | ar::S | ar::P,
        }
    }

    /// A flat 64-bit code segment.
    #[must_use]
    pub fn flat_code64(selector: u16) -> Self {
        Segment {
            selector,
            base: 0,
            limit: 0xffff_ffff,
            ar: ar::TYPE_CODE_ER_A | ar::S | ar::P | ar::L | ar::G,
        }
    }

    /// A busy TSS as VM entry requires for TR.
    #[must_use]
    pub fn busy_tss(selector: u16, base: u64) -> Self {
        Segment {
            selector,
            base,
            limit: 0x67,
            ar: ar::TYPE_TSS_BUSY | ar::P,
        }
    }

    /// An unusable segment (VMX "segment unusable" bit set).
    #[must_use]
    pub fn unusable() -> Self {
        Segment {
            selector: 0,
            base: 0,
            limit: 0,
            ar: ar::UNUSABLE,
        }
    }

    /// Present bit.
    #[must_use]
    pub fn present(&self) -> bool {
        self.ar & ar::P != 0
    }

    /// Code segment (S set, type bit 3 set).
    #[must_use]
    pub fn is_code(&self) -> bool {
        self.ar & ar::S != 0 && self.ar & 0x8 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_mode_segment_base_convention() {
        let s = Segment::real_mode(0xf000);
        assert_eq!(s.base, 0xf0000);
        assert_eq!(s.limit, 0xffff);
        assert!(s.present());
        assert_eq!(s.ar & ar::UNUSABLE, 0);
    }

    #[test]
    fn flat_segments_cover_4g() {
        let code = Segment::flat_code64(0x8);
        assert_eq!(code.limit, 0xffff_ffff);
        assert!(code.is_code());
        assert!(code.ar & ar::L != 0);
        assert!(!Segment::real_mode(0x10).is_code());
    }

    #[test]
    fn tss_is_busy_and_present() {
        let t = Segment::busy_tss(0x28, 0x5000);
        assert_eq!(t.ar & ar::TYPE_MASK, ar::TYPE_TSS_BUSY);
        assert!(t.present());
    }

    #[test]
    fn unusable_flag() {
        let s = Segment::unusable();
        assert_eq!(s.ar, ar::UNUSABLE);
        assert!(!s.present());
    }
}
