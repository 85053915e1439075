//! Control registers: CR0/CR4 bit semantics, guest/host masks, read
//! shadows, and the CR0 *operating-mode ladder* of the paper's Fig. 8.
//!
//! Under VT-x the hypervisor owns some CR0/CR4 bits: the *guest/host mask*
//! marks host-owned bits; guest reads of those bits come from the *read
//! shadow*, and guest writes to them trigger a `CR ACCESS` VM exit. This is
//! the machinery the paper's Fig. 2 walks through for the real-mode →
//! protected-mode switch, and the part of the VMCS the IRIS accuracy
//! experiment validates via `VMWRITE` fitting.

use serde::{Deserialize, Serialize};

/// CR0 bit positions (SDM Vol. 3A §2.5).
pub mod cr0 {
    /// Protection Enable — protected mode when set.
    pub const PE: u64 = 1 << 0;
    /// Monitor Coprocessor.
    pub const MP: u64 = 1 << 1;
    /// Emulation (no x87).
    pub const EM: u64 = 1 << 2;
    /// Task Switched.
    pub const TS: u64 = 1 << 3;
    /// Extension Type (hardwired 1 on modern CPUs).
    pub const ET: u64 = 1 << 4;
    /// Numeric Error.
    pub const NE: u64 = 1 << 5;
    /// Write Protect.
    pub const WP: u64 = 1 << 16;
    /// Alignment Mask.
    pub const AM: u64 = 1 << 18;
    /// Not Write-through.
    pub const NW: u64 = 1 << 29;
    /// Cache Disable.
    pub const CD: u64 = 1 << 30;
    /// Paging.
    pub const PG: u64 = 1 << 31;

    /// Bits that are architecturally defined; everything else is reserved
    /// and must be zero on writes (else #GP).
    pub const DEFINED: u64 = PE | MP | EM | TS | ET | NE | WP | AM | NW | CD | PG;
}

/// CR4 bit positions (SDM Vol. 3A §2.5).
pub mod cr4 {
    /// Virtual-8086 Mode Extensions.
    pub const VME: u64 = 1 << 0;
    /// Protected-Mode Virtual Interrupts.
    pub const PVI: u64 = 1 << 1;
    /// Time Stamp Disable — RDTSC faults in CPL>0 when set.
    pub const TSD: u64 = 1 << 2;
    /// Debugging Extensions.
    pub const DE: u64 = 1 << 3;
    /// Page Size Extensions.
    pub const PSE: u64 = 1 << 4;
    /// Physical Address Extension — required for long mode.
    pub const PAE: u64 = 1 << 5;
    /// Machine Check Enable.
    pub const MCE: u64 = 1 << 6;
    /// Page Global Enable.
    pub const PGE: u64 = 1 << 7;
    /// OS FXSAVE/FXRSTOR support.
    pub const OSFXSR: u64 = 1 << 9;
    /// OS unmasked SIMD exceptions.
    pub const OSXMMEXCPT: u64 = 1 << 10;
    /// VMX Enable — set on the host while VMX is on; a guest seeing it
    /// would believe it can run VMX itself.
    pub const VMXE: u64 = 1 << 13;
    /// SMX Enable.
    pub const SMXE: u64 = 1 << 14;
    /// XSAVE and Processor Extended States enable.
    pub const OSXSAVE: u64 = 1 << 18;
    /// Supervisor-Mode Execution Prevention.
    pub const SMEP: u64 = 1 << 20;
    /// Supervisor-Mode Access Prevention.
    pub const SMAP: u64 = 1 << 21;

    /// Architecturally defined CR4 bits in this model.
    pub const DEFINED: u64 = VME
        | PVI
        | TSD
        | DE
        | PSE
        | PAE
        | MCE
        | PGE
        | OSFXSR
        | OSXMMEXCPT
        | VMXE
        | SMXE
        | OSXSAVE
        | SMEP
        | SMAP;
}

/// EFER bit positions (IA32_EFER MSR).
pub mod efer {
    /// System-Call Extensions.
    pub const SCE: u64 = 1 << 0;
    /// Long Mode Enable.
    pub const LME: u64 = 1 << 8;
    /// Long Mode Active (read-only to software; set by the CPU when
    /// paging is enabled while LME=1).
    pub const LMA: u64 = 1 << 10;
    /// No-Execute Enable.
    pub const NXE: u64 = 1 << 11;
}

/// Typed CR0 value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cr0(pub u64);

/// Typed CR4 value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cr4(pub u64);

impl Cr0 {
    /// Whether a guest write of this value is architecturally valid
    /// (reserved bits clear, PG ⇒ PE, not NW without CD).
    #[must_use]
    pub fn is_valid_write(self) -> bool {
        let v = self.0;
        if v & !cr0::DEFINED != 0 {
            return false;
        }
        // Paging requires protected mode (SDM: MOV to CR0 with PG=1, PE=0 → #GP).
        if v & cr0::PG != 0 && v & cr0::PE == 0 {
            return false;
        }
        // NW=1 with CD=0 is invalid.
        if v & cr0::NW != 0 && v & cr0::CD == 0 {
            return false;
        }
        true
    }

    /// The operating mode this CR0 value puts the vCPU in (Fig. 8 ladder).
    #[must_use]
    pub fn operating_mode(self) -> OperatingMode {
        OperatingMode::from_cr0(self)
    }
}

impl Cr4 {
    /// Whether a guest write of this value is architecturally valid.
    #[must_use]
    pub fn is_valid_write(self) -> bool {
        self.0 & !cr4::DEFINED == 0
    }
}

/// The CR0-derived operating modes of the paper's Fig. 8.
///
/// From §VI-B: *"Mode1 and Mode2 indicate real mode and protected mode,
/// respectively. Mode3 specifies protected mode with paging enabled, Mode4
/// includes Mode3 with alignment checking performed, Mode5 includes Mode4
/// with test of task switch flag, Mode6 includes Mode4 and caching enabled,
/// Mode7 includes Mode5 and caching disabled."*
///
/// The classification is a total function of CR0's PE, PG, AM, TS, CD bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OperatingMode {
    /// Real mode (PE=0). Xen logs this as "mode 0" — the mode index is
    /// `as u8`, the figure label is 1-based.
    Mode1 = 0,
    /// Protected mode (PE=1, PG=0).
    Mode2 = 1,
    /// Protected mode with paging (PE, PG).
    Mode3 = 2,
    /// Mode3 + alignment checking (AM).
    Mode4 = 3,
    /// Mode4 + task-switched flag set (TS).
    Mode5 = 4,
    /// Mode4 + caching enabled (CD=0 explicit).
    Mode6 = 5,
    /// Mode5 + caching disabled (TS and CD).
    Mode7 = 6,
}

impl OperatingMode {
    /// Classify a CR0 value.
    #[must_use]
    pub fn from_cr0(cr0v: Cr0) -> OperatingMode {
        let v = cr0v.0;
        if v & cr0::PE == 0 {
            return OperatingMode::Mode1;
        }
        if v & cr0::PG == 0 {
            return OperatingMode::Mode2;
        }
        if v & cr0::AM == 0 {
            return OperatingMode::Mode3;
        }
        let ts = v & cr0::TS != 0;
        let cd = v & cr0::CD != 0;
        match (ts, cd) {
            (true, true) => OperatingMode::Mode7,
            (true, false) => OperatingMode::Mode5,
            (false, false) => OperatingMode::Mode6,
            (false, true) => OperatingMode::Mode4,
        }
    }

    /// Zero-based mode index (what Xen's `bad RIP for mode %d` prints).
    #[must_use]
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Label used on the paper's Fig. 8 y-axis.
    #[must_use]
    pub fn figure_label(self) -> &'static str {
        match self {
            OperatingMode::Mode1 => "Mode1",
            OperatingMode::Mode2 => "Mode2",
            OperatingMode::Mode3 => "Mode3",
            OperatingMode::Mode4 => "Mode4",
            OperatingMode::Mode5 => "Mode5",
            OperatingMode::Mode6 => "Mode6",
            OperatingMode::Mode7 => "Mode7",
        }
    }

    /// All modes in ladder order.
    pub const ALL: [OperatingMode; 7] = [
        OperatingMode::Mode1,
        OperatingMode::Mode2,
        OperatingMode::Mode3,
        OperatingMode::Mode4,
        OperatingMode::Mode5,
        OperatingMode::Mode6,
        OperatingMode::Mode7,
    ];
}

/// Compose the value a guest read of CRn observes, given the real value,
/// the guest/host mask and the read shadow (SDM §25.3: "for each position
/// set in the mask, the shadow bit appears").
#[must_use]
pub fn guest_visible_cr(real: u64, mask: u64, shadow: u64) -> u64 {
    (shadow & mask) | (real & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_ladder_matches_paper() {
        assert_eq!(Cr0(0).operating_mode(), OperatingMode::Mode1);
        assert_eq!(Cr0(cr0::PE).operating_mode(), OperatingMode::Mode2);
        assert_eq!(
            Cr0(cr0::PE | cr0::PG).operating_mode(),
            OperatingMode::Mode3
        );
        assert_eq!(
            Cr0(cr0::PE | cr0::PG | cr0::AM | cr0::CD).operating_mode(),
            OperatingMode::Mode4
        );
        assert_eq!(
            Cr0(cr0::PE | cr0::PG | cr0::AM | cr0::TS | cr0::CD).operating_mode(),
            OperatingMode::Mode7
        );
        assert_eq!(
            Cr0(cr0::PE | cr0::PG | cr0::AM | cr0::TS).operating_mode(),
            OperatingMode::Mode5
        );
        assert_eq!(
            Cr0(cr0::PE | cr0::PG | cr0::AM).operating_mode(),
            OperatingMode::Mode6
        );
    }

    #[test]
    fn mode_classification_is_total() {
        // Any combination of the five relevant bits maps to some mode.
        for bits in 0..32u64 {
            let v = ((bits & 1) * cr0::PE)
                | (((bits >> 1) & 1) * cr0::PG)
                | (((bits >> 2) & 1) * cr0::AM)
                | (((bits >> 3) & 1) * cr0::TS)
                | (((bits >> 4) & 1) * cr0::CD);
            let _ = Cr0(v).operating_mode(); // must not panic
        }
    }

    #[test]
    fn cr0_write_validity() {
        assert!(Cr0(cr0::PE).is_valid_write());
        assert!(Cr0(cr0::PE | cr0::PG).is_valid_write());
        // PG without PE -> #GP
        assert!(!Cr0(cr0::PG).is_valid_write());
        // NW without CD -> invalid
        assert!(!Cr0(cr0::PE | cr0::NW).is_valid_write());
        assert!(Cr0(cr0::PE | cr0::NW | cr0::CD).is_valid_write());
        // reserved bit
        assert!(!Cr0(cr0::PE | (1 << 8)).is_valid_write());
    }

    #[test]
    fn cr4_write_validity() {
        assert!(Cr4(cr4::PAE | cr4::PGE).is_valid_write());
        assert!(!Cr4(1 << 31).is_valid_write());
    }

    #[test]
    fn mask_and_shadow_composition() {
        // Host owns PE (mask bit set); guest sees the shadow's PE.
        let real = cr0::PE | cr0::ET | cr0::NE;
        let mask = cr0::PE | cr0::PG;
        let shadow = 0;
        let seen = guest_visible_cr(real, mask, shadow);
        assert_eq!(seen & cr0::PE, 0, "guest sees shadow PE=0");
        assert_eq!(seen & cr0::NE, cr0::NE, "guest sees real unmasked bits");
    }

    #[test]
    fn mode_index_matches_xen_log_convention() {
        // Xen's crash message for a cold dummy VM is "bad RIP for mode 0":
        // real mode has index 0.
        assert_eq!(OperatingMode::Mode1.index(), 0);
        assert_eq!(OperatingMode::Mode7.index(), 6);
    }
}
