//! Checks on the guest-state area performed at VM entry
//! (SDM Vol. 3C §26.3).
//!
//! These checks are central to IRIS: the replay architecture deliberately
//! routes every replayed seed through a full VM entry *"which includes
//! several checks on the VMCS fields ... used to guarantee
//! semantically-correct VM seeds submission"* (paper §IV-B). They are also
//! the first line the PoC fuzzer's VMCS mutations run into — a mutated
//! guest-state area that fails these checks produces a VM-entry failure
//! (exit reason 33) instead of reaching the handler under test.

use crate::cr::{cr0, cr4, efer};
use crate::fields::VmcsField;
use crate::segment::ar;
use crate::vmcs::Vmcs;
use serde::{Deserialize, Serialize};

/// A specific entry-check failure (the granularity Xen logs at).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryCheckFailure {
    /// CR0 has reserved bits set, or PG without PE (§26.3.1.1).
    Cr0Invalid,
    /// CR4 has reserved bits set.
    Cr4Invalid,
    /// VMX operation requires CR4.VMXE... for the *host*; for the guest,
    /// CR0.PE/PG consistency with "unrestricted guest" off.
    Cr0PgWithoutPe,
    /// RFLAGS bit 1 (always-one) is clear, or reserved bits set
    /// (§26.3.1.4).
    RflagsReserved,
    /// RFLAGS.VM set while in an invalid combination.
    RflagsVm86Invalid,
    /// RIP is non-canonical / exceeds segment limits for the mode.
    RipInvalid,
    /// CS access rights are inconsistent (§26.3.1.2).
    CsArInvalid,
    /// SS access rights / RPL inconsistency.
    SsArInvalid,
    /// TR is unusable or not a busy TSS.
    TrInvalid,
    /// LDTR present but not an LDT descriptor.
    LdtrInvalid,
    /// The VMCS link pointer is not ~0 (§26.3.1.5).
    LinkPointerInvalid,
    /// Guest activity state is not a valid value.
    ActivityStateInvalid,
    /// EFER.LMA does not agree with CR0.PG and EFER.LME (§26.3.1.1).
    EferLmaMismatch,
    /// PDPTEs invalid when entering PAE paging.
    PdpteInvalid,
}

impl std::fmt::Display for EntryCheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VM-entry guest-state check failed: {self:?}")
    }
}

impl std::error::Error for EntryCheckFailure {}

/// Result of running the full check battery.
pub type EntryCheckResult = Result<(), EntryCheckFailure>;

/// Run the §26.3 guest-state checks against a VMCS.
///
/// The order follows the SDM: control registers, then RFLAGS, then
/// segments, then RIP, then the link pointer / activity state.
/// The first failing check wins — hardware reports a single failure.
pub fn check_guest_state(vmcs: &Vmcs) -> EntryCheckResult {
    let get = |f: VmcsField| vmcs.read(f);

    // --- CR0 / CR4 / EFER (§26.3.1.1) -------------------------------
    let gcr0 = get(VmcsField::GuestCr0);
    if gcr0 & !cr0::DEFINED != 0 {
        return Err(EntryCheckFailure::Cr0Invalid);
    }
    if gcr0 & cr0::PG != 0 && gcr0 & cr0::PE == 0 {
        return Err(EntryCheckFailure::Cr0PgWithoutPe);
    }
    let gcr4 = get(VmcsField::GuestCr4);
    if gcr4 & !cr4::DEFINED != 0 {
        return Err(EntryCheckFailure::Cr4Invalid);
    }
    let gefer = get(VmcsField::GuestIa32Efer);
    let lma = gefer & efer::LMA != 0;
    let lme = gefer & efer::LME != 0;
    let pg = gcr0 & cr0::PG != 0;
    if lma != (lme && pg) {
        return Err(EntryCheckFailure::EferLmaMismatch);
    }
    // PAE paging without valid PDPTEs: we model "valid" as bit 0 set.
    if pg && gcr4 & cr4::PAE != 0 && !lma {
        for f in [
            VmcsField::GuestPdpte0,
            VmcsField::GuestPdpte1,
            VmcsField::GuestPdpte2,
            VmcsField::GuestPdpte3,
        ] {
            let pdpte = get(f);
            if pdpte & 1 == 0 {
                return Err(EntryCheckFailure::PdpteInvalid);
            }
        }
    }

    // --- RFLAGS (§26.3.1.4) ------------------------------------------
    let rflags = get(VmcsField::GuestRflags);
    if rflags & 0x2 == 0 {
        return Err(EntryCheckFailure::RflagsReserved);
    }
    // Reserved bits 63:22, 15, 5, 3 must be zero.
    const RFLAGS_RESERVED: u64 = !0x3f_7fd7 | (1 << 15) | (1 << 5) | (1 << 3);
    if rflags & RFLAGS_RESERVED & !0x2 != 0 {
        return Err(EntryCheckFailure::RflagsReserved);
    }
    let vm86 = rflags & (1 << 17) != 0;
    if vm86 && (lma || gcr0 & cr0::PE == 0) {
        return Err(EntryCheckFailure::RflagsVm86Invalid);
    }

    // --- Segment registers (§26.3.1.2) --------------------------------
    let cs_ar = get(VmcsField::GuestCsArBytes);
    let protected = gcr0 & cr0::PE != 0;
    if cs_ar & u64::from(ar::UNUSABLE) == 0 {
        // CS must be a present code segment in protected mode.
        if protected && !vm86 {
            let ty = cs_ar & u64::from(ar::TYPE_MASK);
            let is_code = ty & 0x8 != 0;
            let s_bit = cs_ar & u64::from(ar::S) != 0;
            let present = cs_ar & u64::from(ar::P) != 0;
            if !is_code || !s_bit || !present {
                return Err(EntryCheckFailure::CsArInvalid);
            }
            // L and D/B must not both be set for 64-bit CS.
            if cs_ar & u64::from(ar::L) != 0 && cs_ar & u64::from(ar::DB) != 0 {
                return Err(EntryCheckFailure::CsArInvalid);
            }
        }
    } else {
        // CS can never be unusable.
        return Err(EntryCheckFailure::CsArInvalid);
    }

    let ss_ar = get(VmcsField::GuestSsArBytes);
    if ss_ar & u64::from(ar::UNUSABLE) == 0 && protected && !vm86 {
        let ss_dpl = (ss_ar >> u64::from(ar::DPL_SHIFT)) & 0x3;
        let ss_sel = get(VmcsField::GuestSsSelector);
        let rpl = ss_sel & 0x3;
        // In our non-unrestricted configuration SS.DPL must equal SS.RPL.
        if ss_dpl != rpl {
            return Err(EntryCheckFailure::SsArInvalid);
        }
    }

    // TR must be usable and a busy TSS (§26.3.1.2).
    let tr_ar = get(VmcsField::GuestTrArBytes);
    if tr_ar & u64::from(ar::UNUSABLE) != 0 {
        return Err(EntryCheckFailure::TrInvalid);
    }
    let tr_type = tr_ar & u64::from(ar::TYPE_MASK);
    if protected && tr_type != u64::from(ar::TYPE_TSS_BUSY) && tr_type != 0x3 {
        return Err(EntryCheckFailure::TrInvalid);
    }

    // LDTR, if usable, must be an LDT.
    let ldtr_ar = get(VmcsField::GuestLdtrArBytes);
    if ldtr_ar & u64::from(ar::UNUSABLE) == 0
        && protected
        && ldtr_ar & u64::from(ar::TYPE_MASK) != u64::from(ar::TYPE_LDT)
    {
        return Err(EntryCheckFailure::LdtrInvalid);
    }

    // --- RIP (§26.3.1.3) ----------------------------------------------
    // Simplification vs the SDM: the 64-bit RIP check keys on EFER.LMA
    // alone rather than LMA && CS.L. Hardware context switches update the
    // hidden CS state directly (no VMWRITE), so a replayed seed stream can
    // re-establish LMA through the CR handlers but never CS.L; keying on
    // LMA preserves the paper's §VI-B behaviour (cold dummy VM crashes,
    // post-boot-replay dummy VM enters fine).
    let rip = get(VmcsField::GuestRip);
    if lma {
        // 64-bit mode: RIP must be canonical.
        let sign_bits = rip >> 47;
        if sign_bits != 0 && sign_bits != 0x1_ffff {
            return Err(EntryCheckFailure::RipInvalid);
        }
    } else {
        // Legacy/compat mode: bits 63:32 must be zero.
        if rip >> 32 != 0 {
            return Err(EntryCheckFailure::RipInvalid);
        }
    }

    // --- Link pointer & activity state (§26.3.1.5) ---------------------
    if get(VmcsField::VmcsLinkPointer) != u64::MAX {
        return Err(EntryCheckFailure::LinkPointerInvalid);
    }
    let activity = get(VmcsField::GuestActivityState);
    if activity > 3 {
        return Err(EntryCheckFailure::ActivityStateInvalid);
    }

    Ok(())
}

/// Populate a VMCS guest-state area that passes [`check_guest_state`] for
/// a real-mode guest at the reset vector — the state a fresh HVM domain
/// (and the IRIS dummy VM) starts in.
pub fn init_real_mode_guest_state(vmcs: &mut Vmcs) {
    use crate::segment::Segment;
    vmcs.init_architectural_defaults();
    vmcs.hw_write(VmcsField::GuestCr0, cr0::ET);
    vmcs.hw_write(VmcsField::GuestCr3, 0);
    vmcs.hw_write(VmcsField::GuestCr4, 0);
    vmcs.hw_write(VmcsField::GuestIa32Efer, 0);
    vmcs.hw_write(VmcsField::GuestRip, 0xfff0);
    vmcs.hw_write(VmcsField::GuestRsp, 0);
    vmcs.hw_write(VmcsField::GuestRflags, 0x2);

    let cs = Segment::real_mode(0xf000);
    vmcs.hw_write(VmcsField::GuestCsSelector, u64::from(cs.selector));
    vmcs.hw_write(VmcsField::GuestCsBase, cs.base);
    vmcs.hw_write(VmcsField::GuestCsLimit, u64::from(cs.limit));
    vmcs.hw_write(
        VmcsField::GuestCsArBytes,
        u64::from(cs.ar | ar::TYPE_CODE_ER_A),
    );

    for (sel_f, base_f, lim_f, ar_f) in [
        (
            VmcsField::GuestDsSelector,
            VmcsField::GuestDsBase,
            VmcsField::GuestDsLimit,
            VmcsField::GuestDsArBytes,
        ),
        (
            VmcsField::GuestEsSelector,
            VmcsField::GuestEsBase,
            VmcsField::GuestEsLimit,
            VmcsField::GuestEsArBytes,
        ),
        (
            VmcsField::GuestSsSelector,
            VmcsField::GuestSsBase,
            VmcsField::GuestSsLimit,
            VmcsField::GuestSsArBytes,
        ),
        (
            VmcsField::GuestFsSelector,
            VmcsField::GuestFsBase,
            VmcsField::GuestFsLimit,
            VmcsField::GuestFsArBytes,
        ),
        (
            VmcsField::GuestGsSelector,
            VmcsField::GuestGsBase,
            VmcsField::GuestGsLimit,
            VmcsField::GuestGsArBytes,
        ),
    ] {
        let s = Segment::real_mode(0);
        vmcs.hw_write(sel_f, u64::from(s.selector));
        vmcs.hw_write(base_f, s.base);
        vmcs.hw_write(lim_f, u64::from(s.limit));
        vmcs.hw_write(ar_f, u64::from(s.ar));
    }

    let tr = Segment::busy_tss(0, 0);
    vmcs.hw_write(VmcsField::GuestTrSelector, u64::from(tr.selector));
    vmcs.hw_write(VmcsField::GuestTrBase, tr.base);
    vmcs.hw_write(VmcsField::GuestTrLimit, u64::from(tr.limit));
    vmcs.hw_write(VmcsField::GuestTrArBytes, u64::from(tr.ar));

    let unus = Segment::unusable();
    vmcs.hw_write(VmcsField::GuestLdtrArBytes, u64::from(unus.ar));

    vmcs.hw_write(VmcsField::GuestGdtrBase, 0);
    vmcs.hw_write(VmcsField::GuestGdtrLimit, 0xffff);
    vmcs.hw_write(VmcsField::GuestIdtrBase, 0);
    vmcs.hw_write(VmcsField::GuestIdtrLimit, 0xffff);
    vmcs.hw_write(VmcsField::GuestActivityState, 0);
    vmcs.hw_write(VmcsField::GuestInterruptibilityInfo, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_vmcs() -> Vmcs {
        let mut v = Vmcs::new();
        init_real_mode_guest_state(&mut v);
        v
    }

    #[test]
    fn fresh_real_mode_state_passes() {
        assert_eq!(check_guest_state(&valid_vmcs()), Ok(()));
    }

    #[test]
    fn cr0_reserved_bits_fail() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestCr0, cr0::ET | (1 << 8));
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::Cr0Invalid));
    }

    #[test]
    fn pg_without_pe_fails() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestCr0, cr0::ET | cr0::PG);
        assert_eq!(
            check_guest_state(&v),
            Err(EntryCheckFailure::Cr0PgWithoutPe)
        );
    }

    #[test]
    fn rflags_bit1_must_be_set() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestRflags, 0);
        assert_eq!(
            check_guest_state(&v),
            Err(EntryCheckFailure::RflagsReserved)
        );
    }

    #[test]
    fn link_pointer_must_be_all_ones() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::VmcsLinkPointer, 0x1234);
        assert_eq!(
            check_guest_state(&v),
            Err(EntryCheckFailure::LinkPointerInvalid)
        );
    }

    #[test]
    fn unusable_cs_fails() {
        let mut v = valid_vmcs();
        v.hw_write(
            VmcsField::GuestCsArBytes,
            u64::from(crate::segment::ar::UNUSABLE),
        );
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::CsArInvalid));
    }

    #[test]
    fn tr_must_be_busy_tss_in_protected_mode() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestCr0, cr0::ET | cr0::PE);
        v.hw_write(
            VmcsField::GuestCsArBytes,
            u64::from(ar::TYPE_CODE_ER_A | ar::S | ar::P | ar::DB | ar::G),
        );
        v.hw_write(VmcsField::GuestTrArBytes, u64::from(ar::P | 0x1)); // 16-bit avail TSS
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::TrInvalid));
    }

    #[test]
    fn rip_upper_bits_checked_in_legacy_mode() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestRip, 0x1_0000_0000);
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::RipInvalid));
    }

    #[test]
    fn canonical_rip_in_long_mode() {
        let mut v = valid_vmcs();
        // Long mode: LMA+LME, PG+PE, 64-bit CS.
        v.hw_write(VmcsField::GuestCr0, cr0::ET | cr0::PE | cr0::PG);
        v.hw_write(VmcsField::GuestCr4, cr4::PAE);
        v.hw_write(VmcsField::GuestIa32Efer, efer::LME | efer::LMA);
        v.hw_write(
            VmcsField::GuestCsArBytes,
            u64::from(ar::TYPE_CODE_ER_A | ar::S | ar::P | ar::L | ar::G),
        );
        v.hw_write(VmcsField::GuestRip, 0xffff_8000_0000_0000);
        assert_eq!(check_guest_state(&v), Ok(()));
        v.hw_write(VmcsField::GuestRip, 0x0000_8000_0000_0000); // non-canonical
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::RipInvalid));
    }

    #[test]
    fn efer_lma_must_match_lme_and_pg() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestIa32Efer, efer::LMA); // LMA without LME/PG
        assert_eq!(
            check_guest_state(&v),
            Err(EntryCheckFailure::EferLmaMismatch)
        );
    }

    #[test]
    fn activity_state_range() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestActivityState, 9);
        assert_eq!(
            check_guest_state(&v),
            Err(EntryCheckFailure::ActivityStateInvalid)
        );
    }

    #[test]
    fn pae_paging_requires_valid_pdptes() {
        let mut v = valid_vmcs();
        v.hw_write(VmcsField::GuestCr0, cr0::ET | cr0::PE | cr0::PG);
        v.hw_write(VmcsField::GuestCr4, cr4::PAE);
        v.hw_write(
            VmcsField::GuestCsArBytes,
            u64::from(ar::TYPE_CODE_ER_A | ar::S | ar::P | ar::DB | ar::G),
        );
        // PDPTEs all zero -> invalid.
        assert_eq!(check_guest_state(&v), Err(EntryCheckFailure::PdpteInvalid));
        for f in [
            VmcsField::GuestPdpte0,
            VmcsField::GuestPdpte1,
            VmcsField::GuestPdpte2,
            VmcsField::GuestPdpte3,
        ] {
            v.hw_write(f, 1);
        }
        assert_eq!(check_guest_state(&v), Ok(()));
    }
}
