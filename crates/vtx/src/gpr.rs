//! General-purpose registers.
//!
//! At a VM exit the processor does **not** save the guest's general-purpose
//! registers into the VMCS (only RSP/RIP/RFLAGS live there); the hypervisor
//! saves them into its own data structure on the exit path. This is why the
//! paper's *VM seed* contains the GPR block separately from the VMCS
//! `{field, value}` pairs, and why IRIS restores GPRs by rewriting the
//! hypervisor structure rather than issuing `VMWRITE`s.

use serde::{Deserialize, Serialize};

/// The 15 general-purpose registers saved by the hypervisor on VM exit
/// (RSP is excluded: it lives in the VMCS guest-state area).
///
/// The paper's record-entry format reserves one byte for "the encoding
/// (1 byte) of GPR (15 values)"; [`Gpr::ALL`] has exactly 15 entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rbp = 4,
    Rsi = 5,
    Rdi = 6,
    R8 = 7,
    R9 = 8,
    R10 = 9,
    R11 = 10,
    R12 = 11,
    R13 = 12,
    R14 = 13,
    R15 = 14,
}

impl Gpr {
    /// All GPRs, in encoding order.
    pub const ALL: [Gpr; 15] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rbp,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// Number of GPRs in the hypervisor save area.
    pub const COUNT: usize = 15;

    /// One-byte encoding used by the IRIS seed codec.
    #[must_use]
    pub fn encoding(self) -> u8 {
        self as u8
    }

    /// Decode a one-byte encoding. `None` for out-of-range values.
    #[must_use]
    pub fn from_encoding(enc: u8) -> Option<Gpr> {
        Self::ALL.get(enc as usize).copied()
    }

    /// Decode the register operand of a MOV-CR exit qualification
    /// (SDM Table 27-3 uses 0..=15 with 4 = RSP; we map RSP to `None`
    /// because it is not in the hypervisor save area).
    #[must_use]
    pub fn from_mov_cr_operand(op: u8) -> Option<Gpr> {
        match op {
            0 => Some(Gpr::Rax),
            1 => Some(Gpr::Rcx),
            2 => Some(Gpr::Rdx),
            3 => Some(Gpr::Rbx),
            4 => None, // RSP
            5 => Some(Gpr::Rbp),
            6 => Some(Gpr::Rsi),
            7 => Some(Gpr::Rdi),
            8..=15 => Gpr::from_encoding(op - 1),
            _ => None,
        }
    }
}

/// The hypervisor-side GPR save area for one vCPU
/// (the analog of Xen's `struct cpu_user_regs` GPR block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GprSet {
    regs: [u64; Gpr::COUNT],
}

impl GprSet {
    /// All-zero register file.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read one register.
    #[must_use]
    pub fn get(&self, r: Gpr) -> u64 {
        self.regs[r as usize]
    }

    /// Write one register.
    pub fn set(&mut self, r: Gpr, v: u64) {
        self.regs[r as usize] = v;
    }

    /// Read the low 32 bits of a register (e.g. EAX).
    #[must_use]
    pub fn get32(&self, r: Gpr) -> u32 {
        self.regs[r as usize] as u32
    }

    /// Write a register with 32-bit semantics: the upper half is zeroed,
    /// as a real x86-64 write to a 32-bit register would.
    pub fn set32(&mut self, r: Gpr, v: u32) {
        self.regs[r as usize] = u64::from(v);
    }

    /// Iterate `(register, value)` pairs in encoding order.
    pub fn iter(&self) -> impl Iterator<Item = (Gpr, u64)> + '_ {
        Gpr::ALL.iter().map(move |&r| (r, self.get(r)))
    }

    /// Bulk-overwrite from another set — the operation IRIS replay performs
    /// ("GPR values are simply copied to the corresponding hypervisor data
    /// structures").
    pub fn copy_from(&mut self, other: &GprSet) {
        self.regs = other.regs;
    }
}

impl From<[u64; Gpr::COUNT]> for GprSet {
    fn from(regs: [u64; Gpr::COUNT]) -> Self {
        Self { regs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_gprs_exactly() {
        assert_eq!(Gpr::ALL.len(), 15);
        assert_eq!(Gpr::COUNT, 15);
    }

    #[test]
    fn encoding_round_trips() {
        for &r in &Gpr::ALL {
            assert_eq!(Gpr::from_encoding(r.encoding()), Some(r));
        }
        assert_eq!(Gpr::from_encoding(15), None);
    }

    #[test]
    fn mov_cr_operand_skips_rsp() {
        assert_eq!(Gpr::from_mov_cr_operand(0), Some(Gpr::Rax));
        assert_eq!(Gpr::from_mov_cr_operand(4), None);
        assert_eq!(Gpr::from_mov_cr_operand(5), Some(Gpr::Rbp));
        assert_eq!(Gpr::from_mov_cr_operand(8), Some(Gpr::R8));
        assert_eq!(Gpr::from_mov_cr_operand(15), Some(Gpr::R15));
        assert_eq!(Gpr::from_mov_cr_operand(16), None);
    }

    #[test]
    fn set32_zero_extends() {
        let mut g = GprSet::new();
        g.set(Gpr::Rax, u64::MAX);
        g.set32(Gpr::Rax, 0xdead_beef);
        assert_eq!(g.get(Gpr::Rax), 0xdead_beef);
        assert_eq!(g.get32(Gpr::Rax), 0xdead_beef);
    }

    #[test]
    fn copy_from_replaces_everything() {
        let mut a = GprSet::new();
        let mut b = GprSet::new();
        for (i, &r) in Gpr::ALL.iter().enumerate() {
            b.set(r, i as u64 * 7 + 1);
        }
        a.copy_from(&b);
        assert_eq!(a, b);
    }
}
