//! The Virtual Machine Control Structure.
//!
//! A [`Vmcs`] models the field store of one VMCS. Field access goes
//! through [`Vmcs::read`] / [`Vmcs::write`], which enforce width
//! truncation and the read-only rule for VM-exit information fields.

use crate::fields::{FieldArea, VmcsField, FIELD_COUNT};
use serde::{Deserialize, Serialize};

/// Errors from direct VMCS field access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmcsAccessError {
    /// `VMWRITE` attempted on a read-only (VM-exit information) field
    /// (VM-instruction error 13).
    ReadOnlyField(VmcsField),
}

impl std::fmt::Display for VmcsAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ReadOnlyField(field) => {
                write!(f, "VMWRITE to read-only VMCS component {field:?}")
            }
        }
    }
}

impl std::error::Error for VmcsAccessError {}

const PRESENT_WORDS: usize = FIELD_COUNT.div_ceil(64);

/// One VMCS.
///
/// Cloning a `Vmcs` clones the full field store — this is what IRIS
/// snapshots rely on (`iris_core::snapshot`).
///
/// The field store is a flat array indexed by [`VmcsField::index`] plus a
/// presence bitmap, so `read`/`write`/`hw_write` — executed around ten
/// times per VM exit — are O(1) with no heap traffic, and cloning is a
/// plain `memcpy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vmcs {
    values: [u64; FIELD_COUNT],
    present: [u64; PRESENT_WORDS],
}

impl Default for Vmcs {
    fn default() -> Self {
        Self::new()
    }
}

impl Serialize for Vmcs {
    fn to_value(&self) -> serde::Value {
        let fields: Vec<(VmcsField, u64)> = self
            .area_fields(FieldArea::GuestState)
            .chain(self.area_fields(FieldArea::HostState))
            .chain(self.area_fields(FieldArea::Control))
            .chain(self.area_fields(FieldArea::ExitInfo))
            .collect();
        serde::Value::Map(vec![(
            serde::Value::Str("fields".to_owned()),
            fields.to_value(),
        )])
    }
}

impl Deserialize for Vmcs {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::msg("expected map for Vmcs"))?;
        let fields = serde::value::map_get(entries, "fields")
            .ok_or_else(|| serde::Error::msg("missing Vmcs field fields"))?;
        let mut vmcs = Vmcs::new();
        for (field, value) in Vec::<(VmcsField, u64)>::from_value(fields)? {
            vmcs.hw_write(field, value);
        }
        Ok(vmcs)
    }
}

impl Vmcs {
    /// A VMCS with all fields zero, like freshly cleared VMCS memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            values: [0; FIELD_COUNT],
            present: [0; PRESENT_WORDS],
        }
    }

    /// Read a field. Unset fields read as zero.
    #[inline]
    #[must_use]
    pub fn read(&self, field: VmcsField) -> u64 {
        self.values[field.index() as usize]
    }

    /// Write a field, truncating to the field width.
    ///
    /// # Errors
    /// [`VmcsAccessError::ReadOnlyField`] for VM-exit information fields —
    /// the processor on the paper's testbed cannot `VMWRITE` those, which
    /// is why IRIS interposes on reads instead.
    pub fn write(&mut self, field: VmcsField, value: u64) -> Result<(), VmcsAccessError> {
        if field.is_read_only() {
            return Err(VmcsAccessError::ReadOnlyField(field));
        }
        self.hw_write(field, value);
        Ok(())
    }

    /// Hardware-internal write: used by the VM-exit microcode path to fill
    /// VM-exit information fields and save guest state. Not reachable from
    /// `VMWRITE`.
    #[inline]
    pub fn hw_write(&mut self, field: VmcsField, value: u64) {
        let idx = field.index() as usize;
        self.values[idx] = value & field.value_mask();
        self.present[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Iterate written `(field, value)` pairs of a given area, in encoding
    /// order.
    pub fn area_fields(&self, area: FieldArea) -> impl Iterator<Item = (VmcsField, u64)> + '_ {
        VmcsField::ALL
            .iter()
            .enumerate()
            .filter(move |(idx, f)| {
                f.area() == area && self.present[idx / 64] & (1u64 << (idx % 64)) != 0
            })
            .map(|(idx, f)| (*f, self.values[idx]))
    }

    /// Initialize the fields every sane hypervisor sets before launch:
    /// the VMCS link pointer (must be all-ones — checked at VM entry) and
    /// RFLAGS bit 1 (always-one architecturally).
    pub fn init_architectural_defaults(&mut self) {
        self.hw_write(VmcsField::VmcsLinkPointer, u64::MAX);
        self.hw_write(VmcsField::GuestRflags, 0x2);
        self.hw_write(VmcsField::GuestActivityState, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vmcs_is_clear_and_zeroed() {
        let v = Vmcs::new();
        assert_eq!(v.read(VmcsField::GuestRip), 0);
        for area in [FieldArea::GuestState, FieldArea::ExitInfo] {
            assert_eq!(v.area_fields(area).count(), 0);
        }
    }

    #[test]
    fn write_read_round_trip_with_width_truncation() {
        let mut v = Vmcs::new();
        v.write(VmcsField::GuestCsSelector, 0x12345).unwrap();
        assert_eq!(v.read(VmcsField::GuestCsSelector), 0x2345);
        v.write(VmcsField::GuestCsLimit, 0x1_0000_0001).unwrap();
        assert_eq!(v.read(VmcsField::GuestCsLimit), 1);
        v.write(VmcsField::GuestRip, u64::MAX).unwrap();
        assert_eq!(v.read(VmcsField::GuestRip), u64::MAX);
    }

    #[test]
    fn vmwrite_to_read_only_field_fails() {
        let mut v = Vmcs::new();
        let err = v.write(VmcsField::VmExitReason, 1).unwrap_err();
        assert_eq!(err, VmcsAccessError::ReadOnlyField(VmcsField::VmExitReason));
        // ... but the hardware path can fill it.
        v.hw_write(VmcsField::VmExitReason, 28);
        assert_eq!(v.read(VmcsField::VmExitReason), 28);
    }

    #[test]
    fn architectural_defaults() {
        let mut v = Vmcs::new();
        v.init_architectural_defaults();
        assert_eq!(v.read(VmcsField::VmcsLinkPointer), u64::MAX);
        assert_eq!(v.read(VmcsField::GuestRflags) & 0x2, 0x2);
    }

    #[test]
    fn area_iteration_filters() {
        let mut v = Vmcs::new();
        v.write(VmcsField::GuestRip, 1).unwrap();
        v.write(VmcsField::HostRip, 2).unwrap();
        v.hw_write(VmcsField::VmExitReason, 3);
        let guest: Vec<_> = v.area_fields(FieldArea::GuestState).collect();
        assert_eq!(guest, vec![(VmcsField::GuestRip, 1)]);
        let info: Vec<_> = v.area_fields(FieldArea::ExitInfo).collect();
        assert_eq!(info, vec![(VmcsField::VmExitReason, 3)]);
    }

    #[test]
    fn serde_round_trips_the_field_store() {
        let mut v = Vmcs::new();
        v.init_architectural_defaults();
        v.hw_write(VmcsField::VmExitReason, 30);
        let back = Vmcs::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
    }
}
