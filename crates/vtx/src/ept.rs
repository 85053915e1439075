//! Extended Page Tables — the second-level address translation VT-x uses
//! to virtualize guest memory.
//!
//! The model maps each guest-physical frame to an entry with permissions
//! and a memory type, stored run-length encoded: a domain's RAM is one
//! contiguous run, so the table's size follows the number of distinct
//! extents, not the number of pages. Translation faults produce
//! either an **EPT violation** (reason 48, with a qualification describing
//! the access) or an **EPT misconfiguration** (reason 49) exactly as the
//! hypervisor's `ept_violation`/`ept_misconfig` handlers expect. MMIO
//! regions are represented as *not present* mappings with a device tag, so
//! guest accesses to them fault into the instruction emulator — the same
//! path real Xen HVM uses for emulated devices.

use crate::exit::EptQual;
use serde::{Deserialize, Serialize};

/// Page size used throughout the model.
pub const PAGE_SIZE: u64 = 4096;

/// Shift for page frame numbers.
pub const PAGE_SHIFT: u32 = 12;

/// EPT memory types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryType {
    /// Uncacheable — typical for MMIO.
    Uncacheable,
    /// Write-back — typical for RAM.
    WriteBack,
}

/// What a guest-physical page maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageKind {
    /// Ordinary RAM backed by the domain's memory.
    Ram,
    /// An MMIO page belonging to an emulated device; accesses always
    /// fault to the emulator.
    Mmio,
}

/// One EPT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EptEntry {
    /// Host frame number the guest frame maps to.
    pub host_pfn: u64,
    /// Read permission.
    pub read: bool,
    /// Write permission.
    pub write: bool,
    /// Execute permission.
    pub exec: bool,
    /// Memory type.
    pub mem_type: MemoryType,
    /// RAM or MMIO.
    pub kind: PageKind,
    /// Misconfigured entry (reserved bits set) — causes EPT_MISCONFIG.
    pub misconfigured: bool,
}

/// Kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// Outcome of an EPT translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Success: host physical address.
    Ok(u64),
    /// EPT violation with the qualification the hardware would report.
    Violation(EptQual),
    /// EPT misconfiguration.
    Misconfig,
}

/// A maximal run of consecutive guest frames that share every attribute
/// and whose host frames advance with the guest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Run {
    /// First guest frame of the run.
    start: u64,
    /// Number of frames (never zero).
    pages: u64,
    /// The entry of frame `start`; frame `start + i` maps `host_pfn + i`.
    first: EptEntry,
}

impl Run {
    /// One past the last guest frame.
    fn end(&self) -> u64 {
        self.start + self.pages
    }

    /// The entry of guest frame `gfn`, which must lie in the run (or be
    /// its `end()`, for the coalescing check).
    fn entry_at(&self, gfn: u64) -> EptEntry {
        EptEntry {
            host_pfn: self.first.host_pfn + (gfn - self.start),
            ..self.first
        }
    }

    /// The part of the run inside `[from, to)`, if any.
    fn clip(&self, from: u64, to: u64) -> Option<Run> {
        let start = self.start.max(from);
        let end = self.end().min(to);
        (start < end).then(|| Run {
            start,
            pages: end - start,
            first: self.entry_at(start),
        })
    }
}

/// A per-domain EPT.
///
/// Stored as the sorted list of its maximal runs, re-coalesced after
/// every mutation: the representation is a function of the mapping
/// alone, so two tables that translate identically compare `==` whatever
/// sequence of operations built them, and building, cloning and comparing
/// cost O(runs) — two for a fresh domain of any RAM size. Frame numbers
/// are physical addresses shifted by [`PAGE_SHIFT`], so range ends do not
/// overflow.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ept {
    runs: Vec<Run>,
}

impl Ept {
    /// Empty EPT — every access violates.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `pages` contiguous RAM pages starting at guest frame `gfn`
    /// to host frames starting at `host_pfn`, read/write/execute.
    pub fn map_ram(&mut self, gfn: u64, host_pfn: u64, pages: u64) {
        let first = EptEntry {
            host_pfn,
            read: true,
            write: true,
            exec: true,
            mem_type: MemoryType::WriteBack,
            kind: PageKind::Ram,
            misconfigured: false,
        };
        self.replace(gfn, pages, Some(first));
    }

    /// Register an MMIO page at guest frame `gfn`: present in the p2m but
    /// with no access permissions, so every touch faults to the emulator.
    pub fn map_mmio(&mut self, gfn: u64) {
        let entry = EptEntry {
            host_pfn: 0,
            read: false,
            write: false,
            exec: false,
            mem_type: MemoryType::Uncacheable,
            kind: PageKind::Mmio,
            misconfigured: false,
        };
        self.replace(gfn, 1, Some(entry));
    }

    /// Corrupt an entry's reserved bits (fuzzing hook) so the next access
    /// reports EPT_MISCONFIG.
    pub fn misconfigure(&mut self, gfn: u64) {
        if let Some(e) = self.entry(gfn) {
            let entry = EptEntry {
                misconfigured: true,
                ..e
            };
            self.replace(gfn, 1, Some(entry));
        }
    }

    /// Remove a mapping entirely.
    pub fn unmap(&mut self, gfn: u64) {
        self.replace(gfn, 1, None);
    }

    /// The one mutation: frames `[gfn, gfn + pages)` take the run that
    /// starts with `first` (or become unmapped). Only the runs that
    /// overlap or touch the range can change, so those are rebuilt —
    /// what is left of them on either side plus the new run, coalesced —
    /// and spliced back; every other run keeps its neighbours and stays
    /// maximal.
    fn replace(&mut self, gfn: u64, pages: u64, first: Option<EptEntry>) {
        if pages == 0 {
            return;
        }
        let end = gfn + pages;
        let lo = self.runs.partition_point(|r| r.end() < gfn);
        let hi = self.runs.partition_point(|r| r.start <= end);
        let window = &self.runs[lo..hi];
        let left = window.first().and_then(|r| r.clip(0, gfn));
        let right = window.last().and_then(|r| r.clip(end, u64::MAX));
        let new = first.map(|first| Run {
            start: gfn,
            pages,
            first,
        });
        // Coalesce left to right into `parts[..len]`; no heap, so a
        // populate-on-demand fault stays allocation-free.
        let mut parts = [left, new, right];
        let mut len = 0usize;
        for i in 0..parts.len() {
            let Some(run) = parts[i] else { continue };
            match len.checked_sub(1).and_then(|last| parts[last].as_mut()) {
                Some(prev) if prev.end() == run.start && prev.entry_at(run.start) == run.first => {
                    prev.pages += run.pages;
                }
                _ => {
                    parts[len] = Some(run);
                    len += 1;
                }
            }
        }
        self.runs
            .splice(lo..hi, parts.into_iter().take(len).flatten());
    }

    /// Look up the entry for a guest frame.
    #[must_use]
    pub fn entry(&self, gfn: u64) -> Option<EptEntry> {
        let after = self.runs.partition_point(|r| r.start <= gfn);
        let run = self.runs.get(after.checked_sub(1)?)?;
        (gfn < run.end()).then(|| run.entry_at(gfn))
    }

    /// Number of mapped frames.
    #[must_use]
    pub fn mapped_frames(&self) -> usize {
        self.runs.iter().map(|r| r.pages as usize).sum()
    }

    /// Number of maximal runs the table holds — its size, and the unit
    /// every build, clone and comparison is linear in.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Translate a guest-physical address for the given access.
    #[must_use]
    pub fn translate(&self, gpa: u64, access: Access) -> Translation {
        let gfn = gpa >> PAGE_SHIFT;
        match self.entry(gfn) {
            None => Translation::Violation(Self::violation_qual(access, None)),
            Some(e) if e.misconfigured => Translation::Misconfig,
            Some(e) => {
                let allowed = match access {
                    Access::Read => e.read,
                    Access::Write => e.write,
                    Access::Fetch => e.exec,
                };
                if allowed {
                    Translation::Ok((e.host_pfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1)))
                } else {
                    Translation::Violation(Self::violation_qual(access, Some(&e)))
                }
            }
        }
    }

    fn violation_qual(access: Access, entry: Option<&EptEntry>) -> EptQual {
        EptQual {
            read: matches!(access, Access::Read),
            write: matches!(access, Access::Write),
            exec: matches!(access, Access::Fetch),
            gpa_readable: entry.is_some_and(|e| e.read),
            gpa_writable: entry.is_some_and(|e| e.write),
            gpa_executable: entry.is_some_and(|e| e.exec),
            linear_valid: true,
        }
    }
}

/// The per-page table this module used to be: one `BTreeMap` entry per
/// guest frame. Obviously right and O(pages); kept as the reference the
/// run-length table is checked against.
#[cfg(test)]
mod model {
    use super::{Access, Ept, EptEntry, MemoryType, PageKind, Translation, PAGE_SHIFT, PAGE_SIZE};
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub struct PageEpt {
        pub entries: BTreeMap<u64, EptEntry>,
    }

    impl PageEpt {
        pub fn map_ram(&mut self, gfn: u64, host_pfn: u64, pages: u64) {
            for i in 0..pages {
                self.entries.insert(
                    gfn + i,
                    EptEntry {
                        host_pfn: host_pfn + i,
                        read: true,
                        write: true,
                        exec: true,
                        mem_type: MemoryType::WriteBack,
                        kind: PageKind::Ram,
                        misconfigured: false,
                    },
                );
            }
        }

        pub fn map_mmio(&mut self, gfn: u64) {
            self.entries.insert(
                gfn,
                EptEntry {
                    host_pfn: 0,
                    read: false,
                    write: false,
                    exec: false,
                    mem_type: MemoryType::Uncacheable,
                    kind: PageKind::Mmio,
                    misconfigured: false,
                },
            );
        }

        pub fn misconfigure(&mut self, gfn: u64) {
            if let Some(e) = self.entries.get_mut(&gfn) {
                e.misconfigured = true;
            }
        }

        pub fn unmap(&mut self, gfn: u64) {
            self.entries.remove(&gfn);
        }

        pub fn entry(&self, gfn: u64) -> Option<EptEntry> {
            self.entries.get(&gfn).copied()
        }

        pub fn mapped_frames(&self) -> usize {
            self.entries.len()
        }

        pub fn translate(&self, gpa: u64, access: Access) -> Translation {
            let gfn = gpa >> PAGE_SHIFT;
            match self.entries.get(&gfn) {
                None => Translation::Violation(Ept::violation_qual(access, None)),
                Some(e) if e.misconfigured => Translation::Misconfig,
                Some(e) => {
                    let allowed = match access {
                        Access::Read => e.read,
                        Access::Write => e.write,
                        Access::Fetch => e.exec,
                    };
                    if allowed {
                        Translation::Ok((e.host_pfn << PAGE_SHIFT) | (gpa & (PAGE_SIZE - 1)))
                    } else {
                        Translation::Violation(Ept::violation_qual(access, Some(e)))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::PageEpt;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unmapped_access_violates() {
        let ept = Ept::new();
        match ept.translate(0x1000, Access::Read) {
            Translation::Violation(q) => {
                assert!(q.read);
                assert!(!q.gpa_readable);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ram_translation_preserves_offset() {
        let mut ept = Ept::new();
        ept.map_ram(0x10, 0x100, 4);
        assert_eq!(
            ept.translate(0x10_123, Access::Read),
            Translation::Ok(0x100_123)
        );
        assert_eq!(
            ept.translate(0x13_fff, Access::Write),
            Translation::Ok(0x103_fff)
        );
        assert!(matches!(
            ept.translate(0x14_000, Access::Read),
            Translation::Violation(_)
        ));
    }

    #[test]
    fn mmio_pages_always_fault_with_permissions_in_qual() {
        let mut ept = Ept::new();
        ept.map_mmio(0xfee00); // APIC page gfn
        match ept.translate(0xfee0_0030, Access::Write) {
            Translation::Violation(q) => {
                assert!(q.write);
                assert!(!q.gpa_writable);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(ept.entry(0xfee00).unwrap().kind, PageKind::Mmio);
    }

    #[test]
    fn misconfigured_entries_report_misconfig() {
        let mut ept = Ept::new();
        ept.map_ram(0, 0, 1);
        ept.misconfigure(0);
        assert_eq!(ept.translate(0x10, Access::Read), Translation::Misconfig);
    }

    #[test]
    fn unmap_removes() {
        let mut ept = Ept::new();
        ept.map_ram(0, 0, 1);
        ept.unmap(0);
        assert!(matches!(
            ept.translate(0, Access::Read),
            Translation::Violation(_)
        ));
        assert_eq!(ept.mapped_frames(), 0);
    }

    #[test]
    fn a_domain_sized_table_is_two_runs_whatever_the_ram() {
        for ram_pages in [256u64, 4096, 1 << 18] {
            let mut ept = Ept::new();
            ept.map_ram(0, 1 << 20, ram_pages);
            ept.map_mmio(0xfee00);
            assert_eq!(ept.runs(), 2);
            assert_eq!(ept.mapped_frames() as u64, ram_pages + 1);
            assert_eq!(
                ept.entry(ram_pages - 1).unwrap().host_pfn,
                (1 << 20) + ram_pages - 1
            );
        }
    }

    #[test]
    fn equal_mappings_compare_equal_whatever_their_history() {
        let mut untouched = Ept::new();
        untouched.map_ram(0, 0x100, 64);
        let mut ept = untouched.clone();

        // Punch a hole and refill it with the original host frame.
        ept.unmap(17);
        assert_eq!(ept.runs(), 2);
        assert_ne!(ept, untouched);
        ept.map_ram(17, 0x111, 1);
        assert_eq!(ept, untouched);

        // Remap one page elsewhere, break it, then put it back.
        ept.map_ram(40, 40, 1);
        ept.misconfigure(40);
        assert_eq!(ept.runs(), 3);
        ept.map_ram(40, 0x128, 1);
        assert_eq!(ept, untouched);

        // Page-by-page construction, back to front.
        let mut paged = Ept::new();
        for gfn in (0..64).rev() {
            paged.map_ram(gfn, 0x100 + gfn, 1);
        }
        assert_eq!(paged, untouched);

        // Zero-length and identical remaps change nothing.
        ept.map_ram(5, 9, 0);
        ept.map_ram(8, 0x108, 8);
        assert_eq!(ept, untouched);
    }

    #[derive(Debug, Clone)]
    enum Op {
        MapRam { gfn: u64, host: u64, pages: u64 },
        MapMmio(u64),
        Misconfigure(u64),
        Unmap(u64),
    }

    /// Frames the ops land in; probes go one past it on either side.
    const SPAN: u64 = 40;

    fn arb_op() -> impl Strategy<Value = Op> {
        // Two host bases, so overlapping remaps both split runs (other
        // base) and heal them (same base).
        let map_ram = (0..SPAN, prop_oneof![Just(0u64), Just(0x100)], 0..12u64).prop_map(
            |(gfn, base, pages)| Op::MapRam {
                gfn,
                host: base + gfn,
                pages,
            },
        );
        prop_oneof![
            map_ram.clone(),
            map_ram,
            (0..SPAN).prop_map(Op::MapMmio),
            (0..SPAN).prop_map(Op::Misconfigure),
            (0..SPAN).prop_map(Op::Unmap),
        ]
    }

    fn assert_maximal(ept: &Ept) -> Result<(), TestCaseError> {
        for pair in ept.runs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(a.pages > 0 && b.pages > 0);
            prop_assert!(a.end() <= b.start, "runs overlap: {a:?} {b:?}");
            prop_assert!(
                a.end() < b.start || a.entry_at(b.start) != b.first,
                "runs not coalesced: {a:?} {b:?}"
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn run_length_table_matches_the_per_page_model(
            ops in proptest::collection::vec(arb_op(), 0..80)
        ) {
            let mut ept = Ept::new();
            let mut model = PageEpt::default();
            for op in ops {
                match op {
                    Op::MapRam { gfn, host, pages } => {
                        ept.map_ram(gfn, host, pages);
                        model.map_ram(gfn, host, pages);
                    }
                    Op::MapMmio(gfn) => {
                        ept.map_mmio(gfn);
                        model.map_mmio(gfn);
                    }
                    Op::Misconfigure(gfn) => {
                        ept.misconfigure(gfn);
                        model.misconfigure(gfn);
                    }
                    Op::Unmap(gfn) => {
                        ept.unmap(gfn);
                        model.unmap(gfn);
                    }
                }
                assert_maximal(&ept)?;
                prop_assert_eq!(ept.mapped_frames(), model.mapped_frames());
                for gfn in 0..SPAN + 14 {
                    prop_assert_eq!(ept.entry(gfn), model.entry(gfn));
                    let gpa = (gfn << PAGE_SHIFT) | 0x123;
                    for access in [Access::Read, Access::Write, Access::Fetch] {
                        prop_assert_eq!(ept.translate(gpa, access), model.translate(gpa, access));
                    }
                }
            }

            // A second history for the same mapping: single pages, back
            // to front. Equal mappings must be equal tables.
            let mut rebuilt = Ept::new();
            for (&gfn, e) in model.entries.iter().rev() {
                match e.kind {
                    PageKind::Ram => rebuilt.map_ram(gfn, e.host_pfn, 1),
                    PageKind::Mmio => rebuilt.map_mmio(gfn),
                }
                if e.misconfigured {
                    rebuilt.misconfigure(gfn);
                }
            }
            prop_assert_eq!(&rebuilt, &ept);
        }
    }
}
