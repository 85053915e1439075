//! Guest memory and the `hvm_copy` accessors.
//!
//! A [`GuestMemory`] is a sparse, page-granular store of guest-physical
//! memory. Handlers never touch it directly — they go through
//! [`GuestMemory::copy_from_guest`] / [`GuestMemory::copy_to_guest`]
//! (the analogs of Xen's `hvm_copy_from_guest_phys` /
//! `hvm_copy_to_guest_phys`), which fail on unpopulated frames.
//!
//! This failure path is deliberately load-bearing: IRIS *"deliberately
//! avoids recording the test VM memory"* (§IV-A), so during replay the
//! dummy VM's memory lacks the test VM's contents and guest-memory-
//! dependent emulator paths diverge — the exact inaccuracy source the
//! paper analyses in Fig. 7 and §IX.

use iris_vtx::ept::{PAGE_SHIFT, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Failure of a guest memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuestMemError {
    /// The guest frame is not populated (hvm_copy returns HVMTRANS_bad_gfn).
    BadGfn {
        /// The unpopulated guest frame number.
        gfn: u64,
    },
}

impl std::fmt::Display for GuestMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestMemError::BadGfn { gfn } => write!(f, "bad gfn {gfn:#x}"),
        }
    }
}

impl std::error::Error for GuestMemError {}

/// Sparse guest-physical memory for one domain.
///
/// The dirty set is instrumentation on the *live* memory, not part of
/// its value: it is skipped by serde, ignored by `==`, and a clone — an
/// image of the contents — starts with tracking off. An image's set
/// would never be read: [`GuestMemory::restore_from`] marks the
/// target's own.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct GuestMemory {
    pages: BTreeMap<u64, Vec<u8>>,
    ram_pages: u64,
    /// EPT-style dirty tracking (§IX of the paper: record touched memory
    /// via the EPT): when enabled, every tracked write records the guest
    /// frame it touched, until the next
    /// [`GuestMemory::take_dirty_pages`] drain. The recorder drains it
    /// per exit into the memory-augmented trace; the snapshot forest
    /// drains it per capture, so a copy-on-write delta only walks pages
    /// that could have changed. Ordered so both iterate
    /// deterministically.
    #[serde(skip)]
    dirty_pages: Option<BTreeSet<u64>>,
}

impl Clone for GuestMemory {
    fn clone(&self) -> Self {
        Self {
            pages: self.pages.clone(),
            ram_pages: self.ram_pages,
            dirty_pages: None,
        }
    }
}

impl PartialEq for GuestMemory {
    fn eq(&self, other: &Self) -> bool {
        self.ram_pages == other.ram_pages && self.pages == other.pages
    }
}

impl Eq for GuestMemory {}

impl GuestMemory {
    /// Empty memory with a nominal RAM size (pages are populated lazily
    /// on first write within the RAM range).
    #[must_use]
    pub fn new(ram_bytes: u64) -> Self {
        Self {
            pages: BTreeMap::new(),
            ram_pages: ram_bytes >> PAGE_SHIFT,
            dirty_pages: None,
        }
    }

    /// Nominal RAM size in bytes.
    #[must_use]
    pub fn ram_bytes(&self) -> u64 {
        self.ram_pages << PAGE_SHIFT
    }

    /// Number of actually populated pages.
    #[must_use]
    pub fn populated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Enable/disable page-granular dirty tracking (the write barrier of
    /// the §IX recorder and of the snapshot forest). Enabling starts
    /// from an empty set: the caller is expected to capture its
    /// reference state (the forest root) first.
    pub fn set_page_dirty_tracking(&mut self, enabled: bool) {
        self.dirty_pages = if enabled { Some(BTreeSet::new()) } else { None };
    }

    /// Drain the set of guest frames touched since the last drain (or
    /// since tracking was enabled). Empty when tracking is off.
    #[must_use]
    pub fn take_dirty_pages(&mut self) -> BTreeSet<u64> {
        (self.dirty_pages.as_mut().map(std::mem::take)).unwrap_or_default()
    }

    /// Whether page-granular dirty tracking is currently enabled.
    #[must_use]
    pub fn page_dirty_tracking(&self) -> bool {
        self.dirty_pages.is_some()
    }

    /// Raw read of one populated page (`None` when the frame is cold).
    #[must_use]
    pub fn page(&self, gfn: u64) -> Option<&[u8]> {
        self.pages.get(&gfn).map(Vec::as_slice)
    }

    /// Record that frame `gfn` may have changed since the last drain.
    fn mark(&mut self, gfn: u64) {
        if let Some(set) = &mut self.dirty_pages {
            set.insert(gfn);
        }
    }

    /// The one tracked write path: range-check the frame, mark it, and
    /// hand out its page, populated on demand. Every guest or handler
    /// write reaches `pages` through here, so none can skip the mark.
    fn page_for_write(&mut self, gfn: u64) -> Result<&mut [u8], GuestMemError> {
        if gfn >= self.ram_pages {
            return Err(GuestMemError::BadGfn { gfn });
        }
        self.mark(gfn);
        Ok(self
            .pages
            .entry(gfn)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize]))
    }

    /// The one page-restore primitive: make frame `gfn` hold `image` (a
    /// whole page as [`GuestMemory::page`] returns it; a shorter one is
    /// zero-extended) or, for `None`, be cold — **without** marking it
    /// dirty, since a restore reconciles the dirty set itself. Compares
    /// before it writes: the memcmp on a clean page is read-only, so
    /// the cost follows the pages that diverged. Returns whether the
    /// frame changed.
    pub fn set_page(&mut self, gfn: u64, image: Option<&[u8]>) -> bool {
        let Some(image) = image else {
            return self.pages.remove(&gfn).is_some();
        };
        if self.page(gfn) == Some(image) {
            return false;
        }
        let page = self.pages.entry(gfn).or_default();
        page.clear();
        page.extend_from_slice(image.get(..PAGE_SIZE as usize).unwrap_or(image));
        page.resize(PAGE_SIZE as usize, 0);
        true
    }

    /// `copy_to_guest`: write `data` at guest-physical `gpa`, populating
    /// RAM pages on demand.
    ///
    /// # Errors
    /// [`GuestMemError::BadGfn`] if the range leaves nominal RAM; the
    /// frames before the bad one are written (and marked).
    pub fn copy_to_guest(&mut self, gpa: u64, data: &[u8]) -> Result<(), GuestMemError> {
        let mut off = 0usize;
        while off < data.len() {
            let addr = gpa + off as u64;
            let page = self.page_for_write(addr >> PAGE_SHIFT)?;
            let page_off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = (PAGE_SIZE as usize - page_off).min(data.len() - off);
            // lint:allow(panic-path-audit) -- page_off + n <= PAGE_SIZE and off + n <= data.len() by the min() above
            page[page_off..page_off + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// `copy_from_guest`: read `buf.len()` bytes at guest-physical `gpa`.
    ///
    /// Reads from *populated* pages succeed; reads from never-written RAM
    /// fail with [`GuestMemError::BadGfn`] — this models the dummy VM's
    /// cold memory during IRIS replay (a fresh HVM domain has no
    /// meaningful content where the test VM had its GDT, instruction
    /// bytes, DMA buffers...).
    pub fn copy_from_guest(&self, gpa: u64, buf: &mut [u8]) -> Result<(), GuestMemError> {
        let mut off = 0usize;
        while off < buf.len() {
            let addr = gpa + off as u64;
            let gfn = addr >> PAGE_SHIFT;
            let Some(page) = self.pages.get(&gfn) else {
                return Err(GuestMemError::BadGfn { gfn });
            };
            let page_off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = (PAGE_SIZE as usize - page_off).min(buf.len() - off);
            // lint:allow(panic-path-audit) -- off + n <= buf.len() and page_off + n <= PAGE_SIZE by the min() above
            buf[off..off + n].copy_from_slice(&page[page_off..page_off + n]);
            off += n;
        }
        Ok(())
    }

    /// Convenience: read a little-endian u64.
    pub fn read_u64(&self, gpa: u64) -> Result<u64, GuestMemError> {
        let mut b = [0u8; 8];
        self.copy_from_guest(gpa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Convenience: write a little-endian u64.
    pub fn write_u64(&mut self, gpa: u64, v: u64) -> Result<(), GuestMemError> {
        self.copy_to_guest(gpa, &v.to_le_bytes())
    }

    /// Drop every populated page (fresh domain).
    pub fn wipe(&mut self) {
        for gfn in std::mem::take(&mut self.pages).into_keys() {
            self.mark(gfn);
        }
    }

    /// Make `self` identical to `src` while reusing the page allocations
    /// already present: [`GuestMemory::set_page`] over the frames of
    /// either side, so pages absent from `src` are dropped, shared pages
    /// are compared and overwritten in place, and only pages new in
    /// `src` allocate. This is the O(dirty state) core of
    /// `Snapshot::restore_into` — restoring a domain that diverged by a
    /// few writes costs a few page copies, not a full domain rebuild.
    /// A frame the restore changed is touched-since-last-drain like any
    /// other write, and is marked.
    pub fn restore_from(&mut self, src: &GuestMemory) {
        self.ram_pages = src.ram_pages;
        let stray: Vec<u64> = (self.pages.keys().copied())
            .filter(|gfn| !src.pages.contains_key(gfn))
            .collect();
        let kept = (src.pages.iter()).map(|(gfn, page)| (*gfn, Some(page.as_slice())));
        for (gfn, image) in stray.into_iter().map(|gfn| (gfn, None)).chain(kept) {
            if self.set_page(gfn, image) {
                self.mark(gfn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut m = GuestMemory::new(1 << 20);
        m.copy_to_guest(0x1ffe, &[1, 2, 3, 4]).unwrap(); // spans a page boundary
        let mut b = [0u8; 4];
        m.copy_from_guest(0x1ffe, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(m.populated_pages(), 2);
    }

    #[test]
    fn cold_reads_fail_like_a_fresh_dummy_vm() {
        let m = GuestMemory::new(1 << 20);
        let mut b = [0u8; 8];
        assert_eq!(
            m.copy_from_guest(0x5000, &mut b),
            Err(GuestMemError::BadGfn { gfn: 5 })
        );
    }

    #[test]
    fn writes_outside_ram_fail() {
        let mut m = GuestMemory::new(0x2000); // 2 pages of RAM
        assert!(m.copy_to_guest(0x1fff, &[0]).is_ok());
        assert_eq!(
            m.copy_to_guest(0x2000, &[0]),
            Err(GuestMemError::BadGfn { gfn: 2 })
        );
    }

    #[test]
    fn u64_helpers() {
        let mut m = GuestMemory::new(1 << 16);
        m.write_u64(0x100, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(0x100).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn page_dirty_tracking_records_touched_frames() {
        let mut m = GuestMemory::new(1 << 16);
        m.write_u64(0x100, 1).unwrap(); // untracked
        m.set_page_dirty_tracking(true);
        assert!(m.page_dirty_tracking());
        m.write_u64(0x100, 2).unwrap();
        m.copy_to_guest(0x1ffe, &[1, 2, 3, 4]).unwrap(); // spans gfn 1..=2
        let dirty: Vec<u64> = m.take_dirty_pages().into_iter().collect();
        assert_eq!(dirty, vec![0, 1, 2]);
        assert!(m.take_dirty_pages().is_empty(), "drain resets");

        // wipe marks every populated frame before dropping it.
        m.wipe();
        let dirty = m.take_dirty_pages();
        assert!(dirty.contains(&0) && dirty.contains(&2));

        // restore_from marks dropped, differing, and new frames.
        let mut src = GuestMemory::new(1 << 16);
        src.write_u64(0x3000, 3).unwrap();
        m.write_u64(0x100, 9).unwrap();
        let _ = m.take_dirty_pages();
        m.restore_from(&src);
        let dirty = m.take_dirty_pages();
        assert!(dirty.contains(&0), "dropped frame marked");
        assert!(dirty.contains(&3), "new frame marked");
    }

    #[test]
    fn a_write_rejected_at_the_end_of_ram_marks_only_the_frames_it_wrote() {
        let mut m = GuestMemory::new(0x2000); // 2 pages of RAM
        m.set_page_dirty_tracking(true);
        // Starts in the last frame, runs off the end: the head lands,
        // the tail is refused.
        assert_eq!(
            m.copy_to_guest(0x1ffe, &[1, 2, 3, 4]),
            Err(GuestMemError::BadGfn { gfn: 2 })
        );
        assert_eq!(m.take_dirty_pages().into_iter().collect::<Vec<_>>(), [1]);
        assert_eq!(m.page(1).map(|p| &p[0xffe..]), Some(&[1u8, 2][..]));
        assert!(m.page(2).is_none());
        // Refused outright: nothing written, nothing marked.
        assert!(m.copy_to_guest(0x2000, &[9]).is_err());
        assert!(m.take_dirty_pages().is_empty());
    }

    #[test]
    fn set_page_compares_before_it_writes_and_never_marks() {
        let mut m = GuestMemory::new(1 << 16);
        m.set_page_dirty_tracking(true);
        assert!(m.set_page(4, Some(&[7u8; 16])), "cold -> populated");
        // A short image zero-fills the tail.
        assert_eq!(m.read_u64(0x4000).unwrap(), 0x0707_0707_0707_0707);
        assert_eq!(m.read_u64(0x4010).unwrap(), 0);
        let whole = m.page(4).unwrap().to_vec();
        assert!(!m.set_page(4, Some(&whole)), "same bytes: no write");
        assert!(m.set_page(4, Some(&[8u8; PAGE_SIZE as usize])));
        assert!(m.set_page(4, None), "populated -> cold");
        assert!(!m.set_page(4, None), "already cold");
        assert!(m.page(4).is_none());
        assert!(
            m.take_dirty_pages().is_empty(),
            "a restore reconciles the dirty set itself"
        );
    }

    #[test]
    fn restore_from_matches_source_and_reuses_pages() {
        let mut src = GuestMemory::new(1 << 16);
        src.write_u64(0x100, 0xaaaa).unwrap();
        src.write_u64(0x2000, 0xbbbb).unwrap();

        let mut dst = GuestMemory::new(1 << 16);
        dst.write_u64(0x100, 0x1111).unwrap(); // shared page, stale data
        dst.write_u64(0x5000, 0x2222).unwrap(); // page absent from src

        dst.restore_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.read_u64(0x100).unwrap(), 0xaaaa);
        assert!(dst.read_u64(0x5000).is_err(), "stray page dropped");
    }

    #[test]
    fn a_clone_images_the_contents_not_the_trackers() {
        let mut m = GuestMemory::new(1 << 16);
        m.set_page_dirty_tracking(true);
        m.write_u64(0x1000, 5).unwrap();
        let image = m.clone();
        assert_eq!(image, m, "equality is over contents");
        assert_eq!(image.read_u64(0x1000).unwrap(), 5);
        assert!(!image.page_dirty_tracking());
        // The live tracker is untouched by taking an image, and a
        // restore that changes nothing marks nothing.
        m.restore_from(&image);
        assert_eq!(m.take_dirty_pages().into_iter().collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn wipe_returns_memory_to_cold_state() {
        let mut m = GuestMemory::new(1 << 16);
        m.write_u64(0, 7).unwrap();
        m.wipe();
        assert!(m.read_u64(0).is_err());
        assert_eq!(m.populated_pages(), 0);
    }
}
