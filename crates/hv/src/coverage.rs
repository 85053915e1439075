//! Basic-block coverage instrumentation — the model's `gcov`.
//!
//! The paper compiles selected Xen components with gcov and reads basic-
//! block coverage out of a shared bitmap (§V-A): *"The hypervisor codebase
//! should not be instrumented as a whole ... We selectively instrument
//! hypervisor components crucial for VM exit handling."*
//!
//! gcov splits what it knows in two: the `.gcno` notes a *build* emits
//! (which blocks exist, how many lines each spans) and the `.gcda` counts
//! a *run* emits (which blocks were hit). The same split holds here:
//!
//! * [`BLOCK_LINES`] is the build's half — one immutable table giving
//!   every declared `(Component, block id)` its weight in *lines*, the
//!   unit of the paper's Fig. 6/7. It is the only place a weight is
//!   written down; `iris-lint`'s `cov-block-law` checks that every
//!   instrumentation site names a block the table declares and that
//!   every declared block has a site.
//! * [`CoverageMap`] is the run's half — hit bits and their running line
//!   totals, nothing else. Like the paper's shared-memory bitmap it is a
//!   **dense, fixed-size bitset** (12 components × [`BLOCKS_PER_COMPONENT`]
//!   block slots, 448 bytes, no heap members), so the one map every VM
//!   exit produces is cheap to zero, move and store. `hit` is an O(1)
//!   bit-set, `merge`/`new_lines_from` are word-wise, and lines are looked
//!   up in the table when a bit is first set.
//!
//! Handlers mark their basic blocks with `cov.hit(Component::Vmx, 12)`
//! ([`CovSink::hit`]), naming only the block. Components can be
//! selectively enabled, mirroring selective instrumentation, and hits made
//! by the record/replay machinery itself are attributed to
//! [`Component::IrisFramework`] so they can be *"cleaned up by removing
//! hits due to the execution of our record and replay components"*.
//!
//! The serde wire shape is a list of `(block, lines)` pairs — what the
//! historical `BTreeMap`-backed map wrote — so artifacts are readable
//! without the table; loading one checks every pair against it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Instrumentable hypervisor components (the model's source files).
///
/// The names match the Xen components the paper talks about:
/// `vmx.c`, `intr.c`, `emulate.c`, `vlapic.c`, `irq.c`, `vpt.c`, plus the
/// vCPU/HVM abstractions and the remaining handler families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Component {
    /// `vmx.c` — VM-exit dispatch and VMX-specific handling.
    Vmx,
    /// `intr.c` — interrupt-assist on the VM-entry path.
    Intr,
    /// `emulate.c` — the HVM instruction emulator.
    Emulate,
    /// `vlapic.c` — the virtual local APIC.
    Vlapic,
    /// `irq.c` — IRQ handling.
    Irq,
    /// `vpt.c` — the virtual platform timer.
    Vpt,
    /// `hvm.c` — HVM domain-generic helpers (CR handling, MSR handling).
    Hvm,
    /// `vcpu.c` — the vCPU abstraction.
    Vcpu,
    /// `io.c` + device models — port I/O dispatch.
    Io,
    /// `p2m.c` — physical-to-machine (EPT) management.
    P2m,
    /// `hypercall.c` — the hypercall table.
    Hypercall,
    /// IRIS's own record/replay code: filtered out of reported coverage.
    IrisFramework,
}

/// Number of instrumentable components (including the framework).
pub const COMPONENT_COUNT: usize = 12;

/// Dense block-id space per component. Block ids at or above this bound
/// are not representable; the largest id the model uses is well below it.
pub const BLOCKS_PER_COMPONENT: usize = 256;

const WORDS_PER_COMPONENT: usize = BLOCKS_PER_COMPONENT / 64;
const WORD_COUNT: usize = COMPONENT_COUNT * WORDS_PER_COMPONENT;

/// Lines per declared basic block, `BLOCK_LINES[component][id]` — the
/// build's `.gcno` to [`CoverageMap`]'s `.gcda`. Zero means the build has
/// no such block. Weights are a property of the instrumented source, not
/// of a run, so they live here once and no map carries them. Rows are
/// `(block id, lines)`; the comments name the file holding each site.
#[rustfmt::skip]
pub static BLOCK_LINES: [[u8; BLOCKS_PER_COMPONENT]; COMPONENT_COUNT] = block_lines(&[
    (Component::Vmx, &[
        // hypervisor.rs
        (0, 6), (1, 2), (2, 5), (3, 4), (4, 3), (5, 5),
        // handlers/mod.rs
        (10, 4), (11, 3), (12, 5),
        // handlers/cr.rs
        (20, 5), (21, 4), (22, 3), (23, 3), (24, 4), (25, 3), (26, 2), (27, 3), (28, 2),
        (29, 2), (30, 4), (31, 5),
        // handlers/io.rs
        (40, 5), (41, 4), (42, 3), (43, 6), (44, 4), (45, 3), (46, 3), (47, 3),
        // handlers/time.rs
        (110, 4), (111, 2), (120, 4), (121, 3), (122, 4), (123, 3),
        // handlers/preempt.rs
        (130, 4), (131, 3),
        // handlers/interrupt.rs
        (140, 4), (150, 4), (151, 4), (152, 2), (160, 5), (161, 5), (162, 3), (163, 3),
        // handlers/apic.rs
        (170, 5), (171, 4), (172, 4), (173, 4), (174, 4),
        // handlers/misc.rs
        (180, 4), (181, 3), (182, 3), (183, 3), (190, 4), (191, 2), (195, 3), (199, 4),
        // ctx.rs
        (200, 4), (201, 3), (202, 3), (203, 2),
        // handlers/misc.rs
        (204, 3), (210, 3), (220, 5), (221, 6), (222, 7),
        // faults.rs
        (240, 4), (241, 5), (242, 3),
    ]),
    (Component::Intr, &[
        // intr.rs
        (0, 4), (1, 5), (2, 2), (3, 5), (4, 5), (5, 3),
    ]),
    (Component::Emulate, &[
        // emulate.rs
        (0, 5), (1, 4), (2, 7), (3, 6), (4, 3), (5, 5), (6, 5), (7, 4), (8, 4), (10, 4),
        (11, 3), (12, 6), (13, 3), (14, 6), (15, 5), (20, 6), (21, 7), (22, 5), (23, 5),
        (24, 6), (25, 3),
    ]),
    (Component::Vlapic, &[
        // vlapic.rs
        (0, 4), (1, 2), (2, 3), (3, 5), (4, 4), (10, 4), (11, 1), (12, 5), (13, 3),
        (14, 3), (15, 2), (20, 4), (21, 1), (22, 2), (23, 5), (24, 3), (25, 2), (26, 3),
        (27, 3), (28, 5), (29, 1), (30, 1), (31, 2),
    ]),
    (Component::Irq, &[
        // irq.rs
        (0, 4), (1, 3), (2, 2), (3, 2), (4, 3), (5, 3),
        // handlers/interrupt.rs
        (10, 6), (11, 4), (12, 3),
    ]),
    (Component::Vpt, &[
        // vpt.rs
        (0, 3), (1, 4), (2, 5), (3, 4), (4, 2),
    ]),
    (Component::Hvm, &[
        // ctx.rs
        (0, 3), (1, 4), (2, 3), (3, 2),
        // handlers/cr.rs
        (10, 6), (11, 4), (12, 4), (13, 5), (14, 5), (15, 5), (16, 3),
        // handlers/msr.rs
        (50, 4), (51, 3), (52, 2), (53, 2), (54, 3), (55, 3), (60, 4), (61, 4), (62, 4),
        (63, 2), (64, 4), (65, 2), (66, 2), (67, 2), (68, 2), (69, 2), (70, 3), (71, 3),
        // handlers/cpuid.rs
        (80, 4), (81, 3), (82, 6), (83, 2), (84, 4), (85, 3), (86, 3), (87, 2), (88, 4),
        (89, 3), (90, 3), (91, 2), (92, 3), (93, 2), (94, 3),
    ]),
    (Component::Vcpu, &[
        // handlers/cr.rs
        (0, 3),
        // handlers/preempt.rs
        (10, 4),
    ]),
    (Component::Io, &[
        // devices.rs
        (0, 3), (1, 3), (10, 4), (11, 3), (12, 3), (13, 3), (14, 2), (15, 4), (16, 1),
        (30, 2), (31, 3), (32, 2), (33, 3), (34, 2), (35, 2), (36, 2), (50, 4), (51, 2),
        (52, 1), (53, 3), (54, 2), (55, 2), (56, 2), (57, 2), (70, 2), (71, 3), (72, 2),
        (73, 2), (74, 3), (75, 1), (76, 2), (77, 1), (90, 3), (91, 2), (92, 2), (93, 2),
        (94, 2), (110, 3), (111, 2), (112, 1), (113, 4), (114, 3), (115, 1), (130, 2),
        (135, 3),
    ]),
    (Component::P2m, &[
        // handlers/cr.rs
        (10, 8), (11, 5), (12, 4), (13, 4), (14, 5),
        // handlers/msr.rs
        (15, 4),
        // handlers/cr.rs
        (16, 6),
        // handlers/ept.rs
        (20, 5), (21, 4), (22, 5), (23, 6), (24, 4), (25, 4), (26, 2), (27, 2), (28, 3),
        (29, 6),
        // handlers/misc.rs
        (30, 3),
        // handlers/ept.rs
        (40, 5), (41, 6), (42, 4),
    ]),
    (Component::Hypercall, &[
        // handlers/vmcall.rs
        (0, 5), (10, 3), (20, 5), (21, 4), (22, 3), (30, 4), (31, 2), (32, 2), (33, 2),
        (40, 4), (45, 3), (50, 3), (55, 3), (60, 4),
    ]),
    (Component::IrisFramework, &[
        // handlers/vmcall.rs
        (0, 5), (1, 2), (2, 3),
    ]),
]);

/// Expand the sparse declaration into the dense table, refusing (at
/// compile time) a block declared twice or with no lines.
const fn block_lines(
    declared: &[(Component, &[(u16, u8)])],
) -> [[u8; BLOCKS_PER_COMPONENT]; COMPONENT_COUNT] {
    let mut table = [[0u8; BLOCKS_PER_COMPONENT]; COMPONENT_COUNT];
    let mut c = 0;
    while c < declared.len() {
        let (component, blocks) = declared[c];
        let mut b = 0;
        while b < blocks.len() {
            let (id, lines) = blocks[b];
            assert!(lines != 0, "a declared block weighs at least one line");
            assert!(
                table[component as usize][id as usize] == 0,
                "block declared twice"
            );
            table[component as usize][id as usize] = lines;
            b += 1;
        }
        c += 1;
    }
    table
}

impl Component {
    /// All real hypervisor components (excludes [`Component::IrisFramework`]).
    pub const HYPERVISOR: &'static [Component] = &[
        Component::Vmx,
        Component::Intr,
        Component::Emulate,
        Component::Vlapic,
        Component::Irq,
        Component::Vpt,
        Component::Hvm,
        Component::Vcpu,
        Component::Io,
        Component::P2m,
        Component::Hypercall,
    ];

    /// Every component, in dense-index order.
    pub const ALL: &'static [Component] = &[
        Component::Vmx,
        Component::Intr,
        Component::Emulate,
        Component::Vlapic,
        Component::Irq,
        Component::Vpt,
        Component::Hvm,
        Component::Vcpu,
        Component::Io,
        Component::P2m,
        Component::Hypercall,
        Component::IrisFramework,
    ];

    /// Dense index of the component (0..[`COMPONENT_COUNT`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Component::index`].
    #[must_use]
    pub fn from_index(idx: usize) -> Option<Component> {
        Self::ALL.get(idx).copied()
    }

    /// The source-file name the component models (for reports and logs).
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            Component::Vmx => "vmx.c",
            Component::Intr => "intr.c",
            Component::Emulate => "emulate.c",
            Component::Vlapic => "vlapic.c",
            Component::Irq => "irq.c",
            Component::Vpt => "vpt.c",
            Component::Hvm => "hvm.c",
            Component::Vcpu => "vcpu.c",
            Component::Io => "io.c",
            Component::P2m => "p2m.c",
            Component::Hypercall => "hypercall.c",
            Component::IrisFramework => "iris.c",
        }
    }
}

/// A basic block: component plus a block id unique within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Block {
    /// Which component the block lives in.
    pub component: Component,
    /// Block id within the component.
    pub id: u16,
}

impl Block {
    /// Construct a block id.
    #[must_use]
    pub fn new(component: Component, id: u16) -> Self {
        Self { component, id }
    }

    /// Lines the block weighs — its [`BLOCK_LINES`] entry, so zero for a
    /// block this build does not declare (out-of-range ids included).
    #[must_use]
    #[inline]
    pub fn lines(self) -> u32 {
        BLOCK_LINES[self.component.index()]
            .get(usize::from(self.id))
            .map_or(0, |&lines| u32::from(lines))
    }

    /// Dense slot of the block, or `None` when the id is out of range.
    #[inline]
    fn slot(self) -> Option<usize> {
        let id = usize::from(self.id);
        (id < BLOCKS_PER_COMPONENT).then(|| self.component.index() * BLOCKS_PER_COMPONENT + id)
    }
}

/// Lines of the blocks whose bits are set in word `w` of the bitmap.
#[inline]
fn word_lines(w: usize, bits: u64) -> u32 {
    let component = &BLOCK_LINES[w / WORDS_PER_COMPONENT];
    let base = (w % WORDS_PER_COMPONENT) * 64;
    BitIter { bits }
        .map(|b| u32::from(component[base + b]))
        .sum()
}

/// The set of hit blocks — the "bitmap ... exported as a shared memory
/// area" of §V-A, at block granularity.
///
/// Dense and heap-free: a fixed bitset of hit blocks, with running line
/// totals so [`CoverageMap::lines`] and [`CoverageMap::lines_in`] are
/// O(1). Only blocks [`BLOCK_LINES`] declares can be set, so the totals
/// are a function of the bits and two maps are equal exactly when they
/// hold the same blocks.
///
/// Serializes as a list of `(block, lines)` pairs so JSON (string-keyed
/// maps only) can carry it — the same wire shape as the historical
/// `BTreeMap`-backed map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    bits: [u64; WORD_COUNT],
    lines_by_component: [u32; COMPONENT_COUNT],
    total_lines: u64,
    block_count: u32,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap {
            bits: [0; WORD_COUNT],
            lines_by_component: [0; COMPONENT_COUNT],
            total_lines: 0,
            block_count: 0,
        }
    }
}

impl Serialize for CoverageMap {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|pair| pair.to_value()).collect())
    }
}

impl Deserialize for CoverageMap {
    /// A persisted map is outside input: a pair this build's table does
    /// not back — an id out of range, an undeclared block, another
    /// weight — is corrupt or foreign data and fails the load, naming the
    /// block and both weights, instead of being adopted or dropped.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = Vec::<(Block, u32)>::from_value(v)?;
        let mut map = CoverageMap::new();
        for (block, lines) in pairs {
            // Zero is the table's "no such block" (ids out of range
            // included), so it never matches, whatever the pair says.
            let declared = block.lines();
            if declared == 0 || lines != declared {
                return Err(serde::Error::msg(format!(
                    "coverage block {:?}/{} weighs {lines} lines in the artifact but {declared} \
                     in this build's BLOCK_LINES{}",
                    block.component,
                    block.id,
                    if declared == 0 { " (not declared)" } else { "" }
                )));
            }
            map.hit(block);
        }
        Ok(map)
    }
}

impl CoverageMap {
    /// Empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a hit of `block`.
    ///
    /// Contract: the block is one [`BLOCK_LINES`] declares (which implies
    /// an id below [`BLOCKS_PER_COMPONENT`]) — `iris-lint`'s
    /// `cov-block-law` holds every instrumentation site to it. Any other
    /// block is a debug assertion and is ignored in release builds;
    /// deserialization rejects it explicitly.
    #[inline]
    pub fn hit(&mut self, block: Block) {
        let (Some(slot), lines @ 1..) = (block.slot(), block.lines()) else {
            debug_assert!(false, "{block:?} is not declared in BLOCK_LINES");
            return;
        };
        let word = slot / 64;
        let mask = 1u64 << (slot % 64);
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.block_count += 1;
            self.total_lines += u64::from(lines);
            self.lines_by_component[block.component.index()] += lines;
        }
    }

    /// Number of distinct blocks hit.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.block_count as usize
    }

    /// Total unique lines covered — the paper's coverage unit. O(1).
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.total_lines
    }

    /// Unique lines covered within one component. O(1).
    #[must_use]
    pub fn lines_in(&self, component: Component) -> u64 {
        u64::from(self.lines_by_component[component.index()])
    }

    /// Whether a block was hit.
    #[must_use]
    #[inline]
    pub fn contains(&self, block: Block) -> bool {
        match block.slot() {
            Some(slot) => self.bits[slot / 64] & (1u64 << (slot % 64)) != 0,
            None => false,
        }
    }

    /// Iterate hit blocks with their weights, in `(component, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Block, u32)> + '_ {
        Component::ALL
            .iter()
            .zip(self.bits.chunks_exact(WORDS_PER_COMPONENT))
            .flat_map(|(&component, words)| {
                words.iter().enumerate().flat_map(move |(w, &bits)| {
                    BitIter { bits }.map(move |b| {
                        let block = Block::new(component, (w * 64 + b) as u16);
                        (block, block.lines())
                    })
                })
            })
    }

    /// Merge another map into this one (cumulative coverage). Word-wise.
    pub fn merge(&mut self, other: &CoverageMap) {
        for w in 0..WORD_COUNT {
            let fresh = other.bits[w] & !self.bits[w];
            if fresh == 0 {
                continue;
            }
            let lines = word_lines(w, fresh);
            self.bits[w] |= fresh;
            self.block_count += fresh.count_ones();
            self.total_lines += u64::from(lines);
            self.lines_by_component[w / WORDS_PER_COMPONENT] += lines;
        }
    }

    /// Union of many maps — the aggregation step of sharded campaigns:
    /// per-worker maps fold into one campaign-wide map, word-wise, so
    /// the cost is O(words × maps) regardless of hit counts. Merging is
    /// commutative and idempotent, which is what lets a parallel run
    /// fold worker maps in any completion order and still match the
    /// sequential result.
    #[must_use]
    pub fn merged<'a, I>(maps: I) -> CoverageMap
    where
        I: IntoIterator<Item = &'a CoverageMap>,
    {
        let mut out = CoverageMap::new();
        for m in maps {
            out.merge(m);
        }
        out
    }

    /// New lines `other` would add on top of `self`. Word-wise.
    #[must_use]
    pub fn new_lines_from(&self, other: &CoverageMap) -> u64 {
        (0..WORD_COUNT)
            .map(|w| u64::from(word_lines(w, other.bits[w] & !self.bits[w])))
            .sum()
    }

    /// Lines covered by `self` but not by `other`, per component —
    /// the paper's Fig. 7 "code coverage differences" clustering.
    #[must_use]
    pub fn diff_lines_by_component(&self, other: &CoverageMap) -> BTreeMap<Component, u64> {
        let mut out = BTreeMap::new();
        for w in 0..WORD_COUNT {
            let mine = self.bits[w] & !other.bits[w];
            if mine == 0 {
                continue;
            }
            let component = Component::from_index(w / WORDS_PER_COMPONENT)
                .expect("word within component range");
            *out.entry(component).or_insert(0u64) += u64::from(word_lines(w, mine));
        }
        out
    }

    /// Symmetric difference in lines (both directions), total.
    #[must_use]
    pub fn symmetric_diff_lines(&self, other: &CoverageMap) -> u64 {
        self.new_lines_from(other) + other.new_lines_from(self)
    }

    /// Drop [`Component::IrisFramework`] hits — the paper's
    /// *"code coverage is cleaned up by removing hits due to the execution
    /// of our record and replay components"*. A component-range mask, no
    /// allocation.
    #[must_use]
    pub fn without_framework(&self) -> CoverageMap {
        let mut out = self.clone();
        out.strip_framework();
        out
    }

    /// In-place version of [`CoverageMap::without_framework`] — used on
    /// hot paths to avoid an extra copy of the map.
    pub fn strip_framework(&mut self) {
        let fw = Component::IrisFramework.index();
        let mut dropped_blocks = 0u32;
        for w in fw * WORDS_PER_COMPONENT..(fw + 1) * WORDS_PER_COMPONENT {
            dropped_blocks += self.bits[w].count_ones();
            self.bits[w] = 0;
        }
        self.total_lines -= u64::from(self.lines_by_component[fw]);
        self.block_count -= dropped_blocks;
        self.lines_by_component[fw] = 0;
    }

    /// Remove everything (fresh recording session).
    pub fn reset(&mut self) {
        *self = CoverageMap::default();
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter {
    bits: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(b)
    }
}

/// Where instrumentation hits go during one VM exit: the cumulative map
/// plus the per-exit (per-seed) map IRIS attaches to metrics.
#[derive(Debug)]
pub struct CovSink<'a> {
    global: &'a mut CoverageMap,
    per_exit: &'a mut CoverageMap,
    /// Cycles burned per covered line (couples coverage to handler time).
    pub cycles_per_line: u64,
    /// Cycles accumulated by hits in this exit.
    pub cycles: u64,
    enabled: bool,
}

impl<'a> CovSink<'a> {
    /// Create a sink writing to a global and a per-exit map.
    pub fn new(global: &'a mut CoverageMap, per_exit: &'a mut CoverageMap) -> Self {
        Self {
            global,
            per_exit,
            cycles_per_line: crate::costs::CYCLES_PER_LINE,
            cycles: 0,
            enabled: true,
        }
    }

    /// Enable/disable instrumentation (un-instrumented build).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record a hit. Always burns the block's lines in cycles (the code
    /// runs whether or not it is instrumented); records coverage only
    /// when enabled.
    #[inline]
    pub fn hit(&mut self, component: Component, id: u16) {
        let block = Block::new(component, id);
        self.cycles += u64::from(block.lines()) * self.cycles_per_line;
        if self.enabled {
            self.global.hit(block);
            self.per_exit.hit(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(c: Component, id: u16) -> Block {
        Block::new(c, id)
    }

    fn map_of(blocks: &[Block]) -> CoverageMap {
        let mut m = CoverageMap::new();
        for &block in blocks {
            m.hit(block);
        }
        m
    }

    fn from_json(json: &str) -> Result<CoverageMap, serde::Error> {
        CoverageMap::from_value(&serde::json::parse(json)?)
    }

    #[test]
    fn the_map_is_bits_and_totals_only() {
        // 384 B of bits + 48 B of per-component lines + 16 B of totals.
        assert_eq!(std::mem::size_of::<CoverageMap>(), 448);
    }

    #[test]
    fn table_weights_are_what_the_sites_used_to_pass() {
        assert_eq!(b(Component::Vmx, 12).lines(), 5);
        assert_eq!(b(Component::P2m, 10).lines(), 8);
        assert_eq!(b(Component::Vmx, 242).lines(), 3);
        assert_eq!(b(Component::Vmx, 6).lines(), 0, "undeclared");
        assert_eq!(b(Component::Vmx, 256).lines(), 0, "out of range");
        let declared = BLOCK_LINES.iter().flatten().filter(|&&l| l != 0).count();
        assert_eq!(declared, 263);
        assert_eq!(BLOCK_LINES.iter().flatten().max(), Some(&8));
    }

    #[test]
    fn lines_sum_unique_blocks_only() {
        let mut m = map_of(&[b(Component::Vmx, 1), b(Component::Vmx, 1)]); // re-hit: no double count
        m.hit(b(Component::Vmx, 2));
        assert_eq!(m.lines(), 2 + 5);
        assert_eq!(m.block_count(), 2);
        assert_eq!(m.lines_in(Component::Vmx), 7);
        assert_eq!(m.lines_in(Component::Irq), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn undeclared_blocks_are_ignored_in_release() {
        let m = map_of(&[b(Component::Vmx, 6), b(Component::Vmx, 300)]);
        assert_eq!(m, CoverageMap::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared in BLOCK_LINES")]
    fn undeclared_blocks_are_a_debug_assertion() {
        let _ = map_of(&[b(Component::Vmx, 6)]);
    }

    #[test]
    fn merge_and_new_lines() {
        let mut a = map_of(&[b(Component::Vmx, 1)]);
        let c = map_of(&[b(Component::Vmx, 1), b(Component::Irq, 3)]);
        assert_eq!(a.new_lines_from(&c), 2);
        a.merge(&c);
        assert_eq!(a.lines(), 4);
        assert_eq!(a.lines_in(Component::Irq), 2);
        assert_eq!(a.new_lines_from(&c), 0);
        assert_eq!(a, c);
    }

    #[test]
    fn merged_is_the_union_in_any_order() {
        let a = map_of(&[b(Component::Vmx, 1), b(Component::Irq, 3)]);
        let c = map_of(&[b(Component::Vmx, 1), b(Component::Emulate, 2)]);
        let d = CoverageMap::new();
        let forward = CoverageMap::merged([&a, &c, &d]);
        let backward = CoverageMap::merged([&d, &c, &a]);
        assert_eq!(forward, backward);
        assert_eq!(forward.lines(), 2 + 2 + 7);
        assert_eq!(forward.block_count(), 3);
        let none: [&CoverageMap; 0] = [];
        assert_eq!(CoverageMap::merged(none), CoverageMap::new());
    }

    #[test]
    fn diff_clusters_by_component() {
        let rec = map_of(&[
            b(Component::Vlapic, 0),
            b(Component::Emulate, 2),
            b(Component::Vmx, 3),
        ]);
        let rep = map_of(&[b(Component::Vmx, 3)]);
        let d = rec.diff_lines_by_component(&rep);
        assert_eq!(d.get(&Component::Vlapic), Some(&4));
        assert_eq!(d.get(&Component::Emulate), Some(&7));
        assert_eq!(d.get(&Component::Vmx), None);
        assert_eq!(rec.symmetric_diff_lines(&rep), 11);
    }

    #[test]
    fn framework_hits_are_filtered() {
        let m = map_of(&[b(Component::IrisFramework, 0), b(Component::Vmx, 0)]);
        assert_eq!(m.lines(), 5 + 6);
        let clean = m.without_framework();
        assert_eq!(clean.lines(), 6);
        assert_eq!(clean.block_count(), 1);
        assert!(!clean.contains(b(Component::IrisFramework, 0)));
        assert_eq!(clean, map_of(&[b(Component::Vmx, 0)]));
    }

    #[test]
    fn sink_burns_cycles_even_when_disabled() {
        let mut g = CoverageMap::new();
        let mut p = CoverageMap::new();
        let mut s = CovSink::new(&mut g, &mut p);
        s.set_enabled(false);
        s.hit(Component::P2m, 10);
        let burned = s.cycles;
        assert_eq!(burned, 8 * crate::costs::CYCLES_PER_LINE);
        assert_eq!(g.block_count(), 0);
        let mut s2 = CovSink::new(&mut g, &mut p);
        s2.hit(Component::P2m, 10);
        assert_eq!(s2.cycles, burned);
        assert_eq!(g.block_count(), 1);
        assert_eq!(p.block_count(), 1);
    }

    #[test]
    fn iter_yields_blocks_in_dense_order_with_weights() {
        // One block in each of Vmx's four words, and one in a later
        // component hit first.
        let m = map_of(&[
            b(Component::Irq, 12),
            b(Component::Vmx, 0),
            b(Component::Vmx, 110),
            b(Component::Vmx, 130),
            b(Component::Vmx, 200),
        ]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (b(Component::Vmx, 0), 6),
                (b(Component::Vmx, 110), 4),
                (b(Component::Vmx, 130), 4),
                (b(Component::Vmx, 200), 4),
                (b(Component::Irq, 12), 3),
            ]
        );
    }

    #[test]
    fn serde_wire_shape_is_a_pair_list() {
        let m = map_of(&[b(Component::Vmx, 3)]);
        let json = serde::json::write(&m.to_value(), false);
        assert_eq!(json, r#"[[{"component":"Vmx","id":3},4]]"#);
        assert_eq!(from_json(&json).unwrap(), m);
    }

    #[test]
    fn a_pair_the_table_does_not_back_is_a_typed_error() {
        for (json, needle) in [
            (
                r#"[[{"component":"Vmx","id":256},4]]"#,
                "Vmx/256 weighs 4 lines in the artifact but 0 in this build's BLOCK_LINES (not declared)",
            ),
            (
                r#"[[{"component":"Vmx","id":6},0]]"#,
                "Vmx/6 weighs 0 lines in the artifact but 0 in this build's BLOCK_LINES (not declared)",
            ),
            (
                r#"[[{"component":"Vmx","id":3},5]]"#,
                "Vmx/3 weighs 5 lines in the artifact but 4 in this build's BLOCK_LINES",
            ),
            (
                r#"[[{"component":"Vmx","id":3},0]]"#,
                "Vmx/3 weighs 0 lines in the artifact but 4 in this build's BLOCK_LINES",
            ),
        ] {
            let err = from_json(json).expect_err(json);
            assert!(err.to_string().contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = map_of(&[b(Component::Vpt, 4)]);
        m.reset();
        assert_eq!(m, CoverageMap::new());
        assert_eq!(m.lines(), 0);
        assert_eq!(m.block_count(), 0);
    }
}
