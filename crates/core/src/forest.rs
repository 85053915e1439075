//! The copy-on-write snapshot forest.
//!
//! A [`crate::snapshot::Snapshot`] is one full copy of a domain; every
//! reset pays a restore to that single image plus an O(prefix) replay
//! to reach deeper states. The forest generalizes this to a **tree of
//! deltas rooted at `s1`**: each node stores only the pages and device
//! components that diverged from its parent (captured from the
//! hypervisor's page-granular dirty tracking, see
//! [`iris_hv::mm::GuestMemory::set_page_dirty_tracking`]), so
//!
//! * [`SnapshotForest::take_delta`] is O(pages touched since the last
//!   capture), and
//! * [`SnapshotForest::restore_to`] walks the nearest-common-ancestor
//!   path between the current node and the target — O(delta), not
//!   O(prefix).
//!
//! **Determinism law.** A node's state is a pure function of
//! `(trace, prefix, promoted seed path)`: it is exactly the state the
//! domain reaches by replaying that seed path from `s1`. Restoring a
//! node and re-deriving it from `s1` are byte-identical, so drivers may
//! treat the forest as a pure accelerator — reports must not change
//! when it is enabled, disabled, or partially evicted.
//!
//! **Eviction.** The node count is bounded by [`ForestConfig::cap`].
//! Past the cap, the least-recently-used unprotected node is
//! *collapsed*: its delta is merged underneath each child's delta
//! (child entries win — they are newer) and the children are reparented
//! to its parent, preserving resolution for every surviving node. A
//! collapsed leaf simply disappears; [`SnapshotForest::restore_to`] on
//! its id then returns `false` and the caller re-derives the state by
//! replaying its seed path — slower, never wrong.

use iris_hv::crash::DomainCrashReason;
use iris_hv::devices::IoBus;
use iris_hv::domain::{Domain, DomainKind};
use iris_hv::hypervisor::Hypervisor;
use iris_hv::irq::HvmIrq;
use iris_hv::vcpu::HvVcpu;
use iris_hv::vpt::Vpt;
use iris_vtx::ept::Ept;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Names one state in a [`SnapshotForest`]. `StateId::ROOT` is the
/// forest's base snapshot (`s1`); every other id names a delta node
/// pinned by [`SnapshotForest::take_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateId(pub u64);

impl StateId {
    /// The forest's root: the base snapshot every delta hangs off.
    pub const ROOT: StateId = StateId(0);
}

/// Snapshot-forest configuration (the CLI's `--forest`/`--forest-cap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Maximum number of delta nodes kept (the root base snapshot is
    /// not counted). Beyond the cap, LRU nodes are collapsed into
    /// their children.
    pub cap: usize,
}

impl ForestConfig {
    /// Default node cap: comfortably above a typical promoted-corpus
    /// working set, small enough that memory stays flat.
    pub const DEFAULT_CAP: usize = 64;
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            cap: Self::DEFAULT_CAP,
        }
    }
}

/// One page's post-image in a delta: its full contents, or the fact
/// that the page was depopulated.
#[derive(Debug, Clone)]
enum PageDelta {
    /// The page holds these bytes at this node.
    Present(Vec<u8>),
    /// The page is cold (unpopulated) at this node.
    Absent,
}

/// One delta node: what diverged from the parent.
#[derive(Debug, Clone)]
struct Node {
    parent: u64,
    /// Post-images of the pages that differ from the parent's
    /// resolution. Ordered so captures and merges iterate
    /// deterministically.
    pages: BTreeMap<u64, PageDelta>,
    vcpus: Option<Vec<HvVcpu>>,
    ept: Option<Ept>,
    iobus: Option<IoBus>,
    irq: Option<HvmIrq>,
    vpt: Option<Vpt>,
    /// Post-image of the crash record (outer `Some` = differs from
    /// parent).
    crashed: Option<Option<DomainCrashReason>>,
    kind: Option<DomainKind>,
    /// Logical LRU clock value of the node's last use. Logical, not
    /// wall time: eviction order is a pure function of the operation
    /// sequence.
    last_use: u64,
}

/// A tree of copy-on-write domain deltas rooted at a full base
/// snapshot. See the module docs for the law and the eviction policy.
#[derive(Debug, Clone)]
pub struct SnapshotForest {
    /// The root state: a full copy of the domain at forest creation
    /// (`s1`).
    base: Domain,
    nodes: BTreeMap<u64, Node>,
    /// The node the live domain currently sits at (0 = root).
    current: u64,
    next_id: u64,
    /// Logical LRU clock (incremented per capture/restore).
    tick: u64,
    cap: usize,
}

impl SnapshotForest {
    /// Root the forest at `domain_id`'s current state. The caller
    /// should enable [`iris_hv::mm::GuestMemory::set_page_dirty_tracking`]
    /// **after** this call so the dirty set measures divergence from
    /// the root. `None` when the domain slot does not exist.
    #[must_use]
    pub fn new(hv: &Hypervisor, domain_id: u16, config: ForestConfig) -> Option<Self> {
        let base = hv.domains.get(domain_id as usize)?.clone();
        Some(Self {
            base,
            nodes: BTreeMap::new(),
            current: 0,
            next_id: 1,
            tick: 0,
            cap: config.cap,
        })
    }

    /// The node the live domain currently sits at.
    #[must_use]
    pub fn current(&self) -> StateId {
        StateId(self.current)
    }

    /// Whether `id` still names a live state (the root always does;
    /// delta nodes disappear when evicted as leaves).
    #[must_use]
    pub fn contains(&self, id: StateId) -> bool {
        id == StateId::ROOT || self.nodes.contains_key(&id.0)
    }

    /// Number of delta nodes currently kept (root excluded).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configured node cap.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Resolve page `gfn`'s contents at node `from` by walking toward
    /// the root. `None` = the page is cold there.
    fn resolve_page(&self, from: u64, gfn: u64) -> Option<&[u8]> {
        let mut at = from;
        while at != 0 {
            let Some(node) = self.nodes.get(&at) else {
                break;
            };
            if let Some(delta) = node.pages.get(&gfn) {
                return match delta {
                    PageDelta::Present(bytes) => Some(bytes.as_slice()),
                    PageDelta::Absent => None,
                };
            }
            at = node.parent;
        }
        self.base.memory.page(gfn)
    }

    /// Resolve a device/vCPU component at node `from`: nearest
    /// ancestor's post-image, else the base snapshot's.
    fn resolve_component<'a, T>(
        &'a self,
        from: u64,
        pick: impl Fn(&'a Node) -> Option<&'a T>,
        base: &'a T,
    ) -> &'a T {
        let mut at = from;
        while at != 0 {
            let Some(node) = self.nodes.get(&at) else {
                break;
            };
            if let Some(v) = pick(node) {
                return v;
            }
            at = node.parent;
        }
        base
    }

    /// Node ids from `from` up to (excluding) the root, nearest first.
    fn path_to_root(&self, from: u64) -> Vec<u64> {
        let mut path = Vec::new();
        let mut at = from;
        while at != 0 {
            let Some(node) = self.nodes.get(&at) else {
                break;
            };
            path.push(at);
            at = node.parent;
        }
        path
    }

    /// Capture the domain's divergence since the current node as a new
    /// child node and move `current` to it. Cost is O(pages dirtied
    /// since the last capture/restore). Returns the new node's id.
    pub fn take_delta(&mut self, hv: &mut Hypervisor, domain_id: u16) -> StateId {
        let tick = self.bump_tick();
        let parent = self.current;
        let Some(slot) = hv.domains.get_mut(domain_id as usize) else {
            return StateId(parent);
        };
        let dirty = slot.memory.take_dirty_pages();
        let mut pages = BTreeMap::new();
        for gfn in dirty {
            let live = slot.memory.page(gfn);
            if live != self.resolve_page(parent, gfn) {
                let delta = match live {
                    Some(bytes) => PageDelta::Present(bytes.to_vec()),
                    None => PageDelta::Absent,
                };
                pages.insert(gfn, delta);
            }
        }
        let vcpus = (slot.vcpus
            != *self.resolve_component(parent, |n| n.vcpus.as_ref(), &self.base.vcpus))
        .then(|| slot.vcpus.clone());
        let ept = (slot.ept != *self.resolve_component(parent, |n| n.ept.as_ref(), &self.base.ept))
            .then(|| slot.ept.clone());
        let iobus = (slot.iobus
            != *self.resolve_component(parent, |n| n.iobus.as_ref(), &self.base.iobus))
        .then(|| slot.iobus.clone());
        let irq = (slot.irq != *self.resolve_component(parent, |n| n.irq.as_ref(), &self.base.irq))
            .then(|| slot.irq.clone());
        let vpt = (slot.vpt != *self.resolve_component(parent, |n| n.vpt.as_ref(), &self.base.vpt))
            .then(|| slot.vpt.clone());
        let crashed = (slot.crashed
            != *self.resolve_component(parent, |n| n.crashed.as_ref(), &self.base.crashed))
        .then(|| slot.crashed.clone());
        let kind = (slot.kind
            != *self.resolve_component(parent, |n| n.kind.as_ref(), &self.base.kind))
        .then_some(slot.kind);

        let id = self.next_id;
        self.next_id += 1;
        self.nodes.insert(
            id,
            Node {
                parent,
                pages,
                vcpus,
                ept,
                iobus,
                irq,
                vpt,
                crashed,
                kind,
                last_use: tick,
            },
        );
        self.current = id;
        StateId(id)
    }

    /// Restore the domain to `target` in place, touching only the
    /// pages/components on the nearest-common-ancestor path between the
    /// current node and the target (plus anything dirtied since the
    /// last capture/restore). Returns `false` — without touching the
    /// domain — when `target` no longer exists (evicted leaf).
    pub fn restore_to(&mut self, hv: &mut Hypervisor, domain_id: u16, target: StateId) -> bool {
        if !self.contains(target) {
            return false;
        }
        let Some(slot) = hv.domains.get_mut(domain_id as usize) else {
            return false;
        };
        let tick = self.bump_tick();
        let t = target.0;

        // Pages that can differ between the live domain and the target:
        // anything written since the last sync point, plus every delta
        // on the two NCA legs. Pages on the shared path prefix resolve
        // identically on both sides and need no visit.
        let mut affected: BTreeSet<u64> = slot.memory.take_dirty_pages();
        let cur_path = self.path_to_root(self.current);
        let tgt_path = self.path_to_root(t);
        let mut ci = cur_path.len();
        let mut ti = tgt_path.len();
        while ci > 0 && ti > 0 && cur_path.get(ci - 1) == tgt_path.get(ti - 1) {
            ci -= 1;
            ti -= 1;
        }
        for id in cur_path.iter().take(ci).chain(tgt_path.iter().take(ti)) {
            if let Some(node) = self.nodes.get(id) {
                affected.extend(node.pages.keys().copied());
            }
        }

        for gfn in affected {
            match self.resolve_page(t, gfn) {
                Some(want) => {
                    if slot.memory.page(gfn) != Some(want) {
                        slot.memory.put_page(gfn, want);
                    }
                }
                None => slot.memory.drop_page(gfn),
            }
        }

        let want_vcpus = self.resolve_component(t, |n| n.vcpus.as_ref(), &self.base.vcpus);
        if slot.vcpus != *want_vcpus {
            slot.vcpus.clone_from(want_vcpus);
        }
        let want_ept = self.resolve_component(t, |n| n.ept.as_ref(), &self.base.ept);
        if slot.ept != *want_ept {
            slot.ept.clone_from(want_ept);
        }
        let want_iobus = self.resolve_component(t, |n| n.iobus.as_ref(), &self.base.iobus);
        if slot.iobus != *want_iobus {
            slot.iobus.clone_from(want_iobus);
        }
        let want_irq = self.resolve_component(t, |n| n.irq.as_ref(), &self.base.irq);
        if slot.irq != *want_irq {
            slot.irq.clone_from(want_irq);
        }
        let want_vpt = self.resolve_component(t, |n| n.vpt.as_ref(), &self.base.vpt);
        if slot.vpt != *want_vpt {
            slot.vpt.clone_from(want_vpt);
        }
        slot.crashed = self
            .resolve_component(t, |n| n.crashed.as_ref(), &self.base.crashed)
            .clone();
        slot.kind = *self.resolve_component(t, |n| n.kind.as_ref(), &self.base.kind);
        slot.id = domain_id;

        self.current = t;
        if let Some(node) = self.nodes.get_mut(&t) {
            node.last_use = tick;
        }
        true
    }

    /// Collapse least-recently-used nodes until the count is within the
    /// cap. The current node and everything in `protect` survive.
    pub fn evict_excess(&mut self, protect: &[StateId]) {
        while self.nodes.len() > self.cap {
            let victim = self
                .nodes
                .iter()
                .filter(|(id, _)| **id != self.current && !protect.contains(&StateId(**id)))
                .min_by_key(|(id, node)| (node.last_use, **id))
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            self.collapse(victim);
        }
    }

    /// Remove one node: merge its delta underneath each child's (child
    /// entries win — they are newer post-images) and reparent the
    /// children, so every surviving node still resolves identically.
    fn collapse(&mut self, victim: u64) {
        let Some(node) = self.nodes.remove(&victim) else {
            return;
        };
        let children: Vec<u64> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.parent == victim)
            .map(|(id, _)| *id)
            .collect();
        for child_id in children {
            let Some(child) = self.nodes.get_mut(&child_id) else {
                continue;
            };
            child.parent = node.parent;
            for (gfn, delta) in &node.pages {
                child.pages.entry(*gfn).or_insert_with(|| delta.clone());
            }
            if child.vcpus.is_none() {
                child.vcpus.clone_from(&node.vcpus);
            }
            if child.ept.is_none() {
                child.ept.clone_from(&node.ept);
            }
            if child.iobus.is_none() {
                child.iobus.clone_from(&node.iobus);
            }
            if child.irq.is_none() {
                child.irq.clone_from(&node.irq);
            }
            if child.vpt.is_none() {
                child.vpt.clone_from(&node.vpt);
            }
            if child.crashed.is_none() {
                child.crashed.clone_from(&node.crashed);
            }
            if child.kind.is_none() {
                child.kind = node.kind;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Hypervisor, u16) {
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(1 << 20);
        (hv, dom)
    }

    fn enable_tracking(hv: &mut Hypervisor, dom: u16) {
        hv.domains[dom as usize]
            .memory
            .set_page_dirty_tracking(true);
    }

    fn write(hv: &mut Hypervisor, dom: u16, gpa: u64, v: u64) {
        hv.domains[dom as usize].memory.write_u64(gpa, v).unwrap();
    }

    fn read(hv: &Hypervisor, dom: u16, gpa: u64) -> Option<u64> {
        hv.domains[dom as usize].memory.read_u64(gpa).ok()
    }

    #[test]
    fn delta_capture_and_restore_round_trip() {
        let (mut hv, dom) = fresh();
        write(&mut hv, dom, 0x1000, 1);
        let mut forest = SnapshotForest::new(&hv, dom, ForestConfig::default()).unwrap();
        enable_tracking(&mut hv, dom);

        write(&mut hv, dom, 0x1000, 2);
        write(&mut hv, dom, 0x5000, 5);
        let a = forest.take_delta(&mut hv, dom);
        assert_eq!(forest.current(), a);

        write(&mut hv, dom, 0x1000, 3);
        assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
        assert_eq!(read(&hv, dom, 0x1000), Some(1));
        assert_eq!(read(&hv, dom, 0x5000), None, "page depopulated at root");

        assert!(forest.restore_to(&mut hv, dom, a));
        assert_eq!(read(&hv, dom, 0x1000), Some(2));
        assert_eq!(read(&hv, dom, 0x5000), Some(5));
    }

    #[test]
    fn sibling_restore_walks_the_nca_path() {
        let (mut hv, dom) = fresh();
        write(&mut hv, dom, 0x1000, 10);
        let mut forest = SnapshotForest::new(&hv, dom, ForestConfig::default()).unwrap();
        enable_tracking(&mut hv, dom);

        write(&mut hv, dom, 0x2000, 20);
        let trunk = forest.take_delta(&mut hv, dom);
        write(&mut hv, dom, 0x3000, 30);
        let left = forest.take_delta(&mut hv, dom);
        assert!(forest.restore_to(&mut hv, dom, trunk));
        write(&mut hv, dom, 0x4000, 40);
        let right = forest.take_delta(&mut hv, dom);

        assert!(forest.restore_to(&mut hv, dom, left));
        assert_eq!(read(&hv, dom, 0x3000), Some(30));
        assert_eq!(read(&hv, dom, 0x4000), None);
        assert!(forest.restore_to(&mut hv, dom, right));
        assert_eq!(read(&hv, dom, 0x3000), None);
        assert_eq!(read(&hv, dom, 0x4000), Some(40));
        assert_eq!(read(&hv, dom, 0x2000), Some(20), "shared trunk survives");
        assert_eq!(read(&hv, dom, 0x1000), Some(10), "root state survives");
    }

    #[test]
    fn crash_state_is_part_of_the_delta() {
        use iris_hv::crash::DomainCrashReason;
        let (mut hv, dom) = fresh();
        let mut forest = SnapshotForest::new(&hv, dom, ForestConfig::default()).unwrap();
        enable_tracking(&mut hv, dom);

        hv.domains[dom as usize].crash(DomainCrashReason::TripleFault);
        let crashed = forest.take_delta(&mut hv, dom);
        assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
        assert!(hv.domains[dom as usize].is_alive(), "root is pre-crash");
        assert!(forest.restore_to(&mut hv, dom, crashed));
        assert!(!hv.domains[dom as usize].is_alive());
        assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
        assert!(hv.domains[dom as usize].is_alive());
    }

    #[test]
    fn eviction_collapses_internal_nodes_without_changing_resolution() {
        let (mut hv, dom) = fresh();
        let mut forest = SnapshotForest::new(&hv, dom, ForestConfig { cap: 2 }).unwrap();
        enable_tracking(&mut hv, dom);

        // Chain a -> b -> c; cap 2 forces `a` (LRU, internal) to
        // collapse into `b` when `c` is captured.
        write(&mut hv, dom, 0x1000, 1);
        let a = forest.take_delta(&mut hv, dom);
        write(&mut hv, dom, 0x2000, 2);
        let b = forest.take_delta(&mut hv, dom);
        write(&mut hv, dom, 0x1000, 9); // overwrite a's page in c
        write(&mut hv, dom, 0x3000, 3);
        let c = forest.take_delta(&mut hv, dom);
        forest.evict_excess(&[c]);
        assert_eq!(forest.node_count(), 2);
        assert!(!forest.contains(a), "LRU internal node collapsed");

        // b inherited a's page delta; c's own overwrite still wins.
        assert!(forest.restore_to(&mut hv, dom, b));
        assert_eq!(read(&hv, dom, 0x1000), Some(1));
        assert_eq!(read(&hv, dom, 0x2000), Some(2));
        assert!(forest.restore_to(&mut hv, dom, c));
        assert_eq!(read(&hv, dom, 0x1000), Some(9));
        assert_eq!(read(&hv, dom, 0x3000), Some(3));

        // An evicted id is a clean miss, not corruption.
        assert!(!forest.restore_to(&mut hv, dom, a));
        assert_eq!(forest.current(), c);
    }

    #[test]
    fn evicted_leaf_reports_a_clean_miss() {
        let (mut hv, dom) = fresh();
        let mut forest = SnapshotForest::new(&hv, dom, ForestConfig { cap: 1 }).unwrap();
        enable_tracking(&mut hv, dom);

        write(&mut hv, dom, 0x1000, 1);
        let a = forest.take_delta(&mut hv, dom);
        assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
        write(&mut hv, dom, 0x2000, 2);
        let b = forest.take_delta(&mut hv, dom);
        forest.evict_excess(&[b]);
        assert!(!forest.contains(a), "leaf evicted under pressure");
        assert!(forest.contains(b));
        assert!(!forest.restore_to(&mut hv, dom, a));
    }
}
