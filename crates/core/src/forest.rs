//! The copy-on-write snapshot forest.
//!
//! A [`crate::snapshot::Snapshot`] is one full copy of a domain; every
//! reset pays a restore to that single image plus an O(prefix) replay
//! to reach deeper states. The forest generalizes this to a **tree of
//! deltas rooted at `s1`**: each node stores the pages that diverged
//! from its parent (captured from the hypervisor's page-granular dirty
//! tracking, see [`iris_hv::mm::GuestMemory::set_page_dirty_tracking`])
//! and, when anything but memory diverged, one post-image of
//! everything but memory ([`iris_hv::domain::Domain::clone_state`] —
//! what a domain is made of is `hv::domain`'s business, not this
//! module's), so
//!
//! * [`SnapshotForest::take_delta`] is O(pages touched since the last
//!   capture) plus one comparison against the nearest ancestor's image,
//!   and
//! * [`SnapshotForest::restore_to`] walks the nearest-common-ancestor
//!   path between the current node and the target — O(delta), not
//!   O(prefix) — writing pages through the same compare-before-write
//!   primitive as the flat restore
//!   ([`iris_hv::mm::GuestMemory::set_page`]) and everything else
//!   through the same [`iris_hv::domain::Domain::restore_state`]. The
//!   two differ only in which frames they visit.
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

use iris_hv::domain::Domain;
use iris_hv::hypervisor::Hypervisor;
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
    /// Maximum number of delta nodes held (the root base snapshot is
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

/// One delta node: what diverged from the parent.
#[derive(Debug, Clone)]
struct Node {
    parent: u64,
    /// Post-images of the pages that differ from the parent's
    /// resolution: the page's full contents, or `None` for a page that
    /// is cold (unpopulated) at this node. Ordered so captures and
    /// merges iterate deterministically.
    pages: BTreeMap<u64, Option<Vec<u8>>>,
    /// Post-image of everything but the guest memory
    /// ([`Domain::clone_state`]), when it differs from the parent's
    /// resolution.
    state: Option<Domain>,
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

    /// The configured node cap.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The nodes from `from` up to (excluding) the root, nearest first.
    fn ancestors(&self, from: u64) -> impl Iterator<Item = (u64, &Node)> {
        let mut at = from;
        std::iter::from_fn(move || {
            let node = self.nodes.get(&at)?;
            let id = std::mem::replace(&mut at, node.parent);
            Some((id, node))
        })
    }

    /// Resolve page `gfn`'s contents at node `from`: the nearest
    /// ancestor's post-image, else the base snapshot's. `None` = the
    /// page is cold there.
    fn resolve_page(&self, from: u64, gfn: u64) -> Option<&[u8]> {
        match self.ancestors(from).find_map(|(_, n)| n.pages.get(&gfn)) {
            Some(image) => image.as_deref(),
            None => self.base.memory.page(gfn),
        }
    }

    /// Resolve everything but the guest memory at node `from`: the
    /// nearest ancestor's post-image, else the base snapshot.
    fn resolve_state(&self, from: u64) -> &Domain {
        (self.ancestors(from).find_map(|(_, n)| n.state.as_ref())).unwrap_or(&self.base)
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
        let pages = (slot.memory.take_dirty_pages().into_iter())
            .filter_map(|gfn| {
                let live = slot.memory.page(gfn);
                (live != self.resolve_page(parent, gfn)).then(|| (gfn, live.map(<[u8]>::to_vec)))
            })
            .collect();
        let state = (!slot.same_state(self.resolve_state(parent))).then(|| slot.clone_state());

        let id = self.next_id;
        self.next_id += 1;
        self.nodes.insert(
            id,
            Node {
                parent,
                pages,
                state,
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
        let cur_path: Vec<_> = self.ancestors(self.current).collect();
        let tgt_path: Vec<_> = self.ancestors(t).collect();
        let shared = (cur_path.iter().rev().zip(tgt_path.iter().rev()))
            .take_while(|(cur, tgt)| cur.0 == tgt.0)
            .count();
        let legs = (cur_path.iter().take(cur_path.len() - shared))
            .chain(tgt_path.iter().take(tgt_path.len() - shared));
        for (_, node) in legs {
            affected.extend(node.pages.keys().copied());
        }

        for gfn in affected {
            slot.memory.set_page(gfn, self.resolve_page(t, gfn));
        }
        slot.restore_state(self.resolve_state(t));

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
        for child in self.nodes.values_mut().filter(|n| n.parent == victim) {
            child.parent = node.parent;
            for (gfn, image) in &node.pages {
                child.pages.entry(*gfn).or_insert_with(|| image.clone());
            }
            if child.state.is_none() {
                child.state.clone_from(&node.state);
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

    type Diverge = fn(&mut Domain);

    /// One way to diverge each non-memory component of a domain,
    /// touching nothing else.
    const DIVERGE: [(&str, Diverge); 7] = [
        ("kind", |d| d.kind = iris_hv::domain::DomainKind::Control),
        ("vcpus", |d| d.vcpus[0].exit_count += 7),
        ("ept", |d| d.ept.misconfigure(3)),
        ("iobus", |d| d.iobus.uart.tx_log.push(b'x')),
        ("irq", |d| d.irq.delivered += 1),
        ("vpt", |d| d.vpt.ticks_delivered += 1),
        ("crashed", |d| {
            d.crashed = Some(iris_hv::crash::DomainCrashReason::TripleFault);
        }),
    ];

    #[test]
    fn every_component_round_trips_alone_and_together() {
        let all: Vec<Diverge> = DIVERGE.iter().map(|(_, f)| *f).collect();
        let cases = (DIVERGE.iter().map(|(name, f)| (*name, vec![*f])))
            .chain([("all together", all.clone())]);
        for (name, diverge) in cases {
            let (mut hv, dom) = fresh();
            let at = dom as usize;
            write(&mut hv, dom, 0x1000, 1);
            let base = hv.domains[at].clone();
            let mut forest = SnapshotForest::new(&hv, dom, ForestConfig { cap: 1 }).unwrap();
            enable_tracking(&mut hv, dom);
            // Everything moves away from whatever was pinned.
            let scramble = |hv: &mut Hypervisor| {
                all.iter().for_each(|f| f(&mut hv.domains[at]));
                write(hv, dom, 0x1000, 99);
                write(hv, dom, 0x7000, 99);
            };

            // Pin the diverged state, move on, come back.
            diverge.iter().for_each(|f| f(&mut hv.domains[at]));
            write(&mut hv, dom, 0x2000, 2);
            let pinned = hv.domains[at].clone();
            let pin = forest.take_delta(&mut hv, dom);
            scramble(&mut hv);
            assert!(forest.restore_to(&mut hv, dom, pin));
            assert!(hv.domains[at] == pinned, "{name}: pin round trip");

            // A child that only wrote memory inherits the component
            // image when its parent collapses into it.
            write(&mut hv, dom, 0x3000, 3);
            let pinned_child = hv.domains[at].clone();
            let child = forest.take_delta(&mut hv, dom);
            forest.evict_excess(&[child]);
            assert!(!forest.contains(pin), "{name}: parent collapsed");
            scramble(&mut hv);
            assert!(forest.restore_to(&mut hv, dom, child));
            assert!(hv.domains[at] == pinned_child, "{name}: after collapse");

            // The root restore is the flat restore.
            scramble(&mut hv);
            let mut flat = hv.domains[at].clone();
            flat.restore_from(&base);
            assert!(forest.restore_to(&mut hv, dom, StateId::ROOT));
            assert!(hv.domains[at] == flat, "{name}: root vs restore_from");
            assert!(hv.domains[at] == base, "{name}: root is the base");
        }
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
        assert!(
            forest.contains(b) && forest.contains(c),
            "the cap's two nodes"
        );
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
