//! In-memory span recording for the traced pass.
//!
//! A span is `{id, parent, name, start_ns, end_ns}` on the harness's own
//! monotonic clock. Spans are recorded from outside the program — around
//! the calls the harness makes into each layer and inside the
//! [`crate::traced`] target wrapper the real drivers call into — kept in
//! memory, and written out when the run ends. A layer's **self time** is
//! its span's duration minus the part its child spans cover.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Unique within a recorder, allocated in opening order from 1.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Layer-qualified name, e.g. `fuzzer.target.submit`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Exact work counters the target wrapper feeds alongside its spans.
#[derive(Debug, Default)]
pub struct Counters {
    /// Trace-prefix seeds replayed inside `boot` calls.
    pub boot_prefix_seeds: AtomicU64,
    /// Simulated cycles summed over every submission outcome.
    pub sim_cycles: AtomicU64,
    /// Lineage-path seeds the guided slots had to replay (or restore
    /// past) to reach their mutation base.
    pub path_seeds: AtomicU64,
}

/// Collects spans from the harness thread and from target wrappers on
/// executor worker threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// Innermost open harness-level span — the parent a span opened on
    /// another thread (a worker's target lifetime) attaches to.
    current: AtomicU64,
    closed: Mutex<Vec<Span>>,
    /// Work counters (exact, not timed).
    pub counters: Counters,
}

impl Recorder {
    /// A fresh recorder; its epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            closed: Mutex::new(Vec::new()),
            counters: Counters::default(),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocate a span id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The innermost open harness-level span (0 = none).
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Open a harness-level span on the driving thread; it closes when
    /// the guard drops. Guards must nest (drop in reverse opening
    /// order), which scoping gives for free.
    pub fn enter(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let id = self.alloc_id();
        let parent = self.current.swap(id, Ordering::Relaxed);
        SpanGuard {
            rec: Arc::clone(self),
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Hand over closed spans (a target wrapper flushes its buffer here
    /// once, when it drops).
    pub fn flush(&self, spans: &mut Vec<Span>) {
        self.closed
            .lock()
            .expect("span buffer lock: pushes cannot panic")
            .append(spans);
    }

    /// Take everything recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .closed
                .lock()
                .expect("span buffer lock: pushes cannot panic"),
        )
    }
}

/// Closes its harness-level span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Arc<Recorder>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

#[cfg(test)]
impl SpanGuard {
    /// The open span's id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        self.rec.current.store(self.parent, Ordering::Relaxed);
        self.rec.flush(&mut vec![Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        }]);
    }
}

/// Self time per span id: duration minus the summed durations of its
/// direct children (children of one parent do not overlap: each thread
/// nests its spans, and a parent's cross-thread children run one at a
/// time at `jobs = 1`). Clamped at 0.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(children))
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub n: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Every duration, for the median.
    pub durations: Vec<u64>,
}

impl NameStats {
    /// Median span duration in ns (0 when there are no spans).
    pub fn p50_ns(&self) -> f64 {
        let as_f64: Vec<f64> = self.durations.iter().map(|&d| d as f64).collect();
        crate::stats::median(&as_f64)
    }
}

/// Fold spans into per-name statistics, adding to `into`.
pub fn aggregate(spans: &[Span], into: &mut BTreeMap<&'static str, NameStats>) {
    let selfs = self_times(spans);
    for s in spans {
        let e = into.entry(s.name).or_default();
        e.n += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
        e.durations.push(s.duration_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, "driver", 0, 1000),
            span(2, 1, "chunk", 100, 600),
            span(3, 2, "boot", 100, 300),
            span(4, 2, "submit", 300, 350),
            span(5, 1, "chunk", 600, 900),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 1000 - 500 - 300); // grandchildren do not count twice
        assert_eq!(selfs[&2], 500 - 200 - 50);
        assert_eq!(selfs[&3], 200);
        assert_eq!(selfs[&5], 300);
    }

    #[test]
    fn self_time_clamps_when_children_overrun_the_parent() {
        // Clock granularity can make children sum past the parent.
        let spans = [span(1, 0, "p", 0, 10), span(2, 1, "c", 0, 12)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn aggregate_counts_totals_and_medians_per_name() {
        let spans = [
            span(1, 0, "driver", 0, 1000),
            span(2, 1, "submit", 0, 100),
            span(3, 1, "submit", 100, 400),
            span(4, 1, "submit", 400, 600),
        ];
        let mut stats = BTreeMap::new();
        aggregate(&spans, &mut stats);
        assert_eq!(stats["submit"].n, 3);
        assert_eq!(stats["submit"].total_ns, 600);
        assert_eq!(stats["submit"].p50_ns(), 200.0);
        assert_eq!(stats["driver"].self_ns, 400);
        // Aggregation accumulates across calls (one call per section).
        aggregate(&spans[1..2], &mut stats);
        assert_eq!(stats["submit"].n, 4);
    }

    #[test]
    fn guards_nest_and_restore_the_current_span() {
        let rec = Recorder::new();
        assert_eq!(rec.current(), 0);
        {
            let outer = rec.enter("outer");
            assert_eq!(rec.current(), outer.id());
            {
                let inner = rec.enter("inner");
                assert_eq!(rec.current(), inner.id());
            }
            assert_eq!(rec.current(), outer.id());
        }
        assert_eq!(rec.current(), 0);
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(rec.drain().is_empty());
    }
}
