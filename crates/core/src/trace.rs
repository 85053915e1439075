//! Recorded traces: seeds plus per-seed metrics.

use crate::seed::VmSeed;
use iris_hv::coverage::CoverageMap;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use serde::{Deserialize, Serialize};

/// Metrics IRIS records per VM exit (§IV-A): hypervisor code coverage,
/// the `{field, value}` pairs written via VMWRITE, and the handling time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedMetrics {
    /// Exit reason.
    pub reason: ExitReason,
    /// Basic-block coverage this exit's handling touched (framework hits
    /// already removed).
    pub coverage: CoverageMap,
    /// VMWRITE `{field, value}` pairs, in write order.
    pub vmwrites: Vec<(VmcsField, u64)>,
    /// Cycles the exit→entry trip took.
    pub handling_cycles: u64,
    /// TSC value when the exit began (for the Fig. 9 time axes).
    pub start_tsc: u64,
    /// Whether this exit crashed something.
    pub crashed: bool,
}

/// A recorded VM behavior: §IV's *"sequence VM_exit_trace = {VM_exit_1,
/// ..., VM_exit_N}"* with the captured seed and metrics for each.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecordedTrace {
    /// Human label (the workload name).
    pub label: String,
    /// One seed per exit.
    pub seeds: Vec<VmSeed>,
    /// One metrics record per exit (none for bare binary seeds).
    pub metrics: Vec<SeedMetrics>,
    /// §IX extension: per exit, the `(gpa, bytes)` images of the guest
    /// frames that exit dirtied — page-granular, what an EPT dirty log
    /// records — applied verbatim before the seed on replay. Empty
    /// unless `Recorder::record_memory` was set. Replay applies
    /// entries as plain writes, so a trace carrying raw written ranges
    /// (the older format) loads and replays too.
    #[serde(default)]
    pub memory: Vec<Vec<(u64, Vec<u8>)>>,
}

impl RecordedTrace {
    /// Empty trace with a label.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            ..Self::default()
        }
    }

    /// Number of recorded exits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len().max(self.metrics.len())
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty() && self.metrics.is_empty()
    }

    /// Cumulative unique coverage after each exit — the y-axis of the
    /// paper's Fig. 6 curves.
    #[must_use]
    pub fn cumulative_coverage(&self) -> Vec<u64> {
        let mut acc = CoverageMap::new();
        self.metrics
            .iter()
            .map(|m| {
                acc.merge(&m.coverage);
                acc.lines()
            })
            .collect()
    }

    /// Total unique coverage of the whole trace.
    #[must_use]
    pub fn total_coverage(&self) -> CoverageMap {
        let mut acc = CoverageMap::new();
        for m in &self.metrics {
            acc.merge(&m.coverage);
        }
        acc
    }

    /// Wall-clock duration from first exit start to last exit end, in ms
    /// (includes guest-local time between exits — the *Real VM* series).
    #[must_use]
    pub fn wall_time_ms(&self) -> f64 {
        match (self.metrics.first(), self.metrics.last()) {
            (Some(first), Some(last)) => {
                let end = last.start_tsc + last.handling_cycles;
                (end - first.start_tsc) as f64 / 3.6e6
            }
            _ => 0.0,
        }
    }

    /// Histogram of exit reasons (Fig. 5).
    #[must_use]
    pub fn reason_histogram(&self) -> std::collections::BTreeMap<ExitReason, usize> {
        let mut h = std::collections::BTreeMap::new();
        for s in &self.seeds {
            *h.entry(s.reason).or_insert(0) += 1;
        }
        if h.is_empty() {
            for m in &self.metrics {
                *h.entry(m.reason).or_insert(0) += 1;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_hv::coverage::{Block, Component};

    /// Metrics covering the given `vmx.c` blocks (block 1 weighs 2
    /// lines, block 2 weighs 5).
    fn metrics_with(blocks: &[u16], cycles: u64, start: u64) -> SeedMetrics {
        let mut cov = CoverageMap::new();
        for &id in blocks {
            cov.hit(Block::new(Component::Vmx, id));
        }
        SeedMetrics {
            reason: ExitReason::Rdtsc,
            coverage: cov,
            vmwrites: vec![],
            handling_cycles: cycles,
            start_tsc: start,
            crashed: false,
        }
    }

    /// A recording keeps one of these per VM exit, so its size is the
    /// trace's memory: a 2 000-exit trace holds under 1.2 MB of metrics
    /// (it held 7 MB while every map carried a private weight table).
    #[test]
    fn seed_metrics_are_half_a_kilobyte_per_exit() {
        let per_exit = std::mem::size_of::<SeedMetrics>();
        assert_eq!(per_exit, 496);
        assert!(2_000 * per_exit <= 1_200_000);
    }

    #[test]
    fn cumulative_coverage_is_monotone_and_unique() {
        let mut t = RecordedTrace::new("t");
        t.metrics.push(metrics_with(&[1], 10, 0));
        t.metrics.push(metrics_with(&[1, 2], 10, 100));
        t.metrics.push(metrics_with(&[2], 10, 200));
        assert_eq!(t.cumulative_coverage(), vec![2, 7, 7]);
        assert_eq!(t.total_coverage().lines(), 7);
    }

    #[test]
    fn wall_time_includes_gaps() {
        let mut t = RecordedTrace::new("t");
        t.metrics.push(metrics_with(&[], 3_600_000, 0)); // 1ms handling
        t.metrics.push(metrics_with(&[], 3_600_000, 36_000_000)); // starts at 10ms
        assert!((t.wall_time_ms() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = RecordedTrace::new("x");
        t.metrics.push(metrics_with(&[2], 5, 0));
        let json = serde_json::to_string(&t).unwrap();
        let back: RecordedTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
