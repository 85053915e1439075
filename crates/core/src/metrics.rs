//! Accuracy and efficiency metrics (§IV, §VI-B, §VI-C).
//!
//! *Accuracy* compares a recorded trace with its replay: code-coverage
//! fitting (Fig. 6), per-reason coverage differences (Fig. 7), and
//! VMWRITE fitting on the guest-state area (Fig. 8). *Efficiency*
//! compares submission times (Fig. 9) and throughputs against the ideal
//! preemption-timer-only ceiling.

use crate::trace::RecordedTrace;
use iris_hv::coverage::Component;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::{FieldArea, VmcsField};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Coverage-fitting result between a recording and its replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageFitting {
    /// Final unique lines covered by the recording.
    pub recorded_lines: u64,
    /// Final unique lines covered by the replay.
    pub replayed_lines: u64,
    /// Lines covered by both.
    pub common_lines: u64,
    /// The paper's fitting percentage: replayed ∩ recorded / recorded.
    pub fitting_percent: f64,
}

/// Compute Fig. 6's end-of-trace coverage fitting.
#[must_use]
pub fn coverage_fitting(recorded: &RecordedTrace, replayed: &RecordedTrace) -> CoverageFitting {
    let rec = recorded.total_coverage();
    let rep = replayed.total_coverage();
    let recorded_lines = rec.lines();
    let replayed_lines = rep.lines();
    let missing = rec.diff_lines_by_component(&rep).values().sum::<u64>();
    let common = recorded_lines - missing;
    CoverageFitting {
        recorded_lines,
        replayed_lines,
        common_lines: common,
        fitting_percent: if recorded_lines == 0 {
            100.0
        } else {
            common as f64 / recorded_lines as f64 * 100.0
        },
    }
}

/// One seed's coverage difference, clustered for Fig. 7.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedDiff {
    /// Index within the trace.
    pub index: usize,
    /// Exit reason.
    pub reason: ExitReason,
    /// Symmetric coverage difference in lines.
    pub diff_lines: u64,
    /// Components contributing to the difference.
    pub components: Vec<Component>,
}

/// Per-seed symmetric coverage differences between record and replay,
/// skipping identical seeds — the data behind Fig. 7.
#[must_use]
pub fn coverage_diffs(recorded: &RecordedTrace, replayed: &RecordedTrace) -> Vec<SeedDiff> {
    recorded
        .metrics
        .iter()
        .zip(&replayed.metrics)
        .enumerate()
        .filter_map(|(index, (r, p))| {
            let diff = r.coverage.symmetric_diff_lines(&p.coverage);
            if diff == 0 {
                return None;
            }
            let mut components: Vec<Component> = r
                .coverage
                .diff_lines_by_component(&p.coverage)
                .into_keys()
                .chain(p.coverage.diff_lines_by_component(&r.coverage).into_keys())
                .collect();
            components.sort();
            components.dedup();
            Some(SeedDiff {
                index,
                reason: r.reason,
                diff_lines: diff,
                components,
            })
        })
        .collect()
}

/// Fig. 7 summary: per exit reason, the min/max coverage difference, plus
/// the frequency of >30-LOC divergences among unique seeds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiffByReason {
    /// (min, max) difference per reason.
    pub range_by_reason: BTreeMap<String, (u64, u64)>,
    /// Fraction (%) of compared seeds whose diff exceeds 30 LOC —
    /// the paper reports 0.36% / 0.18% / 1.16%.
    pub large_diff_percent: f64,
    /// Total compared seeds.
    pub compared: usize,
}

/// Aggregate [`coverage_diffs`] the way Fig. 7's caption does.
#[must_use]
pub fn diff_by_reason(recorded: &RecordedTrace, replayed: &RecordedTrace) -> DiffByReason {
    let diffs = coverage_diffs(recorded, replayed);
    let compared = recorded.metrics.len().min(replayed.metrics.len());
    let mut out = DiffByReason {
        compared,
        ..DiffByReason::default()
    };
    let mut large = 0usize;
    for d in &diffs {
        let e = out
            .range_by_reason
            .entry(d.reason.figure_label().to_owned())
            .or_insert((u64::MAX, 0));
        e.0 = e.0.min(d.diff_lines);
        e.1 = e.1.max(d.diff_lines);
        if d.diff_lines > 30 {
            large += 1;
        }
    }
    out.large_diff_percent = if compared == 0 {
        0.0
    } else {
        large as f64 / compared as f64 * 100.0
    };
    out
}

/// VMWRITE fitting on the guest-state area (the Fig. 8 validation):
/// the fraction of recorded guest-state VMWRITEs reproduced identically
/// (same field, same value, same per-seed position) by the replay.
#[must_use]
pub fn vmwrite_fitting(recorded: &RecordedTrace, replayed: &RecordedTrace) -> f64 {
    let mut total = 0usize;
    let mut matched = 0usize;
    for (r, p) in recorded.metrics.iter().zip(&replayed.metrics) {
        let rec_writes: Vec<_> = guest_state_writes(r);
        let rep_writes: Vec<_> = guest_state_writes(p);
        total += rec_writes.len();
        matched += rec_writes.iter().filter(|w| rep_writes.contains(w)).count();
    }
    if total == 0 {
        100.0
    } else {
        matched as f64 / total as f64 * 100.0
    }
}

fn guest_state_writes(m: &crate::trace::SeedMetrics) -> Vec<(VmcsField, u64)> {
    m.vmwrites
        .iter()
        .filter(|(f, _)| f.area() == FieldArea::GuestState)
        .copied()
        .collect()
}

/// The CR0 operating-mode ladder over a trace (Fig. 8): one mode sample
/// per exit, derived from the latest `CR0_READ_SHADOW` VMWRITE (the
/// guest's view of CR0).
#[must_use]
pub fn mode_ladder(trace: &RecordedTrace) -> Vec<iris_vtx::cr::OperatingMode> {
    let mut current = iris_vtx::cr::OperatingMode::Mode1;
    trace
        .metrics
        .iter()
        .map(|m| {
            for (f, v) in &m.vmwrites {
                if *f == VmcsField::Cr0ReadShadow {
                    current = iris_vtx::cr::Cr0(*v).operating_mode();
                }
            }
            current
        })
        .collect()
}

/// Efficiency comparison for Fig. 9 / §VI-C.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Efficiency {
    /// Real-guest wall time for the trace, ms.
    pub real_ms: f64,
    /// Replay wall time, ms.
    pub replay_ms: f64,
    /// Percentage decrease (the paper's 42.5% / 85.4% / 99.6%).
    pub decrease_percent: f64,
    /// Speedup factor (the paper's 6.8× / 294×).
    pub speedup: f64,
    /// Replay throughput, exits/s.
    pub replay_exits_per_sec: f64,
}

/// Compute the Fig. 9 efficiency summary.
#[must_use]
pub fn efficiency(recorded: &RecordedTrace, replay_wall_ms: f64) -> Efficiency {
    let real_ms = recorded.wall_time_ms();
    let n = recorded.metrics.len() as f64;
    Efficiency {
        real_ms,
        replay_ms: replay_wall_ms,
        decrease_percent: if real_ms > 0.0 {
            (1.0 - replay_wall_ms / real_ms) * 100.0
        } else {
            0.0
        },
        speedup: if replay_wall_ms > 0.0 {
            real_ms / replay_wall_ms
        } else {
            f64::INFINITY
        },
        replay_exits_per_sec: if replay_wall_ms > 0.0 {
            n / (replay_wall_ms / 1000.0)
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SeedMetrics;
    use iris_hv::coverage::{Block, CoverageMap};

    fn m(reason: ExitReason, blocks: &[(Component, u16)]) -> SeedMetrics {
        let mut cov = CoverageMap::new();
        for &(c, id) in blocks {
            cov.hit(Block::new(c, id));
        }
        SeedMetrics {
            reason,
            coverage: cov,
            vmwrites: vec![],
            handling_cycles: 1000,
            start_tsc: 0,
            crashed: false,
        }
    }

    #[test]
    fn fitting_counts_common_lines() {
        let mut rec = RecordedTrace::new("r");
        rec.metrics.push(m(
            ExitReason::Rdtsc,
            &[(Component::Vmx, 1), (Component::Emulate, 2)], // 2 + 7 lines
        ));
        let mut rep = RecordedTrace::new("p");
        rep.metrics
            .push(m(ExitReason::Rdtsc, &[(Component::Vmx, 1)]));
        let f = coverage_fitting(&rec, &rep);
        assert_eq!(f.recorded_lines, 9);
        assert_eq!(f.common_lines, 2);
        assert!((f.fitting_percent - 200.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn diffs_cluster_by_reason_and_flag_large_ones() {
        let mut rec = RecordedTrace::new("r");
        let mut rep = RecordedTrace::new("p");
        // Seed 0: identical (skipped). Seed 1: small vlapic noise.
        // Seed 2: big emulate divergence.
        rec.metrics
            .push(m(ExitReason::Rdtsc, &[(Component::Vmx, 1)]));
        rep.metrics
            .push(m(ExitReason::Rdtsc, &[(Component::Vmx, 1)]));
        rec.metrics
            .push(m(ExitReason::ExternalInterrupt, &[(Component::Vlapic, 0)]));
        rep.metrics.push(m(ExitReason::ExternalInterrupt, &[]));
        // Emulate blocks 0..=8 weigh 43 lines, block 10 weighs 4.
        let emulate: Vec<_> = (0..=8).map(|id| (Component::Emulate, id)).collect();
        rec.metrics.push(m(ExitReason::EptViolation, &emulate));
        rep.metrics
            .push(m(ExitReason::EptViolation, &[(Component::Emulate, 10)]));
        let diffs = coverage_diffs(&rec, &rep);
        assert_eq!(diffs.len(), 2);
        let agg = diff_by_reason(&rec, &rep);
        assert_eq!(agg.range_by_reason["EXT. INT."], (4, 4));
        assert_eq!(agg.range_by_reason["EPT VIOL."], (47, 47));
        assert!((agg.large_diff_percent - 33.333).abs() < 0.01);
    }

    #[test]
    fn vmwrite_fitting_is_100_for_identical_writes() {
        let mut rec = RecordedTrace::new("r");
        let mut rep = RecordedTrace::new("p");
        let mut a = m(ExitReason::CrAccess, &[]);
        a.vmwrites = vec![
            (VmcsField::Cr0ReadShadow, 0x11),
            (VmcsField::GuestCr0, 0x8001_0031),
            (VmcsField::VmEntryIntrInfoField, 0x8000_0030), // control: ignored
        ];
        rec.metrics.push(a.clone());
        rep.metrics.push(a);
        assert!((vmwrite_fitting(&rec, &rep) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mode_ladder_follows_shadow_writes() {
        use iris_vtx::cr::{cr0, OperatingMode};
        let mut t = RecordedTrace::new("t");
        let mut a = m(ExitReason::CrAccess, &[]);
        a.vmwrites = vec![(VmcsField::Cr0ReadShadow, cr0::PE | cr0::ET)];
        t.metrics.push(m(ExitReason::Rdtsc, &[]));
        t.metrics.push(a);
        let mut b = m(ExitReason::CrAccess, &[]);
        b.vmwrites = vec![(
            VmcsField::Cr0ReadShadow,
            cr0::PE | cr0::PG | cr0::AM | cr0::ET,
        )];
        t.metrics.push(b);
        assert_eq!(
            mode_ladder(&t),
            vec![
                OperatingMode::Mode1,
                OperatingMode::Mode2,
                OperatingMode::Mode6
            ]
        );
    }

    #[test]
    fn efficiency_percentages() {
        let mut rec = RecordedTrace::new("r");
        for i in 0..10u64 {
            let mut x = m(ExitReason::Rdtsc, &[]);
            x.start_tsc = i * 36_000_000; // 10ms apart
            x.handling_cycles = 360_000; // 0.1ms
            rec.metrics.push(x);
        }
        let e = efficiency(&rec, 9.0);
        assert!(e.real_ms > 80.0);
        assert!(e.decrease_percent > 85.0);
        assert!(e.speedup > 8.0);
        assert!(e.replay_exits_per_sec > 1000.0);
    }
}
