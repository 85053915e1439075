//! The per-workload cost ledger: a section's time per exec written as
//! Σ (count × unit cost) over named layers, plus what is left over.
//!
//! A span row's count is exact and its unit cost is the **mean**
//! duration of that layer's spans, measured in place inside the real
//! driver — the mean, because the costs are bimodal (a submission that
//! crashes the hypervisor costs a hundred times the median one) and the
//! rows must add up; the median is printed next to it to show the skew.
//! A probe row is an exact count times a probe's median. What the rows
//! do not cover — glue between the calls, the executor and aggregator,
//! the kernel — is `unattributed`: the costs nobody has named yet.

use crate::span::NameStats;
use crate::traced::{BOOT, PIN_STATE, RESET_AFTER_CRASH, RESET_CLEAN, RESET_TO, SUBMIT};
use crate::workloads::{Kind, FLEET_JOBS, GUIDED_FOLD, RECORD, REPLAY_EXITS, REPLAY_PASS};
use std::collections::BTreeMap;

/// Span name of the harness's span around one whole section — the
/// ledger's 100 %.
pub const SECTION: &str = "harness.section";

/// Spans that are calls into one layer and contain no other span: each
/// is a ledger row wherever it occurs.
const CALL_SPANS: [&str; 9] = [
    RECORD,
    REPLAY_PASS,
    BOOT,
    SUBMIT,
    RESET_CLEAN,
    RESET_AFTER_CRASH,
    PIN_STATE,
    RESET_TO,
    GUIDED_FOLD,
];

/// One named part of a section's cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer-qualified name.
    pub layer: String,
    /// Occurrences per section (exact).
    pub count: f64,
    /// Mean cost of one occurrence, ns — the unit cost the row is
    /// charged at.
    pub unit_ns: f64,
    /// Median cost of one occurrence, ns.
    pub p50_ns: f64,
}

impl Row {
    /// `count × unit cost`, ns per section.
    pub fn total_ns(&self) -> f64 {
        self.count * self.unit_ns
    }
}

/// A workload's ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Named parts, in layer order.
    pub rows: Vec<Row>,
    /// Mean traced section duration, ns.
    pub section_ns: f64,
    /// Seeds submitted per section.
    pub execs: u64,
}

impl Ledger {
    /// Traced nanoseconds per exec — the figure the rows decompose.
    pub fn ns_per_exec(&self) -> f64 {
        self.section_ns / self.execs as f64
    }

    /// Share of the section the rows do not cover, in percent.
    /// Negative when probe estimates overshoot (rows are not clipped).
    pub fn unattributed_pct(&self) -> f64 {
        let named: f64 = self.rows.iter().map(Row::total_ns).sum();
        (self.section_ns - named) / self.section_ns * 100.0
    }

    /// The ledger as printed by a traced run.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "ledger {workload}: {:.0} ns/exec traced ({} execs/section)\n  {:<48} {:>10} {:>12} {:>12} {:>10} {:>7}\n",
            self.ns_per_exec(),
            self.execs,
            "layer",
            "count",
            "unit ns",
            "(median)",
            "ns/exec",
            "share"
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<48} {:>10.1} {:>12.0} {:>12.0} {:>10.1} {:>6.1}%\n",
                row.layer,
                row.count,
                row.unit_ns,
                row.p50_ns,
                row.total_ns() / self.execs as f64,
                row.total_ns() / self.section_ns * 100.0
            ));
        }
        let unattributed = self.unattributed_pct();
        out.push_str(&format!(
            "  {:<48} {:>10} {:>12} {:>12} {:>10.1} {:>6.1}%\n",
            "unattributed",
            "",
            "",
            "",
            unattributed / 100.0 * self.ns_per_exec(),
            unattributed
        ));
        out
    }
}

/// What the ledger needs beyond the span statistics.
#[derive(Debug, Clone, Copy)]
pub struct Inputs<'a> {
    /// Which workload ran.
    pub kind: Kind,
    /// Per-name span statistics summed over `sections` traced sections.
    pub stats: &'a BTreeMap<&'static str, NameStats>,
    /// Probe medians by per-layer metric name.
    pub probes: &'a BTreeMap<&'static str, f64>,
    /// Traced sections the statistics cover.
    pub sections: u64,
    /// Seeds submitted per section.
    pub execs: u64,
    /// Cells (test cases) of the workload's campaign plan, 0 otherwise.
    pub cells: u64,
    /// Chunks of the workload's campaign plan, 0 otherwise.
    pub chunks: u64,
    /// Harness-clock ns of the in-process run of one fleet job's spec
    /// (the fleet workload's reference), 0 otherwise.
    pub in_process_job_ns: f64,
}

/// Build a workload's ledger.
pub fn build(inp: Inputs<'_>) -> Ledger {
    let per_section = |n: u64| n as f64 / inp.sections as f64;
    let mut rows: Vec<Row> = CALL_SPANS
        .iter()
        .filter_map(|&name| {
            let s = inp.stats.get(name)?;
            Some(Row {
                layer: name.to_owned(),
                count: per_section(s.n),
                unit_ns: s.total_ns as f64 / s.n as f64,
                p50_ns: s.p50_ns(),
            })
        })
        .collect();
    // Parts no span isolates: an exact count times a probe's median.
    let mut probed: Vec<(&str, f64, &str)> = Vec::new();
    match inp.kind {
        Kind::RecordReplay => {
            // A pass span covers one trace's pass of untimed
            // submissions; show its cost per seed next to the per-seed
            // spans.
            let seeds = REPLAY_EXITS as f64;
            for row in rows.iter_mut().filter(|r| r.layer == REPLAY_PASS) {
                row.layer = format!("{REPLAY_PASS} (per seed)");
                row.count *= seeds;
                row.unit_ns /= seeds;
                row.p50_ns /= seeds;
            }
        }
        Kind::CampaignWide | Kind::CampaignChunked => {
            let mutants = inp.execs as f64;
            probed.push((
                "fuzzer.mutation.mutate",
                mutants,
                "fuzzer.mutation.mutate.ns",
            ));
            let cells = inp.cells as f64;
            probed.push((
                "fuzzer.campaign.assemble",
                cells,
                "fuzzer.campaign.assemble.ns",
            ));
        }
        Kind::GuidedFlat | Kind::GuidedForest => probed.push((
            "fuzzer.strategies.scheduled_mutant",
            inp.execs as f64,
            "fuzzer.strategies.scheduled_mutant.ns",
        )),
        Kind::FleetLoopback => {
            let jobs = FLEET_JOBS as f64;
            rows.push(Row {
                layer: "fuzzer.parallel.run_trace (same specs in-process)".to_owned(),
                count: jobs,
                unit_ns: inp.in_process_job_ns,
                p50_ns: inp.in_process_job_ns,
            });
            // Coordinator and worker each re-derive trace and plan.
            probed.push((
                "dist.job.record_trace",
                2.0 * jobs,
                "dist.job.record_trace.ns",
            ));
            probed.push(("dist.job.plan", 2.0 * jobs, "dist.job.plan.ns"));
            let frames = inp.chunks as f64 * jobs;
            probed.push((
                "dist.proto.write_frame (results)",
                frames,
                "dist.proto.write_frame.ns",
            ));
            probed.push((
                "dist.proto.read_frame (results)",
                frames,
                "dist.proto.read_frame.ns",
            ));
        }
    }
    rows.extend(probed.into_iter().map(|(layer, count, metric)| {
        let unit_ns = inp.probes.get(metric).copied().unwrap_or(0.0);
        Row {
            layer: layer.to_owned(),
            count,
            unit_ns,
            p50_ns: unit_ns,
        }
    }));
    let section_ns = inp
        .stats
        .get(SECTION)
        .map_or(0.0, |s| s.total_ns as f64 / inp.sections as f64);
    Ledger {
        rows,
        section_ns,
        execs: inp.execs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(entries: &[(&'static str, &[u64])]) -> BTreeMap<&'static str, NameStats> {
        entries
            .iter()
            .map(|&(name, durations)| {
                (
                    name,
                    NameStats {
                        n: durations.len() as u64,
                        total_ns: durations.iter().sum(),
                        self_ns: 0,
                        durations: durations.to_vec(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn ledger_sums_count_times_unit_cost_and_reports_the_rest() {
        // Two traced sections of 1000 ns each, 10 execs per section.
        let stats = stats_of(&[
            (SECTION, &[1000, 1000]),
            (SUBMIT, &[30; 40]), // 20 per section × 30 ns = 600
            (BOOT, &[100, 100]), // 1 per section × 100 ns = 100
            (RESET_AFTER_CRASH, &[10, 10, 10, 90]), // 2 per section × mean 30 = 60
        ]);
        let probes: BTreeMap<&'static str, f64> = [
            ("fuzzer.mutation.mutate.ns", 5.0),
            ("fuzzer.campaign.assemble.ns", 15.0),
        ]
        .into_iter()
        .collect();
        let ledger = build(Inputs {
            kind: Kind::CampaignWide,
            stats: &stats,
            probes: &probes,
            sections: 2,
            execs: 10,
            cells: 2,
            chunks: 2,
            in_process_job_ns: 0.0,
        });
        assert_eq!(ledger.ns_per_exec(), 100.0);
        let total = |layer: &str| {
            ledger
                .rows
                .iter()
                .find(|r| r.layer == layer)
                .map(Row::total_ns)
                .unwrap()
        };
        assert_eq!(total(SUBMIT), 600.0);
        assert_eq!(total(BOOT), 100.0);
        assert_eq!(total(RESET_AFTER_CRASH), 60.0);
        let reset = ledger
            .rows
            .iter()
            .find(|r| r.layer == RESET_AFTER_CRASH)
            .unwrap();
        assert_eq!((reset.unit_ns, reset.p50_ns), (30.0, 10.0));
        assert_eq!(total("fuzzer.mutation.mutate"), 50.0);
        assert_eq!(total("fuzzer.campaign.assemble"), 30.0);
        // 1000 − (600 + 100 + 60 + 50 + 30) = 160 → 16 %.
        assert!((ledger.unattributed_pct() - 16.0).abs() < 1e-9);
        let text = ledger.render("campaign_wide");
        assert!(text.contains("unattributed"));
        assert!(text.contains("fuzzer.target.submit"));
    }
}
