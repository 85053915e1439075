//! Table I assembly: *"New code coverage discovered across test cases by
//! using IRIS-based fuzzer prototype"* — rows are exit reasons, columns
//! are (workload × mutated area), cells are the percentage increase of
//! coverage discovered by the fuzzing sequence over the single
//! `VM_seed_R` baseline.

use crate::campaign::TestCaseResult;
use crate::mutation::SeedArea;
use crate::parallel::{CampaignReport, ParallelCampaign};
use crate::target::TargetFactory;
use crate::testcase::TestCase;
use iris_core::trace::RecordedTrace;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The exit reasons Table I uses as rows, in the paper's order.
pub const TABLE1_ROWS: &[ExitReason] = &[
    ExitReason::ExternalInterrupt,
    ExitReason::InterruptWindow,
    ExitReason::Cpuid,
    ExitReason::Hlt,
    ExitReason::Rdtsc,
    ExitReason::Vmcall,
    ExitReason::CrAccess,
    ExitReason::IoInstruction,
    ExitReason::EptViolation,
];

/// The workloads Table I uses as column groups.
pub const TABLE1_WORKLOADS: &[Workload] = &[Workload::OsBoot, Workload::CpuBound, Workload::Idle];

/// One assembled table.
///
/// Serializes as a list of `{reason, workload, area, cell}` records so
/// JSON can carry it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table1 {
    /// `(reason label, workload label, area label)` → result.
    pub cells: BTreeMap<(String, String, String), TestCaseCell>,
}

/// Flat record used for (de)serialization of [`Table1`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Exit-reason label.
    pub reason: String,
    /// Workload label.
    pub workload: String,
    /// Mutated-area label.
    pub area: String,
    /// The cell's numbers.
    pub cell: TestCaseCell,
}

impl Serialize for Table1 {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(
            self.cells
                .iter()
                .map(|((r, w, a), c)| {
                    Table1Row {
                        reason: r.clone(),
                        workload: w.clone(),
                        area: a.clone(),
                        cell: c.clone(),
                    }
                    .to_value()
                })
                .collect(),
        )
    }
}

impl Deserialize for Table1 {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let rows = Vec::<Table1Row>::from_value(v)?;
        let mut t = Table1::default();
        for r in rows {
            t.cells.insert((r.reason, r.workload, r.area), r.cell);
        }
        Ok(t)
    }
}

/// One cell's published numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestCaseCell {
    /// Coverage increase percentage (the table's `+N%`).
    pub coverage_increase_percent: f64,
    /// VM-crash rate over the sequence.
    pub vm_crash_percent: f64,
    /// Hypervisor-crash rate over the sequence.
    pub hv_crash_percent: f64,
}

impl Table1 {
    /// The full-table plan: one test case with `mutants` mutants per
    /// (workload trace, reason row, area column) where the trace
    /// contains a seed with that reason, in deterministic order. (The
    /// paper's dashes are reasons absent from a workload — e.g. HLT
    /// never appears in OS BOOT's 5000-exit slice.)
    #[must_use]
    pub fn plan(
        traces: &BTreeMap<Workload, RecordedTrace>,
        mutants: usize,
        rng_seed: u64,
    ) -> Vec<TestCase> {
        let rows = |(&workload, trace)| Self::plan_trace(workload, trace, mutants, rng_seed);
        traces.iter().flat_map(rows).collect()
    }

    /// One workload's rows of [`Table1::plan`], from a borrowed trace —
    /// the whole plan of a single-trace job.
    #[must_use]
    pub fn plan_trace(
        workload: Workload,
        trace: &RecordedTrace,
        mutants: usize,
        rng_seed: u64,
    ) -> Vec<TestCase> {
        let mut plan = Vec::new();
        for &reason in TABLE1_ROWS {
            let Some(seed_index) = trace.seeds.iter().position(|s| s.reason == reason) else {
                continue; // the paper's "-" cells
            };
            for area in SeedArea::ALL {
                plan.push(TestCase {
                    mutants,
                    ..TestCase::new(workload, seed_index, reason, area, rng_seed)
                });
            }
        }
        plan
    }

    /// Run the full table on a sharded executor, against whatever
    /// backend its factory builds. Deterministic: the plan and
    /// per-test-case results are independent of both the worker count
    /// and the executor's work-stealing chunk size (the per-range RNG
    /// law makes every cell's mutant stream partition-invariant), so
    /// the assembled table is the same for any `(jobs, chunk)` —
    /// `jobs = 1` is the paper's sequential sweep — and a single
    /// huge-`M` cell (the paper's 10 000-mutant columns) spreads across
    /// the whole pool instead of serializing the sweep. Also returns
    /// the aggregated report (merged coverage, folded stats,
    /// deduplicated corpus).
    #[must_use]
    pub fn run_parallel<F: TargetFactory>(
        executor: &ParallelCampaign<F>,
        traces: &BTreeMap<Workload, RecordedTrace>,
        mutants: usize,
        rng_seed: u64,
    ) -> (Table1, CampaignReport) {
        let plan = Self::plan(traces, mutants, rng_seed);
        let report = executor.run(traces, &plan);
        let mut table = Table1::default();
        for r in &report.results {
            table.insert(r);
        }
        (table, report)
    }

    fn insert(&mut self, r: &TestCaseResult) {
        self.cells.insert(
            (
                r.testcase.reason.figure_label().to_owned(),
                r.testcase.workload.label().to_owned(),
                r.testcase.area.label().to_owned(),
            ),
            TestCaseCell {
                coverage_increase_percent: r.coverage_increase_percent,
                vm_crash_percent: r.failures.vm_crash_percent(),
                hv_crash_percent: r.failures.hv_crash_percent(),
            },
        );
    }

    /// Fetch one cell.
    #[must_use]
    pub fn cell(
        &self,
        reason: ExitReason,
        workload: Workload,
        area: SeedArea,
    ) -> Option<&TestCaseCell> {
        self.cells.get(&(
            reason.figure_label().to_owned(),
            workload.label().to_owned(),
            area.label().to_owned(),
        ))
    }

    /// Render the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12}", "Exit Reason"));
        for w in TABLE1_WORKLOADS {
            out.push_str(&format!("{:>12}{:>12}", format!("{}", w.label()), ""));
        }
        out.push('\n');
        out.push_str(&format!("{:<12}", ""));
        for _ in TABLE1_WORKLOADS {
            out.push_str(&format!("{:>12}{:>12}", "VMCS", "GPR"));
        }
        out.push('\n');
        for &reason in TABLE1_ROWS {
            out.push_str(&format!("{:<12}", reason.figure_label()));
            for &w in TABLE1_WORKLOADS {
                for area in SeedArea::ALL {
                    match self.cell(reason, w, area) {
                        Some(c) => out.push_str(&format!(
                            "{:>12}",
                            format!("+{:.0}%", c.coverage_increase_percent)
                        )),
                        None => out.push_str(&format!("{:>12}", "-")),
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::record_trace;

    #[test]
    fn small_table_assembles_with_dashes() {
        let mut traces = BTreeMap::new();
        traces.insert(Workload::OsBoot, record_trace(Workload::OsBoot, 150, 42));

        let (table, _) = Table1::run_parallel(&ParallelCampaign::new(1), &traces, 20, 1);
        // CR ACCESS must be present for OS BOOT; both areas filled.
        assert!(table
            .cell(ExitReason::CrAccess, Workload::OsBoot, SeedArea::Vmcs)
            .is_some());
        assert!(table
            .cell(ExitReason::CrAccess, Workload::OsBoot, SeedArea::Gpr)
            .is_some());
        // HLT rarely appears in a 150-exit boot slice → dash.
        let rendered = table.render();
        assert!(rendered.contains("CR ACCESS"));
        assert!(rendered.contains('-'));
    }

    #[test]
    fn parallel_table_matches_sequential() {
        let mut traces = BTreeMap::new();
        traces.insert(Workload::OsBoot, record_trace(Workload::OsBoot, 120, 42));

        let plan = Table1::plan(&traces, 15, 1);
        let reference = ParallelCampaign::run_sequential_with(
            &crate::target::IrisHvTarget::default(),
            &traces,
            &plan,
        );
        let (sequential, _) = Table1::run_parallel(&ParallelCampaign::new(1), &traces, 15, 1);
        let (parallel, report) = Table1::run_parallel(&ParallelCampaign::new(4), &traces, 15, 1);
        assert_eq!(sequential, parallel);
        assert_eq!(report, reference);
    }
}
