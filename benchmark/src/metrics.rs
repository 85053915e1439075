//! The benchmark's metric tables — the single source `BENCHMARK.json`,
//! `run`, `compare` and the README's tables are written from.

use crate::stats::Better;
use serde::Serialize;

/// An end-to-end metric: what a user of the system sees, with the bound
/// by which it may worsen before a change counts as a regression.
/// Serializes as its `BENCHMARK.json` entry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Seeds submitted as useful work per process CPU-second of an
/// undisturbed section — the headline every later performance claim is
/// made on.
pub const EXECS_PER_CPU_S: &str = "execs_per_cpu_s";
/// Seconds one undisturbed set-up takes (trace recording, plans, fleet
/// bring-up to its first answered job).
pub const SETUP_S: &str = "setup_s";
/// Peak resident set of one timed section, median over the sections.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every end-to-end metric; each is reported for each workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: EXECS_PER_CPU_S,
        unit: "execs/cpu-s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric from the traced pass. No bound: these
/// explain a move of an end-to-end metric, they do not gate.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer (module) name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
    }
}

const fn other(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, grouped by layer. `*.ns` is the median span
/// (or probe) duration, `*.n` the span count per section; a metric that
/// does not occur on a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 63] = [
    // hv
    ns("hv.vm_exit.ns"),
    ns("hv.new_domain.ns"),
    other("hv.sim_cycles_per_exec", "cycles", Better::Lower),
    // guest
    ns("guest.fast_forward_boot.ns"),
    // core::record, core::replay
    ns("core.record.ns_per_exit"),
    ns("core.replay.submit.ns"),
    other("core.replay.fit_pct", "%", Better::Higher),
    // core::snapshot, core::forest, core::seed
    ns("core.snapshot.take.ns"),
    ns("core.snapshot.restore_clean.ns"),
    ns("core.snapshot.restore_dirty.ns"),
    ns("core.forest.take_delta.ns"),
    ns("core.forest.restore_to.ns"),
    ns("core.seed.encode.ns"),
    ns("core.seed.decode.ns"),
    // fuzzer::target, from TracedTarget inside the real drivers
    ns("fuzzer.target.boot.ns"),
    count("fuzzer.target.boot.n"),
    count("fuzzer.target.boot.prefix_seeds"),
    ns("fuzzer.target.submit.ns"),
    count("fuzzer.target.submit.n"),
    ns("fuzzer.target.reset_clean.ns"),
    count("fuzzer.target.reset_clean.n"),
    ns("fuzzer.target.reset_after_crash.ns"),
    count("fuzzer.target.reset_after_crash.n"),
    ns("fuzzer.target.pin_state.ns"),
    count("fuzzer.target.pin_state.n"),
    ns("fuzzer.target.reset_to.ns"),
    count("fuzzer.target.reset_to.n"),
    // fuzzer::mutation, fuzzer::strategies
    ns("fuzzer.mutation.mutate.ns"),
    ns("fuzzer.strategies.scheduled_mutant.ns"),
    // fuzzer::campaign
    ns("fuzzer.campaign.chunk.ns"),
    count("fuzzer.campaign.chunk.n"),
    ns("fuzzer.campaign.assemble.ns"),
    other("fuzzer.campaign.crash_share", "ratio", Better::Lower),
    // fuzzer::guided
    ns("fuzzer.guided.baseline.ns"),
    ns("fuzzer.guided.context_new.ns"),
    count("fuzzer.guided.context_new.n"),
    ns("fuzzer.guided.slot.ns"),
    count("fuzzer.guided.slot.n"),
    ns("fuzzer.guided.fold.ns"),
    count("fuzzer.guided.fold.n"),
    other("fuzzer.guided.path_len_mean", "seeds", Better::Lower),
    // fuzzer::parallel + executor
    ns("fuzzer.driver.self_ns_per_exec"),
    // dist
    ns("dist.proto.write_frame.ns"),
    ns("dist.proto.read_frame.ns"),
    other("dist.proto.result_frame_bytes", "bytes", Better::Lower),
    ns("dist.job.record_trace.ns"),
    ns("dist.job.plan.ns"),
    ns("dist.verify.execute_range.ns"),
    ns("dist.client.submit.ns"),
    ns("dist.fleet.overhead_cpu_ns_per_exec"),
    // cli
    ns("cli.campaign.overhead_ns"),
    // harness
    other("harness.wall_execs_per_s", "execs/s", Better::Higher),
    other("harness.cpu_share", "ratio", Better::Higher),
    other("harness.sys_share", "ratio", Better::Lower),
    other("harness.trace_overhead_pct", "%", Better::Lower),
    other("harness.sections", "count", Better::Higher),
    ns("ledger.traced_ns_per_exec"),
    other("ledger.unattributed_pct", "%", Better::Lower),
    // outputs — exact for a seed; a speed-up must not move them
    other("out.coverage_lines", "lines", Better::Higher),
    other("out.unique_crashes", "count", Better::Higher),
    other("out.crashes", "count", Better::Higher),
    other("out.execs_per_section", "count", Better::Higher),
    other("out.failed_share", "ratio", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in crate::workloads::Kind::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "{} is used twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up gets the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
