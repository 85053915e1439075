//! One measured run of one workload in this process — what the
//! acceptance driver invokes as
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! A run: set the workload up (repeatedly — see [`set_up`]), compute
//! the reference result by the workload's independent route (untimed;
//! also the warm-up), then repeat the workload's fixed-size *section*
//! until `--seconds` of wall-clock have passed, charging each section the process CPU time it used and the
//! peak memory it reached. Every section's result digest must equal the
//! reference's.

use crate::cpu::{self, ProcessCpu};
use crate::ledger::{self, Ledger, SECTION};
use crate::metrics::{END_TO_END, EXECS_PER_CPU_S, PEAK_RSS_MB, PER_LAYER, SETUP_S};
use crate::probes;
use crate::span::{aggregate, NameStats, Recorder, Span};
use crate::stats::{median, quartiles};
use crate::traced::{BOOT, CHUNK, PIN_STATE, RESET_AFTER_CRASH, RESET_CLEAN, RESET_TO, SUBMIT};
use crate::workloads::{
    prepare, Kind, Outcome, Workload, CLIENT_SUBMIT, GUIDED_BASELINE, GUIDED_CONTEXT, GUIDED_FOLD,
    GUIDED_SLOT,
};
use iris_dist::verify::fnv1a_64;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Set-ups before the first section (the first one meets cold caches
/// and first-touch page faults); every later section gets one more.
const INITIAL_SETUPS: usize = 3;

/// The replay-accuracy floor `tests/paper_claims.rs` asserts for OS
/// BOOT (Fig. 6): a run whose coverage fitting falls below it failed.
const FIT_FLOOR_PCT: f64 = 90.0;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub kind: Kind,
    /// Seed every input derives from.
    pub seed: u64,
    /// Wall-clock seconds to keep repeating sections for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// A metric value with its unit, as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Reading {
    /// The measured value, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line: exactly the keys the driver reads.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Section runs and output checks attempted.
    pub attempted: u64,
    /// Of those, the ones that errored or whose result differed.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics
    /// (`--trace 1`), by name.
    pub metrics: BTreeMap<&'static str, Reading>,
}

/// Output checks attempted and failed so far.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {}", what());
        }
    }
}

/// CPU time, wall time and peak memory of one section.
#[derive(Debug, Clone, Copy)]
struct SectionCost {
    cpu: ProcessCpu,
    wall_s: f64,
    peak_rss_mb: f64,
}

fn digest(outcome: &Outcome) -> u64 {
    fnv1a_64(outcome.json().as_bytes())
}

/// Run `section` once under the CPU and wall clocks and the memory
/// watermark.
fn timed_section(run: impl FnOnce() -> Outcome) -> (Outcome, SectionCost) {
    cpu::reset_peak_rss();
    let cpu0 = cpu::process_cpu();
    let t0 = Instant::now();
    let outcome = run();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu::process_cpu().since(cpu0);
    let peak_rss_mb = cpu::peak_rss_mb();
    eprintln!(
        "section: cpu {:.2} s (sys {:.2} s), wall {wall_s:.2} s, peak rss {peak_rss_mb:.1} MiB",
        cpu.total_s(),
        cpu.sys_s
    );
    let cost = SectionCost {
        cpu,
        wall_s,
        peak_rss_mb,
    };
    (outcome, cost)
}

/// What an undisturbed repetition costs: the first quartile of the
/// repetitions' costs. Repetitions do identical work, and interference
/// from the host's other tenants (shared caches, SMT siblings, memory
/// bandwidth) only ever *adds* time, so the faster ones are the truer
/// ones; the quartile rather than the minimum, so that one repetition
/// cut short by tick rounding does not decide the run. Under synthetic
/// contention the median of section CPU times spread 3.5 % over ten
/// runs, this 2.3 %.
fn undisturbed(costs: &[f64]) -> f64 {
    quartiles(costs).map_or_else(|| median(costs), |(q1, _)| q1)
}

/// Set the workload up once more, tearing the previous instance down
/// first (uncharged), and note the seconds the set-up took.
///
/// Set-ups are milliseconds long, below the resolution of every CPU
/// clock `/proc` offers (`stat` counts 10 ms ticks; `schedstat` only
/// advances at scheduler ticks for the running thread), so this one
/// metric is wall-clock. They are also kernel-heavy (each
/// `Hypervisor::new` maps and zeroes fresh memory), and the sandbox
/// flips between a fast and a 40 % slower mode for such work every few
/// seconds; a run therefore spreads its set-ups over its whole length —
/// [`INITIAL_SETUPS`] up front, one more before every later section —
/// and reports the [`undisturbed`] one.
fn set_up(
    args: RunArgs,
    previous: Option<Box<dyn Workload>>,
    costs: &mut Vec<f64>,
) -> Box<dyn Workload> {
    drop(previous);
    let start = Instant::now();
    let workload = prepare(args.kind, args.seed);
    costs.push(start.elapsed().as_secs_f64());
    workload
}

/// Perform one run and return its result line (plus, for a traced run,
/// the human-readable per-layer report on stdout before it).
pub fn run(args: RunArgs) -> RunResult {
    let mut setup_costs = Vec::new();
    let mut workload = set_up(args, None, &mut setup_costs);
    for _ in 1..INITIAL_SETUPS {
        workload = set_up(args, Some(workload), &mut setup_costs);
    }
    let mut checks = Checks::default();

    let (reference, reference_cost) = timed_section(|| workload.reference());
    let want = digest(&reference);
    println!("digest {want:016x}");
    let execs = workload.execs() as f64;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds.max(0.0));
    let metrics = if args.trace {
        traced_pass(
            args,
            workload.as_mut(),
            want,
            reference_cost,
            deadline,
            &mut checks,
        )
    } else {
        let mut costs = Vec::new();
        loop {
            let (outcome, cost) = timed_section(|| workload.section(None));
            costs.push(cost);
            checks.check(digest(&outcome) == want, || {
                format!(
                    "section {} of {}: result digest differs from the reference",
                    costs.len(),
                    args.kind.name()
                )
            });
            if Instant::now() >= deadline {
                break;
            }
            workload = set_up(args, Some(workload), &mut setup_costs);
        }
        eprintln!(
            "set-ups: {} ms",
            setup_costs
                .iter()
                .map(|c| format!("{:.2}", c * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let cpus: Vec<f64> = costs.iter().map(|c| c.cpu.total_s()).collect();
        let peaks: Vec<f64> = costs.iter().map(|c| c.peak_rss_mb).collect();
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    EXECS_PER_CPU_S => execs / undisturbed(&cpus),
                    SETUP_S => undisturbed(&setup_costs),
                    PEAK_RSS_MB => median(&peaks),
                    other => unreachable!("end-to-end metric {other} has no measurement"),
                };
                (
                    m.name,
                    Reading {
                        value,
                        unit: m.unit,
                    },
                )
            })
            .collect()
    };
    drop(workload);
    RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

/// The traced pass: untraced sections either side of the traced ones
/// (for the tracing overhead), spans aggregated per name, probes, and
/// the ledger.
fn traced_pass(
    args: RunArgs,
    workload: &mut dyn Workload,
    want: u64,
    reference_cost: SectionCost,
    deadline: Instant,
    checks: &mut Checks,
) -> BTreeMap<&'static str, Reading> {
    let kind = args.kind;
    let execs = workload.execs();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut stats: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    let mut first_spans: Vec<Span> = Vec::new();

    let mut run_untraced = |workload: &mut dyn Workload, checks: &mut Checks| {
        let (outcome, cost) = timed_section(|| workload.section(None));
        checks.check(digest(&outcome) == want, || {
            format!(
                "untraced section of {}: result digest differs from the reference",
                kind.name()
            )
        });
        untraced.push(cost);
    };
    run_untraced(workload, checks);

    let rec = Recorder::new();
    let outcome = loop {
        let (outcome, cost) = timed_section(|| {
            let _span = rec.enter(SECTION);
            workload.section(Some(&rec))
        });
        traced.push(cost);
        checks.check(digest(&outcome) == want, || {
            format!(
                "traced section of {}: result digest differs from the reference",
                kind.name()
            )
        });
        let spans = rec.drain();
        for (name, expected) in workload.expected_spans(&outcome) {
            let got = spans.iter().filter(|s| s.name == name).count() as u64;
            checks.check(got == expected, || {
                format!(
                    "{}: {got} `{name}` spans in a traced section, {expected} expected",
                    kind.name()
                )
            });
        }
        aggregate(&spans, &mut stats);
        if first_spans.is_empty() {
            first_spans = spans;
        }
        if Instant::now() >= deadline {
            break outcome;
        }
    };
    run_untraced(workload, checks);
    let sections = traced.len() as u64;

    let probes = probes::run(args.seed);
    let fit = probes["core.replay.fit_pct"];
    checks.check(fit > FIT_FLOOR_PCT, || {
        format!("OS BOOT coverage fitting {fit:.2} % is not above the {FIT_FLOOR_PCT} % floor")
    });

    let (cells, chunks) = workload.plan_shape();
    let ledger = ledger::build(ledger::Inputs {
        kind,
        stats: &stats,
        probes: &probes,
        sections,
        execs,
        cells,
        chunks,
        in_process_job_ns: if kind == Kind::FleetLoopback {
            reference_cost.wall_s * 1e9 / crate::workloads::FLEET_JOBS as f64
        } else {
            0.0
        },
    });

    let cpu_of = |costs: &[SectionCost]| {
        undisturbed(&costs.iter().map(|c| c.cpu.total_s()).collect::<Vec<_>>())
    };
    let untraced_cpu_s = cpu_of(&untraced);
    let traced_cpu_s = cpu_of(&traced);
    let untraced_wall_s = median(&untraced.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let untraced_sys_s = median(&untraced.iter().map(|c| c.cpu.sys_s).collect::<Vec<_>>());

    let counters = &rec.counters;
    let per_section = |n: u64| n as f64 / sections as f64;
    let sim_cycles = match &outcome {
        // Most replayed seeds bypass the wrapper; the summary has all.
        Outcome::Replay(s) => (s.recorded_cycles + s.replay_cycles) as f64,
        _ => per_section(counters.sim_cycles.load(Ordering::Relaxed)),
    };
    let slots = stats.get(GUIDED_SLOT).map_or(0, |s| s.n);

    let mut values: BTreeMap<&'static str, f64> = probes.clone();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    for (ns, n, span) in [
        ("fuzzer.target.boot.ns", "fuzzer.target.boot.n", BOOT),
        ("fuzzer.target.submit.ns", "fuzzer.target.submit.n", SUBMIT),
        (
            "fuzzer.target.reset_clean.ns",
            "fuzzer.target.reset_clean.n",
            RESET_CLEAN,
        ),
        (
            "fuzzer.target.reset_after_crash.ns",
            "fuzzer.target.reset_after_crash.n",
            RESET_AFTER_CRASH,
        ),
        (
            "fuzzer.target.pin_state.ns",
            "fuzzer.target.pin_state.n",
            PIN_STATE,
        ),
        (
            "fuzzer.target.reset_to.ns",
            "fuzzer.target.reset_to.n",
            RESET_TO,
        ),
        ("fuzzer.campaign.chunk.ns", "fuzzer.campaign.chunk.n", CHUNK),
        (
            "fuzzer.guided.context_new.ns",
            "fuzzer.guided.context_new.n",
            GUIDED_CONTEXT,
        ),
        ("fuzzer.guided.slot.ns", "fuzzer.guided.slot.n", GUIDED_SLOT),
        ("fuzzer.guided.fold.ns", "fuzzer.guided.fold.n", GUIDED_FOLD),
    ] {
        let s = stats.get(span);
        put(ns, s.map_or(0.0, NameStats::p50_ns));
        put(n, s.map_or(0.0, |s| per_section(s.n)));
    }
    put(
        "fuzzer.guided.baseline.ns",
        stats.get(GUIDED_BASELINE).map_or(0.0, NameStats::p50_ns),
    );
    put(
        "dist.client.submit.ns",
        stats.get(CLIENT_SUBMIT).map_or(0.0, NameStats::p50_ns),
    );
    put(
        "fuzzer.target.boot.prefix_seeds",
        per_section(counters.boot_prefix_seeds.load(Ordering::Relaxed)),
    );
    put("hv.sim_cycles_per_exec", sim_cycles / execs as f64);
    put(
        "fuzzer.campaign.crash_share",
        outcome.crashes() as f64 / execs as f64,
    );
    put(
        "fuzzer.guided.path_len_mean",
        if slots == 0 {
            0.0
        } else {
            counters.path_seeds.load(Ordering::Relaxed) as f64 / slots as f64
        },
    );
    put(
        "fuzzer.driver.self_ns_per_exec",
        stats
            .get(SECTION)
            .map_or(0.0, |s| per_section(s.self_ns) / execs as f64),
    );
    put(
        "dist.fleet.overhead_cpu_ns_per_exec",
        if kind == Kind::FleetLoopback {
            // The reference ran the section's job specs in-process.
            (untraced_cpu_s - reference_cost.cpu.total_s()) * 1e9 / execs as f64
        } else {
            0.0
        },
    );
    put("harness.wall_execs_per_s", execs as f64 / untraced_wall_s);
    put("harness.cpu_share", untraced_cpu_s / untraced_wall_s);
    put("harness.sys_share", untraced_sys_s / untraced_cpu_s);
    put(
        "harness.trace_overhead_pct",
        (traced_cpu_s / untraced_cpu_s - 1.0) * 100.0,
    );
    put("harness.sections", sections as f64);
    put("ledger.traced_ns_per_exec", ledger.ns_per_exec());
    put("ledger.unattributed_pct", ledger.unattributed_pct());
    put("out.coverage_lines", outcome.coverage_lines() as f64);
    put("out.unique_crashes", outcome.unique_crashes() as f64);
    put("out.crashes", outcome.crashes() as f64);
    put("out.execs_per_section", execs as f64);
    put(
        "out.failed_share",
        checks.failed as f64 / checks.attempted as f64,
    );

    print_layer_report(kind, &values, &ledger);
    if let Err(e) = write_trace(kind, args.seed, first_spans) {
        eprintln!("cannot write the span trace: {e}");
    }

    PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| unreachable!("per-layer metric {} has no measurement", m.name));
            (
                m.name,
                Reading {
                    value,
                    unit: m.unit,
                },
            )
        })
        .collect()
}

fn print_layer_report(kind: Kind, values: &BTreeMap<&'static str, f64>, ledger: &Ledger) {
    println!("per-layer metrics, {}:", kind.name());
    for m in PER_LAYER {
        if let Some(v) = values.get(m.name) {
            println!("  {:<42} {:>16.3} {}", m.name, v, m.unit);
        }
    }
    print!("{}", ledger.render(kind.name()));
}

/// Where traced runs leave their spans: `out/` next to this package's
/// manifest, wherever the checkout lives.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Serialize)]
struct TraceFile {
    workload: &'static str,
    seed: u64,
    spans: Vec<Span>,
}

fn write_trace(kind: Kind, seed: u64, spans: Vec<Span>) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let file = TraceFile {
        workload: kind.name(),
        seed,
        spans,
    };
    let json = serde_json::to_string(&file)?;
    std::fs::write(dir.join(format!("trace-{}.json", kind.name())), json)
}
