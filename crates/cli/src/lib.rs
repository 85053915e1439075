//! # iris-cli — the user-space command-line interface
//!
//! The paper's Fig. 3 shows a CLI in Dom0 driving the IRIS manager
//! through the `xc_vmcs_fuzzing` hypercall. This crate is that tool for
//! the simulated stack: the command table (`COMMANDS`) with the one
//! argv parse pass over it (`args`), the subcommands, and text rendering
//! of the results. `campaign`, `guided` and `submit` describe their run
//! with the fleet's own [`JobSpec`] and take trace, plan, config and
//! fingerprint from it, as the coordinator and the workers do. The
//! `iris` binary is a thin `main` over [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use args::{command, Command, Flag, Parsed};
use iris_core::forest::ForestConfig;
use iris_core::metrics;
use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_core::replay::replay_fresh;
use iris_core::seed_db::SeedDb;
use iris_core::trace::RecordedTrace;
use iris_dist::backoff::BackoffPolicy;
use iris_dist::chaos::{ChaosOptions, ChaosProxy};
use iris_dist::client::submit as dist_submit;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_dist::DistError;
use iris_fuzzer::checkpoint::{
    atomic_write_json, load_if_present, CampaignCheckpoint, GuidedCheckpoint, JsonWriter,
    RunOptions, SessionError,
};
use iris_fuzzer::corpus::Corpus;
use iris_fuzzer::executor::run_ordered;
use iris_fuzzer::guided::{
    run_guided_shared_session, run_guided_shared_with, GuidedConfig, GuidedResult,
};
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::{available_jobs, CampaignReport, ParallelCampaign};
use iris_fuzzer::target::{render_planted_fault_report, Backend, ConfiguredBackend, TargetFactory};
use iris_fuzzer::testcase::{TestCase, DEFAULT_CHUNK};
use iris_guest::workloads::Workload;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::IsTerminal;
use std::path::{Path, PathBuf};

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage; the string is the help text to print.
    Usage(String),
    /// IO failure.
    Io(std::io::Error),
    /// A fault-tolerant run gave up (e.g. the worker restart budget was
    /// exhausted by persistent panics).
    Run(SessionError),
    /// `iris lint` found law violations; the string is the rendered
    /// report. Carried as an error so the binary exits nonzero — the
    /// contract CI relies on.
    Lint(String),
    /// A distributed-service failure (`iris serve|worker|submit`):
    /// connection loss past the reconnect budget, protocol violations,
    /// typed coordinator rejections.
    Dist(DistError),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(s) => write!(f, "{s}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Run(e) => write!(f, "run failed: {e}"),
            CliError::Lint(report) => write!(f, "{report}"),
            CliError::Dist(e) => write!(f, "distributed service error: {e}"),
        }
    }
}

impl From<DistError> for CliError {
    fn from(e: DistError) -> Self {
        CliError::Dist(e)
    }
}

impl std::error::Error for CliError {}

// Flag groups: `(name, metavar)`, the metavar empty for a switch. A
// spelling that means something else on another command (`chaos --seed`,
// `chaos --budget`) gets its own entry there.
const TRACE: &[Flag] = &[("--exits", "N"), ("--seed", "S")];
const MUTANTS: &[Flag] = &[("--mutants", "M")];
const GUIDED: &[Flag] = &[("--budget", "B"), ("--gen", "G")];
const JOBS: &[Flag] = &[("--jobs", "N")];
const CHUNK: &[Flag] = &[("--chunk", "C")];
const TARGET: &[Flag] = &[("--target", "T")];
const FOREST: &[Flag] = &[("--forest", ""), ("--forest-cap", "N")];
const JSON: &[Flag] = &[("--json", "FILE")];
const CORPUS: &[Flag] = &[("--corpus", "FILE")];
const DURABLE: &[Flag] = &[("--checkpoint", "FILE"), ("--resume", "FILE")];
const CONNECT: &[Flag] = &[("--connect", "ADDR")];
const LISTEN: &[Flag] = &[("--listen", "ADDR")];
const REPLAY: &[Flag] = &[("--cold", ""), ("--memory", "")];
const FUZZ: &[Flag] = &[("--area", "vmcs|gpr"), ("--reason", "R")];
const MODE: &[Flag] = &[("--mode", "shared|ensemble")];
const SERVE: &[Flag] = &[
    ("--progress", "FILE"),
    ("--lease-timeout-ms", "N"),
    ("--redundancy", "K"),
    ("--spot-check", "N"),
    ("--max-queue", "N"),
    ("--read-deadline-ms", "N"),
];
const WORKER: &[Flag] = &[
    ("--once", ""),
    ("--heartbeat-ms", "N"),
    ("--reconnect-attempts", "N"),
    ("--reconnect-base-ms", "N"),
    ("--reconnect-max-ms", "N"),
    ("--jitter-seed", "S"),
    ("--corrupt-after", "N"),
];
const CHAOS: &[Flag] = &[("--seed", "S"), ("--budget", "N")];
const CAMPAIGN_RUN: &[&[Flag]] = &[
    TRACE, MUTANTS, JOBS, CHUNK, TARGET, FOREST, JSON, CORPUS, DURABLE,
];
const GUIDED_RUN: &[&[Flag]] = &[
    TRACE, GUIDED, JOBS, MODE, TARGET, FOREST, JSON, CORPUS, DURABLE,
];
const CAMPAIGN_JOB: &[&[Flag]] = &[TRACE, MUTANTS, CHUNK, TARGET, JSON];
const GUIDED_JOB: &[&[Flag]] = &[TRACE, GUIDED, TARGET, JSON];
const WORKLOAD: &[&str] = &["workload"];

/// Every command `iris` has: name, positionals, required flags,
/// optional flag groups, entry point. The parse pass, the synopsis
/// block of the help text and the hostile-argv test all run off this
/// table.
pub(crate) const COMMANDS: &[Command] = &[
    command(
        "record",
        WORKLOAD,
        &[],
        &[TRACE, &[("--out", "FILE.json")]],
        cmd_record,
    ),
    command("replay", WORKLOAD, &[], &[TRACE, REPLAY], cmd_replay),
    command(
        "fuzz",
        WORKLOAD,
        &[],
        &[TRACE, MUTANTS, FUZZ, JOBS, CHUNK, TARGET],
        cmd_fuzz,
    ),
    command("campaign", WORKLOAD, &[], CAMPAIGN_RUN, cmd_campaign),
    command("guided", WORKLOAD, &[], GUIDED_RUN, cmd_guided),
    command("targets", &[], &[], &[], cmd_targets),
    command("report", &["FILE.json"], &[], &[], cmd_report),
    command("lint", &[], &[], &[&[("--root", "PATH")], JSON], cmd_lint),
    command("serve", &[], &[], &[LISTEN, DURABLE, SERVE], cmd_serve),
    command("worker", &[], CONNECT, &[TARGET, WORKER], cmd_worker),
    command(
        "submit campaign",
        WORKLOAD,
        CONNECT,
        CAMPAIGN_JOB,
        submit_campaign,
    ),
    command(
        "submit guided",
        WORKLOAD,
        CONNECT,
        GUIDED_JOB,
        submit_guided,
    ),
    command("chaos", &[], CONNECT, &[LISTEN, CHAOS], cmd_chaos),
    command("help", &[], &[], &[], |_| Ok(usage())),
];

const WORKLOADS: &str = "os_boot | cpu_bound | mem_bound | io_bound | idle";

/// The prose of the help text. The synopsis block above it is not
/// written here: [`usage`] renders it from [`COMMANDS`].
const USAGE: &str = "\
`replay` records the workload on a test VM, replays the seeds on a
dummy VM and reports how well the replayed coverage fits the recorded
one. `--cold` leaves the dummy VM unbooted. `--memory` also records,
per exit, the image of every guest frame the exit dirtied — page
granular, what an EPT dirty log gives (the paper's section IX) — and
applies it before the seed, so handler paths that read guest memory
fit too.

`campaign` fuzzes every (exit reason x seed area) cell the trace offers,
sharded over N worker threads (default: available parallelism) stealing
work in chunks of C mutants (default: 256). Results are deterministic:
the same cells, crashes, and corpus for any N; for C on the pinned cells
— resume a campaign with the `--chunk` it started with (RELIABILITY.md,
What is actually pinned). Chunking spreads even `fuzz`'s single test
case across the pool. `--json` writes the campaign report
(byte-identical across N); `--corpus` persists the crash corpus through
a background writer so the campaign never pauses on JSON I/O.
`--target` picks the fuzz-target backend (default: iris, the stock
hypervisor); `iris targets` lists every registered backend. The faulty
backend plants known handler bugs, and `campaign --target faulty`
reports which of them the run detected.

`guided` runs the coverage-guided feedback loop. The default mode,
`shared`, is the generational shared-corpus engine: N workers fuzz ONE
corpus, synchronizing at generation barriers every G executions
(default: 256), and the result — promotions, corpus order, growth
curve, crashes — is byte-identical for any N (`--json` writes it for
diffing). `ensemble` instead runs N independent single-worker engines
with distinct RNG seeds (N disjoint corpora). `--corpus` persists the
crash corpus (per generation in shared mode) through the background
writer.

`--forest` turns on the copy-on-write snapshot forest (PERFORMANCE.md):
targets pin post-execution state nodes and restore to them in O(delta)
instead of replaying the whole seed prefix from s1. Reports are
byte-identical with the forest on or off, for any --jobs — the flag
changes replay cost only. `--forest-cap N` bounds the live node
count (default: 64; LRU nodes collapse into their parents). Forest
mode covers `campaign` and both `guided` modes. Checkpoint fingerprints
ignore the flag, so a resume may switch it freely (RELIABILITY.md).

Fault tolerance: worker panics are absorbed — the lost work is re-run
byte-identically on a fresh worker context, up to a restart budget.
`--checkpoint` persists progress durably (atomic tmp-file + rename) at
every test-case fold (`campaign`) or generation barrier (`guided`
shared mode), so a killed run loses at most one boundary's work.
`--resume` continues from such a file: a missing file simply starts
fresh, but a checkpoint from a different run configuration (workload,
seed, target, budget…) is rejected by its fingerprint. Worker count
may change across a resume — the final report stays byte-identical to
an uninterrupted run. Ctrl-C stops gracefully: the run finishes
in-flight work, writes a final checkpoint, and still flushes the
--json/--corpus artifacts (a second Ctrl-C kills immediately).
`--checkpoint`/`--resume` reject `--mode ensemble`.

Distributed service (DISTRIBUTED.md): `serve` runs the coordinator
daemon (default --listen 127.0.0.1:7331); `worker` processes connect to
it and compute leased chunk/slot ranges, surviving coordinator restarts
by reconnecting; `submit` delivers a campaign or guided job and waits
for the report — byte-identical to the same run's in-process
`campaign`/`guided` with `--jobs 1`, for any fleet size, including
under worker death (ranges re-lease and re-execute identically) and
coordinator kill + `--resume` (checkpoints at every fold boundary, same
files as the in-process `--checkpoint` flow). `submit --json` writes
the received report. `submit campaign|guided` and the in-process
`campaign`/`guided` build the same job description from the same flags
with the same defaults (one `JobSpec`, RELIABILITY.md).

Adversarial hardening (DISTRIBUTED.md, Failure and trust model):
`serve --redundancy K` leases every range to K distinct workers and
folds only on digest agreement — divergence triggers a local
re-execution and quarantines the lying workers (a typed event in the
--progress artifact); `--spot-check N` audits a deterministic 1-in-N
sample of accepted ranges the same way; `--max-queue` bounds waiting
submissions (typed Busy rejection); `--read-deadline-ms` bounds the
wall time any peer may spend inside one frame (slowloris defense).
Workers reconnect under bounded exponential backoff with deterministic
jitter (`--reconnect-attempts`, `--reconnect-base-ms`,
`--reconnect-max-ms`, `--jitter-seed`); `--corrupt-after N` is a
test hook that deterministically falsifies results after N honest
chunks — for exercising quarantine, never for real runs. `chaos` runs
a seeded in-process TCP proxy (`--connect` upstream coordinator) that
deterministically splits, delays, garbles, truncates, and drops
connections — point workers at it to make network failure a
reproducible test case; faults stop after `--budget` connections so
reconnecting workers always make progress.

`lint` runs iris-lint, the workspace's own static analyzer, over the
source tree (ANALYSIS.md documents the rules: determinism laws, unsafe
audit, panic-path audit). The workspace root is found by walking up
from the current directory; `--root` overrides it. `--json FILE`
writes the machine-readable report. Findings make the command fail.

Arguments are parsed strictly, in one pass over the table the synopsis
above is printed from: an unknown flag, a flag of another command, a
flag missing its value (at the end of the line, or with another flag
where the value belongs), a repeated flag, and a stray or missing
positional are usage errors (exit 2) that name the token and print that
command's synopsis — before any trace is recorded, socket opened or
file written.
";

/// The help text: the synopsis of every command in `COMMANDS`, then
/// the prose.
#[must_use]
pub fn usage() -> String {
    let mut text = String::from(
        "iris — record & replay framework for hardware-assisted virtualization fuzzing\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        text += &format!("    {}\n", command.synopsis());
    }
    text + &format!("\nWORKLOADS: {WORKLOADS}\n\n{USAGE}")
}

/// Run the CLI against `args` (without the program name). Returns the
/// text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let parsed = args::parse(args)?;
    (parsed.command.run)(&parsed)
}

/// `<workload> [--exits N] [--seed S]`: the coordinates of a recorded
/// trace, for every command that starts from one.
fn trace_args(p: &Parsed) -> Result<(Workload, usize, u64), CliError> {
    let w = match p.positional(0) {
        "os_boot" => Workload::OsBoot,
        "cpu_bound" => Workload::CpuBound,
        "mem_bound" => Workload::MemBound,
        "io_bound" => Workload::IoBound,
        "idle" => Workload::Idle,
        other => {
            let problem = format!("unknown workload '{other}' ({WORKLOADS})");
            return Err(p.command.usage_error(problem));
        }
    };
    Ok((w, p.num("--exits", 5000)?, p.num("--seed", 42)?))
}

/// `--jobs N` (default: the host's available parallelism).
fn jobs(p: &Parsed) -> Result<usize, CliError> {
    p.at_least_one("--jobs", available_jobs())
}

/// `--chunk C` (default: [`DEFAULT_CHUNK`]): the work-stealing
/// granularity in mutants.
fn chunk(p: &Parsed) -> Result<usize, CliError> {
    p.at_least_one("--chunk", DEFAULT_CHUNK)
}

/// `--forest` / `--forest-cap N`: the copy-on-write snapshot-forest
/// reset strategy (default: off). Reports are byte-identical with the
/// forest on or off — only replay cost changes (PERFORMANCE.md).
fn forest(p: &Parsed) -> Result<Option<ForestConfig>, CliError> {
    if p.has("--forest") {
        let cap = p.at_least_one("--forest-cap", ForestConfig::DEFAULT_CAP)?;
        Ok(Some(ForestConfig { cap }))
    } else if p.has("--forest-cap") {
        Err(p.command.usage_error("--forest-cap requires --forest"))
    } else {
        Ok(None)
    }
}

/// `--target NAME` (default: the stock `iris` backend). The parsed
/// [`Backend`] is itself a [`TargetFactory`], so it plugs straight into
/// the drivers.
fn target(p: &Parsed) -> Result<Backend, CliError> {
    let name = p.value("--target").unwrap_or(Backend::Iris.name());
    Backend::parse(name).ok_or_else(|| {
        let hint = "`iris targets` lists the registered backends";
        p.command
            .usage_error(format!("unknown target '{name}' — {hint}"))
    })
}

/// The two kinds of job, in process (`campaign`, `guided`) or on the
/// fleet (`submit campaign`, `submit guided`).
#[derive(Clone, Copy)]
enum Family {
    Campaign,
    Guided,
}

/// The description of a campaign or guided run: the only reader of the
/// flags that describe a job and the only home of their defaults. In
/// process or submitted, a run is whatever this [`JobSpec`] derives.
fn job_spec(p: &Parsed, family: Family) -> Result<JobSpec, CliError> {
    let (w, exits, seed) = trace_args(p)?;
    let kind = match family {
        Family::Campaign => JobKind::Campaign {
            mutants: p.num("--mutants", 200)?,
            chunk: chunk(p)?,
        },
        Family::Guided => JobKind::Guided {
            budget: p.num("--budget", 1500)?,
            generation: p.at_least_one("--gen", GuidedConfig::default().generation)?,
        },
    };
    Ok(JobSpec {
        target: target(p)?.name().to_owned(),
        workload: w.label().to_owned(),
        exits,
        seed,
        kind,
    })
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn cmd_record(p: &Parsed) -> Result<String, CliError> {
    let (w, exits, seed) = trace_args(p)?;
    let (_, trace) = Recorder::new().record_fresh(w, exits, seed, RECORD_RAM_BYTES);
    let total = trace.len().max(1);
    let mut out = format!(
        "recorded {} exits of {} ({} unique lines covered, {:.2} ms wall)\n",
        trace.len(),
        w.label(),
        trace.total_coverage().lines(),
        trace.wall_time_ms()
    );
    let hist = trace.reason_histogram();
    for (reason, count) in &hist {
        out.push_str(&format!(
            "  {:<14} {:>6}  ({:.1}%)\n",
            reason.figure_label(),
            count,
            *count as f64 / total as f64 * 100.0
        ));
    }
    if let Some(path) = p.path("--out") {
        SeedDb::save_json(&trace, &path)?;
        out.push_str(&format!("trace written to {}\n", path.display()));
    }
    Ok(out)
}

fn cmd_replay(p: &Parsed) -> Result<String, CliError> {
    let (w, exits, seed) = trace_args(p)?;
    let cold = p.has("--cold");
    let recorder = Recorder {
        record_memory: p.has("--memory"),
    };
    let (_, recorded) = recorder.record_fresh(w, exits, seed, RECORD_RAM_BYTES);
    let warm = !cold && w != Workload::OsBoot;
    let (hv, _, replayed, cycles) = replay_fresh(&recorded, RECORD_RAM_BYTES, warm);

    let fit = metrics::coverage_fitting(&recorded, &replayed);
    let eff = metrics::efficiency(&recorded, cycles as f64 / 3.6e6);
    let mut out = format!(
        "replayed {}/{} seeds of {}{}\n",
        replayed.metrics.len(),
        recorded.len(),
        w.label(),
        if cold { " (cold dummy VM)" } else { "" }
    );
    out.push_str(&format!(
        "coverage fitting: {:.1}%  (recorded {} lines, replayed {})\n",
        fit.fitting_percent, fit.recorded_lines, fit.replayed_lines
    ));
    out.push_str(&format!(
        "time: real {:.1} ms vs replay {:.1} ms  ({:.1}% decrease, {:.1}x, {:.0} exits/s)\n",
        eff.real_ms, eff.replay_ms, eff.decrease_percent, eff.speedup, eff.replay_exits_per_sec
    ));
    if replayed.metrics.last().is_some_and(|m| m.crashed) {
        let msg = hv
            .log
            .grep("bad RIP")
            .last()
            .map(|l| l.message.clone())
            .unwrap_or_else(|| "crash".to_owned());
        out.push_str(&format!("dummy VM crashed: {msg}\n"));
    }
    Ok(out)
}

fn cmd_fuzz(p: &Parsed) -> Result<String, CliError> {
    let (w, exits, seed) = trace_args(p)?;
    let mutants: usize = p.num("--mutants", 500)?;
    let area = match p.value("--area") {
        None | Some("vmcs") => SeedArea::Vmcs,
        Some("gpr") => SeedArea::Gpr,
        Some(other) => return Err(p.command.usage_error(format!("bad --area {other}"))),
    };
    let (_, trace) = Recorder::new().record_fresh(w, exits, seed, RECORD_RAM_BYTES);

    let reason = p.value("--reason");
    let wanted = |label: &str| reason.is_none_or(|r| label.eq_ignore_ascii_case(r));
    let idx = trace
        .seeds
        .iter()
        .position(|s| wanted(s.reason.figure_label()))
        .ok_or_else(|| p.command.usage_error("no seed matches --reason"))?;

    let tc = TestCase {
        mutants,
        ..TestCase::new(w, idx, trace.seeds[idx].reason, area, seed)
    };
    let (jobs, chunk, backend) = (jobs(p)?, chunk(p)?, target(p)?);
    let report = ParallelCampaign::with_factory(jobs, backend)
        .with_chunk(chunk)
        .run_trace(&trace, std::slice::from_ref(&tc));
    let r = &report.results[0];
    let mut out = format!(
        "fuzzed seed #{idx} ({}) of {} — area {}, {} mutants, target {}\n",
        tc.reason.figure_label(),
        w.label(),
        area.label(),
        mutants,
        backend.name()
    );
    let chunks = tc.chunks(chunk).count();
    let workers = jobs.min(chunks);
    if workers > 1 {
        // Chunked work stealing: even a single test case spreads its
        // mutant range across the pool, deterministically (the per-range
        // RNG law makes the results chunk- and worker-independent). The
        // executor clamps workers to the chunk count, so report what
        // actually runs.
        out.push_str(&format!(
            "sharded into {chunks} chunks of ≤{chunk} mutants over {workers} workers\n"
        ));
    }
    out.push_str(&format!(
        "new coverage: +{:.0}% ({} new lines over a {}-line baseline)\n",
        r.coverage_increase_percent, r.new_lines, r.baseline_lines
    ));
    out.push_str(&format!(
        "crashes: {} VM ({:.2}%), {} hypervisor ({:.2}%) — corpus {} ({} unique)\n",
        r.failures.vm_crashes,
        r.failures.vm_crash_percent(),
        r.failures.hv_crashes,
        r.failures.hv_crash_percent(),
        report.corpus.observed(),
        report.corpus.unique()
    ));
    Ok(out)
}

fn cmd_targets(_: &Parsed) -> Result<String, CliError> {
    let mut out = String::from("registered fuzz targets (select with --target NAME):\n");
    for b in Backend::ALL {
        let mark = if b == Backend::Iris {
            "  [default]"
        } else {
            ""
        };
        out += &format!("  {:<8} {}{mark}\n", b.name(), b.description());
    }
    Ok(out)
}

/// Ctrl-C stops the run gracefully: SIGINT trips the executor's stop flag.
fn interruptible<C>(resume: Option<C>) -> RunOptions<'static, C> {
    RunOptions {
        stop: Some(sigint::install()),
        resume,
    }
}

/// What a `campaign` and a `guided` run share around their engine: the
/// `--resume` load, the background `--corpus` and `--checkpoint`
/// writers, the stderr progress line, and the closing report with its
/// resume note, interruption note and artifact lines. `C` is the
/// engine's checkpoint type.
struct DurableRun<C> {
    resume: Option<PathBuf>,
    resume_note: String,
    json: Option<PathBuf>,
    corpus: Option<(PathBuf, JsonWriter<Corpus>)>,
    checkpoint: Option<(PathBuf, JsonWriter<C>)>,
    /// Crashes in the corpus snapshot persisted last.
    corpus_observed: u64,
    /// Progress goes to stderr only when that is a terminal — reports
    /// stay clean.
    show_progress: bool,
    progress_shown: bool,
}

impl<C: Serialize + Send + 'static> DurableRun<C> {
    /// Resolve `--resume` by the rule the coordinator shares
    /// ([`load_if_present`]) and start the writers: snapshots persist on
    /// background threads, so the aggregator never pauses on JSON I/O,
    /// and write errors surface in [`Self::finish`].
    fn open(
        p: &Parsed,
        fingerprint: &str,
        load: impl FnOnce(&Path, &str) -> std::io::Result<C>,
    ) -> Result<(Self, Option<C>), CliError> {
        let resume = p.path("--resume");
        let loaded = load_if_present(resume.as_deref(), fingerprint, load)?;
        let resume_note = match (&resume, &loaded) {
            (None, _) => String::new(),
            (Some(at), None) => format!("no checkpoint at {} — starting fresh\n", at.display()),
            (Some(at), Some(_)) => format!("resumed from {}\n", at.display()),
        };
        let corpus = p.path("--corpus");
        let checkpoint = p.path("--checkpoint");
        let run = Self {
            resume,
            resume_note,
            json: p.path("--json"),
            corpus: corpus.map(|at| (at.clone(), JsonWriter::spawn(at))),
            checkpoint: checkpoint.map(|at| (at.clone(), JsonWriter::spawn(at))),
            corpus_observed: 0,
            show_progress: std::io::stderr().is_terminal(),
            progress_shown: false,
        };
        Ok((run, loaded))
    }

    fn progress(&mut self, line: std::fmt::Arguments<'_>) {
        if self.show_progress {
            eprint!("\r{line}");
            self.progress_shown = true;
        }
    }

    /// Snapshot the crash corpus, but only when it actually grew —
    /// crash-free folds would otherwise clone and rewrite byte-identical
    /// JSON once each.
    fn corpus_grew(&mut self, corpus: &Corpus) {
        if let Some((_, writer)) = &self.corpus {
            if corpus.observed() > self.corpus_observed {
                self.corpus_observed = corpus.observed();
                writer.persist(corpus.clone());
            }
        }
    }

    /// Hand a resumable point to the newest-wins background writer.
    fn checkpoint(&self, snapshot: impl FnOnce() -> C) {
        if let Some((_, writer)) = &self.checkpoint {
            writer.persist(snapshot());
        }
    }

    /// Map a session failure to the user: a `--resume` checkpoint the
    /// engine refused names its file, like every other checkpoint error.
    fn session_error(&self, e: SessionError) -> CliError {
        match (e, &self.resume) {
            (SessionError::Checkpoint(e), Some(at)) => CliError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint {} is inconsistent: {e}", at.display()),
            )),
            (e, _) => CliError::Run(e),
        }
    }

    /// Close the run and return its report text: `out` (the header),
    /// the resume note, `body`, the interruption note when a Ctrl-C
    /// left only `(done, total, what)` finished, and a line per artifact.
    ///
    /// The `--json` report is written (atomically, like a checkpoint),
    /// the `--corpus` writer gets a final snapshot (the incremental ones
    /// may have been coalesced) and both writers are joined. All are
    /// **attempted unconditionally** — a JSON write error must not cost
    /// the corpus snapshot or drop its latched background errors, and
    /// vice versa, nor may a Ctrl-C cost the artifacts gathered so far —
    /// then the first failure (in output line order) is surfaced.
    fn finish(
        self,
        mut out: String,
        body: &str,
        interrupted: Option<(u64, u64, &str)>,
        (json_label, json): (&str, impl FnOnce() -> String),
        corpus: Corpus,
    ) -> Result<String, CliError> {
        if self.progress_shown {
            eprintln!();
        }
        out = out + &self.resume_note + body;
        if let Some((done, total, what)) = interrupted {
            out += &format!("interrupted — {done}/{total} {what} finished");
            if let Some((at, _)) = &self.checkpoint {
                out += &format!("; resume with --resume {}", at.display());
            }
            out.push('\n');
        }
        let json = self
            .json
            .map(|at| atomic_write_json(&at, json().as_bytes()).map(|()| at));
        let corpus = self.corpus.map(|(at, writer)| {
            writer.persist(corpus);
            writer.finish().map(|_| at)
        });
        let checkpoint = self.checkpoint.map(|(at, writer)| (at, writer.finish()));
        if let Some(at) = json {
            out += &format!("{json_label} written to {}\n", at?.display());
        }
        if let Some(at) = corpus {
            out += &format!("corpus written to {}\n", at?.display());
        }
        if let Some((at, saves)) = checkpoint {
            // Zero saves happens when the run folded nothing new (e.g. a
            // resume from an already-complete checkpoint) — the file on
            // disk is still the authoritative final state.
            let (at, saves) = (at.display(), saves?);
            out += &format!(
                "checkpoint at {at} ({saves} snapshot{} written)\n",
                plural(saves)
            );
        }
        Ok(out)
    }
}

fn cmd_campaign(p: &Parsed) -> Result<String, CliError> {
    let spec = job_spec(p, Family::Campaign)?;
    let JobKind::Campaign { mutants, chunk } = spec.kind else {
        unreachable!("job_spec builds the kind of the family it is given")
    };
    let (jobs, forest, backend) = (jobs(p)?, forest(p)?, spec.backend()?);
    let trace = spec.record_trace()?;
    let plan = spec.plan(&trace)?;
    if plan.is_empty() {
        let problem = "trace contains no Table I exit reasons to fuzz";
        return Err(p.command.usage_error(problem));
    }
    let traces = BTreeMap::from([(spec.workload()?, trace)]);
    let fingerprint = spec.fingerprint(plan.len());
    let (mut run, resume) = DurableRun::open(p, &fingerprint, CampaignCheckpoint::load)?;

    let mut last_folded = resume.as_ref().map_or(0, |cp| cp.folded);
    let options = interruptible(resume);
    // Fingerprints deliberately exclude the forest flag (like jobs and
    // chunk): the report bytes are invariant under it, so a resume may
    // switch it freely (RELIABILITY.md).
    let factory = ConfiguredBackend::new(backend).with_forest(forest);
    let report = ParallelCampaign::with_factory(jobs, factory)
        .with_chunk(chunk)
        .run_session(&traces, &plan, options, |engine| {
            // Mutant-granular (one update per aggregated chunk), so
            // huge-M cells visibly move.
            let (at, cases) = (engine.progress(), plan.len());
            let (done, total, folded) = (at.mutants_done, at.mutants_total, at.results_folded);
            run.progress(format_args!(
                "fuzzing: {done}/{total} mutants, {folded}/{cases} test cases"
            ));
            run.corpus_grew(&engine.report().corpus);
            // Checkpoints live at test-case fold boundaries: the report
            // is exactly a folded plan prefix there, which is what a
            // resume can continue from.
            if folded > last_folded {
                last_folded = folded;
                run.checkpoint(|| engine.checkpoint(&fingerprint));
            }
        })
        .map_err(|e| run.session_error(e))?;

    let header = format!(
        "campaign over {} — {} test cases ({mutants} mutants each), {jobs} worker{}, \
         chunk {chunk}, target {}{}\n",
        spec.workload,
        plan.len(),
        plural(jobs as u64),
        spec.target,
        forest.map_or(String::new(), |f| format!(", forest (cap {})", f.cap))
    );
    let mut body = String::new();
    for r in &report.results {
        body += &format!(
            "  {:<14} {:<5} +{:>3.0}%  ({} new lines, {} VM / {} HV crashes)\n",
            r.testcase.reason.figure_label(),
            r.testcase.area.label(),
            r.coverage_increase_percent,
            r.new_lines,
            r.failures.vm_crashes,
            r.failures.hv_crashes
        );
    }
    let (f, corpus) = (&report.failures, &report.corpus);
    body += &format!(
        "total: {} mutants, {} lines covered, crashes {} VM ({:.2}%) / {} hypervisor ({:.2}%)\n",
        f.submitted,
        report.coverage.lines(),
        f.vm_crashes,
        f.vm_crash_percent(),
        f.hv_crashes,
        f.hv_crash_percent()
    );
    let (observed, unique) = (corpus.observed(), corpus.unique());
    body += &format!("corpus: {observed} crashes observed, {unique} unique signatures saved\n");
    if backend == Backend::Faulty {
        // The faulty backend has a ground truth: state exactly which of
        // the planted handler bugs this campaign detected.
        body += &render_planted_fault_report(corpus);
    }
    let (done, total) = (report.results.len() as u64, plan.len() as u64);
    let interrupted = (done < total).then_some((done, total, "test cases"));
    // The serialized report is byte-identical across jobs — the
    // artifact CI diffs for the determinism smoke.
    let json = || serde_json::to_string_pretty(&report).expect("report serializes");
    run.finish(
        header,
        &body,
        interrupted,
        ("report JSON", json),
        corpus.clone(),
    )
}

fn cmd_guided(p: &Parsed) -> Result<String, CliError> {
    let spec = job_spec(p, Family::Guided)?;
    let config = spec.guided_config();
    let config = config.expect("job_spec builds the kind of the family it is given");
    let (jobs, forest) = (jobs(p)?, forest(p)?);
    let ensemble = match p.value("--mode").unwrap_or("shared") {
        "shared" => false,
        "ensemble" => true,
        other => {
            let problem = format!("bad --mode '{other}' (shared | ensemble)");
            return Err(p.command.usage_error(problem));
        }
    };
    if ensemble && (p.has("--checkpoint") || p.has("--resume")) {
        // The ensemble is N independent runs with N disjoint corpora —
        // there is no single progress point to snapshot, so durability
        // is a shared-mode feature.
        let problem = "--checkpoint/--resume require --mode shared";
        return Err(p.command.usage_error(problem));
    }
    let factory = ConfiguredBackend::new(spec.backend()?).with_forest(forest);
    let trace = spec.record_trace()?;
    let (workload, budget, target) = (&spec.workload, config.budget, &spec.target);
    let header = format!("guided fuzzing over {workload} ({budget} executions, target {target}");
    if ensemble {
        return guided_ensemble(p, header, &factory, &trace, config, jobs);
    }

    // Shared mode: one corpus, `jobs` workers, and a result JSON that is
    // byte-identical for any worker count — the artifact CI diffs.
    let fingerprint = spec.fingerprint(0);
    let (mut run, resume) = DurableRun::open(p, &fingerprint, GuidedCheckpoint::load)?;
    let options = interruptible(resume);
    let r = run_guided_shared_session(&factory, &trace, config, jobs, options, |g| {
        run.progress(format_args!(
            "guided: {}/{} executions, {} lines, corpus {}",
            g.executed, g.budget, g.total_lines, g.corpus_size
        ));
        run.corpus_grew(g.crashes);
        // Every generation barrier is a resumable point.
        run.checkpoint(|| g.checkpoint(&fingerprint));
    })
    .map_err(|e| run.session_error(e))?;

    let header = format!(
        "{header}{})\nmode shared: {jobs} worker{}, {} generations of ≤{} executions\n",
        forest.map_or(String::new(), |f| format!(", forest cap {}", f.cap)),
        plural(jobs as u64),
        r.growth.len(),
        config.generation
    );
    let interrupted = (r.executions < budget).then_some((r.executions, budget, "executions"));
    let json = || serde_json::to_string_pretty(&r).expect("result serializes");
    let body = render_guided_result(&r);
    run.finish(
        header,
        &body,
        interrupted,
        ("result JSON", json),
        r.crashes.clone(),
    )
}

/// Render the coverage/crash summary every guided mode shares.
fn render_guided_result(r: &GuidedResult) -> String {
    format!(
        "coverage: {} -> {} lines ({} promotions, corpus {})\n\
         crashes: {} VM ({:.2}%), {} hypervisor ({:.2}%) — corpus {} ({} unique)\n",
        r.baseline_lines,
        r.total_lines,
        r.promotions,
        r.corpus_size,
        r.failures.vm_crashes,
        r.failures.vm_crash_percent(),
        r.failures.hv_crashes,
        r.failures.hv_crash_percent(),
        r.crashes.observed(),
        r.crashes.unique()
    )
}

/// The ensemble mode: `jobs` independent shared-corpus engines, each at
/// one worker, with distinct RNG seeds (rng_seed + i), sharded over the
/// executor — N disjoint corpora instead of N× progress on one.
fn guided_ensemble(
    p: &Parsed,
    header: String,
    factory: &ConfiguredBackend,
    trace: &RecordedTrace,
    config: GuidedConfig,
    jobs: usize,
) -> Result<String, CliError> {
    let seeded = |i| GuidedConfig {
        rng_seed: config.rng_seed + i,
        ..config
    };
    let configs: Vec<GuidedConfig> = (0..jobs as u64).map(seeded).collect();
    // No `--resume` reaches this mode, so nothing is loaded.
    let (run, _) = DurableRun::open(p, "", GuidedCheckpoint::load)?;
    let mut results = Vec::with_capacity(configs.len());
    run_ordered(
        &configs,
        jobs,
        None,
        || (),
        |(), _, cfg| run_guided_shared_with(factory, trace, *cfg, 1),
        |_, result| results.push(result),
    )
    .map_err(|e| CliError::Run(e.into()))?;
    let header = format!(
        "{header})\nmode ensemble: {jobs} independent instance{} (disjoint corpora)\n",
        plural(jobs as u64)
    );
    // The corpus artifact merges the instances' crash corpora in config
    // order (the deterministic dedup order).
    let (mut body, mut merged) = (String::new(), Corpus::new());
    for (cfg, r) in configs.iter().zip(&results) {
        body += &format!(
            "  seed {:>3}: {} -> {} lines, {} promotions, {} crashes\n",
            cfg.rng_seed,
            r.baseline_lines,
            r.total_lines,
            r.promotions,
            r.failures.vm_crashes + r.failures.hv_crashes
        );
        merged.absorb(r.crashes.clone());
    }
    let best = results.iter().max_by_key(|r| r.total_lines);
    body += "best instance:\n";
    body += &render_guided_result(best.expect("jobs >= 1"));
    let json = || serde_json::to_string_pretty(&results).expect("results serialize");
    run.finish(header, &body, None, ("result JSON", json), merged)
}

fn cmd_report(p: &Parsed) -> Result<String, CliError> {
    let trace = SeedDb::load_json(Path::new(p.positional(0)))?;
    let mut out = format!(
        "trace '{}': {} seeds, {} metric records, {} unique lines\n",
        trace.label,
        trace.seeds.len(),
        trace.metrics.len(),
        trace.total_coverage().lines()
    );
    for (reason, count) in trace.reason_histogram() {
        out.push_str(&format!("  {:<14} {count}\n", reason.figure_label()));
    }
    Ok(out)
}

/// `iris lint`: the report text is the standalone `iris-lint` binary's;
/// findings surface as [`CliError::Lint`] so the process exits nonzero.
fn cmd_lint(p: &Parsed) -> Result<String, CliError> {
    let root = match p.path("--root") {
        Some(path) => path,
        None => iris_lint::find_workspace_root(&std::env::current_dir()?).ok_or_else(|| {
            p.command.usage_error(
                "no workspace root (a Cargo.toml with [workspace]) above the current \
                 directory — pass --root PATH",
            )
        })?,
    };
    let report = iris_lint::lint_workspace(&root)?;
    // The JSON artifact is written before the pass/fail decision, so a
    // failing run still leaves the machine-readable report for CI.
    if let Some(path) = p.path("--json") {
        atomic_write_json(&path, report.render_json().as_bytes())?;
    }
    if report.is_clean() {
        Ok(report.render_text())
    } else {
        Err(CliError::Lint(report.render_text()))
    }
}

/// Block until Ctrl-C: how long the daemons (`serve`, `chaos`) run.
fn wait_for_sigint() {
    let stop = sigint::install();
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// `iris serve`: the coordinator daemon, until Ctrl-C. Its checkpoints
/// interoperate with the in-process ones (both stamp
/// [`JobSpec::fingerprint`]); every default but the well-known port is
/// [`ServeOptions::default`]'s.
fn cmd_serve(p: &Parsed) -> Result<String, CliError> {
    let defaults = ServeOptions::default();
    let server = Server::start(ServeOptions {
        listen: p.value("--listen").unwrap_or("127.0.0.1:7331").to_owned(),
        checkpoint: p.path("--checkpoint"),
        resume: p.path("--resume"),
        progress: p.path("--progress"),
        lease_timeout_ms: p.at_least_one("--lease-timeout-ms", defaults.lease_timeout_ms)?,
        redundancy: p.at_least_one("--redundancy", defaults.redundancy)?,
        spot_check: p.num("--spot-check", defaults.spot_check)?,
        max_queue: p.num("--max-queue", defaults.max_queue)?,
        read_deadline_ms: p.at_least_one("--read-deadline-ms", defaults.read_deadline_ms)?,
    })?;
    eprintln!("iris serve: listening on {}", server.addr());
    wait_for_sigint();
    let jobs = server.stop();
    Ok(format!(
        "coordinator stopped — {jobs} job{} completed\n",
        plural(jobs)
    ))
}

/// `iris worker`: compute leased ranges until Ctrl-C (or `--once`).
/// Defaults are [`WorkerOptions::default`]'s.
fn cmd_worker(p: &Parsed) -> Result<String, CliError> {
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        connect: p.required("--connect").to_owned(),
        target: target(p)?,
        once: p.has("--once"),
        heartbeat_ms: p.num("--heartbeat-ms", defaults.heartbeat_ms)?,
        backoff: BackoffPolicy {
            attempts: p.num("--reconnect-attempts", defaults.backoff.attempts)?,
            base_ms: p.num("--reconnect-base-ms", defaults.backoff.base_ms)?,
            max_ms: p.num("--reconnect-max-ms", defaults.backoff.max_ms)?,
            jitter_seed: p.num("--jitter-seed", defaults.backoff.jitter_seed)?,
        },
        corrupt_after: p.parsed("--corrupt-after")?,
        stop: Some(sigint::install()),
        ..defaults
    };
    let summary = run_worker(&opts)?;
    let (leases, jobs, falsified) = (
        summary.chunks_done,
        summary.jobs_done,
        summary.results_corrupted,
    );
    let mut out = format!(
        "worker stopped — {leases} lease{} computed across {jobs} job{}\n",
        plural(leases),
        plural(jobs)
    );
    if falsified > 0 {
        out += &format!(
            "byzantine test hook: {falsified} result{} deliberately falsified\n",
            plural(falsified)
        );
    }
    Ok(out)
}

/// `iris chaos`: the seeded network-chaos proxy between workers and a
/// coordinator, until Ctrl-C. Defaults are [`ChaosOptions::default`]'s.
fn cmd_chaos(p: &Parsed) -> Result<String, CliError> {
    let defaults = ChaosOptions::default();
    let seed = p.num("--seed", defaults.seed)?;
    let proxy = ChaosProxy::start(ChaosOptions {
        listen: p.value("--listen").map_or(defaults.listen, str::to_owned),
        upstream: p.required("--connect").to_owned(),
        seed,
        destructive_budget: p.num("--budget", defaults.destructive_budget)?,
    })?;
    eprintln!("iris chaos: listening on {} (seed {seed})", proxy.addr());
    wait_for_sigint();
    let conns = proxy.connections();
    proxy.stop();
    Ok(format!(
        "chaos proxy stopped — {conns} connection{} relayed\n",
        plural(conns)
    ))
}

fn submit_campaign(p: &Parsed) -> Result<String, CliError> {
    cmd_submit(p, Family::Campaign)
}

fn submit_guided(p: &Parsed) -> Result<String, CliError> {
    cmd_submit(p, Family::Guided)
}

/// `iris submit`: deliver the [`job_spec`] the in-process command of
/// the same family would run to a fleet and wait for the report.
/// `--json` writes the **received bytes** verbatim — the artifact CI
/// byte-diffs against the in-process `--jobs 1` run's.
fn cmd_submit(p: &Parsed, family: Family) -> Result<String, CliError> {
    let spec = job_spec(p, family)?;
    let connect = p.required("--connect");
    let show_progress = std::io::stderr().is_terminal();
    let outcome = dist_submit(connect, &spec, |done, total, folded| {
        if show_progress {
            eprint!("\rdistributed: {done}/{total} units, {folded} folds");
        }
    })?;
    if show_progress {
        eprintln!();
    }
    let mut out = format!(
        "job #{} complete on the fleet at {connect}\nfingerprint: {}\n",
        outcome.job_id, outcome.fingerprint
    );
    // Summarize from the received report; the bytes themselves are the
    // artifact.
    match family {
        Family::Campaign => {
            if let Ok(report) = serde_json::from_str::<CampaignReport>(&outcome.report) {
                out.push_str(&format!(
                    "total: {} mutants, {} lines covered, crashes {} VM / {} hypervisor\n",
                    report.failures.submitted,
                    report.coverage.lines(),
                    report.failures.vm_crashes,
                    report.failures.hv_crashes
                ));
            }
        }
        Family::Guided => {
            if let Ok(result) = serde_json::from_str::<GuidedResult>(&outcome.report) {
                out.push_str(&render_guided_result(&result));
            }
        }
    }
    if let Some(path) = p.path("--json") {
        atomic_write_json(&path, outcome.report.as_bytes())?;
        out.push_str(&format!("report JSON written to {}\n", path.display()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn help_and_bad_usage() {
        assert!(run(&args("help")).unwrap().contains("USAGE"));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&args("bogus")), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args("record martian")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn record_reports_histogram() {
        let out = run(&args("record cpu_bound --exits 120 --seed 7")).unwrap();
        assert!(out.contains("recorded 120 exits"));
        assert!(out.contains("RDTSC"));
    }

    #[test]
    fn replay_reports_fitting_and_speedup() {
        let out = run(&args("replay idle --exits 80")).unwrap();
        assert!(out.contains("coverage fitting"));
        assert!(out.contains("decrease"));
    }

    #[test]
    fn cold_replay_of_cpu_bound_reports_crash() {
        let out = run(&args("replay cpu_bound --exits 50 --cold")).unwrap();
        assert!(out.contains("dummy VM crashed"), "{out}");
        assert!(out.contains("bad RIP"));
    }

    #[test]
    fn fuzz_reports_coverage_and_crashes() {
        let out = run(&args("fuzz os_boot --exits 100 --mutants 60")).unwrap();
        assert!(out.contains("new coverage"));
        assert!(out.contains("crashes:"));
    }

    #[test]
    fn campaign_is_deterministic_across_jobs() {
        let one = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 1")).unwrap();
        let two = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 2")).unwrap();
        let eight = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 8")).unwrap();
        // The sharded executor is deterministic, so even the rendered
        // text agrees apart from the worker count in the header.
        let strip = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&two));
        assert_eq!(strip(&one), strip(&eight));
        assert!(one.contains("corpus:"), "{one}");
        assert!(one.contains("unique signatures"), "{one}");
    }

    #[test]
    fn campaign_rejects_zero_jobs() {
        assert!(matches!(
            run(&args("campaign os_boot --exits 80 --jobs 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn forest_flag_is_validated() {
        // A cap without the flag is a usage error, as is cap 0; every
        // guided mode takes the flag (ensembles run the same engine).
        assert!(matches!(
            run(&args("campaign os_boot --exits 80 --forest-cap 8")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args("campaign os_boot --exits 80 --forest --forest-cap 0")),
            Err(CliError::Usage(_))
        ));
        let ensemble = "guided os_boot --exits 80 --budget 100 --jobs 2 --mode ensemble";
        assert_eq!(
            run(&args(&format!("{ensemble} --forest"))).unwrap(),
            run(&args(ensemble)).unwrap(),
            "the forest changes replay cost, never results"
        );
    }

    #[test]
    fn campaign_forest_is_byte_identical_to_forest_off() {
        // The snapshot forest changes replay cost, never report bytes:
        // apart from the header's forest note the rendered output (and
        // thus the underlying report) matches the classic reset path,
        // under eviction pressure too.
        let strip = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let off = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 2")).unwrap();
        let on = run(&args(
            "campaign os_boot --exits 120 --mutants 25 --jobs 2 --forest",
        ))
        .unwrap();
        let tight = run(&args(
            "campaign os_boot --exits 120 --mutants 25 --jobs 2 --forest --forest-cap 2",
        ))
        .unwrap();
        assert!(on.contains("forest (cap 64)"), "{on}");
        assert_eq!(strip(&off), strip(&on));
        assert_eq!(strip(&off), strip(&tight));
    }

    #[test]
    fn fuzz_shards_a_single_test_case_deterministically() {
        // With chunked work stealing a single test case spreads across
        // the pool; apart from the shard note the output is
        // byte-identical for any (jobs, chunk).
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("sharded into"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let solo = run(&args("fuzz os_boot --exits 100 --mutants 40 --jobs 1")).unwrap();
        assert!(!solo.contains("sharded into"), "{solo}");
        let sharded = run(&args(
            "fuzz os_boot --exits 100 --mutants 40 --jobs 2 --chunk 10",
        ))
        .unwrap();
        assert!(sharded.contains("sharded into 4 chunks"), "{sharded}");
        assert_eq!(strip(&solo), strip(&sharded));
    }

    #[test]
    fn campaign_is_deterministic_across_chunk_sizes() {
        let strip = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let whole = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 2")).unwrap();
        let fine = run(&args(
            "campaign os_boot --exits 120 --mutants 25 --jobs 2 --chunk 7",
        ))
        .unwrap();
        assert_eq!(strip(&whole), strip(&fine));
        assert!(fine.contains("chunk 7"), "{fine}");
    }

    #[test]
    fn campaign_rejects_zero_chunk() {
        assert!(matches!(
            run(&args("campaign os_boot --exits 80 --chunk 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn campaign_writes_report_json_and_corpus() {
        let dir = std::env::temp_dir();
        let json = dir.join("iris-cli-campaign-report.json");
        let corpus = dir.join("iris-cli-campaign-corpus.json");
        let out = run(&args(&format!(
            "campaign os_boot --exits 120 --mutants 30 --jobs 2 --chunk 16 --json {} --corpus {}",
            json.display(),
            corpus.display()
        )))
        .unwrap();
        assert!(out.contains("report JSON written"), "{out}");
        assert!(out.contains("corpus written"), "{out}");
        let report: CampaignReport =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(!report.results.is_empty());
        let saved = iris_fuzzer::corpus::Corpus::load(&corpus).unwrap();
        assert_eq!(saved.observed(), report.corpus.observed());
        assert_eq!(saved.unique(), report.corpus.unique());
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&corpus).ok();
    }

    #[test]
    fn campaign_surfaces_corpus_write_errors() {
        let bad = std::env::temp_dir()
            .join("iris-no-such-dir")
            .join("corpus.json");
        let err = run(&args(&format!(
            "campaign os_boot --exits 100 --mutants 20 --corpus {}",
            bad.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert!(err.to_string().contains("iris-no-such-dir"), "{err}");
    }

    #[test]
    fn targets_lists_registered_backends() {
        let out = run(&args("targets")).unwrap();
        assert!(out.contains("iris"), "{out}");
        assert!(out.contains("[default]"), "{out}");
        assert!(out.contains("faulty"), "{out}");
        assert!(out.contains("planted handler bugs"), "{out}");
    }

    #[test]
    fn unknown_target_is_a_usage_error() {
        assert!(matches!(
            run(&args("campaign os_boot --exits 80 --target martian")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn faulty_campaign_reports_planted_fault_detection() {
        let out = run(&args(
            "campaign os_boot --exits 200 --mutants 150 --jobs 2 --target faulty",
        ))
        .unwrap();
        assert!(out.contains("target faulty"), "{out}");
        assert!(out.contains("planted faults: 3/3 detected"), "{out}");
        assert!(out.contains("cpuid reserved-leaf BUG"), "{out}");
        assert!(out.contains("cr-access qualification pointer"), "{out}");
        assert!(out.contains("io DMA window overflow"), "{out}");
        assert!(!out.contains("MISSED"), "{out}");
    }

    #[test]
    fn faulty_campaign_is_deterministic_across_jobs() {
        let strip = |s: &str| {
            s.lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = run(&args(
            "campaign os_boot --exits 120 --mutants 25 --jobs 1 --target faulty",
        ))
        .unwrap();
        let two = run(&args(
            "campaign os_boot --exits 120 --mutants 25 --jobs 2 --target faulty",
        ))
        .unwrap();
        assert_eq!(strip(&one), strip(&two));
    }

    #[test]
    fn stock_campaign_never_prints_the_faulty_section() {
        let out = run(&args("campaign os_boot --exits 120 --mutants 25 --jobs 1")).unwrap();
        assert!(out.contains("target iris"), "{out}");
        assert!(!out.contains("planted faults"), "{out}");
    }

    #[test]
    fn guided_accepts_a_target() {
        let out = run(&args(
            "guided os_boot --exits 150 --budget 200 --target faulty",
        ))
        .unwrap();
        assert!(out.contains("target faulty"), "{out}");
        assert!(out.contains("promotions"), "{out}");
    }

    #[test]
    fn guided_shared_is_deterministic_across_jobs() {
        let dir = std::env::temp_dir();
        let j1 = dir.join("iris-cli-guided-jobs1.json");
        let j2 = dir.join("iris-cli-guided-jobs2.json");
        let one = run(&args(&format!(
            "guided os_boot --exits 150 --budget 300 --gen 64 --jobs 1 --json {}",
            j1.display()
        )))
        .unwrap();
        let two = run(&args(&format!(
            "guided os_boot --exits 150 --budget 300 --gen 64 --jobs 2 --json {}",
            j2.display()
        )))
        .unwrap();
        assert!(one.contains("mode shared"), "{one}");
        // Apart from the worker count in the header, even the rendered
        // text agrees; the JSON artifacts are byte-identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("mode shared") && !l.starts_with("result JSON written"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&two));
        assert_eq!(
            std::fs::read_to_string(&j1).unwrap(),
            std::fs::read_to_string(&j2).unwrap(),
            "shared-mode result JSON must be byte-identical across --jobs"
        );
        std::fs::remove_file(&j1).ok();
        std::fs::remove_file(&j2).ok();
    }

    #[test]
    fn guided_shared_writes_the_crash_corpus() {
        let corpus = std::env::temp_dir().join("iris-cli-guided-corpus.json");
        let out = run(&args(&format!(
            "guided os_boot --exits 150 --budget 400 --jobs 2 --corpus {}",
            corpus.display()
        )))
        .unwrap();
        assert!(out.contains("corpus written"), "{out}");
        let saved = Corpus::load(&corpus).unwrap();
        assert!(
            saved.observed() > 0,
            "a 400-execution run crashes something"
        );
        std::fs::remove_file(&corpus).ok();
    }

    #[test]
    fn guided_surfaces_corpus_write_errors() {
        let bad = std::env::temp_dir()
            .join("iris-no-such-dir")
            .join("guided-corpus.json");
        let err = run(&args(&format!(
            "guided os_boot --exits 120 --budget 200 --corpus {}",
            bad.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert!(err.to_string().contains("iris-no-such-dir"), "{err}");
    }

    #[test]
    fn json_write_error_does_not_cost_the_corpus_artifact() {
        // Both artifacts are attempted even when one fails: a bad
        // --json path must still leave the --corpus snapshot on disk
        // (and the writer joined), with the JSON error surfaced.
        let corpus = std::env::temp_dir().join("iris-cli-guided-json-err-corpus.json");
        std::fs::remove_file(&corpus).ok();
        let bad_json = std::env::temp_dir()
            .join("iris-no-such-dir")
            .join("result.json");
        let err = run(&args(&format!(
            "guided os_boot --exits 150 --budget 400 --json {} --corpus {}",
            bad_json.display(),
            corpus.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        let saved = Corpus::load(&corpus).expect("corpus artifact must still be written");
        assert!(saved.observed() > 0);
        std::fs::remove_file(&corpus).ok();
    }

    #[test]
    fn guided_ensemble_runs_independent_instances() {
        let out = run(&args(
            "guided os_boot --exits 150 --budget 150 --jobs 2 --mode ensemble",
        ))
        .unwrap();
        assert!(out.contains("mode ensemble"), "{out}");
        assert!(out.contains("seed  42"), "{out}");
        assert!(out.contains("seed  43"), "{out}");
        assert!(out.contains("best instance"), "{out}");
    }

    #[test]
    fn guided_rejects_bad_mode_and_zero_gen() {
        assert!(matches!(
            run(&args("guided os_boot --exits 100 --mode martian")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args("guided os_boot --exits 100 --gen 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn campaign_checkpoint_then_resume_is_byte_identical() {
        let dir = std::env::temp_dir();
        let ckpt = dir.join("iris-cli-campaign-ckpt.json");
        let j1 = dir.join("iris-cli-campaign-ckpt-ref.json");
        let j2 = dir.join("iris-cli-campaign-ckpt-resumed.json");
        std::fs::remove_file(&ckpt).ok();
        let first = run(&args(&format!(
            "campaign os_boot --exits 120 --mutants 25 --jobs 2 --checkpoint {} --json {}",
            ckpt.display(),
            j1.display()
        )))
        .unwrap();
        assert!(first.contains("checkpoint at"), "{first}");
        assert!(!first.contains("interrupted"), "{first}");
        // The completed run left a complete checkpoint; resuming from
        // it (with different sharding) is instant and byte-identical.
        let resumed = run(&args(&format!(
            "campaign os_boot --exits 120 --mutants 25 --jobs 1 --chunk 7 --resume {} --json {}",
            ckpt.display(),
            j2.display()
        )))
        .unwrap();
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert_eq!(
            std::fs::read_to_string(&j1).unwrap(),
            std::fs::read_to_string(&j2).unwrap(),
            "resumed report must be byte-identical to the original"
        );
        for p in [&ckpt, &j1, &j2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn guided_checkpoint_then_resume_is_byte_identical() {
        let dir = std::env::temp_dir();
        let ckpt = dir.join("iris-cli-guided-ckpt.json");
        let j1 = dir.join("iris-cli-guided-ckpt-ref.json");
        let j2 = dir.join("iris-cli-guided-ckpt-resumed.json");
        std::fs::remove_file(&ckpt).ok();
        let first = run(&args(&format!(
            "guided os_boot --exits 150 --budget 300 --gen 64 --jobs 2 --checkpoint {} --json {}",
            ckpt.display(),
            j1.display()
        )))
        .unwrap();
        assert!(first.contains("checkpoint at"), "{first}");
        let resumed = run(&args(&format!(
            "guided os_boot --exits 150 --budget 300 --gen 64 --jobs 1 --resume {} --json {}",
            ckpt.display(),
            j2.display()
        )))
        .unwrap();
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert_eq!(
            std::fs::read_to_string(&j1).unwrap(),
            std::fs::read_to_string(&j2).unwrap(),
            "resumed result must be byte-identical to the original"
        );
        for p in [&ckpt, &j1, &j2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn resume_from_a_missing_file_starts_fresh() {
        let missing = std::env::temp_dir().join("iris-cli-no-such-checkpoint.json");
        std::fs::remove_file(&missing).ok();
        let out = run(&args(&format!(
            "guided os_boot --exits 150 --budget 200 --resume {}",
            missing.display()
        )))
        .unwrap();
        assert!(out.contains("starting fresh"), "{out}");
        assert!(out.contains("promotions"), "{out}");
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_run() {
        let ckpt = std::env::temp_dir().join("iris-cli-mismatch-ckpt.json");
        std::fs::remove_file(&ckpt).ok();
        run(&args(&format!(
            "campaign os_boot --exits 120 --mutants 25 --checkpoint {}",
            ckpt.display()
        )))
        .unwrap();
        // Same file, different configuration (mutant count) — the
        // fingerprint embedded in the checkpoint must reject it.
        let err = run(&args(&format!(
            "campaign os_boot --exits 120 --mutants 30 --resume {}",
            ckpt.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn ensemble_mode_rejects_durability_flags() {
        for flag in ["--checkpoint", "--resume"] {
            let err = run(&args(&format!(
                "guided os_boot --exits 100 --budget 100 --mode ensemble {flag} x.json"
            )))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("--mode shared"), "{err}");
        }
    }

    #[test]
    fn memory_augmented_replay_reaches_full_fitting() {
        let out = run(&args("replay io_bound --exits 120 --memory")).unwrap();
        assert!(out.contains("coverage fitting: 100.0%"), "{out}");
    }

    #[test]
    fn guided_subcommand_reports_growth() {
        let out = run(&args("guided os_boot --exits 150 --budget 200")).unwrap();
        assert!(out.contains("guided fuzzing"), "{out}");
        assert!(out.contains("promotions"));
    }

    #[test]
    fn lint_reports_the_workspace_clean() {
        // The shipped tree must satisfy its own laws: every violation
        // is either fixed or carries a reasoned `lint:allow`.
        let out = run(&args("lint")).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("files scanned"), "{out}");
    }

    #[test]
    fn lint_flags_a_violating_tree_and_still_writes_json() {
        let root = std::env::temp_dir().join("iris-cli-lint-bad");
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(
            root.join("Cargo.toml"),
            "[workspace]\n[package]\nname = \"bad\"\n",
        )
        .unwrap();
        std::fs::write(
            root.join("src/lib.rs"),
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        )
        .unwrap();
        let json = root.join("lint-report.json");
        let err = run(&args(&format!(
            "lint --root {} --json {}",
            root.display(),
            json.display()
        )))
        .unwrap_err();
        // An unsafe block without a SAFETY comment is a finding, the
        // command fails, and the JSON artifact is written anyway.
        assert!(matches!(err, CliError::Lint(_)), "{err}");
        assert!(err.to_string().contains("unsafe-audit"), "{err}");
        let payload = std::fs::read_to_string(&json).unwrap();
        assert!(payload.contains("\"unsafe-audit\""), "{payload}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn distributed_subcommands_validate_their_usage() {
        // `worker`/`submit` require a coordinator address; `submit`
        // requires a known family and workload. All are usage errors
        // before any socket is touched.
        assert!(matches!(
            run(&args("worker")),
            Err(CliError::Usage(s)) if s.contains("--connect")
        ));
        assert!(matches!(run(&args("submit")), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args("submit replay os_boot --connect 127.0.0.1:1")),
            Err(CliError::Usage(s)) if s.contains("campaign | guided")
        ));
        assert!(matches!(
            run(&args("submit campaign os_boot")),
            Err(CliError::Usage(s)) if s.contains("--connect")
        ));
        assert!(matches!(
            run(&args("submit campaign martian --connect 127.0.0.1:1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args("submit guided os_boot --connect 127.0.0.1:1 --gen 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args("serve --lease-timeout-ms 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn submit_against_a_dead_coordinator_is_a_dist_error() {
        // Port 1 on loopback is never a coordinator; the connection
        // failure surfaces as the typed Dist variant, not a panic.
        let err = run(&args(
            "submit campaign os_boot --connect 127.0.0.1:1 --exits 50",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Dist(_)), "{err}");
    }

    #[test]
    fn record_then_report_round_trip() {
        let tmp = std::env::temp_dir().join("iris-cli-test.json");
        let out = run(&[
            "record".into(),
            "idle".into(),
            "--exits".into(),
            "40".into(),
            "--out".into(),
            tmp.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("trace written"));
        let rep = run(&["report".into(), tmp.to_string_lossy().into_owned()]).unwrap();
        assert!(rep.contains("40 seeds"));
        std::fs::remove_file(&tmp).ok();
    }
}
