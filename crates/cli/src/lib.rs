//! # iris-cli — the user-space command-line interface
//!
//! The paper's Fig. 3 shows a CLI in Dom0 driving the IRIS manager
//! through the `xc_vmcs_fuzzing` hypercall. This crate is that tool for
//! the simulated stack: argument parsing, the record / replay / fuzz /
//! report subcommands, and text rendering of the results. The `iris`
//! binary is a thin `main` over [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use iris_core::forest::ForestConfig;
use iris_core::manager::{IrisManager, Mode};
use iris_core::metrics;
use iris_core::record::RecordConfig;
use iris_core::seed_db::SeedDb;
use iris_dist::backoff::BackoffPolicy;
use iris_dist::chaos::{ChaosOptions, ChaosProxy};
use iris_dist::client::submit as dist_submit;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_dist::DistError;
use iris_fuzzer::checkpoint::{
    atomic_write_json, campaign_fingerprint, guided_fingerprint, CampaignCheckpoint,
    GuidedCheckpoint, JsonWriter, SessionError,
};
use iris_fuzzer::corpus::{Corpus, CorpusWriter};
use iris_fuzzer::executor::{run_ordered, RunPolicy};
use iris_fuzzer::guided::{
    run_guided_shared_session, run_guided_shared_with, GuidedConfig, GuidedResult, SharedRunOptions,
};
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::{available_jobs, CampaignReport, CampaignRunOptions, ParallelCampaign};
use iris_fuzzer::table1::Table1;
use iris_fuzzer::target::{render_planted_fault_report, Backend, ConfiguredBackend, TargetFactory};
use iris_fuzzer::testcase::{TestCase, DEFAULT_CHUNK};
use iris_guest::workloads::Workload;
use std::io::IsTerminal;
use std::path::PathBuf;

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

/// Top-level help text.
pub const USAGE: &str = "\
iris — record & replay framework for hardware-assisted virtualization fuzzing

USAGE:
    iris record   <workload> [--exits N] [--seed S] [--out FILE.json]
    iris replay   <workload> [--exits N] [--seed S] [--cold] [--memory]
    iris fuzz     <workload> [--exits N] [--mutants M] [--area vmcs|gpr] [--reason R] [--jobs N] [--chunk C] [--target T]
    iris campaign <workload> [--exits N] [--mutants M] [--jobs N] [--chunk C] [--target T] [--forest] [--forest-cap N] [--json FILE] [--corpus FILE] [--checkpoint FILE] [--resume FILE]
    iris guided   <workload> [--exits N] [--budget B] [--gen G] [--jobs N] [--mode shared|ensemble] [--target T] [--forest] [--forest-cap N] [--json FILE] [--corpus FILE] [--checkpoint FILE] [--resume FILE]
    iris targets
    iris report   <FILE.json>
    iris lint     [--root PATH] [--json FILE]
    iris serve    [--listen ADDR] [--checkpoint FILE] [--resume FILE] [--progress FILE] [--lease-timeout-ms N]
                  [--redundancy K] [--spot-check N] [--max-queue N] [--read-deadline-ms N]
    iris worker   --connect ADDR [--target T] [--once] [--heartbeat-ms N]
                  [--reconnect-attempts N] [--reconnect-base-ms N] [--reconnect-max-ms N] [--jitter-seed S] [--corrupt-after N]
    iris submit   campaign <workload> --connect ADDR [--exits N] [--seed S] [--mutants M] [--chunk C] [--target T] [--json FILE]
    iris submit   guided   <workload> --connect ADDR [--exits N] [--seed S] [--budget B] [--gen G] [--target T] [--json FILE]
    iris chaos    --connect ADDR [--listen ADDR] [--seed S] [--budget N]

WORKLOADS: os_boot | cpu_bound | mem_bound | io_bound | idle

`campaign` fuzzes every (exit reason x seed area) cell the trace offers,
sharded over N worker threads (default: available parallelism) stealing
work in chunks of C mutants (default: 256). Results are deterministic:
the same cells, crashes, and corpus for any N and any C — chunking only
changes the load balance, so even `fuzz`'s single test case spreads
across the pool. `--json` writes the campaign report (byte-identical
across N and C); `--corpus` persists the crash corpus through a
background writer so the campaign never pauses on JSON I/O.
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
byte-identical with the forest on or off, for any --jobs/--chunk — the
flag changes replay cost only. `--forest-cap N` bounds the live node
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
and chunk size may change across a resume — the final report stays
byte-identical to an uninterrupted run. Ctrl-C stops gracefully: the
run finishes in-flight work, writes a final checkpoint, and still
flushes the --json/--corpus artifacts (a second Ctrl-C kills
immediately). `--checkpoint`/`--resume` reject `--mode ensemble`.

Distributed service (DISTRIBUTED.md): `serve` runs the coordinator
daemon (default --listen 127.0.0.1:7331); `worker` processes connect to
it and compute leased chunk/slot ranges, surviving coordinator restarts
by reconnecting; `submit` delivers a campaign or guided job and waits
for the report — byte-identical to the same run's in-process
`campaign`/`guided` with `--jobs 1`, for any fleet size, including
under worker death (ranges re-lease and re-execute identically) and
coordinator kill + `--resume` (checkpoints at every fold boundary, same
files as the in-process `--checkpoint` flow). `submit --json` writes
the received report; defaults mirror the in-process subcommands.

Adversarial hardening (DISTRIBUTED.md, Failure and trust model):
`serve --redundancy K` leases every range to K distinct workers and
folds only on digest agreement — divergence triggers a local
re-execution and quarantines the lying workers (a typed event in the
--progress artifact); `--spot-check N` audits a deterministic 1-in-N
sample of accepted ranges the same way; `--max-queue` bounds waiting
submissions (typed Busy rejection); `--read-deadline-ms` bounds the
wall time any peer may spend inside one frame (slowloris defense).
Workers reconnect under bounded exponential backoff with deterministic
jitter (`--reconnect-*`, `--jitter-seed`); `--corrupt-after N` is a
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
";

fn parse_workload(name: &str) -> Result<Workload, CliError> {
    match name {
        "os_boot" => Ok(Workload::OsBoot),
        "cpu_bound" => Ok(Workload::CpuBound),
        "mem_bound" => Ok(Workload::MemBound),
        "io_bound" => Ok(Workload::IoBound),
        "idle" => Ok(Workload::Idle),
        other => Err(CliError::Usage(format!(
            "unknown workload '{other}'\n\n{USAGE}"
        ))),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for {flag}: {v}"))),
    }
}

/// Run the CLI against `args` (without the program name). Returns the
/// text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    match cmd.as_str() {
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "guided" => cmd_guided(&args[1..]),
        "targets" => Ok(cmd_targets()),
        "report" => cmd_report(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "worker" => cmd_worker(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

fn setup(args: &[String]) -> Result<(IrisManager, Workload, usize, u64), CliError> {
    let w = parse_workload(
        args.first()
            .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?,
    )?;
    let exits: usize = parse_num(args, "--exits", 5000)?;
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let mut mgr = IrisManager::new(64 << 20);
    if w != Workload::OsBoot {
        mgr.boot_test_vm();
    }
    Ok((mgr, w, exits, seed))
}

fn cmd_record(args: &[String]) -> Result<String, CliError> {
    let (mut mgr, w, exits, seed) = setup(args)?;
    let ops = w.generate(exits, seed);
    let trace = mgr.record(w.label(), ops, RecordConfig::default());
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
    if let Some(path) = flag_value(args, "--out") {
        let trace = mgr.db.get(w.label()).expect("just recorded");
        SeedDb::save_json(trace, &PathBuf::from(&path))?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn cmd_replay(args: &[String]) -> Result<String, CliError> {
    let (mut mgr, w, exits, seed) = setup(args)?;
    let cold = args.iter().any(|a| a == "--cold");
    let with_memory = args.iter().any(|a| a == "--memory");
    let ops = w.generate(exits, seed);
    mgr.record(
        w.label(),
        ops,
        RecordConfig {
            record_memory: with_memory,
            ..RecordConfig::default()
        },
    );
    let recorded = mgr.db.get(w.label()).expect("recorded").clone();

    let t0 = mgr.hv.tsc.now();
    let replayed = mgr.replay(w.label(), Mode::ReplayWithMetrics, !cold);
    let replay_ms = (mgr.hv.tsc.now() - t0) as f64 / 3.6e6;

    let fit = metrics::coverage_fitting(&recorded, &replayed);
    let eff = metrics::efficiency(&recorded, replay_ms);
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
        let msg = mgr
            .hv
            .log
            .grep("bad RIP")
            .last()
            .map(|l| l.message.clone())
            .unwrap_or_else(|| "crash".to_owned());
        out.push_str(&format!("dummy VM crashed: {msg}\n"));
    }
    Ok(out)
}

fn cmd_fuzz(args: &[String]) -> Result<String, CliError> {
    let (mut mgr, w, exits, seed) = setup(args)?;
    let mutants: usize = parse_num(args, "--mutants", 500)?;
    let area = match flag_value(args, "--area").as_deref() {
        None | Some("vmcs") => SeedArea::Vmcs,
        Some("gpr") => SeedArea::Gpr,
        Some(other) => {
            return Err(CliError::Usage(format!("bad --area {other}")));
        }
    };
    let ops = w.generate(exits, seed);
    mgr.record(w.label(), ops, RecordConfig::default());
    let trace = mgr.db.get(w.label()).expect("recorded").clone();

    let reason_filter = flag_value(args, "--reason");
    let idx = trace
        .seeds
        .iter()
        .position(|s| match &reason_filter {
            None => true,
            Some(r) => s.reason.figure_label().eq_ignore_ascii_case(r),
        })
        .ok_or_else(|| CliError::Usage("no seed matches --reason".to_owned()))?;

    let tc = TestCase {
        mutants,
        ..TestCase::new(w, idx, trace.seeds[idx].reason, area, seed)
    };
    let jobs = parse_jobs(args)?;
    let chunk = parse_chunk(args)?;
    let backend = parse_target(args)?;
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

/// `--jobs N` (default: the host's available parallelism).
fn parse_jobs(args: &[String]) -> Result<usize, CliError> {
    let jobs = parse_num(args, "--jobs", available_jobs())?;
    if jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".to_owned()));
    }
    Ok(jobs)
}

/// `--chunk C` (default: [`DEFAULT_CHUNK`]): the work-stealing
/// granularity in mutants. Results are byte-identical for every value;
/// only the load balance changes.
fn parse_chunk(args: &[String]) -> Result<usize, CliError> {
    let chunk = parse_num(args, "--chunk", DEFAULT_CHUNK)?;
    if chunk == 0 {
        return Err(CliError::Usage("--chunk must be at least 1".to_owned()));
    }
    Ok(chunk)
}

/// `--forest` / `--forest-cap N`: the copy-on-write snapshot-forest
/// reset strategy (default: off; cap default
/// [`ForestConfig::DEFAULT_CAP`]). Reports are byte-identical with the
/// forest on or off — only replay cost changes (O(delta) instead of
/// O(prefix); PERFORMANCE.md §snapshot forest).
fn parse_forest(args: &[String]) -> Result<Option<ForestConfig>, CliError> {
    let enabled = args.iter().any(|a| a == "--forest");
    if !enabled {
        if flag_value(args, "--forest-cap").is_some() {
            return Err(CliError::Usage("--forest-cap requires --forest".to_owned()));
        }
        return Ok(None);
    }
    let cap: usize = parse_num(args, "--forest-cap", ForestConfig::DEFAULT_CAP)?;
    if cap == 0 {
        return Err(CliError::Usage(
            "--forest-cap must be at least 1".to_owned(),
        ));
    }
    Ok(Some(ForestConfig { cap }))
}

/// `--target NAME` (default: the stock `iris` backend). The parsed
/// [`Backend`] is itself a [`TargetFactory`], so it plugs straight into
/// the drivers.
fn parse_target(args: &[String]) -> Result<Backend, CliError> {
    match flag_value(args, "--target") {
        None => Ok(Backend::Iris),
        Some(name) => Backend::parse(&name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown target '{name}' — `iris targets` lists the registered backends"
            ))
        }),
    }
}

/// `--checkpoint FILE` / `--resume FILE`: the durable-progress flags
/// shared by `campaign` and `guided` (shared mode).
fn parse_durability(args: &[String]) -> (Option<PathBuf>, Option<PathBuf>) {
    (
        flag_value(args, "--checkpoint").map(PathBuf::from),
        flag_value(args, "--resume").map(PathBuf::from),
    )
}

/// Resolve `--resume`: a missing file is a fresh start (so a crash
/// before the first checkpoint write — or a stale path — cannot strand
/// the user), while a present one must load and match this
/// invocation's `fingerprint`. Returns the loaded checkpoint (if any)
/// plus a note line for the report header.
fn load_resume<T>(
    resume: Option<&PathBuf>,
    fingerprint: &str,
    load: impl FnOnce(&std::path::Path, &str) -> std::io::Result<T>,
) -> Result<(Option<T>, String), CliError> {
    match resume {
        None => Ok((None, String::new())),
        Some(path) if !path.exists() => Ok((
            None,
            format!("no checkpoint at {} — starting fresh\n", path.display()),
        )),
        Some(path) => {
            let cp = load(path, fingerprint)?;
            Ok((Some(cp), format!("resumed from {}\n", path.display())))
        }
    }
}

/// The interruption note appended when a Ctrl-C stopped the run short,
/// with the resume hint if the progress was checkpointed.
fn interrupted_note(done: u64, total: u64, what: &str, checkpoint: Option<&PathBuf>) -> String {
    let mut note = format!("interrupted — {done}/{total} {what} finished");
    if let Some(path) = checkpoint {
        note.push_str(&format!("; resume with --resume {}", path.display()));
    }
    note.push('\n');
    note
}

/// Map a session failure to the user: a `--resume` checkpoint the
/// engine refused names its file, like every other checkpoint error.
fn session_error(e: SessionError, resume: Option<&PathBuf>) -> CliError {
    match (e, resume) {
        (SessionError::Checkpoint(e), Some(path)) => CliError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("checkpoint {} is inconsistent: {e}", path.display()),
        )),
        (e, _) => CliError::Run(e),
    }
}

fn cmd_targets() -> String {
    let mut out = String::from("registered fuzz targets (select with --target NAME):\n");
    for b in Backend::ALL {
        out.push_str(&format!(
            "  {:<8} {}{}\n",
            b.name(),
            b.description(),
            if b == Backend::Iris {
                "  [default]"
            } else {
                ""
            }
        ));
    }
    out
}

fn cmd_campaign(args: &[String]) -> Result<String, CliError> {
    let (mut mgr, w, exits, seed) = setup(args)?;
    let mutants: usize = parse_num(args, "--mutants", 200)?;
    let jobs = parse_jobs(args)?;
    let chunk = parse_chunk(args)?;
    let backend = parse_target(args)?;
    let forest = parse_forest(args)?;
    let ops = w.generate(exits, seed);
    mgr.record(w.label(), ops, RecordConfig::default());
    let trace = mgr.db.get(w.label()).expect("recorded").clone();

    let mut traces = std::collections::BTreeMap::new();
    traces.insert(w, trace);
    let plan = Table1::plan(&traces, mutants, seed);
    if plan.is_empty() {
        return Err(CliError::Usage(
            "trace contains no Table I exit reasons to fuzz".to_owned(),
        ));
    }

    let fingerprint =
        campaign_fingerprint(backend.name(), w.label(), exits, seed, mutants, plan.len());
    let (checkpoint_path, resume_path) = parse_durability(args);
    let (resume, resume_note) =
        load_resume(resume_path.as_ref(), &fingerprint, CampaignCheckpoint::load)?;

    // Corpus and checkpoint snapshots persist on background writer
    // threads, so the aggregator never pauses on JSON I/O; write errors
    // surface after the run. The progress line is mutant-granular (one
    // update per aggregated chunk) so huge-M cells visibly move, and
    // goes to stderr only when that is a terminal — reports stay clean.
    let corpus_path = flag_value(args, "--corpus").map(PathBuf::from);
    let writer = corpus_path.as_ref().map(|p| CorpusWriter::spawn(p.clone()));
    let ckpt_writer = checkpoint_path
        .as_ref()
        .map(|p| JsonWriter::<CampaignCheckpoint>::spawn(p.clone()));
    let stop = sigint::install();
    let show_progress = std::io::stderr().is_terminal();
    let mut last_observed = 0u64;
    let mut last_folded = resume.as_ref().map_or(0, |cp| cp.folded);
    let report =
        ParallelCampaign::with_factory(jobs, ConfiguredBackend::new(backend).with_forest(forest))
            .with_chunk(chunk)
            .run_session(
                &traces,
                &plan,
                CampaignRunOptions {
                    policy: RunPolicy {
                        stop: Some(stop),
                        ..RunPolicy::default()
                    },
                    resume,
                },
                |engine| {
                    let (p, partial) = (engine.progress(), engine.report());
                    if show_progress {
                        eprint!(
                            "\rfuzzing: {}/{} mutants, {}/{} test cases",
                            p.mutants_done,
                            p.mutants_total,
                            p.results_folded,
                            plan.len()
                        );
                    }
                    if let Some(writer) = &writer {
                        // Snapshot only when the corpus actually grew —
                        // crash-free test cases would otherwise clone and
                        // rewrite byte-identical JSON once per fold.
                        if partial.corpus.observed() > last_observed {
                            last_observed = partial.corpus.observed();
                            writer.persist(partial.corpus.clone());
                        }
                    }
                    if let Some(ckpt) = &ckpt_writer {
                        // Checkpoints live at test-case fold boundaries:
                        // the report is exactly a folded plan prefix there,
                        // which is what a resume can continue from.
                        if p.results_folded > last_folded {
                            last_folded = p.results_folded;
                            ckpt.persist(engine.checkpoint(&fingerprint));
                        }
                    }
                },
            )
            .map_err(|e| session_error(e, resume_path.as_ref()))?;
    if show_progress {
        eprintln!();
    }
    let interrupted = report.results.len() < plan.len();

    let mut out = format!(
        "campaign over {} — {} test cases ({} mutants each), {} worker{}, chunk {}, target {}{}\n",
        w.label(),
        plan.len(),
        mutants,
        jobs,
        if jobs == 1 { "" } else { "s" },
        chunk,
        backend.name(),
        forest.map_or(String::new(), |f| format!(", forest (cap {})", f.cap))
    );
    out.push_str(&resume_note);
    for r in &report.results {
        out.push_str(&format!(
            "  {:<14} {:<5} +{:>3.0}%  ({} new lines, {} VM / {} HV crashes)\n",
            r.testcase.reason.figure_label(),
            r.testcase.area.label(),
            r.coverage_increase_percent,
            r.new_lines,
            r.failures.vm_crashes,
            r.failures.hv_crashes
        ));
    }
    out.push_str(&format!(
        "total: {} mutants, {} lines covered, crashes {} VM ({:.2}%) / {} hypervisor ({:.2}%)\n",
        report.failures.submitted,
        report.coverage.lines(),
        report.failures.vm_crashes,
        report.failures.vm_crash_percent(),
        report.failures.hv_crashes,
        report.failures.hv_crash_percent()
    ));
    out.push_str(&format!(
        "corpus: {} crashes observed, {} unique signatures saved\n",
        report.corpus.observed(),
        report.corpus.unique()
    ));
    if backend == Backend::Faulty {
        // The faulty backend has a ground truth: state exactly which of
        // the planted handler bugs this campaign detected.
        out.push_str(&render_planted_fault_report(&report.corpus));
    }
    if interrupted {
        out.push_str(&interrupted_note(
            report.results.len() as u64,
            plan.len() as u64,
            "test cases",
            checkpoint_path.as_ref(),
        ));
    }
    // The serialized report is byte-identical across (jobs, chunk) —
    // the artifact CI diffs for the determinism smoke. The corpus gets
    // a final snapshot (the incremental ones may have been coalesced)
    // and the background writers' errors surface at campaign end. All
    // of this runs even when the run was interrupted — an operator's
    // Ctrl-C must not cost the artifacts gathered so far.
    finish_artifacts(
        &mut out,
        "report JSON",
        flag_value(args, "--json").map(|path| {
            (
                path,
                serde_json::to_string_pretty(&report).expect("report serializes"),
            )
        }),
        writer
            .zip(corpus_path)
            .map(|(writer, path)| (writer, path, report.corpus.clone())),
        ckpt_writer
            .zip(checkpoint_path)
            .map(|(writer, path)| (path, writer.finish())),
    )?;
    Ok(out)
}

fn cmd_guided(args: &[String]) -> Result<String, CliError> {
    let (mut mgr, w, exits, seed) = setup(args)?;
    let budget: u64 = parse_num(args, "--budget", 1500)?;
    let generation: u64 = parse_num(args, "--gen", GuidedConfig::default().generation)?;
    if generation == 0 {
        return Err(CliError::Usage("--gen must be at least 1".to_owned()));
    }
    let jobs = parse_jobs(args)?;
    let backend = parse_target(args)?;
    let mode = flag_value(args, "--mode").unwrap_or_else(|| "shared".to_owned());
    let ops = w.generate(exits, seed);
    mgr.record(w.label(), ops, RecordConfig::default());
    let trace = mgr.db.get(w.label()).expect("recorded").clone();
    let config = GuidedConfig {
        budget,
        rng_seed: seed,
        generation,
        ..GuidedConfig::default()
    };
    let forest = parse_forest(args)?;
    match mode.as_str() {
        "shared" => cmd_guided_shared(args, w, &trace, config, exits, jobs, backend, forest),
        "ensemble" => {
            let (checkpoint, resume) = parse_durability(args);
            if checkpoint.is_some() || resume.is_some() {
                // The ensemble is N independent runs with N disjoint
                // corpora — there is no single progress point to
                // snapshot, so durability is a shared-mode feature.
                return Err(CliError::Usage(
                    "--checkpoint/--resume require --mode shared".to_owned(),
                ));
            }
            cmd_guided_ensemble(args, w, &trace, config, jobs, backend, forest)
        }
        other => Err(CliError::Usage(format!(
            "bad --mode '{other}' (shared | ensemble)"
        ))),
    }
}

/// Finalize a run's on-disk artifacts: write the `--json` report (if
/// requested), join the `--corpus` background writer (if any) with a
/// final snapshot, and surface the already-joined `--checkpoint`
/// writer's result. All are **attempted unconditionally** — a JSON
/// write error must not leave the corpus snapshot unwritten or its
/// latched background errors silently dropped, and vice versa — then
/// the first failure (in output line order) is surfaced. On success,
/// one line per artifact is appended to `out`.
///
/// The JSON report goes through the same atomic tmp-file + rename as
/// the checkpoints: a crash mid-write can strand a `.tmp` sibling, but
/// never a torn artifact at the requested path.
fn finish_artifacts(
    out: &mut String,
    json_label: &str,
    json: Option<(String, String)>,
    corpus: Option<(CorpusWriter, PathBuf, Corpus)>,
    checkpoint: Option<(PathBuf, std::io::Result<u64>)>,
) -> Result<(), CliError> {
    let json_result = json.map(|(path, payload)| {
        atomic_write_json(std::path::Path::new(&path), payload.as_bytes()).map(|()| path)
    });
    let corpus_result = corpus.map(|(writer, path, snapshot)| {
        writer.persist(snapshot);
        writer.finish().map(|_| path)
    });
    let checkpoint_result = checkpoint.map(|(path, result)| result.map(|saves| (path, saves)));
    if let Some(result) = json_result {
        out.push_str(&format!("{json_label} written to {}\n", result?));
    }
    if let Some(result) = corpus_result {
        out.push_str(&format!("corpus written to {}\n", result?.display()));
    }
    if let Some(result) = checkpoint_result {
        let (path, saves) = result?;
        // Zero saves happens when the run folded nothing new (e.g. a
        // resume from an already-complete checkpoint) — the file on
        // disk is still the authoritative final state.
        out.push_str(&format!(
            "checkpoint at {} ({saves} snapshot{} written)\n",
            path.display(),
            if saves == 1 { "" } else { "s" }
        ));
    }
    Ok(())
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

/// The generational shared-corpus mode: one corpus, `jobs` workers,
/// byte-identical results for any worker count. The crash corpus
/// persists per generation through the background writer; the report
/// JSON is the determinism artifact CI byte-diffs.
#[allow(clippy::too_many_arguments)]
fn cmd_guided_shared(
    args: &[String],
    w: Workload,
    trace: &iris_core::trace::RecordedTrace,
    config: GuidedConfig,
    exits: usize,
    jobs: usize,
    backend: Backend,
    forest: Option<ForestConfig>,
) -> Result<String, CliError> {
    let fingerprint = guided_fingerprint(backend.name(), w.label(), exits, &config);
    let (checkpoint_path, resume_path) = parse_durability(args);
    let (resume, resume_note) =
        load_resume(resume_path.as_ref(), &fingerprint, GuidedCheckpoint::load)?;

    let corpus_path = flag_value(args, "--corpus").map(PathBuf::from);
    let writer = corpus_path.as_ref().map(|p| CorpusWriter::spawn(p.clone()));
    let ckpt_writer = checkpoint_path
        .as_ref()
        .map(|p| JsonWriter::<GuidedCheckpoint>::spawn(p.clone()));
    let stop = sigint::install();
    let show_progress = std::io::stderr().is_terminal();
    let mut last_observed = 0u64;
    let options = SharedRunOptions {
        policy: RunPolicy {
            stop: Some(stop),
            ..RunPolicy::default()
        },
        resume,
    };
    // Fingerprints deliberately exclude the forest flag (like jobs and
    // chunk): the report bytes are invariant under it, so a resume may
    // switch it freely (RELIABILITY.md).
    let factory = ConfiguredBackend::new(backend).with_forest(forest);
    let r = run_guided_shared_session(&factory, trace, config, jobs, options, |p| {
        if show_progress {
            eprint!(
                "\rguided: {}/{} executions, {} lines, corpus {}",
                p.executed, p.budget, p.total_lines, p.corpus_size
            );
        }
        if let Some(writer) = &writer {
            // Persist only when the crash corpus actually grew —
            // crash-free generations would otherwise rewrite
            // byte-identical JSON once per barrier.
            if p.crashes.observed() > last_observed {
                last_observed = p.crashes.observed();
                writer.persist(p.crashes.clone());
            }
        }
        if let Some(ckpt) = &ckpt_writer {
            // Every generation barrier is a resumable point; the
            // newest-wins background writer coalesces the stream.
            ckpt.persist(p.checkpoint(&fingerprint));
        }
    })
    .map_err(|e| session_error(e, resume_path.as_ref()))?;
    if show_progress {
        eprintln!();
    }
    let interrupted = r.executions < config.budget;

    let mut out = format!(
        "guided fuzzing over {} ({} executions, target {}{})\n\
         mode shared: {} worker{}, {} generations of ≤{} executions\n",
        w.label(),
        config.budget,
        backend.name(),
        forest.map_or(String::new(), |f| format!(", forest cap {}", f.cap)),
        jobs,
        if jobs == 1 { "" } else { "s" },
        r.growth.len(),
        config.generation
    );
    out.push_str(&resume_note);
    out.push_str(&render_guided_result(&r));
    if interrupted {
        out.push_str(&interrupted_note(
            r.executions,
            config.budget,
            "executions",
            checkpoint_path.as_ref(),
        ));
    }
    // The result JSON is byte-identical across --jobs — the artifact CI
    // diffs for the shared-mode determinism smoke. The corpus gets a
    // final snapshot (crashes may have arrived since the last grow-only
    // persist) and the background writers' errors surface at exit. All
    // of this runs even when the run was interrupted.
    finish_artifacts(
        &mut out,
        "result JSON",
        flag_value(args, "--json").map(|path| {
            (
                path,
                serde_json::to_string_pretty(&r).expect("result serializes"),
            )
        }),
        writer
            .zip(corpus_path)
            .map(|(writer, path)| (writer, path, r.crashes.clone())),
        ckpt_writer
            .zip(checkpoint_path)
            .map(|(writer, path)| (path, writer.finish())),
    )?;
    Ok(out)
}

/// The ensemble mode: `jobs` independent shared-corpus engines, each at
/// one worker, with distinct RNG seeds (rng_seed + i), sharded over the
/// executor — N disjoint corpora instead of N× progress on one.
fn cmd_guided_ensemble(
    args: &[String],
    w: Workload,
    trace: &iris_core::trace::RecordedTrace,
    config: GuidedConfig,
    jobs: usize,
    backend: Backend,
    forest: Option<ForestConfig>,
) -> Result<String, CliError> {
    let configs: Vec<GuidedConfig> = (0..jobs as u64)
        .map(|i| GuidedConfig {
            rng_seed: config.rng_seed + i,
            ..config
        })
        .collect();
    let factory = ConfiguredBackend::new(backend).with_forest(forest);
    let mut results = Vec::with_capacity(configs.len());
    run_ordered(
        &configs,
        jobs,
        &RunPolicy::default(),
        || (),
        |(), _, cfg| run_guided_shared_with(&factory, trace, *cfg, 1),
        |_, result| results.push(result),
    )
    .map_err(|e| CliError::Run(e.into()))?;
    let mut out = format!(
        "guided fuzzing over {} ({} executions, target {})\n\
         mode ensemble: {} independent instance{} (disjoint corpora)\n",
        w.label(),
        config.budget,
        backend.name(),
        jobs,
        if jobs == 1 { "" } else { "s" },
    );
    for (cfg, r) in configs.iter().zip(&results) {
        out.push_str(&format!(
            "  seed {:>3}: {} -> {} lines, {} promotions, {} crashes\n",
            cfg.rng_seed,
            r.baseline_lines,
            r.total_lines,
            r.promotions,
            r.failures.vm_crashes + r.failures.hv_crashes
        ));
    }
    let best = results
        .iter()
        .max_by_key(|r| r.total_lines)
        .expect("jobs >= 1");
    out.push_str("best instance:\n");
    out.push_str(&render_guided_result(best));
    // The corpus artifact merges the instances' crash corpora in config
    // order (the deterministic dedup order) and persists through the
    // background writer, surfacing its error like the shared path does.
    finish_artifacts(
        &mut out,
        "result JSON",
        flag_value(args, "--json").map(|path| {
            (
                path,
                serde_json::to_string_pretty(&results).expect("results serialize"),
            )
        }),
        flag_value(args, "--corpus").map(PathBuf::from).map(|path| {
            let mut merged = Corpus::new();
            for r in &results {
                merged.absorb(r.crashes.clone());
            }
            (CorpusWriter::spawn(path.clone()), path, merged)
        }),
        None,
    )?;
    Ok(out)
}

fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let trace = SeedDb::load_json(&PathBuf::from(path))?;
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

/// `iris lint`: the workspace's own static analyzer as a subcommand,
/// so the laws are checkable from the tool operators already have. The
/// report text is identical to the standalone `iris-lint` binary's;
/// findings surface as [`CliError::Lint`] so the process exits nonzero.
fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let root = match flag_value(args, "--root") {
        Some(path) => PathBuf::from(path),
        None => iris_lint::find_workspace_root(&std::env::current_dir()?).ok_or_else(|| {
            CliError::Usage(
                "no workspace root (a Cargo.toml with [workspace]) above the current \
                 directory — pass --root PATH"
                    .to_owned(),
            )
        })?,
    };
    let report = iris_lint::lint_workspace(&root)?;
    // The JSON artifact is written before the pass/fail decision, so a
    // failing run still leaves the machine-readable report for CI.
    if let Some(path) = flag_value(args, "--json") {
        atomic_write_json(std::path::Path::new(&path), report.render_json().as_bytes())?;
    }
    if report.is_clean() {
        Ok(report.render_text())
    } else {
        Err(CliError::Lint(report.render_text()))
    }
}

/// `iris serve`: the distributed-fuzzing coordinator daemon. Runs until
/// Ctrl-C; `--checkpoint`/`--resume` give jobs the same durable fold-
/// boundary checkpoints as the in-process flow (and interoperate with
/// its files — the fingerprints match), `--progress` streams a small
/// JSON progress artifact.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7331".to_owned());
    let (checkpoint, resume) = parse_durability(args);
    let progress = flag_value(args, "--progress").map(PathBuf::from);
    let lease_timeout_ms: u64 = parse_num(args, "--lease-timeout-ms", 10_000)?;
    if lease_timeout_ms == 0 {
        return Err(CliError::Usage(
            "--lease-timeout-ms must be at least 1".to_owned(),
        ));
    }
    let redundancy: u32 = parse_num(args, "--redundancy", 1)?;
    if redundancy == 0 {
        return Err(CliError::Usage(
            "--redundancy must be at least 1".to_owned(),
        ));
    }
    let spot_check: u64 = parse_num(args, "--spot-check", 0)?;
    let max_queue: u64 = parse_num(args, "--max-queue", 4)?;
    let read_deadline_ms: u64 = parse_num(args, "--read-deadline-ms", 10_000)?;
    if read_deadline_ms == 0 {
        return Err(CliError::Usage(
            "--read-deadline-ms must be at least 1".to_owned(),
        ));
    }
    let server = Server::start(ServeOptions {
        listen,
        checkpoint,
        resume,
        progress,
        lease_timeout_ms,
        redundancy,
        spot_check,
        max_queue,
        read_deadline_ms,
    })?;
    eprintln!("iris serve: listening on {}", server.addr());
    let stop = sigint::install();
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let jobs = server.stop();
    Ok(format!(
        "coordinator stopped — {jobs} job{} completed\n",
        if jobs == 1 { "" } else { "s" }
    ))
}

/// `iris worker`: connect to a coordinator and compute leased ranges
/// until Ctrl-C (or `--once` after the first completed job). The worker
/// re-derives traces/plans/corpora locally from job specs and runs the
/// in-process range cores, so its results are byte-identical to the
/// coordinator-local ones.
fn cmd_worker(args: &[String]) -> Result<String, CliError> {
    let connect = flag_value(args, "--connect")
        .ok_or_else(|| CliError::Usage("worker requires --connect ADDR".to_owned()))?;
    let backend = parse_target(args)?;
    let heartbeat_ms: u64 = parse_num(args, "--heartbeat-ms", 1_000)?;
    let default_backoff = BackoffPolicy::default();
    let backoff = BackoffPolicy {
        attempts: parse_num(args, "--reconnect-attempts", default_backoff.attempts)?,
        base_ms: parse_num(args, "--reconnect-base-ms", default_backoff.base_ms)?,
        max_ms: parse_num(args, "--reconnect-max-ms", default_backoff.max_ms)?,
        jitter_seed: parse_num(args, "--jitter-seed", default_backoff.jitter_seed)?,
    };
    let corrupt_after: Option<u64> = match flag_value(args, "--corrupt-after") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad value for --corrupt-after: {v}")))?,
        ),
    };
    let opts = WorkerOptions {
        connect,
        target: backend.name().to_owned(),
        once: args.iter().any(|a| a == "--once"),
        heartbeat_ms,
        backoff,
        corrupt_after,
        stop: Some(sigint::install()),
        ..WorkerOptions::default()
    };
    let summary = run_worker(&opts)?;
    let mut out = format!(
        "worker stopped — {} lease{} computed across {} job{}\n",
        summary.chunks_done,
        if summary.chunks_done == 1 { "" } else { "s" },
        summary.jobs_done,
        if summary.jobs_done == 1 { "" } else { "s" }
    );
    if summary.results_corrupted > 0 {
        out.push_str(&format!(
            "byzantine test hook: {} result{} deliberately falsified\n",
            summary.results_corrupted,
            if summary.results_corrupted == 1 {
                ""
            } else {
                "s"
            }
        ));
    }
    Ok(out)
}

/// `iris chaos`: a deterministic network-chaos proxy between workers
/// and a coordinator. Every accepted connection gets a fault plan
/// derived purely from `(--seed, connection index)` — split writes,
/// delays, garbage, truncation, drops — so a failure a fleet hits
/// through the proxy replays exactly from the same seed. Connections
/// past `--budget` relay cleanly (the deterministic liveness
/// guarantee). Runs until Ctrl-C.
fn cmd_chaos(args: &[String]) -> Result<String, CliError> {
    let upstream = flag_value(args, "--connect").ok_or_else(|| {
        CliError::Usage("chaos requires --connect ADDR (the upstream coordinator)".to_owned())
    })?;
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let seed: u64 = parse_num(args, "--seed", 0)?;
    let destructive_budget: u64 = parse_num(args, "--budget", 4)?;
    let proxy = ChaosProxy::start(ChaosOptions {
        listen,
        upstream,
        seed,
        destructive_budget,
    })?;
    eprintln!("iris chaos: listening on {} (seed {seed})", proxy.addr());
    let stop = sigint::install();
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let conns = proxy.connections();
    proxy.stop();
    Ok(format!(
        "chaos proxy stopped — {conns} connection{} relayed\n",
        if conns == 1 { "" } else { "s" }
    ))
}

/// `iris submit`: deliver a campaign/guided job to a coordinator fleet
/// and wait for the report. Defaults mirror the in-process subcommands,
/// and `--json` writes the **received bytes** verbatim — the artifact
/// CI byte-diffs against the in-process `--jobs 1` run's.
fn cmd_submit(args: &[String]) -> Result<String, CliError> {
    let family = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?
        .clone();
    let rest = &args[1..];
    let w = parse_workload(
        rest.first()
            .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?,
    )?;
    let connect = flag_value(rest, "--connect")
        .ok_or_else(|| CliError::Usage("submit requires --connect ADDR".to_owned()))?;
    let exits: usize = parse_num(rest, "--exits", 5000)?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let backend = parse_target(rest)?;
    let kind = match family.as_str() {
        "campaign" => JobKind::Campaign {
            mutants: parse_num(rest, "--mutants", 200)?,
            chunk: parse_chunk(rest)?,
        },
        "guided" => {
            let generation: u64 = parse_num(rest, "--gen", GuidedConfig::default().generation)?;
            if generation == 0 {
                return Err(CliError::Usage("--gen must be at least 1".to_owned()));
            }
            JobKind::Guided {
                budget: parse_num(rest, "--budget", 1500)?,
                generation,
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown submit family '{other}' (campaign | guided)\n\n{USAGE}"
            )))
        }
    };
    let spec = JobSpec {
        target: backend.name().to_owned(),
        workload: w.label().to_owned(),
        exits,
        seed,
        kind,
    };
    let show_progress = std::io::stderr().is_terminal();
    let outcome = dist_submit(&connect, &spec, |done, total, folded| {
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
    match spec.kind {
        JobKind::Campaign { .. } => {
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
        JobKind::Guided { .. } => {
            if let Ok(result) = serde_json::from_str::<GuidedResult>(&outcome.report) {
                out.push_str(&render_guided_result(&result));
            }
        }
    }
    if let Some(path) = flag_value(rest, "--json") {
        atomic_write_json(std::path::Path::new(&path), outcome.report.as_bytes())?;
        out.push_str(&format!("report JSON written to {path}\n"));
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
