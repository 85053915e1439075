//! `run`: the whole benchmark in one command, and `compare`: two of its
//! result files against the metric bounds.
//!
//! `run` makes `--rounds` rounds; each round runs every workload once,
//! in fixed order (round-robin, so slow drift of the machine hits all
//! workloads alike). Each (round, workload) is a **fresh child process**
//! of this binary, so one workload's threads and peak memory are never
//! charged to another. All rounds use the same seed: their result
//! digests must agree.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{classify, median, quartiles, spread, Verdict};
use crate::workloads::Kind;
use serde::value::{map_get, Value};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Arguments of `run`.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed every round uses.
    pub seed: u64,
    /// Rounds.
    pub rounds: usize,
    /// `--seconds` handed to each child.
    pub seconds: f64,
    /// Workloads to run, in order.
    pub workloads: Vec<Kind>,
    /// Also make one traced run per workload.
    pub trace: bool,
    /// Where the results JSON goes.
    pub out: PathBuf,
}

/// One end-to-end metric's readings over the rounds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Unit.
    pub unit: String,
    /// One value per round.
    pub values: Vec<f64>,
}

/// What `run` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Results {
    /// Seed of every run.
    pub seed: u64,
    /// Rounds made.
    pub rounds: usize,
    /// Seconds each run measured for.
    pub seconds: f64,
    /// Section runs and output checks attempted, all runs.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// workload → end-to-end metric → readings.
    pub end_to_end: BTreeMap<String, BTreeMap<String, Series>>,
    /// workload → per-layer metric → the traced run's reading.
    pub per_layer: BTreeMap<String, BTreeMap<String, f64>>,
}

/// A child's result line, as far as `run` needs it.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    digest: Option<String>,
    /// Everything the child printed before the result line.
    report: String,
}

fn run_child(kind: Kind, args: &SuiteArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((head, last)) => (format!("{head}\n"), last),
        None => (String::new(), stdout.trim_end()),
    };
    let parsed = parse_result_line(last)
        .ok_or_else(|| format!("the {} run printed no result line", kind.name()))?;
    let digest = report
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .map(str::to_owned);
    Ok(ChildResult {
        digest,
        report,
        ..parsed
    })
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    let value: Value = serde_json::from_str(line).ok()?;
    let top = value.as_map()?;
    let metrics = map_get(top, "metrics")?
        .as_map()?
        .iter()
        .filter_map(|(name, reading)| {
            let reading = reading.as_map()?;
            Some((
                name.as_str()?.to_owned(),
                as_f64(map_get(reading, "value")?)?,
                map_get(reading, "unit")?.as_str()?.to_owned(),
            ))
        })
        .collect();
    Some(ChildResult {
        attempted: map_get(top, "attempted")?.as_u64()?,
        failed: map_get(top, "failed")?.as_u64()?,
        metrics,
        digest: None,
        report: String::new(),
    })
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Run the suite; returns whether every output check passed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut results = Results {
        seed: args.seed,
        rounds: args.rounds,
        seconds: args.seconds,
        attempted: 0,
        failed: 0,
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
    };
    let mut digests: BTreeMap<&'static str, String> = BTreeMap::new();
    for round in 1..=args.rounds {
        for &kind in &args.workloads {
            let child = run_child(kind, args, false)?;
            results.attempted += child.attempted + 1;
            results.failed += child.failed;
            // Every round of a workload must yield the same digest.
            let agreed = match (&child.digest, digests.get(kind.name())) {
                (Some(d), Some(first)) => d == first,
                (Some(d), None) => {
                    digests.insert(kind.name(), d.clone());
                    true
                }
                (None, _) => false,
            };
            if !agreed {
                results.failed += 1;
                eprintln!(
                    "output check failed: {} round {round}: digest differs from round 1",
                    kind.name()
                );
            }
            let mut line = format!("round {round}/{} {:<16}", args.rounds, kind.name());
            for (name, value, unit) in child.metrics {
                line.push_str(&format!("  {name} {value:.4} {unit}"));
                results
                    .end_to_end
                    .entry(kind.name().to_owned())
                    .or_default()
                    .entry(name)
                    .or_insert_with(|| Series {
                        unit,
                        values: Vec::new(),
                    })
                    .values
                    .push(value);
            }
            println!("{line}");
        }
    }
    if args.trace {
        for &kind in &args.workloads {
            let child = run_child(kind, args, true)?;
            results.attempted += child.attempted;
            results.failed += child.failed;
            print!("{}", child.report);
            results.per_layer.insert(
                kind.name().to_owned(),
                child.metrics.into_iter().map(|(n, v, _)| (n, v)).collect(),
            );
        }
    }
    print!("{}", render_end_to_end(&results));
    println!(
        "failed_share {} / {} = {:.4}",
        results.failed,
        results.attempted,
        results.failed as f64 / results.attempted.max(1) as f64
    );
    let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, json)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("results written to {}", args.out.display());
    Ok(results.failed == 0)
}

fn render_end_to_end(results: &Results) -> String {
    let mut out = format!(
        "end-to-end metrics, seed {}, median of {} rounds [q1 .. q3] (spread = (q3 - q1) / median):\n",
        results.seed, results.rounds
    );
    for (workload, metrics) in &results.end_to_end {
        for m in END_TO_END {
            let Some(series) = metrics.get(m.name) else {
                continue;
            };
            let (q1, q3) = quartiles(&series.values).unwrap_or((f64::NAN, f64::NAN));
            out.push_str(&format!(
                "  {:<16} {:<16} {:>14.4} {:<12} [{:.4} .. {:.4}]  spread {:>5.2} %  (bound {:.0} %, {} better)\n",
                workload,
                m.name,
                median(&series.values),
                series.unit,
                q1,
                q3,
                spread(&series.values) * 100.0,
                m.bound * 100.0,
                m.better.label()
            ));
        }
    }
    out
}

/// workload → metric → readings, out of a results file.
fn load(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bad = || format!("{} is not a results file of `run`", path.display());
    let value: Value = serde_json::from_str(&text).map_err(|_| bad())?;
    let workloads = value
        .as_map()
        .and_then(|top| map_get(top, "end_to_end"))
        .and_then(Value::as_map)
        .ok_or_else(bad)?;
    let mut out = BTreeMap::new();
    for (workload, metrics) in workloads {
        let mut by_metric = BTreeMap::new();
        for (metric, series) in metrics.as_map().ok_or_else(bad)? {
            let values = series
                .as_map()
                .and_then(|s| map_get(s, "values"))
                .and_then(Value::as_seq)
                .ok_or_else(bad)?
                .iter()
                .map(as_f64)
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(bad)?;
            by_metric.insert(metric.as_str().ok_or_else(bad)?.to_owned(), values);
        }
        out.insert(workload.as_str().ok_or_else(bad)?.to_owned(), by_metric);
    }
    Ok(out)
}

/// One (workload, metric) line of `compare`.
fn compare_line(workload: &str, m: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, String) {
    let verdict = classify(a, b, m.better, m.bound);
    let q = |v: &[f64]| quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    let ((a1, a3), (b1, b3)) = (q(a), q(b));
    let line = format!(
        "  {:<16} {:<16} A {:>14.4} [{:.4} .. {:.4}]  B {:>14.4} [{:.4} .. {:.4}]  {:+6.2} %  {}\n",
        workload,
        m.name,
        median(a),
        a1,
        a3,
        median(b),
        b1,
        b3,
        (median(b) / median(a) - 1.0) * 100.0,
        verdict.label()
    );
    (verdict, line)
}

/// Compare results file B against A on every (workload, end-to-end
/// metric) they share. Returns the report and whether anything
/// regressed.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut out = format!("A = {}\nB = {}\n", a.display(), b.display());
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (workload, metrics_a) in &ra {
        let Some(metrics_b) = rb.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let (verdict, line) = compare_line(workload, m, va, vb);
            *counts.entry(verdict.label()).or_default() += 1;
            out.push_str(&line);
        }
    }
    let count = |v: Verdict| counts.get(v.label()).copied().unwrap_or(0);
    out.push_str(&format!(
        "{} better, {} within bound, {} regressed, {} unresolved\n",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    ));
    Ok((out, count(Verdict::Regressed) > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let line = r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"execs_per_cpu_s": {"value": 10412.5, "unit": "execs/cpu-s"}, "setup_s": {"value": 0.0031, "unit": "s"}, "peak_rss_mb": {"value": 12, "unit": "MiB"}}}"#;
        let parsed = parse_result_line(line).unwrap();
        assert_eq!((parsed.attempted, parsed.failed), (7, 0));
        assert_eq!(parsed.metrics.len(), 3);
        assert!(parsed
            .metrics
            .contains(&("peak_rss_mb".to_owned(), 12.0, "MiB".to_owned())));
        assert!(parse_result_line("not json").is_none());
        assert!(parse_result_line(r#"{"correct": true}"#).is_none());
    }

    #[test]
    fn compare_flags_a_regression_and_passes_an_a_a_pair() {
        let dir = crate::harness::out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, rate: f64| {
            let mut results = Results {
                seed: 1,
                rounds: 5,
                seconds: 1.0,
                attempted: 5,
                failed: 0,
                end_to_end: BTreeMap::new(),
                per_layer: BTreeMap::new(),
            };
            let values = (0..5)
                .map(|i| rate * (1.0 + 0.002 * f64::from(i)))
                .collect();
            results
                .end_to_end
                .entry("campaign_wide".to_owned())
                .or_default()
                .insert(
                    "execs_per_cpu_s".to_owned(),
                    Series {
                        unit: "execs/cpu-s".to_owned(),
                        values,
                    },
                );
            let path = dir.join(name);
            std::fs::write(&path, serde_json::to_string_pretty(&results).unwrap()).unwrap();
            path
        };
        let a = write("a.json", 1000.0);
        let same = write("same.json", 1001.0);
        let slow = write("slow.json", 700.0);
        let (report, regressed) = compare(&a, &same).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("within bound"));
        let (report, regressed) = compare(&a, &slow).unwrap();
        assert!(regressed, "{report}");
        assert!(report.contains("regressed"));
        assert!(compare(&a, &dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
