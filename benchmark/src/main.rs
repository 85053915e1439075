//! # iris-benchmark — six workloads, one CPU-time metric, a cost ledger
//!
//! ```text
//! iris-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command invokes)
//! iris-benchmark run [--seed 42] [--rounds 7] [--seconds 10] [--workload W] [--trace] [--out FILE]
//! iris-benchmark compare A.json B.json
//! iris-benchmark describe                                        print BENCHMARK.json
//! ```
//!
//! Everything is measured **from outside** the program: by timing calls
//! into public functions and by passing span-recording
//! `TargetFactory`/`FuzzTarget` wrappers into the real generic drivers.
//! See README.md for the metrics, the workloads and how to read the
//! ledger.

#![forbid(unsafe_code)]
// The repo's clippy.toml bans ambient clocks because they would break
// the program's byte-identity laws. This harness is the one place whose
// job is to read a clock; the program under test never sees it.
#![allow(clippy::disallowed_methods)]

mod cpu;
mod harness;
mod ledger;
mod metrics;
mod probes;
mod span;
mod stats;
mod suite;
mod traced;
mod workloads;

use harness::RunArgs;
use metrics::{EndToEnd, PerLayer, END_TO_END, PER_LAYER};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;
use suite::SuiteArgs;
use workloads::Kind;

/// Seconds one run measures for — `BENCHMARK.json`'s `run_seconds` and
/// `run`'s default.
const RUN_SECONDS: u32 = 10;

const USAGE: &str = "\
iris-benchmark — CPU-time benchmark and per-layer cost ledger for the IRIS stack

USAGE:
    iris-benchmark --workload W --seed N --seconds S --trace 0|1
    iris-benchmark run [--seed 42] [--rounds 7] [--seconds 10] [--workload W] [--trace] [--out FILE]
    iris-benchmark compare A.json B.json
    iris-benchmark describe

WORKLOADS: record_replay campaign_wide campaign_chunked guided_flat guided_forest fleet_loopback
";

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad value '{raw}' for {flag}"))
}

fn workload_flag(args: &[String]) -> Result<Option<Kind>, String> {
    flag::<String>(args, "--workload")?
        .map(|name| Kind::parse(&name).ok_or_else(|| format!("unknown workload '{name}'")))
        .transpose()
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let run = RunArgs {
        kind: workload_flag(args)?.ok_or("--workload is required")?,
        seed: flag(args, "--seed")?.ok_or("--seed is required")?,
        seconds: flag(args, "--seconds")?.ok_or("--seconds is required")?,
        trace: match flag::<u8>(args, "--trace")?.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    let result = harness::run(run);
    // The result line is the last line of stdout, on one line.
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite_run(args: &[String]) -> Result<ExitCode, String> {
    let suite = SuiteArgs {
        seed: flag(args, "--seed")?.unwrap_or(42),
        rounds: flag(args, "--rounds")?.unwrap_or(7),
        seconds: flag(args, "--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        workloads: workload_flag(args)?.map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]),
        trace: args.iter().any(|a| a == "--trace"),
        out: flag(args, "--out")?.unwrap_or_else(|| harness::out_dir().join("results.json")),
    };
    if suite.rounds == 0 {
        return Err("--rounds must be at least 1".to_owned());
    }
    Ok(if suite::run(&suite)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".to_owned());
    };
    let (report, regressed) = suite::compare(&PathBuf::from(a), &PathBuf::from(b))?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[derive(Serialize)]
struct WorkloadEntry {
    name: &'static str,
    why: &'static str,
}

/// `BENCHMARK.json`, written from the tables the code measures by.
#[derive(Serialize)]
struct Manifest {
    command: Vec<&'static str>,
    paths: Vec<&'static str>,
    run_seconds: u32,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

fn manifest() -> Manifest {
    Manifest {
        command: vec![
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ],
        paths: vec!["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: Kind::ALL
            .iter()
            .map(|k| WorkloadEntry {
                name: k.name(),
                why: k.why(),
            })
            .collect(),
        end_to_end: END_TO_END.to_vec(),
        per_layer: PER_LAYER.to_vec(),
    }
}

fn describe() -> Result<ExitCode, String> {
    println!(
        "{}",
        serde_json::to_string_pretty(&manifest()).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite_run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("describe") => describe(),
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => one_run(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("iris-benchmark: {message}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let generated = serde_json::to_string_pretty(&manifest()).unwrap();
        assert_eq!(
            committed.trim_end(),
            generated,
            "BENCHMARK.json is stale: regenerate it with `describe`"
        );
    }

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = ["--seed", "7", "--workload", "guided_flat", "--trace"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(flag::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(flag::<u64>(&args, "--rounds"), Ok(None));
        assert!(flag::<u64>(&args, "--workload").is_err());
        assert!(flag::<u64>(&args, "--trace").is_err());
        assert_eq!(workload_flag(&args), Ok(Some(Kind::GuidedFlat)));
        let bad = vec!["--workload".to_owned(), "nope".to_owned()];
        assert!(workload_flag(&bad).is_err());
    }
}
