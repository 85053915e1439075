//! `iris-experiments <id>|all` — run rows of the paper's evaluation
//! table ([`iris_bench::paper::PAPER`]) in table order. Each row prints
//! its figure, writes its result to `results/<id>.json` (relative to the
//! working directory) and prints one line with the verdict of its
//! checks. A usage error exits 2 before anything runs; a failed check
//! or write exits 1 once every requested row has run.

use iris_bench::paper::select;
use iris_bench::write_json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = match select(&args) {
        Ok(rows) => rows,
        Err(usage) => {
            eprintln!("iris-experiments: {usage}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for row in rows {
        let outcome = (row.run)();
        print!("{}", outcome.text);
        match write_json(format!("results/{}.json", row.id), &outcome.json) {
            Ok(path) => println!("(JSON written to {})", path.display()),
            Err(e) => {
                eprintln!("iris-experiments: {e}");
                failed = true;
            }
        }
        let verdict = match &outcome.check {
            Ok(()) => "ok".to_owned(),
            Err(broken) => format!("FAILED: {broken}"),
        };
        failed |= outcome.check.is_err();
        println!("check {row}: {verdict}");
    }
    ExitCode::from(u8::from(failed))
}
