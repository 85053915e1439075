//! The `iris-lint` binary: lint the workspace, print `file:line:rule`
//! diagnostics, optionally write the JSON report, and exit nonzero on
//! any finding.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
iris-lint — machine-check the workspace determinism, safety, and panic-path laws

USAGE:
    iris-lint --workspace [--root PATH] [--json FILE]

OPTIONS:
    --workspace     lint every Rust source in the workspace (default)
    --root PATH     workspace root (default: discovered upward from cwd)
    --json FILE     also write the machine-readable report to FILE

EXIT CODE: 0 clean, 1 findings, 2 usage or I/O error.

Rules (see ANALYSIS.md): no-ambient-nondeterminism, rng-law,
no-unordered-merge, unsafe-audit, panic-path-audit, slot-reset-law,
cov-block-law.
Waive a single line with `// lint:allow(<rule>) -- <reason>`.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => {}
            "--root" | "--json" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value\n\n{USAGE}", args[i]);
                    return ExitCode::from(2);
                };
                if args[i] == "--root" {
                    root = Some(PathBuf::from(value));
                } else {
                    json_out = Some(PathBuf::from(value));
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match iris_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match iris_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iris-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    // Write the JSON artifact before deciding the exit code, so CI
    // still captures the report of a failing run.
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("iris-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_text());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
