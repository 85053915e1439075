//! # iris-lint — machine-checked workspace laws
//!
//! The reproduction's headline guarantee — campaign and guided reports
//! byte-identical for any `jobs × chunk` partition — rests on
//! source-level laws that used to be enforced by hand: all randomness
//! flows through `mutation::mutant_rng`, merges happen in defined
//! order, slot execution resets unconditionally, every `unsafe` is
//! audited, and panic paths in the executor are deliberate. PR 6
//! showed how fragile hand enforcement is (a conditional reset in
//! `guided::run_slot` silently made slot outcomes partition-dependent
//! until a proptest tripped at budget ≳5000).
//!
//! This crate checks those laws statically on every commit. It is a
//! self-contained, dependency-free static-analysis pass: a
//! comment/string-aware line scanner ([`scan`]), a rule engine with
//! per-file scoping and a reason-mandatory allowlist ([`rules`]), the
//! one cross-file rule ([`cov`]), and
//! `file:line:rule` diagnostics with text and `--json` report modes
//! ([`report`]). The law → rule mapping and the allowlist policy are
//! documented in `ANALYSIS.md` at the repository root.
//!
//! Three entry points:
//!
//! * `cargo run -p iris-lint -- --workspace [--json PATH]` — the
//!   standalone binary (exit 0 clean, 1 findings, 2 errors);
//! * `iris lint` — the CLI subcommand (same engine via
//!   [`lint_workspace`]);
//! * CI — runs the binary and fails on any finding, publishing the
//!   JSON report as a build artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cov;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::{Diagnostic, LintReport};
pub use rules::{scoped_rules, Rule};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Lint one in-memory source file under an explicit rule set.
///
/// This is the fixture-testing entry point: the workspace driver
/// derives the rule set from the path via [`scoped_rules`] instead.
///
/// The cross-file `cov-block-law` treats the one file as the whole
/// scope: its sites are checked against its own `BLOCK_LINES`.
#[must_use]
pub fn lint_source(rel: &str, src: &str, rule_set: &[Rule]) -> Vec<Diagnostic> {
    let lines = scan::scan(src);
    let mut diags = rules::lint_lines(rel, &lines, rule_set);
    if rule_set.contains(&Rule::CovBlockLaw) {
        diags.extend(cov::check(&[(rel.to_string(), cov::collect(&lines))]));
        diags.sort();
    }
    diags
}

/// Lint one in-memory source file with its path-derived rule set.
#[must_use]
pub fn lint_source_scoped(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(rel, src, &scoped_rules(rel))
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Recursively collect workspace-relative paths of `.rs` sources and
/// `Cargo.toml` manifests. Lint self-test fixtures (`tests/fixtures/`)
/// deliberately violate the laws and are excluded.
fn collect_files(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            if rel.ends_with("tests/fixtures") {
                continue;
            }
            collect_files(root, &path, sources, manifests)?;
        } else if rel.ends_with(".rs") {
            sources.push(rel);
        } else if rel.ends_with("Cargo.toml") {
            manifests.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The package (deepest manifest directory) owning a source file.
fn package_of<'a>(rel: &str, package_dirs: &'a [String]) -> Option<&'a str> {
    package_dirs
        .iter()
        .filter(|dir| dir.is_empty() || rel.starts_with(&format!("{dir}/")))
        .max_by_key(|dir| dir.len())
        .map(String::as_str)
}

/// Lint every Rust source under `root`, plus the crate-level half of
/// the `unsafe-audit` law: a package none of whose sources contain
/// `unsafe` must declare `#![forbid(unsafe_code)]` in its crate root
/// (`src/lib.rs`, else `src/main.rs`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    collect_files(root, root, &mut sources, &mut manifests)?;

    // Package dirs: "" for the workspace-root package, "crates/foo"…
    let package_dirs: Vec<String> = manifests
        .iter()
        .map(|m| {
            m.trim_end_matches("Cargo.toml")
                .trim_end_matches('/')
                .to_string()
        })
        .collect();

    #[derive(Default)]
    struct PkgState {
        has_unsafe: bool,
        root_file: Option<String>,
        root_has_forbid: bool,
    }
    let mut packages: BTreeMap<&str, PkgState> = BTreeMap::new();

    let mut findings = Vec::new();
    let mut waivers: BTreeMap<String, usize> = BTreeMap::new();
    let mut cov_scope = Vec::new();
    for rel in &sources {
        let src = std::fs::read_to_string(root.join(rel))?;
        let lines = scan::scan(&src);
        let rule_set = scoped_rules(rel);
        findings.extend(rules::lint_lines(rel, &lines, &rule_set));
        if rule_set.contains(&Rule::CovBlockLaw) {
            cov_scope.push((rel.clone(), cov::collect(&lines)));
        }
        for rule in rules::waivers(&lines) {
            *waivers.entry(rule.to_string()).or_insert(0) += 1;
        }

        if let Some(pkg) = package_of(rel, &package_dirs) {
            let state = packages.entry(pkg).or_default();
            state.has_unsafe |= lines.iter().any(|l| l.has_unsafe);
            let is_root = rel == &join_rel(pkg, "src/lib.rs")
                || (state.root_file.is_none() && rel == &join_rel(pkg, "src/main.rs"));
            if is_root {
                state.root_file = Some(rel.clone());
                state.root_has_forbid = lines
                    .iter()
                    .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
            }
        }
    }

    findings.extend(cov::check(&cov_scope));

    for (pkg, state) in &packages {
        if let Some(root_file) = &state.root_file {
            if !state.has_unsafe && !state.root_has_forbid {
                findings.push(Diagnostic {
                    file: root_file.clone(),
                    line: 1,
                    rule: Rule::UnsafeAudit.id().to_string(),
                    message: format!(
                        "package `{}` contains no `unsafe` but its crate root does not declare \
                         `#![forbid(unsafe_code)]`",
                        if pkg.is_empty() {
                            "<workspace root>"
                        } else {
                            pkg
                        }
                    ),
                });
            }
        }
    }

    findings.sort();
    Ok(LintReport {
        root: root.to_string_lossy().into_owned(),
        files_scanned: sources.len(),
        findings,
        waivers,
    })
}

fn join_rel(pkg: &str, tail: &str) -> String {
    if pkg.is_empty() {
        tail.to_string()
    } else {
        format!("{pkg}/{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_of_picks_deepest_manifest_dir() {
        let dirs = vec![String::new(), "crates/hv".into(), "vendor/sigint".into()];
        assert_eq!(package_of("crates/hv/src/lib.rs", &dirs), Some("crates/hv"));
        assert_eq!(package_of("src/lib.rs", &dirs), Some(""));
        assert_eq!(
            package_of("vendor/sigint/src/lib.rs", &dirs),
            Some("vendor/sigint")
        );
        assert_eq!(package_of("crates/hvx/src/lib.rs", &dirs), Some(""));
    }

    #[test]
    fn forbid_free_package_without_unsafe_is_flagged() {
        // Unit-level twin of the driver's crate-root check: a clean
        // lib.rs without the attribute, no unsafe anywhere.
        let src = "pub fn f() {}\n";
        let lines = scan::scan(src);
        assert!(!lines.iter().any(|l| l.has_unsafe));
        assert!(!lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]")));
        let src_ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let lines_ok = scan::scan(src_ok);
        assert!(lines_ok
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]")));
    }

    #[test]
    fn scoped_rules_match_the_law_table() {
        let guided = scoped_rules("crates/fuzzer/src/guided.rs");
        assert!(guided.contains(&Rule::AmbientNondeterminism));
        assert!(guided.contains(&Rule::RngLaw));
        assert!(guided.contains(&Rule::UnorderedMerge));
        assert!(guided.contains(&Rule::PanicPath));
        assert!(guided.contains(&Rule::SlotResetLaw));

        let hv = scoped_rules("crates/hv/src/hypervisor.rs");
        assert!(hv.contains(&Rule::AmbientNondeterminism));
        assert!(hv.contains(&Rule::CovBlockLaw));
        assert!(!hv.contains(&Rule::RngLaw));
        assert!(!guided.contains(&Rule::CovBlockLaw));

        let vendor = scoped_rules("vendor/criterion/src/lib.rs");
        assert_eq!(vendor, vec![Rule::UnsafeAudit]);

        let cli = scoped_rules("crates/cli/src/lib.rs");
        assert_eq!(cli, vec![Rule::UnsafeAudit]);

        // The coordinator's and the worker's state machines carry every
        // law of the fold they feed; their I/O loops read clocks and
        // sockets, so they stay outside the deterministic core.
        for file in ["machine.rs", "worker_machine.rs"] {
            let machine = scoped_rules(&format!("crates/dist/src/{file}"));
            for rule in [
                Rule::AmbientNondeterminism,
                Rule::UnorderedMerge,
                Rule::PanicPath,
            ] {
                assert!(machine.contains(&rule), "{file} lacks {}", rule.id());
            }
            assert!(!machine.contains(&Rule::RngLaw));
        }
        for file in ["coordinator.rs", "worker.rs"] {
            let io_loop = scoped_rules(&format!("crates/dist/src/{file}"));
            assert!(!io_loop.contains(&Rule::AmbientNondeterminism));
            assert!(io_loop.contains(&Rule::PanicPath), "{file}");
        }
    }
}
