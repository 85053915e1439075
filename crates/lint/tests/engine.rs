//! End-to-end tests for the lint engine: every rule against its
//! positive and negative fixture, the PR-5 regression fixture, and the
//! live workspace (which must satisfy its own laws).

use iris_lint::rules::ALLOW_RULE_ID;
use iris_lint::{lint_source, lint_source_scoped, lint_workspace, Diagnostic, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_hit(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

/// Lint `name` under exactly `rule`, as the fixture harness does.
fn lint_fixture(name: &str, rule: Rule) -> Vec<Diagnostic> {
    lint_source(name, &fixture(name), &[rule])
}

#[test]
fn ambient_nondeterminism_fixtures() {
    let bad = lint_fixture("ambient_bad.rs", Rule::AmbientNondeterminism);
    assert!(
        bad.len() >= 3,
        "Instant::now, SystemTime::now and thread_rng must all be flagged: {bad:?}"
    );
    assert!(rules_hit(&bad)
        .iter()
        .all(|r| *r == "no-ambient-nondeterminism"));

    // The negative fixture mentions Instant::now in a comment and a
    // string literal; neither is code, so neither may be flagged.
    let good = lint_fixture("ambient_good.rs", Rule::AmbientNondeterminism);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn rng_law_fixtures() {
    let bad = lint_fixture("rng_bad.rs", Rule::RngLaw);
    assert!(
        bad.len() >= 2,
        "seed_from_u64 and from_rng must both be flagged: {bad:?}"
    );
    assert!(rules_hit(&bad).iter().all(|r| *r == "rng-law"));

    let good = lint_fixture("rng_good.rs", Rule::RngLaw);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn unordered_merge_fixtures() {
    let bad = lint_fixture("merge_bad.rs", Rule::UnorderedMerge);
    assert!(bad.iter().any(|d| d.message.contains("HashMap")), "{bad:?}");
    assert!(bad.iter().any(|d| d.message.contains("HashSet")), "{bad:?}");

    let good = lint_fixture("merge_good.rs", Rule::UnorderedMerge);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn unsafe_audit_fixtures() {
    let bad = lint_fixture("unsafe_bad.rs", Rule::UnsafeAudit);
    assert_eq!(rules_hit(&bad), ["unsafe-audit"], "{bad:?}");

    let good = lint_fixture("unsafe_good.rs", Rule::UnsafeAudit);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn panic_path_fixtures() {
    let bad = lint_fixture("panic_bad.rs", Rule::PanicPath);
    // The unannotated .unwrap() and the slice index must be flagged…
    assert!(
        bad.iter()
            .any(|d| d.rule == "panic-path-audit" && d.message.contains("unwrap")),
        "{bad:?}"
    );
    assert!(
        bad.iter()
            .any(|d| d.rule == "panic-path-audit" && d.message.contains("index")),
        "{bad:?}"
    );
    // …and both broken annotations (reason-less, unused) are findings
    // in their own right.
    assert!(
        bad.iter()
            .any(|d| d.rule == ALLOW_RULE_ID && d.message.contains("reason")),
        "{bad:?}"
    );
    assert!(
        bad.iter()
            .any(|d| d.rule == ALLOW_RULE_ID && d.message.contains("unused")),
        "{bad:?}"
    );

    let good = lint_fixture("panic_good.rs", Rule::PanicPath);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn cov_block_law_fixtures() {
    let bad = lint_fixture("cov_bad.rs", Rule::CovBlockLaw);
    let found = |line: usize, needle: &str| {
        bad.iter()
            .any(|d| d.rule == "cov-block-law" && d.line == line && d.message.contains(needle))
    };
    // Rows: dead, zero-weight, alive only through a test.
    assert!(found(10, "`Vmx/7`") && found(10, "dead row"), "{bad:?}");
    assert!(found(12, "`Vmx/8`") && found(12, "zero lines"), "{bad:?}");
    assert!(found(15, "`Io/5`") && found(15, "dead row"), "{bad:?}");
    // Sites: undeclared, computed id, variable component, variable id,
    // a leftover weight argument, a zero-weight block.
    assert!(
        found(23, "`Vmx/11`") && found(23, "does not declare"),
        "{bad:?}"
    );
    assert!(found(25, "2 - 1") && found(25, "literal"), "{bad:?}");
    assert!(found(27, "which") && found(27, "literal"), "{bad:?}");
    assert!(found(28, "literal"), "{bad:?}");
    assert!(found(30, "literal"), "{bad:?}");
    assert!(
        found(32, "`Vmx/8`") && found(32, "does not declare"),
        "{bad:?}"
    );
    // The law takes no waivers: the allow is reported as unused and the
    // site it sits on is still a finding.
    assert!(found(35, "`Vmx/12`"), "{bad:?}");
    assert!(
        bad.iter()
            .any(|d| d.rule == ALLOW_RULE_ID && d.line == 34 && d.message.contains("unused")),
        "{bad:?}"
    );
    assert_eq!(bad.len(), 11, "{bad:?}");

    let good = lint_fixture("cov_good.rs", Rule::CovBlockLaw);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn cov_fixture_is_inert_outside_the_model() {
    // The table and its sites live in `crates/hv/src/`; the same text
    // anywhere else is not the model's instrumentation.
    let bad = fixture("cov_bad.rs");
    let diags = lint_source_scoped("crates/fuzzer/src/campaign.rs", &bad);
    assert!(!rules_hit(&diags).contains(&"cov-block-law"), "{diags:?}");
    let diags = lint_source_scoped("crates/hv/src/handlers/cr.rs", &bad);
    assert!(rules_hit(&diags).contains(&"cov-block-law"), "{diags:?}");
}

#[test]
fn pr5_regression_fixture_is_flagged() {
    // Linted as if it were guided.rs — the file whose PR-5 incarnation
    // carried this exact bug class. The scoped rule set must catch
    // both halves: the crash-only reset and the rogue per-worker RNG.
    let src = fixture("pr5_regression.rs");
    let diags = lint_source_scoped("crates/fuzzer/src/guided.rs", &src);
    let rules = rules_hit(&diags);
    assert!(
        rules.contains(&"slot-reset-law"),
        "the conditional reset must be flagged: {diags:?}"
    );
    assert!(
        rules.contains(&"rng-law"),
        "the rogue RNG must be flagged: {diags:?}"
    );
    assert!(diags.len() >= 2, "{diags:?}");
}

#[test]
fn fixtures_are_inert_outside_their_rule_scope() {
    // The PR-5 fixture placed outside the reset/RNG scope draws no
    // findings: scoping is part of the engine's contract, not a
    // side effect of file layout.
    let src = fixture("pr5_regression.rs");
    let diags = lint_source_scoped("crates/hv/src/vmexit.rs", &src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn dist_scope_carries_merge_and_panic_rules() {
    // The distributed coordinator's fold and lease modules are inside
    // both the ordered-merge and panic-path scopes: a hash-container
    // fold and remote-input panics must both be flagged there…
    let bad = fixture("dist_fold_bad.rs");
    let diags = lint_source_scoped("crates/dist/src/coordinator.rs", &bad);
    let rules = rules_hit(&diags);
    assert!(
        rules.contains(&"no-unordered-merge"),
        "HashMap fold in the coordinator must be flagged: {diags:?}"
    );
    assert!(
        rules.contains(&"panic-path-audit"),
        "panicking access to remote-controlled state must be flagged: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "panic-path-audit" && d.message.contains("unwrap")),
        "{diags:?}"
    );

    // …and the ordered, fallible rewrite is clean under the same path.
    let good = fixture("dist_fold_good.rs");
    let diags = lint_source_scoped("crates/dist/src/lease.rs", &good);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn dist_worker_and_chaos_scope_carries_merge_and_panic_rules() {
    // PR 9 pulled the worker loop, submission client, and chaos relay
    // into both scopes: hostile bytes reach all three straight off the
    // network, so unordered folds and panicking access must be flagged
    // under each of the newly scoped paths…
    let bad = fixture("dist_chaos_bad.rs");
    for path in [
        "crates/dist/src/worker.rs",
        "crates/dist/src/client.rs",
        "crates/dist/src/chaos.rs",
    ] {
        let diags = lint_source_scoped(path, &bad);
        let rules = rules_hit(&diags);
        assert!(
            rules.contains(&"no-unordered-merge"),
            "HashMap tally under {path} must be flagged: {diags:?}"
        );
        assert!(
            rules.contains(&"panic-path-audit"),
            "panicking access to wire-controlled bytes under {path} must be flagged: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "panic-path-audit" && d.message.contains("unwrap")),
            "{diags:?}"
        );
    }

    // …and the ordered, fallible rewrite is clean under the same paths.
    let good = fixture("dist_chaos_good.rs");
    for path in [
        "crates/dist/src/worker.rs",
        "crates/dist/src/client.rs",
        "crates/dist/src/chaos.rs",
    ] {
        let diags = lint_source_scoped(path, &good);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn forest_scope_carries_merge_and_panic_rules() {
    // PR 10 pulled the snapshot forest and the page-level dirty tracker
    // into both scopes: map iteration there reaches restored bytes, and
    // an index panic poisons every mutant that reuses the node. Both
    // halves must be flagged under each newly scoped path…
    let bad = fixture("forest_bad.rs");
    for path in ["crates/core/src/forest.rs", "crates/hv/src/mm.rs"] {
        let diags = lint_source_scoped(path, &bad);
        let rules = rules_hit(&diags);
        assert!(
            rules.contains(&"no-unordered-merge"),
            "HashMap delta fold under {path} must be flagged: {diags:?}"
        );
        assert!(
            rules.contains(&"panic-path-audit"),
            "panicking node/page access under {path} must be flagged: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "panic-path-audit" && d.message.contains("unwrap")),
            "{diags:?}"
        );
    }

    // …and the ordered, fallible rewrite is clean under the same paths.
    let good = fixture("forest_good.rs");
    for path in ["crates/core/src/forest.rs", "crates/hv/src/mm.rs"] {
        let diags = lint_source_scoped(path, &good);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn forest_fixture_is_inert_outside_the_forest_scope() {
    // The same source under an unscoped hv path draws no merge or
    // panic findings — the forest coverage is scoping, not a global
    // tightening.
    let bad = fixture("forest_bad.rs");
    let diags = lint_source_scoped("crates/hv/src/vmexit.rs", &bad);
    assert!(
        !rules_hit(&diags)
            .iter()
            .any(|r| *r == "no-unordered-merge" || *r == "panic-path-audit"),
        "{diags:?}"
    );
}

#[test]
fn dist_fixture_is_inert_outside_the_dist_scope() {
    // The same source under a path outside both scopes draws no merge
    // or panic findings — the dist coverage is scoping, not a global
    // tightening.
    let bad = fixture("dist_fold_bad.rs");
    let diags = lint_source_scoped("crates/dist/src/proto.rs", &bad);
    assert!(
        !rules_hit(&diags)
            .iter()
            .any(|r| *r == "no-unordered-merge" || *r == "panic-path-audit"),
        "{diags:?}"
    );

    // Same contract for the PR-9 relay fixture: the worker/client/chaos
    // coverage is scoping, not a global tightening.
    let bad = fixture("dist_chaos_bad.rs");
    let diags = lint_source_scoped("crates/dist/src/proto.rs", &bad);
    assert!(
        !rules_hit(&diags)
            .iter()
            .any(|r| *r == "no-unordered-merge" || *r == "panic-path-audit"),
        "{diags:?}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

#[test]
fn live_workspace_satisfies_its_own_laws() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the shipped tree must lint clean:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

#[test]
fn json_report_is_well_formed() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    let json = report.render_json();
    // The vendored serde_json parser is the consumer-side check that
    // the hand-rolled emitter produces valid JSON.
    let value: serde::value::Value = serde_json::from_str(&json).expect("report JSON parses");
    let text = serde_json::to_string(&value).unwrap();
    assert!(text.contains("\"files_scanned\""), "{text}");
    assert!(text.contains("\"summary\""), "{text}");
}
