//! Diagnostics and the text / JSON report renderers.
//!
//! The JSON emitter is hand-rolled (the lint engine carries no
//! dependencies, vendored or otherwise) and produces a stable,
//! machine-consumable shape:
//!
//! ```json
//! {
//!   "version": 1,
//!   "root": "…",
//!   "files_scanned": 123,
//!   "findings": [{"file": "…", "line": 7, "rule": "rng-law", "message": "…"}],
//!   "summary": {"total": 1, "by_rule": {"rng-law": 1}},
//!   "waivers": {"total": 2, "by_rule": {"panic-path-audit": 2}}
//! }
//! ```

use std::collections::BTreeMap;

/// One finding: a law violation (or allowlist problem) at a line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (see [`crate::rules::Rule::id`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Scan root (for display only; paths in findings stay relative).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Diagnostic>,
    /// Live `lint:allow` waivers per rule id — reported so the count
    /// trends (the goal is structure, not annotation: ANALYSIS.md).
    pub waivers: BTreeMap<String, usize>,
}

impl LintReport {
    /// True when the tree satisfies every law.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings per rule id, sorted by id.
    #[must_use]
    pub fn by_rule(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for d in &self.findings {
            *map.entry(d.rule.clone()).or_insert(0) += 1;
        }
        map
    }

    /// `rule: n, rule: n` over a per-rule count map.
    fn text_counts(counts: &BTreeMap<String, usize>) -> String {
        let cells: Vec<String> = counts.iter().map(|(r, n)| format!("{r}: {n}")).collect();
        cells.join(", ")
    }

    /// `{"total":N,"by_rule":{"rule":n,…}}` over a per-rule count map.
    fn json_counts(counts: &BTreeMap<String, usize>) -> String {
        let cells: Vec<String> = (counts.iter())
            .map(|(r, n)| format!("{}:{n}", json_str(r)))
            .collect();
        let total: usize = counts.values().sum();
        format!("{{\"total\":{total},\"by_rule\":{{{}}}}}", cells.join(","))
    }

    /// Human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str(&format!(
                "iris-lint: clean — {} files scanned, 0 findings\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "iris-lint: {} finding(s) in {} files scanned (",
                self.findings.len(),
                self.files_scanned
            ));
            out.push_str(&Self::text_counts(&self.by_rule()));
            out.push_str(")\n");
        }
        out.push_str(&format!(
            "iris-lint: {} waiver(s) ({})\n",
            self.waivers.values().sum::<usize>(),
            Self::text_counts(&self.waivers)
        ));
        out
    }

    /// Machine-readable report.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"version\":1,");
        out.push_str(&format!("\"root\":{},", json_str(&self.root)));
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str("\"findings\":[");
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                json_str(&d.file),
                d.line,
                json_str(&d.rule),
                json_str(&d.message)
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"summary\":{},\"waivers\":{}}}\n",
            Self::json_counts(&self.by_rule()),
            Self::json_counts(&self.waivers)
        ));
        out
    }
}

/// JSON string literal with full escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn clean_report_renders_zero_findings() {
        let r = LintReport {
            root: "/ws".into(),
            files_scanned: 3,
            ..LintReport::default()
        };
        assert!(r.is_clean());
        assert!(r.render_text().contains("0 findings"));
        assert!(r.render_json().contains("\"total\":0"));
    }

    #[test]
    fn findings_render_sorted_summary() {
        let r = LintReport {
            root: "/ws".into(),
            files_scanned: 2,
            findings: vec![
                Diagnostic {
                    file: "a.rs".into(),
                    line: 3,
                    rule: "rng-law".into(),
                    message: "m".into(),
                },
                Diagnostic {
                    file: "b.rs".into(),
                    line: 9,
                    rule: "rng-law".into(),
                    message: "m".into(),
                },
            ],
            ..LintReport::default()
        };
        assert!(r.render_text().contains("rng-law: 2"));
        assert!(r.render_json().contains("\"by_rule\":{\"rng-law\":2}"));
    }

    #[test]
    fn waivers_render_in_both_reports() {
        let r = LintReport {
            waivers: BTreeMap::from([("panic-path-audit".into(), 3), ("rng-law".into(), 1)]),
            ..LintReport::default()
        };
        assert!(r
            .render_text()
            .contains("4 waiver(s) (panic-path-audit: 3, rng-law: 1)"));
        assert!(r.render_json().ends_with(
            "\"waivers\":{\"total\":4,\"by_rule\":{\"panic-path-audit\":3,\"rng-law\":1}}}\n"
        ));
    }
}
