//! The `cov-block-law` rule: instrumentation sites and the block table
//! agree.
//!
//! Coverage weights live once, in `iris_hv::coverage::BLOCK_LINES` — the
//! build's `.gcno`. A site (`ctx.cov.hit(Component::Vmx, 12)`) names
//! only its block, and `CoverageMap::hit`
//! ignores an undeclared one in release builds, so a typo'd id would
//! silently lose coverage and a forgotten row would silently weigh
//! nothing. This rule closes both gaps statically:
//!
//! * every site names its block with a **literal** component and id
//!   (no arithmetic, no variables — the table must be checkable by
//!   reading);
//! * that block is **declared** in `BLOCK_LINES` with a non-zero weight;
//! * every declared block has at least one site outside test code (no
//!   dead rows inflating what "100 % coverage" would mean).
//!
//! Unlike the line rules this one is cross-file — the table sits in
//! `coverage.rs`, the sites in the handlers — so it runs in two steps:
//! [`collect`] extracts one file's table rows and sites from its scanned
//! lines, and [`check`] compares the union over every file in scope. It
//! takes no `lint:allow` waivers: the table is the allowlist.

use crate::report::Diagnostic;
use crate::rules::Rule;
use crate::scan::LineInfo;
use std::collections::BTreeSet;

/// A block as the sources spell it: component name and id.
type BlockName = (String, u32);

/// One `(id, lines)` row of the `BLOCK_LINES` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    block: BlockName,
    lines: u32,
    /// 0-based line of the row.
    line: usize,
}

/// One instrumentation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The literal block, or the offending argument text when the site
    /// does not name one.
    block: Result<BlockName, String>,
    /// 0-based line of the site.
    line: usize,
    in_test: bool,
}

/// What one file contributes to the law.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CovFacts {
    /// Rows of the table, when this file declares it.
    pub rows: Vec<Row>,
    /// Instrumentation sites in this file.
    pub sites: Vec<Site>,
}

/// Extract table rows and instrumentation sites from scanned lines.
#[must_use]
pub fn collect(lines: &[LineInfo]) -> CovFacts {
    CovFacts {
        rows: table_rows(lines),
        sites: lines
            .iter()
            .enumerate()
            .flat_map(|(idx, line)| {
                sites_on(&line.code).map(move |block| Site {
                    block,
                    line: idx,
                    in_test: line.in_test,
                })
            })
            .collect(),
    }
}

/// Compare the rows and sites of every file in scope (paths are
/// workspace-relative). Diagnostics come back sorted.
#[must_use]
pub fn check(files: &[(String, CovFacts)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut emit = |file: &str, line: usize, message: String| {
        diags.push(Diagnostic {
            file: file.to_string(),
            line: line + 1,
            rule: Rule::CovBlockLaw.id().to_string(),
            message,
        });
    };

    let mut declared: BTreeSet<&BlockName> = BTreeSet::new();
    for (file, facts) in files {
        for row in &facts.rows {
            if row.lines == 0 {
                emit(
                    file,
                    row.line,
                    format!(
                        "`{}` is declared with zero lines: a declared block weighs at least one",
                        show(&row.block)
                    ),
                );
            } else {
                declared.insert(&row.block);
            }
        }
    }

    let mut live: BTreeSet<&BlockName> = BTreeSet::new();
    for (file, facts) in files {
        for site in &facts.sites {
            match &site.block {
                Err(args) => emit(
                    file,
                    site.line,
                    format!(
                        "coverage site `({args})` does not name its block with a literal \
                         component and id; `BLOCK_LINES` can only be checked against literals"
                    ),
                ),
                Ok(block) if !declared.contains(block) => emit(
                    file,
                    site.line,
                    format!(
                        "coverage site hits `{}`, which `BLOCK_LINES` does not declare: the hit \
                         is ignored in release builds — add the row (or fix the id)",
                        show(block)
                    ),
                ),
                Ok(block) => {
                    if !site.in_test {
                        live.insert(block);
                    }
                }
            }
        }
    }

    for (file, facts) in files {
        for row in &facts.rows {
            if declared.contains(&row.block) && !live.contains(&row.block) {
                emit(
                    file,
                    row.line,
                    format!(
                        "`{}` is declared in `BLOCK_LINES` but no instrumentation site hits it: \
                         delete the dead row",
                        show(&row.block)
                    ),
                );
            }
        }
    }

    diags.sort();
    diags
}

fn show(block: &BlockName) -> String {
    format!("{}/{}", block.0, block.1)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The rows of the `static BLOCK_LINES` (or `const`) declaration: every
/// `(id, lines)` literal pair between its `=` and closing `;`, filed
/// under the `Component::Name` most recently seen.
fn table_rows(lines: &[LineInfo]) -> Vec<Row> {
    let is_decl = |code: &str| {
        ["static BLOCK_LINES", "const BLOCK_LINES"]
            .iter()
            .any(|pat| crate::scan::has_token(code, pat))
    };
    let Some(start) = lines.iter().position(|l| is_decl(&l.code)) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    let mut component: Option<String> = None;
    let mut depth = 0i32;
    let mut in_value = false;
    for (idx, line) in lines.iter().enumerate().skip(start) {
        let code = line.code.as_str();
        for (at, c) in code.char_indices() {
            match c {
                '=' if depth == 0 => in_value = true,
                ';' if depth == 0 && in_value => return rows,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                _ => {}
            }
            if !in_value {
                continue;
            }
            let rest = &code[at..];
            if let Some(name) = rest.strip_prefix("Component::") {
                if !code[..at].chars().next_back().is_some_and(is_ident) {
                    component = Some(name.chars().take_while(|&c| is_ident(c)).collect());
                }
            } else if c == '(' {
                if let (Some(component), Some((id, weight))) = (&component, literal_pair(rest)) {
                    rows.push(Row {
                        block: (component.clone(), id),
                        lines: weight,
                        line: idx,
                    });
                }
            }
        }
    }
    rows
}

/// Parse a leading `(digits, digits)`.
fn literal_pair(text: &str) -> Option<(u32, u32)> {
    let inner = &text[1..text.find(')')?];
    let (a, b) = inner.split_once(',')?;
    Some((literal(a)?, literal(b)?))
}

/// A plain decimal literal (surrounding whitespace allowed).
fn literal(text: &str) -> Option<u32> {
    let text = text.trim();
    if text.is_empty() || !text.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// The instrumentation sites on one line of code: each
/// `cov.hit(Component::Name, id)`, as the block it names or — when an
/// argument is not a literal — its argument text.
fn sites_on(code: &str) -> impl Iterator<Item = Result<BlockName, String>> + '_ {
    const OPENER: &str = "cov.hit(";
    code.match_indices(OPENER).filter_map(move |(at, _)| {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            return None; // `mycov.hit(`: another name
        }
        let args = call_args(&code[at + OPENER.len()..]);
        let named = match args.as_slice() {
            [component, id] => component
                .trim()
                .rsplit_once("::")
                .filter(|(path, _)| *path == "Component" || path.ends_with("::Component"))
                .and_then(|(_, name)| variant(name))
                .zip(literal(id)),
            _ => None,
        };
        Some(named.ok_or_else(|| args.join(",").trim().to_string()))
    })
}

/// Split the text after a call's `(` at its top-level commas, up to the
/// matching `)` (or the end of the line for a call that continues).
fn call_args(text: &str) -> Vec<&str> {
    let mut args = Vec::new();
    let (mut depth, mut from) = (0i32, 0);
    for (at, c) in text.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => {
                args.push(&text[from..at]);
                return args;
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                args.push(&text[from..at]);
                from = at + 1;
            }
            _ => {}
        }
    }
    args.push(&text[from..]);
    args
}

/// A bare `Component` variant name.
fn variant(text: &str) -> Option<String> {
    let name = text.trim();
    (!name.is_empty() && name.chars().all(is_ident)).then(|| name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    const TABLE: &str = "\
pub static BLOCK_LINES: [[u8; 256]; 12] = block_lines(&[
    (Component::Vmx, &[
        // hypervisor.rs
        (0, 6), (12, 5),
    ]),
    (Component::Io, &[(1, 3)]),
]);
const AFTER: (u32, u32) = (7, 7);
";

    fn facts(src: &str) -> CovFacts {
        collect(&scan(src))
    }

    fn names(rows: &[Row]) -> Vec<(String, u32)> {
        rows.iter()
            .map(|r| (show(&r.block), r.lines))
            .collect::<Vec<_>>()
    }

    #[test]
    fn table_rows_are_filed_under_their_component_and_stop_at_the_semicolon() {
        let rows = facts(TABLE).rows;
        assert_eq!(
            names(&rows),
            [
                ("Vmx/0".into(), 6),
                ("Vmx/12".into(), 5),
                ("Io/1".into(), 3)
            ]
        );
        assert_eq!(rows[1].line, 3);
    }

    #[test]
    fn hit_sites_parse_and_lookalikes_are_not_sites() {
        let src = "\
fn f(ctx: &mut Ctx, cov: &mut CovSink<'_>) {
    ctx.cov.hit(Component::Vmx, 12);
    cov.hit(crate::coverage::Component::Io, 1);
    ctx.cov.hit(Component::Vmx, 0);
    cov.hit(iris_hv::coverage::Component::Io, 1);
    discovered.hit(block);
    mycov.hit(Component::Vmx, 97);
    // cov.hit(Component::Vmx, 99) in a comment, and \"cov.hit(Component::Vmx, 98)\" in a string
}
";
        let sites: Vec<_> = facts(src)
            .sites
            .into_iter()
            .map(|s| s.block.map(|b| show(&b)))
            .collect();
        assert_eq!(
            sites,
            [
                Ok("Vmx/12".to_string()),
                Ok("Io/1".into()),
                Ok("Vmx/0".into()),
                Ok("Io/1".into())
            ]
        );
    }

    #[test]
    fn computed_ids_and_variable_components_are_not_literals() {
        let src = "\
fn f(ctx: &mut Ctx, c: Component, id: u16) {
    ctx.cov.hit(Component::Vmx, 200 - 1);
    ctx.cov.hit(c, 3);
    ctx.cov.hit(Component::Vmx, id);
    ctx.cov.hit(Component::Vmx, 12, 5);
    ctx.cov.hit(Vmx, 12);
}
macro_rules! cov {
    ($ctx:expr, $comp:ident, $id:expr) => {
        $ctx.cov.hit($crate::coverage::Component::$comp, $id)
    };
}
";
        let sites = facts(src).sites;
        assert_eq!(sites.len(), 6);
        assert!(sites.iter().all(|s| s.block.is_err()), "{sites:?}");
    }

    #[test]
    fn the_law_holds_across_files_and_names_each_breach() {
        let sites = "\
fn f(ctx: &mut Ctx) {
    ctx.cov.hit(Component::Vmx, 12);
    ctx.cov.hit(Component::Vmx, 0);
    ctx.cov.hit(Component::Io, 1);
}
";
        let clean = [
            ("coverage.rs".to_string(), facts(TABLE)),
            ("handlers.rs".to_string(), facts(sites)),
        ];
        assert_eq!(check(&clean), []);

        // Drop Io/1's only site, and hit a block nobody declared.
        let broken = sites.replace("(Component::Io, 1)", "(Component::Io, 2)");
        let diags = check(&[
            ("coverage.rs".to_string(), facts(TABLE)),
            ("handlers.rs".to_string(), facts(&broken)),
        ]);
        let lines: Vec<_> = diags
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.message.as_str()))
            .collect();
        assert!(
            matches!(lines[..], [
                ("coverage.rs", 6, dead),
                ("handlers.rs", 4, undeclared),
            ] if dead.contains("`Io/1`") && dead.contains("dead row")
                && undeclared.contains("`Io/2`") && undeclared.contains("does not declare")),
            "{diags:?}"
        );
    }

    #[test]
    fn a_site_in_test_code_does_not_keep_a_row_alive() {
        let src = format!(
            "{TABLE}
fn f(ctx: &mut Ctx) {{
    ctx.cov.hit(Component::Vmx, 12);
    ctx.cov.hit(Component::Vmx, 0);
}}
#[cfg(test)]
mod tests {{
    fn g(ctx: &mut Ctx) {{
        ctx.cov.hit(Component::Io, 1);
    }}
}}
"
        );
        let diags = check(&[("one.rs".to_string(), facts(&src))]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`Io/1`"), "{diags:?}");
    }
}
