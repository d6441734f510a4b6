//! Scan orchestration: file discovery, test-span detection, suppression
//! directives, and violation assembly.

use crate::lexer::{self, DirectiveComment, Token, TokenKind};
use crate::rules::{self, FileContext, RawViolation};
use crate::{ast, semantic};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A fully-resolved violation.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (see [`rules::all_rules`]).
    pub rule: String,
    /// What was matched.
    pub message: String,
    /// How to fix it.
    pub hint: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A suppression directive that silenced nothing in this scan. Stale
/// allows are dead opt-outs: the hazard they excused is gone, so the
/// directive must go too (`--deny` fails on them).
#[derive(Debug, Clone, Serialize)]
pub struct StaleSuppression {
    /// Path relative to the workspace root.
    pub file: String,
    /// Line of the directive comment.
    pub line: u32,
    /// The rule the directive allows.
    pub rule: String,
}

/// Outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Violations no directive silenced (`--deny` fails on any).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Violations silenced by inline `ld-lint: allow` directives.
    pub suppressed: usize,
    /// Suppression directives that silenced nothing (stale — must be
    /// removed; `--deny` fails on them).
    pub stale_suppressions: Vec<StaleSuppression>,
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Lists every `.rs` file under the root package's `src/` and under each
/// `crates/*/src/`, sorted for deterministic report order.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("src"), &mut files);
        }
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A parsed suppression directive: `// ld-lint: allow(<rule>, "<why>")`.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rule: String,
}

/// Parses the directive comments of one file. Malformed directives become
/// violations under the synthetic `suppression` rule — an allow with no
/// justification must fail the gate, otherwise it is a silent opt-out.
fn parse_suppressions(
    rel_path: &str,
    directives: &[DirectiveComment],
    lines: &[&str],
) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for d in directives {
        let Some(rest) = d.text.trim().strip_prefix("ld-lint:") else {
            continue; // a comment merely mentioning ld-lint
        };
        let rest = rest.trim();
        let mut error = None;
        if let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) {
            let (rule, just) = match args.split_once(',') {
                Some((r, j)) => (r.trim(), j.trim()),
                None => (args.trim(), ""),
            };
            let justified = just.len() > 2 && just.starts_with('"') && just.ends_with('"');
            if rules::rule_by_id(rule).is_none() {
                error = Some(format!("unknown rule `{rule}` in suppression"));
            } else if !justified {
                error = Some(format!(
                    "suppression of `{rule}` lacks a justification string: \
                     use `ld-lint: allow({rule}, \"why this is sound\")`"
                ));
            } else {
                sups.push(Suppression {
                    line: d.line,
                    rule: rule.to_string(),
                });
            }
        } else {
            error = Some(format!("malformed ld-lint directive `{}`", rest));
        }
        if let Some(message) = error {
            bad.push(Violation {
                file: rel_path.to_string(),
                line: d.line,
                rule: "suppression".into(),
                message,
                hint: "ld-lint: allow(<rule>, \"<justification>\")".into(),
                snippet: snippet_at(lines, d.line),
            });
        }
    }
    (sups, bad)
}

fn snippet_at(lines: &[&str], line: u32) -> String {
    lines
        .get(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Computes token-index spans of test-only code: items annotated with
/// `#[test]` or `#[cfg(test)]` (including `#[cfg(all(test, ...))]`), from
/// the attribute through the end of the item's `{ ... }` body (or its
/// terminating `;`).
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokenKind::Punct && tokens[i].text == "#") {
            i += 1;
            continue;
        }
        let Some(open) = tokens.get(i + 1).filter(|t| t.text == "[") else {
            i += 1;
            continue;
        };
        let _ = open;
        let attr_end = skip_group(tokens, i + 1);
        let is_test_attr = match tokens.get(i + 2) {
            Some(t) if t.text == "test" => true,
            Some(t) if t.text == "cfg" => tokens[i + 2..attr_end].iter().any(|t| t.text == "test"),
            _ => false,
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // The item body: first `{` after the attribute (skipping further
        // attributes), matched to its closing brace; a `;` first means a
        // braceless item.
        let mut j = attr_end;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Punct && t.text == "#" && tokens.get(j + 1).map(|t| t.text.as_str()) == Some("[") {
                j = skip_group(tokens, j + 1);
                continue;
            }
            if t.kind == TokenKind::Punct && (t.text == "{" || t.text == ";") {
                break;
            }
            j += 1;
        }
        let end = if tokens.get(j).map(|t| t.text.as_str()) == Some("{") {
            skip_group(tokens, j)
        } else {
            j + 1
        };
        spans.push((i, end));
        i = end;
    }
    spans
}

/// From an opening bracket token index, returns the index past its match.
fn skip_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Violations no directive silenced.
    pub violations: Vec<Violation>,
    /// Count silenced by inline `ld-lint: allow` directives.
    pub suppressed: usize,
    /// Directives that silenced nothing.
    pub stale_suppressions: Vec<StaleSuppression>,
}

/// Whether a suppression of `allowed` silences a violation of `rule`.
/// `allow(unwrap-in-core)` also silences `panic-path`: both flag the same
/// `.unwrap()` token for the same reason, and a site whose justification
/// was accepted for one is justified for the other.
fn suppression_covers(allowed: &str, rule: &str) -> bool {
    allowed == rule || (allowed == "unwrap-in-core" && rule == "panic-path")
}

/// Builds the rule context for one file from `rel_path`, its `/`-separated
/// path relative to the workspace root: the crate is the directory under
/// `crates/` (empty for the root package's `src/`), and test spans come
/// from the tokens. The scanner and the `--fix` planner both start here, so
/// they agree on which crate-scoped rules apply to a file.
pub fn file_context<'a>(rel_path: &'a str, tokens: &'a [Token]) -> FileContext<'a> {
    FileContext {
        rel_path,
        crate_name: rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or(""),
        file_name: rel_path.rsplit('/').next().unwrap_or(rel_path),
        tokens,
        test_spans: test_spans(tokens),
    }
}

/// Scans one file's source text. `rel_path` must be the `/`-separated path
/// relative to the workspace root (it decides which crate-scoped rules
/// apply).
pub fn scan_source(rel_path: &str, source: &str) -> FileScan {
    let lexed = lexer::lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let ctx = file_context(rel_path, &lexed.tokens);
    let (sups, mut violations) = parse_suppressions(rel_path, &lexed.directives, &lines);
    let mut sup_used = vec![false; sups.len()];
    let mut suppressed = 0usize;

    // The token rules' matchers run over every token, macro bodies
    // included; the parse tree serves only the semantic rules. Test-span
    // filtering and suppressions then apply uniformly.
    let mut raws: Vec<(&'static str, RawViolation)> = Vec::new();
    for rule in rules::all_rules() {
        for raw in (rule.check)(&ctx) {
            raws.push((rule.id, raw));
        }
    }
    raws.extend(semantic::semantic_checks(&ctx, &ast::parse(&lexed.tokens)));

    let mut seen: BTreeSet<(&'static str, u32, String)> = BTreeSet::new();
    for (id, raw) in raws {
        let rule = rules::rule_by_id(id).expect("engine produced unknown rule id");
        if rule.skip_tests && line_in_test_code(&ctx, raw.line) {
            continue;
        }
        if !seen.insert((id, raw.line, raw.message.clone())) {
            continue;
        }
        // A directive on the violation line or the line directly above
        // suppresses it.
        let matched = sups.iter().position(|s| {
            suppression_covers(&s.rule, id) && (s.line == raw.line || s.line + 1 == raw.line)
        });
        if let Some(si) = matched {
            sup_used[si] = true;
            suppressed += 1;
            continue;
        }
        violations.push(Violation {
            file: rel_path.to_string(),
            line: raw.line,
            rule: id.to_string(),
            message: raw.message,
            hint: rule.fix_hint.to_string(),
            snippet: snippet_at(&lines, raw.line),
        });
    }
    violations.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));

    let stale_suppressions = sups
        .iter()
        .zip(&sup_used)
        .filter(|(s, used)| !**used && !line_in_test_code(&ctx, s.line))
        .map(|(s, _)| StaleSuppression {
            file: rel_path.to_string(),
            line: s.line,
            rule: s.rule.clone(),
        })
        .collect();

    FileScan {
        violations,
        suppressed,
        stale_suppressions,
    }
}

/// Whether any token on `line` falls inside a test span. Rules report the
/// line of their anchor token; mapping back through token indices keeps the
/// rule API line-based while test spans stay index-based.
fn line_in_test_code(ctx: &FileContext<'_>, line: u32) -> bool {
    ctx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.line == line)
        .any(|(i, _)| ctx.in_test_code(i))
}

/// Scans every workspace source file under `root`. `changed` optionally
/// restricts the scan to a set of `/`-separated workspace-relative paths
/// (`--changed-files`).
pub fn scan_workspace(root: &Path, changed: Option<&BTreeSet<String>>) -> ScanReport {
    let mut report = ScanReport::default();
    for path in workspace_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if changed.is_some_and(|set| !set.contains(&rel)) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let mut scan = scan_source(&rel, &source);
        report.suppressed += scan.suppressed;
        report.stale_suppressions.append(&mut scan.stale_suppressions);
        report.violations.extend(scan.violations);
    }
    report
}
