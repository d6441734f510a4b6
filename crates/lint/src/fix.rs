//! Machine-applicable fixes (`ld-lint --fix`).
//!
//! A fix is a byte-range edit derived from the AST, proposed only where an
//! *active* violation exists (suppressed sites are left alone — their
//! justification is a human decision the tool must not override). Two
//! rewrites are machine-applicable today:
//!
//! - `float-ord`: `a.partial_cmp(b).unwrap()` → `a.total_cmp(b)` — the
//!   exact replacement the rule's fix hint prescribes. Only the `.unwrap()`
//!   form is rewritten; `unwrap_or(..)` variants embed a policy choice
//!   (what order NaN sorts into) that needs a human.
//! - `lossy-cast`: `<float-expr>.round() as usize` (and `floor`/`ceil`/
//!   `trunc`) → `ld_api::num::to_count(<float-expr>.round())`, the guarded
//!   conversion whose interior cast `range-cast` can prove safe. Only
//!   `usize` targets are rewritten — that is what `to_count` returns.
//!
//! Edits within one file are validated to be non-overlapping and applied
//! in descending byte order, then written atomically (temp file + rename)
//! so an interrupted `--fix` never leaves a half-written source file.
//! `--fix --dry-run` prints the proposed replacements without touching
//! anything; on a clean tree it must propose zero edits (CI enforces
//! idempotence).

use crate::ast::{Expr, ExprKind, FileAst};
use crate::lexer::TokenKind;
use crate::rules::{self, FileContext};
use std::path::Path;

/// One proposed byte-range replacement.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Byte offset where the replaced region starts.
    pub lo: usize,
    /// Byte offset one past the replaced region.
    pub hi: usize,
    /// Replacement text.
    pub replacement: String,
    /// 1-based line of the violation the edit fixes.
    pub line: u32,
    /// Rule the edit fixes.
    pub rule: &'static str,
}

/// Plans fixes for one file. `wanted` filters to sites with an active
/// violation: `wanted(rule, line)` must return true for an edit to be
/// proposed.
pub fn plan_fixes(
    ctx: &FileContext<'_>,
    ast: &FileAst,
    source: &str,
    wanted: &dyn Fn(&str, u32) -> bool,
) -> Vec<Edit> {
    let mut edits = Vec::new();
    for item in &ast.items {
        crate::ast::walk_item_exprs(item, &mut |e| {
            fix_float_ord(ctx, e, wanted, &mut edits);
            fix_round_cast(ctx, e, source, wanted, &mut edits);
        });
    }
    edits.sort_by_key(|e| e.lo);
    edits.dedup_by_key(|e| e.lo);
    edits
}

/// `a.partial_cmp(b).unwrap()` → `a.total_cmp(b)`: rename the inner
/// method, delete the `.unwrap()` call.
fn fix_float_ord(
    ctx: &FileContext<'_>,
    e: &Expr,
    wanted: &dyn Fn(&str, u32) -> bool,
    edits: &mut Vec<Edit>,
) {
    let ExprKind::MethodCall {
        recv,
        method,
        method_tok,
        args,
    } = &e.kind
    else {
        return;
    };
    if method != "unwrap" || !args.is_empty() {
        return;
    }
    let ExprKind::MethodCall {
        method: inner,
        method_tok: inner_tok,
        ..
    } = &recv.kind
    else {
        return;
    };
    if inner != "partial_cmp" {
        return;
    }
    let m = *method_tok;
    // Shape check: `. unwrap ( )` as four consecutive tokens.
    let shape_ok = ctx.tokens.get(m.wrapping_sub(1)).map(|t| t.text.as_str()) == Some(".")
        && ctx.tokens.get(m + 1).map(|t| t.text.as_str()) == Some("(")
        && ctx.tokens.get(m + 2).map(|t| t.text.as_str()) == Some(")");
    if !shape_ok {
        return;
    }
    let line = ctx.tokens[*inner_tok].line;
    if !wanted("float-ord", line) {
        return;
    }
    let pc = &ctx.tokens[*inner_tok];
    edits.push(Edit {
        lo: pc.lo,
        hi: pc.hi,
        replacement: "total_cmp".into(),
        line,
        rule: "float-ord",
    });
    edits.push(Edit {
        lo: ctx.tokens[m - 1].lo,
        hi: ctx.tokens[m + 2].hi,
        replacement: String::new(),
        line,
        rule: "float-ord",
    });
}

/// `<expr>.round() as usize` → `ld_api::num::to_count(<expr>.round())`
/// (`crate::num::to_count` inside the `api` crate itself).
fn fix_round_cast(
    ctx: &FileContext<'_>,
    e: &Expr,
    source: &str,
    wanted: &dyn Fn(&str, u32) -> bool,
    edits: &mut Vec<Edit>,
) {
    let ExprKind::Cast { expr, as_tok, ty } = &e.kind else {
        return;
    };
    let Some(ty_tok) = ctx.tokens.get(ty.0) else {
        return;
    };
    if ty_tok.kind != TokenKind::Ident || ty_tok.text != "usize" || ty.1 != ty.0 + 1 {
        return;
    }
    let ExprKind::MethodCall { method, args, .. } = &expr.kind else {
        return;
    };
    if !args.is_empty()
        || !rules::FLOAT_PRODUCING_METHODS.contains(&method.as_str())
        || expr.span.1 != *as_tok
    {
        return;
    }
    let line = ctx.tokens[*as_tok].line;
    if !wanted("lossy-cast", line) {
        return;
    }
    let (Some(first), Some(last)) = (ctx.tokens.get(expr.span.0), ctx.tokens.get(ty.1 - 1))
    else {
        return;
    };
    let operand = &source[ctx.tokens[expr.span.0].lo..ctx.tokens[*as_tok - 1].hi];
    let helper = if ctx.crate_name == "api" {
        "crate::num::to_count"
    } else {
        "ld_api::num::to_count"
    };
    edits.push(Edit {
        lo: first.lo,
        hi: last.hi,
        replacement: format!("{helper}({operand})"),
        line,
        rule: "lossy-cast",
    });
}

/// Applies non-overlapping edits to `source`. Returns `None` if any two
/// edits overlap (a planning bug — nothing is applied).
pub fn apply_edits(source: &str, edits: &[Edit]) -> Option<String> {
    let mut sorted: Vec<&Edit> = edits.iter().collect();
    sorted.sort_by_key(|e| e.lo);
    for w in sorted.windows(2) {
        if w[1].lo < w[0].hi {
            return None;
        }
    }
    let mut out = source.to_string();
    for e in sorted.iter().rev() {
        if e.hi > out.len() {
            return None;
        }
        out.replace_range(e.lo..e.hi, &e.replacement);
    }
    Some(out)
}

/// Writes `content` to `path` atomically: temp file in the same directory,
/// then rename over the original.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("rs.ld-lint-fix-tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Renders one file's proposed edits for `--dry-run`.
pub fn render_dry_run(rel_path: &str, source: &str, edits: &[Edit]) -> String {
    let mut out = String::new();
    for e in edits {
        let old = &source[e.lo.min(source.len())..e.hi.min(source.len())];
        if e.replacement.is_empty() {
            out.push_str(&format!(
                "{rel_path}:{}: [{}] delete `{}`\n",
                e.line, e.rule, old
            ));
        } else {
            out.push_str(&format!(
                "{rel_path}:{}: [{}] replace `{}` with `{}`\n",
                e.line, e.rule, old, e.replacement
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::engine;
    use crate::lexer;

    fn plan(src: &str) -> (Vec<Edit>, String) {
        let lexed = lexer::lex(src);
        let ctx = engine::file_context("crates/x/src/lib.rs", &lexed.tokens);
        let parsed = ast::parse(&lexed.tokens);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let edits = plan_fixes(&ctx, &parsed, src, &|_, _| true);
        let fixed = apply_edits(src, &edits).expect("edits overlap");
        (edits, fixed)
    }

    #[test]
    fn rewrites_partial_cmp_unwrap_to_total_cmp() {
        let (edits, fixed) = plan(
            "pub fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        );
        assert_eq!(edits.len(), 2);
        assert!(fixed.contains("a.total_cmp(b));"), "{fixed}");
        assert!(!fixed.contains("unwrap"), "{fixed}");
    }

    #[test]
    fn leaves_unwrap_or_comparators_alone() {
        let (edits, _) = plan(
            "pub fn f(xs: &mut [f64]) {\n\
             \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n\
             }\n",
        );
        assert!(edits.is_empty());
    }

    #[test]
    fn rewrites_round_cast_to_guarded_helper() {
        let (edits, fixed) = plan("pub fn f(x: f64) -> usize {\n    (x * 3.0).round() as usize\n}\n");
        assert_eq!(edits.len(), 1);
        assert!(
            fixed.contains("ld_api::num::to_count((x * 3.0).round())"),
            "{fixed}"
        );
    }

    #[test]
    fn leaves_non_usize_targets_alone() {
        let (edits, _) = plan("pub fn f(x: f64) -> u64 {\n    x.round() as u64\n}\n");
        assert!(edits.is_empty());
    }

    #[test]
    fn wanted_filter_gates_proposals() {
        let src = "pub fn f(x: f64) -> usize {\n    x.round() as usize\n}\n";
        let lexed = lexer::lex(src);
        let ctx = engine::file_context("crates/x/src/lib.rs", &lexed.tokens);
        let parsed = ast::parse(&lexed.tokens);
        let edits = plan_fixes(&ctx, &parsed, src, &|_, _| false);
        assert!(edits.is_empty());
    }

    #[test]
    fn overlapping_edits_are_rejected() {
        let edits = vec![
            Edit {
                lo: 0,
                hi: 5,
                replacement: "a".into(),
                line: 1,
                rule: "x",
            },
            Edit {
                lo: 3,
                hi: 8,
                replacement: "b".into(),
                line: 1,
                rule: "x",
            },
        ];
        assert!(apply_edits("0123456789", &edits).is_none());
    }
}
