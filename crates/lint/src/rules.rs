//! The rule catalog: each invariant the workspace enforces statically.
//!
//! Six rules are token-pattern matchers over the output of
//! [`crate::lexer`], run over every token of a file (macro bodies
//! included); the four `semantic` rules are driven by [`crate::semantic`]
//! instead. Rules are deliberately narrow — they target the bug
//! classes this codebase has actually hit (NaN-poisoned float orderings,
//! wall-clock reads in deterministic paths, panicking unwraps in numeric
//! kernels) rather than attempting general Rust semantics. Each rule
//! carries an `explain` text served by `ld-lint --explain <rule>` that ties
//! the invariant back to the framework's fault model.

use crate::lexer::{Token, TokenKind};

/// A violation as produced by a rule, before suppression resolution (the
/// engine fills in file, rule id, and hint).
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// 1-based source line.
    pub line: u32,
    /// What exactly was matched.
    pub message: String,
}

/// Per-file context handed to each rule.
pub struct FileContext<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// The crate directory name under `crates/` (e.g. `linalg`); empty for
    /// the root package's `src/`.
    pub crate_name: &'a str,
    /// File name (e.g. `config.rs`).
    pub file_name: &'a str,
    /// The lexed token stream.
    pub tokens: &'a [Token],
    /// Half-open token-index ranges covered by `#[cfg(test)]` / `#[test]`
    /// items.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileContext<'_> {
    /// Whether token index `i` falls inside test-only code.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// A static-analysis rule.
pub struct Rule {
    /// Stable rule id (used in reports and suppressions).
    pub id: &'static str,
    /// One-line description for the catalog listing.
    pub summary: &'static str,
    /// How to fix a violation (appended to every report).
    pub fix_hint: &'static str,
    /// Long-form rationale for `--explain`.
    pub explain: &'static str,
    /// Whether violations inside `#[cfg(test)]` / `#[test]` code are
    /// ignored.
    pub skip_tests: bool,
    /// Whether the rule is an AST + dataflow analysis run by
    /// [`crate::semantic`] rather than a token matcher. Semantic rules have
    /// a no-op `check`.
    pub semantic: bool,
    /// The token matcher (no-op for semantic rules).
    pub check: fn(&FileContext<'_>) -> Vec<RawViolation>,
}

/// Crates in which `determinism` wall-clock / environment reads are
/// allowed: telemetry and fault injection exist to observe real time and
/// real env, the bench harnesses read experiment knobs and time kernels
/// against the wall clock, and the linter itself walks the real filesystem.
pub(crate) const DETERMINISM_ALLOWED_CRATES: &[&str] =
    &["telemetry", "faultinject", "bench", "lint", "perfbench"];

/// Crates whose non-test code must not `unwrap()`/`expect()`: the numeric
/// hot paths that the PR 2 fault-tolerance layer expects to return errors.
pub(crate) const UNWRAP_CORE_CRATES: &[&str] = &["linalg", "gp", "nn"];

/// Integer types a float-to-int `as` cast can silently truncate into.
pub(crate) const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Float methods whose result is float-typed, making a following `as <int>`
/// cast a truncation of float-derived arithmetic.
pub(crate) const FLOAT_PRODUCING_METHODS: &[&str] = &["round", "floor", "ceil", "trunc"];

/// The full rule set, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            id: "float-ord",
            summary: "partial_cmp(..).unwrap() / unwrap_or(..) comparators on floats",
            fix_hint: "use f64::total_cmp (or f32::total_cmp) for a total, NaN-deterministic order",
            explain: "\
`partial_cmp` on floats returns None when either operand is NaN. Unwrapping it
turns one NaN anywhere in a candidate pool into a panic inside sort_by/max_by —
exactly how a single diverged trial can kill an entire self-optimization run.
The `unwrap_or(Ordering::Equal)` variant is no better: it does not panic, but it
makes the comparator non-transitive, so the sort order (and therefore the
selected model, the reported argmin, the chosen pivot) depends on element order
and sort internals — silently corrupting reported accuracy, the failure mode
the esDNN and Bi-LSTM reproductions document.

Fix: `xs.sort_by(f64::total_cmp)` / `.max_by(|a, b| a.1.total_cmp(&b.1))`.
`total_cmp` implements the IEEE 754 totalOrder predicate: every float including
NaN has one deterministic position, on every platform, every run.",
            skip_tests: false,
            semantic: false,
            check: check_float_ord,
        },
        Rule {
            id: "nan-compare",
            summary: "comparisons with NAN constants or x != x / x == x idioms",
            fix_hint: "use .is_nan() — every ordered comparison with NaN is false",
            explain: "\
`x == f64::NAN` is always false and `x != f64::NAN` is always true, so either
one is a latent logic bug. The `x != x` idiom does detect NaN but reads as a
typo, is destroyed by well-meaning refactors (`clippy::eq_op` style fixes), and
hides the intent from reviewers auditing numeric code. The framework's
sanitizers and watchdogs all branch on NaN; those branches must be written as
`.is_nan()` so they survive review and refactoring.",
            skip_tests: false,
            semantic: false,
            check: check_nan_compare,
        },
        Rule {
            id: "determinism",
            summary: "wall-clock or environment reads in deterministic paths",
            fix_hint: "inject time/config via parameters, or justify with an inline allow; \
only ld-telemetry, ld-faultinject, ld-bench, ld-lint, and config modules may read them freely",
            explain: "\
The reproduction's core guarantee is bit-identical runs per seed: the same
trace, the same BO trial sequence, the same selected hyperparameters. Any
`Instant::now()`, `SystemTime`, or `std::env::var` in the train/search path is
a hidden input that can change results between runs or machines — the seeding
and ordering bugs that silently corrupt reported accuracy in published
reproductions. ld-telemetry (span timestamps), fault injection (env-keyed plans),
the bench harness (experiment knobs), and the linter itself are allow-listed;
deliberate uses elsewhere (e.g. a wall-clock search deadline that only bounds
*how many* trials run, never *which result a trial produces*) must carry an
inline `// ld-lint: allow(determinism, \"...\")` justification so the
reviewer-visible contract is explicit.",
            skip_tests: true,
            semantic: false,
            check: check_determinism,
        },
        Rule {
            id: "unwrap-in-core",
            summary: "unwrap()/expect() in ld-linalg / ld-gp / ld-nn non-test code",
            fix_hint: "return Result through the LinalgError / FrameworkError paths instead",
            explain: "\
The PR 2 fault-tolerance layer (trial isolation, GP jitter escalation, trainer
watchdog, baseline fallback) can only recover from failures that surface as
`Err`. A panic inside the numeric kernels rips through `catch_unwind`-free
paths and kills the whole optimization loop, converting a recoverable bad
trial into a crashed run. `ld-linalg`, `ld-gp`, and `ld-nn` therefore must
route every fallible operation through their `Result` types; genuinely
infallible cases (shape guaranteed by construction) carry an inline allow with
the proof in the justification string.",
            skip_tests: true,
            semantic: false,
            check: check_unwrap_in_core,
        },
        Rule {
            id: "lossy-cast",
            summary: "float-derived `as` casts to integer types",
            fix_hint: "guard non-finite values and clamp to the valid range before casting",
            explain: "\
`expr as usize` on a float silently saturates: NaN becomes 0, negatives clamp
to 0, and +inf becomes usize::MAX. When the cast feeds index arithmetic a NaN
upstream turns into index 0 — not a crash, a *wrong answer* (reading the wrong
percentile, provisioning 0 VMs). This rule flags the float-derived forms the
lexer can prove (`.round()/.floor()/.ceil()/.trunc() as <int>` and float
literals cast to ints); prefer `.clamp(lo, hi)` on the float and an
`is_finite` check before the cast, or carry an inline allow with the proof if
the value is bounded by construction.",
            skip_tests: true,
            semantic: false,
            check: check_lossy_cast,
        },
        Rule {
            id: "unsafe-block",
            summary: "any use of `unsafe`",
            fix_hint: "the workspace forbids unsafe code; find a safe formulation",
            explain: "\
Every workspace crate carries `#![forbid(unsafe_code)]`: the entire framework
is pure safe Rust over `f64`, and nothing in the LSTM/GP/BO stack needs raw
pointers. This rule is the belt to that attribute's suspenders — it also fires
if someone *removes* the attribute, and it covers macro-generated or
cfg-gated code paths the compiler attribute may not reach in every build
configuration.",
            skip_tests: false,
            semantic: false,
            check: check_unsafe_block,
        },
        Rule {
            id: "determinism-taint",
            summary: "nondeterministic values flowing into digests, span trees, or seeds",
            fix_hint: "derive digests/seeds/span indices from run inputs (seed, config, data), \
never from clocks, thread identity, env, or hash-map iteration order",
            explain: "\
The legacy `determinism` rule flags wall-clock and env *reads*; this rule flags
what the read *feeds*. A dataflow pass tracks four nondeterminism sources —
wall clock (`Instant::now`, `SystemTime`, `.elapsed()`), thread identity,
`env::var*`, and `HashMap`/`HashSet` iteration order — through assignments,
arithmetic, closures, and branches, and reports when a tainted value reaches a
determinism-critical sink: a digest/fingerprint/checksum computation, a span
tree's name or index (the shape of the trace is part of the reproducibility
contract; span *durations* are expected to vary and are not checked), a seed,
or a `seed`-named binding/field. Allow-listed crates are still checked: it is
fine for ld-bench to *time* a kernel, but not to fold that timing into a
`BENCH_*` artifact digest or an RNG seed. The analysis is intraprocedural, so
a taint laundered through a helper function is not tracked — keep sources and
sinks visibly apart.",
            skip_tests: true,
            semantic: true,
            check: check_none,
        },
        Rule {
            id: "panic-path",
            summary: "unwrap()/expect() reachable from public hot entry points",
            fix_hint: "return Result along the public path, or carry an inline allow with the \
infallibility proof; `allow(unwrap-in-core, ..)` on the same line also covers this rule",
            explain: "\
Successor to the blunt `unwrap-in-core` crate-wide ban: instead of flagging
every unwrap in a crate, this rule builds the per-file call graph and walks it
from `pub fn` entry points, so it reports only panics that a *caller outside
the file* can actually trigger, and names the entry point in the message.
Scope is the serving and numeric hot paths — ld-linalg, ld-nn, ld-serve
(binaries and `main.rs` excluded: a CLI may die loudly). ld-serve is the new
ground: a panic inside the multi-tenant engine kills every tenant's inference
on that process, so registry/snapshot/engine code reachable from the serving
API must surface `Err` and let the per-tenant isolation layer degrade one
tenant instead. It also flags slice indexing whose index is a float-derived
cast reachable from the same entry points (NaN → index 0 → silent wrong
tenant/percentile). The call graph is name-matched within one file; cross-file
reachability is approximated by treating every `pub fn` as an entry.",
            skip_tests: true,
            semantic: true,
            check: check_none,
        },
        Rule {
            id: "range-cast",
            summary: "float→int `as` casts not provable safe by value-range analysis",
            fix_hint: "guard with ld_api::num::to_count / to_index / to_int, or clamp into the \
target range behind an is_finite check in the same function",
            explain: "\
Generalizes `lossy-cast` from two token shapes to every float→int `as` cast,
and — the other direction — *clears* casts the old rule could only baseline.
A forward dataflow pass tracks each float's `[lo, hi]` interval and a
may-be-NaN bit through clamps, min/max, abs, branches (`if !x.is_finite() {
return 0; }` refines the fall-through), and arithmetic. A cast is safe when
the operand provably cannot be NaN, negative (for unsigned targets), or above
the target's range — exactly the shape of the `ld_api::num::to_count` /
`to_index` / `to_int` helpers, whose interior casts this analysis proves safe
with no baseline entry. Anything not provable is reported with the inferred
interval so the fix (which bound is missing) is visible in the message. The
old `.round() as usize` baseline entries are gone: those sites now route
through the helpers and the rule keeps them honest.",
            skip_tests: true,
            semantic: true,
            check: check_none,
        },
        Rule {
            id: "rayon-capture",
            summary: "rayon parallel closures mutating captured non-reduction state",
            fix_hint: "collect per-item results (`map().collect()`) or use rayon's fold/reduce; \
mutate only closure-owned locals and `par_chunks_mut`-style parameters",
            explain: "\
`par_iter().for_each(|x| shared.lock().push(..))` compiles — the Mutex makes
it data-race-free — but the *push order* is scheduler-dependent, so the
resulting Vec ordering (and anything derived from it: a digest, a selected
argmin on ties, a serialized artifact) differs run to run. That breaks the
framework's bit-identical-runs-per-seed guarantee in exactly the way a race
would, without the compiler's help in finding it. This rule walks every
closure passed into a rayon parallel chain (`par_iter`, `into_par_iter`,
`par_chunks_mut`, ...) and flags assignments or mutating method calls
(`push`, `insert`, `extend`, `sort*`, ...) whose base variable is captured
from the enclosing scope rather than bound inside the closure — closure
parameters (fold accumulators, `par_chunks_mut` slices) and closure-local
`let`s are reduction state and stay allowed.",
            skip_tests: true,
            semantic: true,
            check: check_none,
        },
    ]
}

/// Matcher for semantic rules: they are driven by [`crate::semantic`], not
/// by token patterns.
fn check_none(_ctx: &FileContext<'_>) -> Vec<RawViolation> {
    Vec::new()
}

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.id == id)
}

/// Given the index of an opening `(`/`[`/`{`, returns the index just past
/// its matching close (or the end of the stream if unbalanced).
fn skip_balanced(tokens: &[Token], open: usize) -> usize {
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

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn check_float_ord(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "partial_cmp") {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|t| is_punct(t, "(")) else {
            continue;
        };
        let _ = open;
        let after = skip_balanced(toks, i + 1);
        let (Some(dot), Some(call)) = (toks.get(after), toks.get(after + 1)) else {
            continue;
        };
        if is_punct(dot, ".") && (is_ident(call, "unwrap") || is_ident(call, "unwrap_or")) {
            out.push(RawViolation {
                line: toks[i].line,
                message: format!(
                    "float comparator `partial_cmp(..).{}(..)` panics or degrades on NaN",
                    call.text
                ),
            });
        }
    }
    out
}

fn check_nan_compare(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Punct || (toks[i].text != "==" && toks[i].text != "!=") {
            continue;
        }
        let op = &toks[i].text;
        // `== f64::NAN` / `NAN ==` on either side.
        let nan_right = toks.get(i + 1).map(|t| is_ident(t, "f64") || is_ident(t, "f32"))
            == Some(true)
            && toks.get(i + 2).map(|t| is_punct(t, "::")) == Some(true)
            && toks.get(i + 3).map(|t| is_ident(t, "NAN")) == Some(true);
        let nan_left = i >= 1 && is_ident(&toks[i - 1], "NAN");
        if nan_right || nan_left {
            out.push(RawViolation {
                line: toks[i].line,
                message: format!(
                    "comparison `{op}` with NAN is constant (NaN never compares equal)"
                ),
            });
            continue;
        }
        // `x != x` / `x == x` on a bare identifier (the hand-rolled NaN test).
        if i >= 1
            && toks[i - 1].kind == TokenKind::Ident
            && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident)
            && toks[i - 1].text == toks[i + 1].text
            && !(i >= 2 && is_punct(&toks[i - 2], "."))
            && toks.get(i + 2).map(|t| is_punct(t, ".")) != Some(true)
        {
            let x = &toks[i - 1].text;
            out.push(RawViolation {
                line: toks[i].line,
                message: format!("self-comparison `{x} {op} {x}` is a hand-rolled NaN test"),
            });
        }
    }
    out
}

fn check_determinism(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    if DETERMINISM_ALLOWED_CRATES.contains(&ctx.crate_name) || ctx.file_name == "config.rs" {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if is_ident(t, "Instant")
            && toks.get(i + 1).map(|t| is_punct(t, "::")) == Some(true)
            && toks.get(i + 2).map(|t| is_ident(t, "now")) == Some(true)
        {
            out.push(RawViolation {
                line: t.line,
                message: "`Instant::now()` reads the wall clock in a deterministic path".into(),
            });
        } else if is_ident(t, "SystemTime") {
            out.push(RawViolation {
                line: t.line,
                message: "`SystemTime` reads the wall clock in a deterministic path".into(),
            });
        } else if is_ident(t, "env")
            && toks.get(i + 1).map(|t| is_punct(t, "::")) == Some(true)
            && toks
                .get(i + 2)
                .map(|t| is_ident(t, "var") || is_ident(t, "var_os") || is_ident(t, "vars"))
                == Some(true)
        {
            out.push(RawViolation {
                line: t.line,
                message: format!(
                    "`env::{}` reads the process environment in a deterministic path",
                    toks[i + 2].text
                ),
            });
        }
    }
    out
}

fn check_unwrap_in_core(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    if !UNWRAP_CORE_CRATES.contains(&ctx.crate_name) {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 1..toks.len() {
        if !is_punct(&toks[i - 1], ".") {
            continue;
        }
        if (is_ident(&toks[i], "unwrap") || is_ident(&toks[i], "expect"))
            && toks.get(i + 1).map(|t| is_punct(t, "(")) == Some(true)
        {
            out.push(RawViolation {
                line: toks[i].line,
                message: format!(
                    "`.{}()` can panic inside a numeric hot path that the recovery layer \
                     expects to return Err",
                    toks[i].text
                ),
            });
        }
    }
    out
}

fn check_lossy_cast(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if ty.kind != TokenKind::Ident || !INT_TYPES.contains(&ty.text.as_str()) {
            continue;
        }
        // Float literal cast: `1.5 as usize`.
        if i >= 1 && toks[i - 1].kind == TokenKind::Float {
            out.push(RawViolation {
                line: toks[i].line,
                message: format!("float literal cast `as {}` truncates", ty.text),
            });
            continue;
        }
        // `.round() as usize` and friends: `<m> ( ) as <int>` with a `.`
        // before the method name.
        if i >= 4
            && is_punct(&toks[i - 1], ")")
            && is_punct(&toks[i - 2], "(")
            && toks[i - 3].kind == TokenKind::Ident
            && FLOAT_PRODUCING_METHODS.contains(&toks[i - 3].text.as_str())
            && is_punct(&toks[i - 4], ".")
        {
            out.push(RawViolation {
                line: toks[i].line,
                message: format!(
                    "float-derived cast `.{}() as {}` maps NaN to 0 and saturates infinities",
                    toks[i - 3].text,
                    ty.text
                ),
            });
        }
    }
    out
}

fn check_unsafe_block(ctx: &FileContext<'_>) -> Vec<RawViolation> {
    ctx.tokens
        .iter()
        .filter(|t| is_ident(t, "unsafe"))
        .map(|t| RawViolation {
            line: t.line,
            message: "`unsafe` is forbidden workspace-wide".into(),
        })
        .collect()
}
