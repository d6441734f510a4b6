//! Semantic rules: AST + dataflow analyses over [`crate::ast`] and
//! [`crate::dataflow`].
//!
//! `determinism-taint` and `range-cast` run an abstract interpreter
//! ([`Interp`]): a forward dataflow fixpoint per function tracks a
//! nondeterminism-taint bitset and a float `[lo, hi]` / may-be-NaN
//! abstraction per variable, then a collection pass walks each CFG node
//! under its stabilized entry environment and records findings (tainted
//! sink calls, unproved float→int casts). `panic-path` and `rayon-capture`
//! are structural AST walks (call-graph reachability, closure capture
//! analysis) that need no value facts.

use crate::ast::{
    self, Block, Expr, ExprKind, FileAst, FnItem, Pat, Stmt, TokSpan, TypeClass, UnOp,
};
use crate::dataflow::{build_cfg, solve, AbsVal, Env, Node, Taint, Transfer, ENTRY, EXIT};
use crate::rules::{self, FileContext, RawViolation};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates whose public entry points must not panic (`panic-path`).
const PANIC_PATH_CRATES: &[&str] = &["linalg", "nn", "serve"];

/// Methods that start a rayon parallel chain.
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_bridge",
];

/// Container methods whose result order follows `HashMap`/`HashSet`
/// iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Methods that mutate their receiver in place (for `rayon-capture`).
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "extend",
    "extend_from_slice",
    "remove",
    "clear",
    "truncate",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "swap",
    "fill",
    "resize",
    "drain",
    "retain",
    "append",
    "pop",
    "dedup",
];

/// Runs the four semantic rules over one parsed file. Test-code and
/// suppression filtering happen in the engine (violations carry lines).
pub fn semantic_checks(
    ctx: &FileContext<'_>,
    ast: &FileAst,
) -> Vec<(&'static str, RawViolation)> {
    let mut out = Vec::new();
    let findings = analyze(ctx, ast);
    // determinism-taint honors the same exemptions as the lexical
    // `determinism` rule (observability/bench/linter crates, config
    // modules) plus binary entry points: CLI mains read env knobs and
    // derive experiment seeds from them by design.
    let det_exempt = rules::DETERMINISM_ALLOWED_CRATES.contains(&ctx.crate_name)
        || ctx.file_name == "config.rs"
        || ctx.file_name == "main.rs"
        || ctx.rel_path.contains("/bin/");
    let mut seen: BTreeSet<(&'static str, u32, String)> = BTreeSet::new();
    for f in &findings {
        if det_exempt && matches!(f, Finding::TaintedSink { .. }) {
            continue;
        }
        let (rule, line, message) = match f {
            Finding::TaintedSink { line, sink, taint } => (
                "determinism-taint",
                *line,
                format!(
                    "nondeterministic value ({}) flows into `{}`",
                    taint.describe(),
                    sink
                ),
            ),
            Finding::UnsafeCast { line, ty, reasons } => (
                "range-cast",
                *line,
                format!(
                    "float-to-int cast `as {ty}` is not provably safe: operand {}",
                    reasons.join(", ")
                ),
            ),
        };
        if seen.insert((rule, line, message.clone())) {
            out.push((rule, RawViolation { line, message }));
        }
    }
    panic_path(ctx, ast, &mut out);
    rayon_capture(ast, &mut out);
    out
}

/// One fact recorded by the collection pass.
enum Finding {
    /// A tainted value reached a determinism-critical sink.
    TaintedSink {
        line: u32,
        sink: String,
        taint: Taint,
    },
    /// A float→int cast whose operand could not be proven in range.
    UnsafeCast {
        line: u32,
        ty: String,
        reasons: Vec<String>,
    },
}

/// Runs the abstract interpreter over every function of the file and
/// returns the findings of the collection pass.
fn analyze(ctx: &FileContext<'_>, ast: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    ast::for_each_fn(ast, &mut |func| {
        let Some(cfg) = build_cfg(func) else { return };
        let mut interp = Interp::new(ctx);
        let entry = interp.entry_env(func);
        let envs = solve(&cfg, entry, &mut interp);
        interp.collecting = true;
        for (i, node) in cfg.nodes.iter().enumerate() {
            if i == ENTRY || i == EXIT {
                continue;
            }
            if let Some(env) = &envs[i] {
                let _ = interp.apply(node, 0, env);
            }
        }
        findings.append(&mut interp.findings);
    });
    findings
}

/// The abstract interpreter: a [`Transfer`] function over [`Env`] plus a
/// compositional expression evaluator.
struct Interp<'a> {
    ctx: &'a FileContext<'a>,
    /// Local variables known to be `HashMap`/`HashSet` containers.
    hash_vars: BTreeSet<String>,
    /// Whether `eval` records findings (collection pass) or only computes
    /// facts (fixpoint pass).
    collecting: bool,
    findings: Vec<Finding>,
}

impl<'a> Interp<'a> {
    fn new(ctx: &'a FileContext<'a>) -> Self {
        Interp {
            ctx,
            hash_vars: BTreeSet::new(),
            collecting: false,
            findings: Vec::new(),
        }
    }

    /// Builds the function-entry environment from parameter types.
    fn entry_env(&mut self, func: &FnItem) -> Env {
        let mut env = Env::new();
        for p in &func.params {
            let Some(name) = &p.name else { continue };
            let v = match ast::classify_type(self.ctx.tokens, p.ty) {
                TypeClass::Float => AbsVal::float_top(),
                TypeClass::Usize => AbsVal::nonneg_int(),
                TypeClass::Int => AbsVal {
                    maybe_nan: false,
                    ..AbsVal::top()
                },
                TypeClass::HashContainer => {
                    self.hash_vars.insert(name.clone());
                    AbsVal::top()
                }
                TypeClass::Other => AbsVal::top(),
            };
            env.insert(name.clone(), v);
        }
        env
    }

    /// `let` transfer: evaluate the initializer, bind the pattern.
    fn do_let(
        &mut self,
        pat: &Pat,
        ty: Option<TokSpan>,
        init: Option<&Expr>,
        line: u32,
        env: &mut Env,
    ) {
        let mut v = match init {
            Some(e) => self.eval(e, env),
            None => AbsVal::top(),
        };
        let mut is_hash = false;
        if let Some(tyspan) = ty {
            match ast::classify_type(self.ctx.tokens, tyspan) {
                TypeClass::Float => v.is_float = true,
                TypeClass::Usize => {
                    v.is_float = false;
                    v.maybe_nan = false;
                    if v.lo < 0.0 {
                        v.lo = 0.0;
                    }
                }
                TypeClass::Int => {
                    v.is_float = false;
                    v.maybe_nan = false;
                }
                TypeClass::HashContainer => is_hash = true,
                TypeClass::Other => {}
            }
        }
        if let Some(e) = init {
            if is_hash_constructor(e) {
                is_hash = true;
            }
        }
        v.def_lines = vec![line];
        if self.collecting && v.taint.any() {
            for b in &pat.bindings {
                if b.to_ascii_lowercase().contains("seed") {
                    self.findings.push(Finding::TaintedSink {
                        line,
                        sink: format!("seed binding `{b}`"),
                        taint: v.taint,
                    });
                }
            }
        }
        if pat.bindings.len() == 1 {
            let name = pat.bindings[0].clone();
            if is_hash {
                self.hash_vars.insert(name.clone());
            }
            env.insert(name, v);
        } else {
            for b in &pat.bindings {
                if is_hash {
                    self.hash_vars.insert(b.clone());
                }
                env.insert(
                    b.clone(),
                    AbsVal {
                        taint: v.taint,
                        def_lines: vec![line],
                        ..AbsVal::top()
                    },
                );
            }
        }
    }

    /// Evaluates an expression, updating `env` for assignments, and
    /// returns its abstract value.
    fn eval(&mut self, e: &Expr, env: &mut Env) -> AbsVal {
        match &e.kind {
            ExprKind::FloatLit(v) => AbsVal::float_const(*v),
            ExprKind::IntLit(v) => AbsVal::int_const(*v),
            ExprKind::Lit => AbsVal {
                maybe_nan: false,
                ..AbsVal::top()
            },
            ExprKind::Path(segs) => self.eval_path(segs, env),
            ExprKind::Paren(x) | ExprKind::Ref { expr: x, .. } | ExprKind::Try(x) => {
                self.eval(x, env)
            }
            ExprKind::Unary(op, x) => {
                let v = self.eval(x, env);
                match op {
                    UnOp::Neg => AbsVal {
                        lo: -v.hi,
                        hi: -v.lo,
                        ..v
                    },
                    UnOp::Not => AbsVal {
                        taint: v.taint,
                        maybe_nan: false,
                        ..AbsVal::top()
                    },
                    UnOp::Deref => v,
                }
            }
            ExprKind::Binary { op, lhs, rhs, .. } => {
                let a = self.eval(lhs, env);
                let b = self.eval(rhs, env);
                num_binop(*op, &a, &b)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs, env);
                if let Some(name) = single_var(lhs) {
                    let name = name.to_string();
                    let new = match op {
                        Some(bin) => {
                            let old = env.get(&name).cloned().unwrap_or_else(AbsVal::top);
                            num_binop(*bin, &old, &rv)
                        }
                        None => rv,
                    };
                    let new = AbsVal {
                        def_lines: vec![e.line],
                        ..new
                    };
                    env.insert(name, new);
                }
                AbsVal {
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::Call { callee, args } => self.eval_call(e, callee, args, env),
            ExprKind::MethodCall {
                recv, method, args, ..
            } => self.eval_method(e, recv, method, args, env),
            ExprKind::Field { recv, .. } => {
                let v = self.eval(recv, env);
                AbsVal {
                    taint: v.taint,
                    ..AbsVal::top()
                }
            }
            ExprKind::Index { recv, index } => {
                let r = self.eval(recv, env);
                let i = self.eval(index, env);
                AbsVal {
                    taint: r.taint.union(i.taint),
                    ..AbsVal::top()
                }
            }
            ExprKind::Cast { expr, as_tok, ty } => self.eval_cast(expr, *as_tok, *ty, env),
            ExprKind::Closure { params, body } => {
                let v = self.eval_closure(params, body, Taint::default(), env);
                AbsVal {
                    taint: v.taint,
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::If { cond, then, else_ } => {
                self.eval(cond, env);
                let mut env_t = env.clone();
                self.refine(cond, true, &mut env_t);
                let vt = self.eval_block(then, &mut env_t);
                match else_ {
                    Some(eb) => {
                        let mut env_f = env.clone();
                        self.refine(cond, false, &mut env_f);
                        let vf = self.eval(eb, &mut env_f);
                        *env = crate::dataflow::join_env(&env_t, &env_f);
                        vt.join(&vf)
                    }
                    None => {
                        *env = crate::dataflow::join_env(env, &env_t);
                        AbsVal {
                            taint: vt.taint,
                            maybe_nan: false,
                            ..AbsVal::top()
                        }
                    }
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                let sv = self.eval(scrutinee, env);
                let mut result: Option<AbsVal> = None;
                let mut merged: Option<Env> = None;
                for arm in arms {
                    let mut aenv = env.clone();
                    for b in &arm.pat.bindings {
                        aenv.insert(
                            b.clone(),
                            AbsVal {
                                taint: sv.taint,
                                ..AbsVal::top()
                            },
                        );
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g, &mut aenv);
                    }
                    let av = self.eval(&arm.body, &mut aenv);
                    result = Some(match result {
                        Some(r) => r.join(&av),
                        None => av,
                    });
                    merged = Some(match merged {
                        Some(m) => crate::dataflow::join_env(&m, &aenv),
                        None => aenv,
                    });
                }
                if let Some(m) = merged {
                    *env = m;
                }
                result.unwrap_or_else(AbsVal::top)
            }
            ExprKind::While { cond, body } => {
                self.eval(cond, env);
                let mut benv = env.clone();
                self.eval_block(body, &mut benv);
                AbsVal {
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::Loop(body) => {
                let mut benv = env.clone();
                self.eval_block(body, &mut benv);
                AbsVal::top()
            }
            ExprKind::For { pat, iter, body } => {
                let iv = self.eval(iter, env);
                let mut benv = env.clone();
                let elem = self.for_element(iter, &iv);
                for b in &pat.bindings {
                    benv.insert(b.clone(), elem.clone());
                }
                self.eval_block(body, &mut benv);
                AbsVal {
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::BlockExpr(b) => self.eval_block(b, env),
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                let mut taint = Taint::default();
                for x in es {
                    taint = taint.union(self.eval(x, env).taint);
                }
                AbsVal {
                    taint,
                    ..AbsVal::top()
                }
            }
            ExprKind::StructLit { fields, base, .. } => {
                let mut taint = Taint::default();
                for (name, val) in fields {
                    if let Some(vx) = val {
                        let v = self.eval(vx, env);
                        taint = taint.union(v.taint);
                        if self.collecting
                            && v.taint.any()
                            && name.to_ascii_lowercase().contains("seed")
                        {
                            self.findings.push(Finding::TaintedSink {
                                line: vx.line,
                                sink: format!("struct field `{name}`"),
                                taint: v.taint,
                            });
                        }
                    }
                }
                if let Some(b) = base {
                    taint = taint.union(self.eval(b, env).taint);
                }
                AbsVal {
                    taint,
                    ..AbsVal::top()
                }
            }
            ExprKind::Range { lo, hi } => {
                let mut taint = Taint::default();
                if let Some(x) = lo {
                    taint = taint.union(self.eval(x, env).taint);
                }
                if let Some(x) = hi {
                    taint = taint.union(self.eval(x, env).taint);
                }
                AbsVal {
                    taint,
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::Return(v) | ExprKind::Break(v) => {
                if let Some(x) = v {
                    self.eval(x, env);
                }
                AbsVal {
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
            ExprKind::Continue | ExprKind::Macro { .. } => AbsVal {
                maybe_nan: false,
                ..AbsVal::top()
            },
            ExprKind::LetCond { expr, .. } => {
                let v = self.eval(expr, env);
                AbsVal {
                    taint: v.taint,
                    maybe_nan: false,
                    ..AbsVal::top()
                }
            }
        }
    }

    /// Evaluates a block: statements in order, value of the tail
    /// expression.
    fn eval_block(&mut self, b: &Block, env: &mut Env) -> AbsVal {
        let mut last = AbsVal {
            maybe_nan: false,
            ..AbsVal::top()
        };
        let n = b.stmts.len();
        for (i, s) in b.stmts.iter().enumerate() {
            match s {
                Stmt::Let {
                    pat,
                    ty,
                    init,
                    else_block,
                    line,
                } => {
                    self.do_let(pat, *ty, init.as_ref(), *line, env);
                    if let Some(eb) = else_block {
                        let mut eenv = env.clone();
                        self.eval_block(eb, &mut eenv);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let v = self.eval(expr, env);
                    if i + 1 == n && !semi {
                        last = v;
                    }
                }
                Stmt::Item(_) => {}
            }
        }
        last
    }

    /// Path evaluation: locals from the environment, well-known float
    /// constants, everything else top.
    fn eval_path(&self, segs: &[String], env: &Env) -> AbsVal {
        if segs.len() == 1 {
            return env.get(&segs[0]).cloned().unwrap_or_else(AbsVal::top);
        }
        let ty = segs[segs.len() - 2].as_str();
        if matches!(ty, "f64" | "f32") {
            return match segs[segs.len() - 1].as_str() {
                "NAN" => AbsVal::float_const(f64::NAN),
                "INFINITY" => AbsVal::float_const(f64::INFINITY),
                "NEG_INFINITY" => AbsVal::float_const(f64::NEG_INFINITY),
                "EPSILON" => AbsVal::float_const(f64::EPSILON),
                "MAX" => AbsVal::float_const(f64::MAX),
                "MIN" => AbsVal::float_const(-f64::MAX),
                "MIN_POSITIVE" => AbsVal::float_const(f64::MIN_POSITIVE),
                _ => AbsVal::float_top(),
            };
        }
        // Integer `::MAX` / `::MIN` constants. `usize`/`isize` widths are
        // platform-dependent, so their constants get sound *intervals*
        // spanning the 32- and 64-bit possibilities, not points.
        if let Some((min, max, _)) = int_bounds(ty) {
            let exact = !matches!(ty, "usize" | "isize");
            match segs[segs.len() - 1].as_str() {
                "MAX" => {
                    let hi = if exact { max } else { u64::MAX as f64 };
                    return AbsVal {
                        lo: max,
                        hi: hi.max(max),
                        ..AbsVal::int_const(0)
                    };
                }
                "MIN" => {
                    let lo = if exact { min } else { i64::MIN as f64 };
                    return AbsVal {
                        lo: lo.min(min),
                        hi: min,
                        ..AbsVal::int_const(0)
                    };
                }
                _ => {}
            }
        }
        AbsVal {
            maybe_nan: false,
            ..AbsVal::top()
        }
    }

    /// Free-function / path-call evaluation: taint sources, the
    /// `ld_api::num` helpers, sink detection.
    fn eval_call(
        &mut self,
        call: &Expr,
        callee: &Expr,
        args: &[Expr],
        env: &mut Env,
    ) -> AbsVal {
        let segs: Vec<String> = match &strip(callee).kind {
            ExprKind::Path(s) => s.clone(),
            _ => Vec::new(),
        };
        let name = segs.last().cloned().unwrap_or_default();
        let arg_vals = self.eval_args(args, Taint::default(), env);
        let mut taint = arg_vals
            .iter()
            .fold(Taint::default(), |t, v| t.union(v.taint));
        // Calling a closure stored in a local propagates its captured
        // taint.
        if segs.len() == 1 {
            if let Some(v) = env.get(&segs[0]) {
                taint = taint.union(v.taint);
            }
        }
        let source = call_taint_source(&segs);
        if source.any() {
            return AbsVal {
                taint: taint.union(source),
                maybe_nan: false,
                ..AbsVal::top()
            };
        }
        if self.collecting {
            self.check_sink(&name, None, &arg_vals, call.line);
        }
        match name.as_str() {
            "to_count" | "to_index" => AbsVal {
                taint,
                lo: 0.0,
                hi: u32::MAX as f64,
                maybe_nan: false,
                is_float: false,
                def_lines: Vec::new(),
            },
            "to_int" => AbsVal {
                taint,
                lo: i32::MIN as f64,
                hi: i32::MAX as f64,
                maybe_nan: false,
                is_float: false,
                def_lines: Vec::new(),
            },
            _ => AbsVal {
                taint,
                ..AbsVal::top()
            },
        }
    }

    /// Method-call evaluation: numeric models, taint sources and
    /// propagation, hash-iteration detection, sink detection.
    fn eval_method(
        &mut self,
        call: &Expr,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        env: &mut Env,
    ) -> AbsVal {
        let rv = self.eval(recv, env);
        let arg_vals = self.eval_args(args, rv.taint, env);
        let mut taint = arg_vals.iter().fold(rv.taint, |t, v| t.union(v.taint));
        if method == "elapsed" && args.is_empty() {
            taint = taint.union(Taint::WALL_CLOCK);
        }
        if HASH_ITER_METHODS.contains(&method) {
            if let Some(base) = single_var(recv) {
                if self.hash_vars.contains(base) {
                    taint = taint.union(Taint::HASH_ITER);
                }
            }
        }
        if self.collecting {
            self.check_sink(method, Some(&rv), &arg_vals, call.line);
        }
        let top_tainted = AbsVal {
            taint,
            ..AbsVal::top()
        };
        match method {
            "clamp" if args.len() == 2 => {
                let (a1, a2) = (&arg_vals[0], &arg_vals[1]);
                let mut lo = rv.lo.max(a1.lo);
                let mut hi = rv.hi.min(a2.hi);
                if lo > hi {
                    lo = a1.lo;
                    hi = a2.hi;
                }
                AbsVal {
                    taint,
                    lo,
                    hi,
                    maybe_nan: rv.maybe_nan,
                    is_float: true,
                    def_lines: rv.def_lines,
                }
            }
            "max" if args.len() == 1 && (rv.is_float || arg_vals[0].is_float) => AbsVal {
                taint,
                lo: rv.lo.max(arg_vals[0].lo),
                hi: rv.hi.max(arg_vals[0].hi),
                // f64::max ignores one NaN operand; only both-NaN stays NaN.
                maybe_nan: rv.maybe_nan && arg_vals[0].maybe_nan,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "min" if args.len() == 1 && (rv.is_float || arg_vals[0].is_float) => AbsVal {
                taint,
                lo: rv.lo.min(arg_vals[0].lo),
                hi: rv.hi.min(arg_vals[0].hi),
                maybe_nan: rv.maybe_nan && arg_vals[0].maybe_nan,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "max" | "min" if args.len() == 1 => {
                // Integer Ord::min / Ord::max.
                let a = &arg_vals[0];
                let (lo, hi) = if method == "min" {
                    (rv.lo.min(a.lo), rv.hi.min(a.hi))
                } else {
                    (rv.lo.max(a.lo), rv.hi.max(a.hi))
                };
                AbsVal {
                    taint,
                    lo,
                    hi,
                    maybe_nan: false,
                    is_float: false,
                    def_lines: rv.def_lines,
                }
            }
            "abs" => {
                let (lo, hi) = if rv.lo <= 0.0 && rv.hi >= 0.0 {
                    (0.0, rv.lo.abs().max(rv.hi.abs()))
                } else {
                    (rv.lo.abs().min(rv.hi.abs()), rv.lo.abs().max(rv.hi.abs()))
                };
                AbsVal {
                    taint,
                    lo,
                    hi,
                    ..rv
                }
            }
            "sqrt" => AbsVal {
                taint,
                lo: 0.0,
                hi: if rv.hi.is_finite() && rv.hi >= 0.0 {
                    rv.hi.sqrt()
                } else {
                    f64::INFINITY
                },
                maybe_nan: rv.maybe_nan || rv.lo < 0.0,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "round" | "floor" | "ceil" | "trunc" => AbsVal {
                taint,
                lo: rv.lo - 1.0,
                hi: rv.hi + 1.0,
                maybe_nan: rv.maybe_nan,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "fract" | "signum" => AbsVal {
                taint,
                lo: -1.0,
                hi: 1.0,
                maybe_nan: rv.maybe_nan,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "exp" => AbsVal {
                taint,
                lo: 0.0,
                hi: f64::INFINITY,
                maybe_nan: rv.maybe_nan,
                is_float: true,
                def_lines: rv.def_lines,
            },
            "ln" | "log2" | "log10" => AbsVal {
                taint,
                maybe_nan: rv.maybe_nan || rv.lo < 0.0,
                ..AbsVal::float_top()
            },
            "powi" | "recip" => AbsVal {
                taint,
                maybe_nan: rv.maybe_nan,
                ..AbsVal::float_top()
            },
            "powf" => AbsVal {
                taint,
                maybe_nan: true,
                ..AbsVal::float_top()
            },
            "len" => AbsVal {
                taint,
                ..AbsVal::nonneg_int()
            },
            "is_finite" | "is_nan" | "is_infinite" | "is_sign_negative" | "is_sign_positive"
            | "is_empty" | "contains" => AbsVal {
                taint,
                maybe_nan: false,
                ..AbsVal::top()
            },
            "unwrap" | "expect" => AbsVal { taint, ..rv },
            "unwrap_or" if args.len() == 1 => {
                let j = rv.join(&arg_vals[0]);
                AbsVal { taint, ..j }
            }
            "unwrap_or_else" | "unwrap_or_default" => {
                let mut j = rv.clone();
                for a in &arg_vals {
                    j = j.join(a);
                }
                AbsVal { taint, ..j }
            }
            "as_secs" | "as_millis" | "as_micros" | "as_nanos" | "subsec_nanos" => AbsVal {
                taint,
                ..AbsVal::nonneg_int()
            },
            "as_secs_f64" | "as_secs_f32" => AbsVal {
                taint,
                lo: 0.0,
                hi: f64::INFINITY,
                maybe_nan: false,
                is_float: true,
                def_lines: Vec::new(),
            },
            _ => top_tainted,
        }
    }

    /// Evaluates call arguments. Closure arguments are evaluated in a
    /// scratch environment with parameters seeded by `seed_taint` (the
    /// receiver's taint, so `map.values().map(|v| ..)` taints `v`).
    fn eval_args(&mut self, args: &[Expr], seed_taint: Taint, env: &mut Env) -> Vec<AbsVal> {
        args.iter()
            .map(|a| match &a.kind {
                ExprKind::Closure { params, body } => {
                    self.eval_closure(params, body, seed_taint, env)
                }
                _ => self.eval(a, env),
            })
            .collect()
    }

    /// Evaluates a closure body in a scratch copy of the environment and
    /// returns the body's abstract value.
    fn eval_closure(
        &mut self,
        params: &[Pat],
        body: &Expr,
        seed_taint: Taint,
        env: &Env,
    ) -> AbsVal {
        let mut cenv = env.clone();
        for p in params {
            for b in &p.bindings {
                cenv.insert(
                    b.clone(),
                    AbsVal {
                        taint: seed_taint,
                        ..AbsVal::top()
                    },
                );
            }
        }
        self.eval(body, &mut cenv)
    }

    /// Cast evaluation; in the collection pass, records `range-cast`
    /// findings for float→int casts whose operand is not provably safe.
    fn eval_cast(&mut self, expr: &Expr, as_tok: usize, ty: TokSpan, env: &mut Env) -> AbsVal {
        let v = self.eval(expr, env);
        let ty_text = self
            .ctx
            .tokens
            .get(ty.0)
            .map(|t| t.text.as_str())
            .unwrap_or("");
        match ast::classify_type(self.ctx.tokens, ty) {
            TypeClass::Float => AbsVal {
                is_float: true,
                maybe_nan: v.is_float && v.maybe_nan,
                ..v
            },
            TypeClass::Usize | TypeClass::Int if rules::INT_TYPES.contains(&ty_text) => {
                let Some((min, max, unsigned)) = int_bounds(ty_text) else {
                    return AbsVal {
                        taint: v.taint,
                        maybe_nan: false,
                        ..AbsVal::top()
                    };
                };
                if self.collecting && v.is_float {
                    let safe = if unsigned {
                        v.cast_safe_unsigned(max)
                    } else {
                        v.cast_safe_signed(min, max)
                    };
                    if !safe {
                        let line = self
                            .ctx
                            .tokens
                            .get(as_tok)
                            .map(|t| t.line)
                            .unwrap_or(expr.line);
                        self.findings.push(Finding::UnsafeCast {
                            line,
                            ty: ty_text.to_string(),
                            reasons: cast_reasons(&v, min, max, unsigned, ty_text),
                        });
                    }
                }
                let mut lo = v.lo.floor().max(min);
                let mut hi = v.hi.ceil().min(max);
                if v.maybe_nan {
                    lo = lo.min(0.0);
                    hi = hi.max(0.0);
                }
                AbsVal {
                    taint: v.taint,
                    lo,
                    hi,
                    maybe_nan: false,
                    is_float: false,
                    def_lines: v.def_lines,
                }
            }
            _ => AbsVal {
                taint: v.taint,
                maybe_nan: false,
                ..AbsVal::top()
            },
        }
    }

    /// Records a `determinism-taint` finding when a tainted value reaches
    /// a sink call. For span-family sinks only the name/index arguments
    /// (first two) are checked: span *durations* are expected to vary.
    fn check_sink(&mut self, name: &str, recv: Option<&AbsVal>, args: &[AbsVal], line: u32) {
        let lower = name.to_ascii_lowercase();
        let span_family = matches!(name, "span" | "span_at" | "scoped" | "record_span");
        let digest_family = lower.contains("digest")
            || lower.contains("fingerprint")
            || lower.contains("checksum")
            || lower.contains("seed");
        if !span_family && !digest_family {
            return;
        }
        let mut taint = Taint::default();
        if digest_family {
            if let Some(r) = recv {
                taint = taint.union(r.taint);
            }
            for a in args {
                taint = taint.union(a.taint);
            }
        } else {
            for a in args.iter().take(2) {
                taint = taint.union(a.taint);
            }
        }
        if taint.any() {
            self.findings.push(Finding::TaintedSink {
                line,
                sink: name.to_string(),
                taint,
            });
        }
    }

    /// Element abstraction for `for pat in iter`.
    fn for_element(&self, iter: &Expr, iter_val: &AbsVal) -> AbsVal {
        let mut taint = iter_val.taint;
        if let Some(base) = single_var(iter) {
            if self.hash_vars.contains(base) {
                taint = taint.union(Taint::HASH_ITER);
            }
        }
        if let ExprKind::Range {
            lo: Some(l),
            hi: Some(h),
        } = &strip(iter).kind
        {
            if let (ExprKind::IntLit(a), ExprKind::IntLit(b)) = (&strip(l).kind, &strip(h).kind)
            {
                return AbsVal {
                    taint,
                    lo: *a as f64,
                    hi: *b as f64,
                    maybe_nan: false,
                    is_float: false,
                    def_lines: Vec::new(),
                };
            }
        }
        AbsVal {
            taint,
            ..AbsVal::top()
        }
    }

    /// Branch refinement: narrows `env` under the assumption that `cond`
    /// evaluated to `is_true`.
    fn refine(&mut self, cond: &Expr, is_true: bool, env: &mut Env) {
        match &cond.kind {
            ExprKind::Paren(x) => self.refine(x, is_true, env),
            ExprKind::Unary(UnOp::Not, x) => self.refine(x, !is_true, env),
            ExprKind::Binary {
                op: ast::BinOp::And,
                lhs,
                rhs,
                ..
            } if is_true => {
                self.refine(lhs, true, env);
                self.refine(rhs, true, env);
            }
            ExprKind::Binary {
                op: ast::BinOp::Or,
                lhs,
                rhs,
                ..
            } if !is_true => {
                self.refine(lhs, false, env);
                self.refine(rhs, false, env);
            }
            ExprKind::Binary { op, lhs, rhs, .. } if is_true => {
                self.refine_cmp(*op, lhs, rhs, env);
            }
            ExprKind::MethodCall {
                recv, method, args, ..
            } if args.is_empty() => {
                let Some(name) = single_var(recv).map(str::to_string) else {
                    return;
                };
                let Some(v) = env.get_mut(&name) else { return };
                match (method.as_str(), is_true) {
                    ("is_finite", true) | ("is_nan", false) => {
                        v.maybe_nan = false;
                        if method == "is_finite" {
                            v.lo = v.lo.max(-f64::MAX);
                            v.hi = v.hi.min(f64::MAX);
                        }
                    }
                    _ => {}
                }
            }
            ExprKind::LetCond { pat, expr } if is_true => {
                let v = {
                    let mut scratch = env.clone();
                    self.eval(expr, &mut scratch)
                };
                for b in &pat.bindings {
                    env.insert(
                        b.clone(),
                        AbsVal {
                            taint: v.taint,
                            ..AbsVal::top()
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// Comparison refinement on the true branch: an ordered comparison
    /// that held implies neither operand was NaN, and bounds transfer.
    fn refine_cmp(&mut self, op: ast::BinOp, lhs: &Expr, rhs: &Expr, env: &mut Env) {
        use ast::BinOp::{Eq, Ge, Gt, Le, Lt};
        if !matches!(op, Lt | Le | Gt | Ge | Eq) {
            return;
        }
        let rv = {
            let mut scratch = env.clone();
            self.eval(rhs, &mut scratch)
        };
        let lv = {
            let mut scratch = env.clone();
            self.eval(lhs, &mut scratch)
        };
        if let Some(name) = single_var(lhs).map(str::to_string) {
            if let Some(v) = env.get_mut(&name) {
                v.maybe_nan = false;
                match op {
                    Lt | Le => v.hi = v.hi.min(rv.hi),
                    Gt | Ge => v.lo = v.lo.max(rv.lo),
                    Eq => {
                        v.lo = v.lo.max(rv.lo);
                        v.hi = v.hi.min(rv.hi);
                    }
                    _ => {}
                }
            }
        }
        if let Some(name) = single_var(rhs).map(str::to_string) {
            if let Some(v) = env.get_mut(&name) {
                v.maybe_nan = false;
                match op {
                    Lt | Le => v.lo = v.lo.max(lv.lo),
                    Gt | Ge => v.hi = v.hi.min(lv.hi),
                    Eq => {
                        v.lo = v.lo.max(lv.lo);
                        v.hi = v.hi.min(lv.hi);
                    }
                    _ => {}
                }
            }
        }
    }
}

impl Transfer for Interp<'_> {
    fn apply(&mut self, node: &Node<'_>, branch: usize, env: &Env) -> Env {
        let mut e = env.clone();
        match node {
            Node::Entry | Node::Exit | Node::Join => {}
            Node::Let {
                pat,
                ty,
                init,
                line,
            } => self.do_let(pat, *ty, *init, *line, &mut e),
            Node::Stmt(x) => {
                self.eval(x, &mut e);
            }
            Node::Cond(c) => {
                self.eval(c, &mut e);
                self.refine(c, branch == 0, &mut e);
            }
            Node::ForHead { pat, iter } => {
                let iv = self.eval(iter, &mut e);
                if branch == 0 {
                    let elem = self.for_element(iter, &iv);
                    for b in &pat.bindings {
                        e.insert(b.clone(), elem.clone());
                    }
                }
            }
        }
        e
    }
}

/// Interval arithmetic for binary operators (conservative).
fn num_binop(op: ast::BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    use ast::BinOp::{
        Add, And, BitAnd, BitOr, BitXor, Div, Eq, Ge, Gt, Le, Lt, Mul, Ne, Or, Rem, Shl, Shr,
        Sub,
    };
    let taint = a.taint.union(b.taint);
    let is_float = a.is_float || b.is_float;
    let finite = a.lo.is_finite() && a.hi.is_finite() && b.lo.is_finite() && b.hi.is_finite();
    match op {
        Add | Sub | Mul => {
            let (lo, hi) = if finite {
                match op {
                    Add => (a.lo + b.lo, a.hi + b.hi),
                    Sub => (a.lo - b.hi, a.hi - b.lo),
                    _ => {
                        let ps = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                        (
                            ps.iter().cloned().fold(f64::INFINITY, f64::min),
                            ps.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                        )
                    }
                }
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
            AbsVal {
                taint,
                lo,
                hi,
                // inf - inf and 0 * inf produce NaN; with finite operand
                // ranges the result stays NaN-free.
                maybe_nan: a.maybe_nan || b.maybe_nan || !finite,
                is_float,
                def_lines: Vec::new(),
            }
        }
        Div | Rem => AbsVal {
            taint,
            maybe_nan: a.maybe_nan || b.maybe_nan || (b.lo <= 0.0 && b.hi >= 0.0),
            is_float,
            ..AbsVal::top()
        },
        Eq | Ne | Lt | Le | Gt | Ge | And | Or | BitAnd | BitOr | BitXor | Shl | Shr => AbsVal {
            taint,
            maybe_nan: false,
            ..AbsVal::top()
        },
    }
}

/// Taint introduced by a path call (`Instant::now`, `env::var`, ...).
fn call_taint_source(segs: &[String]) -> Taint {
    let n = segs.len();
    if n >= 2 {
        let (a, b) = (segs[n - 2].as_str(), segs[n - 1].as_str());
        if (a == "Instant" || a == "SystemTime") && b == "now" {
            return Taint::WALL_CLOCK;
        }
        if a == "thread" && b == "current" {
            return Taint::THREAD_ID;
        }
        if a == "env" && matches!(b, "var" | "var_os" | "vars") {
            return Taint::ENV;
        }
    }
    if n >= 1 && segs[n - 1] == "current_thread_index" {
        return Taint::THREAD_ID;
    }
    Taint::default()
}

/// Target-type bounds for a float→int cast: `(min, max, unsigned)`.
/// `usize`/`isize` use 32-bit windows so proofs hold on every platform.
fn int_bounds(ty: &str) -> Option<(f64, f64, bool)> {
    Some(match ty {
        "u8" => (0.0, u8::MAX as f64, true),
        "u16" => (0.0, u16::MAX as f64, true),
        "u32" | "usize" => (0.0, u32::MAX as f64, true),
        "u64" | "u128" => (0.0, u64::MAX as f64, true),
        "i8" => (i8::MIN as f64, i8::MAX as f64, false),
        "i16" => (i16::MIN as f64, i16::MAX as f64, false),
        "i32" | "isize" => (i32::MIN as f64, i32::MAX as f64, false),
        "i64" | "i128" => (i64::MIN as f64, i64::MAX as f64, false),
        _ => return None,
    })
}

/// Human-readable reasons a cast could not be proven safe.
fn cast_reasons(v: &AbsVal, min: f64, max: f64, unsigned: bool, ty: &str) -> Vec<String> {
    let mut reasons = Vec::new();
    if v.maybe_nan {
        reasons.push("may be NaN (casts to 0)".to_string());
    }
    if unsigned {
        if v.lo <= -1.0 {
            reasons.push("may be negative (saturates to 0)".to_string());
        }
    } else if v.lo < min {
        reasons.push(format!("may underflow {ty}"));
    }
    if v.hi > max {
        reasons.push(format!("may overflow {ty}"));
    }
    if reasons.is_empty() {
        reasons.push("has an unknown range".to_string());
    }
    reasons
}

/// Whether `e` constructs a `HashMap`/`HashSet` (for hash-var tracking).
fn is_hash_constructor(e: &Expr) -> bool {
    if let ExprKind::Call { callee, .. } = &strip(e).kind {
        if let ExprKind::Path(segs) = &strip(callee).kind {
            return segs.iter().any(|s| s == "HashMap" || s == "HashSet");
        }
    }
    false
}

/// Strips wrappers that do not change the value: parens, refs, `?`, derefs.
fn strip(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::Paren(x) | ExprKind::Ref { expr: x, .. } | ExprKind::Try(x) => strip(x),
        ExprKind::Unary(UnOp::Deref, x) => strip(x),
        _ => e,
    }
}

/// The single local variable an expression denotes, if any.
fn single_var(e: &Expr) -> Option<&str> {
    match &strip(e).kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(&segs[0]),
        _ => None,
    }
}

/// The root variable of a receiver spine (through field/index/method
/// chains), for capture analysis.
fn spine_base(e: &Expr) -> Option<&str> {
    let s = strip(e);
    match &s.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(&segs[0]),
        ExprKind::Field { recv, .. }
        | ExprKind::Index { recv, .. }
        | ExprKind::MethodCall { recv, .. } => spine_base(recv),
        _ => None,
    }
}

/// Whether a receiver spine contains a rayon parallel source.
fn spine_has_par_source(e: &Expr) -> bool {
    let s = strip(e);
    match &s.kind {
        ExprKind::MethodCall { recv, method, .. } => {
            PAR_SOURCES.contains(&method.as_str()) || spine_has_par_source(recv)
        }
        ExprKind::Field { recv, .. } | ExprKind::Index { recv, .. } => spine_has_par_source(recv),
        ExprKind::Call { callee, .. } => spine_has_par_source(callee),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

/// `panic-path`: unwrap/expect (and float-derived indexing) reachable from
/// `pub fn` entry points in the serving/numeric crates.
fn panic_path(ctx: &FileContext<'_>, ast: &FileAst, out: &mut Vec<(&'static str, RawViolation)>) {
    if !PANIC_PATH_CRATES.contains(&ctx.crate_name)
        || ctx.rel_path.contains("/bin/")
        || ctx.file_name == "main.rs"
    {
        return;
    }
    let mut fns: Vec<&FnItem> = Vec::new();
    ast::for_each_fn(ast, &mut |f| fns.push(f));
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    // Name-matched call edges within the file.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        let Some(body) = &f.body else { continue };
        ast::walk_block(body, &mut |e| {
            let callee_name: Option<&str> = match &e.kind {
                ExprKind::MethodCall { method, .. } => Some(method.as_str()),
                ExprKind::Call { callee, .. } => match &strip(callee).kind {
                    ExprKind::Path(segs) => segs.last().map(|s| s.as_str()),
                    _ => None,
                },
                _ => None,
            };
            if let Some(name) = callee_name {
                if let Some(targets) = by_name.get(name) {
                    for &t in targets {
                        if t != i && !edges[i].contains(&t) {
                            edges[i].push(t);
                        }
                    }
                }
            }
        });
    }
    // Multi-source BFS from every pub fn; remember the first entry that
    // reaches each function as the diagnostic witness.
    let mut witness: Vec<Option<&str>> = vec![None; fns.len()];
    let mut queue = VecDeque::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_pub {
            witness[i] = Some(f.name.as_str());
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        let w = witness[i];
        for &t in &edges[i] {
            if witness[t].is_none() {
                witness[t] = w;
                queue.push_back(t);
            }
        }
    }
    for (i, f) in fns.iter().enumerate() {
        let Some(entry) = witness[i] else { continue };
        let Some(body) = &f.body else { continue };
        ast::walk_block(body, &mut |e| match &e.kind {
            ExprKind::MethodCall {
                method, method_tok, ..
            } if method == "unwrap" || method == "expect" => {
                let line = ctx
                    .tokens
                    .get(*method_tok)
                    .map(|t| t.line)
                    .unwrap_or(e.line);
                out.push((
                    "panic-path",
                    RawViolation {
                        line,
                        message: format!(
                            "`.{method}()` can panic on a path reachable from `pub fn {entry}`; \
                             serving/numeric hot paths must return Err"
                        ),
                    },
                ));
            }
            ExprKind::Index { index, .. } if index_is_float_derived(ctx, index) => {
                out.push((
                    "panic-path",
                    RawViolation {
                        line: e.line,
                        message: format!(
                            "float-derived slice index reachable from `pub fn {entry}` \
                             maps NaN to slot 0 silently"
                        ),
                    },
                ));
            }
            _ => {}
        });
    }
}

/// Whether an index expression contains a float→int cast (syntactic:
/// a cast of a float literal, a float-producing method result, or an
/// `as f64` intermediate).
fn index_is_float_derived(ctx: &FileContext<'_>, index: &Expr) -> bool {
    let mut found = false;
    index.walk(&mut |e| {
        if found {
            return;
        }
        if let ExprKind::Cast { expr, ty, .. } = &e.kind {
            let ty_text = ctx.tokens.get(ty.0).map(|t| t.text.as_str()).unwrap_or("");
            if rules::INT_TYPES.contains(&ty_text) && cast_operand_is_floatish(expr) {
                found = true;
            }
        }
    });
    found
}

/// Syntactic float-ness of a cast operand (no dataflow): float literals
/// and float-producing method chains.
fn cast_operand_is_floatish(e: &Expr) -> bool {
    match &strip(e).kind {
        ExprKind::FloatLit(_) => true,
        ExprKind::MethodCall { recv, method, .. } => {
            rules::FLOAT_PRODUCING_METHODS.contains(&method.as_str())
                || cast_operand_is_floatish(recv)
        }
        ExprKind::Cast { expr, .. } => cast_operand_is_floatish(expr),
        ExprKind::Binary { lhs, rhs, .. } => {
            cast_operand_is_floatish(lhs) || cast_operand_is_floatish(rhs)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// rayon-capture
// ---------------------------------------------------------------------------

/// `rayon-capture`: closures inside rayon parallel chains mutating
/// variables captured from the enclosing scope.
fn rayon_capture(ast: &FileAst, out: &mut Vec<(&'static str, RawViolation)>) {
    for item in &ast.items {
        ast::walk_item_exprs(item, &mut |e| {
            let ExprKind::MethodCall { recv, args, .. } = &e.kind else {
                return;
            };
            if !spine_has_par_source(recv) {
                return;
            }
            for arg in args {
                let ExprKind::Closure { params, body } = &arg.kind else {
                    continue;
                };
                let mut bound: BTreeSet<String> = BTreeSet::new();
                for p in params {
                    bound.extend(p.bindings.iter().cloned());
                }
                collect_bound(body, &mut bound);
                check_closure_mutations(body, &bound, out);
            }
        });
    }
}

/// Collects every binding introduced anywhere inside `e` (lets, for
/// loops, match arms, let-conditions, nested closure parameters) —
/// over-approximate on purpose: anything bound inside the closure is
/// reduction-local, not captured.
fn collect_bound(e: &Expr, bound: &mut BTreeSet<String>) {
    e.walk(&mut |x| match &x.kind {
        ExprKind::Closure { params, .. } => {
            for p in params {
                bound.extend(p.bindings.iter().cloned());
            }
        }
        ExprKind::For { pat, .. } | ExprKind::LetCond { pat, .. } => {
            bound.extend(pat.bindings.iter().cloned());
        }
        ExprKind::Match { arms, .. } => {
            for arm in arms {
                bound.extend(arm.pat.bindings.iter().cloned());
            }
        }
        ExprKind::If { then, .. } => collect_block_lets(then, bound),
        ExprKind::While { body, .. } => collect_block_lets(body, bound),
        ExprKind::Loop(b) | ExprKind::BlockExpr(b) => collect_block_lets(b, bound),
        _ => {}
    });
    // `for` bodies are blocks too; walk reaches their expressions but not
    // their let-statements, so add those here.
    if let ExprKind::For { body, .. } = &e.kind {
        collect_block_lets(body, bound);
    }
    e.walk(&mut |y| {
        if let ExprKind::For { body, .. } = &y.kind {
            collect_block_lets(body, bound);
        }
    });
}

/// Adds the let-bindings of a block (expression walks only visit
/// expressions, not statement patterns).
fn collect_block_lets(b: &Block, bound: &mut BTreeSet<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { pat, .. } => bound.extend(pat.bindings.iter().cloned()),
            Stmt::Expr { .. } | Stmt::Item(_) => {}
        }
    }
}

/// Flags assignments / mutating method calls on variables not bound
/// inside the closure.
fn check_closure_mutations(
    body: &Expr,
    bound: &BTreeSet<String>,
    out: &mut Vec<(&'static str, RawViolation)>,
) {
    body.walk(&mut |e| match &e.kind {
        ExprKind::Assign(_, lhs, _) => {
            if let Some(base) = spine_base(lhs) {
                if !bound.contains(base) {
                    out.push((
                        "rayon-capture",
                        RawViolation {
                            line: e.line,
                            message: format!(
                                "parallel closure assigns captured `{base}`; write order across \
                                 items is scheduler-dependent"
                            ),
                        },
                    ));
                }
            }
        }
        ExprKind::MethodCall { recv, method, .. }
            if MUTATING_METHODS.contains(&method.as_str()) =>
        {
            if let Some(base) = spine_base(recv) {
                if !bound.contains(base) {
                    out.push((
                        "rayon-capture",
                        RawViolation {
                            line: e.line,
                            message: format!(
                                "parallel closure mutates captured `{base}` via `.{method}()`; \
                                 per-item order is scheduler-dependent"
                            ),
                        },
                    ));
                }
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::lexer;

    fn run_semantic(crate_name: &str, src: &str) -> Vec<(&'static str, RawViolation)> {
        let lexed = lexer::lex(src);
        let rel_path = format!("crates/{crate_name}/src/lib.rs");
        let ctx = engine::file_context(&rel_path, &lexed.tokens);
        let parsed = ast::parse(&lexed.tokens);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        semantic_checks(&ctx, &parsed)
    }

    fn rule_lines(vs: &[(&'static str, RawViolation)], rule: &str) -> Vec<u32> {
        vs.iter()
            .filter(|(r, _)| *r == rule)
            .map(|(_, v)| v.line)
            .collect()
    }

    #[test]
    fn range_cast_flags_unguarded_float_cast() {
        let vs = run_semantic(
            "core",
            "pub fn f(x: f64) -> usize {\n    (x * 2.0) as usize\n}\n",
        );
        assert_eq!(rule_lines(&vs, "range-cast"), [2]);
    }

    #[test]
    fn range_cast_clears_guarded_clamped_cast() {
        let vs = run_semantic(
            "core",
            "pub fn f(x: f64) -> usize {\n\
             \x20   if !x.is_finite() {\n\
             \x20       return 0;\n\
             \x20   }\n\
             \x20   x.clamp(0.0, 1000.0) as usize\n\
             }\n",
        );
        assert_eq!(rule_lines(&vs, "range-cast"), Vec::<u32>::new());
    }

    #[test]
    fn range_cast_ignores_int_to_int() {
        let vs = run_semantic("core", "pub fn f(n: u64) -> usize {\n    n as usize\n}\n");
        assert_eq!(rule_lines(&vs, "range-cast"), Vec::<u32>::new());
    }

    #[test]
    fn determinism_taint_tracks_clock_into_digest() {
        let vs = run_semantic(
            "core",
            "pub fn f() -> u64 {\n\
             \x20   let t = std::time::Instant::now();\n\
             \x20   let d = t.elapsed().as_nanos() as u64;\n\
             \x20   compute_digest(d)\n\
             }\nfn compute_digest(x: u64) -> u64 { x }\n",
        );
        assert_eq!(rule_lines(&vs, "determinism-taint"), [4]);
    }

    #[test]
    fn determinism_taint_ignores_untainted_digest() {
        let vs = run_semantic(
            "core",
            "pub fn f(seed: u64) -> u64 {\n    compute_digest(seed)\n}\n\
             fn compute_digest(x: u64) -> u64 { x }\n",
        );
        assert_eq!(rule_lines(&vs, "determinism-taint"), Vec::<u32>::new());
    }

    #[test]
    fn determinism_taint_hash_iteration_into_seed() {
        let vs = run_semantic(
            "core",
            "pub fn f(m: std::collections::HashMap<u64, u64>) -> u64 {\n\
             \x20   let mut acc = 0u64;\n\
             \x20   for k in m.keys() {\n\
             \x20       acc = acc.wrapping_add(*k);\n\
             \x20   }\n\
             \x20   let seed = acc;\n\
             \x20   seed\n\
             }\n",
        );
        assert_eq!(rule_lines(&vs, "determinism-taint"), [6]);
    }

    #[test]
    fn panic_path_reports_reachable_unwrap_with_witness() {
        let vs = run_semantic(
            "serve",
            "pub fn serve() -> usize {\n    helper()\n}\n\
             fn helper() -> usize {\n    maybe().unwrap()\n}\n\
             fn maybe() -> Option<usize> {\n    Some(1)\n}\n",
        );
        let hits: Vec<_> = vs.iter().filter(|(r, _)| *r == "panic-path").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.line, 5);
        assert!(
            hits[0].1.message.contains("pub fn serve"),
            "{}",
            hits[0].1.message
        );
    }

    #[test]
    fn panic_path_ignores_unreachable_private_fn_and_other_crates() {
        let vs = run_semantic(
            "serve",
            "fn orphan() -> usize {\n    maybe().unwrap()\n}\n\
             fn maybe() -> Option<usize> {\n    Some(1)\n}\n",
        );
        assert_eq!(rule_lines(&vs, "panic-path"), Vec::<u32>::new());
        let vs2 = run_semantic(
            "bayesopt",
            "pub fn f() -> usize {\n    maybe().unwrap()\n}\n\
             fn maybe() -> Option<usize> {\n    Some(1)\n}\n",
        );
        assert_eq!(rule_lines(&vs2, "panic-path"), Vec::<u32>::new());
    }

    #[test]
    fn rayon_capture_flags_captured_push_not_param_mutation() {
        let vs = run_semantic(
            "core",
            "pub fn f(xs: &[f64]) -> Vec<f64> {\n\
             \x20   let mut out = Vec::new();\n\
             \x20   xs.par_iter().for_each(|x| {\n\
             \x20       out.push(*x);\n\
             \x20   });\n\
             \x20   out\n\
             }\n",
        );
        assert_eq!(rule_lines(&vs, "rayon-capture"), [4]);
    }

    #[test]
    fn rayon_capture_allows_param_and_local_mutation() {
        let vs = run_semantic(
            "core",
            "pub fn f(out: &mut [f64]) {\n\
             \x20   out.par_chunks_mut(4).for_each(|chunk| {\n\
             \x20       let mut local = Vec::new();\n\
             \x20       local.push(1.0);\n\
             \x20       chunk.fill(local[0]);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(rule_lines(&vs, "rayon-capture"), Vec::<u32>::new());
    }
}
