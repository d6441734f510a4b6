//! Intraprocedural CFG construction and forward dataflow.
//!
//! The semantic rules ([`crate::semantic`]) need two flow-sensitive facts
//! that a single AST walk cannot give them:
//!
//! - **taint**: whether a value derives from a nondeterministic source
//!   (wall clock, thread identity, process environment, hash-map iteration
//!   order) by the time it reaches a sink, and
//! - **value ranges**: a `[lo, hi]` interval plus a may-be-NaN bit per
//!   float variable, so `range-cast` can prove `x as usize` safe when the
//!   program clamps and finite-checks `x` first.
//!
//! The analysis is deliberately *intra*procedural: the workspace's numeric
//! kernels are small, guards sit in the same function as their casts
//! (`to_count`-style helpers), and cross-function flows are handled by the
//! rules themselves (e.g. `panic-path` walks the per-file call graph
//! instead of inlining). See DESIGN.md "Semantic lint architecture".
//!
//! Shape: [`build_cfg`] lowers a function body to a statement-granularity
//! CFG — block-like expressions (`if`/`match`/loops) expand into branch and
//! join nodes with explicit edges, `break`/`continue`/`return` get their
//! real successors — and [`solve`] runs a worklist fixpoint over
//! [`Env`] facts, then hands each node's stabilized entry state to a
//! visitor for fact collection.

use crate::ast::{Block, Expr, ExprKind, FnItem, Pat, Stmt, TokSpan};
use std::collections::BTreeMap;

/// Taint bits: which nondeterministic source a value derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Taint(pub u8);

impl Taint {
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`).
    pub const WALL_CLOCK: Taint = Taint(1);
    /// Thread identity (`thread::current().id()`, rayon indices).
    pub const THREAD_ID: Taint = Taint(2);
    /// Process environment (`env::var*`).
    pub const ENV: Taint = Taint(4);
    /// `HashMap`/`HashSet` iteration order.
    pub const HASH_ITER: Taint = Taint(8);

    /// Whether any bit is set.
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// Set union.
    pub fn union(self, other: Taint) -> Taint {
        Taint(self.0 | other.0)
    }

    /// Whether all of `other`'s bits are present.
    pub fn contains(self, other: Taint) -> bool {
        self.0 & other.0 == other.0
    }

    /// Human-readable source list for diagnostics.
    pub fn describe(self) -> String {
        let mut parts = Vec::new();
        if self.contains(Taint::WALL_CLOCK) {
            parts.push("wall-clock");
        }
        if self.contains(Taint::THREAD_ID) {
            parts.push("thread-id");
        }
        if self.contains(Taint::ENV) {
            parts.push("environment");
        }
        if self.contains(Taint::HASH_ITER) {
            parts.push("hash-iteration-order");
        }
        parts.join("+")
    }
}

/// Abstract value: taint + float interval + NaN bit + reaching def lines.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsVal {
    /// Nondeterminism taint.
    pub taint: Taint,
    /// Interval lower bound (only meaningful when `is_float`).
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
    /// Whether the value may be NaN.
    pub maybe_nan: bool,
    /// Whether the value is known float-typed.
    pub is_float: bool,
    /// Source lines of the definitions reaching this value.
    pub def_lines: Vec<u32>,
}

impl Default for AbsVal {
    fn default() -> Self {
        AbsVal {
            taint: Taint::default(),
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            maybe_nan: true,
            is_float: false,
            def_lines: Vec::new(),
        }
    }
}

impl AbsVal {
    /// The unknown (top) value.
    pub fn top() -> Self {
        Self::default()
    }

    /// A known-float value with full range.
    pub fn float_top() -> Self {
        AbsVal {
            is_float: true,
            ..Self::default()
        }
    }

    /// An exact float constant.
    pub fn float_const(v: f64) -> Self {
        AbsVal {
            taint: Taint::default(),
            lo: v,
            hi: v,
            maybe_nan: v.is_nan(),
            is_float: true,
            def_lines: Vec::new(),
        }
    }

    /// An exact integer constant (tracked on the float lattice so casts
    /// through `as f64` keep their bounds).
    pub fn int_const(v: i128) -> Self {
        AbsVal {
            taint: Taint::default(),
            lo: v as f64,
            hi: v as f64,
            maybe_nan: false,
            is_float: false,
            def_lines: Vec::new(),
        }
    }

    /// A non-negative integer-like value (lengths, counts, indices).
    pub fn nonneg_int() -> Self {
        AbsVal {
            taint: Taint::default(),
            lo: 0.0,
            hi: f64::INFINITY,
            maybe_nan: false,
            is_float: false,
            def_lines: Vec::new(),
        }
    }

    /// Whether `self as <unsigned int>` provably cannot truncate a NaN,
    /// a negative value, or an overflow into a silent wrong answer.
    pub fn cast_safe_unsigned(&self, max: f64) -> bool {
        !self.maybe_nan && self.lo > -1.0 && self.hi <= max
    }

    /// Whether `self as <signed int>` is provably lossless-enough.
    pub fn cast_safe_signed(&self, min: f64, max: f64) -> bool {
        !self.maybe_nan && self.lo >= min && self.hi <= max
    }

    /// Lattice join (least upper bound).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let mut def_lines = self.def_lines.clone();
        for l in &other.def_lines {
            if !def_lines.contains(l) {
                def_lines.push(*l);
            }
        }
        def_lines.sort_unstable();
        AbsVal {
            taint: self.taint.union(other.taint),
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            maybe_nan: self.maybe_nan || other.maybe_nan,
            is_float: self.is_float || other.is_float,
            def_lines,
        }
    }
}

/// Per-program-point fact set: variable name → abstract value.
///
/// `None` represents the unreachable (bottom) state, so joins at merge
/// points ignore paths that cannot fall through (e.g. a diverging
/// `!x.is_finite()` early return refines the surviving path).
pub type Env = BTreeMap<String, AbsVal>;

/// Joins two environments pointwise. A variable absent on one side is
/// treated as top (unknown) — missing means "not tracked", not "bottom".
pub fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        match b.get(k) {
            Some(vb) => {
                out.insert(k.clone(), va.join(vb));
            }
            None => {
                out.insert(k.clone(), va.join(&AbsVal::top()));
            }
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.insert(k.clone(), vb.join(&AbsVal::top()));
        }
    }
    out
}

/// One CFG node.
#[derive(Debug)]
pub enum Node<'a> {
    /// Function entry.
    Entry,
    /// Function exit (normal return and fallthrough).
    Exit,
    /// `let pat = init;`
    Let {
        /// Bound pattern.
        pat: &'a Pat,
        /// Declared type span.
        ty: Option<TokSpan>,
        /// Initializer.
        init: Option<&'a Expr>,
        /// Source line.
        line: u32,
    },
    /// A straight-line expression statement (no top-level branching).
    Stmt(&'a Expr),
    /// Branch condition; successor 0 is the true edge, 1 the false edge.
    Cond(&'a Expr),
    /// `for`-loop header: binds `pat` from `iter` each iteration.
    /// Successor 0 enters the body, successor 1 exits the loop.
    ForHead {
        /// Loop pattern.
        pat: &'a Pat,
        /// Iterated expression.
        iter: &'a Expr,
    },
    /// Merge point.
    Join,
}

/// A function body lowered to a statement-granularity CFG.
pub struct Cfg<'a> {
    /// Nodes; index 0 is entry, index 1 is exit.
    pub nodes: Vec<Node<'a>>,
    /// Successor edges per node.
    pub succ: Vec<Vec<usize>>,
}

impl<'a> Cfg<'a> {
    fn add(&mut self, node: Node<'a>) -> usize {
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succ[from].contains(&to) {
            self.succ[from].push(to);
        }
    }

    /// Predecessor lists (computed on demand by the solver).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (from, succs) in self.succ.iter().enumerate() {
            for &to in succs {
                preds[to].push(from);
            }
        }
        preds
    }
}

/// Entry node index.
pub const ENTRY: usize = 0;
/// Exit node index.
pub const EXIT: usize = 1;

struct LoopCtx {
    head: usize,
    exit: usize,
}

struct Builder<'a> {
    cfg: Cfg<'a>,
    loops: Vec<LoopCtx>,
}

/// Lowers a function body into a [`Cfg`]. Every `break`/`continue`/
/// `return` gets its real successor; block-like sub-expressions inside
/// straight-line statements stay inside the statement node (the transfer
/// function interprets them compositionally).
pub fn build_cfg<'a>(func: &'a FnItem) -> Option<Cfg<'a>> {
    let body = func.body.as_ref()?;
    let mut b = Builder {
        cfg: Cfg {
            nodes: Vec::new(),
            succ: Vec::new(),
        },
        loops: Vec::new(),
    };
    let entry = b.cfg.add(Node::Entry);
    let exit = b.cfg.add(Node::Exit);
    debug_assert_eq!((entry, exit), (ENTRY, EXIT));
    let end = b.lower_block(body, entry);
    if let Some(end) = end {
        b.cfg.edge(end, exit);
    }
    Some(b.cfg)
}

impl<'a> Builder<'a> {
    /// Lowers `block` starting after `cur`; returns the node the block
    /// falls through from, or `None` when all paths diverge.
    fn lower_block(&mut self, block: &'a Block, mut cur: usize) -> Option<usize> {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let {
                    pat,
                    ty,
                    init,
                    else_block,
                    line,
                } => {
                    let node = self.cfg.add(Node::Let {
                        pat,
                        ty: *ty,
                        init: init.as_ref(),
                        line: *line,
                    });
                    self.cfg.edge(cur, node);
                    cur = node;
                    if let Some(eb) = else_block {
                        // The else-block runs when the pattern refutes; it
                        // must diverge, so its edges go wherever its
                        // break/return targets are. Fall-through merges
                        // back (defensively) into the main path.
                        let else_end = self.lower_block(eb, node);
                        if let Some(e) = else_end {
                            self.cfg.edge(e, node);
                        }
                    }
                }
                Stmt::Expr { expr, .. } => {
                    cur = match self.lower_expr_stmt(expr, cur) {
                        Some(c) => c,
                        None => return self.dead_rest(),
                    };
                }
                Stmt::Item(_) => {}
            }
        }
        Some(cur)
    }

    /// A statement whose expression diverged: the rest of the block is
    /// unreachable; report divergence upward.
    fn dead_rest(&mut self) -> Option<usize> {
        None
    }

    /// Lowers one expression-statement. Block-like top-level expressions
    /// expand into CFG structure; anything else becomes a plain node.
    /// Returns the fall-through node or `None` when the statement diverges.
    fn lower_expr_stmt(&mut self, expr: &'a Expr, cur: usize) -> Option<usize> {
        match &expr.kind {
            ExprKind::If { cond, then, else_ } => {
                let c = self.cfg.add(Node::Cond(cond));
                self.cfg.edge(cur, c);
                let join = self.cfg.add(Node::Join);
                let then_end = self.lower_block(then, c);
                if let Some(t) = then_end {
                    self.cfg.edge(t, join);
                }
                match else_ {
                    Some(e) => {
                        let else_end = self.lower_expr_stmt(e, c);
                        if let Some(el) = else_end {
                            self.cfg.edge(el, join);
                        }
                    }
                    None => self.cfg.edge(c, join),
                }
                if self.cfg.preds()[join].is_empty() {
                    return None; // both arms diverge
                }
                Some(join)
            }
            ExprKind::BlockExpr(b) => {
                let entry = self.cfg.add(Node::Join);
                self.cfg.edge(cur, entry);
                self.lower_block(b, entry)
            }
            ExprKind::While { cond, body } => {
                let head = self.cfg.add(Node::Cond(cond));
                self.cfg.edge(cur, head);
                let exit = self.cfg.add(Node::Join);
                self.loops.push(LoopCtx { head, exit });
                let body_end = self.lower_block(body, head);
                self.loops.pop();
                if let Some(be) = body_end {
                    self.cfg.edge(be, head); // back edge
                }
                self.cfg.edge(head, exit); // condition false
                Some(exit)
            }
            ExprKind::Loop(body) => {
                let head = self.cfg.add(Node::Join);
                self.cfg.edge(cur, head);
                let exit = self.cfg.add(Node::Join);
                self.loops.push(LoopCtx { head, exit });
                let body_end = self.lower_block(body, head);
                self.loops.pop();
                if let Some(be) = body_end {
                    self.cfg.edge(be, head);
                }
                if self.cfg.preds()[exit].is_empty() {
                    return None; // no break: loop never exits
                }
                Some(exit)
            }
            ExprKind::For { pat, iter, body } => {
                let head = self.cfg.add(Node::ForHead { pat, iter });
                self.cfg.edge(cur, head);
                let exit = self.cfg.add(Node::Join);
                self.loops.push(LoopCtx { head, exit });
                let body_end = self.lower_block(body, head);
                self.loops.pop();
                if let Some(be) = body_end {
                    self.cfg.edge(be, head);
                }
                self.cfg.edge(head, exit); // iterator exhausted
                Some(exit)
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.cfg.add(Node::Stmt(scrutinee));
                self.cfg.edge(cur, s);
                let join = self.cfg.add(Node::Join);
                let mut any_falls = false;
                for arm in arms {
                    // Arm bodies are expression statements of their own.
                    let arm_entry = self.cfg.add(Node::Join);
                    self.cfg.edge(s, arm_entry);
                    let after_guard = match &arm.guard {
                        Some(g) => {
                            let gn = self.cfg.add(Node::Stmt(g));
                            self.cfg.edge(arm_entry, gn);
                            gn
                        }
                        None => arm_entry,
                    };
                    if let Some(end) = self.lower_expr_stmt(&arm.body, after_guard) {
                        self.cfg.edge(end, join);
                        any_falls = true;
                    }
                }
                if arms.is_empty() {
                    self.cfg.edge(s, join);
                    any_falls = true;
                }
                if any_falls {
                    Some(join)
                } else {
                    None
                }
            }
            ExprKind::Return(val) => {
                let node = match val {
                    Some(v) => self.cfg.add(Node::Stmt(v)),
                    None => self.cfg.add(Node::Join),
                };
                self.cfg.edge(cur, node);
                self.cfg.edge(node, EXIT);
                None
            }
            ExprKind::Break(val) => {
                let node = match val {
                    Some(v) => self.cfg.add(Node::Stmt(v)),
                    None => self.cfg.add(Node::Join),
                };
                self.cfg.edge(cur, node);
                if let Some(l) = self.loops.last() {
                    let exit = l.exit;
                    self.cfg.edge(node, exit);
                } else {
                    self.cfg.edge(node, EXIT);
                }
                None
            }
            ExprKind::Continue => {
                let node = self.cfg.add(Node::Join);
                self.cfg.edge(cur, node);
                if let Some(l) = self.loops.last() {
                    let head = l.head;
                    self.cfg.edge(node, head);
                } else {
                    self.cfg.edge(node, EXIT);
                }
                None
            }
            _ => {
                let node = self.cfg.add(Node::Stmt(expr));
                self.cfg.edge(cur, node);
                // Statements that *contain* a diverging expression at a
                // non-tail position (e.g. `let` handled above; `foo(return x)`
                // is pathological) still fall through here — conservative.
                if always_diverges(expr) {
                    self.cfg.edge(node, EXIT);
                    return None;
                }
                Some(node)
            }
        }
    }
}

/// Whether an expression unconditionally diverges (conservative).
fn always_diverges(expr: &Expr) -> bool {
    match &expr.kind {
        ExprKind::Return(_) | ExprKind::Break(_) | ExprKind::Continue => true,
        ExprKind::Macro { path, .. } => {
            matches!(path.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        }
        ExprKind::Paren(e) => always_diverges(e),
        _ => false,
    }
}

/// A transfer-function provider: interprets one node over an [`Env`].
pub trait Transfer {
    /// Applies `node`'s effect to `env` for the edge to successor-slot
    /// `branch` (0 = true/enter edge, 1 = false/exit edge for `Cond` /
    /// `ForHead` nodes; ignored elsewhere).
    fn apply(&mut self, node: &Node<'_>, branch: usize, env: &Env) -> Env;
}

/// Iteration cap: every workspace function stabilizes in a handful of
/// passes; the cap only guards pathological inputs.
const MAX_PASSES: usize = 40;

/// Worklist forward-dataflow fixpoint. Returns the entry env of every node.
pub fn solve<T: Transfer>(cfg: &Cfg<'_>, entry_env: Env, tf: &mut T) -> Vec<Option<Env>> {
    let n = cfg.nodes.len();
    let mut in_env: Vec<Option<Env>> = vec![None; n];
    in_env[ENTRY] = Some(entry_env);
    let mut work: Vec<usize> = vec![ENTRY];
    let mut passes = 0usize;
    while let Some(node) = work.pop() {
        passes += 1;
        if passes > MAX_PASSES * n.max(1) {
            break;
        }
        let Some(env) = in_env[node].clone() else {
            continue;
        };
        for (branch, &succ) in cfg.succ[node].iter().enumerate() {
            let out = tf.apply(&cfg.nodes[node], branch, &env);
            let merged = match &in_env[succ] {
                Some(old) => join_env(old, &out),
                None => out,
            };
            if in_env[succ].as_ref() != Some(&merged) {
                in_env[succ] = Some(merged);
                if !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }
    }
    in_env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{self, ItemKind};
    use crate::lexer;

    fn first_fn(src: &str) -> (ast::FileAst, usize) {
        let lexed = lexer::lex(src);
        let parsed = ast::parse(&lexed.tokens);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let idx = parsed
            .items
            .iter()
            .position(|i| matches!(i.kind, ItemKind::Fn(_)))
            .expect("a fn item");
        (parsed, idx)
    }

    struct NoopTf;
    impl Transfer for NoopTf {
        fn apply(&mut self, _node: &Node<'_>, _branch: usize, env: &Env) -> Env {
            env.clone()
        }
    }

    fn cfg_of(ast: &ast::FileAst, idx: usize) -> Cfg<'_> {
        let ItemKind::Fn(f) = &ast.items[idx].kind else {
            panic!("not a fn");
        };
        build_cfg(f).expect("fn has a body")
    }

    #[test]
    fn straight_line_cfg_reaches_exit() {
        let (ast, i) = first_fn("fn f(x: f64) -> f64 { let y = x + 1.0; y * 2.0 }");
        let cfg = cfg_of(&ast, i);
        let envs = solve(&cfg, Env::new(), &mut NoopTf);
        assert!(envs[EXIT].is_some(), "exit reachable");
    }

    #[test]
    fn if_else_join_and_early_return() {
        let src = "fn f(x: f64) -> f64 {\n\
            if !x.is_finite() { return 0.0; }\n\
            let y = x.abs();\n\
            y\n\
        }";
        let (ast, i) = first_fn(src);
        let cfg = cfg_of(&ast, i);
        // Exit has two predecessor paths: the early return and fallthrough.
        let envs = solve(&cfg, Env::new(), &mut NoopTf);
        assert!(envs[EXIT].is_some());
        let preds = cfg.preds();
        assert!(preds[EXIT].len() >= 2, "return + fallthrough: {:?}", preds[EXIT]);
    }

    #[test]
    fn loop_with_break_exits_while_without_diverges() {
        let (ast, i) = first_fn("fn f() { loop { break; } }");
        let cfg = cfg_of(&ast, i);
        let envs = solve(&cfg, Env::new(), &mut NoopTf);
        assert!(envs[EXIT].is_some(), "break reaches exit");

        let (ast2, i2) = first_fn("fn g() -> ! { loop { } }");
        let cfg2 = cfg_of(&ast2, i2);
        let envs2 = solve(&cfg2, Env::new(), &mut NoopTf);
        assert!(envs2[EXIT].is_none(), "no break: exit unreachable");
    }

    #[test]
    fn while_and_for_have_back_edges() {
        let (ast, i) =
            first_fn("fn f(n: usize) { let mut s = 0; for i in 0..n { s += i; } while s > 0 { s -= 1; } }");
        let cfg = cfg_of(&ast, i);
        let back_edges = cfg
            .succ
            .iter()
            .enumerate()
            .flat_map(|(from, ss)| ss.iter().map(move |&to| (from, to)))
            .filter(|&(from, to)| to < from && to != EXIT)
            .count();
        assert!(back_edges >= 2, "expected loop back edges, got {back_edges}");
        let envs = solve(&cfg, Env::new(), &mut NoopTf);
        assert!(envs[EXIT].is_some());
    }

    #[test]
    fn absval_join_and_cast_safety() {
        let a = AbsVal {
            lo: 0.0,
            hi: 10.0,
            maybe_nan: false,
            is_float: true,
            ..AbsVal::default()
        };
        let b = AbsVal {
            lo: -5.0,
            hi: 3.0,
            maybe_nan: false,
            is_float: true,
            ..AbsVal::default()
        };
        let j = a.join(&b);
        assert_eq!((j.lo, j.hi), (-5.0, 10.0));
        assert!(!j.maybe_nan);
        assert!(a.cast_safe_unsigned(u32::MAX as f64));
        assert!(!b.cast_safe_unsigned(u32::MAX as f64), "negative lo unsafe");
        assert!(!AbsVal::float_top().cast_safe_unsigned(f64::INFINITY), "NaN unsafe");
    }

    #[test]
    fn taint_union_and_describe() {
        let t = Taint::WALL_CLOCK.union(Taint::HASH_ITER);
        assert!(t.any());
        assert!(t.contains(Taint::WALL_CLOCK));
        assert!(!t.contains(Taint::ENV));
        assert_eq!(t.describe(), "wall-clock+hash-iteration-order");
    }

    #[test]
    fn match_arms_all_reach_join() {
        let src = "fn f(x: Option<f64>) -> f64 { match x { Some(v) => v, None => 0.0 } }";
        let (ast, i) = first_fn(src);
        let cfg = cfg_of(&ast, i);
        let envs = solve(&cfg, Env::new(), &mut NoopTf);
        assert!(envs[EXIT].is_some());
    }
}
