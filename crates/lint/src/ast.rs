//! A recursive-descent parser over [`crate::lexer`]'s token stream.
//!
//! The token rules reason about the workspace as a flat token
//! stream, which is exact about *what is code* but blind to *structure*: it
//! cannot tell which expression a cast applies to, which closure a mutation
//! lives in, or which function an unwrap is reachable from. This module
//! parses the stream into a real item/expression AST with token spans so
//! the semantic rules ([`crate::semantic`]) and the fix builder
//! ([`crate::fix`]) can reason structurally.
//!
//! Design constraints, in order:
//!
//! 1. **Total**: parsing never aborts. Constructs the parser does not model
//!    (macro bodies, attributes, type ascriptions, item signatures) are
//!    consumed as *opaque* token ranges; anything genuinely unparseable is
//!    recovered at statement granularity and recorded in
//!    [`FileAst::errors`]. The golden test asserts `errors` is empty for
//!    every workspace source file.
//! 2. **Coverage-tracked**: every token the parser consumed as expression
//!    *structure* is marked in [`FileAst::covered`]. Uncovered tokens
//!    (macro bodies, attributes, types, signatures, skipped items) are
//!    invisible to the semantic rules; the token rules still see them,
//!    because their matchers run over every token. The golden test keeps a
//!    workspace-wide coverage floor so items are not silently skipped.
//! 3. **Span-exact**: expressions carry half-open token-index spans, and
//!    tokens carry byte offsets, so `--fix` can splice rewrites without
//!    re-lexing.

use crate::lexer::{Token, TokenKind};

/// Half-open token-index range.
pub type TokSpan = (usize, usize);

/// A parse failure the statement-level recovery absorbed.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based source line of the unparseable token.
    pub line: u32,
    /// What the parser expected / saw.
    pub message: String,
}

/// Parsed file: top-level items plus parser bookkeeping.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Recovered parse failures (empty on every workspace file).
    pub errors: Vec<ParseError>,
    /// `covered[i]` is true when token `i` was consumed as expression
    /// structure (operator, operand, keyword) rather than opaquely.
    pub covered: Vec<bool>,
}

/// One item (possibly nested in a `mod`/`impl`/`trait`).
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Token span of the whole item including attributes.
    pub span: TokSpan,
}

/// Item classification — only function-bearing shapes are modeled.
#[derive(Debug)]
pub enum ItemKind {
    /// A function with (maybe) a body.
    Fn(Box<FnItem>),
    /// An inline module: `mod name { ... }`.
    Mod(Vec<Item>),
    /// An `impl` block's associated items.
    Impl(Vec<Item>),
    /// A trait definition's associated items (default bodies parse).
    Trait(Vec<Item>),
    /// Everything else (`use`, `struct`, `enum`, `const`, macro item, ...),
    /// consumed opaquely.
    Other,
}

/// A parsed function.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Declared parameters (excluding `self`).
    pub params: Vec<Param>,
    /// Whether the function takes `self`/`&self`/`&mut self`.
    pub has_self: bool,
    /// Whether the function is `pub` (any visibility scope).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The body; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// The binding name when the pattern is a plain identifier.
    pub name: Option<String>,
    /// Token span of the declared type.
    pub ty: TokSpan,
}

/// A `{ ... }` block.
#[derive(Debug)]
pub struct Block {
    /// Statements, including a trailing expression (`semi: false`).
    pub stmts: Vec<Stmt>,
    /// Token span including both braces.
    pub span: TokSpan,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat[: ty] [= init] [else { .. }];`
    Let {
        /// Bound pattern.
        pat: Pat,
        /// Declared type span, when annotated.
        ty: Option<TokSpan>,
        /// Initializer.
        init: Option<Expr>,
        /// `let ... else` diverging block.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// Expression statement; `semi` false for a tail expression or a
    /// block-shaped statement.
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` terminated it.
        semi: bool,
    },
    /// A nested item (fn/struct/use/... inside a block).
    Item(Item),
}

/// A pattern, reduced to what dataflow needs: its bindings.
#[derive(Debug, Default)]
pub struct Pat {
    /// Identifiers the pattern binds.
    pub bindings: Vec<String>,
    /// Token span.
    pub span: TokSpan,
}

/// An expression with its token span and source line.
#[derive(Debug)]
pub struct Expr {
    /// Shape.
    pub kind: ExprKind,
    /// Half-open token span.
    pub span: TokSpan,
    /// 1-based line of the first token.
    pub line: u32,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `*x`
    Deref,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// The arm's pattern (alternatives flattened).
    pub pat: Pat,
    /// Optional `if` guard.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

/// Expression shapes.
#[derive(Debug)]
pub enum ExprKind {
    /// String/char/bool literal (value not modeled).
    Lit,
    /// Float literal with its parsed value when it fits `f64`.
    FloatLit(f64),
    /// Integer literal with its parsed value when it fits `i128`.
    IntLit(i128),
    /// A path: `x`, `a::b::C`. Segments exclude generic arguments.
    Path(Vec<String>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Token index of the operator (its line anchors diagnostics).
        op_tok: usize,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or `lhs op= rhs` (op recorded when compound).
    Assign(Option<BinOp>, Box<Expr>, Box<Expr>),
    /// Call of a non-method callee.
    Call {
        /// The callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Token index of the method-name identifier.
        method_tok: usize,
        /// Arguments (excluding the receiver).
        args: Vec<Expr>,
    },
    /// Field or tuple-index access.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
    },
    /// Indexing `recv[index]`.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `expr as Ty`.
    Cast {
        /// The value being cast.
        expr: Box<Expr>,
        /// Token index of the `as` keyword.
        as_tok: usize,
        /// Token span of the target type.
        ty: TokSpan,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        /// Whether `mut`.
        mutable: bool,
        /// Referent.
        expr: Box<Expr>,
    },
    /// Closure literal.
    Closure {
        /// Parameter patterns.
        params: Vec<Pat>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// `if cond { .. } [else ..]`; `cond` may be a `LetCond`.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else branch: a `Block` or `If` expression.
        else_: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// `while cond { .. }`; `cond` may be a `LetCond`.
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `loop { .. }`.
    Loop(Block),
    /// `for pat in iter { .. }`.
    For {
        /// Loop pattern.
        pat: Pat,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// A block expression (incl. `unsafe { .. }` bodies).
    BlockExpr(Block),
    /// Tuple literal (incl. unit `()`).
    Tuple(Vec<Expr>),
    /// Array literal `[a, b]` or repeat `[v; n]` (elements listed).
    Array(Vec<Expr>),
    /// Struct literal `Path { fields [, ..base] }`.
    StructLit {
        /// Struct path segments.
        path: Vec<String>,
        /// Field name → value (shorthand fields have `None`).
        fields: Vec<(String, Option<Expr>)>,
        /// `..base` spread.
        base: Option<Box<Expr>>,
    },
    /// Range expression.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr>>),
    /// `break ['label] [expr]`.
    Break(Option<Box<Expr>>),
    /// `continue ['label]`.
    Continue,
    /// Macro invocation; body tokens are opaque.
    Macro {
        /// Macro path (joined with `::`).
        path: String,
        /// Token span of the delimited body (incl. delimiters).
        body: TokSpan,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `let pat = expr` in `if`/`while` condition position.
    LetCond {
        /// Pattern.
        pat: Pat,
        /// Matched expression.
        expr: Box<Expr>,
    },
    /// Parenthesized expression.
    Paren(Box<Expr>),
}

impl Expr {
    fn new(kind: ExprKind, span: TokSpan, line: u32) -> Self {
        Expr { kind, span, line }
    }

    /// Walks this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unary(_, e)
            | ExprKind::Cast { expr: e, .. }
            | ExprKind::Ref { expr: e, .. }
            | ExprKind::Try(e)
            | ExprKind::Paren(e)
            | ExprKind::LetCond { expr: e, .. }
            | ExprKind::Field { recv: e, .. } => e.walk(f),
            ExprKind::Binary { lhs: a, rhs: b, .. } | ExprKind::Assign(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Index { recv, index } => {
                recv.walk(f);
                index.walk(f);
            }
            ExprKind::Closure { body, .. } => body.walk(f),
            ExprKind::If { cond, then, else_ } => {
                cond.walk(f);
                walk_block(then, f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk(f);
                    }
                    arm.body.walk(f);
                }
            }
            ExprKind::While { cond, body } => {
                cond.walk(f);
                walk_block(body, f);
            }
            ExprKind::Loop(b) | ExprKind::BlockExpr(b) => walk_block(b, f),
            ExprKind::For { iter, body, .. } => {
                iter.walk(f);
                walk_block(body, f);
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::StructLit { fields, base, .. } => {
                for (_, v) in fields {
                    if let Some(v) = v {
                        v.walk(f);
                    }
                }
                if let Some(b) = base {
                    b.walk(f);
                }
            }
            ExprKind::Range { lo, hi } => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Lit
            | ExprKind::FloatLit(_)
            | ExprKind::IntLit(_)
            | ExprKind::Path(_)
            | ExprKind::Macro { .. }
            | ExprKind::Continue => {}
        }
    }
}

/// Walks every expression of a block, pre-order.
pub fn walk_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    e.walk(f);
                }
                if let Some(eb) = else_block {
                    walk_block(eb, f);
                }
            }
            Stmt::Expr { expr, .. } => expr.walk(f),
            Stmt::Item(item) => walk_item_exprs(item, f),
        }
    }
}

/// Walks every expression of an item tree, pre-order.
pub fn walk_item_exprs<'a>(item: &'a Item, f: &mut impl FnMut(&'a Expr)) {
    match &item.kind {
        ItemKind::Fn(func) => {
            if let Some(b) = &func.body {
                walk_block(b, f);
            }
        }
        ItemKind::Mod(items) | ItemKind::Impl(items) | ItemKind::Trait(items) => {
            for it in items {
                walk_item_exprs(it, f);
            }
        }
        ItemKind::Other => {}
    }
}

/// Calls `f` for every function (at any nesting depth) of the file.
pub fn for_each_fn<'a>(ast: &'a FileAst, f: &mut impl FnMut(&'a FnItem)) {
    fn rec<'a>(items: &'a [Item], f: &mut impl FnMut(&'a FnItem)) {
        for item in items {
            match &item.kind {
                ItemKind::Fn(func) => f(func),
                ItemKind::Mod(is) | ItemKind::Impl(is) | ItemKind::Trait(is) => rec(is, f),
                ItemKind::Other => {}
            }
        }
    }
    rec(&ast.items, f);
}

/// Parses a token stream into a [`FileAst`]. Never panics; never aborts.
pub fn parse(tokens: &[Token]) -> FileAst {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        out: FileAst {
            items: Vec::new(),
            errors: Vec::new(),
            covered: vec![false; tokens.len()],
        },
        depth: 0,
    };
    let mut items = Vec::new();
    while p.pos < p.toks.len() {
        let before = p.pos;
        if let Some(item) = p.parse_item() {
            items.push(item);
        }
        if p.pos == before {
            // Defensive: never loop without progress.
            p.error(format!("unexpected token `{}` at item level", p.text(p.pos)));
            p.skip_one();
        }
    }
    p.out.items = items;
    p.out
}

const EXPR_NESTING_LIMIT: u32 = 400;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: FileAst,
    /// Expression-recursion depth guard.
    depth: u32,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------------ plumbing

    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn text(&self, i: usize) -> &'a str {
        self.tok(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tok(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.tok(i)
            .or_else(|| self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn at(&self, s: &str) -> bool {
        self.text(self.pos) == s
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Consumes the current token as *structure* (marks coverage).
    fn bump(&mut self) -> usize {
        if self.pos < self.toks.len() {
            self.out.covered[self.pos] = true;
            self.pos += 1;
        }
        self.pos - 1
    }

    /// Consumes the current token opaquely (no coverage mark).
    fn skip_one(&mut self) {
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> bool {
        if self.eat(s) {
            true
        } else {
            self.error(format!("expected `{s}`, found `{}`", self.text(self.pos)));
            false
        }
    }

    fn error(&mut self, message: String) {
        let line = self.line(self.pos);
        self.out.errors.push(ParseError { line, message });
    }

    /// True when two adjacent tokens form one source operator (`<<`, `>>`).
    fn adjacent(&self, i: usize) -> bool {
        match (self.tok(i), self.tok(i + 1)) {
            (Some(a), Some(b)) => a.hi == b.lo,
            _ => false,
        }
    }

    /// Skips a balanced bracket group opaquely; `self.pos` must sit on the
    /// opening bracket. Returns the token span consumed.
    fn skip_group_opaque(&mut self) -> TokSpan {
        let start = self.pos;
        let mut depth = 0usize;
        while !self.at_eof() {
            match self.text(self.pos) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.skip_one();
                        break;
                    }
                }
                _ => {}
            }
            self.skip_one();
        }
        (start, self.pos)
    }

    /// Skips `#[...]` / `#![...]` attributes opaquely.
    fn skip_attrs(&mut self) {
        while self.at("#") {
            let mut j = self.pos + 1;
            if self.text(j) == "!" {
                j += 1;
            }
            if self.text(j) != "[" {
                break;
            }
            self.pos = j;
            self.skip_group_opaque();
        }
    }

    /// Skips a generic parameter/argument list `<...>` opaquely; `self.pos`
    /// must sit on `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        let mut brackets = 0usize;
        while !self.at_eof() {
            match self.text(self.pos) {
                "<" if brackets == 0 => depth += 1,
                ">" if brackets == 0 => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.skip_one();
                        return;
                    }
                }
                "->" => {} // fn-pointer return arrows inside bounds
                "(" | "[" | "{" => brackets += 1,
                ")" | "]" | "}" => brackets = brackets.saturating_sub(1),
                _ => {}
            }
            self.skip_one();
        }
    }

    /// Skips a type opaquely until one of `stops` appears at bracket/angle
    /// depth 0. Returns the consumed span.
    fn skip_type(&mut self, stops: &[&str]) -> TokSpan {
        let start = self.pos;
        let mut angles = 0usize;
        let mut brackets = 0usize;
        while !self.at_eof() {
            let t = self.text(self.pos);
            if angles == 0 && brackets == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "<" => angles += 1,
                ">" => angles = angles.saturating_sub(1),
                "(" | "[" => brackets += 1,
                ")" | "]" => {
                    if brackets == 0 {
                        break; // closing a bracket the type did not open
                    }
                    brackets -= 1;
                }
                "{" | "}" => break, // types never contain bare braces
                _ => {}
            }
            self.skip_one();
        }
        (start, self.pos)
    }

    // --------------------------------------------------------------- items

    /// Parses one item. Returns `None` when only trivia was consumed.
    fn parse_item(&mut self) -> Option<Item> {
        let start = self.pos;
        self.skip_attrs();
        if self.at_eof() {
            return None;
        }
        // Visibility.
        let mut is_pub = false;
        if self.at("pub") {
            is_pub = true;
            self.bump();
            if self.at("(") {
                self.skip_group_opaque(); // pub(crate) / pub(super) / pub(in ..)
            }
        }
        // Function modifiers.
        while self.at("const") && self.text(self.pos + 1) == "fn"
            || self.at("unsafe") && self.text(self.pos + 1) == "fn"
            || self.at("extern") && self.kind(self.pos + 1) == Some(TokenKind::Str)
            || self.at("async") && self.text(self.pos + 1) == "fn"
        {
            self.bump();
            if self.kind(self.pos) == Some(TokenKind::Str) {
                self.skip_one(); // extern ABI string
            }
        }
        let kw = self.text(self.pos);
        let kind = match kw {
            "fn" => {
                let f = self.parse_fn(is_pub);
                ItemKind::Fn(Box::new(f))
            }
            "mod" => {
                self.bump();
                self.bump(); // name
                if self.eat("{") {
                    let mut items = Vec::new();
                    while !self.at("}") && !self.at_eof() {
                        let before = self.pos;
                        if let Some(it) = self.parse_item() {
                            items.push(it);
                        }
                        if self.pos == before {
                            self.error(format!("unexpected `{}` in mod", self.text(self.pos)));
                            self.skip_one();
                        }
                    }
                    self.expect("}");
                    ItemKind::Mod(items)
                } else {
                    self.eat(";");
                    ItemKind::Other
                }
            }
            "impl" | "trait" => {
                let is_impl = kw == "impl";
                self.bump();
                if self.at("<") {
                    self.skip_angles();
                }
                // Type / trait head plus optional `for Type` and `where`.
                self.skip_type(&["{", ";"]);
                if self.at(";") {
                    self.skip_one();
                    ItemKind::Other
                } else {
                    self.expect("{");
                    let mut items = Vec::new();
                    while !self.at("}") && !self.at_eof() {
                        let before = self.pos;
                        if let Some(it) = self.parse_item() {
                            items.push(it);
                        }
                        if self.pos == before {
                            self.error(format!(
                                "unexpected `{}` in {kw} block",
                                self.text(self.pos)
                            ));
                            self.skip_one();
                        }
                    }
                    self.expect("}");
                    if is_impl {
                        ItemKind::Impl(items)
                    } else {
                        ItemKind::Trait(items)
                    }
                }
            }
            "struct" | "enum" | "union" => {
                self.bump();
                self.bump(); // name
                if self.at("<") {
                    self.skip_angles();
                }
                // Tuple struct: `(..)` then `;`; braced body; or unit `;`.
                if self.at("(") {
                    self.skip_group_opaque();
                }
                self.skip_type(&["{", ";"]); // where clause
                if self.at("{") {
                    self.skip_group_opaque();
                } else {
                    self.eat(";");
                }
                ItemKind::Other
            }
            "use" | "type" | "static" | "const" | "extern" => {
                // Consume to `;` at depth 0 (initializers may nest).
                let mut depth = 0usize;
                while !self.at_eof() {
                    match self.text(self.pos) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        ";" if depth == 0 => {
                            self.skip_one();
                            break;
                        }
                        _ => {}
                    }
                    self.skip_one();
                }
                ItemKind::Other
            }
            _ => {
                // Item-position macro invocation: `path! { ... }` (e.g.
                // `thread_local! { ... }`), or something unknown.
                if self.kind(self.pos) == Some(TokenKind::Ident)
                    && (self.text(self.pos + 1) == "!"
                        || (self.text(self.pos + 1) == "::"))
                {
                    // Walk the path.
                    self.skip_one();
                    while self.at("::") {
                        self.skip_one();
                        self.skip_one();
                    }
                    if self.at("!") {
                        self.skip_one();
                        if matches!(self.text(self.pos), "(" | "[" | "{") {
                            let delim = self.text(self.pos);
                            self.skip_group_opaque();
                            if delim != "{" {
                                self.eat(";");
                            }
                        }
                        ItemKind::Other
                    } else {
                        self.error(format!("unparseable item starting at `{kw}`"));
                        ItemKind::Other
                    }
                } else {
                    self.error(format!("unexpected token `{kw}` at item level"));
                    self.skip_one();
                    ItemKind::Other
                }
            }
        };
        Some(Item {
            kind,
            span: (start, self.pos),
        })
    }

    fn parse_fn(&mut self, is_pub: bool) -> FnItem {
        let line = self.line(self.pos);
        self.bump(); // fn
        let name = self.text(self.pos).to_string();
        self.bump();
        if self.at("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        let mut has_self = false;
        if self.expect("(") {
            while !self.at(")") && !self.at_eof() {
                self.skip_attrs();
                // self receiver forms.
                if self.at("self")
                    || (self.at("&") || self.at("&&")) && {
                        let mut j = self.pos + 1;
                        if self.kind(j) == Some(TokenKind::Lifetime) {
                            j += 1;
                        }
                        if self.text(j) == "mut" {
                            j += 1;
                        }
                        self.text(j) == "self"
                    }
                    || self.at("mut") && self.text(self.pos + 1) == "self"
                {
                    has_self = true;
                    while !self.at(",") && !self.at(")") && !self.at_eof() {
                        self.bump();
                    }
                } else {
                    // `pat: Type`.
                    let pat = self.parse_pat_no_alt();
                    let ty = if self.eat(":") {
                        self.skip_type(&[",", ")"])
                    } else {
                        (self.pos, self.pos)
                    };
                    let name = if pat.bindings.len() == 1 {
                        Some(pat.bindings[0].clone())
                    } else {
                        None
                    };
                    params.push(Param { name, ty });
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")");
        }
        if self.at("->") {
            self.skip_one();
            self.skip_type(&["{", ";", "where"]);
        }
        if self.at("where") {
            self.skip_type(&["{", ";"]);
        }
        let body = if self.at("{") {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnItem {
            name,
            params,
            has_self,
            is_pub,
            line,
            body,
        }
    }

    // ------------------------------------------------------------ patterns

    /// Parses a pattern, including top-level `|` alternatives (match arms,
    /// `if let`/`while let`).
    fn parse_pat(&mut self) -> Pat {
        let start = self.pos;
        let mut pat = Pat::default();
        self.eat("|"); // leading `|`
        self.pat_single(&mut pat);
        while self.at("|") {
            self.bump();
            self.pat_single(&mut pat);
        }
        pat.span = (start, self.pos);
        pat
    }

    /// Parses a pattern without top-level alternation (`let`, `for`,
    /// closure and fn params) — a trailing `|` there belongs to the
    /// enclosing closure, not the pattern.
    fn parse_pat_no_alt(&mut self) -> Pat {
        let start = self.pos;
        let mut pat = Pat::default();
        self.pat_single(&mut pat);
        pat.span = (start, self.pos);
        pat
    }

    fn pat_single(&mut self, pat: &mut Pat) {
        match self.text(self.pos) {
            "_" => {
                self.bump();
            }
            "&" | "&&" => {
                self.bump();
                self.eat("mut");
                self.pat_single(pat);
            }
            "mut" => {
                self.bump();
                self.pat_single(pat);
            }
            "ref" => {
                self.bump();
                self.eat("mut");
                self.pat_single(pat);
            }
            "(" => {
                self.bump();
                while !self.at(")") && !self.at_eof() {
                    self.pat_single(pat);
                    while self.at("|") {
                        self.bump();
                        self.pat_single(pat);
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")");
            }
            "[" => {
                self.bump();
                while !self.at("]") && !self.at_eof() {
                    self.pat_single(pat);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect("]");
            }
            ".." => {
                self.bump();
            }
            "-" => {
                self.bump();
                self.bump(); // negative literal
                self.maybe_range_pat();
            }
            _ => match self.kind(self.pos) {
                Some(TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char) => {
                    self.bump();
                    self.maybe_range_pat();
                }
                Some(TokenKind::Ident) => self.pat_path(pat),
                _ => {
                    // Unknown pattern token: consume to avoid stalling.
                    self.bump();
                }
            },
        }
    }

    fn maybe_range_pat(&mut self) {
        if self.at("..=") || self.at("..") {
            self.bump();
            self.eat("-");
            if matches!(
                self.kind(self.pos),
                Some(TokenKind::Int | TokenKind::Float | TokenKind::Char | TokenKind::Ident)
            ) {
                self.bump();
            }
        }
    }

    fn pat_path(&mut self, pat: &mut Pat) {
        let first = self.text(self.pos).to_string();
        let first_idx = self.pos;
        self.bump();
        let mut segments = 1usize;
        while self.at("::") {
            self.bump();
            if self.at("<") {
                self.skip_angles();
                continue;
            }
            self.bump();
            segments += 1;
        }
        match self.text(self.pos) {
            "(" => {
                // Tuple-struct pattern.
                self.bump();
                while !self.at(")") && !self.at_eof() {
                    self.pat_single(pat);
                    while self.at("|") {
                        self.bump();
                        self.pat_single(pat);
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")");
            }
            "{" => {
                // Struct pattern.
                self.bump();
                while !self.at("}") && !self.at_eof() {
                    if self.at("..") {
                        self.bump();
                        break;
                    }
                    self.eat("ref");
                    self.eat("mut");
                    let field = self.text(self.pos).to_string();
                    self.bump();
                    if self.eat(":") {
                        self.pat_single(pat);
                    } else if self.kind(first_idx).is_some() {
                        // Shorthand binds the field name.
                        pat.bindings.push(field);
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect("}");
            }
            "@" => {
                pat.bindings.push(first);
                self.bump();
                self.pat_single(pat);
            }
            _ => {
                // Plain path pattern: a single lowercase segment is a
                // binding; anything else (Enum::Variant, None, a range
                // endpoint constant) is a match against a constant.
                let is_binding = segments == 1
                    && first
                        .chars()
                        .next()
                        .map(|c| c.is_lowercase() || c == '_')
                        .unwrap_or(false)
                    && !matches!(first.as_str(), "true" | "false");
                if self.at("..=") || self.at("..") {
                    self.maybe_range_pat();
                } else if is_binding {
                    pat.bindings.push(first);
                }
            }
        }
    }

    // -------------------------------------------------------------- blocks

    fn parse_block(&mut self) -> Block {
        let start = self.pos;
        self.expect("{");
        let mut stmts = Vec::new();
        while !self.at("}") && !self.at_eof() {
            let before = self.pos;
            self.skip_attrs();
            if self.at("}") {
                break;
            }
            if self.at(";") {
                self.bump();
                continue;
            }
            if let Some(stmt) = self.parse_stmt() {
                stmts.push(stmt);
            }
            if self.pos == before {
                self.error(format!(
                    "unparseable statement at `{}`",
                    self.text(self.pos)
                ));
                // Recover: skip to the next `;` or the block's end.
                let mut depth = 0usize;
                while !self.at_eof() {
                    match self.text(self.pos) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth = depth.saturating_sub(1),
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        ";" if depth == 0 => {
                            self.skip_one();
                            break;
                        }
                        _ => {}
                    }
                    self.skip_one();
                }
            }
        }
        self.expect("}");
        Block {
            stmts,
            span: (start, self.pos),
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        let t = self.text(self.pos);
        // Nested items inside blocks.
        let is_item_kw = matches!(
            t,
            "fn" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "use" | "type"
                | "static"
        ) || (t == "const" && self.kind(self.pos + 1) == Some(TokenKind::Ident)
            && self.text(self.pos + 1) != "fn")
            || (t == "pub");
        if is_item_kw && !(t == "type" && self.text(self.pos + 1) == "::") {
            return self.parse_item().map(Stmt::Item);
        }
        if t == "let" {
            let line = self.line(self.pos);
            self.bump();
            let pat = self.parse_pat_no_alt();
            let ty = if self.eat(":") {
                Some(self.skip_type(&["=", ";"]))
            } else {
                None
            };
            let init = if self.eat("=") {
                Some(self.parse_expr(false))
            } else {
                None
            };
            let else_block = if self.at("else") {
                self.bump();
                Some(self.parse_block())
            } else {
                None
            };
            self.eat(";");
            return Some(Stmt::Let {
                pat,
                ty,
                init,
                else_block,
                line,
            });
        }
        // Loop labels: `'label: loop/while/for`.
        if self.kind(self.pos) == Some(TokenKind::Lifetime) && self.text(self.pos + 1) == ":" {
            self.bump();
            self.bump();
        }
        // Block-like expressions in statement position terminate without
        // postfix/binary continuation (`match x {..}` then `(..)` on the
        // next line is two statements, not a call).
        let expr = if self.block_like_start() {
            self.parse_block_like()
        } else {
            self.parse_expr(false)
        };
        let semi = self.eat(";");
        Some(Stmt::Expr { expr, semi })
    }

    // --------------------------------------------------------- expressions

    /// Entry: full expression (assignment level). `no_struct` suppresses
    /// struct-literal parsing (condition/scrutinee positions).
    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        if self.depth >= EXPR_NESTING_LIMIT {
            // Pathological nesting: consume one token and give up locally.
            let i = self.bump();
            return Expr::new(ExprKind::Lit, (i, i + 1), self.line(i));
        }
        self.depth += 1;
        let e = self.parse_assign(no_struct);
        self.depth -= 1;
        e
    }

    fn parse_assign(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let lhs = self.parse_range(no_struct);
        let op = match self.text(self.pos) {
            "=" => Some(None),
            "+=" => Some(Some(BinOp::Add)),
            "-=" => Some(Some(BinOp::Sub)),
            "*=" => Some(Some(BinOp::Mul)),
            "/=" => Some(Some(BinOp::Div)),
            _ => None,
        };
        if let Some(op) = op {
            let line = lhs.line;
            self.bump();
            let rhs = self.parse_assign(no_struct);
            return Expr::new(
                ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
                (start, self.pos),
                line,
            );
        }
        lhs
    }

    fn parse_range(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let line = self.line(self.pos);
        let lo = if self.at("..") || self.at("..=") {
            None
        } else {
            Some(self.parse_binary(0, no_struct))
        };
        if self.at("..") || self.at("..=") {
            self.bump();
            let hi = if self.range_rhs_follows(no_struct) {
                Some(Box::new(self.parse_binary(0, no_struct)))
            } else {
                None
            };
            return Expr::new(
                ExprKind::Range {
                    lo: lo.map(Box::new),
                    hi,
                },
                (start, self.pos),
                line,
            );
        }
        lo.unwrap_or_else(|| Expr::new(ExprKind::Lit, (start, self.pos), line))
    }

    fn range_rhs_follows(&self, no_struct: bool) -> bool {
        let t = self.text(self.pos);
        if matches!(t, ")" | "]" | "}" | "," | ";" | "=>" | "=") || self.at_eof() {
            return false;
        }
        if t == "{" && no_struct {
            return false;
        }
        true
    }

    /// Pratt loop for binary operators. `min_bp` is the minimum binding
    /// power to continue.
    fn parse_binary(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let start = self.pos;
        let mut lhs = self.parse_cast(no_struct);
        while let Some((op, bp, toks)) = self.peek_binop() {
            if bp < min_bp {
                break;
            }
            let line = lhs.line;
            let op_tok = self.pos;
            for _ in 0..toks {
                self.bump();
            }
            let rhs = self.parse_binary(bp + 1, no_struct);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    op_tok,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                (start, self.pos),
                line,
            );
        }
        lhs
    }

    /// (operator, binding power, token count) for the operator at `pos`.
    fn peek_binop(&self) -> Option<(BinOp, u8, usize)> {
        let t = self.text(self.pos);
        Some(match t {
            "||" => (BinOp::Or, 1, 1),
            "&&" => (BinOp::And, 2, 1),
            "==" => (BinOp::Eq, 3, 1),
            "!=" => (BinOp::Ne, 3, 1),
            "<=" => (BinOp::Le, 3, 1),
            ">=" => (BinOp::Ge, 3, 1),
            "<" => {
                if self.text(self.pos + 1) == "<" && self.adjacent(self.pos) {
                    (BinOp::Shl, 6, 2)
                } else {
                    (BinOp::Lt, 3, 1)
                }
            }
            ">" => {
                if self.text(self.pos + 1) == ">" && self.adjacent(self.pos) {
                    (BinOp::Shr, 6, 2)
                } else {
                    (BinOp::Gt, 3, 1)
                }
            }
            "|" => (BinOp::BitOr, 4, 1),
            "^" => (BinOp::BitXor, 5, 1),
            "&" => (BinOp::BitAnd, 5, 1),
            "+" => (BinOp::Add, 7, 1),
            "-" => (BinOp::Sub, 7, 1),
            "*" => (BinOp::Mul, 8, 1),
            "/" => (BinOp::Div, 8, 1),
            "%" => (BinOp::Rem, 8, 1),
            _ => return None,
        })
    }

    fn parse_cast(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let mut e = self.parse_unary(no_struct);
        while self.at("as") {
            let line = e.line;
            let as_tok = self.pos;
            self.bump();
            let ty = self.skip_type(&[
                ",", ";", ")", "]", "}", "{", "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*",
                "/", "%", "?", ".", "=", "as", "..", "..=", ">", "=>",
            ]);
            e = Expr::new(
                ExprKind::Cast {
                    expr: Box::new(e),
                    as_tok,
                    ty,
                },
                (start, self.pos),
                line,
            );
        }
        e
    }

    fn parse_unary(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let line = self.line(self.pos);
        match self.text(self.pos) {
            "-" => {
                self.bump();
                let e = self.parse_unary(no_struct);
                Expr::new(
                    ExprKind::Unary(UnOp::Neg, Box::new(e)),
                    (start, self.pos),
                    line,
                )
            }
            "!" => {
                self.bump();
                let e = self.parse_unary(no_struct);
                Expr::new(
                    ExprKind::Unary(UnOp::Not, Box::new(e)),
                    (start, self.pos),
                    line,
                )
            }
            "*" => {
                self.bump();
                let e = self.parse_unary(no_struct);
                Expr::new(
                    ExprKind::Unary(UnOp::Deref, Box::new(e)),
                    (start, self.pos),
                    line,
                )
            }
            "&" => {
                self.bump();
                let mutable = self.eat("mut");
                let e = self.parse_unary(no_struct);
                Expr::new(
                    ExprKind::Ref {
                        mutable,
                        expr: Box::new(e),
                    },
                    (start, self.pos),
                    line,
                )
            }
            "&&" => {
                // Double reference `&&x`: one token, two refs.
                self.bump();
                let mutable = self.eat("mut");
                let inner = self.parse_unary(no_struct);
                let r = Expr::new(
                    ExprKind::Ref {
                        mutable,
                        expr: Box::new(inner),
                    },
                    (start, self.pos),
                    line,
                );
                Expr::new(
                    ExprKind::Ref {
                        mutable: false,
                        expr: Box::new(r),
                    },
                    (start, self.pos),
                    line,
                )
            }
            _ => self.parse_postfix(no_struct),
        }
    }

    fn parse_postfix(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let mut e = self.parse_primary(no_struct);
        loop {
            match self.text(self.pos) {
                "." => {
                    let line = e.line;
                    self.bump();
                    match self.kind(self.pos) {
                        Some(TokenKind::Int) => {
                            let name = self.text(self.pos).to_string();
                            self.bump();
                            e = Expr::new(
                                ExprKind::Field {
                                    recv: Box::new(e),
                                    name,
                                },
                                (start, self.pos),
                                line,
                            );
                        }
                        Some(TokenKind::Float) => {
                            // `x.0.1` lexes the `0.1` as one float: two
                            // nested tuple-index accesses.
                            let text = self.text(self.pos).to_string();
                            self.bump();
                            let (a, b) = text.split_once('.').unwrap_or((text.as_str(), "0"));
                            let inner = Expr::new(
                                ExprKind::Field {
                                    recv: Box::new(e),
                                    name: a.to_string(),
                                },
                                (start, self.pos),
                                line,
                            );
                            e = Expr::new(
                                ExprKind::Field {
                                    recv: Box::new(inner),
                                    name: b.to_string(),
                                },
                                (start, self.pos),
                                line,
                            );
                        }
                        _ => {
                            let name = self.text(self.pos).to_string();
                            let method_tok = self.pos;
                            self.bump();
                            if self.at("::") && self.text(self.pos + 1) == "<" {
                                self.bump();
                                self.skip_angles(); // turbofish
                            }
                            if self.at("(") {
                                let args = self.parse_call_args();
                                e = Expr::new(
                                    ExprKind::MethodCall {
                                        recv: Box::new(e),
                                        method: name,
                                        method_tok,
                                        args,
                                    },
                                    (start, self.pos),
                                    line,
                                );
                            } else {
                                e = Expr::new(
                                    ExprKind::Field {
                                        recv: Box::new(e),
                                        name,
                                    },
                                    (start, self.pos),
                                    line,
                                );
                            }
                        }
                    }
                }
                "(" => {
                    let line = e.line;
                    let args = self.parse_call_args();
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        (start, self.pos),
                        line,
                    );
                }
                "[" => {
                    let line = e.line;
                    self.bump();
                    let index = self.parse_expr(false);
                    self.expect("]");
                    e = Expr::new(
                        ExprKind::Index {
                            recv: Box::new(e),
                            index: Box::new(index),
                        },
                        (start, self.pos),
                        line,
                    );
                }
                "?" => {
                    let line = e.line;
                    self.bump();
                    e = Expr::new(ExprKind::Try(Box::new(e)), (start, self.pos), line);
                }
                _ => break,
            }
        }
        e
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.expect("(");
        while !self.at(")") && !self.at_eof() {
            args.push(self.parse_expr(false));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")");
        args
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let start = self.pos;
        let line = self.line(self.pos);
        let Some(tok) = self.tok(self.pos) else {
            return Expr::new(ExprKind::Lit, (start, start), line);
        };
        match tok.kind {
            TokenKind::Int => {
                let v = parse_int(&tok.text);
                self.bump();
                Expr::new(ExprKind::IntLit(v), (start, self.pos), line)
            }
            TokenKind::Float => {
                let v = parse_float(&tok.text);
                self.bump();
                Expr::new(ExprKind::FloatLit(v), (start, self.pos), line)
            }
            TokenKind::Str | TokenKind::Char => {
                self.bump();
                Expr::new(ExprKind::Lit, (start, self.pos), line)
            }
            TokenKind::Lifetime => {
                // Stray label (e.g. `break 'outer`) handled by callers;
                // consume defensively.
                self.bump();
                Expr::new(ExprKind::Lit, (start, self.pos), line)
            }
            TokenKind::Punct => match tok.text.as_str() {
                "(" => {
                    self.bump();
                    let mut elems = Vec::new();
                    let mut is_tuple = false;
                    while !self.at(")") && !self.at_eof() {
                        elems.push(self.parse_expr(false));
                        if self.eat(",") {
                            is_tuple = true;
                        } else {
                            break;
                        }
                    }
                    self.expect(")");
                    let kind = if elems.len() == 1 && !is_tuple {
                        ExprKind::Paren(Box::new(elems.pop().expect("one element")))
                    } else {
                        ExprKind::Tuple(elems)
                    };
                    Expr::new(kind, (start, self.pos), line)
                }
                "[" => {
                    self.bump();
                    let mut elems = Vec::new();
                    if !self.at("]") {
                        elems.push(self.parse_expr(false));
                        if self.eat(";") {
                            elems.push(self.parse_expr(false));
                        } else {
                            while self.eat(",") {
                                if self.at("]") {
                                    break;
                                }
                                elems.push(self.parse_expr(false));
                            }
                        }
                    }
                    self.expect("]");
                    Expr::new(ExprKind::Array(elems), (start, self.pos), line)
                }
                "{" => self.parse_block_like(),
                "<" => {
                    // Qualified path: `<Type>::assoc` / `<T as Trait>::f`.
                    self.skip_angles();
                    let mut segments = vec![String::new()];
                    while self.at("::") {
                        self.bump();
                        if self.at("<") {
                            self.skip_angles(); // turbofish
                            continue;
                        }
                        segments.push(self.text(self.pos).to_string());
                        self.bump();
                    }
                    Expr::new(ExprKind::Path(segments), (start, self.pos), line)
                }
                "|" | "||" => self.parse_closure(start, line),
                _ => {
                    // Unknown punctuation in expression position.
                    self.bump();
                    Expr::new(ExprKind::Lit, (start, self.pos), line)
                }
            },
            TokenKind::Ident => match tok.text.as_str() {
                "if" | "match" | "while" | "loop" | "for" | "unsafe" => self.parse_block_like(),
                "return" => {
                    self.bump();
                    let val = if self.expr_follows(no_struct) {
                        Some(Box::new(self.parse_expr(no_struct)))
                    } else {
                        None
                    };
                    Expr::new(ExprKind::Return(val), (start, self.pos), line)
                }
                "break" => {
                    self.bump();
                    if self.kind(self.pos) == Some(TokenKind::Lifetime) {
                        self.bump();
                    }
                    let val = if self.expr_follows(no_struct) {
                        Some(Box::new(self.parse_expr(no_struct)))
                    } else {
                        None
                    };
                    Expr::new(ExprKind::Break(val), (start, self.pos), line)
                }
                "continue" => {
                    self.bump();
                    if self.kind(self.pos) == Some(TokenKind::Lifetime) {
                        self.bump();
                    }
                    Expr::new(ExprKind::Continue, (start, self.pos), line)
                }
                "move" => {
                    self.bump();
                    self.parse_closure(start, line)
                }
                _ => self.parse_path_expr(start, line, no_struct),
            },
        }
    }

    fn expr_follows(&self, no_struct: bool) -> bool {
        let t = self.text(self.pos);
        if self.at_eof() || matches!(t, ";" | "}" | ")" | "]" | "," | "=>") {
            return false;
        }
        if t == "{" && no_struct {
            // `return` in condition position never carries a block value
            // in this workspace.
            return false;
        }
        true
    }

    fn parse_closure(&mut self, start: usize, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.at("||") {
            self.bump();
        } else {
            self.expect("|");
            while !self.at("|") && !self.at_eof() {
                let pat = self.parse_pat_no_alt();
                if self.eat(":") {
                    self.skip_type(&[",", "|"]);
                }
                params.push(pat);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("|");
        }
        if self.at("->") {
            self.skip_one();
            self.skip_type(&["{"]);
        }
        let body = self.parse_expr(false);
        Expr::new(
            ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            (start, self.pos),
            line,
        )
    }

    /// Whether the current token begins a block-like expression, which in
    /// statement/arm position terminates without continuation.
    fn block_like_start(&self) -> bool {
        matches!(
            self.text(self.pos),
            "{" | "if" | "match" | "while" | "loop" | "for" | "unsafe"
        )
    }

    /// Parses exactly one block-like expression (no postfix/binary
    /// continuation). Expression positions reach this via
    /// [`Parser::parse_primary`], where the postfix loop then applies.
    fn parse_block_like(&mut self) -> Expr {
        let start = self.pos;
        let line = self.line(self.pos);
        match self.text(self.pos) {
            "if" => self.parse_if(start, line),
            "match" => self.parse_match(start, line),
            "while" => {
                self.bump();
                let cond = self.parse_cond();
                let body = self.parse_block();
                Expr::new(
                    ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                    (start, self.pos),
                    line,
                )
            }
            "loop" => {
                self.bump();
                let body = self.parse_block();
                Expr::new(ExprKind::Loop(body), (start, self.pos), line)
            }
            "for" => {
                self.bump();
                let pat = self.parse_pat_no_alt();
                self.expect("in");
                let iter = self.parse_expr(true);
                let body = self.parse_block();
                Expr::new(
                    ExprKind::For {
                        pat,
                        iter: Box::new(iter),
                        body,
                    },
                    (start, self.pos),
                    line,
                )
            }
            "unsafe" => {
                self.bump();
                let b = self.parse_block();
                Expr::new(ExprKind::BlockExpr(b), (start, self.pos), line)
            }
            _ => {
                // "{" and the defensive fallback.
                let b = self.parse_block();
                Expr::new(ExprKind::BlockExpr(b), (start, self.pos), line)
            }
        }
    }

    /// Condition of `if`/`while`: handles `let` conditions; struct literals
    /// are suppressed.
    fn parse_cond(&mut self) -> Expr {
        let start = self.pos;
        let line = self.line(self.pos);
        if self.at("let") {
            self.bump();
            let pat = self.parse_pat();
            self.expect("=");
            let expr = self.parse_expr(true);
            return Expr::new(
                ExprKind::LetCond {
                    pat,
                    expr: Box::new(expr),
                },
                (start, self.pos),
                line,
            );
        }
        self.parse_expr(true)
    }

    fn parse_if(&mut self, start: usize, line: u32) -> Expr {
        self.bump(); // if
        let cond = self.parse_cond();
        let then = self.parse_block();
        let else_ = if self.at("else") {
            self.bump();
            let e = if self.at("if") {
                let s = self.pos;
                let l = self.line(s);
                self.parse_if(s, l)
            } else {
                let s = self.pos;
                let l = self.line(s);
                let b = self.parse_block();
                Expr::new(ExprKind::BlockExpr(b), (s, self.pos), l)
            };
            Some(Box::new(e))
        } else {
            None
        };
        Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then,
                else_,
            },
            (start, self.pos),
            line,
        )
    }

    fn parse_match(&mut self, start: usize, line: u32) -> Expr {
        self.bump(); // match
        let scrutinee = self.parse_expr(true);
        self.expect("{");
        let mut arms = Vec::new();
        while !self.at("}") && !self.at_eof() {
            let before = self.pos;
            self.skip_attrs();
            let pat = self.parse_pat();
            let guard = if self.at("if") {
                self.bump();
                Some(self.parse_expr(true))
            } else {
                None
            };
            self.expect("=>");
            // A block-like arm body needs no comma and must not swallow
            // the next arm's leading tokens as postfix continuation.
            let body = if self.block_like_start() {
                self.parse_block_like()
            } else {
                self.parse_expr(false)
            };
            self.eat(",");
            arms.push(Arm { pat, guard, body });
            if self.pos == before {
                self.error("unparseable match arm".into());
                self.skip_one();
            }
        }
        self.expect("}");
        Expr::new(
            ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
            (start, self.pos),
            line,
        )
    }

    /// A path expression, possibly a macro invocation or struct literal.
    fn parse_path_expr(&mut self, start: usize, line: u32, no_struct: bool) -> Expr {
        let mut segments = vec![self.text(self.pos).to_string()];
        self.bump();
        loop {
            if self.at("::") {
                if self.text(self.pos + 1) == "<" {
                    self.bump();
                    self.skip_angles(); // turbofish
                    continue;
                }
                self.bump();
                segments.push(self.text(self.pos).to_string());
                self.bump();
            } else {
                break;
            }
        }
        // Macro invocation.
        if self.at("!") && matches!(self.text(self.pos + 1), "(" | "[" | "{") {
            self.bump();
            let body = self.skip_group_opaque();
            return Expr::new(
                ExprKind::Macro {
                    path: segments.join("::"),
                    body,
                },
                (start, self.pos),
                line,
            );
        }
        // Struct literal.
        if self.at("{") && !no_struct {
            self.bump();
            let mut fields = Vec::new();
            let mut base = None;
            while !self.at("}") && !self.at_eof() {
                if self.at("..") {
                    self.bump();
                    base = Some(Box::new(self.parse_expr(false)));
                    break;
                }
                let name = self.text(self.pos).to_string();
                self.bump();
                let value = if self.eat(":") {
                    Some(self.parse_expr(false))
                } else {
                    None
                };
                fields.push((name, value));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}");
            return Expr::new(
                ExprKind::StructLit {
                    path: segments,
                    fields,
                    base,
                },
                (start, self.pos),
                line,
            );
        }
        Expr::new(ExprKind::Path(segments), (start, self.pos), line)
    }
}

/// Parses an integer literal's value (underscores and suffixes stripped).
fn parse_int(text: &str) -> i128 {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x") {
        (h.to_string(), 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o.to_string(), 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b.to_string(), 2)
    } else {
        (t, 10)
    };
    let digits: String = digits
        .chars()
        .take_while(|c| c.is_digit(radix))
        .collect();
    i128::from_str_radix(&digits, radix).unwrap_or(0)
}

/// Parses a float literal's value (underscores and suffixes stripped).
fn parse_float(text: &str) -> f64 {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let t = t.strip_suffix("f64").unwrap_or(&t);
    let t = t.strip_suffix("f32").unwrap_or(t);
    t.parse().unwrap_or(f64::NAN)
}

/// Classification of a type span for the semantic rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    /// `f64` / `f32` (possibly behind references).
    Float,
    /// `usize`.
    Usize,
    /// Any other integer primitive.
    Int,
    /// `HashMap` / `HashSet` containers (iteration order hazard).
    HashContainer,
    /// Anything else.
    Other,
}

/// Classifies a type token span.
pub fn classify_type(tokens: &[Token], span: TokSpan) -> TypeClass {
    let slice = &tokens[span.0.min(tokens.len())..span.1.min(tokens.len())];
    let mut idents = slice
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str());
    if slice
        .iter()
        .any(|t| t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet"))
    {
        return TypeClass::HashContainer;
    }
    // The *last* primitive mentioned outside generic args decides; for the
    // workspace's simple annotations the first primitive works equally.
    match idents.find(|s| {
        matches!(
            *s,
            "f64" | "f32" | "usize" | "isize" | "u8" | "u16" | "u32" | "u64" | "u128" | "i8"
                | "i16" | "i32" | "i64" | "i128"
        )
    }) {
        Some("f64") | Some("f32") => TypeClass::Float,
        Some("usize") => TypeClass::Usize,
        Some(_) => TypeClass::Int,
        None => TypeClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> FileAst {
        let lexed = lexer::lex(src);
        parse(&lexed.tokens)
    }

    fn assert_clean(src: &str) -> FileAst {
        let ast = parse_src(src);
        assert!(ast.errors.is_empty(), "parse errors for {src:?}: {:?}", ast.errors);
        ast
    }

    #[test]
    fn parses_fn_with_params_and_body() {
        let ast = assert_clean("pub fn f(x: f64, n: usize) -> usize { (x * n as f64) as usize }");
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, ["f"]);
    }

    #[test]
    fn parses_impl_trait_mod_nesting() {
        let src = "mod m { pub struct S { a: f64 } impl S { pub fn get(&self) -> f64 { self.a } } \
                   trait T { fn d(&self) -> f64 { 1.0 } fn r(&self) -> f64; } }";
        let ast = assert_clean(src);
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, ["get", "d", "r"]);
    }

    #[test]
    fn parses_closures_matches_and_loops() {
        let src = "fn f(v: &[f64]) -> f64 {\n\
            let mut acc = 0.0;\n\
            for (i, x) in v.iter().enumerate() { acc += x * i as f64; }\n\
            let g = |a: f64, b: f64| a.max(b);\n\
            match v.first() { Some(x) if *x > 0.0 => g(acc, *x), Some(_) | None => acc }\n\
        }";
        assert_clean(src);
    }

    #[test]
    fn parses_let_else_and_if_let() {
        let src = "fn f(o: Option<(usize, f64)>) -> f64 {\n\
            let Some((i, x)) = o else { return 0.0; };\n\
            if let Some(v) = Some(x) { v + i as f64 } else { 0.0 }\n\
        }";
        assert_clean(src);
    }

    #[test]
    fn parses_shifts_ranges_and_struct_literals() {
        let src = "struct P { x: u64, y: u64 }\n\
            fn f(s: u64) -> P { let a = s << 3 >> 1; P { x: a, y: (1..4).sum() } }\n\
            fn g() -> P { P { x: 0, ..f(1) } }";
        assert_clean(src);
    }

    #[test]
    fn macros_are_opaque_and_uncovered() {
        let src = "fn f(x: f64) { assert!(x.round() as usize > 0); }";
        let ast = assert_clean(src);
        let lexed = lexer::lex(src);
        // The `as` inside the macro body must NOT be covered.
        let as_idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "as")
            .expect("as token");
        assert!(!ast.covered[as_idx], "macro body tokens stay uncovered");
    }

    #[test]
    fn cast_chain_and_turbofish() {
        let src = "fn f(v: Vec<f64>) -> usize { v.iter().copied().sum::<f64>() as u32 as usize }";
        let ast = assert_clean(src);
        let mut saw_cast = 0;
        for item in &ast.items {
            walk_item_exprs(item, &mut |e| {
                if matches!(e.kind, ExprKind::Cast { .. }) {
                    saw_cast += 1;
                }
            });
        }
        assert_eq!(saw_cast, 2);
    }

    #[test]
    fn tuple_index_and_nested_tuple_index() {
        assert_clean("fn f(t: (f64, (f64, f64))) -> f64 { t.0 + t.1.0 + t.1.1 }");
    }

    #[test]
    fn pattern_bindings_collected() {
        let src = "fn f() { let (a, Some(b), P { c, d: e }) = x; }";
        let ast = parse_src(src);
        let mut bindings = Vec::new();
        for item in &ast.items {
            if let ItemKind::Fn(f) = &item.kind {
                if let Some(body) = &f.body {
                    for s in &body.stmts {
                        if let Stmt::Let { pat, .. } = s {
                            bindings = pat.bindings.clone();
                        }
                    }
                }
            }
        }
        assert_eq!(bindings, ["a", "b", "c", "e"]);
    }

    #[test]
    fn labeled_loops_and_breaks() {
        assert_clean(
            "fn f() { 'outer: for i in 0..10 { loop { if i > 3 { break 'outer; } break; } } }",
        );
    }

    #[test]
    fn type_classification() {
        let lexed = lexer::lex("&mut f64 usize Vec<u32> HashMap<String, f64> String");
        let n = lexed.tokens.len();
        assert_eq!(classify_type(&lexed.tokens, (0, 3)), TypeClass::Float);
        assert_eq!(classify_type(&lexed.tokens, (3, 4)), TypeClass::Usize);
        assert_eq!(classify_type(&lexed.tokens, (4, 8)), TypeClass::Int);
        assert_eq!(classify_type(&lexed.tokens, (8, n - 1)), TypeClass::HashContainer);
        assert_eq!(classify_type(&lexed.tokens, (n - 1, n)), TypeClass::Other);
    }
}
