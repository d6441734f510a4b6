#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! `ld-lint` — the workspace's static analyzer for numeric-safety and
//! determinism invariants.
//!
//! The LoadDynamics reproduction's value proposition is a self-optimizing
//! loop that must keep producing *finite, reproducible* numbers across
//! thousands of trials. The fault-tolerance layer (PR 2) hardened the
//! runtime against NaN losses and Cholesky breakdowns; this crate prevents
//! the same bug classes from being *reintroduced*, statically:
//!
//! - [`lexer`]: a small from-scratch Rust lexer (the sandbox has no
//!   registry access, so no `syn`) that is exact about literals and
//!   comments, so rules never fire inside strings,
//! - [`rules`]: the invariant catalog — six token rules (`float-ord`,
//!   `nan-compare`, `determinism`, `unwrap-in-core`, `lossy-cast`,
//!   `unsafe-block`) whose matchers run over every token, and four semantic
//!   rules — each with an `--explain` rationale tied to the framework's
//!   fault model,
//! - [`ast`], [`dataflow`], [`semantic`]: a coverage-tracked parser and a
//!   per-function dataflow pass that serve only the semantic rules
//!   (`determinism-taint`, `panic-path`, `range-cast`, `rayon-capture`) and
//!   [`fix`]'s machine-applicable rewrites,
//! - [`engine`]: file discovery over `src/**/*.rs` and
//!   `crates/*/src/**/*.rs`, test-span detection, and inline suppressions
//!   (`// ld-lint: allow(<rule>, "<justification>")` — the justification
//!   is mandatory, and a directive that silences nothing fails `--deny`),
//! - [`report`]: human and JSON rendering.
//!
//! The binary (`cargo run -p ld-lint -- --deny`) gates CI; the library API
//! lets the tier-1 integration test run the same scan in-process.

pub mod ast;
pub mod dataflow;
pub mod engine;
pub mod fix;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod semantic;

pub use engine::{
    find_workspace_root, scan_source, scan_workspace, FileScan, ScanReport, StaleSuppression,
    Violation,
};
pub use rules::{all_rules, rule_by_id, Rule};
