//! Positive / negative / suppressed fixtures for the four semantic rules
//! (determinism-taint, panic-path, range-cast, rayon-capture), exercised
//! through the full `scan_source` pipeline so suppression directives and
//! test-span filtering apply — unlike the analyzer unit tests in
//! `semantic.rs`, which call the checker directly.

use ld_lint::scan_source;

/// Rules firing on `src` at `rel_path`, in source order.
fn fired(rel_path: &str, src: &str) -> Vec<String> {
    scan_source(rel_path, src)
        .violations
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

fn suppressed(rel_path: &str, src: &str) -> usize {
    scan_source(rel_path, src).suppressed
}

// `core` is subject to determinism-taint, range-cast and rayon-capture;
// `serve` additionally to panic-path.
const CORE: &str = "crates/core/src/predictor.rs";
const SERVE: &str = "crates/serve/src/router.rs";

// --------------------------------------------------------- determinism-taint

// HashMap iteration order is the one taint source the legacy lexical
// `determinism` rule cannot see — it needs dataflow to connect the loop
// to the seed, so these fixtures isolate the semantic rule.
const HASH_ITER_INTO_SEED: &str = "pub fn f(m: std::collections::HashMap<u64, u64>) -> u64 {\n\
    let mut acc = 0u64;\n\
    for k in m.keys() {\n\
        acc = acc.wrapping_add(*k);\n\
    }\n\
    let seed = acc;\n\
    seed\n\
}\n";

#[test]
fn determinism_taint_fires_on_hash_iteration_order_into_seed() {
    assert_eq!(fired(CORE, HASH_ITER_INTO_SEED), ["determinism-taint"]);
}

#[test]
fn determinism_taint_composes_with_legacy_clock_rule() {
    // A wall-clock read flowing into a digest trips both the lexical rule
    // (at the read) and the dataflow rule (at the sink) — different lines,
    // complementary diagnostics.
    let src = "pub fn f() -> u64 {\n\
        let t = std::time::Instant::now();\n\
        let d = t.elapsed().as_nanos() as u64;\n\
        compute_digest(d)\n\
    }\nfn compute_digest(x: u64) -> u64 { x }\n";
    assert_eq!(fired(CORE, src), ["determinism", "determinism-taint"]);
}

#[test]
fn determinism_taint_silent_on_caller_supplied_seed() {
    let src = "pub fn f(seed: u64) -> u64 {\n    compute_digest(seed)\n}\n\
               fn compute_digest(x: u64) -> u64 { x }\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn determinism_taint_silent_in_exempt_telemetry_crate() {
    // Telemetry exists to timestamp things; the sink gate is off there.
    assert!(fired("crates/telemetry/src/span.rs", HASH_ITER_INTO_SEED).is_empty());
}

#[test]
fn determinism_taint_suppressible_with_directive() {
    let src = "pub fn f(m: std::collections::HashMap<u64, u64>) -> u64 {\n\
        let mut acc = 0u64;\n\
        for k in m.keys() {\n\
            acc = acc.wrapping_add(*k);\n\
        }\n\
        // ld-lint: allow(determinism-taint, \"order-insensitive sum, stable across runs\")\n\
        let seed = acc;\n\
        seed\n\
    }\n";
    assert!(fired(CORE, src).is_empty());
    assert_eq!(suppressed(CORE, src), 1);
}

// --------------------------------------------------------------- panic-path

const REACHABLE_UNWRAP: &str = "pub fn serve() -> usize {\n    helper()\n}\n\
    fn helper() -> usize {\n    maybe().unwrap()\n}\n\
    fn maybe() -> Option<usize> {\n    Some(1)\n}\n";

#[test]
fn panic_path_fires_on_unwrap_reachable_from_pub_fn() {
    assert_eq!(fired(SERVE, REACHABLE_UNWRAP), ["panic-path"]);
}

#[test]
fn panic_path_silent_outside_hardened_crates() {
    // Same code in a crate outside PANIC_PATH_CRATES is not flagged.
    assert!(fired("crates/traces/src/gen.rs", REACHABLE_UNWRAP).is_empty());
}

#[test]
fn panic_path_suppressible_with_justification() {
    let src = "pub fn serve() -> usize {\n\
        // ld-lint: allow(panic-path, \"index is bounds-checked two lines up\")\n\
        maybe().unwrap()\n\
    }\nfn maybe() -> Option<usize> {\n    Some(1)\n}\n";
    assert!(fired(SERVE, src).is_empty());
    assert_eq!(suppressed(SERVE, src), 1);
}

// --------------------------------------------------------------- range-cast

#[test]
fn range_cast_fires_on_unproven_float_to_usize() {
    let src = "pub fn f(x: f64) -> usize {\n    (x * 2.0) as usize\n}\n";
    assert_eq!(fired(CORE, src), ["range-cast"]);
}

#[test]
fn range_cast_silent_when_interval_is_proven() {
    let src = "pub fn f(x: f64) -> usize {\n\
        if !x.is_finite() {\n        return 0;\n    }\n\
        x.clamp(0.0, 1000.0) as usize\n\
    }\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn range_cast_suppressible_with_directive() {
    let src = "pub fn f(x: f64) -> usize {\n\
        // ld-lint: allow(range-cast, \"x is a ratio in [0, 1] by construction\")\n\
        (x * 2.0) as usize\n\
    }\n";
    assert!(fired(CORE, src).is_empty());
    assert_eq!(suppressed(CORE, src), 1);
}

// ------------------------------------------------------------ rayon-capture

const CAPTURED_PUSH: &str = "pub fn f(xs: &[f64]) -> Vec<f64> {\n\
    let mut out = Vec::new();\n\
    xs.par_iter().for_each(|x| {\n\
        out.push(*x);\n\
    });\n\
    out\n\
}\n";

#[test]
fn rayon_capture_fires_on_captured_accumulator() {
    assert_eq!(fired(CORE, CAPTURED_PUSH), ["rayon-capture"]);
}

#[test]
fn rayon_capture_silent_on_collect_based_parallelism() {
    let src = "pub fn f(xs: &[f64]) -> Vec<f64> {\n\
        xs.par_iter().map(|x| x * 2.0).collect()\n\
    }\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn rayon_capture_suppressible_with_directive() {
    let src = "pub fn f(xs: &[f64]) -> Vec<f64> {\n\
        let mut out = Vec::new();\n\
        xs.par_iter().for_each(|x| {\n\
            // ld-lint: allow(rayon-capture, \"out is a lock-free queue in the real code\")\n\
            out.push(*x);\n\
        });\n\
        out\n\
    }\n";
    assert!(fired(CORE, src).is_empty());
    assert_eq!(suppressed(CORE, src), 1);
}
