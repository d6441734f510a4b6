//! Per-rule positive/negative fixtures for the six token rules: every rule
//! must fire on the exact pattern it documents and stay silent on the
//! sanctioned alternative.

use ld_lint::{rule_by_id, scan_source};

/// Token rule ids firing on `src` when scanned at `rel_path`, in source
/// order.
fn fired(rel_path: &str, src: &str) -> Vec<String> {
    scan_source(rel_path, src)
        .violations
        .into_iter()
        .filter(|v| rule_by_id(&v.rule).is_none_or(|r| !r.semantic))
        .map(|v| v.rule)
        .collect()
}

/// Suppressed-violation count for `src` at `rel_path`.
fn suppressed(rel_path: &str, src: &str) -> usize {
    scan_source(rel_path, src).suppressed
}

const NEUTRAL: &str = "crates/autoscale/src/policy.rs";

// ---------------------------------------------------------------- float-ord

#[test]
fn float_ord_fires_on_unwrapped_partial_cmp() {
    let src = "fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    assert_eq!(fired(NEUTRAL, src), ["float-ord"]);
}

#[test]
fn float_ord_fires_on_unwrap_or_comparator() {
    let src = "fn f(a: f64, b: f64) -> std::cmp::Ordering {\n\
               a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}";
    assert_eq!(fired(NEUTRAL, src), ["float-ord"]);
}

#[test]
fn float_ord_fires_inside_max_by_with_tuple_access() {
    // `.0.partial_cmp` exercises the tuple-index lexing path.
    let src = "fn f(v: &[(f64, usize)]) { v.iter().max_by(|a, b| a.0.partial_cmp(&b.0).unwrap()); }";
    assert_eq!(fired(NEUTRAL, src), ["float-ord"]);
}

#[test]
fn float_ord_fires_inside_macro_bodies() {
    // Macro arguments are opaque to the parser; the token matcher still
    // sees them.
    let src = "fn f(a: f64, b: f64) -> String {\n\
               assert!(a.partial_cmp(&b).unwrap().is_le());\n\
               let _v = vec![a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)];\n\
               format!(\"{:?}\", b.partial_cmp(&a).unwrap())\n}";
    assert_eq!(fired(NEUTRAL, src), ["float-ord", "float-ord", "float-ord"]);
}

#[test]
fn float_ord_silent_on_total_cmp() {
    let src = "fn f(xs: &mut Vec<f64>) { xs.sort_by(f64::total_cmp); }\n\
               fn g(v: &[(usize, f64)]) { v.iter().max_by(|a, b| a.1.total_cmp(&b.1)); }";
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn float_ord_silent_on_checked_partial_cmp() {
    // Handling the None case explicitly is fine — only the unwrap is banned.
    let src = "fn f(a: f64, b: f64) -> bool { matches!(a.partial_cmp(&b), Some(std::cmp::Ordering::Less)) }";
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn float_ord_fires_even_in_test_code() {
    // A NaN panic in a test is still a flaky test; the rule does not skip
    // test spans.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let mut v = vec![1.0];\n        v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}";
    assert_eq!(fired(NEUTRAL, src), ["float-ord"]);
}

// -------------------------------------------------------------- nan-compare

#[test]
fn nan_compare_fires_on_nan_constant_comparison() {
    let src = "fn f(x: f64) -> bool { x == f64::NAN }";
    assert_eq!(fired(NEUTRAL, src), ["nan-compare"]);
}

#[test]
fn nan_compare_fires_on_nan_on_left() {
    let src = "use std::f64::NAN;\nfn f(x: f64) -> bool { NAN != x }";
    assert_eq!(fired(NEUTRAL, src), ["nan-compare"]);
}

#[test]
fn nan_compare_fires_on_self_comparison_idiom() {
    let src = "fn f(x: f64) -> bool { x != x }";
    assert_eq!(fired(NEUTRAL, src), ["nan-compare"]);
}

#[test]
fn nan_compare_fires_inside_macro_bodies() {
    let src = "use std::f64::NAN;\n\
               fn f(x: f64) -> String {\n\
               assert!(x != f64::NAN);\n\
               let _v = vec![x == x];\n\
               format!(\"{}\", NAN == x)\n}";
    assert_eq!(
        fired(NEUTRAL, src),
        ["nan-compare", "nan-compare", "nan-compare"]
    );
}

#[test]
fn nan_compare_silent_on_is_nan() {
    let src = "fn f(x: f64) -> bool { x.is_nan() }";
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn nan_compare_silent_on_field_self_comparison() {
    // `a.x == b.x` compares two different places even though the trailing
    // identifiers match; it must not be flagged.
    let src = "struct P { x: f64 }\nfn f(a: &P, b: &P) -> bool { a.x == b.x }";
    assert!(fired(NEUTRAL, src).is_empty());
}

// -------------------------------------------------------------- determinism

#[test]
fn determinism_fires_on_instant_now_in_plain_crate() {
    let src = "fn f() { let _t = std::time::Instant::now(); }";
    assert_eq!(fired(NEUTRAL, src), ["determinism"]);
}

#[test]
fn determinism_fires_on_env_var() {
    let src = "fn f() -> Option<String> { std::env::var(\"SEED\").ok() }";
    assert_eq!(fired(NEUTRAL, src), ["determinism"]);
}

#[test]
fn determinism_fires_on_system_time() {
    let src = "fn f() { let _ = std::time::SystemTime::now(); }";
    assert_eq!(fired(NEUTRAL, src), ["determinism"]);
}

#[test]
fn determinism_silent_in_allowlisted_crates_and_config_modules() {
    let src = "fn f() { let _t = std::time::Instant::now(); }";
    for path in [
        "crates/telemetry/src/timer.rs",
        "crates/faultinject/src/plan.rs",
        "crates/bench/src/runner.rs",
        "crates/lint/src/engine.rs",
        "crates/core/src/config.rs",
    ] {
        assert!(fired(path, src).is_empty(), "should be allowed in {path}");
    }
}

#[test]
fn determinism_silent_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}";
    assert!(fired(NEUTRAL, src).is_empty());
}

// ----------------------------------------------------------- unwrap-in-core

#[test]
fn unwrap_in_core_fires_in_core_crates() {
    let src = "fn f(v: Vec<f64>) -> f64 { *v.first().unwrap() }";
    for path in [
        "crates/linalg/src/matrix.rs",
        "crates/gp/src/kernel.rs",
        "crates/nn/src/lstm.rs",
    ] {
        assert_eq!(fired(path, src), ["unwrap-in-core"], "path {path}");
    }
}

#[test]
fn unwrap_in_core_fires_on_expect() {
    let src = "fn f(v: Vec<f64>) -> f64 { *v.first().expect(\"nonempty\") }";
    assert_eq!(fired("crates/linalg/src/matrix.rs", src), ["unwrap-in-core"]);
}

#[test]
fn unwrap_in_core_silent_outside_core_crates_and_in_tests() {
    let src = "fn f(v: Vec<f64>) -> f64 { *v.first().unwrap() }";
    assert!(fired(NEUTRAL, src).is_empty());
    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = vec![1.0]; v.first().unwrap(); }\n}";
    assert!(fired("crates/linalg/src/matrix.rs", test_src).is_empty());
}

#[test]
fn unwrap_in_core_silent_on_unwrap_or_default() {
    // Only the panicking forms are banned; `unwrap_or`-family methods are
    // total and fine.
    let src = "fn f(v: Vec<f64>) -> f64 { v.first().copied().unwrap_or_default() }";
    assert!(fired("crates/linalg/src/matrix.rs", src).is_empty());
}

// --------------------------------------------------------------- lossy-cast

#[test]
fn lossy_cast_fires_on_rounded_float_cast() {
    let src = "fn f(x: f64) -> usize { x.round() as usize }";
    assert_eq!(fired(NEUTRAL, src), ["lossy-cast"]);
}

#[test]
fn lossy_cast_fires_on_float_literal_cast() {
    let src = "fn f() -> i64 { 2.75 as i64 }";
    assert_eq!(fired(NEUTRAL, src), ["lossy-cast"]);
}

#[test]
fn lossy_cast_fires_inside_macro_bodies() {
    let src = "fn f(x: f64) -> String {\n\
               assert!(x.round() as usize > 0);\n\
               let _v = vec![2.5 as u32];\n\
               format!(\"{}\", x.floor() as i64)\n}";
    assert_eq!(
        fired(NEUTRAL, src),
        ["lossy-cast", "lossy-cast", "lossy-cast"]
    );
}

#[test]
fn lossy_cast_silent_on_int_to_int_and_float_target() {
    let src = "fn f(n: u32, x: f64) -> (usize, f64) { (n as usize, x.round()) }";
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn lossy_cast_silent_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = 1.5 as usize; }\n}";
    assert!(fired(NEUTRAL, src).is_empty());
}

// ------------------------------------------------------------- unsafe-block

#[test]
fn unsafe_block_fires_anywhere_including_tests() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
    assert_eq!(fired(NEUTRAL, src), ["unsafe-block"]);
    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = 1u8; let _ = unsafe { *(&x as *const u8) }; }\n}";
    assert!(fired(NEUTRAL, test_src).contains(&"unsafe-block".to_string()));
}

#[test]
fn unsafe_block_silent_on_strings_and_comments() {
    // The word only matters as a code token, not inside strings or comments
    // (the linter's own rule table says "unsafe" in a string constant).
    let src = "// this comment says unsafe\nfn f() -> &'static str { \"unsafe\" }";
    assert!(fired(NEUTRAL, src).is_empty());
}

// ------------------------------------------------------------- suppressions

#[test]
fn suppression_with_justification_silences_the_rule() {
    let src = "fn f(x: f64) -> usize {\n\
               // ld-lint: allow(lossy-cast, \"bounded to [0, 100] upstream\")\n\
               x.round() as usize\n}";
    assert!(fired(NEUTRAL, src).is_empty());
    assert_eq!(suppressed(NEUTRAL, src), 1);
}

#[test]
fn suppression_on_same_line_works() {
    let src = "fn f(x: f64) -> usize { x.round() as usize } // ld-lint: allow(lossy-cast, \"test fixture\")";
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn suppression_without_justification_is_itself_a_violation() {
    let src = "fn f(x: f64) -> usize {\n\
               // ld-lint: allow(lossy-cast)\n\
               x.round() as usize\n}";
    let rules = fired(NEUTRAL, src);
    assert!(rules.contains(&"suppression".to_string()), "got {rules:?}");
    // And the underlying violation is NOT silenced by a malformed directive.
    assert!(rules.contains(&"lossy-cast".to_string()), "got {rules:?}");
}

#[test]
fn suppression_for_wrong_rule_does_not_silence() {
    let src = "fn f(x: f64) -> usize {\n\
               // ld-lint: allow(float-ord, \"wrong rule on purpose\")\n\
               x.round() as usize\n}";
    assert!(fired(NEUTRAL, src).contains(&"lossy-cast".to_string()));
}

#[test]
fn suppression_does_not_leak_past_the_next_line() {
    let src = "fn f(x: f64, y: f64) -> (usize, usize) {\n\
               // ld-lint: allow(lossy-cast, \"first cast only\")\n\
               let a = x.round() as usize;\n\
               let b = y.round() as usize;\n\
               (a, b)\n}";
    assert_eq!(fired(NEUTRAL, src), ["lossy-cast"]);
}
