//! CLI contract of `ld-perfbench --compare`: exit 0 when the current run
//! holds the baseline, exit 3 when any kernel regresses past tolerance,
//! exit 2 on usage errors (bad flags or flag values, an unreadable or
//! malformed baseline). Exercised end-to-end against the real binary in
//! `--smoke` mode with doctored baselines.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ld-perfbench")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ld-perfbench-gate");
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn write_baseline(name: &str, kernels: &[(&str, f64)]) -> PathBuf {
    let entries: Vec<String> = kernels
        .iter()
        .map(|(k, s)| format!("{{\"name\":\"{k}\",\"speedup\":{s}}}"))
        .collect();
    let doc = format!(
        "{{\"schema_version\":1,\"kernels\":[{}]}}",
        entries.join(",")
    );
    let path = scratch(name);
    fs::write(&path, doc).expect("write baseline");
    path
}

fn run_compare(baseline: &Path, tolerance: &str) -> std::process::Output {
    Command::new(bench_bin())
        .args([
            "--smoke",
            "--compare",
            baseline.to_str().unwrap(),
            "--tolerance",
            tolerance,
        ])
        .output()
        .expect("spawn ld-perfbench")
}

#[test]
fn regressed_kernel_exits_3() {
    // A baseline claiming an absurd speedup no real run can reach: the
    // comparison must flag a regression and exit 3. Smoke shapes report
    // the matmul kernel under the shape-independent name `matmul`.
    let baseline = write_baseline("doctored-high.json", &[("matmul", 1.0e9)]);
    let out = run_compare(&baseline, "1.0");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("REGRESSION"),
        "regression report must say REGRESSION: {text}"
    );
}

#[test]
fn healthy_baseline_exits_0_and_skips_unknown_kernels() {
    // Tiny claimed speedups are always beaten; kernels absent from the
    // smoke run are reported as skipped, not failed.
    let baseline = write_baseline(
        "doctored-low.json",
        &[("matmul", 1.0e-9), ("not-a-kernel", 1.0e9)],
    );
    let out = run_compare(&baseline, "1.0");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn generous_tolerance_waives_a_regression() {
    // With a huge tolerance the same doctored baseline passes: the gate
    // trips only when current * tolerance < baseline.
    let baseline = write_baseline("doctored-waived.json", &[("lstm-forward", 1.0e9)]);
    let strict = run_compare(&baseline, "1.0");
    let lax = run_compare(&baseline, "1000000000000.0");
    assert_eq!(strict.status.code(), Some(3));
    assert_eq!(lax.status.code(), Some(0));
}

#[test]
fn unknown_flag_exits_2() {
    let missing = scratch("no-such-baseline.json");
    let _ = fs::remove_file(&missing);
    let missing = missing.to_str().unwrap();
    for args in [
        &["--definitely-not-a-flag"][..],
        &["--smoke", "--tolerance", "0.5"],
        &["--smoke", "--tolerance", "nan"],
        &["--smoke", "--reps", "x"],
        &["--smoke", "--compare"],
        &["--smoke", "--compare", missing],
    ] {
        let out = Command::new(bench_bin())
            .args(args)
            .output()
            .expect("spawn ld-perfbench");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn malformed_baseline_is_a_usage_error() {
    let path = scratch("garbage.json");
    fs::write(&path, "{not json").expect("write garbage");
    let out = run_compare(&path, "1.0");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
