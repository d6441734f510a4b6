//! CLI contract of `ld-perfbench --compare`: exit 0 when the current run
//! holds the baseline, exit 3 when any row regresses past tolerance or was
//! measured at other params, exit 2 on usage errors (bad flags or flag
//! values, an unreadable or malformed baseline). Exercised end-to-end
//! against the real binary. Every doctored baseline starts from a document
//! the binary wrote with `--out`, so its rows carry their real params.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use serde::Value;

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ld-perfbench")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ld-perfbench-gate");
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn report(out: &Output) -> String {
    format!(
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The params of row `name` in a document the binary wrote with `--out`
/// (recorded once and shared by every test), or a placeholder for a row
/// the binary does not measure.
fn params(name: &str) -> String {
    static DOC: OnceLock<Value> = OnceLock::new();
    let doc = DOC.get_or_init(|| {
        let path = scratch("recorded.json");
        let out = Command::new(bench_bin())
            .args(["--reps", "1", "--out", path.to_str().unwrap()])
            .output()
            .expect("spawn ld-perfbench");
        assert_eq!(out.status.code(), Some(0), "{}", report(&out));
        serde_json::from_str(&fs::read_to_string(&path).expect("read recorded document"))
            .expect("recorded document parses")
    });
    fn text<'a>(row: &'a Value, key: &str) -> Option<&'a str> {
        row.field(key).ok().and_then(Value::as_str)
    }
    let rows = doc.field("kernels").ok().and_then(Value::as_array);
    rows.expect("kernels")
        .iter()
        .find(|row| text(row, "name") == Some(name))
        .and_then(|row| text(row, "params"))
        .unwrap_or("not measured")
        .to_string()
}

/// Writes a schema-3 baseline of `(name, params, cost)` rows. `--compare`
/// reads a row's params and cost; its timings are `cost` host-kernel units.
fn write_baseline(file: &str, rows: &[(&str, String, f64)]) -> PathBuf {
    let entries: Vec<String> = rows
        .iter()
        .map(|(name, params, cost)| {
            format!(
                "{{\"name\":{name:?},\"params\":{params:?},\"reference\":\"host-kernel\",\
                 \"reference_median_secs\":1.0,\"median_secs\":{cost},\"cost\":{cost}}}"
            )
        })
        .collect();
    let doc = format!(
        "{{\"schema_version\":3,\"reps\":1,\"kernels\":[{}]}}",
        entries.join(",")
    );
    let path = scratch(file);
    fs::write(&path, doc).expect("write baseline");
    path
}

/// A baseline of the given `(name, cost)` rows, each with its real params.
fn doctored(file: &str, costs: &[(&str, f64)]) -> PathBuf {
    let rows: Vec<_> = costs
        .iter()
        .map(|&(n, cost)| (n, params(n), cost))
        .collect();
    write_baseline(file, &rows)
}

fn run_compare(baseline: &Path, tolerance: &str) -> Output {
    Command::new(bench_bin())
        .args([
            "--reps",
            "1",
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
    // A baseline claiming an absurdly cheap row no real run can reach: the
    // comparison must flag a regression and exit 3.
    let baseline = doctored("doctored-cheap.json", &[("packed-gemm", 1.0e-9)]);
    let out = run_compare(&baseline, "1.0");
    assert_eq!(out.status.code(), Some(3), "{}", report(&out));
    assert!(
        report(&out).contains("REGRESSION"),
        "regression report must say REGRESSION: {}",
        report(&out)
    );
}

#[test]
fn healthy_baseline_exits_0_and_skips_unknown_kernels() {
    // Huge claimed costs are always beaten; a baseline row the binary does
    // not measure is reported, not failed.
    let baseline = doctored(
        "doctored-costly.json",
        &[("packed-gemm", 1.0e9), ("not-a-kernel", 1.0e-9)],
    );
    let out = run_compare(&baseline, "1.0");
    assert_eq!(out.status.code(), Some(0), "{}", report(&out));
}

#[test]
fn generous_tolerance_waives_a_regression() {
    // With a huge tolerance the same doctored baseline passes: the gate
    // trips only when cost > baseline_cost * tolerance.
    let baseline = doctored("doctored-waived.json", &[("lstm-forward", 1.0e-9)]);
    let strict = run_compare(&baseline, "1.0");
    let lax = run_compare(&baseline, "1000000000000.0");
    assert_eq!(strict.status.code(), Some(3), "{}", report(&strict));
    assert_eq!(lax.status.code(), Some(0), "{}", report(&lax));
}

#[test]
fn costlier_metrics_plane_than_baseline_exits_3() {
    // The observe-overhead row times the engine's tracer on in units of the
    // same engine with it off, so its cost is above 1 by the plane's
    // overhead. A baseline recording a free plane (1.0) at tolerance 1.0
    // must fail on any real overhead: a span per tick, group and request
    // plus the `serve.*` series cost far more than timing noise.
    let baseline = doctored("free-observe-plane.json", &[("observe-overhead", 1.0)]);
    let out = run_compare(&baseline, "1.0");
    assert_eq!(out.status.code(), Some(3), "{}", report(&out));
}

#[test]
fn baseline_measured_at_other_params_exits_3() {
    // Costs measured at other shapes cannot be compared: a row whose params
    // differ from the baseline's fails even when its cost holds, and the
    // report names both params strings.
    let real = params("lstm-forward");
    let stale = "T=6 H=6 L=1";
    assert_ne!(real, stale);
    let rows = [("lstm-forward", stale.to_string(), 1.0e9)];
    let baseline = write_baseline("other-params.json", &rows);
    let out = run_compare(&baseline, "1.0");
    assert_eq!(out.status.code(), Some(3), "{}", report(&out));
    let text = report(&out);
    assert!(text.contains(stale) && text.contains(&real), "{text}");
}

#[test]
fn unknown_flag_exits_2() {
    let missing = scratch("no-such-baseline.json");
    let _ = fs::remove_file(&missing);
    let missing = missing.to_str().unwrap();
    for args in [
        &["--definitely-not-a-flag"][..],
        &["--smoke"],
        &["--tolerance", "0.5"],
        &["--tolerance", "nan"],
        &["--reps", "x"],
        &["--warmup", "4"],
        &["--compare"],
        &["--compare", missing],
    ] {
        let out = Command::new(bench_bin())
            .args(args)
            .output()
            .expect("spawn ld-perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}\n{}", report(&out));
    }
}

#[test]
fn malformed_baseline_is_a_usage_error() {
    let path = scratch("garbage.json");
    fs::write(&path, "{not json").expect("write garbage");
    let out = run_compare(&path, "1.0");
    assert_eq!(out.status.code(), Some(2), "{}", report(&out));
}
