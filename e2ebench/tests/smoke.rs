//! Runs every workload at smoke size through the built binary, checks the
//! result line against the metric table, and pins `BENCHMARK.json` to that
//! table. Each workload runs in its own process, as the benchmark does, so
//! the process-global fault plan of one test can never leak into another.

use std::process::{Command, Output};

use serde_json::Value;

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

const WORKLOADS: [&str; 4] = ["tune", "council", "serve-shared", "serve-pertenant"];

fn ld_e2e(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ld-e2e"))
        .args(args)
        .env_remove("LD_FAULT")
        .output()
        .expect("spawn ld-e2e")
}

/// The JSON object on the last line of stdout.
fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("ld-e2e printed nothing");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn assert_reports(workload: &str, traced: bool) {
    let trace = if traced { "1" } else { "0" };
    let out = ld_e2e(&[
        "run",
        "--workload",
        workload,
        "--smoke",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload} (traced {traced}) failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let reported = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let defs = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let names: Vec<&str> = reported.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        names, expected,
        "{workload} reports exactly the table's metrics"
    );
    for ((name, m), d) in reported.iter().zip(defs) {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
        if !traced {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn tune_smoke() {
    assert_reports("tune", false);
    assert_reports("tune", true);
}

#[test]
fn council_smoke() {
    assert_reports("council", false);
    assert_reports("council", true);
}

#[test]
fn serve_shared_smoke() {
    assert_reports("serve-shared", false);
    assert_reports("serve-shared", true);
}

#[test]
fn serve_pertenant_smoke() {
    assert_reports("serve-pertenant", false);
    assert_reports("serve-pertenant", true);
}

#[test]
fn refuses_to_run_under_fault_injection() {
    let out = Command::new(env!("CARGO_BIN_EXE_ld-e2e"))
        .args(["run", "--workload", "council", "--smoke", "--seconds", "1"])
        .env("LD_FAULT", "nan_loss=0.5")
        .output()
        .expect("spawn ld-e2e");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}

#[test]
fn rejects_unknown_workloads_and_arguments() {
    assert_eq!(
        ld_e2e(&["run", "--workload", "nope"]).status.code(),
        Some(2)
    );
    for bad in [["--trace", "2"], ["--seconds", "0"], ["--seconds", "1.5"]] {
        let out = ld_e2e(&["run", "--workload", "tune", bad[0], bad[1]]);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}: no result may be printed");
    }
    assert_eq!(ld_e2e(&[]).status.code(), Some(2));
}

/// One `--out` record with the given end-to-end values.
fn record(workload: &str, seed: u64, digest: &str, values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(n, v)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"x\"}}"))
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"traced\":false,\"smoke\":false,\"digest\":\"{digest}\",\"unresolved\":[],\"notes\":[],\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}}}\n",
        metrics.join(",")
    )
}

#[test]
fn compare_applies_bounds_spreads_and_digests() {
    let dir = std::env::temp_dir().join(format!("ld-e2e-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let mut text_a = String::new();
    let mut text_b = String::new();
    for (i, seed) in (1u64..=10).enumerate() {
        let jitter = 1.0 + 0.001 * i as f64;
        text_a += &record(
            "council",
            seed,
            "aa",
            &[
                ("job_s", 1.0 * jitter),
                ("forecast_us", 100.0 * jitter),
                ("peak_rss_mb", 20.0),
            ],
        );
        // job_s 30% slower (worse), forecasts 30% faster (better), memory equal.
        text_b += &record(
            "council",
            seed,
            "aa",
            &[
                ("job_s", 1.3 * jitter),
                ("forecast_us", 70.0 * jitter),
                ("peak_rss_mb", 20.0),
            ],
        );
        // Same timings, but every search went elsewhere.
        text_a += &record("tune", seed, "aa", &[("job_s", 1.0 * jitter)]);
        text_b += &record("tune", seed, "bb", &[("job_s", 1.0 * jitter)]);
    }
    std::fs::write(&a, text_a).expect("write a");
    std::fs::write(&b, text_b).expect("write b");
    let out = ld_e2e(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    std::fs::remove_dir_all(&dir).ok();
    let verdict = |workload: &str, metric: &str| -> String {
        stdout
            .lines()
            .find(|l| l.split_whitespace().take(2).eq([workload, metric]))
            .unwrap_or_else(|| panic!("no row for {workload} {metric}:\n{stdout}"))
            .split_whitespace()
            .nth(2)
            .expect("verdict column")
            .to_string()
    };
    assert_eq!(verdict("council", "job_s"), "worse", "{stdout}");
    assert_eq!(verdict("council", "forecast_us"), "better", "{stdout}");
    assert_eq!(verdict("council", "peak_rss_mb"), "same", "{stdout}");
    assert_eq!(verdict("tune", "job_s"), "unresolved", "{stdout}");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a worse metric fails the comparison"
    );
}

#[test]
fn benchmark_json_mirrors_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, defs) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let listed = doc.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, d) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(d.name));
            assert_eq!(field("unit"), Some(d.unit), "{}", d.name);
            assert_eq!(field("better"), Some(d.better.as_str()), "{}", d.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
    }
}
