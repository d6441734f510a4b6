//! Opt-in tracing and metrics for the experiment binaries, driven by
//! `LD_TRACE` and `LD_METRICS`.
//!
//! Unset (the default) leaves both disabled and the binaries' behavior
//! and output byte-identical to an uninstrumented build. `LD_TRACE=1`
//! enables the tracer and writes `trace.json` into the working directory;
//! any other value is used as the path. One enablement emits the Chrome
//! trace at the path, a folded-stack file at `<path>.folded`, the
//! counters and events at `<path>.events.json`, and a run-provenance
//! manifest at `<path>.manifest.json`. `LD_METRICS` (default
//! `metrics.json`) dumps the schema-checked metrics snapshot at the path
//! plus the Prometheus text exposition at `<path>.prom`.

use ld_metrics::Metrics;
use ld_telemetry::{RunManifest, Tracer};

/// Installs a fault-injection plan from `LD_FAULT` / `LD_FAULT_SEED` (see
/// `ld-faultinject`), reporting on stderr when one is active so a faulted
/// run can never be mistaken for a clean one. No-op when unset.
pub fn faults_from_env() {
    ld_faultinject::activate_from_env(0);
}

/// The metrics handle plus output path requested by the environment, or
/// `(disabled, None)` when `LD_METRICS` is unset or empty.
pub fn metrics_from_env() -> (Metrics, Option<String>) {
    match std::env::var("LD_METRICS") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" { "metrics.json".to_string() } else { v };
            (Metrics::enabled(), Some(path))
        }
        _ => (Metrics::disabled(), None),
    }
}

/// Writes the metrics snapshot to the path from [`metrics_from_env`] as
/// schema-checked JSON plus the Prometheus text exposition at
/// `<path>.prom`, both run through their validators before touching disk
/// (a bench must never publish a malformed snapshot). No-op when metrics
/// were not requested.
pub fn dump_metrics(metrics: &Metrics, path: &Option<String>) {
    let Some(path) = path else {
        return;
    };
    let snapshot = metrics.snapshot();
    let json = ld_metrics::to_metrics_json(&snapshot);
    if let Err(e) = ld_metrics::validate_metrics_json(&json) {
        eprintln!("metrics snapshot failed validation ({e}); writing anyway");
    }
    write_artifact(path, &(json + "\n"), "metrics");
    let exposition = ld_metrics::to_prometheus(&snapshot);
    if let Err(e) = ld_metrics::validate_exposition(&exposition) {
        eprintln!("metrics exposition failed validation ({e}); writing anyway");
    }
    write_artifact(&format!("{path}.prom"), &exposition, "metrics exposition");
}

/// The tracer plus Chrome-trace output path requested by the environment,
/// or `(disabled, None)` when `LD_TRACE` is unset or empty.
pub fn trace_from_env() -> (Tracer, Option<String>) {
    match std::env::var("LD_TRACE") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" { "trace.json".to_string() } else { v };
            (Tracer::enabled(), Some(path))
        }
        _ => (Tracer::disabled(), None),
    }
}

/// Writes a file and reports where it went on stderr.
fn write_artifact(path: &str, contents: &str, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(e) => eprintln!("cannot write {what} to {path}: {e}"),
    }
}

/// Writes the four trace artifacts to the path from [`trace_from_env`]:
/// the Chrome trace-event JSON at `path`, the folded-stack file at
/// `<path>.folded`, the counters and events at `<path>.events.json`, and
/// the run-provenance manifest at `<path>.manifest.json`. The caller builds
/// the manifest with its tool name, seeds and config; this helper stamps
/// the span and event summaries, records the artifact paths and captures
/// the `LD_*` environment. No-op when tracing was not requested.
pub fn dump_trace(
    tracer: &Tracer,
    path: &Option<String>,
    manifest: RunManifest,
    metrics: &Metrics,
    metrics_path: &Option<String>,
) {
    let Some(path) = path else {
        return;
    };
    let trace = tracer.snapshot();
    let events = tracer.events();
    let folded = format!("{path}.folded");
    let events_path = format!("{path}.events.json");
    write_artifact(path, &trace.to_chrome_trace(), "chrome trace");
    write_artifact(&folded, &trace.to_folded(), "folded stacks");
    write_artifact(&events_path, &events.to_json(), "events");
    let mut manifest = manifest
        .capture_env()
        .output("chrome_trace", path)
        .output("folded", folded)
        .output("events", events_path)
        .with_trace_summary(&trace)
        .with_telemetry_summary(&events);
    if metrics.is_enabled() {
        let snapshot = metrics.snapshot();
        manifest = manifest.with_metrics_summary(snapshot.series(), snapshot.observations());
        if let Some(mpath) = metrics_path {
            manifest = manifest
                .output("metrics", mpath)
                .output("metrics_exposition", format!("{mpath}.prom"));
        }
    }
    if let Err(e) = manifest.validate() {
        eprintln!("run manifest failed validation ({e}); writing anyway");
    }
    write_artifact(
        &format!("{path}.manifest.json"),
        &manifest.to_json(),
        "run manifest",
    );
}
