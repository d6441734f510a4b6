//! Opt-in tracing for the experiment binaries, driven by `LD_TRACE`.
//!
//! Unset (the default) leaves the tracer disabled and the binaries'
//! behavior and output byte-identical to an uninstrumented build.
//! `LD_TRACE=1` enables the tracer and writes `trace.json` into the working
//! directory; any other value is used as the path. One enablement emits the
//! Chrome trace at the path, a folded-stack file at `<path>.folded`, the
//! counters and events at `<path>.events.json`, and a run-provenance
//! manifest at `<path>.manifest.json` (see [`ld_telemetry::artifacts`]).

use ld_telemetry::{RunManifest, Tracer};

/// Installs a fault-injection plan from `LD_FAULT` / `LD_FAULT_SEED` (see
/// `ld-faultinject`), reporting on stderr when one is active so a faulted
/// run can never be mistaken for a clean one. No-op when unset.
pub fn faults_from_env() {
    ld_faultinject::activate_from_env(0);
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

/// Writes the four trace artifacts to the path from [`trace_from_env`]
/// through [`ld_telemetry::write_trace_artifacts`]. The caller builds the
/// manifest with its tool name, seeds and config. A failed write is
/// reported on stderr and the run carries on. No-op when tracing was not
/// requested.
pub fn dump_trace(tracer: &Tracer, path: &Option<String>, manifest: RunManifest) {
    let Some(path) = path else {
        return;
    };
    match ld_telemetry::write_trace_artifacts(tracer, path, manifest) {
        Ok(()) => eprintln!("trace artifacts written to {path} and its siblings"),
        Err(e) => eprintln!("cannot write trace artifacts to {path}: {e}"),
    }
}
