//! The artifact set of one traced run, the one place that names it, and
//! the one reader of the `LD_TRACE` knob.
//!
//! A traced run writes four files from one base path `P`: the Chrome
//! trace-event JSON at `P`, folded flamegraph stacks at `P.folded`, the
//! counters, gauges, histograms and events at `P.events.json` and the
//! run-provenance manifest at `P.manifest.json`. `ld-loadgen` adds a fifth,
//! the Prometheus text exposition of the same series at `P.prom`.
//! [`Artifact::path`] derives each name, [`write_trace_artifacts`] writes
//! the set, and `ld-cli trace-validate` finds a set's siblings through the
//! same names.
//!
//! The binaries opt in through the environment: [`trace_from_env`] reads
//! `LD_TRACE` and [`dump_trace`] writes the set it asked for. Unset (the
//! default) leaves the tracer disabled and a binary's behavior and output
//! byte-identical to an uninstrumented build.

use std::io;

use crate::{RunManifest, Tracer};

/// One file of a traced run's artifact set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Chrome trace-event JSON, at the base path itself.
    ChromeTrace,
    /// Folded flamegraph stacks.
    Folded,
    /// Counters and events ([`crate::Snapshot`] JSON).
    Events,
    /// The run-provenance manifest.
    Manifest,
    /// Prometheus text exposition of the counters, gauges and histograms
    /// (written by `ld-loadgen` beside its set; not by
    /// [`write_trace_artifacts`]).
    Exposition,
}

impl Artifact {
    /// The kind a manifest lists this artifact's path under
    /// ([`RunManifest::output`]).
    pub fn kind(self) -> &'static str {
        match self {
            Artifact::ChromeTrace => "chrome_trace",
            Artifact::Folded => "folded",
            Artifact::Events => "events",
            Artifact::Manifest => "manifest",
            Artifact::Exposition => "exposition",
        }
    }

    /// This artifact's path in the set whose Chrome trace is at `trace_path`.
    pub fn path(self, trace_path: &str) -> String {
        let suffix = match self {
            Artifact::ChromeTrace => "",
            Artifact::Folded => ".folded",
            Artifact::Events => ".events.json",
            Artifact::Manifest => ".manifest.json",
            Artifact::Exposition => ".prom",
        };
        format!("{trace_path}{suffix}")
    }
}

/// Writes the four artifacts of `tracer`'s run from the base path
/// `trace_path`. The caller builds `manifest` with its tool name, seeds
/// and config; this stamps the span and event totals, lists the other
/// three artifacts' paths, captures the `LD_*` environment and writes the
/// manifest last.
///
/// # Errors
/// An [`io::ErrorKind::InvalidData`] error, before anything is written, if
/// the stamped manifest fails [`RunManifest::validate`]; otherwise the
/// first failed write.
pub fn write_trace_artifacts(
    tracer: &Tracer,
    trace_path: &str,
    manifest: RunManifest,
) -> io::Result<()> {
    let trace = tracer.snapshot();
    let events = tracer.events();
    let files = [
        (Artifact::ChromeTrace, trace.to_chrome_trace()),
        (Artifact::Folded, trace.to_folded()),
        (Artifact::Events, events.to_json()),
    ];
    let manifest = files
        .iter()
        .fold(manifest.capture_env(), |m, (artifact, _)| {
            m.output(artifact.kind(), artifact.path(trace_path))
        })
        .with_trace_summary(&trace)
        .with_telemetry_summary(&events);
    manifest
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    for (artifact, contents) in &files {
        std::fs::write(artifact.path(trace_path), contents)?;
    }
    manifest.write_json(Artifact::Manifest.path(trace_path))
}

/// The tracer plus Chrome-trace output path requested by the environment,
/// or `(disabled, None)` when `LD_TRACE` is unset or empty. `LD_TRACE=1`
/// means `trace.json` in the working directory; any other value is the
/// path.
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
/// through [`write_trace_artifacts`]. The caller builds the manifest with
/// its tool name, seeds and config. A failed write is reported on stderr
/// and the run carries on. No-op when tracing was not requested.
pub fn dump_trace(tracer: &Tracer, path: &Option<String>, manifest: RunManifest) {
    let Some(path) = path else {
        return;
    };
    match write_trace_artifacts(tracer, path, manifest) {
        Ok(()) => eprintln!("trace artifacts written to {path} and its siblings"),
        Err(e) => eprintln!("cannot write trace artifacts to {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_a_set_its_manifest_lists() {
        let dir = std::env::temp_dir().join(format!("ld-artifacts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("t.json").to_string_lossy().into_owned();
        let tr = Tracer::enabled();
        drop(tr.span("root"));
        tr.record_with("s", "k", 0, |e| {
            e.int("x", 1);
        });
        write_trace_artifacts(&tr, &base, RunManifest::new("test").seed(1)).unwrap();

        let read = |a: Artifact| std::fs::read_to_string(a.path(&base)).unwrap();
        assert_eq!(
            crate::validate_chrome_trace(&read(Artifact::ChromeTrace)),
            Ok(1)
        );
        assert_eq!(crate::validate_folded(&read(Artifact::Folded)), Ok(1));
        assert_eq!(crate::validate_events(&read(Artifact::Events)), Ok(1));
        let manifest = RunManifest::from_json(&read(Artifact::Manifest)).unwrap();
        assert_eq!((manifest.trace_spans, manifest.telemetry_events), (1, 1));
        for a in [Artifact::ChromeTrace, Artifact::Folded, Artifact::Events] {
            assert_eq!(manifest.output_path(a.kind()), Some(a.path(&base).as_str()));
        }

        // An invalid manifest is refused before any file is touched.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let err = write_trace_artifacts(&tr, &base, RunManifest::new("")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
