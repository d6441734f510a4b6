//! The artifact set of one traced run, and the one place that names it.
//!
//! A traced run writes four files from one base path `P`: the Chrome
//! trace-event JSON at `P`, folded flamegraph stacks at `P.folded`, the
//! counters and events at `P.events.json` and the run-provenance manifest
//! at `P.manifest.json`. [`Artifact::path`] derives each name,
//! [`write_trace_artifacts`] writes the set, and `ld-cli trace-validate`
//! finds a set's siblings through the same names.

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
        }
    }

    /// This artifact's path in the set whose Chrome trace is at `trace_path`.
    pub fn path(self, trace_path: &str) -> String {
        let suffix = match self {
            Artifact::ChromeTrace => "",
            Artifact::Folded => ".folded",
            Artifact::Events => ".events.json",
            Artifact::Manifest => ".manifest.json",
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
