//! Run-provenance manifests.
//!
//! Every experiment or bench run can stamp a small JSON manifest answering
//! "what exactly produced this artifact": the tool, the workspace version,
//! the seeds, the effective configuration, the fault-injection / tracing
//! environment knobs that were live, and the paths of any trace, events or
//! exposition artifacts written alongside. Manifests are plain data — they
//! deserialize with [`RunManifest::from_json`] so post-processing scripts
//! and the CI schema gate use the same definitions.

use crate::trace::TraceSnapshot;
use crate::Snapshot;

/// Manifest schema version stamped into every file; bump on breaking
/// changes to the field set.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Environment knobs captured by [`RunManifest::capture_env`].
pub const CAPTURED_ENV_KEYS: &[&str] = &[
    "LD_FAULT",
    "LD_FAULT_SEED",
    "LD_TRACE",
    "LD_FAST",
];

/// One `key = value` pair in a manifest section.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ManifestEntry {
    /// Entry key.
    pub key: String,
    /// Entry value, stringified.
    pub value: String,
}

/// Provenance record for one run. Build with the chained setters, then
/// [`RunManifest::write_json`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Manifest format version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Producing binary, e.g. `"ld-cli"` or `"fig6_workflow"`.
    pub tool: String,
    /// Workspace crate version the binary was built from.
    pub workspace_version: String,
    /// RNG seeds the run was keyed on.
    pub seeds: Vec<u64>,
    /// Effective configuration, stringified key/value pairs.
    pub config: Vec<ManifestEntry>,
    /// Captured environment knobs (only keys that were set; see
    /// [`CAPTURED_ENV_KEYS`]).
    pub env: Vec<ManifestEntry>,
    /// Paths of artifacts written by the run (trace, events, exposition,
    /// figures), keyed by kind.
    pub outputs: Vec<ManifestEntry>,
    /// Span count of the attached trace snapshot (0 when tracing was off).
    pub trace_spans: u64,
    /// Root-span count of the attached trace snapshot.
    pub trace_roots: u64,
    /// Event count of the attached events snapshot (0 when tracing was
    /// off).
    pub telemetry_events: u64,
}

impl RunManifest {
    /// A fresh manifest for the named tool, stamped with the workspace
    /// version this crate was built from.
    pub fn new(tool: &str) -> Self {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            tool: tool.to_string(),
            workspace_version: env!("CARGO_PKG_VERSION").to_string(),
            seeds: Vec::new(),
            config: Vec::new(),
            env: Vec::new(),
            outputs: Vec::new(),
            trace_spans: 0,
            trace_roots: 0,
            telemetry_events: 0,
        }
    }

    /// Appends an RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Appends a configuration entry.
    pub fn config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.config.push(ManifestEntry {
            key: key.to_string(),
            value: value.to_string(),
        });
        self
    }

    /// Appends an output-artifact path under the given kind
    /// (`"chrome_trace"`, `"folded"`, `"events"`, ...).
    pub fn output(mut self, kind: &str, path: impl std::fmt::Display) -> Self {
        self.outputs.push(ManifestEntry {
            key: kind.to_string(),
            value: path.to_string(),
        });
        self
    }

    /// Records every [`CAPTURED_ENV_KEYS`] knob that is currently set.
    pub fn capture_env(mut self) -> Self {
        for key in CAPTURED_ENV_KEYS {
            if let Ok(value) = std::env::var(key) {
                self.env.push(ManifestEntry {
                    key: (*key).to_string(),
                    value,
                });
            }
        }
        self
    }

    /// Summarizes a trace snapshot into the manifest.
    pub fn with_trace_summary(mut self, trace: &TraceSnapshot) -> Self {
        self.trace_spans = trace.spans.len() as u64;
        self.trace_roots = trace.root_count() as u64;
        self
    }

    /// Summarizes an events snapshot ([`crate::Tracer::events`]) into the
    /// manifest.
    pub fn with_telemetry_summary(mut self, snapshot: &Snapshot) -> Self {
        self.telemetry_events = snapshot.events.len() as u64;
        self
    }

    /// Looks up an output path by kind.
    pub fn output_path(&self, kind: &str) -> Option<&str> {
        self.outputs
            .iter()
            .find(|e| e.key == kind)
            .map(|e| e.value.as_str())
    }

    /// Checks the structural invariants the CI gate relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(format!(
                "manifest schema_version {} != expected {MANIFEST_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.tool.is_empty() {
            return Err("manifest is missing a tool name".to_string());
        }
        if self.workspace_version.is_empty() {
            return Err("manifest is missing a workspace version".to_string());
        }
        for section in [&self.config, &self.env, &self.outputs] {
            if let Some(bad) = section.iter().find(|e| e.key.is_empty()) {
                return Err(format!("manifest entry with empty key (value {:?})", bad.value));
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization")
    }

    /// Parses a manifest previously produced by [`RunManifest::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the manifest to a file as JSON.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn manifest_roundtrip_and_validation() {
        let tr = Tracer::enabled();
        tr.record_with("s", "k", 0, |e| {
            e.int("x", 1);
        });
        drop(tr.span("root"));
        let manifest = RunManifest::new("ld-cli")
            .seed(42)
            .config("max_iters", 8)
            .config("series_len", 600)
            .output("trace_chrome", "out/trace.json")
            .with_trace_summary(&tr.snapshot())
            .with_telemetry_summary(&tr.events());
        manifest.validate().unwrap();
        assert_eq!(manifest.trace_spans, 1);
        assert_eq!(manifest.trace_roots, 1);
        assert_eq!(manifest.telemetry_events, 1);
        assert_eq!(manifest.output_path("trace_chrome"), Some("out/trace.json"));
        let restored = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(manifest, restored);
    }

    #[test]
    fn validation_rejects_bad_schema_version() {
        let mut manifest = RunManifest::new("x");
        manifest.schema_version = 99;
        assert!(manifest.validate().is_err());
        let mut manifest = RunManifest::new("");
        manifest.schema_version = MANIFEST_SCHEMA_VERSION;
        assert!(manifest.validate().is_err());
    }
}
