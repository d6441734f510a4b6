//! One instrumentation handle for the LoadDynamics hot loops.
//!
//! The framework's cost is concentrated in two nested loops — the Bayesian
//! search over hyperparameters and, inside each candidate evaluation, the
//! mini-batch training loop. A [`Tracer`] observes both without changing
//! their behavior, recording three things into one shared registry:
//!
//! - **Spans** — timed regions of the search/training hierarchy
//!   (`search / iter#3 / evaluate / train / epoch#7`), the only source of
//!   wall-clock attribution; see [`trace`].
//! - **Counters** — monotone totals ("epochs run", "gradient clips fired"),
//!   via [`Tracer::add`] / [`Tracer::incr`].
//! - **Events** — structured per-epoch / per-trial records with a small set
//!   of typed fields, via [`Tracer::record_with`].
//!
//! A default handle is *disabled*: every method returns immediately without
//! locking, allocating or reading the clock, so instrumented code paths
//! cost one branch. An enabled handle is an `Arc` around the registry,
//! cheap to clone into rayon closures.
//!
//! # Determinism
//!
//! Counters and events carry no wall-clock values. Events are keyed by a
//! *logical* scope string (e.g. `"trainer/n=8 c=4 l=1 b=32"`), a kind, and
//! an index (epoch or iteration number), and [`Tracer::events`] orders by
//! those keys plus the field contents, never by arrival order. Two runs
//! that perform the same logical work therefore produce byte-identical
//! event snapshots even when worker threads interleave differently.
//!
//! # JSON schema
//!
//! [`Snapshot`] serializes to `{"counters": [...], "events": [...]}` — the
//! `<trace>.events.json` artifact written beside a Chrome trace; see the
//! README for the full schema. It also deserializes, and
//! [`validate_events`] schema-checks a written file. [`artifacts`] names
//! and writes a traced run's four files.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod artifacts;
pub mod manifest;
pub mod trace;

pub use artifacts::{write_trace_artifacts, Artifact};
pub use manifest::{ManifestEntry, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use trace::{
    validate_chrome_trace, validate_folded, SpanGuard, SpanRecord, TraceSnapshot, Tracer,
};

use std::sync::{Mutex, MutexGuard};

/// Locks a registry mutex, recovering from poisoning (a panic in another
/// thread must not cascade into the observer).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Accumulates the typed fields of one event.
pub struct EventBuilder {
    fields: Vec<Field>,
}

impl EventBuilder {
    fn push(&mut self, name: &str, value: FieldValue) {
        self.fields.push(Field {
            name: name.to_string(),
            value,
        });
    }

    /// Adds a floating-point field. JSON has no literal for a non-finite
    /// number, so one (a diverged fit's `best_loss`, say) is recorded as
    /// text (`inf`, `-inf`, `NaN`) and every events file parses back.
    pub fn num(&mut self, name: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.push(name, FieldValue::Num { value });
            self
        } else {
            self.text(name, value.to_string())
        }
    }

    /// Adds an unsigned integer field.
    pub fn int(&mut self, name: &str, value: u64) -> &mut Self {
        self.push(name, FieldValue::Int { value });
        self
    }

    /// Adds a string field.
    pub fn text(&mut self, name: &str, value: impl Into<String>) -> &mut Self {
        self.push(
            name,
            FieldValue::Text {
                value: value.into(),
            },
        );
        self
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, name: &str, value: bool) -> &mut Self {
        self.push(name, FieldValue::Flag { value });
        self
    }
}

/// One named counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CounterRecord {
    /// Counter name.
    pub name: String,
    /// Accumulated total.
    pub value: u64,
}

/// One structured event in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventRecord {
    /// Logical scope, e.g. `"trainer/n=8 c=4 l=1 b=32"` or `"search"`.
    pub scope: String,
    /// Event kind within the scope, e.g. `"epoch"` or `"trial"`.
    pub kind: String,
    /// Position within (scope, kind): epoch number, trial number, interval.
    pub index: u64,
    /// Typed payload fields, in recording order.
    pub fields: Vec<Field>,
}

impl EventRecord {
    /// Total order on logical identity (scope, kind, index, then fields),
    /// independent of the order in which threads recorded the events.
    fn logical_cmp(a: &EventRecord, b: &EventRecord) -> std::cmp::Ordering {
        a.scope
            .cmp(&b.scope)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.index.cmp(&b.index))
            .then_with(|| {
                let pairs = a.fields.iter().zip(&b.fields);
                for (fa, fb) in pairs {
                    let c = fa.logical_cmp(fb);
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                a.fields.len().cmp(&b.fields.len())
            })
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|f| f.name == name).map(|f| &f.value)
    }

    /// Convenience: the named field as `f64` (numeric or integer fields).
    pub fn num(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            FieldValue::Num { value } => Some(*value),
            FieldValue::Int { value } => Some(*value as f64),
            _ => None,
        }
    }
}

/// One named, typed event field.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field value.
    pub value: FieldValue,
}

impl Field {
    fn logical_cmp(&self, other: &Field) -> std::cmp::Ordering {
        self.name
            .cmp(&other.name)
            .then_with(|| self.value.logical_cmp(&other.value))
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FieldValue {
    /// Finite floating-point measurement.
    Num {
        /// The value.
        value: f64,
    },
    /// Unsigned integer measurement.
    Int {
        /// The value.
        value: u64,
    },
    /// Free-form label.
    Text {
        /// The value.
        value: String,
    },
    /// Boolean marker.
    Flag {
        /// The value.
        value: bool,
    },
}

impl FieldValue {
    fn rank(&self) -> u8 {
        match self {
            FieldValue::Num { .. } => 0,
            FieldValue::Int { .. } => 1,
            FieldValue::Text { .. } => 2,
            FieldValue::Flag { .. } => 3,
        }
    }

    fn logical_cmp(&self, other: &FieldValue) -> std::cmp::Ordering {
        use FieldValue::*;
        match (self, other) {
            (Num { value: a }, Num { value: b }) => a.total_cmp(b),
            (Int { value: a }, Int { value: b }) => a.cmp(b),
            (Text { value: a }, Text { value: b }) => a.cmp(b),
            (Flag { value: a }, Flag { value: b }) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// An immutable, deterministically-ordered dump of a [`Tracer`]'s counters
/// and events (see [`Tracer::events`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterRecord>,
    /// All events, sorted by (scope, kind, index, fields).
    pub events: Vec<EventRecord>,
}

impl Snapshot {
    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Pretty-printed JSON: the `<trace>.events.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("events serialization")
    }

    /// The value of a counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// All events with the given scope and kind, in index order.
    pub fn events_of(&self, scope: &str, kind: &str) -> Vec<&EventRecord> {
        self.events
            .iter()
            .filter(|e| e.scope == scope && e.kind == kind)
            .collect()
    }
}

/// Validates an events file as produced by [`Snapshot::to_json`]: a
/// `counters` array with unique non-empty names in sorted order, and an
/// `events` array of typed records with non-empty scopes and kinds, sorted
/// by `(scope, kind, index)`. Returns the event count.
pub fn validate_events(json: &str) -> Result<usize, String> {
    let snapshot = Snapshot::from_json(json).map_err(|e| format!("not an events snapshot: {e}"))?;
    if snapshot.counters.iter().any(|c| c.name.is_empty()) {
        return Err("counter with an empty name".into());
    }
    if let Some(w) = snapshot
        .counters
        .windows(2)
        .find(|w| w[0].name >= w[1].name)
    {
        return Err(format!(
            "counter `{}` is duplicated or out of order",
            w[1].name
        ));
    }
    if let Some(i) = snapshot
        .events
        .iter()
        .position(|e| e.scope.is_empty() || e.kind.is_empty())
    {
        return Err(format!("event {i} has an empty scope or kind"));
    }
    let key = |e: &EventRecord| (e.scope.clone(), e.kind.clone(), e.index);
    if let Some(i) = snapshot
        .events
        .windows(2)
        .position(|w| key(&w[0]) > key(&w[1]))
    {
        return Err(format!(
            "event {} is out of (scope, kind, index) order",
            i + 1
        ));
    }
    Ok(snapshot.events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_roundtrip() {
        let tr = Tracer::enabled();
        tr.add("clips", 7);
        tr.record_with("trainer/n=8", "epoch", 0, |e| {
            e.num("train_mse", 0.5)
                .int("batches", 12)
                .text("stop", "patience")
                .flag("clipped", true);
        });
        let snap = tr.events();
        let json = snap.to_json();
        assert_eq!(validate_events(&json), Ok(1));
        let restored = Snapshot::from_json(&json).unwrap();
        assert_eq!(snap, restored);
        // Field accessors survive the roundtrip.
        let epochs = restored.events_of("trainer/n=8", "epoch");
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].num("train_mse"), Some(0.5));
        assert_eq!(epochs[0].num("batches"), Some(12.0));
        assert_eq!(
            epochs[0].field("stop"),
            Some(&FieldValue::Text {
                value: "patience".into()
            })
        );
    }

    #[test]
    fn non_finite_numbers_are_recorded_as_text() {
        let tr = Tracer::enabled();
        tr.record_with("trainer/n=8", "fit", 0, |e| {
            e.num("best_loss", f64::INFINITY)
                .num("low", f64::NEG_INFINITY)
                .num("val_mse", f64::NAN)
                .num("train_mse", 0.25);
        });
        let json = tr.events().to_json();
        assert_eq!(validate_events(&json), Ok(1));
        let restored = Snapshot::from_json(&json).unwrap();
        let fit = restored.events_of("trainer/n=8", "fit")[0];
        for (name, text) in [("best_loss", "inf"), ("low", "-inf"), ("val_mse", "NaN")] {
            assert_eq!(
                fit.field(name),
                Some(&FieldValue::Text { value: text.into() }),
                "{name}"
            );
        }
        assert_eq!(fit.num("train_mse"), Some(0.25));
    }
}
