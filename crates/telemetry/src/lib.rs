//! One instrumentation handle for LoadDynamics: the search and training
//! hot loops and the serving engine report through the same [`Tracer`].
//!
//! The framework's cost is concentrated in two nested loops — the Bayesian
//! search over hyperparameters and, inside each candidate evaluation, the
//! mini-batch training loop — and a serving fleet adds a third, the engine
//! tick. A [`Tracer`] observes all of them without changing their behavior,
//! recording five things into one shared registry:
//!
//! - **Spans** — timed regions of the search/training hierarchy
//!   (`search / iter#3 / evaluate / train / epoch#7`) or of a serving tick,
//!   the only source of wall-clock attribution; see [`trace`].
//! - **Counters** — monotone totals ("epochs run", "responses served"),
//!   via [`Tracer::add`] / [`Tracer::incr`].
//! - **Gauges** — last value plus peak ("queue depth"), via
//!   [`Tracer::gauge`].
//! - **Histograms** — log-linear distributions ("batch size", "request
//!   latency in ticks"), via [`Tracer::observe`]; see [`histogram`].
//! - **Events** — structured per-epoch / per-trial / per-transition
//!   records with a small set of typed fields, via [`Tracer::record_with`].
//!
//! A default handle is *disabled*: every method returns immediately without
//! locking, allocating or reading the clock, so instrumented code paths
//! cost one branch. An enabled handle is an `Arc` around the registry,
//! cheap to clone into rayon closures.
//!
//! # Determinism
//!
//! Counters, gauges, histograms and events carry no wall-clock values:
//! every value is a count or a logical quantity supplied by the caller.
//! Events are keyed by a *logical* scope string (e.g.
//! `"trainer/n=8 c=4 l=1 b=32"`), a kind, and an index (epoch, iteration
//! or tick number), and [`Tracer::events`] orders by those keys plus the
//! field contents, never by arrival order; the other series are sorted by
//! name, and a histogram's buckets depend only on the values recorded.
//! Two runs that perform the same logical work therefore produce
//! byte-identical snapshots even when worker threads interleave
//! differently.
//!
//! # JSON schema
//!
//! [`Snapshot`] serializes to
//! `{"counters": [...], "gauges": [...], "histograms": [...], "events": [...]}`
//! — the `<trace>.events.json` artifact written beside a Chrome trace; see
//! the README for the full schema. It also deserializes, and
//! [`validate_events`] schema-checks a written file. [`artifacts`] names
//! and writes a traced run's files.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod artifacts;
pub mod document;
pub mod histogram;
pub mod manifest;
pub mod trace;

pub use artifacts::{write_trace_artifacts, Artifact};
pub use document::{parse_versioned, HexDigest};
pub use histogram::{Histogram, HistogramBucket, HistogramSnapshot};
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

/// One named gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GaugeRecord {
    /// Gauge name.
    pub name: String,
    /// Last value set.
    pub value: u64,
    /// Largest value ever set.
    pub peak: u64,
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

/// An immutable, deterministically-ordered dump of a [`Tracer`]'s counters,
/// gauges, histograms and events (see [`Tracer::events`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterRecord>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeRecord>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
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

    /// The named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<&GaugeRecord> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The named histogram, if anything was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All events with the given scope and kind, in index order.
    pub fn events_of(&self, scope: &str, kind: &str) -> Vec<&EventRecord> {
        self.events
            .iter()
            .filter(|e| e.scope == scope && e.kind == kind)
            .collect()
    }
}

/// Validates an events file as produced by [`Snapshot::to_json`]:
/// `counters`, `gauges` and `histograms` arrays with unique non-empty
/// names in sorted order, every gauge's peak at least its value, every
/// histogram's buckets disjoint, ascending and summing to its count, and an
/// `events` array of typed records with non-empty scopes and kinds, sorted
/// by `(scope, kind, index)`. Returns the event count.
pub fn validate_events(json: &str) -> Result<usize, String> {
    let snapshot = Snapshot::from_json(json).map_err(|e| format!("not an events snapshot: {e}"))?;
    check_names("counter", snapshot.counters.iter().map(|c| c.name.as_str()))?;
    check_names("gauge", snapshot.gauges.iter().map(|g| g.name.as_str()))?;
    check_names(
        "histogram",
        snapshot.histograms.iter().map(|h| h.name.as_str()),
    )?;
    if let Some(g) = snapshot.gauges.iter().find(|g| g.peak < g.value) {
        return Err(format!(
            "gauge `{}` peak {} < value {}",
            g.name, g.peak, g.value
        ));
    }
    snapshot
        .histograms
        .iter()
        .try_for_each(validate_histogram)?;
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

/// Checks that one section's names are non-empty, unique and ascending.
fn check_names<'a>(what: &str, names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut last: Option<&str> = None;
    for name in names {
        if name.is_empty() {
            return Err(format!("{what} with an empty name"));
        }
        if last.is_some_and(|prev| prev >= name) {
            return Err(format!("{what} `{name}` is duplicated or out of order"));
        }
        last = Some(name);
    }
    Ok(())
}

/// Checks one histogram's internal consistency: `min <= max` when
/// non-empty, monotone quantiles, non-empty disjoint ascending buckets,
/// and bucket counts that sum to `count`.
fn validate_histogram(h: &HistogramSnapshot) -> Result<(), String> {
    let name = &h.name;
    if h.count > 0 && h.min > h.max {
        return Err(format!("histogram `{name}` min {} > max {}", h.min, h.max));
    }
    if !(h.p50 <= h.p95 && h.p95 <= h.p99) {
        return Err(format!(
            "histogram `{name}` quantiles not monotone: p50={} p95={} p99={}",
            h.p50, h.p95, h.p99
        ));
    }
    let mut total = 0u64;
    let mut last_hi: Option<u64> = None;
    for (i, b) in h.buckets.iter().enumerate() {
        if b.lo > b.hi {
            return Err(format!(
                "histogram `{name}` bucket {i} has lo {} > hi {}",
                b.lo, b.hi
            ));
        }
        if b.count == 0 {
            return Err(format!("histogram `{name}` bucket {i} is empty"));
        }
        if last_hi.is_some_and(|prev| prev >= b.lo) {
            return Err(format!(
                "histogram `{name}` bucket {i} overlaps its predecessor"
            ));
        }
        last_hi = Some(b.hi);
        total = total.saturating_add(b.count);
    }
    if total != h.count {
        return Err(format!(
            "histogram `{name}` bucket counts sum to {total}, count says {}",
            h.count
        ));
    }
    Ok(())
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

    #[test]
    fn gauges_and_histograms_roundtrip_and_validate() {
        let tr = Tracer::enabled();
        tr.gauge("queue.depth", 7);
        tr.gauge("queue.depth", 3);
        for v in [1u64, 2, 3, 10, 100, 1000, 1000, 65_000] {
            tr.observe("batch.size", v);
        }
        let snap = tr.events();
        let g = snap.gauge("queue.depth").expect("gauge recorded");
        assert_eq!((g.value, g.peak), (3, 7));
        let h = snap.histogram("batch.size").expect("histogram recorded");
        assert_eq!(h.count, 8);
        let json = snap.to_json();
        assert_eq!(validate_events(&json), Ok(0));
        assert_eq!(Snapshot::from_json(&json).unwrap(), snap);
        // A gauge below its peak, or buckets that disagree with the count,
        // are rejected.
        for (from, to) in [
            ("\"peak\": 7", "\"peak\": 2"),
            ("\"count\": 8", "\"count\": 9"),
        ] {
            assert!(json.contains(from), "{from}");
            assert!(validate_events(&json.replace(from, to)).is_err(), "{to}");
        }
        let unsorted = r#"{"counters": [], "gauges": [{"name": "b", "value": 1, "peak": 1},
            {"name": "a", "value": 1, "peak": 1}], "histograms": [], "events": []}"#;
        assert!(validate_events(unsorted).is_err());
        assert!(validate_events(r#"{"counters": [], "events": []}"#).is_err());
    }
}
