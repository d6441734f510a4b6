//! Hierarchical span tracing for the LoadDynamics hot loops.
//!
//! A [`Tracer`] is a cheap-to-clone handle carrying a logical *scope path*
//! (`search / iter#3 / evaluate / epoch#7 / batch#2`). Opening a span
//! extends the path and times the enclosed region with an RAII
//! [`SpanGuard`]; the guard exposes a child [`Tracer`] so nested stages
//! attach below their parent no matter which rayon worker executes them.
//! Every handle derived from one root shares that root's registry, which
//! also holds the run's counters, gauges, histograms and events (see the
//! crate docs).
//!
//! A default handle is *disabled*: every method is a no-op that neither
//! locks, allocates, nor reads the clock, so instrumented code paths cost
//! one branch.
//!
//! # Determinism
//!
//! Span identity is purely logical: the path of `(name, index)` segments is
//! supplied by the instrumented code (epoch numbers, BO iteration numbers,
//! member names), never derived from thread identity or arrival order.
//! [`Tracer::snapshot`] sorts by path, so two runs that perform the same
//! logical work yield identically-ordered span trees even under different
//! rayon schedules. Wall-clock fields (`start_ns`, `dur_ns`) and the thread
//! ordinal `tid` naturally vary run to run and are excluded from the
//! logical ordering; [`TraceSnapshot::logical_paths`] is the run-invariant
//! projection tests compare.
//!
//! # Exporters
//!
//! - [`TraceSnapshot::to_chrome_trace`] — Chrome trace-event JSON, loadable
//!   in Perfetto / `chrome://tracing`.
//! - [`TraceSnapshot::to_folded`] — folded-stack lines
//!   (`search;iter#0;surrogate_fit 1234`) for `flamegraph.pl` / inferno.
//! - [`Tracer::events`] — the counters, gauges, histograms and events as a
//!   [`Snapshot`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{lock, CounterRecord, EventBuilder, EventRecord, GaugeRecord, Histogram, Snapshot};

/// Shared storage behind an enabled [`Tracer`].
struct TraceRegistry {
    /// Time origin; all span timestamps are nanoseconds since this instant.
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    /// Registration-order thread ids: position in this vec is the `tid`
    /// stamped on spans recorded by that thread.
    threads: Mutex<Vec<std::thread::ThreadId>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// Last value and peak per gauge.
    gauges: Mutex<BTreeMap<String, (u64, u64)>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<Vec<EventRecord>>,
}

impl TraceRegistry {
    fn new() -> Self {
        TraceRegistry {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recording thread's registration ordinal (first-seen order, so it
    /// varies run to run under rayon; excluded from logical ordering).
    fn tid(&self) -> u64 {
        let me = std::thread::current().id();
        let mut threads = lock(&self.threads);
        match threads.iter().position(|t| *t == me) {
            Some(i) => i as u64,
            None => {
                threads.push(me);
                (threads.len() - 1) as u64
            }
        }
    }

    fn push(&self, record: SpanRecord) {
        lock(&self.spans).push(record);
    }
}

/// One `(name, index)` segment of a span's scope path.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Seg {
    /// Stage name, e.g. `"iter"` or `"epoch"`. Must not contain `;` or `/`
    /// (the exporter separators); [`Tracer`] sanitizes on entry.
    pub name: String,
    /// Position among logical siblings: epoch number, BO iteration, member
    /// ordinal. `0` for singleton stages.
    pub index: u64,
}

impl Seg {
    fn logical_cmp(a: &Seg, b: &Seg) -> std::cmp::Ordering {
        a.name.cmp(&b.name).then_with(|| a.index.cmp(&b.index))
    }

    /// Renders as `name` (index 0) or `name#index`.
    pub fn display(&self) -> String {
        if self.index == 0 {
            self.name.clone()
        } else {
            format!("{}#{}", self.name, self.index)
        }
    }
}

/// One closed span: a scope path plus its measured interval.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Scope path from the root down to this span.
    pub path: Vec<Seg>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's registration ordinal (not part of span identity).
    pub tid: u64,
}

impl SpanRecord {
    /// Total order on logical identity (the path), with wall-clock fields
    /// only as tiebreakers among identical paths.
    fn logical_cmp(a: &SpanRecord, b: &SpanRecord) -> std::cmp::Ordering {
        let mut it = a.path.iter().zip(&b.path);
        let by_path = loop {
            match it.next() {
                Some((sa, sb)) => {
                    let c = Seg::logical_cmp(sa, sb);
                    if c != std::cmp::Ordering::Equal {
                        break c;
                    }
                }
                None => break a.path.len().cmp(&b.path.len()),
            }
        };
        by_path
            .then_with(|| a.start_ns.cmp(&b.start_ns))
            .then_with(|| a.dur_ns.cmp(&b.dur_ns))
    }

    /// The path rendered as `seg/seg#i/seg`.
    pub fn path_string(&self) -> String {
        let parts: Vec<String> = self.path.iter().map(Seg::display).collect();
        parts.join("/")
    }

    /// The leaf segment's display name.
    pub fn leaf(&self) -> String {
        self.path.last().map(Seg::display).unwrap_or_default()
    }
}

/// A cheap-to-clone hierarchical tracing handle scoped to one point in the
/// span tree. Disabled by default; see the module docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceRegistry>>,
    /// Logical scope path of this handle. Always empty when disabled.
    path: Vec<Seg>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.inner.is_some() {
            write!(f, "Tracer(enabled, depth={})", self.path.len())
        } else {
            f.write_str("Tracer(disabled)")
        }
    }
}

/// The entry for `name`, inserted at its default on first use; allocates the
/// key only then.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Strips the exporter separator characters from a span name.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c == ';' || c == '/' { '_' } else { c }).collect()
}

impl Tracer {
    /// A live root handle: spans accumulate in shared storage.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(TraceRegistry::new())),
            path: Vec::new(),
        }
    }

    /// The default no-op handle.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this tracer's epoch (0 when disabled).
    fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |reg| reg.elapsed_ns())
    }

    /// A handle one level deeper, without opening a timed span. Useful when
    /// the parent interval is measured elsewhere (or not at all) but
    /// children should still nest under the logical stage.
    pub fn scoped(&self, name: &str, index: u64) -> Tracer {
        let Some(_) = &self.inner else {
            return Tracer::disabled();
        };
        let mut path = self.path.clone();
        path.push(Seg {
            name: sanitize(name),
            index,
        });
        Tracer {
            inner: self.inner.clone(),
            path,
        }
    }

    /// Opens a timed span named `name` at sibling position 0. The span
    /// closes (and is recorded) when the returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_at(name, 0)
    }

    /// Opens a timed span at an explicit sibling `index` (epoch number, BO
    /// iteration, member ordinal). Indices — not arrival order — define the
    /// deterministic span-tree ordering.
    pub fn span_at(&self, name: &str, index: u64) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard { inner: None };
        }
        let tracer = self.scoped(name, index);
        let start_ns = tracer.now_ns();
        SpanGuard {
            inner: Some((tracer, start_ns)),
        }
    }

    /// Records a leaf span under the current scope whose interval ended
    /// `ago_ns` nanoseconds before now and lasted `dur_ns`, for a region
    /// timed without a guard (fixed-duration test fixtures, for one).
    pub fn record_span(&self, name: &str, index: u64, dur_ns: u64, ago_ns: u64) {
        let Some(reg) = &self.inner else { return };
        let end_ns = reg.elapsed_ns().saturating_sub(ago_ns);
        let tracer = self.scoped(name, index);
        reg.push(SpanRecord {
            path: tracer.path,
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
            tid: reg.tid(),
        });
    }

    /// A deterministic snapshot of every span closed so far, ordered by
    /// logical path.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(reg) = &self.inner else {
            return TraceSnapshot::default();
        };
        let mut spans: Vec<SpanRecord> = lock(&reg.spans).clone();
        spans.sort_by(SpanRecord::logical_cmp);
        TraceSnapshot { spans }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        let Some(reg) = &self.inner else { return };
        *slot(&mut lock(&reg.counters), name) += n;
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge to `value`, keeping the peak value ever set.
    pub fn gauge(&self, name: &str, value: u64) {
        let Some(reg) = &self.inner else { return };
        let mut gauges = lock(&reg.gauges);
        let (last, peak) = slot(&mut gauges, name);
        *last = value;
        *peak = (*peak).max(value);
    }

    /// Records one observation into the named log-linear histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(reg) = &self.inner else { return };
        slot(&mut lock(&reg.histograms), name).record(value);
    }

    /// Records a structured event. `scope`/`kind`/`index` are the logical
    /// sort key, independent of this handle's span path; the closure
    /// populates fields and only runs when enabled.
    pub fn record_with(
        &self,
        scope: &str,
        kind: &str,
        index: u64,
        build: impl FnOnce(&mut EventBuilder),
    ) {
        let Some(reg) = &self.inner else { return };
        let mut builder = EventBuilder { fields: Vec::new() };
        build(&mut builder);
        lock(&reg.events).push(EventRecord {
            scope: scope.to_string(),
            kind: kind.to_string(),
            index,
            fields: builder.fields,
        });
    }

    /// A deterministic snapshot of the counters, gauges, histograms and
    /// events recorded so far through any handle sharing this registry:
    /// series sorted by name, events by (scope, kind, index, fields).
    pub fn events(&self) -> Snapshot {
        let Some(reg) = &self.inner else {
            return Snapshot::default();
        };
        let counters = lock(&reg.counters)
            .iter()
            .map(|(name, &value)| CounterRecord {
                name: name.clone(),
                value,
            })
            .collect();
        let gauges = lock(&reg.gauges)
            .iter()
            .map(|(name, &(value, peak))| GaugeRecord {
                name: name.clone(),
                value,
                peak,
            })
            .collect();
        let histograms = lock(&reg.histograms)
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let mut events: Vec<EventRecord> = lock(&reg.events).clone();
        events.sort_by(EventRecord::logical_cmp);
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
        }
    }
}

/// RAII guard for an open span; records the span when dropped. Inert (no
/// allocation, no clock reads) when obtained from a disabled [`Tracer`].
#[must_use = "a span guard records its lifetime; dropping it immediately closes the span"]
pub struct SpanGuard {
    inner: Option<(Tracer, u64)>,
}

impl SpanGuard {
    /// A tracer scoped inside this span, for opening child spans. Disabled
    /// when the guard is inert.
    pub fn tracer(&self) -> Tracer {
        self.inner
            .as_ref()
            .map_or_else(Tracer::disabled, |(t, _)| t.clone())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, start_ns)) = self.inner.take() {
            let reg = tracer.inner.as_ref().expect("guard tracer is enabled");
            let end_ns = reg.elapsed_ns();
            reg.push(SpanRecord {
                path: tracer.path.clone(),
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                tid: reg.tid(),
            });
        }
    }
}

/// An immutable, deterministically-ordered dump of a [`Tracer`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSnapshot {
    /// All closed spans, sorted by logical path.
    pub spans: Vec<SpanRecord>,
}

impl TraceSnapshot {
    /// Parses a snapshot previously produced by [`TraceSnapshot::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Pretty-printed JSON of the raw snapshot (round-trips via
    /// [`TraceSnapshot::from_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization")
    }

    /// The run-invariant projection: every span's path string, in snapshot
    /// order. Two identically-seeded runs must produce equal vectors.
    pub fn logical_paths(&self) -> Vec<String> {
        self.spans.iter().map(SpanRecord::path_string).collect()
    }

    /// Spans whose path string starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.path_string().starts_with(prefix))
            .collect()
    }

    /// Number of root spans (path length 1).
    pub fn root_count(&self) -> usize {
        self.spans.iter().filter(|s| s.path.len() == 1).count()
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` wrapper with
    /// complete `ph:"X"` events), loadable in Perfetto / `chrome://tracing`.
    /// Timestamps are microseconds since the tracer epoch.
    pub fn to_chrome_trace(&self) -> String {
        let trace = ChromeTrace {
            displayTimeUnit: "ms".to_string(),
            traceEvents: self
                .spans
                .iter()
                .map(|s| ChromeEvent {
                    name: s.leaf(),
                    cat: "ld-trace".to_string(),
                    ph: "X".to_string(),
                    ts: s.start_ns as f64 / 1e3,
                    dur: s.dur_ns as f64 / 1e3,
                    pid: 1,
                    tid: s.tid,
                    args: ChromeArgs {
                        path: s.path_string(),
                        depth: s.path.len() as u64,
                    },
                })
                .collect(),
        };
        serde_json::to_string_pretty(&trace).expect("chrome trace serialization")
    }

    /// Folded-stack flamegraph text: one `seg;seg;seg <self-µs>` line per
    /// unique path, self time = own duration minus direct children, clamped
    /// at zero. Lines are sorted by stack string; pipe into `flamegraph.pl`
    /// or inferno to render.
    pub fn to_folded(&self) -> String {
        use std::collections::BTreeMap;
        // Aggregate total duration per unique path (joined with ';').
        let mut totals: BTreeMap<Vec<String>, u64> = BTreeMap::new();
        for s in &self.spans {
            let key: Vec<String> = s.path.iter().map(Seg::display).collect();
            *totals.entry(key).or_insert(0) += s.dur_ns;
        }
        // Self time = total minus the sum of direct children's totals.
        let mut out = String::new();
        for (path, &total) in &totals {
            let children: u64 = totals
                .iter()
                .filter(|(p, _)| p.len() == path.len() + 1 && p[..path.len()] == path[..])
                .map(|(_, &d)| d)
                .sum();
            let self_us = total.saturating_sub(children) / 1_000;
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        out
    }
}

/// The Chrome trace-event document [`TraceSnapshot::to_chrome_trace`]
/// writes; its keys are the format's own.
#[derive(serde::Serialize, serde::Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<ChromeEvent>,
}

/// One span as a complete event: its leaf name, its interval in
/// microseconds, and its whole path as the `args.path` breadcrumb.
#[derive(serde::Serialize, serde::Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: ChromeArgs,
}

/// An event's `args`: the span's whole path and its depth.
#[derive(serde::Serialize, serde::Deserialize)]
struct ChromeArgs {
    path: String,
    depth: u64,
}

/// Validates Chrome trace-event JSON as produced by
/// [`TraceSnapshot::to_chrome_trace`]: a non-empty `traceEvents` array of
/// complete (`ph:"X"`) events with non-negative `ts` and `dur` and a
/// non-empty `args.path` breadcrumb. Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let trace: ChromeTrace =
        serde_json::from_str(json).map_err(|e| format!("not a Chrome trace: {e}"))?;
    if trace.traceEvents.is_empty() {
        return Err("traceEvents is empty".into());
    }
    for (i, event) in trace.traceEvents.iter().enumerate() {
        if event.ph != "X" {
            return Err(format!("event {i} is not a complete (ph=X) event"));
        }
        for (key, v) in [("ts", event.ts), ("dur", event.dur)] {
            if v.is_nan() || v < 0.0 {
                return Err(format!("event {i} has a non-numeric or negative `{key}`"));
            }
        }
        if event.args.path.is_empty() {
            return Err(format!("event {i} missing args.path breadcrumb"));
        }
    }
    Ok(trace.traceEvents.len())
}

/// Validates folded-stack flamegraph text as produced by
/// [`TraceSnapshot::to_folded`]: every non-empty line is
/// `seg[;seg...] <microseconds>`. Returns the line count.
pub fn validate_folded(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some((stack, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {i} has no value column: {line:?}"));
        };
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {i} has an empty stack segment: {line:?}"));
        }
        if value.parse::<u64>().is_err() {
            return Err(format!("line {i} value is not a non-negative integer: {line:?}"));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("no stack lines".into());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let guard = tr.span_at("work", 3);
        assert!(!guard.tracer().is_enabled());
        assert!(guard.tracer().path.is_empty(), "no path alloc when off");
        drop(guard);
        tr.record_span("synthetic", 0, 10, 0);
        assert_eq!(tr.snapshot(), TraceSnapshot::default());
        assert!(tr.scoped("x", 1).path.is_empty());
        tr.add("c", 5);
        tr.gauge("g", 5);
        tr.observe("h", 5);
        let mut built = false;
        tr.record_with("s", "k", 0, |_| built = true);
        assert!(!built, "field builder must not run when disabled");
        assert_eq!(tr.events(), Snapshot::default());
    }

    #[test]
    fn counters_aggregate_across_scoped_handles() {
        let tr = Tracer::enabled();
        tr.incr("epochs");
        let guard = tr.span("fit");
        guard.tracer().add("epochs", 3);
        guard.tracer().scoped("inner", 1).incr("shared");
        drop(guard);
        let snap = tr.events();
        assert_eq!(snap.counter("epochs"), 4);
        assert_eq!(snap.counter("shared"), 1);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn concurrent_events_yield_a_stable_sorted_snapshot() {
        // Record the same logical events from many threads in scrambled
        // per-thread orders; the snapshot must come out identical each time.
        let record_all = || {
            let tr = Tracer::enabled();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let tr = tr.clone();
                    s.spawn(move || {
                        for i in 0..25u64 {
                            let idx = (i * 7 + t * 13) % 25;
                            tr.record_with(&format!("scope{}", idx % 3), "step", idx, |e| {
                                e.int("thread_sum", 6).num("x", idx as f64);
                            });
                            tr.incr("total");
                            tr.observe("idx", idx);
                        }
                    });
                }
            });
            tr.events()
        };
        let a = record_all();
        let b = record_all();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counter("total"), 100);
        assert_eq!(a.histogram("idx").expect("histogram").count, 100);
        for w in a.events.windows(2) {
            assert_ne!(
                EventRecord::logical_cmp(&w[0], &w[1]),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn spans_nest_and_sort_logically() {
        let tr = Tracer::enabled();
        {
            let root = tr.span("search");
            let inner = root.tracer();
            // Record iterations out of order; snapshot must sort by index.
            for i in [2u64, 0, 1] {
                let it = inner.span_at("iter", i);
                it.tracer().record_span("fit", 0, 50, 0);
            }
        }
        let snap = tr.snapshot();
        assert_eq!(
            snap.logical_paths(),
            vec![
                "search",
                "search/iter",
                "search/iter/fit",
                "search/iter#1",
                "search/iter#1/fit",
                "search/iter#2",
                "search/iter#2/fit",
            ]
        );
        assert_eq!(snap.root_count(), 1);
        assert_eq!(snap.spans_with_prefix("search/iter#2").len(), 2);
    }

    #[test]
    fn concurrent_recording_yields_identical_logical_order() {
        let run = || {
            let tr = Tracer::enabled();
            let root = tr.span("root");
            let scope = root.tracer();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let scope = scope.clone();
                    s.spawn(move || {
                        for i in 0..10u64 {
                            let idx = (i * 7 + t * 13) % 10;
                            let g = scope.span_at(&format!("task{t}"), idx);
                            g.tracer().record_span("leaf", 0, 5, 0);
                        }
                    });
                }
            });
            drop(root);
            tr.snapshot().logical_paths()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let tr = Tracer::enabled();
        {
            let g = tr.span_at("stage", 4);
            g.tracer().record_span("leaf", 1, 123, 0);
        }
        let snap = tr.snapshot();
        let restored = TraceSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, restored);
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let tr = Tracer::enabled();
        {
            let g = tr.span("outer");
            drop(g.tracer().span_at("inner", 2));
        }
        let text = tr.snapshot().to_chrome_trace();
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev["ph"].as_str(), Some("X"));
            assert_eq!(ev["cat"].as_str(), Some("ld-trace"));
            assert!(ev["ts"].as_f64().is_some());
            assert!(ev["dur"].as_f64().is_some());
            assert!(ev["name"].as_str().is_some());
            assert!(ev["args"]["path"].as_str().is_some());
        }
        assert_eq!(events[1]["name"].as_str(), Some("inner#2"));
        assert_eq!(events[1]["args"]["path"].as_str(), Some("outer/inner#2"));
    }

    /// What the hand-built writer this exporter replaced wrote for a
    /// `search/iter#3` span of 987 ns that started 1,234,567 ns in.
    const CHROME_TEXT: &str = r#"{
  "displayTimeUnit": "ms",
  "traceEvents": [
    {
      "name": "iter#3",
      "cat": "ld-trace",
      "ph": "X",
      "ts": 1234.567,
      "dur": 0.987,
      "pid": 1,
      "tid": 1,
      "args": {
        "path": "search/iter#3",
        "depth": 2
      }
    }
  ]
}"#;

    #[test]
    fn chrome_trace_serializes_as_before_and_validates() {
        let seg = |name: &str, index| Seg {
            name: name.into(),
            index,
        };
        let snap = TraceSnapshot {
            spans: vec![SpanRecord {
                path: vec![seg("search", 0), seg("iter", 3)],
                start_ns: 1_234_567,
                dur_ns: 987,
                tid: 1,
            }],
        };
        let text = snap.to_chrome_trace();
        assert_eq!(text, CHROME_TEXT);
        assert_eq!(validate_chrome_trace(&text), Ok(1));
        let doc = serde_json::from_str(&text).expect("a valid trace");
        let broken = crate::document::rejects_broken_keys(&doc, validate_chrome_trace);
        assert_eq!(broken, Ok(17));
    }

    #[test]
    fn folded_output_subtracts_direct_children() {
        let snap = TraceSnapshot {
            spans: vec![
                SpanRecord {
                    path: vec![Seg {
                        name: "a".into(),
                        index: 0,
                    }],
                    start_ns: 0,
                    dur_ns: 10_000,
                    tid: 0,
                },
                SpanRecord {
                    path: vec![
                        Seg {
                            name: "a".into(),
                            index: 0,
                        },
                        Seg {
                            name: "b".into(),
                            index: 1,
                        },
                    ],
                    start_ns: 1_000,
                    dur_ns: 4_000,
                    tid: 0,
                },
            ],
        };
        let folded = snap.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["a 6", "a;b#1 4"]);
    }

    #[test]
    fn span_names_are_sanitized() {
        let tr = Tracer::enabled();
        drop(tr.span("a/b;c"));
        let snap = tr.snapshot();
        assert_eq!(snap.logical_paths(), vec!["a_b_c"]);
    }
}
