//! Span profiler: folds a [`TraceSnapshot`] into a time-weighted
//! self-time profile.
//!
//! Where `to_folded` keeps every `(name, index)` instance separate (the
//! flamegraph view), the profiler strips the sibling indices so all
//! `batch#0`, `batch#1`, … spans aggregate into one `tick/batch` row —
//! the "where do ticks actually go" view. Self time is a span's duration
//! minus its direct children's durations, so the rows sum to total
//! traced time and hot leaves surface regardless of nesting depth.

use ld_api::stats::count_to_f64;
use ld_telemetry::TraceSnapshot;
use std::collections::BTreeMap;

/// One aggregated call-path row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Index-stripped path, segments joined with `/` (e.g. `tick/batch`).
    pub path: String,
    /// Number of spans folded into this row.
    pub calls: u64,
    /// Total wall time of those spans, ns.
    pub total_ns: u64,
    /// Total minus direct children's time, ns.
    pub self_ns: u64,
}

/// Self-time profile over an entire trace, hottest rows first.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    entries: Vec<ProfileEntry>,
}

impl SpanProfile {
    /// Aggregates a snapshot. Deterministic: aggregation is keyed on the
    /// logical path, ordering on `(self_ns desc, path asc)` — equal
    /// span trees with equal durations profile identically.
    #[must_use]
    pub fn from_trace(trace: &TraceSnapshot) -> Self {
        // (calls, total_ns) per index-stripped path.
        let mut agg: BTreeMap<Vec<&str>, (u64, u64)> = BTreeMap::new();
        for span in &trace.spans {
            let key: Vec<&str> = span.path.iter().map(|seg| seg.name.as_str()).collect();
            let e = agg.entry(key).or_insert((0, 0));
            e.0 = e.0.saturating_add(1);
            e.1 = e.1.saturating_add(span.dur_ns);
        }
        // Subtract each path's total from its parent to get self time.
        let mut child_ns: BTreeMap<Vec<&str>, u64> = BTreeMap::new();
        for (path, &(_, total)) in &agg {
            if path.len() > 1 {
                let parent = path[..path.len() - 1].to_vec();
                let c = child_ns.entry(parent).or_insert(0);
                *c = c.saturating_add(total);
            }
        }
        let mut entries: Vec<ProfileEntry> = agg
            .iter()
            .map(|(path, &(calls, total_ns))| ProfileEntry {
                path: path.join("/"),
                calls,
                total_ns,
                self_ns: total_ns.saturating_sub(child_ns.get(path).copied().unwrap_or(0)),
            })
            .collect();
        entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        Self { entries }
    }

    #[must_use]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// The `n` hottest rows by self time.
    #[must_use]
    pub fn top(&self, n: usize) -> &[ProfileEntry] {
        &self.entries[..n.min(self.entries.len())]
    }

    /// Sum of self times — equals the sum of root span durations.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.entries
            .iter()
            .fold(0, |a, e| a.saturating_add(e.self_ns))
    }

    /// Fixed-width table of the top `n` rows for terminal reports.
    #[must_use]
    pub fn render(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let total = self.total_self_ns().max(1);
        let mut out = String::from("  self%     self ms    total ms      calls  path\n");
        for e in self.top(n) {
            let pct = 100.0 * count_to_f64(e.self_ns) / count_to_f64(total);
            let _ = writeln!(
                out,
                "  {pct:>5.1}  {:>10.3}  {:>10.3}  {:>9}  {}",
                count_to_f64(e.self_ns) / 1e6,
                count_to_f64(e.total_ns) / 1e6,
                e.calls,
                e.path
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_telemetry::Tracer;

    /// Two ticks, each with indexed batches (indices must fold away), all
    /// with fixed durations so every profile of it is the same: ticks of
    /// 100 ns, batches of 25 ns, requests of 10 ns.
    fn traced() -> TraceSnapshot {
        let tracer = Tracer::enabled();
        for tick in 0..2 {
            tracer.record_span("tick", tick, 100, 0);
            let tick_tracer = tracer.scoped("tick", tick);
            for batch in 0..3 {
                tick_tracer.record_span("batch", batch, 25, 0);
                tick_tracer
                    .scoped("batch", batch)
                    .record_span("request", batch, 10, 0);
            }
        }
        tracer.snapshot()
    }

    #[test]
    fn indices_fold_into_one_row_per_path() {
        let profile = SpanProfile::from_trace(&traced());
        let paths: Vec<&str> = profile.entries().iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"tick"));
        assert!(paths.contains(&"tick/batch"));
        assert!(paths.contains(&"tick/batch/request"));
        assert_eq!(paths.len(), 3, "unexpected rows: {paths:?}");
        let batch = profile
            .entries()
            .iter()
            .find(|e| e.path == "tick/batch")
            .expect("batch row");
        assert_eq!(batch.calls, 6);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let profile = SpanProfile::from_trace(&traced());
        for e in profile.entries() {
            assert!(e.self_ns <= e.total_ns, "self > total on {}", e.path);
        }
        let roots: u64 = profile
            .entries()
            .iter()
            .filter(|e| !e.path.contains('/'))
            .map(|e| e.total_ns)
            .sum();
        assert_eq!(profile.total_self_ns(), roots);
    }

    #[test]
    fn profile_of_equal_logical_trees_is_stable() {
        let a = SpanProfile::from_trace(&traced());
        let b = SpanProfile::from_trace(&traced());
        assert_eq!(a.entries(), b.entries());
        // Hottest self time first: batches 6 x 25 - 60, requests 6 x 10,
        // ticks 2 x 100 - 150.
        let rows: Vec<(&str, u64)> = a
            .entries()
            .iter()
            .map(|e| (e.path.as_str(), e.self_ns))
            .collect();
        assert_eq!(
            rows,
            [("tick/batch", 90), ("tick/batch/request", 60), ("tick", 50)]
        );
        assert_eq!(a.top(2).len(), 2);
        assert_eq!(a.top(99).len(), 3);
    }

    #[test]
    fn render_emits_one_line_per_row() {
        let profile = SpanProfile::from_trace(&traced());
        let table = profile.render(10);
        assert_eq!(table.lines().count(), 4); // header + 3 rows
        assert!(table.contains("tick/batch/request"));
    }

    #[test]
    fn empty_trace_is_inert() {
        let profile = SpanProfile::from_trace(&TraceSnapshot { spans: Vec::new() });
        assert!(profile.entries().is_empty());
        assert_eq!(profile.total_self_ns(), 0);
        assert_eq!(profile.render(5).lines().count(), 1);
    }
}
