//! Wall-time attribution over the benchmark's own span trace.
//!
//! `ld_metrics::SpanProfile` folds spans into busy time per call path (the
//! table in a traced run's notes). Layer shares are computed here instead,
//! from span *intervals*: every instant of a traced pass is charged to one
//! layer, so the shares of a pass add up to its wall time, however the
//! spans nest.

use ld_metrics::SpanProfile;
use ld_telemetry::TraceSnapshot;

/// `[start, end)` in nanoseconds since the tracer's epoch.
pub type Interval = (u64, u64);

/// Intervals of every span whose last path segment is named `name`.
pub fn named(trace: &TraceSnapshot, name: &str) -> Vec<Interval> {
    trace
        .spans
        .iter()
        .filter(|s| s.path.last().is_some_and(|seg| seg.name == name))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect()
}

/// Intervals of every span whose last segment name starts with `prefix`.
pub fn prefixed(trace: &TraceSnapshot, prefix: &str) -> Vec<Interval> {
    trace
        .spans
        .iter()
        .filter(|s| {
            s.path
                .last()
                .is_some_and(|seg| seg.name.starts_with(prefix))
        })
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect()
}

/// Intervals of the root spans.
pub fn roots(trace: &TraceSnapshot) -> Vec<Interval> {
    trace
        .spans
        .iter()
        .filter(|s| s.path.len() == 1)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect()
}

/// Wall time covered by at least one interval.
pub fn union_ns(intervals: &[Interval]) -> u64 {
    attribute(&[intervals.to_vec()])[0]
}

/// Exclusive wall-time attribution: every instant covered by some interval
/// is charged to the first category (in slice order) that covers it, so
/// the results never overlap and sum to the union of all intervals.
pub fn attribute(categories: &[Vec<Interval>]) -> Vec<u64> {
    // (time, category, +1 open / -1 close), closes before opens at a tie.
    let mut events: Vec<(u64, i8, usize)> = Vec::new();
    for (c, intervals) in categories.iter().enumerate() {
        for &(start, end) in intervals {
            if end > start {
                events.push((start, 1, c));
                events.push((end, -1, c));
            }
        }
    }
    events.sort_unstable();
    let mut open = vec![0i64; categories.len()];
    let mut charged = vec![0u64; categories.len()];
    let mut last = 0u64;
    for (t, delta, c) in events {
        if let Some(owner) = open.iter().position(|&n| n > 0) {
            charged[owner] += t - last;
        }
        open[c] += i64::from(delta);
        last = t;
    }
    charged
}

/// `part` as a percentage of `whole` nanoseconds.
pub fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// Reports what every traced pass reports: its wall time, how much of it
/// the root spans cover (at least 95% must be), the uncovered remainder,
/// and the tracing overhead against the untraced pass that did the same
/// work in `reference_ns`. Also adds the hottest rows of the folded
/// profile to the run's notes.
pub fn summarize(out: &mut crate::Outcome, trace: &TraceSnapshot, wall_ns: u64, reference_ns: u64) {
    let covered = union_ns(&roots(trace)).min(wall_ns);
    let covered_pct = pct(covered, wall_ns);
    out.set("trace.wall_s", wall_ns as f64 / 1e9);
    out.set("trace.covered_pct", covered_pct);
    out.set("trace.untraced_pct", 100.0 - covered_pct);
    out.set(
        "trace.overhead_pct",
        100.0 * (wall_ns as f64 / reference_ns.max(1) as f64 - 1.0),
    );
    out.check(
        "spans-reconcile",
        covered_pct >= 95.0,
        format!("spans cover {covered_pct:.2}% of the traced pass (need 95%)"),
    );
    out.notes.push(format!(
        "traced pass {:.3} s vs untraced {:.3} s for the same work",
        wall_ns as f64 / 1e9,
        reference_ns as f64 / 1e9
    ));
    out.notes
        .push("hottest span paths by self time (busy time, all threads):".into());
    out.notes.extend(
        SpanProfile::from_trace(trace)
            .render(12)
            .lines()
            .map(str::to_string),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_charges_overlaps_to_the_first_category() {
        let got = attribute(&[vec![(10, 20)], vec![(0, 30), (40, 50)]]);
        assert_eq!(got, vec![10, 30]);
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&[]), 0);
    }
}
