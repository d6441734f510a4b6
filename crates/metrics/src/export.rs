//! Prometheus text exposition of a tracer's [`Snapshot`], with a validator
//! in the `validate_chrome_trace` style — parse the emitted text back and
//! reject anything structurally off, so CI can gate the artifact.

use ld_telemetry::{HistogramSnapshot, Snapshot};

/// Maps a metric name onto the Prometheus name charset.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn push_histogram(out: &mut String, h: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let name = sanitize(&h.name);
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for b in &h.buckets {
        cumulative = cumulative.saturating_add(b.count);
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Prometheus text exposition (format 0.0.4) for a snapshot's counters,
/// gauges and histograms (events have no exposition form). Gauges emit a
/// `<name>_peak` sibling gauge; histograms emit cumulative `le` buckets
/// over the non-empty log-linear buckets plus the `+Inf` total.
#[must_use]
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = sanitize(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = sanitize(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
        let _ = writeln!(out, "# TYPE {name}_peak gauge");
        let _ = writeln!(out, "{name}_peak {}", g.peak);
    }
    for h in &snapshot.histograms {
        push_histogram(&mut out, h);
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates Prometheus text exposition as emitted by [`to_prometheus`].
/// Checks the line grammar, that every sample belongs to a declared
/// metric family of the right type, and that histogram bucket counts are
/// cumulative and agree with `_count`. Returns the sample-line count.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    use std::collections::BTreeMap;
    let mut families: BTreeMap<String, &str> = BTreeMap::new();
    let mut samples = 0usize;
    // Per-histogram running state: last cumulative bucket value, last le
    // bound, and the final +Inf value to reconcile with _count.
    let mut hist_last: BTreeMap<String, (u64, Option<u64>)> = BTreeMap::new();
    let mut hist_inf: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_count: BTreeMap<String, u64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE declaration"));
            };
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid family name `{name}`"));
            }
            if !["counter", "gauge", "histogram"].contains(&kind) {
                return Err(format!("line {n}: unknown metric type `{kind}`"));
            }
            if families.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: no value column"));
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {n}: value `{value}` is not a non-negative integer"))?;
        let (name, label) = match series.split_once('{') {
            Some((name, rest)) => {
                let label = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(label))
            }
            None => (series, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name `{name}`"));
        }
        // Resolve the declaring family: exact for counters/gauges, the
        // _bucket/_sum/_count-stripped base for histogram samples.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (families.get(base) == Some(&"histogram")).then_some((base, *suffix))
            });
        match family {
            Some((base, "_bucket")) => {
                let label = label.ok_or_else(|| format!("line {n}: bucket without le label"))?;
                let le = label
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: bucket label is not le=\"..\""))?;
                let state = hist_last.entry(base.to_string()).or_insert((0, None));
                if value < state.0 {
                    return Err(format!("line {n}: bucket counts not cumulative for `{base}`"));
                }
                if le == "+Inf" {
                    hist_inf.insert(base.to_string(), value);
                } else {
                    let bound: u64 = le
                        .parse()
                        .map_err(|_| format!("line {n}: le bound `{le}` is not an integer"))?;
                    if state.1.is_some_and(|prev| prev >= bound) {
                        return Err(format!("line {n}: le bounds not increasing for `{base}`"));
                    }
                    state.1 = Some(bound);
                }
                state.0 = value;
            }
            Some((base, "_count")) => {
                hist_count.insert(base.to_string(), value);
            }
            Some((_, _)) => {} // _sum: any non-negative integer is fine
            None => {
                let kind = families
                    .get(name)
                    .ok_or_else(|| format!("line {n}: sample for undeclared metric `{name}`"))?;
                if *kind == "histogram" {
                    return Err(format!(
                        "line {n}: bare sample for histogram family `{name}`"
                    ));
                }
                if label.is_some() {
                    return Err(format!("line {n}: unexpected labels on `{name}`"));
                }
            }
        }
        samples += 1;
    }
    for (base, kind) in &families {
        if kind == &"histogram" {
            let inf = hist_inf
                .get(base)
                .ok_or_else(|| format!("histogram `{base}` has no +Inf bucket"))?;
            let count = hist_count
                .get(base)
                .ok_or_else(|| format!("histogram `{base}` has no _count sample"))?;
            if inf != count {
                return Err(format!(
                    "histogram `{base}` +Inf bucket {inf} disagrees with _count {count}"
                ));
            }
        }
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use ld_telemetry::Tracer;

    use super::*;

    fn sample() -> Snapshot {
        let tr = Tracer::enabled();
        tr.add("serve.requests_total", 42);
        tr.incr("serve.shed_total");
        tr.gauge("serve.queue-depth", 7);
        tr.gauge("serve.queue-depth", 3);
        for v in [1u64, 2, 3, 10, 100, 1000, 1000, 65_000] {
            tr.observe("serve.batch_size", v);
        }
        tr.events()
    }

    #[test]
    fn exposition_round_trips_its_validator() {
        let text = to_prometheus(&sample());
        let samples = validate_exposition(&text).expect("emitted exposition validates");
        // 2 counters + 2 gauges * 2 samples + histogram (buckets + Inf + sum + count).
        assert!(samples >= 10, "unexpectedly few samples: {samples}\n{text}");
        assert!(text.contains("serve_queue_depth_peak 7"));
        assert!(text.contains("serve_batch_size_bucket{le=\"+Inf\"} 8"));
    }

    #[test]
    fn exposition_validator_rejects_malformed_text() {
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("no_type_decl 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_exposition("# TYPE x widget\nx 1\n").is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // +Inf / _count mismatch.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize("serve.queue-depth"), "serve_queue_depth");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
    }
}
