//! The stable `BENCH_serve.json` document: what one loadgen run measured,
//! in a schema every downstream consumer (CI, plots, regression gates) can
//! rely on.

use ld_telemetry::HistogramBucket;
use serde::Value;

/// Bump when the shape of `BENCH_serve.json` changes.
/// v2: adds `p95_tick_ns`, the `slo_*` block, and `latency_histogram`.
pub const SERVE_SCHEMA_VERSION: u64 = 2;

/// Everything a loadgen run measures.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Load-schedule seed.
    pub seed: u64,
    /// Concurrent tenants replayed.
    pub tenants: u64,
    /// Ticks in each throughput pass.
    pub ticks: u64,
    /// Trace families replayed concurrently.
    pub families: u64,
    /// Requests answered in the batched throughput pass.
    pub requests: u64,
    /// Median per-tick latency of the batched pass, nanoseconds.
    pub p50_tick_ns: u64,
    /// 95th-percentile per-tick latency of the batched pass, nanoseconds.
    pub p95_tick_ns: u64,
    /// 99th-percentile per-tick latency of the batched pass, nanoseconds.
    pub p99_tick_ns: u64,
    /// Batched-pass throughput, requests per second.
    pub throughput_rps: f64,
    /// Wall-clock seconds of the per-tenant serial pass.
    pub serial_secs: f64,
    /// Wall-clock seconds of the batched pass.
    pub batched_secs: f64,
    /// `serial_secs / batched_secs` over the identical request schedule.
    pub speedup_batched_vs_serial: f64,
    /// Fraction of overload-phase requests shed, in `[0, 1]`.
    pub shed_rate: f64,
    /// Registry hit fraction of the capacity-constrained phase, `[0, 1]`.
    pub cache_hit_rate: f64,
    /// FNV-1a digest over the batched pass's response stream.
    pub response_digest: u64,
    /// Availability objective the batched pass was scored against.
    pub slo_target: f64,
    /// Measured availability (non-degraded fraction) of the batched pass.
    pub slo_availability: f64,
    /// Error budget remaining after the pass, `[0, 1]`.
    pub slo_budget_remaining: f64,
    /// Multi-window burn-rate alerts fired during the batched pass.
    pub slo_alerts: u64,
    /// Non-empty log-linear buckets of the per-tick latency histogram
    /// (nanoseconds); counts sum to `ticks`.
    pub latency_histogram: Vec<HistogramBucket>,
}

impl ServeBenchReport {
    /// Assembles the stable JSON document.
    pub fn to_document(&self) -> Value {
        Value::Object(vec![
            ("schema_version".to_string(), Value::Uint(SERVE_SCHEMA_VERSION)),
            ("mode".to_string(), Value::String(self.mode.clone())),
            ("seed".to_string(), Value::Uint(self.seed)),
            ("tenants".to_string(), Value::Uint(self.tenants)),
            ("ticks".to_string(), Value::Uint(self.ticks)),
            ("families".to_string(), Value::Uint(self.families)),
            ("requests".to_string(), Value::Uint(self.requests)),
            ("p50_tick_ns".to_string(), Value::Uint(self.p50_tick_ns)),
            ("p95_tick_ns".to_string(), Value::Uint(self.p95_tick_ns)),
            ("p99_tick_ns".to_string(), Value::Uint(self.p99_tick_ns)),
            ("throughput_rps".to_string(), Value::Float(self.throughput_rps)),
            ("serial_secs".to_string(), Value::Float(self.serial_secs)),
            ("batched_secs".to_string(), Value::Float(self.batched_secs)),
            (
                "speedup_batched_vs_serial".to_string(),
                Value::Float(self.speedup_batched_vs_serial),
            ),
            ("shed_rate".to_string(), Value::Float(self.shed_rate)),
            ("cache_hit_rate".to_string(), Value::Float(self.cache_hit_rate)),
            (
                "response_digest".to_string(),
                Value::String(format!("{:016x}", self.response_digest)),
            ),
            ("slo_target".to_string(), Value::Float(self.slo_target)),
            (
                "slo_availability".to_string(),
                Value::Float(self.slo_availability),
            ),
            (
                "slo_budget_remaining".to_string(),
                Value::Float(self.slo_budget_remaining),
            ),
            ("slo_alerts".to_string(), Value::Uint(self.slo_alerts)),
            (
                "latency_histogram".to_string(),
                Value::Array(
                    self.latency_histogram
                        .iter()
                        .map(|b| {
                            Value::Object(vec![
                                ("lo_ns".to_string(), Value::Uint(b.lo)),
                                ("hi_ns".to_string(), Value::Uint(b.hi)),
                                ("count".to_string(), Value::Uint(b.count)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Validates a serialized `BENCH_serve.json` against the schema every
/// consumer relies on. Returns a description of the first violation.
pub fn validate_document(text: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("schema_version missing or not an integer")?;
    if version != SERVE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {SERVE_SCHEMA_VERSION}"
        ));
    }
    let mode = doc
        .field("mode")
        .ok()
        .and_then(Value::as_str)
        .ok_or("mode missing")?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode must be smoke|full, got {mode:?}"));
    }
    for key in [
        "seed",
        "tenants",
        "ticks",
        "families",
        "requests",
        "p50_tick_ns",
        "p95_tick_ns",
        "p99_tick_ns",
        "slo_alerts",
    ] {
        doc.field(key)
            .ok()
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{key} missing or not an unsigned integer"))?;
    }
    let families = doc.field("families").ok().and_then(Value::as_u64).unwrap_or(0);
    if families != 5 {
        return Err(format!("families must be 5 (Table I), got {families}"));
    }
    let p50 = doc.field("p50_tick_ns").ok().and_then(Value::as_u64).unwrap_or(0);
    let p95 = doc.field("p95_tick_ns").ok().and_then(Value::as_u64).unwrap_or(0);
    let p99 = doc.field("p99_tick_ns").ok().and_then(Value::as_u64).unwrap_or(0);
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "latency percentiles must be ordered: p50 {p50} <= p95 {p95} <= p99 {p99}"
        ));
    }
    for key in ["throughput_rps", "serial_secs", "batched_secs", "speedup_batched_vs_serial"] {
        let v = doc
            .field(key)
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{key} missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{key} must be positive finite, got {v}"));
        }
    }
    for key in ["shed_rate", "cache_hit_rate"] {
        let v = doc
            .field(key)
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{key} missing or not a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{key} must be in [0, 1], got {v}"));
        }
    }
    let digest = doc
        .field("response_digest")
        .ok()
        .and_then(Value::as_str)
        .ok_or("response_digest missing")?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("response_digest must be 16 hex chars, got {digest:?}"));
    }
    let slo_target = doc
        .field("slo_target")
        .ok()
        .and_then(Value::as_f64)
        .ok_or("slo_target missing or not a number")?;
    if !(slo_target > 0.0 && slo_target < 1.0) {
        return Err(format!("slo_target must be in (0, 1), got {slo_target}"));
    }
    for key in ["slo_availability", "slo_budget_remaining"] {
        let v = doc
            .field(key)
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{key} missing or not a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{key} must be in [0, 1], got {v}"));
        }
    }
    let ticks = doc.field("ticks").ok().and_then(Value::as_u64).unwrap_or(0);
    let buckets = doc
        .field("latency_histogram")
        .ok()
        .and_then(Value::as_array)
        .ok_or("latency_histogram missing or not an array")?;
    if buckets.is_empty() {
        return Err("latency_histogram must not be empty".into());
    }
    let mut prev_hi: Option<u64> = None;
    let mut total: u64 = 0;
    for (i, bucket) in buckets.iter().enumerate() {
        let get = |key: &str| {
            bucket
                .field(key)
                .ok()
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("latency_histogram[{i}].{key} missing or not an integer"))
        };
        let (lo, hi, count) = (get("lo_ns")?, get("hi_ns")?, get("count")?);
        if lo > hi {
            return Err(format!("latency_histogram[{i}]: lo_ns {lo} > hi_ns {hi}"));
        }
        if count == 0 {
            return Err(format!("latency_histogram[{i}]: empty buckets must be omitted"));
        }
        if let Some(p) = prev_hi {
            if lo <= p {
                return Err(format!(
                    "latency_histogram[{i}]: buckets must be disjoint and ascending (lo_ns {lo} <= previous hi_ns {p})"
                ));
            }
        }
        prev_hi = Some(hi);
        total = total.saturating_add(count);
    }
    if total != ticks {
        return Err(format!(
            "latency_histogram counts sum to {total}, expected ticks {ticks}"
        ));
    }
    Ok(())
}

/// Bump when the shape of `BENCH_resilience.json` changes.
pub const RESILIENCE_SCHEMA_VERSION: u64 = 1;

/// What one `ld-loadgen --chaos` soak measured.
#[derive(Debug, Clone)]
pub struct ResilienceBenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Load-schedule seed.
    pub seed: u64,
    /// Chaos-schedule seed.
    pub chaos_seed: u64,
    /// Concurrent tenants replayed.
    pub tenants: u64,
    /// Scheduled ticks (excluding the settle tail).
    pub ticks: u64,
    /// Trace families replayed concurrently.
    pub families: u64,
    /// Chaos events in the schedule.
    pub chaos_events: u64,
    /// FNV-1a digest of the chaos schedule spec.
    pub schedule_digest: u64,
    /// Requests offered (baseline load + bursts).
    pub issued: u64,
    /// Requests answered with a response (any source).
    pub answered: u64,
    /// Requests explicitly shed at admission.
    pub shed: u64,
    /// `(answered + shed) / issued`: every request got an explicit,
    /// deterministic outcome. Anything below 1.0 means a hang.
    pub availability: f64,
    /// `shed / issued`.
    pub shed_rate: f64,
    /// Median per-tick latency under chaos, nanoseconds.
    pub p50_tick_ns: u64,
    /// 99th-percentile per-tick latency under chaos, nanoseconds.
    pub p99_tick_ns: u64,
    /// Fraction of answers served degraded (fallback or expired).
    pub fallback_fraction: f64,
    /// Fraction of answers that were deadline expiries.
    pub expired_fraction: f64,
    /// Circuit-breaker trips (tenant + shard).
    pub breaker_trips: u64,
    /// Retries parked for backoff.
    pub retries: u64,
    /// Slow-shard deferrals.
    pub deferrals: u64,
    /// Shard drain-restarts ordered by the supervisor.
    pub shard_drains: u64,
    /// Longest observed Unhealthy -> Healthy shard recovery, in ticks.
    pub recovery_ticks: u64,
    /// Torn/corrupt snapshot files quarantined by recovery passes.
    pub quarantined: u64,
    /// True when every model-path answer for an unaffected tenant was
    /// bitwise identical to the fault-free baseline run.
    pub isolation_clean: bool,
    /// FNV-1a digest over the chaos run's response stream.
    pub response_digest: u64,
}

impl ResilienceBenchReport {
    /// Assembles the stable JSON document.
    pub fn to_document(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::Uint(RESILIENCE_SCHEMA_VERSION),
            ),
            ("mode".to_string(), Value::String(self.mode.clone())),
            ("seed".to_string(), Value::Uint(self.seed)),
            ("chaos_seed".to_string(), Value::Uint(self.chaos_seed)),
            ("tenants".to_string(), Value::Uint(self.tenants)),
            ("ticks".to_string(), Value::Uint(self.ticks)),
            ("families".to_string(), Value::Uint(self.families)),
            ("chaos_events".to_string(), Value::Uint(self.chaos_events)),
            (
                "schedule_digest".to_string(),
                Value::String(format!("{:016x}", self.schedule_digest)),
            ),
            ("issued".to_string(), Value::Uint(self.issued)),
            ("answered".to_string(), Value::Uint(self.answered)),
            ("shed".to_string(), Value::Uint(self.shed)),
            ("availability".to_string(), Value::Float(self.availability)),
            ("shed_rate".to_string(), Value::Float(self.shed_rate)),
            ("p50_tick_ns".to_string(), Value::Uint(self.p50_tick_ns)),
            ("p99_tick_ns".to_string(), Value::Uint(self.p99_tick_ns)),
            (
                "fallback_fraction".to_string(),
                Value::Float(self.fallback_fraction),
            ),
            (
                "expired_fraction".to_string(),
                Value::Float(self.expired_fraction),
            ),
            ("breaker_trips".to_string(), Value::Uint(self.breaker_trips)),
            ("retries".to_string(), Value::Uint(self.retries)),
            ("deferrals".to_string(), Value::Uint(self.deferrals)),
            ("shard_drains".to_string(), Value::Uint(self.shard_drains)),
            ("recovery_ticks".to_string(), Value::Uint(self.recovery_ticks)),
            ("quarantined".to_string(), Value::Uint(self.quarantined)),
            ("isolation_clean".to_string(), Value::Bool(self.isolation_clean)),
            (
                "response_digest".to_string(),
                Value::String(format!("{:016x}", self.response_digest)),
            ),
        ])
    }
}

fn hex16(doc: &Value, key: &str) -> Result<(), String> {
    let s = doc
        .field(key)
        .ok()
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{key} missing"))?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("{key} must be 16 hex chars, got {s:?}"));
    }
    Ok(())
}

/// Validates a serialized `BENCH_resilience.json`: structure plus the
/// chaos-soak gates (availability, isolation). Returns the first violation.
pub fn validate_resilience_document(text: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("schema_version missing or not an integer")?;
    if version != RESILIENCE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {RESILIENCE_SCHEMA_VERSION}"
        ));
    }
    let mode = doc
        .field("mode")
        .ok()
        .and_then(Value::as_str)
        .ok_or("mode missing")?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode must be smoke|full, got {mode:?}"));
    }
    for key in [
        "seed",
        "chaos_seed",
        "tenants",
        "ticks",
        "families",
        "chaos_events",
        "issued",
        "answered",
        "shed",
        "p50_tick_ns",
        "p99_tick_ns",
        "breaker_trips",
        "retries",
        "deferrals",
        "shard_drains",
        "recovery_ticks",
        "quarantined",
    ] {
        doc.field(key)
            .ok()
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{key} missing or not an unsigned integer"))?;
    }
    let get = |key: &str| doc.field(key).ok().and_then(Value::as_u64).unwrap_or(0);
    if get("families") != 5 {
        return Err(format!("families must be 5 (Table I), got {}", get("families")));
    }
    if mode == "full" && get("tenants") < 2000 {
        return Err(format!(
            "full chaos soak must run >= 2000 tenants, got {}",
            get("tenants")
        ));
    }
    if get("chaos_events") == 0 {
        return Err("chaos_events must be positive (a soak without chaos proves nothing)".into());
    }
    if get("answered") + get("shed") != get("issued") {
        return Err(format!(
            "answered {} + shed {} != issued {} (requests unaccounted for)",
            get("answered"),
            get("shed"),
            get("issued")
        ));
    }
    if get("p99_tick_ns") < get("p50_tick_ns") {
        return Err(format!(
            "p99_tick_ns {} < p50_tick_ns {}",
            get("p99_tick_ns"),
            get("p50_tick_ns")
        ));
    }
    for key in ["availability", "shed_rate", "fallback_fraction", "expired_fraction"] {
        let v = doc
            .field(key)
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{key} missing or not a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{key} must be in [0, 1], got {v}"));
        }
    }
    let availability = doc.field("availability").ok().and_then(Value::as_f64).unwrap_or(0.0);
    if availability < 0.99 {
        return Err(format!("availability {availability} below the 0.99 gate"));
    }
    match doc.field("isolation_clean").ok().and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => {
            return Err("isolation_clean is false: a faulted tenant perturbed a neighbor".into())
        }
        None => return Err("isolation_clean missing or not a bool".into()),
    }
    hex16(&doc, "schedule_digest")?;
    hex16(&doc, "response_digest")?;
    Ok(())
}

/// Integer percentile over raw nanosecond samples: sorts, then takes the
/// nearest-rank element via the shared [`ld_api::stats`] helper (integer
/// math only — no float-derived casts).
pub fn percentile_ns(samples: &mut [u64], p: u64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p <= 100, "percentile must be in 0..=100");
    samples.sort_unstable();
    ld_api::stats::percentile_sorted_u64(samples, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServeBenchReport {
        ServeBenchReport {
            mode: "smoke".into(),
            seed: 42,
            tenants: 24,
            ticks: 6,
            families: 5,
            requests: 144,
            p50_tick_ns: 1_000,
            p95_tick_ns: 1_500,
            p99_tick_ns: 2_000,
            throughput_rps: 1e5,
            serial_secs: 2.0,
            batched_secs: 0.9,
            speedup_batched_vs_serial: 2.22,
            shed_rate: 0.25,
            cache_hit_rate: 0.5,
            response_digest: 0xdead_beef_0123_4567,
            slo_target: 0.99,
            slo_availability: 1.0,
            slo_budget_remaining: 1.0,
            slo_alerts: 0,
            latency_histogram: vec![
                HistogramBucket { lo: 896, hi: 1023, count: 4 },
                HistogramBucket { lo: 1792, hi: 2047, count: 2 },
            ],
        }
    }

    #[test]
    fn document_roundtrips_and_validates() {
        let text = serde_json::to_string_pretty(&report().to_document()).expect("serialize");
        validate_document(&text).expect("valid document");
    }

    #[test]
    fn validation_rejects_schema_violations() {
        assert!(validate_document("{\"schema_version\": 9}")
            .unwrap_err()
            .contains("schema_version"));

        let bad_rate = text_with(|r| r.shed_rate = 1.5, |t| t);
        assert!(validate_document(&bad_rate).unwrap_err().contains("shed_rate"));

        let bad_speedup = text_with(|r| r.speedup_batched_vs_serial = -1.0, |t| t);
        assert!(validate_document(&bad_speedup).unwrap_err().contains("speedup"));

        let bad_families = text_with(|r| r.families = 4, |t| t);
        assert!(validate_document(&bad_families).unwrap_err().contains("families"));

        let inverted = text_with(
            |r| {
                r.p50_tick_ns = 10;
                r.p95_tick_ns = 7;
                r.p99_tick_ns = 5;
            },
            |t| t,
        );
        assert!(validate_document(&inverted).unwrap_err().contains("ordered"));

        let bad_target = text_with(|r| r.slo_target = 1.0, |t| t);
        assert!(validate_document(&bad_target).unwrap_err().contains("slo_target"));

        let bad_budget = text_with(|r| r.slo_budget_remaining = -0.1, |t| t);
        assert!(validate_document(&bad_budget)
            .unwrap_err()
            .contains("slo_budget_remaining"));

        let no_buckets = text_with(|r| r.latency_histogram.clear(), |t| t);
        assert!(validate_document(&no_buckets)
            .unwrap_err()
            .contains("latency_histogram"));

        let short_histogram = text_with(|r| r.latency_histogram[0].count = 3, |t| t);
        assert!(validate_document(&short_histogram)
            .unwrap_err()
            .contains("counts sum"));

        let overlapping = text_with(|r| r.latency_histogram[1].lo = 900, |t| t);
        assert!(validate_document(&overlapping)
            .unwrap_err()
            .contains("disjoint"));
    }

    fn text_with(tweak: impl FnOnce(&mut ServeBenchReport), post: impl FnOnce(String) -> String) -> String {
        let mut r = report();
        tweak(&mut r);
        post(serde_json::to_string_pretty(&r.to_document()).expect("serialize"))
    }

    fn resilience_report() -> ResilienceBenchReport {
        ResilienceBenchReport {
            mode: "smoke".into(),
            seed: 42,
            chaos_seed: 1337,
            tenants: 40,
            ticks: 12,
            families: 5,
            chaos_events: 9,
            schedule_digest: 0x1111_2222_3333_4444,
            issued: 520,
            answered: 500,
            shed: 20,
            availability: 1.0,
            shed_rate: 20.0 / 520.0,
            p50_tick_ns: 900,
            p99_tick_ns: 4_000,
            fallback_fraction: 0.2,
            expired_fraction: 0.01,
            breaker_trips: 3,
            retries: 11,
            deferrals: 6,
            shard_drains: 1,
            recovery_ticks: 4,
            quarantined: 2,
            isolation_clean: true,
            response_digest: 0xfeed_f00d_0000_1111,
        }
    }

    #[test]
    fn resilience_document_roundtrips_and_validates() {
        let text =
            serde_json::to_string_pretty(&resilience_report().to_document()).expect("serialize");
        validate_resilience_document(&text).expect("valid document");
    }

    #[test]
    fn resilience_validation_enforces_the_soak_gates() {
        let with = |tweak: fn(&mut ResilienceBenchReport)| -> String {
            let mut r = resilience_report();
            tweak(&mut r);
            serde_json::to_string_pretty(&r.to_document()).expect("serialize")
        };
        let err = validate_resilience_document(&with(|r| r.availability = 0.9)).unwrap_err();
        assert!(err.contains("availability"), "{err}");
        let err = validate_resilience_document(&with(|r| r.isolation_clean = false)).unwrap_err();
        assert!(err.contains("isolation"), "{err}");
        let err = validate_resilience_document(&with(|r| r.chaos_events = 0)).unwrap_err();
        assert!(err.contains("chaos_events"), "{err}");
        let err = validate_resilience_document(&with(|r| r.shed = 1)).unwrap_err();
        assert!(err.contains("unaccounted"), "{err}");
        let err = validate_resilience_document(&with(|r| {
            r.mode = "full".into();
            // availability/shed arithmetic untouched: tenants gate fires.
            r.tenants = 100;
        }))
        .unwrap_err();
        assert!(err.contains("2000"), "{err}");
        assert!(validate_resilience_document("{\"schema_version\": 7}").is_err());
    }

    #[test]
    fn percentile_is_nearest_rank_integer_math() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut s.clone(), 50), 50);
        assert_eq!(percentile_ns(&mut s.clone(), 95), 95);
        assert_eq!(percentile_ns(&mut s.clone(), 99), 99);
        assert_eq!(percentile_ns(&mut s.clone(), 100), 100);
        assert_eq!(percentile_ns(&mut s, 1), 1);
        let mut tiny = vec![7u64];
        assert_eq!(percentile_ns(&mut tiny, 99), 7);
        // p = 0 clamps to the minimum sample (shared-helper convention).
        let mut pair = vec![9u64, 3];
        assert_eq!(percentile_ns(&mut pair, 0), 3);
    }
}
