//! The stable `BENCH_serve.json` and `BENCH_resilience.json` documents:
//! what one loadgen run measured, in a schema every downstream consumer
//! (CI, plots, regression gates) can rely on. Each document is its report
//! type: the writer serializes it, and `parse` reads it back, then runs the
//! checks the type cannot express.

use ld_telemetry::{parse_versioned, HexDigest};

/// Bump when the shape of `BENCH_serve.json` changes.
/// v2: adds `p95_tick_ns`, the `slo_*` block, and `latency_histogram`.
pub const SERVE_SCHEMA_VERSION: u64 = 2;

/// Everything a loadgen run measures: the `BENCH_serve.json` document.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchReport {
    /// [`SERVE_SCHEMA_VERSION`].
    pub schema_version: u64,
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
    pub response_digest: HexDigest,
    /// Availability objective the batched pass was scored against.
    pub slo_target: f64,
    /// Measured availability (non-degraded fraction) of the batched pass.
    pub slo_availability: f64,
    /// Error budget remaining after the pass, `[0, 1]`.
    pub slo_budget_remaining: f64,
    /// Multi-window burn-rate alerts fired during the batched pass.
    pub slo_alerts: u64,
    /// Non-empty log-linear buckets of the per-tick latency histogram;
    /// counts sum to `ticks`.
    pub latency_histogram: Vec<LatencyBucket>,
}

/// One non-empty bucket of the per-tick latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyBucket {
    /// Smallest tick latency the bucket holds, nanoseconds.
    pub lo_ns: u64,
    /// Largest tick latency the bucket holds, nanoseconds.
    pub hi_ns: u64,
    /// Ticks in the bucket.
    pub count: u64,
}

impl ServeBenchReport {
    /// Reads a `BENCH_serve.json` and checks it against the schema every
    /// consumer relies on. Returns the first violation.
    pub fn parse(text: &str) -> Result<Self, String> {
        let r: ServeBenchReport = parse_versioned(text, SERVE_SCHEMA_VERSION)?;
        check_mode_and_families(&r.mode, r.families)?;
        let (p50, p95, p99) = (r.p50_tick_ns, r.p95_tick_ns, r.p99_tick_ns);
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "latency percentiles must be ordered: p50 {p50} <= p95 {p95} <= p99 {p99}"
            ));
        }
        for (key, v) in [
            ("throughput_rps", r.throughput_rps),
            ("serial_secs", r.serial_secs),
            ("batched_secs", r.batched_secs),
            ("speedup_batched_vs_serial", r.speedup_batched_vs_serial),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{key} must be positive finite, got {v}"));
            }
        }
        check_fractions(&[("shed_rate", r.shed_rate), ("cache_hit_rate", r.cache_hit_rate)])?;
        if !(r.slo_target > 0.0 && r.slo_target < 1.0) {
            return Err(format!("slo_target must be in (0, 1), got {}", r.slo_target));
        }
        check_fractions(&[
            ("slo_availability", r.slo_availability),
            ("slo_budget_remaining", r.slo_budget_remaining),
        ])?;
        check_latency_histogram(&r.latency_histogram, r.ticks)?;
        Ok(r)
    }
}

/// Both documents come from a `smoke` or `full` run over Table I's five
/// trace families.
fn check_mode_and_families(mode: &str, families: u64) -> Result<(), String> {
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode must be smoke|full, got {mode:?}"));
    }
    if families != 5 {
        return Err(format!("families must be 5 (Table I), got {families}"));
    }
    Ok(())
}

/// Each value must lie in `[0, 1]`; a `null`, read as NaN, does not.
fn check_fractions(values: &[(&str, f64)]) -> Result<(), String> {
    match values.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
        Some((key, v)) => Err(format!("{key} must be in [0, 1], got {v}")),
        None => Ok(()),
    }
}

/// The buckets must be non-empty, disjoint and ascending, and count every
/// tick once.
fn check_latency_histogram(buckets: &[LatencyBucket], ticks: u64) -> Result<(), String> {
    if buckets.is_empty() {
        return Err("latency_histogram must not be empty".into());
    }
    let mut prev_hi: Option<u64> = None;
    let mut total: u64 = 0;
    for (i, &LatencyBucket { lo_ns: lo, hi_ns: hi, count }) in buckets.iter().enumerate() {
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

/// What one `ld-loadgen --chaos` soak measured: the
/// `BENCH_resilience.json` document.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ResilienceBenchReport {
    /// [`RESILIENCE_SCHEMA_VERSION`].
    pub schema_version: u64,
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
    pub schedule_digest: HexDigest,
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
    pub response_digest: HexDigest,
}

impl ResilienceBenchReport {
    /// Reads a `BENCH_resilience.json`: structure plus the chaos-soak gates
    /// (availability, isolation). Returns the first violation.
    pub fn parse(text: &str) -> Result<Self, String> {
        let r: ResilienceBenchReport = parse_versioned(text, RESILIENCE_SCHEMA_VERSION)?;
        check_mode_and_families(&r.mode, r.families)?;
        if r.mode == "full" && r.tenants < 2000 {
            return Err(format!(
                "full chaos soak must run >= 2000 tenants, got {}",
                r.tenants
            ));
        }
        if r.chaos_events == 0 {
            return Err(
                "chaos_events must be positive (a soak without chaos proves nothing)".into(),
            );
        }
        if r.answered.checked_add(r.shed) != Some(r.issued) {
            return Err(format!(
                "answered {} + shed {} != issued {} (requests unaccounted for)",
                r.answered, r.shed, r.issued
            ));
        }
        if r.p99_tick_ns < r.p50_tick_ns {
            return Err(format!(
                "p99_tick_ns {} < p50_tick_ns {}",
                r.p99_tick_ns, r.p50_tick_ns
            ));
        }
        check_fractions(&[
            ("availability", r.availability),
            ("shed_rate", r.shed_rate),
            ("fallback_fraction", r.fallback_fraction),
            ("expired_fraction", r.expired_fraction),
        ])?;
        if r.availability < 0.99 {
            return Err(format!("availability {} below the 0.99 gate", r.availability));
        }
        if !r.isolation_clean {
            return Err("isolation_clean is false: a faulted tenant perturbed a neighbor".into());
        }
        Ok(r)
    }
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

    fn to_json(report: &impl serde::Serialize) -> String {
        serde_json::to_string_pretty(report).expect("serialize")
    }

    fn report() -> ServeBenchReport {
        ServeBenchReport {
            schema_version: SERVE_SCHEMA_VERSION,
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
            response_digest: HexDigest(0xdead_beef_0123_4567),
            slo_target: 0.99,
            slo_availability: 1.0,
            slo_budget_remaining: 1.0,
            slo_alerts: 0,
            latency_histogram: vec![
                LatencyBucket { lo_ns: 896, hi_ns: 1023, count: 4 },
                LatencyBucket { lo_ns: 1792, hi_ns: 2047, count: 2 },
            ],
        }
    }

    #[test]
    fn document_roundtrips_and_validates() {
        ServeBenchReport::parse(&to_json(&report())).expect("valid document");
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let parse = ServeBenchReport::parse;
        assert!(parse("{\"schema_version\": 9}")
            .unwrap_err()
            .contains("schema_version"));

        let bad_rate = text_with(|r| r.shed_rate = 1.5, |t| t);
        assert!(parse(&bad_rate).unwrap_err().contains("shed_rate"));

        let bad_speedup = text_with(|r| r.speedup_batched_vs_serial = -1.0, |t| t);
        assert!(parse(&bad_speedup).unwrap_err().contains("speedup"));

        let bad_families = text_with(|r| r.families = 4, |t| t);
        assert!(parse(&bad_families).unwrap_err().contains("families"));

        let inverted = text_with(
            |r| {
                r.p50_tick_ns = 10;
                r.p95_tick_ns = 7;
                r.p99_tick_ns = 5;
            },
            |t| t,
        );
        assert!(parse(&inverted).unwrap_err().contains("ordered"));

        let bad_target = text_with(|r| r.slo_target = 1.0, |t| t);
        assert!(parse(&bad_target).unwrap_err().contains("slo_target"));

        let bad_budget = text_with(|r| r.slo_budget_remaining = -0.1, |t| t);
        assert!(parse(&bad_budget)
            .unwrap_err()
            .contains("slo_budget_remaining"));

        let no_buckets = text_with(|r| r.latency_histogram.clear(), |t| t);
        assert!(parse(&no_buckets)
            .unwrap_err()
            .contains("latency_histogram"));

        let short_histogram = text_with(|r| r.latency_histogram[0].count = 3, |t| t);
        assert!(parse(&short_histogram)
            .unwrap_err()
            .contains("counts sum"));

        let overlapping = text_with(|r| r.latency_histogram[1].lo_ns = 900, |t| t);
        assert!(parse(&overlapping)
            .unwrap_err()
            .contains("disjoint"));

        let bad_digest = text_with(|_| {}, |t| t.replace("deadbeef01234567", "deadbeef0123456"));
        assert!(parse(&bad_digest).unwrap_err().contains("response_digest"));
    }

    fn text_with(tweak: impl FnOnce(&mut ServeBenchReport), post: impl FnOnce(String) -> String) -> String {
        let mut r = report();
        tweak(&mut r);
        post(to_json(&r))
    }

    fn resilience_report() -> ResilienceBenchReport {
        ResilienceBenchReport {
            schema_version: RESILIENCE_SCHEMA_VERSION,
            mode: "smoke".into(),
            seed: 42,
            chaos_seed: 1337,
            tenants: 40,
            ticks: 12,
            families: 5,
            chaos_events: 9,
            schedule_digest: HexDigest(0x1111_2222_3333_4444),
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
            response_digest: HexDigest(0xfeed_f00d_0000_1111),
        }
    }

    #[test]
    fn resilience_document_roundtrips_and_validates() {
        ResilienceBenchReport::parse(&to_json(&resilience_report())).expect("valid document");
    }

    #[test]
    fn resilience_validation_enforces_the_soak_gates() {
        let with = |tweak: fn(&mut ResilienceBenchReport)| -> String {
            let mut r = resilience_report();
            tweak(&mut r);
            to_json(&r)
        };
        let parse = ResilienceBenchReport::parse;
        let err = parse(&with(|r| r.availability = 0.9)).unwrap_err();
        assert!(err.contains("availability"), "{err}");
        let err = parse(&with(|r| r.isolation_clean = false)).unwrap_err();
        assert!(err.contains("isolation"), "{err}");
        let err = parse(&with(|r| r.chaos_events = 0)).unwrap_err();
        assert!(err.contains("chaos_events"), "{err}");
        let err = parse(&with(|r| r.shed = 1)).unwrap_err();
        assert!(err.contains("unaccounted"), "{err}");
        let err = parse(&with(|r| {
            r.mode = "full".into();
            // availability/shed arithmetic untouched: tenants gate fires.
            r.tenants = 100;
        }))
        .unwrap_err();
        assert!(err.contains("2000"), "{err}");
        assert!(parse("{\"schema_version\": 7}").is_err());
    }

    #[test]
    fn readers_reject_every_broken_key() {
        let doc = |text: String| serde_json::from_str(&text).expect("a valid document");
        let serve = ld_telemetry::document::rejects_broken_keys(
            &doc(to_json(&report())),
            ServeBenchReport::parse,
        );
        assert_eq!(serve, Ok(47));
        let resilience = ld_telemetry::document::rejects_broken_keys(
            &doc(to_json(&resilience_report())),
            ResilienceBenchReport::parse,
        );
        assert_eq!(resilience, Ok(48));
    }

    /// The hand-built writers these types replaced wrote the committed
    /// documents: reading one and writing it again gives back its bytes.
    #[test]
    fn committed_documents_read_back_byte_for_byte() {
        let serve = include_str!("../../../BENCH_serve.json");
        let report = ServeBenchReport::parse(serve).expect("committed BENCH_serve.json");
        assert_eq!(to_json(&report) + "\n", serve);
        let resilience = include_str!("../../../BENCH_resilience.json");
        let report =
            ResilienceBenchReport::parse(resilience).expect("committed BENCH_resilience.json");
        assert_eq!(to_json(&report) + "\n", resilience);
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
