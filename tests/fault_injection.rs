//! Fault-injection acceptance tests: the full self-optimization workflow
//! under deterministic injected failures (NaN training losses, a forced
//! Cholesky breakdown in the GP surrogate, corrupted trace values) must
//! finish without panicking, record what failed in the tracer's counters
//! and events, and still hand back a usable finite-MAPE predictor.
//!
//! Each test hands its plan to the run it drives, so the tests run side by
//! side, and a clean search beside a faulted one in the same process
//! answers exactly what it answers alone.

use ld_api::{Predictor, Series};
use ld_faultinject::{FaultConfig, FaultPlan, FaultSite};
use ld_telemetry::Tracer;
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::{FrameworkConfig, LoadDynamics, OptimizationOutcome};

const MAX_ITERS: usize = 6;

fn seasonal_series(len: usize) -> Series {
    Series::new(
        "seasonal",
        30,
        (0..len)
            .map(|i| 100.0 + 40.0 * (i as f64 * 0.3).sin())
            .collect(),
    )
}

/// The acceptance scenario: NaN losses on ~30% of trials plus one forced
/// Cholesky failure, with fresh occurrence counters.
fn faulted_plan() -> FaultPlan {
    FaultPlan::new(
        FaultConfig::new(17)
            .with_site(FaultSite::NanLoss, 0.3, None)
            .with_site(FaultSite::CholeskyFail, 1.0, Some(1)),
    )
}

fn run_faulted(tracer: Tracer) -> OptimizationOutcome {
    let mut config = FrameworkConfig::fast_preset(7)
        .with_tracer(tracer)
        .with_faults(faulted_plan());
    config.max_iters = MAX_ITERS;
    LoadDynamics::new(config).optimize(&seasonal_series(240))
}

#[test]
fn search_survives_nan_losses_and_a_cholesky_failure() {
    let tracer = Tracer::enabled();
    let outcome = run_faulted(tracer.clone());

    // The search completed its full budget and produced a usable model.
    assert!(outcome.val_mape.is_finite());
    assert!(outcome.val_mape < loaddynamics::pipeline::INFEASIBLE_MAPE);
    let series = seasonal_series(240);
    let mut predictor = outcome.predictor;
    let pred = predictor.predict(&series.values[..200]);
    assert!(pred.is_finite() && pred >= 0.0, "prediction {pred}");

    let snap = tracer.events();
    // Divergent trials were detected, penalized, and recorded — not
    // silently swallowed and not fatal.
    assert!(
        snap.counter("pipeline.diverged_trials") >= 1,
        "expected at least one injected divergence; counters: {:?}",
        snap.counters
    );
    assert!(snap.counter("trainer.divergence_events") >= 1);
    // The forced Cholesky breakdown was survived via the random-proposal
    // fallback.
    assert_eq!(snap.counter("bayesopt.surrogate_failures"), 1);
    // The search still logged its full trial history.
    assert_eq!(snap.events_of("search", "trial").len(), MAX_ITERS);
}

#[test]
fn faulted_search_is_deterministic() {
    let a = run_faulted(Tracer::disabled());
    let b = run_faulted(Tracer::disabled());

    assert_eq!(a.hyperparams, b.hyperparams);
    assert_eq!(a.val_mape.to_bits(), b.val_mape.to_bits());
    for (ta, tb) in a.trials.trials.iter().zip(&b.trials.trials) {
        assert_eq!(ta.value.to_bits(), tb.value.to_bits());
        assert_eq!(ta.failed, tb.failed);
    }
}

/// Every trial's training diverges.
fn diverge_all() -> FaultPlan {
    FaultPlan::new(FaultConfig::new(3).with_site(FaultSite::NanLoss, 1.0, None))
}

#[test]
fn total_divergence_degrades_to_baseline_fallback() {
    let tracer = Tracer::enabled();
    let mut config = FrameworkConfig::fast_preset(3)
        .with_tracer(tracer.clone())
        .with_faults(diverge_all());
    config.max_iters = 4;
    let series = seasonal_series(240);
    let outcome = LoadDynamics::new(config).optimize(&series);

    assert!(outcome.predictor.is_fallback());
    assert!(outcome.predictor.fallback_name().is_some());
    assert!(outcome.val_mape.is_finite());
    let snap = tracer.events();
    assert_eq!(snap.counter("framework.fallback"), 1);
    assert!(snap.counter("pipeline.diverged_trials") >= 4);
    // Every fit diverged, so `best_loss` is infinite; the events file must
    // still parse and validate.
    assert_eq!(
        ld_telemetry::validate_events(&snap.to_json()),
        Ok(snap.events.len())
    );

    // The degraded predictor still walks forward with finite forecasts.
    let mut predictor = outcome.predictor;
    for end in [120usize, 180, 239] {
        let pred = predictor.predict(&series.values[..end]);
        assert!(pred.is_finite() && pred >= 0.0, "prediction at {end}: {pred}");
    }
}

#[test]
fn corrupted_trace_values_are_sanitized_on_ingest() {
    let config = TraceConfig {
        kind: WorkloadKind::Wikipedia,
        interval_mins: 30,
    };
    let plan = FaultPlan::new(FaultConfig::new(42).with_site(FaultSite::TraceCorrupt, 0.05, None));
    let (series, report) = config.build_reported(0, &plan);

    assert!(
        !report.is_clean(),
        "a 5% corruption rate must hit a multi-hundred-point trace"
    );
    assert!(series.values.iter().all(|v| v.is_finite() && *v >= 0.0));

    // Under a disarmed plan the same build is clean and untouched, and it
    // is exactly the plain build.
    let (clean, clean_report) = config.build_reported(0, &FaultPlan::disarmed());
    assert!(clean_report.is_clean());
    assert_eq!(clean.values, config.build(0).values);
    assert_eq!(clean.len(), series.len());
    assert!(clean.values.iter().zip(&series.values).any(|(a, b)| a != b));
}

#[test]
fn a_clean_search_beside_a_faulted_one_answers_as_if_alone() {
    let series = seasonal_series(240);
    let search = |faults: FaultPlan| {
        let mut config = FrameworkConfig::fast_preset(3).with_faults(faults);
        config.max_iters = 4;
        LoadDynamics::new(config).optimize(&series)
    };
    let alone = search(FaultPlan::disarmed());
    // Both searches start together, so the faulted one trains while the
    // clean one does.
    let start = std::sync::Barrier::new(2);
    let (clean, faulted) = std::thread::scope(|s| {
        let faulted = s.spawn(|| {
            start.wait();
            search(diverge_all())
        });
        let clean = s.spawn(|| {
            start.wait();
            search(FaultPlan::disarmed())
        });
        (
            clean.join().expect("clean search"),
            faulted.join().expect("faulted search"),
        )
    });

    assert!(!clean.predictor.is_fallback());
    assert_eq!(clean.hyperparams, alone.hyperparams);
    assert_eq!(clean.val_mape.to_bits(), alone.val_mape.to_bits());
    assert_eq!(clean.trials.trials.len(), alone.trials.trials.len());
    for (c, a) in clean.trials.trials.iter().zip(&alone.trials.trials) {
        assert_eq!(c.value.to_bits(), a.value.to_bits());
        assert_eq!(c.failed, a.failed);
    }
    assert!(
        faulted.predictor.is_fallback(),
        "the faulted search's plan reached it"
    );
    assert!(faulted.val_mape.is_finite());
}
