//! Fault-injection acceptance tests: the full self-optimization workflow
//! under deterministic injected failures (NaN training losses, a forced
//! Cholesky breakdown in the GP surrogate, corrupted trace values) must
//! finish without panicking, record what failed in the tracer's counters
//! and events, and still hand back a usable finite-MAPE predictor.
//!
//! Fault plans are process-global, so every test serializes on
//! [`ld_faultinject::test_lock`] and uninstalls its plan before asserting.

use ld_api::{Predictor, Series};
use ld_faultinject::{install, reset, test_lock, FaultConfig, FaultSite};
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

/// The ISSUE acceptance scenario: NaN losses on ~30% of trials plus one
/// forced Cholesky failure. Caller must hold the test lock.
fn faulted_plan() -> FaultConfig {
    FaultConfig::new(17)
        .with_site(FaultSite::NanLoss, 0.3, None)
        .with_site(FaultSite::CholeskyFail, 1.0, Some(1))
}

fn run_faulted(tracer: Tracer) -> OptimizationOutcome {
    let mut config = FrameworkConfig::fast_preset(7).with_tracer(tracer);
    config.max_iters = MAX_ITERS;
    LoadDynamics::new(config).optimize(&seasonal_series(240))
}

#[test]
fn search_survives_nan_losses_and_a_cholesky_failure() {
    let _guard = test_lock();
    install(faulted_plan());
    let tracer = Tracer::enabled();
    let outcome = run_faulted(tracer.clone());
    reset();

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
    let _guard = test_lock();
    install(faulted_plan());
    let a = run_faulted(Tracer::disabled());
    install(faulted_plan());
    let b = run_faulted(Tracer::disabled());
    reset();

    assert_eq!(a.hyperparams, b.hyperparams);
    assert_eq!(a.val_mape.to_bits(), b.val_mape.to_bits());
    for (ta, tb) in a.trials.trials.iter().zip(&b.trials.trials) {
        assert_eq!(ta.value.to_bits(), tb.value.to_bits());
        assert_eq!(ta.failed, tb.failed);
    }
}

#[test]
fn total_divergence_degrades_to_baseline_fallback() {
    let _guard = test_lock();
    install(FaultConfig::new(3).with_site(FaultSite::NanLoss, 1.0, None));
    let tracer = Tracer::enabled();
    let mut config = FrameworkConfig::fast_preset(3).with_tracer(tracer.clone());
    config.max_iters = 4;
    let series = seasonal_series(240);
    let outcome = LoadDynamics::new(config).optimize(&series);
    reset();

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
    let _guard = test_lock();
    let config = TraceConfig {
        kind: WorkloadKind::Wikipedia,
        interval_mins: 30,
    };
    install(FaultConfig::new(42).with_site(FaultSite::TraceCorrupt, 0.05, None));
    let (series, report) = config.build_reported(0);
    reset();

    assert!(
        !report.is_clean(),
        "a 5% corruption rate must hit a multi-hundred-point trace"
    );
    assert!(series.values.iter().all(|v| v.is_finite() && *v >= 0.0));

    // Without a plan installed, the same build is clean and untouched.
    let (clean, clean_report) = config.build_reported(0);
    assert!(clean_report.is_clean());
    assert_eq!(clean.len(), series.len());
    assert!(clean.values.iter().zip(&series.values).any(|(a, b)| a != b));
}

#[test]
fn ld_fault_env_knobs_install_a_plan() {
    let _guard = test_lock();
    std::env::set_var("LD_FAULT", "nan_loss=0.5,cholesky=1x1");
    std::env::set_var("LD_FAULT_SEED", "9");
    let installed = ld_faultinject::init_from_env(0);
    std::env::remove_var("LD_FAULT");
    std::env::remove_var("LD_FAULT_SEED");
    assert!(installed);
    assert!(ld_faultinject::is_active());
    reset();
    assert!(!ld_faultinject::is_active());

    // A malformed spec is rejected without installing anything.
    std::env::set_var("LD_FAULT", "nan_loss=banana");
    let installed = ld_faultinject::init_from_env(0);
    std::env::remove_var("LD_FAULT");
    assert!(!installed);
    assert!(!ld_faultinject::is_active());
}
