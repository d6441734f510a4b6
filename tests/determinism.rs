//! Seeded-determinism regression: a LoadDynamics run is a pure function of
//! `(series, config)`. The same seed must reproduce the same selected
//! hyperparameters and bitwise-identical predictions, and enabling the
//! tracer (spans, counters and events) must not perturb any of it.

use ld_api::{Predictor, Series};
use ld_telemetry::Tracer;
use loaddynamics::{FrameworkConfig, LoadDynamics, OptimizationOutcome};

fn seasonal_series(len: usize) -> Series {
    Series::new(
        "seasonal",
        30,
        (0..len)
            .map(|i| 100.0 + 40.0 * (i as f64 * 0.3).sin())
            .collect(),
    )
}

fn run(seed: u64, tracer: Option<Tracer>) -> OptimizationOutcome {
    let mut config = FrameworkConfig::fast_preset(seed);
    config.max_iters = 4;
    if let Some(tracer) = tracer {
        config = config.with_tracer(tracer);
    }
    LoadDynamics::new(config).optimize(&seasonal_series(220))
}

/// Asserts two outcomes are indistinguishable: same hyperparameters, same
/// trial history (bitwise values), bitwise-identical predictions.
fn assert_identical(a: OptimizationOutcome, b: OptimizationOutcome) {
    assert_eq!(a.hyperparams, b.hyperparams);
    assert_eq!(a.val_mape.to_bits(), b.val_mape.to_bits());
    assert_eq!(a.trials.trials.len(), b.trials.trials.len());
    for (ta, tb) in a.trials.trials.iter().zip(&b.trials.trials) {
        assert_eq!(format!("{:?}", ta.params), format!("{:?}", tb.params));
        assert_eq!(ta.value.to_bits(), tb.value.to_bits());
    }
    let series = seasonal_series(220);
    let mut pa = a.predictor;
    let mut pb = b.predictor;
    for end in [60usize, 120, 180, 220] {
        let va = pa.predict(&series.values[..end]);
        let vb = pb.predict(&series.values[..end]);
        assert_eq!(va.to_bits(), vb.to_bits(), "prediction differs at {end}");
    }
}

#[test]
fn same_seed_reproduces_hyperparameters_and_predictions_bitwise() {
    assert_identical(run(9, None), run(9, None));
}

#[test]
fn enabling_telemetry_does_not_perturb_the_run() {
    // Acceptance check for the instrumentation: recording must be purely
    // observational, so an observed run matches an unobserved one bit for
    // bit.
    let tracer = Tracer::enabled();
    assert_identical(run(3, None), run(3, Some(tracer.clone())));
    assert!(!tracer.snapshot().spans.is_empty());
    assert!(!tracer.events().events.is_empty());
}
