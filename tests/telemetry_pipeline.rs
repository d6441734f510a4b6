//! Integration: the tracer's counters and events observing a full
//! fast-preset LoadDynamics run (the Fig. 6 workflow). Checks the whole
//! recording chain — trainer epochs, candidate evaluations,
//! Bayesian-optimizer trials, the strategy-agnostic search history, and
//! the framework summary — plus the JSON export.

use ld_api::Series;
use ld_telemetry::{validate_events, Snapshot, Tracer};
use loaddynamics::{FrameworkConfig, LoadDynamics, SearchStrategy};

const MAX_ITERS: usize = 5;

fn seasonal_series(len: usize) -> Series {
    Series::new(
        "seasonal",
        30,
        (0..len)
            .map(|i| 100.0 + 40.0 * (i as f64 * 0.3).sin())
            .collect(),
    )
}

/// Runs the fast-preset workflow with an enabled tracer and returns it.
fn optimized_run(seed: u64) -> Tracer {
    let tracer = Tracer::enabled();
    let mut config = FrameworkConfig::fast_preset(seed).with_tracer(tracer.clone());
    config.max_iters = MAX_ITERS;
    let outcome = LoadDynamics::new(config).optimize(&seasonal_series(240));
    assert!(outcome.val_mape.is_finite());
    tracer
}

/// The counters and events of [`optimized_run`].
fn optimized_snapshot(seed: u64) -> Snapshot {
    optimized_run(seed).events()
}

#[test]
fn search_history_matches_the_iteration_budget() {
    let snap = optimized_snapshot(11);
    let trials = snap.events_of("search", "trial");
    assert_eq!(trials.len(), MAX_ITERS, "one search event per BO iteration");
    for (i, trial) in trials.iter().enumerate() {
        assert_eq!(trial.index, i as u64);
        assert!(trial.num("val_mape").unwrap().is_finite());
        assert!(trial.field("hyperparams").is_some());
    }
    // The Bayesian optimizer records its own view of the same budget.
    assert_eq!(snap.events_of("bayesopt", "trial").len(), MAX_ITERS);
}

#[test]
fn incumbent_trajectory_is_monotone_non_increasing() {
    let snap = optimized_snapshot(11);
    let trials = snap.events_of("search", "trial");
    let mut prev = f64::INFINITY;
    let mut best = f64::INFINITY;
    for trial in &trials {
        let incumbent = trial.num("incumbent").unwrap();
        assert!(
            incumbent <= prev,
            "incumbent went up: {prev} -> {incumbent}"
        );
        best = best.min(trial.num("val_mape").unwrap());
        assert_eq!(incumbent, best, "incumbent must track the running best");
        prev = incumbent;
    }
}

#[test]
fn trainer_epochs_record_finite_losses() {
    let tracer = optimized_run(12);
    let snap = tracer.events();
    let epochs: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == "epoch" && e.scope.starts_with("trainer/"))
        .collect();
    assert!(!epochs.is_empty(), "no trainer epoch events recorded");
    for epoch in &epochs {
        let train_mse = epoch.num("train_mse").unwrap();
        assert!(train_mse.is_finite() && train_mse >= 0.0);
        assert!(epoch.num("batches").unwrap() >= 1.0);
    }
    // Per candidate, the best-so-far training loss must improve on the
    // first epoch for at least one candidate (the loop is learning), and
    // the events_of ordering gives epochs in index order per scope.
    let mut any_improved = false;
    let scopes: std::collections::BTreeSet<_> =
        epochs.iter().map(|e| e.scope.clone()).collect();
    for scope in &scopes {
        let losses: Vec<f64> = snap
            .events_of(scope, "epoch")
            .iter()
            .map(|e| e.num("train_mse").unwrap())
            .collect();
        let first = losses[0];
        let best = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best <= first);
        if best < first {
            any_improved = true;
        }
    }
    assert!(any_improved, "no candidate's training loss ever improved");
    // The epoch counter aggregates exactly the recorded epoch events.
    assert_eq!(snap.counter("trainer.epochs"), epochs.len() as u64);
    // One candidate evaluation per trial: the winner is kept, not
    // retrained.
    assert_eq!(snap.counter("framework.candidate_evals"), MAX_ITERS as u64);
    // Each fit's wall time is its `train` span.
    let trace = tracer.snapshot();
    assert!(trace.spans.iter().any(|s| s.leaf() == "train"));
}

#[test]
fn snapshot_exports_valid_json_with_framework_summary() {
    let tracer = optimized_run(13);
    let snap = tracer.events();
    // Re-parse via the same JSON path the CLI / bench binaries use.
    let json = snap.to_json();
    assert_eq!(validate_events(&json), Ok(snap.events.len()));
    let parsed = Snapshot::from_json(&json).unwrap();
    assert_eq!(parsed.counters, snap.counters);
    assert_eq!(parsed.events, snap.events);

    let summary = parsed.events_of("framework", "optimize");
    assert_eq!(summary.len(), 1);
    assert_eq!(summary[0].num("trials").unwrap() as usize, MAX_ITERS);
    assert!(summary[0].field("selected").is_some());
    // The run's wall time is its one `search` root span.
    let trace = tracer.snapshot();
    assert_eq!(trace.root_count(), 1);
    assert_eq!(
        trace
            .spans_with_prefix("search")
            .iter()
            .filter(|s| s.path.len() == 1)
            .count(),
        1
    );
}

#[test]
fn identical_runs_record_identical_logical_telemetry() {
    // Events carry no wall-clock fields, so two runs with the same seed
    // must write byte-identical counters and events.
    let a = optimized_snapshot(14);
    let b = optimized_snapshot(14);
    assert!(!a.events.is_empty());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn grid_search_candidates_record_through_the_tracer() {
    let tracer = Tracer::enabled();
    let mut config = FrameworkConfig::fast_preset(15).with_tracer(tracer.clone());
    config.max_iters = MAX_ITERS;
    config.strategy = SearchStrategy::Grid;
    let outcome = LoadDynamics::new(config).optimize(&seasonal_series(240));
    assert!(outcome.val_mape.is_finite());
    let snap = tracer.events();
    // One candidate evaluation per grid point: the winner is kept, not
    // retrained.
    assert_eq!(snap.counter("framework.candidate_evals"), MAX_ITERS as u64);
    assert_eq!(snap.events_of("search", "trial").len(), MAX_ITERS);
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == "fit" && e.scope.starts_with("trainer/")));
    assert!(snap.counter("trainer.epochs") > 0);
    // Each grid point runs under its own `search/trial#i` span, with its
    // training nested below.
    let trace = tracer.snapshot();
    let trial_spans = trace
        .spans
        .iter()
        .filter(|s| s.path.len() == 2 && s.path[1].name == "trial")
        .count();
    assert_eq!(trial_spans, MAX_ITERS);
    assert!(trace
        .spans
        .iter()
        .any(|s| s.leaf() == "train" && s.path.len() > 2 && s.path[1].name == "trial"));
}
