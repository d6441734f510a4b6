//! Phases 3–5 of the Fig. 6 workflow: the self-optimization loop and the
//! final walk-forward predictor.

use std::cmp::Ordering;
use std::sync::{Mutex, PoisonError};

use ld_api::{walk_forward_range, FrameworkError, Partition, Predictor, Series};
use ld_bayesopt::{BayesianOptimizer, BoOptions, GridSearch, OptResult, RandomSearch, SearchSpace};
use ld_faultinject::FaultPlan;
use ld_nn::LstmForecaster;

use crate::hyperparams::HyperParams;
use crate::pipeline::{evaluate_hyperparams_traced, EvalOutcome, TrainBudget};
use crate::space;

/// Which hyperparameter search drives the self-optimization.
///
/// The paper evaluates all three and ships Bayesian optimization
/// (Section III-A); the others remain available for the
/// `ablation_optimizers` experiment and for brute-force reference searches.
#[derive(Debug, Clone)]
pub enum SearchStrategy {
    /// GP-surrogate Bayesian optimization (the paper's choice).
    Bayesian(BoOptions),
    /// Uniform random search.
    Random,
    /// Full-factorial grid search (the `LSTMBruteForce` bar of Fig. 9 uses
    /// this with a budget equal to the whole grid).
    Grid,
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::Bayesian(BoOptions::default())
    }
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Hyperparameter search space (Table III).
    pub space: SearchSpace,
    /// Optimization iterations (`maxIters`; 100 in the paper).
    pub max_iters: usize,
    /// Per-candidate training budget.
    pub budget: TrainBudget,
    /// Master seed (drives model init, shuffling and the search).
    pub seed: u64,
    /// Search strategy.
    pub strategy: SearchStrategy,
    /// Tracer for the search/training hierarchy: spans, counters and
    /// events. Disabled by default: recording methods become single-branch
    /// no-ops and the framework's outputs are bitwise identical to an
    /// untraced run.
    pub tracer: ld_telemetry::Tracer,
    /// Fault plan of the run: the trainer's `nan_loss` site and the
    /// surrogate fit's `cholesky` site draw from it. Disarmed by default.
    pub faults: FaultPlan,
    /// Wall-clock deadline for the hyperparameter search, in seconds,
    /// mirroring the paper's 3-hour per-configuration budget. Applied to
    /// the Bayesian strategy (unless its own [`BoOptions::deadline_secs`]
    /// is already set); `None` never reads the clock, keeping seeded runs
    /// bit-reproducible.
    pub deadline_secs: Option<f64>,
}

impl FrameworkConfig {
    /// The paper's configuration: full Table III space, 100 BO iterations.
    /// Pass `facebook = true` for the reduced Facebook space.
    pub fn paper_preset(facebook: bool, seed: u64) -> Self {
        FrameworkConfig {
            space: if facebook {
                space::facebook_space()
            } else {
                space::paper_space()
            },
            max_iters: 100,
            budget: TrainBudget::default(),
            seed,
            strategy: SearchStrategy::default(),
            tracer: ld_telemetry::Tracer::disabled(),
            faults: FaultPlan::disarmed(),
            // The paper's Section IV budget: three hours per configuration.
            deadline_secs: Some(3.0 * 3600.0),
        }
    }

    /// A laptop-scale preset: proportionally scaled space and a small
    /// iteration budget. Used by tests, examples and the fast experiment
    /// mode (`LD_FAST=1`).
    pub fn fast_preset(seed: u64) -> Self {
        FrameworkConfig {
            space: space::scaled_space(24, 12, 2, 64),
            max_iters: 8,
            budget: TrainBudget::tiny(),
            seed,
            strategy: SearchStrategy::Bayesian(BoOptions {
                init_points: 3,
                ..BoOptions::default()
            }),
            tracer: ld_telemetry::Tracer::disabled(),
            faults: FaultPlan::disarmed(),
            deadline_secs: None,
        }
    }

    /// Returns the same configuration with tracing enabled (or replaced).
    pub fn with_tracer(mut self, tracer: ld_telemetry::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Returns the same configuration under the fault plan `faults`.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The LoadDynamics framework: give it a JAR series, get back a tuned
/// predictor.
#[derive(Debug, Clone)]
pub struct LoadDynamics {
    config: FrameworkConfig,
}

/// The result of a full self-optimization run.
pub struct OptimizationOutcome {
    /// The tuned predictor (phase 5 of Fig. 6).
    pub predictor: OptimizedPredictor,
    /// The hyperparameters of the selected model.
    pub hyperparams: HyperParams,
    /// Its cross-validation MAPE in percent.
    pub val_mape: f64,
    /// Full trial history (for Table IV and the convergence ablations).
    pub trials: OptResult,
}

impl LoadDynamics {
    /// Builds the framework.
    pub fn new(config: FrameworkConfig) -> Self {
        assert!(config.max_iters >= 1, "max_iters must be >= 1");
        LoadDynamics { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Runs the full Fig. 6 workflow on a workload series using the
    /// paper's 60/20/20 partition.
    pub fn optimize(&self, series: &Series) -> OptimizationOutcome {
        let partition = Partition::paper_default(series.len());
        self.optimize_with_partition(series, &partition)
    }

    /// [`LoadDynamics::optimize`] with input validation reported as a
    /// [`FrameworkError`] instead of a panic.
    pub fn try_optimize(&self, series: &Series) -> Result<OptimizationOutcome, FrameworkError> {
        let partition = Partition::paper_default(series.len());
        self.try_optimize_with_partition(series, &partition)
    }

    /// Runs the workflow with an explicit partition (the auto-scaling case
    /// study trains on a prefix of the trace).
    pub fn optimize_with_partition(
        &self,
        series: &Series,
        partition: &Partition,
    ) -> OptimizationOutcome {
        assert_eq!(series.len(), partition.len, "partition/series mismatch");
        assert!(
            partition.train_end >= 8,
            "training partition too small ({} intervals)",
            partition.train_end
        );
        self.run_search(series, partition)
    }

    /// [`LoadDynamics::optimize_with_partition`] with input validation
    /// reported as a [`FrameworkError`] instead of a panic.
    pub fn try_optimize_with_partition(
        &self,
        series: &Series,
        partition: &Partition,
    ) -> Result<OptimizationOutcome, FrameworkError> {
        if series.len() != partition.len {
            return Err(FrameworkError::invalid_input(format!(
                "partition/series mismatch: series has {} intervals, partition covers {}",
                series.len(),
                partition.len
            )));
        }
        if partition.train_end < 8 {
            return Err(FrameworkError::invalid_input(format!(
                "training partition too small ({} intervals)",
                partition.train_end
            )));
        }
        Ok(self.run_search(series, partition))
    }

    fn run_search(&self, series: &Series, partition: &Partition) -> OptimizationOutcome {
        let values = &series.values;
        let budget = self.config.budget;
        let seed = self.config.seed;
        let tracer = &self.config.tracer;
        let faults = &self.config.faults;

        // Root of the span hierarchy: everything in the Fig. 6 workflow —
        // init design, BO iterations and candidate training — nests under
        // `search`.
        let search_guard = tracer.span("search");
        let search_tracer = search_guard.tracer();

        // Fig. 6 steps 1-3, iterated maxIters times by the chosen search.
        // The second argument is the trial-scoped tracer handed down by the
        // optimizer, so every strategy's candidates record under `search`.
        // Each trained candidate that ties or beats the lowest error so far
        // is kept (usually one at a time, so the search stays memory-flat);
        // step 4 picks the winner among them.
        let kept = Mutex::new(Vec::new());
        let objective =
            |params: &[ld_bayesopt::ParamValue], trial_tracer: &ld_telemetry::Tracer| -> f64 {
                let hp = HyperParams::from_params(params);
                let outcome = evaluate_hyperparams_traced(
                    values,
                    partition,
                    hp,
                    &budget,
                    seed,
                    trial_tracer,
                    faults,
                );
                let val_mape = outcome.val_mape;
                keep_if_best(&kept, hp, outcome);
                val_mape
            };
        let trials = match &self.config.strategy {
            SearchStrategy::Bayesian(opts) => {
                let mut bo_opts = *opts;
                if bo_opts.deadline_secs.is_none() {
                    bo_opts.deadline_secs = self.config.deadline_secs;
                }
                BayesianOptimizer::new(bo_opts)
                    .with_tracer(search_tracer.clone())
                    .with_faults(faults.clone())
                    .optimize_traced(&self.config.space, &objective, self.config.max_iters, seed)
            }
            SearchStrategy::Random => RandomSearch.optimize_traced(
                &self.config.space,
                &objective,
                self.config.max_iters,
                seed,
                &search_tracer,
            ),
            SearchStrategy::Grid => GridSearch.optimize_traced(
                &self.config.space,
                &objective,
                self.config.max_iters,
                seed,
                &search_tracer,
            ),
        };

        // Strategy-agnostic trial history: one event per candidate in
        // evaluation order (the optimizers return an ordered history, so
        // these keys are deterministic regardless of evaluation threading).
        if tracer.is_enabled() {
            let mut incumbent = f64::INFINITY;
            for (i, trial) in trials.trials.iter().enumerate() {
                incumbent = incumbent.min(trial.value);
                let hp = HyperParams::from_params(&trial.params);
                tracer.record_with("search", "trial", i as u64, |e| {
                    e.text("hyperparams", hp.to_string())
                        .num("val_mape", trial.value)
                        .num("incumbent", incumbent);
                });
            }
        }

        // Step 4: select the lowest-error model. The initial design may
        // finish its trials in any order, so the search's own `best()`
        // (lowest error, then lowest trial index) names the winner, and its
        // hyperparameters find it among the kept ties. A hyperparameter set
        // always trains to the same bits, so this is the model a retrain of
        // the winner would compute.
        let hyperparams = HyperParams::from_params(&trials.best().params);
        let outcome = kept
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .find(|(hp, _)| *hp == hyperparams)
            .and_then(|(_, outcome)| Some((outcome.model?, outcome.scaler, outcome.val_mape)));
        drop(search_guard);

        // Graceful degradation: when even the selected candidate cannot
        // produce a model (every trial infeasible or diverged — possible
        // under fault injection or a hostile series), fall back to the best
        // cheap baseline predictor instead of aborting. A degraded but
        // finite forecast keeps downstream auto-scaling alive.
        let (predictor, val_mape) = match outcome {
            Some((model, scaler, val_mape)) => {
                // Training returns the best epoch's snapshot, whose packed
                // panels start cold: pack them now, not on the first
                // forecast.
                model.pack_panels();
                (
                    OptimizedPredictor {
                        name: format!("LoadDynamics({})", series.name),
                        kind: PredictorKind::Lstm {
                            model,
                            scaler,
                            history_len: hyperparams.history_len,
                        },
                    },
                    val_mape,
                )
            }
            None => {
                let (kind, mape) = select_fallback(series, partition);
                tracer.incr("framework.fallback");
                tracer.record_with("framework", "fallback", 0, |e| {
                    e.text("series", series.name.clone())
                        .text("baseline", kind.label())
                        .num("val_mape", mape);
                });
                (
                    OptimizedPredictor {
                        name: format!("LoadDynamics({}, fallback={})", series.name, kind.label()),
                        kind: PredictorKind::Baseline { kind },
                    },
                    mape,
                )
            }
        };

        tracer.record_with("framework", "optimize", 0, |e| {
            e.text("series", series.name.clone())
                .text("selected", hyperparams.to_string())
                .num("val_mape", val_mape)
                .int("trials", trials.trials.len() as u64);
        });

        OptimizationOutcome {
            predictor,
            hyperparams,
            val_mape,
            trials,
        }
    }
}

/// Keeps `outcome` in `kept` if its error ties or beats every kept one,
/// dropping those it beats. `kept` then holds every distinct candidate at
/// the lowest error seen so far, in whatever order concurrent trials
/// finished: callers select from it by hyperparameters, never by position.
fn keep_if_best(
    kept: &Mutex<Vec<(HyperParams, EvalOutcome)>>,
    hp: HyperParams,
    outcome: EvalOutcome,
) {
    let mut kept = kept.lock().unwrap_or_else(PoisonError::into_inner);
    let order = kept.first().map(|(_, o)| outcome.val_mape.total_cmp(&o.val_mape));
    match order {
        Some(Ordering::Greater) => {}
        Some(Ordering::Equal) => {
            if kept.iter().all(|(h, _)| *h != hp) {
                kept.push((hp, outcome));
            }
        }
        Some(Ordering::Less) | None => {
            kept.clear();
            kept.push((hp, outcome));
        }
    }
}

/// Scores the cheap smoothing baselines on the cross-validation segment
/// (walk-forward MAPE) and returns the winner. Used only on the degraded
/// path, so cost is irrelevant next to the failed LSTM search.
fn select_fallback(series: &Series, partition: &Partition) -> (FallbackKind, f64) {
    let start = partition.train_end;
    let end = partition.val_end.min(series.len());
    let mut best = (FallbackKind::Wma, f64::INFINITY);
    if start == 0 || start >= end {
        return best;
    }
    for kind in [FallbackKind::Wma, FallbackKind::Ema, FallbackKind::HoltDes] {
        let mut p = kind.instantiate();
        let mape = walk_forward_range(p.as_mut(), series, start, end).mape();
        if mape.total_cmp(&best.1) == Ordering::Less {
            best = (kind, mape);
        }
    }
    best
}

/// The baseline a degraded framework run falls back to. Stateless: the
/// smoothing predictors recompute from history on every call, so the tag
/// alone reconstructs the predictor after deserialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FallbackKind {
    /// Weighted moving average.
    Wma,
    /// Exponential moving average.
    Ema,
    /// Holt's double exponential smoothing.
    HoltDes,
}

impl FallbackKind {
    /// Human-readable label (matches the baseline's `Predictor::name`).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackKind::Wma => "WMA",
            FallbackKind::Ema => "EMA",
            FallbackKind::HoltDes => "HoltWintersDES",
        }
    }

    fn instantiate(&self) -> Box<dyn Predictor> {
        match self {
            FallbackKind::Wma => Box::new(ld_baselines::smoothing::Wma::default()),
            FallbackKind::Ema => Box::new(ld_baselines::smoothing::Ema::default()),
            FallbackKind::HoltDes => Box::new(ld_baselines::smoothing::HoltDes::default()),
        }
    }

    /// The baseline's forecast from `history`. `max` ignores NaN, so even
    /// a pathological history yields a usable non-negative forecast.
    fn forecast(&self, history: &[f64]) -> f64 {
        self.instantiate().predict(history).max(0.0)
    }
}

/// What a tuned predictor actually runs: the trained LSTM, or a baseline
/// the framework gracefully degraded to when no LSTM candidate survived.
#[derive(serde::Serialize, serde::Deserialize)]
enum PredictorKind {
    /// The normal outcome: a trained LSTM with its scaler.
    Lstm {
        model: LstmForecaster,
        scaler: ld_api::MinMaxScaler,
        history_len: usize,
    },
    /// Degraded outcome: a stateless smoothing baseline.
    Baseline { kind: FallbackKind },
}

/// The tuned walk-forward predictor produced by [`LoadDynamics::optimize`]
/// (phase 5 of Fig. 6). Implements the same [`Predictor`] interface as the
/// baselines, so one harness evaluates everything. Serializable, so a
/// predictor tuned once (hours of search in the paper's full setup) can be
/// deployed without re-optimizing.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct OptimizedPredictor {
    name: String,
    kind: PredictorKind,
}

impl OptimizedPredictor {
    /// The tuned history length `n` (1 for a degraded baseline predictor,
    /// which manages its own lookback internally).
    pub fn history_len(&self) -> usize {
        match &self.kind {
            PredictorKind::Lstm { history_len, .. } => *history_len,
            PredictorKind::Baseline { .. } => 1,
        }
    }

    /// Access to the underlying trained model (for snapshots). `None` when
    /// the framework degraded to a baseline.
    pub fn model(&self) -> Option<&LstmForecaster> {
        match &self.kind {
            PredictorKind::Lstm { model, .. } => Some(model),
            PredictorKind::Baseline { .. } => None,
        }
    }

    /// The normalization scaler fitted during optimization (for snapshots).
    /// `None` when the framework degraded to a baseline.
    pub fn scaler(&self) -> Option<ld_api::MinMaxScaler> {
        match &self.kind {
            PredictorKind::Lstm { scaler, .. } => Some(*scaler),
            PredictorKind::Baseline { .. } => None,
        }
    }

    /// True if this predictor is a graceful-degradation baseline rather
    /// than a tuned LSTM.
    pub fn is_fallback(&self) -> bool {
        matches!(self.kind, PredictorKind::Baseline { .. })
    }

    /// The fallback baseline's label, when degraded.
    pub fn fallback_name(&self) -> Option<&'static str> {
        match &self.kind {
            PredictorKind::Lstm { .. } => None,
            PredictorKind::Baseline { kind } => Some(kind.label()),
        }
    }

    /// Serializes the predictor (model + scaler + metadata) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("predictor serialization")
    }

    /// Restores a predictor saved with [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the predictor snapshot to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a predictor snapshot from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Predictor for OptimizedPredictor {
    fn name(&self) -> String {
        match &self.kind {
            PredictorKind::Lstm { .. } => "LoadDynamics".into(),
            PredictorKind::Baseline { kind } => {
                format!("LoadDynamics[fallback={}]", kind.label())
            }
        }
    }

    // The model was trained during optimize(); the walk-forward harness's
    // fit call needs no work (the paper trains once and predicts the whole
    // test partition, Section IV-B).
    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        assert!(!history.is_empty(), "history must be non-empty");
        match &self.kind {
            PredictorKind::Lstm {
                model,
                scaler,
                history_len,
            } => {
                let mut window = Vec::with_capacity(*history_len);
                scaler.push_window(&mut window, history, *history_len);
                // A non-finite model output is answered as a degraded
                // predictor would answer it.
                scaler
                    .forecast(model.predict(&window))
                    .unwrap_or_else(|| FallbackKind::Wma.forecast(history))
            }
            PredictorKind::Baseline { kind } => kind.forecast(history),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_api::walk_forward;

    fn seasonal_series(len: usize) -> Series {
        Series::new(
            "seasonal",
            30,
            (0..len)
                .map(|i| 100.0 + 40.0 * (i as f64 * 0.3).sin())
                .collect(),
        )
    }

    #[test]
    fn end_to_end_beats_trivial_error_on_seasonal_series() {
        let series = seasonal_series(300);
        let framework = LoadDynamics::new(FrameworkConfig::fast_preset(3));
        let outcome = framework.optimize(&series);
        assert!(
            outcome.val_mape < 15.0,
            "val MAPE {} with {}",
            outcome.val_mape,
            outcome.hyperparams
        );
        // Walk-forward on the untouched test partition.
        let partition = Partition::paper_default(series.len());
        let mut predictor = outcome.predictor;
        let result = walk_forward(&mut predictor, &series, partition.val_end);
        assert!(result.mape() < 20.0, "test MAPE {}", result.mape());
    }

    #[test]
    fn trials_count_matches_max_iters() {
        let series = seasonal_series(200);
        let mut config = FrameworkConfig::fast_preset(1);
        config.max_iters = 5;
        let outcome = LoadDynamics::new(config).optimize(&series);
        assert_eq!(outcome.trials.trials.len(), 5);
    }

    #[test]
    fn selected_hyperparams_are_inside_the_space() {
        let series = seasonal_series(220);
        let outcome = LoadDynamics::new(FrameworkConfig::fast_preset(2)).optimize(&series);
        let hp = outcome.hyperparams;
        assert!(hp.history_len >= 1 && hp.history_len <= 24);
        assert!(hp.cell_size >= 1 && hp.cell_size <= 12);
        assert!(hp.num_layers >= 1 && hp.num_layers <= 2);
        assert!(hp.batch_size >= 8 && hp.batch_size <= 64);
    }

    #[test]
    fn random_and_grid_strategies_work() {
        let series = seasonal_series(200);
        for strategy in [SearchStrategy::Random, SearchStrategy::Grid] {
            let mut config = FrameworkConfig::fast_preset(4);
            config.max_iters = 4;
            config.strategy = strategy;
            let outcome = LoadDynamics::new(config).optimize(&series);
            assert!(outcome.val_mape.is_finite());
        }
    }

    #[test]
    fn predictor_pads_short_history() {
        let series = seasonal_series(200);
        let outcome = LoadDynamics::new(FrameworkConfig::fast_preset(5)).optimize(&series);
        let mut p = outcome.predictor;
        // Shorter history than the tuned window must still produce a finite
        // non-negative prediction.
        let v = p.predict(&[100.0, 120.0]);
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn non_finite_model_outputs_answer_the_wma_fallback() {
        let history: Vec<f64> = (0..12).map(|i| 50.0 + f64::from(i) * 2.0).collect();
        let wma = FallbackKind::Wma.forecast(&history);
        assert!(wma.is_finite() && wma > 0.0);
        let scaler = ld_api::MinMaxScaler::fit(&history);
        for y in [0.25, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            // Zero weights and `y` as the head's bias, visited last: the
            // model outputs `y` for every window.
            let mut model = LstmForecaster::new(ld_nn::ForecasterConfig {
                history_len: 4,
                hidden_size: 3,
                num_layers: 1,
                seed: 0,
            });
            let grads = model.zero_grads();
            let mut left = 0;
            model.visit_params(&grads, &mut |_, _| left += 1);
            model.visit_params(&grads, &mut |p, _| {
                left -= 1;
                p.as_mut_slice().fill(if left == 0 { y } else { 0.0 });
            });
            let mut predictor = OptimizedPredictor {
                name: "constant".into(),
                kind: PredictorKind::Lstm {
                    model,
                    scaler,
                    history_len: 4,
                },
            };
            let want = if y.is_finite() {
                scaler.inverse(y)
            } else {
                wma
            };
            assert_eq!(
                predictor.predict(&history).to_bits(),
                want.to_bits(),
                "output {y}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_with_identical_predictions() {
        let series = seasonal_series(200);
        let outcome = LoadDynamics::new(FrameworkConfig::fast_preset(6)).optimize(&series);
        let mut original = outcome.predictor;
        let json = original.to_json();
        let mut restored = OptimizedPredictor::from_json(&json).unwrap();
        for end in [120usize, 150, 200] {
            assert_eq!(
                original.predict(&series.values[..end]),
                restored.predict(&series.values[..end]),
            );
        }
        assert_eq!(original.history_len(), restored.history_len());
    }

    #[test]
    fn try_optimize_reports_invalid_input_instead_of_panicking() {
        let framework = LoadDynamics::new(FrameworkConfig::fast_preset(1));
        // Partition sized for a different series length.
        let series = seasonal_series(200);
        let wrong = Partition::paper_default(100);
        let err = match framework.try_optimize_with_partition(&series, &wrong) {
            Err(e) => e,
            Ok(_) => panic!("mismatched partition must be rejected"),
        };
        assert!(err.to_string().contains("partition/series mismatch"), "{err}");
        // Training partition too small.
        let tiny = seasonal_series(10);
        let err = match framework.try_optimize(&tiny) {
            Err(e) => e,
            Ok(_) => panic!("tiny series must be rejected"),
        };
        assert!(err.to_string().contains("too small"), "{err}");
    }

    #[test]
    fn try_optimize_matches_optimize_on_valid_input() {
        let series = seasonal_series(200);
        let mut config = FrameworkConfig::fast_preset(4);
        config.max_iters = 3;
        let framework = LoadDynamics::new(config);
        let a = framework.optimize(&series);
        let b = framework.try_optimize(&series).unwrap();
        assert_eq!(a.hyperparams, b.hyperparams);
        assert_eq!(a.val_mape.to_bits(), b.val_mape.to_bits());
    }

    #[test]
    fn degrades_to_baseline_when_no_candidate_survives() {
        // Rate-1.0 NaN-loss injection: every LSTM trial diverges, so the
        // framework must fall back to the best smoothing baseline.
        let faults = FaultPlan::new(ld_faultinject::FaultConfig::new(3).with_site(
            ld_faultinject::FaultSite::NanLoss,
            1.0,
            None,
        ));
        let series = seasonal_series(220);
        let mut config = FrameworkConfig::fast_preset(3).with_faults(faults);
        config.max_iters = 4;
        let outcome = LoadDynamics::new(config).optimize(&series);

        assert!(outcome.predictor.is_fallback());
        assert!(outcome.predictor.fallback_name().is_some());
        assert!(outcome.predictor.model().is_none());
        assert!(
            outcome.val_mape.is_finite() && outcome.val_mape < 100.0,
            "fallback val MAPE {}",
            outcome.val_mape
        );
        // The degraded predictor is live and serializable.
        let mut p = outcome.predictor;
        let v = p.predict(&series.values[..100]);
        assert!(v.is_finite() && v >= 0.0);
        let mut restored = OptimizedPredictor::from_json(&p.to_json()).unwrap();
        assert_eq!(
            p.predict(&series.values[..150]),
            restored.predict(&series.values[..150])
        );
        assert!(restored.is_fallback());
    }

    /// Checks that `config`'s search returns exactly the model its best
    /// trial trained: the predictor's model serializes like one evaluation
    /// of the best trial's hyperparameters, with the same scaler and the
    /// same validation MAPE bits.
    fn assert_returns_the_best_trials_model(config: FrameworkConfig, series: &Series) {
        let outcome = LoadDynamics::new(config.clone()).optimize(series);
        let best = HyperParams::from_params(&outcome.trials.best().params);
        assert_eq!(outcome.hyperparams, best);
        let partition = Partition::paper_default(series.len());
        let want = evaluate_hyperparams_traced(
            &series.values,
            &partition,
            best,
            &config.budget,
            config.seed,
            &ld_telemetry::Tracer::disabled(),
            &config.faults,
        );
        let model = outcome.predictor.model().expect("a trained winner");
        assert_eq!(model.to_json(), want.model.expect("the winner trains").to_json());
        assert_eq!(outcome.predictor.scaler(), Some(want.scaler));
        assert_eq!(outcome.val_mape.to_bits(), want.val_mape.to_bits());
        assert_eq!(outcome.val_mape.to_bits(), outcome.trials.best().value.to_bits());
    }

    #[test]
    fn optimize_returns_the_best_trials_model_under_every_strategy() {
        let series = seasonal_series(200);
        // The Bayesian initial design evaluates its points in parallel.
        assert_returns_the_best_trials_model(FrameworkConfig::fast_preset(8), &series);
        for strategy in [SearchStrategy::Random, SearchStrategy::Grid] {
            let mut config = FrameworkConfig::fast_preset(9);
            config.max_iters = 5;
            config.strategy = strategy;
            assert_returns_the_best_trials_model(config, &series);
        }
    }

    #[test]
    fn optimize_returns_the_best_trials_model_under_nan_losses() {
        let faults = FaultPlan::new(ld_faultinject::FaultConfig::new(4).with_site(
            ld_faultinject::FaultSite::NanLoss,
            0.5,
            None,
        ));
        let config = FrameworkConfig::fast_preset(10).with_faults(faults);
        let series = seasonal_series(200);
        let outcome = LoadDynamics::new(config.clone()).optimize(&series);
        // The plan afflicts some candidates and spares the winner.
        assert!(outcome
            .trials
            .trials
            .iter()
            .any(|t| t.value == crate::pipeline::INFEASIBLE_MAPE));
        assert_returns_the_best_trials_model(config, &series);
    }

    #[test]
    fn all_infeasible_search_degrades_to_the_fallback() {
        // Every history length exceeds the 132-interval training partition.
        let mut config = FrameworkConfig::fast_preset(11);
        config.space = SearchSpace::new(vec![
            ld_bayesopt::Dim::int("hist_len", 200, 300),
            ld_bayesopt::Dim::int("c_size", 1, 4),
            ld_bayesopt::Dim::int("layers", 1, 1),
            ld_bayesopt::Dim::int("batch", 8, 16),
        ]);
        config.max_iters = 4;
        let outcome = LoadDynamics::new(config).optimize(&seasonal_series(220));
        assert!(outcome
            .trials
            .trials
            .iter()
            .all(|t| t.value == crate::pipeline::INFEASIBLE_MAPE));
        assert!(outcome.predictor.is_fallback());
        assert!(outcome.val_mape.is_finite() && outcome.val_mape < 100.0);
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let series = seasonal_series(200);
        let outcome = LoadDynamics::new(FrameworkConfig::fast_preset(7)).optimize(&series);
        let mut original = outcome.predictor;
        let path = std::env::temp_dir().join("ld_predictor_snapshot_test.json");
        original.save(&path).unwrap();
        let mut loaded = OptimizedPredictor::load(&path).unwrap();
        assert_eq!(
            original.predict(&series.values),
            loaded.predict(&series.values)
        );
        std::fs::remove_file(&path).ok();
    }
}
