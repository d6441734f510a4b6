//! Phase 1–2 of the Fig. 6 workflow: train an LSTM for one hyperparameter
//! set and measure its cross-validation MAPE.
//!
//! The JAR series is min-max normalized with constants fitted on the
//! *training* partition only. Training windows come entirely from the
//! training partition; validation targets are the cross-validation JARs,
//! predicted from windows that may span the partition boundary (at
//! validation time the immediately preceding JARs are "known past", exactly
//! as in the paper's problem definition). Validation MAPE is computed in
//! original units.

use ld_api::{metrics, MinMaxScaler, Partition};
use ld_faultinject::FaultPlan;
use ld_nn::{make_windows, Adam, LstmForecaster, Sample, TrainOptions, Trainer};

use crate::hyperparams::HyperParams;

/// Cost controls for one training run.
///
/// The paper budgets up to three hours per workload configuration on a
/// 16-core Xeon; these caps make the same pipeline tractable at test and
/// bench scale. `max_train_windows` keeps the most recent windows, which
/// for one-step forecasting carries the bulk of the signal.
#[derive(Debug, Clone, Copy)]
pub struct TrainBudget {
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Cap on the number of (most recent) training windows.
    pub max_train_windows: usize,
}

impl Default for TrainBudget {
    fn default() -> Self {
        TrainBudget {
            max_epochs: 40,
            patience: 6,
            learning_rate: 5e-3,
            max_train_windows: 2000,
        }
    }
}

impl TrainBudget {
    /// A deliberately small budget for unit tests and CI.
    pub fn tiny() -> Self {
        TrainBudget {
            max_epochs: 12,
            patience: 4,
            learning_rate: 1e-2,
            max_train_windows: 400,
        }
    }
}

/// A trained candidate and its validation error.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Cross-validation MAPE in percent (the BO objective).
    pub val_mape: f64,
    /// The trained model (absent when the candidate was infeasible, e.g.
    /// the history length exceeds the training partition).
    pub model: Option<LstmForecaster>,
    /// The scaler fitted on the training partition.
    pub scaler: MinMaxScaler,
}

/// Penalty MAPE assigned to infeasible candidates so the optimizer steers
/// away from them without crashing (e.g. `n` longer than the training set).
pub const INFEASIBLE_MAPE: f64 = 1.0e6;

/// Builds validation samples: for each cross-validation index `i`, the
/// window is the `n` normalized JARs preceding `i` (possibly crossing the
/// train/val boundary) and the target is the normalized JAR at `i`.
fn validation_samples(normalized: &[f64], partition: &Partition, n: usize) -> Vec<Sample> {
    let start = partition.train_end.max(n);
    (start..partition.val_end)
        .map(|i| Sample::new(normalized[i - n..i].to_vec(), normalized[i]))
        .collect()
}

/// Trains one candidate (Fig. 6 step 1) and returns its cross-validation
/// MAPE (step 2).
pub fn evaluate_hyperparams(
    values: &[f64],
    partition: &Partition,
    hp: HyperParams,
    budget: &TrainBudget,
    seed: u64,
) -> EvalOutcome {
    evaluate_hyperparams_traced(
        values,
        partition,
        hp,
        budget,
        seed,
        &ld_telemetry::Tracer::disabled(),
        &FaultPlan::disarmed(),
    )
}

/// [`evaluate_hyperparams`] with a tracer and a fault plan: the candidate's
/// training opens a `train` span under the supplied tracer (usually already
/// scoped to the search trial), with per-epoch children recorded by the
/// trainer. The candidate's validation MAPE is recorded under the
/// `"candidate/<hyperparams>"` event scope and its training epochs under
/// `"trainer/<hyperparams>"`. The hyperparameter fingerprint — not arrival
/// order — keys every event, so concurrent candidate evaluations produce
/// deterministically ordered snapshots. The trainer's `nan_loss` site draws
/// from `faults`.
pub fn evaluate_hyperparams_traced(
    values: &[f64],
    partition: &Partition,
    hp: HyperParams,
    budget: &TrainBudget,
    seed: u64,
    tracer: &ld_telemetry::Tracer,
    faults: &FaultPlan,
) -> EvalOutcome {
    let outcome = evaluate_hyperparams_inner(values, partition, hp, budget, seed, tracer, faults);
    if tracer.is_enabled() {
        tracer.incr("framework.candidate_evals");
        tracer.record_with(&format!("candidate/{hp}"), "eval", 0, |e| {
            e.num("val_mape", outcome.val_mape)
                .flag("feasible", outcome.model.is_some());
        });
    }
    outcome
}

/// Deterministic key for the `nan_loss` fault-injection site: a pure
/// function of `(hyperparams, seed)`, so every evaluation of a candidate,
/// whichever trial or thread runs it, reaches the same afflicted/clean
/// decision and trains to the same bits.
fn fault_key(hp: HyperParams, seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((hp.history_len as u64) << 48)
        ^ ((hp.cell_size as u64) << 32)
        ^ ((hp.num_layers as u64) << 16)
        ^ hp.batch_size as u64
}

fn evaluate_hyperparams_inner(
    values: &[f64],
    partition: &Partition,
    hp: HyperParams,
    budget: &TrainBudget,
    seed: u64,
    tracer: &ld_telemetry::Tracer,
    faults: &FaultPlan,
) -> EvalOutcome {
    let scaler = MinMaxScaler::fit(partition.train(values));
    let normalized = scaler.transform_all(&values[..partition.val_end]);

    let n = hp.history_len;
    // Feasibility: need at least a handful of training windows and one
    // validation sample.
    let mut train_windows = make_windows(&normalized[..partition.train_end], n);
    let val_samples = validation_samples(&normalized, partition, n);
    if train_windows.len() < 4 || val_samples.is_empty() {
        return EvalOutcome {
            val_mape: INFEASIBLE_MAPE,
            model: None,
            scaler,
        };
    }
    if train_windows.len() > budget.max_train_windows {
        let skip = train_windows.len() - budget.max_train_windows;
        train_windows.drain(..skip);
    }

    let mut model = LstmForecaster::new(ld_nn::ForecasterConfig {
        history_len: n,
        hidden_size: hp.cell_size,
        num_layers: hp.num_layers,
        seed,
    });
    let mut trainer = Trainer::new(TrainOptions {
        batch_size: hp.batch_size,
        max_epochs: budget.max_epochs,
        patience: budget.patience,
        min_delta: 1e-7,
        shuffle_seed: seed,
        max_divergence_retries: 3,
    })
    .with_faults(faults.clone(), fault_key(hp, seed));
    // The trainer opens epoch/batch children beneath the `train` span.
    let train_guard = tracer.span("train");
    if tracer.is_enabled() {
        trainer = trainer.with_tracer(train_guard.tracer(), format!("trainer/{hp}"));
    }
    let mut opt = Adam::with_lr(budget.learning_rate);
    let report = trainer.fit(&mut model, &mut opt, &train_windows, &val_samples);
    drop(train_guard);
    if report.diverged {
        // The watchdog exhausted its rollback budget: treat the candidate
        // exactly like an infeasible one, so the search steers away instead
        // of crashing or trusting garbage weights.
        tracer.incr("pipeline.diverged_trials");
        return EvalOutcome {
            val_mape: INFEASIBLE_MAPE,
            model: None,
            scaler,
        };
    }

    // Validation MAPE in original units, from the trainer's forecasts of
    // the validation set with the weights it returned.
    let preds: Vec<f64> = report
        .val_preds
        .iter()
        .map(|&p| scaler.inverse(p).max(0.0))
        .collect();
    let actuals: Vec<f64> = val_samples
        .iter()
        .map(|s| scaler.inverse(s.target))
        .collect();
    let val_mape = metrics::mape(&preds, &actuals);
    if !val_mape.is_finite() {
        tracer.incr("pipeline.nonfinite_mape");
        return EvalOutcome {
            val_mape: INFEASIBLE_MAPE,
            model: None,
            scaler,
        };
    }

    EvalOutcome {
        val_mape,
        model: Some(model),
        scaler,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_values(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 100.0 + 40.0 * (i as f64 * 0.25).sin())
            .collect()
    }

    fn hp() -> HyperParams {
        HyperParams {
            history_len: 8,
            cell_size: 8,
            num_layers: 1,
            batch_size: 32,
        }
    }

    #[test]
    fn learns_predictable_series_to_low_mape() {
        let values = sine_values(400);
        let partition = Partition::paper_default(values.len());
        let out = evaluate_hyperparams(&values, &partition, hp(), &TrainBudget::default(), 1);
        assert!(out.model.is_some());
        assert!(out.val_mape < 10.0, "val MAPE {}", out.val_mape);
    }

    #[test]
    fn infeasible_history_length_penalized_not_crashed() {
        let values = sine_values(60);
        let partition = Partition::paper_default(values.len());
        let giant = HyperParams {
            history_len: 512,
            ..hp()
        };
        let out = evaluate_hyperparams(&values, &partition, giant, &TrainBudget::tiny(), 1);
        assert_eq!(out.val_mape, INFEASIBLE_MAPE);
        assert!(out.model.is_none());
    }

    #[test]
    fn validation_windows_can_cross_partition_boundary() {
        let values = sine_values(200);
        let partition = Partition::paper_default(values.len());
        let n = 8;
        let scaler = MinMaxScaler::fit(partition.train(&values));
        let normalized = scaler.transform_all(&values[..partition.val_end]);
        let samples = validation_samples(&normalized, &partition, n);
        // One sample per validation JAR.
        assert_eq!(samples.len(), partition.val_end - partition.train_end);
        // First sample's window ends exactly at the boundary.
        assert_eq!(
            samples[0].window,
            normalized[partition.train_end - n..partition.train_end].to_vec()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let values = sine_values(250);
        let partition = Partition::paper_default(values.len());
        let a = evaluate_hyperparams(&values, &partition, hp(), &TrainBudget::tiny(), 7);
        let b = evaluate_hyperparams(&values, &partition, hp(), &TrainBudget::tiny(), 7);
        assert!((a.val_mape - b.val_mape).abs() < 1e-6);
    }

    #[test]
    fn injected_divergence_maps_to_infeasible() {
        let faults = FaultPlan::new(ld_faultinject::FaultConfig::new(5).with_site(
            ld_faultinject::FaultSite::NanLoss,
            1.0,
            None,
        ));
        let values = sine_values(250);
        let partition = Partition::paper_default(values.len());
        let out = evaluate_hyperparams_traced(
            &values,
            &partition,
            hp(),
            &TrainBudget::tiny(),
            7,
            &ld_telemetry::Tracer::disabled(),
            &faults,
        );
        assert_eq!(out.val_mape, INFEASIBLE_MAPE);
        assert!(out.model.is_none());
    }

    #[test]
    fn window_cap_is_applied() {
        let values = sine_values(1000);
        let partition = Partition::paper_default(values.len());
        let budget = TrainBudget {
            max_train_windows: 50,
            max_epochs: 2,
            ..TrainBudget::tiny()
        };
        // Just verifying it runs fast and fine with the cap.
        let out = evaluate_hyperparams(&values, &partition, hp(), &budget, 1);
        assert!(out.val_mape.is_finite());
    }
}
