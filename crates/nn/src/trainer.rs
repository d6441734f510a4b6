//! Mini-batch training loop: shuffling, in-order gradient accumulation,
//! global-norm clipping, and early stopping on a validation split.
//!
//! The loop is generic over [`Trainable`] so the stacked recurrent
//! forecasters (LSTM and GRU, one impl) and the feed-forward ablation
//! baseline share one implementation. Training is the dominant cost of the
//! whole framework (the Bayesian-optimization loop above trains hundreds of
//! these models), so a fit allocates its batch gradient, its chunk
//! accumulator and its validation buffers once and reuses them for every
//! mini-batch and epoch. A mini-batch's gradient runs on the calling
//! thread: the batch splits into the rayon shim's [`rayon::CHUNKS`]
//! balanced pieces, each piece sums into a zeroed accumulator in sample
//! order, and the pieces add into a zeroed total left to right. That is
//! the shim's `par_iter().fold(..).reduce(..)` bit for bit, with no thread
//! spawned and no gradient set built per batch; the parallelism of a search
//! sits one level up, across candidates.

use ld_faultinject::{FaultPlan, FaultSite};
use ld_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::forecaster::{ForecasterGrads, RecurrentForecaster};
use crate::loss::mse;
use crate::optim::Optimizer;
use crate::recurrent::Cell;
use crate::Sample;

/// A model the [`Trainer`] can fit: cloneable (snapshots for early
/// stopping), with an associated gradient type that can be summed.
pub trait Trainable: Clone {
    /// Gradient container matching the model structure.
    type Grads;

    /// Zeroed gradients.
    fn zero_grads(&self) -> Self::Grads;
    /// Resets `grads` in place to the `+0.0` of [`Self::zero_grads`], so a
    /// fit reuses one accumulator across mini-batches.
    fn clear(grads: &mut Self::Grads);
    /// Loss and gradients for a single sample.
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads);
    /// Loss for a single sample with its gradients *accumulated* into an
    /// existing container, returning the loss. Workspace-backed models
    /// override this to skip the per-sample gradient allocation; the
    /// default delegates to [`Self::sample_grads`].
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        let (loss, g) = self.sample_grads(window, target);
        Self::accumulate(grads, &g);
        loss
    }
    /// `into += other`.
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads);
    /// Scales gradients in place.
    fn scale(grads: &mut Self::Grads, alpha: f64);
    /// Clips the global gradient norm in place. Returns whether clipping
    /// actually rescaled the gradients (the tracer counts activations).
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool;
    /// Visits `(parameter, gradient)` tensor pairs in a fixed order: the
    /// order numbers the optimizer's state slots.
    fn visit_params(&mut self, grads: &Self::Grads, f: &mut impl FnMut(&mut Matrix, &Matrix));
    /// Applies one optimizer step with the given (already averaged) grads,
    /// the `n`-th visited tensor pair updating optimizer slot `n`.
    fn apply(&mut self, grads: &Self::Grads, opt: &mut dyn Optimizer) {
        opt.begin_step();
        let mut slot = 0usize;
        self.visit_params(grads, &mut |p, g| {
            opt.update(slot, p, g);
            slot += 1;
        });
    }
    /// Point prediction for a window.
    fn predict(&self, window: &[f64]) -> f64;
}

impl<C: Cell> Trainable for RecurrentForecaster<C> {
    type Grads = ForecasterGrads;

    fn zero_grads(&self) -> Self::Grads {
        RecurrentForecaster::zero_grads(self)
    }
    fn clear(grads: &mut Self::Grads) {
        grads.clear();
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        RecurrentForecaster::sample_grads(self, window, target)
    }
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        RecurrentForecaster::sample_grads_into(self, window, target, grads)
    }
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads) {
        into.accumulate(other);
    }
    fn scale(grads: &mut Self::Grads, alpha: f64) {
        grads.scale(alpha);
    }
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool {
        grads.clip_global_norm(max_norm)
    }
    fn visit_params(&mut self, grads: &Self::Grads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
        RecurrentForecaster::visit_params(self, grads, f);
    }
    fn predict(&self, window: &[f64]) -> f64 {
        RecurrentForecaster::predict(self, window)
    }
}

impl Trainable for crate::mlp::MlpForecaster {
    type Grads = crate::mlp::MlpGrads;

    fn zero_grads(&self) -> Self::Grads {
        crate::mlp::MlpForecaster::zero_grads(self)
    }
    fn clear(grads: &mut Self::Grads) {
        grads.clear();
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        crate::mlp::MlpForecaster::sample_grads(self, window, target)
    }
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        crate::mlp::MlpForecaster::sample_grads_into(self, window, target, grads)
    }
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads) {
        into.accumulate(other);
    }
    fn scale(grads: &mut Self::Grads, alpha: f64) {
        grads.scale(alpha);
    }
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool {
        grads.clip_global_norm(max_norm)
    }
    fn visit_params(&mut self, grads: &Self::Grads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
        crate::mlp::MlpForecaster::visit_params(self, grads, f);
    }
    fn predict(&self, window: &[f64]) -> f64 {
        crate::mlp::MlpForecaster::predict(self, window)
    }
}

/// Global gradient-norm clip applied to every mini-batch's gradient.
const CLIP_NORM: f64 = 5.0;

/// Knobs for one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Mini-batch size — the fourth hyperparameter LoadDynamics tunes.
    pub batch_size: usize,
    /// Maximum number of passes over the training data.
    pub max_epochs: usize,
    /// Early-stopping patience: stop after this many epochs without
    /// validation improvement. `0` disables early stopping.
    pub patience: usize,
    /// Minimum validation-MSE improvement that resets patience.
    pub min_delta: f64,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
    /// Divergence-watchdog budget: how many times a non-finite epoch may be
    /// rolled back (restore best weights, reset optimizer state, halve the
    /// learning rate) before the run is declared diverged. `0` disables
    /// recovery — the first non-finite epoch is terminal.
    pub max_divergence_retries: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            batch_size: 32,
            max_epochs: 60,
            patience: 8,
            min_delta: 1e-6,
            shuffle_seed: 0,
            max_divergence_retries: 3,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed (may be fewer than `max_epochs`).
    pub epochs_run: usize,
    /// Training MSE at the end of each epoch.
    pub train_losses: Vec<f64>,
    /// Validation MSE at the end of each epoch (empty when no val set).
    pub val_losses: Vec<f64>,
    /// The returned model's forecast of each validation sample, in order
    /// (empty when no val set): the validation pass of the epoch whose
    /// weights the model holds, so a caller scoring the model need not
    /// predict the set again.
    pub val_preds: Vec<f64>,
    /// Best validation MSE observed (train MSE when no val set).
    pub best_loss: f64,
    /// True if early stopping fired.
    pub early_stopped: bool,
    /// Number of watchdog rollbacks performed (non-finite epochs recovered
    /// by restoring the best snapshot and halving the learning rate).
    pub rollbacks: usize,
    /// True if the run exhausted its divergence retries and was aborted.
    /// The model still holds the best finite weights observed (the initial
    /// weights when no epoch ever finished finite), but callers should
    /// treat the trial as failed.
    pub diverged: bool,
}

/// The mini-batch trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    opts: TrainOptions,
    tracer: ld_telemetry::Tracer,
    /// Scope of the epoch / fit events recorded through `tracer`.
    scope: String,
    /// The plan the fault-injection `nan_loss` site draws from, and this
    /// run's key into it. Disarmed by default.
    faults: FaultPlan,
    fault_key: u64,
}

impl Trainer {
    /// Trainer with the given options.
    pub fn new(opts: TrainOptions) -> Self {
        assert!(opts.batch_size > 0, "batch_size must be >= 1");
        assert!(opts.max_epochs > 0, "max_epochs must be >= 1");
        Trainer {
            opts,
            tracer: ld_telemetry::Tracer::disabled(),
            scope: String::new(),
            faults: FaultPlan::disarmed(),
            fault_key: 0,
        }
    }

    /// Arms the deterministic `nan_loss` fault-injection site for this
    /// trainer. Whether this particular run is afflicted is a pure function
    /// of `key` and the plan's seed and rate, so searches replay
    /// identically. A no-op under a disarmed plan.
    pub fn with_faults(mut self, faults: FaultPlan, key: u64) -> Self {
        self.faults = faults;
        self.fault_key = key;
        self
    }

    /// Attaches a tracer (usually already scoped to the candidate's trial
    /// span). Each [`Trainer::fit`] records `epoch#e` spans with leaf
    /// `batch#b` and `validate` children. Per-epoch and per-fit events are
    /// recorded under `scope` (e.g. a hyperparameter fingerprint, so
    /// concurrent candidate trainings stay distinguishable and
    /// deterministically ordered).
    pub fn with_tracer(mut self, tracer: ld_telemetry::Tracer, scope: impl Into<String>) -> Self {
        self.tracer = tracer;
        self.scope = scope.into();
        self
    }

    /// The options in use.
    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    /// Mean squared error of `model` over `samples`.
    pub fn evaluate<M: Trainable>(model: &M, samples: &[Sample]) -> f64 {
        let mut preds = Vec::new();
        forecast_into(model, samples, &mut preds);
        let targets: Vec<f64> = samples.iter().map(|s| s.target).collect();
        mse(&preds, &targets)
    }

    /// Fits `model` on `train`, early-stopping on `val` (if non-empty).
    /// On return the model holds the weights of the best validation epoch.
    pub fn fit<M: Trainable>(
        &self,
        model: &mut M,
        opt: &mut dyn Optimizer,
        train: &[Sample],
        val: &[Sample],
    ) -> TrainReport {
        assert!(!train.is_empty(), "empty training set");
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.opts.shuffle_seed);
        // Every buffer a mini-batch or a validation pass writes, allocated
        // once per fit.
        let mut grads = model.zero_grads();
        let mut chunk_grads = model.zero_grads();
        let val_targets: Vec<f64> = val.iter().map(|s| s.target).collect();
        let mut val_preds = Vec::with_capacity(val.len());
        let mut best_val_preds = Vec::with_capacity(val.len());

        let mut best_loss = f64::INFINITY;
        let mut best_model = model.clone();
        let mut since_best = 0usize;
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();
        let mut early_stopped = false;
        let mut epochs_run = 0usize;
        // Watchdog state: each rollback halves the effective learning rate.
        let mut lr_retreat = 1.0f64;
        let mut rollbacks = 0usize;
        let mut diverged = false;
        // Deterministic per-run fault decision: an afflicted run reports a
        // non-finite loss every epoch, so it exercises the full
        // rollback-then-give-up path of the watchdog.
        let inject_nan = self.faults.hit(FaultSite::NanLoss, self.fault_key);

        let trace_on = self.tracer.is_enabled();

        for epoch in 0..self.opts.max_epochs {
            let epoch_guard = self.tracer.span_at("epoch", epoch as u64);
            let epoch_tracer = epoch_guard.tracer();
            epochs_run += 1;
            if lr_retreat != 1.0 {
                opt.set_lr_scale(lr_retreat);
            }
            order.shuffle(&mut rng);
            let mut epoch_loss_sum = 0.0;
            let mut batches = 0u64;
            let mut clipped_batches = 0u64;

            for (b, batch) in order.chunks(self.opts.batch_size).enumerate() {
                let _batch_guard = epoch_tracer.span_at("batch", b as u64);
                let loss_sum = batch_gradient(model, train, batch, &mut grads, &mut chunk_grads);
                if !loss_sum.is_finite() {
                    // Bail before applying: gradients from a non-finite
                    // batch would poison the weights and optimizer moments
                    // the watchdog is about to restore anyway.
                    epoch_loss_sum = f64::NAN;
                    break;
                }
                epoch_loss_sum += loss_sum;
                batches += 1;
                M::scale(&mut grads, 1.0 / batch.len() as f64);
                if M::clip(&mut grads, CLIP_NORM) {
                    clipped_batches += 1;
                }
                model.apply(&grads, opt);
            }

            let train_mse = if inject_nan {
                f64::NAN
            } else {
                epoch_loss_sum / train.len() as f64
            };
            train_losses.push(train_mse);
            let monitored = if val.is_empty() {
                train_mse
            } else {
                let validate_guard = epoch_tracer.span("validate");
                forecast_into(model, val, &mut val_preds);
                let v = mse(&val_preds, &val_targets);
                drop(validate_guard);
                val_losses.push(v);
                v
            };

            if !train_mse.is_finite() || !monitored.is_finite() {
                if trace_on {
                    self.tracer.incr("trainer.divergence_events");
                    self.tracer
                        .record_with(&self.scope, "divergence", epoch as u64, |e| {
                            e.int("rollbacks_used", rollbacks as u64)
                                .flag("retry", rollbacks < self.opts.max_divergence_retries);
                        });
                }
                if rollbacks >= self.opts.max_divergence_retries {
                    diverged = true;
                    break;
                }
                rollbacks += 1;
                self.tracer.incr("trainer.watchdog_rollbacks");
                // Restore the last known-good weights (the initial ones if
                // no epoch finished finite yet), drop moment estimates that
                // may have absorbed non-finite gradients, and retreat the
                // learning rate. Patience is deliberately not charged for a
                // recovered epoch.
                *model = best_model.clone();
                opt.reset();
                lr_retreat *= 0.5;
                continue;
            }

            if trace_on {
                self.tracer.incr("trainer.epochs");
                self.tracer.add("trainer.clip_activations", clipped_batches);
                self.tracer
                    .record_with(&self.scope, "epoch", epoch as u64, |e| {
                        e.num("train_mse", train_mse)
                            .int("batches", batches)
                            .int("clipped_batches", clipped_batches);
                        if !val.is_empty() {
                            e.num("val_mse", monitored);
                        }
                    });
            }

            if monitored + self.opts.min_delta < best_loss {
                best_loss = monitored;
                best_model = model.clone();
                best_val_preds.clone_from(&val_preds);
                since_best = 0;
            } else {
                since_best += 1;
                if self.opts.patience > 0 && since_best >= self.opts.patience {
                    early_stopped = true;
                    break;
                }
            }
        }

        *model = best_model;
        if best_val_preds.len() != val.len() {
            // No epoch finished finite: the model is back on its initial
            // weights, which no validation pass has forecast yet.
            forecast_into(model, val, &mut best_val_preds);
        }
        if trace_on {
            if diverged {
                self.tracer.incr("trainer.diverged_runs");
            }
            self.tracer.record_with(&self.scope, "fit", 0, |e| {
                e.int("epochs_run", epochs_run as u64)
                    .num("best_loss", best_loss)
                    .flag("early_stopped", early_stopped)
                    .int("rollbacks", rollbacks as u64)
                    .flag("diverged", diverged)
                    .text(
                        "stop_reason",
                        if diverged {
                            "diverged"
                        } else if early_stopped {
                            "patience"
                        } else {
                            "max_epochs"
                        },
                    );
            });
        }
        TrainReport {
            epochs_run,
            train_losses,
            val_losses,
            val_preds: best_val_preds,
            best_loss,
            early_stopped,
            rollbacks,
            diverged,
        }
    }
}

/// Forecasts each of `samples` into `preds`, in order, resizing `preds` to
/// `samples.len()` (which allocates only the first time).
fn forecast_into<M: Trainable>(model: &M, samples: &[Sample], preds: &mut Vec<f64>) {
    preds.resize(samples.len(), 0.0);
    for (p, s) in preds.iter_mut().zip(samples) {
        *p = model.predict(&s.window);
    }
}

/// Writes the summed gradient of the samples `batch` indexes into `grads`
/// and returns their summed loss. The batch splits like the rayon shim's
/// `par_iter`: into `min(CHUNKS, len)` contiguous pieces, the first
/// `len % pieces` one sample longer. Each piece sums into `chunk`, cleared
/// first, in sample order, and the pieces add into a cleared `grads` (and
/// their losses into `0.0`) left to right. That is the shim's
/// `fold(..).reduce(..)` from zeroed identities, bit for bit, on the
/// calling thread.
fn batch_gradient<M: Trainable>(
    model: &M,
    train: &[Sample],
    batch: &[usize],
    grads: &mut M::Grads,
    chunk: &mut M::Grads,
) -> f64 {
    M::clear(grads);
    let mut loss_sum = 0.0;
    let pieces = rayon::CHUNKS.min(batch.len());
    let (base, extra) = (batch.len() / pieces, batch.len() % pieces);
    let mut rest = batch;
    for piece in 0..pieces {
        let (head, tail) = rest.split_at(base + usize::from(piece < extra));
        rest = tail;
        M::clear(chunk);
        let mut chunk_loss = 0.0;
        for &idx in head {
            let s = &train[idx];
            chunk_loss += model.sample_grads_into(&s.window, s.target, chunk);
        }
        M::accumulate(grads, chunk);
        loss_sum += chunk_loss;
    }
    loss_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::{ForecasterConfig, LstmForecaster};
    use crate::mlp::{MlpConfig, MlpForecaster};
    use crate::optim::Adam;
    use crate::make_windows;

    fn sine_series(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect()
    }

    #[test]
    fn lstm_learns_a_sine_wave() {
        let series = sine_series(220);
        let n = 8;
        let samples = make_windows(&series, n);
        let (train, val) = samples.split_at(160);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: n,
            hidden_size: 8,
            num_layers: 1,
            seed: 1,
        });
        let before = Trainer::evaluate(&model, val);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 40,
            patience: 10,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(5e-3);
        let report = trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(
            after < before * 0.2,
            "val MSE did not drop enough: {before} -> {after}"
        );
        assert!(report.best_loss <= before);
        assert_eq!(report.train_losses.len(), report.epochs_run);
    }

    #[test]
    fn mlp_learns_linear_map() {
        // target = mean of window: trivially learnable by a linear model.
        let series: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let n = 4;
        let samples: Vec<Sample> = make_windows(&series, n)
            .into_iter()
            .map(|mut s| {
                s.target = s.window.iter().sum::<f64>() / n as f64;
                s
            })
            .collect();
        let (train, val) = samples.split_at(150);
        let mut model = MlpForecaster::new(MlpConfig {
            history_len: n,
            hidden_size: 8,
            seed: 3,
        });
        let before = Trainer::evaluate(&model, val);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 80,
            patience: 20,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(1e-2);
        trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(after < before * 0.1, "{before} -> {after}");
    }

    #[test]
    fn early_stopping_fires_on_plateau() {
        // Constant series: converges immediately, then plateaus.
        let series = vec![0.5; 80];
        let samples = make_windows(&series, 4);
        let (train, val) = samples.split_at(50);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 4,
            hidden_size: 4,
            num_layers: 1,
            seed: 2,
        });
        let trainer = Trainer::new(TrainOptions {
            batch_size: 8,
            max_epochs: 200,
            patience: 3,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(5e-3);
        let report = trainer.fit(&mut model, &mut opt, train, val);
        assert!(report.early_stopped);
        assert!(report.epochs_run < 200);
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let series = sine_series(120);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(80);
        let run = || {
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len: 6,
                hidden_size: 5,
                num_layers: 1,
                seed: 9,
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size: 100_000, // one full batch, split into CHUNKS pieces
                max_epochs: 5,
                patience: 0,
                ..TrainOptions::default()
            });
            let mut opt = Adam::with_lr(1e-3);
            trainer.fit(&mut model, &mut opt, train, val);
            Trainer::evaluate(&model, val)
        };
        // The batch splits into fixed pieces that combine in a fixed
        // order, so a seeded fit reproduces every bit.
        let (a, b) = (run(), run());
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    /// The trainer as it was when every mini-batch ran the shim's
    /// `par_iter().fold(..).reduce(..)` and validation its `par_iter().map`,
    /// minus tracing and fault injection: the oracle [`Trainer::fit`] must
    /// match bit for bit.
    fn oracle_fit<M>(
        opts: &TrainOptions,
        model: &mut M,
        opt: &mut dyn Optimizer,
        train: &[Sample],
        val: &[Sample],
    ) -> TrainReport
    where
        M: Trainable + Sync,
        M::Grads: Send,
    {
        use rayon::prelude::*;
        let evaluate = |model: &M| {
            let preds: Vec<f64> = val.par_iter().map(|s| model.predict(&s.window)).collect();
            let targets: Vec<f64> = val.iter().map(|s| s.target).collect();
            mse(&preds, &targets)
        };
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);
        let mut best_loss = f64::INFINITY;
        let mut best_model = model.clone();
        let mut since_best = 0usize;
        let (mut train_losses, mut val_losses) = (Vec::new(), Vec::new());
        let (mut early_stopped, mut diverged) = (false, false);
        let (mut epochs_run, mut rollbacks, mut lr_retreat) = (0usize, 0usize, 1.0f64);
        for _ in 0..opts.max_epochs {
            epochs_run += 1;
            if lr_retreat != 1.0 {
                opt.set_lr_scale(lr_retreat);
            }
            order.shuffle(&mut rng);
            let mut epoch_loss_sum = 0.0;
            for chunk in order.chunks(opts.batch_size) {
                let (loss_sum, mut grads) = chunk
                    .par_iter()
                    .fold(
                        || (0.0f64, model.zero_grads()),
                        |(mut ls, mut acc), &idx| {
                            let s = &train[idx];
                            ls += model.sample_grads_into(&s.window, s.target, &mut acc);
                            (ls, acc)
                        },
                    )
                    .reduce(
                        || (0.0f64, model.zero_grads()),
                        |(l1, mut g1), (l2, g2)| {
                            M::accumulate(&mut g1, &g2);
                            (l1 + l2, g1)
                        },
                    );
                if !loss_sum.is_finite() {
                    epoch_loss_sum = f64::NAN;
                    break;
                }
                epoch_loss_sum += loss_sum;
                M::scale(&mut grads, 1.0 / chunk.len() as f64);
                M::clip(&mut grads, CLIP_NORM);
                model.apply(&grads, opt);
            }
            let train_mse = epoch_loss_sum / train.len() as f64;
            train_losses.push(train_mse);
            let monitored = if val.is_empty() {
                train_mse
            } else {
                let v = evaluate(model);
                val_losses.push(v);
                v
            };
            if !train_mse.is_finite() || !monitored.is_finite() {
                if rollbacks >= opts.max_divergence_retries {
                    diverged = true;
                    break;
                }
                rollbacks += 1;
                *model = best_model.clone();
                opt.reset();
                lr_retreat *= 0.5;
                continue;
            }
            if monitored + opts.min_delta < best_loss {
                best_loss = monitored;
                best_model = model.clone();
                since_best = 0;
            } else {
                since_best += 1;
                if opts.patience > 0 && since_best >= opts.patience {
                    early_stopped = true;
                    break;
                }
            }
        }
        *model = best_model;
        let val_preds = val.par_iter().map(|s| model.predict(&s.window)).collect();
        TrainReport {
            epochs_run,
            train_losses,
            val_losses,
            val_preds,
            best_loss,
            early_stopped,
            rollbacks,
            diverged,
        }
    }

    /// A model whose first `poisoned` gradient evaluations report a NaN
    /// loss. Clones share the call counter, so the trainer's snapshots do
    /// not reset it; poisoning no more calls than one mini-batch holds
    /// rolls back exactly the first epoch, whatever thread ran the call.
    #[derive(Clone)]
    struct Poisoned<M> {
        inner: M,
        calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
        poisoned: u64,
    }

    impl<M: Trainable> Trainable for Poisoned<M> {
        type Grads = M::Grads;

        fn zero_grads(&self) -> M::Grads {
            self.inner.zero_grads()
        }
        fn clear(grads: &mut M::Grads) {
            M::clear(grads);
        }
        fn sample_grads(&self, window: &[f64], target: f64) -> (f64, M::Grads) {
            let mut grads = self.zero_grads();
            let loss = self.sample_grads_into(window, target, &mut grads);
            (loss, grads)
        }
        fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut M::Grads) -> f64 {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let loss = self.inner.sample_grads_into(window, target, grads);
            if call < self.poisoned {
                f64::NAN
            } else {
                loss
            }
        }
        fn accumulate(into: &mut M::Grads, other: &M::Grads) {
            M::accumulate(into, other);
        }
        fn scale(grads: &mut M::Grads, alpha: f64) {
            M::scale(grads, alpha);
        }
        fn clip(grads: &mut M::Grads, max_norm: f64) -> bool {
            M::clip(grads, max_norm)
        }
        fn visit_params(&mut self, grads: &M::Grads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
            self.inner.visit_params(grads, f);
        }
        fn predict(&self, window: &[f64]) -> f64 {
            self.inner.predict(window)
        }
    }

    /// Every parameter of `model`, in visit order, as bits.
    fn weight_bits<M: Trainable>(model: &M) -> Vec<u64> {
        let mut bits = Vec::new();
        let grads = model.zero_grads();
        model.clone().visit_params(&grads, &mut |p, _| {
            bits.extend(p.as_slice().iter().map(|v| v.to_bits()));
        });
        bits
    }

    fn loss_bits(losses: &[f64]) -> Vec<u64> {
        losses.iter().map(|v| v.to_bits()).collect()
    }

    /// Fits `fresh()` with [`Trainer::fit`] and with [`oracle_fit`] and
    /// checks the two runs agree bit for bit.
    fn check_against_oracle<M: Trainable + Sync>(
        what: &str,
        fresh: impl Fn() -> M,
        opts: TrainOptions,
        (train, val): (&[Sample], &[Sample]),
    ) where
        M::Grads: Send,
    {
        let (mut fast, mut oracle) = (fresh(), fresh());
        let mut opt = Adam::with_lr(1e-2);
        let got = Trainer::new(opts).fit(&mut fast, &mut opt, train, val);
        let mut opt = Adam::with_lr(1e-2);
        let want = oracle_fit(&opts, &mut oracle, &mut opt, train, val);
        let what = format!("{what} batch {}", opts.batch_size);
        let train_bits = loss_bits(&want.train_losses);
        assert_eq!(loss_bits(&got.train_losses), train_bits, "{what}: train losses");
        assert_eq!(loss_bits(&got.val_losses), loss_bits(&want.val_losses), "{what}: val losses");
        assert_eq!(loss_bits(&got.val_preds), loss_bits(&want.val_preds), "{what}: val forecasts");
        assert_eq!(weight_bits(&fast), weight_bits(&oracle), "{what}: final weights");
        let shape = |r: &TrainReport| (r.epochs_run, r.rollbacks, r.early_stopped, r.diverged);
        assert_eq!(shape(&got), shape(&want), "{what}: run shape");
        assert_eq!(got.best_loss.to_bits(), want.best_loss.to_bits(), "{what}: best loss");
    }

    #[test]
    fn fit_matches_the_parallel_fold_reduce_oracle_bitwise() {
        // 97 training windows: no batch size above 1 divides them, so
        // every epoch ends on a short batch and most batches split into
        // pieces of unequal length.
        let series = sine_series(97 + 6 + 30);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(97);
        let batches = (1..=20).chain([33, 64]);
        for batch_size in batches {
            let opts = TrainOptions {
                batch_size,
                max_epochs: 3,
                patience: 0,
                shuffle_seed: 5,
                ..TrainOptions::default()
            };
            let lstm = || {
                LstmForecaster::new(ForecasterConfig {
                    history_len: 6,
                    hidden_size: 4,
                    num_layers: 2,
                    seed: 7,
                })
            };
            check_against_oracle("lstm", lstm, opts, (train, val));
            let mlp = || {
                MlpForecaster::new(MlpConfig {
                    history_len: 6,
                    hidden_size: 5,
                    seed: 8,
                })
            };
            check_against_oracle("mlp", mlp, opts, (train, val));
        }
    }

    #[test]
    fn watchdog_rollback_matches_the_oracle_bitwise() {
        let series = sine_series(97 + 6 + 30);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(97);
        let opts = TrainOptions {
            batch_size: 13,
            max_epochs: 4,
            patience: 2,
            shuffle_seed: 3,
            ..TrainOptions::default()
        };
        let poisoned = || Poisoned {
            inner: LstmForecaster::new(ForecasterConfig {
                history_len: 6,
                hidden_size: 4,
                num_layers: 1,
                seed: 2,
            }),
            calls: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            poisoned: 5,
        };
        let (mut model, mut opt) = (poisoned(), Adam::with_lr(1e-2));
        let report = Trainer::new(opts).fit(&mut model, &mut opt, train, val);
        assert_eq!(report.rollbacks, 1, "the first epoch must roll back");
        assert!(report.train_losses[0].is_nan() && !report.diverged);
        check_against_oracle("poisoned lstm", poisoned, opts, (train, val));
    }

    #[test]
    fn val_preds_forecast_the_returned_model() {
        let series = sine_series(120);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(80);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 5,
            num_layers: 1,
            seed: 9,
        });
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 30,
            patience: 3,
            ..TrainOptions::default()
        });
        let report = trainer.fit(&mut model, &mut Adam::with_lr(2e-2), train, val);
        let want: Vec<u64> = val.iter().map(|s| model.predict(&s.window).to_bits()).collect();
        assert_eq!(loss_bits(&report.val_preds), want);
        // A run whose every epoch rolls back keeps its initial weights, and
        // still forecasts the validation set with them.
        let mut model = Poisoned {
            inner: LstmForecaster::new(ForecasterConfig {
                history_len: 6,
                hidden_size: 5,
                num_layers: 1,
                seed: 9,
            }),
            calls: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            poisoned: u64::MAX,
        };
        let initial = model.clone();
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 2,
            ..TrainOptions::default()
        });
        let report = trainer.fit(&mut model, &mut Adam::with_lr(2e-2), train, val);
        assert_eq!((report.rollbacks, report.diverged), (2, false));
        let want: Vec<u64> = val.iter().map(|s| initial.predict(&s.window).to_bits()).collect();
        assert_eq!(loss_bits(&report.val_preds), want);
    }

    /// A scalar model whose first `nan_first_calls` gradient evaluations
    /// return non-finite loss/gradients; clones share the call counter so
    /// snapshots taken by the trainer do not reset the fault schedule.
    #[derive(Clone)]
    struct FlakyModel {
        w: Matrix,
        calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
        nan_first_calls: u64,
    }

    impl FlakyModel {
        fn new(nan_first_calls: u64) -> Self {
            FlakyModel {
                w: Matrix::zeros(1, 1),
                calls: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
                nan_first_calls,
            }
        }
    }

    impl Trainable for FlakyModel {
        type Grads = Matrix;

        fn zero_grads(&self) -> Matrix {
            Matrix::zeros(1, 1)
        }
        fn clear(grads: &mut Matrix) {
            grads.as_mut_slice().fill(0.0);
        }
        fn sample_grads(&self, _window: &[f64], target: f64) -> (f64, Matrix) {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n < self.nan_first_calls {
                return (f64::NAN, Matrix::filled(1, 1, f64::NAN));
            }
            let d = self.w[(0, 0)] - target;
            (d * d, Matrix::filled(1, 1, 2.0 * d))
        }
        fn accumulate(into: &mut Matrix, other: &Matrix) {
            into.axpy(1.0, other).unwrap();
        }
        fn scale(grads: &mut Matrix, alpha: f64) {
            for v in grads.as_mut_slice() {
                *v *= alpha;
            }
        }
        fn clip(_grads: &mut Matrix, _max_norm: f64) -> bool {
            false
        }
        fn visit_params(&mut self, grads: &Matrix, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
            f(&mut self.w, grads);
        }
        fn predict(&self, _window: &[f64]) -> f64 {
            self.w[(0, 0)]
        }
    }

    fn flaky_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|_| Sample {
                window: vec![0.0],
                target: 0.5,
            })
            .collect()
    }

    #[test]
    fn watchdog_recovers_from_one_bad_epoch() {
        let train = flaky_samples(32);
        // Exactly the first epoch's gradient calls are non-finite.
        let mut model = FlakyModel::new(32);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 32,
            max_epochs: 40,
            patience: 0,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(0.2);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert_eq!(report.rollbacks, 1);
        assert!(!report.diverged);
        // Recovery resumed real training: the weight moved towards the
        // target despite the poisoned first epoch.
        assert!(model.predict(&[]).is_finite());
        assert!((model.predict(&[]) - 0.5).abs() < 0.2, "w = {}", model.predict(&[]));
        assert!(report.train_losses[0].is_nan());
        assert!(report.train_losses.last().unwrap().is_finite());
    }

    #[test]
    fn watchdog_declares_divergence_after_retry_budget() {
        let train = flaky_samples(16);
        // Every gradient call is non-finite: recovery can never succeed.
        let mut model = FlakyModel::new(u64::MAX);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 50,
            patience: 0,
            max_divergence_retries: 2,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(0.1);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert!(report.diverged);
        assert_eq!(report.rollbacks, 2);
        // 2 recovered epochs + the terminal one.
        assert_eq!(report.epochs_run, 3);
        // The model was left on its last good snapshot (the initial
        // weights), not the poisoned ones.
        assert!(model.predict(&[]).is_finite());
    }

    #[test]
    fn injected_nan_loss_drives_run_to_divergence() {
        let plan = FaultPlan::new(ld_faultinject::FaultConfig::new(11).with_site(
            FaultSite::NanLoss,
            1.0,
            None,
        ));
        let train = flaky_samples(16);
        let mut model = FlakyModel::new(0); // model itself is healthy
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 20,
            patience: 0,
            max_divergence_retries: 1,
            ..TrainOptions::default()
        })
        .with_faults(plan, 3);
        let mut opt = Adam::with_lr(0.1);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert!(report.diverged, "rate-1.0 injection must afflict the run");
        assert_eq!(report.rollbacks, 1);
        // A trainer that was not handed the plan trains cleanly.
        let mut clean = FlakyModel::new(0);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 20,
            patience: 0,
            ..TrainOptions::default()
        });
        let report = trainer.fit(&mut clean, &mut opt, &train, &[]);
        assert!(!report.diverged);
        assert_eq!(report.rollbacks, 0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 2,
            hidden_size: 2,
            num_layers: 1,
            seed: 0,
        });
        let trainer = Trainer::new(TrainOptions::default());
        let mut opt = Adam::with_lr(1e-3);
        trainer.fit(&mut model, &mut opt, &[], &[]);
    }
}
