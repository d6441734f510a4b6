//! Pre-change reference model for equivalence gating and benchmarking.
//!
//! [`ReferenceLstmForecaster`] wraps an [`LstmForecaster`] but routes every
//! [`Trainable`] call through the retained pre-change implementations
//! (`predict_reference` / `sample_grads_reference`, nested-`Vec` caches,
//! sequential dots) and inherits the trait's *default*
//! `sample_grads_into` — allocate a fresh gradient set per sample, then
//! `accumulate` — which reproduces the original trainer's batch
//! floating-point accumulation order exactly. Training one of these against
//! the optimized fast path is how `ld-perfbench` measures the "before"
//! train-epoch cost and how the `kernel_equivalence` suite checks that
//! `TrainReport` losses agree within tolerance.

use ld_linalg::Matrix;

use crate::forecaster::{ForecasterGrads, LstmForecaster};
use crate::trainer::Trainable;

/// An [`LstmForecaster`] trained exclusively through the pre-change slow
/// paths. Construct one from the same config/seed as the fast model to get
/// bit-identical initial weights.
#[derive(Debug, Clone)]
pub struct ReferenceLstmForecaster(pub LstmForecaster);

impl Trainable for ReferenceLstmForecaster {
    type Grads = ForecasterGrads;

    fn zero_grads(&self) -> Self::Grads {
        self.0.zero_grads()
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        self.0.sample_grads_reference(window, target)
    }
    // sample_grads_into deliberately NOT overridden: the trait default
    // (fresh grads + accumulate) is the pre-change batch semantics.
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
        self.0.visit_params(grads, f);
    }
    fn predict(&self, window: &[f64]) -> f64 {
        self.0.predict_reference(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::ForecasterConfig;
    use crate::optim::Adam;
    use crate::trainer::{TrainOptions, Trainer};
    use crate::make_windows;

    /// Training the reference wrapper and the fast model from identical
    /// seeds yields matching loss trajectories within the documented
    /// tolerance (the fast kernels reorder FP sums; they are not bitwise).
    #[test]
    fn reference_and_fast_training_agree() {
        let series: Vec<f64> = (0..90)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect();
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(60);
        let cfg = ForecasterConfig {
            history_len: 6,
            hidden_size: 5,
            num_layers: 1,
            seed: 21,
        };
        let opts = TrainOptions {
            batch_size: 16,
            max_epochs: 4,
            patience: 0,
            ..TrainOptions::default()
        };

        let mut fast = LstmForecaster::new(cfg);
        let mut opt = Adam::with_lr(2e-3);
        let fast_report = Trainer::new(opts).fit(&mut fast, &mut opt, train, val);

        let mut slow = ReferenceLstmForecaster(LstmForecaster::new(cfg));
        let mut opt = Adam::with_lr(2e-3);
        let slow_report = Trainer::new(opts).fit(&mut slow, &mut opt, train, val);

        assert_eq!(fast_report.epochs_run, slow_report.epochs_run);
        for (a, b) in fast_report
            .train_losses
            .iter()
            .zip(&slow_report.train_losses)
        {
            assert!((a - b).abs() <= 1e-7 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}
