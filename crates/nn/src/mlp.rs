//! A plain feed-forward autoregressor at the same parameter budget as the
//! LSTM forecaster.
//!
//! Section III-A of the paper argues LSTMs are needed because feed-forward
//! networks cannot track long-term dependencies; the `ablation_lstm_vs_dense`
//! experiment makes that claim measurable. The model is
//! `window -> Dense(tanh) -> Dense -> scalar`.

use ld_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::{Dense, DenseGrads};
use crate::loss::squared_error_grad;
use crate::workspace;

/// Configuration for the feed-forward baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input window length (same role as the LSTM's history length).
    pub history_len: usize,
    /// Hidden layer width.
    pub hidden_size: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

/// Gradients for [`MlpForecaster`].
#[derive(Debug, Clone)]
pub struct MlpGrads {
    /// Hidden-layer gradients.
    pub l1: DenseGrads,
    /// Output-layer gradients.
    pub l2: DenseGrads,
}

impl MlpGrads {
    /// Accumulates another gradient set.
    pub fn accumulate(&mut self, other: &MlpGrads) {
        self.l1.accumulate(&other.l1);
        self.l2.accumulate(&other.l2);
    }

    /// Scales all gradients.
    pub fn scale(&mut self, alpha: f64) {
        self.l1.scale(alpha);
        self.l2.scale(alpha);
    }

    /// Global L2 norm across all tensors.
    pub fn global_norm(&self) -> f64 {
        (self.l1.dw.sum_squares()
            + self.l1.db.sum_squares()
            + self.l2.dw.sum_squares()
            + self.l2.db.sum_squares())
        .sqrt()
    }

    /// Clips the global norm. Returns whether clipping actually fired.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> bool {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
            return true;
        }
        false
    }
}

/// Two-layer tanh MLP mapping a window of past values to the next value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpForecaster {
    config: MlpConfig,
    l1: Dense,
    l2: Dense,
}

impl MlpForecaster {
    /// Builds an MLP with freshly initialized weights.
    pub fn new(config: MlpConfig) -> Self {
        assert!(
            config.history_len > 0 && config.hidden_size > 0,
            "MLP dims must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        MlpForecaster {
            config,
            l1: Dense::new(config.history_len, config.hidden_size, &mut rng),
            l2: Dense::new(config.hidden_size, 1, &mut rng),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count()
    }

    /// Predicts the next value from a window.
    pub fn predict(&self, window: &[f64]) -> f64 {
        assert_eq!(window.len(), self.config.history_len, "window length");
        workspace::with_thread_workspace(|ws| {
            let h = self.config.hidden_size;
            ws.scratch_a.clear();
            ws.scratch_a.resize(h, 0.0);
            self.l1.forward_into(window, &mut ws.scratch_a);
            crate::activation::tanh_map(&mut ws.scratch_a);
            let mut out = [0.0f64; 1];
            self.l2.forward_into(&ws.scratch_a, &mut out);
            out[0]
        })
    }

    /// Computes the loss for one sample and *accumulates* its gradients
    /// into `grads`, reusing this thread's workspace buffers.
    pub fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut MlpGrads) -> f64 {
        assert_eq!(window.len(), self.config.history_len, "window length");
        workspace::with_thread_workspace(|ws| {
            let h = self.config.hidden_size;
            // scratch_a: hidden activations (tanh applied in place).
            ws.scratch_a.clear();
            ws.scratch_a.resize(h, 0.0);
            self.l1.forward_into(window, &mut ws.scratch_a);
            crate::activation::tanh_map(&mut ws.scratch_a);
            let mut out = [0.0f64; 1];
            self.l2.forward_into(&ws.scratch_a, &mut out);
            let pred = out[0];
            let loss = (pred - target) * (pred - target);
            let dpred = squared_error_grad(pred, target);

            // scratch_b: dhidden, then dpre in place.
            ws.scratch_b.clear();
            ws.scratch_b.resize(h, 0.0);
            self.l2
                .backward_into(&ws.scratch_a, &[dpred], &mut grads.l2, &mut ws.scratch_b);
            for (dp, hv) in ws.scratch_b.iter_mut().zip(&ws.scratch_a) {
                *dp *= 1.0 - hv * hv;
            }
            // scratch_c: discarded input gradient.
            ws.scratch_c.clear();
            ws.scratch_c.resize(window.len(), 0.0);
            self.l1
                .backward_into(window, &ws.scratch_b, &mut grads.l1, &mut ws.scratch_c);
            loss
        })
    }

    /// Squared-error loss and gradients for one sample.
    pub fn sample_grads(&self, window: &[f64], target: f64) -> (f64, MlpGrads) {
        let mut grads = self.zero_grads();
        let loss = self.sample_grads_into(window, target, &mut grads);
        (loss, grads)
    }

    /// Zeroed gradients matching this model.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            l1: DenseGrads::zeros(self.config.hidden_size, self.config.history_len),
            l2: DenseGrads::zeros(1, self.config.hidden_size),
        }
    }

    /// Visits `(parameter, gradient)` pairs in fixed order.
    pub fn visit_params(&mut self, grads: &MlpGrads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
        self.l1.visit_params(&grads.l1, f);
        self.l2.visit_params(&grads.l2, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MlpConfig {
        MlpConfig {
            history_len: 5,
            hidden_size: 4,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = MlpForecaster::new(cfg());
        let b = MlpForecaster::new(cfg());
        let mut c2 = cfg();
        c2.seed = 8;
        let c = MlpForecaster::new(c2);
        let w = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(a.predict(&w), b.predict(&w));
        assert_ne!(a.predict(&w), c.predict(&w));
    }

    #[test]
    fn gradcheck_full_model() {
        let model = MlpForecaster::new(cfg());
        let w = [0.2, -0.1, 0.5, 0.3, -0.4];
        let target = 0.25;
        let (_, grads) = model.sample_grads(&w, target);

        let mut analytic = Vec::new();
        let mut m = model.clone();
        m.visit_params(&grads, &mut |_p, g| analytic.extend_from_slice(g.as_slice()));

        assert_eq!(analytic.len(), model.param_count());
        let zero = model.zero_grads();
        let eps = 1e-6;
        for (slot, &want) in analytic.iter().enumerate() {
            let mut plus = model.clone();
            let mut seen = 0;
            plus.visit_params(&zero, &mut |p, _| {
                let len = p.as_slice().len();
                if slot >= seen && slot < seen + len {
                    p.as_mut_slice()[slot - seen] += eps;
                }
                seen += len;
            });
            let mut minus = model.clone();
            seen = 0;
            minus.visit_params(&zero, &mut |p, _| {
                let len = p.as_slice().len();
                if slot >= seen && slot < seen + len {
                    p.as_mut_slice()[slot - seen] -= eps;
                }
                seen += len;
            });
            let lp = (plus.predict(&w) - target).powi(2);
            let lm = (minus.predict(&w) - target).powi(2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - want).abs() < 1e-6, "slot {slot}: fd {fd} vs {want}");
        }
    }

    #[test]
    fn param_count() {
        let m = MlpForecaster::new(cfg());
        assert_eq!(m.param_count(), 4 * 6 + 5);
    }
}
