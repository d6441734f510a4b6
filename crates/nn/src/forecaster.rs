//! The end-to-end forecaster of the paper's Fig. 3: a stack of recurrent
//! layers unrolled over the input window `J_{i-n} .. J_{i-1}`, with the
//! final hidden state fed through a fully-connected layer `T` to produce
//! the scalar prediction `P_i`.
//!
//! [`RecurrentForecaster`] is the one stacked shell over every recurrent
//! [`Cell`]: the workspace forward pass, the reverse sweep, gradient
//! accumulate/scale/norm/clip, the [`crate::trainer::Trainable`] impl and
//! JSON snapshots. [`LstmForecaster`] is the paper's model;
//! [`GruForecaster`] the `ablation_lstm_vs_gru` variant. The LSTM's
//! pre-change forward and BPTT, which this module's tests pin the
//! workspace path to, are compiled only into tests (`crate::reference`).

use ld_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::{Dense, DenseGrads};
use crate::gru::Gru;
use crate::loss::squared_error_grad;
use crate::lstm::Lstm;
use crate::recurrent::{Cell, LayerGrads, RecurrentLayer};
use crate::workspace::{self, Workspace};

/// Architecture hyperparameters of one forecaster — exactly the four knobs
/// LoadDynamics tunes per workload (Section III-A), minus batch size which
/// belongs to the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForecasterConfig {
    /// History length `n`: how many past JARs the model sees.
    pub history_len: usize,
    /// Cell-memory size `s` (units per recurrent layer).
    pub hidden_size: usize,
    /// Number of stacked recurrent layers.
    pub num_layers: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl ForecasterConfig {
    /// Validates the configuration, returning a description of the problem
    /// if it is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.history_len == 0 {
            return Err("history_len must be >= 1".into());
        }
        if self.hidden_size == 0 {
            return Err("hidden_size must be >= 1".into());
        }
        if self.num_layers == 0 {
            return Err("num_layers must be >= 1".into());
        }
        Ok(())
    }
}

/// Gradients for a whole forecaster, mirroring its layer structure.
#[derive(Debug, Clone)]
pub struct ForecasterGrads {
    /// Per-recurrent-layer gradients, bottom first.
    pub layers: Vec<LayerGrads>,
    /// Head gradients.
    pub head: DenseGrads,
}

impl ForecasterGrads {
    /// Accumulates another gradient set elementwise.
    pub fn accumulate(&mut self, other: &ForecasterGrads) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
        self.head.accumulate(&other.head);
    }

    /// Scales every gradient (e.g. by `1/batch_size`).
    pub fn scale(&mut self, alpha: f64) {
        for g in &mut self.layers {
            g.scale(alpha);
        }
        self.head.scale(alpha);
    }

    /// Resets every gradient to `+0.0` in place.
    pub fn clear(&mut self) {
        for g in &mut self.layers {
            g.clear();
        }
        self.head.clear();
    }

    /// Global L2 norm across all gradient tensors.
    pub fn global_norm(&self) -> f64 {
        let mut ss = 0.0;
        for g in &self.layers {
            ss += g.dw.sum_squares() + g.du.sum_squares() + g.db.sum_squares();
        }
        ss += self.head.dw.sum_squares() + self.head.db.sum_squares();
        ss.sqrt()
    }

    /// Clips the global norm to `max_norm` (TensorFlow's `clip_by_global_norm`),
    /// the standard defence against LSTM gradient explosion the paper cites.
    /// Returns whether clipping actually fired.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> bool {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
            return true;
        }
        false
    }
}

/// A stacked recurrent scalar forecaster (the function `f` of Eq. 1) over
/// cell `C`.
#[derive(Debug, Clone)]
pub struct RecurrentForecaster<C> {
    config: ForecasterConfig,
    layers: Vec<RecurrentLayer<C>>,
    head: Dense,
}

/// The paper's stacked-LSTM forecaster.
pub type LstmForecaster = RecurrentForecaster<Lstm>;

/// The stacked-GRU forecaster of the `ablation_lstm_vs_gru` experiment.
pub type GruForecaster = RecurrentForecaster<Gru>;

impl<C: Cell> RecurrentForecaster<C> {
    /// Builds a forecaster with freshly initialized weights.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ForecasterConfig::validate`]); the framework layer validates before
    /// construction.
    pub fn new(config: ForecasterConfig) -> Self {
        // ld-lint: allow(unwrap-in-core, "documented constructor contract: the panic is the advertised behavior for invalid configs; framework callers validate via ForecasterConfig::validate before constructing")
        config.validate().expect("invalid forecaster config");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let input_dim = if l == 0 { 1 } else { config.hidden_size };
            layers.push(RecurrentLayer::new(input_dim, config.hidden_size, &mut rng));
        }
        let head = Dense::new(config.hidden_size, 1, &mut rng);
        RecurrentForecaster {
            config,
            layers,
            head,
        }
    }

    /// The configuration this forecaster was built with.
    pub fn config(&self) -> &ForecasterConfig {
        &self.config
    }

    /// The stacked recurrent layers, bottom first — read-only access for
    /// the fused batch-inference kernel and snapshot fingerprinting.
    pub fn layers(&self) -> &[RecurrentLayer<C>] {
        &self.layers
    }

    /// The dense output head, read-only.
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Packs every layer's fused gate panel now, which [`Self::predict`]
    /// would otherwise do on its first call after a clone or an update.
    pub fn pack_panels(&self) {
        for layer in &self.layers {
            layer.fused_gate_panel();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// Predicts the next value from a window of `history_len` past values.
    ///
    /// # Panics
    /// Panics if `window.len() != history_len`.
    pub fn predict(&self, window: &[f64]) -> f64 {
        workspace::with_thread_workspace(|ws| self.forward_ws(window, ws))
    }

    /// Allocation-free forward pass through the stack using a caller-owned
    /// workspace. The layer-0 input *is* the window (`input_dim == 1`, so
    /// the flat `T x 1` sequence is the window itself — no copy); each
    /// deeper layer reads the previous layer's cached hidden sequence.
    fn forward_ws(&self, window: &[f64], ws: &mut Workspace) -> f64 {
        assert_eq!(
            window.len(),
            self.config.history_len,
            "window length {} != history_len {}",
            window.len(),
            self.config.history_len
        );
        let steps = self.config.history_len;
        let n = self.layers.len();
        ws.ensure_caches(n);
        for (idx, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.caches.split_at_mut(idx);
            let cache = &mut rest[0];
            if idx == 0 {
                layer.forward_into(window, steps, cache);
            } else {
                layer.forward_into(done[idx - 1].hidden_sequence(), steps, cache);
            }
        }
        let mut out = [0.0f64; 1];
        self.head.forward_into(ws.caches[n - 1].last_hidden(), &mut out);
        out[0]
    }

    /// Computes the squared-error loss for one sample and *accumulates* its
    /// gradients into `grads` (the batch accumulator), reusing this
    /// thread's workspace — the trainer's allocation-free inner loop.
    ///
    /// # Panics
    /// Panics if `grads` does not match this model's layer structure.
    pub fn sample_grads_into(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut ForecasterGrads,
    ) -> f64 {
        workspace::with_thread_workspace(|ws| self.sample_grads_ws(window, target, grads, ws))
    }

    /// Computes the squared-error loss and its gradients for one sample.
    ///
    /// Returns `(loss, grads)` where `loss = (pred - target)^2`.
    pub fn sample_grads(&self, window: &[f64], target: f64) -> (f64, ForecasterGrads) {
        let mut grads = self.zero_grads();
        let loss = self.sample_grads_into(window, target, &mut grads);
        (loss, grads)
    }

    fn sample_grads_ws(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut ForecasterGrads,
        ws: &mut Workspace,
    ) -> f64 {
        let n = self.layers.len();
        assert_eq!(grads.layers.len(), n, "grads layer count mismatch");
        let pred = self.forward_ws(window, ws);
        let loss = (pred - target) * (pred - target);
        let dpred = squared_error_grad(pred, target);

        let steps = self.config.history_len;
        let hidden = self.config.hidden_size;

        // Head backward: gradient into the top layer's final hidden state.
        ws.head_dh.clear();
        ws.head_dh.resize(hidden, 0.0);
        self.head.backward_into(
            ws.caches[n - 1].last_hidden(),
            &[dpred],
            &mut grads.head,
            &mut ws.head_dh,
        );

        // Gradient into the top layer's hidden sequence: zero except at the
        // final step.
        ws.dseq_a.clear();
        ws.dseq_a.resize(steps * hidden, 0.0);
        ws.dseq_a[(steps - 1) * hidden..].copy_from_slice(&ws.head_dh);

        // Reverse sweep; each layer's dx sequence becomes the dh sequence
        // of the layer below (buffers swap instead of reallocating).
        for idx in (0..n).rev() {
            let layer = &self.layers[idx];
            ws.dseq_b.clear();
            ws.dseq_b.resize(steps * layer.input_dim(), 0.0);
            layer.backward_into(
                &ws.caches[idx],
                &ws.dseq_a,
                &mut grads.layers[idx],
                &mut ws.dseq_b,
                &mut ws.dz,
                &mut ws.dh_next,
                &mut ws.dstate,
            );
            std::mem::swap(&mut ws.dseq_a, &mut ws.dseq_b);
        }
        loss
    }

    /// Zeroed gradients matching this model's structure.
    pub fn zero_grads(&self) -> ForecasterGrads {
        ForecasterGrads {
            layers: self.layers.iter().map(RecurrentLayer::zero_grads).collect(),
            head: DenseGrads::zeros(1, self.config.hidden_size),
        }
    }

    /// Visits `(parameter, gradient)` tensor pairs in a fixed order for the
    /// optimizer.
    pub fn visit_params(&mut self, grads: &ForecasterGrads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
        assert_eq!(grads.layers.len(), self.layers.len());
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.visit_params(g, f);
        }
        self.head.visit_params(&grads.head, f);
    }

    /// Serializes the trained model to JSON (a model snapshot).
    pub fn to_json(&self) -> String {
        // ld-lint: allow(unwrap-in-core, "infallible by construction: the forecaster is a tree of finite-dim matrices and plain fields, every one of which serializes without error")
        serde_json::to_string(self).expect("forecaster serialization")
    }

    /// Restores a model snapshot produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

// Hand-written (de)serialization: the vendored `serde_derive` rejects
// generic types. Field set and order are what the derive emitted for the
// LSTM forecaster, so snapshots (and the digests that hash their bytes)
// are unchanged.
impl<C> Serialize for RecurrentForecaster<C> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("config"), self.config.to_value()),
            (String::from("layers"), self.layers.to_value()),
            (String::from("head"), self.head.to_value()),
        ])
    }
}

impl<C: Cell> Deserialize for RecurrentForecaster<C> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RecurrentForecaster {
            config: Deserialize::from_value(v.field("config")?)?,
            layers: Deserialize::from_value(v.field("layers")?)?,
            head: Deserialize::from_value(v.field("head")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ForecasterConfig {
        ForecasterConfig {
            history_len: 4,
            hidden_size: 3,
            num_layers: 2,
            seed: 42,
        }
    }

    /// The GRU's fixtures: the same shape under another seed.
    fn tiny_gru() -> GruForecaster {
        GruForecaster::new(ForecasterConfig {
            seed: 11,
            ..tiny_config()
        })
    }

    #[test]
    fn config_validation() {
        assert!(tiny_config().validate().is_ok());
        let mut c = tiny_config();
        c.history_len = 0;
        assert!(c.validate().is_err());
        c = tiny_config();
        c.hidden_size = 0;
        assert!(c.validate().is_err());
        c = tiny_config();
        c.num_layers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn predict_is_deterministic_for_a_seed() {
        let a = LstmForecaster::new(tiny_config());
        let b = LstmForecaster::new(tiny_config());
        let w = [0.1, 0.5, 0.3, 0.9];
        assert_eq!(a.predict(&w), b.predict(&w));
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = LstmForecaster::new(tiny_config());
        let mut cfg = tiny_config();
        cfg.seed = 43;
        let b = LstmForecaster::new(cfg);
        let w = [0.1, 0.5, 0.3, 0.9];
        assert_ne!(a.predict(&w), b.predict(&w));
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn wrong_window_length_panics() {
        let m = LstmForecaster::new(tiny_config());
        m.predict(&[0.1, 0.2]);
    }

    #[test]
    fn param_count_sums_layers() {
        // layer0: G*3*(1+3+1); layer1: G*3*(3+3+1); head: 1*(3+1)
        assert_eq!(LstmForecaster::new(tiny_config()).param_count(), 60 + 84 + 4);
        assert_eq!(tiny_gru().param_count(), 45 + 63 + 4);
    }

    /// End-to-end gradient check through the full stacked model: central
    /// differences over every parameter, mutated in visit order. For the
    /// GRU the reset-gate coupling (`U_n (r . h)`) is the easiest term to
    /// get wrong.
    fn check_sample_grads_against_finite_differences<C: Cell>(
        model: &RecurrentForecaster<C>,
        window: &[f64],
        target: f64,
    ) {
        let (_, grads) = model.sample_grads(window, target);

        // Flatten analytic grads in visit order.
        let mut analytic: Vec<f64> = Vec::new();
        model
            .clone()
            .visit_params(&grads, &mut |_p, g| analytic.extend_from_slice(g.as_slice()));
        assert_eq!(analytic.len(), model.param_count());

        let eps = 1e-5;
        let zero = model.zero_grads();
        for (slot, a) in analytic.iter().enumerate() {
            let loss_at = |dir: f64| {
                let mut m = model.clone();
                let mut seen = 0usize;
                m.visit_params(&zero, &mut |p, _| {
                    let len = p.as_slice().len();
                    if slot >= seen && slot < seen + len {
                        p.as_mut_slice()[slot - seen] += dir * eps;
                    }
                    seen += len;
                });
                let pred = m.predict(window);
                (pred - target) * (pred - target)
            };
            let fd = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * eps);
            assert!((a - fd).abs() < 1e-5, "param {slot}: analytic {a} vs fd {fd}");
        }
    }

    #[test]
    fn sample_grads_match_finite_differences() {
        let lstm = LstmForecaster::new(tiny_config());
        check_sample_grads_against_finite_differences(&lstm, &[0.2, -0.4, 0.7, 0.1], 0.5);
        check_sample_grads_against_finite_differences(&tiny_gru(), &[0.3, -0.2, 0.6, -0.4], 0.35);
    }

    /// The workspace path and the reference path agree on one window
    /// within 1e-9 relative: the prediction, the sample loss and every
    /// gradient tensor.
    fn check_against_reference(model: &LstmForecaster, window: &[f64], target: f64) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        let (pred, pred_ref) = (model.predict(window), model.predict_reference(window));
        let (loss, grads) = model.sample_grads(window, target);
        let (loss_ref, grads_ref) = model.sample_grads_reference(window, target);
        let cfg = model.config();
        assert!(close(pred, pred_ref), "{cfg:?}: {pred} vs {pred_ref}");
        assert!(close(loss, loss_ref), "{cfg:?}: loss {loss} vs {loss_ref}");
        let (head, head_ref) = (&grads.head, &grads_ref.head);
        let mut pairs = vec![(&head.dw, &head_ref.dw), (&head.db, &head_ref.db)];
        for (a, b) in grads.layers.iter().zip(&grads_ref.layers) {
            pairs.extend([(&a.dw, &b.dw), (&a.du, &b.du), (&a.db, &b.db)]);
        }
        for (i, (g, g_ref)) in pairs.into_iter().enumerate() {
            let diff = g.max_abs_diff(g_ref);
            let bound = 1e-9 * g_ref.frobenius_norm().max(1.0);
            assert!(diff <= bound, "{cfg:?}: grad tensor {i} differs by {diff}");
        }
    }

    /// The workspace hot path agrees with the retained pre-change
    /// implementation within 1e-9 relative (fast dots reorder summation):
    /// the tiny two-layer model at three seeds, the T=8 H=8 model
    /// `ld-perfbench` times at seeds 42 and 43, then random windows on one-
    /// to three-layer models up to T=30 H=16.
    #[test]
    fn workspace_path_matches_reference_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let config = |history_len, hidden_size, num_layers, seed| ForecasterConfig {
            history_len,
            hidden_size,
            num_layers,
            seed,
        };
        for seed in [42u64, 7, 99] {
            let model = LstmForecaster::new(config(4, 3, 2, seed));
            check_against_reference(&model, &[0.2, -0.4, 0.7, 0.1], 0.5);
        }
        let wave: Vec<f64> = (0..8)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.13).sin() + 0.01 * (i % 7) as f64)
            .collect();
        for seed in [42, 43] {
            check_against_reference(&LstmForecaster::new(config(8, 8, 1, seed)), &wave, 0.62);
        }
        let mut rng = StdRng::seed_from_u64(0xE0_01);
        for (n, s, layers) in [(4, 3, 1), (12, 8, 2), (30, 16, 3)] {
            let model = LstmForecaster::new(config(n, s, layers, 7));
            for _ in 0..8 {
                let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
                check_against_reference(&model, &w, 0.5);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xE0_02);
        for (n, s, layers) in [(5, 4, 1), (16, 10, 2)] {
            let model = LstmForecaster::new(config(n, s, layers, 11));
            for _ in 0..6 {
                let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
                check_against_reference(&model, &w, rng.gen_range(0.0..1.0));
            }
        }
    }

    /// `sample_grads_into` accumulates: two samples into one accumulator
    /// equal the sum of their individual gradients.
    fn check_sample_grads_into_accumulates<C: Cell>(
        model: &RecurrentForecaster<C>,
        (w1, t1): (&[f64], f64),
        (w2, t2): (&[f64], f64),
    ) {
        let (l1, g1) = model.sample_grads(w1, t1);
        let (l2, g2) = model.sample_grads(w2, t2);

        let mut acc = model.zero_grads();
        assert_eq!(model.sample_grads_into(w1, t1, &mut acc), l1);
        assert_eq!(model.sample_grads_into(w2, t2, &mut acc), l2);
        // Accumulating into a warm buffer reorders FP additions relative to
        // summing two fresh gradient sets, so compare with a tight tolerance
        // rather than bitwise.
        let mut expect = g1;
        expect.accumulate(&g2);
        let tol = |m: &ld_linalg::Matrix| 1e-12 * (1.0 + m.frobenius_norm());
        for (a, b) in acc.layers.iter().zip(&expect.layers) {
            assert!(a.dw.max_abs_diff(&b.dw) <= tol(&b.dw));
            assert!(a.du.max_abs_diff(&b.du) <= tol(&b.du));
            assert!(a.db.max_abs_diff(&b.db) <= tol(&b.db));
        }
        assert!(acc.head.dw.max_abs_diff(&expect.head.dw) <= tol(&expect.head.dw));
    }

    #[test]
    fn sample_grads_into_accumulates() {
        check_sample_grads_into_accumulates(
            &LstmForecaster::new(tiny_config()),
            (&[0.2, -0.4, 0.7, 0.1], 0.5),
            (&[0.9, 0.0, -0.3, 0.5], -0.2),
        );
        check_sample_grads_into_accumulates(
            &tiny_gru(),
            (&[0.3, -0.2, 0.6, -0.4], 0.35),
            (&[0.0, 0.9, -0.5, 0.2], -0.1),
        );
    }

    #[test]
    fn clip_global_norm_caps_large_gradients() {
        let model = LstmForecaster::new(tiny_config());
        let (_, mut grads) = model.sample_grads(&[10.0, -10.0, 10.0, -10.0], 100.0);
        let before = grads.global_norm();
        assert!(before > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-9);
        // Clipping below the norm is a no-op.
        let (_, mut small) = model.sample_grads(&[0.0, 0.0, 0.0, 0.0], 0.0);
        let n = small.global_norm();
        small.clip_global_norm(n + 10.0);
        assert!((small.global_norm() - n).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let w = [0.3, 0.6, -0.2, 0.8];
        let lstm = LstmForecaster::new(tiny_config());
        assert_eq!(lstm.predict(&w), LstmForecaster::from_json(&lstm.to_json()).unwrap().predict(&w));
        let gru = tiny_gru();
        assert_eq!(gru.predict(&w), GruForecaster::from_json(&gru.to_json()).unwrap().predict(&w));
        // A snapshot of one cell does not load as the other.
        assert!(GruForecaster::from_json(&lstm.to_json()).is_err());
        assert!(LstmForecaster::from_json(&gru.to_json()).is_err());
    }
}
