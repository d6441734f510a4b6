//! The LSTM's pre-change compute paths, compiled only into this crate's
//! tests, where they are the oracles the shipped kernels are pinned to:
//!
//! - [`LstmLayer::forward_reference`] / [`LstmLayer::backward_reference`]:
//!   the allocating forward pass and BPTT over nested-`Vec` caches
//!   ([`ReferenceLstmCache`]) with sequential dots;
//! - [`LstmLayer::gate_step_reference`]: the per-row four-lane-dot gate
//!   step the fused `[W | U | b]` mat-vec replaced;
//! - [`LstmForecaster::predict_reference`] /
//!   [`LstmForecaster::sample_grads_reference`]: the stacked model over
//!   those kernels;
//! - [`ReferenceLstmForecaster`]: a model trained exclusively through those
//!   paths.
//!
//! The shipped kernels reorder floating-point sums, so they agree with
//! these within 1e-9 relative per forward or gradient call and 1e-7 over a
//! fit, not bitwise; the tests here and in `lstm`, `forecaster` and
//! `recurrent` hold them to that.

use ld_linalg::{vecops, Matrix};

use crate::activation::{sigmoid, sigmoid_deriv_from_output, tanh, tanh_deriv_from_output};
use crate::forecaster::{ForecasterGrads, LstmForecaster};
use crate::loss::squared_error_grad;
use crate::lstm::LstmLayer;
use crate::recurrent::LayerGrads;
use crate::trainer::Trainable;

/// Forward-pass record of the pre-change implementation (nested `Vec`s).
#[derive(Debug, Clone)]
pub struct ReferenceLstmCache {
    xs: Vec<Vec<f64>>,
    hs: Vec<Vec<f64>>,
    cs: Vec<Vec<f64>>,
    gates: Vec<[Vec<f64>; 4]>,
    tanh_c: Vec<Vec<f64>>,
}

impl ReferenceLstmCache {
    /// Hidden states `h_1..h_T` as rows.
    pub fn hidden_sequence(&self) -> &[Vec<f64>] {
        &self.hs[1..]
    }

    /// The final hidden state.
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.hs.len() - 1]
    }

    /// Number of unrolled steps.
    pub fn steps(&self) -> usize {
        self.xs.len()
    }
}

impl LstmLayer {
    /// The pre-change gate step: per-row four-lane dots
    /// `z_r = dot4(W_r, x) + dot4(U_r, h_prev) + b_r`.
    pub fn gate_step_reference(&self, x: &[f64], h_prev: &[f64], z: &mut [f64]) {
        for (r, zr) in z.iter_mut().enumerate() {
            *zr = vecops::dot4(self.w.row(r), x)
                + vecops::dot4(self.u.row(r), h_prev)
                + self.b[(r, 0)];
        }
    }

    /// The pre-change forward pass (per-step `Vec` allocations, sequential
    /// `dot`).
    pub fn forward_reference(&self, xs: &[Vec<f64>]) -> ReferenceLstmCache {
        let h = self.hidden;
        let t_len = xs.len();
        let mut cache = ReferenceLstmCache {
            xs: xs.to_vec(),
            hs: Vec::with_capacity(t_len + 1),
            cs: Vec::with_capacity(t_len + 1),
            gates: Vec::with_capacity(t_len),
            tanh_c: Vec::with_capacity(t_len),
        };
        cache.hs.push(vec![0.0; h]);
        cache.cs.push(vec![0.0; h]);

        let mut z = vec![0.0; 4 * h];
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), self.input_dim, "LSTM input dim mismatch");
            let h_prev = cache.hs[t].clone();
            let c_prev = cache.cs[t].clone();

            // z = W x + U h_prev + b
            for (r, zr) in z.iter_mut().enumerate() {
                *zr = vecops::dot(self.w.row(r), x)
                    + vecops::dot(self.u.row(r), &h_prev)
                    + self.b[(r, 0)];
            }
            let i_gate: Vec<f64> = z[0..h].iter().map(|&v| sigmoid(v)).collect();
            let f_gate: Vec<f64> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
            let o_gate: Vec<f64> = z[2 * h..3 * h].iter().map(|&v| sigmoid(v)).collect();
            let g_gate: Vec<f64> = z[3 * h..4 * h].iter().map(|&v| tanh(v)).collect();

            let mut c_t = vec![0.0; h];
            for k in 0..h {
                c_t[k] = f_gate[k] * c_prev[k] + i_gate[k] * g_gate[k];
            }
            let tanh_c: Vec<f64> = c_t.iter().map(|&v| tanh(v)).collect();
            let mut h_t = vec![0.0; h];
            for k in 0..h {
                h_t[k] = o_gate[k] * tanh_c[k];
            }

            cache.gates.push([i_gate, f_gate, o_gate, g_gate]);
            cache.tanh_c.push(tanh_c);
            cache.cs.push(c_t);
            cache.hs.push(h_t);
        }
        cache
    }

    /// The pre-change backward pass over a [`ReferenceLstmCache`].
    pub fn backward_reference(
        &self,
        cache: &ReferenceLstmCache,
        dh_seq: &[Vec<f64>],
    ) -> (LayerGrads, Vec<Vec<f64>>) {
        let h = self.hidden;
        let t_len = cache.steps();
        assert_eq!(dh_seq.len(), t_len, "dh sequence length mismatch");

        let mut grads = self.zero_grads();
        let mut dxs = vec![vec![0.0; self.input_dim]; t_len];

        // Gradients carried backwards across time.
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        let mut dz = vec![0.0; 4 * h];

        for t in (0..t_len).rev() {
            let [i_gate, f_gate, o_gate, g_gate] = &cache.gates[t];
            let tanh_c = &cache.tanh_c[t];
            let c_prev = &cache.cs[t];
            let h_prev = &cache.hs[t];
            let x_t = &cache.xs[t];

            for k in 0..h {
                let dh = dh_seq[t][k] + dh_next[k];
                let dct = dh * o_gate[k] * tanh_deriv_from_output(tanh_c[k]) + dc_next[k];
                let do_ = dh * tanh_c[k];
                let di = dct * g_gate[k];
                let df = dct * c_prev[k];
                let dg = dct * i_gate[k];

                dz[k] = di * sigmoid_deriv_from_output(i_gate[k]);
                dz[h + k] = df * sigmoid_deriv_from_output(f_gate[k]);
                dz[2 * h + k] = do_ * sigmoid_deriv_from_output(o_gate[k]);
                dz[3 * h + k] = dg * tanh_deriv_from_output(g_gate[k]);

                dc_next[k] = dct * f_gate[k];
            }

            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                vecops::axpy(dzr, x_t, grads.dw.row_mut(r));
                vecops::axpy(dzr, h_prev, grads.du.row_mut(r));
                grads.db[(r, 0)] += dzr;
            }

            let dx = &mut dxs[t];
            dh_next.fill(0.0);
            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                vecops::axpy(dzr, self.w.row(r), dx);
                vecops::axpy(dzr, self.u.row(r), &mut dh_next);
            }
        }

        (grads, dxs)
    }
}

impl LstmForecaster {
    /// Pre-change prediction path (nested-`Vec` caches, sequential dots).
    pub fn predict_reference(&self, window: &[f64]) -> f64 {
        let (pred, _) = self.forward_cached_reference(window);
        pred
    }

    /// Forward pass over the reference kernels, keeping per-layer caches.
    fn forward_cached_reference(&self, window: &[f64]) -> (f64, Vec<ReferenceLstmCache>) {
        let history_len = self.config().history_len;
        assert_eq!(
            window.len(),
            history_len,
            "window length {} != history_len {history_len}",
            window.len()
        );
        let mut caches = Vec::with_capacity(self.layers().len());
        let mut seq: Vec<Vec<f64>> = window.iter().map(|&v| vec![v]).collect();
        for layer in self.layers() {
            let cache = layer.forward_reference(&seq);
            seq = cache.hidden_sequence().to_vec();
            caches.push(cache);
        }
        let last_h = caches[caches.len() - 1].last_hidden();
        let pred = self.head().forward(last_h)[0];
        (pred, caches)
    }

    /// Pre-change `sample_grads` over the reference kernels.
    pub fn sample_grads_reference(&self, window: &[f64], target: f64) -> (f64, ForecasterGrads) {
        let (pred, caches) = self.forward_cached_reference(window);
        let loss = (pred - target) * (pred - target);
        let dpred = squared_error_grad(pred, target);

        // Head backward.
        let top_cache = &caches[caches.len() - 1];
        let (head_grads, dh_last) = self.head().backward(top_cache.last_hidden(), &[dpred]);

        // Backprop through the LSTM stack, top layer first.
        let steps = self.config().history_len;
        let hidden = self.config().hidden_size;
        let mut lstm_rev: Vec<LayerGrads> = Vec::with_capacity(self.layers().len());
        // Gradient flowing into the top layer's hidden sequence: zero except
        // at the final step.
        let mut dh_seq = vec![vec![0.0; hidden]; steps];
        dh_seq[steps - 1] = dh_last;

        for (idx, layer) in self.layers().iter().enumerate().rev() {
            let (grads, dxs) = layer.backward_reference(&caches[idx], &dh_seq);
            lstm_rev.push(grads);
            // dxs of this layer is the dh sequence of the layer below.
            dh_seq = dxs;
        }
        lstm_rev.reverse();

        let grads = ForecasterGrads {
            layers: lstm_rev,
            head: head_grads,
        };
        (loss, grads)
    }
}

/// An [`LstmForecaster`] trained exclusively through the pre-change slow
/// paths. It inherits [`Trainable`]'s *default* `sample_grads_into` —
/// allocate a fresh gradient set per sample, then `accumulate` — which
/// reproduces the original trainer's batch floating-point accumulation
/// order exactly. Construct one from the same config and seed as the fast
/// model to get bit-identical initial weights.
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
    use crate::optim::{Adam, AdamConfig};
    use crate::trainer::{TrainOptions, Trainer};
    use crate::{make_windows, Sample};

    /// Fits a fast model and its reference twin from one config, schedule
    /// and optimizer setting, then checks that the epoch counts match and
    /// that every train and validation loss and each fitted model's
    /// forecast of `probe` agree within 1e-7 relative.
    fn check_fit(
        config: ForecasterConfig,
        opts: TrainOptions,
        adam: AdamConfig,
        (train, val): (&[Sample], &[Sample]),
        probe: &[f64],
    ) {
        let trainer = Trainer::new(opts);
        let mut fast = LstmForecaster::new(config);
        let fast_report = trainer.fit(&mut fast, &mut Adam::new(adam), train, val);
        let mut slow = ReferenceLstmForecaster(LstmForecaster::new(config));
        let slow_report = trainer.fit(&mut slow, &mut Adam::new(adam), train, val);

        assert_eq!(fast_report.epochs_run, slow_report.epochs_run);
        assert_eq!(fast_report.val_losses.len(), slow_report.val_losses.len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0);
        let fast_losses = fast_report
            .train_losses
            .iter()
            .chain(&fast_report.val_losses);
        let slow_losses = slow_report
            .train_losses
            .iter()
            .chain(&slow_report.val_losses);
        for (e, (a, b)) in fast_losses.zip(slow_losses).enumerate() {
            assert!(close(*a, *b), "{config:?} loss {e}: {a} vs {b}");
        }
        let (a, b) = (fast.predict(probe), slow.0.predict_reference(probe));
        assert!(close(a, b), "{config:?} post-fit forecast: {a} vs {b}");
    }

    /// Training the reference wrapper and the fast model from identical
    /// seeds yields matching loss trajectories within 1e-7 relative (the
    /// fast kernels reorder FP sums; they are not bitwise). Three fits: a
    /// small one at a raised learning rate, one with a 20-sample
    /// validation tail, and the 352-sample fit `ld-perfbench` times (batch
    /// 32, three epochs, shuffle seed 7, model seed 9).
    #[test]
    fn reference_and_fast_training_agree() {
        let config = |history_len, hidden_size, seed| ForecasterConfig {
            history_len,
            hidden_size,
            num_layers: 1,
            seed,
        };
        let opts = |batch_size, max_epochs, shuffle_seed| TrainOptions {
            batch_size,
            max_epochs,
            patience: 0,
            shuffle_seed,
            ..TrainOptions::default()
        };
        let wave = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| 0.5 + 0.4 * (i as f64 * 0.13).sin() + 0.01 * (i % 7) as f64)
                .collect()
        };

        let series: Vec<f64> = (0..90)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect();
        let samples = make_windows(&series, 6);
        let adam = AdamConfig {
            lr: 2e-3,
            ..AdamConfig::default()
        };
        check_fit(
            config(6, 5, 21),
            opts(16, 4, 0),
            adam,
            samples.split_at(60),
            &series[84..],
        );

        let series = wave(140);
        let samples = make_windows(&series, 6);
        let split = samples.split_at(samples.len() - 20);
        check_fit(
            config(6, 6, 19),
            opts(16, 4, 3),
            AdamConfig::default(),
            split,
            &series[134..],
        );

        let series = wave(360);
        let samples = make_windows(&series, 8);
        assert_eq!(samples.len(), 352);
        let split = (&samples[..], &[][..]);
        check_fit(
            config(8, 8, 9),
            opts(32, 3, 7),
            AdamConfig::default(),
            split,
            &series[352..],
        );
    }
}
