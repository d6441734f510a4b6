//! Fused batched inference: one GEMM per gate block across a whole batch
//! of same-model windows.
//!
//! The serving engine groups tenants whose predictors share identical
//! weights and shape (one trained model per workload family, or one model
//! per tenant, a group of one lane) and answers them per tick. Running
//! [`crate::LstmForecaster::predict`] per tenant performs a
//! mat-vec per step per tenant; this module instead holds the batch state
//! transposed — hidden and cell state as `H x B` matrices — so each step is
//!
//! ```text
//! Z  = W · X_t  +  U · H_state  + b      (two real GEMMs, 4H x B)
//! ```
//!
//! with the four gate blocks landing as contiguous row ranges of `Z`:
//! rows `0..3H` are the sigmoid gates `[i|f|o]` (one [`sigmoid_map`] pass),
//! rows `3H..4H` the candidate `g` (one [`tanh_map`] pass), and the cell /
//! hidden updates are pure `B`-wide vector ops.
//!
//! Equivalence is by construction, not by tolerance: the register-blocked
//! packed-A GEMM ([`ld_linalg::pack::PackedA::matmul_into`], plain
//! multiply/add lanes) accumulates each output through a single
//! ascending-`k` accumulator exactly like the sequential dots of the
//! retained reference path, the combine order `(Wx + Uh) + b` matches both
//! scalar paths, and the activations are the same shared functions every
//! other path calls. The fused kernel therefore agrees **bitwise** with
//! [`crate::LstmForecaster::predict_reference`] and within ~1e-12
//! reordered-summation noise with the workspace
//! [`crate::LstmForecaster::predict`] path (whose fused gate step chains
//! the `W`/`U`/`b` terms differently). A one-lane batch makes every GEMM
//! column a remainder column, which the kernel runs with the panel's rows
//! as vector lanes, so per-tenant models keep the vector units busy too.
//!
//! The weight panels are packed once per model
//! ([`crate::recurrent::RecurrentLayer::packed_input_weights`]) and
//! invalidated on parameter updates; the serving engine shares one model
//! per resident snapshot, so they stay packed from tick to tick. The
//! activations are consumed row-major by the register-blocked kernel, so
//! nothing is packed per step, and one [`BatchScratch`] is resized within
//! its capacity for every shape it meets, so a warm scratch allocates
//! nothing whatever the model.

use ld_linalg::Matrix;

use crate::activation::{sigmoid_map, tanh_map};
use crate::forecaster::LstmForecaster;

/// Reusable buffers for [`LstmForecaster::predict_batch_fused`]. Every
/// call resizes them to its `(model shape, batch)` within the capacity
/// earlier calls grew, so one scratch serves models of any shape back to
/// back and is allocation-free once warm.
#[derive(Debug)]
pub struct BatchScratch {
    /// Layer-0 input row for the current step, `1 x B`.
    x0: Matrix,
    /// Per-layer hidden state, `H x B` each. An `L`-layer model uses the
    /// first `L`; deeper entries keep their capacity for the next model.
    h: Vec<Matrix>,
    /// Per-layer cell state, flat `H * B` each (layered like `h`).
    c: Vec<Vec<f64>>,
    /// Pre-activations / gates for the current layer+step, flat `4H * B`.
    z: Vec<f64>,
}

impl Default for BatchScratch {
    fn default() -> Self {
        BatchScratch {
            x0: Matrix::zeros(0, 0),
            h: Vec::new(),
            c: Vec::new(),
            z: Vec::new(),
        }
    }
}

impl BatchScratch {
    /// Fresh, empty scratch (sized lazily by the first batched call).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffers for `layers` layers of `h_dim` units at `batch`
    /// lanes, reusing their capacity, and zeroes the recurrent state.
    fn reset(&mut self, h_dim: usize, layers: usize, batch: usize) {
        self.x0.resize_zeroed(1, batch);
        if self.h.len() < layers {
            self.h.resize_with(layers, || Matrix::zeros(0, 0));
            self.c.resize_with(layers, Vec::new);
        }
        for (hl, cl) in self.h.iter_mut().zip(&mut self.c).take(layers) {
            hl.resize_zeroed(h_dim, batch);
            cl.clear();
            cl.resize(h_dim * batch, 0.0);
        }
        self.z.resize(4 * h_dim * batch, 0.0);
    }
}

impl LstmForecaster {
    /// Predicts one value per batch lane with the fused per-gate GEMM
    /// kernel. `windows` is `batch x history_len` row-major (each lane's
    /// window contiguous); `out` receives one prediction per lane.
    ///
    /// All lanes run through *this* model's weights — callers batch tenants
    /// that share a trained model and keep per-tenant scaling outside.
    ///
    /// # Panics
    /// Panics if `windows.len() != batch * history_len` or
    /// `out.len() != batch`.
    pub fn predict_batch_fused(
        &self,
        windows: &[f64],
        batch: usize,
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) {
        let t_len = self.config().history_len;
        let h_dim = self.config().hidden_size;
        assert_eq!(windows.len(), batch * t_len, "batch windows length");
        assert_eq!(out.len(), batch, "batch output length");
        if batch == 0 {
            return;
        }
        let layers = self.layers().len();
        scratch.reset(h_dim, layers, batch);
        let BatchScratch { x0, h, c, z } = scratch;
        let (h, c) = (&mut h[..layers], &mut c[..layers]);

        for t in 0..t_len {
            // Gather this step's input across lanes: X_t is 1 x B.
            for j in 0..batch {
                x0[(0, j)] = windows[j * t_len + t];
            }
            for (l, layer) in self.layers().iter().enumerate() {
                let (below, from_l) = h.split_at_mut(l);
                let x: &Matrix = if l == 0 { x0 } else { &below[l - 1] };
                let h_l = &mut from_l[0];
                let c_l = &mut c[l];

                // Z = (W·X_t + U·H) + b — same combine order as the scalar
                // paths' `dot(w,x) + dot(u,h) + b`, driven by the register-blocked
                // packed-A kernel over the per-model cached weight panels.
                // The recurrent product accumulates into Z with the bias
                // folded at store time (one pass over the gate slab
                // instead of three).
                layer.packed_input_weights().matmul_into(x, z);
                layer.packed_recurrent_weights().matmul_acc_bias_into(
                    h_l,
                    layer.bias().as_slice(),
                    z,
                );
                // Gate blocks are contiguous rows: [i|f|o] then [g].
                sigmoid_map(&mut z[..3 * h_dim * batch]);
                tanh_map(&mut z[3 * h_dim * batch..]);

                // C = f.C + i.g ; H = o.tanh(C) — one fused B-wide pass
                // per cell row. `tanh` is the same branch-free scalar the
                // map variant applies, evaluated inline so the new cell
                // value never round-trips through a temporary slab.
                for k in 0..h_dim {
                    let i_row = &z[k * batch..(k + 1) * batch];
                    let f_row = &z[(h_dim + k) * batch..(h_dim + k + 1) * batch];
                    let o_row = &z[(2 * h_dim + k) * batch..(2 * h_dim + k + 1) * batch];
                    let g_row = &z[(3 * h_dim + k) * batch..(3 * h_dim + k + 1) * batch];
                    let c_row = &mut c_l[k * batch..(k + 1) * batch];
                    let h_row = h_l.row_mut(k);
                    for j in 0..batch {
                        let cv = f_row[j] * c_row[j] + i_row[j] * g_row[j];
                        c_row[j] = cv;
                        h_row[j] = o_row[j] * crate::activation::tanh(cv);
                    }
                }
            }
        }

        // Head: one 1 x B GEMM over the top layer's final hidden state,
        // then the bias — matching `dot(w, h) + b`.
        let top = &h[h.len() - 1];
        self.head().weights().matmul_into(top, out);
        let hb = self.head().bias()[(0, 0)];
        for o in out.iter_mut() {
            *o += hb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForecasterConfig;

    fn model(seed: u64, layers: usize) -> LstmForecaster {
        LstmForecaster::new(ForecasterConfig {
            history_len: 12,
            hidden_size: 6,
            num_layers: layers,
            seed,
        })
    }

    fn windows(batch: usize, t_len: usize, salt: f64) -> Vec<f64> {
        (0..batch * t_len)
            .map(|i| ((i as f64 * 0.37 + salt).sin() + 1.0) * 0.5)
            .collect()
    }

    #[test]
    fn fused_matches_reference_path_bitwise() {
        for layers in [1usize, 2] {
            let m = model(11 + layers as u64, layers);
            let t_len = m.config().history_len;
            for batch in [1usize, 3, 17] {
                let ws = windows(batch, t_len, layers as f64);
                let mut scratch = BatchScratch::new();
                let mut out = vec![0.0; batch];
                m.predict_batch_fused(&ws, batch, &mut scratch, &mut out);
                for j in 0..batch {
                    let want = m.predict_reference(&ws[j * t_len..(j + 1) * t_len]);
                    assert_eq!(out[j], want, "lane {j} (layers {layers}, batch {batch})");
                }
            }
        }
    }

    #[test]
    fn fused_matches_workspace_path_to_1e12() {
        let m = model(29, 2);
        let t_len = m.config().history_len;
        let batch = 9;
        let ws = windows(batch, t_len, 0.9);
        let mut scratch = BatchScratch::new();
        let mut out = vec![0.0; batch];
        m.predict_batch_fused(&ws, batch, &mut scratch, &mut out);
        for j in 0..batch {
            let want = m.predict(&ws[j * t_len..(j + 1) * t_len]);
            assert!(
                (out[j] - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "lane {j}: {} vs {}",
                out[j],
                want
            );
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let m = model(5, 1);
        let t_len = m.config().history_len;
        let mut scratch = BatchScratch::new();

        // Dirty the scratch with one batch size / content...
        let ws_a = windows(8, t_len, 3.3);
        let mut out_a = vec![0.0; 8];
        m.predict_batch_fused(&ws_a, 8, &mut scratch, &mut out_a);

        // ...then a different batch through the same scratch must equal a
        // fresh-scratch run exactly.
        let ws_b = windows(3, t_len, 7.7);
        let mut out_warm = vec![0.0; 3];
        m.predict_batch_fused(&ws_b, 3, &mut scratch, &mut out_warm);
        let mut out_cold = vec![0.0; 3];
        m.predict_batch_fused(&ws_b, 3, &mut BatchScratch::new(), &mut out_cold);
        assert_eq!(out_warm, out_cold);

        // Same-size reuse must also be stateless (the zero-state reset).
        let mut out_again = vec![0.0; 3];
        m.predict_batch_fused(&ws_b, 3, &mut scratch, &mut out_again);
        assert_eq!(out_again, out_cold);
    }

    #[test]
    fn scratch_reuse_across_shapes_is_stateless() {
        // Two models of different `(H, L)` at different batch sizes,
        // alternately through one scratch: it shrinks, grows, drops and
        // regains a layer, and every answer must equal a fresh scratch's.
        let small = LstmForecaster::new(ForecasterConfig {
            history_len: 5,
            hidden_size: 3,
            num_layers: 1,
            seed: 41,
        });
        let big = LstmForecaster::new(ForecasterConfig {
            history_len: 9,
            hidden_size: 13,
            num_layers: 2,
            seed: 42,
        });
        let mut scratch = BatchScratch::new();
        for (round, (m, batch)) in [(&big, 9usize), (&small, 1), (&big, 2), (&small, 17), (&big, 1)]
            .into_iter()
            .enumerate()
        {
            let t_len = m.config().history_len;
            let ws = windows(batch, t_len, round as f64);
            let mut warm = vec![0.0; batch];
            m.predict_batch_fused(&ws, batch, &mut scratch, &mut warm);
            let mut cold = vec![0.0; batch];
            m.predict_batch_fused(&ws, batch, &mut BatchScratch::new(), &mut cold);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&warm), bits(&cold), "round {round}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let m = model(1, 1);
        let mut scratch = BatchScratch::new();
        let mut out: Vec<f64> = Vec::new();
        m.predict_batch_fused(&[], 0, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "batch windows length")]
    fn mismatched_windows_panic() {
        let m = model(1, 1);
        let mut scratch = BatchScratch::new();
        let mut out = vec![0.0; 2];
        m.predict_batch_fused(&[0.1; 5], 2, &mut scratch, &mut out);
    }
}
