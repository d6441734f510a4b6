//! Fused batched inference: one GEMM per layer and step across a whole
//! batch of same-model windows.
//!
//! The serving engine groups tenants whose predictors share identical
//! weights and shape (one trained model per workload family, or one model
//! per tenant, a group of one lane) and answers them per tick. Running
//! [`crate::LstmForecaster::predict`] per tenant performs a
//! mat-vec per step per tenant; this module instead holds the batch state
//! transposed — each layer's gate input as one `(I + H + 1) x B` matrix
//! `[X_t; H; 1]`, one column per lane — so each layer step is
//!
//! ```text
//! Z = [W | U | b] · [X_t; H; 1]      (one real GEMM, 4H x B)
//! ```
//!
//! over the layer's cached fused gate panel, with the four gate blocks
//! `[i|f|o|g]` landing as contiguous row ranges of `Z`. The LSTM's one
//! cell routine ([`crate::lstm`]'s `cell_pass`, the one the sequential
//! step runs) then takes the whole `H x B` block at once: it activates `Z`
//! in place, updates the layer's cell state and writes each lane's new `h`
//! straight into the `H` rows of the layer's own input, and a deeper layer
//! copies those rows into its `X` rows.
//!
//! Equivalence is by construction, not by tolerance: the register-blocked
//! packed-A GEMM ([`ld_linalg::pack::PackedA::matmul_into`], plain
//! multiply/add lanes) accumulates each gate output through a single
//! ascending-`k` accumulator from `0.0` over the same panel and the same
//! `[x | h | 1]` column that [`ld_linalg::pack::PackedA::matvec_into`]
//! walks in the per-sequence gate step
//! ([`crate::recurrent::RecurrentLayer::gate_step_fused`]); the
//! activations and the cell update are the same routine, and the head is
//! `dot4(w, h) + b` per lane, as
//! [`crate::dense::Dense::forward_into`] computes it. Every lane is
//! therefore **bitwise** [`crate::LstmForecaster::predict`]'s answer — the
//! forecast training and validation computed. A one-lane batch makes every
//! GEMM column a remainder column, which the kernel runs with the panel's
//! rows as vector lanes, so per-tenant models keep the vector units busy
//! too.
//!
//! The fused panel is packed once per model and invalidated on parameter
//! updates; the serving engine shares one model per resident snapshot, so
//! it stays packed from tick to tick. The lane inputs are consumed
//! row-major by the register-blocked kernel, so nothing is packed per
//! step, and one [`BatchScratch`] is resized within its capacity for every
//! shape it meets, so a warm scratch allocates nothing whatever the model.

use ld_linalg::{vecops, Matrix};

use crate::forecaster::LstmForecaster;
use crate::lstm::{cell_pass, LstmLayer};

/// Reusable buffers for [`LstmForecaster::predict_batch_fused`]. Every
/// call resizes them to its `(model shape, batch)` within the capacity
/// earlier calls grew, so one scratch serves models of any shape back to
/// back and is allocation-free once warm.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Per-layer stacked gate input `[X_t; H; 1]`, `(I + H + 1) x B` each:
    /// the step's input rows, the layer's hidden state and a row of ones
    /// for the bias column. An `L`-layer model uses the first `L`; deeper
    /// entries keep their capacity for the next model.
    inputs: Vec<Matrix>,
    /// Per-layer cell state, flat `H * B` each (layered like `inputs`).
    c: Vec<Vec<f64>>,
    /// Gate pre-activations for the current layer and step, flat `4H * B`.
    z: Vec<f64>,
    /// One lane's final hidden state, contiguous for the head's `dot4`.
    h_lane: Vec<f64>,
}

impl BatchScratch {
    /// Fresh, empty scratch (sized lazily by the first batched call).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffers for `layers` at `batch` lanes, reusing their
    /// capacity: zero recurrent state, and each input's bias row set to
    /// ones.
    fn reset(&mut self, layers: &[LstmLayer], batch: usize) {
        if self.inputs.len() < layers.len() {
            self.inputs.resize_with(layers.len(), || Matrix::zeros(0, 0));
            self.c.resize_with(layers.len(), Vec::new);
        }
        for ((input, cl), layer) in self.inputs.iter_mut().zip(&mut self.c).zip(layers) {
            let (i_dim, h_dim) = (layer.input_dim(), layer.hidden());
            input.resize_zeroed(i_dim + h_dim + 1, batch);
            input.row_mut(i_dim + h_dim).fill(1.0);
            cl.clear();
            cl.resize(h_dim * batch, 0.0);
        }
        let h_dim = layers.first().map_or(0, LstmLayer::hidden);
        self.z.resize(4 * h_dim * batch, 0.0);
        self.h_lane.resize(h_dim, 0.0);
    }
}

impl LstmForecaster {
    /// Predicts one value per batch lane with the fused per-layer GEMM
    /// kernel — bitwise what [`LstmForecaster::predict`] answers for each
    /// lane's window. `windows` is `batch x history_len` row-major (each
    /// lane's window contiguous); `out` receives one prediction per lane.
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
        let layers = self.layers();
        scratch.reset(layers, batch);
        let BatchScratch {
            inputs,
            c,
            z,
            h_lane,
        } = scratch;
        let inputs = &mut inputs[..layers.len()];
        let state_rows = h_dim * batch;

        for t in 0..t_len {
            // Layer 0's X_t row: this step's value of every lane's window.
            for (x, lane) in inputs[0].row_mut(0).iter_mut().zip(windows.chunks_exact(t_len)) {
                *x = lane[t];
            }
            for (l, layer) in layers.iter().enumerate() {
                let (below, from_l) = inputs.split_at_mut(l);
                let input = &mut from_l[0];
                let x_rows = layer.input_dim() * batch;
                if l > 0 {
                    // A deeper layer's X_t is the h_t the layer below just
                    // wrote into its own H rows.
                    let prev_x = layers[l - 1].input_dim() * batch;
                    input.as_mut_slice()[..x_rows]
                        .copy_from_slice(&below[l - 1].as_slice()[prev_x..prev_x + state_rows]);
                }

                // Z = [W | U | b] · [X_t; H; 1]: per gate output one
                // ascending-k chain from 0.0, the chain the sequential
                // gate step's packed mat-vec runs.
                layer.fused_gate_panel().matmul_into(input, z);
                // The cell over the contiguous `H x B` block (every gate,
                // C and H share its row-major layout), as wide as the block
                // whatever the lane count, writing H straight into this
                // layer's input for the next step.
                let h_state = &mut input.as_mut_slice()[x_rows..x_rows + state_rows];
                cell_pass(z, &mut c[l], h_state, None);
            }
        }

        // Head per lane: `dot4(w, h) + b` over the top layer's final
        // hidden state, the order `Dense::forward_into` uses. Lane `j`'s
        // `h` is every `B`-th value of the top layer's `H` rows.
        let top_x = layers[layers.len() - 1].input_dim() * batch;
        let top_h = &inputs[layers.len() - 1].as_slice()[top_x..top_x + state_rows];
        let w = self.head().weights().row(0);
        let hb = self.head().bias()[(0, 0)];
        for (j, o) in out.iter_mut().enumerate() {
            for (hv, h_row) in h_lane.iter_mut().zip(top_h.chunks_exact(batch)) {
                *hv = h_row[j];
            }
            *o = vecops::dot4(w, h_lane) + hb;
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

    /// Every lane of every probe shape is `predict`'s answer, bit for bit:
    /// `H` 1-16, 1-3 layers, window lengths 1-32 (the standard search
    /// space's, each three times) and lane counts that exercise the GEMM's
    /// one-lane, remainder-only, full-block and block-plus-remainder column
    /// layouts — 10,176 lanes over 96 seeds.
    #[test]
    fn fused_matches_predict_bitwise() {
        let mut scratch = BatchScratch::new();
        let mut lanes = 0;
        for hidden_size in 1..=16usize {
            for num_layers in 1..=3usize {
                for s in 0..2u64 {
                    let seed = (hidden_size * 3 + num_layers) as u64 * 2 + s;
                    let m = LstmForecaster::new(ForecasterConfig {
                        history_len: 1 + (seed % 32) as usize,
                        hidden_size,
                        num_layers,
                        seed,
                    });
                    let t_len = m.config().history_len;
                    for batch in [1usize, 2, 5, 8, 9, 17, 64] {
                        let ws = windows(batch, t_len, seed as f64 + batch as f64 * 0.1);
                        let mut out = vec![f64::NAN; batch];
                        m.predict_batch_fused(&ws, batch, &mut scratch, &mut out);
                        for (j, (got, lane)) in out.iter().zip(ws.chunks_exact(t_len)).enumerate() {
                            let want = m.predict(lane);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "H {hidden_size} L {num_layers} seed {seed} batch {batch} \
                                 lane {j}: {got} vs {want}"
                            );
                        }
                        lanes += batch;
                    }
                }
            }
        }
        assert_eq!(lanes, 10_176);
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
