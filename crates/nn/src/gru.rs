//! The GRU (gated recurrent unit) cell — the main "LSTM-variant" of the
//! paper's Section VI related work (Cho et al. 2014's cell, as used by
//! several of the cited deep workload predictors) — as a [`Cell`] of the
//! recurrent engine ([`crate::recurrent`]):
//!
//! ```text
//! z_t = sigma(W_z x_t + U_z h_{t-1} + b_z)      (update gate)
//! r_t = sigma(W_r x_t + U_r h_{t-1} + b_r)      (reset gate)
//! n_t = tanh (W_n x_t + U_n (r_t . h_{t-1}) + b_n)
//! h_t = (1 - z_t) . n_t + z_t . h_{t-1}
//! ```
//!
//! Gate blocks are packed `[z, r, n]`. The candidate reads the reset-scaled
//! state `r_t . h_{t-1}`, which the step records in `aux` so the backward
//! step does not recompute it. The engine's layer, caches, trainer and
//! forecaster shell ([`crate::GruForecaster`]) are shared with the LSTM;
//! the `ablation_lstm_vs_gru` experiment compares the two cells.

use ld_linalg::{vecops, Matrix};

use crate::activation::{sigmoid, sigmoid_deriv_from_output, tanh, tanh_deriv_from_output};
use crate::recurrent::{BackStep, Cell, LayerGrads, RecurrentLayer, Step};

/// The GRU cell: three gates `[z, r, n]` and no memory state beside `h`.
#[derive(Debug, Clone, Copy)]
pub struct Gru;

/// One GRU layer.
pub type GruLayer = RecurrentLayer<Gru>;

impl Cell for Gru {
    const GATES: usize = 3;
    const CELL_STATE: bool = false;

    /// Zero bias for every gate.
    fn init_bias(_b: &mut Matrix, _hidden: usize) {}

    /// `aux` records the reset-scaled state `r_t . h_{t-1}`.
    #[inline]
    fn step(layer: &GruLayer, s: Step<'_>) {
        let h = layer.hidden;
        let (w, u, b) = (&layer.w, &layer.u, &layer.b);
        let (g_row, rh_row) = (s.gates, s.aux);
        // Update and reset gates read h_prev directly.
        for k in 0..h {
            g_row[k] =
                sigmoid(vecops::dot4(w.row(k), s.x) + vecops::dot4(u.row(k), s.h_prev) + b[(k, 0)]);
            g_row[h + k] = sigmoid(
                vecops::dot4(w.row(h + k), s.x)
                    + vecops::dot4(u.row(h + k), s.h_prev)
                    + b[(h + k, 0)],
            );
        }
        // Candidate uses the reset-scaled state.
        for k in 0..h {
            rh_row[k] = g_row[h + k] * s.h_prev[k];
        }
        for k in 0..h {
            g_row[2 * h + k] = tanh(
                vecops::dot4(w.row(2 * h + k), s.x)
                    + vecops::dot4(u.row(2 * h + k), rh_row)
                    + b[(2 * h + k, 0)],
            );
            s.h[k] = (1.0 - g_row[k]) * g_row[2 * h + k] + g_row[k] * s.h_prev[k];
        }
    }

    /// `dstate` holds the per-step gradient w.r.t. `r_t . h_{t-1}`.
    #[inline]
    fn backward_step(layer: &GruLayer, s: BackStep<'_>, grads: &mut LayerGrads) {
        let h = layer.hidden;
        let (w, u) = (&layer.w, &layer.u);
        let (z_gate, rest) = s.gates.split_at(h);
        let (r_gate, n_gate) = rest.split_at(h);
        let (h_prev, x_t, rh_row) = (s.h_prev, s.x, s.aux);
        let (dz, rest_d) = s.dz.split_at_mut(h);
        let (dr, dn) = rest_d.split_at_mut(h);
        // Each dh_next[k] is read once below before being overwritten, so
        // the gradient into h_{t-1} accumulates in place.
        let (dh, drh, dx) = (s.dh_next, s.dstate, s.dx);

        // h_t = (1-z) n + z h_prev
        // dn_pre, dz_pre; dh gets the direct z-path plus gate paths.
        for k in 0..h {
            let dhk = s.dh[k] + dh[k];
            let dzk = dhk * (h_prev[k] - n_gate[k]);
            let dnk = dhk * (1.0 - z_gate[k]);
            dz[k] = dzk * sigmoid_deriv_from_output(z_gate[k]);
            dn[k] = dnk * tanh_deriv_from_output(n_gate[k]);
            dh[k] = dhk * z_gate[k];
        }
        // dL/d(rh) = U_n^T dn_pre
        drh.fill(0.0);
        for (k, &dnk) in dn.iter().enumerate() {
            if dnk == 0.0 {
                continue;
            }
            vecops::axpy(dnk, u.row(2 * h + k), drh);
        }
        // rh = r . h_prev
        for k in 0..h {
            dr[k] = drh[k] * h_prev[k] * sigmoid_deriv_from_output(r_gate[k]);
            dh[k] += drh[k] * r_gate[k];
        }

        // Parameter grads and remaining dh contributions from the
        // z and r pre-activations; the n block's recurrent part uses
        // the cached reset-scaled state.
        dx.fill(0.0);
        for k in 0..h {
            // z block (rows 0..h)
            if dz[k] != 0.0 {
                vecops::axpy(dz[k], x_t, grads.dw.row_mut(k));
                vecops::axpy(dz[k], h_prev, grads.du.row_mut(k));
                grads.db[(k, 0)] += dz[k];
                vecops::axpy(dz[k], w.row(k), dx);
                vecops::axpy(dz[k], u.row(k), dh);
            }
            // r block (rows h..2h)
            if dr[k] != 0.0 {
                vecops::axpy(dr[k], x_t, grads.dw.row_mut(h + k));
                vecops::axpy(dr[k], h_prev, grads.du.row_mut(h + k));
                grads.db[(h + k, 0)] += dr[k];
                vecops::axpy(dr[k], w.row(h + k), dx);
                vecops::axpy(dr[k], u.row(h + k), dh);
            }
            // n block (rows 2h..3h); recurrent part uses rh.
            if dn[k] != 0.0 {
                vecops::axpy(dn[k], x_t, grads.dw.row_mut(2 * h + k));
                vecops::axpy(dn[k], rh_row, grads.du.row_mut(2 * h + k));
                grads.db[(2 * h + k, 0)] += dn[k];
                vecops::axpy(dn[k], w.row(2 * h + k), dx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{make_windows, Adam, ForecasterConfig, GruForecaster, LstmForecaster};
    use crate::{TrainOptions, Trainer};

    fn tiny() -> ForecasterConfig {
        ForecasterConfig {
            history_len: 4,
            hidden_size: 3,
            num_layers: 2,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_and_bounded_hidden() {
        let m = GruForecaster::new(tiny());
        let w = [0.2, -0.5, 0.8, 0.1];
        assert_eq!(m.predict(&w), m.predict(&w));
        // h is a convex combination of tanh outputs and previous h, so
        // every hidden unit stays in [-1, 1].
        let layer = &m.layers()[0];
        let cache = layer.forward(&w.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        for hs in cache.hidden_sequence().chunks(layer.hidden()) {
            assert!(hs.iter().all(|v| v.abs() <= 1.0 + 1e-12));
        }
    }

    #[test]
    fn gru_learns_a_sine_wave() {
        let series: Vec<f64> = (0..200)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect();
        let samples = make_windows(&series, 8);
        let (train, val) = samples.split_at(150);
        let mut model = GruForecaster::new(ForecasterConfig {
            history_len: 8,
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
        trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(after < before * 0.2, "{before} -> {after}");
    }

    #[test]
    fn gru_has_three_quarters_of_lstm_parameters() {
        let cfg = ForecasterConfig {
            history_len: 8,
            hidden_size: 10,
            num_layers: 1,
            seed: 0,
        };
        let gru_recurrent = GruForecaster::new(cfg).param_count() - 11; // minus head
        let lstm_recurrent = LstmForecaster::new(cfg).param_count() - 11;
        assert_eq!(gru_recurrent * 4, lstm_recurrent * 3);
    }
}
