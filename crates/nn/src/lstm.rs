//! The LSTM cell of the paper's Fig. 4, as a [`Cell`] of the recurrent
//! engine ([`crate::recurrent`]):
//!
//! ```text
//! i_t = sigma(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = sigma(W_f x_t + U_f h_{t-1} + b_f)
//! o_t = sigma(W_o x_t + U_o h_{t-1} + b_o)
//! g_t = tanh (W_g x_t + U_g h_{t-1} + b_g)
//! C_t = f_t . C_{t-1} + i_t . g_t
//! h_t = o_t . tanh(C_t)
//! ```
//!
//! The four gate blocks are packed row-wise in the order `[i, f, o, g]`.
//! Every gate reads `h_{t-1}` directly, so the whole `4H` pre-activation is
//! **one** packed mat-vec of the layer's fused `[W | U | b]` panel against
//! `[x_t | h_{t-1} | 1]` per step
//! ([`RecurrentLayer::gate_step_fused`]); the batched inference kernel
//! ([`crate::batch`]) runs the same panel as one GEMM against a column
//! `[x_t | h_{t-1} | 1]` per lane, so it computes the same gate chains bit
//! for bit. The backward step pulls `dx`/`dh` from the layer's cached
//! weight transposes (contiguous mat-vecs instead of per-row `axpy`
//! strides).
//!
//! The pre-change implementation is retained verbatim as
//! [`LstmLayer::forward_reference`] / [`LstmLayer::backward_reference`] and
//! the per-row-dots step as [`LstmLayer::gate_step_reference`] — the
//! equivalence oracles for `ld-perfbench --smoke` and the
//! `kernel_equivalence` suite (fast paths agree within 1e-9 relative).

use ld_linalg::{vecops, Matrix};

use crate::activation::{
    sigmoid, sigmoid_deriv_from_output, sigmoid_map, tanh, tanh_deriv_from_output, tanh_map,
};
use crate::recurrent::{BackStep, Cell, LayerGrads, RecurrentLayer, Step};

/// The LSTM cell: four gates `[i, f, o, g]` and a memory state `C_t`.
#[derive(Debug, Clone, Copy)]
pub struct Lstm;

/// One LSTM layer (the `M` cell of the paper, unrolled over a window).
pub type LstmLayer = RecurrentLayer<Lstm>;

impl Cell for Lstm {
    const GATES: usize = 4;
    const CELL_STATE: bool = true;

    /// The standard unit forget-gate bias (TensorFlow's
    /// `unit_forget_bias`): the forget block is rows `H..2H`.
    fn init_bias(b: &mut Matrix, hidden: usize) {
        for i in hidden..2 * hidden {
            b[(i, 0)] = 1.0;
        }
    }

    /// `aux` records `tanh(C_t)`.
    #[inline]
    fn step(layer: &LstmLayer, s: Step<'_>) {
        let h = layer.hidden;
        // z = W x + U h_prev + b as one packed panel mat-vec.
        layer.gate_step_fused(s.x, s.h_prev, s.gate_in, s.z);

        // Gate blocks are contiguous ([i|f|o] then [g]), so the
        // activations run as two slice-mapped passes the compiler can
        // vectorize; per-element results match the scalar calls exactly.
        let g_row = s.gates;
        g_row.copy_from_slice(s.z);
        sigmoid_map(&mut g_row[..3 * h]);
        tanh_map(&mut g_row[3 * h..]);
        for k in 0..h {
            s.c[k] = g_row[h + k] * s.c_prev[k] + g_row[k] * g_row[3 * h + k];
        }
        let tc = s.aux;
        tc.copy_from_slice(s.c);
        tanh_map(tc);
        for k in 0..h {
            s.h[k] = g_row[2 * h + k] * tc[k];
        }
    }

    /// `dstate` carries the cell-state gradient `dC` backwards.
    #[inline]
    fn backward_step(layer: &LstmLayer, s: BackStep<'_>, grads: &mut LayerGrads) {
        let h = layer.hidden;
        let (i_gate, rest) = s.gates.split_at(h);
        let (f_gate, rest) = rest.split_at(h);
        let (o_gate, g_gate) = rest.split_at(h);
        let (tanh_c, c_prev, dz, dc_next) = (s.aux, s.c_prev, s.dz, s.dstate);

        // Total gradient into h_t: from above + from t+1's recurrence.
        // dc_t: from h_t through o*tanh(C_t), plus carried dc_next.
        for k in 0..h {
            let dh = s.dh[k] + s.dh_next[k];
            let dct = dh * o_gate[k] * tanh_deriv_from_output(tanh_c[k]) + dc_next[k];
            let do_ = dh * tanh_c[k];
            let di = dct * g_gate[k];
            let df = dct * c_prev[k];
            let dg = dct * i_gate[k];

            dz[k] = di * sigmoid_deriv_from_output(i_gate[k]);
            dz[h + k] = df * sigmoid_deriv_from_output(f_gate[k]);
            dz[2 * h + k] = do_ * sigmoid_deriv_from_output(o_gate[k]);
            dz[3 * h + k] = dg * tanh_deriv_from_output(g_gate[k]);

            // Carry cell gradient to t-1.
            dc_next[k] = dct * f_gate[k];
        }

        // Parameter gradients: outer products with x_t and h_prev.
        for (r, &dzr) in dz.iter().enumerate() {
            if dzr == 0.0 {
                continue;
            }
            vecops::axpy(dzr, s.x, grads.dw.row_mut(r));
            vecops::axpy(dzr, s.h_prev, grads.du.row_mut(r));
            grads.db[(r, 0)] += dzr;
        }

        // dx_t = W^T dz ; dh_prev = U^T dz — contiguous mat-vecs over
        // the cached transposes instead of per-row strided axpys.
        layer.w_transposed().matvec_into(dz, s.dx);
        layer.u_transposed().matvec_into(dz, s.dh_next);
    }
}

/// Forward-pass record of the pre-change implementation (nested `Vec`s),
/// kept as the equivalence oracle for the workspace kernels.
#[derive(Debug, Clone)]
pub struct ReferenceLstmCache {
    pub(crate) xs: Vec<Vec<f64>>,
    pub(crate) hs: Vec<Vec<f64>>,
    pub(crate) cs: Vec<Vec<f64>>,
    pub(crate) gates: Vec<[Vec<f64>; 4]>,
    pub(crate) tanh_c: Vec<Vec<f64>>,
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
    /// `z_r = dot4(W_r, x) + dot4(U_r, h_prev) + b_r`. Retained as the
    /// "before" kernel `ld-perfbench` times the fused step against and the
    /// 1e-9 oracle the equivalence suite pins it to.
    pub fn gate_step_reference(&self, x: &[f64], h_prev: &[f64], z: &mut [f64]) {
        for (r, zr) in z.iter_mut().enumerate() {
            *zr = vecops::dot4(self.w.row(r), x)
                + vecops::dot4(self.u.row(r), h_prev)
                + self.b[(r, 0)];
        }
    }

    /// The pre-change forward pass, retained verbatim (per-step `Vec`
    /// allocations, sequential `dot`) as the equivalence oracle and the
    /// perfbench "before" kernel. Not used by the training hot path.
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

    /// The pre-change backward pass over a [`ReferenceLstmCache`], retained
    /// verbatim as the equivalence oracle for [`Self::backward_into`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scalar_seq(vals: &[f64]) -> Vec<Vec<f64>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = LstmLayer::new(1, 4, &mut rng);
        let cache = layer.forward(&scalar_seq(&[0.1, 0.2, 0.3]));
        assert_eq!(cache.steps(), 3);
        assert_eq!(cache.hidden_sequence().len(), 3 * 4);
        assert_eq!(cache.hidden_row(0).len(), 4);
        assert_eq!(cache.last_hidden().len(), 4);
        assert_eq!(cache.last_hidden(), cache.hidden_row(2));
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // |h| = |o * tanh(C)| <= 1 elementwise.
        let mut rng = StdRng::seed_from_u64(2);
        let layer = LstmLayer::new(1, 8, &mut rng);
        let xs = scalar_seq(&[5.0, -5.0, 10.0, 0.0, -10.0]);
        let cache = layer.forward(&xs);
        for hs in cache.hidden_sequence().chunks(8) {
            for &v in hs {
                assert!(v.abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn zero_input_zero_state_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![vec![0.0, 0.0]; 4];
        let a = layer.forward(&xs);
        let b = layer.forward(&xs);
        assert_eq!(a.last_hidden(), b.last_hidden());
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = LstmLayer::new(1, 5, &mut rng);
        for k in 0..5 {
            assert_eq!(layer.b[(5 + k, 0)], 1.0); // forget block
            assert_eq!(layer.b[(k, 0)], 0.0); // input block
        }
    }

    /// The workspace kernels agree with the retained pre-change
    /// implementation within 1e-9 relative (the fast path reorders dot
    /// sums, so bitwise equality is not expected).
    #[test]
    fn workspace_forward_backward_match_reference() {
        for &(seed, i_dim, h, t_len) in
            &[(7u64, 2usize, 3usize, 4usize), (8, 1, 8, 6), (9, 5, 4, 1)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = LstmLayer::new(i_dim, h, &mut rng);
            let xs: Vec<Vec<f64>> = (0..t_len)
                .map(|t| {
                    (0..i_dim)
                        .map(|d| ((t * i_dim + d) as f64 * 0.37 + seed as f64).sin())
                        .collect()
                })
                .collect();
            let fast = layer.forward(&xs);
            let refr = layer.forward_reference(&xs);
            for t in 0..t_len {
                for k in 0..h {
                    let a = fast.hidden_row(t)[k];
                    let b = refr.hidden_sequence()[t][k];
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "h[{t}][{k}]: {a} vs {b}"
                    );
                }
            }

            let dh_seq: Vec<Vec<f64>> = (0..t_len)
                .map(|t| (0..h).map(|k| ((t + k) as f64 * 0.61).cos()).collect())
                .collect();
            let (g_fast, dx_fast) = layer.backward(&fast, &dh_seq);
            let (g_ref, dx_ref) = layer.backward_reference(&refr, &dh_seq);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
            assert!(
                g_fast.dw.max_abs_diff(&g_ref.dw) <= 1e-9 * (1.0 + g_ref.dw.frobenius_norm()),
                "dw mismatch (seed {seed})"
            );
            assert!(
                g_fast.du.max_abs_diff(&g_ref.du) <= 1e-9 * (1.0 + g_ref.du.frobenius_norm()),
                "du mismatch (seed {seed})"
            );
            assert!(
                g_fast.db.max_abs_diff(&g_ref.db) <= 1e-9 * (1.0 + g_ref.db.frobenius_norm()),
                "db mismatch (seed {seed})"
            );
            for t in 0..t_len {
                for d in 0..i_dim {
                    assert!(
                        close(dx_fast[t][d], dx_ref[t][d]),
                        "dx[{t}][{d}]: {} vs {} (seed {seed})",
                        dx_fast[t][d],
                        dx_ref[t][d]
                    );
                }
            }
        }
    }

    /// Finite-difference gradient check over every parameter of a tiny LSTM.
    ///
    /// Loss: sum of final hidden state. The analytic gradient from
    /// `backward` must match central differences to ~1e-6.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Vec<f64>> = vec![vec![0.5, -0.3], vec![0.1, 0.9], vec![-0.7, 0.2]];

        let loss = |l: &LstmLayer| -> f64 { l.forward(&xs).last_hidden().iter().sum() };

        // Analytic gradients: dh at last step = ones, zeros elsewhere.
        let cache = layer.forward(&xs);
        let mut dh_seq = vec![vec![0.0; 3]; 3];
        dh_seq[2] = vec![1.0; 3];
        let (grads, dxs) = layer.backward(&cache, &dh_seq);

        let eps = 1e-6;
        let check = |get: &dyn Fn(&LstmLayer) -> f64,
                     set: &dyn Fn(&mut LstmLayer, f64),
                     analytic: f64,
                     what: &str| {
            // One fresh clone per perturbation: a clone starts with cold
            // packed-panel caches, and a forward pass warms them — so
            // mutating the same instance again would serve stale panels.
            let orig = get(&layer);
            let mut lp = layer.clone();
            set(&mut lp, orig + eps);
            let fplus = loss(&lp);
            let mut lm = layer.clone();
            set(&mut lm, orig - eps);
            let fminus = loss(&lm);
            let fd = (fplus - fminus) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 1e-6,
                "{what}: fd={fd} analytic={analytic}"
            );
        };

        for r in 0..12 {
            for c in 0..2 {
                check(
                    &|l| l.w[(r, c)],
                    &|l, v| l.w[(r, c)] = v,
                    grads.dw[(r, c)],
                    "W",
                );
            }
            for c in 0..3 {
                check(
                    &|l| l.u[(r, c)],
                    &|l, v| l.u[(r, c)] = v,
                    grads.du[(r, c)],
                    "U",
                );
            }
            check(
                &|l| l.b[(r, 0)],
                &|l, v| l.b[(r, 0)] = v,
                grads.db[(r, 0)],
                "b",
            );
        }

        // Input gradients too.
        for t in 0..3 {
            for d in 0..2 {
                let mut xp = xs.clone();
                xp[t][d] += eps;
                let fplus = layer.forward(&xp).last_hidden().iter().sum::<f64>();
                xp[t][d] -= 2.0 * eps;
                let fminus = layer.forward(&xp).last_hidden().iter().sum::<f64>();
                let fd = (fplus - fminus) / (2.0 * eps);
                assert!(
                    (fd - dxs[t][d]).abs() < 1e-6,
                    "dx[{t}][{d}]: fd={fd} analytic={}",
                    dxs[t][d]
                );
            }
        }
    }
}
