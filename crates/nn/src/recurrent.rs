//! The recurrent engine: one generic layer, one gradient type and one flat
//! per-layer cache under every recurrent cell.
//!
//! A [`Cell`] supplies only what differs between cells: its gate count,
//! whether it carries a memory state beside `h`, its bias initialization,
//! the per-step gate and state update ([`Cell::step`]) and its backward
//! step ([`Cell::backward_step`]). Everything else lives here once:
//!
//! - the parameters, packed row-wise into single `W` (`GH x input_dim`),
//!   `U` (`GH x H`) and `b` (`GH x 1`) tensors for `G` gate blocks;
//! - the lazily built weight transposes (contiguous backward mat-vecs) and
//!   the fused `[W | U | b]` gate panel packed into micro-panels
//!   ([`ld_linalg::pack`]), which the sequential gate step and the batched
//!   inference kernel ([`crate::batch`]) both run, so every path computes
//!   the same gate chains; [`RecurrentLayer::visit_params`] invalidates
//!   them whenever it exposes the weights to an optimizer step, and a clone
//!   starts without them;
//! - the unroll over time ([`RecurrentLayer::forward_into`]) and the
//!   reverse sweep ([`RecurrentLayer::backward_into`]) over a caller-owned
//!   [`LayerCache`] whose flat strided buffers make both allocation-free
//!   once grown (see [`crate::workspace`]);
//! - hand-written serde that persists the parameters and nothing derived.
//!
//! Dispatch is static: each cell monomorphizes its own loops, with no `dyn`
//! and no per-step `match`. The stacked forecaster shell over a stack of
//! these layers is [`crate::forecaster::RecurrentForecaster`]. The cells
//! are [`crate::lstm::Lstm`] (the paper's) and [`crate::gru::Gru`].

use std::marker::PhantomData;
use std::sync::OnceLock;

use ld_linalg::pack::PackedA;
use ld_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What differs between recurrent cells. Implementors are zero-sized
/// markers; the engine calls them once per time step.
pub trait Cell: Copy + Send + Sync {
    /// Gate blocks packed row-wise in `W`, `U` and `b`, `H` rows each.
    const GATES: usize;
    /// Whether the cell carries a memory state `C_t` beside `h_t`.
    const CELL_STATE: bool;

    /// Initializes the bias (`GATES * hidden x 1`, zero on entry) of a
    /// freshly Xavier-initialized layer.
    fn init_bias(b: &mut Matrix, hidden: usize);

    /// One forward step: fills `s.gates`, `s.aux`, `s.c` and `s.h` from
    /// `s.x`, `s.h_prev` and `s.c_prev`.
    fn step(layer: &RecurrentLayer<Self>, s: Step<'_>);

    /// One backward step: *accumulates* the step's parameter gradients into
    /// `grads`, overwrites `s.dx`, and replaces `s.dh_next` (the gradient
    /// into `h_t` from step `t + 1`) with the gradient into `h_{t-1}`.
    fn backward_step(layer: &RecurrentLayer<Self>, s: BackStep<'_>, grads: &mut LayerGrads);
}

/// One forward step's rows of a [`LayerCache`], plus the step scratch.
#[derive(Debug)]
pub struct Step<'a> {
    /// Input `x_t` (`input_dim`).
    pub x: &'a [f64],
    /// Previous hidden state `h_{t-1}` (`H`).
    pub h_prev: &'a [f64],
    /// Hidden state `h_t` to write (`H`).
    pub h: &'a mut [f64],
    /// Previous memory state `C_{t-1}` (`H`; empty without cell state).
    pub c_prev: &'a [f64],
    /// Memory state `C_t` to write (`H`; empty without cell state).
    pub c: &'a mut [f64],
    /// Post-activation gates to record (`GATES * H`); a cell may write its
    /// pre-activations here first and activate them in place.
    pub gates: &'a mut [f64],
    /// The cell's own `H`-wide record for its backward step.
    pub aux: &'a mut [f64],
    /// Scratch for the fused gate input `[x_t | h_{t-1} | 1]`.
    pub gate_in: &'a mut [f64],
}

/// One backward step's rows of a [`LayerCache`], plus the sweep scratch.
#[derive(Debug)]
pub struct BackStep<'a> {
    /// Input `x_t`.
    pub x: &'a [f64],
    /// Previous hidden state `h_{t-1}`.
    pub h_prev: &'a [f64],
    /// Previous memory state `C_{t-1}` (empty without cell state).
    pub c_prev: &'a [f64],
    /// The step's recorded post-activation gates.
    pub gates: &'a [f64],
    /// The step's recorded `aux` row.
    pub aux: &'a [f64],
    /// Loss gradient flowing into `h_t` from above.
    pub dh: &'a [f64],
    /// Gradient w.r.t. `x_t`, overwritten.
    pub dx: &'a mut [f64],
    /// Pre-activation gradient scratch (`GATES * H`).
    pub dz: &'a mut [f64],
    /// In: gradient into `h_t` from step `t + 1`. Out: into `h_{t-1}`.
    pub dh_next: &'a mut [f64],
    /// The cell's own `H`-wide buffer, zeroed before the sweep and kept
    /// across steps (the LSTM carries its cell-state gradient in it).
    pub dstate: &'a mut [f64],
}

/// One recurrent layer of cell `C`, unrolled over a window.
#[derive(Debug)]
pub struct RecurrentLayer<C> {
    pub(crate) input_dim: usize,
    pub(crate) hidden: usize,
    /// Input weights, `GATES * H x input_dim`.
    pub(crate) w: Matrix,
    /// Recurrent weights, `GATES * H x H`.
    pub(crate) u: Matrix,
    /// Bias, `GATES * H x 1`.
    pub(crate) b: Matrix,
    /// Lazily built `W^T` for the backward `dx` mat-vec.
    wt: OnceLock<Matrix>,
    /// Lazily built `U^T` for the backward `dh` mat-vec.
    ut: OnceLock<Matrix>,
    /// Lazily packed fused gate panel `[W | U | b]`
    /// (`GATES * H x (input_dim + H + 1)` in micro-panels).
    fused_wub: OnceLock<PackedA>,
    cell: PhantomData<C>,
}

// A clone starts with cold derived caches (transposes, packed panels):
// clones are taken to perturb or archive weights, and a carried-over cache
// would silently serve the *original* parameters if the clone's fields are
// then mutated directly (crate-internal code can; `visit_params` is the
// only public mutation path and invalidates explicitly).
impl<C> Clone for RecurrentLayer<C> {
    fn clone(&self) -> Self {
        Self::from_parts(
            self.input_dim,
            self.hidden,
            self.w.clone(),
            self.u.clone(),
            self.b.clone(),
        )
    }
}

/// Gradients for one [`RecurrentLayer`], same shapes as its parameters.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Gradient of the input weights.
    pub dw: Matrix,
    /// Gradient of the recurrent weights.
    pub du: Matrix,
    /// Gradient of the bias.
    pub db: Matrix,
}

impl LayerGrads {
    /// Accumulates another gradient set (for batch reduction).
    pub fn accumulate(&mut self, other: &LayerGrads) {
        crate::accumulate_matrix(&mut self.dw, &other.dw);
        crate::accumulate_matrix(&mut self.du, &other.du);
        crate::accumulate_matrix(&mut self.db, &other.db);
    }

    /// Scales all gradients (e.g. by `1/batch`).
    pub fn scale(&mut self, alpha: f64) {
        self.dw.scale(alpha);
        self.du.scale(alpha);
        self.db.scale(alpha);
    }

    /// Resets all gradients to `+0.0` in place.
    pub fn clear(&mut self) {
        self.dw.as_mut_slice().fill(0.0);
        self.du.as_mut_slice().fill(0.0);
        self.db.as_mut_slice().fill(0.0);
    }
}

/// Everything the backward sweep needs from a forward unroll, stored as
/// flat strided buffers (`T` rows of fixed width each) so a reused cache
/// performs zero allocations once grown. One type serves every cell.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    steps: usize,
    input_dim: usize,
    hidden: usize,
    /// Input vectors, `T x input_dim`, row-major.
    xs: Vec<f64>,
    /// Hidden states, `(T + 1) x H`; row 0 is the seeded zero initial state.
    hs: Vec<f64>,
    /// Memory states, `(T + 1) x H` (row 0 zero); empty for cells without.
    cs: Vec<f64>,
    /// Post-activation gates per step, `T x GATES * H`.
    gates: Vec<f64>,
    /// The cell's own record per step, `T x H`.
    aux: Vec<f64>,
    /// Scratch for the fused gate input `[x_t | h_{t-1} | 1]`.
    gate_in: Vec<f64>,
}

impl LayerCache {
    /// The full hidden-state sequence `h_1 .. h_T` (excludes the initial
    /// zero state) as one flat `T x H` row-major slice — the input to the
    /// next stacked layer.
    pub fn hidden_sequence(&self) -> &[f64] {
        &self.hs[self.hidden..]
    }

    /// Hidden state `h_{t+1}` for step `t` in `0..steps()`.
    pub fn hidden_row(&self, t: usize) -> &[f64] {
        &self.hs[(t + 1) * self.hidden..(t + 2) * self.hidden]
    }

    /// The final hidden state `h_T` fed to the dense head. For an empty
    /// cache this is the seeded zero initial state.
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.steps * self.hidden..]
    }

    /// Number of unrolled steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Hidden width `H` of the recorded unroll.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Resizes every buffer for a `steps`-long unroll of cell `C`, reusing
    /// capacity, and seeds the initial state rows with zeros. Rows `1..`
    /// are left as garbage for the forward sweep to overwrite.
    fn reset<C: Cell>(&mut self, steps: usize, input_dim: usize, hidden: usize) {
        let c_width = if C::CELL_STATE { hidden } else { 0 };
        self.steps = steps;
        self.input_dim = input_dim;
        self.hidden = hidden;
        self.xs.resize(steps * input_dim, 0.0);
        self.hs.resize((steps + 1) * hidden, 0.0);
        self.cs.resize((steps + 1) * c_width, 0.0);
        self.gates.resize(steps * C::GATES * hidden, 0.0);
        self.aux.resize(steps * hidden, 0.0);
        self.gate_in.resize(input_dim + hidden + 1, 0.0);
        self.hs[..hidden].fill(0.0);
        self.cs[..c_width].fill(0.0);
    }
}

impl<C> RecurrentLayer<C> {
    fn from_parts(input_dim: usize, hidden: usize, w: Matrix, u: Matrix, b: Matrix) -> Self {
        RecurrentLayer {
            input_dim,
            hidden,
            w,
            u,
            b,
            wt: OnceLock::new(),
            ut: OnceLock::new(),
            fused_wub: OnceLock::new(),
            cell: PhantomData,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state size (the paper's cell-memory size `s`).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w.rows() * (self.input_dim + self.hidden + 1)
    }

    /// Input weights `W` (`GATES * H x input_dim`), read-only — used by
    /// snapshot fingerprints.
    pub fn input_weights(&self) -> &Matrix {
        &self.w
    }

    /// Recurrent weights `U` (`GATES * H x H`), read-only.
    pub fn recurrent_weights(&self) -> &Matrix {
        &self.u
    }

    /// Bias `b` (`GATES * H x 1`), read-only.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Zeroed gradients matching this layer's parameters.
    pub fn zero_grads(&self) -> LayerGrads {
        let rows = self.w.rows();
        LayerGrads {
            dw: Matrix::zeros(rows, self.input_dim),
            du: Matrix::zeros(rows, self.hidden),
            db: Matrix::zeros(rows, 1),
        }
    }

    /// Visits `(parameter, gradient)` tensor pairs in a fixed order, used by
    /// the optimizer. Invalidate-on-step: any visitor may mutate the
    /// weights, so the derived caches are dropped afterwards and rebuilt
    /// from the updated weights on next use.
    pub fn visit_params<'a>(
        &'a mut self,
        grads: &'a LayerGrads,
        f: &mut impl FnMut(&mut Matrix, &Matrix),
    ) {
        f(&mut self.w, &grads.dw);
        f(&mut self.u, &grads.du);
        f(&mut self.b, &grads.db);
        self.wt.take();
        self.ut.take();
        self.fused_wub.take();
    }

    /// `W^T`, built on first use after each parameter update.
    pub(crate) fn w_transposed(&self) -> &Matrix {
        self.wt.get_or_init(|| self.w.transpose())
    }

    /// `U^T`, built on first use after each parameter update.
    pub(crate) fn u_transposed(&self) -> &Matrix {
        self.ut.get_or_init(|| self.u.transpose())
    }

    /// The fused gate panel `[W | U | b]` packed into micro-panels, built
    /// on first use after each parameter update. One packed mat-vec of
    /// this panel against `[x | h_prev | 1]` computes every gate
    /// pre-activation; the batched kernel runs the same panel as a GEMM
    /// against one such column per lane.
    pub(crate) fn fused_gate_panel(&self) -> &PackedA {
        self.fused_wub.get_or_init(|| {
            let (rows, i_dim, h) = (self.w.rows(), self.input_dim, self.hidden);
            let width = i_dim + h + 1;
            let mut flat = vec![0.0; rows * width];
            for (r, row) in flat.chunks_exact_mut(width).enumerate() {
                row[..i_dim].copy_from_slice(self.w.row(r));
                row[i_dim..i_dim + h].copy_from_slice(self.u.row(r));
                row[i_dim + h] = self.b[(r, 0)];
            }
            PackedA::pack(&flat, rows, width)
        })
    }

    /// Fused gate step: writes every pre-activation `z = W x + U h_prev + b`
    /// as **one** packed mat-vec of the cached `[W | U | b]` panel against
    /// `[x | h_prev | 1]` (assembled into `gate_in`). Each `z` row is a
    /// single ascending dot over the concatenated input, so results agree
    /// with the per-row reference step's three-term combine within 1e-9
    /// relative (not bitwise — the split points differ).
    ///
    /// # Panics
    /// Panics on mismatched slice lengths.
    pub fn gate_step_fused(&self, x: &[f64], h_prev: &[f64], gate_in: &mut [f64], z: &mut [f64]) {
        let (i_dim, h) = (self.input_dim, self.hidden);
        assert_eq!(gate_in.len(), i_dim + h + 1, "gate_in length");
        gate_in[..i_dim].copy_from_slice(x);
        gate_in[i_dim..i_dim + h].copy_from_slice(h_prev);
        gate_in[i_dim + h] = 1.0;
        self.fused_gate_panel().matvec_into(gate_in, z);
    }
}

impl<C: Cell> RecurrentLayer<C> {
    /// Creates a layer with Xavier-initialized weights and the cell's bias.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(
            input_dim > 0 && hidden > 0,
            "recurrent dims must be positive"
        );
        let w = Matrix::xavier_uniform(C::GATES * hidden, input_dim, rng);
        let u = Matrix::xavier_uniform(C::GATES * hidden, hidden, rng);
        let mut b = Matrix::zeros(C::GATES * hidden, 1);
        C::init_bias(&mut b, hidden);
        Self::from_parts(input_dim, hidden, w, u, b)
    }

    /// Unrolls the layer over a flat `steps x input_dim` row-major input
    /// starting from zero state, recording the cache for backprop.
    /// Allocation-free once the cache has grown to size.
    ///
    /// # Panics
    /// Panics if `xs.len() != steps * input_dim`.
    pub fn forward_into(&self, xs: &[f64], steps: usize, cache: &mut LayerCache) {
        let (h, i_dim) = (self.hidden, self.input_dim);
        let gh = C::GATES * h;
        let ch = if C::CELL_STATE { h } else { 0 };
        assert_eq!(xs.len(), steps * i_dim, "recurrent input dim mismatch");
        cache.reset::<C>(steps, i_dim, h);
        cache.xs.copy_from_slice(xs);

        let LayerCache {
            xs: cxs,
            hs,
            cs,
            gates,
            aux,
            gate_in,
            ..
        } = cache;
        for t in 0..steps {
            // Borrow row t read-only and row t+1 mutably from one buffer.
            let (hs_head, hs_tail) = hs.split_at_mut((t + 1) * h);
            let (cs_head, cs_tail) = cs.split_at_mut((t + 1) * ch);
            let step = Step {
                x: &cxs[t * i_dim..(t + 1) * i_dim],
                h_prev: &hs_head[t * h..],
                h: &mut hs_tail[..h],
                c_prev: &cs_head[t * ch..],
                c: &mut cs_tail[..ch],
                gates: &mut gates[t * gh..(t + 1) * gh],
                aux: &mut aux[t * h..(t + 1) * h],
                gate_in,
            };
            C::step(self, step);
        }
    }

    /// Backpropagates through the unrolled layer without allocating.
    ///
    /// `dh_seq` is the flat `steps x H` loss gradient flowing into
    /// `h_1..h_T` from above. Parameter gradients are *accumulated* into
    /// `grads` (callers zero or carry a batch accumulator); `dxs` (flat
    /// `steps x input_dim`) is overwritten with the input-sequence gradient.
    /// `dz`/`dh_next`/`dstate` are scratch buffers sized on entry.
    ///
    /// # Panics
    /// Panics on mismatched `cache`, `dh_seq` or `dxs` shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        cache: &LayerCache,
        dh_seq: &[f64],
        grads: &mut LayerGrads,
        dxs: &mut [f64],
        dz: &mut Vec<f64>,
        dh_next: &mut Vec<f64>,
        dstate: &mut Vec<f64>,
    ) {
        let (h, i_dim) = (self.hidden, self.input_dim);
        let gh = C::GATES * h;
        let ch = if C::CELL_STATE { h } else { 0 };
        let steps = cache.steps;
        assert_eq!(cache.hidden, h, "cache hidden width mismatch");
        assert_eq!(cache.input_dim, i_dim, "cache input dim mismatch");
        assert_eq!(dh_seq.len(), steps * h, "dh sequence length mismatch");
        assert_eq!(dxs.len(), steps * i_dim, "dxs length mismatch");
        for (buf, len) in [(&mut *dz, gh), (&mut *dh_next, h), (&mut *dstate, h)] {
            buf.clear();
            buf.resize(len, 0.0);
        }

        for t in (0..steps).rev() {
            // Rows `t` of hs/cs are the *previous* states (row 0 is h_0).
            let step = BackStep {
                x: &cache.xs[t * i_dim..(t + 1) * i_dim],
                h_prev: &cache.hs[t * h..(t + 1) * h],
                c_prev: &cache.cs[t * ch..(t + 1) * ch],
                gates: &cache.gates[t * gh..(t + 1) * gh],
                aux: &cache.aux[t * h..(t + 1) * h],
                dh: &dh_seq[t * h..(t + 1) * h],
                dx: &mut dxs[t * i_dim..(t + 1) * i_dim],
                dz,
                dh_next,
                dstate,
            };
            C::backward_step(self, step, grads);
        }
    }

    /// Convenience wrapper over [`Self::forward_into`] for callers that
    /// hold a nested-`Vec` sequence and do not reuse buffers (tests, small
    /// one-off evaluations).
    ///
    /// # Panics
    /// Panics if any input vector has the wrong dimension.
    pub fn forward(&self, xs: &[Vec<f64>]) -> LayerCache {
        let mut flat = Vec::with_capacity(xs.len() * self.input_dim);
        for x in xs {
            assert_eq!(x.len(), self.input_dim, "recurrent input dim mismatch");
            flat.extend_from_slice(x);
        }
        let mut cache = LayerCache::default();
        self.forward_into(&flat, xs.len(), &mut cache);
        cache
    }

    /// Convenience wrapper over [`Self::backward_into`] returning freshly
    /// allocated gradients; `dh_seq[t]` is the loss gradient flowing into
    /// `h_{t+1}` from above.
    pub fn backward(&self, cache: &LayerCache, dh_seq: &[Vec<f64>]) -> (LayerGrads, Vec<Vec<f64>>) {
        let h = self.hidden;
        assert_eq!(dh_seq.len(), cache.steps(), "dh sequence length mismatch");
        let mut flat = Vec::with_capacity(dh_seq.len() * h);
        for d in dh_seq {
            assert_eq!(d.len(), h, "dh width mismatch");
            flat.extend_from_slice(d);
        }
        let mut grads = self.zero_grads();
        let mut dxs_flat = vec![0.0; cache.steps() * self.input_dim];
        let (mut dz, mut dh_next, mut dstate) = (Vec::new(), Vec::new(), Vec::new());
        self.backward_into(
            cache,
            &flat,
            &mut grads,
            &mut dxs_flat,
            &mut dz,
            &mut dh_next,
            &mut dstate,
        );
        let dxs = dxs_flat
            .chunks(self.input_dim)
            .map(<[f64]>::to_vec)
            .collect();
        (grads, dxs)
    }
}

// Hand-written (de)serialization: the vendored `serde_derive` supports
// neither generic types nor `#[serde(skip)]`, and the transposes and packed
// panels are derived state that must not be persisted. The field set and
// order match what the derive used to emit for `LstmLayer`, so existing
// model snapshots keep loading and hash the same.
impl<C> Serialize for RecurrentLayer<C> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("input_dim"), self.input_dim.to_value()),
            (String::from("hidden"), self.hidden.to_value()),
            (String::from("w"), self.w.to_value()),
            (String::from("u"), self.u.to_value()),
            (String::from("b"), self.b.to_value()),
        ])
    }
}

impl<C: Cell> Deserialize for RecurrentLayer<C> {
    /// Rejects parameters whose shapes are not this cell's, such as a
    /// snapshot of another cell, before any kernel indexes them.
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let layer = Self::from_parts(
            Deserialize::from_value(v.field("input_dim")?)?,
            Deserialize::from_value(v.field("hidden")?)?,
            Deserialize::from_value(v.field("w")?)?,
            Deserialize::from_value(v.field("u")?)?,
            Deserialize::from_value(v.field("b")?)?,
        );
        let rows = C::GATES * layer.hidden;
        let shapes = [
            (&layer.w, layer.input_dim),
            (&layer.u, layer.hidden),
            (&layer.b, 1),
        ];
        if shapes.iter().any(|(m, cols)| m.shape() != (rows, *cols)) {
            return Err(serde::DeError::new(format!(
                "recurrent layer parameters do not fit {} gates of width {} over {} inputs",
                C::GATES,
                layer.hidden,
                layer.input_dim
            )));
        }
        Ok(layer)
    }
}

#[cfg(test)]
mod tests {
    use crate::gru::GruLayer;
    use crate::lstm::LstmLayer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn param_count_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            LstmLayer::new(3, 7, &mut rng).param_count(),
            4 * 7 * (3 + 7 + 1)
        );
        assert_eq!(
            GruLayer::new(3, 7, &mut rng).param_count(),
            3 * 7 * (3 + 7 + 1)
        );
    }

    /// `visit_params` must drop the cached transposes: a backward pass,
    /// then a weight update, then another backward pass has to use the
    /// *new* weights for `dx`/`dh`.
    #[test]
    fn transpose_cache_invalidated_on_param_update() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.8]];
        let dh_seq = vec![vec![0.3, -0.1, 0.5]; 2];

        // First backward builds the transpose caches.
        let cache = layer.forward(&xs);
        let (_, _) = layer.backward(&cache, &dh_seq);

        // Update every parameter through the optimizer-facing visitor.
        let zero = layer.zero_grads();
        layer.visit_params(&zero, &mut |p, _| {
            for v in p.as_mut_slice() {
                *v += 0.05;
            }
        });

        // The next backward must agree with the reference path on the
        // *updated* layer — it would not if stale transposes survived.
        let cache = layer.forward(&xs);
        let (g_fast, dx_fast) = layer.backward(&cache, &dh_seq);
        let refr = layer.forward_reference(&xs);
        let (g_ref, dx_ref) = layer.backward_reference(&refr, &dh_seq);
        assert!(g_fast.dw.max_abs_diff(&g_ref.dw) <= 1e-9 * (1.0 + g_ref.dw.frobenius_norm()));
        for t in 0..2 {
            for d in 0..2 {
                assert!((dx_fast[t][d] - dx_ref[t][d]).abs() <= 1e-9 * (1.0 + dx_ref[t][d].abs()));
            }
        }
    }

    #[test]
    fn serde_roundtrip_skips_transpose_caches() {
        let mut rng = StdRng::seed_from_u64(12);
        let layer = LstmLayer::new(2, 3, &mut rng);
        // Build the transposes, then round-trip: the JSON must not carry
        // them and the restored layer must behave identically.
        let cache = layer.forward(&[vec![0.1, 0.2]]);
        let _ = layer.backward(&cache, &[vec![1.0, 0.0, -1.0]]);
        let json = serde_json::to_string(&layer).expect("serialize");
        assert!(!json.contains("\"wt\""));
        let back: LstmLayer = serde_json::from_str(&json).expect("deserialize");
        let a = layer.forward(&[vec![0.3, -0.4]]);
        let b = back.forward(&[vec![0.3, -0.4]]);
        assert_eq!(a.last_hidden(), b.last_hidden());
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut rng = StdRng::seed_from_u64(13);
        let layer = LstmLayer::new(1, 2, &mut rng);
        let mut a = layer.zero_grads();
        let mut b = layer.zero_grads();
        a.dw[(0, 0)] = 2.0;
        b.dw[(0, 0)] = 3.0;
        a.accumulate(&b);
        assert_eq!(a.dw[(0, 0)], 5.0);
        a.scale(0.5);
        assert_eq!(a.dw[(0, 0)], 2.5);
    }
}
