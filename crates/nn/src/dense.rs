//! Fully-connected layer — the output head `T` of the paper's Fig. 3.

use ld_linalg::{vecops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense affine layer `y = W x + b` (no activation; the forecaster head is
/// linear, as in the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `out_dim x in_dim`.
    w: Matrix,
    /// Bias, `out_dim x 1`.
    b: Matrix,
}

/// Gradients for a [`Dense`] layer.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient of the weights.
    pub dw: Matrix,
    /// Gradient of the bias.
    pub db: Matrix,
}

impl DenseGrads {
    /// Zeroed gradients for the given shape.
    pub fn zeros(out_dim: usize, in_dim: usize) -> Self {
        DenseGrads {
            dw: Matrix::zeros(out_dim, in_dim),
            db: Matrix::zeros(out_dim, 1),
        }
    }

    /// Accumulates another gradient set.
    pub fn accumulate(&mut self, other: &DenseGrads) {
        crate::accumulate_matrix(&mut self.dw, &other.dw);
        crate::accumulate_matrix(&mut self.db, &other.db);
    }

    /// Scales all gradients.
    pub fn scale(&mut self, alpha: f64) {
        self.dw.scale(alpha);
        self.db.scale(alpha);
    }

    /// Resets all gradients to `+0.0` in place.
    pub fn clear(&mut self) {
        self.dw.as_mut_slice().fill(0.0);
        self.db.as_mut_slice().fill(0.0);
    }
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        Dense {
            w: Matrix::xavier_uniform(out_dim, in_dim, rng),
            b: Matrix::zeros(out_dim, 1),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w.rows() * (self.w.cols() + 1)
    }

    /// Weights `W` (`out_dim x in_dim`), read-only — used by the fused
    /// batch kernel and snapshot fingerprints.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Bias `b` (`out_dim x 1`), read-only.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.in_dim());
        (0..self.out_dim())
            .map(|r| vecops::dot(self.w.row(r), x) + self.b[(r, 0)])
            .collect()
    }

    /// Allocation-free forward pass: assigns `W x + b` into `out`.
    ///
    /// # Panics
    /// Panics on mismatched `x`/`out` lengths.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim(), "dense input dim mismatch");
        assert_eq!(out.len(), self.out_dim(), "dense output dim mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = vecops::dot4(self.w.row(r), x) + self.b[(r, 0)];
        }
    }

    /// Backward pass: given the input used in `forward` and the gradient
    /// `dy` of the loss w.r.t. the output, returns parameter gradients and
    /// the gradient w.r.t. the input.
    pub fn backward(&self, x: &[f64], dy: &[f64]) -> (DenseGrads, Vec<f64>) {
        debug_assert_eq!(dy.len(), self.out_dim());
        let mut grads = DenseGrads::zeros(self.out_dim(), self.in_dim());
        let mut dx = vec![0.0; self.in_dim()];
        for (r, &dyr) in dy.iter().enumerate() {
            if dyr == 0.0 {
                continue;
            }
            vecops::axpy(dyr, x, grads.dw.row_mut(r));
            grads.db[(r, 0)] += dyr;
            vecops::axpy(dyr, self.w.row(r), &mut dx);
        }
        (grads, dx)
    }

    /// Allocation-free backward pass. Parameter gradients are *accumulated*
    /// into `grads`; the input gradient is accumulated into `dx` (callers
    /// zero it beforehand when they want the bare gradient).
    ///
    /// # Panics
    /// Panics on mismatched slice lengths or gradient shapes.
    pub fn backward_into(&self, x: &[f64], dy: &[f64], grads: &mut DenseGrads, dx: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim(), "dense input dim mismatch");
        assert_eq!(dy.len(), self.out_dim(), "dense output dim mismatch");
        assert_eq!(dx.len(), self.in_dim(), "dense dx dim mismatch");
        assert_eq!(grads.dw.rows(), self.out_dim(), "dense dw shape mismatch");
        assert_eq!(grads.dw.cols(), self.in_dim(), "dense dw shape mismatch");
        for (r, &dyr) in dy.iter().enumerate() {
            if dyr == 0.0 {
                continue;
            }
            vecops::axpy(dyr, x, grads.dw.row_mut(r));
            grads.db[(r, 0)] += dyr;
            vecops::axpy(dyr, self.w.row(r), dx);
        }
    }

    /// Visits `(parameter, gradient)` tensor pairs in a fixed order.
    pub fn visit_params<'a>(
        &'a mut self,
        grads: &'a DenseGrads,
        f: &mut impl FnMut(&mut Matrix, &Matrix),
    ) {
        f(&mut self.w, &grads.dw);
        f(&mut self.b, &grads.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 1, &mut rng);
        // Overwrite with known values: y = 2a - b + 0.5.
        layer.w[(0, 0)] = 2.0;
        layer.w[(0, 1)] = -1.0;
        layer.b[(0, 0)] = 0.5;
        assert_eq!(layer.forward(&[3.0, 4.0]), vec![2.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Dense::new(3, 2, &mut rng);
        let x = [0.4, -0.6, 1.1];
        // Loss = sum of outputs; dy = ones.
        let dy = [1.0, 1.0];
        let (grads, dx) = layer.backward(&x, &dy);
        let eps = 1e-6;
        let loss = |l: &Dense, x: &[f64]| -> f64 { l.forward(x).iter().sum() };
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = layer.clone();
                lp.w[(r, c)] += eps;
                let fp = loss(&lp, &x);
                lp.w[(r, c)] -= 2.0 * eps;
                let fm = loss(&lp, &x);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - grads.dw[(r, c)]).abs() < 1e-7);
            }
            let mut lp = layer.clone();
            lp.b[(r, 0)] += eps;
            let fp = loss(&lp, &x);
            lp.b[(r, 0)] -= 2.0 * eps;
            let fm = loss(&lp, &x);
            assert!(((fp - fm) / (2.0 * eps) - grads.db[(r, 0)]).abs() < 1e-7);
        }
        for d in 0..3 {
            let mut xp = x;
            xp[d] += eps;
            let fp = loss(&layer, &xp);
            xp[d] -= 2.0 * eps;
            let fm = loss(&layer, &xp);
            assert!(((fp - fm) / (2.0 * eps) - dx[d]).abs() < 1e-7);
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Dense::new(7, 3, &mut rng);
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.9).sin()).collect();
        let dy = [0.3, -1.2, 0.0];

        let y = layer.forward(&x);
        let mut y_into = vec![0.0; 3];
        layer.forward_into(&x, &mut y_into);
        for (a, b) in y.iter().zip(&y_into) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        }

        let (grads, dx) = layer.backward(&x, &dy);
        let mut grads_into = DenseGrads::zeros(3, 7);
        let mut dx_into = vec![0.0; 7];
        layer.backward_into(&x, &dy, &mut grads_into, &mut dx_into);
        assert_eq!(grads.dw.max_abs_diff(&grads_into.dw), 0.0);
        assert_eq!(grads.db.max_abs_diff(&grads_into.db), 0.0);
        assert_eq!(dx, dx_into);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::new(5, 2, &mut rng);
        assert_eq!(layer.param_count(), 12);
    }
}
