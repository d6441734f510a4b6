//! Epsilon-insensitive support-vector regression — the "Linear and
//! Gaussian SVMs" members of Table II.
//!
//! The dual is solved by cyclic coordinate ascent with exact per-coordinate
//! line search. The bias is absorbed by augmenting the kernel with a
//! constant (`K' = K + 1`), which removes the equality constraint and makes
//! the box-constrained dual separable — each coordinate update is then a
//! clipped exact minimizer, so the sweep converges monotonically. Features
//! and targets are standardized internally.

use ld_linalg::vecops;

use crate::ml::Regressor;

/// Kernel choice for [`Svr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvrKernel {
    /// Linear kernel `x . z` (the "Linear SVM").
    Linear,
    /// Gaussian RBF `exp(-gamma ||x - z||^2)` (the "Gaussian SVM").
    Rbf {
        /// Bandwidth parameter.
        gamma: f64,
    },
}

/// Kernel-matrix columns each row evaluates at once.
const KERNEL_LANES: usize = 8;

/// A kernel-matrix builder over standardized samples.
type KernelBuild = fn(&Svr, &[Vec<f64>]) -> Vec<Vec<f64>>;

/// Epsilon-SVR trained by coordinate ascent on the (bias-augmented) dual.
#[derive(Debug, Clone)]
pub struct Svr {
    /// Kernel.
    pub kernel: SvrKernel,
    /// Box constraint `C`.
    pub c: f64,
    /// Epsilon-insensitive tube half-width (in standardized target units).
    pub epsilon: f64,
    /// Maximum coordinate-ascent sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance on the largest coordinate change per sweep.
    pub tol: f64,
    // Fitted state.
    betas: Vec<f64>,
    support: Vec<Vec<f64>>,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Svr {
    /// A linear SVR with library defaults.
    pub fn linear() -> Self {
        Svr::new(SvrKernel::Linear)
    }

    /// An RBF SVR; `gamma` defaults to `1 / window` after standardization
    /// once fitted (set here to 0.125 for the default window of 8).
    pub fn rbf() -> Self {
        Svr::new(SvrKernel::Rbf { gamma: 0.125 })
    }

    /// SVR with an explicit kernel and default training knobs.
    pub fn new(kernel: SvrKernel) -> Self {
        Svr {
            kernel,
            c: 10.0,
            epsilon: 0.05,
            max_sweeps: 60,
            tol: 1e-4,
            betas: Vec::new(),
            support: Vec::new(),
            x_mean: Vec::new(),
            x_std: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    fn kernel_eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish(match self.kernel {
            SvrKernel::Linear => vecops::dot(a, b),
            SvrKernel::Rbf { .. } => vecops::sq_dist(a, b),
        })
    }

    /// The kernel value from its feature sum: `dot` for the linear kernel,
    /// `sq_dist` for the RBF.
    fn finish(&self, sum: f64) -> f64 {
        let base = match self.kernel {
            SvrKernel::Linear => sum,
            SvrKernel::Rbf { gamma } => (-gamma * sum).exp(),
        };
        base + 1.0 // bias absorption
    }

    /// The kernel matrix over the standardized samples `sx`, built row by
    /// row. Row `i`'s `j >= i` part runs [`KERNEL_LANES`] columns `j` at
    /// once over a feature-major copy of the samples: each lane is the
    /// ascending-`t` chain of `dot` or `sq_dist` for `(sx[i], sx[j])`,
    /// starting where `Sum for f64` starts, at `-0.0`; the columns left
    /// over call [`Svr::kernel_eval`]. Its `j < i` part is copied from the
    /// rows above, since both kernels give the same bits with their
    /// arguments swapped. Every entry is bitwise the value
    /// [`Svr::kernel_eval`] gives.
    fn kernel_matrix(&self, sx: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self.kernel {
            SvrKernel::Linear => self.kernel_rows(sx, |a, b| a * b),
            SvrKernel::Rbf { .. } => self.kernel_rows(sx, |a, b| (a - b) * (a - b)),
        }
    }

    /// [`Svr::kernel_matrix`] with the kernel's per-feature `term`.
    fn kernel_rows(&self, sx: &[Vec<f64>], term: impl Fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        let n = sx.len();
        let d = sx.first().map_or(0, Vec::len);
        // Feature `t` of sample `j` at `t * n + j`.
        let mut cols = vec![0.0; n * d];
        for (j, x) in sx.iter().enumerate() {
            for (t, &v) in x.iter().enumerate() {
                cols[t * n + j] = v;
            }
        }
        let mut k: Vec<Vec<f64>> = Vec::with_capacity(n);
        for (i, a) in sx.iter().enumerate() {
            let mut row = vec![0.0; n];
            for (out, above) in row.iter_mut().zip(&k) {
                *out = above[i];
            }
            let mut j = i;
            while j + KERNEL_LANES <= n {
                let mut sums = [-0.0; KERNEL_LANES];
                for (t, &at) in a.iter().enumerate() {
                    let b = &cols[t * n + j..t * n + j + KERNEL_LANES];
                    for (sum, &bt) in sums.iter_mut().zip(b) {
                        *sum += term(at, bt);
                    }
                }
                for (out, sum) in row[j..j + KERNEL_LANES].iter_mut().zip(sums) {
                    *out = self.finish(sum);
                }
                j += KERNEL_LANES;
            }
            for (out, b) in row[j..].iter_mut().zip(&sx[j..]) {
                *out = self.kernel_eval(a, b);
            }
            k.push(row);
        }
        k
    }

    /// Reference kernel build, retained as [`Svr::kernel_matrix`]'s test
    /// oracle: evaluates the upper triangle pair by pair and mirrors it.
    #[cfg(test)]
    fn kernel_matrix_reference(&self, sx: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = sx.len();
        let mut k = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = self.kernel_eval(&sx[i], &sx[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }
        k
    }

    fn standardize(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.x_mean.iter().zip(&self.x_std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Fits on `(xs, ys)` with the kernel matrix from `kernel_matrix`.
    fn fit_with(&mut self, xs: &[Vec<f64>], ys: &[f64], kernel_matrix: KernelBuild) {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        self.betas.clear();
        self.support.clear();
        if n == 0 {
            self.x_mean.clear();
            self.x_std.clear();
            self.y_mean = 0.0;
            self.y_std = 1.0;
            return;
        }
        let d = xs[0].len();

        // Standardization constants.
        self.x_mean = (0..d)
            .map(|j| xs.iter().map(|x| x[j]).sum::<f64>() / n as f64)
            .collect();
        self.x_std = (0..d)
            .map(|j| {
                let m = self.x_mean[j];
                let v = xs.iter().map(|x| (x[j] - m) * (x[j] - m)).sum::<f64>() / n as f64;
                v.sqrt().max(1e-9)
            })
            .collect();
        self.y_mean = vecops::mean(ys);
        self.y_std = vecops::stddev(ys).max(1e-9);

        let sx: Vec<Vec<f64>> = xs.iter().map(|x| self.standardize(x)).collect();
        let sy: Vec<f64> = ys.iter().map(|y| (y - self.y_mean) / self.y_std).collect();

        // Precompute the kernel matrix (training sets are capped upstream).
        let k = kernel_matrix(self, &sx);

        let mut betas = vec![0.0f64; n];
        let mut f = vec![0.0f64; n]; // f(x_i) under current betas
        for _sweep in 0..self.max_sweeps {
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let e = sy[i] - f[i];
                // Epsilon-insensitive subdifferential: move only when the
                // residual leaves the tube.
                let g = if e > self.epsilon {
                    e - self.epsilon
                } else if e < -self.epsilon {
                    e + self.epsilon
                } else {
                    // Inside the tube: shrink beta towards 0 if that keeps
                    // the point inside (exact minimizer is beta s.t. the
                    // residual stays in the tube; shrinking reduces ||beta||).
                    continue;
                };
                let old = betas[i];
                let new = (old + g / k[i][i]).clamp(-self.c, self.c);
                let delta = new - old;
                if delta.abs() < 1e-12 {
                    continue;
                }
                betas[i] = new;
                // Zipped, so the update carries no bounds checks and
                // vectorizes.
                for (fj, &kij) in f.iter_mut().zip(&k[i]) {
                    *fj += delta * kij;
                }
                max_delta = max_delta.max(delta.abs());
            }
            if max_delta < self.tol {
                break;
            }
        }

        // Keep only support vectors.
        for (i, &b) in betas.iter().enumerate() {
            if b.abs() > 1e-9 {
                self.support.push(sx[i].clone());
                self.betas.push(b);
            }
        }
        // Degenerate case (perfectly flat data inside the tube): keep one
        // pseudo-support so predict returns the mean.
        if self.support.is_empty() {
            self.support.push(sx[0].clone());
            self.betas.push(0.0);
        }
    }
}

impl Regressor for Svr {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        self.fit_with(xs, ys, Self::kernel_matrix);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.support.is_empty() {
            return self.y_mean;
        }
        let sx = self.standardize(x);
        let fs: f64 = self
            .betas
            .iter()
            .zip(&self.support)
            .map(|(&b, s)| b * self.kernel_eval(s, &sx))
            .sum();
        fs * self.y_std + self.y_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 2 a - b + 3 over a small grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                xs.push(vec![a as f64, b as f64]);
                ys.push(2.0 * a as f64 - b as f64 + 3.0);
            }
        }
        (xs, ys)
    }

    #[test]
    fn linear_svr_fits_linear_function() {
        let (xs, ys) = linear_data();
        let mut svr = Svr::linear();
        svr.fit(&xs, &ys);
        let mut worst = 0.0f64;
        for (x, y) in xs.iter().zip(&ys) {
            worst = worst.max((svr.predict(x) - y).abs());
        }
        // Tube width eps=0.05 in standardized units ~ 0.25 raw here.
        assert!(worst < 1.0, "worst error {worst}");
        // Extrapolation stays linear-ish.
        let p = svr.predict(&[10.0, 0.0]);
        assert!((p - 23.0).abs() < 3.0, "extrapolated {p}");
    }

    #[test]
    fn rbf_svr_fits_nonlinear_function() {
        // y = sin(x) on [0, 2 pi].
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        let mut svr = Svr::new(SvrKernel::Rbf { gamma: 2.0 });
        svr.epsilon = 0.02;
        svr.fit(&xs, &ys);
        let mut worst = 0.0f64;
        for (x, y) in xs.iter().zip(&ys) {
            worst = worst.max((svr.predict(x) - y).abs());
        }
        assert!(worst < 0.15, "worst error {worst}");
    }

    #[test]
    fn linear_svr_underfits_sine_where_rbf_succeeds() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        let err = |svr: &mut Svr| {
            svr.fit(&xs, &ys);
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (svr.predict(x) - y).powi(2))
                .sum::<f64>()
        };
        let lin_err = err(&mut Svr::linear());
        let mut rbf = Svr::new(SvrKernel::Rbf { gamma: 2.0 });
        rbf.epsilon = 0.02;
        let rbf_err = err(&mut rbf);
        assert!(rbf_err < lin_err, "rbf {rbf_err} vs linear {lin_err}");
    }

    #[test]
    fn constant_targets_predict_constant() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let mut svr = Svr::linear();
        svr.fit(&xs, &ys);
        assert!((svr.predict(&[5.0]) - 7.5).abs() < 0.2);
    }

    #[test]
    fn empty_fit_clears_the_previous_fit() {
        let (xs, ys) = linear_data();
        let mut svr = Svr::linear();
        svr.fit(&xs, &ys);
        assert!(svr.predict(&[3.0, 2.0]) != 0.0);
        svr.fit(&[], &[]);
        assert_eq!(svr.predict(&[3.0, 2.0]), 0.0);
    }

    /// Rows with ties, all-zero and signed-zero rows, and a constant
    /// feature (the third, zero in every row): 45 of them, so each kernel
    /// row has full lanes and a ragged tail.
    fn awkward_rows() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..45)
            .map(|i| match i % 9 {
                0 => vec![0.0; 5],
                4 => vec![-0.0, 0.0, 0.0, -0.0, 0.0],
                _ => vec![
                    ((i % 4) as f64 - 1.5) * 0.75,
                    ((i as f64) * 0.37).sin(),
                    0.0,
                    (i / 6) as f64,
                    -(((i * 7) % 5) as f64),
                ],
            })
            .collect();
        let ys = (0..45)
            .map(|i| ((i as f64) * 0.29).cos() * 3.0 + (i % 5) as f64)
            .collect();
        (xs, ys)
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn kernel_matrix_and_fit_match_reference_bitwise() {
        let (xs, ys) = awkward_rows();
        for kernel in [SvrKernel::Linear, SvrKernel::Rbf { gamma: 0.125 }] {
            // The raw rows, zeros and signed zeros among them, and the
            // standardized rows a fit builds its matrix from.
            let mut fast = Svr::new(kernel);
            fast.fit(&xs, &ys);
            let sx: Vec<Vec<f64>> = xs.iter().map(|x| fast.standardize(x)).collect();
            for rows in [&xs, &sx] {
                let (got, want) = (fast.kernel_matrix(rows), fast.kernel_matrix_reference(rows));
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(same_bits(g, w), "{kernel:?} kernel row {i}");
                }
            }
            let mut reference = Svr::new(kernel);
            reference.fit_with(&xs, &ys, Svr::kernel_matrix_reference);
            assert!(same_bits(&fast.betas, &reference.betas), "{kernel:?} betas");
            assert_eq!(fast.support.len(), reference.support.len());
            for (g, w) in fast.support.iter().zip(&reference.support) {
                assert!(same_bits(g, w), "{kernel:?} support");
            }
        }
    }

    #[test]
    fn sparse_support_set_on_easy_data() {
        let (xs, ys) = linear_data();
        let mut svr = Svr::linear();
        svr.fit(&xs, &ys);
        // The epsilon tube should leave many points as non-support vectors.
        assert!(
            svr.support.len() < xs.len(),
            "support {} of {}",
            svr.support.len(),
            xs.len()
        );
    }
}
