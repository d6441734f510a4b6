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
        let base = match self.kernel {
            SvrKernel::Linear => vecops::dot(a, b),
            SvrKernel::Rbf { gamma } => (-gamma * vecops::sq_dist(a, b)).exp(),
        };
        base + 1.0 // bias absorption
    }

    fn standardize(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.x_mean.iter().zip(&self.x_std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }
}

impl Regressor for Svr {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        if n == 0 {
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
        // `dot` and `sq_dist` give the same bits with their arguments
        // swapped, so only the upper triangle is evaluated and mirrored.
        let mut k = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = self.kernel_eval(&sx[i], &sx[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }

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
                for j in 0..n {
                    f[j] += delta * k[i][j];
                }
                max_delta = max_delta.max(delta.abs());
            }
            if max_delta < self.tol {
                break;
            }
        }

        // Keep only support vectors.
        self.support = Vec::new();
        self.betas = Vec::new();
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
