//! Exact Gaussian-process regression via Cholesky factorization.
//!
//! Standard GP regression (Rasmussen & Williams 2006, Algorithm 2.1), the
//! probabilistic model the paper's Bayesian optimizer builds at every
//! iteration over the `(hyperparameter set, validation error)` pairs
//! explored so far:
//!
//! ```text
//! L      = cholesky(K + sigma_n^2 I)
//! alpha  = L^T \ (L \ y)
//! mean*  = k*^T alpha
//! var*   = k(x*, x*) - || L \ k* ||^2
//! logML  = -0.5 y^T alpha - sum log L_ii - n/2 log 2 pi
//! ```
//!
//! Targets are standardized to zero mean / unit variance internally;
//! predictions are de-standardized on the way out.

use ld_linalg::{vecops, Cholesky, LinalgError};

use crate::kernel::Kernel;

/// Errors from GP fitting/prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpError {
    /// No training points were supplied.
    EmptyTrainingSet,
    /// Training rows have inconsistent dimensionality.
    DimensionMismatch,
    /// The Gram matrix could not be factored even with jitter.
    NumericalFailure,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "empty training set"),
            GpError::DimensionMismatch => write!(f, "inconsistent input dimensions"),
            GpError::NumericalFailure => write!(f, "gram matrix not factorable"),
        }
    }
}

impl std::error::Error for GpError {}

/// A fitted Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GpRegressor {
    kernel: Kernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    /// Standardization constants for the targets.
    y_mean: f64,
    y_std: f64,
    /// Cholesky factor of `K + noise I` (in standardized-target space).
    chol: Cholesky,
    /// `alpha = (K + noise I)^{-1} y_std`.
    alpha: Vec<f64>,
    /// Log marginal likelihood of the standardized data.
    log_marginal: f64,
}

impl GpRegressor {
    /// Fits a GP to `(x, y)` with the given kernel and noise variance.
    ///
    /// `noise` is the observation-noise *variance* `sigma_n^2`; a small
    /// positive floor is enforced for numerical stability.
    pub fn fit(kernel: Kernel, noise: f64, x: &[Vec<f64>], y: &[f64]) -> Result<Self, GpError> {
        if x.is_empty() || y.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if x.len() != y.len() {
            return Err(GpError::DimensionMismatch);
        }
        let dim = x[0].len();
        if x.iter().any(|r| r.len() != dim) {
            return Err(GpError::DimensionMismatch);
        }
        let n = x.len();
        let noise = noise.max(1e-10);

        // Standardize targets.
        let y_mean = vecops::mean(y);
        let y_std = {
            let s = vecops::stddev(y);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        // Gram matrix (serial below the packed-build crossover, packed
        // from there; bitwise identical to the serial build either way).
        let k = crate::gram::build(&kernel, x, noise);

        // Standard jitter schedule first; if the Gram matrix is so
        // ill-conditioned that the schedule exhausts (near-duplicate
        // candidates with wildly scaled targets), escalate once with a much
        // larger starting jitter before reporting failure — a slightly
        // over-regularized surrogate still ranks candidates, while an abort
        // would cost the optimizer its whole model.
        let timing = crate::sections::enabled();
        // ld-lint: allow(determinism, "opt-in kernel section timer; timing is observed, never fed back into the fit")
        let t0 = timing.then(std::time::Instant::now);
        let chol = Cholesky::factor_with_jitter(&k, 1e-10, 12)
            .or_else(|e| match e {
                LinalgError::NotPositiveDefinite { .. } => {
                    Cholesky::factor_with_jitter(&k, 1e-4, 10)
                }
                other => Err(other),
            })
            .map_err(|_| GpError::NumericalFailure)?;
        if let Some(t0) = t0 {
            crate::sections::add_cholesky(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let alpha = chol.solve(&ys).map_err(|_| GpError::NumericalFailure)?;

        let log_marginal = -0.5 * vecops::dot(&ys, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        Ok(GpRegressor {
            kernel,
            noise,
            x: x.to_vec(),
            y_mean,
            y_std,
            chol,
            alpha,
            log_marginal,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if fitted on zero points (never constructible; for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation-noise variance actually used (after flooring).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Log marginal likelihood of the (standardized) training data — the
    /// model-selection objective for kernel hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// Predictive mean and variance at `x_star`, in original target units.
    ///
    /// The variance is clamped at zero from below (tiny negative values can
    /// appear from floating-point cancellation).
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, x_star)).collect();
        let mean_std = vecops::dot(&k_star, &self.alpha);
        // ld-lint: allow(unwrap-in-core, "k_star has one entry per training point, matching the factored dim; solve_lower only errs on shape")
        let v = self.chol.solve_lower(&k_star).expect("shape guaranteed by construction");
        let var_std = (self.kernel.prior_variance() - vecops::dot(&v, &v)).max(0.0);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Predictive standard deviation at `x_star` in original units.
    pub fn predict_std(&self, x_star: &[f64]) -> f64 {
        self.predict(x_star).1.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let gp = GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 0.3), 1e-8, &x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-3, "mean {m} vs {yi}");
            assert!(v < 1e-3, "variance at training point: {v}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![1.0, 2.0, 3.0];
        let gp =
            GpRegressor::fit(Kernel::new(KernelKind::Matern52, 1.0, 0.2), 1e-6, &x, &y).unwrap();
        let (_, v_near) = gp.predict(&[0.1]);
        let (_, v_far) = gp.predict(&[2.0]);
        assert!(v_far > v_near * 10.0, "near {v_near} far {v_far}");
    }

    #[test]
    fn far_prediction_reverts_to_mean() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![10.0, 30.0, 20.0];
        let gp = GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 0.1), 1e-6, &x, &y).unwrap();
        let (m, _) = gp.predict(&[50.0]);
        assert!((m - 20.0).abs() < 1e-6, "prior mean should be y-mean, got {m}");
    }

    #[test]
    fn noise_smooths_interpolation() {
        let x = grid_1d(10);
        // Zig-zag targets.
        let y: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let exact = GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 0.05), 1e-8, &x, &y).unwrap();
        let noisy = GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 0.05), 1.0, &x, &y).unwrap();
        let (me, _) = exact.predict(&x[4]);
        let (mn, _) = noisy.predict(&x[4]);
        // The noisy model shrinks towards the mean (0), the exact one doesn't.
        assert!(me.abs() > 0.5);
        assert!(mn.abs() < me.abs());
    }

    #[test]
    fn lml_prefers_true_lengthscale_family() {
        // Smooth function: long lengthscale should beat a tiny one.
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|p| p[0] * 2.0 + 1.0).collect();
        let good =
            GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 1.0), 1e-4, &x, &y).unwrap();
        let bad =
            GpRegressor::fit(Kernel::new(KernelKind::Rbf, 1.0, 0.01), 1e-4, &x, &y).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn constant_targets_fit_without_failure() {
        let x = grid_1d(6);
        let y = vec![5.0; 6];
        let gp = GpRegressor::fit(Kernel::default_matern52(), 1e-6, &x, &y).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 5.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_points_need_jitter_but_fit() {
        let x = vec![vec![0.3], vec![0.3], vec![0.3], vec![0.7]];
        let y = vec![1.0, 1.0, 1.0, 2.0];
        let gp = GpRegressor::fit(Kernel::default_matern52(), 1e-10, &x, &y).unwrap();
        assert_eq!(gp.len(), 4);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            GpRegressor::fit(Kernel::default_matern52(), 1e-6, &[], &[]).unwrap_err(),
            GpError::EmptyTrainingSet
        );
        assert_eq!(
            GpRegressor::fit(
                Kernel::default_matern52(),
                1e-6,
                &[vec![0.0], vec![1.0, 2.0]],
                &[1.0, 2.0]
            )
            .unwrap_err(),
            GpError::DimensionMismatch
        );
        assert_eq!(
            GpRegressor::fit(Kernel::default_matern52(), 1e-6, &[vec![0.0]], &[1.0, 2.0])
                .unwrap_err(),
            GpError::DimensionMismatch
        );
    }
}
