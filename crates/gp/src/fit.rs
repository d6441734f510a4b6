//! Kernel-hyperparameter selection by log-marginal-likelihood maximization.
//!
//! The BO loop refits its surrogate every iteration on a small number of
//! points (the paper uses `maxIters = 100`), so a coarse-to-fine grid over
//! log-spaced `(lengthscale, noise)` is both robust and fast — gradients of
//! the LML are unnecessary at this scale and a grid cannot diverge.

use crate::kernel::{Kernel, KernelKind};
use crate::regressor::{GpError, GpRegressor};

/// Options for [`fit_auto`].
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Kernel family to use.
    pub kind: KernelKind,
    /// Lengthscale search bounds (log-spaced grid between them).
    pub lengthscale_bounds: (f64, f64),
    /// Noise-variance search bounds (log-spaced).
    pub noise_bounds: (f64, f64),
    /// Grid resolution per axis per refinement level.
    pub grid: usize,
    /// Number of coarse-to-fine refinement levels.
    pub levels: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            kind: KernelKind::Matern52,
            // The BO search space is the unit cube, so these bounds bracket
            // every plausible scale generously.
            lengthscale_bounds: (1e-2, 1e1),
            noise_bounds: (1e-8, 1e0),
            grid: 6,
            levels: 2,
        }
    }
}

fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Fits a GP whose lengthscale and noise maximize the log marginal
/// likelihood over a coarse-to-fine log grid. Signal variance is handled by
/// the regressor's internal target standardization (so it is fixed at 1).
pub fn fit_auto(x: &[Vec<f64>], y: &[f64], opts: FitOptions) -> Result<GpRegressor, GpError> {
    let (mut ls_lo, mut ls_hi) = opts.lengthscale_bounds;
    let (mut nz_lo, mut nz_hi) = opts.noise_bounds;
    let mut best: Option<GpRegressor> = None;

    for _level in 0..opts.levels.max(1) {
        let mut best_ls = ls_lo;
        let mut best_nz = nz_lo;
        for &ls in &log_grid(ls_lo, ls_hi, opts.grid) {
            for &nz in &log_grid(nz_lo, nz_hi, opts.grid) {
                let Ok(gp) = GpRegressor::fit(Kernel::new(opts.kind, 1.0, ls), nz, x, y) else {
                    continue;
                };
                if best
                    .as_ref()
                    .is_none_or(|b| gp.log_marginal_likelihood() > b.log_marginal_likelihood())
                {
                    best_ls = ls;
                    best_nz = nz;
                    best = Some(gp);
                }
            }
        }
        // Refine: zoom a factor ~grid around the best cell.
        let zoom = |lo: f64, hi: f64, c: f64| {
            let span = (hi / lo).powf(1.0 / opts.grid as f64);
            ((c / span).max(lo), (c * span).min(hi))
        };
        let (a, b) = zoom(ls_lo, ls_hi, best_ls);
        ls_lo = a;
        ls_hi = b.max(a * 1.0001);
        let (a, b) = zoom(nz_lo, nz_hi, best_nz);
        nz_lo = a;
        nz_hi = b.max(a * 1.0001);
    }

    best.ok_or(GpError::NumericalFailure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_endpoints_and_monotonicity() {
        let g = log_grid(0.01, 10.0, 5);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[4] - 10.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn auto_fit_recovers_smooth_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).sin()).collect();
        let gp = fit_auto(&x, &y, FitOptions::default()).unwrap();
        // Interpolation quality at a held-out point.
        let (m, _) = gp.predict(&[0.475]);
        assert!((m - (3.0f64 * 0.475).sin()).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn auto_fit_beats_default_kernel_on_lml() {
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (20.0 * p[0]).sin()).collect();
        let auto = fit_auto(&x, &y, FitOptions::default()).unwrap();
        let default = GpRegressor::fit(Kernel::default_matern52(), 1e-6, &x, &y).unwrap();
        assert!(auto.log_marginal_likelihood() >= default.log_marginal_likelihood() - 1e-9);
    }

    #[test]
    fn auto_fit_handles_noisy_targets() {
        // Deterministic pseudo-noise; auto fit should pick nonzero noise and
        // not blow up.
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, p)| p[0] + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let gp = fit_auto(&x, &y, FitOptions::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 0.5).abs() < 0.1);
    }
}
