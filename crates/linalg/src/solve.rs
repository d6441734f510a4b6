//! (Ridge-damped, optionally weighted) least squares via the normal
//! equations.
//!
//! The regression baselines of Table II (linear/quadratic/cubic regression,
//! AR/ARMA/ARIMA fitting, Wood et al.'s robust regression) all reduce to
//! least-squares problems of modest dimension; these routines are their
//! numerical backend.

use crate::{Cholesky, LinalgError, Matrix, Result};

/// Solves `min_x ||A x - b||^2 + ridge * ||x||^2` via the normal equations
/// `(A^T A + ridge I) x = A^T b`, factored with Cholesky.
///
/// A small positive `ridge` keeps rank-deficient design matrices (constant
/// workload segments produce them constantly) solvable; pass `0.0` for pure
/// least squares on a well-conditioned design.
pub fn lstsq(a: &Matrix, b: &[f64], ridge: f64) -> Result<Vec<f64>> {
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            context: format!("lstsq: {} rows vs rhs {}", a.rows(), b.len()),
        });
    }
    // Fused normal-equations build: `ata[i][j] += a[r][i] * a[r][j]` over
    // ascending rows, streaming each design row once with no transpose
    // materialization. Per output element this is the same single
    // ascending-`r` accumulator with the same zero-skip as
    // [`Matrix::matmul`], so it is bitwise identical to the
    // reference build.
    let (rows, cols) = (a.rows(), a.cols());
    let mut ata = Matrix::zeros(cols, cols);
    for r in 0..rows {
        let arow = &a.as_slice()[r * cols..(r + 1) * cols];
        for (i, &v) in arow.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let out = &mut ata.as_mut_slice()[i * cols..(i + 1) * cols];
            for (o, &w) in out.iter_mut().zip(arow) {
                *o += v * w;
            }
        }
    }
    let atb = a.matvec_t(b)?;
    solve_normal(ata, &atb, ridge)
}

/// The pre-change [`lstsq`] semantics: materialize `A^T`, build `A^T A`
/// with the naive streaming product, then solve. Retained as the bitwise
/// reference the fused build is pinned against.
#[cfg(test)]
fn lstsq_reference(a: &Matrix, b: &[f64], ridge: f64) -> Result<Vec<f64>> {
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            context: format!("lstsq: {} rows vs rhs {}", a.rows(), b.len()),
        });
    }
    let at = a.transpose();
    let ata = at.matmul(a)?;
    let atb = a.matvec_t(b)?;
    solve_normal(ata, &atb, ridge)
}

/// Shared tail of the least-squares paths: ridge-damp the diagonal, factor
/// with Cholesky, and retry with proportional jitter on rank deficiency.
fn solve_normal(mut ata: Matrix, atb: &[f64], ridge: f64) -> Result<Vec<f64>> {
    for i in 0..ata.rows() {
        ata[(i, i)] += ridge;
    }
    match Cholesky::factor(&ata) {
        Ok(ch) => ch.solve(atb),
        // Rank-deficient: retry with jitter proportional to the diagonal.
        Err(LinalgError::NotPositiveDefinite { .. }) => {
            let scale = (0..ata.rows())
                .map(|i| ata[(i, i)].abs())
                .fold(0.0, f64::max)
                .max(1.0);
            let ch = Cholesky::factor_with_jitter(&ata, scale * 1e-10, 12)?;
            ch.solve(atb)
        }
        Err(e) => Err(e),
    }
}

/// Weighted ridge least squares: `min_x sum_i w_i (a_i . x - b_i)^2 + ridge||x||^2`.
///
/// The workhorse of Wood et al.'s iteratively-reweighted robust regression.
pub fn weighted_lstsq(a: &Matrix, b: &[f64], w: &[f64], ridge: f64) -> Result<Vec<f64>> {
    if a.rows() != b.len() || a.rows() != w.len() {
        return Err(LinalgError::ShapeMismatch {
            context: format!(
                "weighted_lstsq: {} rows vs rhs {} vs weights {}",
                a.rows(),
                b.len(),
                w.len()
            ),
        });
    }
    // Scale rows by sqrt(w) and reuse the plain solver.
    let mut aw = a.clone();
    let mut bw = b.to_vec();
    for i in 0..a.rows() {
        let s = w[i].max(0.0).sqrt();
        for v in aw.row_mut(i) {
            *v *= s;
        }
        bw[i] *= s;
    }
    lstsq(&aw, &bw, ridge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lstsq_exact_on_consistent_system() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random_uniform(30, 4, 1.0, &mut rng);
        let x_true = [1.0, -2.0, 0.5, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = lstsq(&a, &b, 0.0).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn lstsq_fits_line_through_noisy_points() {
        // y = 2x + 1 exactly; design [x, 1].
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { xs[r] } else { 1.0 });
        let b: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let coef = lstsq(&a, &b, 0.0).unwrap();
        assert!((coef[0] - 2.0).abs() < 1e-10);
        assert!((coef[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_survives_rank_deficiency() {
        // Duplicate columns: infinitely many solutions; ridge pins one down.
        let a = Matrix::from_fn(6, 2, |r, _| r as f64);
        let b: Vec<f64> = (0..6).map(|r| 3.0 * r as f64).collect();
        let x = lstsq(&a, &b, 1e-8).unwrap();
        // Prediction must still be right even if coefficients split arbitrarily.
        let pred = a.matvec(&x).unwrap();
        for (p, t) in pred.iter().zip(&b) {
            assert!((p - t).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_lstsq_matches_reference_bitwise() {
        // The fused A^T A accumulation replays the reference build's exact
        // per-element operation order, so the two solution vectors must be
        // bit-identical — including on designs with zero entries (the
        // naive kernel's zero-skip) and rank-deficient columns (the jitter
        // retry path).
        let mut rng = StdRng::seed_from_u64(21);
        for &(rows, cols) in &[(5usize, 2usize), (30, 4), (64, 9), (120, 12)] {
            let mut a = Matrix::random_uniform(rows, cols, 1.0, &mut rng);
            a[(0, 0)] = 0.0;
            a[(rows / 2, cols - 1)] = 0.0;
            let b: Vec<f64> = (0..rows).map(|r| (r as f64 * 0.37).sin()).collect();
            for &ridge in &[0.0, 1e-6] {
                let fast = lstsq(&a, &b, ridge).unwrap();
                let reference = lstsq_reference(&a, &b, ridge).unwrap();
                assert_eq!(fast.len(), reference.len());
                for (f, r) in fast.iter().zip(&reference) {
                    assert_eq!(f.to_bits(), r.to_bits(), "{rows}x{cols} ridge {ridge}");
                }
            }
        }
    }

    #[test]
    fn weighted_lstsq_ignores_zero_weight_outlier() {
        // Points on y = x except one wild outlier that gets weight 0.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut ys: Vec<f64> = xs.to_vec();
        ys[2] = 100.0;
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { xs[r] } else { 1.0 });
        let w = [1.0, 1.0, 0.0, 1.0, 1.0];
        let coef = weighted_lstsq(&a, &ys, &w, 0.0).unwrap();
        assert!((coef[0] - 1.0).abs() < 1e-9);
        assert!(coef[1].abs() < 1e-9);
    }
}
