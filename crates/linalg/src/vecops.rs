//! Small dense-vector kernels shared across the workspace.

use crate::guard;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ (hot path; callers guarantee
/// shapes), or if the kernel manufactures a NaN from finite products — a
/// NaN result is legitimate only when an operand pair already multiplied to
/// NaN or ±inf (see the `guard` module).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let s: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    debug_assert!(
        !s.is_nan() || a.iter().zip(b).any(|(x, y)| !(x * y).is_finite()),
        "dot: NaN result though every elementwise product was finite"
    );
    s
}

/// Dot product evaluated with four independent accumulators.
///
/// [`dot`]'s single running sum forms a loop-carried dependency chain that
/// caps throughput at one add per FP-add latency; splitting the sum into
/// four lanes lets the compiler keep the FP pipeline full (and vectorize).
/// The summation *order* therefore differs from [`dot`] by O(eps) rounding —
/// fast paths built on this kernel are equivalence-gated against the
/// sequential reference at 1e-9 relative tolerance (`ld-nn`'s oracle
/// tests). The lane layout is fixed, so the result is still bitwise
/// deterministic run to run.
///
/// # Panics
/// Panics in debug builds if lengths differ or the kernel manufactures a
/// NaN from finite products (same contract as [`dot`]).
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let a_rem = a.chunks_exact(4).remainder();
    let b_rem = b.chunks_exact(4).remainder();
    for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_rem.iter().zip(b_rem) {
        s += x * y;
    }
    debug_assert!(
        !s.is_nan() || a.iter().zip(b).any(|(x, y)| !(x * y).is_finite()),
        "dot4: NaN result though every elementwise product was finite"
    );
    s
}

/// In-place `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    // Debug-only sanitizer pre-scan: `finite + finite` can overflow to ±inf
    // but can never be NaN, so a NaN appearing below must have entered
    // through `y` or through a non-finite `alpha * x` product. The scan is
    // short-circuited away entirely in release builds.
    let inputs_clean = cfg!(debug_assertions)
        && y.iter()
            .zip(x.iter())
            .all(|(yi, &xi)| yi.is_finite() && (alpha * xi).is_finite());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    debug_assert!(
        !inputs_clean || !guard::has_nan(y),
        "axpy: NaN born from finite operands"
    );
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn stddev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]).sqrt(), 5.0);
    }

    #[test]
    fn dot4_matches_dot_across_lengths() {
        // Cover every remainder class (len % 4) including the empty slice.
        for len in 0..23usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos() - 0.2).collect();
            let s = dot(&a, &b);
            let s4 = dot4(&a, &b);
            assert!(
                (s - s4).abs() <= 1e-12 * (1.0 + s.abs()),
                "len {len}: {s} vs {s4}"
            );
        }
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn sq_dist_zero_for_equal_points() {
        assert_eq!(sq_dist(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn mean_variance_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(stddev(&xs), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }
}
