//! Scalar activation functions and their derivatives.
//!
//! The LSTM cell (paper Fig. 4) uses the logistic sigmoid for its three
//! gates and `tanh` for the candidate/output nonlinearity.
//!
//! Both nonlinearities are built on a branch-free polynomial `exp`
//! ([`fast_exp`]) rather than libm calls: the transcendentals dominate the
//! LSTM step cost (the matrix work is a few ns per cell, a libm `tanh` is
//! ~20 ns), and the branch-free form lets the compiler auto-vectorize the
//! LSTM cell pass ([`crate::lstm`]), which runs them over blocks of units
//! as vector lanes, and [`tanh_map`]. Every forward path — sequential and
//! batched — calls these same functions, so cross-path equivalence is
//! preserved by construction. Accuracy is ~1 ulp for `exp`/`sigmoid` and
//! < 4e-13 absolute for `tanh` (see the tests), far below training noise.

const LOG2E: f64 = std::f64::consts::LOG2_E;
// ln(2) split hi/lo for Cody-Waite argument reduction.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
// 1.5 * 2^52: adding it rounds to the nearest integer in the low mantissa
// bits, giving round-to-nearest without an f64 -> i64 cast (which would
// block SSE2 auto-vectorization).
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Branch-free `e^x`, exact to ~1 ulp over the clamped range.
///
/// Cody-Waite reduction `x = k*ln2 + r`, degree-12 Horner polynomial for
/// `e^r`, and a bit-trick scale by `2^k` recovered from the shifted
/// round-to-nearest value. Inputs are clamped to ±700 so the scale never
/// overflows; `exp(-700) ~ 1e-304` is indistinguishable from 0 for every
/// consumer here.
#[inline(always)]
pub fn fast_exp(x: f64) -> f64 {
    let x = x.clamp(-700.0, 700.0);
    let zs = x * LOG2E + SHIFT;
    let kf = zs - SHIFT;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // Plain mul+add on purpose: a fused multiply-add rounds once where
    // mul+add rounds twice, so it would change every result, and with it
    // every committed digest. (Without the FMA target feature,
    // `f64::mul_add` would also lower to a libm call, ~40 ns.)
    // Estrin's scheme rather than Horner: the tree regroups the Taylor sum
    // into independent sub-polynomials so the ~4-cycle mul/add chains
    // overlap, where Horner's single serial chain leaves the FP ports idle
    // (~30% faster in the slice maps at identical accuracy).
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q0 = (1.0 + r) + r2 * (5.0e-1 + 1.666_666_666_666_666_6e-1 * r);
    let q1 = (4.166_666_666_666_666_4e-2 + 8.333_333_333_333_333e-3 * r)
        + r2 * (1.388_888_888_888_889e-3 + 1.984_126_984_126_984e-4 * r);
    let q2 = (2.480_158_730_158_73e-5 + 2.755_731_922_398_589_3e-6 * r)
        + r2 * (2.755_731_922_398_589e-7 + 2.505_210_838_544_172e-8 * r);
    let q3 = 2.087_675_698_786_81e-9; // 1/12!
    let p = (q0 + q1 * r4) + (q2 + q3 * r4) * r8;
    // zs still holds k in its low mantissa bits; subtracting SHIFT's bits
    // yields two's-complement k, from which 2^k is assembled directly.
    let k_bits = zs.to_bits().wrapping_sub(SHIFT.to_bits());
    let scale = f64::from_bits(k_bits.wrapping_add(1023).wrapping_shl(52));
    scale * p
}

/// Logistic sigmoid, computed in a numerically stable branch-free form.
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    let e = fast_exp(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Derivative of the sigmoid expressed in terms of its output `s`.
#[inline]
pub fn sigmoid_deriv_from_output(s: f64) -> f64 {
    s * (1.0 - s)
}

/// Hyperbolic tangent.
///
/// Small arguments (|x| <= 0.17) use an odd Taylor polynomial (avoids the
/// catastrophic cancellation of `(1-e)/(1+e)` near 0); larger ones use the
/// exp form. Both branches are always evaluated so the select vectorizes.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let x2 = x * x;
    let mut q = -8.863_235_529_902_197e-3_f64; // -1382/155925
    q = q * x2 + 2.186_948_853_615_520_2e-2; // 62/2835
    q = q * x2 + -5.396_825_396_825_397e-2; // -17/315
    q = q * x2 + 1.333_333_333_333_333_3e-1; // 2/15
    q = q * x2 + -3.333_333_333_333_333e-1; // -1/3
    let t_small = x + x * (x2 * q);
    let e = fast_exp(-2.0 * a);
    let t_big_abs = (1.0 - e) / (1.0 + e);
    let t_big = if x >= 0.0 { t_big_abs } else { -t_big_abs };
    if a <= 0.17 {
        t_small
    } else {
        t_big
    }
}

/// Derivative of tanh expressed in terms of its output `t`.
#[inline]
pub fn tanh_deriv_from_output(t: f64) -> f64 {
    1.0 - t * t
}

/// Applies [`tanh`] to every element in place (the MLP ablation's hidden
/// layers).
///
/// A single non-inlined call site over a contiguous slice: the branch-free
/// body auto-vectorizes here, 8 lanes wide under `target-cpu=native` on an
/// AVX-512 host, with the last `len mod 8` elements left to a scalar loop.
#[inline(never)]
pub fn tanh_map(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = tanh(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_reference_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(2.0) - 0.880797077977882).abs() < 1e-12);
        // Symmetry: sigma(-x) = 1 - sigma(x).
        for x in [-5.0, -1.0, 0.3, 4.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        // The exp clamp floors at e^-700 ~ 1e-304, not exactly 0.
        assert!(sigmoid(-1000.0) <= 1e-300);
        assert!(sigmoid(f64::MAX).is_finite());
        assert!(sigmoid(f64::MIN).is_finite());
    }

    #[test]
    fn fast_exp_matches_libm_to_ulps() {
        let mut worst = 0.0_f64;
        let mut x = -60.0;
        while x <= 60.0 {
            let got = fast_exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.001_7;
        }
        assert!(worst < 5e-16, "fast_exp worst rel err {worst:e}");
    }

    #[test]
    fn tanh_matches_libm() {
        let mut worst = 0.0_f64;
        let mut x = -20.0;
        while x <= 20.0 {
            let diff = (tanh(x) - x.tanh()).abs();
            worst = worst.max(diff);
            x += 0.000_9;
        }
        assert!(worst < 4e-13, "tanh worst abs err {worst:e}");
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(1e9), 1.0);
        assert_eq!(tanh(-1e9), -1.0);
    }

    #[test]
    fn tanh_is_odd_exactly() {
        let mut x = 0.0;
        while x <= 5.0 {
            assert_eq!(tanh(-x), -tanh(x));
            x += 0.01;
        }
    }

    #[test]
    fn tanh_map_matches_scalar_exactly() {
        let xs: Vec<f64> = (0..257).map(|i| (i as f64 - 128.0) * 0.073).collect();
        let mut t = xs.clone();
        tanh_map(&mut t);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(t[i], tanh(x));
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for x in [-3.0, -0.5, 0.0, 0.7, 2.5] {
            let fd_sig = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            assert!((sigmoid_deriv_from_output(sigmoid(x)) - fd_sig).abs() < 1e-8);
            let fd_tanh = (tanh(x + eps) - tanh(x - eps)) / (2.0 * eps);
            assert!((tanh_deriv_from_output(tanh(x)) - fd_tanh).abs() < 1e-8);
        }
    }
}
