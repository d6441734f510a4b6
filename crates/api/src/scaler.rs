//! Min-max normalization.
//!
//! LSTM training needs inputs in a bounded range; the framework fits the
//! scaler on the *training* partition only (fitting on all data would leak
//! the future into the past) and applies it everywhere.

use serde::{Deserialize, Serialize};

/// Affine scaler mapping `[lo, hi]` seen at fit time onto `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    lo: f64,
    hi: f64,
}

impl MinMaxScaler {
    /// Fits the scaler to the given values.
    ///
    /// Constant (or empty) input degenerates to an identity-around-`lo`
    /// scaler that maps `lo` to `0.0` and keeps unit slope.
    pub fn fit(values: &[f64]) -> Self {
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-12 {
            let base = if lo.is_finite() { lo } else { 0.0 };
            return MinMaxScaler {
                lo: base,
                hi: base + 1.0,
            };
        }
        MinMaxScaler { lo, hi }
    }

    /// Scales one value into normalized space. Values outside the fit range
    /// extrapolate linearly (the test partition routinely exceeds the
    /// training maximum).
    #[inline]
    pub fn transform(&self, v: f64) -> f64 {
        (v - self.lo) / (self.hi - self.lo)
    }

    /// Inverse of [`Self::transform`].
    #[inline]
    pub fn inverse(&self, u: f64) -> f64 {
        u * (self.hi - self.lo) + self.lo
    }

    /// Scales a slice into a fresh vector.
    pub fn transform_all(&self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.transform(v)).collect()
    }

    /// The fitted range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Appends a model's input window to `out`: the last `n` values of
    /// `history`, left-padded with its earliest value when it is shorter,
    /// each scaled. The first half of the forecast rule every caller of a
    /// trained model shares; [`Self::forecast`] is the second.
    ///
    /// # Panics
    /// Panics if `history` is empty and `n > 0`.
    #[inline]
    pub fn push_window(&self, out: &mut Vec<f64>, history: &[f64], n: usize) {
        let kept = &history[history.len().saturating_sub(n)..];
        if kept.len() < n {
            out.extend(std::iter::repeat_n(
                self.transform(history[0]),
                n - kept.len(),
            ));
        }
        out.extend(kept.iter().map(|&v| self.transform(v)));
    }

    /// The forecast a model output `y` stands for: inverse-scaled and
    /// clamped to the non-negative JAR domain, or `None` when the
    /// inverse-scaled value is not finite. The check comes before the
    /// clamp, since `f64::max` would turn NaN and −∞ into a healthy 0.0.
    #[inline]
    pub fn forecast(&self, y: f64) -> Option<f64> {
        let v = self.inverse(y);
        v.is_finite().then(|| v.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_fit_range_to_unit_interval() {
        let s = MinMaxScaler::fit(&[10.0, 20.0, 15.0]);
        assert_eq!(s.transform(10.0), 0.0);
        assert_eq!(s.transform(20.0), 1.0);
        assert_eq!(s.transform(15.0), 0.5);
    }

    #[test]
    fn roundtrip_including_extrapolation() {
        let s = MinMaxScaler::fit(&[0.0, 100.0]);
        for v in [-50.0, 0.0, 37.5, 100.0, 250.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-12);
        }
        // Out-of-range extrapolates rather than clamps.
        assert_eq!(s.transform(200.0), 2.0);
    }

    #[test]
    fn constant_input_degenerates_gracefully() {
        let s = MinMaxScaler::fit(&[7.0, 7.0, 7.0]);
        assert_eq!(s.transform(7.0), 0.0);
        assert_eq!(s.inverse(0.0), 7.0);
        assert_eq!(s.transform(8.0), 1.0);
    }

    #[test]
    fn window_takes_the_last_n_and_pads_short_histories() {
        let s = MinMaxScaler::fit(&[0.0, 10.0]);
        let mut out = vec![9.0];
        s.push_window(&mut out, &[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(out, [9.0, 0.3, 0.4]);
        out.clear();
        s.push_window(&mut out, &[5.0, 6.0], 4);
        assert_eq!(out, [0.5, 0.5, 0.5, 0.6]);
    }

    #[test]
    fn forecast_rejects_non_finite_outputs_before_clamping() {
        let s = MinMaxScaler::fit(&[10.0, 20.0]);
        assert_eq!(s.forecast(0.5), Some(15.0));
        assert_eq!(s.forecast(-3.0), Some(0.0));
        for y in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1e308, 1e308] {
            assert_eq!(s.forecast(y), None, "{y}");
        }
    }

    #[test]
    fn empty_input_is_identityish() {
        let s = MinMaxScaler::fit(&[]);
        assert_eq!(s.transform(0.0), 0.0);
        assert_eq!(s.inverse(1.0), 1.0);
    }
}
