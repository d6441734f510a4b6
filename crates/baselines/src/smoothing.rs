//! Time-series smoothing members of Table II: WMA, EMA, Holt–Winters DES
//! and Brown's DES.

use ld_api::Predictor;

/// Weighted moving average with linearly increasing weights (most recent
/// interval weighted highest).
#[derive(Debug, Clone)]
pub struct Wma {
    /// Window length.
    pub window: usize,
}

impl Default for Wma {
    fn default() -> Self {
        Wma { window: 12 }
    }
}

impl Predictor for Wma {
    fn name(&self) -> String {
        "WMA".into()
    }

    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        let w = self.window.min(history.len());
        let tail = &history[history.len() - w..];
        let denom = (w * (w + 1) / 2) as f64;
        tail.iter()
            .enumerate()
            .map(|(i, &v)| (i + 1) as f64 * v)
            .sum::<f64>()
            / denom
    }
}

/// Exponential moving average with smoothing factor `alpha`.
#[derive(Debug, Clone)]
pub struct Ema {
    /// Smoothing factor in `(0, 1]`; higher reacts faster.
    pub alpha: f64,
}

impl Default for Ema {
    fn default() -> Self {
        Ema { alpha: 0.35 }
    }
}

impl Predictor for Ema {
    fn name(&self) -> String {
        "EMA".into()
    }

    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        // Recompute from (capped) history each call: cheap and stateless.
        let h = crate::features::recent(history, 512);
        let mut s = h[0];
        for &v in &h[1..] {
            s = self.alpha * v + (1.0 - self.alpha) * s;
        }
        s
    }
}

/// Holt's double exponential smoothing (level + trend) — the
/// "Holt-Winters DES" member.
#[derive(Debug, Clone)]
pub struct HoltDes {
    /// Level smoothing factor.
    pub alpha: f64,
    /// Trend smoothing factor.
    pub beta: f64,
}

impl Default for HoltDes {
    fn default() -> Self {
        HoltDes {
            alpha: 0.4,
            beta: 0.2,
        }
    }
}

impl Predictor for HoltDes {
    fn name(&self) -> String {
        "HoltWintersDES".into()
    }

    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        let h = crate::features::recent(history, 512);
        if h.len() < 2 {
            return h[0];
        }
        let mut level = h[0];
        let mut trend = h[1] - h[0];
        for &v in &h[1..] {
            let prev_level = level;
            level = self.alpha * v + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
        }
        level + trend
    }
}

/// Brown's double exponential smoothing (double-smoothed single parameter).
#[derive(Debug, Clone)]
pub struct BrownDes {
    /// Smoothing factor.
    pub alpha: f64,
}

impl Default for BrownDes {
    fn default() -> Self {
        BrownDes { alpha: 0.3 }
    }
}

impl Predictor for BrownDes {
    fn name(&self) -> String {
        "BrownDES".into()
    }

    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        let h = crate::features::recent(history, 512);
        let mut s1 = h[0];
        let mut s2 = h[0];
        for &v in &h[1..] {
            s1 = self.alpha * v + (1.0 - self.alpha) * s1;
            s2 = self.alpha * s1 + (1.0 - self.alpha) * s2;
        }
        let a = 2.0 * s1 - s2;
        let b = if self.alpha < 1.0 {
            self.alpha / (1.0 - self.alpha) * (s1 - s2)
        } else {
            0.0
        };
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_smoothers_are_exact_on_constant_series() {
        let h = vec![42.0; 60];
        assert!((Wma::default().predict(&h) - 42.0).abs() < 1e-9);
        assert!((Ema::default().predict(&h) - 42.0).abs() < 1e-9);
        assert!((HoltDes::default().predict(&h) - 42.0).abs() < 1e-9);
        assert!((BrownDes::default().predict(&h) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn wma_weights_recent_values_more() {
        let mut p = Wma { window: 3 };
        // (1*10 + 2*20 + 3*60) / 6 = 38.33
        let v = p.predict(&[10.0, 20.0, 60.0]);
        assert!((v - 38.333333333).abs() < 1e-6);
        // Recency: swapping the tail changes the result upward.
        let up = p.predict(&[60.0, 20.0, 10.0]);
        assert!(v > up);
    }

    #[test]
    fn trend_methods_extrapolate_a_ramp() {
        let h: Vec<f64> = (0..80).map(|i| 5.0 + 2.0 * i as f64).collect();
        let next = 5.0 + 2.0 * 80.0;
        let holt = HoltDes::default().predict(&h);
        let brown = BrownDes::default().predict(&h);
        assert!((holt - next).abs() < 2.0, "holt {holt} vs {next}");
        assert!((brown - next).abs() < 6.0, "brown {brown} vs {next}");
        // EMA and WMA lag a ramp — both must undershoot the true next value.
        assert!(Ema::default().predict(&h) < next);
        assert!(Wma { window: 12 }.predict(&h) < next);
    }

    #[test]
    fn ema_alpha_controls_responsiveness() {
        let mut h = vec![10.0; 50];
        h.push(100.0);
        let fast = Ema { alpha: 0.9 }.predict(&h);
        let slow = Ema { alpha: 0.1 }.predict(&h);
        assert!(fast > slow);
        assert!(fast > 80.0 && slow < 30.0);
    }

    #[test]
    fn single_value_history_is_safe() {
        let h = [7.0];
        assert_eq!(Wma::default().predict(&h), 7.0);
        assert_eq!(Ema::default().predict(&h), 7.0);
        assert_eq!(HoltDes::default().predict(&h), 7.0);
        assert_eq!(BrownDes::default().predict(&h), 7.0);
    }
}
