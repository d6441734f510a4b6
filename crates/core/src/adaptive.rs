//! Online adaptive modeling — the extension sketched in the paper's
//! Section V ("Discussion and Future Work"):
//!
//! > "LoadDynamics may experience high prediction errors if the workload
//! > completely changes to a new pattern ... LoadDynamics needs to be
//! > capable of detecting that a previously-unobserved new workload
//! > pattern occurs. It also needs to be able to adaptively retrain its
//! > model to handle such drastic pattern changes."
//!
//! [`DriftDetector`] implements the Page–Hinkley test over relative
//! one-step errors — the standard sequential change-point detector for
//! data streams. [`AdaptiveLoadDynamics`] wraps an optimized predictor,
//! feeds every realized error to the detector, and re-runs the (budgeted)
//! self-optimization on the most recent history whenever drift fires.

use ld_api::{Partition, Predictor, Series};

use crate::framework::{FrameworkConfig, LoadDynamics, OptimizedPredictor};

/// Sequential drift detection with the Page–Hinkley test.
///
/// Feeds on a stream of non-negative error magnitudes. The statistic
/// `m_t = sum_i (e_i - mean_t - delta)` is tracked against its running
/// minimum; drift fires when `m_t - min(m) > lambda`. `delta` tolerates
/// slow wander, `lambda` sets the detection threshold.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// Magnitude tolerance (errors may wander this much without alarm).
    pub delta: f64,
    /// Detection threshold (larger = fewer, later alarms).
    pub lambda: f64,
    /// Samples to ingest before alarms may fire (warm-up).
    pub min_samples: usize,
    count: usize,
    mean: f64,
    cumulative: f64,
    minimum: f64,
}

impl DriftDetector {
    /// A detector tuned for relative (percentage-scale) errors.
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0 && lambda > 0.0);
        DriftDetector {
            delta,
            lambda,
            min_samples: 12,
            count: 0,
            mean: 0.0,
            cumulative: 0.0,
            minimum: 0.0,
        }
    }

    /// Number of errors ingested since the last reset.
    pub fn samples(&self) -> usize {
        self.count
    }

    /// Ingests one error magnitude; returns `true` when drift is detected.
    /// The detector keeps accumulating after an alarm; callers typically
    /// [`DriftDetector::reset`] once they act on it.
    pub fn observe(&mut self, error: f64) -> bool {
        let e = if error.is_finite() { error.max(0.0) } else { 0.0 };
        self.count += 1;
        self.mean += (e - self.mean) / self.count as f64;
        self.cumulative += e - self.mean - self.delta;
        self.minimum = self.minimum.min(self.cumulative);
        self.count >= self.min_samples && self.cumulative - self.minimum > self.lambda
    }

    /// Clears all state (after a retrain).
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.minimum = 0.0;
    }
}

/// Configuration of the adaptive wrapper.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Framework configuration used for each (re)optimization. Retrains
    /// typically use fewer iterations than the initial fit.
    pub framework: FrameworkConfig,
    /// Drift tolerance (relative-error units; e.g. `0.05` = 5 points).
    pub delta: f64,
    /// Page–Hinkley threshold (relative-error units accumulated).
    pub lambda: f64,
    /// Most recent intervals used when retraining after drift.
    pub retrain_window: usize,
    /// Minimum intervals between retrains (cooldown).
    pub cooldown: usize,
}

impl AdaptiveConfig {
    /// A laptop-scale adaptive preset built on [`FrameworkConfig::fast_preset`].
    pub fn fast_preset(seed: u64) -> Self {
        AdaptiveConfig {
            framework: FrameworkConfig::fast_preset(seed),
            delta: 0.02,
            lambda: 3.0,
            retrain_window: 240,
            cooldown: 24,
        }
    }
}

/// A self-retraining LoadDynamics predictor.
///
/// Implements [`Predictor`]; between `predict` calls it watches its own
/// realized errors and rebuilds the underlying model when the workload's
/// pattern drifts.
pub struct AdaptiveLoadDynamics {
    config: AdaptiveConfig,
    detector: DriftDetector,
    inner: Option<OptimizedPredictor>,
    /// Interval index (history length) of the last unsettled prediction.
    pending: Option<(usize, f64)>,
    last_retrain_at: usize,
    retrain_count: usize,
    interval_mins: u32,
    name: String,
}

impl AdaptiveLoadDynamics {
    /// Creates the adaptive predictor; the model is built lazily on
    /// [`Predictor::fit`].
    pub fn new(config: AdaptiveConfig) -> Self {
        let detector = DriftDetector::new(config.delta, config.lambda);
        AdaptiveLoadDynamics {
            config,
            detector,
            inner: None,
            pending: None,
            last_retrain_at: 0,
            retrain_count: 0,
            interval_mins: 1,
            name: "adaptive".into(),
        }
    }

    /// How many times drift forced a retrain.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Access to the current underlying predictor (None before `fit`).
    pub fn inner(&self) -> Option<&OptimizedPredictor> {
        self.inner.as_ref()
    }

    fn optimize_on(&mut self, history: &[f64]) {
        let window = self.config.retrain_window.min(history.len());
        let recent = &history[history.len() - window..];
        // Train/val split within the window; no test partition is held out
        // here — evaluation happens live.
        let partition = Partition::from_fractions(recent.len(), 0.7, 0.29);
        let series = Series::new(self.name.clone(), self.interval_mins, recent.to_vec());
        let framework = LoadDynamics::new(self.config.framework.clone());
        let outcome = framework.optimize_with_partition(&series, &partition);
        self.inner = Some(outcome.predictor);
        self.detector.reset();
        self.last_retrain_at = history.len();
    }

    fn settle_pending(&mut self, history: &[f64]) -> bool {
        let Some((idx, pred)) = self.pending else {
            return false;
        };
        if history.len() <= idx {
            return false;
        }
        let actual = history[idx];
        let rel_err = (pred - actual).abs() / (actual.abs() + 1.0);
        self.pending = None;
        let drift = self.detector.observe(rel_err);
        drift && history.len() >= self.last_retrain_at + self.config.cooldown
    }
}

impl Predictor for AdaptiveLoadDynamics {
    fn name(&self) -> String {
        "AdaptiveLoadDynamics".into()
    }

    fn fit(&mut self, history: &[f64]) {
        assert!(
            history.len() >= 40,
            "adaptive fit needs at least 40 intervals"
        );
        self.optimize_on(history);
    }

    fn predict(&mut self, history: &[f64]) -> f64 {
        if self.inner.is_none() {
            self.fit(history);
        }
        if self.settle_pending(history) {
            self.retrain_count += 1;
            self.optimize_on(history);
        }
        let pred = self
            .inner
            .as_mut()
            .expect("fit ran above")
            .predict(history);
        self.pending = Some((history.len(), pred));
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_quiet_on_stationary_errors() {
        let mut d = DriftDetector::new(0.05, 2.0);
        for i in 0..500 {
            // Bounded oscillating errors around 0.2.
            let e = 0.2 + 0.05 * ((i % 7) as f64 - 3.0) / 3.0;
            assert!(!d.observe(e), "false alarm at {i}");
        }
    }

    #[test]
    fn detector_fires_on_level_shift() {
        let mut d = DriftDetector::new(0.05, 2.0);
        for _ in 0..50 {
            assert!(!d.observe(0.1));
        }
        let mut fired = false;
        for i in 0..60 {
            if d.observe(0.8) {
                fired = true;
                // Must not take absurdly long.
                assert!(i < 20, "fired only after {i} shifted samples");
                break;
            }
        }
        assert!(fired, "drift never detected");
    }

    #[test]
    fn detector_warmup_suppresses_early_alarms() {
        let mut d = DriftDetector::new(0.0, 0.1);
        // Even wild errors cannot alarm before min_samples.
        for i in 0..11 {
            assert!(!d.observe(10.0), "alarm during warm-up at {i}");
        }
    }

    #[test]
    fn detector_reset_clears_state() {
        let mut d = DriftDetector::new(0.05, 1.0);
        for _ in 0..30 {
            d.observe(0.1);
        }
        for _ in 0..30 {
            d.observe(2.0);
        }
        d.reset();
        assert_eq!(d.samples(), 0);
        for _ in 0..11 {
            assert!(!d.observe(0.1));
        }
    }

    /// A series whose pattern flips from one sine to a very different ramp
    /// halfway through — the "drastic pattern change" of Section V.
    fn shifting_series(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                if i < len / 2 {
                    100.0 + 30.0 * (i as f64 * 0.4).sin()
                } else {
                    400.0 + 2.0 * (i - len / 2) as f64
                }
            })
            .collect()
    }

    #[test]
    fn adaptive_retrains_on_pattern_change_and_recovers() {
        let values = shifting_series(360);
        let mut adaptive = AdaptiveLoadDynamics::new(AdaptiveConfig::fast_preset(0));
        adaptive.fit(&values[..150]);
        assert_eq!(adaptive.retrain_count(), 0);

        let mut post_shift_errors = Vec::new();
        for i in 150..values.len() {
            let p = adaptive.predict(&values[..i]);
            if i > 300 {
                post_shift_errors.push(((p - values[i]) / values[i]).abs());
            }
        }
        assert!(
            adaptive.retrain_count() >= 1,
            "drift never triggered a retrain"
        );
        // After retraining on the new ramp regime, errors must be small.
        let late_mape =
            100.0 * post_shift_errors.iter().sum::<f64>() / post_shift_errors.len() as f64;
        assert!(late_mape < 15.0, "post-retrain MAPE {late_mape}");
    }

    #[test]
    fn adaptive_does_not_thrash_on_stationary_series() {
        let values: Vec<f64> = (0..300)
            .map(|i| 100.0 + 30.0 * (i as f64 * 0.4).sin())
            .collect();
        let mut adaptive = AdaptiveLoadDynamics::new(AdaptiveConfig::fast_preset(1));
        adaptive.fit(&values[..150]);
        for i in 150..values.len() {
            adaptive.predict(&values[..i]);
        }
        assert_eq!(
            adaptive.retrain_count(),
            0,
            "spurious retrains on a stationary workload"
        );
    }
}
