//! Experiment scaling presets.
//!
//! The paper's full runs assume a 16-core Xeon and hours per workload
//! configuration (`maxIters = 100` over the full Table III space, plus a
//! brute-force search of up to six weeks). The harness defaults to a
//! *standard* scale that preserves every qualitative result at minutes of
//! wall clock, and honours `LD_FAST=1` for CI smoke runs. EXPERIMENTS.md
//! documents the reduction.

use ld_bayesopt::SearchSpace;
use loaddynamics::{scaled_space, FrameworkConfig, SearchStrategy, TrainBudget};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes-scale runs preserving the paper's qualitative shape.
    Standard,
    /// Seconds-scale smoke runs (`LD_FAST=1`).
    Fast,
}

impl ExperimentScale {
    /// Reads the scale from the environment (`LD_FAST=1` selects
    /// [`ExperimentScale::Fast`]).
    pub fn from_env() -> Self {
        match std::env::var("LD_FAST") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => ExperimentScale::Fast,
            _ => ExperimentScale::Standard,
        }
    }

    /// The hyperparameter search space at this scale (a proportional
    /// shrink of Table III; the relative geometry — log-scaled history and
    /// batch, linear cells and layers — is identical).
    pub fn space(&self) -> SearchSpace {
        match self {
            ExperimentScale::Standard => scaled_space(32, 16, 2, 64),
            ExperimentScale::Fast => scaled_space(12, 6, 1, 32),
        }
    }

    /// BO iteration budget (`maxIters`; 100 in the paper).
    pub fn max_iters(&self) -> usize {
        match self {
            ExperimentScale::Standard => 10,
            ExperimentScale::Fast => 5,
        }
    }

    /// Per-candidate training budget.
    pub fn budget(&self) -> TrainBudget {
        match self {
            ExperimentScale::Standard => TrainBudget {
                max_epochs: 14,
                patience: 4,
                learning_rate: 8e-3,
                max_train_windows: 550,
                clip_norm: 5.0,
            },
            ExperimentScale::Fast => TrainBudget {
                max_epochs: 8,
                patience: 3,
                learning_rate: 1e-2,
                max_train_windows: 250,
                clip_norm: 5.0,
            },
        }
    }

    /// Iteration budget adapted to the series length: short traces train
    /// in milliseconds, so the optimizer can afford far more iterations —
    /// and needs them, because their noisy validation partitions make
    /// candidate selection harder (the paper spends 100 iterations on
    /// every configuration).
    pub fn max_iters_for(&self, series_len: usize) -> usize {
        let base = self.max_iters();
        if series_len < 500 {
            base * 3
        } else {
            base
        }
    }

    /// Brute-force budget with the same short-series adaptation.
    pub fn brute_force_iters_for(&self, series_len: usize) -> usize {
        let base = self.brute_force_iters();
        if series_len < 500 {
            base * 3
        } else {
            base
        }
    }

    /// A full LoadDynamics framework configuration at this scale.
    pub fn framework_config(&self, seed: u64) -> FrameworkConfig {
        FrameworkConfig {
            space: self.space(),
            max_iters: self.max_iters(),
            budget: self.budget(),
            seed,
            strategy: SearchStrategy::default(),
            tracer: ld_telemetry::Tracer::disabled(),
            faults: ld_faultinject::FaultPlan::disarmed(),
            deadline_secs: None,
        }
    }

    /// Budget for the brute-force reference search (`LSTMBruteForce` in
    /// Fig. 9): a grid several times larger than the BO budget.
    pub fn brute_force_iters(&self) -> usize {
        match self {
            ExperimentScale::Standard => 24,
            ExperimentScale::Fast => 8,
        }
    }

    /// Caps a series to keep walk-forward evaluation bounded: keeps the
    /// most recent `max_len` intervals at standard scale, fewer at fast
    /// scale.
    pub fn cap_series(&self, series: &ld_api::Series) -> ld_api::Series {
        let max_len = match self {
            ExperimentScale::Standard => 1200,
            ExperimentScale::Fast => 400,
        };
        if series.len() <= max_len {
            return series.clone();
        }
        ld_api::Series::new(
            series.name.clone(),
            series.interval_mins,
            series.values[series.len() - max_len..].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scale_is_smaller_everywhere() {
        let std = ExperimentScale::Standard;
        let fast = ExperimentScale::Fast;
        assert!(fast.max_iters() < std.max_iters());
        assert!(fast.budget().max_epochs < std.budget().max_epochs);
        assert!(fast.brute_force_iters() < std.brute_force_iters());
    }

    #[test]
    fn cap_series_keeps_most_recent() {
        let s = ld_api::Series::new("x", 5, (0..5000).map(|i| i as f64).collect());
        let capped = ExperimentScale::Standard.cap_series(&s);
        assert_eq!(capped.len(), 1200);
        assert_eq!(*capped.values.last().unwrap(), 4999.0);
        // Short series pass through.
        let short = ld_api::Series::new("y", 5, vec![1.0; 100]);
        assert_eq!(ExperimentScale::Fast.cap_series(&short).len(), 100);
    }

    #[test]
    fn framework_config_is_buildable() {
        let cfg = ExperimentScale::Fast.framework_config(1);
        assert_eq!(cfg.max_iters, 5);
        loaddynamics::LoadDynamics::new(cfg); // must not panic
    }
}
