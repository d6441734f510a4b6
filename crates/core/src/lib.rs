//! LoadDynamics — a self-optimized generic workload prediction framework.
//!
//! This crate is the paper's contribution: an LSTM workload forecaster
//! whose four hyperparameters (history length `n`, cell-memory size `s`,
//! LSTM layer count, training batch size) are tuned *per workload* by
//! Bayesian optimization, so one framework produces an accurate predictor
//! for any JAR series without hand-tuning (Sections II–III).
//!
//! The workflow mirrors Fig. 6:
//!
//! 1. **Train** an LSTM configured by the current hyperparameter set on the
//!    training partition ([`pipeline`]).
//! 2. **Validate** it on the cross-validation partition (MAPE).
//! 3. **Propose** a new hyperparameter set with Bayesian optimization over
//!    the Table III search space ([`space`], [`ld_bayesopt`]).
//! 4. After `maxIters` rounds, **select** the lowest-error model.
//! 5. **Predict** future JARs with the selected model
//!    ([`OptimizedPredictor`] implements [`ld_api::Predictor`] for the same
//!    walk-forward harness the baselines use).
//!
//! ```no_run
//! use ld_api::Series;
//! use loaddynamics::{FrameworkConfig, LoadDynamics};
//!
//! let series = Series::new("my-workload", 30, vec![100.0; 500]);
//! let framework = LoadDynamics::new(FrameworkConfig::fast_preset(42));
//! let outcome = framework.optimize(&series);
//! println!(
//!     "picked {} with validation MAPE {:.1}%",
//!     outcome.hyperparams, outcome.val_mape
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod adaptive;
pub mod framework;
pub mod hyperparams;
pub mod pipeline;
pub mod space;

pub use adaptive::{AdaptiveConfig, AdaptiveLoadDynamics, DriftDetector};
pub use framework::{
    FallbackKind, FrameworkConfig, LoadDynamics, OptimizationOutcome, OptimizedPredictor,
    SearchStrategy,
};
pub use hyperparams::HyperParams;
pub use pipeline::{evaluate_hyperparams, evaluate_hyperparams_traced, TrainBudget};
pub use space::{facebook_space, paper_space, scaled_space};

/// Holds off the tests that install a process-global fault plan, and
/// clears any plan left behind. This crate's unit tests share one process:
/// a search that runs while another test's rate-1.0 NaN-loss plan is
/// installed sees every trial diverge. Every test that trains holds this.
#[cfg(test)]
pub(crate) fn without_faults() -> std::sync::MutexGuard<'static, ()> {
    let guard = ld_faultinject::test_lock();
    ld_faultinject::reset();
    guard
}
