//! Gaussian-process regression — the Bayesian-optimization surrogate.
//!
//! The paper (Section III-A) uses a Gaussian process as the regression
//! model inside Bayesian Optimization, mirroring GPyOpt. This crate
//! implements GP regression from scratch on top of `ld-linalg`:
//!
//! - [`kernel`]: RBF and Matérn-3/2 / Matérn-5/2 covariance functions,
//! - [`regressor`]: exact GP fit via Cholesky of the Gram matrix,
//!   predictive mean/variance, and the log marginal likelihood,
//! - [`fit`]: hyperparameter selection by maximizing the log marginal
//!   likelihood over a multi-resolution log-space grid,
//! - [`gram`]: serial/packed Gram construction (bitwise identical paths;
//!   the packed build takes over at a fixed, measured point count),
//! - [`sections`]: opt-in nanosecond accounting for the Gram hot section.
//!
//! Targets are standardized internally so kernel hyperpriors are scale-free.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod fit;
pub mod gram;
pub mod kernel;
pub mod regressor;
pub mod sections;

pub use kernel::{Kernel, KernelKind};
pub use regressor::{GpError, GpRegressor};
