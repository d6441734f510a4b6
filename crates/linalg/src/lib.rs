//! Dense linear algebra substrate for the LoadDynamics reproduction.
//!
//! The paper's stack (TensorFlow, GPyOpt, scikit-learn) sits on top of dense
//! `f64` linear algebra. This crate provides exactly the pieces the upper
//! layers need, implemented from scratch:
//!
//! - [`Matrix`]: a row-major dense matrix with the usual arithmetic and
//!   serde support so trained models can be snapshotted.
//! - [`pack`]: [`pack::PackedA`], a weight matrix repacked into row
//!   micro-panels once and reused by the LSTM gate step's mat-vec and the
//!   batched serving forward's register-blocked GEMM (bitwise equal to
//!   [`Matrix::matmul`]).
//! - [`cholesky`]: Cholesky factorization and triangular solves, the
//!   numerical core of Gaussian-process regression.
//! - [`vecops`]: small dense-vector kernels (dot, axpy, distances, moments)
//!   shared by the neural-network and statistics code.
//! - [`solve`]: (weighted) least squares via the normal equations with
//!   ridge damping, used by the regression baselines.
//!
//! All routines are deterministic; anything randomized takes an explicit RNG.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod cholesky;
mod guard;
pub mod matrix;
mod microkernel;
pub mod pack;
pub mod solve;
pub mod vecops;

pub use cholesky::Cholesky;
pub use matrix::Matrix;

/// Error type for linear-algebra failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation and shapes involved.
        context: String,
    },
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
