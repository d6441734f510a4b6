//! From-scratch neural-network training substrate for LoadDynamics.
//!
//! The paper trains its predictors with TensorFlow; Rust's ML ecosystem has
//! no mature equivalent for LSTM training, so this crate implements the
//! required subset directly:
//!
//! - [`recurrent`]: the recurrent engine — one generic layer, gradient type
//!   and flat per-layer cache with exact backpropagation-through-time, under
//!   a [`recurrent::Cell`] trait that supplies only the gate math,
//! - [`lstm`]: the paper's LSTM cell (Fig 3/4), plus the retained reference
//!   kernels that pin it,
//! - [`gru`]: the GRU cell of the `ablation_lstm_vs_gru` experiment,
//! - [`dense`]: the fully-connected output head `T`,
//! - [`mlp`]: a plain feed-forward autoregressor used by the
//!   `ablation_lstm_vs_dense` experiment,
//! - [`optim`]: Adam (the paper's optimizer) and SGD,
//! - [`loss`]: mean-squared error (the paper's loss),
//! - [`forecaster`]: the end-to-end model of Eq. (1) — a window of `n` past
//!   JARs in, one predicted JAR out — as one stacked shell over either cell
//!   ([`LstmForecaster`], [`GruForecaster`]), plus (de)serialization,
//! - [`batch`]: fused batched LSTM inference, one GEMM of each layer's
//!   fused `[W | U | b]` panel per step across a batch of same-model
//!   windows (the serving path), bitwise equal to per-window prediction,
//! - [`trainer`]: mini-batch training with shuffling, global-norm gradient
//!   clipping and early stopping on a validation split,
//! - [`workspace`]: reusable scratch arenas that make the forward/backward
//!   hot loops allocation-free,
//! - [`reference`]: the retained pre-change compute paths, used as the
//!   equivalence oracle for the optimized kernels.
//!
//! Every forward pass is pure; gradients are checked against finite
//! differences in the test suite. All randomness flows from explicit seeds.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod activation;
pub mod batch;
pub mod dense;
pub mod forecaster;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod optim;
pub mod recurrent;
pub mod reference;
pub mod trainer;
pub mod workspace;

pub use batch::BatchScratch;
pub use forecaster::{ForecasterConfig, GruForecaster, LstmForecaster};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use trainer::{TrainOptions, TrainReport, Trainer};

/// A supervised sample: an input window of past observations and the target
/// next observation. Values are expected to be normalized by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The input window `J_{i-n} .. J_{i-1}` (oldest first).
    pub window: Vec<f64>,
    /// The target `J_i`.
    pub target: f64,
}

impl Sample {
    /// Convenience constructor.
    pub fn new(window: Vec<f64>, target: f64) -> Self {
        Sample { window, target }
    }
}

/// `into += other` over same-shape matrices, used by the gradient
/// containers' batch reduction. Shape equality is structural — both sides
/// are built from the same layer dimensions — so it is checked in debug
/// builds only rather than panicking through `Result` in the hot path.
pub(crate) fn accumulate_matrix(into: &mut ld_linalg::Matrix, other: &ld_linalg::Matrix) {
    debug_assert_eq!(
        (into.rows(), into.cols()),
        (other.rows(), other.cols()),
        "gradient shape mismatch"
    );
    for (a, b) in into.as_mut_slice().iter_mut().zip(other.as_slice()) {
        *a += *b;
    }
}

/// Builds sliding-window samples from a series: for each position `i >= n`,
/// the window `series[i-n..i]` predicts `series[i]`.
///
/// Returns an empty vector if the series is shorter than `n + 1`.
pub fn make_windows(series: &[f64], n: usize) -> Vec<Sample> {
    if n == 0 || series.len() <= n {
        return Vec::new();
    }
    (n..series.len())
        .map(|i| Sample::new(series[i - n..i].to_vec(), series[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_windows_shapes_and_alignment() {
        let series = [1.0, 2.0, 3.0, 4.0, 5.0];
        let w = make_windows(&series, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], Sample::new(vec![1.0, 2.0], 3.0));
        assert_eq!(w[2], Sample::new(vec![3.0, 4.0], 5.0));
    }

    #[test]
    fn make_windows_degenerate_inputs() {
        assert!(make_windows(&[1.0, 2.0], 2).is_empty());
        assert!(make_windows(&[1.0, 2.0, 3.0], 0).is_empty());
        assert_eq!(make_windows(&[1.0, 2.0, 3.0], 2).len(), 1);
    }
}
