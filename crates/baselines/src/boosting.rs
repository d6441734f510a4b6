//! Gradient-boosted regression trees — the "Gradient Boosting" member of
//! Table II.
//!
//! Standard least-squares boosting: start from the target mean, then
//! stage-wise fit shallow CART trees to the current residuals, each scaled
//! by a learning rate.

use crate::ml::Regressor;
use crate::tree::{self, Columns, DecisionTree, SplitPolicy, TreeConfig};

/// Gradient-boosting regressor.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    /// Number of boosting stages.
    pub n_stages: usize,
    /// Shrinkage applied to each stage.
    pub learning_rate: f64,
    /// Depth of each stage tree.
    pub max_depth: usize,
    /// RNG seed (forwarded to stage trees for feature subsampling — with
    /// `max_features = None` fits are deterministic anyway).
    pub seed: u64,
    base: f64,
    stages: Vec<DecisionTree>,
}

impl GradientBoosting {
    /// Boosting with library defaults (40 stages, depth 3, lr 0.1).
    pub fn new(seed: u64) -> Self {
        GradientBoosting {
            n_stages: 40,
            learning_rate: 0.1,
            max_depth: 3,
            seed,
            base: 0.0,
            stages: Vec::new(),
        }
    }

    /// Number of fitted stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True before fitting.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        self.stages.clear();
        if xs.is_empty() {
            self.base = 0.0;
            return;
        }
        self.base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - self.base).collect();
        let config = TreeConfig {
            max_depth: self.max_depth,
            min_samples_leaf: 3,
            min_samples_split: 6,
            max_features: None,
            policy: SplitPolicy::Best,
        };
        // Every stage fits the same rows in the same order and only the
        // residuals change, so the layout, the ranks and the root node's
        // sorted keys are built once. `None` routes every stage through the
        // reference builder instead.
        let shared = (!tree::reference_fit()).then(|| {
            let cols = Columns::new(xs, true);
            let root_keys = cols.root_keys();
            (cols, root_keys)
        });
        for stage in 0..self.n_stages {
            // Early exit when residuals are numerically dead.
            let sse: f64 = residuals.iter().map(|r| r * r).sum();
            if sse < 1e-12 {
                break;
            }
            let mut tree = DecisionTree::new(config, self.seed.wrapping_add(stage as u64));
            match &shared {
                Some((cols, root_keys)) => tree.fit_columns(cols, &residuals, Some(root_keys)),
                None => tree.fit_reference(xs, &residuals),
            }
            for (r, x) in residuals.iter_mut().zip(xs) {
                *r -= self.learning_rate * tree.predict(x);
            }
            self.stages.push(tree);
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.base
            + self.learning_rate
                * self
                    .stages
                    .iter()
                    .map(|t| t.predict(x))
                    .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_smooth_nonlinear_function() {
        let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 10.0 + 50.0).collect();
        let mut gb = GradientBoosting::new(0);
        gb.fit(&xs, &ys);
        let mse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (gb.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        // Variance of targets ~50; boosting should explain most of it.
        assert!(mse < 2.0, "mse {mse}");
    }

    #[test]
    fn more_stages_reduce_training_error() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..60).map(|i| ((i * i) % 97) as f64).collect();
        let train_mse = |stages: usize| {
            let mut gb = GradientBoosting::new(0);
            gb.n_stages = stages;
            gb.fit(&xs, &ys);
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (gb.predict(x) - y).powi(2))
                .sum::<f64>()
                / xs.len() as f64
        };
        assert!(train_mse(40) < train_mse(5));
    }

    #[test]
    fn constant_targets_stop_early() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys = vec![9.0; 30];
        let mut gb = GradientBoosting::new(0);
        gb.fit(&xs, &ys);
        assert!(gb.len() <= 1, "stages {}", gb.len());
        assert_eq!(gb.predict(&[3.0]), 9.0);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut gb = GradientBoosting::new(0);
        gb.fit(&[], &[]);
        assert_eq!(gb.predict(&[1.0]), 0.0);
    }
}
