//! Ensemble-of-trees members of Table II: Random Forest and Extra Trees.
//!
//! Random forest: bootstrap-resampled CART trees with `sqrt(d)` candidate
//! features per split, averaged. Extra trees: no bootstrap, random
//! thresholds. Trees are trained rayon-parallel on one shared, ranked
//! layout of the samples — with CloudInsight refitting its council every
//! five intervals, forest training is a hot path of the baseline
//! evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::ml::Regressor;
use crate::tree::{self, Columns, DecisionTree, SplitPolicy, TreeConfig};

/// Forest flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestKind {
    /// Bootstrap + best splits on feature subsets.
    RandomForest,
    /// Full sample + random-threshold splits.
    ExtraTrees,
}

/// A forest of regression trees.
#[derive(Debug, Clone)]
pub struct Forest {
    /// Flavour.
    pub kind: ForestKind,
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth configuration (feature subsetting is applied on top).
    pub tree_config: TreeConfig,
    /// RNG seed.
    pub seed: u64,
    trees: Vec<DecisionTree>,
}

impl Forest {
    /// A random forest with library defaults (24 trees, depth 8).
    pub fn random_forest(seed: u64) -> Self {
        Forest::new(ForestKind::RandomForest, 24, seed)
    }

    /// An extra-trees ensemble with library defaults.
    pub fn extra_trees(seed: u64) -> Self {
        Forest::new(ForestKind::ExtraTrees, 24, seed)
    }

    /// A forest with an explicit flavour and size.
    pub fn new(kind: ForestKind, n_trees: usize, seed: u64) -> Self {
        assert!(n_trees >= 1);
        Forest {
            kind,
            n_trees,
            tree_config: TreeConfig::default(),
            seed,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True before fitting.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

impl Regressor for Forest {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        self.trees.clear();
        if xs.is_empty() {
            return;
        }
        let d = xs[0].len();
        let max_features = ld_api::num::to_count((d as f64).sqrt().round()).clamp(1, d);
        let config = TreeConfig {
            max_features: Some(max_features),
            policy: match self.kind {
                ForestKind::RandomForest => SplitPolicy::Best,
                ForestKind::ExtraTrees => SplitPolicy::Random,
            },
            ..self.tree_config
        };
        let kind = self.kind;
        let seed = self.seed;
        // Laid out (and, for best splits, ranked) once for all the trees;
        // `None` routes every tree through the reference builder instead.
        let shared =
            (!tree::reference_fit()).then(|| Columns::new(xs, config.policy == SplitPolicy::Best));
        self.trees = (0..self.n_trees)
            .into_par_iter()
            .map(|t| {
                let tree_seed = seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(t as u64);
                let mut tree = DecisionTree::new(config, tree_seed);
                match kind {
                    ForestKind::RandomForest => {
                        // Bootstrap resample.
                        let mut rng = StdRng::seed_from_u64(tree_seed ^ 0xB0075);
                        let n = xs.len();
                        let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                        let by: Vec<f64> = rows.iter().map(|&i| ys[i]).collect();
                        match &shared {
                            // Bootstrap rows inherit their source row's ranks.
                            Some(cols) => tree.fit_columns(&cols.gather(&rows), &by, None),
                            None => {
                                let bx: Vec<Vec<f64>> =
                                    rows.iter().map(|&i| xs[i].clone()).collect();
                                tree.fit_reference(&bx, &by);
                            }
                        }
                    }
                    ForestKind::ExtraTrees => match &shared {
                        Some(cols) => tree.fit_columns(cols, ys, None),
                        None => tree.fit_reference(xs, ys),
                    },
                }
                tree
            })
            .collect();
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_step() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 99.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let base = if x[0] < 0.5 { 10.0 } else { 20.0 };
                base + ((i * 13) % 7) as f64 * 0.1 // deterministic jitter
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn random_forest_fits_step() {
        let (xs, ys) = noisy_step();
        let mut f = Forest::random_forest(1);
        f.fit(&xs, &ys);
        assert_eq!(f.len(), 24);
        assert!((f.predict(&[0.2]) - 10.3).abs() < 1.5);
        assert!((f.predict(&[0.8]) - 20.3).abs() < 1.5);
    }

    #[test]
    fn extra_trees_fit_step() {
        let (xs, ys) = noisy_step();
        let mut f = Forest::extra_trees(1);
        f.fit(&xs, &ys);
        assert!((f.predict(&[0.2]) - 10.3).abs() < 2.0);
        assert!((f.predict(&[0.8]) - 20.3).abs() < 2.0);
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let (xs, ys) = noisy_step();
        let mut a = Forest::random_forest(7);
        let mut b = Forest::random_forest(7);
        a.fit(&xs, &ys);
        b.fit(&xs, &ys);
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
        let mut c = Forest::random_forest(8);
        c.fit(&xs, &ys);
        assert!(xs.iter().any(|x| a.predict(x) != c.predict(x)));
    }

    #[test]
    fn averaging_smooths_single_tree_variance() {
        // On noisy data, forest train MSE should not exceed a deep single
        // tree's *test-style* variance; we just check the forest prediction
        // is bounded by the target range.
        let (xs, ys) = noisy_step();
        let mut f = Forest::random_forest(3);
        f.fit(&xs, &ys);
        for x in &xs {
            let p = f.predict(x);
            assert!((9.0..22.0).contains(&p), "prediction {p}");
        }
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut f = Forest::extra_trees(0);
        f.fit(&[], &[]);
        assert_eq!(f.predict(&[1.0]), 0.0);
    }
}
