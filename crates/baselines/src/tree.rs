//! CART regression tree — the "Decision Tree" member of Table II and the
//! base learner for the forest and boosting members.
//!
//! Splits minimize the weighted sum of child variances (equivalently,
//! maximize variance reduction). Two split policies are supported: exact
//! best-split search (CART / random forest) and random-threshold splits
//! (extra trees).
//!
//! Fitting is a rank-keyed split search over [`Columns`], a feature-major
//! copy of the samples in which every value also carries its dense rank
//! within its feature. Ranks are computed once per fit and shared by every
//! tree of an ensemble: all forest trees (bootstrap rows inherit their
//! source row's ranks) and all boosting stages (whose root-node order is
//! sorted once). A node's best-split search then sorts packed integer keys
//! `rank << 32 | node_position` instead of `(value, target)` pairs. Ties
//! break by node position exactly as the reference's stable sort breaks
//! them, every floating-point accumulation keeps its order, and the RNG
//! draw sequence is untouched, so the fitted tree is **bitwise identical**
//! to the retained index-sort reference builder, which only this module's
//! tests compile and compare against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ml::Regressor;

/// Split-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Exhaustive best split over candidate features (CART).
    Best,
    /// Uniformly random threshold per candidate feature (extra trees).
    Random,
}

/// Tree growth configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features per split (`None` = all).
    pub max_features: Option<usize>,
    /// Split policy.
    pub policy: SplitPolicy,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_leaf: 2,
            min_samples_split: 4,
            max_features: None,
            policy: SplitPolicy::Best,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    config: TreeConfig,
    seed: u64,
}

impl DecisionTree {
    /// An unfitted tree with the given configuration and RNG seed (the seed
    /// matters for `max_features` subsampling and random splits).
    pub fn new(config: TreeConfig, seed: u64) -> Self {
        DecisionTree {
            nodes: Vec::new(),
            config,
            seed,
        }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match nodes[idx] {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Reference builder, retained verbatim as the rank-keyed builder's
    /// test oracle: each best-split scan clones and sorts the node's index
    /// list and gathers features through the nested `xs` rows.
    #[cfg(test)]
    fn build_reference(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idxs: &mut [usize],
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let mean = idxs.iter().map(|&i| ys[i]).sum::<f64>() / idxs.len() as f64;
        let sse: f64 = idxs.iter().map(|&i| (ys[i] - mean).powi(2)).sum();
        if depth >= self.config.max_depth
            || idxs.len() < self.config.min_samples_split
            || sse <= 1e-12
        {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }

        let d = xs[0].len();
        let n_feats = self.config.max_features.unwrap_or(d).clamp(1, d);
        // Choose candidate features without replacement (partial shuffle).
        let mut feats: Vec<usize> = (0..d).collect();
        for i in 0..n_feats {
            let j = rng.gen_range(i..d);
            feats.swap(i, j);
        }
        let candidates = &feats[..n_feats];

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in candidates {
            match self.config.policy {
                SplitPolicy::Best => {
                    // Sort by feature, scan split points with prefix sums.
                    let mut sorted: Vec<usize> = idxs.to_vec();
                    sorted.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
                    let n = sorted.len();
                    let total_sum: f64 = sorted.iter().map(|&i| ys[i]).sum();
                    let total_sq: f64 = sorted.iter().map(|&i| ys[i] * ys[i]).sum();
                    let mut lsum = 0.0;
                    let mut lsq = 0.0;
                    for k in 0..n - 1 {
                        let yi = ys[sorted[k]];
                        lsum += yi;
                        lsq += yi * yi;
                        // Can't split between equal feature values.
                        if xs[sorted[k]][f] == xs[sorted[k + 1]][f] {
                            continue;
                        }
                        let nl = k + 1;
                        let nr = n - nl;
                        if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let rsum = total_sum - lsum;
                        let rsq = total_sq - lsq;
                        let child_sse = (lsq - lsum * lsum / nl as f64)
                            + (rsq - rsum * rsum / nr as f64);
                        let threshold = 0.5 * (xs[sorted[k]][f] + xs[sorted[k + 1]][f]);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
                SplitPolicy::Random => {
                    let lo = idxs.iter().map(|&i| xs[i][f]).fold(f64::INFINITY, f64::min);
                    let hi = idxs
                        .iter()
                        .map(|&i| xs[i][f])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if hi <= lo {
                        continue;
                    }
                    // A few random candidate thresholds per feature keeps
                    // single-feature trees (the degenerate but legal case)
                    // from stalling on one unlucky draw.
                    for _ in 0..4 {
                        let threshold = rng.gen_range(lo..hi);
                        let (mut lsum, mut lsq, mut nl) = (0.0, 0.0, 0usize);
                        let (mut rsum, mut rsq, mut nr) = (0.0, 0.0, 0usize);
                        for &i in idxs.iter() {
                            let y = ys[i];
                            if xs[i][f] <= threshold {
                                lsum += y;
                                lsq += y * y;
                                nl += 1;
                            } else {
                                rsum += y;
                                rsq += y * y;
                                nr += 1;
                            }
                        }
                        if nl < self.config.min_samples_leaf
                            || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let child_sse =
                            (lsq - lsum * lsum / nl as f64) + (rsq - rsum * rsum / nr as f64);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };

        // Partition indices in place.
        let mut mid = 0;
        for k in 0..idxs.len() {
            if xs[idxs[k]][feature] <= threshold {
                idxs.swap(k, mid);
                mid += 1;
            }
        }
        debug_assert!(mid > 0 && mid < idxs.len());

        // Reserve the split node, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let (left_idxs, right_idxs) = idxs.split_at_mut(mid);
        let left = self.build_reference(xs, ys, left_idxs, depth + 1, rng);
        let right = self.build_reference(xs, ys, right_idxs, depth + 1, rng);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }

    /// Reference fit on the nested sample rows: the oracle the rank-keyed
    /// builder is pinned to.
    #[cfg(test)]
    fn fit_reference(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        self.nodes.clear();
        if xs.is_empty() {
            return;
        }
        let mut idxs: Vec<usize> = (0..xs.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build_reference(xs, ys, &mut idxs, 0, &mut rng);
    }

    /// Rank-keyed fit on samples laid out by [`Columns`]; ensembles share
    /// one layout across their trees. `root_keys` (from
    /// [`Columns::root_keys`]) spare the root node its sorts when many
    /// trees fit the same rows in their original order.
    pub(crate) fn fit_columns(&mut self, cols: &Columns, ys: &[f64], root_keys: Option<&[u64]>) {
        assert_eq!(cols.n, ys.len());
        debug_assert!(
            self.config.policy == SplitPolicy::Random || cols.ranks.len() == cols.values.len()
        );
        self.nodes.clear();
        if cols.n == 0 {
            return;
        }
        let mut idxs: Vec<usize> = (0..cols.n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut scratch = Scratch {
            keys: Vec::with_capacity(cols.n),
            xs: Vec::with_capacity(cols.n),
            ys: Vec::with_capacity(cols.n),
        };
        let fit = FlatFit {
            cols,
            ys,
            root_keys,
        };
        self.build_flat(&fit, &mut scratch, &mut idxs, 0, &mut rng);
    }

    /// Rank-keyed builder over feature-major columns.
    ///
    /// Best-split search sorts the node's packed keys
    /// `rank << 32 | node_position`: dense ranks order values exactly as
    /// `f64::total_cmp` does and tie equal values, and unique positions
    /// break those ties in node order, so the sorted sequence is the one
    /// the reference builder's stable index sort yields. The scan then
    /// accumulates the same sums in the same order and picks the same
    /// split. Random splits draw their thresholds in the reference's
    /// sequence and score them in one pass whose conditional sums add
    /// `+0.0` where the reference skips: a sum that starts at `+0.0` is
    /// never `-0.0`, so adding `+0.0` leaves its bits unchanged. The
    /// partition is the reference's Lomuto pass written branch-free. Trees
    /// are bitwise identical to the reference builder's.
    fn build_flat(
        &mut self,
        fit: &FlatFit<'_>,
        scratch: &mut Scratch,
        idxs: &mut [usize],
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let ys = fit.ys;
        let mean = idxs.iter().map(|&i| ys[i]).sum::<f64>() / idxs.len() as f64;
        let sse: f64 = idxs.iter().map(|&i| (ys[i] - mean).powi(2)).sum();
        if depth >= self.config.max_depth
            || idxs.len() < self.config.min_samples_split
            || sse <= 1e-12
        {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }

        let d = fit.cols.d;
        let n_feats = self.config.max_features.unwrap_or(d).clamp(1, d);
        // Choose candidate features without replacement (partial shuffle).
        let mut feats: Vec<usize> = (0..d).collect();
        for i in 0..n_feats {
            let j = rng.gen_range(i..d);
            feats.swap(i, j);
        }
        let candidates = &feats[..n_feats];

        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in candidates {
            let col = fit.cols.column(f);
            match self.config.policy {
                SplitPolicy::Best => {
                    let sorted: &[u64] = match fit.root_keys {
                        Some(root) if depth == 0 => &root[f * fit.cols.n..(f + 1) * fit.cols.n],
                        _ => {
                            let ranks = fit.cols.rank_column(f);
                            scratch.keys.clear();
                            scratch.keys.extend(
                                idxs.iter().enumerate().map(|(p, &i)| pack_key(ranks[i], p)),
                            );
                            scratch.keys.sort_unstable();
                            &scratch.keys
                        }
                    };
                    // Gather values and targets in sorted order, then scan
                    // split points with prefix sums.
                    scratch.xs.clear();
                    scratch.ys.clear();
                    for &key in sorted {
                        let i = idxs[key_position(key)];
                        scratch.xs.push(col[i]);
                        scratch.ys.push(ys[i]);
                    }
                    let (sx, sy) = (&scratch.xs, &scratch.ys);
                    let n = sy.len();
                    let total_sum: f64 = sy.iter().sum();
                    let total_sq: f64 = sy.iter().map(|y| y * y).sum();
                    let mut lsum = 0.0;
                    let mut lsq = 0.0;
                    for k in 0..n - 1 {
                        let yi = sy[k];
                        lsum += yi;
                        lsq += yi * yi;
                        // Can't split between equal feature values.
                        if sx[k] == sx[k + 1] {
                            continue;
                        }
                        let nl = k + 1;
                        let nr = n - nl;
                        if nl < min_leaf || nr < min_leaf {
                            continue;
                        }
                        let rsum = total_sum - lsum;
                        let rsq = total_sq - lsq;
                        let child_sse =
                            (lsq - lsum * lsum / nl as f64) + (rsq - rsum * rsum / nr as f64);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, 0.5 * (sx[k] + sx[k + 1])));
                        }
                    }
                }
                SplitPolicy::Random => {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &i in idxs.iter() {
                        lo = lo.min(col[i]);
                        hi = hi.max(col[i]);
                    }
                    if hi <= lo {
                        continue;
                    }
                    // A few random candidate thresholds per feature keeps
                    // single-feature trees (the degenerate but legal case)
                    // from stalling on one unlucky draw. Scoring draws
                    // nothing, so drawing them all first keeps the
                    // reference's draw sequence.
                    let thresholds: [f64; RANDOM_DRAWS] =
                        std::array::from_fn(|_| rng.gen_range(lo..hi));
                    let mut lsum = [0.0; RANDOM_DRAWS];
                    let mut lsq = [0.0; RANDOM_DRAWS];
                    let mut rsum = [0.0; RANDOM_DRAWS];
                    let mut rsq = [0.0; RANDOM_DRAWS];
                    let mut nl = [0usize; RANDOM_DRAWS];
                    for &i in idxs.iter() {
                        let (x, y) = (col[i], ys[i]);
                        let yy = y * y;
                        for t in 0..RANDOM_DRAWS {
                            let left = x <= thresholds[t];
                            lsum[t] += if left { y } else { 0.0 };
                            lsq[t] += if left { yy } else { 0.0 };
                            rsum[t] += if left { 0.0 } else { y };
                            rsq[t] += if left { 0.0 } else { yy };
                            nl[t] += usize::from(left);
                        }
                    }
                    for t in 0..RANDOM_DRAWS {
                        let (nl, nr) = (nl[t], idxs.len() - nl[t]);
                        if nl < min_leaf || nr < min_leaf {
                            continue;
                        }
                        let child_sse = (lsq[t] - lsum[t] * lsum[t] / nl as f64)
                            + (rsq[t] - rsum[t] * rsum[t] / nr as f64);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, thresholds[t]));
                        }
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };

        // Partition indices in place: Lomuto's swap-to-front pass, with the
        // conditional swap written as selects.
        let col = fit.cols.column(feature);
        let mut mid = 0;
        for k in 0..idxs.len() {
            let (i, m) = (idxs[k], idxs[mid]);
            let go = col[i] <= threshold;
            idxs[k] = if go { m } else { i };
            idxs[mid] = if go { i } else { m };
            mid += usize::from(go);
        }
        debug_assert!(mid > 0 && mid < idxs.len());

        // Reserve the split node, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let (left_idxs, right_idxs) = idxs.split_at_mut(mid);
        let left = self.build_flat(fit, scratch, left_idxs, depth + 1, rng);
        let right = self.build_flat(fit, scratch, right_idxs, depth + 1, rng);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }
}

/// Thresholds the random policy draws per candidate feature.
const RANDOM_DRAWS: usize = 4;

/// A split-search key: the value's rank above its node position.
fn pack_key(rank: u32, position: usize) -> u64 {
    (u64::from(rank) << 32) | position as u64
}

/// The node position a [`pack_key`] key carries.
fn key_position(key: u64) -> usize {
    (key & 0xFFFF_FFFF) as usize
}

/// Training samples laid out for the split search, built once per fit and
/// shared by every tree of an ensemble: values stored feature-major and,
/// when ranked, each value's dense rank within its feature. Equal values
/// share a rank and rank order is `f64::total_cmp` order, so sorting by
/// rank sorts by value.
pub(crate) struct Columns {
    n: usize,
    d: usize,
    /// Feature `f` of sample `i` at `f * n + i`.
    values: Vec<f64>,
    /// Rank of `values[f * n + i]` at the same index; empty when unranked.
    ranks: Vec<u32>,
}

impl Columns {
    /// Lays out the rows `xs`, ranking them when `ranked` (best-split
    /// search needs ranks; random splits only read values).
    pub(crate) fn new(xs: &[Vec<f64>], ranked: bool) -> Self {
        let n = xs.len();
        let d = xs.first().map_or(0, Vec::len);
        assert!(u32::try_from(n).is_ok(), "split keys hold 32-bit positions");
        let mut values = vec![0.0; n * d];
        for (i, row) in xs.iter().enumerate() {
            assert_eq!(row.len(), d, "ragged sample rows");
            for (f, &v) in row.iter().enumerate() {
                values[f * n + i] = v;
            }
        }
        let mut ranks = Vec::new();
        if ranked {
            ranks = vec![0; n * d];
            let mut order: Vec<usize> = (0..n).collect();
            for f in 0..d {
                let col = &values[f * n..(f + 1) * n];
                let out = &mut ranks[f * n..(f + 1) * n];
                order.sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]));
                let mut rank = 0u32;
                for (w, &i) in order.iter().enumerate() {
                    // `total_cmp` ties exactly the bit-identical values.
                    if w > 0 && col[i].to_bits() != col[order[w - 1]].to_bits() {
                        rank += 1;
                    }
                    out[i] = rank;
                }
            }
        }
        Columns {
            n,
            d,
            values,
            ranks,
        }
    }

    /// The samples `rows` (repeats allowed, as in a bootstrap), each
    /// keeping its source row's values and ranks.
    pub(crate) fn gather(&self, rows: &[usize]) -> Self {
        let m = rows.len();
        assert!(u32::try_from(m).is_ok(), "split keys hold 32-bit positions");
        let mut values = Vec::with_capacity(m * self.d);
        let ranked = !self.ranks.is_empty();
        let mut ranks = Vec::with_capacity(if ranked { m * self.d } else { 0 });
        for f in 0..self.d {
            let col = self.column(f);
            values.extend(rows.iter().map(|&i| col[i]));
            if ranked {
                let col = self.rank_column(f);
                ranks.extend(rows.iter().map(|&i| col[i]));
            }
        }
        Columns {
            n: m,
            d: self.d,
            values,
            ranks,
        }
    }

    /// Every feature's sorted keys for the node holding all samples in
    /// order — the root of every tree fitted on these rows — feature-major.
    pub(crate) fn root_keys(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.n * self.d);
        for f in 0..self.d {
            let start = keys.len();
            keys.extend(
                self.rank_column(f)
                    .iter()
                    .enumerate()
                    .map(|(p, &r)| pack_key(r, p)),
            );
            keys[start..].sort_unstable();
        }
        keys
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n..(f + 1) * self.n]
    }

    fn rank_column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n..(f + 1) * self.n]
    }
}

/// The shared inputs of one rank-keyed fit.
struct FlatFit<'a> {
    cols: &'a Columns,
    ys: &'a [f64],
    root_keys: Option<&'a [u64]>,
}

/// Per-fit buffers reused across the fit's nodes: the node's sorted keys,
/// and its values and targets in that order.
struct Scratch {
    keys: Vec<u64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Regressor for DecisionTree {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        let cols = Columns::new(xs, self.config.policy == SplitPolicy::Best);
        self.fit_columns(&cols, ys, None);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut idx = 0usize;
        loop {
            match self.nodes[idx] {
                Node::Leaf(v) => return v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 for x < 0.5, y = 20 otherwise.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 10.0 } else { 20.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (xs, ys) = step_data();
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.predict(&[0.1]), 10.0);
        assert_eq!(tree.predict(&[0.9]), 20.0);
        // One split suffices.
        assert!(tree.node_count() <= 5, "nodes {}", tree.node_count());
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i % 17) as f64).collect();
        let mut tree = DecisionTree::new(
            TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            0,
        );
        tree.fit(&xs, &ys);
        assert!(tree.depth() <= 4, "depth {}", tree.depth()); // root + 3
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 20];
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[100.0]), 5.0);
    }

    #[test]
    fn piecewise_fit_on_two_features() {
        // y depends only on feature 1; tree must find it.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                xs.push(vec![a as f64, b as f64]);
                ys.push(if b < 5 { 0.0 } else { 100.0 });
            }
        }
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.predict(&[3.0, 2.0]), 0.0);
        assert_eq!(tree.predict(&[3.0, 8.0]), 100.0);
    }

    #[test]
    fn random_policy_still_reduces_error() {
        let (xs, ys) = step_data();
        let mut tree = DecisionTree::new(
            TreeConfig {
                policy: SplitPolicy::Random,
                max_depth: 6,
                ..TreeConfig::default()
            },
            42,
        );
        tree.fit(&xs, &ys);
        let mse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (tree.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        // Plain mean would give MSE 25; random splits must do much better.
        assert!(mse < 5.0, "mse {mse}");
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut tree = DecisionTree::new(
            TreeConfig {
                min_samples_leaf: 5,
                ..TreeConfig::default()
            },
            0,
        );
        tree.fit(&xs, &ys);
        // Only one split can satisfy 5+5.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&[], &[]);
        assert_eq!(tree.predict(&[1.0]), 0.0);
    }

    /// Asserts two fitted trees have the same nodes, bit for bit.
    fn assert_same_tree(a: &DecisionTree, b: &DecisionTree, what: &str) {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{what}: node counts");
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            let same = match (x, y) {
                (Node::Leaf(u), Node::Leaf(v)) => u.to_bits() == v.to_bits(),
                (
                    &Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    },
                    &Node::Split {
                        feature: f,
                        threshold: t,
                        left: l,
                        right: r,
                    },
                ) => feature == f && threshold.to_bits() == t.to_bits() && left == l && right == r,
                _ => false,
            };
            assert!(same, "{what}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn flat_builder_matches_reference_bitwise() {
        // Multi-feature data with deliberate tied values so the tie order
        // is exercised, under every policy / subsampling combo.
        let mixed_xs: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                vec![
                    (i % 9) as f64 * 0.5, // heavy ties
                    ((i as f64) * 0.37).sin(),
                    (i / 10) as f64,
                    ((i * 7) % 13) as f64 * 0.1,
                ]
            })
            .collect();
        let mixed_ys: Vec<f64> = (0..90)
            .map(|i| ((i as f64) * 0.11).cos() * 5.0 + ((i * 3) % 11) as f64)
            .collect();
        // Width-8 windows over an integer count series taking five distinct
        // values, like the job-count traces: sorted, every feature and the
        // target are long runs of tied values.
        let counts: Vec<f64> = (0..120)
            .map(|i| (2 + (i / 3) % 4 + (i * 5 % 7) / 4) as f64)
            .collect();
        let count_xs: Vec<Vec<f64>> = counts.windows(8).map(<[f64]>::to_vec).collect();
        let count_ys: Vec<f64> = counts[8..].to_vec();
        let count_xs = &count_xs[..count_ys.len()];
        for (data, xs, ys) in [
            ("mixed", &mixed_xs[..], &mixed_ys[..]),
            ("counts", count_xs, &count_ys[..]),
        ] {
            // Bootstrap rows, repeats included, as the random forest draws.
            let mut rng = StdRng::seed_from_u64(5);
            let rows: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
            let bx: Vec<Vec<f64>> = rows.iter().map(|&i| xs[i].clone()).collect();
            let by: Vec<f64> = rows.iter().map(|&i| ys[i]).collect();
            for (policy, max_features) in [
                (SplitPolicy::Best, None),
                (SplitPolicy::Best, Some(2)),
                (SplitPolicy::Random, None),
                (SplitPolicy::Random, Some(2)),
            ] {
                let config = TreeConfig {
                    policy,
                    max_features,
                    ..TreeConfig::default()
                };
                let what = format!("{data} {policy:?} max_features {max_features:?}");
                let mut reference = DecisionTree::new(config, 17);
                reference.fit_reference(xs, ys);
                let mut fast = DecisionTree::new(config, 17);
                fast.fit(xs, ys);
                assert_same_tree(&fast, &reference, &what);

                // Shared layouts: a bootstrap gathered from the full
                // sample's ranks, and boosting's shared root keys.
                let cols = Columns::new(xs, policy == SplitPolicy::Best);
                let mut reference = DecisionTree::new(config, 17);
                reference.fit_reference(&bx, &by);
                let mut fast = DecisionTree::new(config, 17);
                fast.fit_columns(&cols.gather(&rows), &by, None);
                assert_same_tree(&fast, &reference, &format!("{what} bootstrap"));
                if policy == SplitPolicy::Best {
                    let mut reference = DecisionTree::new(config, 17);
                    reference.fit_reference(xs, ys);
                    let mut fast = DecisionTree::new(config, 17);
                    fast.fit_columns(&cols, ys, Some(&cols.root_keys()));
                    assert_same_tree(&fast, &reference, &format!("{what} root keys"));
                }
            }
        }
    }
}
