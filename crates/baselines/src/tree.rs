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
//! sorted once). A node's best-split search then orders its rows by rank
//! instead of sorting `(value, target)` pairs: a stable counting sort over
//! the feature's rank table when that table is at most twice the node's
//! row count, else a sort of packed integer keys
//! `rank << 32 | node_position`. Either way ties break by node position
//! exactly as the reference's stable sort breaks them, every
//! floating-point accumulation keeps its order, and the RNG draw sequence
//! is untouched, so the fitted tree is **bitwise identical** to the
//! retained index-sort reference builder, which only this module's tests
//! compile and compare against.

use std::cmp::Ordering;

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
                        // Split only between strictly increasing values:
                        // not between equal ones, and never beside a NaN,
                        // whose midpoint threshold no partition honours.
                        if xs[sorted[k]][f].partial_cmp(&xs[sorted[k + 1]][f])
                            != Some(Ordering::Less)
                        {
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
                        let threshold = split_threshold(xs[sorted[k]][f], xs[sorted[k + 1]][f]);
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
            keys: Vec::new(),
            slots: Vec::new(),
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
    /// Best-split search orders the node's rows by rank, ties by node
    /// position: dense ranks order values exactly as `f64::total_cmp` does
    /// and tie equal values, so the sequence is the one the reference
    /// builder's stable index sort yields. A narrow rank table is
    /// counting-sorted, a wide one sorts the packed keys
    /// `rank << 32 | node_position`; the keys are unique, so any correct
    /// sort gives the same sequence. The scan then accumulates the same
    /// sums in the same order and picks the same split. Random splits draw
    /// their thresholds in the reference's sequence and score them in one
    /// pass whose conditional sums add `+0.0` where the reference skips: a
    /// sum that starts at `+0.0` is never `-0.0`, so adding `+0.0` leaves
    /// its bits unchanged. Their range comes from [`extremes`]. The
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
                    // Gather values and targets in sorted order, then scan
                    // split points with prefix sums.
                    let ranks = fit.cols.rank_column(f);
                    let table = fit.cols.rank_counts[f] as usize;
                    match fit.root_keys {
                        Some(root) if depth == 0 => scratch.gather_keyed(
                            &root[f * fit.cols.n..(f + 1) * fit.cols.n],
                            idxs,
                            col,
                            ys,
                        ),
                        _ if table <= COUNTING_SORT_SPAN * idxs.len() => {
                            scratch.counting_sort(ranks, table, idxs, col, ys);
                        }
                        _ => scratch.key_sort(ranks, idxs, col, ys),
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
                        // Split only between strictly increasing values:
                        // not between equal ones, and never beside a NaN,
                        // whose midpoint threshold no partition honours.
                        if sx[k].partial_cmp(&sx[k + 1]) != Some(Ordering::Less) {
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
                            best = Some((child_sse, f, split_threshold(sx[k], sx[k + 1])));
                        }
                    }
                }
                SplitPolicy::Random => {
                    let (lo, hi) = extremes(col, idxs);
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
                        // Whole-lane selects, then whole-lane adds: written
                        // this way the lanes vectorize.
                        let left: [bool; RANDOM_DRAWS] =
                            std::array::from_fn(|t| x <= thresholds[t]);
                        let pick = |yes: bool, v: f64| if yes { v } else { 0.0 };
                        let ly: [f64; RANDOM_DRAWS] = std::array::from_fn(|t| pick(left[t], y));
                        let lyy: [f64; RANDOM_DRAWS] = std::array::from_fn(|t| pick(left[t], yy));
                        let ry: [f64; RANDOM_DRAWS] = std::array::from_fn(|t| pick(!left[t], y));
                        let ryy: [f64; RANDOM_DRAWS] = std::array::from_fn(|t| pick(!left[t], yy));
                        for t in 0..RANDOM_DRAWS {
                            lsum[t] += ly[t];
                            lsq[t] += lyy[t];
                            rsum[t] += ry[t];
                            rsq[t] += ryy[t];
                            nl[t] += usize::from(left[t]);
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

/// The best-split threshold between adjacent sorted values `a < b`: their
/// midpoint when it lies in `[a, b)`, else `a`. The midpoint is `b` or
/// `inf` when `b` is `+inf`, when `a + b` overflows, and between adjacent
/// floats; such a threshold would send the rows at `b` left with the
/// prefix, so the partition would not be the split that was scored.
fn split_threshold(a: f64, b: f64) -> f64 {
    let mid = 0.5 * (a + b);
    if a <= mid && mid < b {
        mid
    } else {
        a
    }
}

/// Thresholds the random policy draws per candidate feature.
const RANDOM_DRAWS: usize = 4;

/// A node counting-sorts a feature whose rank table holds at most this
/// many slots per node row, and sorts packed keys past it: counting costs
/// a pass over the table, the key sort `m log m` compares. Both give the
/// same sequence, so the crossover only moves time.
const COUNTING_SORT_SPAN: usize = 2;

/// Running extremes kept per lane: `f64::min`/`max` over one chain wait on
/// each other, over eight they vectorize.
const EXTREME_LANES: usize = 8;

/// The smallest and largest of the node's values in feature column `col`,
/// as the sequential `f64::min`/`max` chains from `±inf` give them. Both
/// functions skip NaN and return one of their arguments, so splitting the
/// chain into lanes changes nothing but which zero wins when `-0.0` and
/// `+0.0` tie: a zero extreme is recomputed by the sequential chain.
fn extremes(col: &[f64], idxs: &[usize]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; EXTREME_LANES];
    let mut hi = [f64::NEG_INFINITY; EXTREME_LANES];
    let lanes = idxs.chunks_exact(EXTREME_LANES);
    let rest = lanes.remainder();
    for chunk in lanes {
        let v: [f64; EXTREME_LANES] = std::array::from_fn(|l| col[chunk[l]]);
        lo = std::array::from_fn(|l| lo[l].min(v[l]));
        hi = std::array::from_fn(|l| hi[l].max(v[l]));
    }
    for (l, &i) in rest.iter().enumerate() {
        lo[l] = lo[l].min(col[i]);
        hi[l] = hi[l].max(col[i]);
    }
    let lo = lo.into_iter().fold(f64::INFINITY, f64::min);
    let hi = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    if lo == 0.0 || hi == 0.0 {
        return idxs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                (lo.min(col[i]), hi.max(col[i]))
            });
    }
    (lo, hi)
}

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
    /// Feature `f`'s ranks lie in `0..rank_counts[f]`; empty when unranked.
    rank_counts: Vec<u32>,
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
        let mut rank_counts = Vec::new();
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
                rank_counts.push(rank + 1);
            }
        }
        Columns {
            n,
            d,
            values,
            ranks,
            rank_counts,
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
            rank_counts: self.rank_counts.clone(),
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

/// Per-fit buffers reused across the fit's nodes: the node's sorted keys
/// or rank slots, and its values and targets in sorted order.
struct Scratch {
    keys: Vec<u64>,
    slots: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Scratch {
    /// Gathers the node's values and targets in the order of `sorted`.
    fn gather_keyed(&mut self, sorted: &[u64], idxs: &[usize], col: &[f64], ys: &[f64]) {
        self.xs.clear();
        self.ys.clear();
        for &key in sorted {
            let i = idxs[key_position(key)];
            self.xs.push(col[i]);
            self.ys.push(ys[i]);
        }
    }

    /// Sorts the node's packed keys `rank << 32 | position`, then gathers.
    fn key_sort(&mut self, ranks: &[u32], idxs: &[usize], col: &[f64], ys: &[f64]) {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(idxs.iter().enumerate().map(|(p, &i)| pack_key(ranks[i], p)));
        keys.sort_unstable();
        self.gather_keyed(&keys, idxs, col, ys);
        self.keys = keys;
    }

    /// Stable counting sort over the rank table `0..table`: counts each
    /// rank, turns the counts into each rank's first slot, then visits the
    /// node's positions in order and scatters each value and target
    /// straight into its rank's next slot. Ties keep node order, which is
    /// the order the packed keys sort them in.
    fn counting_sort(
        &mut self,
        ranks: &[u32],
        table: usize,
        idxs: &[usize],
        col: &[f64],
        ys: &[f64],
    ) {
        let slots = &mut self.slots;
        slots.clear();
        slots.resize(table, 0);
        for &i in idxs {
            slots[ranks[i] as usize] += 1;
        }
        let mut next = 0;
        for slot in slots.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        self.xs.resize(idxs.len(), 0.0);
        self.ys.resize(idxs.len(), 0.0);
        for &i in idxs {
            let slot = &mut slots[ranks[i] as usize];
            self.xs[*slot as usize] = col[i];
            self.ys[*slot as usize] = ys[i];
            *slot += 1;
        }
    }
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

    #[test]
    fn nan_features_never_become_thresholds() {
        // Rows 7 and 13 hold the value under test. NaN: both sort last and
        // row 13's target is an outlier; splitting between them would
        // isolate it at a NaN threshold, which sends every row right and
        // leaves an empty left child. `+inf`, `-inf` and a float's
        // successor: both rows carry outlier targets, and the midpoint of
        // the split that isolates them is `inf`, `-inf` or that successor.
        // `-inf` is the right threshold; the other two would send every row
        // left and leave an empty right child.
        let (below, above) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        for (odd, rest) in [
            (f64::NAN, None),
            (f64::INFINITY, None),
            (f64::NEG_INFINITY, None),
            (above, Some(below)),
        ] {
            let xs: Vec<Vec<f64>> = (0..20)
                .map(|i| vec![if i == 7 || i == 13 { odd } else { rest.unwrap_or(f64::from(i)) }])
                .collect();
            let outlier = |i: i32| i == 13 || (i == 7 && !odd.is_nan());
            let ys: Vec<f64> = (0..20)
                .map(|i| if outlier(i) { 50.0 } else { f64::from(i % 3) })
                .collect();
            for policy in [SplitPolicy::Best, SplitPolicy::Random] {
                let config = TreeConfig {
                    policy,
                    ..TreeConfig::default()
                };
                let mut fast = DecisionTree::new(config, 3);
                fast.fit(&xs, &ys);
                let mut reference = DecisionTree::new(config, 3);
                reference.fit_reference(&xs, &ys);
                let what = format!("{odd} {policy:?}");
                assert_same_tree(&fast, &reference, &what);
                for tree in [&fast, &reference] {
                    if odd.is_nan() {
                        for node in &tree.nodes {
                            if let Node::Split { threshold, .. } = node {
                                assert!(threshold.is_finite(), "{what}: threshold {threshold}");
                            }
                        }
                    }
                    for x in &xs {
                        assert!(tree.predict(x).is_finite(), "{what}: prediction at {x:?}");
                    }
                    if policy == SplitPolicy::Best && !odd.is_nan() {
                        assert_eq!(tree.predict(&[odd]), 50.0, "{what}: outlier leaf");
                    }
                }
            }
        }
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

    /// The rows a random forest's bootstrap draws from `n` samples.
    fn bootstrap(n: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(5);
        (0..n).map(|_| rng.gen_range(0..n)).collect()
    }

    /// Width-8 windows over `series`, each with its next value.
    fn windows(series: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let ys = series[8..].to_vec();
        let xs = series
            .windows(8)
            .take(ys.len())
            .map(<[f64]>::to_vec)
            .collect();
        (xs, ys)
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
        let (count_xs, count_ys) = windows(&counts);
        // Council-sized window sets (350 rows). Over a distinct-valued
        // series, like the request-count traces, a feature's rank table is
        // as wide as the sample, so below the top levels nodes take the
        // key sort; over a 30-value count series, like AZ-30min, every
        // node counting-sorts.
        let distinct: Vec<f64> = (0..358)
            .map(|i| 900.0 + 250.0 * ((i as f64) * 0.13).sin() + ((i * 7919) % 1009) as f64 * 0.37)
            .collect();
        let (distinct_xs, distinct_ys) = windows(&distinct);
        let thirty: Vec<f64> = (0..358)
            .map(|i| ((i * 17 + (i / 5) * 3 + (i * i) % 7) % 30) as f64)
            .collect();
        let (thirty_xs, thirty_ys) = windows(&thirty);
        // Signed zeros and a NaN: ranks put `-0.0` below `+0.0` and NaN
        // last, and the random policy's extremes come out zero, so they
        // fall back to the sequential chain. The NaN sits in a row the
        // bootstrap draws more than once, so a node holds several NaN
        // rows, between which neither builder may split.
        let nan_row = {
            let rows = bootstrap(80);
            (0..80)
                .find(|&r| rows.iter().filter(|&&x| x == r).count() > 1)
                .unwrap()
        };
        let signed_xs: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
                vec![
                    if i % 3 == 0 {
                        zero
                    } else {
                        (i % 5) as f64 * 0.5
                    },
                    if i % 4 == 0 {
                        zero
                    } else {
                        -((i % 7) as f64) - 1.0
                    },
                    if i == nan_row {
                        f64::NAN
                    } else {
                        ((i as f64) * 0.61).sin()
                    },
                    ((i * 3) % 11) as f64 - 5.0,
                ]
            })
            .collect();
        let signed_ys: Vec<f64> = (0..80)
            .map(|i| ((i as f64) * 0.23).cos() * 4.0 + (i % 6) as f64)
            .collect();
        for (data, xs, ys) in [
            ("mixed", &mixed_xs, &mixed_ys),
            ("counts", &count_xs, &count_ys),
            ("distinct", &distinct_xs, &distinct_ys),
            ("thirty", &thirty_xs, &thirty_ys),
            ("signed", &signed_xs, &signed_ys),
        ] {
            // Bootstrap rows, repeats included, as the random forest draws.
            let rows = bootstrap(xs.len());
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

    #[test]
    fn extremes_match_the_sequential_chains_bitwise() {
        let pool = [0.0, -0.0, f64::NAN, 1.5, -2.0, 0.25, f64::INFINITY, 3.0];
        let mut rng = StdRng::seed_from_u64(9);
        for len in [0, 1, 7, 8, 9, 17, 40] {
            for _ in 0..200 {
                let col: Vec<f64> = (0..len)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                let idxs: Vec<usize> = (0..len).rev().collect();
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &i in &idxs {
                    lo = lo.min(col[i]);
                    hi = hi.max(col[i]);
                }
                let (got_lo, got_hi) = extremes(&col, &idxs);
                assert_eq!(
                    (got_lo.to_bits(), got_hi.to_bits()),
                    (lo.to_bits(), hi.to_bits()),
                    "{col:?}"
                );
            }
        }
    }
}
