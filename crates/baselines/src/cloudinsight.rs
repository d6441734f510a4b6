//! CloudInsight (Kim et al., IEEE CLOUD 2018) — a council of experts that
//! dynamically picks the best of 21 member predictors.
//!
//! Table II of the paper lists the pool: 2 naive, 6 regression, 7
//! time-series and 6 ML predictors. At every interval all members predict;
//! their recent one-step errors are tracked, and every `reselect_every`
//! intervals (5 in the paper: "CloudInsight also dynamically rebuilds its
//! predictors after every five intervals") the member with the lowest
//! recent error becomes the council's voice.

use std::collections::VecDeque;

use ld_api::Predictor;
use ld_telemetry::Tracer;
use rayon::prelude::*;

use crate::arima::{Ar, Arima, Arma};
use crate::boosting::GradientBoosting;
use crate::forest::Forest;
use crate::ml::MlPredictor;
use crate::naive::{KnnPredictor, MeanPredictor};
use crate::regression::all_regression_members;
use crate::smoothing::{BrownDes, Ema, HoltDes, Wma};
use crate::svr::Svr;
use crate::tree::{DecisionTree, TreeConfig};

/// Builds the full 21-member pool of Table II.
pub fn table2_pool(seed: u64) -> Vec<Box<dyn Predictor>> {
    let mut pool: Vec<Box<dyn Predictor>> = Vec::with_capacity(21);
    // Naive (2).
    pool.push(Box::new(MeanPredictor::default()));
    pool.push(Box::new(KnnPredictor::default()));
    // Regression (6).
    pool.extend(all_regression_members());
    // Time-series (7).
    pool.push(Box::new(Wma::default()));
    pool.push(Box::new(Ema::default()));
    pool.push(Box::new(HoltDes::default()));
    pool.push(Box::new(BrownDes::default()));
    pool.push(Box::new(Ar::default()));
    pool.push(Box::new(Arma::default()));
    pool.push(Box::new(Arima::default()));
    // ML (6).
    pool.push(Box::new(MlPredictor::new("LinearSVR", Svr::linear())));
    pool.push(Box::new(MlPredictor::new("GaussianSVR", Svr::rbf())));
    pool.push(Box::new(MlPredictor::new(
        "DecisionTree",
        DecisionTree::new(TreeConfig::default(), seed),
    )));
    pool.push(Box::new(MlPredictor::new(
        "RandomForest",
        Forest::random_forest(seed),
    )));
    pool.push(Box::new(MlPredictor::new(
        "GradientBoosting",
        GradientBoosting::new(seed),
    )));
    pool.push(Box::new(MlPredictor::new(
        "ExtraTrees",
        Forest::extra_trees(seed),
    )));
    pool
}

/// The council-of-experts ensemble.
pub struct CloudInsight {
    members: Vec<Box<dyn Predictor>>,
    /// Reselection cadence in intervals.
    pub reselect_every: usize,
    /// How many recent errors per member inform selection.
    pub eval_window: usize,
    /// Member count at or above which the fit/predict pool sweeps run
    /// member-parallel — and only when more than one rayon worker exists:
    /// on a single-thread pool the par_iter plumbing is pure overhead, so
    /// single-core hosts always sweep serially. Each worker owns one
    /// member and its own output slot, so results are bitwise identical
    /// to the serial sweep; the serial-vs-parallel test below forces each
    /// sweep (`usize::MAX` serial, `0` parallel).
    parallel_threshold: usize,
    errors: Vec<VecDeque<f64>>,
    /// Member predictions awaiting their actual, and the interval index
    /// they predicted.
    pending: Option<(usize, Vec<f64>)>,
    active: usize,
    intervals_since_reselect: usize,
    /// Span tracer for the member sweeps. Disabled by default; spans are
    /// keyed by member/interval index, so traced output is deterministic
    /// even under the member-parallel sweep.
    tracer: Tracer,
}

impl CloudInsight {
    /// A council over the full Table II pool.
    pub fn new(seed: u64) -> Self {
        Self::with_members(table2_pool(seed))
    }

    /// A council over a custom member pool (the CloudInsight design point:
    /// "employs any predictors of users' choice").
    pub fn with_members(members: Vec<Box<dyn Predictor>>) -> Self {
        assert!(!members.is_empty(), "council needs at least one member");
        let n = members.len();
        CloudInsight {
            members,
            reselect_every: 5,
            eval_window: 16,
            parallel_threshold: 16,
            errors: vec![VecDeque::new(); n],
            pending: None,
            active: 0,
            intervals_since_reselect: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Returns the council with span tracing enabled (or replaced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Name of the currently selected member.
    pub fn active_member(&self) -> String {
        self.members[self.active].name()
    }

    /// Smoothed relative error used for member scoring: `|p - a| / (a + 1)`
    /// (stays defined when an interval has zero arrivals).
    fn score_error(pred: f64, actual: f64) -> f64 {
        (pred - actual).abs() / (actual.abs() + 1.0)
    }

    fn settle_pending(&mut self, history: &[f64]) {
        if let Some((idx, preds)) = &self.pending {
            if history.len() > *idx {
                let actual = history[*idx];
                for (m, &p) in preds.iter().enumerate() {
                    let e = Self::score_error(p, actual);
                    self.errors[m].push_back(e);
                    if self.errors[m].len() > self.eval_window {
                        self.errors[m].pop_front();
                    }
                }
                self.pending = None;
                self.intervals_since_reselect += 1;
            }
        }
    }

    fn maybe_reselect(&mut self) {
        if self.intervals_since_reselect < self.reselect_every {
            return;
        }
        self.intervals_since_reselect = 0;
        let mut best = self.active;
        let mut best_err = f64::INFINITY;
        for (m, errs) in self.errors.iter().enumerate() {
            if errs.is_empty() {
                continue;
            }
            // Median recent error: one blown-up interval (a burst no member
            // saw coming) must not disqualify an otherwise strong member.
            let mut sorted: Vec<f64> = errs.iter().cloned().collect();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            if median < best_err {
                best_err = median;
                best = m;
            }
        }
        self.active = best;
    }
}

impl Predictor for CloudInsight {
    fn name(&self) -> String {
        "CloudInsight".into()
    }

    fn fit(&mut self, history: &[f64]) {
        for e in &mut self.errors {
            e.clear();
        }
        self.pending = None;
        self.active = 0;
        self.intervals_since_reselect = 0;

        // Warm-start member scores on the tail of the fit history so the
        // first selection is informed rather than arbitrary. Members are
        // independent, so fitting and warm-scoring proceed member-wise:
        // each member fits on the full history, then replays the tail.
        // Past `parallel_threshold` members the sweep runs parallel; every
        // worker owns exactly one (member, error-deque) pair and performs
        // the identical serial computation, so the result is bitwise
        // identical either way.
        let warm = self.eval_window.min(history.len().saturating_sub(2));
        let warm_start = history.len() - warm;
        let fit_guard = self.tracer.span("cloudinsight.fit");
        let fit_tracer = fit_guard.tracer();
        let warm_member = |m: usize, member: &mut Box<dyn Predictor>, errs: &mut VecDeque<f64>| {
            // Member spans are keyed by pool index, not worker identity, so
            // the traced tree is identical whichever sweep mode runs.
            let _member_guard = fit_tracer.span_at("member", m as u64);
            member.fit(history);
            for i in warm_start..history.len() {
                let p = member.predict(&history[..i]);
                let e = Self::score_error(if p.is_finite() { p } else { 0.0 }, history[i]);
                errs.push_back(e);
            }
        };
        if self.members.len() >= self.parallel_threshold && rayon::current_num_threads() > 1 {
            let work: Vec<_> = self
                .members
                .iter_mut()
                .zip(self.errors.iter_mut())
                .enumerate()
                .collect();
            work.into_par_iter()
                .for_each(|(m, (member, errs))| warm_member(m, member, errs));
        } else {
            for (m, (member, errs)) in self
                .members
                .iter_mut()
                .zip(self.errors.iter_mut())
                .enumerate()
            {
                warm_member(m, member, errs);
            }
        }
        drop(fit_guard);
        self.intervals_since_reselect = self.reselect_every; // force initial pick
        self.maybe_reselect();
    }

    fn predict(&mut self, history: &[f64]) -> f64 {
        self.settle_pending(history);
        self.maybe_reselect();
        // All members predict every interval (their errors feed selection).
        // Past `parallel_threshold` members the sweep runs member-parallel;
        // each worker owns one member and its output slot, so predictions
        // land in member order regardless of scheduling — bitwise identical
        // to the serial sweep.
        // One span per interval, keyed by history length (the interval
        // index), covering the whole member sweep.
        let _sweep_guard = self.tracer.span_at("cloudinsight.predict", history.len() as u64);
        let sanitize = |p: f64| if p.is_finite() { p } else { 0.0 };
        let mut preds = vec![0.0; self.members.len()];
        if self.members.len() >= self.parallel_threshold && rayon::current_num_threads() > 1 {
            let work: Vec<(&mut Box<dyn Predictor>, &mut f64)> =
                self.members.iter_mut().zip(preds.iter_mut()).collect();
            work.into_par_iter().for_each(|(member, slot)| {
                *slot = sanitize(member.predict(history));
            });
        } else {
            for (member, slot) in self.members.iter_mut().zip(preds.iter_mut()) {
                *slot = sanitize(member.predict(history));
            }
        }
        let out = preds[self.active];
        self.pending = Some((history.len(), preds));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_twenty_one_distinct_members() {
        let pool = table2_pool(0);
        assert_eq!(pool.len(), 21);
        let names: std::collections::HashSet<String> = pool.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 21, "duplicate member names: {names:?}");
    }

    /// A rigged member: perfect on purpose.
    struct Oracle {
        next: f64,
    }
    impl Predictor for Oracle {
        fn name(&self) -> String {
            "Oracle".into()
        }
        fn fit(&mut self, _h: &[f64]) {}
        fn predict(&mut self, h: &[f64]) -> f64 {
            // The test series is h[i] = i, so the next value is len().
            self.next = h.len() as f64;
            self.next
        }
    }

    /// A rigged member: always wrong.
    struct Wrong;
    impl Predictor for Wrong {
        fn name(&self) -> String {
            "Wrong".into()
        }
        fn fit(&mut self, _h: &[f64]) {}
        fn predict(&mut self, _h: &[f64]) -> f64 {
            1e9
        }
    }

    #[test]
    fn council_converges_to_the_best_member() {
        let members: Vec<Box<dyn Predictor>> =
            vec![Box::new(Wrong), Box::new(Oracle { next: 0.0 })];
        let mut ci = CloudInsight::with_members(members);
        let series: Vec<f64> = (0..120).map(|i| i as f64).collect();
        ci.fit(&series[..60]);
        // Walk forward; after at most one reselection cycle the council
        // must speak with the oracle's voice.
        let mut last_pred = 0.0;
        for i in 60..120 {
            last_pred = ci.predict(&series[..i]);
        }
        assert_eq!(ci.active_member(), "Oracle");
        assert_eq!(last_pred, 119.0);
    }

    #[test]
    fn warm_start_picks_a_sane_initial_member() {
        let members: Vec<Box<dyn Predictor>> =
            vec![Box::new(Wrong), Box::new(Oracle { next: 0.0 })];
        let mut ci = CloudInsight::with_members(members);
        let series: Vec<f64> = (0..60).map(|i| i as f64).collect();
        ci.fit(&series);
        // Selection happened during fit already.
        assert_eq!(ci.active_member(), "Oracle");
    }

    #[test]
    fn reselection_cadence_is_respected() {
        // Oracle only becomes good later; with cadence 5 the council can
        // switch only on multiples of 5 settled intervals.
        let members: Vec<Box<dyn Predictor>> =
            vec![Box::new(Wrong), Box::new(Oracle { next: 0.0 })];
        let mut ci = CloudInsight::with_members(members);
        ci.reselect_every = 5;
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        ci.fit(&series[..50]);
        let initial = ci.active_member();
        assert_eq!(initial, "Oracle");
        // Walking forward keeps it on the oracle (stable selection).
        for i in 50..100 {
            ci.predict(&series[..i]);
            assert_eq!(ci.active_member(), "Oracle");
        }
    }

    #[test]
    fn parallel_pool_sweep_matches_serial_bitwise() {
        let series: Vec<f64> = (0..160)
            .map(|i| 50.0 + 15.0 * ((i as f64) * 0.17).sin() + (i % 7) as f64)
            .collect();
        let mut serial = CloudInsight::new(3);
        serial.parallel_threshold = usize::MAX;
        let mut parallel = CloudInsight::new(3);
        parallel.parallel_threshold = 0;
        serial.fit(&series[..120]);
        parallel.fit(&series[..120]);
        assert_eq!(serial.active_member(), parallel.active_member());
        for i in 120..160 {
            let ps = serial.predict(&series[..i]);
            let pp = parallel.predict(&series[..i]);
            assert_eq!(
                ps.to_bits(),
                pp.to_bits(),
                "interval {i}: serial {ps} vs parallel {pp}"
            );
            assert_eq!(serial.active_member(), parallel.active_member());
        }
    }

    #[test]
    fn full_pool_predicts_reasonably_on_smooth_series() {
        let mut ci = CloudInsight::new(0);
        let series: Vec<f64> = (0..200)
            .map(|i| 100.0 + 20.0 * ((i as f64) * 0.2).sin())
            .collect();
        ci.fit(&series[..150]);
        let mut errs = Vec::new();
        for i in 150..200 {
            let p = ci.predict(&series[..i]);
            errs.push(((p - series[i]) / series[i]).abs());
        }
        let mape = 100.0 * errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mape < 12.0, "council MAPE {mape}");
    }
}
