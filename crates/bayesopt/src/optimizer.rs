//! Hyperparameter optimizers: Bayesian optimization with a GP surrogate,
//! plus the random-search and grid-search comparators.
//!
//! The Bayesian loop is the paper's Fig. 6: evaluate an initial design,
//! then repeatedly (i) fit a GP to all `(hyperparameters, validation error)`
//! pairs seen so far, (ii) score a candidate pool with the acquisition
//! function, (iii) evaluate the winner, until the iteration budget
//! (`maxIters`, 100 in the paper) is exhausted. Initial-design points and
//! the comparator searches evaluate their candidates rayon-parallel, since
//! each evaluation is an independent LSTM training run.

use ld_faultinject::{FaultPlan, FaultSite};
use ld_gp::fit::{fit_auto, FitOptions};
use ld_telemetry::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::acquisition::Acquisition;
use crate::space::{ParamValue, SearchSpace};

/// Objective value recorded for failed trials (non-finite results or
/// panics). Matches the `INFEASIBLE_MAPE` convention used by the training
/// pipeline, so a failed trial enters the surrogate as a maximally bad but
/// *finite* observation — steering the search away from the bad region —
/// instead of poisoning the GP fit or crashing the loop.
pub const FAILURE_PENALTY: f64 = 1.0e6;

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Decoded parameter values.
    pub params: Vec<ParamValue>,
    /// Unit-cube encoding actually evaluated.
    pub unit: Vec<f64>,
    /// Objective value (lower is better).
    pub value: f64,
    /// True if the evaluation failed (panicked or returned a non-finite
    /// value) and `value` is the [`FAILURE_PENALTY`] placeholder.
    pub failed: bool,
}

/// Evaluates the objective with trial isolation: a panicking or non-finite
/// evaluation becomes a finite penalized observation instead of unwinding
/// through (and killing) the whole search. `catch_unwind` is the last-resort
/// guard — well-behaved objectives report failure by returning a
/// non-finite value or a penalty themselves. The supplied tracer is scoped
/// to this trial's span, so spans opened inside the objective (training
/// epochs, batches) nest under the trial.
fn eval_isolated_traced(
    objective: TracedObjective<'_>,
    params: &[ParamValue],
    tracer: &Tracer,
) -> (f64, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| objective(params, tracer))) {
        Ok(v) if v.is_finite() => (v, false),
        _ => (FAILURE_PENALTY, true),
    }
}

/// The full optimization history.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Every trial in evaluation order.
    pub trials: Vec<Trial>,
    /// Index of the best (lowest-value) trial.
    pub best_index: usize,
}

impl OptResult {
    fn from_trials(trials: Vec<Trial>) -> Self {
        assert!(!trials.is_empty(), "optimizer produced no trials");
        // `total_cmp` keeps the selection well-defined even if a caller
        // smuggles NaN values in via a hand-built history: NaN sorts above
        // every real number, so it can never be chosen while a finite
        // (even penalized) trial exists.
        let best_index = trials
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.value.is_nan())
            .min_by(|a, b| a.1.value.total_cmp(&b.1.value))
            .map(|(i, _)| i)
            .unwrap_or(0);
        OptResult { trials, best_index }
    }

    /// The best trial.
    pub fn best(&self) -> &Trial {
        &self.trials[self.best_index]
    }

    /// Number of failed (penalized) trials in the history.
    pub fn failed_count(&self) -> usize {
        self.trials.iter().filter(|t| t.failed).count()
    }

    /// Running minimum of the objective after each trial (for convergence
    /// plots and the optimizer ablation).
    pub fn incumbent_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.trials
            .iter()
            .map(|t| {
                if t.value < best {
                    best = t.value;
                }
                best
            })
            .collect()
    }
}

/// A black-box objective to minimize. Evaluations may run concurrently.
pub type Objective<'a> = &'a (dyn Fn(&[ParamValue]) -> f64 + Sync);

/// A black-box objective that also receives a [`Tracer`] scoped to its
/// trial, so spans opened inside the evaluation nest under the search tree.
/// The tracer is disabled unless the search was given an enabled one
/// ([`BayesianOptimizer::with_tracer`], or the `tracer` argument of
/// [`RandomSearch::optimize_traced`] / [`GridSearch::optimize_traced`]).
pub type TracedObjective<'a> = &'a (dyn Fn(&[ParamValue], &Tracer) -> f64 + Sync);

/// Common interface over the three search strategies.
pub trait HyperOptimizer {
    /// Runs at most `budget` objective evaluations and returns the history.
    fn optimize(
        &self,
        space: &SearchSpace,
        objective: Objective<'_>,
        budget: usize,
        seed: u64,
    ) -> OptResult;
}

/// Options for [`BayesianOptimizer`].
#[derive(Debug, Clone, Copy)]
pub struct BoOptions {
    /// Random initial-design size before the GP takes over.
    pub init_points: usize,
    /// Candidate-pool size scored by the acquisition per iteration.
    pub candidate_pool: usize,
    /// Fraction of the pool drawn as local perturbations of the incumbent.
    pub local_fraction: f64,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Wall-clock deadline for the whole search, in seconds. When set, no
    /// new trial starts after the deadline has elapsed (the initial design
    /// always runs; in-flight evaluations are not interrupted). Mirrors the
    /// paper's 3-hour optimization budget. `None` disables the check — and
    /// keeps the clock entirely unread, so seeded runs stay reproducible.
    pub deadline_secs: Option<f64>,
}

impl Default for BoOptions {
    fn default() -> Self {
        BoOptions {
            init_points: 5,
            candidate_pool: 512,
            local_fraction: 0.25,
            acquisition: Acquisition::default(),
            deadline_secs: None,
        }
    }
}

/// Bayesian optimization with a Gaussian-process surrogate.
#[derive(Debug, Clone, Default)]
pub struct BayesianOptimizer {
    opts: BoOptions,
    tracer: Tracer,
    faults: FaultPlan,
}

impl BayesianOptimizer {
    /// Optimizer with explicit options.
    pub fn new(opts: BoOptions) -> Self {
        assert!(opts.init_points >= 1, "need at least one initial point");
        assert!(opts.candidate_pool >= 1, "need a non-empty candidate pool");
        BayesianOptimizer {
            opts,
            tracer: Tracer::disabled(),
            faults: FaultPlan::disarmed(),
        }
    }

    /// Attaches a tracer (usually already scoped to the enclosing search).
    /// Initial-design trials open `init#i` spans, surrogate iterations
    /// `iter#k` spans with `surrogate_fit` / `propose` / `evaluate`
    /// children; the trial-scoped tracer is handed to [`TracedObjective`]
    /// evaluations so candidate training nests below. Per-trial events
    /// (candidate fingerprint, acquisition score, incumbent) land under the
    /// `"bayesopt"` scope.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Arms the `cholesky` fault-injection site: each surrogate fit first
    /// draws from `faults`' occurrence budget, and a hit fails the whole
    /// fit the way a factorization breakdown would.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &BoOptions {
        &self.opts
    }

    /// Records one completed trial as an event.
    fn record_trial(&self, index: usize, trial: &Trial, incumbent: f64, phase: &str, ei: Option<f64>) {
        self.tracer.incr("bayesopt.trials");
        if trial.failed {
            self.tracer.incr("bayesopt.failed_trials");
        }
        self.tracer
            .record_with("bayesopt", "trial", index as u64, |e| {
                e.text("params", fingerprint(&trial.params))
                    .num("value", trial.value)
                    .num("incumbent", incumbent)
                    .text("phase", phase);
                if trial.failed {
                    e.flag("failed", true);
                }
                if let Some(score) = ei {
                    e.num("ei", score);
                }
            });
    }

    /// True once `deadline_secs` has elapsed since `start`; counts the stop
    /// the first time it fires. `start` is `None` exactly when no deadline
    /// is configured.
    fn deadline_hit(&self, start: Option<std::time::Instant>) -> bool {
        let (Some(start), Some(limit)) = (start, self.opts.deadline_secs) else {
            return false;
        };
        if start.elapsed().as_secs_f64() < limit {
            return false;
        }
        self.tracer.incr("bayesopt.deadline_stops");
        true
    }
}

/// Integer-aware fingerprint of decoded parameters, for deduplication.
fn fingerprint(params: &[ParamValue]) -> String {
    params
        .iter()
        .map(|p| match p {
            ParamValue::Int(i) => format!("i{i}"),
            ParamValue::Float(f) => format!("f{f:.6e}"),
        })
        .collect::<Vec<_>>()
        .join(",")
}

impl HyperOptimizer for BayesianOptimizer {
    fn optimize(
        &self,
        space: &SearchSpace,
        objective: Objective<'_>,
        budget: usize,
        seed: u64,
    ) -> OptResult {
        self.optimize_traced(space, &|p, _| objective(p), budget, seed)
    }
}

impl BayesianOptimizer {
    /// [`HyperOptimizer::optimize`] with a tracer-aware objective: each
    /// trial's evaluation receives a [`Tracer`] scoped to its `init#i` /
    /// `iter#k/evaluate` span, so training spans opened inside the
    /// objective nest under the search tree. Identical search behavior —
    /// the untraced trait method delegates here with an ignoring wrapper.
    pub fn optimize_traced(
        &self,
        space: &SearchSpace,
        objective: TracedObjective<'_>,
        budget: usize,
        seed: u64,
    ) -> OptResult {
        assert!(budget >= 1, "budget must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let init_n = self.opts.init_points.min(budget);
        // The clock is only read when a deadline is configured, so
        // deadline-free runs never depend on wall time.
        // ld-lint: allow(determinism, "opt-in deadline budget: bounds how many trials run, never what a trial computes")
        let search_start = self.opts.deadline_secs.map(|_| std::time::Instant::now());

        // Initial random design, evaluated in parallel. Span indices come
        // from the design position, not worker order, so the span tree is
        // deterministic under any rayon schedule.
        let init_units: Vec<Vec<f64>> = (0..init_n).map(|_| space.sample_unit(&mut rng)).collect();
        let mut trials: Vec<Trial> = init_units
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(i, unit)| {
                let params = space.decode(&unit);
                let guard = self.tracer.span_at("init", i as u64);
                let (value, failed) = eval_isolated_traced(objective, &params, &guard.tracer());
                Trial {
                    params,
                    unit,
                    value,
                    failed,
                }
            })
            .collect();

        // Events for the initial design are recorded here, after the
        // ordered collect, so event keys never depend on worker scheduling.
        if self.tracer.is_enabled() {
            let mut running_best = f64::INFINITY;
            for (i, t) in trials.iter().enumerate() {
                running_best = running_best.min(t.value);
                self.record_trial(i, t, running_best, "init", None);
            }
        }

        let mut seen: std::collections::HashSet<String> =
            trials.iter().map(|t| fingerprint(&t.params)).collect();

        let mut iter_no = 0u64;
        while trials.len() < budget {
            if self.deadline_hit(search_start) {
                break;
            }
            let iter_guard = self.tracer.span_at("iter", iter_no);
            let iter_tracer = iter_guard.tracer();
            iter_no += 1;
            // Fit the surrogate on everything seen so far. Degenerate fits
            // (e.g. all values identical) fall back to random sampling.
            let xs: Vec<Vec<f64>> = trials.iter().map(|t| t.unit.clone()).collect();
            let ys: Vec<f64> = trials.iter().map(|t| t.value).collect();
            let finite = ys.iter().all(|v| v.is_finite());
            let gp = if finite {
                let _fit_span = iter_tracer.span("surrogate_fit");
                let opts = FitOptions {
                    grid: 5,
                    levels: 2,
                    ..FitOptions::default()
                };
                // Surrogate recovery on `None` (a failed or fault-injected
                // fit): the next proposal degrades to a random unseen point
                // instead of aborting the search.
                let fitted = if self.faults.hit_counted(FaultSite::CholeskyFail) {
                    None
                } else {
                    fit_auto(&xs, &ys, opts).ok()
                };
                if fitted.is_none() {
                    self.tracer.incr("bayesopt.surrogate_failures");
                }
                fitted
            } else {
                None
            };

            let propose_guard = iter_tracer.span("propose");
            let f_best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            // NaN-aware ordering: a hand-fed NaN observation must not crash
            // incumbent selection (it sorts last under `total_cmp`).
            let incumbent = trials
                .iter()
                .min_by(|a, b| a.value.total_cmp(&b.value))
                .map(|t| t.unit.clone())
                .unwrap();

            // Build the candidate pool: global uniform + local perturbations.
            let n_local = ld_api::num::to_index(
                ((self.opts.candidate_pool as f64) * self.opts.local_fraction).round(),
                self.opts.candidate_pool,
            );
            let n_global = self.opts.candidate_pool - n_local;
            let mut pool: Vec<Vec<f64>> = (0..n_global)
                .map(|_| space.sample_unit(&mut rng))
                .collect();
            for _ in 0..n_local {
                let p: Vec<f64> = incumbent
                    .iter()
                    .map(|&u| (u + rng.gen_range(-0.1..0.1)).clamp(0.0, 1.0))
                    .collect();
                pool.push(p);
            }

            // Pick the best not-yet-evaluated candidate by acquisition score,
            // keeping the winner's score for the trial event.
            let chosen: Option<(Vec<f64>, f64)> = match &gp {
                Some(gp) => {
                    let mut scored: Vec<(f64, &Vec<f64>)> = pool
                        .par_iter()
                        .map(|u| {
                            let (m, v) = gp.predict(u);
                            (self.opts.acquisition.score(m, v.sqrt(), f_best), u)
                        })
                        .collect();
                    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                    scored
                        .iter()
                        .find(|(_, u)| !seen.contains(&fingerprint(&space.decode(u))))
                        .map(|(score, u)| ((*u).clone(), *score))
                }
                None => None,
            };
            let (next_unit, acquisition_score) = match chosen {
                Some((unit, score)) => (unit, Some(score)),
                None => {
                    // Fallback: random unseen point (or any random point if
                    // the space is exhausted).
                    let mut fallback = None;
                    for _ in 0..64 {
                        let u = space.sample_unit(&mut rng);
                        if !seen.contains(&fingerprint(&space.decode(&u))) {
                            fallback = Some(u);
                            break;
                        }
                    }
                    (
                        fallback.unwrap_or_else(|| space.sample_unit(&mut rng)),
                        None,
                    )
                }
            };

            drop(propose_guard);

            let params = space.decode(&next_unit);
            seen.insert(fingerprint(&params));
            let eval_guard = iter_tracer.span("evaluate");
            let (value, failed) = eval_isolated_traced(objective, &params, &eval_guard.tracer());
            drop(eval_guard);
            trials.push(Trial {
                params,
                unit: next_unit,
                value,
                failed,
            });
            if self.tracer.is_enabled() {
                let index = trials.len() - 1;
                let incumbent = trials
                    .iter()
                    .map(|t| t.value)
                    .fold(f64::INFINITY, f64::min);
                let phase = if acquisition_score.is_some() {
                    "surrogate"
                } else {
                    "fallback"
                };
                self.record_trial(index, &trials[index], incumbent, phase, acquisition_score);
            }
        }

        OptResult::from_trials(trials)
    }
}

/// Uniform random search (Bergstra & Bengio 2012) — the comparator the
/// paper found slower to reach equal accuracy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl HyperOptimizer for RandomSearch {
    fn optimize(
        &self,
        space: &SearchSpace,
        objective: Objective<'_>,
        budget: usize,
        seed: u64,
    ) -> OptResult {
        self.optimize_traced(space, &|p, _| objective(p), budget, seed, &Tracer::disabled())
    }
}

impl RandomSearch {
    /// [`HyperOptimizer::optimize`] with a tracer-aware objective: trial
    /// `i` runs under a `trial#i` span of `tracer` (see [`evaluate_design`]).
    pub fn optimize_traced(
        &self,
        space: &SearchSpace,
        objective: TracedObjective<'_>,
        budget: usize,
        seed: u64,
        tracer: &Tracer,
    ) -> OptResult {
        assert!(budget >= 1, "budget must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let units: Vec<Vec<f64>> = (0..budget).map(|_| space.sample_unit(&mut rng)).collect();
        evaluate_design(space, units, objective, tracer)
    }
}

/// Full-factorial grid search — the comparator the paper found less
/// effective than BO at equal budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridSearch;

impl HyperOptimizer for GridSearch {
    fn optimize(
        &self,
        space: &SearchSpace,
        objective: Objective<'_>,
        budget: usize,
        seed: u64,
    ) -> OptResult {
        self.optimize_traced(space, &|p, _| objective(p), budget, seed, &Tracer::disabled())
    }
}

impl GridSearch {
    /// [`HyperOptimizer::optimize`] with a tracer-aware objective: grid
    /// point `i` runs under a `trial#i` span of `tracer` (see
    /// [`evaluate_design`]). The grid is deterministic; `seed` is unused.
    pub fn optimize_traced(
        &self,
        space: &SearchSpace,
        objective: TracedObjective<'_>,
        budget: usize,
        _seed: u64,
        tracer: &Tracer,
    ) -> OptResult {
        assert!(budget >= 1, "budget must be >= 1");
        let d = space.ndims();
        // Choose the largest per-dimension resolution whose full grid fits
        // the budget (at least 2 levels to span each range).
        let mut per_dim = 2usize;
        while space.grid_size(per_dim + 1) <= budget as u64 {
            per_dim += 1;
            if per_dim > 64 {
                break;
            }
        }
        // Per-dimension level counts (integer dims cap at cardinality).
        let levels: Vec<usize> = space
            .dims()
            .iter()
            .map(|dim| match dim.cardinality() {
                Some(c) => (c as usize).min(per_dim),
                None => per_dim,
            })
            .collect();

        // Enumerate the grid in mixed-radix order. When the full grid
        // exceeds the budget, stride through it instead of taking a prefix
        // — a prefix would pin the highest dimensions at their minimum
        // (dim 0 varies fastest), silently excluding whole axes.
        let total: usize = levels.iter().product();
        let count = total.min(budget);
        let units: Vec<Vec<f64>> = (0..count)
            .map(|j| if count == total { j } else { j * total / count })
            .map(|mut idx| {
                let mut u = vec![0.0; d];
                for (k, &lv) in levels.iter().enumerate() {
                    let step = idx % lv;
                    idx /= lv;
                    u[k] = if lv == 1 {
                        0.5
                    } else {
                        step as f64 / (lv - 1) as f64
                    };
                }
                u
            })
            .collect();
        evaluate_design(space, units, objective, tracer)
    }
}

/// Evaluates a fixed design rayon-parallel, point `i` under a `trial#i`
/// span of `tracer`. Span indices come from the design position, not worker
/// order, so the span tree is deterministic under any rayon schedule.
fn evaluate_design(
    space: &SearchSpace,
    units: Vec<Vec<f64>>,
    objective: TracedObjective<'_>,
    tracer: &Tracer,
) -> OptResult {
    let trials: Vec<Trial> = units
        .into_iter()
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(i, unit)| {
            let params = space.decode(&unit);
            let guard = tracer.span_at("trial", i as u64);
            let (value, failed) = eval_isolated_traced(objective, &params, &guard.tracer());
            Trial {
                params,
                unit,
                value,
                failed,
            }
        })
        .collect();
    OptResult::from_trials(trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dim;

    /// A smooth 2-D bowl with integer-grid minimum at (30, 7).
    fn bowl_space() -> SearchSpace {
        SearchSpace::new(vec![Dim::int("a", 1, 100), Dim::int("b", 1, 20)])
    }

    fn bowl(params: &[ParamValue]) -> f64 {
        let a = params[0].as_int() as f64;
        let b = params[1].as_int() as f64;
        ((a - 30.0) / 10.0).powi(2) + ((b - 7.0) / 3.0).powi(2)
    }

    #[test]
    fn bo_finds_near_optimum_on_bowl() {
        let bo = BayesianOptimizer::default();
        let res = bo.optimize(&bowl_space(), &bowl, 40, 7);
        assert_eq!(res.trials.len(), 40);
        let best = res.best();
        assert!(
            best.value < 0.35,
            "BO best {:?} value {}",
            best.params,
            best.value
        );
    }

    #[test]
    fn bo_beats_random_on_average_budget() {
        // At a modest budget the surrogate should usually win on a smooth
        // objective; compare over a few seeds to avoid flakiness.
        let bo = BayesianOptimizer::default();
        let rs = RandomSearch;
        let mut bo_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..5 {
            bo_total += bo.optimize(&bowl_space(), &bowl, 25, seed).best().value;
            rs_total += rs.optimize(&bowl_space(), &bowl, 25, seed).best().value;
        }
        assert!(
            bo_total <= rs_total,
            "BO total {bo_total} vs random {rs_total}"
        );
    }

    #[test]
    fn bo_never_reevaluates_identical_params() {
        let bo = BayesianOptimizer::default();
        let res = bo.optimize(&bowl_space(), &bowl, 30, 3);
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0;
        for t in &res.trials {
            if !seen.insert(fingerprint(&t.params)) {
                dups += 1;
            }
        }
        // The initial random design may collide; the BO loop itself must not.
        assert!(dups <= 2, "{dups} duplicate evaluations");
    }

    #[test]
    fn incumbent_curve_is_monotone_nonincreasing() {
        let rs = RandomSearch;
        let res = rs.optimize(&bowl_space(), &bowl, 30, 11);
        let curve = res.incumbent_curve();
        assert_eq!(curve.len(), 30);
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*curve.last().unwrap(), res.best().value);
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let rs = RandomSearch;
        let a = rs.optimize(&bowl_space(), &bowl, 10, 99);
        let b = rs.optimize(&bowl_space(), &bowl, 10, 99);
        assert_eq!(a.best().params, b.best().params);
        assert_eq!(a.best().value, b.best().value);
    }

    #[test]
    fn grid_search_covers_corners() {
        let gs = GridSearch;
        let space = SearchSpace::new(vec![Dim::int("a", 0, 9), Dim::int("b", 0, 9)]);
        let res = gs.optimize(&space, &|p| p[0].as_f64() + p[1].as_f64(), 100, 0);
        assert_eq!(res.trials.len(), 100);
        // Full 10x10 grid must include the exact optimum (0, 0).
        assert_eq!(res.best().value, 0.0);
        // And the far corner must also be present.
        assert!(res
            .trials
            .iter()
            .any(|t| t.params[0].as_int() == 9 && t.params[1].as_int() == 9));
    }

    #[test]
    fn grid_search_respects_budget() {
        let gs = GridSearch;
        let res = gs.optimize(&bowl_space(), &bowl, 17, 0);
        assert!(res.trials.len() <= 17);
    }

    #[test]
    fn truncated_grid_still_spans_every_dimension() {
        // 4 binary-ish dims, budget below the full grid: the stride must
        // still vary the slowest (last) dimension instead of pinning it.
        let space = SearchSpace::new(vec![
            Dim::int("a", 0, 9),
            Dim::int("b", 0, 9),
            Dim::int("c", 0, 9),
            Dim::int("d", 0, 9),
        ]);
        let res = GridSearch.optimize(&space, &|p| p[0].as_f64(), 8, 0);
        let d_values: std::collections::HashSet<i64> =
            res.trials.iter().map(|t| t.params[3].as_int()).collect();
        assert!(
            d_values.len() >= 2,
            "last dimension never varied: {d_values:?}"
        );
    }

    #[test]
    fn nan_objective_becomes_penalized_failure() {
        let bo = BayesianOptimizer::default();
        // Even-valued `a` fails: roughly half the space is a failure region.
        let obj = |p: &[ParamValue]| {
            if p[0].as_int() % 2 == 0 {
                f64::NAN
            } else {
                bowl(p)
            }
        };
        let res = bo.optimize(&bowl_space(), &obj, 25, 5);
        assert_eq!(res.trials.len(), 25);
        assert!(res.trials.iter().all(|t| t.value.is_finite()));
        assert!(res.failed_count() >= 1, "no failure region trial was hit");
        assert!(
            res.trials
                .iter()
                .all(|t| !t.failed || t.value == FAILURE_PENALTY),
            "failed trials must carry the penalty value"
        );
        // A usable (non-failed) optimum must still be found.
        assert!(!res.best().failed);
        assert!(res.best().value < FAILURE_PENALTY);
    }

    #[test]
    fn panicking_objective_is_contained() {
        let bo = BayesianOptimizer::default();
        let obj = |p: &[ParamValue]| {
            // The optimum itself panics: isolation must both survive the
            // panic and keep searching elsewhere.
            assert!(p[0].as_int() != 30, "injected objective panic");
            bowl(p)
        };
        let res = bo.optimize(&bowl_space(), &obj, 20, 2);
        assert_eq!(res.trials.len(), 20);
        assert!(res.trials.iter().all(|t| t.value.is_finite()));
        let res_rs = RandomSearch.optimize(&bowl_space(), &obj, 10, 2);
        assert!(res_rs.trials.iter().all(|t| t.value.is_finite()));
        let res_gs = GridSearch.optimize(&bowl_space(), &obj, 10, 0);
        assert!(res_gs.trials.iter().all(|t| t.value.is_finite()));
    }

    #[test]
    fn all_failed_search_still_returns_a_result() {
        let bo = BayesianOptimizer::default();
        let res = bo.optimize(&bowl_space(), &|_| f64::NAN, 8, 4);
        assert_eq!(res.trials.len(), 8);
        assert_eq!(res.failed_count(), 8);
        assert_eq!(res.best().value, FAILURE_PENALTY);
        assert!(res.incumbent_curve().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deadline_stops_search_after_initial_design() {
        let bo = BayesianOptimizer::new(BoOptions {
            deadline_secs: Some(0.0),
            ..BoOptions::default()
        });
        let res = bo.optimize(&bowl_space(), &bowl, 1000, 1);
        // An already-expired deadline still runs the initial design but no
        // surrogate iterations.
        assert_eq!(res.trials.len(), BoOptions::default().init_points);
    }

    #[test]
    fn generous_deadline_does_not_truncate() {
        let bo = BayesianOptimizer::new(BoOptions {
            deadline_secs: Some(3600.0),
            ..BoOptions::default()
        });
        let res = bo.optimize(&bowl_space(), &bowl, 15, 1);
        assert_eq!(res.trials.len(), 15);
    }

    #[test]
    fn optimizers_handle_budget_one() {
        let space = bowl_space();
        for res in [
            BayesianOptimizer::default().optimize(&space, &bowl, 1, 0),
            RandomSearch.optimize(&space, &bowl, 1, 0),
            GridSearch.optimize(&space, &bowl, 1, 0),
        ] {
            assert_eq!(res.trials.len().max(1), res.trials.len());
            assert!(res.best().value.is_finite());
        }
    }
}
