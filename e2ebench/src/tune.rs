//! `tune`: the paper's product. Each of the 14 Table I configurations is
//! self-optimized with `LoadDynamics::optimize` (BO over LSTM
//! hyperparameters), then the tuned predictor forecasts every interval of
//! its test partition. nn training and BO do the work; baselines and serve
//! are never called.
//!
//! The framework runs at the `LD_FAST` preset: at the standard preset one
//! 14-configuration pass took 18-44 s depending on where each search
//! wandered, a spread no bound can absorb, while a run of fast passes holds
//! over a hundred searches. The framework's own seed is fixed.

use std::time::Instant;

use ld_api::{Partition, Predictor, Series};
use ld_bayesopt::{BayesianOptimizer, ParamValue};
use ld_telemetry::Tracer;
use loaddynamics::pipeline::INFEASIBLE_MAPE;
use loaddynamics::{
    evaluate_hyperparams, FrameworkConfig, HyperParams, LoadDynamics, SearchStrategy,
};

use crate::metrics::{self, Digest};
use crate::passes::{self, SCALE};
use crate::{spans, speed};
use crate::{Ctx, Outcome};

const FRAMEWORK_SEED: u64 = 42;

/// The framework exactly as `ld_bench::runner::run_loaddynamics` builds it.
fn framework(series: &Series) -> FrameworkConfig {
    let mut config = SCALE.framework_config(FRAMEWORK_SEED);
    config.max_iters = SCALE.max_iters_for(series.len());
    config
}

/// One self-optimization and its test-partition forecasts.
struct Search {
    series: Series,
    /// `(hyperparameters, objective value bits)` of every trial, in order.
    trials: Vec<(HyperParams, u64)>,
    preds: Vec<f64>,
    optimize_s: f64,
    /// Each forecast's time.
    forecast_s: Vec<f64>,
    walk_s: f64,
}

fn trial_record(params: &[ParamValue], value: f64) -> (HyperParams, u64) {
    (HyperParams::from_params(params), value.to_bits())
}

fn trajectory_digest(searches: &[Search]) -> u64 {
    let mut d = Digest::new();
    for s in searches {
        for (hp, bits) in &s.trials {
            for v in [hp.history_len, hp.cell_size, hp.num_layers, hp.batch_size] {
                d.word(v as u64);
            }
            d.word(*bits);
        }
        for p in &s.preds {
            d.word(p.to_bits());
        }
    }
    d.value()
}

/// Runs one search the way a user would, timing `optimize` and each
/// forecast, and adds its failed trials and forecasts to `failed`.
fn search(series: Series, failed: &mut u64) -> Search {
    let t = Instant::now();
    let outcome = LoadDynamics::new(framework(&series)).optimize(&series);
    let optimize_s = t.elapsed().as_secs_f64();
    let trials: Vec<(HyperParams, u64)> = outcome
        .trials
        .trials
        .iter()
        .map(|t| trial_record(&t.params, t.value))
        .collect();
    *failed += outcome
        .trials
        .trials
        .iter()
        .filter(|t| t.failed || t.value >= INFEASIBLE_MAPE)
        .count() as u64;

    // The walk-forward harness of `ld_api::walk_forward`, with each
    // forecast timed and non-finite forecasts counted instead of hidden.
    let mut predictor = outcome.predictor;
    let test_start = Partition::paper_default(series.len()).val_end;
    let walk = Instant::now();
    predictor.fit(&series.values[..test_start]);
    let mut preds = Vec::with_capacity(series.len() - test_start);
    let mut forecast_s = Vec::with_capacity(series.len() - test_start);
    for i in test_start..series.len() {
        let t = Instant::now();
        let p = predictor.predict(&series.values[..i]);
        forecast_s.push(t.elapsed().as_secs_f64());
        if !p.is_finite() {
            *failed += 1;
        }
        preds.push(if p.is_finite() { p.max(0.0) } else { 0.0 });
    }
    Search {
        series,
        trials,
        preds,
        optimize_s,
        forecast_s,
        walk_s: walk.elapsed().as_secs_f64(),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let configs = if ctx.smoke {
        passes::configs(&["FB-10min"])
    } else {
        ld_traces::all_configurations()
    };
    let mut searches: Vec<Search> = Vec::new();
    // The host-speed factor timed right after each search.
    let mut speeds: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let (setup_s, done) = passes::run(ctx, &configs, |series| {
        searches.push(search(series, &mut failed));
        speeds.push(speed::factor());
    });
    let forecast_s: Vec<f64> = searches
        .iter()
        .flat_map(|s| s.forecast_s.iter().copied())
        .collect();
    let per_pass = configs.len();
    let trials: usize = searches.iter().map(|s| s.trials.len()).sum();
    out.attempted = (trials + forecast_s.len()) as u64;
    out.failed = failed;
    out.digest = trajectory_digest(&searches[..per_pass]);

    let mapes: Vec<f64> = searches
        .iter()
        .map(|s| {
            let test_start = Partition::paper_default(s.series.len()).val_end;
            ld_api::mape(&s.preds, &s.series.values[test_start..])
        })
        .collect();
    out.check(
        "mape-finite",
        mapes.iter().all(|m| m.is_finite()),
        format!("{} test-partition MAPEs", mapes.len()),
    );
    out.notes.push(format!(
        "mean test MAPE {:.3}% (not bounded: it follows the seed's traces)",
        metrics::mean(&mapes)
    ));

    // The first search again: trials and forecasts must repeat bitwise.
    let again = search(searches[0].series.clone(), &mut 0);
    out.check(
        "trajectory-repeats",
        again.trials == searches[0].trials
            && again
                .preds
                .iter()
                .map(|p| p.to_bits())
                .eq(searches[0].preds.iter().map(|p| p.to_bits())),
        format!("trajectory digest {:016x} over the first pass", out.digest),
    );

    let (tail_p, tail_s) = metrics::tail(&forecast_s);
    out.notes.push(format!(
        "{} searches in {done} passes ({trials} trials), {} forecasts; forecast p{tail_p} {:.3} us (not bounded)",
        searches.len(),
        forecast_s.len(),
        tail_s * 1e6
    ));

    if ctx.traced {
        traced(&searches, &mut out);
    } else {
        let optimize_s: Vec<f64> = searches.iter().map(|s| s.optimize_s).collect();
        let forecasting_s: f64 = searches
            .iter()
            .zip(&speeds)
            .map(|(s, f)| s.forecast_s.iter().sum::<f64>() * f)
            .sum();
        out.notes.push(speed::note(&speeds, &optimize_s));
        let adjusted: Vec<f64> = optimize_s.iter().zip(&speeds).map(|(t, f)| t * f).collect();
        out.set("job_s", metrics::mean(&adjusted));
        out.set("forecast_us", forecasting_s / forecast_s.len() as f64 * 1e6);
        out.set("setup_s", metrics::median(&setup_s));
    }
    out
}

/// Replays every search of the untraced pass with bench-owned spans around
/// the layers: the BO loop (`optimize_traced`, which adds its own
/// `init`/`iter`/`surrogate_fit` spans), each `evaluate_hyperparams`
/// trial, the retrain of the winner, and each `LstmForecaster::predict`.
/// Trial values and forecasts must match the untraced pass bit for bit;
/// layers where they do not are reported unresolved.
fn traced(searches: &[Search], out: &mut Outcome) {
    let tracer = Tracer::enabled();
    let start = Instant::now();
    let mut trials_match = true;
    let mut preds_match = true;
    for (k, s) in searches.iter().enumerate() {
        let config = framework(&s.series);
        let SearchStrategy::Bayesian(mut opts) = config.strategy.clone() else {
            unreachable!("the scale presets search with BO");
        };
        if opts.deadline_secs.is_none() {
            opts.deadline_secs = config.deadline_secs;
        }
        let values = &s.series.values;
        let partition = Partition::paper_default(values.len());
        let evaluate = |params: &[ParamValue], trial: &Tracer| -> f64 {
            let _span = trial.span("core.evaluate");
            let hp = HyperParams::from_params(params);
            evaluate_hyperparams(values, &partition, hp, &config.budget, config.seed).val_mape
        };
        let search_span = tracer.span_at("bayesopt.optimize", k as u64);
        let result = BayesianOptimizer::new(opts)
            .with_tracer(search_span.tracer())
            .optimize_traced(&config.space, &evaluate, config.max_iters, config.seed);
        drop(search_span);
        let replayed: Vec<(HyperParams, u64)> = result
            .trials
            .iter()
            .map(|t| trial_record(&t.params, t.value))
            .collect();
        trials_match &= replayed == s.trials;

        let best = HyperParams::from_params(&result.best().params);
        let retrain_span = tracer.span_at("core.retrain", k as u64);
        let retrained = evaluate_hyperparams(values, &partition, best, &config.budget, config.seed);
        drop(retrain_span);
        let Some(model) = retrained.model else {
            preds_match = false;
            continue;
        };
        // `OptimizedPredictor::predict`: scale the last n values, forecast,
        // invert, clamp at zero.
        let n = best.history_len;
        let scaler = retrained.scaler;
        for (j, i) in (partition.val_end..values.len()).enumerate() {
            let window: Vec<f64> = values[i - n..i]
                .iter()
                .map(|&v| scaler.transform(v))
                .collect();
            let span = tracer.span_at("nn.predict", i as u64);
            let p = scaler.inverse(model.predict(&window)).max(0.0);
            drop(span);
            preds_match &= p.to_bits() == s.preds[j].to_bits();
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let trace = tracer.snapshot();
    if !trials_match {
        out.unresolved.extend([
            "bayesopt.self_pct",
            "gp.surrogate_fit_pct",
            "core.evaluate_pct",
        ]);
    }
    if !preds_match {
        out.unresolved
            .extend(["core.retrain_pct", "nn.predict_pct"]);
    }

    let reference_ns = searches
        .iter()
        .map(|s| ((s.optimize_s + s.walk_s) * 1e9) as u64)
        .sum();
    spans::summarize(out, &trace, wall_ns, reference_ns);
    let charged = spans::attribute(&[
        spans::named(&trace, "core.evaluate"),
        spans::named(&trace, "surrogate_fit"),
        spans::named(&trace, "core.retrain"),
        spans::named(&trace, "nn.predict"),
        spans::named(&trace, "bayesopt.optimize"),
    ]);
    out.set("core.evaluate_pct", spans::pct(charged[0], wall_ns));
    out.set("gp.surrogate_fit_pct", spans::pct(charged[1], wall_ns));
    out.set("core.retrain_pct", spans::pct(charged[2], wall_ns));
    out.set("nn.predict_pct", spans::pct(charged[3], wall_ns));
    out.set("bayesopt.self_pct", spans::pct(charged[4], wall_ns));
    out.set(
        "bayesopt.proposals",
        spans::named(&trace, "iter").len() as f64,
    );
    out.set(
        "core.evaluations",
        spans::named(&trace, "core.evaluate").len() as f64,
    );
    out.set(
        "nn.predict_calls",
        spans::named(&trace, "nn.predict").len() as f64,
    );
    out.notes.push(format!(
        "traced replay: trials {}, forecasts {} the untraced pass bitwise",
        if trials_match { "match" } else { "DIFFER from" },
        if preds_match { "match" } else { "DIFFER from" }
    ));
}
