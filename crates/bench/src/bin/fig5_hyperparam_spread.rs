//! Fig. 5 — prediction errors of many LSTM models with different
//! hyperparameters on the Google workload.
//!
//! The paper trains 100 random hyperparameter combinations and shows a ~3x
//! spread between the best and worst, motivating automatic tuning. This
//! binary reproduces the experiment: N random configurations from the
//! search space, each trained and validated, with the distribution printed.

use ld_api::Partition;
use ld_bayesopt::SearchSpace;
use ld_bench::render::print_table;
use ld_bench::scale::ExperimentScale;
use ld_telemetry::artifacts::{dump_trace, trace_from_env};
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::{evaluate_hyperparams_traced, HyperParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

fn main() {
    let scale = ExperimentScale::from_env();
    let (tracer, trace_out) = trace_from_env();
    let n_models = match scale {
        ExperimentScale::Standard => 100,
        ExperimentScale::Fast => 12,
    };
    println!("=== Fig. 5: MAPE spread over {n_models} random LSTM hyperparameter sets (Google, 30-min) ===");
    println!("(scale: {scale:?})\n");

    let series = scale.cap_series(
        &TraceConfig {
            kind: WorkloadKind::Google,
            interval_mins: 30,
        }
        .build(0),
    );
    let partition = Partition::paper_default(series.len());
    // Wider than the optimizer's scaled space, mirroring the paper's use
    // of the full Table III ranges here: random draws include batch sizes
    // far past what the epoch budget can train, which is one of the two
    // failure modes (with too-short history) behind the paper's ~3x
    // best-to-worst spread.
    let space: SearchSpace = loaddynamics::scaled_space(32, 16, 2, 512);
    let budget = scale.budget();

    let mut rng = StdRng::seed_from_u64(5);
    let candidates: Vec<HyperParams> = (0..n_models)
        .map(|_| HyperParams::from_params(&space.decode(&space.sample_unit(&mut rng))))
        .collect();

    // Candidate spans are keyed by draw index, so the traced tree is
    // identical whichever worker evaluates which candidate.
    let sweep_guard = tracer.span("fig5.sweep");
    let sweep_tracer = sweep_guard.tracer();
    let indexed: Vec<(usize, HyperParams)> = candidates.iter().copied().enumerate().collect();
    let mut mapes: Vec<(HyperParams, f64)> = indexed
        .into_par_iter()
        .map(|(i, hp)| {
            let candidate_guard = sweep_tracer.span_at("candidate", i as u64);
            let out = evaluate_hyperparams_traced(
                &series.values,
                &partition,
                hp,
                &budget,
                0,
                &candidate_guard.tracer(),
            );
            (hp, out.val_mape)
        })
        .collect();
    drop(sweep_guard);
    mapes.retain(|(_, m)| m.is_finite() && *m < 1e5);
    mapes.sort_by(|a, b| a.1.total_cmp(&b.1));

    // Print the sorted curve as deciles plus best/worst configs.
    let mut rows = Vec::new();
    for q in [0, 10, 25, 50, 75, 90, 100] {
        let idx = ld_api::stats::nearest_rank_index(mapes.len(), q);
        rows.push(vec![
            format!("p{q}"),
            format!("{:.1}", mapes[idx].1),
            mapes[idx].0.to_string(),
        ]);
    }
    print_table(&["percentile", "MAPE %", "hyperparameters"], &rows);

    let best = mapes.first().unwrap();
    let worst = mapes.last().unwrap();
    println!(
        "\nbest  {:>6.1}%  ({})\nworst {:>6.1}%  ({})\nworst/best ratio: {:.1}x",
        best.1,
        best.0,
        worst.1,
        worst.0,
        worst.1 / best.1.max(1e-9)
    );
    println!(
        "\nExpected shape (paper Fig. 5): a large spread — choosing good\n\
         hyperparameters cuts the error by ~3x versus a poor choice."
    );
    dump_trace(
        &tracer,
        &trace_out,
        ld_telemetry::RunManifest::new("fig5_hyperparam_spread")
            .seed(5)
            .config("workload", "google-30min")
            .config("scale", format!("{scale:?}"))
            .config("n_models", n_models),
    );
}
