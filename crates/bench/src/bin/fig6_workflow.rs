//! Fig. 6 / Fig. 7 — the LoadDynamics workflow, traced live.
//!
//! Prints the data partitioning of Fig. 7 and then every iteration of the
//! Fig. 6 loop for one workload: which hyperparameters the Bayesian
//! optimizer proposed (step 3), the cross-validation error of the trained
//! model (steps 1–2), and the running incumbent (step 4). Ends with the
//! step-5 deployment numbers on the untouched test partition.

use ld_api::{walk_forward, Partition};
use ld_bench::render::print_table;
use ld_bench::scale::ExperimentScale;
use ld_telemetry::artifacts::{dump_trace, trace_from_env};
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::{HyperParams, LoadDynamics};

fn main() {
    let scale = ExperimentScale::from_env();
    ld_faultinject::activate_from_env(0);
    let (tracer, trace_out) = trace_from_env();
    println!("=== Fig. 6/7: the self-optimization workflow, traced (LCG 30-min) ===");
    println!("(scale: {scale:?})\n");

    let series = scale.cap_series(
        &TraceConfig {
            kind: WorkloadKind::Lcg,
            interval_mins: 30,
        }
        .build(0),
    );
    let partition = Partition::paper_default(series.len());
    println!("--- Fig. 7: data partitioning (60/20/20) ---");
    println!(
        "training set (l):        intervals 0..{}",
        partition.train_end
    );
    println!(
        "cross-validation set (m): intervals {}..{}",
        partition.train_end, partition.val_end
    );
    println!(
        "prediction (test) set:    intervals {}..{}\n",
        partition.val_end,
        series.len()
    );

    let framework = LoadDynamics::new(scale.framework_config(0).with_tracer(tracer.clone()));
    let outcome = framework.optimize(&series);

    println!("--- Fig. 6 steps 1-4: train / validate / propose / select ---");
    let mut rows = Vec::new();
    let mut incumbent = f64::INFINITY;
    for (i, trial) in outcome.trials.trials.iter().enumerate() {
        incumbent = incumbent.min(trial.value);
        rows.push(vec![
            format!("{}", i + 1),
            HyperParams::from_params(&trial.params).to_string(),
            format!("{:.2}", trial.value),
            format!("{incumbent:.2}"),
        ]);
    }
    print_table(
        &["iter", "hyperparameters (step 3)", "val MAPE % (step 2)", "incumbent (step 4)"],
        &rows,
    );

    println!("\n--- Fig. 6 step 5: predict future JARs ---");
    let mut predictor = outcome.predictor;
    let result = walk_forward(&mut predictor, &series, partition.val_end);
    println!(
        "selected {} -> test MAPE {:.2}% over {} unseen intervals",
        outcome.hyperparams,
        result.mape(),
        result.preds.len()
    );
    dump_trace(
        &tracer,
        &trace_out,
        ld_telemetry::RunManifest::new("fig6_workflow")
            .seed(0)
            .config("workload", "lcg-30min")
            .config("scale", format!("{scale:?}"))
            .config("selected_hyperparams", outcome.hyperparams)
            .config("test_mape_pct", format!("{:.4}", result.mape()))
            .config("test_intervals", result.preds.len()),
    );
}
