//! Fig. 10 — auto-scaling case study: job turnaround time and VM under- /
//! over-provisioning rates on the Azure workload at 60-minute intervals,
//! with the JARs scaled down so fewer than 50 VMs are needed per interval
//! (the paper's Google Cloud quota workaround).
//!
//! Predictors compared: LoadDynamics, CloudInsight, Wood et al.
//! (CloudScale was dropped by the paper for cost parity with Wood.)

use ld_api::{Partition, Predictor, Series};
use ld_autoscale::{simulate_traced, SimConfig};
use ld_bench::render::print_table;
use ld_bench::runner::traced_baseline_lineup;
use ld_bench::scale::ExperimentScale;
use ld_telemetry::artifacts::{dump_trace, trace_from_env};
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::LoadDynamics;

fn main() {
    let scale = ExperimentScale::from_env();
    let faults = ld_faultinject::plan_from_env(0);
    let (tracer, trace_out) = trace_from_env();
    println!("=== Fig. 10: auto-scaling with different prediction techniques (Azure, 60-min) ===");
    println!("(scale: {scale:?})\n");

    // Azure at 60-minute intervals, scaled down so <50 jobs/interval
    // (the raw synthetic trace averages ~40-50 at 60 min; scale to ~60%
    // to stay safely under 50, mirroring the paper's 100x scale-down of
    // the much larger real trace).
    let raw = TraceConfig {
        kind: WorkloadKind::Azure,
        interval_mins: 60,
    }
    .build_reported(0, &faults)
    .0;
    let series: Series = scale.cap_series(&raw.scaled(0.6));
    let partition = Partition::paper_default(series.len());
    let sim_config = SimConfig {
        test_start: partition.val_end,
        ..SimConfig::default()
    };

    let mut rows = Vec::new();

    // LoadDynamics (optimize on train+val, simulate over test intervals).
    // The tracer (when LD_TRACE is set) covers the optimization and every
    // predictor's scaling decisions, each under its own event scope.
    eprintln!("[fig10] optimizing LoadDynamics ...");
    let config = scale.framework_config(0).with_tracer(tracer.clone());
    let framework = LoadDynamics::new(config.with_faults(faults));
    let outcome = framework.optimize(&series);
    let mut ld: Box<dyn Predictor> = Box::new(outcome.predictor);
    let report = simulate_traced(ld.as_mut(), &series, &sim_config, &tracer);
    // Per-predictor turnaround, stamped into the manifest: the interval
    // events hold VM counts but no turnaround.
    let mut turnarounds = vec![("LoadDynamics".to_string(), report.avg_turnaround_secs())];
    rows.push(vec![
        "LoadDynamics".to_string(),
        format!("{:.1}", report.avg_turnaround_secs()),
        format!("{:.1}", 100.0 * report.under_provisioning_rate()),
        format!("{:.1}", 100.0 * report.over_provisioning_rate()),
        format!("{}", report.on_demand_vm_count()),
        format!("{}", report.idle_vm_count()),
    ]);

    // CloudInsight and Wood (CloudScale dropped, as in the paper).
    for (b, mut baseline) in traced_baseline_lineup(0, &tracer).into_iter().enumerate() {
        if baseline.name() == "CloudScale" {
            continue;
        }
        eprintln!("[fig10] simulating {} ...", baseline.name());
        // Baseline sims nest under `baseline#<lineup index>` so their
        // interval spans never collide with the LoadDynamics run's.
        let baseline_tracer = tracer.scoped("baseline", b as u64);
        let report = simulate_traced(baseline.as_mut(), &series, &sim_config, &baseline_tracer);
        turnarounds.push((baseline.name(), report.avg_turnaround_secs()));
        rows.push(vec![
            baseline.name(),
            format!("{:.1}", report.avg_turnaround_secs()),
            format!("{:.1}", 100.0 * report.under_provisioning_rate()),
            format!("{:.1}", 100.0 * report.over_provisioning_rate()),
            format!("{}", report.on_demand_vm_count()),
            format!("{}", report.idle_vm_count()),
        ]);
    }

    print_table(
        &[
            "predictor",
            "turnaround (s)",
            "under-prov %",
            "over-prov %",
            "on-demand VMs",
            "idle VMs",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper Fig. 10): LoadDynamics finishes jobs fastest\n\
         (lowest turnaround, driven by the lowest under-provisioning rate) and\n\
         wastes the fewest idle VMs (lowest over-provisioning rate)."
    );
    let manifest = ld_telemetry::RunManifest::new("fig10_autoscaling")
        .seed(0)
        .config("workload", "azure-60min-x0.6")
        .config("scale", format!("{scale:?}"))
        .config("test_start", sim_config.test_start)
        .config("selected_hyperparams", outcome.hyperparams);
    let manifest = turnarounds.iter().fold(manifest, |m, (name, secs)| {
        m.config(&format!("turnaround_secs.{name}"), format!("{secs:.4}"))
    });
    dump_trace(&tracer, &trace_out, manifest);
}
