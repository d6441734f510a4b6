//! `ld-cli` — command-line front end for the LoadDynamics framework.
//!
//! ```text
//! ld-cli generate <config> <out.txt>          generate a paper workload trace
//! ld-cli optimize <trace.txt> [--fast] [flags]  tune a predictor, print hyperparameters
//! ld-cli predict  <trace.txt> [horizon] [flags]  tune + forecast the next intervals
//! ld-cli evaluate <trace.txt> [flags]         walk-forward MAPE of LoadDynamics + baselines
//! ld-cli list                                 list the 14 paper workload configurations
//! ```
//!
//! `optimize` accepts `--fast`: the laptop-scale search whatever the
//! series length. `optimize`, `predict` and `evaluate` accept two flags:
//!
//! - `--trace-out[=PATH]`: the run is observed by one tracer, and four
//!   artifacts are written: Chrome trace-event JSON of the search/train
//!   spans at `PATH` (default `trace.json`), folded flamegraph stacks at
//!   `PATH.folded`, the counters and events at `PATH.events.json` (see the
//!   README for the schema), and a run-provenance manifest at
//!   `PATH.manifest.json`.
//! - `--metrics[=PATH]` (or the `LD_METRICS` environment knob): counters
//!   and log-linear histograms of the run (trials, validation MAPE,
//!   baseline errors) are dumped as schema-checked JSON at `PATH` (default
//!   `metrics.json`) plus a Prometheus text exposition at `PATH.prom`.
//!
//! Any other `--` argument is a usage error (exit 2), as is `--fast` for
//! any command but `optimize` and any flag for the other commands.
//!
//! `ld-cli trace-validate <trace.json> [manifest.json]` schema-checks the
//! trace artifacts and `ld-cli metrics-validate <metrics.json>
//! [exposition.prom]` the metrics artifacts (CI gates on both).
//!
//! Traces are plain text (`ld_api::Series::to_text` format): an optional
//! `# name interval_mins=N` header, then one JAR per line.

use ld_api::{predict_horizon, walk_forward, Partition, Predictor, Series};
use ld_baselines::{CloudInsight, CloudScale, WoodPredictor};
use ld_metrics::Metrics;
use ld_telemetry::{RunManifest, Tracer};
use ld_traces::all_configurations;
use loaddynamics::{FrameworkConfig, LoadDynamics};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ld-cli generate <config> <out.txt>\n  \
         ld-cli optimize <trace.txt> [--fast] [flags]\n  \
         ld-cli predict <trace.txt> [horizon] [flags]\n  \
         ld-cli evaluate <trace.txt> [flags]\n  \
         ld-cli trace-validate <trace.json> [manifest.json]\n  \
         ld-cli metrics-validate <metrics.json> [exposition.prom]\n  ld-cli list\n\n\
         flag for optimize:\n  \
         --fast               laptop-scale search whatever the series length\n\n\
         flags for optimize/predict/evaluate:\n  \
         --trace-out[=PATH]   spans, counters and events: PATH (default trace.json),\n                       \
         PATH.folded, PATH.events.json and PATH.manifest.json\n  \
         --metrics[=PATH]     metrics at PATH (default metrics.json) and PATH.prom;\n                       \
         LD_METRICS=1|PATH does the same"
    );
    std::process::exit(2);
}

/// The flags `optimize`, `predict` and `evaluate` accept (`fast` is
/// `optimize`'s alone).
#[derive(Default)]
struct Flags {
    fast: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl Flags {
    /// An enabled tracer when `--trace-out` was given.
    fn tracer(&self) -> Tracer {
        self.trace_out
            .as_ref()
            .map_or_else(Tracer::disabled, |_| Tracer::enabled())
    }

    /// An enabled metrics registry when `--metrics` (or `LD_METRICS`) was
    /// given.
    fn metrics(&self) -> Metrics {
        self.metrics_out
            .as_ref()
            .map_or_else(Metrics::disabled, |_| Metrics::enabled())
    }

    /// Writes the requested metrics and trace artifacts of a finished run.
    fn dump(&self, tracer: &Tracer, metrics: &Metrics, tool: &str, config: &[(&str, String)]) {
        if let Some(out) = &self.metrics_out {
            dump_metrics(metrics, out);
        }
        if let Some(out) = &self.trace_out {
            dump_trace(
                tracer,
                out,
                tool,
                config,
                metrics,
                self.metrics_out.as_deref(),
            );
        }
    }
}

/// Splits the arguments after `command` into positionals and [`Flags`],
/// exiting with the usage text on any `--` argument `command` does not
/// take. `--metrics` falls back to the `LD_METRICS` environment knob (`1`
/// → `metrics.json`, any other value is taken as the path) so wrappers can
/// enable metrics without editing command lines.
fn parse_args<'a>(command: &str, args: &'a [String]) -> (Vec<&'a str>, Flags) {
    let runs = matches!(command, "optimize" | "predict" | "evaluate");
    let mut positional = Vec::new();
    let mut flags = Flags::default();
    for arg in args {
        let arg = arg.as_str();
        if command == "optimize" && arg == "--fast" {
            flags.fast = true;
        } else if runs && arg == "--trace-out" {
            flags.trace_out = Some("trace.json".to_string());
        } else if let Some(path) = arg.strip_prefix("--trace-out=").filter(|_| runs) {
            flags.trace_out = Some(path.to_string());
        } else if runs && arg == "--metrics" {
            flags.metrics_out = Some("metrics.json".to_string());
        } else if let Some(path) = arg.strip_prefix("--metrics=").filter(|_| runs) {
            flags.metrics_out = Some(path.to_string());
        } else if arg.starts_with("--") {
            eprintln!("unknown flag `{arg}`");
            usage();
        } else {
            positional.push(arg);
        }
    }
    if runs && flags.metrics_out.is_none() {
        // ld-lint: allow(determinism, "pure-observer metrics dump knob; captured in the run manifest")
        flags.metrics_out = std::env::var("LD_METRICS")
            .ok()
            .filter(|v| !v.is_empty())
            .map(|v| {
                if v == "1" {
                    "metrics.json".to_string()
                } else {
                    v
                }
            });
    }
    (positional, flags)
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("{what} written to {path}");
}

/// Writes the metrics snapshot as schema-checked JSON at `path` and a
/// Prometheus text exposition at `path.prom`.
fn dump_metrics(metrics: &Metrics, path: &str) {
    let snapshot = metrics.snapshot();
    let json = ld_metrics::to_metrics_json(&snapshot);
    ld_metrics::validate_metrics_json(&json).expect("metrics dump must pass its own validator");
    write_or_die(path, &json, "metrics");
    let prom = ld_metrics::to_prometheus(&snapshot);
    ld_metrics::validate_exposition(&prom).expect("exposition must pass its own validator");
    write_or_die(&format!("{path}.prom"), &prom, "metrics exposition");
}

/// Writes the Chrome trace at `path`, the folded stacks at `path.folded`,
/// the counters and events at `path.events.json` and the run manifest at
/// `path.manifest.json`.
fn dump_trace(
    tracer: &Tracer,
    path: &str,
    tool: &str,
    config: &[(&str, String)],
    metrics: &Metrics,
    metrics_out: Option<&str>,
) {
    let snapshot = tracer.snapshot();
    let events = tracer.events();
    let folded = format!("{path}.folded");
    let events_path = format!("{path}.events.json");
    write_or_die(path, &snapshot.to_chrome_trace(), "chrome trace");
    write_or_die(&folded, &snapshot.to_folded(), "folded stacks");
    write_or_die(&events_path, &events.to_json(), "events");
    let mut manifest = RunManifest::new(tool)
        .seed(0)
        .capture_env()
        .with_trace_summary(&snapshot)
        .with_telemetry_summary(&events)
        .output("chrome_trace", path)
        .output("folded", folded)
        .output("events", events_path);
    for (key, value) in config {
        manifest = manifest.config(key, value);
    }
    if metrics.is_enabled() {
        let snapshot = metrics.snapshot();
        manifest = manifest.with_metrics_summary(snapshot.series(), snapshot.observations());
        if let Some(mpath) = metrics_out {
            manifest = manifest
                .output("metrics", mpath)
                .output("metrics_exposition", format!("{mpath}.prom"));
        }
    }
    if let Err(e) = manifest.validate() {
        eprintln!("run manifest failed validation ({e}); writing anyway");
    }
    let manifest_path = format!("{path}.manifest.json");
    write_or_die(&manifest_path, &manifest.to_json(), "run manifest");
}

fn read_series(path: &str) -> Series {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    Series::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

fn framework(series_len: usize, fast: bool, tracer: &Tracer) -> LoadDynamics {
    // Scale effort to the series size unless --fast is given.
    let config = if fast || series_len < 600 {
        FrameworkConfig::fast_preset(0)
    } else {
        let mut c = FrameworkConfig::fast_preset(0);
        c.space = loaddynamics::scaled_space(32, 16, 2, 64);
        c.max_iters = 12;
        c.budget = loaddynamics::TrainBudget {
            max_epochs: 14,
            patience: 4,
            learning_rate: 8e-3,
            max_train_windows: 550,
            clip_norm: 5.0,
        };
        c
    };
    LoadDynamics::new(config.with_tracer(tracer.clone()))
}

fn cmd_generate(label: &str, out: &str) {
    let Some(config) = all_configurations().into_iter().find(|c| c.label() == label) else {
        eprintln!("unknown configuration '{label}' — see `ld-cli list`");
        std::process::exit(1);
    };
    let series = config.build(0);
    std::fs::write(out, series.to_text()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {} intervals of {} ({} min) to {out}",
        series.len(),
        series.name,
        series.interval_mins
    );
}

/// Records the search outcome on the metrics registry: one counter tick
/// per trial, the per-trial validation MAPE distribution in basis points
/// (log-linear buckets resolve the single-digit-percent region), and the
/// selected model's error as a gauge.
fn record_search_metrics(metrics: &Metrics, outcome: &loaddynamics::OptimizationOutcome) {
    for trial in &outcome.trials.trials {
        metrics.incr("cli.trials_total");
        metrics.observe(
            "cli.val_mape_bp",
            ld_api::num::to_count(trial.value * 100.0) as u64,
        );
    }
    metrics.gauge_set(
        "cli.selected_val_mape_bp",
        ld_api::num::to_count(outcome.val_mape * 100.0) as u64,
    );
}

fn cmd_optimize(path: &str, flags: &Flags) {
    let series = read_series(path);
    println!(
        "optimizing on {} ({} intervals, {} min each)...",
        series.name,
        series.len(),
        series.interval_mins
    );
    let tracer = flags.tracer();
    let metrics = flags.metrics();
    let outcome = framework(series.len(), flags.fast, &tracer).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    println!("selected hyperparameters: {}", outcome.hyperparams);
    println!("cross-validation MAPE:    {:.2}%", outcome.val_mape);
    println!("trials evaluated:         {}", outcome.trials.trials.len());
    flags.dump(
        &tracer,
        &metrics,
        "ld-cli optimize",
        &[
            ("trace", path.to_string()),
            ("series", series.name.clone()),
            ("fast", flags.fast.to_string()),
            ("selected_hyperparams", outcome.hyperparams.to_string()),
            ("val_mape_pct", format!("{:.4}", outcome.val_mape)),
        ],
    );
}

fn cmd_predict(path: &str, horizon: usize, flags: &Flags) {
    let series = read_series(path);
    let tracer = flags.tracer();
    let metrics = flags.metrics();
    let outcome = framework(series.len(), false, &tracer).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    eprintln!(
        "tuned {} (val MAPE {:.1}%)",
        outcome.hyperparams, outcome.val_mape
    );
    let hyperparams = outcome.hyperparams;
    let mut predictor = outcome.predictor;
    let preds = predict_horizon(&mut predictor, &series.values, horizon);
    metrics.add("cli.predictions_total", preds.len() as u64);
    for (k, p) in preds.iter().enumerate() {
        println!("t+{}: {:.1}", k + 1, p);
        metrics.observe("cli.predicted_jars", ld_api::num::to_count(*p) as u64);
    }
    flags.dump(
        &tracer,
        &metrics,
        "ld-cli predict",
        &[
            ("trace", path.to_string()),
            ("series", series.name.clone()),
            ("horizon", horizon.to_string()),
            ("selected_hyperparams", hyperparams.to_string()),
        ],
    );
}

fn cmd_evaluate(path: &str, flags: &Flags) {
    let series = read_series(path);
    let partition = Partition::paper_default(series.len());
    println!(
        "walk-forward over the last {} intervals:",
        series.len() - partition.val_end
    );
    let tracer = flags.tracer();
    let metrics = flags.metrics();
    let outcome = framework(series.len(), false, &tracer).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    let hyperparams = outcome.hyperparams;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut ld: Box<dyn Predictor> = Box::new(outcome.predictor);
    rows.push((
        "LoadDynamics".into(),
        walk_forward(ld.as_mut(), &series, partition.val_end).mape(),
    ));
    let baselines: Vec<Box<dyn Predictor>> = vec![
        Box::new(CloudInsight::new(0).with_tracer(tracer.clone())),
        Box::new(CloudScale::default()),
        Box::new(WoodPredictor::default()),
    ];
    for mut b in baselines {
        let mape = walk_forward(b.as_mut(), &series, partition.val_end).mape();
        rows.push((b.name(), mape));
    }
    for (name, mape) in &rows {
        println!("  {name:<14} MAPE {mape:>7.2}%");
        metrics.incr("cli.predictors_total");
        metrics.observe(
            "cli.walkforward_mape_bp",
            ld_api::num::to_count(*mape * 100.0) as u64,
        );
    }
    flags.dump(
        &tracer,
        &metrics,
        "ld-cli evaluate",
        &[
            ("trace", path.to_string()),
            ("series", series.name.clone()),
            ("selected_hyperparams", hyperparams.to_string()),
        ],
    );
}

fn cmd_list() {
    for c in all_configurations() {
        println!("{}", c.label());
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Reads `path` and runs `validate` over it, exiting 1 with a message
/// naming the artifact on any failure. Returns the validator's count.
fn validate_file(path: &str, what: &str, validate: fn(&str) -> Result<usize, String>) -> usize {
    validate(&read_or_die(path)).unwrap_or_else(|e| {
        eprintln!("{path}: invalid {what}: {e}");
        std::process::exit(1);
    })
}

/// Schema-checks a Chrome trace emitted by `--trace-out`, its `.folded`
/// and `.events.json` siblings and, optionally, its run manifest. A
/// sibling is checked when present; one whose kind (`folded`, `events`)
/// the manifest lists must also exist, and the manifest's span and event
/// totals must match the files. Siblings are found next to the trace, not
/// at the manifest's recorded paths, so a moved artifact set still
/// validates. Exits nonzero on the first violation — CI gates on this.
fn cmd_trace_validate(trace_path: &str, manifest_path: Option<&str>) {
    let spans = validate_file(
        trace_path,
        "chrome trace",
        ld_telemetry::validate_chrome_trace,
    );
    println!("{trace_path}: valid chrome trace, {spans} events");
    let manifest = manifest_path.map(|path| {
        let manifest = RunManifest::from_json(&read_or_die(path)).unwrap_or_else(|e| {
            eprintln!("{path}: not a run manifest: {e}");
            std::process::exit(1);
        });
        if let Err(e) = manifest.validate() {
            eprintln!("{path}: invalid run manifest: {e}");
            std::process::exit(1);
        }
        manifest
    });
    let artifact = |kind: &str, suffix: &str| {
        let sibling = format!("{trace_path}{suffix}");
        let listed = manifest
            .as_ref()
            .is_some_and(|m| m.output_path(kind).is_some());
        (listed || std::path::Path::new(&sibling).exists()).then_some(sibling)
    };
    if let Some(folded) = artifact("folded", ".folded") {
        let lines = validate_file(&folded, "folded stacks", ld_telemetry::validate_folded);
        println!("{folded}: valid folded stacks, {lines} lines");
    }
    let events = artifact("events", ".events.json").map(|path| {
        let events = validate_file(&path, "events", ld_telemetry::validate_events);
        println!("{path}: valid events, {events} events");
        events
    });
    let (Some(manifest_path), Some(manifest)) = (manifest_path, manifest) else {
        return;
    };
    if manifest.trace_spans != spans as u64 {
        eprintln!(
            "{manifest_path}: manifest records {} trace spans but the chrome trace has {spans} events",
            manifest.trace_spans
        );
        std::process::exit(1);
    }
    if manifest.telemetry_events != events.unwrap_or(0) as u64 {
        eprintln!(
            "{manifest_path}: manifest records {} events but its events artifact has {}",
            manifest.telemetry_events,
            events.map_or("none".to_string(), |n| n.to_string())
        );
        std::process::exit(1);
    }
    println!(
        "{manifest_path}: valid run manifest (tool `{}`, {} spans, {} roots, {} events)",
        manifest.tool, manifest.trace_spans, manifest.trace_roots, manifest.telemetry_events
    );
}

/// Schema-checks a metrics JSON dump and, optionally, its Prometheus text
/// exposition sibling. Exits nonzero on the first violation — CI gates on
/// this.
fn cmd_metrics_validate(metrics_path: &str, exposition_path: Option<&str>) {
    match ld_metrics::validate_metrics_json(&read_or_die(metrics_path)) {
        Ok(n) => println!("{metrics_path}: valid metrics snapshot, {n} series"),
        Err(e) => {
            eprintln!("{metrics_path}: invalid metrics snapshot: {e}");
            std::process::exit(1);
        }
    }
    if let Some(prom_path) = exposition_path {
        match ld_metrics::validate_exposition(&read_or_die(prom_path)) {
            Ok(n) => println!("{prom_path}: valid exposition, {n} samples"),
            Err(e) => {
                eprintln!("{prom_path}: invalid exposition: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Opt-in fault injection for resilience drills (LD_FAULT / LD_FAULT_SEED).
    ld_faultinject::activate_from_env(0);
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let (positional, flags) = parse_args(command, rest);
    match (command.as_str(), positional.as_slice()) {
        ("generate", [label, out]) => cmd_generate(label, out),
        ("optimize", [path]) => cmd_optimize(path, &flags),
        ("predict", [path, rest @ ..]) if rest.len() <= 1 => {
            let horizon = rest
                .first()
                .and_then(|h| h.parse().ok())
                .unwrap_or(3usize)
                .clamp(1, 1000);
            cmd_predict(path, horizon, &flags)
        }
        ("evaluate", [path]) => cmd_evaluate(path, &flags),
        ("trace-validate", [trace, rest @ ..]) if rest.len() <= 1 => {
            cmd_trace_validate(trace, rest.first().copied())
        }
        ("metrics-validate", [metrics, rest @ ..]) if rest.len() <= 1 => {
            cmd_metrics_validate(metrics, rest.first().copied())
        }
        ("list", []) => cmd_list(),
        _ => usage(),
    }
}
