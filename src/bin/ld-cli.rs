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
//! series length. `optimize`, `predict` and `evaluate` accept one flag,
//! `--trace-out[=PATH]`: the run is observed by one tracer, and four
//! artifacts are written: Chrome trace-event JSON of the search/train spans
//! at `PATH` (default `trace.json`), folded flamegraph stacks at
//! `PATH.folded`, the counters and events at `PATH.events.json` (see the
//! README for the schema), and a run-provenance manifest at
//! `PATH.manifest.json`.
//!
//! Any other `--` argument is a usage error (exit 2), as is `--fast` for
//! any command but `optimize` and any flag for the other commands.
//!
//! `ld-cli trace-validate <trace.json> [manifest.json]` schema-checks a
//! traced run's artifact set — including the Prometheus exposition
//! `ld-loadgen` writes beside its set — and CI gates on it.
//!
//! Traces are plain text (`ld_api::Series::to_text` format): an optional
//! `# name interval_mins=N` header, then one JAR per line.

use ld_api::{predict_horizon, walk_forward, Partition, Predictor, Series};
use ld_baselines::{CloudInsight, CloudScale, WoodPredictor};
use ld_faultinject::FaultPlan;
use ld_telemetry::{Artifact, RunManifest, Tracer};
use ld_traces::all_configurations;
use loaddynamics::{FrameworkConfig, LoadDynamics};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ld-cli generate <config> <out.txt>\n  \
         ld-cli optimize <trace.txt> [--fast] [flags]\n  \
         ld-cli predict <trace.txt> [horizon] [flags]\n  \
         ld-cli evaluate <trace.txt> [flags]\n  \
         ld-cli trace-validate <trace.json> [manifest.json]\n  ld-cli list\n\n\
         flag for optimize:\n  \
         --fast               laptop-scale search whatever the series length\n\n\
         flag for optimize/predict/evaluate:\n  \
         --trace-out[=PATH]   spans, counters and events: PATH (default trace.json),\n                       \
         PATH.folded, PATH.events.json and PATH.manifest.json"
    );
    std::process::exit(2);
}

/// The flags `optimize`, `predict` and `evaluate` accept (`fast` is
/// `optimize`'s alone).
#[derive(Default)]
struct Flags {
    fast: bool,
    trace_out: Option<String>,
}

impl Flags {
    /// An enabled tracer when `--trace-out` was given.
    fn tracer(&self) -> Tracer {
        self.trace_out
            .as_ref()
            .map_or_else(Tracer::disabled, |_| Tracer::enabled())
    }

    /// Writes the trace artifacts of a finished run when `--trace-out` was
    /// given, exiting 1 if any write fails.
    fn dump(&self, tracer: &Tracer, tool: &str, config: &[(&str, String)]) {
        let Some(path) = &self.trace_out else {
            return;
        };
        let manifest = config
            .iter()
            .fold(RunManifest::new(tool).seed(0), |m, (key, value)| {
                m.config(key, value)
            });
        if let Err(e) = ld_telemetry::write_trace_artifacts(tracer, path, manifest) {
            eprintln!("cannot write trace artifacts to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace artifacts written to {path} and its siblings");
    }
}

/// Splits the arguments after `command` into positionals and [`Flags`],
/// exiting with the usage text on any `--` argument `command` does not
/// take.
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
        } else if arg.starts_with("--") {
            eprintln!("unknown flag `{arg}`");
            usage();
        } else {
            positional.push(arg);
        }
    }
    (positional, flags)
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

fn framework(series_len: usize, fast: bool, tracer: &Tracer, faults: &FaultPlan) -> LoadDynamics {
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
        };
        c
    };
    LoadDynamics::new(
        config
            .with_tracer(tracer.clone())
            .with_faults(faults.clone()),
    )
}

fn cmd_generate(label: &str, out: &str, faults: &FaultPlan) {
    let Some(config) = all_configurations().into_iter().find(|c| c.label() == label) else {
        eprintln!("unknown configuration '{label}' — see `ld-cli list`");
        std::process::exit(1);
    };
    let (series, _) = config.build_reported(0, faults);
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

fn cmd_optimize(path: &str, flags: &Flags, faults: &FaultPlan) {
    let series = read_series(path);
    println!(
        "optimizing on {} ({} intervals, {} min each)...",
        series.name,
        series.len(),
        series.interval_mins
    );
    let tracer = flags.tracer();
    let outcome = framework(series.len(), flags.fast, &tracer, faults).optimize(&series);
    println!("selected hyperparameters: {}", outcome.hyperparams);
    println!("cross-validation MAPE:    {:.2}%", outcome.val_mape);
    println!("trials evaluated:         {}", outcome.trials.trials.len());
    flags.dump(
        &tracer,
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

fn cmd_predict(path: &str, horizon: usize, flags: &Flags, faults: &FaultPlan) {
    let series = read_series(path);
    let tracer = flags.tracer();
    let outcome = framework(series.len(), false, &tracer, faults).optimize(&series);
    eprintln!(
        "tuned {} (val MAPE {:.1}%)",
        outcome.hyperparams, outcome.val_mape
    );
    let hyperparams = outcome.hyperparams;
    let mut predictor = outcome.predictor;
    let preds = predict_horizon(&mut predictor, &series.values, horizon);
    for (k, p) in preds.iter().enumerate() {
        println!("t+{}: {:.1}", k + 1, p);
    }
    flags.dump(
        &tracer,
        "ld-cli predict",
        &[
            ("trace", path.to_string()),
            ("series", series.name.clone()),
            ("horizon", horizon.to_string()),
            ("selected_hyperparams", hyperparams.to_string()),
        ],
    );
}

fn cmd_evaluate(path: &str, flags: &Flags, faults: &FaultPlan) {
    let series = read_series(path);
    let partition = Partition::paper_default(series.len());
    println!(
        "walk-forward over the last {} intervals:",
        series.len() - partition.val_end
    );
    let tracer = flags.tracer();
    let outcome = framework(series.len(), false, &tracer, faults).optimize(&series);
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
    }
    flags.dump(
        &tracer,
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

/// Schema-checks a Chrome trace emitted by `--trace-out` or `LD_TRACE`, its
/// `.folded`, `.events.json` and `.prom` exposition siblings and,
/// optionally, its run manifest. A sibling is checked when present; one
/// whose kind (`folded`, `events`, `exposition`) the manifest lists must
/// also exist, and the manifest's span and event
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
    let artifact = |artifact: Artifact| {
        let sibling = artifact.path(trace_path);
        let listed = manifest
            .as_ref()
            .is_some_and(|m| m.output_path(artifact.kind()).is_some());
        (listed || std::path::Path::new(&sibling).exists()).then_some(sibling)
    };
    if let Some(folded) = artifact(Artifact::Folded) {
        let lines = validate_file(&folded, "folded stacks", ld_telemetry::validate_folded);
        println!("{folded}: valid folded stacks, {lines} lines");
    }
    let events = artifact(Artifact::Events).map(|path| {
        let events = validate_file(&path, "events", ld_telemetry::validate_events);
        println!("{path}: valid events, {events} events");
        events
    });
    if let Some(prom) = artifact(Artifact::Exposition) {
        let samples = validate_file(&prom, "exposition", ld_metrics::validate_exposition);
        println!("{prom}: valid exposition, {samples} samples");
    }
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Opt-in fault injection for resilience drills (LD_FAULT / LD_FAULT_SEED).
    let faults = ld_faultinject::plan_from_env(0);
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let (positional, flags) = parse_args(command, rest);
    match (command.as_str(), positional.as_slice()) {
        ("generate", [label, out]) => cmd_generate(label, out, &faults),
        ("optimize", [path]) => cmd_optimize(path, &flags, &faults),
        ("predict", [path, rest @ ..]) if rest.len() <= 1 => {
            let horizon = rest
                .first()
                .and_then(|h| h.parse().ok())
                .unwrap_or(3usize)
                .clamp(1, 1000);
            cmd_predict(path, horizon, &flags, &faults)
        }
        ("evaluate", [path]) => cmd_evaluate(path, &flags, &faults),
        ("trace-validate", [trace, rest @ ..]) if rest.len() <= 1 => {
            cmd_trace_validate(trace, rest.first().copied())
        }
        ("list", []) => cmd_list(),
        _ => usage(),
    }
}
