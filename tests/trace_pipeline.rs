//! Span-tracing pipeline regression: the `ld-trace` layer must (a) record
//! a deterministic span tree for a seeded run regardless of thread
//! scheduling, (b) never perturb the run it observes, and (c) export
//! valid Chrome trace-event JSON, folded flamegraph stacks and a
//! schema-valid run manifest.

use ld_api::Series;
use ld_telemetry::{
    validate_chrome_trace, validate_events, validate_folded, RunManifest, TraceSnapshot, Tracer,
};
use loaddynamics::{FrameworkConfig, LoadDynamics, OptimizationOutcome};

fn seasonal_series(len: usize) -> Series {
    Series::new(
        "seasonal",
        30,
        (0..len)
            .map(|i| 100.0 + 40.0 * (i as f64 * 0.3).sin())
            .collect(),
    )
}

/// A small traced fast-preset run: 3 init points + 1 BO iteration.
fn run_traced(seed: u64) -> (OptimizationOutcome, TraceSnapshot) {
    let tracer = Tracer::enabled();
    let mut config = FrameworkConfig::fast_preset(seed).with_tracer(tracer.clone());
    config.max_iters = 4;
    let outcome = LoadDynamics::new(config).optimize(&seasonal_series(220));
    (outcome, tracer.snapshot())
}

#[test]
fn identical_seeded_runs_produce_identically_ordered_span_trees() {
    let (_, a) = run_traced(1);
    let (_, b) = run_traced(1);
    let paths_a = a.logical_paths();
    let paths_b = b.logical_paths();
    assert!(!paths_a.is_empty(), "traced run recorded no spans");
    assert_eq!(
        paths_a, paths_b,
        "two identically-seeded runs must yield identically-ordered span trees"
    );
}

#[test]
fn span_tree_covers_the_search_hierarchy() {
    let (_, snap) = run_traced(2);
    let paths = snap.logical_paths();
    let has = |pred: &dyn Fn(&str) -> bool, what: &str| {
        assert!(
            paths.iter().any(|p| pred(p)),
            "span tree missing {what}; got roots like {:?}",
            &paths[..paths.len().min(12)]
        );
    };
    has(&|p| p == "search", "the `search` root");
    has(&|p| p.starts_with("search/init"), "init-design spans");
    has(&|p| p.starts_with("search/iter"), "BO iteration spans");
    has(&|p| p.contains("/surrogate_fit"), "surrogate-fit spans");
    has(&|p| p.contains("/propose"), "acquisition/propose spans");
    has(&|p| p.contains("/evaluate/train"), "candidate-train spans");
    has(&|p| p.contains("/train/epoch"), "train-epoch spans");
    has(&|p| p.contains("/epoch") && p.contains("/batch"), "mini-batch spans");
    has(&|p| p.contains("epoch") && p.ends_with("/validate"), "validation spans");
    // The winner is kept from its trial, never retrained.
    assert!(
        !paths.iter().any(|p| p.starts_with("search/retrain")),
        "a `search/retrain` span: the winner was trained twice"
    );
    // `batch` and `surrogate_fit` are leaves: per-kernel cost is timed by
    // ld-perfbench's kernel rows, not by spans.
    let below_leaf: Vec<String> = snap
        .spans
        .iter()
        .filter(|s| {
            s.path[..s.path.len() - 1]
                .iter()
                .any(|seg| seg.name == "batch" || seg.name == "surrogate_fit")
        })
        .map(|s| s.path_string())
        .collect();
    assert!(
        below_leaf.is_empty(),
        "{} span(s) below a `batch` or `surrogate_fit` leaf, e.g. {:?}",
        below_leaf.len(),
        &below_leaf[..below_leaf.len().min(4)]
    );
}

#[test]
fn tracing_is_a_pure_observer() {
    let traced = run_traced(3).0;
    let mut config = FrameworkConfig::fast_preset(3);
    config.max_iters = 4;
    let untraced = LoadDynamics::new(config).optimize(&seasonal_series(220));
    assert_eq!(traced.hyperparams, untraced.hyperparams);
    assert_eq!(
        traced.val_mape.to_bits(),
        untraced.val_mape.to_bits(),
        "enabling tracing must not change the search outcome"
    );
    assert_eq!(traced.trials.trials.len(), untraced.trials.trials.len());
    for (a, b) in traced.trials.trials.iter().zip(&untraced.trials.trials) {
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
}

#[test]
fn exporters_validate_and_roundtrip() {
    let (_, snap) = run_traced(4);

    let chrome = snap.to_chrome_trace();
    let events = validate_chrome_trace(&chrome).expect("chrome trace must validate");
    assert_eq!(events, snap.spans.len(), "one event per span");

    let folded = snap.to_folded();
    validate_folded(&folded).expect("folded stacks must validate");

    let restored = TraceSnapshot::from_json(&snap.to_json()).expect("snapshot JSON round-trip");
    assert_eq!(restored, snap);
}

#[test]
fn malformed_exports_are_rejected() {
    assert!(validate_chrome_trace("not json").is_err());
    assert!(validate_chrome_trace("{}").is_err());
    assert!(validate_chrome_trace(r#"{"traceEvents": []}"#).is_err());
    assert!(
        validate_chrome_trace(r#"{"traceEvents": [{"name": "x"}]}"#).is_err(),
        "events missing required fields must be rejected"
    );
    assert!(validate_folded("").is_err());
    assert!(validate_folded("stack notanumber\n").is_err());
    assert!(validate_folded("a;;b 10\n").is_err());
    assert!(validate_events("not json").is_err());
    assert!(
        validate_events(r#"{"counters": []}"#).is_err(),
        "an events file needs an events array"
    );
    let counters = |list: &str| {
        format!(r#"{{"counters": [{list}], "gauges": [], "histograms": [], "events": []}}"#)
    };
    assert_eq!(
        validate_events(&counters(r#"{"name": "a", "value": 1}"#)),
        Ok(0)
    );
    assert!(
        validate_events(&counters(
            r#"{"name": "b", "value": 1}, {"name": "a", "value": 2}"#
        ))
        .is_err(),
        "counters must be sorted by name"
    );
    assert!(
        validate_events(&counters(
            r#"{"name": "a", "value": 1}, {"name": "a", "value": 2}"#
        ))
        .is_err(),
        "counter names must be unique"
    );
    let event = |scope: &str, value: &str| {
        format!(
            r#"{{"scope": "{scope}", "kind": "epoch", "index": 0, "fields": [{{"name": "x", "value": {value}}}]}}"#
        )
    };
    let events = |list: &[String]| {
        format!(
            r#"{{"counters": [], "gauges": [], "histograms": [], "events": [{}]}}"#,
            list.join(",")
        )
    };
    let num = r#"{"Num": {"value": 0.5}}"#;
    assert_eq!(
        validate_events(&events(&[event("a", num), event("b", num)])),
        Ok(2)
    );
    assert!(
        validate_events(&events(&[event("", num)])).is_err(),
        "events need a scope"
    );
    assert!(
        validate_events(&events(&[event("b", num), event("a", num)])).is_err(),
        "events must be in logical order"
    );
    assert!(
        validate_events(&events(&[event("a", r#"{"Bogus": {"value": 1}}"#)])).is_err(),
        "field values must be typed"
    );
    assert!(
        validate_events(&events(&[event("a", "0.5")])).is_err(),
        "field values must be tagged"
    );
}

#[test]
fn run_manifest_stamps_and_roundtrips() {
    let (outcome, snap) = run_traced(5);
    let manifest = RunManifest::new("trace-pipeline-test")
        .seed(5)
        .config("series", "seasonal-220")
        .config("selected_hyperparams", outcome.hyperparams)
        .output("chrome_trace", "trace.json")
        .output("folded", "trace.json.folded")
        .with_trace_summary(&snap);
    manifest.validate().expect("manifest must validate");
    let restored = RunManifest::from_json(&manifest.to_json()).expect("manifest round-trip");
    restored.validate().expect("restored manifest must validate");
    assert_eq!(restored.tool, "trace-pipeline-test");
    assert_eq!(restored.seeds, vec![5]);
    assert_eq!(restored.trace_spans, snap.spans.len() as u64);
    assert_eq!(restored.output_path("chrome_trace"), Some("trace.json"));
}

#[test]
fn committed_manifests_parse_and_validate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(root).expect("read repo root") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("BENCH_") && name.ends_with(".json.manifest.json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read manifest");
        let manifest =
            RunManifest::from_json(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        manifest
            .validate()
            .unwrap_or_else(|e| panic!("{name} does not validate: {e}"));
        checked += 1;
    }
    assert!(checked > 0, "no committed BENCH_*.json.manifest.json found");
}

#[test]
fn disabled_tracer_records_nothing_through_the_full_pipeline() {
    let tracer = Tracer::disabled();
    let mut config = FrameworkConfig::fast_preset(6).with_tracer(tracer.clone());
    config.max_iters = 4;
    let _ = LoadDynamics::new(config).optimize(&seasonal_series(220));
    assert_eq!(tracer.snapshot(), TraceSnapshot::default());
}
