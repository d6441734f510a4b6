//! `ld-loadgen` — replays the five Table I trace families against the
//! serving engine at a configurable tenant count and writes the stable,
//! schema-checked `BENCH_serve.json`.
//!
//! Phases:
//! 1. **Train**: one LSTM per trace family (tenants of a family share
//!    weights — which is exactly what makes them batchable).
//! 2. **Throughput**: the identical request schedule is answered twice —
//!    once on the retained per-tenant serial path, once on the fused
//!    batched path — and the speedup between the two is the headline
//!    number. Every serial/batched response pair must carry the same value
//!    bits and the same degraded flag before any timing is trusted: both
//!    paths run the forward training and validation run. A clean run must
//!    degrade no answer; under an `LD_FAULT` plan a lane poisoned on every
//!    retry is answered from the fallback.
//! 3. **Determinism**: two identically-seeded traced runs must produce
//!    bitwise-identical response streams (FNV digest), identical logical
//!    span trees and byte-identical events snapshots; an untraced third
//!    run must produce the same digest (tracing is a pure observer).
//! 4. **Overload**: a half-capacity admission queue sheds deterministically;
//!    the shed rate is recorded, and every request is answered or shed,
//!    never both.
//! 5. **Cache**: a capacity-constrained registry forces LRU spills and lazy
//!    rehydrations under a skewed access pattern; every request is
//!    answered and the hit rate is recorded.
//!
//! Every pass is a [`Pass`] value replayed by one driver, [`replay`]: after
//! its last scheduled tick it ticks on until the engine owes no answer, so
//! a pass answers or sheds every request it offers even under a fault plan.
//!
//! Modes: full (default, writes `BENCH_serve.json` + a provenance
//! manifest) and `--smoke` (tiny counts, all checks, writes nothing unless
//! `--out` is given — wired into `scripts/ci.sh`). `--check PATH` reads an
//! existing document into its report type, schema checks included, then
//! replays its batched, overload and cache passes (the document's seed,
//! tenants, ticks and mode) and exits non-zero unless that recomputes the
//! committed `response_digest` and every other deterministic field bit for
//! bit. `--check-resilience PATH` does the same for a
//! `BENCH_resilience.json` document, replaying its first chaos pass (seed,
//! chaos seed, tenants, ticks and mode).
//!
//! `--chaos` switches to the resilience soak: a fault-free baseline pass
//! records every tenant's model-path answer bits, then two identically-
//! seeded chaos passes replay the same schedule under a seed-keyed
//! [`ChaosSchedule`] (slow shards, snapshot corruption, crash-torn spills,
//! NaN-poisoned batches, burst overload) and must (a) answer or explicitly
//! shed every request — no hangs, (b) leave every unaffected tenant's
//! model-path bits identical to the baseline, and (c) agree bitwise with
//! each other (digest + span tree + events). The result is the
//! schema-checked `BENCH_resilience.json`.
//!
//! Observability is the one `LD_TRACE` knob: set, the batched throughput
//! pass (under `--chaos`, the first chaos pass) runs traced and writes its
//! artifact set — Chrome trace, `.folded`, `.events.json` with the
//! engine's `serve.*` counters, gauges, histograms and events,
//! `.manifest.json`, and the same series as a Prometheus exposition at
//! `.prom`. Unset, that pass runs untraced.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::PathBuf;

// Wall-clock reads below time *how long* passes take; they never influence
// *what* any response contains (composition, shed, and eviction decisions
// are all seed/occupancy-derived).
use std::time::Instant;

use ld_api::stats::count_to_f64;
use ld_api::MinMaxScaler;
use ld_faultinject::chaos::ChaosSchedule;
use ld_faultinject::{splitmix64, FaultPlan};
use ld_metrics::{SloConfig, SloTracker, SpanProfile};
use ld_nn::{
    make_windows, Adam, AdamConfig, ForecasterConfig, LstmForecaster, TrainOptions, Trainer,
};
use ld_serve::{
    percentile_ns, response_digest, ClientKey, EngineConfig, ExecMode, LatencyBucket,
    LifecycleConfig, ModelSnapshot, RegistryConfig, Request, ResilienceBenchReport, Response,
    ServeEngine, ServeBenchReport, ServeStats, SnapshotStore, SupervisorConfig,
    RESILIENCE_SCHEMA_VERSION, SERVE_SCHEMA_VERSION,
};
use ld_telemetry::artifacts::{dump_trace, trace_from_env};
use ld_telemetry::{
    validate_chrome_trace, Artifact, HexDigest, Histogram, RunManifest, TraceSnapshot, Tracer,
};
use ld_traces::{TraceConfig, WorkloadKind};
use serde::Serialize;

/// Observations each tenant has accumulated before the first tick.
const WARMUP_INTERVALS: usize = 48;

/// Burst-overload requests get ids in a disjoint band so the isolation
/// check can tell scheduled load from chaos-injected extra load.
const BURST_BASE: u64 = 1 << 40;

/// Registry shards of every engine (and of the chaos schedule's targets).
const SHARDS: usize = 16;

/// Ticks a pass may take after its schedule to answer what it still owes:
/// max backoff and deferral are a handful of ticks, so a queue that has not
/// drained by then is a hang.
const SETTLE_TICKS: usize = 64;

/// Ticks past a chaos event's end during which a burn-rate alert is still
/// attributed to that event: the short window keeps burning for
/// `short_window` (4) ticks after the last bad answer, and the machinery
/// keeps producing degraded answers for up to breaker cooldown (4) +
/// retry backoff (~4) + supervisor drain/recovery (~4) ticks after the
/// fault itself clears.
const ALERT_GRACE_TICKS: u64 = 16;

/// The document fields a `--check` replay does not recompute: the
/// wall-clock timings, and `isolation_clean`, which needs the chaos
/// baseline pass. It compares every other field.
const UNCHECKED: [&str; 9] = [
    "p50_tick_ns",
    "p95_tick_ns",
    "p99_tick_ns",
    "throughput_rps",
    "serial_secs",
    "batched_secs",
    "speedup_batched_vs_serial",
    "latency_histogram",
    "isolation_clean",
];

struct Cfg {
    smoke: bool,
    chaos: bool,
    top: bool,
    tenants: usize,
    ticks: usize,
    seed: u64,
    chaos_seed: u64,
    out: Option<String>,
    store_root: PathBuf,
    /// The `LD_FAULT` plan every trace build and engine of the run shares
    /// (disarmed under `--chaos`, whose schedule arms each tick's own).
    faults: FaultPlan,
}

/// One tenant: key, its jittered series, and its fitted scaler.
struct Tenant {
    key: ClientKey,
    family: usize,
    series: Vec<f64>,
    scaler: MinMaxScaler,
}

/// The trained family models and the tenant fleet every pass serves.
struct Fleet {
    models: Vec<LstmForecaster>,
    tenants: Vec<Tenant>,
    /// Observations per request window (every family's model reads as many).
    history_len: usize,
}

fn parse_args() -> Result<Cfg, i32> {
    let mut smoke = false;
    let mut chaos = false;
    let mut top = false;
    let mut tenants: Option<usize> = None;
    let mut ticks: Option<usize> = None;
    let mut seed = 42u64;
    let mut chaos_seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut store_root = PathBuf::from("target/ld-serve-loadgen");
    let mut check: Option<String> = None;
    let mut check_resilience: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--chaos" => chaos = true,
            "--top" => top = true,
            "--tenants" => tenants = Some(take("--tenants").parse().expect("--tenants: integer")),
            "--ticks" => ticks = Some(take("--ticks").parse().expect("--ticks: integer")),
            "--seed" => seed = take("--seed").parse().expect("--seed: integer"),
            "--chaos-seed" => {
                chaos_seed = Some(take("--chaos-seed").parse().expect("--chaos-seed: integer"));
            }
            "--out" => out = Some(take("--out")),
            "--store" => store_root = PathBuf::from(take("--store")),
            "--check" => check = Some(take("--check")),
            "--check-resilience" => check_resilience = Some(take("--check-resilience")),
            "--help" | "-h" => {
                println!(
                    "ld-loadgen [--smoke] [--chaos] [--top] [--tenants N] [--ticks N] [--seed S] \
                     [--chaos-seed S] [--out PATH] [--store DIR] [--check BENCH_serve.json] \
                     [--check-resilience BENCH_resilience.json]\n\
                     full mode replays all five trace families at N tenants and writes \
                     BENCH_serve.json;\n--chaos runs the resilience soak (baseline + two \
                     identically-seeded chaos passes) and writes BENCH_resilience.json;\n\
                     --top prints periodic ld-top interval summaries during the batched \
                     pass;\n--smoke runs tiny counts with every check and writes nothing \
                     unless --out is given;\n--check / --check-resilience validate an \
                     existing document against its schema (exit 2 on violation), then \
                     replay the document's batched, overload and cache passes \
                     (--check-resilience: its first chaos pass) to recompute its \
                     response_digest and every other field but timings (exit 1 naming \
                     the first that differs);\n\
                     LD_TRACE=1|PATH traces the batched pass (--chaos: the first chaos \
                     pass) and writes PATH (default trace.json), PATH.folded, \
                     PATH.events.json, PATH.manifest.json and the PATH.prom exposition"
                );
                return Err(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                return Err(2);
            }
        }
    }
    if let Some(path) = check {
        return Err(check_replay(&path, false, store_root));
    }
    if let Some(path) = check_resilience {
        return Err(check_replay(&path, true, store_root));
    }
    let (default_tenants, default_ticks) = match (smoke, chaos) {
        (true, false) => (24, 6),
        // Chaos smoke needs a horizon long enough for every fault family
        // to open at least one window and still settle.
        (true, true) => (24, 24),
        (false, _) => (2000, 60),
    };
    let default_out = if chaos { "BENCH_resilience.json" } else { "BENCH_serve.json" };
    Ok(Cfg {
        smoke,
        chaos,
        top,
        tenants: tenants.unwrap_or(default_tenants),
        ticks: ticks.unwrap_or(default_ticks),
        seed,
        // The chaos-schedule seed is decorrelated from the load seed unless
        // pinned with --chaos-seed.
        chaos_seed: chaos_seed.unwrap_or(seed ^ 0xCA05_CA05_CA05_CA05),
        out: out.or_else(|| (!smoke).then(|| default_out.to_string())),
        store_root,
        faults: FaultPlan::disarmed(),
    })
}

impl Cfg {
    /// The run's scale, as documents record it.
    fn mode(&self) -> &'static str {
        if self.smoke { "smoke" } else { "full" }
    }
}

/// The provenance every manifest of this run starts from.
fn run_manifest(cfg: &Cfg, mode: &str) -> RunManifest {
    RunManifest::new("ld-loadgen")
        .seed(cfg.seed)
        .config("mode", mode)
        .config("tenants", cfg.tenants)
        .config("ticks", cfg.ticks)
        .config("families", WorkloadKind::ALL.len())
}

/// Writes a traced pass's artifact set when `LD_TRACE` asked for one: the
/// Prometheus exposition of its series, validated first (the bench must
/// never publish an artifact its own validator rejects) and listed in the
/// manifest, then the trace, folded stacks, events and manifest.
fn dump_traced_pass(tracer: &Tracer, trace_out: &Option<String>, manifest: RunManifest) {
    let Some(path) = trace_out else {
        return;
    };
    let exposition = ld_metrics::to_prometheus(&tracer.events());
    ld_metrics::validate_exposition(&exposition).expect("exposition must validate");
    let prom = Artifact::Exposition.path(path);
    std::fs::write(&prom, exposition).expect("write exposition");
    dump_trace(
        tracer,
        trace_out,
        manifest.output(Artifact::Exposition.kind(), prom),
    );
}

/// Validates a generated document, then writes it and its provenance
/// manifest to `--out`; with no `--out` (smoke mode) writes nothing.
fn write_document<R: Serialize>(
    cfg: &Cfg,
    report: &R,
    parse: fn(&str) -> Result<R, String>,
    manifest: RunManifest,
) {
    let text = serde_json::to_string_pretty(report).expect("serialize document");
    parse(&text).expect("generated document must validate");
    let Some(path) = &cfg.out else {
        println!("smoke mode: all invariants checked, nothing written");
        return;
    };
    std::fs::write(path, text + "\n").expect("write document");
    println!("wrote {path}");
    let manifest_path = format!("{path}.manifest.json");
    manifest
        .capture_env()
        .output("bench", path)
        .write_json(&manifest_path)
        .expect("write manifest");
    println!("wrote {manifest_path}");
}

/// `--check` / `--check-resilience`: reads the document (schema checks
/// included), then replays the passes its fields come from (a
/// `BENCH_serve.json`'s batched, overload and cache passes, a
/// `BENCH_resilience.json`'s first chaos pass) with the document's seed,
/// tenants, ticks and mode, and its chaos seed, and compares every field
/// the replay recomputes. The digest hashes every answer's bits, so a match
/// proves training, the fault schedule and serving still compute what the
/// document was generated from; the counts prove the same of admission,
/// the registry and the engine's lifecycle.
fn check_replay(path: &str, chaos: bool, store_root: PathBuf) -> i32 {
    let what = if chaos { "BENCH_resilience" } else { "BENCH_serve" };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    // The settings the passes are replayed with, and the document's fields.
    let read = if chaos {
        ResilienceBenchReport::parse(&text)
            .map(|r| (r.mode.clone(), r.seed, r.tenants, r.ticks, r.chaos_seed, r.to_value()))
    } else {
        ServeBenchReport::parse(&text)
            .map(|r| (r.mode.clone(), r.seed, r.tenants, r.ticks, 0, r.to_value()))
    };
    let (mode, seed, tenants, ticks, chaos_seed, doc) = match read {
        Ok(read) => read,
        Err(why) => {
            eprintln!("{path}: INVALID {what} document: {why}");
            return 2;
        }
    };
    let count = |n: u64| usize::try_from(n).expect("count fits usize");
    let cfg = Cfg {
        smoke: mode == "smoke",
        chaos,
        top: false,
        tenants: count(tenants),
        ticks: count(ticks),
        seed,
        chaos_seed,
        out: None,
        store_root,
        faults: FaultPlan::disarmed(),
    };
    println!("{path}: valid {what} document");
    println!(
        "{path}: replaying the {} ({} tenants x {} ticks, {mode}, seed {}{})",
        if chaos { "first chaos pass" } else { "batched, overload and cache passes" },
        cfg.tenants,
        cfg.ticks,
        cfg.seed,
        if chaos { format!(", chaos seed {}", cfg.chaos_seed) } else { String::new() }
    );
    let fleet = train_fleet(&cfg);
    let got = if chaos {
        let schedule = chaos_schedule(&cfg);
        let pass = Pass::chaos(&cfg, "chaos-0", Some(&schedule), Tracer::disabled());
        // `isolation_clean` is not compared, so any value stands in.
        resilience_report(&cfg, &schedule, &replay(&cfg, &fleet, pass), true).to_value()
    } else {
        let batched = replay(&cfg, &fleet, batched_pass(&cfg));
        let (shed_rate, cache_hit_rate) = (overload(&cfg, &fleet), cache(&cfg, &fleet));
        // No serial pass runs: the timings are not compared.
        serve_report(&cfg, &batched, 0.0, shed_rate, cache_hit_rate).to_value()
    };
    let json = |v: &serde_json::Value| serde_json::to_string(v).expect("serialize field");
    let mut recomputed = Vec::new();
    for (field, want) in doc.as_object().expect("a document is an object") {
        if UNCHECKED.contains(&field.as_str()) {
            continue;
        }
        if got[field.as_str()] != *want {
            let (want, got) = (json(want), json(&got[field.as_str()]));
            eprintln!("{path}: {field} MISMATCH: document {want}, replay {got}");
            return 1;
        }
        recomputed.push(format!("{field} {}", json(want)));
    }
    println!("{path}: {} recomputed bit for bit", recomputed.join(", "));
    0
}

/// Uniform in `[0, 1)` from the top 32 bits (u32 -> f64 is exact).
fn unit(bits: u64) -> f64 {
    const SCALE: f64 = 1.0 / 4_294_967_296.0; // 2^-32
    f64::from(u32::try_from(bits >> 32).expect("top 32 bits")) * SCALE
}

/// Trains one model per trace family on its scaled series, then builds the
/// tenant fleet: tenant `i` replays family `i % 5` with a deterministic
/// per-tenant affine jitter and its own fitted scaler.
fn train_fleet(cfg: &Cfg) -> Fleet {
    // Deep-narrow wins for batched serving on this workload: stacking three
    // H=8 layers keeps accuracy in family while shifting work into the
    // blocked GEMMs, where the fused path's advantage over per-tenant
    // mat-vecs is largest (small dots are prologue-bound serially).
    let (hist, hidden, layers, epochs) = if cfg.smoke { (8, 8, 2, 2) } else { (20, 8, 3, 4) };
    let (models, series): (Vec<LstmForecaster>, Vec<Vec<f64>>) = WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(f, &kind)| {
            let trace = TraceConfig {
                kind,
                interval_mins: kind.intervals()[0],
            };
            let series = trace
                .build_reported(cfg.seed ^ (f as u64), &cfg.faults)
                .0
                .values;
            let scaler = MinMaxScaler::fit(&series);
            let scaled: Vec<f64> = series.iter().map(|&v| scaler.transform(v)).collect();
            let samples = make_windows(&scaled, hist);
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len: hist,
                hidden_size: hidden,
                num_layers: layers,
                seed: cfg.seed.wrapping_add(f as u64),
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size: 32,
                max_epochs: epochs,
                patience: 0,
                shuffle_seed: cfg.seed ^ 0xabcd,
                ..TrainOptions::default()
            });
            let mut opt = Adam::new(AdamConfig::default());
            trainer.fit(&mut model, &mut opt, &samples, &[]);
            (model, series)
        })
        .unzip();
    let tenants = (0..cfg.tenants)
        .map(|t| {
            let family = t % series.len();
            let bits = splitmix64(cfg.seed ^ (t as u64).rotate_left(17));
            let scale = 0.5 + unit(bits);
            let offset = 10.0 * unit(splitmix64(bits));
            let series: Vec<f64> = series[family].iter().map(|&v| v * scale + offset).collect();
            let scaler = MinMaxScaler::fit(&series);
            Tenant {
                key: ClientKey::new(
                    format!("tenant-{t:05}"),
                    WorkloadKind::ALL[family].short_name(),
                ),
                family,
                series,
                scaler,
            }
        })
        .collect();
    Fleet {
        history_len: models[0].config().history_len,
        models,
        tenants,
    }
}

/// Which tenants ask at a scheduled tick.
#[derive(Clone, Copy)]
enum Load {
    /// Every tenant; tenant `i` asks with id `tick * tenants + i`.
    Schedule,
    /// Skewed access: the first `hot` tenants every tick plus a rotating
    /// cold slice of as many, ids numbered in offer order across ticks.
    HotCold { hot: usize },
}

/// One replay of the load through a freshly provisioned engine: everything
/// that differs between the throughput, determinism, overload, cache and
/// chaos passes.
struct Pass<'a> {
    /// Names the pass's snapshot-store directory.
    phase: String,
    mode: ExecMode,
    /// The pass serves the fleet's first `tenants` tenants.
    tenants: usize,
    /// Scheduled ticks; the pass then settles.
    ticks: usize,
    queue_capacity: usize,
    capacity_per_shard: usize,
    supervisor: SupervisorConfig,
    /// The chaos timeline: each tick's fault plan, slow shards and burst,
    /// and the store recoveries that close crash windows.
    schedule: Option<&'a ChaosSchedule>,
    load: Load,
    /// Scores each tick: good = non-degraded answers; degraded answers and
    /// sheds count against the budget.
    slo: SloConfig,
    tracer: Tracer,
    /// Print an ld-top interval summary every that-many ticks (0: never).
    top_every: usize,
}

impl<'a> Pass<'a> {
    /// A batched, untraced, fault-free pass of the tick schedule over the
    /// first `tenants` tenants, with room for all of them: the queue holds
    /// a whole tick and every tenant stays resident, so no tick pays LRU
    /// spill and rehydration I/O. (Sizing shards at the *average* occupancy,
    /// tenants/16, thrashes: FNV placement is uneven enough that half the
    /// shards overflow and evict every tick. The cache pass constrains
    /// capacity to exercise exactly that.)
    fn new(phase: impl Into<String>, tenants: usize, ticks: usize) -> Self {
        Pass {
            phase: phase.into(),
            mode: ExecMode::Batched,
            tenants,
            ticks,
            queue_capacity: tenants.max(1),
            capacity_per_shard: tenants.max(1),
            supervisor: SupervisorConfig::default(),
            schedule: None,
            load: Load::Schedule,
            slo: SloConfig::default(),
            tracer: Tracer::disabled(),
            top_every: 0,
        }
    }

    /// A chaos-soak pass over the whole fleet: under `schedule`, or its
    /// fault-free baseline without one.
    fn chaos(cfg: &Cfg, phase: &str, schedule: Option<&'a ChaosSchedule>, tracer: Tracer) -> Self {
        Pass {
            // Headroom for bursts but not for the worst of them: a 1.5x
            // bound admits moderate bursts and deterministically sheds the
            // peaks.
            queue_capacity: (cfg.tenants + cfg.tenants / 2).max(2),
            // Resident capacity 2x the mean shard occupancy: steady state
            // stays in memory; spills and rehydrations come from
            // supervisor-ordered drains, which is exactly the machinery the
            // soak wants under fire. The aggressive supervisor makes NaN
            // windows escalate to drain-restarts.
            capacity_per_shard: (cfg.tenants / 8).max(4),
            supervisor: SupervisorConfig {
                degraded_ratio: 0.2,
                unhealthy_ticks: 2,
                recovery_ticks: 2,
            },
            schedule,
            // Looser than the throughput pass's target (faults are
            // scheduled), same multi-window alert rule.
            slo: SloConfig { target: 0.98, ..SloConfig::default() },
            tracer,
            ..Pass::new(phase, cfg.tenants, cfg.ticks)
        }
    }
}

/// The batched throughput pass, whose responses give the document's
/// digest. Tracing is a pure observer, so the digest is the same whether
/// or not `LD_TRACE` traces it.
fn batched_pass(cfg: &Cfg) -> Pass<'static> {
    Pass::new("batched", cfg.tenants, cfg.ticks)
}

/// What one pass produced.
struct Replay {
    responses: Vec<Response>,
    /// Requests offered, and the ids of those the queue shed.
    issued: u64,
    shed: Vec<u64>,
    /// Wall-clock nanoseconds of each scheduled tick's submits and tick.
    tick_ns: Vec<u64>,
    /// Seconds of every tick's submits and tick, settle ticks included.
    service_secs: f64,
    /// Entries the crash-window and final store recoveries quarantined.
    quarantined: u64,
    stats: ServeStats,
    slo: SloTracker,
    /// The pass's tracer: identically-seeded passes must agree on its
    /// events snapshot byte for byte, and `LD_TRACE` may dump it.
    tracer: Tracer,
}

/// The pass's engine over its own emptied store directory, armed with the
/// run's fault plan, every tenant of the pass provisioned.
fn build_engine(cfg: &Cfg, fleet: &Fleet, pass: &Pass<'_>) -> ServeEngine {
    let store = SnapshotStore::open(cfg.store_root.join(&pass.phase)).expect("open snapshot store");
    store.clear().expect("clear snapshot store");
    let mut engine = ServeEngine::new(
        EngineConfig {
            mode: pass.mode,
            queue_capacity: pass.queue_capacity,
            registry: RegistryConfig {
                shard_count: SHARDS,
                capacity_per_shard: pass.capacity_per_shard,
            },
            lifecycle: LifecycleConfig {
                supervisor: pass.supervisor,
                ..LifecycleConfig::default()
            },
        },
        store,
        pass.tracer.clone(),
    );
    engine.set_faults(cfg.faults.clone());
    for tenant in &fleet.tenants[..pass.tenants] {
        let model = fleet.models[tenant.family].clone();
        let snap = ModelSnapshot::new(model, tenant.scaler, fleet.history_len);
        engine.provision(tenant.key.clone(), snap);
    }
    engine
}

/// The tenant's request at `tick`: the last `history_len` of its first
/// `WARMUP_INTERVALS + tick` observations.
fn request(id: u64, tenant: &Tenant, tick: usize, history_len: usize) -> Request {
    let upto = (WARMUP_INTERVALS + tick).min(tenant.series.len());
    let lo = upto.saturating_sub(history_len);
    Request::new(id, tenant.key.clone(), tenant.series[lo..upto].to_vec())
}

/// Replays `pass` through a freshly built engine. Each scheduled tick
/// offers the load's requests (under a schedule, after arming the tick's
/// fault plan and slow shards, plus its burst), recording sheds, and ticks;
/// a closing crash window triggers a store recovery. Then the pass settles:
/// it ticks on, offering nothing, until the engine owes no answer. A clean
/// pass parks nothing and settles in zero ticks. Under a schedule the settle
/// runs with chaos off and ends in a final store recovery; an `LD_FAULT`
/// plan stays armed throughout. Settle ticks count toward service time and
/// the SLO, but are not latency samples.
fn replay(cfg: &Cfg, fleet: &Fleet, pass: Pass<'_>) -> Replay {
    let mut engine = build_engine(cfg, fleet, &pass);
    let tenants = &fleet.tenants[..pass.tenants];
    let n = tenants.len();
    let mut out = Replay {
        responses: Vec::with_capacity(n * pass.ticks),
        issued: 0,
        shed: Vec::new(),
        tick_ns: Vec::with_capacity(pass.ticks),
        service_secs: 0.0,
        quarantined: 0,
        stats: ServeStats::default(),
        slo: SloTracker::new(pass.slo),
        tracer: pass.tracer.clone(),
    };
    let recover = |engine: &mut ServeEngine| {
        let report = engine.recover_store().expect("store recovery");
        (report.quarantined_torn + report.quarantined_corrupt) as u64
    };
    let mut service_ns = 0u64;
    for tick in 0.. {
        let scheduled = tick < pass.ticks;
        let t = tick as u64;
        if let Some(s) = pass.schedule {
            let (faults, slow) = if scheduled {
                (FaultPlan::new(s.fault_plan_at(t)), s.slow_shards_at(t))
            } else {
                (FaultPlan::disarmed(), Vec::new())
            };
            engine.set_faults(faults);
            engine.set_shard_delays(&slow);
        }
        if !scheduled && engine.pending_work() == 0 {
            break;
        }
        assert!(
            tick < pass.ticks + SETTLE_TICKS,
            "{} pass failed to settle: {} requests still pending",
            pass.phase,
            engine.pending_work()
        );
        let mut reqs: Vec<Request> = match pass.load {
            _ if !scheduled => Vec::new(),
            Load::Schedule => tenants
                .iter()
                .enumerate()
                .map(|(i, tenant)| request((tick * n + i) as u64, tenant, tick, fleet.history_len))
                .collect(),
            Load::HotCold { hot } => {
                let cold = hot + (tick * hot) % (n - hot).max(1);
                tenants[..hot]
                    .iter()
                    .chain(tenants[cold.min(n)..].iter().take(hot))
                    .zip(out.issued..)
                    .map(|(tenant, id)| request(id, tenant, tick, fleet.history_len))
                    .collect()
            }
        };
        if let Some(s) = pass.schedule.filter(|_| scheduled) {
            // Burst overload: the schedule's permille of extra fleet load,
            // ids in the disjoint burst band.
            let extra = n * usize::try_from(s.burst_permille_at(t)).expect("permille") / 1000;
            reqs.extend(tenants.iter().take(extra).enumerate().map(|(i, tenant)| {
                request(BURST_BASE + (tick * n + i) as u64, tenant, tick, fleet.history_len)
            }));
        }
        let shed_before = out.shed.len();
        // ld-lint: allow(determinism, "per-tick latency measurement; answers do not depend on it")
        let started = Instant::now();
        for req in reqs {
            out.issued += 1;
            if let Err(back) = engine.submit(req) {
                out.shed.push(back.id);
            }
        }
        let answered = engine.tick();
        let ns = u64::try_from(started.elapsed().as_nanos()).expect("tick ns fits u64");
        service_ns += ns;
        let good = answered.iter().filter(|r| !r.degraded).count() as u64;
        let bad_shed = (out.shed.len() - shed_before) as u64;
        out.slo.record(t, good, answered.len() as u64 + bad_shed);
        out.responses.extend(answered);
        if !scheduled {
            continue;
        }
        out.tick_ns.push(ns);
        if pass.top_every > 0 && (tick + 1) % pass.top_every == 0 {
            let mut window = out.tick_ns[tick + 1 - pass.top_every..].to_vec();
            let p50 = percentile_ns(&mut window, 50);
            let p95 = percentile_ns(&mut window, 95);
            println!(
                "[ld-top] tick {:>5}/{}: interval p50 {}us p95 {}us, {} responses total, availability {:.4}",
                tick + 1,
                pass.ticks,
                p50 / 1000,
                p95 / 1000,
                out.responses.len(),
                out.slo.status().availability
            );
        }
        if pass.schedule.is_some_and(|s| s.crash_window_ends_at(t)) {
            // A crash window just closed: run the startup-style recovery
            // pass and count what it quarantined.
            engine.set_faults(FaultPlan::disarmed());
            out.quarantined += recover(&mut engine);
        }
    }
    if pass.schedule.is_some() {
        out.quarantined += recover(&mut engine);
    }
    assert_eq!(
        (out.responses.len() + out.shed.len()) as u64,
        out.issued,
        "{} pass: every request must be answered or explicitly shed — anything else is a hang",
        pass.phase
    );
    out.service_secs = service_ns as f64 / 1e9;
    out.stats = engine.stats();
    out
}

fn main() {
    let mut cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(code) => std::process::exit(code),
    };
    let (tracer, trace_out) = trace_from_env();
    if !cfg.chaos {
        // The chaos soak arms its engine's plan tick by tick; an ambient
        // LD_FAULT plan would fight the schedule.
        cfg.faults = ld_faultinject::plan_from_env(cfg.seed);
    }

    println!(
        "ld-loadgen: {} tenants x {} ticks over {} families (seed {}, {}{})",
        cfg.tenants,
        cfg.ticks,
        WorkloadKind::ALL.len(),
        cfg.seed,
        cfg.mode(),
        if cfg.chaos { ", chaos" } else { "" }
    );

    let fleet = train_fleet(&cfg);
    if cfg.chaos {
        run_chaos_soak(&cfg, &fleet, &trace_out);
    } else {
        run_serving(&cfg, &fleet, tracer, &trace_out);
    }
}

/// Phases 2 to 5 and the `BENCH_serve.json` document.
fn run_serving(cfg: &Cfg, fleet: &Fleet, tracer: Tracer, trace_out: &Option<String>) {
    // Phase 2: throughput, serial then batched, identical schedules.
    let serial = replay(
        cfg,
        fleet,
        Pass { mode: ExecMode::Serial, ..Pass::new("serial", cfg.tenants, cfg.ticks) },
    );
    let top_every = if cfg.top { (cfg.ticks / 6).max(1) } else { 0 };
    let batched = replay(cfg, fleet, Pass { tracer, top_every, ..batched_pass(cfg) });

    // Bitwise equivalence gate before any timing is trusted.
    assert!(
        serial.shed.is_empty() && batched.shed.is_empty(),
        "throughput pass must not shed"
    );
    assert_eq!(serial.responses.len(), batched.responses.len());
    for (s, b) in serial.responses.iter().zip(&batched.responses) {
        assert_eq!(s.id, b.id, "schedules diverged");
        assert_eq!(
            s.value.to_bits(),
            b.value.to_bits(),
            "serial vs batched bits differ for id {}: {} vs {}",
            s.id,
            s.value,
            b.value
        );
        // Under an armed plan a lane poisoned on every retry is answered
        // from the fallback, and both passes poison the same lanes.
        assert_eq!(s.degraded, b.degraded, "serial vs batched degraded differ for id {}", s.id);
        assert!(
            cfg.faults.is_armed() || !b.degraded,
            "throughput pass degraded id {}",
            s.id
        );
    }
    println!(
        "throughput: serial {:.3}s, batched {:.3}s -> {:.2}x (bitwise equal over {} responses)",
        serial.service_secs,
        batched.service_secs,
        serial.service_secs / batched.service_secs.max(1e-12),
        batched.responses.len()
    );

    // Phase 3: bitwise determinism + identical span trees on traced reruns.
    // Two runs are traced; a third runs untraced. The gates: the two
    // traced runs must agree on their span trees and byte-for-byte on
    // their events JSON, and the untraced run must produce the same
    // response digest (tracing is a pure observer).
    let det: Vec<Replay> = (0..3)
        .map(|run| {
            let tracer = if run < 2 { Tracer::enabled() } else { Tracer::disabled() };
            let phase = format!("determinism-{run}");
            let pass = Pass::new(phase, cfg.tenants.min(64), cfg.ticks.min(6));
            replay(cfg, fleet, Pass { tracer, ..pass })
        })
        .collect();
    let digest = response_digest(&det[0].responses);
    assert_eq!(
        digest,
        response_digest(&det[1].responses),
        "identically-seeded runs must produce bitwise-identical responses"
    );
    for (a, b) in det[0].responses.iter().zip(&det[1].responses) {
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
    assert_eq!(
        det[0].tracer.events().to_json(),
        det[1].tracer.events().to_json(),
        "identically-seeded runs must produce byte-identical events snapshots"
    );
    assert_eq!(
        digest,
        response_digest(&det[2].responses),
        "untraced run must be bitwise identical to the traced ones (pure observer)"
    );
    let trace = det[0].tracer.snapshot();
    assert_eq!(
        trace.logical_paths(),
        det[1].tracer.snapshot().logical_paths(),
        "identically-seeded runs must produce identical span trees"
    );
    let spans = validate_chrome_trace(&trace.to_chrome_trace()).expect("chrome trace valid");
    println!(
        "determinism: digest {digest:016x} stable across reruns (and with tracing off), \
         {spans} trace events validated, events snapshots byte-identical"
    );

    let (shed_rate, cache_hit_rate) = (overload(cfg, fleet), cache(cfg, fleet));
    let report = serve_report(cfg, &batched, serial.service_secs, shed_rate, cache_hit_rate);
    println!(
        "summary: p50 {}us p99 {}us per tick, {:.0} req/s, speedup {:.2}x",
        report.p50_tick_ns / 1000,
        report.p99_tick_ns / 1000,
        report.throughput_rps,
        report.speedup_batched_vs_serial
    );
    print_top_report(&batched.tick_ns, &batched.slo.status(), &trace);
    dump_traced_pass(
        &batched.tracer,
        trace_out,
        run_manifest(cfg, cfg.mode()).config("traced_pass", "batched"),
    );
    write_document(
        cfg,
        &report,
        ServeBenchReport::parse,
        run_manifest(cfg, cfg.mode())
            .config("history_len", fleet.history_len)
            .with_trace_summary(&trace),
    );
}

/// Phase 4: a half-capacity admission queue sheds deterministically. Every
/// request is answered or shed, exactly once, and the queue never holds
/// more than its bound. Returns the shed rate.
fn overload(cfg: &Cfg, fleet: &Fleet) -> f64 {
    let capacity = (cfg.tenants / 2).max(1);
    let pass = Pass::new("overload", cfg.tenants, cfg.ticks.min(4));
    let pass = replay(cfg, fleet, Pass { queue_capacity: capacity, ..pass });
    let admission = pass.stats.admission;
    let shed = pass.shed.len() as u64;
    assert_eq!((admission.admitted, admission.shed), (pass.issued - shed, shed));
    assert!(admission.peak_depth <= capacity, "queue bound violated");
    let answered: std::collections::BTreeSet<u64> = pass.responses.iter().map(|r| r.id).collect();
    assert_eq!(answered.len(), pass.responses.len(), "a request was answered twice");
    for id in &pass.shed {
        assert!(!answered.contains(id), "request {id} both shed and answered");
    }
    let shed_rate = fraction(shed, pass.issued);
    println!(
        "overload: {} answered + {shed} shed of {} requests (shed rate {shed_rate:.3}), \
         queue bound {capacity} held",
        answered.len(),
        pass.issued
    );
    shed_rate
}

/// Phase 5: a capacity-constrained registry under skewed access (the hot
/// tenants every tick, a rotating cold slice) spills and lazily rehydrates.
/// Every request is answered, and the lookups account for every answer and
/// retry. Returns the hit rate.
fn cache(cfg: &Cfg, fleet: &Fleet) -> f64 {
    let pass = Pass::new("cache", cfg.tenants, cfg.ticks.min(4));
    let pass = Pass {
        capacity_per_shard: (cfg.tenants / 64).max(1),
        load: Load::HotCold { hot: (cfg.tenants / 10).max(1) },
        ..pass
    };
    let pass = replay(cfg, fleet, pass);
    assert!(pass.shed.is_empty(), "cache pass must not shed");
    assert!(
        cfg.faults.is_armed() || pass.responses.iter().all(|r| !r.degraded),
        "cache pass degraded a tenant"
    );
    // Every lookup ends in an answer or a parked retry, and expiries and
    // open breakers answer without one, so the lookups count the served
    // requests plus the retries, less those two.
    let (stats, lifecycle) = (pass.stats.cache, pass.stats.lifecycle);
    assert_eq!(
        stats.hits + stats.misses,
        pass.stats.served + lifecycle.retries - lifecycle.expired - lifecycle.breaker_fallbacks,
        "cache accounting must sum to served requests"
    );
    let hit_rate = fraction(stats.hits, stats.hits + stats.misses);
    println!(
        "cache: {} of {} requests answered, {} hits / {} misses (rate {hit_rate:.3}), \
         {} evictions, {} rehydrations",
        pass.responses.len(),
        pass.issued,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.rehydrations
    );
    hit_rate
}

/// The `BENCH_serve.json` document of a run's passes.
fn serve_report(
    cfg: &Cfg,
    batched: &Replay,
    serial_secs: f64,
    shed_rate: f64,
    cache_hit_rate: f64,
) -> ServeBenchReport {
    let mut tick_ns = batched.tick_ns.clone();
    let requests = batched.responses.len() as u64;
    let mut tick_histogram = Histogram::new();
    for &ns in &batched.tick_ns {
        tick_histogram.record(ns);
    }
    let slo = batched.slo.status();
    ServeBenchReport {
        schema_version: SERVE_SCHEMA_VERSION,
        mode: cfg.mode().to_string(),
        seed: cfg.seed,
        tenants: cfg.tenants as u64,
        ticks: cfg.ticks as u64,
        families: WorkloadKind::ALL.len() as u64,
        requests,
        p50_tick_ns: percentile_ns(&mut tick_ns, 50),
        p95_tick_ns: percentile_ns(&mut tick_ns, 95),
        p99_tick_ns: percentile_ns(&mut tick_ns, 99),
        throughput_rps: count_to_f64(requests) / batched.service_secs.max(1e-12),
        serial_secs,
        batched_secs: batched.service_secs,
        speedup_batched_vs_serial: serial_secs / batched.service_secs.max(1e-12),
        shed_rate,
        cache_hit_rate,
        response_digest: HexDigest(response_digest(&batched.responses)),
        slo_target: slo.target,
        slo_availability: slo.availability,
        slo_budget_remaining: slo.budget_remaining,
        slo_alerts: slo.alerts,
        latency_histogram: tick_histogram
            .snapshot("loadgen.tick_ns")
            .buckets
            .iter()
            .map(|b| LatencyBucket { lo_ns: b.lo, hi_ns: b.hi, count: b.count })
            .collect(),
    }
}

/// The ld-top closing report: latency percentiles, the SLO / error-budget
/// line, and the hottest spans of `trace` by self time.
fn print_top_report(tick_ns: &[u64], slo: &ld_metrics::SloStatus, trace: &TraceSnapshot) {
    let mut sorted = tick_ns.to_vec();
    let (p50, p95, p99) = (
        percentile_ns(&mut sorted, 50),
        percentile_ns(&mut sorted, 95),
        percentile_ns(&mut sorted, 99),
    );
    println!(
        "[ld-top] latency: p50 {}us p95 {}us p99 {}us over {} ticks",
        p50 / 1000,
        p95 / 1000,
        p99 / 1000,
        tick_ns.len()
    );
    println!(
        "[ld-top] slo: target {:.3}, availability {:.4} ({}/{} good), \
         budget remaining {:.1}%, burn short {:.2} long {:.2}, {} alerts",
        slo.target,
        slo.availability,
        slo.good,
        slo.total,
        100.0 * slo.budget_remaining,
        slo.short_burn,
        slo.long_burn,
        slo.alerts
    );
    let profile = SpanProfile::from_trace(trace);
    if !profile.entries().is_empty() {
        println!("[ld-top] hottest spans by self time:");
        print!("{}", profile.render(5));
    }
}

/// The seed-keyed fault timeline every chaos pass of `cfg` replays, over
/// the engine's shards.
fn chaos_schedule(cfg: &Cfg) -> ChaosSchedule {
    ChaosSchedule::generate(cfg.chaos_seed, cfg.ticks as u64, SHARDS as u64)
}

/// The `--chaos` soak: baseline pass, two identically-seeded chaos passes,
/// the isolation / determinism gates, and the `BENCH_resilience.json`
/// document.
fn run_chaos_soak(cfg: &Cfg, fleet: &Fleet, trace_out: &Option<String>) {
    let schedule = chaos_schedule(cfg);
    println!(
        "chaos: seed {} -> {} events over {} ticks (digest {:016x})",
        cfg.chaos_seed,
        schedule.events().len(),
        cfg.ticks,
        schedule.digest()
    );

    // Fault-free baseline: the per-request model-path answer bits every
    // unaffected tenant must reproduce under chaos.
    let baseline = replay(cfg, fleet, Pass::chaos(cfg, "chaos-baseline", None, Tracer::disabled()));
    assert!(baseline.shed.is_empty(), "fault-free baseline must not shed");
    assert!(
        baseline.slo.alerts().is_empty(),
        "fault-free baseline must not fire burn-rate alerts, got {:?}",
        baseline.slo.alerts()
    );
    let mut base_bits = std::collections::BTreeMap::new();
    for r in &baseline.responses {
        assert!(!r.degraded, "fault-free baseline degraded id {}", r.id);
        base_bits.insert(r.id, r.value.to_bits());
    }

    // Two identically-seeded chaos passes. Each answers or sheds every
    // request it issues (the driver's settle gate).
    let p0 = replay(cfg, fleet, Pass::chaos(cfg, "chaos-0", Some(&schedule), Tracer::enabled()));
    let p1 = replay(cfg, fleet, Pass::chaos(cfg, "chaos-1", Some(&schedule), Tracer::enabled()));

    // Gate 1 — determinism: the same seeds replay the same catastrophe,
    // bit for bit, span for span.
    let digest = response_digest(&p0.responses);
    assert_eq!(
        digest,
        response_digest(&p1.responses),
        "identically-seeded chaos runs must produce bitwise-identical responses"
    );
    let trace = p0.tracer.snapshot();
    assert_eq!(
        trace.logical_paths(),
        p1.tracer.snapshot().logical_paths(),
        "identically-seeded chaos runs must produce identical span trees"
    );
    assert_eq!((p0.issued, &p0.shed), (p1.issued, &p1.shed));
    assert_eq!(p0.quarantined, p1.quarantined);
    assert_eq!(
        p0.slo.alerts(),
        p1.slo.alerts(),
        "identically-seeded chaos runs must fire identical burn-rate alerts"
    );
    assert_eq!(
        p0.tracer.events().to_json(),
        p1.tracer.events().to_json(),
        "identically-seeded chaos runs must produce byte-identical events snapshots"
    );

    // Gate 1b — alert containment: every burn-rate alert must land inside
    // a scheduled fault window (plus ALERT_GRACE_TICKS of aftermath). An
    // alert outside every window would mean the SLO tracker is reacting
    // to something the chaos schedule did not cause.
    for alert in p0.slo.alerts() {
        let contained = schedule.events().iter().any(|e| {
            alert.tick >= e.start
                && alert.tick < e.start + e.duration + ALERT_GRACE_TICKS
        });
        assert!(
            contained,
            "burn-rate alert at tick {} (short {:.2}, long {:.2}) is outside every \
             scheduled fault window",
            alert.tick, alert.short_burn, alert.long_burn
        );
    }

    // Gate 2 — isolation: a model-path (non-degraded) answer for scheduled
    // load must be bitwise identical to the fault-free baseline. Faults may
    // force a tenant onto the fallback; they may never bend a healthy
    // tenant's bits.
    let mut compared = 0u64;
    let mut perturbed = 0u64;
    for r in p0.responses.iter().filter(|r| r.id < BURST_BASE && !r.degraded) {
        let bits = base_bits
            .get(&r.id)
            .unwrap_or_else(|| panic!("chaos answered id {} the baseline never saw", r.id));
        compared += 1;
        if *bits != r.value.to_bits() {
            perturbed += 1;
            eprintln!(
                "isolation violation: id {} answered {} under chaos vs baseline {}",
                r.id,
                r.value,
                f64::from_bits(*bits)
            );
        }
    }
    let isolation_clean = perturbed == 0;
    assert!(
        isolation_clean,
        "{perturbed} of {compared} unaffected answers were perturbed by co-tenant faults"
    );

    let report = resilience_report(cfg, &schedule, &p0, isolation_clean);
    println!(
        "chaos soak: availability {:.4} ({} answered + {} shed of {} issued), \
         {} isolated answers verified bit-identical",
        report.availability, report.answered, report.shed, report.issued, compared
    );
    println!(
        "resilience: {} retries, {} deferrals, {} breaker trips, {} drains, \
         {} quarantined, fallback fraction {:.4}, digest {digest:016x}",
        report.retries,
        report.deferrals,
        report.breaker_trips,
        report.shard_drains,
        report.quarantined,
        report.fallback_fraction
    );
    let slo_status = p0.slo.status();
    print_top_report(&p0.tick_ns, &slo_status, &trace);
    for alert in p0.slo.alerts() {
        println!(
            "[ld-top] burn-rate alert at tick {}: short {:.2} long {:.2} (contained in a \
             fault window)",
            alert.tick, alert.short_burn, alert.long_burn
        );
    }
    let mode = format!("chaos-{}", cfg.mode());
    dump_traced_pass(
        &p0.tracer,
        trace_out,
        run_manifest(cfg, &mode)
            .config("chaos_seed", cfg.chaos_seed)
            .config("traced_pass", "chaos-0"),
    );
    write_document(
        cfg,
        &report,
        ResilienceBenchReport::parse,
        run_manifest(cfg, &mode)
            .config("chaos_seed", cfg.chaos_seed)
            .config("chaos_events", schedule.events().len())
            .config("slo_alerts", slo_status.alerts)
            .with_trace_summary(&trace),
    );
}

/// The `BENCH_resilience.json` document of a chaos pass under `schedule`.
fn resilience_report(
    cfg: &Cfg,
    schedule: &ChaosSchedule,
    pass: &Replay,
    isolation_clean: bool,
) -> ResilienceBenchReport {
    let answered = pass.responses.len() as u64;
    let shed = pass.shed.len() as u64;
    let lifecycle = pass.stats.lifecycle;
    let degraded_answers = pass.responses.iter().filter(|r| r.degraded).count() as u64;
    let mut tick_ns = pass.tick_ns.clone();
    ResilienceBenchReport {
        schema_version: RESILIENCE_SCHEMA_VERSION,
        mode: cfg.mode().to_string(),
        seed: cfg.seed,
        chaos_seed: cfg.chaos_seed,
        tenants: cfg.tenants as u64,
        ticks: cfg.ticks as u64,
        families: WorkloadKind::ALL.len() as u64,
        chaos_events: schedule.events().len() as u64,
        schedule_digest: HexDigest(schedule.digest()),
        issued: pass.issued,
        answered,
        shed,
        availability: fraction(answered + shed, pass.issued),
        shed_rate: fraction(shed, pass.issued),
        p50_tick_ns: percentile_ns(&mut tick_ns, 50),
        p99_tick_ns: percentile_ns(&mut tick_ns, 99),
        fallback_fraction: fraction(degraded_answers, answered),
        expired_fraction: fraction(lifecycle.expired, answered),
        breaker_trips: lifecycle.breaker_trips,
        retries: lifecycle.retries,
        deferrals: lifecycle.deferrals,
        shard_drains: lifecycle.shard_drains,
        recovery_ticks: lifecycle.worst_recovery_ticks,
        quarantined: pass.quarantined,
        isolation_clean,
        response_digest: HexDigest(response_digest(&pass.responses)),
    }
}

/// `a / b` as a fraction in `[0, 1]`; 0 when `b` is 0. Counts stay far
/// below 2^32, so the u32 -> f64 conversions are exact.
fn fraction(a: u64, b: u64) -> f64 {
    if b == 0 {
        return 0.0;
    }
    count_to_f64(a) / count_to_f64(b)
}
