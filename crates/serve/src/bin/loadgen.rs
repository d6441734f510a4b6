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
//!    the shed rate is recorded and no request may be both shed and
//!    answered.
//! 5. **Cache**: a capacity-constrained registry forces LRU spills and lazy
//!    rehydrations under a skewed access pattern; the hit rate is recorded.
//!
//! Modes: full (default, writes `BENCH_serve.json` + a provenance
//! manifest) and `--smoke` (tiny counts, all checks, writes nothing unless
//! `--out` is given — wired into `scripts/ci.sh`). `--check PATH` reads an
//! existing document into its report type, schema checks included, then
//! replays its batched pass (the document's seed, tenants, ticks and mode)
//! and exits non-zero unless that recomputes the committed
//! `response_digest` bit for bit.
//! `--check-resilience PATH` does the same for a `BENCH_resilience.json`
//! document, replaying its first chaos pass (seed, chaos seed, tenants,
//! ticks and mode).
//!
//! `--chaos` switches to the resilience soak: a fault-free baseline pass
//! records every tenant's model-path answer bits, then two identically-
//! seeded chaos passes replay the same schedule under a seed-keyed
//! [`ChaosSchedule`] (slow shards, snapshot corruption, crash-torn spills,
//! NaN-poisoned batches, burst overload) and must (a) answer or explicitly
//! shed every request — availability ≥ 99%, no hangs, (b) leave every
//! unaffected tenant's model-path bits identical to the baseline, and
//! (c) agree bitwise with each other (digest + span tree + events). The
//! result is the schema-checked `BENCH_resilience.json`.
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
use ld_telemetry::{validate_chrome_trace, Artifact, HexDigest, Histogram, RunManifest, Tracer};
use ld_traces::{TraceConfig, WorkloadKind};

/// Observations each tenant has accumulated before the first tick.
const WARMUP_INTERVALS: usize = 48;

/// Burst-overload requests get ids in a disjoint band so the isolation
/// check can tell scheduled load from chaos-injected extra load.
const BURST_BASE: u64 = 1 << 40;

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

/// Availability objective the batched throughput pass is scored against.
const THROUGHPUT_SLO: SloConfig = SloConfig {
    target: 0.99,
    short_window: 4,
    long_window: 12,
    short_burn: 1.0,
    long_burn: 1.0,
};

/// The chaos soak's objective: looser target (faults are scheduled), same
/// multi-window alert rule.
const CHAOS_SLO: SloConfig = SloConfig {
    target: 0.98,
    short_window: 4,
    long_window: 12,
    short_burn: 1.0,
    long_burn: 1.0,
};

/// Ticks past a chaos event's end during which a burn-rate alert is still
/// attributed to that event: the short window keeps burning for
/// `short_window` (4) ticks after the last bad answer, and the machinery
/// keeps producing degraded answers for up to breaker cooldown (4) +
/// retry backoff (~4) + supervisor drain/recovery (~4) ticks after the
/// fault itself clears.
const ALERT_GRACE_TICKS: u64 = 16;

/// One tenant: key, its jittered series, and its fitted scaler.
struct Tenant {
    key: ClientKey,
    family: usize,
    series: Vec<f64>,
    scaler: MinMaxScaler,
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
                     replay the document's batched pass (--check-resilience: its first \
                     chaos pass) to recompute its response_digest (exit 1 on a \
                     mismatch);\n\
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

/// `--check` / `--check-resilience`: reads the document (schema checks
/// included), then replays the pass its `response_digest` comes from (a
/// `BENCH_serve.json`'s batched pass, a `BENCH_resilience.json`'s first
/// chaos pass) with the document's seed, tenants, ticks and mode, and its
/// chaos seed. The digest hashes every answer's bits, so a match proves
/// training, the fault schedule and serving still compute what the
/// document was generated from.
fn check_replay(path: &str, chaos: bool, store_root: PathBuf) -> i32 {
    let what = if chaos { "BENCH_resilience" } else { "BENCH_serve" };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    // The settings the pass is replayed with, and the digest it must give.
    let read = if chaos {
        ResilienceBenchReport::parse(&text)
            .map(|r| (r.mode, r.seed, r.tenants, r.ticks, r.chaos_seed, r.response_digest))
    } else {
        ServeBenchReport::parse(&text)
            .map(|r| (r.mode, r.seed, r.tenants, r.ticks, 0, r.response_digest))
    };
    let (mode, seed, tenants, ticks, chaos_seed, want) = match read {
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
        if chaos { "first chaos pass" } else { "batched pass" },
        cfg.tenants,
        cfg.ticks,
        cfg.seed,
        if chaos { format!(", chaos seed {}", cfg.chaos_seed) } else { String::new() }
    );
    let families = train_family_models(&cfg);
    let history_len = families[0].0.config().history_len;
    let tenants = build_tenants(&cfg, &families);
    let responses = if chaos {
        let schedule = chaos_schedule(&cfg);
        let pass = run_chaos_pass(
            &cfg,
            &tenants,
            &families,
            history_len,
            Some(&schedule),
            "chaos-0",
            Tracer::disabled(),
        );
        pass.responses
    } else {
        let mut engine = batched_engine(&cfg, &tenants, &families, Tracer::disabled());
        run_pass(&mut engine, &tenants, cfg.ticks, history_len, None, 0).responses
    };
    let got = HexDigest(response_digest(&responses));
    if got == want {
        println!("{path}: response_digest {got} recomputed bit for bit");
        0
    } else {
        eprintln!("{path}: response_digest MISMATCH: document {want}, replay {got}");
        1
    }
}

/// Uniform in `[0, 1)` from the top 32 bits (u32 -> f64 is exact).
fn unit(bits: u64) -> f64 {
    const SCALE: f64 = 1.0 / 4_294_967_296.0; // 2^-32
    f64::from(u32::try_from(bits >> 32).expect("top 32 bits")) * SCALE
}

/// Trains one model per trace family on its scaled series; returns each
/// family's trained model and raw series.
fn train_family_models(cfg: &Cfg) -> Vec<(LstmForecaster, Vec<f64>)> {
    // Deep-narrow wins for batched serving on this workload: stacking three
    // H=8 layers keeps accuracy in family while shifting work into the
    // blocked GEMMs, where the fused path's advantage over per-tenant
    // mat-vecs is largest (small dots are prologue-bound serially).
    let (hist, hidden, layers, epochs) = if cfg.smoke { (8, 8, 2, 2) } else { (20, 8, 3, 4) };
    WorkloadKind::ALL
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
        .collect()
}

/// Builds the tenant fleet: tenant `i` replays family `i % 5` with a
/// deterministic per-tenant affine jitter and its own fitted scaler.
fn build_tenants(cfg: &Cfg, families: &[(LstmForecaster, Vec<f64>)]) -> Vec<Tenant> {
    (0..cfg.tenants)
        .map(|t| {
            let family = t % families.len();
            let bits = splitmix64(cfg.seed ^ (t as u64).rotate_left(17));
            let scale = 0.5 + unit(bits);
            let offset = 10.0 * unit(splitmix64(bits));
            let series: Vec<f64> = families[family]
                .1
                .iter()
                .map(|&v| v * scale + offset)
                .collect();
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
        .collect()
}

fn open_store(root: &std::path::Path, phase: &str) -> SnapshotStore {
    let store = SnapshotStore::open(root.join(phase)).expect("open snapshot store");
    store.clear().expect("clear snapshot store");
    store
}

fn engine_for(
    mode: ExecMode,
    queue_capacity: usize,
    capacity_per_shard: usize,
    store: SnapshotStore,
    tracer: Tracer,
    faults: &FaultPlan,
) -> ServeEngine {
    let mut engine = ServeEngine::new(
        EngineConfig {
            mode,
            queue_capacity,
            registry: RegistryConfig {
                shard_count: 16,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store,
        tracer,
    );
    engine.set_faults(faults.clone());
    engine
}

fn provision_all(
    engine: &mut ServeEngine,
    tenants: &[Tenant],
    families: &[(LstmForecaster, Vec<f64>)],
) {
    for tenant in tenants {
        let model = families[tenant.family].0.clone();
        let n = model.config().history_len;
        let snap = ModelSnapshot::new(model, tenant.scaler, n);
        engine.provision(tenant.key.clone(), snap);
    }
}

/// The engine of the batched throughput pass: every tenant provisioned and
/// resident, observed by `tracer`. Tracing is a pure observer, so the
/// response digest is the same whether or not `LD_TRACE` traces the pass.
fn batched_engine(
    cfg: &Cfg,
    tenants: &[Tenant],
    families: &[(LstmForecaster, Vec<f64>)],
    tracer: Tracer,
) -> ServeEngine {
    let mut engine = engine_for(
        ExecMode::Batched,
        cfg.tenants.max(1),
        cfg.tenants.max(1),
        open_store(&cfg.store_root, "batched"),
        tracer,
        &cfg.faults,
    );
    provision_all(&mut engine, tenants, families);
    engine
}

/// The deterministic request schedule: at tick `k`, every tenant asks for a
/// forecast given its history up to `WARMUP_INTERVALS + k` observations.
fn requests_at(tenants: &[Tenant], tick: usize, history_len: usize) -> Vec<Request> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let upto = (WARMUP_INTERVALS + tick).min(tenant.series.len());
            let lo = upto.saturating_sub(history_len);
            Request::new(
                (tick * tenants.len() + i) as u64,
                tenant.key.clone(),
                tenant.series[lo..upto].to_vec(),
            )
        })
        .collect()
}

struct PassResult {
    responses: Vec<Response>,
    elapsed_secs: f64,
    tick_ns: Vec<u64>,
}

/// Runs the full schedule through one engine, timing each tick into the
/// result's `tick_ns` (wall-clock, so never into the engine's tracer).
/// `slo` scores each tick (good = non-degraded answers); `top_every > 0`
/// prints an ld-top interval summary every that-many ticks.
fn run_pass(
    engine: &mut ServeEngine,
    tenants: &[Tenant],
    ticks: usize,
    history_len: usize,
    mut slo: Option<&mut SloTracker>,
    top_every: usize,
) -> PassResult {
    let mut responses = Vec::with_capacity(tenants.len() * ticks);
    let mut tick_ns = Vec::with_capacity(ticks);
    // Service time is the sum of per-tick (submit + tick) windows: the
    // wall span additionally counts the generator re-building request
    // objects each tick, which is harness cost, not engine work — charging
    // it to both passes would only blur the serial/batched contrast.
    let mut service_ns = 0u64;
    // After the last scheduled tick the pass ticks on until no retry is
    // parked, so it answers every request it submitted. A clean pass parks
    // nothing and settles in zero ticks; the settle is bounded like the
    // chaos soak's, since max backoff is a handful of ticks. Settle ticks
    // count toward service time and the SLO, but are not latency samples.
    for tick in 0.. {
        let scheduled = tick < ticks;
        if !scheduled && engine.pending_work() == 0 {
            break;
        }
        assert!(
            tick < ticks + 64,
            "throughput pass failed to settle: {} requests still pending",
            engine.pending_work()
        );
        let reqs = if scheduled {
            requests_at(tenants, tick, history_len)
        } else {
            Vec::new()
        };
        // ld-lint: allow(determinism, "per-tick latency measurement; answers do not depend on it")
        let tk = Instant::now();
        for req in reqs {
            engine.submit(req).expect("throughput pass must not shed");
        }
        let answered = engine.tick();
        let ns = u64::try_from(tk.elapsed().as_nanos()).expect("tick ns fits u64");
        service_ns += ns;
        if let Some(slo) = slo.as_deref_mut() {
            let good = answered.iter().filter(|r| !r.degraded).count() as u64;
            slo.record(tick as u64, good, answered.len() as u64);
        }
        responses.extend(answered);
        if !scheduled {
            continue;
        }
        tick_ns.push(ns);
        if top_every > 0 && (tick + 1) % top_every == 0 {
            let mut window = tick_ns[tick + 1 - top_every..].to_vec();
            let p50 = percentile_ns(&mut window, 50);
            let p95 = percentile_ns(&mut window, 95);
            let avail = slo.as_deref().map_or(1.0, |s| s.status().availability);
            println!(
                "[ld-top] tick {:>5}/{ticks}: interval p50 {}us p95 {}us, {} responses total, availability {avail:.4}",
                tick + 1,
                p50 / 1000,
                p95 / 1000,
                responses.len()
            );
        }
    }
    PassResult {
        responses,
        elapsed_secs: service_ns as f64 / 1e9,
        tick_ns,
    }
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
        if cfg.smoke { "smoke" } else { "full" },
        if cfg.chaos { ", chaos" } else { "" }
    );

    let families = train_family_models(&cfg);
    let history_len = families[0].0.config().history_len;
    let tenants = build_tenants(&cfg, &families);

    if cfg.chaos {
        run_chaos_soak(&cfg, &tenants, &families, history_len, &trace_out);
        return;
    }
    // Generous capacity for the timing phases: every tenant stays resident,
    // so no tick pays LRU spill + rehydration I/O. Sizing shards at the
    // *average* occupancy (tenants/16) thrashes — FNV placement is uneven
    // enough that half the shards overflow and evict every tick. The cache
    // phase below deliberately constrains capacity to exercise exactly that.
    let per_shard_full = cfg.tenants.max(1);

    // Phase 2: throughput, serial then batched, identical schedules.
    let mut serial_engine = engine_for(
        ExecMode::Serial,
        cfg.tenants.max(1),
        per_shard_full,
        open_store(&cfg.store_root, "serial"),
        Tracer::disabled(),
        &cfg.faults,
    );
    provision_all(&mut serial_engine, &tenants, &families);
    let serial = run_pass(&mut serial_engine, &tenants, cfg.ticks, history_len, None, 0);

    let mut batched_engine = batched_engine(&cfg, &tenants, &families, tracer);
    let mut slo = SloTracker::new(THROUGHPUT_SLO);
    let top_every = if cfg.top { (cfg.ticks / 6).max(1) } else { 0 };
    let batched = run_pass(
        &mut batched_engine,
        &tenants,
        cfg.ticks,
        history_len,
        Some(&mut slo),
        top_every,
    );

    // Bitwise equivalence gate before any timing is trusted.
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
    let speedup = serial.elapsed_secs / batched.elapsed_secs.max(1e-12);
    println!(
        "throughput: serial {:.3}s, batched {:.3}s -> {:.2}x (bitwise equal over {} responses)",
        serial.elapsed_secs,
        batched.elapsed_secs,
        speedup,
        batched.responses.len()
    );

    // Phase 3: bitwise determinism + identical span trees on traced reruns.
    // Two runs are traced; a third runs untraced. The gates: the two
    // traced runs must agree on their span trees and byte-for-byte on
    // their events JSON, and the untraced run must produce the same
    // response digest (tracing is a pure observer).
    let det_tenants = &tenants[..cfg.tenants.min(64)];
    let det_ticks = cfg.ticks.min(6);
    let mut det_snapshots = Vec::new();
    let mut det_results = Vec::new();
    let mut det_events_json = Vec::new();
    for run in 0..3 {
        let tracer = if run < 2 { Tracer::enabled() } else { Tracer::disabled() };
        let mut engine = engine_for(
            ExecMode::Batched,
            det_tenants.len(),
            det_tenants.len().max(1),
            open_store(&cfg.store_root, &format!("determinism-{run}")),
            tracer,
            &cfg.faults,
        );
        provision_all(&mut engine, det_tenants, &families);
        let pass = run_pass(&mut engine, det_tenants, det_ticks, history_len, None, 0);
        det_snapshots.push(engine.tracer().snapshot());
        det_events_json.push(engine.tracer().events().to_json());
        det_results.push(pass.responses);
    }
    let digest = response_digest(&det_results[0]);
    assert_eq!(
        digest,
        response_digest(&det_results[1]),
        "identically-seeded runs must produce bitwise-identical responses"
    );
    for (a, b) in det_results[0].iter().zip(&det_results[1]) {
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
    assert_eq!(
        det_events_json[0], det_events_json[1],
        "identically-seeded runs must produce byte-identical events snapshots"
    );
    assert_eq!(
        digest,
        response_digest(&det_results[2]),
        "untraced run must be bitwise identical to the traced ones (pure observer)"
    );
    assert_eq!(
        det_snapshots[0].logical_paths(),
        det_snapshots[1].logical_paths(),
        "identically-seeded runs must produce identical span trees"
    );
    let spans =
        validate_chrome_trace(&det_snapshots[0].to_chrome_trace()).expect("chrome trace valid");
    println!(
        "determinism: digest {digest:016x} stable across reruns (and with tracing off), \
         {spans} trace events validated, events snapshots byte-identical"
    );

    // The committed digest comes from the batched throughput pass.
    let bench_digest = response_digest(&batched.responses);

    // Phase 4: overload — half-capacity queue sheds deterministically.
    let shed_capacity = (cfg.tenants / 2).max(1);
    let mut shed_engine = engine_for(
        ExecMode::Batched,
        shed_capacity,
        per_shard_full,
        open_store(&cfg.store_root, "overload"),
        Tracer::disabled(),
        &cfg.faults,
    );
    provision_all(&mut shed_engine, &tenants, &families);
    let shed_ticks = cfg.ticks.min(4);
    let mut shed_ids = Vec::new();
    let mut answered_ids = Vec::new();
    for tick in 0..shed_ticks {
        for req in requests_at(&tenants, tick, history_len) {
            if let Err(back) = shed_engine.submit(req) {
                shed_ids.push(back.id);
            }
        }
        answered_ids.extend(shed_engine.tick().iter().map(|r| r.id));
    }
    let submitted = (tenants.len() * shed_ticks) as u64;
    let stats = shed_engine.stats();
    assert_eq!(stats.admission.admitted + stats.admission.shed, submitted);
    assert!(
        stats.admission.peak_depth <= shed_capacity,
        "queue bound violated"
    );
    let answered: std::collections::BTreeSet<u64> = answered_ids.iter().copied().collect();
    for id in &shed_ids {
        assert!(
            !answered.contains(id),
            "request {id} both shed and answered"
        );
    }
    let shed_rate = fraction(stats.admission.shed, submitted);
    println!(
        "overload: {}/{} shed (rate {:.3}), queue bound {} held",
        stats.admission.shed, submitted, shed_rate, shed_capacity
    );

    // Phase 5: capacity-constrained registry — spills, rehydrations, hits.
    let cache_capacity = (cfg.tenants / 64).max(1);
    let mut cache_engine = engine_for(
        ExecMode::Batched,
        cfg.tenants.max(1),
        cache_capacity,
        open_store(&cfg.store_root, "cache"),
        Tracer::disabled(),
        &cfg.faults,
    );
    provision_all(&mut cache_engine, &tenants, &families);
    let cache_ticks = cfg.ticks.min(4);
    let hot = (tenants.len() / 10).max(1);
    let mut next_id = 0u64;
    for tick in 0..cache_ticks {
        // Skewed access: hot tenants every tick, a rotating cold slice.
        let cold_start = hot + (tick * hot) % (tenants.len() - hot).max(1);
        let picks = tenants[..hot]
            .iter()
            .chain(tenants[cold_start.min(tenants.len())..].iter().take(hot));
        for tenant in picks {
            let upto = (WARMUP_INTERVALS + tick).min(tenant.series.len());
            let lo = upto.saturating_sub(history_len);
            cache_engine
                .submit(Request::new(
                    next_id,
                    tenant.key.clone(),
                    tenant.series[lo..upto].to_vec(),
                ))
                .expect("cache pass must not shed");
            next_id += 1;
        }
        let responses = cache_engine.tick();
        assert!(
            cfg.faults.is_armed() || responses.iter().all(|r| !r.degraded),
            "cache pass degraded a tenant"
        );
    }
    // Every lookup ends in an answer or a parked retry, and expiries and
    // open breakers answer without one, so the lookups count the served
    // requests plus the retries, less those two.
    let stats = cache_engine.stats();
    let cache_stats = stats.cache;
    assert_eq!(
        cache_stats.hits + cache_stats.misses,
        stats.served + stats.lifecycle.retries
            - stats.lifecycle.expired
            - stats.lifecycle.breaker_fallbacks,
        "cache accounting must sum to served requests"
    );
    let cache_hit_rate = fraction(cache_stats.hits, cache_stats.hits + cache_stats.misses);
    println!(
        "cache: {} hits / {} misses (rate {:.3}), {} evictions, {} rehydrations",
        cache_stats.hits,
        cache_stats.misses,
        cache_hit_rate,
        cache_stats.evictions,
        cache_stats.rehydrations
    );

    // Assemble, validate, and (full mode) write the document.
    let mut tick_ns = batched.tick_ns.clone();
    let p50 = percentile_ns(&mut tick_ns, 50);
    let p95 = percentile_ns(&mut tick_ns, 95);
    let p99 = percentile_ns(&mut tick_ns, 99);
    let requests = batched.responses.len() as u64;
    let mut tick_histogram = Histogram::new();
    for &ns in &batched.tick_ns {
        tick_histogram.record(ns);
    }
    let latency_histogram = tick_histogram
        .snapshot("loadgen.tick_ns")
        .buckets
        .iter()
        .map(|b| LatencyBucket { lo_ns: b.lo, hi_ns: b.hi, count: b.count })
        .collect();
    let slo_status = slo.status();
    let report = ServeBenchReport {
        schema_version: SERVE_SCHEMA_VERSION,
        mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
        seed: cfg.seed,
        tenants: cfg.tenants as u64,
        ticks: cfg.ticks as u64,
        families: WorkloadKind::ALL.len() as u64,
        requests,
        p50_tick_ns: p50,
        p95_tick_ns: p95,
        p99_tick_ns: p99,
        throughput_rps: fraction_scaled(requests, batched.elapsed_secs),
        serial_secs: serial.elapsed_secs,
        batched_secs: batched.elapsed_secs,
        speedup_batched_vs_serial: speedup,
        shed_rate,
        cache_hit_rate,
        response_digest: HexDigest(bench_digest),
        slo_target: slo_status.target,
        slo_availability: slo_status.availability,
        slo_budget_remaining: slo_status.budget_remaining,
        slo_alerts: slo_status.alerts,
        latency_histogram,
    };
    let text = serde_json::to_string_pretty(&report).expect("serialize document");
    ServeBenchReport::parse(&text).expect("generated document must validate");
    println!(
        "summary: p50 {}us p99 {}us per tick, {:.0} req/s, speedup {:.2}x",
        p50 / 1000,
        p99 / 1000,
        report.throughput_rps,
        speedup
    );
    print_top_report(&batched.tick_ns, &slo_status, Some(&det_snapshots[0]));
    let mode = if cfg.smoke { "smoke" } else { "full" };
    dump_traced_pass(
        batched_engine.tracer(),
        &trace_out,
        run_manifest(&cfg, mode).config("traced_pass", "batched"),
    );

    match &cfg.out {
        Some(path) => {
            std::fs::write(path, text + "\n").expect("write BENCH_serve document");
            println!("wrote {path}");
            let manifest = run_manifest(&cfg, mode)
                .capture_env()
                .config("history_len", history_len)
                .output("bench", path)
                .with_trace_summary(&det_snapshots[0]);
            let manifest_path = format!("{path}.manifest.json");
            manifest.write_json(&manifest_path).expect("write manifest");
            println!("wrote {manifest_path}");
        }
        None => println!("smoke mode: all serving invariants checked, nothing written"),
    }
}

/// The ld-top closing report: latency percentiles, the SLO / error-budget
/// line, and (when a trace is available) the hottest spans by self time.
fn print_top_report(
    tick_ns: &[u64],
    slo: &ld_metrics::SloStatus,
    trace: Option<&ld_telemetry::TraceSnapshot>,
) {
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
    if let Some(trace) = trace {
        let profile = SpanProfile::from_trace(trace);
        if !profile.entries().is_empty() {
            println!("[ld-top] hottest spans by self time:");
            print!("{}", profile.render(5));
        }
    }
}

/// One chaos (or baseline) pass: every response, explicit accounting, and
/// the engine's end-of-pass state.
struct ChaosPass {
    responses: Vec<Response>,
    issued: u64,
    shed: u64,
    tick_ns: Vec<u64>,
    quarantined: u64,
    stats: ServeStats,
    trace: ld_telemetry::TraceSnapshot,
    /// Tick-scored SLO: good = non-degraded answers; degraded answers and
    /// sheds count against the budget.
    slo: SloTracker,
    /// The pass's tracer: identically-seeded passes must agree on its
    /// events snapshot byte-for-byte, and `LD_TRACE` may dump it.
    tracer: Tracer,
}

/// Replays the scheduled load through one engine; with a schedule, drives
/// the chaos timeline (fault plans, slow shards, bursts, crash-boundary
/// recovery passes) tick by tick, then settles until the engine owes
/// nothing. Every submitted request is accounted for: answered or shed.
fn run_chaos_pass(
    cfg: &Cfg,
    tenants: &[Tenant],
    families: &[(LstmForecaster, Vec<f64>)],
    history_len: usize,
    schedule: Option<&ChaosSchedule>,
    phase: &str,
    tracer: Tracer,
) -> ChaosPass {
    // Headroom for bursts but not for the worst of them: a 1.5x bound
    // admits moderate bursts and deterministically sheds the peaks.
    let queue_capacity = (cfg.tenants + cfg.tenants / 2).max(2);
    // Resident capacity 2x the mean shard occupancy: steady state stays in
    // memory; spills and rehydrations come from supervisor-ordered drains,
    // which is exactly the machinery the soak wants under fire. The
    // aggressive supervisor makes NaN windows escalate to drain-restarts.
    let capacity_per_shard = (cfg.tenants / 8).max(4);
    let mut engine = ServeEngine::new(
        EngineConfig {
            mode: ExecMode::Batched,
            queue_capacity,
            registry: RegistryConfig {
                shard_count: 16,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig {
                supervisor: SupervisorConfig {
                    degraded_ratio: 0.2,
                    unhealthy_ticks: 2,
                    recovery_ticks: 2,
                },
                ..LifecycleConfig::default()
            },
        },
        open_store(&cfg.store_root, phase),
        tracer,
    );
    provision_all(&mut engine, tenants, families);

    let mut pass = ChaosPass {
        responses: Vec::with_capacity(tenants.len() * cfg.ticks),
        issued: 0,
        shed: 0,
        tick_ns: Vec::with_capacity(cfg.ticks),
        quarantined: 0,
        stats: ServeStats::default(),
        trace: ld_telemetry::TraceSnapshot::default(),
        slo: SloTracker::new(CHAOS_SLO),
        tracer: Tracer::disabled(),
    };
    let offer = |engine: &mut ServeEngine, req: Request, issued: &mut u64, shed: &mut u64| {
        *issued += 1;
        if engine.submit(req).is_err() {
            *shed += 1;
        }
    };

    for tick in 0..cfg.ticks {
        let t = tick as u64;
        if let Some(s) = schedule {
            engine.set_faults(FaultPlan::new(s.fault_plan_at(t)));
            engine.set_shard_delays(&s.slow_shards_at(t));
        }
        let shed_before = pass.shed;
        // ld-lint: allow(determinism, "per-tick latency measurement; answers do not depend on it")
        let tk = Instant::now();
        for req in requests_at(tenants, tick, history_len) {
            offer(&mut engine, req, &mut pass.issued, &mut pass.shed);
        }
        if let Some(s) = schedule {
            // Burst overload: the schedule's permille of extra fleet load,
            // ids in the disjoint burst band.
            let extra = tenants.len() * usize::try_from(s.burst_permille_at(t)).expect("permille")
                / 1000;
            for (i, tenant) in tenants.iter().take(extra).enumerate() {
                let upto = (WARMUP_INTERVALS + tick).min(tenant.series.len());
                let lo = upto.saturating_sub(history_len);
                let req = Request::new(
                    BURST_BASE + (tick * tenants.len() + i) as u64,
                    tenant.key.clone(),
                    tenant.series[lo..upto].to_vec(),
                );
                offer(&mut engine, req, &mut pass.issued, &mut pass.shed);
            }
        }
        let answered = engine.tick();
        let ns = u64::try_from(tk.elapsed().as_nanos()).expect("tick ns fits u64");
        let good = answered.iter().filter(|r| !r.degraded).count() as u64;
        let bad_shed = pass.shed - shed_before;
        pass.slo.record(t, good, answered.len() as u64 + bad_shed);
        pass.responses.extend(answered);
        pass.tick_ns.push(ns);
        if let Some(s) = schedule {
            if s.crash_window_ends_at(t) {
                // A crash window just closed: run the startup-style
                // recovery pass and count what it quarantined.
                engine.set_faults(FaultPlan::disarmed());
                let report = engine.recover_store().expect("store recovery");
                pass.quarantined += (report.quarantined_torn + report.quarantined_corrupt) as u64;
            }
        }
    }

    // Settle: chaos off, serve out every parked retry/deferral. Bounded —
    // max backoff and deferral are a handful of ticks, so a non-draining
    // queue here is a hang, which is exactly what the bound catches.
    engine.set_faults(FaultPlan::disarmed());
    engine.set_shard_delays(&[]);
    let mut settle = 0u64;
    while engine.pending_work() > 0 {
        settle += 1;
        assert!(
            settle <= 64,
            "chaos soak failed to settle: {} requests still pending",
            engine.pending_work()
        );
        let answered = engine.tick();
        let good = answered.iter().filter(|r| !r.degraded).count() as u64;
        pass.slo
            .record(cfg.ticks as u64 + settle - 1, good, answered.len() as u64);
        pass.responses.extend(answered);
    }
    let report = engine.recover_store().expect("final store recovery");
    pass.quarantined += (report.quarantined_torn + report.quarantined_corrupt) as u64;

    pass.stats = engine.stats();
    pass.trace = engine.tracer().snapshot();
    pass.tracer = engine.tracer().clone();
    pass
}

/// The seed-keyed fault timeline every chaos pass of `cfg` replays, over
/// the engine's 16 shards.
fn chaos_schedule(cfg: &Cfg) -> ChaosSchedule {
    ChaosSchedule::generate(cfg.chaos_seed, cfg.ticks as u64, 16)
}

/// The `--chaos` soak: baseline pass, two identically-seeded chaos passes,
/// the availability / isolation / determinism gates, and the
/// `BENCH_resilience.json` document.
fn run_chaos_soak(
    cfg: &Cfg,
    tenants: &[Tenant],
    families: &[(LstmForecaster, Vec<f64>)],
    history_len: usize,
    trace_out: &Option<String>,
) {
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
    let baseline = run_chaos_pass(
        cfg,
        tenants,
        families,
        history_len,
        None,
        "chaos-baseline",
        Tracer::disabled(),
    );
    assert_eq!(baseline.shed, 0, "fault-free baseline must not shed");
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

    // Two identically-seeded chaos passes.
    let p0 = run_chaos_pass(
        cfg,
        tenants,
        families,
        history_len,
        Some(&schedule),
        "chaos-0",
        Tracer::enabled(),
    );
    let p1 = run_chaos_pass(
        cfg,
        tenants,
        families,
        history_len,
        Some(&schedule),
        "chaos-1",
        Tracer::enabled(),
    );

    // Gate 1 — determinism: the same seeds replay the same catastrophe,
    // bit for bit, span for span.
    let digest = response_digest(&p0.responses);
    assert_eq!(
        digest,
        response_digest(&p1.responses),
        "identically-seeded chaos runs must produce bitwise-identical responses"
    );
    assert_eq!(
        p0.trace.logical_paths(),
        p1.trace.logical_paths(),
        "identically-seeded chaos runs must produce identical span trees"
    );
    assert_eq!((p0.issued, p0.shed), (p1.issued, p1.shed));
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

    // Gate 2 — availability: every issued request got an explicit outcome.
    let answered = p0.responses.len() as u64;
    assert_eq!(
        answered + p0.shed,
        p0.issued,
        "every request must be answered or explicitly shed — anything else is a hang"
    );
    let availability = fraction(answered + p0.shed, p0.issued);
    assert!(
        availability >= 0.99,
        "availability {availability} under chaos fell below 0.99"
    );

    // Gate 3 — isolation: a model-path (non-degraded) answer for scheduled
    // load must be bitwise identical to the fault-free baseline. Faults may
    // force a tenant onto the fallback; they may never bend a healthy
    // tenant's bits.
    let mut compared = 0u64;
    let mut perturbed = 0u64;
    for r in &p0.responses {
        if r.id >= BURST_BASE || r.degraded {
            continue;
        }
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

    let lifecycle = p0.stats.lifecycle;
    let degraded_answers = p0.responses.iter().filter(|r| r.degraded).count() as u64;
    let mut tick_ns = p0.tick_ns.clone();
    let report = ResilienceBenchReport {
        schema_version: RESILIENCE_SCHEMA_VERSION,
        mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
        seed: cfg.seed,
        chaos_seed: cfg.chaos_seed,
        tenants: cfg.tenants as u64,
        ticks: cfg.ticks as u64,
        families: WorkloadKind::ALL.len() as u64,
        chaos_events: schedule.events().len() as u64,
        schedule_digest: HexDigest(schedule.digest()),
        issued: p0.issued,
        answered,
        shed: p0.shed,
        availability,
        shed_rate: fraction(p0.shed, p0.issued),
        p50_tick_ns: percentile_ns(&mut tick_ns, 50),
        p99_tick_ns: percentile_ns(&mut tick_ns, 99),
        fallback_fraction: fraction(degraded_answers, answered),
        expired_fraction: fraction(lifecycle.expired, answered),
        breaker_trips: lifecycle.breaker_trips,
        retries: lifecycle.retries,
        deferrals: lifecycle.deferrals,
        shard_drains: lifecycle.shard_drains,
        recovery_ticks: lifecycle.worst_recovery_ticks,
        quarantined: p0.quarantined,
        isolation_clean,
        response_digest: HexDigest(digest),
    };
    let text = serde_json::to_string_pretty(&report).expect("serialize document");
    ResilienceBenchReport::parse(&text).expect("generated document must validate");
    println!(
        "chaos soak: availability {:.4} ({} answered + {} shed of {} issued), \
         {} isolated answers verified bit-identical",
        availability, answered, p0.shed, p0.issued, compared
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
    print_top_report(&p0.tick_ns, &slo_status, Some(&p0.trace));
    for alert in p0.slo.alerts() {
        println!(
            "[ld-top] burn-rate alert at tick {}: short {:.2} long {:.2} (contained in a \
             fault window)",
            alert.tick, alert.short_burn, alert.long_burn
        );
    }
    let mode = if cfg.smoke { "chaos-smoke" } else { "chaos-full" };
    dump_traced_pass(
        &p0.tracer,
        trace_out,
        run_manifest(cfg, mode)
            .config("chaos_seed", cfg.chaos_seed)
            .config("traced_pass", "chaos-0"),
    );

    match &cfg.out {
        Some(path) => {
            std::fs::write(path, text + "\n").expect("write BENCH_resilience document");
            println!("wrote {path}");
            let manifest = run_manifest(cfg, mode)
                .capture_env()
                .config("chaos_seed", cfg.chaos_seed)
                .config("chaos_events", schedule.events().len())
                .config("slo_alerts", slo_status.alerts)
                .output("bench", path)
                .with_trace_summary(&p0.trace);
            let manifest_path = format!("{path}.manifest.json");
            manifest.write_json(&manifest_path).expect("write manifest");
            println!("wrote {manifest_path}");
        }
        None => println!("smoke mode: all resilience invariants checked, nothing written"),
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

/// Requests per second.
fn fraction_scaled(requests: u64, secs: f64) -> f64 {
    count_to_f64(requests) / secs.max(1e-12)
}
