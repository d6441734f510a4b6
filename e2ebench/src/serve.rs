//! `serve-shared` and `serve-pertenant`: one `ServeEngine`, used the two
//! ways a provider would. Both serve 2000 tenants replaying the five trace
//! families, with the registry big enough to keep every snapshot resident,
//! and every tick asks every tenant (a closed loop: one tick is one
//! forecast round for the whole fleet).
//!
//! - `serve-shared` is the `ld-loadgen` fleet: five trained models that
//!   tenants share by family, so fused batched forwards over 400 lanes
//!   dominate.
//! - `serve-pertenant` gives each tenant its own fresh-init model, its
//!   shape drawn from the standard search space as Table IV's per-workload
//!   picks would be. Every batch has one lane, so fusion is bypassed and
//!   the engine's per-group work and 2000 distinct models' weights set the
//!   tick.
//!
//! Neither workload misses the registry. A miss rehydrates a snapshot and
//! spills the evicted one with four fsyncs; on a shared VM that fsync
//! latency moved a missing workload's tick by 0.16 to 0.40 from run to run,
//! wider than any bound the benchmark may set.
//!
//! Tick `k` replays interval `48 + k mod (len - 48)` of each tenant's
//! series; the forecast is scored against the interval that follows.

use std::collections::BTreeMap;
use std::time::Instant;

use ld_api::MinMaxScaler;
use ld_bench::ExperimentScale;
use ld_nn::{
    make_windows, Adam, AdamConfig, BatchScratch, ForecasterConfig, LstmForecaster, TrainOptions,
    Trainer,
};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, Response, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::HyperParams;

use crate::metrics::{self, splitmix64, unit};
use crate::{spans, speed};
use crate::{Ctx, Outcome, Workload};

/// Observations each tenant has before the first tick.
const WARMUP_INTERVALS: usize = 48;
/// Ticks served as part of set-up, before anything is timed.
const WARMUP_TICKS: usize = 5;
const SHARDS: usize = 16;
/// Traced ticks replayed through the batched-forward probe.
const PROBE_TICKS: usize = 100;

/// The fleet's shape.
struct Sizes {
    tenants: usize,
    /// Set-ups timed for `setup_s`: about 2 s of them, or 3 s for
    /// `serve-pertenant`, whose set-up builds 2000 models.
    setups: usize,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Self {
        if ctx.smoke {
            Sizes {
                tenants: 40,
                setups: 3,
            }
        } else {
            Sizes {
                tenants: 2000,
                setups: 15,
            }
        }
    }
}

/// One tenant: its family's series under a per-tenant affine jitter.
struct Tenant {
    key: ClientKey,
    family: usize,
    scale: f64,
    offset: f64,
    scaler: MinMaxScaler,
    /// Per-tenant model recipe (`serve-pertenant`); `None` serves the
    /// family's shared model.
    own_model: Option<ForecasterConfig>,
}

/// Everything needed to provision and drive the fleet.
struct Fleet {
    families: Vec<Vec<f64>>,
    /// Trained family models (`serve-shared` only).
    shared: Vec<LstmForecaster>,
    tenants: Vec<Tenant>,
}

impl Fleet {
    fn build(ctx: &Ctx, sizes: &Sizes) -> Fleet {
        let families: Vec<Vec<f64>> = WorkloadKind::ALL
            .iter()
            .enumerate()
            .map(|(f, &kind)| {
                let trace = TraceConfig {
                    kind,
                    interval_mins: kind.intervals()[0],
                };
                trace.build(ctx.seed ^ f as u64).values
            })
            .collect();
        let shared = if ctx.workload == Workload::ServeShared {
            train_family_models(ctx, &families)
        } else {
            Vec::new()
        };
        let space = ExperimentScale::Standard.space();
        let tenants = (0..sizes.tenants)
            .map(|t| {
                let family = t % families.len();
                let bits = splitmix64(ctx.seed ^ (t as u64).rotate_left(17));
                let scale = 0.5 + unit(bits);
                let offset = 10.0 * unit(splitmix64(bits));
                let jittered: Vec<f64> = families[family]
                    .iter()
                    .map(|&v| v * scale + offset)
                    .collect();
                let own_model = shared.is_empty().then(|| {
                    // The shape follows the tenant's index, not the seed, so
                    // every run serves the same mix of sizes; the seed sets
                    // the weights.
                    let u: Vec<f64> = (0..4)
                        .map(|d| unit(splitmix64((t as u64) << 2 | d)))
                        .collect();
                    let hp = HyperParams::from_params(&space.decode(&u));
                    ForecasterConfig {
                        history_len: hp.history_len,
                        hidden_size: hp.cell_size,
                        num_layers: hp.num_layers,
                        seed: splitmix64(bits),
                    }
                });
                Tenant {
                    key: ClientKey::new(
                        format!("tenant-{t:05}"),
                        WorkloadKind::ALL[family].short_name(),
                    ),
                    family,
                    scale,
                    offset,
                    scaler: MinMaxScaler::fit(&jittered),
                    own_model,
                }
            })
            .collect();
        Fleet {
            families,
            shared,
            tenants,
        }
    }

    fn model(&self, t: usize) -> LstmForecaster {
        let tenant = &self.tenants[t];
        match &tenant.own_model {
            Some(cfg) => LstmForecaster::new(*cfg),
            None => self.shared[tenant.family].clone(),
        }
    }

    fn snapshot(&self, t: usize) -> ModelSnapshot {
        let model = self.model(t);
        let n = model.config().history_len;
        ModelSnapshot::new(model, self.tenants[t].scaler, n)
    }

    fn history_len(&self, t: usize) -> usize {
        match &self.tenants[t].own_model {
            Some(cfg) => cfg.history_len,
            None => self.shared[self.tenants[t].family].config().history_len,
        }
    }

    /// The requests of tick `k`, one per tenant, and the actual next
    /// interval of each.
    fn requests(&self, k: usize) -> (Vec<Request>, Vec<f64>) {
        let mut requests = Vec::with_capacity(self.tenants.len());
        let mut actuals = Vec::with_capacity(self.tenants.len());
        for t in 0..self.tenants.len() {
            let tenant = &self.tenants[t];
            let series = &self.families[tenant.family];
            let upto = WARMUP_INTERVALS + k % (series.len() - WARMUP_INTERVALS);
            let jitter = |v: f64| v * tenant.scale + tenant.offset;
            let history = series[upto - self.history_len(t)..upto]
                .iter()
                .map(|&v| jitter(v))
                .collect();
            let id = (k * self.tenants.len() + t) as u64;
            requests.push(Request::new(id, tenant.key.clone(), history));
            actuals.push(jitter(series[upto]));
        }
        (requests, actuals)
    }
}

/// One model per trace family, trained exactly as `ld-loadgen` trains its
/// fleet: tenants of a family share weights, which is what batches them.
fn train_family_models(ctx: &Ctx, families: &[Vec<f64>]) -> Vec<LstmForecaster> {
    let (hist, hidden, layers, epochs) = if ctx.smoke {
        (8, 8, 2, 2)
    } else {
        (20, 8, 3, 4)
    };
    families
        .iter()
        .enumerate()
        .map(|(f, series)| {
            let scaler = MinMaxScaler::fit(series);
            let scaled: Vec<f64> = series.iter().map(|&v| scaler.transform(v)).collect();
            let samples = make_windows(&scaled, hist);
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len: hist,
                hidden_size: hidden,
                num_layers: layers,
                seed: ctx.seed.wrapping_add(f as u64),
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size: 32,
                max_epochs: epochs,
                patience: 0,
                shuffle_seed: ctx.seed ^ 0xabcd,
                ..TrainOptions::default()
            });
            let mut opt = Adam::new(AdamConfig::default());
            trainer.fit(&mut model, &mut opt, &samples, &[]);
            model
        })
        .collect()
}

fn engine(fleet: &Fleet, sizes: &Sizes, mode: ExecMode, dir: &std::path::Path) -> ServeEngine {
    let store = SnapshotStore::open(dir).expect("open snapshot store");
    store.clear().expect("clear snapshot store");
    let mut engine = ServeEngine::new(
        EngineConfig {
            mode,
            queue_capacity: sizes.tenants,
            // Any shard can hold the whole fleet, so nothing ever spills.
            registry: RegistryConfig {
                shard_count: SHARDS,
                capacity_per_shard: sizes.tenants,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store,
        Tracer::disabled(),
    );
    for (t, tenant) in fleet.tenants.iter().enumerate() {
        engine.provision(tenant.key.clone(), fleet.snapshot(t));
    }
    engine
}

/// What serving one tick produced.
struct Tick {
    submitted: u64,
    shed: u64,
    responses: Vec<Response>,
    actuals: Vec<f64>,
}

fn serve_tick(engine: &mut ServeEngine, requests: Vec<Request>, actuals: Vec<f64>) -> Tick {
    let submitted = requests.len() as u64;
    let shed = requests
        .into_iter()
        .map(|r| engine.submit(r))
        .filter(Result::is_err)
        .count() as u64;
    Tick {
        submitted,
        shed,
        responses: engine.tick(),
        actuals,
    }
}

impl Tick {
    fn failed(&self) -> u64 {
        self.shed + self.responses.iter().filter(|r| r.degraded).count() as u64
    }

    /// Test MAPE of this tick's forecasts against the following interval.
    /// Ids ascend with request order, so responses line up with actuals
    /// unless a request was shed.
    fn mape(&self) -> f64 {
        if self.shed > 0 {
            return f64::NAN;
        }
        let preds: Vec<f64> = self.responses.iter().map(|r| r.value).collect();
        ld_api::mape(&preds, &self.actuals)
    }
}

/// Set-up: a freshly provisioned engine that has served the warm-up
/// ticks. Returns the engine and the warm-up responses.
fn set_up(fleet: &Fleet, sizes: &Sizes, dir: &std::path::Path) -> (ServeEngine, Vec<Response>) {
    let mut engine = engine(fleet, sizes, ExecMode::Batched, dir);
    let mut warm = Vec::new();
    for k in 0..WARMUP_TICKS {
        let (requests, actuals) = fleet.requests(k);
        warm.extend(serve_tick(&mut engine, requests, actuals).responses);
    }
    (engine, warm)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let sizes = Sizes::of(ctx);

    // The fleet is the input: traces, and for `serve-shared` the five
    // family models, trained once (`tune` measures training).
    let t = Instant::now();
    let fleet = Fleet::build(ctx, &sizes);
    out.notes.push(format!(
        "fleet built in {:.3} s (traces and family training, not timed as set-up)",
        t.elapsed().as_secs_f64()
    ));

    // Set-up, several times over; every repeat must answer the warm-up
    // ticks identically, and the first is re-answered on the serial path.
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    let store = ctx.scratch.join("setup");
    for i in 0..sizes.setups {
        // Only one engine is alive at a time, and each starts from an
        // empty store, removed before the clock starts.
        drop(kept.take());
        let _ = std::fs::remove_dir_all(&store);
        let t = Instant::now();
        let (engine, warm) = set_up(&fleet, &sizes, &store);
        setup_s.push(t.elapsed().as_secs_f64() * speed::factor());
        digests.push(response_digest(&warm));
        if i == 0 {
            let serial = serial_agreement(&fleet, &sizes, &warm, &ctx.scratch.join("serial"));
            out.check(
                "serial-agrees-1e-9",
                serial.is_ok(),
                serial.unwrap_or_else(|e| e),
            );
        }
        kept = Some(engine);
    }
    let mut engine = kept.expect("at least one set-up");
    out.digest = digests[0];
    out.check(
        "digest-repeats",
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "warm-up response digest {:016x} over {} set-ups",
            digests[0], sizes.setups
        ),
    );

    // Closed loop: the next tick starts when the previous one is answered.
    let start = Instant::now();
    let mut k = WARMUP_TICKS;
    let mut tick_s = Vec::new();
    // The host-speed factor timed right after each tick.
    let mut speeds = Vec::new();
    let mut mapes = Vec::new();
    let mut answered = 0u64;
    // Building requests plus ticks: what the traced pass replays.
    let mut untraced_ns = 0u64;
    while tick_s.is_empty() || start.elapsed().as_secs_f64() < ctx.untraced_seconds() {
        let round = Instant::now();
        let (requests, actuals) = fleet.requests(k);
        let t = Instant::now();
        let tick = serve_tick(&mut engine, requests, actuals);
        tick_s.push(t.elapsed().as_secs_f64());
        untraced_ns += round.elapsed().as_nanos() as u64;
        speeds.push(speed::factor());
        out.attempted += tick.submitted;
        out.failed += tick.failed();
        answered += tick.responses.len() as u64;
        mapes.push(tick.mape());
        k += 1;
    }
    out.check(
        "mape-finite",
        mapes.iter().all(|m| m.is_finite()),
        format!("{} per-tick MAPEs", mapes.len()),
    );
    out.notes.push(format!(
        "mean MAPE {:.3}% against the following interval (not bounded: it follows the seed's traces)",
        metrics::mean(&mapes)
    ));
    let (tail_p, tail_s) = metrics::tail(&tick_s);
    out.notes.push(format!(
        "{} tenants, {} ticks, {answered} forecasts answered; tick p50 {:.1} us, p{tail_p} {:.1} us (not bounded)",
        fleet.tenants.len(),
        tick_s.len(),
        metrics::median(&tick_s) * 1e6,
        tail_s * 1e6
    ));

    if ctx.traced {
        traced(&fleet, &mut engine, k, tick_s.len(), untraced_ns, &mut out);
    } else {
        let adjusted: Vec<f64> = tick_s.iter().zip(&speeds).map(|(t, f)| t * f).collect();
        let tick = metrics::mean(&adjusted);
        out.notes.push(speed::note(&speeds, &tick_s));
        out.set("job_s", tick);
        out.set("forecast_us", tick / fleet.tenants.len() as f64 * 1e6);
        out.set("setup_s", metrics::median(&setup_s));
    }
    let stats = engine.stats();
    out.check(
        "every-lookup-hits",
        stats.cache.misses == 0 && stats.cache.hits == stats.served,
        format!(
            "{} hits + {} misses vs {} served",
            stats.cache.hits, stats.cache.misses, stats.served
        ),
    );
    out
}

/// Re-answers the warm-up ticks on a fresh `ExecMode::Serial` engine: each
/// response must match the batched one within 1e-9 (relative).
fn serial_agreement(
    fleet: &Fleet,
    sizes: &Sizes,
    warm: &[Response],
    dir: &std::path::Path,
) -> Result<String, String> {
    let mut engine = engine(fleet, sizes, ExecMode::Serial, dir);
    let mut serial = Vec::new();
    for k in 0..WARMUP_TICKS {
        let (requests, actuals) = fleet.requests(k);
        serial.extend(serve_tick(&mut engine, requests, actuals).responses);
    }
    if serial.len() != warm.len() {
        return Err(format!(
            "{} serial vs {} batched responses",
            serial.len(),
            warm.len()
        ));
    }
    for (s, b) in serial.iter().zip(warm) {
        let scale = s.value.abs().max(b.value.abs()).max(1.0);
        if s.id != b.id || (s.value - b.value).abs() > 1e-9 * scale {
            return Err(format!(
                "id {}: serial {} vs batched {}",
                b.id, s.value, b.value
            ));
        }
    }
    Ok(format!("{} warm-up responses", warm.len()))
}

/// Serves as many ticks again as the untraced pass did, with spans around
/// building the requests (`serve.harness`), `ServeEngine::submit` and
/// `ServeEngine::tick`. Between ticks, outside the traced wall time, it
/// probes the batched forward of the first `PROBE_TICKS` ticks, so the
/// probe samples the same minutes of host speed as the ticks it explains.
fn traced(
    fleet: &Fleet,
    engine: &mut ServeEngine,
    first: usize,
    ticks: usize,
    untraced_ns: u64,
    out: &mut Outcome,
) {
    let before = engine.stats();
    let tracer = Tracer::enabled();
    let mut forward = ForwardProbe::new(fleet);
    let mut wall_ns = 0u64;
    for (i, k) in (first..first + ticks).enumerate() {
        let start = Instant::now();
        {
            let tick_span = tracer.span_at("tick", k as u64);
            let tr = tick_span.tracer();
            let harness = tr.span("serve.harness");
            let (requests, _) = fleet.requests(k);
            drop(harness);
            let submit = tr.span("serve.submit");
            for r in requests {
                let _ = engine.submit(r);
            }
            drop(submit);
            let tick = tr.span("serve.tick");
            let responses = engine.tick();
            drop(tick);
            let _harness = tr.span("serve.harness");
            drop(responses);
        }
        wall_ns += start.elapsed().as_nanos() as u64;
        if i < PROBE_TICKS {
            forward.replay(fleet, k);
        }
    }
    let trace = tracer.snapshot();
    let after = engine.stats();
    spans::summarize(out, &trace, wall_ns, untraced_ns);

    let tick_ns = spans::union_ns(&spans::named(&trace, "serve.tick"));
    out.set("serve.tick_pct", spans::pct(tick_ns, wall_ns));
    out.set(
        "serve.submit_pct",
        spans::pct(
            spans::union_ns(&spans::named(&trace, "serve.submit")),
            wall_ns,
        ),
    );
    out.set(
        "serve.harness_pct",
        spans::pct(
            spans::union_ns(&spans::named(&trace, "serve.harness")),
            wall_ns,
        ),
    );
    out.set(
        "serve.cache_hits",
        (after.cache.hits - before.cache.hits) as f64,
    );
    out.set("serve.degraded", (after.degraded - before.degraded) as f64);

    let forward_ns = forward.ns_per_tick() * ticks as f64;
    out.set(
        "serve.groups_per_tick",
        forward.groups as f64 / forward.ticks as f64,
    );
    out.set(
        "serve.lanes_per_group",
        forward.lanes as f64 / forward.groups as f64,
    );
    out.set("nn.batch_forward_gflops", forward.flops / forward.ns as f64);
    out.set("nn.batch_forward_pct", 100.0 * forward_ns / wall_ns as f64);
    out.set(
        "serve.engine_overhead_pct",
        100.0 * (tick_ns as f64 - forward_ns) / wall_ns as f64,
    );
    out.notes.push(format!(
        "probe between ticks: batched forward {:.1} us/tick over {} ticks",
        forward.ns_per_tick() / 1e3,
        forward.ticks
    ));
}

/// Replays ticks' batches through `predict_batch_fused`: lanes grouped by
/// weight fingerprint as the engine groups them, windows scaled per
/// tenant. Only the fused forward is timed.
struct ForwardProbe {
    fingerprints: Vec<u64>,
    scratch: BatchScratch,
    ticks: usize,
    ns: u128,
    flops: f64,
    groups: usize,
    lanes: usize,
}

/// Floating-point operations (two per multiply-add) of one LSTM forward,
/// counted from its shape: the input and recurrent gate GEMMs of every
/// layer at every step, plus the dense head.
fn forward_flops(cfg: &ForecasterConfig) -> f64 {
    let h = cfg.hidden_size as f64;
    let per_step: f64 = (0..cfg.num_layers)
        .map(|l| {
            let input = if l == 0 { 1.0 } else { h };
            2.0 * 4.0 * h * (input + h)
        })
        .sum();
    per_step * cfg.history_len as f64 + 2.0 * h
}

impl ForwardProbe {
    fn new(fleet: &Fleet) -> Self {
        ForwardProbe {
            fingerprints: (0..fleet.tenants.len())
                .map(|t| fleet.snapshot(t).fingerprint())
                .collect(),
            scratch: BatchScratch::new(),
            ticks: 0,
            ns: 0,
            flops: 0.0,
            groups: 0,
            lanes: 0,
        }
    }

    /// Replays tick `k`.
    fn replay(&mut self, fleet: &Fleet, k: usize) {
        let (requests, _) = fleet.requests(k);
        let mut by_fingerprint: BTreeMap<u64, Vec<(usize, Request)>> = BTreeMap::new();
        for (t, r) in requests.into_iter().enumerate() {
            by_fingerprint
                .entry(self.fingerprints[t])
                .or_default()
                .push((t, r));
        }
        for group in by_fingerprint.values() {
            let model = fleet.model(group[0].0);
            let scaler_of = |t: usize| fleet.tenants[t].scaler;
            let windows: Vec<f64> = group
                .iter()
                .flat_map(|(t, r)| r.history.iter().map(move |&v| scaler_of(*t).transform(v)))
                .collect();
            let mut preds = vec![0.0; group.len()];
            let t = Instant::now();
            model.predict_batch_fused(&windows, group.len(), &mut self.scratch, &mut preds);
            self.ns += t.elapsed().as_nanos();
            std::hint::black_box(&preds);
            self.flops += forward_flops(model.config()) * group.len() as f64;
            self.groups += 1;
            self.lanes += group.len();
        }
        self.ticks += 1;
    }

    fn ns_per_tick(&self) -> f64 {
        self.ns as f64 / self.ticks as f64
    }
}
