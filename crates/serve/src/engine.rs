//! The tick-based serving engine: admission, snapshot resolution, batch
//! fusion, per-tenant graceful degradation, and the request lifecycle
//! (deadlines, retries, circuit breakers, shard health).
//!
//! Per tick the engine drains its bounded queue plus any parked retries,
//! resolves each request's snapshot through the sharded registry
//! (rehydrating from disk on a miss), scales its window into one
//! engine-owned buffer, and groups the resolved lanes by a stable sort on
//! `(model shape, weight fingerprint)`. Each group becomes one fused
//! batched LSTM forward
//! ([`ld_nn::LstmForecaster::predict_batch_fused`]): one blocked GEMM of
//! each layer's fused `[W | U | b]` panel per step instead of one mat-vec
//! per tenant per step. A one-lane group (a tenant with its own model) runs
//! the same kernel on its window in place; the buffers are reused from tick
//! to tick, so a warm tick allocates nothing per group or per lane. Every
//! lane gets bitwise the answer
//! [`ld_nn::LstmForecaster::predict`] gives its window — the forecast
//! training and validation computed — so [`ExecMode::Serial`], which runs
//! `predict` per lane, is the engine-level oracle: the two modes' responses
//! differ only in their [`ResponseSource`] tag.
//!
//! # Determinism contract
//!
//! Batch composition is derived from seeds, never from arrival time: lanes
//! are ordered by request id (assigned by the load schedule), groups by
//! `(shape, fingerprint)`, and every span index is logical (tick number,
//! group ordinal, request id). Retry backoff jitter hashes the request id;
//! breaker transitions advance on logical ticks; slow-shard deferral uses
//! driver-installed per-tick delays. Two identically-seeded runs produce
//! bitwise-identical responses and identical span trees.
//!
//! # Observability
//!
//! The engine reports through the one [`Tracer`] it is built with, and only
//! ever writes to it: behavior with the tracer enabled is bitwise identical
//! to disabled, and a disabled tracer costs one branch per site. Spans are
//! timed regions only: `tick#t` with its `resolve#t` and `batch#g`
//! children, and one `request#id` leaf per lane, the record of which fused
//! batch answered the request. The `serve.*` counters, gauges and
//! histograms carry no wall-clock values, and state changes are events:
//! `serve`/`shard_health` (`shard`, `from`, `to` as
//! [`ShardHealth::code`]s) and `serve`/`store_recovery` (`quarantined`,
//! `indexed`), indexed by tick.
//!
//! # Degradation contract
//!
//! A tenant whose snapshot cannot be produced (corrupt spill file) or whose
//! scaled window arrives non-finite (upstream poison, injected via the
//! `batch_nan` fault site) is answered by the WMA smoothing fallback and
//! marked `degraded` once its retries run out — and is *excluded from the
//! fused batch*, so a poisoned tenant can never contaminate the lanes it
//! would have been co-batched with. A tenant behind an open circuit
//! breaker, or whose deadline expired, is likewise answered from its own
//! history only, and so is malformed input: a request that carries no
//! history at all, or whose own values scale to a non-finite window. Such a
//! request is answered on the tick it is resolved, with no retry and no
//! breaker outcome, since retrying would see the same values. Every request
//! is eventually answered explicitly; nothing hangs and nothing panics the
//! tick.

use std::collections::BTreeMap;
use std::sync::Arc;

use ld_api::Predictor as _;
use ld_nn::{BatchScratch, LstmForecaster};
use ld_telemetry::Tracer;

use crate::admission::{AdmissionQueue, AdmissionStats, Request};
use crate::lifecycle::{Breaker, BreakerConfig, BreakerState, RetryPolicy, RetrySchedule, Route};
use crate::registry::{ClientKey, RegistryConfig, RegistryStats, ShardedRegistry};
use crate::snapshot::{ModelShape, ModelSnapshot, RecoveryReport, SnapshotError, SnapshotStore};
use crate::supervisor::{ShardHealth, ShardObservation, ShardSupervisor, SupervisorConfig};

/// Which compute path answers the non-degraded lanes. Both answer every
/// lane with the same bits; they differ in cost and in the response's
/// [`ResponseSource`] tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One fused batched forward per `(shape, fingerprint)` group.
    Batched,
    /// The per-tenant workspace path ([`LstmForecaster::predict`]),
    /// retained as the bitwise oracle and the honest serial baseline.
    Serial,
}

/// Lifecycle-control knobs: deadlines, retry, breakers, shard health.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Default per-request deadline budget in ticks, applied at submission
    /// to requests that carry none (`None` = no default budget).
    pub deadline_ticks: Option<u64>,
    /// Retry policy for transient model-path failures.
    pub retry: RetryPolicy,
    /// Per-tenant and per-shard circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Shard health supervision tuning.
    pub supervisor: SupervisorConfig,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            deadline_ticks: Some(8),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Compute path for non-degraded lanes.
    pub mode: ExecMode,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Registry geometry.
    pub registry: RegistryConfig,
    /// Request lifecycle control.
    pub lifecycle: LifecycleConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ExecMode::Batched,
            queue_capacity: 4096,
            registry: RegistryConfig::default(),
            lifecycle: LifecycleConfig::default(),
        }
    }
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Fused batched forward.
    Batched,
    /// Per-tenant workspace forward.
    Serial,
    /// WMA smoothing fallback (degraded, tripped, or unresolvable lane).
    Fallback,
    /// Deadline expired before the engine could answer; the value is the
    /// smoothing fallback over the request's own history.
    Expired,
}

impl ResponseSource {
    /// The source's fixed digest byte (2 is retired), so response digests
    /// stay bitwise comparable across versions.
    fn tag(self) -> u8 {
        match self {
            ResponseSource::Batched => 0,
            ResponseSource::Serial => 1,
            ResponseSource::Fallback => 3,
            ResponseSource::Expired => 4,
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// The request's key.
    pub key: ClientKey,
    /// Forecast JAR for the next interval (non-negative).
    pub value: f64,
    /// Which path produced `value`.
    pub source: ResponseSource,
    /// True when the tenant was answered by the smoothing fallback.
    pub degraded: bool,
}

/// Lifecycle accounting: what the resilience layer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Requests answered as [`ResponseSource::Expired`].
    pub expired: u64,
    /// Retries parked after transient failures.
    pub retries: u64,
    /// Requests deferred off a slow shard.
    pub deferrals: u64,
    /// Requests answered from fallback because a breaker was open.
    pub breaker_fallbacks: u64,
    /// Breaker trips (tenant + shard), cumulative.
    pub breaker_trips: u64,
    /// Shard drain-restarts ordered by the supervisor.
    pub shard_drains: u64,
    /// Longest observed Unhealthy -> Healthy shard recovery, in ticks.
    pub worst_recovery_ticks: u64,
}

/// Engine-wide accounting (queue + cache + serving + lifecycle counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests answered (any source).
    pub served: u64,
    /// Requests answered by the smoothing fallback (degraded for any
    /// reason, including breaker routing and expiry).
    pub degraded: u64,
    /// Queue accounting.
    pub admission: AdmissionStats,
    /// Registry cache accounting.
    pub cache: RegistryStats,
    /// Lifecycle accounting.
    pub lifecycle: LifecycleStats,
}

/// One resolved, batchable lane.
#[derive(Debug)]
struct Lane {
    /// Lanes fuse only with lanes of equal `(shape, fingerprint)`.
    batch: (ModelShape, u64),
    id: u64,
    key: ClientKey,
    shard: usize,
    scaler: ld_api::MinMaxScaler,
    /// The resident snapshot's shared model. The handle is a reference
    /// count, not a copy: the model keeps the weight panels packed on
    /// earlier ticks, and the registry stays free to evict mid-tick without
    /// invalidating the batch.
    model: Arc<LstmForecaster>,
    /// Where the lane's scaled window starts in [`TickBuffers::windows`];
    /// it is `batch.0.history_len` long.
    window_start: usize,
}

impl Lane {
    /// The lane's scaled window, read from the tick's window buffer.
    fn window<'w>(&self, windows: &'w [f64]) -> &'w [f64] {
        &windows[self.window_start..self.window_start + self.batch.0.history_len]
    }
}

/// What a tick fills and the next tick reuses, so a warm tick allocates
/// nothing per group or per lane.
#[derive(Debug, Default)]
struct TickBuffers {
    /// The tick's batchable lanes, resolved in id order and then sorted
    /// into groups.
    lanes: Vec<Lane>,
    /// Every lane's scaled window, back to back in resolve order.
    windows: Vec<f64>,
    /// A multi-lane group's windows, gathered contiguous in lane order.
    gathered: Vec<f64>,
    /// One model output per lane, in group order.
    outputs: Vec<f64>,
    /// Model-path outcomes awaiting breaker and supervisor bookkeeping.
    outcomes: Vec<Outcome>,
}

/// A request in flight across ticks: how many retries it has consumed and
/// whether it has already been deferred off a slow shard.
#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    attempt: u32,
    deferred: bool,
}

/// Model-path outcome for breaker/supervisor bookkeeping.
#[derive(Debug)]
struct Outcome {
    id: u64,
    tenant: Tenant,
    shard: usize,
    ok: bool,
}

/// Whose breaker an [`Outcome`] advances.
#[derive(Debug)]
enum Tenant {
    /// The key of the tick's response at this index.
    Answered(usize),
    /// A failure parked for retry has no response yet, so it keeps a copy
    /// of its key.
    Parked(ClientKey),
}

/// The serving engine.
#[derive(Debug)]
pub struct ServeEngine {
    mode: ExecMode,
    lifecycle: LifecycleConfig,
    registry: ShardedRegistry,
    store: SnapshotStore,
    queue: AdmissionQueue,
    tracer: Tracer,
    scratch: BatchScratch,
    buffers: TickBuffers,
    tick: u64,
    served: u64,
    degraded: u64,
    lifecycle_stats: LifecycleStats,
    /// Requests parked for retry backoff or slow-shard deferral.
    parked: RetrySchedule<InFlight>,
    /// Per-tenant breakers, keyed deterministically by client key.
    tenant_breakers: BTreeMap<ClientKey, Breaker>,
    /// Per-shard breakers.
    shard_breakers: Vec<Breaker>,
    /// Driver-installed per-shard service delay for the *next* tick
    /// (chaos slow-shard windows); cleared by `set_shard_delays`.
    shard_delay: Vec<u64>,
    supervisor: ShardSupervisor,
    /// Submission tick per in-flight request id, kept only while the
    /// tracer is enabled, for the logical request-latency histogram.
    submit_tick: BTreeMap<u64, u64>,
    /// Registry/breaker/supervisor totals already exported, so each tick
    /// emits deltas (counters stay monotonic).
    cache_seen: RegistryStats,
    trips_seen: u64,
    drains_seen: u64,
}

impl ServeEngine {
    /// Builds an engine spilling to `store`.
    pub fn new(cfg: EngineConfig, store: SnapshotStore, tracer: Tracer) -> Self {
        let shards = cfg.registry.shard_count;
        ServeEngine {
            mode: cfg.mode,
            lifecycle: cfg.lifecycle,
            registry: ShardedRegistry::new(cfg.registry),
            store,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            tracer,
            scratch: BatchScratch::new(),
            buffers: TickBuffers::default(),
            tick: 0,
            served: 0,
            degraded: 0,
            lifecycle_stats: LifecycleStats::default(),
            parked: RetrySchedule::new(),
            tenant_breakers: BTreeMap::new(),
            shard_breakers: (0..shards).map(|_| Breaker::new(cfg.lifecycle.breaker)).collect(),
            shard_delay: vec![0; shards],
            supervisor: ShardSupervisor::new(cfg.lifecycle.supervisor, shards),
            submit_tick: BTreeMap::new(),
            cache_seen: RegistryStats::default(),
            trips_seen: 0,
            drains_seen: 0,
        }
    }

    /// Installs a snapshot for `key` (training-time provisioning). Spill
    /// failures during eviction keep the victim resident and are counted
    /// in [`RegistryStats::failed_spills`].
    pub fn provision(&mut self, key: ClientKey, snapshot: ModelSnapshot) {
        self.registry.insert(key, snapshot, &self.store);
    }

    /// Offers a request; `Err` returns it because it was shed. Requests
    /// without a deadline receive the engine's default budget (deadline =
    /// next tick + `deadline_ticks`).
    pub fn submit(&mut self, mut req: Request) -> Result<(), Request> {
        if req.deadline.is_none() {
            if let Some(budget) = self.lifecycle.deadline_ticks {
                req.deadline = Some(self.tick.saturating_add(budget));
            }
        }
        let id = req.id;
        match self.queue.offer(req) {
            Ok(()) => {
                if self.tracer.is_enabled() {
                    self.tracer.incr("serve.requests_submitted_total");
                    self.submit_tick.insert(id, self.tick);
                }
                Ok(())
            }
            Err(req) => {
                self.tracer.incr("serve.requests_shed_total");
                Err(req)
            }
        }
    }

    /// Engine-wide accounting.
    pub fn stats(&self) -> ServeStats {
        let mut lifecycle = self.lifecycle_stats;
        lifecycle.breaker_trips = self
            .tenant_breakers
            .values()
            .chain(self.shard_breakers.iter())
            .map(Breaker::trips)
            .sum();
        lifecycle.shard_drains = self.supervisor.drains();
        lifecycle.worst_recovery_ticks = self.supervisor.worst_recovery_ticks();
        ServeStats {
            served: self.served,
            degraded: self.degraded,
            admission: self.queue.stats(),
            cache: self.registry.stats(),
            lifecycle,
        }
    }

    /// The registry's fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.registry.shard_count()
    }

    /// Current queue depth (bounded by the configured capacity).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Requests the engine still owes an answer for: queued plus parked
    /// (retry backoff / slow-shard deferral). Drivers tick until this hits
    /// zero — the "no hangs" settle loop.
    pub fn pending_work(&self) -> usize {
        self.queue.depth() + self.parked.len()
    }

    /// The tracer threaded through every tick.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The snapshot spill store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Direct registry access (tests and capacity experiments).
    pub fn registry(&self) -> &ShardedRegistry {
        &self.registry
    }

    /// The tenant breaker's current state (tests, bench reporting).
    pub fn tenant_breaker_state(&self, key: &ClientKey) -> BreakerState {
        self.tenant_breakers
            .get(key)
            .map_or(BreakerState::Closed, Breaker::state)
    }

    /// The shard's current health.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.supervisor.health(shard)
    }

    /// Installs per-shard service delays for subsequent ticks (chaos
    /// slow-shard windows). Unlisted shards are reset to zero delay.
    pub fn set_shard_delays(&mut self, delays: &[(u64, u64)]) {
        self.shard_delay.iter_mut().for_each(|d| *d = 0);
        for &(shard, delay) in delays {
            if let Some(slot) = self.shard_delay.get_mut(shard as usize) {
                *slot = (*slot).max(delay);
            }
        }
    }

    /// Runs a crash-recovery pass over the snapshot store (quarantine torn
    /// temps and corrupt entries, rebuild the index) and records it as a
    /// `serve`/`store_recovery` event indexed by the current tick.
    pub fn recover_store(&mut self) -> std::io::Result<RecoveryReport> {
        let report = self.store.recover()?;
        let quarantined = (report.quarantined_torn + report.quarantined_corrupt) as u64;
        let indexed = report.indexed as u64;
        self.tracer.record_with("serve", "store_recovery", self.tick, |e| {
            e.int("quarantined", quarantined).int("indexed", indexed);
        });
        self.tracer.incr("serve.store_recoveries_total");
        self.tracer.add("serve.store_quarantined_total", quarantined);
        self.tracer.gauge("serve.store_indexed", indexed);
        Ok(report)
    }

    /// Drains the queue plus due retries and answers every request it can;
    /// parks retries/deferrals for later ticks. Responses come back sorted
    /// by request id regardless of batching layout.
    pub fn tick(&mut self) -> Vec<Response> {
        let tick_idx = self.tick;
        self.tick += 1;
        let tick_span = self.tracer.span_at("tick", tick_idx);
        let tr = tick_span.tracer();

        // Lifecycle counters are emitted as per-tick deltas against this
        // entry snapshot, so one guard covers every site in the resolve
        // loop below.
        let lifecycle_before = self.lifecycle_stats;
        self.tracer.gauge("serve.queue_depth", self.queue.depth() as u64);
        self.tracer.gauge("serve.parked", self.parked.len() as u64);

        let mut work: Vec<InFlight> = self.parked.release(tick_idx);
        work.extend(self.queue.drain().into_iter().map(|req| InFlight {
            req,
            attempt: 0,
            deferred: false,
        }));
        // Seed-derived composition: order by schedule-assigned id, not by
        // the order submissions happened to arrive in.
        work.sort_by_key(|w| w.req.id);

        let mut responses: Vec<Response> = Vec::with_capacity(work.len());
        let mut buf = std::mem::take(&mut self.buffers);
        let mut per_shard = vec![0u64; self.registry.shard_count()];
        let mut shard_obs = vec![ShardObservation::default(); self.registry.shard_count()];

        {
            let _resolve_span = tr.span_at("resolve", tick_idx);
            for item in work {
                let shard = self.registry.shard_of(&item.req.key);
                per_shard[shard] += 1;

                // Deadline budget: a request the engine failed to answer by
                // its deadline tick gets an explicit Expired answer — an
                // answer from its own history, never a hang.
                if item.req.deadline.is_some_and(|d| tick_idx > d) {
                    self.lifecycle_stats.expired += 1;
                    responses.push(expired_response(item.req));
                    continue;
                }

                // A request without history has no window to forecast from:
                // it is answered from the fallback (0.0 over an empty
                // history) and, being malformed rather than a model-path
                // failure, records no outcome.
                if item.req.history.is_empty() {
                    responses.push(fallback_response(item.req));
                    continue;
                }

                // Slow-shard deferral: at most once per request, and never
                // past the deadline.
                let delay = self.shard_delay[shard];
                if delay > 0 && !item.deferred {
                    let release = tick_idx + delay;
                    shard_obs[shard].deferred += 1;
                    if item.req.deadline.is_some_and(|d| release > d) {
                        self.lifecycle_stats.expired += 1;
                        responses.push(expired_response(item.req));
                    } else {
                        self.lifecycle_stats.deferrals += 1;
                        self.parked.park(
                            release,
                            InFlight {
                                deferred: true,
                                ..item
                            },
                        );
                    }
                    continue;
                }

                // Circuit breakers: shard first, then tenant. An open
                // breaker answers from the tenant's own history and records
                // no outcome (fast-fails must not extend the cooldown).
                let shard_route = self.shard_breakers[shard].route(tick_idx);
                let route = if shard_route == Route::Fallback {
                    Route::Fallback
                } else {
                    self.with_tenant_breaker(&item.req.key, |b| b.route(tick_idx))
                };
                if route == Route::Fallback {
                    self.lifecycle_stats.breaker_fallbacks += 1;
                    responses.push(fallback_response(item.req));
                    continue;
                }

                match self.registry.get(&item.req.key, &self.store) {
                    Ok(snap) => {
                        let start = buf.windows.len();
                        let scaler = snap.scaler();
                        push_scaled_window(
                            &mut buf.windows,
                            &item.req.history,
                            snap.history_len(),
                            scaler,
                        );
                        // A window that is non-finite from its own values
                        // is malformed input, like an empty history: a
                        // retry would see the same values, so it is
                        // answered from the fallback now and records no
                        // outcome.
                        if !buf.windows[start..].iter().all(|v| v.is_finite()) {
                            buf.windows.truncate(start);
                            responses.push(fallback_response(item.req));
                            continue;
                        }
                        // Simulated upstream poison: the lane's scaled
                        // window arrives non-finite, a transient fault.
                        let poisoned = ld_faultinject::is_active()
                            && ld_faultinject::fault_hit(
                                ld_faultinject::FaultSite::BatchNan,
                                item.req.key.stable_hash() ^ tick_idx.rotate_left(23),
                            );
                        if !poisoned {
                            buf.lanes.push(Lane {
                                batch: (snap.shape(), snap.fingerprint()),
                                id: item.req.id,
                                key: item.req.key,
                                shard,
                                scaler,
                                model: Arc::clone(snap.shared_model()),
                                window_start: start,
                            });
                        } else {
                            buf.windows.truncate(start);
                            self.finish_failure(
                                tick_idx,
                                item,
                                shard,
                                true,
                                &mut responses,
                                &mut buf.outcomes,
                            );
                        }
                    }
                    Err(err) => {
                        // Corrupt spills are transient (the bytes may heal
                        // after recovery/re-spill); Missing is permanent.
                        let transient = matches!(err, SnapshotError::Corrupt(_));
                        self.finish_failure(
                            tick_idx,
                            item,
                            shard,
                            transient,
                            &mut responses,
                            &mut buf.outcomes,
                        );
                    }
                }
            }
        }

        // Groups in `(shape, fingerprint)` order, each holding its lanes in
        // id order: the sort is stable and the lanes were resolved in id
        // order.
        buf.lanes.sort_by_key(|lane| lane.batch);
        let same_batch = |a: &Lane, b: &Lane| a.batch == b.batch;

        if self.tracer.is_enabled() {
            for (shard, &n) in per_shard.iter().enumerate() {
                if n > 0 {
                    self.tracer.gauge(&format!("serve.shard{shard}.requests"), n);
                    self.tracer.observe("serve.shard_requests", n);
                }
            }
            let groups = buf.lanes.chunk_by(same_batch).count();
            self.tracer.observe("serve.batch_groups", groups as u64);
            for group in buf.lanes.chunk_by(same_batch) {
                self.tracer.observe("serve.batch_size", group.len() as u64);
            }
        }

        // Each mode only produces the model outputs; both are bitwise
        // `predict`'s, so the modes differ in the tag alone.
        let source = match self.mode {
            ExecMode::Batched => ResponseSource::Batched,
            ExecMode::Serial => ResponseSource::Serial,
        };
        buf.outputs.clear();
        buf.outputs.resize(buf.lanes.len(), 0.0);
        let mut done = 0;
        for (ordinal, group) in buf.lanes.chunk_by(same_batch).enumerate() {
            let batch_span = tr.span_at("batch", ordinal as u64);
            let btr = batch_span.tracer();
            let model = &group[0].model;
            let out = &mut buf.outputs[done..done + group.len()];
            done += group.len();
            match self.mode {
                // One forward per group, whatever its lane count: a lone
                // lane's window is read in place, a group's are gathered.
                ExecMode::Batched => {
                    let windows = if let [lane] = group {
                        lane.window(&buf.windows)
                    } else {
                        buf.gathered.clear();
                        for lane in group {
                            buf.gathered.extend_from_slice(lane.window(&buf.windows));
                        }
                        &buf.gathered
                    };
                    model.predict_batch_fused(windows, group.len(), &mut self.scratch, out);
                }
                ExecMode::Serial => {
                    for (y, lane) in out.iter_mut().zip(group) {
                        *y = model.predict(lane.window(&buf.windows));
                    }
                }
            }
            for lane in group {
                btr.record_span("request", lane.id, 1, 0);
            }
        }
        for (lane, &y) in buf.lanes.iter_mut().zip(&buf.outputs) {
            let resp = finish_lane(lane, y, source, &buf.windows);
            buf.outcomes.push(Outcome {
                id: resp.id,
                tenant: Tenant::Answered(responses.len()),
                shard: lane.shard,
                ok: !resp.degraded,
            });
            responses.push(resp);
        }
        // The lanes' model handles are released in a pass of their own. Each
        // release is an atomic decrement, which waits for every pending
        // store; interleaved with the response writes above, the releases
        // made that loop about three times as slow on a 2,000-lane tick.
        buf.lanes.clear();
        buf.windows.clear();

        // Apply model-path outcomes in id order: breaker state advances as
        // a pure function of the (deterministic) outcome sequence.
        buf.outcomes.sort_by_key(|o| o.id);
        for o in buf.outcomes.drain(..) {
            shard_obs[o.shard].services += 1;
            if !o.ok {
                shard_obs[o.shard].errors += 1;
            }
            self.shard_breakers[o.shard].record(tick_idx, o.ok);
            let key = match &o.tenant {
                Tenant::Answered(i) => &responses[*i].key,
                Tenant::Parked(key) => key,
            };
            self.with_tenant_breaker(key, |b| b.record(tick_idx, o.ok));
        }
        self.buffers = buf;

        // Shard health: escalate, drain unhealthy shards (spill + evict so
        // future requests rehydrate from durable state), and record every
        // transition as an event.
        let mut transitions = self.supervisor.observe(tick_idx, &shard_obs);
        let unhealthy: Vec<usize> = transitions
            .iter()
            .filter(|t| t.to == ShardHealth::Unhealthy)
            .map(|t| t.shard)
            .collect();
        for shard in unhealthy {
            self.registry.drain_shard(shard, &self.store);
            if let Some(t) = self.supervisor.mark_drained(shard) {
                transitions.push(t);
            }
        }
        for t in &transitions {
            self.tracer.record_with("serve", "shard_health", tick_idx, |e| {
                e.int("shard", t.shard as u64)
                    .int("from", t.from.code())
                    .int("to", t.to.code());
            });
        }

        responses.sort_by_key(|r| r.id);
        self.served += responses.len() as u64;
        self.degraded += responses.iter().filter(|r| r.degraded).count() as u64;

        if self.tracer.is_enabled() {
            self.record_tick_metrics(tick_idx, &responses, lifecycle_before, &transitions);
        }
        responses
    }

    /// Per-tick series export: response counters, logical latency
    /// histogram, lifecycle deltas, breaker/supervisor transitions, and
    /// registry cache deltas. Called only with the tracer enabled; updates
    /// only the export bookkeeping, never state a response depends on.
    fn record_tick_metrics(
        &mut self,
        tick_idx: u64,
        responses: &[Response],
        lifecycle_before: LifecycleStats,
        transitions: &[crate::supervisor::HealthTransition],
    ) {
        let m = &self.tracer;
        m.add("serve.responses_total", responses.len() as u64);
        for r in responses {
            if r.degraded {
                m.incr("serve.responses_degraded_total");
            }
            if let Some(submitted) = self.submit_tick.remove(&r.id) {
                m.observe("serve.request_latency_ticks", tick_idx.saturating_sub(submitted));
            }
        }
        let lc = self.lifecycle_stats;
        m.add("serve.expired_total", lc.expired.saturating_sub(lifecycle_before.expired));
        m.add("serve.retries_total", lc.retries.saturating_sub(lifecycle_before.retries));
        m.add(
            "serve.deferrals_total",
            lc.deferrals.saturating_sub(lifecycle_before.deferrals),
        );
        m.add(
            "serve.breaker_fallbacks_total",
            lc.breaker_fallbacks.saturating_sub(lifecycle_before.breaker_fallbacks),
        );

        let trips: u64 = self
            .tenant_breakers
            .values()
            .chain(self.shard_breakers.iter())
            .map(Breaker::trips)
            .sum();
        m.add("serve.breaker_trips_total", trips.saturating_sub(self.trips_seen));
        self.trips_seen = trips;

        m.add("serve.shard_health_transitions_total", transitions.len() as u64);
        let drains = self.supervisor.drains();
        m.add("serve.shard_drains_total", drains.saturating_sub(self.drains_seen));
        self.drains_seen = drains;

        let cache = self.registry.stats();
        let seen = self.cache_seen;
        m.add("serve.cache_hits_total", cache.hits.saturating_sub(seen.hits));
        m.add("serve.cache_misses_total", cache.misses.saturating_sub(seen.misses));
        m.add(
            "serve.cache_rehydrations_total",
            cache.rehydrations.saturating_sub(seen.rehydrations),
        );
        m.add(
            "serve.cache_corrupt_rehydrations_total",
            cache.corrupt_rehydrations.saturating_sub(seen.corrupt_rehydrations),
        );
        m.add("serve.cache_evictions_total", cache.evictions.saturating_sub(seen.evictions));
        m.add(
            "serve.cache_failed_spills_total",
            cache.failed_spills.saturating_sub(seen.failed_spills),
        );
        self.cache_seen = cache;
    }

    /// Runs `f` on the tenant's breaker, creating it on first sight. The key
    /// is cloned into the map only then, not on every request.
    fn with_tenant_breaker<R>(
        &mut self,
        key: &ClientKey,
        f: impl FnOnce(&mut Breaker) -> R,
    ) -> R {
        if let Some(breaker) = self.tenant_breakers.get_mut(key) {
            return f(breaker);
        }
        let mut breaker = Breaker::new(self.lifecycle.breaker);
        let out = f(&mut breaker);
        self.tenant_breakers.insert(key.clone(), breaker);
        out
    }

    /// Handles a model-path failure for `item`: records the outcome, then
    /// either parks a retry (transient failure, budget and deadline allow)
    /// or answers from the fallback now.
    fn finish_failure(
        &mut self,
        tick_idx: u64,
        item: InFlight,
        shard: usize,
        transient: bool,
        responses: &mut Vec<Response>,
        outcomes: &mut Vec<Outcome>,
    ) {
        let next_attempt = item.attempt + 1;
        if transient && self.lifecycle.retry.allows(next_attempt) {
            // Jitter derives from the request id — the request's own seed —
            // never the wall clock.
            let backoff = self
                .lifecycle
                .retry
                .backoff(next_attempt, item.req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let release = tick_idx + backoff;
            if item.req.deadline.is_none_or(|d| release <= d) {
                self.lifecycle_stats.retries += 1;
                outcomes.push(Outcome {
                    id: item.req.id,
                    tenant: Tenant::Parked(item.req.key.clone()),
                    shard,
                    ok: false,
                });
                self.parked.park(
                    release,
                    InFlight {
                        attempt: next_attempt,
                        ..item
                    },
                );
                return;
            }
        }
        outcomes.push(Outcome {
            id: item.req.id,
            tenant: Tenant::Answered(responses.len()),
            shard,
            ok: false,
        });
        responses.push(fallback_response(item.req));
    }
}

/// Appends `history`'s scaled window to `out`, exactly as
/// `OptimizedPredictor::predict` prepares it: take the last `n`
/// observations (left-padding with the earliest value when the history is
/// shorter) and scale each one.
///
/// # Panics
/// Panics if `history` is empty; the tick answers such a request from the
/// fallback before it gets here.
fn push_scaled_window(
    out: &mut Vec<f64>,
    history: &[f64],
    n: usize,
    scaler: ld_api::MinMaxScaler,
) {
    let pad = n.saturating_sub(history.len());
    let kept = &history[history.len().saturating_sub(n)..];
    let window = std::iter::repeat_n(history[0], pad).chain(kept.iter().copied());
    out.extend(window.map(|v| scaler.transform(v)));
}

/// Inverse-scales a model output and clamps to the non-negative JAR domain
/// (same post-processing as `OptimizedPredictor::predict`). A non-finite
/// model output degrades the lane instead of poisoning the response. The
/// response takes the lane's key.
fn finish_lane(lane: &mut Lane, y: f64, source: ResponseSource, windows: &[f64]) -> Response {
    let value = lane.scaler.inverse(y).max(0.0);
    let (value, source, degraded) = if value.is_finite() {
        (value, source, false)
    } else {
        let fallback = wma_forecast_scaled(lane.window(windows), lane.scaler);
        (fallback, ResponseSource::Fallback, true)
    };
    Response {
        id: lane.id,
        key: std::mem::replace(&mut lane.key, ClientKey::new("", "")),
        value,
        source,
        degraded,
    }
}

/// The smoothing fallback over a lane's scaled window, inverse-scaled.
fn wma_forecast_scaled(window: &[f64], scaler: ld_api::MinMaxScaler) -> f64 {
    let raw: Vec<f64> = window.iter().map(|&u| scaler.inverse(u)).collect();
    ld_baselines::smoothing::Wma::default().predict(&raw).max(0.0)
}

/// The smoothing fallback value straight over a request's raw history.
fn fallback_value(req: &Request) -> f64 {
    let finite: Vec<f64> = req.history.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        ld_baselines::smoothing::Wma::default().predict(&finite).max(0.0)
    }
}

/// The smoothing fallback for a request that never produced a lane
/// (corrupt snapshot / poisoned window / open breaker / empty history).
fn fallback_response(req: Request) -> Response {
    Response {
        value: fallback_value(&req),
        id: req.id,
        key: req.key,
        source: ResponseSource::Fallback,
        degraded: true,
    }
}

/// The explicit answer for a request whose deadline passed.
fn expired_response(req: Request) -> Response {
    Response {
        value: fallback_value(&req),
        id: req.id,
        key: req.key,
        source: ResponseSource::Expired,
        degraded: true,
    }
}

/// FNV-1a digest over a response stream: id, value bits, source, degraded
/// flag of every response in order. Two identically-seeded runs must
/// produce equal digests — the loadgen's bitwise-determinism gate.
pub fn response_digest(responses: &[Response]) -> u64 {
    let mut h = crate::hash::FNV_OFFSET;
    for r in responses {
        h = crate::hash::fnv1a_u64(h, r.id);
        h = crate::hash::fnv1a_u64(h, r.value.to_bits());
        h = crate::hash::fnv1a_byte(h, r.source.tag());
        h = crate::hash::fnv1a_byte(h, u8::from(r.degraded));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_api::MinMaxScaler;
    use ld_nn::ForecasterConfig;
    use ld_telemetry::{FieldValue, Snapshot};

    fn test_store(name: &str) -> SnapshotStore {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/ld-serve-unit");
        p.push(name);
        let s = SnapshotStore::open(p).expect("open store");
        s.clear().expect("clear store");
        s
    }

    fn engine(name: &str, mode: ExecMode) -> ServeEngine {
        ServeEngine::new(
            EngineConfig {
                mode,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig::default(),
            },
            test_store(name),
            Tracer::disabled(),
        )
    }

    fn snapshot(seed: u64, lo_hi: (f64, f64)) -> ModelSnapshot {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 4,
            num_layers: 1,
            seed,
        });
        ModelSnapshot::new(model, MinMaxScaler::fit(&[lo_hi.0, lo_hi.1]), 6)
    }

    fn history(id: u64) -> Vec<f64> {
        (0..9).map(|i| 40.0 + f64::from(i) * 3.0 + (id as f64)).collect()
    }

    fn scaled_window(history: &[f64], n: usize, scaler: MinMaxScaler) -> Vec<f64> {
        let mut window = Vec::new();
        push_scaled_window(&mut window, history, n, scaler);
        window
    }

    /// What `predict` answers for `history` through `snap`, post-processed
    /// as the engine does.
    fn predicted(snap: &ModelSnapshot, history: &[f64]) -> f64 {
        let window = scaled_window(history, snap.history_len(), snap.scaler());
        snap.scaler().inverse(snap.model().predict(&window)).max(0.0)
    }

    #[test]
    fn batched_equals_serial_and_predict_bitwise() {
        // Two distinct models (two groups), per-tenant scalers.
        let snapshots: Vec<(ClientKey, ModelSnapshot)> = (0..8u64)
            .map(|t| {
                let hi = 100.0 + f64::from(u32::try_from(t).unwrap());
                (ClientKey::new(format!("t{t}"), "wiki"), snapshot(t % 2, (0.0, hi)))
            })
            .collect();
        let run = |name: &str, mode: ExecMode| -> Vec<Response> {
            let mut e = engine(name, mode);
            for (i, (key, snap)) in snapshots.iter().enumerate() {
                e.provision(key.clone(), snap.clone());
                e.submit(Request::new(i as u64, key.clone(), history(i as u64)))
                    .expect("admit");
            }
            e.tick()
        };
        let batched = run("engine-eq-batched", ExecMode::Batched);
        let serial = run("engine-eq-serial", ExecMode::Serial);
        assert_eq!(batched.len(), 8);
        assert_eq!(serial.len(), 8);
        for ((rb, rs), (_, snap)) in batched.iter().zip(&serial).zip(&snapshots) {
            assert_eq!(rb.id, rs.id);
            assert_eq!((rb.source, rs.source), (ResponseSource::Batched, ResponseSource::Serial));
            assert_eq!(
                rb.value.to_bits(),
                rs.value.to_bits(),
                "batched vs serial must be bitwise identical (id {})",
                rb.id
            );
            let want = predicted(snap, &history(rb.id));
            assert_eq!(
                rb.value.to_bits(),
                want.to_bits(),
                "batched vs predict must be bitwise identical (id {})",
                rb.id
            );
        }
    }

    #[test]
    fn colliding_fingerprints_of_different_shapes_are_batched_apart() {
        // Two models of different geometry whose 64-bit fingerprints
        // collide. Grouped by fingerprint alone, both lanes would run
        // through the first model and trip its window-length check; keyed
        // by `(shape, fingerprint)`, each tenant gets its own weights.
        let forged = 0x00c0_111d_ed00_f00d;
        let tenants: Vec<(ClientKey, ModelSnapshot)> = [(6, 4, 1, 21u64), (9, 5, 2, 22)]
            .into_iter()
            .enumerate()
            .map(|(t, (n, h, layers, seed))| {
                let model = LstmForecaster::new(ForecasterConfig {
                    history_len: n,
                    hidden_size: h,
                    num_layers: layers,
                    seed,
                });
                let snap = ModelSnapshot::new(model, MinMaxScaler::fit(&[0.0, 90.0]), n);
                (ClientKey::new(format!("t{t}"), "w"), snap.with_forged_fingerprint(forged))
            })
            .collect();
        let mut e = engine("engine-collision", ExecMode::Batched);
        for (id, (key, snap)) in tenants.iter().enumerate() {
            e.provision(key.clone(), snap.clone());
            e.submit(Request::new(id as u64, key.clone(), history(id as u64)))
                .expect("admit");
        }
        let rs = e.tick();
        assert_eq!(rs.len(), 2);
        for (r, (_, snap)) in rs.iter().zip(&tenants) {
            assert_eq!(r.source, ResponseSource::Batched);
            let want = predicted(snap, &history(r.id));
            assert_eq!(r.value.to_bits(), want.to_bits(), "id {}", r.id);
        }
    }

    #[test]
    fn mixed_tick_answers_every_lane_from_its_own_window() {
        // One tick mixing a three-lane group (model `a`), one-lane groups of
        // two shapes, and a lane whose model output is non-finite: a head
        // bias of 1e308 inverse-scales to infinity.
        let a = snapshot(11, (0.0, 90.0));
        let other_shape = LstmForecaster::new(ForecasterConfig {
            history_len: 9,
            hidden_size: 5,
            num_layers: 2,
            seed: 14,
        });
        let mut poisoned = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 4,
            num_layers: 1,
            seed: 13,
        });
        let grads = poisoned.zero_grads();
        // The head bias is the model's one 1x1 parameter at H = 4.
        poisoned.visit_params(&grads, &mut |p, _| {
            if (p.rows(), p.cols()) == (1, 1) {
                p[(0, 0)] = 1e308;
            }
        });
        let tenants: Vec<(ClientKey, ModelSnapshot)> = [
            a.clone(),
            snapshot(12, (0.0, 95.0)),
            a.clone(),
            ModelSnapshot::new(poisoned, MinMaxScaler::fit(&[0.0, 80.0]), 6),
            ModelSnapshot::new(other_shape, MinMaxScaler::fit(&[0.0, 70.0]), 9),
            a,
        ]
        .into_iter()
        .enumerate()
        .map(|(t, snap)| (ClientKey::new(format!("t{t}"), "w"), snap))
        .collect();
        let poisoned_id = 3;
        let tick = |e: &mut ServeEngine, first_id: u64| -> Vec<Response> {
            for (t, (key, _)) in tenants.iter().enumerate() {
                let id = first_id + t as u64;
                e.submit(Request::new(id, key.clone(), history(t as u64))).expect("admit");
            }
            e.tick()
        };
        let provisioned = |name: &str, mode: ExecMode| {
            let mut e = engine(name, mode);
            for (key, snap) in &tenants {
                e.provision(key.clone(), snap.clone());
            }
            e
        };
        let mut batched = provisioned("engine-mixed-batched", ExecMode::Batched);
        let rs = tick(&mut batched, 0);
        let serial = tick(&mut provisioned("engine-mixed-serial", ExecMode::Serial), 0);
        assert_eq!(rs.len(), tenants.len());
        for ((r, s), (key, snap)) in rs.iter().zip(&serial).zip(&tenants) {
            assert_eq!((r.id, &r.key, r.degraded), (s.id, key, s.degraded));
            assert_eq!(r.value.to_bits(), s.value.to_bits(), "batched vs serial, id {}", r.id);
            let own = history(r.id);
            if r.id == poisoned_id {
                assert!(r.degraded);
                assert_eq!(r.source, ResponseSource::Fallback);
                assert_eq!(s.source, ResponseSource::Fallback);
                // The WMA of the lane's own inverse-scaled window, which
                // another lane's window would not give.
                let scaler = snap.scaler();
                let wma = |h: &[f64]| {
                    let raw: Vec<f64> = scaled_window(h, 6, scaler)
                        .iter()
                        .map(|&u| scaler.inverse(u))
                        .collect();
                    ld_baselines::smoothing::Wma::default().predict(&raw).max(0.0)
                };
                assert_eq!(r.value.to_bits(), wma(&own).to_bits());
                assert_ne!(r.value.to_bits(), wma(&history(r.id - 1)).to_bits());
            } else {
                assert!(!r.degraded, "id {}", r.id);
                assert_eq!((r.source, s.source), (ResponseSource::Batched, ResponseSource::Serial));
                assert_eq!(r.value.to_bits(), predicted(snap, &own).to_bits(), "id {}", r.id);
            }
        }

        // A second tick through the engine's reused buffers answers alike.
        let again = tick(&mut batched, 100);
        let answer = |r: &Response| (r.key.clone(), r.value.to_bits(), r.source, r.degraded);
        for (r, g) in rs.iter().zip(&again) {
            assert_eq!(g.id, r.id + 100);
            assert_eq!(answer(g), answer(r));
        }
    }

    #[test]
    fn empty_history_is_answered_from_the_fallback() {
        // A request with no history must not panic the tick and lose every
        // other tenant's answer.
        let snaps = [snapshot(6, (0.0, 75.0)), snapshot(7, (0.0, 85.0))];
        let keys = [ClientKey::new("good", "w"), ClientKey::new("empty", "w")];
        let mut e = engine("engine-empty-history", ExecMode::Batched);
        for (key, snap) in keys.iter().zip(&snaps) {
            e.provision(key.clone(), snap.clone());
        }
        e.submit(Request::new(0, keys[0].clone(), history(0))).expect("admit");
        e.submit(Request::new(1, keys[1].clone(), vec![])).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 2);
        assert!(!rs[0].degraded);
        assert_eq!(rs[0].source, ResponseSource::Batched);
        assert_eq!(rs[0].value.to_bits(), predicted(&snaps[0], &history(0)).to_bits());
        assert!(rs[1].degraded);
        assert_eq!((rs[1].source, rs[1].value), (ResponseSource::Fallback, 0.0));
        assert_eq!(e.pending_work(), 0);
    }

    #[test]
    fn non_finite_history_is_answered_at_once_without_retry() {
        // A request whose own history holds a NaN is malformed input, not a
        // transient fault: retried, it would fail the same way, trip the
        // tenant and shard breakers, drain the shard and send the tenant's
        // next well-formed request to the fallback.
        let snap = snapshot(9, (0.0, 70.0));
        let key = ClientKey::new("nan", "w");
        let mut e = engine("engine-nan-history", ExecMode::Batched);
        e.provision(key.clone(), snap.clone());
        let mut poisoned = history(0);
        *poisoned.last_mut().expect("non-empty history") = f64::NAN;
        e.submit(Request::new(0, key.clone(), poisoned.clone())).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1, "answered on the tick it was submitted");
        assert!(rs[0].degraded);
        assert_eq!(rs[0].source, ResponseSource::Fallback);
        let finite: Vec<f64> = poisoned.iter().copied().filter(|v| v.is_finite()).collect();
        let wma = ld_baselines::smoothing::Wma::default().predict(&finite).max(0.0);
        assert_eq!(rs[0].value.to_bits(), wma.to_bits());
        assert_eq!(e.pending_work(), 0);
        let lifecycle = e.stats().lifecycle;
        assert_eq!(
            (lifecycle.retries, lifecycle.breaker_trips, lifecycle.shard_drains),
            (0, 0, 0)
        );
        assert_eq!(e.tenant_breaker_state(&key), BreakerState::Closed);

        e.submit(Request::new(1, key, history(1))).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source, ResponseSource::Batched);
        assert_eq!(rs[0].value.to_bits(), predicted(&snap, &history(1)).to_bits());
    }

    #[test]
    fn responses_sorted_by_id_regardless_of_submission_order() {
        let mut e = engine("engine-order", ExecMode::Batched);
        let key = |t: u64| ClientKey::new(format!("t{t}"), "w");
        for t in 0..4 {
            e.provision(key(t), snapshot(0, (0.0, 50.0)));
        }
        for id in [3u64, 0, 2, 1] {
            e.submit(Request::new(id, key(id), history(id))).expect("admit");
        }
        let ids: Vec<u64> = e.tick().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_tenant_degrades_to_wma_without_affecting_others() {
        let mut e = engine("engine-degrade", ExecMode::Batched);
        let known = ClientKey::new("known", "w");
        e.provision(known.clone(), snapshot(5, (0.0, 80.0)));
        e.submit(Request::new(0, known.clone(), history(0))).expect("admit");
        e.submit(Request::new(1, ClientKey::new("ghost", "w"), history(1)))
            .expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 2);
        assert!(!rs[0].degraded);
        assert_eq!(rs[0].source, ResponseSource::Batched);
        assert!(rs[1].degraded);
        assert_eq!(rs[1].source, ResponseSource::Fallback);
        assert!(rs[1].value.is_finite() && rs[1].value >= 0.0);

        // The known tenant's answer is identical to a solo run.
        let mut solo = engine("engine-degrade-solo", ExecMode::Batched);
        solo.provision(known.clone(), snapshot(5, (0.0, 80.0)));
        solo.submit(Request::new(0, known, history(0))).expect("admit");
        let solo_rs = solo.tick();
        assert_eq!(rs[0].value.to_bits(), solo_rs[0].value.to_bits());
    }

    #[test]
    fn identical_seed_ticks_have_equal_digests_and_span_trees() {
        let run = |store_name: &str| -> (u64, Vec<String>) {
            let mut e = ServeEngine::new(
                EngineConfig {
                    mode: ExecMode::Batched,
                    queue_capacity: 64,
                    registry: RegistryConfig {
                        shard_count: 4,
                        capacity_per_shard: 16,
                    },
                    lifecycle: LifecycleConfig::default(),
                },
                test_store(store_name),
                Tracer::enabled(),
            );
            let mut all = Vec::new();
            for t in 0..6u64 {
                let key = ClientKey::new(format!("t{t}"), "w");
                e.provision(key, snapshot(t % 3, (0.0, 60.0)));
            }
            for tick in 0..3u64 {
                for t in 0..6u64 {
                    e.submit(Request::new(
                        tick * 6 + t,
                        ClientKey::new(format!("t{t}"), "w"),
                        history(t + tick),
                    ))
                    .expect("admit");
                }
                all.extend(e.tick());
            }
            (response_digest(&all), e.tracer().snapshot().logical_paths())
        };
        let (d1, p1) = run("engine-det-a");
        let (d2, p2) = run("engine-det-b");
        assert_eq!(d1, d2, "identically-seeded runs must produce equal digests");
        assert_eq!(p1, p2, "identically-seeded runs must produce equal span trees");
        assert!(p1.iter().any(|p| p.contains("batch")));
        assert!(p1.iter().any(|p| p.contains("request")));
        assert!(p1.iter().any(|p| p.contains("resolve")));
        // Spans are timed regions: no span sits below `resolve`.
        for p in &p1 {
            let below = p.split('/').skip_while(|seg| !seg.starts_with("resolve")).skip(1);
            assert_eq!(below.count(), 0, "span below resolve: {p}");
        }
    }

    #[test]
    fn short_history_left_pads_like_the_framework() {
        let scaler = MinMaxScaler::fit(&[0.0, 10.0]);
        let w = scaled_window(&[4.0, 6.0], 4, scaler);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], scaler.transform(4.0));
        assert_eq!(w[1], scaler.transform(4.0));
        assert_eq!(w[3], scaler.transform(6.0));
    }

    #[test]
    fn slow_shard_defers_once_and_answers_after_the_delay() {
        let mut e = engine("engine-slow-shard", ExecMode::Batched);
        let key = ClientKey::new("slowpoke", "w");
        let shard = e.registry().shard_of(&key) as u64;
        e.provision(key.clone(), snapshot(2, (0.0, 90.0)));

        // Tick 0: the shard is slow; the request parks instead of serving.
        e.set_shard_delays(&[(shard, 2)]);
        e.submit(Request::new(0, key.clone(), history(0))).expect("admit");
        assert!(e.tick().is_empty());
        assert_eq!(e.pending_work(), 1);

        // The delay clears; the request is answered at its release tick
        // with bits identical to an undelayed engine's answer.
        e.set_shard_delays(&[]);
        assert!(e.tick().is_empty(), "release tick not yet reached");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].degraded);
        assert_eq!(e.pending_work(), 0);
        assert_eq!(e.stats().lifecycle.deferrals, 1);

        let mut plain = engine("engine-slow-shard-plain", ExecMode::Batched);
        plain.provision(key.clone(), snapshot(2, (0.0, 90.0)));
        plain.submit(Request::new(0, key, history(0))).expect("admit");
        let plain_rs = plain.tick();
        assert_eq!(rs[0].value.to_bits(), plain_rs[0].value.to_bits());
    }

    #[test]
    fn deadline_miss_is_an_explicit_expired_answer() {
        let mut e = engine("engine-deadline", ExecMode::Batched);
        let key = ClientKey::new("hurried", "w");
        let shard = e.registry().shard_of(&key) as u64;
        e.provision(key.clone(), snapshot(3, (0.0, 70.0)));
        // Deadline 0 but the shard is 3 ticks slow: deferral would land
        // past the deadline, so the engine answers Expired immediately.
        e.set_shard_delays(&[(shard, 3)]);
        e.submit(Request::new(0, key, history(0)).with_deadline(0)).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source, ResponseSource::Expired);
        assert!(rs[0].degraded);
        assert!(rs[0].value.is_finite() && rs[0].value >= 0.0);
        assert_eq!(e.stats().lifecycle.expired, 1);
        assert_eq!(e.pending_work(), 0);
    }

    #[test]
    fn tenant_breaker_trips_to_fallback_and_recovers_via_probe() {
        let mut e = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 1,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig {
                    deadline_ticks: None,
                    retry: RetryPolicy {
                        base_ticks: 1,
                        max_retries: 0,
                        jitter_ticks: 0,
                    },
                    breaker: BreakerConfig {
                        failure_threshold: 2,
                        cooldown_ticks: 2,
                        close_streak: 1,
                    },
                    supervisor: SupervisorConfig::default(),
                },
            },
            test_store("engine-breaker"),
            Tracer::disabled(),
        );
        // A ghost tenant fails every model-path attempt (Missing snapshot).
        let ghost = ClientKey::new("ghost", "w");
        let mut id = 0u64;
        for tick in 0..2u64 {
            e.submit(Request::new(id, ghost.clone(), history(tick))).expect("admit");
            id += 1;
            let rs = e.tick();
            assert_eq!(rs[0].source, ResponseSource::Fallback);
        }
        assert_eq!(e.tenant_breaker_state(&ghost), BreakerState::Open);
        assert!(e.stats().lifecycle.breaker_trips >= 1);

        // While open: served from fallback without touching the registry.
        let misses_before = e.stats().cache.misses;
        e.submit(Request::new(id, ghost.clone(), history(9))).expect("admit");
        id += 1;
        let rs = e.tick();
        assert_eq!(rs[0].source, ResponseSource::Fallback);
        assert_eq!(e.stats().cache.misses, misses_before, "open breaker must fast-fail");
        assert!(e.stats().lifecycle.breaker_fallbacks >= 1);

        // Provision the tenant; after cooldown a probe succeeds and closes.
        e.provision(ghost.clone(), snapshot(8, (0.0, 60.0)));
        loop {
            e.submit(Request::new(id, ghost.clone(), history(3))).expect("admit");
            id += 1;
            let rs = e.tick();
            if rs[0].source == ResponseSource::Batched {
                break;
            }
            assert!(id < 20, "breaker never recovered");
        }
        assert_eq!(e.tenant_breaker_state(&ghost), BreakerState::Closed);
    }

    #[test]
    fn metrics_are_pure_observers_and_deterministic() {
        let run = |store_name: &str, tracer: Tracer| -> (u64, Snapshot) {
            let mut e = ServeEngine::new(
                EngineConfig {
                    mode: ExecMode::Batched,
                    queue_capacity: 64,
                    registry: RegistryConfig {
                        shard_count: 4,
                        capacity_per_shard: 16,
                    },
                    lifecycle: LifecycleConfig::default(),
                },
                test_store(store_name),
                tracer,
            );
            let mut all = Vec::new();
            for t in 0..6u64 {
                e.provision(ClientKey::new(format!("t{t}"), "w"), snapshot(t % 3, (0.0, 60.0)));
            }
            for tick in 0..4u64 {
                for t in 0..6u64 {
                    e.submit(Request::new(
                        tick * 6 + t,
                        ClientKey::new(format!("t{t}"), "w"),
                        history(t + tick),
                    ))
                    .expect("admit");
                }
                all.extend(e.tick());
            }
            (response_digest(&all), e.tracer().events())
        };

        let (d_off, _) = run("engine-metrics-off", Tracer::disabled());
        let (d_on_a, s) = run("engine-metrics-a", Tracer::enabled());
        let (d_on_b, s_b) = run("engine-metrics-b", Tracer::enabled());

        // Pure observer: tracing on/off must not change a single response bit.
        assert_eq!(d_off, d_on_a, "traced run diverged from the untraced one");
        // Determinism: identical runs produce byte-identical events JSON.
        assert_eq!(d_on_a, d_on_b);
        let json = s.to_json();
        assert_eq!(json, s_b.to_json(), "events snapshots must be byte-identical");

        // The snapshot actually carries the serving story.
        assert_eq!(s.counter("serve.requests_submitted_total"), 24);
        assert_eq!(s.counter("serve.responses_total"), 24);
        let lat = s.histogram("serve.request_latency_ticks").expect("latency histogram");
        assert_eq!(lat.count, 24);
        assert!(s.histogram("serve.batch_size").is_some());
        assert!(s.gauge("serve.queue_depth").is_some());
        assert!(ld_telemetry::validate_events(&json).is_ok());
        assert!(ld_metrics::validate_exposition(&ld_metrics::to_prometheus(&s)).is_ok());
    }

    #[test]
    fn unhealthy_shard_is_drained_and_served_from_the_store() {
        let mut e = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 1,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig {
                    deadline_ticks: None,
                    retry: RetryPolicy {
                        base_ticks: 1,
                        max_retries: 0,
                        jitter_ticks: 0,
                    },
                    // Breakers effectively off so errors keep flowing to
                    // the supervisor.
                    breaker: BreakerConfig {
                        failure_threshold: u32::MAX,
                        cooldown_ticks: 1,
                        close_streak: 1,
                    },
                    supervisor: SupervisorConfig {
                        degraded_ratio: 0.5,
                        unhealthy_ticks: 2,
                        recovery_ticks: 1,
                    },
                },
            },
            test_store("engine-drain"),
            Tracer::enabled(),
        );
        let good = ClientKey::new("good", "w");
        e.provision(good.clone(), snapshot(4, (0.0, 80.0)));
        let ghost = ClientKey::new("ghost", "w");

        // Three ticks of 100% ghost errors: Degraded, then Unhealthy+drain.
        for tick in 0..3u64 {
            e.submit(Request::new(tick, ghost.clone(), history(tick))).expect("admit");
            e.tick();
        }
        assert_eq!(e.stats().lifecycle.shard_drains, 1);
        assert_eq!(e.shard_health(0), ShardHealth::Recovering);
        // The drain spilled `good` out of memory...
        assert!(!e.registry().is_resident(&good));
        assert!(e.store().contains(&good));

        // ...but it still serves, rehydrated from the store, and the shard
        // heals after a clean tick.
        e.submit(Request::new(10, good.clone(), history(1))).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].degraded);
        assert_eq!(e.shard_health(0), ShardHealth::Healthy);
        assert!(e.stats().lifecycle.worst_recovery_ticks >= 1);
        // Every transition is a `serve`/`shard_health` event, not a span.
        let events = e.tracer().events();
        let moved = |from: ShardHealth, to: ShardHealth| {
            let code = |h: ShardHealth| Some(FieldValue::Int { value: h.code() });
            events.events_of("serve", "shard_health").iter().any(|ev| {
                ev.field("shard") == Some(&FieldValue::Int { value: 0 })
                    && ev.field("from").cloned() == code(from)
                    && ev.field("to").cloned() == code(to)
            })
        };
        assert!(moved(ShardHealth::Degraded, ShardHealth::Unhealthy));
        assert!(moved(ShardHealth::Unhealthy, ShardHealth::Recovering));
        assert!(moved(ShardHealth::Recovering, ShardHealth::Healthy));
        let paths = e.tracer().snapshot().logical_paths();
        assert!(!paths.iter().any(|p| p.contains("shard_health")));
    }
}
