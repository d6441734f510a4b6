//! `ld-serve` — the multi-tenant serving layer over the trained
//! LoadDynamics predictors.
//!
//! The paper tunes one predictor per workload configuration; a cloud
//! provider runs *many* tenants at once. This crate is the piece between
//! the trained models and that fleet:
//!
//! - [`snapshot`]: serializable [`snapshot::ModelSnapshot`]s (model +
//!   tenant scaler + window length) with weight fingerprints, spilled to
//!   and rehydrated from a [`snapshot::SnapshotStore`];
//! - [`registry`]: the FNV-sharded, logically-clocked LRU registry of
//!   resident snapshots keyed by `(tenant, workload)`;
//! - [`admission`]: a bounded request queue whose shed decisions are a
//!   pure function of the submission sequence;
//! - [`engine`]: the tick-based [`engine::ServeEngine`] — drains the
//!   queue, groups lanes by `(shape, weight fingerprint)`, and answers
//!   each group with one fused batched LSTM forward
//!   ([`ld_nn::LstmForecaster::predict_batch_fused`]), bitwise the answer
//!   of the retained per-tenant serial path; poisoned or snapshot-less
//!   tenants degrade to the WMA smoothing fallback without contaminating
//!   their co-batched neighbors, and everything it does is recorded
//!   through the one [`ld_telemetry::Tracer`] it is built with;
//! - [`lifecycle`]: deadlines, deterministic retry backoff, and the
//!   per-tenant/per-shard circuit breakers that route tripped tenants to
//!   the smoothing fallback;
//! - [`supervisor`]: per-shard health tracking that drains and restarts
//!   unhealthy shards from durable snapshot state;
//! - [`bench`]: the stable `BENCH_serve.json` / `BENCH_resilience.json`
//!   report types the `ld-loadgen` binary writes and reads back.
//!
//! Everything downstream of the request sequence is deterministic: shard
//! placement and batch composition derive from keys and seeds — never from
//! arrival time, thread identity, or the wall clock — so identically-seeded
//! load runs produce bitwise-identical response streams and identical span
//! trees.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod admission;
pub mod bench;
pub mod engine;
mod hash;
pub mod lifecycle;
pub mod registry;
pub mod snapshot;
pub mod supervisor;

pub use admission::{AdmissionQueue, AdmissionStats, Request};
pub use bench::{
    percentile_ns, LatencyBucket, ResilienceBenchReport, ServeBenchReport,
    RESILIENCE_SCHEMA_VERSION, SERVE_SCHEMA_VERSION,
};
pub use engine::{
    response_digest, EngineConfig, ExecMode, LifecycleConfig, LifecycleStats, Response,
    ResponseSource, ServeEngine, ServeStats,
};
pub use lifecycle::{Breaker, BreakerConfig, BreakerState, RetryPolicy, RetrySchedule, Route};
pub use registry::{ClientKey, RegistryConfig, RegistryStats, ShardedRegistry};
pub use snapshot::{ModelSnapshot, ModelShape, RecoveryReport, SnapshotError, SnapshotStore};
pub use supervisor::{
    HealthTransition, ShardHealth, ShardObservation, ShardSupervisor, SupervisorConfig,
};
