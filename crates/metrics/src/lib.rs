//! `ld-metrics` — the serving stack's readers of the one observability
//! plane.
//!
//! The serving engine records its `serve.*` counters, gauges and
//! histograms through the same [`ld_telemetry::Tracer`] that holds its
//! spans and events; this crate holds no registry of its own. It keeps
//! what reads or scores those records:
//!
//! * [`export`] — the Prometheus text exposition of a tracer's
//!   [`ld_telemetry::Snapshot`] and its validator;
//! * [`slo`] — the logical-tick SLO tracker with multi-window burn-rate
//!   alerts;
//! * [`profile`] — the span profiler that folds a trace into a self-time
//!   table.
//!
//! Like the tracer, nothing here reads a clock or the environment: every
//! value is supplied by the caller.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod export;
pub mod profile;
pub mod slo;

pub use export::{to_prometheus, validate_exposition};
pub use profile::{ProfileEntry, SpanProfile};
pub use slo::{BurnAlert, SloConfig, SloStatus, SloTracker};
