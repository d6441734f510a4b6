//! Discrete-event cloud auto-scaling simulator — the substrate for the
//! paper's Section IV-C case study.
//!
//! The paper runs a predictive auto-scaling policy on Google Cloud
//! (n1-standard-1 VMs, Cloud Suite's In-Memory Analytics as the job): at
//! each interval the next interval's JAR is predicted and that many VMs are
//! provisioned in advance; arriving jobs get one VM each; a shortfall
//! spawns on-demand VMs that pay a cold-start delay; a surplus runs idle.
//! Real cloud time is replaced here by a deterministic simulator that
//! models exactly the mechanics those results depend on: VM startup
//! latency, per-job execution time, and per-interval provisioning
//! accounting.
//!
//! - [`job`]: job model with seeded execution-time sampling,
//! - [`vm`]: VM lifecycle (provisioning → ready → busy → idle),
//! - [`sim`]: the interval-by-interval policy simulation,
//! - [`report`]: turnaround / under- / over-provisioning aggregation
//!   (the three panels of Fig. 10).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod job;
pub mod policy;
pub mod report;
pub mod sim;
pub mod vm;

pub use report::AutoscaleReport;
pub use policy::{CostModel, ProvisioningPolicy};
pub use sim::{simulate, simulate_traced, SimConfig};
