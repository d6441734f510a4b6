//! Experiment harness shared by the per-figure binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` (see
//! DESIGN.md's experiment index); this library holds what they share:
//! scale presets (full runs vs `LD_FAST=1` smoke runs), the standard
//! baseline lineup, walk-forward runners, and plain-text table/sparkline
//! rendering so the binaries print the same rows/series the paper reports.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod render;
pub mod runner;
pub mod scale;
pub mod telemetry_env;

pub use render::{print_table, sparkline};
pub use runner::{baseline_lineup, run_loaddynamics, run_predictor, ExperimentResult};
pub use scale::ExperimentScale;
