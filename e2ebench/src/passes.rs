//! Whole passes over a fixed list of Table I configurations: how `tune`
//! and `council` spend their measured seconds. Only whole passes run, so
//! every configuration weighs the same in a run's medians.
//!
//! Series are capped by the repository's `LD_FAST` preset
//! (`ExperimentScale::Fast`, at most 400 intervals) so a run holds many
//! passes. Every series of every pass has its own seed derived from the
//! workload seed; the predictors' own seeds stay fixed, so the workload
//! seed changes the traces and nothing else.

use std::time::Instant;

use ld_api::Series;
use ld_bench::ExperimentScale;
use ld_traces::TraceConfig;

use crate::metrics::splitmix64;
use crate::{speed, Ctx};

pub const SCALE: ExperimentScale = ExperimentScale::Fast;
/// Times the first pass is generated as set-up. One generation takes 3 to
/// 10 ms, so many are cheap, and the median needs many: the median of five
/// spread by 0.3 across seeds.
const SETUPS: usize = 51;

/// The configurations with the given labels, in Table I order.
pub fn configs(labels: &[&str]) -> Vec<TraceConfig> {
    let picked: Vec<TraceConfig> = ld_traces::all_configurations()
        .into_iter()
        .filter(|c| labels.contains(&c.label().as_str()))
        .collect();
    assert_eq!(
        picked.len(),
        labels.len(),
        "unknown configuration in {labels:?}"
    );
    picked
}

/// Pass `index`: one capped series per configuration.
fn pass(seed: u64, configs: &[TraceConfig], index: usize) -> Vec<Series> {
    configs
        .iter()
        .enumerate()
        .map(|(c, cfg)| {
            let unit = (index * 64 + c) as u64;
            SCALE.cap_series(&cfg.build(splitmix64(seed ^ splitmix64(unit))))
        })
        .collect()
}

/// Generates the first pass as set-up, repeatedly (returning each
/// generation's host-speed-adjusted time), then hands every series of
/// whole passes to `each`
/// while another pass is expected to end within the untraced budget; at
/// least one pass runs. Returns the set-up times and the number of passes
/// measured.
pub fn run(ctx: &Ctx, configs: &[TraceConfig], mut each: impl FnMut(Series)) -> (Vec<f64>, usize) {
    let mut setup_s = Vec::new();
    let mut first = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = pass(ctx.seed, configs, 0);
        setup_s.push(t.elapsed().as_secs_f64() * speed::factor());
        first.get_or_insert(generated);
    }
    let budget = ctx.untraced_seconds();
    let start = Instant::now();
    let mut done = 0;
    loop {
        let series = match first.take() {
            Some(series) => series,
            None => pass(ctx.seed, configs, done),
        };
        series.into_iter().for_each(&mut each);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / done as f64 > budget {
            return (setup_s, done);
        }
    }
}
