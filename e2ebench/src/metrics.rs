//! The benchmark's metric table (names, units, directions, bounds) and the
//! order statistics every workload reports with.
//!
//! This table is the single definition `BENCHMARK.json` mirrors; the smoke
//! test fails when the two drift apart.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse before a change counts as a regression. `None` for per-layer
    /// metrics, which attribute time and carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported by every workload from an
/// untraced run. A "job" is the workload's unit of work and a "forecast"
/// one answered prediction; README.md maps both onto each workload.
pub const END_TO_END: &[Def] = &[
    e2e("job_s", "s", Lower, 0.25),
    e2e("forecast_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The 21 CloudInsight members in Table II order (`table2_pool`), which is
/// also the order their families are listed in.
pub const COUNCIL_MEMBERS: [&str; 21] = [
    "Mean",
    "kNN",
    "LocalLinearReg",
    "LocalQuadraticReg",
    "LocalCubicReg",
    "GlobalLinearReg",
    "GlobalQuadraticReg",
    "GlobalCubicReg",
    "WMA",
    "EMA",
    "HoltWintersDES",
    "BrownDES",
    "AR",
    "ARMA",
    "ARIMA",
    "LinearSVR",
    "GaussianSVR",
    "DecisionTree",
    "RandomForest",
    "GradientBoosting",
    "ExtraTrees",
];

/// Table II families as `(name, first member, member count)`.
pub const COUNCIL_FAMILIES: [(&str, usize, usize); 4] = [
    ("naive", 0, 2),
    ("regression", 2, 6),
    ("timeseries", 8, 7),
    ("ml", 15, 6),
];

/// Per-layer metrics from a traced run, named by crate. Shares are of the
/// traced pass's wall time; a layer a workload never calls reads 0.
pub const PER_LAYER: &[Def] = &[
    layer("trace.wall_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.covered_pct", "%", Higher),
    layer("trace.untraced_pct", "%", Lower),
    // tune
    layer("bayesopt.self_pct", "%", Lower),
    layer("bayesopt.proposals", "count", Lower),
    layer("gp.surrogate_fit_pct", "%", Lower),
    layer("core.evaluate_pct", "%", Lower),
    layer("core.evaluations", "count", Higher),
    layer("core.retrain_pct", "%", Lower),
    layer("nn.predict_pct", "%", Lower),
    layer("nn.predict_calls", "count", Higher),
    // council
    layer("baselines.fit_pct", "%", Lower),
    layer("baselines.predict_pct", "%", Lower),
    layer("baselines.council_self_pct", "%", Lower),
    layer("baselines.family.naive_pct", "%", Lower),
    layer("baselines.family.regression_pct", "%", Lower),
    layer("baselines.family.timeseries_pct", "%", Lower),
    layer("baselines.family.ml_pct", "%", Lower),
    layer("baselines.member.Mean_pct", "%", Lower),
    layer("baselines.member.kNN_pct", "%", Lower),
    layer("baselines.member.LocalLinearReg_pct", "%", Lower),
    layer("baselines.member.LocalQuadraticReg_pct", "%", Lower),
    layer("baselines.member.LocalCubicReg_pct", "%", Lower),
    layer("baselines.member.GlobalLinearReg_pct", "%", Lower),
    layer("baselines.member.GlobalQuadraticReg_pct", "%", Lower),
    layer("baselines.member.GlobalCubicReg_pct", "%", Lower),
    layer("baselines.member.WMA_pct", "%", Lower),
    layer("baselines.member.EMA_pct", "%", Lower),
    layer("baselines.member.HoltWintersDES_pct", "%", Lower),
    layer("baselines.member.BrownDES_pct", "%", Lower),
    layer("baselines.member.AR_pct", "%", Lower),
    layer("baselines.member.ARMA_pct", "%", Lower),
    layer("baselines.member.ARIMA_pct", "%", Lower),
    layer("baselines.member.LinearSVR_pct", "%", Lower),
    layer("baselines.member.GaussianSVR_pct", "%", Lower),
    layer("baselines.member.DecisionTree_pct", "%", Lower),
    layer("baselines.member.RandomForest_pct", "%", Lower),
    layer("baselines.member.GradientBoosting_pct", "%", Lower),
    layer("baselines.member.ExtraTrees_pct", "%", Lower),
    // serve
    layer("serve.submit_pct", "%", Lower),
    layer("serve.tick_pct", "%", Lower),
    layer("serve.harness_pct", "%", Lower),
    layer("serve.groups_per_tick", "count", Lower),
    layer("serve.lanes_per_group", "count", Higher),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.degraded", "count", Lower),
    layer("nn.batch_forward_pct", "%", Lower),
    layer("nn.batch_forward_gflops", "GFLOP/s", Higher),
    layer("serve.engine_overhead_pct", "%", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads here match ones computed in Python. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile, with `p_tenths` in tenths of a percent (975 is
/// p97.5) so the rank is exact integer arithmetic.
pub fn percentile(values: &[f64], p_tenths: usize) -> f64 {
    let data = sorted(values);
    assert!(!data.is_empty(), "percentile of an empty sample");
    let rank = (p_tenths * data.len()).div_ceil(1000).clamp(1, data.len());
    data[rank - 1]
}

/// The highest of the usual tail percentiles, up to p99, that still has at
/// least ten samples beyond it, as `(percent, value)`: p99 from 1000
/// samples, p97.5 at 400. p99.9 is left out: over the ten thousand
/// microsecond forecasts of a `tune` run it measured the host's interrupts,
/// not the program. Reported in the notes only: even p99 spread by about
/// 0.2 across seeds on the shared VM, too close to any allowed bound.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const CANDIDATES: [usize; 6] = [990, 975, 950, 900, 750, 500];
    let n = values.len();
    let p = CANDIDATES
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .unwrap_or(500);
    (p as f64 / 10.0, percentile(values, p))
}

/// VmHWM of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digests every workload prints so two
/// runs of one seed can be checked for identical work.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Splitmix64: derives decorrelated per-unit seeds from the workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from the top 32 bits.
pub fn unit(bits: u64) -> f64 {
    f64::from(u32::try_from(bits >> 32).expect("top 32 bits")) / 4_294_967_296.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 19800.0));
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), (97.5, 390.0));
        assert_eq!(tail(&[5.0]).0, 50.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "duplicate {}",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
