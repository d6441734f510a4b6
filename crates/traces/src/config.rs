//! The 14 workload configurations of Table I.
//!
//! A *workload configuration* is a trace plus an interval length
//! (Section IV-A). Wikipedia, LCG and Google use 5/10/30 minutes; Azure
//! uses 10/30/60 (its 5-minute JARs are too small); Facebook covers a
//! single day and uses only 5/10.

use ld_api::Series;
use ld_faultinject::{FaultPlan, FaultSite};

use crate::generators;

/// The five trace families of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Wikipedia web requests (Wikibench).
    Wikipedia,
    /// LCG grid jobs (Grid Workloads Archive).
    Lcg,
    /// Microsoft Azure VM requests.
    Azure,
    /// Google cluster jobs.
    Google,
    /// Facebook Hadoop jobs.
    Facebook,
}

impl WorkloadKind {
    /// All five families, in Table I order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Wikipedia,
        WorkloadKind::Lcg,
        WorkloadKind::Azure,
        WorkloadKind::Google,
        WorkloadKind::Facebook,
    ];

    /// Short trace name as used in the paper's figures.
    pub fn short_name(&self) -> &'static str {
        match self {
            WorkloadKind::Wikipedia => "wiki",
            WorkloadKind::Lcg => "LCG",
            WorkloadKind::Azure => "AZ",
            WorkloadKind::Google => "GL",
            WorkloadKind::Facebook => "FB",
        }
    }

    /// Workload category from Table I.
    pub fn category(&self) -> &'static str {
        match self {
            WorkloadKind::Wikipedia => "Web",
            WorkloadKind::Lcg => "HPC",
            WorkloadKind::Azure => "Public Cloud",
            WorkloadKind::Google => "Data Center",
            WorkloadKind::Facebook => "Data Center",
        }
    }

    /// The interval lengths (minutes) this trace is evaluated at (Table I).
    pub fn intervals(&self) -> &'static [u32] {
        match self {
            WorkloadKind::Wikipedia => &[5, 10, 30],
            WorkloadKind::Lcg => &[5, 10, 30],
            WorkloadKind::Azure => &[10, 30, 60],
            WorkloadKind::Google => &[5, 10, 30],
            WorkloadKind::Facebook => &[5, 10],
        }
    }

    /// Generates the base 5-minute series for this family.
    pub fn generate_base(&self, seed: u64) -> Series {
        match self {
            WorkloadKind::Wikipedia => generators::wikipedia::generate(seed),
            WorkloadKind::Lcg => generators::lcg::generate(seed),
            WorkloadKind::Azure => generators::azure::generate(seed),
            WorkloadKind::Google => generators::google::generate(seed),
            WorkloadKind::Facebook => generators::facebook::generate(seed),
        }
    }
}

/// One of the paper's 14 workload configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceConfig {
    /// Trace family.
    pub kind: WorkloadKind,
    /// Interval length in minutes.
    pub interval_mins: u32,
}

impl TraceConfig {
    /// Builds the configuration's series by generating the base trace and
    /// aggregating to the configured interval.
    pub fn build(&self, seed: u64) -> Series {
        let base = self.kind.generate_base(seed);
        assert_eq!(
            self.interval_mins % base.interval_mins,
            0,
            "interval {} not a multiple of base {}",
            self.interval_mins,
            base.interval_mins
        );
        let factor = (self.interval_mins / base.interval_mins) as usize;
        let mut s = base.aggregate(factor);
        s.name = self.label();
        s
    }

    /// [`TraceConfig::build`] under a fault plan, with what the sanitizer
    /// repaired. An armed plan's `trace` site deterministically corrupts
    /// values (NaN / negatives keyed off the seed), which are then repaired
    /// through [`Series::sanitized`]: the harness's way of exercising the
    /// ingestion repair path on otherwise-valid traces.
    pub fn build_reported(
        &self,
        seed: u64,
        faults: &FaultPlan,
    ) -> (Series, ld_api::SanitizeReport) {
        let s = self.build(seed);
        if !faults.is_armed() {
            return (s, ld_api::SanitizeReport::default());
        }
        let corrupted: Vec<f64> = s
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                faults.corrupt(FaultSite::TraceCorrupt, seed.rotate_left(17) ^ i as u64, v)
            })
            .collect();
        Series::sanitized(s.name, s.interval_mins, corrupted).expect("interval validated above")
    }

    /// Figure-style label, e.g. `"GL-30min"`.
    pub fn label(&self) -> String {
        format!("{}-{}min", self.kind.short_name(), self.interval_mins)
    }
}

impl std::fmt::Display for TraceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// All 14 workload configurations in Table I order.
pub fn all_configurations() -> Vec<TraceConfig> {
    let mut out = Vec::with_capacity(14);
    for kind in WorkloadKind::ALL {
        for &interval_mins in kind.intervals() {
            out.push(TraceConfig {
                kind,
                interval_mins,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_fourteen_configurations() {
        let configs = all_configurations();
        assert_eq!(configs.len(), 14);
        // 3 + 3 + 3 + 3 + 2 per Table I.
        let count = |k: WorkloadKind| configs.iter().filter(|c| c.kind == k).count();
        assert_eq!(count(WorkloadKind::Wikipedia), 3);
        assert_eq!(count(WorkloadKind::Lcg), 3);
        assert_eq!(count(WorkloadKind::Azure), 3);
        assert_eq!(count(WorkloadKind::Google), 3);
        assert_eq!(count(WorkloadKind::Facebook), 2);
    }

    #[test]
    fn azure_skips_five_minutes() {
        assert!(!WorkloadKind::Azure.intervals().contains(&5));
        assert!(WorkloadKind::Azure.intervals().contains(&60));
    }

    #[test]
    fn build_aggregates_to_requested_interval() {
        let c = TraceConfig {
            kind: WorkloadKind::Facebook,
            interval_mins: 10,
        };
        let s = c.build(0);
        assert_eq!(s.interval_mins, 10);
        assert_eq!(s.len(), 144);
        assert_eq!(s.name, "FB-10min");
    }

    #[test]
    fn build_is_deterministic() {
        let c = TraceConfig {
            kind: WorkloadKind::Lcg,
            interval_mins: 30,
        };
        assert_eq!(c.build(5).values, c.build(5).values);
    }

    #[test]
    fn aggregation_conserves_total_jobs() {
        let base = WorkloadKind::Google.generate_base(1);
        let agg = base.aggregate(6);
        let total_base: f64 = base.values[..agg.len() * 6].iter().sum();
        let total_agg: f64 = agg.values.iter().sum();
        assert!((total_base - total_agg).abs() < 1e-6);
    }

    #[test]
    fn labels_match_paper_convention() {
        let configs = all_configurations();
        assert!(configs.iter().any(|c| c.label() == "wiki-5min"));
        assert!(configs.iter().any(|c| c.label() == "AZ-60min"));
        assert!(configs.iter().any(|c| c.label() == "GL-30min"));
    }
}
