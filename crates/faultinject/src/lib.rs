//! Deterministic fault injection for the LoadDynamics recovery paths.
//!
//! The framework's fault-tolerance layer — the trainer's divergence
//! watchdog, trial isolation in the Bayesian optimizer, GP surrogate
//! recovery, and the baseline fallback — only runs when something goes
//! wrong, which on clean synthetic traces is never. This crate makes
//! "something goes wrong" a reproducible input: faults are *decisions
//! derived from a seed*, not random events, so a CI run that injects NaN
//! losses into 30% of trials injects them into exactly the same trials
//! every time.
//!
//! Six injection sites are wired into the workspace, each reached by the
//! object that owns the run:
//!
//! | Site | Location | Plan comes from | Effect |
//! |---|---|---|---|
//! | [`FaultSite::NanLoss`] | `ld-nn` trainer epoch loop | `FrameworkConfig::faults` | epoch loss becomes NaN for afflicted trials |
//! | [`FaultSite::CholeskyFail`] | `ld-bayesopt` surrogate fit | `FrameworkConfig::faults` | the whole GP fit fails; the optimizer proposes a random point |
//! | [`FaultSite::TraceCorrupt`] | `ld-traces` `TraceConfig::build_reported` | its `faults` argument | trace values become NaN / negative before sanitization |
//! | [`FaultSite::SnapshotCorrupt`] | `ld-serve` registry rehydration | `ServeEngine::set_faults` | a model snapshot read back from disk is truncated/garbled |
//! | [`FaultSite::BatchNan`] | `ld-serve` fused batch forward | `ServeEngine::set_faults` | one tenant's window turns NaN inside a shared batch |
//! | [`FaultSite::CrashWrite`] | `ld-serve` snapshot spill | `ServeEngine::set_faults` | the spill "crashes" mid-write, leaving a torn temp file |
//!
//! The [`chaos`] module layers a *schedule* on top of these point sites: a
//! seed-keyed timeline of slow-shard, snapshot-corrupt, crash-at-offset,
//! batch-NaN, and burst-overload windows that the `ld-loadgen --chaos`
//! soak harness replays deterministically.
//!
//! # Activation
//!
//! A plan is a [`FaultPlan`] handle that the run carries, the way it
//! carries its tracer. The handle is **disarmed by default**: every query
//! then answers "no fault" after one branch on it, so a clean run is
//! byte-identical to a build without the hooks. Nothing is process-wide:
//! two runs in one process, one faulted and one clean, never see each
//! other's plan, and a test arms a plan by handing it to the run it
//! drives. Clones of one plan share its occurrence counters.
//!
//! Binaries arm a plan from the environment with [`plan_from_env`]:
//!
//! ```text
//! LD_FAULT="nan_loss=0.3,cholesky=1x1,trace=0.05" LD_FAULT_SEED=42 ld-cli ...
//! ```
//!
//! Each `site=rate[xCOUNT]` entry sets the per-key fault probability and an
//! optional cap on total occurrences (`cholesky=1x1`: rate 1.0, at most one
//! occurrence — "the first surrogate fit fails").

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod chaos;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The injection sites understood by the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Corrupt an epoch training loss to NaN (trainer watchdog path).
    NanLoss,
    /// Fail a whole GP surrogate fit (optimizer random-fallback path).
    CholeskyFail,
    /// Corrupt raw trace values to NaN / negatives (sanitizer path).
    TraceCorrupt,
    /// Garble a model snapshot as it is rehydrated from disk
    /// (serve-registry degradation path).
    SnapshotCorrupt,
    /// Poison one tenant's input window with NaN inside a fused batch
    /// (per-tenant fallback isolation path).
    BatchNan,
    /// Simulate a crash in the middle of a snapshot spill: the store
    /// writes a torn temp file, never publishes it, and reports the spill
    /// as failed (crash-consistency / recovery path).
    CrashWrite,
}

const SITE_COUNT: usize = 6;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::NanLoss => 0,
            FaultSite::CholeskyFail => 1,
            FaultSite::TraceCorrupt => 2,
            FaultSite::SnapshotCorrupt => 3,
            FaultSite::BatchNan => 4,
            FaultSite::CrashWrite => 5,
        }
    }

    /// Per-site hash salt so the same key draws independent decisions at
    /// different sites.
    fn salt(self) -> u64 {
        match self {
            FaultSite::NanLoss => 0x6E61_6E5F_6C6F_7373,
            FaultSite::CholeskyFail => 0x6368_6F6C_6573_6B79,
            FaultSite::TraceCorrupt => 0x7472_6163_655F_6331,
            FaultSite::SnapshotCorrupt => 0x736E_6170_5F63_7270,
            FaultSite::BatchNan => 0x6261_7463_685F_6E61,
            FaultSite::CrashWrite => 0x6372_6173_685F_7772,
        }
    }

    /// Spec-string name (`nan_loss`, `cholesky`, `trace`, `snapshot`,
    /// `batch_nan`, `crash`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::NanLoss => "nan_loss",
            FaultSite::CholeskyFail => "cholesky",
            FaultSite::TraceCorrupt => "trace",
            FaultSite::SnapshotCorrupt => "snapshot",
            FaultSite::BatchNan => "batch_nan",
            FaultSite::CrashWrite => "crash",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "nan_loss" => Some(FaultSite::NanLoss),
            "cholesky" => Some(FaultSite::CholeskyFail),
            "trace" => Some(FaultSite::TraceCorrupt),
            "snapshot" => Some(FaultSite::SnapshotCorrupt),
            "batch_nan" => Some(FaultSite::BatchNan),
            "crash" => Some(FaultSite::CrashWrite),
            _ => None,
        }
    }
}

/// Configuration of one injection site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteConfig {
    /// Fault probability per key in `[0, 1]`.
    pub rate: f64,
    /// Cap on total occurrences (`None` = unbounded).
    pub max: Option<u64>,
}

/// A full fault plan: a seed plus per-site configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed the per-key decisions derive from (mix the master seed in here
    /// so different experiment seeds afflict different trials).
    pub seed: u64,
    sites: [Option<SiteConfig>; SITE_COUNT],
}

impl FaultConfig {
    /// An empty plan (no site injects anything).
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            sites: [None; SITE_COUNT],
            seed,
        }
    }

    /// Returns the plan with `site` configured.
    pub fn with_site(mut self, site: FaultSite, rate: f64, max: Option<u64>) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.sites[site.index()] = Some(SiteConfig { rate, max });
        self
    }

    /// The configuration for `site`, if any.
    pub fn site(&self, site: FaultSite) -> Option<SiteConfig> {
        self.sites[site.index()]
    }

    /// Parses a spec like `"nan_loss=0.3,cholesky=1x1,trace=0.05"`.
    ///
    /// Each entry is `site=rate` or `site=rateXcount` (capital or lowercase
    /// `x`); unknown sites and malformed numbers are errors.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut config = FaultConfig::new(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` missing `=`"))?;
            let site = FaultSite::from_str(name.trim())
                .ok_or_else(|| format!("unknown fault site `{name}`"))?;
            let value = value.trim();
            let (rate_str, max) = match value.split_once(['x', 'X']) {
                Some((r, c)) => {
                    let max: u64 = c
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad count in `{entry}`: {e}"))?;
                    (r.trim(), Some(max))
                }
                None => (value, None),
            };
            let rate: f64 = rate_str
                .parse()
                .map_err(|e| format!("bad rate in `{entry}`: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} in `{entry}` outside [0,1]"));
            }
            config = config.with_site(site, rate, max);
        }
        Ok(config)
    }
}

/// A fault plan handle: the parsed [`FaultConfig`] plus its per-site
/// occurrence counters, or nothing at all.
///
/// Disarmed by default, where every query answers "no fault" after one
/// branch. An armed plan is an `Arc`, so it is cheap to clone into every
/// part of the run it afflicts (worker closures included), and all clones
/// draw from the same occurrence budget: a cap such as `cholesky=1x1`
/// counts across the whole run, or the whole process when a binary hands
/// one plan to every run it drives.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Option<Arc<Armed>>,
}

#[derive(Debug)]
struct Armed {
    config: FaultConfig,
    counters: [AtomicU64; SITE_COUNT],
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn disarmed() -> Self {
        FaultPlan::default()
    }

    /// Arms `config` with fresh occurrence counters.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            armed: Some(Arc::new(Armed {
                config,
                counters: Default::default(),
            })),
        }
    }

    /// Builds a plan from `LD_FAULT` / `LD_FAULT_SEED`, without announcing
    /// it. Returns `None` when `LD_FAULT` is unset or empty. A malformed
    /// spec or seed is reported on stderr and the plan ignored: a typo'd
    /// knob must neither corrupt a run nor afflict other trials than the
    /// drill asked for.
    pub fn from_env(default_seed: u64) -> Option<Self> {
        env_plan(default_seed).map(|(plan, _)| plan)
    }

    /// Whether the plan is armed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    #[inline]
    fn site(&self, site: FaultSite) -> Option<(&Armed, SiteConfig)> {
        let armed = self.armed.as_deref()?;
        Some((armed, armed.config.site(site)?))
    }

    /// Pure keyed decision: does `key` fault at `site`? Deterministic in
    /// `(plan seed, site, key)`; ignores occurrence caps.
    #[inline]
    pub fn hit(&self, site: FaultSite, key: u64) -> bool {
        self.site(site)
            .is_some_and(|(armed, cfg)| unit_draw(armed.config.seed, site.salt(), key) < cfg.rate)
    }

    /// Counted decision: each call consumes one slot of the site's
    /// occurrence budget; call `n` faults iff the site's keyed draw at index
    /// `n` fires and fewer than `max` faults were already injected.
    /// Deterministic as long as the site is consulted in a deterministic
    /// order (the BO surrogate loop is sequential).
    pub fn hit_counted(&self, site: FaultSite) -> bool {
        let Some((armed, cfg)) = self.site(site) else {
            return false;
        };
        let n = armed.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        cfg.max.is_none_or(|max| n < max) && unit_draw(armed.config.seed, site.salt(), n) < cfg.rate
    }

    /// Corrupts `v` if `key` faults at `site`: half the afflicted keys
    /// become NaN, half become `-(v + 1)` (strictly negative even at
    /// `v = 0`), so both repair paths of the sanitizer are exercised.
    pub fn corrupt(&self, site: FaultSite, key: u64, v: f64) -> f64 {
        match self.site(site) {
            Some((armed, cfg)) if unit_draw(armed.config.seed, site.salt(), key) < cfg.rate => {
                // Decorrelate the corruption mode from the hit decision.
                if splitmix64(armed.config.seed ^ site.salt() ^ key.wrapping_mul(3)) & 1 == 0 {
                    f64::NAN
                } else {
                    -(v + 1.0)
                }
            }
            _ => v,
        }
    }
}

/// The one env entry point every binary uses (fig6, fig10, `ld-cli`,
/// `ld-loadgen`): the plan `LD_FAULT` / `LD_FAULT_SEED` describe, announced
/// on stderr so a faulted run can never be mistaken for a clean one, or a
/// disarmed plan.
pub fn plan_from_env(default_seed: u64) -> FaultPlan {
    match env_plan(default_seed) {
        Some((plan, announcement)) => {
            eprintln!("{announcement}");
            plan
        }
        None => FaultPlan::disarmed(),
    }
}

/// Always `false`: no fault plan is process-wide any more, since each run
/// carries its own [`FaultPlan`].
pub fn is_active() -> bool {
    false
}

/// The plan `LD_FAULT` / `LD_FAULT_SEED` describe and its announcement.
fn env_plan(default_seed: u64) -> Option<(FaultPlan, String)> {
    let spec = std::env::var("LD_FAULT").ok()?;
    let spec = spec.trim();
    if spec.is_empty() {
        return None;
    }
    match env_seed(default_seed).and_then(|seed| FaultConfig::parse(spec, seed)) {
        Ok(config) => {
            let announcement = format!(
                "fault injection active: LD_FAULT={spec} (seed {})",
                config.seed
            );
            Some((FaultPlan::new(config), announcement))
        }
        Err(e) => {
            eprintln!("LD_FAULT ignored: {e}");
            None
        }
    }
}

/// `LD_FAULT_SEED`, or `default_seed` when it is unset or blank.
fn env_seed(default_seed: u64) -> Result<u64, String> {
    match std::env::var("LD_FAULT_SEED") {
        Err(std::env::VarError::NotPresent) => Ok(default_seed),
        Err(e) => Err(format!("bad LD_FAULT_SEED: {e}")),
        Ok(s) if s.trim().is_empty() => Ok(default_seed),
        Ok(s) => s
            .trim()
            .parse()
            .map_err(|e| format!("bad LD_FAULT_SEED `{s}`: {e}")),
    }
}

/// `splitmix64` — the finalizer used to turn `(seed, salt, key)` into an
/// independent uniform decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_draw(seed: u64, salt: u64, key: u64) -> f64 {
    let h = splitmix64(seed ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ splitmix64(key));
    // 53 high bits -> uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test arms its own plan; nothing is shared between them.

    #[test]
    fn disarmed_by_default_and_when_empty() {
        assert!(!is_active());
        for plan in [FaultPlan::default(), FaultPlan::new(FaultConfig::new(3))] {
            assert!(!plan.hit(FaultSite::NanLoss, 7));
            assert!(!plan.hit_counted(FaultSite::CholeskyFail));
            assert_eq!(plan.corrupt(FaultSite::TraceCorrupt, 0, 5.0), 5.0);
        }
        assert!(!FaultPlan::disarmed().is_armed());
    }

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::new(FaultConfig::new(42).with_site(FaultSite::NanLoss, 0.3, None));
        let first: Vec<bool> = (0..10_000).map(|k| plan.hit(FaultSite::NanLoss, k)).collect();
        let second: Vec<bool> = (0..10_000).map(|k| plan.hit(FaultSite::NanLoss, k)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (2700..3300).contains(&hits),
            "expected ~30% of 10k keys, got {hits}"
        );
    }

    #[test]
    fn different_seeds_afflict_different_keys() {
        let one = FaultPlan::new(FaultConfig::new(1).with_site(FaultSite::NanLoss, 0.3, None));
        let two = FaultPlan::new(FaultConfig::new(2).with_site(FaultSite::NanLoss, 0.3, None));
        let a: Vec<bool> = (0..512).map(|k| one.hit(FaultSite::NanLoss, k)).collect();
        let b: Vec<bool> = (0..512).map(|k| two.hit(FaultSite::NanLoss, k)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn counted_site_respects_occurrence_cap() {
        let config = FaultConfig::new(0).with_site(FaultSite::CholeskyFail, 1.0, Some(2));
        let plan = FaultPlan::new(config);
        let hits: Vec<bool> = (0..10).map(|_| plan.hit_counted(FaultSite::CholeskyFail)).collect();
        assert_eq!(hits.iter().filter(|&&b| b).count(), 2);
        assert!(hits[0] && hits[1], "cap consumes the first calls at rate 1");
    }

    #[test]
    fn clones_share_the_budget_and_new_plans_start_fresh() {
        let config = FaultConfig::new(0).with_site(FaultSite::CrashWrite, 1.0, Some(1));
        let plan = FaultPlan::new(config.clone());
        let clone = plan.clone();
        assert!(clone.hit_counted(FaultSite::CrashWrite));
        assert!(!plan.hit_counted(FaultSite::CrashWrite), "the clone spent the one slot");
        assert!(FaultPlan::new(config).hit_counted(FaultSite::CrashWrite));
    }

    #[test]
    fn corrupt_produces_nan_and_negatives() {
        let config = FaultConfig::new(9).with_site(FaultSite::TraceCorrupt, 1.0, None);
        let plan = FaultPlan::new(config);
        let out: Vec<f64> = (0..64)
            .map(|k| plan.corrupt(FaultSite::TraceCorrupt, k, 10.0))
            .collect();
        assert!(out.iter().any(|v| v.is_nan()));
        assert!(out.iter().any(|v| *v < 0.0));
        assert!(out.iter().all(|v| v.is_nan() || *v < 0.0));
    }

    #[test]
    fn serve_sites_parse_and_draw_independently() {
        let parsed = FaultConfig::parse("snapshot=1x1, batch_nan=0.4", 5).unwrap();
        assert_eq!(
            parsed.site(FaultSite::SnapshotCorrupt),
            Some(SiteConfig { rate: 1.0, max: Some(1) })
        );
        assert_eq!(
            parsed.site(FaultSite::BatchNan),
            Some(SiteConfig { rate: 0.4, max: None })
        );
        // Distinct salts: the same keys must not fault identically at the
        // two new sites when both run at the same rate.
        let plan = FaultPlan::new(
            FaultConfig::new(11)
                .with_site(FaultSite::SnapshotCorrupt, 0.4, None)
                .with_site(FaultSite::BatchNan, 0.4, None),
        );
        let snap: Vec<bool> = (0..512).map(|k| plan.hit(FaultSite::SnapshotCorrupt, k)).collect();
        let nan: Vec<bool> = (0..512).map(|k| plan.hit(FaultSite::BatchNan, k)).collect();
        assert_ne!(snap, nan);
        assert!(snap.iter().any(|&b| b) && nan.iter().any(|&b| b));
    }

    #[test]
    fn spec_parsing_roundtrip_and_errors() {
        let parsed = FaultConfig::parse("nan_loss=0.3, cholesky=1x1 ,trace=0.05", 7).unwrap();
        assert_eq!(
            parsed.site(FaultSite::NanLoss),
            Some(SiteConfig { rate: 0.3, max: None })
        );
        assert_eq!(
            parsed.site(FaultSite::CholeskyFail),
            Some(SiteConfig { rate: 1.0, max: Some(1) })
        );
        assert_eq!(
            parsed.site(FaultSite::TraceCorrupt),
            Some(SiteConfig { rate: 0.05, max: None })
        );
        assert!(FaultConfig::parse("bogus=1", 0).is_err());
        assert!(FaultConfig::parse("nan_loss", 0).is_err());
        assert!(FaultConfig::parse("nan_loss=2.0", 0).is_err());
        assert!(FaultConfig::parse("cholesky=1xzz", 0).is_err());
        // Empty spec parses to an empty plan.
        let empty = FaultConfig::parse("", 3).unwrap();
        assert_eq!(empty, FaultConfig::new(3));
    }
}
