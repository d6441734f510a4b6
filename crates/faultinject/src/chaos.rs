//! Deterministic chaos schedules: a seed-keyed timeline of fault windows
//! for the serving soak harness.
//!
//! A [`ChaosSchedule`] is a pure function of `(seed, horizon, shard_count)`:
//! the same inputs generate byte-identical event lists on every platform,
//! every run. Each [`ChaosEvent`] opens a window `[start, start+duration)`
//! of logical ticks during which one fault family is active:
//!
//! | Kind | Target | Magnitude | Driven through |
//! |---|---|---|---|
//! | [`ChaosKind::SlowShard`] | shard index | extra ticks of service delay | `ServeEngine::set_shard_delay` |
//! | [`ChaosKind::SnapshotCorrupt`] | all rehydrations | fault rate, permille | [`FaultSite::SnapshotCorrupt`] |
//! | [`ChaosKind::CrashWrite`] | all spills | fault rate, permille | [`FaultSite::CrashWrite`] |
//! | [`ChaosKind::BatchNan`] | all lanes | fault rate, permille | [`FaultSite::BatchNan`] |
//! | [`ChaosKind::BurstOverload`] | admission queue | extra load, permille of fleet | extra loadgen requests |
//!
//! The driver (e.g. `ld-loadgen --chaos`) asks the schedule each tick for
//! the active fault plan ([`ChaosSchedule::fault_plan_at`]), the slow
//! shards ([`ChaosSchedule::slow_shards_at`]), and the burst load
//! ([`ChaosSchedule::burst_permille_at`]), and applies them. Because every
//! decision — window placement, per-key affliction inside a window, burst
//! victim choice — derives from the schedule seed, two identically-seeded
//! soaks replay the exact same hostile environment.
//!
//! # Spec format
//!
//! [`ChaosSchedule::to_spec`] renders the schedule as one line per event:
//!
//! ```text
//! slow_shard@12+3:shard5*2
//! crash@20+2:*560
//! burst@31+1:*400
//! ```
//!
//! i.e. `kind@start+duration:target*magnitude` with `shardN` for
//! shard-targeted events and `*` for fleet-wide ones; magnitudes are
//! permille rates (fault/burst kinds) or tick delays (`slow_shard`).

use crate::{splitmix64, FaultConfig, FaultSite};

/// The five chaos families the soak harness replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosKind {
    /// A shard serves slowly: its lanes are deferred `magnitude` ticks.
    SlowShard,
    /// Snapshot rehydrations are garbled at `magnitude` permille.
    SnapshotCorrupt,
    /// Snapshot spills crash mid-write at `magnitude` permille, leaving
    /// torn temp files for the recovery pass to quarantine.
    CrashWrite,
    /// Batch lanes turn NaN at `magnitude` permille.
    BatchNan,
    /// The fleet offers `magnitude` permille extra requests per tick.
    BurstOverload,
}

impl ChaosKind {
    const ALL: [ChaosKind; 5] = [
        ChaosKind::SlowShard,
        ChaosKind::SnapshotCorrupt,
        ChaosKind::CrashWrite,
        ChaosKind::BatchNan,
        ChaosKind::BurstOverload,
    ];

    /// Spec-string name.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::SlowShard => "slow_shard",
            ChaosKind::SnapshotCorrupt => "snapshot_corrupt",
            ChaosKind::CrashWrite => "crash",
            ChaosKind::BatchNan => "batch_nan",
            ChaosKind::BurstOverload => "burst",
        }
    }

    fn salt(self) -> u64 {
        match self {
            ChaosKind::SlowShard => 0x736C_6F77_5F73_6864,
            ChaosKind::SnapshotCorrupt => 0x636F_7272_5F77_696E,
            ChaosKind::CrashWrite => 0x6372_6173_685F_7769,
            ChaosKind::BatchNan => 0x6E61_6E5F_7769_6E64,
            ChaosKind::BurstOverload => 0x6275_7273_745F_6F76,
        }
    }
}

/// One fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChaosEvent {
    /// First tick of the window.
    pub start: u64,
    /// The fault family.
    pub kind: ChaosKind,
    /// Window length in ticks (≥ 1).
    pub duration: u64,
    /// Shard index for [`ChaosKind::SlowShard`]; 0 for fleet-wide kinds.
    pub target: u64,
    /// Permille rate (fault/burst kinds) or tick delay (`SlowShard`).
    pub magnitude: u64,
}

impl ChaosEvent {
    /// Whether the window covers `tick`.
    pub fn active_at(&self, tick: u64) -> bool {
        tick >= self.start && tick < self.start + self.duration
    }

    /// Whether the window's last tick is exactly `tick` (drivers run
    /// store-recovery passes at crash-window boundaries).
    pub fn ends_at(&self, tick: u64) -> bool {
        self.start + self.duration == tick + 1
    }
}

/// A full seed-keyed schedule over a tick horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    seed: u64,
    horizon: u64,
    shard_count: u64,
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generates the schedule for `(seed, horizon, shard_count)` — a pure
    /// function of its arguments. Every kind gets roughly one window per 12
    /// ticks (at least one), placed and sized by seed-keyed draws.
    ///
    /// # Panics
    /// Panics if `horizon` or `shard_count` is zero.
    pub fn generate(seed: u64, horizon: u64, shard_count: u64) -> Self {
        assert!(horizon > 0, "chaos schedule needs a positive horizon");
        assert!(shard_count > 0, "chaos schedule needs at least one shard");
        let mut events = Vec::new();
        for kind in ChaosKind::ALL {
            let windows = (horizon / 12).max(1);
            for w in 0..windows {
                let draw = |salt: u64| {
                    splitmix64(seed ^ kind.salt() ^ w.rotate_left(17) ^ salt.wrapping_mul(0x9E37))
                };
                let start = draw(1) % horizon;
                let duration = 1 + draw(2) % 3;
                let target = match kind {
                    ChaosKind::SlowShard => draw(3) % shard_count,
                    _ => 0,
                };
                let magnitude = match kind {
                    // 1–2 ticks of extra latency on the slow shard.
                    ChaosKind::SlowShard => 1 + draw(4) % 2,
                    // Corruption/poison rates land in [80, 280)‰ — hostile
                    // enough to trip breakers, bounded so the fleet survives.
                    ChaosKind::SnapshotCorrupt => 80 + draw(4) % 200,
                    ChaosKind::CrashWrite => 300 + draw(4) % 400,
                    ChaosKind::BatchNan => 80 + draw(4) % 200,
                    // Bursts add 30–70% extra load.
                    ChaosKind::BurstOverload => 300 + draw(4) % 400,
                };
                events.push(ChaosEvent {
                    start,
                    kind,
                    duration,
                    target,
                    magnitude,
                });
            }
        }
        events.sort_unstable();
        ChaosSchedule {
            seed,
            horizon,
            shard_count,
            events,
        }
    }

    /// The generating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The tick horizon the schedule covers.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Every event, sorted by `(start, kind, ...)`.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Events whose window covers `tick`.
    pub fn active_at(&self, tick: u64) -> impl Iterator<Item = &ChaosEvent> {
        self.events.iter().filter(move |e| e.active_at(tick))
    }

    /// The point-fault plan for `tick`: snapshot-corrupt, crash-write, and
    /// batch-NaN windows become site rates on a [`FaultConfig`] keyed by
    /// the schedule seed. Empty (a plan armed with it injects nothing) when
    /// no such window is open.
    pub fn fault_plan_at(&self, tick: u64) -> FaultConfig {
        let mut plan = FaultConfig::new(self.seed ^ tick.rotate_left(29));
        for event in self.active_at(tick) {
            let site = match event.kind {
                ChaosKind::SnapshotCorrupt => FaultSite::SnapshotCorrupt,
                ChaosKind::CrashWrite => FaultSite::CrashWrite,
                ChaosKind::BatchNan => FaultSite::BatchNan,
                _ => continue,
            };
            let rate = permille_to_rate(event.magnitude);
            plan = plan.with_site(site, rate, None);
        }
        plan
    }

    /// `(shard, delay_ticks)` for every slow-shard window covering `tick`.
    pub fn slow_shards_at(&self, tick: u64) -> Vec<(u64, u64)> {
        self.active_at(tick)
            .filter(|e| e.kind == ChaosKind::SlowShard)
            .map(|e| (e.target, e.magnitude))
            .collect()
    }

    /// Total extra load for `tick`, permille of the fleet (0 = no burst).
    pub fn burst_permille_at(&self, tick: u64) -> u64 {
        self.active_at(tick)
            .filter(|e| e.kind == ChaosKind::BurstOverload)
            .map(|e| e.magnitude)
            .sum()
    }

    /// Whether a crash-write window's *last* tick is `tick` — the moment
    /// the driver runs a store-recovery pass to quarantine torn temp files.
    pub fn crash_window_ends_at(&self, tick: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == ChaosKind::CrashWrite && e.ends_at(tick))
    }

    /// The documented one-event-per-line spec rendering.
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let target = match e.kind {
                ChaosKind::SlowShard => format!("shard{}", e.target),
                _ => "*".to_string(),
            };
            out.push_str(&format!(
                "{}@{}+{}:{}*{}\n",
                e.kind.as_str(),
                e.start,
                e.duration,
                target,
                e.magnitude
            ));
        }
        out
    }

    /// FNV-1a digest of the spec rendering: the schedule's stable identity,
    /// stamped into `BENCH_resilience.json`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_spec().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Permille to a probability, saturating at 1.
fn permille_to_rate(permille: u64) -> f64 {
    f64::from(u32::try_from(permille.min(1000)).expect("permille capped")) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = ChaosSchedule::generate(7, 48, 16);
        let b = ChaosSchedule::generate(7, 48, 16);
        let c = ChaosSchedule::generate(8, 48, 16);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.events(), c.events());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn every_kind_appears_and_windows_stay_in_bounds() {
        let s = ChaosSchedule::generate(42, 60, 8);
        for kind in ChaosKind::ALL {
            assert!(
                s.events().iter().any(|e| e.kind == kind),
                "kind {kind:?} missing from schedule"
            );
        }
        for e in s.events() {
            assert!(e.start < 60);
            assert!((1..=3).contains(&e.duration));
            assert!(e.magnitude > 0);
            if e.kind == ChaosKind::SlowShard {
                assert!(e.target < 8);
            } else {
                assert_eq!(e.target, 0);
            }
        }
    }

    #[test]
    fn fault_plan_reflects_open_windows() {
        let s = ChaosSchedule::generate(3, 40, 4);
        let mut saw_nonempty = false;
        for tick in 0..40 {
            let plan = s.fault_plan_at(tick);
            let corrupt_open = s
                .active_at(tick)
                .any(|e| e.kind == ChaosKind::SnapshotCorrupt);
            assert_eq!(
                plan.site(FaultSite::SnapshotCorrupt).is_some(),
                corrupt_open,
                "tick {tick}"
            );
            let sites = [FaultSite::SnapshotCorrupt, FaultSite::CrashWrite, FaultSite::BatchNan];
            saw_nonempty |= sites.iter().any(|&site| plan.site(site).is_some());
            for (shard, delay) in s.slow_shards_at(tick) {
                assert!(shard < 4);
                assert!((1..=2).contains(&delay));
            }
        }
        assert!(saw_nonempty, "a 40-tick schedule must open some window");
    }

    #[test]
    fn spec_lists_every_event_and_crash_boundaries_close() {
        let s = ChaosSchedule::generate(11, 36, 8);
        let spec = s.to_spec();
        assert_eq!(spec.lines().count(), s.events().len());
        assert!(spec.lines().all(|l| l.contains('@') && l.contains(':')));
        let closes: u64 = (0..36).filter(|&t| s.crash_window_ends_at(t)).count() as u64;
        let crash_windows = s
            .events()
            .iter()
            .filter(|e| e.kind == ChaosKind::CrashWrite)
            .count() as u64;
        assert!(closes >= 1 && closes <= crash_windows);
    }
}
