//! Shard health supervision: per-shard error/latency counters, degraded /
//! unhealthy marking, and drain-restart with state rehydrated from the
//! snapshot store.
//!
//! The supervisor observes one [`ShardObservation`] per shard per tick
//! (error count, service count, deferred-lane count) and runs a small
//! deterministic state machine per shard:
//!
//! ```text
//! Healthy ──(error ratio ≥ degraded_ratio)──▶ Degraded
//! Degraded ──(unhealthy_ticks consecutive bad ticks)──▶ Unhealthy
//! Unhealthy ──(engine drains + restarts the shard)──▶ Recovering
//! Recovering ──(recovery_ticks clean ticks)──▶ Healthy
//! Degraded/Recovering ──(clean tick streak)──▶ Healthy
//! ```
//!
//! An `Unhealthy` verdict tells the engine to **drain** the shard: spill
//! every resident snapshot to the store and evict it, so subsequent
//! requests rehydrate from durable state — the moral equivalent of a
//! process restart, with the store as the source of truth. Every
//! transition is reported so the engine can record a `serve`/`shard_health`
//! event (`shard`, `from` and `to` state codes), making health history part
//! of the deterministic events snapshot.

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Error ratio (errors / services) at or above which a tick is "bad".
    pub degraded_ratio: f64,
    /// Consecutive bad ticks that escalate `Degraded -> Unhealthy`.
    pub unhealthy_ticks: u32,
    /// Consecutive clean ticks that settle `Recovering/Degraded -> Healthy`.
    pub recovery_ticks: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            degraded_ratio: 0.5,
            unhealthy_ticks: 3,
            recovery_ticks: 2,
        }
    }
}

/// Health state of one shard (`code` is the stable event encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Elevated errors; still serving.
    Degraded,
    /// Error streak exceeded: the engine must drain + restart the shard.
    Unhealthy,
    /// Drained and restarted; counts clean ticks back toward `Healthy`.
    Recovering,
}

impl ShardHealth {
    /// Stable numeric code (event fields, bench documents).
    pub fn code(self) -> u64 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Unhealthy => 2,
            ShardHealth::Recovering => 3,
        }
    }
}

/// What one shard did during one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardObservation {
    /// Model-path services attempted on the shard this tick.
    pub services: u64,
    /// Of those, how many failed (poisoned batch, corrupt rehydration, …).
    pub errors: u64,
    /// Lanes deferred because the shard was slow this tick.
    pub deferred: u64,
}

/// A health transition the engine should record as a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Shard index.
    pub shard: usize,
    /// State before.
    pub from: ShardHealth,
    /// State after.
    pub to: ShardHealth,
}

/// Per-shard bookkeeping.
#[derive(Debug, Clone)]
struct ShardTracker {
    health: ShardHealth,
    bad_streak: u32,
    clean_streak: u32,
    /// Cumulative error / service counts (stats surface).
    errors: u64,
    services: u64,
    drains: u64,
    /// Tick the shard entered `Unhealthy` (recovery-latency accounting).
    unhealthy_since: Option<u64>,
    /// Longest observed Unhealthy -> Healthy recovery, in ticks.
    worst_recovery: u64,
}

impl ShardTracker {
    fn new() -> Self {
        ShardTracker {
            health: ShardHealth::Healthy,
            bad_streak: 0,
            clean_streak: 0,
            errors: 0,
            services: 0,
            drains: 0,
            unhealthy_since: None,
            worst_recovery: 0,
        }
    }
}

/// The supervisor over all shards of one engine.
#[derive(Debug)]
pub struct ShardSupervisor {
    config: SupervisorConfig,
    shards: Vec<ShardTracker>,
}

impl ShardSupervisor {
    /// A supervisor with every shard `Healthy`.
    pub fn new(config: SupervisorConfig, shard_count: usize) -> Self {
        ShardSupervisor {
            config,
            shards: (0..shard_count).map(|_| ShardTracker::new()).collect(),
        }
    }

    /// Current health of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.shards[shard].health
    }

    /// Total drain-restarts ordered across all shards.
    pub fn drains(&self) -> u64 {
        self.shards.iter().map(|s| s.drains).sum()
    }

    /// Longest observed Unhealthy -> Healthy recovery in ticks, across all
    /// shards (0 when no shard ever went unhealthy).
    pub fn worst_recovery_ticks(&self) -> u64 {
        self.shards.iter().map(|s| s.worst_recovery).max().unwrap_or(0)
    }

    /// Feeds one tick of observations (`observations[shard]`) and returns
    /// the transitions that occurred, in shard order. A shard that
    /// transitions to [`ShardHealth::Unhealthy`] is immediately marked
    /// `Recovering` *by the caller* via [`mark_drained`](Self::mark_drained)
    /// once the drain completes.
    pub fn observe(&mut self, now: u64, observations: &[ShardObservation]) -> Vec<HealthTransition> {
        assert_eq!(observations.len(), self.shards.len());
        let mut transitions = Vec::new();
        for (idx, (tracker, obs)) in self.shards.iter_mut().zip(observations).enumerate() {
            tracker.errors += obs.errors;
            tracker.services += obs.services;
            let bad = obs.services > 0
                && (obs.errors as f64) >= self.config.degraded_ratio * obs.services as f64
                && obs.errors > 0;
            let idle = obs.services == 0 && obs.deferred == 0;
            let from = tracker.health;
            let to = match tracker.health {
                ShardHealth::Healthy => {
                    if bad {
                        tracker.bad_streak = 1;
                        ShardHealth::Degraded
                    } else {
                        ShardHealth::Healthy
                    }
                }
                ShardHealth::Degraded => {
                    if bad {
                        tracker.bad_streak += 1;
                        tracker.clean_streak = 0;
                        if tracker.bad_streak >= self.config.unhealthy_ticks {
                            ShardHealth::Unhealthy
                        } else {
                            ShardHealth::Degraded
                        }
                    } else if idle {
                        // No evidence either way; hold state.
                        ShardHealth::Degraded
                    } else {
                        tracker.clean_streak += 1;
                        if tracker.clean_streak >= self.config.recovery_ticks {
                            tracker.bad_streak = 0;
                            tracker.clean_streak = 0;
                            ShardHealth::Healthy
                        } else {
                            ShardHealth::Degraded
                        }
                    }
                }
                // Waiting for the engine to drain; nothing to observe.
                ShardHealth::Unhealthy => ShardHealth::Unhealthy,
                ShardHealth::Recovering => {
                    if bad {
                        tracker.bad_streak += 1;
                        tracker.clean_streak = 0;
                        if tracker.bad_streak >= self.config.unhealthy_ticks {
                            ShardHealth::Unhealthy
                        } else {
                            ShardHealth::Recovering
                        }
                    } else if idle {
                        ShardHealth::Recovering
                    } else {
                        tracker.clean_streak += 1;
                        if tracker.clean_streak >= self.config.recovery_ticks {
                            tracker.bad_streak = 0;
                            tracker.clean_streak = 0;
                            if let Some(since) = tracker.unhealthy_since.take() {
                                tracker.worst_recovery =
                                    tracker.worst_recovery.max(now.saturating_sub(since));
                            }
                            ShardHealth::Healthy
                        } else {
                            ShardHealth::Recovering
                        }
                    }
                }
            };
            if to != from {
                if to == ShardHealth::Unhealthy {
                    tracker.unhealthy_since.get_or_insert(now);
                }
                tracker.health = to;
                transitions.push(HealthTransition {
                    shard: idx,
                    from,
                    to,
                });
            }
        }
        transitions
    }

    /// The engine finished draining `shard`: resident state was spilled and
    /// evicted, future requests rehydrate from the store. Moves the shard
    /// `Unhealthy -> Recovering` and returns the transition.
    pub fn mark_drained(&mut self, shard: usize) -> Option<HealthTransition> {
        let tracker = &mut self.shards[shard];
        if tracker.health != ShardHealth::Unhealthy {
            return None;
        }
        tracker.health = ShardHealth::Recovering;
        tracker.bad_streak = 0;
        tracker.clean_streak = 0;
        tracker.drains += 1;
        Some(HealthTransition {
            shard,
            from: ShardHealth::Unhealthy,
            to: ShardHealth::Recovering,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(services: u64, errors: u64) -> ShardObservation {
        ShardObservation {
            services,
            errors,
            deferred: 0,
        }
    }

    #[test]
    fn escalates_degraded_then_unhealthy_then_recovers() {
        let mut sup = ShardSupervisor::new(
            SupervisorConfig {
                degraded_ratio: 0.5,
                unhealthy_ticks: 3,
                recovery_ticks: 2,
            },
            2,
        );
        // Shard 0 fails everything; shard 1 is clean.
        let t = sup.observe(0, &[obs(4, 4), obs(4, 0)]);
        assert_eq!(
            t,
            vec![HealthTransition {
                shard: 0,
                from: ShardHealth::Healthy,
                to: ShardHealth::Degraded
            }]
        );
        assert!(sup.observe(1, &[obs(4, 4), obs(4, 0)]).is_empty());
        let t = sup.observe(2, &[obs(4, 4), obs(4, 0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, ShardHealth::Unhealthy);
        assert_eq!(sup.health(1), ShardHealth::Healthy);

        let drained = sup.mark_drained(0).unwrap();
        assert_eq!(drained.to, ShardHealth::Recovering);
        assert_eq!(sup.drains(), 1);

        // Two clean ticks settle back to Healthy.
        assert!(sup.observe(3, &[obs(4, 0), obs(4, 0)]).is_empty());
        let t = sup.observe(4, &[obs(4, 0), obs(4, 0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, ShardHealth::Healthy);
        assert_eq!(sup.worst_recovery_ticks(), 2);
    }

    #[test]
    fn degraded_clears_after_clean_streak_without_drain() {
        let mut sup = ShardSupervisor::new(SupervisorConfig::default(), 1);
        sup.observe(0, &[obs(2, 2)]);
        assert_eq!(sup.health(0), ShardHealth::Degraded);
        sup.observe(1, &[obs(2, 0)]);
        assert_eq!(sup.health(0), ShardHealth::Degraded);
        sup.observe(2, &[obs(2, 0)]);
        assert_eq!(sup.health(0), ShardHealth::Healthy);
        assert_eq!(sup.drains(), 0);
    }

    #[test]
    fn idle_ticks_hold_state() {
        let mut sup = ShardSupervisor::new(SupervisorConfig::default(), 1);
        sup.observe(0, &[obs(2, 2)]);
        for tick in 1..10 {
            sup.observe(tick, &[obs(0, 0)]);
        }
        assert_eq!(sup.health(0), ShardHealth::Degraded);
    }

    #[test]
    fn mark_drained_requires_unhealthy() {
        let mut sup = ShardSupervisor::new(SupervisorConfig::default(), 1);
        assert!(sup.mark_drained(0).is_none());
        assert_eq!(sup.drains(), 0);
    }
}
