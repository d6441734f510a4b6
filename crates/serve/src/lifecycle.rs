//! Request lifecycle control: deadlines, deterministic retry backoff, and
//! per-tenant/per-shard circuit breakers.
//!
//! Everything in this module measures time in **logical ticks** — the same
//! clock the engine batches on — and draws jitter from seeds carried by the
//! request, never from the wall clock. Two identically-seeded runs make
//! identical routing, retry, and breaker decisions.
//!
//! # Circuit breaker
//!
//! Classic three-state machine, advanced only by [`Breaker::record`] calls
//! the engine makes in deterministic (request-id) order:
//!
//! ```text
//!            failure_threshold consecutive failures
//!   Closed ────────────────────────────────────────▶ Open
//!     ▲                                               │ cooldown_ticks elapse
//!     │ close_streak consecutive probe successes      ▼
//!     └──────────────────────────────────────────  HalfOpen
//!                 (any probe failure re-opens)
//! ```
//!
//! While `Open`, [`Breaker::route`] sends the tenant to the smoothing
//! fallback — an answer computed from the tenant's own history, so a
//! tripped tenant never touches the batch its neighbors share. While
//! `HalfOpen`, at most one request per tick is admitted as a recovery
//! probe; the rest stay on the fallback until the success streak closes
//! the breaker.

use std::collections::BTreeMap;

use ld_faultinject::splitmix64;

/// Breaker tuning knobs (all in consecutive events / logical ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed -> Open`.
    pub failure_threshold: u32,
    /// Ticks a breaker stays `Open` before admitting probes.
    pub cooldown_ticks: u64,
    /// Consecutive probe successes that close a `HalfOpen` breaker.
    pub close_streak: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 4,
            close_streak: 2,
        }
    }
}

/// Breaker state (`code` gives the stable numeric encoding used in spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service; failures are counted.
    Closed,
    /// Tripped: all traffic routes to the fallback until cooldown passes.
    Open,
    /// Cooling down: one probe per tick, the rest on fallback.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric code (span payloads, bench documents).
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Where [`Breaker::route`] sends a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Serve through the model path.
    Model,
    /// Serve through the model path *as the recovery probe* — its outcome
    /// decides whether the breaker closes or re-opens.
    Probe,
    /// Serve from the smoothing fallback without touching the model path.
    Fallback,
}

/// One circuit breaker (the engine keeps one per tenant and one per shard).
#[derive(Debug, Clone)]
pub struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Consecutive failures while `Closed`.
    failures: u32,
    /// Consecutive probe successes while `HalfOpen`.
    successes: u32,
    /// Tick the breaker last entered `Open`.
    opened_at: u64,
    /// Tick a `HalfOpen` probe was last admitted (one probe per tick).
    probed_at: Option<u64>,
    /// Times the breaker has tripped `Closed/HalfOpen -> Open`.
    trips: u64,
}

impl Breaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Breaker {
            config,
            state: BreakerState::Closed,
            failures: 0,
            successes: 0,
            opened_at: 0,
            probed_at: None,
            trips: 0,
        }
    }

    /// Current state as of the last transition (does not itself advance
    /// `Open -> HalfOpen`; that happens on the next [`route`](Self::route)).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Routes a request arriving at `now`. Advances `Open -> HalfOpen`
    /// once the cooldown has elapsed; admits at most one `Probe` per tick
    /// while `HalfOpen`.
    pub fn route(&mut self, now: u64) -> Route {
        if self.state == BreakerState::Open
            && now >= self.opened_at.saturating_add(self.config.cooldown_ticks)
        {
            self.state = BreakerState::HalfOpen;
            self.successes = 0;
            self.probed_at = None;
        }
        match self.state {
            BreakerState::Closed => Route::Model,
            BreakerState::Open => Route::Fallback,
            BreakerState::HalfOpen => {
                if self.probed_at == Some(now) {
                    Route::Fallback
                } else {
                    self.probed_at = Some(now);
                    Route::Probe
                }
            }
        }
    }

    /// Records the outcome of a model-path service at `now`. Probe
    /// failures re-open immediately; `close_streak` probe successes close.
    pub fn record(&mut self, now: u64, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.failures = 0;
                } else {
                    self.failures += 1;
                    if self.failures >= self.config.failure_threshold {
                        self.trip(now);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.successes += 1;
                    if self.successes >= self.config.close_streak {
                        self.state = BreakerState::Closed;
                        self.failures = 0;
                        self.successes = 0;
                    }
                } else {
                    self.trip(now);
                }
            }
            // Outcomes can arrive for requests routed before the trip;
            // they must not extend or shorten the cooldown.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.failures = 0;
        self.successes = 0;
        self.trips += 1;
    }
}

/// Deterministic exponential backoff with seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before attempt 1 is `base_ticks`; it doubles per attempt.
    pub base_ticks: u64,
    /// Attempts after the first service (0 disables retry).
    pub max_retries: u32,
    /// Jitter added to each backoff, drawn uniformly from
    /// `[0, jitter_ticks]` by a splitmix64 hash of `(seed, attempt)`.
    pub jitter_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ticks: 1,
            max_retries: 2,
            jitter_ticks: 1,
        }
    }
}

impl RetryPolicy {
    /// Ticks to wait before retry number `attempt` (1-based): exponential
    /// base plus jitter keyed on `(seed, attempt)` — a pure function, so
    /// the same request retries on the same ticks in every run.
    pub fn backoff(&self, attempt: u32, seed: u64) -> u64 {
        let exp = self
            .base_ticks
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        let jitter = if self.jitter_ticks == 0 {
            0
        } else {
            splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % (self.jitter_ticks + 1)
        };
        exp.saturating_add(jitter)
    }

    /// Whether retry number `attempt` (1-based) is within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }
}

/// Tick-indexed retry queue: requests parked until their backoff elapses.
///
/// Iteration order is `(release_tick, insertion order)` — both derived
/// from deterministic inputs — so re-admission order is reproducible.
#[derive(Debug, Default)]
pub struct RetrySchedule<T> {
    parked: BTreeMap<u64, Vec<T>>,
    len: usize,
}

impl<T> RetrySchedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        RetrySchedule {
            parked: BTreeMap::new(),
            len: 0,
        }
    }

    /// Parks `item` until `release_tick`.
    pub fn park(&mut self, release_tick: u64, item: T) {
        self.parked.entry(release_tick).or_default().push(item);
        self.len += 1;
    }

    /// Removes and returns every item whose release tick is `<= now`.
    pub fn release(&mut self, now: u64) -> Vec<T> {
        let mut due = Vec::new();
        let keys: Vec<u64> = self.parked.range(..=now).map(|(k, _)| *k).collect();
        for k in keys {
            if let Some(mut items) = self.parked.remove(&k) {
                due.append(&mut items);
            }
        }
        self.len -= due.len();
        due
    }

    /// Items currently parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest release tick, if anything is parked.
    pub fn next_release(&self) -> Option<u64> {
        self.parked.keys().next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_cools_down() {
        let mut b = Breaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 4,
            close_streak: 2,
        });
        assert_eq!(b.route(0), Route::Model);
        b.record(0, false);
        b.record(0, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(0, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // During cooldown: fallback only.
        assert_eq!(b.route(1), Route::Fallback);
        assert_eq!(b.route(3), Route::Fallback);
        // Cooldown over: exactly one probe per tick.
        assert_eq!(b.route(4), Route::Probe);
        assert_eq!(b.route(4), Route::Fallback);
        assert_eq!(b.route(5), Route::Probe);
        // Two successes close it.
        b.record(4, true);
        b.record(5, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.route(6), Route::Model);
    }

    #[test]
    fn probe_failure_reopens() {
        let mut b = Breaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 2,
            close_streak: 1,
        });
        b.record(0, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.route(2), Route::Probe);
        b.record(2, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Fresh cooldown from the re-open tick.
        assert_eq!(b.route(3), Route::Fallback);
        assert_eq!(b.route(4), Route::Probe);
        b.record(4, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = Breaker::new(BreakerConfig::default());
        b.record(0, false);
        b.record(0, false);
        b.record(0, true);
        b.record(1, false);
        b.record(1, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(1, false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn backoff_is_deterministic_exponential_with_bounded_jitter() {
        let p = RetryPolicy {
            base_ticks: 2,
            max_retries: 3,
            jitter_ticks: 3,
        };
        for attempt in 1..=3u32 {
            let a = p.backoff(attempt, 77);
            let b = p.backoff(attempt, 77);
            assert_eq!(a, b, "backoff must be a pure function");
            let exp = 2u64 << (attempt - 1); // base 2, doubling per attempt
            assert!(a >= exp && a <= exp + 3, "attempt {attempt}: {a} vs exp {exp}");
        }
        // Different seeds move the jitter for at least some attempt.
        let seeds_differ = (1..=3u32).any(|a| p.backoff(a, 1) != p.backoff(a, 2));
        assert!(seeds_differ);
        assert!(p.allows(3) && !p.allows(4));
    }

    #[test]
    fn retry_schedule_releases_in_tick_order() {
        let mut s = RetrySchedule::new();
        s.park(5, "b");
        s.park(3, "a");
        s.park(5, "c");
        s.park(9, "d");
        assert_eq!(s.len(), 4);
        assert_eq!(s.next_release(), Some(3));
        assert_eq!(s.release(4), vec!["a"]);
        assert_eq!(s.release(5), vec!["b", "c"]);
        assert_eq!(s.len(), 1);
        assert!(s.release(8).is_empty());
        assert_eq!(s.release(100), vec!["d"]);
        assert!(s.is_empty());
    }
}
