//! Property-style invariants of the serving layer, driven by a seeded
//! splitmix64 generator over randomized fleets and schedules:
//!
//! - admission is exclusive and total: every submitted request is either
//!   shed at `submit` or answered by a later tick, never both;
//! - the queue never holds more than its configured bound;
//! - the shard count is a constant of the run, whatever the churn;
//! - cache accounting is conserved: every resolve is exactly one hit or
//!   one miss, rehydrations never exceed misses, and residency never
//!   exceeds the configured capacity;
//! - the circuit breaker's state machine: it opens after exactly
//!   `failure_threshold` consecutive failures, admits exactly one probe
//!   per tick while half-open, and closes only on a full success streak;
//! - retry backoff is deterministic and bounded, and the queue bound
//!   holds even while transient faults keep parking retries.
//!
//! Every test that drives an engine holds `ld_faultinject::test_lock()`
//! and starts from a cleared plan: the retry-pressure test installs a
//! process-global `SnapshotCorrupt` plan, which engines on parallel test
//! threads would otherwise see.

use ld_api::MinMaxScaler;
use ld_nn::{ForecasterConfig, LstmForecaster};
use ld_serve::{
    Breaker, BreakerConfig, BreakerState, ClientKey, EngineConfig, ExecMode, LifecycleConfig,
    ModelSnapshot, RegistryConfig, Request, RetryPolicy, Route, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;
use std::collections::BTreeSet;

const HIST: usize = 10;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn store(label: &str) -> SnapshotStore {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ld-serve-props")
        .join(label);
    let s = SnapshotStore::open(dir).expect("open store");
    s.clear().expect("clear store");
    s
}

fn provisioned_engine(
    label: &str,
    seed: u64,
    tenants: usize,
    queue_capacity: usize,
    shard_count: usize,
    capacity_per_shard: usize,
) -> (ServeEngine, Vec<ClientKey>, Vec<Vec<f64>>) {
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: HIST,
        hidden_size: 5,
        num_layers: 1,
        seed: seed ^ 0x51ed,
    });
    let mut eng = ServeEngine::new(
        EngineConfig {
            mode: ExecMode::Batched,
            queue_capacity,
            registry: RegistryConfig {
                shard_count,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store(label),
        Tracer::disabled(),
    );
    let mut keys = Vec::new();
    let mut histories = Vec::new();
    for t in 0..tenants {
        let h: Vec<f64> = (0..HIST)
            .map(|i| 5.0 + (splitmix64(seed ^ (t * 64 + i) as u64) % 1000) as f64 * 0.01)
            .collect();
        let key = ClientKey::new(format!("p-{seed}-{t:03}"), "props");
        eng.provision(key.clone(), ModelSnapshot::new(model.clone(), MinMaxScaler::fit(&h), HIST));
        keys.push(key);
        histories.push(h);
    }
    (eng, keys, histories)
}

#[test]
fn no_request_is_both_shed_and_answered_and_none_is_lost() {
    let _guard = ld_faultinject::test_lock();
    ld_faultinject::reset();
    for seed in [3u64, 17, 91] {
        let tenants = 12 + (splitmix64(seed) % 9) as usize;
        let bound = 8usize;
        let (mut eng, keys, histories) =
            provisioned_engine(&format!("shed-{seed}"), seed, tenants, bound, 4, 64);

        let mut shed = BTreeSet::new();
        let mut answered = BTreeSet::new();
        let mut submitted = BTreeSet::new();
        let mut next_id = 0u64;
        for round in 0..12 {
            // Offer a randomized burst, deliberately above the bound.
            let burst = 3 + (splitmix64(seed ^ round) % (2 * bound as u64)) as usize;
            for _ in 0..burst {
                let t = (splitmix64(seed ^ next_id.rotate_left(17)) % tenants as u64) as usize;
                let req = Request::new(next_id, keys[t].clone(), histories[t].clone());
                submitted.insert(next_id);
                if let Err(back) = eng.submit(req) {
                    assert_eq!(back.id, next_id, "shed returns the offered request");
                    shed.insert(next_id);
                }
                next_id += 1;
            }
            for resp in eng.tick() {
                assert!(answered.insert(resp.id), "id {} answered twice", resp.id);
            }
        }
        for resp in eng.tick() {
            assert!(answered.insert(resp.id), "id {} answered twice", resp.id);
        }

        assert!(
            shed.is_disjoint(&answered),
            "requests both shed and answered: {:?}",
            shed.intersection(&answered).collect::<Vec<_>>()
        );
        let union: BTreeSet<u64> = shed.union(&answered).copied().collect();
        assert_eq!(union, submitted, "every request is shed xor answered");
        let stats = eng.stats();
        assert_eq!(stats.admission.shed, shed.len() as u64);
        assert_eq!(stats.served, answered.len() as u64);
    }
}

#[test]
fn queue_depth_never_exceeds_bound() {
    let _guard = ld_faultinject::test_lock();
    ld_faultinject::reset();
    for seed in [7u64, 23] {
        let bound = 5usize;
        let (mut eng, keys, histories) =
            provisioned_engine(&format!("depth-{seed}"), seed, 9, bound, 2, 32);
        let mut id = 0u64;
        for round in 0..10u64 {
            let burst = (splitmix64(seed ^ round) % 11) as usize;
            for _ in 0..burst {
                let t = (id % keys.len() as u64) as usize;
                let _ = eng.submit(Request::new(id, keys[t].clone(), histories[t].clone()));
                id += 1;
                assert!(
                    eng.queue_depth() <= bound,
                    "depth {} exceeded bound {bound}",
                    eng.queue_depth()
                );
            }
            eng.tick();
            assert_eq!(eng.queue_depth(), 0, "tick drains the queue");
        }
    }
}

#[test]
fn shard_count_is_constant_under_churn() {
    let _guard = ld_faultinject::test_lock();
    ld_faultinject::reset();
    let (mut eng, keys, histories) =
        provisioned_engine("shards", 29, 20, 64, 8, 1 /* heavy eviction churn */, );
    let want = eng.shard_count();
    assert_eq!(want, 8);
    for tick in 0..6 {
        for (i, key) in keys.iter().enumerate() {
            eng.submit(Request::new(
                (tick * keys.len() + i) as u64,
                key.clone(),
                histories[i].clone(),
            ))
            .expect("queue is large enough");
            assert_eq!(eng.shard_count(), want);
        }
        eng.tick();
        assert_eq!(eng.shard_count(), want, "churn must not resize the registry");
    }
    assert!(eng.stats().cache.evictions > 0, "capacity 1 must churn");
}

#[test]
fn cache_accounting_is_conserved() {
    let _guard = ld_faultinject::test_lock();
    ld_faultinject::reset();
    for (label, capacity) in [("acct-roomy", 64usize), ("acct-tight", 2)] {
        let (mut eng, keys, histories) = provisioned_engine(label, 41, 15, 64, 4, capacity);
        let mut resolved = 0u64;
        for tick in 0..8 {
            for (i, key) in keys.iter().enumerate() {
                eng.submit(Request::new(
                    (tick * keys.len() + i) as u64,
                    key.clone(),
                    histories[i].clone(),
                ))
                .expect("no shed in this schedule");
            }
            resolved += eng.tick().len() as u64;
        }
        let cache = eng.stats().cache;
        assert_eq!(
            cache.hits + cache.misses,
            resolved,
            "every resolve is exactly one hit or one miss ({label}: {cache:?})"
        );
        assert!(
            cache.rehydrations + cache.corrupt_rehydrations <= cache.misses,
            "rehydrations can only come from misses ({label}: {cache:?})"
        );
        assert!(
            eng.registry().resident() <= eng.shard_count() * capacity,
            "residency above capacity ({label})"
        );
        if capacity == 2 {
            assert!(cache.evictions > 0 && cache.rehydrations > 0, "{label}: {cache:?}");
        } else {
            assert_eq!(cache.misses, 0, "roomy registry never misses after provisioning");
        }
    }
}

/// Randomized outcome sequences, checked against a hand-rolled model of
/// the breaker contract: only `failure_threshold` *consecutive* failures
/// open the breaker, and any success before the threshold resets the run.
#[test]
fn breaker_opens_after_exactly_n_consecutive_failures() {
    for seed in [5u64, 19, 83, 201] {
        let threshold = 1 + u32::try_from(splitmix64(seed) % 5).expect("small");
        let cfg = BreakerConfig {
            failure_threshold: threshold,
            cooldown_ticks: 1_000_000, // stay Open once tripped
            close_streak: 1,
        };
        let mut b = Breaker::new(cfg);
        let mut consecutive = 0u32;
        for step in 0..200u64 {
            if b.state() == BreakerState::Open {
                break;
            }
            let ok = splitmix64(seed ^ step.rotate_left(13)) % 3 == 0;
            assert_eq!(b.route(step), Route::Model, "closed breaker admits");
            b.record(step, ok);
            consecutive = if ok { 0 } else { consecutive + 1 };
            if consecutive >= threshold {
                assert_eq!(
                    b.state(),
                    BreakerState::Open,
                    "seed {seed}: {threshold} consecutive failures must open"
                );
                assert_eq!(b.trips(), 1);
            } else {
                assert_eq!(
                    b.state(),
                    BreakerState::Closed,
                    "seed {seed} step {step}: only a full consecutive run may open \
                     ({consecutive}/{threshold} failures)"
                );
            }
        }
    }
}

/// While half-open, the breaker admits exactly one probe per tick and
/// answers everything else from the fallback; a failed probe re-opens
/// with a fresh cooldown.
#[test]
fn half_open_breaker_probes_once_per_tick() {
    let cfg = BreakerConfig {
        failure_threshold: 1,
        cooldown_ticks: 3,
        close_streak: 2,
    };
    let mut b = Breaker::new(cfg);
    b.route(0);
    b.record(0, false);
    assert_eq!(b.state(), BreakerState::Open);

    // Cooldown: everything is fallback, no probes.
    for now in 1..3u64 {
        for _ in 0..4 {
            assert_eq!(b.route(now), Route::Fallback, "tick {now} is inside cooldown");
        }
    }
    // Cooldown over: exactly one probe per tick, however many arrivals.
    for now in 3..5u64 {
        assert_eq!(b.route(now), Route::Probe, "first arrival at tick {now} probes");
        for _ in 0..5 {
            assert_eq!(b.route(now), Route::Fallback, "tick {now} already probed");
        }
    }
    assert_eq!(b.state(), BreakerState::HalfOpen);

    // A failed probe re-opens and restarts the cooldown clock.
    b.record(5, false);
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.trips(), 2);
    assert_eq!(b.route(6), Route::Fallback, "fresh cooldown after a failed probe");
    assert_eq!(b.route(5 + 3), Route::Probe);
}

/// Half-open closes only after `close_streak` consecutive probe
/// successes; a single failure anywhere in the streak re-opens.
#[test]
fn breaker_closes_only_on_a_full_success_streak() {
    for streak in 1..=4u32 {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 1,
            close_streak: streak,
        };
        let mut b = Breaker::new(cfg);
        b.route(0);
        b.record(0, false);
        let mut now = 1u64;
        for n in 1..=streak {
            assert_eq!(b.route(now), Route::Probe, "streak {streak} probe {n}");
            b.record(now, true);
            if n < streak {
                assert_eq!(
                    b.state(),
                    BreakerState::HalfOpen,
                    "streak {streak}: {n} successes must not close yet"
                );
            } else {
                assert_eq!(b.state(), BreakerState::Closed, "streak {streak} complete");
            }
            now += 1;
        }

        // Same dance, but the last probe fails: back to Open, streak reset.
        let mut b = Breaker::new(cfg);
        b.route(0);
        b.record(0, false);
        let mut now = 1u64;
        for _ in 1..streak {
            assert_eq!(b.route(now), Route::Probe);
            b.record(now, true);
            now += 1;
        }
        assert_eq!(b.route(now), Route::Probe);
        b.record(now, false);
        assert_eq!(
            b.state(),
            BreakerState::Open,
            "streak {streak}: a failed probe re-opens no matter how long the run was"
        );
    }
}

/// Retry backoff is a pure function of `(attempt, seed)` and stays within
/// `[base << (attempt-1), base << (attempt-1) + jitter]`.
#[test]
fn retry_backoff_is_deterministic_and_bounded() {
    for seed in [1u64, 77, 4096] {
        let policy = RetryPolicy {
            base_ticks: 1 + splitmix64(seed) % 3,
            max_retries: 4,
            jitter_ticks: splitmix64(seed ^ 1) % 4,
        };
        for attempt in 1..=policy.max_retries {
            let key = splitmix64(seed ^ u64::from(attempt));
            let a = policy.backoff(attempt, key);
            let b = policy.backoff(attempt, key);
            assert_eq!(a, b, "backoff must be replayable");
            let floor = policy.base_ticks << (attempt - 1);
            assert!(
                (floor..=floor + policy.jitter_ticks).contains(&a),
                "backoff {a} outside [{floor}, {}]",
                floor + policy.jitter_ticks
            );
        }
    }
}

/// The queue bound holds while transient faults keep parking retries, and
/// the settle loop still answers or sheds every request: parked work must
/// neither overflow the queue nor leak requests.
#[test]
fn queue_bound_holds_under_retry_pressure() {
    let _guard = ld_faultinject::test_lock();
    ld_faultinject::reset();

    let bound = 10usize;
    // Tight registry (capacity 1 per shard) so every tick rehydrates from
    // disk, and a 60% SnapshotCorrupt plan so many of those rehydrations
    // fail transiently and park retries.
    let (mut eng, keys, histories) =
        provisioned_engine("retry-bound", 57, 12, bound, 4, 1);
    ld_faultinject::install(
        ld_faultinject::FaultConfig::new(0x7e57_5eed).with_site(
            ld_faultinject::FaultSite::SnapshotCorrupt,
            0.6,
            None,
        ),
    );

    let mut submitted = 0u64;
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut id = 0u64;
    for round in 0..10u64 {
        let burst = 4 + (splitmix64(57 ^ round) % 8) as usize;
        for _ in 0..burst {
            let t = (id % keys.len() as u64) as usize;
            submitted += 1;
            if eng.submit(Request::new(id, keys[t].clone(), histories[t].clone())).is_err() {
                shed += 1;
            }
            id += 1;
            assert!(eng.queue_depth() <= bound, "queue bound broken under retries");
        }
        answered += eng.tick().len() as u64;
        assert_eq!(eng.queue_depth(), 0, "tick must drain the queue even when parking");
    }
    assert!(
        eng.stats().lifecycle.retries > 0,
        "a 60% corrupt plan over a thrashing registry must park retries"
    );

    // Settle with the faults still active: retries exhaust their budget
    // and fall back — bounded, explicit, no hangs.
    let mut settle = 0;
    while eng.pending_work() > 0 {
        settle += 1;
        assert!(settle <= 32, "retry settle must terminate");
        answered += eng.tick().len() as u64;
    }
    ld_faultinject::reset();
    assert_eq!(answered + shed, submitted, "every request answered xor shed");
}
