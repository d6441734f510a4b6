//! Fault-injection: the serving engine must degrade *per tenant*, never
//! per batch. A corrupt snapshot on rehydrate or a poisoned window inside
//! a fused batch drops only the victim lane to the smoothing fallback;
//! every co-batched neighbor answers bit-for-bit what it answers in a
//! fault-free run.
//!
//! Each faulted engine is handed its own plan; the clean engines beside it
//! in the same test, and the other tests, run disarmed.

use ld_api::MinMaxScaler;
use ld_faultinject::{FaultConfig, FaultPlan, FaultSite};
use ld_nn::{ForecasterConfig, LstmForecaster};
use ld_serve::{
    BreakerConfig, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, Response, ResponseSource, RetryPolicy, ServeEngine, SnapshotStore,
    SupervisorConfig,
};
use ld_telemetry::Tracer;
use std::collections::BTreeMap;

const HIST: usize = 10;
const TENANTS: usize = 18;

fn store(label: &str) -> SnapshotStore {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ld-serve-faults")
        .join(label);
    let s = SnapshotStore::open(dir).expect("open store");
    s.clear().expect("clear store");
    s
}

fn build_engine(
    label: &str,
    capacity_per_shard: usize,
    faults: FaultPlan,
) -> (ServeEngine, Vec<ClientKey>, Vec<Vec<f64>>) {
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: HIST,
        hidden_size: 5,
        num_layers: 2,
        seed: 77,
    });
    let mut eng = ServeEngine::new(
        EngineConfig {
            mode: ExecMode::Batched,
            queue_capacity: TENANTS * 2,
            registry: RegistryConfig {
                shard_count: 2,
                capacity_per_shard,
            },
            // These tests pin *same-tick* per-tenant degradation, so the
            // cross-tick lifecycle machinery (retries, breakers, drains)
            // is switched off; it has its own coverage.
            lifecycle: LifecycleConfig {
                deadline_ticks: None,
                retry: RetryPolicy {
                    base_ticks: 1,
                    max_retries: 0,
                    jitter_ticks: 0,
                },
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    cooldown_ticks: 1,
                    close_streak: 1,
                },
                supervisor: SupervisorConfig {
                    degraded_ratio: 2.0,
                    unhealthy_ticks: u32::MAX,
                    recovery_ticks: 1,
                },
            },
        },
        store(label),
        Tracer::disabled(),
    );
    eng.set_faults(faults);
    let mut keys = Vec::new();
    let mut histories = Vec::new();
    for t in 0..TENANTS {
        let h: Vec<f64> = (0..HIST)
            .map(|i| 20.0 + ((t * 13 + i * 5) as f64 * 0.21).sin() * 6.0)
            .collect();
        let key = ClientKey::new(format!("f-{t:03}"), "faults");
        eng.provision(key.clone(), ModelSnapshot::new(model.clone(), MinMaxScaler::fit(&h), HIST));
        keys.push(key);
        histories.push(h);
    }
    (eng, keys, histories)
}

fn run(eng: &mut ServeEngine, keys: &[ClientKey], histories: &[Vec<f64>], ticks: usize) -> Vec<Response> {
    let mut all = Vec::new();
    for tick in 0..ticks {
        for (i, key) in keys.iter().enumerate() {
            eng.submit(Request::new(
                (tick * keys.len() + i) as u64,
                key.clone(),
                histories[i].clone(),
            ))
            .expect("queue sized for fleet");
        }
        all.extend(eng.tick());
    }
    all
}

fn by_id(responses: &[Response]) -> BTreeMap<u64, &Response> {
    responses.iter().map(|r| (r.id, r)).collect()
}

#[test]
fn corrupt_rehydration_degrades_victim_without_poisoning_neighbors() {
    // Tight registry: each full-fleet tick evicts and rehydrates, so the
    // SnapshotCorrupt site actually fires on the load path.
    let (mut clean_eng, keys, histories) = build_engine("snap-clean", 3, FaultPlan::disarmed());
    let clean = run(&mut clean_eng, &keys, &histories, 3);

    let plan = FaultConfig::new(0xfa_417).with_site(FaultSite::SnapshotCorrupt, 0.5, None);
    let (mut faulty_eng, _, _) = build_engine("snap-faulty", 3, FaultPlan::new(plan));
    let faulty = run(&mut faulty_eng, &keys, &histories, 3);
    let stats = faulty_eng.stats();

    assert_eq!(clean.len(), faulty.len());
    assert!(
        stats.cache.corrupt_rehydrations > 0,
        "plan must corrupt some rehydrations: {:?}",
        stats.cache
    );
    assert!(stats.degraded > 0, "corrupt snapshots must degrade tenants");
    assert!(
        stats.degraded < stats.served,
        "degradation must stay per-tenant, not engulf the run"
    );

    let clean_map = by_id(&clean);
    for f in &faulty {
        let c = clean_map[&f.id];
        if f.degraded {
            assert_eq!(f.source, ResponseSource::Fallback);
            assert!(
                f.value.is_finite() && f.value >= 0.0,
                "fallback must answer a usable forecast (id {})",
                f.id
            );
        } else {
            assert_eq!(
                f.value.to_bits(),
                c.value.to_bits(),
                "undegraded id {} must be untouched by neighbors' faults",
                f.id
            );
        }
    }
}

#[test]
fn batch_nan_degrades_only_the_poisoned_lane() {
    let (mut clean_eng, keys, histories) = build_engine("nan-clean", 64, FaultPlan::disarmed());
    let clean = run(&mut clean_eng, &keys, &histories, 4);
    assert!(clean.iter().all(|r| !r.degraded));

    let plan = FaultConfig::new(0xbad_5eed).with_site(FaultSite::BatchNan, 0.25, None);
    let (mut faulty_eng, _, _) = build_engine("nan-faulty", 64, FaultPlan::new(plan));
    let faulty = run(&mut faulty_eng, &keys, &histories, 4);

    assert_eq!(clean.len(), faulty.len());
    let degraded: Vec<u64> = faulty.iter().filter(|r| r.degraded).map(|r| r.id).collect();
    assert!(
        !degraded.is_empty(),
        "a 25% BatchNan plan over {} lanes must hit something",
        clean.len()
    );
    assert!(
        degraded.len() < clean.len() / 2,
        "poison must not spread beyond its lanes: {degraded:?}"
    );

    let clean_map = by_id(&clean);
    for f in &faulty {
        let c = clean_map[&f.id];
        if f.degraded {
            assert_eq!(f.source, ResponseSource::Fallback);
            assert!(f.value.is_finite() && f.value >= 0.0);
        } else {
            // The co-batched survivors of a poisoned batch answer exactly
            // what the fault-free run answers — NaN never leaks across
            // lanes of a fused forward.
            assert_eq!(
                f.value.to_bits(),
                c.value.to_bits(),
                "co-batched id {} contaminated",
                f.id
            );
            assert_eq!(f.source, ResponseSource::Batched);
        }
    }
}

#[test]
fn fault_free_runs_stay_identical_after_a_plan_is_reset() {
    let (mut a_eng, keys, histories) = build_engine("reset-a", 64, FaultPlan::disarmed());
    let a = run(&mut a_eng, &keys, &histories, 2);

    // Arm and disarm a plan without running anything under it; the run
    // that follows must not remember it.
    let plan = FaultConfig::new(1).with_site(FaultSite::BatchNan, 1.0, None);
    let (mut b_eng, _, _) = build_engine("reset-b", 64, FaultPlan::new(plan));
    b_eng.set_faults(FaultPlan::disarmed());
    let b = run(&mut b_eng, &keys, &histories, 2);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.value.to_bits(), y.value.to_bits());
        assert!(!x.degraded && !y.degraded);
    }
}
