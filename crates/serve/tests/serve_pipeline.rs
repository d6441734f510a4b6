//! End-to-end serving pipeline equivalence and determinism.
//!
//! The contracts under test (see DESIGN.md "Serving determinism"):
//! - the fused batched path answers exactly what the per-tenant path
//!   answers: bitwise vs the `Serial` engine and vs `predict`, the
//!   forward training and validation run;
//! - identically-seeded runs produce bitwise-identical response streams;
//! - LRU spills and lazy rehydrations are lossless: a capacity-starved
//!   registry answers bit-for-bit what an uncapped one answers;
//! - a fleet of per-tenant models of mixed shapes, served batched and
//!   serial through an evicting registry, answers every tick with a pinned
//!   response digest.

use ld_api::MinMaxScaler;
use ld_nn::{ForecasterConfig, LstmForecaster};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, Response, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;

const HIST: usize = 12;
const FAMILIES: usize = 3;

fn store(label: &str) -> SnapshotStore {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ld-serve-pipeline")
        .join(label);
    let s = SnapshotStore::open(dir).expect("open store");
    s.clear().expect("clear store");
    s
}

/// A deterministic little fleet: `n` tenants cycling over `FAMILIES`
/// distinct models, each with its own scaler and drifting history.
struct Fleet {
    keys: Vec<ClientKey>,
    histories: Vec<Vec<f64>>,
    snapshots: Vec<ModelSnapshot>,
}

fn fleet(n: usize) -> Fleet {
    let models: Vec<LstmForecaster> = (0..FAMILIES)
        .map(|f| {
            LstmForecaster::new(ForecasterConfig {
                history_len: HIST,
                hidden_size: 6,
                num_layers: 2,
                seed: 900 + f as u64,
            })
        })
        .collect();
    let mut keys = Vec::new();
    let mut histories = Vec::new();
    let mut snapshots = Vec::new();
    for t in 0..n {
        let base = 10.0 + (t % 7) as f64;
        let hist: Vec<f64> = (0..HIST + 4)
            .map(|i| base + ((t * 31 + i * 7) as f64 * 0.13).sin().abs() * 5.0)
            .collect();
        let scaler = MinMaxScaler::fit(&hist);
        keys.push(ClientKey::new(format!("tenant-{t:04}"), "pipeline"));
        snapshots.push(ModelSnapshot::new(
            models[t % FAMILIES].clone(),
            scaler,
            HIST,
        ));
        histories.push(hist);
    }
    Fleet {
        keys,
        histories,
        snapshots,
    }
}

fn engine(mode: ExecMode, label: &str, capacity_per_shard: usize, fleet: &Fleet) -> ServeEngine {
    let mut eng = ServeEngine::new(
        EngineConfig {
            mode,
            queue_capacity: fleet.keys.len() * 2,
            registry: RegistryConfig {
                shard_count: 4,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store(label),
        Tracer::disabled(),
    );
    for (key, snap) in fleet.keys.iter().zip(&fleet.snapshots) {
        eng.provision(key.clone(), snap.clone());
    }
    eng
}

/// Runs `ticks` identical full-fleet ticks and returns all responses.
fn run(eng: &mut ServeEngine, fleet: &Fleet, ticks: usize) -> Vec<Response> {
    let mut all = Vec::new();
    for tick in 0..ticks {
        for (i, key) in fleet.keys.iter().enumerate() {
            eng.submit(Request::new(
                (tick * fleet.keys.len() + i) as u64,
                key.clone(),
                fleet.histories[i].clone(),
            ))
            .expect("queue sized for the fleet");
        }
        all.extend(eng.tick());
    }
    all
}

#[test]
fn batched_matches_serial_and_predict_bitwise() {
    let f = fleet(37);
    let batched = run(&mut engine(ExecMode::Batched, "eq-b", 64, &f), &f, 3);
    let serial = run(&mut engine(ExecMode::Serial, "eq-s", 64, &f), &f, 3);
    assert_eq!(batched.len(), 3 * f.keys.len());
    assert_eq!(batched.len(), serial.len());
    for (b, s) in batched.iter().zip(&serial) {
        assert_eq!(b.id, s.id);
        assert!(!b.degraded && !s.degraded, "id {} degraded", b.id);
        assert_eq!(
            b.value.to_bits(),
            s.value.to_bits(),
            "id {}: batched {} != serial {}",
            b.id,
            b.value,
            s.value
        );
        let t = usize::try_from(b.id).expect("id fits usize") % f.keys.len();
        // The engine's window: the last HIST observations, tenant-scaled.
        let (snap, history) = (&f.snapshots[t], &f.histories[t]);
        let scaler = snap.scaler();
        let window: Vec<f64> = history[history.len() - HIST..]
            .iter()
            .map(|&v| scaler.transform(v))
            .collect();
        let want = scaler.inverse(snap.model().predict(&window)).max(0.0);
        assert_eq!(
            b.value.to_bits(),
            want.to_bits(),
            "id {}: batched {} != predict {}",
            b.id,
            b.value,
            want
        );
    }
}

#[test]
fn identically_seeded_runs_are_bitwise_identical() {
    let f = fleet(29);
    let mut runs = Vec::new();
    for pass in 0..2 {
        let mut eng = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: 32,
                },
                lifecycle: LifecycleConfig::default(),
            },
            store(&format!("det-{pass}")),
            Tracer::enabled(),
        );
        for (key, snap) in f.keys.iter().zip(&f.snapshots) {
            eng.provision(key.clone(), snap.clone());
        }
        let responses = run(&mut eng, &f, 4);
        let spans = eng.tracer().snapshot().logical_paths();
        runs.push((response_digest(&responses), responses, spans));
    }
    let (d0, r0, s0) = &runs[0];
    let (d1, r1, s1) = &runs[1];
    assert_eq!(d0, d1, "response digests diverged");
    assert_eq!(r0.len(), r1.len());
    for (a, b) in r0.iter().zip(r1.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "id {}", a.id);
        assert_eq!(a.source, b.source);
    }
    assert_eq!(s0, s1, "span trees diverged");
}

#[test]
fn lru_eviction_and_rehydration_are_lossless() {
    let f = fleet(24);
    // Uncapped: everything stays resident.
    let mut roomy = engine(ExecMode::Batched, "lru-roomy", 64, &f);
    let want = run(&mut roomy, &f, 3);
    assert_eq!(roomy.stats().cache.evictions, 0);

    // Two snapshots per shard: the full-fleet sweep each tick forces
    // spills and rehydrations, but answers must not change at all.
    let mut tight = engine(ExecMode::Batched, "lru-tight", 2, &f);
    let got = run(&mut tight, &f, 3);
    let stats = tight.stats().cache;
    assert!(stats.evictions > 0, "capacity 2x4 must evict: {stats:?}");
    assert!(
        stats.rehydrations > 0,
        "evicted tenants must rehydrate from disk: {stats:?}"
    );
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.id, g.id);
        assert!(!g.degraded, "rehydration must be lossless (id {})", g.id);
        assert_eq!(
            w.value.to_bits(),
            g.value.to_bits(),
            "id {}: roomy {} vs evicting {}",
            w.id,
            w.value,
            g.value
        );
    }
}

#[test]
fn snapshot_roundtrip_preserves_fingerprint_and_predictions() {
    let f = fleet(3);
    let snap = &f.snapshots[0];
    let json = snap.to_json();
    let back = ModelSnapshot::from_json(&json).expect("roundtrip");
    assert_eq!(back.fingerprint(), snap.fingerprint());
    let w: Vec<f64> = (0..HIST).map(|i| 0.1 + 0.05 * i as f64).collect();
    assert_eq!(
        back.model().predict_reference(&w).to_bits(),
        snap.model().predict_reference(&w).to_bits()
    );
}

/// Lane counts of the weight-sharing groups in [`mixed_fleet`].
const SHARED_LANES: [usize; 8] = [2, 3, 4, 5, 6, 7, 8, 9];

/// Tenant `t`'s observation `i`.
fn mixed_value(t: usize, i: usize) -> f64 {
    let (offset, amp) = (5.0 + (t % 11) as f64, 2.0 + (t % 5) as f64);
    offset + amp * ((t * 31 + i * 7) as f64 * 0.13).sin().abs()
}

/// Tenant `t`'s last 40 observations as of tick `tick`.
fn mixed_history(t: usize, tick: usize) -> Vec<f64> {
    (tick..tick + 40).map(|i| mixed_value(t, i)).collect()
}

/// 64 tenants with models of their own (one-lane groups of every shape
/// the serving gate meets: `H` 1-16, 1-2 layers, `n` 1-32) beside
/// weight-sharing groups of 2-9 lanes, so the batched GEMM sees every
/// column remainder width from 1 to 7 plus a full 8-wide block with one
/// left over.
fn mixed_fleet() -> Vec<(ClientKey, ModelSnapshot)> {
    let own = (0..64usize).map(|t| {
        let cfg = ForecasterConfig {
            history_len: 1 + (t * 13) % 32,
            hidden_size: 1 + t % 16,
            num_layers: 1 + (t / 16) % 2,
            seed: 7000 + t as u64,
        };
        (format!("own-{t:03}"), cfg)
    });
    let shapes = [(4, 1), (12, 3), (1, 8), (32, 13), (7, 16), (20, 5), (9, 2), (16, 11)];
    let shared = SHARED_LANES.into_iter().zip(shapes).enumerate().flat_map(|(g, (lanes, (n, h)))| {
        let cfg = ForecasterConfig {
            history_len: n,
            hidden_size: h,
            num_layers: 1 + g % 2,
            seed: 8000 + g as u64,
        };
        (0..lanes).map(move |lane| (format!("grp{g}-{lane}"), cfg))
    });
    own.chain(shared)
        .enumerate()
        .map(|(t, (name, cfg))| {
            let span: Vec<f64> = (0..64).map(|i| mixed_value(t, i)).collect();
            let model = LstmForecaster::new(cfg);
            let snap = ModelSnapshot::new(model, MinMaxScaler::fit(&span), cfg.history_len);
            (ClientKey::new(name, "mixed"), snap)
        })
        .collect()
}

/// Every response bit of the mixed fleet is pinned, batched and serial,
/// through a registry of 4 shards of 24 (96 resident for 108 tenants), so
/// snapshots spill and come back cold between ticks. Tick `k` asks every
/// tenant except those with `(t + k) % 5 == 0`.
#[test]
fn per_tenant_fleet_matches_golden_digests() {
    let fleet = mixed_fleet();
    for (mode, label, golden) in [
        (ExecMode::Batched, "golden-batched", GOLDEN_BATCHED),
        (ExecMode::Serial, "golden-serial", GOLDEN_SERIAL),
    ] {
        let mut eng = ServeEngine::new(
            EngineConfig {
                mode,
                queue_capacity: 256,
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: 24,
                },
                lifecycle: LifecycleConfig::default(),
            },
            store(label),
            Tracer::disabled(),
        );
        for (key, snap) in &fleet {
            eng.provision(key.clone(), snap.clone());
        }
        let mut digests = Vec::new();
        for tick in 0..4 {
            for (t, (key, _)) in fleet.iter().enumerate() {
                if (t + tick) % 5 != 0 {
                    let id = (tick * 1000 + t) as u64;
                    eng.submit(Request::new(id, key.clone(), mixed_history(t, tick)))
                        .expect("queue sized for the fleet");
                }
            }
            let responses = eng.tick();
            for r in &responses {
                assert!(!r.degraded, "{label} tick {tick}: id {} degraded", r.id);
                if mode != ExecMode::Batched {
                    continue;
                }
                // Every batched answer is its own model's `predict`, bit
                // for bit.
                let t = usize::try_from(r.id % 1000).expect("tenant index");
                let snap = &fleet[t].1;
                let history = mixed_history(t, tick);
                let window: Vec<f64> = history[history.len() - snap.history_len()..]
                    .iter()
                    .map(|&v| snap.scaler().transform(v))
                    .collect();
                let want = snap.scaler().inverse(snap.model().predict(&window)).max(0.0);
                assert_eq!(r.value.to_bits(), want.to_bits(), "{label}: id {}", r.id);
            }
            digests.push(response_digest(&responses));
        }
        let cache = eng.stats().cache;
        assert!(
            cache.evictions > 0 && cache.rehydrations > 0,
            "{label}: the registry must spill and rehydrate: {cache:?}"
        );
        assert_eq!(digests, golden, "{label}: per-tick response digests moved");
    }
}

const GOLDEN_BATCHED: [u64; 4] = [
    0xebcd_5903_de07_c0ba,
    0x0683_103b_9f56_cab1,
    0x8034_cb43_639e_c243,
    0xc427_2851_19ec_532a,
];
const GOLDEN_SERIAL: [u64; 4] = [
    0x47a4_55c2_4827_264e,
    0x0442_328e_b2df_6934,
    0x36a9_f1eb_6337_730a,
    0xb973_4869_9721_1dfa,
];
