//! Crash-consistency of the snapshot store, end to end:
//!
//! - a spill that "crashes" mid-write (the `crash` fault site) leaves a
//!   torn temp file and an unmatched journal intent; recovery quarantines
//!   the temp, counts the intent, and keeps every published snapshot;
//! - a crash at *any* byte boundary of an in-flight write loses at most
//!   that snapshot: whatever the cut, restart + recovery quarantines the
//!   torn file, rebuilds the index, and every other tenant still loads
//!   bit-for-bit;
//! - a torn *published* file (simulating a torn sector under the atomic
//!   rename) fails its checksum, is quarantined, and never takes a
//!   neighbor with it;
//! - after recovery the serving engine answers every surviving tenant
//!   exactly as before the crash, and only the victim degrades.
//!
//! The crash site's plan is handed to the one store it afflicts, so the
//! tests running beside it never see it; each test owns its directory.

use ld_api::MinMaxScaler;
use ld_faultinject::{FaultConfig, FaultPlan, FaultSite};
use ld_nn::{ForecasterConfig, LstmForecaster};
use ld_serve::{
    ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot, RegistryConfig, Request,
    ResponseSource, ServeEngine, SnapshotError, SnapshotStore,
};
use ld_telemetry::{FieldValue, Tracer};

const HIST: usize = 4;

fn store_dir(label: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ld-serve-recovery")
        .join(label)
}

fn fresh_store(label: &str) -> SnapshotStore {
    let s = SnapshotStore::open(store_dir(label)).expect("open store");
    s.clear().expect("clear store");
    s
}

fn snapshot(seed: u64, hi: f64) -> ModelSnapshot {
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: HIST,
        hidden_size: 2,
        num_layers: 1,
        seed,
    });
    ModelSnapshot::new(model, MinMaxScaler::fit(&[0.0, hi]), HIST)
}

fn key(t: usize) -> ClientKey {
    ClientKey::new(format!("crash-{t:02}"), "recovery")
}

/// FNV-1a over bytes — mirrors the store's checksum so the tests can
/// frame payloads exactly as `save` does.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The exact on-disk framing `save` publishes: magic, checksum, payload.
fn framed(snap: &ModelSnapshot) -> String {
    let json = snap.to_json();
    format!("ldsnap1 {:016x}\n{json}", fnv1a(json.as_bytes()))
}

fn assert_loads_bitwise(store: &SnapshotStore, k: &ClientKey, want: &ModelSnapshot) {
    let got = store.load(k).expect("survivor must load");
    assert_eq!(got.fingerprint(), want.fingerprint(), "weights changed for {k:?}");
    let w: Vec<f64> = (0..HIST).map(|i| 0.2 + 0.1 * i as f64).collect();
    assert_eq!(
        got.model().predict(&w).to_bits(),
        want.model().predict(&w).to_bits(),
        "prediction bits changed for {k:?}"
    );
}

#[test]
fn simulated_crash_tears_tmp_and_recovery_quarantines_it() {
    let mut store = fresh_store("fault-site");
    let survivor = key(0);
    let survivor_snap = snapshot(11, 50.0);
    store.save(&survivor, &survivor_snap).expect("clean spill");

    // Every spill under this plan crashes mid-write.
    store.set_faults(FaultPlan::new(FaultConfig::new(0xc4a5).with_site(
        FaultSite::CrashWrite,
        1.0,
        None,
    )));
    let victim = key(1);
    let err = store.save(&victim, &snapshot(13, 60.0)).unwrap_err();
    assert!(err.to_string().contains("crash"), "unexpected error: {err}");
    store.set_faults(FaultPlan::disarmed());

    // Nothing was published for the victim...
    assert!(!store.contains(&victim));
    assert!(matches!(store.load(&victim), Err(SnapshotError::Missing)));
    // ...but a torn temp file litters the directory.
    let torn: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert_eq!(torn.len(), 1, "the crashed spill must leave its torn temp");

    let report = store.recover().expect("recovery");
    assert_eq!(report.quarantined_torn, 1);
    assert_eq!(report.quarantined_corrupt, 0);
    assert_eq!(report.incomplete_journal, 1, "the intent never committed");
    assert_eq!(report.indexed, 1, "the survivor stays indexed");
    assert!(store.dir().join("quarantine").read_dir().expect("quarantine dir").count() >= 1);

    assert_loads_bitwise(&store, &survivor, &survivor_snap);
}

#[test]
fn crash_at_every_byte_boundary_loses_at_most_the_inflight_snapshot() {
    let label = "every-byte-tmp";
    let store = fresh_store(label);
    let survivors: Vec<(ClientKey, ModelSnapshot)> = (0..6)
        .map(|t| (key(t), snapshot(100 + t as u64, 40.0 + t as f64)))
        .collect();
    for (k, s) in &survivors {
        store.save(k, s).expect("publish survivor");
    }

    // Tenant 7 is the in-flight spill: its write crashes at offset `cut`.
    let victim = key(7);
    let victim_hash = victim.stable_hash();
    let payload = framed(&snapshot(999, 70.0));
    let tmp_path = store.dir().join(format!("{victim_hash:016x}.snapshot.tmp"));
    let journal_path = store.dir().join("journal.log");
    drop(store);

    for cut in 1..payload.len() {
        std::fs::write(&tmp_path, &payload.as_bytes()[..cut]).expect("write torn tmp");
        {
            use std::io::Write as _;
            let mut j = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&journal_path)
                .expect("open journal");
            writeln!(j, "I {victim_hash:016x}").expect("append intent");
        }

        // "Restart": a fresh process would open the store anew and recover.
        let reopened = SnapshotStore::open(store_dir(label)).expect("reopen after crash");
        let report = reopened.recover().expect("recovery");
        assert_eq!(report.quarantined_torn, 1, "cut {cut}: torn tmp quarantined");
        assert_eq!(report.indexed, survivors.len(), "cut {cut}: index lost a survivor");
        assert_eq!(report.incomplete_journal, 1, "cut {cut}");
        assert!(
            matches!(reopened.load(&victim), Err(SnapshotError::Missing)),
            "cut {cut}: the in-flight snapshot is the one thing lost"
        );
        for (k, _) in &survivors {
            assert!(reopened.contains(k), "cut {cut}: {k:?} fell out of the index");
        }
    }

    // Full bitwise check once at the end (per-cut would be all I/O).
    let reopened = SnapshotStore::open(store_dir(label)).expect("reopen");
    for (k, s) in &survivors {
        assert_loads_bitwise(&reopened, k, s);
    }
}

#[test]
fn torn_published_file_is_quarantined_without_taking_neighbors() {
    let label = "every-byte-published";
    let store = fresh_store(label);
    let tenants: Vec<(ClientKey, ModelSnapshot)> = (0..5)
        .map(|t| (key(t), snapshot(200 + t as u64, 30.0 + t as f64)))
        .collect();
    for (k, s) in &tenants {
        store.save(k, s).expect("publish");
    }
    let (victim, victim_snap) = &tenants[2];
    let victim_path = store.path_for(victim);
    let original = std::fs::read(&victim_path).expect("read published victim");
    drop(store);

    // Sample every byte boundary of the published file (0 = empty file).
    for cut in 0..original.len() {
        std::fs::write(&victim_path, &original[..cut]).expect("tear published file");

        let reopened = SnapshotStore::open(store_dir(label)).expect("reopen");
        let report = reopened.recover().expect("recovery");
        assert_eq!(
            report.quarantined_corrupt, 1,
            "cut {cut}: a torn published file must fail its checksum"
        );
        assert_eq!(report.indexed, tenants.len() - 1, "cut {cut}");
        assert!(!reopened.contains(victim), "cut {cut}: victim must leave the index");
        for (k, _) in &tenants {
            if k != victim {
                assert!(reopened.contains(k), "cut {cut}: neighbor {k:?} lost");
            }
        }

        // Heal the victim for the next cut, as a re-spill would.
        std::fs::write(&victim_path, &original).expect("restore victim");
    }

    let reopened = SnapshotStore::open(store_dir(label)).expect("reopen");
    reopened.recover().expect("final recovery");
    for (k, s) in &tenants {
        assert_loads_bitwise(&reopened, k, s);
    }
    assert_loads_bitwise(&reopened, victim, victim_snap);
}

#[test]
fn engine_serves_survivors_identically_after_crash_recovery() {
    let engine_with = |label: &str, tracer: Tracer| -> ServeEngine {
        ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 16,
                registry: RegistryConfig {
                    shard_count: 2,
                    capacity_per_shard: 8,
                },
                lifecycle: LifecycleConfig::default(),
            },
            SnapshotStore::open(store_dir(label)).expect("open store"),
            tracer,
        )
    };
    let histories: Vec<Vec<f64>> = (0..4)
        .map(|t| (0..HIST + 2).map(|i| 8.0 + (t * 3 + i) as f64).collect())
        .collect();
    let run = |eng: &mut ServeEngine| {
        for (t, h) in histories.iter().enumerate() {
            eng.submit(Request::new(t as u64, key(t), h.clone())).expect("admit");
        }
        eng.tick()
    };

    // Baseline: everything spilled cleanly, engine rehydrates and serves.
    let label = "engine-recovery";
    let store = fresh_store(label);
    for t in 0..4 {
        store.save(&key(t), &snapshot(300 + t as u64, 25.0 + t as f64)).expect("publish");
    }
    drop(store);
    let mut before = engine_with(label, Tracer::disabled());
    let want = run(&mut before);
    assert!(want.iter().all(|r| !r.degraded));
    drop(before);

    // Crash: tenant 2's file is torn mid-publish. Restart, recover, serve.
    let victim_path = std::path::Path::new(&store_dir(label))
        .join(format!("{:016x}.snapshot.json", key(2).stable_hash()));
    let bytes = std::fs::read(&victim_path).expect("read victim");
    std::fs::write(&victim_path, &bytes[..bytes.len() / 3]).expect("tear victim");

    let mut after = engine_with(label, Tracer::enabled());
    let report = after.recover_store().expect("recovery");
    assert_eq!(report.quarantined_corrupt, 1);
    // The pass is a `serve`/`store_recovery` event carrying the report's
    // counts.
    let events = after.tracer().events();
    let recovery = events.events_of("serve", "store_recovery");
    assert_eq!(recovery.len(), 1);
    let count = |n: usize| Some(FieldValue::Int { value: n as u64 });
    assert_eq!(
        recovery[0].field("quarantined").cloned(),
        count(report.quarantined_torn + report.quarantined_corrupt)
    );
    assert_eq!(recovery[0].field("indexed").cloned(), count(report.indexed));
    let got = run(&mut after);

    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.id, g.id);
        if g.id == 2 {
            // Only the victim degrades — to an explicit fallback answer.
            assert!(g.degraded);
            assert_eq!(g.source, ResponseSource::Fallback);
            assert!(g.value.is_finite() && g.value >= 0.0);
        } else {
            assert!(!g.degraded, "survivor {} degraded after recovery", g.id);
            assert_eq!(
                w.value.to_bits(),
                g.value.to_bits(),
                "survivor {} bits changed after crash recovery",
                g.id
            );
        }
    }
}
