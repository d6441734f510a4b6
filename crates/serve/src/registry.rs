//! The sharded model registry: resident snapshots keyed by
//! `(tenant, workload)`, LRU-evicted to a [`SnapshotStore`] and lazily
//! rehydrated on the next request.
//!
//! Shard placement is FNV-1a of the key — a pure function of the key's
//! bytes, so the same tenant lands on the same shard in every run on every
//! platform. Recency is a *logical* clock (one bump per touch), never wall
//! time, so eviction order is a pure function of the request sequence, and
//! no two resident entries ever share a recency. Within a shard, entries
//! live in a `BTreeMap`, so iteration and drains run in key order:
//! eviction, and therefore the whole serve pipeline, stays deterministic.

use std::collections::BTreeMap;

use crate::snapshot::{ModelSnapshot, SnapshotError, SnapshotStore};

/// The registry key: which tenant is asking, about which workload.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct ClientKey {
    /// Tenant identifier.
    pub tenant: String,
    /// Workload stream within the tenant (e.g. a trace-family label).
    pub workload: String,
}

impl ClientKey {
    /// Convenience constructor.
    pub fn new(tenant: impl Into<String>, workload: impl Into<String>) -> Self {
        ClientKey {
            tenant: tenant.into(),
            workload: workload.into(),
        }
    }

    /// Platform-stable FNV-1a hash of the key (shard placement, spill file
    /// names, fault-injection keying). The `0xff` separator keeps
    /// `("ab", "c")` and `("a", "bc")` distinct.
    pub fn stable_hash(&self) -> u64 {
        let h = crate::hash::fnv1a_bytes(crate::hash::FNV_OFFSET, self.tenant.as_bytes());
        let h = crate::hash::fnv1a_byte(h, 0xff);
        crate::hash::fnv1a_bytes(h, self.workload.as_bytes())
    }
}

impl std::fmt::Display for ClientKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.tenant, self.workload)
    }
}

/// Registry geometry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Number of shards; fixed for the registry's lifetime.
    pub shard_count: usize,
    /// Resident-snapshot capacity per shard; inserting beyond it evicts
    /// the shard's least-recently-used entry to disk.
    pub capacity_per_shard: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            shard_count: 8,
            capacity_per_shard: 256,
        }
    }
}

/// Cumulative cache accounting. Every lookup is exactly one hit or one
/// miss, so `hits + misses` equals the number of [`ShardedRegistry::get`]
/// calls — the invariant the property suite pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups answered from a resident snapshot.
    pub hits: u64,
    /// Lookups that had to go to the store (successful or not).
    pub misses: u64,
    /// Successful rehydrations from disk.
    pub rehydrations: u64,
    /// Rehydrations rejected as corrupt.
    pub corrupt_rehydrations: u64,
    /// Resident snapshots evicted (spilled) to disk.
    pub evictions: u64,
    /// Spill attempts that failed (I/O error or simulated crash); the
    /// victim stays resident so its state is never lost.
    pub failed_spills: u64,
}

#[derive(Debug)]
struct Entry {
    snapshot: ModelSnapshot,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: BTreeMap<ClientKey, Entry>,
}

/// The sharded, LRU-evicting snapshot registry.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
    /// Logical recency clock: bumped on every touch.
    clock: u64,
    stats: RegistryStats,
}

impl ShardedRegistry {
    /// Builds an empty registry.
    ///
    /// # Panics
    /// Panics if `shard_count` or `capacity_per_shard` is zero.
    pub fn new(cfg: RegistryConfig) -> Self {
        assert!(cfg.shard_count > 0, "registry needs at least one shard");
        assert!(
            cfg.capacity_per_shard > 0,
            "registry shards need capacity for at least one snapshot"
        );
        ShardedRegistry {
            shards: (0..cfg.shard_count).map(|_| Shard::default()).collect(),
            capacity_per_shard: cfg.capacity_per_shard,
            clock: 0,
            stats: RegistryStats::default(),
        }
    }

    /// The fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key lives on.
    pub fn shard_of(&self, key: &ClientKey) -> usize {
        usize::try_from(key.stable_hash() % self.shards.len() as u64)
            // ld-lint: allow(panic-path, "hash % len is < len, which fits usize on every platform")
            .expect("shard index fits usize")
    }

    /// Total resident snapshots across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Cumulative cache accounting.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Installs a snapshot for `key`, spilling the shard's LRU entry to
    /// `store` if the shard is at capacity.
    ///
    /// Eviction is **spill-then-remove**: the victim is written to the
    /// store first and only dropped from memory once the write succeeded.
    /// A failed spill (I/O error, simulated crash) keeps the victim
    /// resident — the shard runs one entry over capacity until a later
    /// eviction succeeds — so no snapshot ever exists solely in a torn
    /// file. Failures are counted in [`RegistryStats::failed_spills`].
    pub fn insert(&mut self, key: ClientKey, snapshot: ModelSnapshot, store: &SnapshotStore) {
        self.clock += 1;
        let now = self.clock;
        let cap = self.capacity_per_shard;
        let idx = self.shard_of(&key);
        let shard = &mut self.shards[idx];
        let replacing = shard.entries.contains_key(&key);
        if !replacing && shard.entries.len() >= cap {
            // Evict the least-recently-used entry. Every touch bumps the
            // logical clock, so no two entries share a `last_used` and the
            // oldest one names the victim alone.
            let oldest = shard.entries.values().map(|e| e.last_used).min();
            let stats = &mut self.stats;
            let victim = |e: &Entry| Some(e.last_used) == oldest;
            shard.entries.retain(|k, e| !victim(e) || !spill(store, k, e, stats));
        }
        shard.entries.insert(
            key,
            Entry {
                snapshot,
                last_used: now,
            },
        );
    }

    /// Looks up `key`, rehydrating from `store` on a miss. A successful
    /// rehydration makes the snapshot resident (possibly evicting another
    /// entry first). Corrupt or missing spill files surface as
    /// [`SnapshotError`] for the engine's degradation path.
    pub fn get(
        &mut self,
        key: &ClientKey,
        store: &SnapshotStore,
    ) -> Result<&ModelSnapshot, SnapshotError> {
        self.clock += 1;
        let now = self.clock;
        let idx = self.shard_of(key);
        if self.shards[idx].entries.contains_key(key) {
            self.stats.hits += 1;
            // ld-lint: allow(panic-path, "guarded by the contains_key hit check directly above")
            let entry = self.shards[idx].entries.get_mut(key).expect("hit resident");
            entry.last_used = now;
            return Ok(&entry.snapshot);
        }
        self.stats.misses += 1;
        match store.load(key) {
            Ok(snapshot) => {
                self.stats.rehydrations += 1;
                self.insert(key.clone(), snapshot, store);
                let idx = self.shard_of(key);
                // ld-lint: allow(panic-path, "insert on the previous line makes the key resident")
                Ok(&self.shards[idx].entries.get(key).expect("just inserted").snapshot)
            }
            Err(SnapshotError::Corrupt(why)) => {
                self.stats.corrupt_rehydrations += 1;
                Err(SnapshotError::Corrupt(why))
            }
            Err(other) => Err(other),
        }
    }

    /// Whether `key` is currently resident (no recency bump, no stats).
    pub fn is_resident(&self, key: &ClientKey) -> bool {
        self.shards[self.shard_of(key)].entries.contains_key(key)
    }

    /// Drains `shard` for a restart: spills every resident entry to
    /// `store` and evicts the ones that spilled cleanly. Entries whose
    /// spill failed **stay resident** (losing them would orphan state that
    /// exists nowhere else). Future requests rehydrate lazily from the
    /// store — the moral equivalent of restarting the shard process.
    ///
    /// Returns `(spilled, kept)` counts; iteration is in key order, so the
    /// drain is deterministic.
    pub fn drain_shard(&mut self, shard: usize, store: &SnapshotStore) -> (usize, usize) {
        let entries = &mut self.shards[shard].entries;
        let resident = entries.len();
        let stats = &mut self.stats;
        entries.retain(|k, e| !spill(store, k, e, stats));
        (resident - entries.len(), entries.len())
    }
}

/// Spills one resident entry to `store` and counts the outcome: `true`
/// when the write succeeded and the entry may leave memory.
fn spill(store: &SnapshotStore, key: &ClientKey, entry: &Entry, stats: &mut RegistryStats) -> bool {
    let saved = store.save(key, &entry.snapshot).is_ok();
    if saved {
        stats.evictions += 1;
    } else {
        stats.failed_spills += 1;
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_api::MinMaxScaler;
    use ld_nn::{ForecasterConfig, LstmForecaster};

    fn snap(seed: u64) -> ModelSnapshot {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 3,
            num_layers: 1,
            seed,
        });
        ModelSnapshot::new(model, MinMaxScaler::fit(&[0.0, 10.0]), 6)
    }

    fn store(name: &str) -> SnapshotStore {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/ld-serve-unit");
        p.push(name);
        let s = SnapshotStore::open(p).expect("open store");
        s.clear().expect("clear store");
        s
    }

    #[test]
    fn shard_placement_is_stable_and_key_separator_matters() {
        let reg = ShardedRegistry::new(RegistryConfig::default());
        let k = ClientKey::new("t1", "wiki");
        assert_eq!(reg.shard_of(&k), reg.shard_of(&k.clone()));
        assert_ne!(
            ClientKey::new("ab", "c").stable_hash(),
            ClientKey::new("a", "bc").stable_hash()
        );
    }

    #[test]
    fn lru_eviction_spills_and_lazy_rehydration_restores() {
        let store = store("registry-lru");
        let mut reg = ShardedRegistry::new(RegistryConfig {
            shard_count: 1,
            capacity_per_shard: 2,
        });
        let (a, b, c) = (
            ClientKey::new("a", "w"),
            ClientKey::new("b", "w"),
            ClientKey::new("c", "w"),
        );
        reg.insert(a.clone(), snap(1), &store);
        reg.insert(b.clone(), snap(2), &store);
        // Touch `a` so `b` becomes LRU, then overflow.
        let fp_a = reg.get(&a, &store).expect("a resident").fingerprint();
        reg.insert(c.clone(), snap(3), &store);
        assert!(!reg.is_resident(&b), "b must have been evicted");
        assert_eq!(reg.stats().evictions, 1);
        // Lazy rehydration brings `b` back, losslessly.
        let fp_b = reg.get(&b, &store).expect("rehydrate b").fingerprint();
        assert_eq!(fp_b, snap(2).fingerprint());
        assert_eq!(reg.stats().rehydrations, 1);
        assert!(reg.is_resident(&b));
        let _ = fp_a;
    }

    #[test]
    fn accounting_sums_to_lookups() {
        let store = store("registry-accounting");
        let mut reg = ShardedRegistry::new(RegistryConfig {
            shard_count: 2,
            capacity_per_shard: 1,
        });
        let keys: Vec<ClientKey> = (0..6).map(|i| ClientKey::new(format!("t{i}"), "w")).collect();
        for (i, k) in keys.iter().enumerate() {
            reg.insert(k.clone(), snap(i as u64), &store);
        }
        let mut lookups = 0u64;
        for k in keys.iter().chain(keys.iter()).chain(keys.iter().take(3)) {
            let _ = reg.get(k, &store);
            lookups += 1;
        }
        let s = reg.stats();
        assert_eq!(s.hits + s.misses, lookups);
    }

    #[test]
    fn missing_spill_is_an_error_not_a_panic() {
        let store = store("registry-missing");
        let mut reg = ShardedRegistry::new(RegistryConfig::default());
        let err = reg.get(&ClientKey::new("ghost", "w"), &store).unwrap_err();
        assert_eq!(err, SnapshotError::Missing);
    }

    #[test]
    fn drain_shard_spills_everything_and_rehydrates_losslessly() {
        let store = store("registry-drain");
        let mut reg = ShardedRegistry::new(RegistryConfig {
            shard_count: 1,
            capacity_per_shard: 8,
        });
        let keys: Vec<ClientKey> = (0..4).map(|i| ClientKey::new(format!("d{i}"), "w")).collect();
        let fps: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let s = snap(100 + i as u64);
                let fp = s.fingerprint();
                reg.insert(k.clone(), s, &store);
                fp
            })
            .collect();
        let (spilled, kept) = reg.drain_shard(0, &store);
        assert_eq!((spilled, kept), (4, 0));
        assert_eq!(reg.resident(), 0);
        // Every tenant comes back from durable state with identical weights.
        for (k, fp) in keys.iter().zip(&fps) {
            assert_eq!(reg.get(k, &store).expect("rehydrate").fingerprint(), *fp);
        }
        assert_eq!(reg.stats().failed_spills, 0);
    }
}
