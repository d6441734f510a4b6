//! The sharded model registry: resident snapshots of `(tenant, workload)`
//! keys, LRU-evicted to a [`SnapshotStore`] and lazily rehydrated on the
//! next request.
//!
//! Each [`ClientKey`] is interned once, when it is provisioned or when a
//! tick first drains a request for it, to a dense [`TenantId`]. The id
//! indexes the tenant's record (its key, its stable hash, its shard and its
//! resident snapshot) in a `Vec`, so a lookup is one index, never a key
//! comparison. Interning itself finds the id through a map keyed by the
//! key's stable hash, which is only looked up, never iterated, and confirms
//! it against a copy of the key's bytes kept back to back in id order, so
//! a tick whose requests arrive in id order reads them as one stream. Ids
//! follow interning order, which no output depends on.
//!
//! Shard placement is FNV-1a of the key — a pure function of the key's
//! bytes, so the same tenant lands on the same shard in every run on every
//! platform. Recency is a *logical* clock (one bump per touch), never wall
//! time, so eviction order is a pure function of the request sequence, and
//! no two resident entries ever share a recency: the shard's unique oldest
//! entry is the victim, whatever order its resident ids are kept in. A
//! drain spills the shard's residents in key order, not id order, so the
//! spill sequence (the store's journal, and the crash site's draws) is the
//! same however the keys were interned.

use std::collections::HashMap;

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

/// A tenant's dense handle in one registry: ids count up from 0 in the
/// order keys are first interned ([`ShardedRegistry::intern`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The id's position in per-tenant tables.
    pub fn index(self) -> usize {
        self.0 as usize
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

/// One interned tenant.
#[derive(Debug)]
struct Tenant {
    key: ClientKey,
    stable_hash: u64,
    shard: usize,
    /// The id interned before this one under the same stable hash, if any:
    /// keys whose hashes collide chain from [`ShardedRegistry::by_hash`].
    same_hash: Option<TenantId>,
    /// The resident snapshot; `None` while it lives only in the store.
    entry: Option<Entry>,
}

/// The sharded, LRU-evicting snapshot registry.
#[derive(Debug)]
pub struct ShardedRegistry {
    /// Stable hash to the id last interned under it; looked up only, never
    /// iterated.
    by_hash: HashMap<u64, TenantId>,
    /// Every interned key's bytes as [`ClientKey::stable_hash`] reads them
    /// (tenant, `0xff`, workload), back to back in id order: id `i`'s are
    /// `key_bytes[key_bounds[i]..key_bounds[i + 1]]`.
    key_bytes: Vec<u8>,
    key_bounds: Vec<usize>,
    /// Every interned tenant, indexed by [`TenantId`].
    tenants: Vec<Tenant>,
    /// Each shard's resident ids, in no particular order.
    resident: Vec<Vec<TenantId>>,
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
            by_hash: HashMap::new(),
            key_bytes: Vec::new(),
            key_bounds: vec![0],
            tenants: Vec::new(),
            resident: vec![Vec::new(); cfg.shard_count],
            capacity_per_shard: cfg.capacity_per_shard,
            clock: 0,
            stats: RegistryStats::default(),
        }
    }

    /// The fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.resident.len()
    }

    /// Which shard a key lives on.
    pub fn shard_of(&self, key: &ClientKey) -> usize {
        shard_of_hash(key.stable_hash(), self.resident.len())
    }

    /// The id of `key`, interning it on first sight. Only a new key is
    /// cloned; it starts with no resident snapshot.
    pub fn intern(&mut self, key: &ClientKey) -> TenantId {
        self.intern_hashed(key, key.stable_hash())
    }

    /// [`Self::intern`] with the key's stable hash already computed.
    fn intern_hashed(&mut self, key: &ClientKey, stable_hash: u64) -> TenantId {
        if let Some(id) = self.find(key, stable_hash) {
            return id;
        }
        // ld-lint: allow(panic-path, "u32 ids outnumber the keys that fit in memory")
        let id = TenantId(u32::try_from(self.tenants.len()).expect("fewer than 2^32 tenants"));
        self.key_bytes.extend_from_slice(key.tenant.as_bytes());
        self.key_bytes.push(0xff);
        self.key_bytes.extend_from_slice(key.workload.as_bytes());
        self.key_bounds.push(self.key_bytes.len());
        self.tenants.push(Tenant {
            key: key.clone(),
            stable_hash,
            shard: shard_of_hash(stable_hash, self.resident.len()),
            same_hash: self.by_hash.insert(stable_hash, id),
            entry: None,
        });
        id
    }

    /// The id `key` was interned to, if it was (no interning, no stats).
    pub fn id_of(&self, key: &ClientKey) -> Option<TenantId> {
        self.find(key, key.stable_hash())
    }

    /// Walks the ids interned under `stable_hash` for the one interned
    /// from `key`.
    fn find(&self, key: &ClientKey, stable_hash: u64) -> Option<TenantId> {
        let mut at = self.by_hash.get(&stable_hash).copied();
        while let Some(id) = at {
            if self.interned_from(id, key) {
                return Some(id);
            }
            at = self.tenants[id.index()].same_hash;
        }
        None
    }

    /// Whether `id` was interned from `key`, read from the key bytes alone.
    /// UTF-8 never holds `0xff`, so stored bytes of the key's length that
    /// start with its tenant and end with its workload have the separator
    /// between the two: the keys are equal.
    fn interned_from(&self, id: TenantId, key: &ClientKey) -> bool {
        let bytes = &self.key_bytes[self.key_bounds[id.index()]..self.key_bounds[id.index() + 1]];
        let (tenant, workload) = (key.tenant.as_bytes(), key.workload.as_bytes());
        bytes.len() == tenant.len() + 1 + workload.len()
            && bytes.starts_with(tenant)
            && bytes.ends_with(workload)
    }

    /// The shard `id` lives on: [`Self::shard_of`] its key.
    pub fn shard(&self, id: TenantId) -> usize {
        self.tenants[id.index()].shard
    }

    /// [`ClientKey::stable_hash`] of `id`'s key.
    pub fn stable_hash(&self, id: TenantId) -> u64 {
        self.tenants[id.index()].stable_hash
    }

    /// Total resident snapshots across all shards.
    pub fn resident(&self) -> usize {
        self.resident.iter().map(Vec::len).sum()
    }

    /// Cumulative cache accounting.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Installs a snapshot for `id`, spilling the shard's LRU entry to
    /// `store` if the shard is at capacity, and returns it resident.
    ///
    /// Eviction is **spill-then-remove**: the victim is written to the
    /// store first and only dropped from memory once the write succeeded.
    /// A failed spill (I/O error, simulated crash) keeps the victim
    /// resident — the shard runs one entry over capacity until a later
    /// eviction succeeds — so no snapshot ever exists solely in a torn
    /// file. Failures are counted in [`RegistryStats::failed_spills`].
    pub fn insert(
        &mut self,
        id: TenantId,
        snapshot: ModelSnapshot,
        store: &SnapshotStore,
    ) -> &ModelSnapshot {
        self.clock += 1;
        let now = self.clock;
        let shard = self.tenants[id.index()].shard;
        if self.tenants[id.index()].entry.is_none() {
            if self.resident[shard].len() >= self.capacity_per_shard {
                self.evict_oldest(shard, store);
            }
            self.resident[shard].push(id);
        }
        let entry = Entry {
            snapshot,
            last_used: now,
        };
        &self.tenants[id.index()].entry.insert(entry).snapshot
    }

    /// Spills the shard's least-recently-used entry and drops it from
    /// memory if the spill succeeded. Every touch bumps the logical clock,
    /// so no two entries share a `last_used` and the oldest one names the
    /// victim alone.
    fn evict_oldest(&mut self, shard: usize, store: &SnapshotStore) {
        let tenants = &mut self.tenants;
        let last_used = |id: &TenantId| tenants[id.index()].entry.as_ref().map(|e| e.last_used);
        let oldest = self.resident[shard]
            .iter()
            .enumerate()
            .min_by_key(|(_, id)| last_used(id))
            .map(|(at, &id)| (at, id));
        if let Some((at, victim)) = oldest {
            if spill(&mut tenants[victim.index()], store, &mut self.stats) {
                self.resident[shard].swap_remove(at);
            }
        }
    }

    /// Looks up `id`, rehydrating from `store` on a miss. A successful
    /// rehydration makes the snapshot resident (possibly evicting another
    /// entry first). Corrupt or missing spill files surface as
    /// [`SnapshotError`] for the engine's degradation path.
    pub fn get(
        &mut self,
        id: TenantId,
        store: &SnapshotStore,
    ) -> Result<&ModelSnapshot, SnapshotError> {
        self.clock += 1;
        let now = self.clock;
        if self.tenants[id.index()].entry.is_none() {
            self.stats.misses += 1;
            return match store.load(&self.tenants[id.index()].key) {
                Ok(snapshot) => {
                    self.stats.rehydrations += 1;
                    Ok(self.insert(id, snapshot, store))
                }
                Err(SnapshotError::Corrupt(why)) => {
                    self.stats.corrupt_rehydrations += 1;
                    Err(SnapshotError::Corrupt(why))
                }
                Err(other) => Err(other),
            };
        }
        self.stats.hits += 1;
        let entry = self.tenants[id.index()]
            .entry
            .as_mut()
            // ld-lint: allow(panic-path, "guarded by the is_none miss check directly above")
            .expect("hit resident");
        entry.last_used = now;
        Ok(&entry.snapshot)
    }

    /// Whether `key` is currently resident (no recency bump, no stats).
    pub fn is_resident(&self, key: &ClientKey) -> bool {
        self.id_of(key)
            .is_some_and(|id| self.tenants[id.index()].entry.is_some())
    }

    /// Drains `shard` for a restart: spills every resident entry to
    /// `store` and evicts the ones that spilled cleanly. Entries whose
    /// spill failed **stay resident** (losing them would orphan state that
    /// exists nowhere else). Future requests rehydrate lazily from the
    /// store — the moral equivalent of restarting the shard process.
    ///
    /// Returns `(spilled, kept)` counts. Entries spill in key order, so the
    /// drain is deterministic and independent of interning order.
    pub fn drain_shard(&mut self, shard: usize, store: &SnapshotStore) -> (usize, usize) {
        let mut ids = std::mem::take(&mut self.resident[shard]);
        let tenants = &mut self.tenants;
        ids.sort_unstable_by(|a, b| tenants[a.index()].key.cmp(&tenants[b.index()].key));
        let resident = ids.len();
        ids.retain(|id| !spill(&mut tenants[id.index()], store, &mut self.stats));
        let kept = ids.len();
        self.resident[shard] = ids;
        (resident - kept, kept)
    }
}

/// The shard a stable hash places its key on.
fn shard_of_hash(stable_hash: u64, shards: usize) -> usize {
    usize::try_from(stable_hash % shards as u64)
        // ld-lint: allow(panic-path, "hash % len is < len, which fits usize on every platform")
        .expect("shard index fits usize")
}

/// Spills `tenant`'s resident snapshot to `store`, counts the outcome and,
/// once the write succeeded, drops the snapshot from memory. Returns
/// whether the tenant holds no snapshot in memory afterwards.
fn spill(tenant: &mut Tenant, store: &SnapshotStore, stats: &mut RegistryStats) -> bool {
    let Some(entry) = &tenant.entry else {
        return true;
    };
    let saved = store.save(&tenant.key, &entry.snapshot).is_ok();
    if saved {
        stats.evictions += 1;
        tenant.entry = None;
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
        let mut reg = ShardedRegistry::new(RegistryConfig::default());
        let k = ClientKey::new("t1", "wiki");
        assert_eq!(reg.shard_of(&k), reg.shard_of(&k.clone()));
        assert_ne!(
            ClientKey::new("ab", "c").stable_hash(),
            ClientKey::new("a", "bc").stable_hash()
        );
        // The interned record agrees with the key's own placement.
        let id = reg.intern(&k);
        assert_eq!((reg.shard(id), reg.stable_hash(id)), (reg.shard_of(&k), k.stable_hash()));
    }

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut reg = ShardedRegistry::new(RegistryConfig::default());
        let keys: Vec<ClientKey> = (0..5).map(|i| ClientKey::new(format!("t{i}"), "w")).collect();
        let ids: Vec<TenantId> = keys.iter().map(|k| reg.intern(k)).collect();
        assert_eq!(ids.iter().map(|id| id.index()).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        for (k, &id) in keys.iter().zip(&ids) {
            assert_eq!(reg.intern(k), id);
            assert_eq!(reg.id_of(k), Some(id));
        }
        assert_eq!(reg.id_of(&ClientKey::new("t9", "w")), None);
        assert_eq!(reg.intern(&ClientKey::new("t9", "w")).index(), 5);
        assert_eq!(reg.resident(), 0, "interning makes nothing resident");
    }

    #[test]
    fn keys_sharing_a_stable_hash_intern_apart() {
        let mut reg = ShardedRegistry::new(RegistryConfig::default());
        let keys: Vec<ClientKey> = (0..3).map(|i| ClientKey::new(format!("c{i}"), "w")).collect();
        // Force one hash on all three, as a 64-bit collision would.
        let ids: Vec<TenantId> = keys.iter().map(|k| reg.intern_hashed(k, 7)).collect();
        assert_eq!(ids.iter().map(|id| id.index()).collect::<Vec<_>>(), vec![0, 1, 2]);
        for (k, &id) in keys.iter().zip(&ids) {
            assert_eq!(reg.intern_hashed(k, 7), id);
            assert_eq!(reg.find(k, 7), Some(id));
        }
        assert_eq!(reg.find(&ClientKey::new("c3", "w"), 7), None);
        // The same characters split differently are a different key.
        assert_eq!(reg.find(&ClientKey::new("c", "0w"), 7), None);
        assert_eq!(reg.find(&ClientKey::new("c0w", ""), 7), None);
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
        let (ia, ib, ic) = (reg.intern(&a), reg.intern(&b), reg.intern(&c));
        reg.insert(ia, snap(1), &store);
        reg.insert(ib, snap(2), &store);
        // Touch `a` so `b` becomes LRU, then overflow.
        let fp_a = reg.get(ia, &store).expect("a resident").fingerprint();
        reg.insert(ic, snap(3), &store);
        assert!(!reg.is_resident(&b), "b must have been evicted");
        assert!(reg.is_resident(&a) && reg.is_resident(&c));
        assert_eq!(reg.stats().evictions, 1);
        // Lazy rehydration brings `b` back, losslessly.
        let fp_b = reg.get(ib, &store).expect("rehydrate b").fingerprint();
        assert_eq!(fp_b, snap(2).fingerprint());
        assert_eq!(reg.stats().rehydrations, 1);
        assert!(reg.is_resident(&b));
        assert_eq!(fp_a, snap(1).fingerprint());
    }

    #[test]
    fn accounting_sums_to_lookups() {
        let store = store("registry-accounting");
        let mut reg = ShardedRegistry::new(RegistryConfig {
            shard_count: 2,
            capacity_per_shard: 1,
        });
        let keys: Vec<ClientKey> = (0..6).map(|i| ClientKey::new(format!("t{i}"), "w")).collect();
        let ids: Vec<TenantId> = keys.iter().map(|k| reg.intern(k)).collect();
        for (i, &id) in ids.iter().enumerate() {
            reg.insert(id, snap(i as u64), &store);
        }
        let mut lookups = 0u64;
        for &id in ids.iter().chain(ids.iter()).chain(ids.iter().take(3)) {
            let _ = reg.get(id, &store);
            lookups += 1;
        }
        let s = reg.stats();
        assert_eq!(s.hits + s.misses, lookups);
    }

    #[test]
    fn missing_spill_is_an_error_not_a_panic() {
        let store = store("registry-missing");
        let mut reg = ShardedRegistry::new(RegistryConfig::default());
        let ghost = reg.intern(&ClientKey::new("ghost", "w"));
        let err = reg.get(ghost, &store).unwrap_err();
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
        let ids: Vec<TenantId> = keys.iter().map(|k| reg.intern(k)).collect();
        let fps: Vec<u64> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let s = snap(100 + i as u64);
                let fp = s.fingerprint();
                reg.insert(id, s, &store);
                fp
            })
            .collect();
        let (spilled, kept) = reg.drain_shard(0, &store);
        assert_eq!((spilled, kept), (4, 0));
        assert_eq!(reg.resident(), 0);
        // Every tenant comes back from durable state with identical weights.
        for (&id, fp) in ids.iter().zip(&fps) {
            assert_eq!(reg.get(id, &store).expect("rehydrate").fingerprint(), *fp);
        }
        assert_eq!(reg.stats().failed_spills, 0);
    }

    #[test]
    fn drain_spills_in_key_order_whatever_the_interning_order() {
        let store = store("registry-drain-order");
        let mut reg = ShardedRegistry::new(RegistryConfig {
            shard_count: 2,
            capacity_per_shard: 16,
        });
        // Interned in reverse key order, so id order is the reverse of key
        // order.
        let keys: Vec<ClientKey> = (0..12).rev().map(|i| ClientKey::new(format!("k{i:02}"), "w")).collect();
        for (i, k) in keys.iter().enumerate() {
            let id = reg.intern(k);
            assert_eq!(id.index(), i);
            reg.insert(id, snap(200 + i as u64), &store);
        }
        let shard = reg.shard_of(&keys[0]);
        let mut want: Vec<&ClientKey> = keys.iter().filter(|k| reg.shard_of(k) == shard).collect();
        want.sort();
        assert!(want.len() >= 2, "the drained shard must hold several keys");
        let (spilled, kept) = reg.drain_shard(shard, &store);
        assert_eq!((spilled, kept), (want.len(), 0));

        // The journal records each spill's intent and commit, by key hash.
        let journal = std::fs::read_to_string(store.dir().join("journal.log")).expect("journal");
        let commits: Vec<&str> = journal.lines().filter_map(|l| l.strip_prefix("C ")).collect();
        let want_hashes: Vec<String> = want.iter().map(|k| format!("{:016x}", k.stable_hash())).collect();
        assert_eq!(commits, want_hashes, "drain must spill in key order");
    }
}
