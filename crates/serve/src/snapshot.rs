//! Serializable model snapshots and their on-disk spill store.
//!
//! A [`ModelSnapshot`] is everything the serving layer needs to answer one
//! tenant: the trained [`LstmForecaster`], the tenant's [`MinMaxScaler`],
//! and the tuned window length. The model sits behind an [`Arc`]: clones of
//! a snapshot share one model, so the weight panels its first batched
//! forward packs stay warm for as long as the snapshot is resident, and a
//! batch that holds the model outlives a mid-tick eviction. Sharing never
//! reaches the spill format: a snapshot serializes its model's own JSON.
//! Snapshots carry a FNV-1a fingerprint over every weight, which serves
//! two purposes:
//!
//! - the batching engine groups tenants by `(shape, fingerprint)`, so only
//!   tenants whose predictors share *identical* weights are fused into one
//!   batched forward and batching can never change a tenant's answer; the
//!   shape in the key keeps two models whose 64-bit fingerprints collide
//!   but whose geometry differs in separate batches;
//! - [`SnapshotStore::load`] recomputes the fingerprint after parsing and
//!   rejects a snapshot whose weights do not hash to the stored value,
//!   turning silent on-disk corruption into an explicit
//!   [`SnapshotError::Corrupt`] the registry can degrade around.

use std::sync::Arc;

use ld_api::MinMaxScaler;
use ld_faultinject::{FaultPlan, FaultSite};
use ld_nn::LstmForecaster;

use crate::hash::{fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use crate::registry::ClientKey;

/// The model geometry a batch must agree on before lanes can be fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelShape {
    /// Input window length `n`.
    pub history_len: usize,
    /// Hidden units per layer.
    pub hidden_size: usize,
    /// Stacked layer count.
    pub num_layers: usize,
}

/// A frozen, serializable predictor for one `(tenant, workload)` client.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelSnapshot {
    /// Shared by every clone of the snapshot (and by the engine's batches).
    model: Arc<LstmForecaster>,
    scaler: MinMaxScaler,
    history_len: usize,
    /// FNV-1a over every weight's bit pattern; recomputed and verified on
    /// every rehydration from disk.
    fingerprint: u64,
}

impl ModelSnapshot {
    /// Freezes a trained model with its tenant scaler.
    ///
    /// # Panics
    /// Panics if `history_len` disagrees with the model's configured input
    /// window — a snapshot must be servable exactly as stored.
    pub fn new(model: LstmForecaster, scaler: MinMaxScaler, history_len: usize) -> Self {
        assert_eq!(
            model.config().history_len,
            history_len,
            "snapshot history_len must match the model's input window"
        );
        let fingerprint = weight_fingerprint(&model);
        ModelSnapshot {
            model: Arc::new(model),
            scaler,
            history_len,
            fingerprint,
        }
    }

    /// The trained model.
    pub fn model(&self) -> &LstmForecaster {
        &self.model
    }

    /// The shared handle to the model: cloning it shares the weights and
    /// their packed panels instead of copying them.
    pub(crate) fn shared_model(&self) -> &Arc<LstmForecaster> {
        &self.model
    }

    /// The tenant's normalization scaler.
    pub fn scaler(&self) -> MinMaxScaler {
        self.scaler
    }

    /// The tuned input window length.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// The weight fingerprint computed when the snapshot was frozen.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The snapshot with its fingerprint overwritten, to stage a 64-bit
    /// fingerprint collision between two different models.
    #[cfg(test)]
    pub(crate) fn with_forged_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// The batching-relevant geometry.
    pub fn shape(&self) -> ModelShape {
        let cfg = self.model.config();
        ModelShape {
            history_len: self.history_len,
            hidden_size: cfg.hidden_size,
            num_layers: cfg.num_layers,
        }
    }

    /// Serializes the snapshot to JSON.
    pub fn to_json(&self) -> String {
        // ld-lint: allow(panic-path, "derived serialization of a plain struct is infallible")
        serde_json::to_string(self).expect("snapshot serialization")
    }

    /// Parses a snapshot and verifies its weight fingerprint.
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        let snap: ModelSnapshot =
            serde_json::from_str(json).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let actual = weight_fingerprint(&snap.model);
        if actual != snap.fingerprint {
            return Err(SnapshotError::Corrupt(format!(
                "weight fingerprint mismatch: stored {:#018x}, recomputed {actual:#018x}",
                snap.fingerprint
            )));
        }
        Ok(snap)
    }
}

/// FNV-1a over the bit patterns of every parameter, in `visit`-independent
/// deterministic order: per layer `W`, `U`, `b`, then the head `W`, `b`.
fn weight_fingerprint(model: &LstmForecaster) -> u64 {
    let mut h = FNV_OFFSET;
    for layer in model.layers() {
        for m in [layer.input_weights(), layer.recurrent_weights(), layer.bias()] {
            for &v in m.as_slice() {
                h = fnv1a_u64(h, v.to_bits());
            }
        }
    }
    for m in [model.head().weights(), model.head().bias()] {
        for &v in m.as_slice() {
            h = fnv1a_u64(h, v.to_bits());
        }
    }
    h
}

/// Why a snapshot could not be produced from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// No spilled snapshot exists for the key.
    Missing,
    /// The bytes on disk do not parse/verify as a snapshot.
    Corrupt(String),
    /// The filesystem failed underneath the store.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no spilled snapshot for key"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::Io(why) => write!(f, "snapshot store I/O: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Magic prefix of the checksum header line every spilled file starts with.
const SNAP_MAGIC: &str = "ldsnap1";
/// File name of the write-ahead journal inside the store directory.
const JOURNAL_NAME: &str = "journal.log";
/// Subdirectory torn/corrupt entries are quarantined into.
const QUARANTINE_DIR: &str = "quarantine";

/// What a [`SnapshotStore::recover`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Published snapshot files examined.
    pub scanned: usize,
    /// Torn temp files (in-flight writes that never renamed) quarantined.
    pub quarantined_torn: usize,
    /// Published files failing the checksum header, quarantined.
    pub quarantined_corrupt: usize,
    /// Valid snapshots indexed after the pass.
    pub indexed: usize,
    /// Journal intents without a matching commit (crashed spills).
    pub incomplete_journal: usize,
}

/// The on-disk side of the registry: evicted snapshots spill here and are
/// lazily rehydrated on the next request for their key.
///
/// File names are derived from the key's stable hash, never from arrival
/// order, so a store populated by two differently-interleaved runs is
/// byte-identical.
///
/// # Crash consistency
///
/// Every spill is checksummed, journaled, and published atomically:
///
/// 1. an intent record (`I <hash>`) is appended to the write-ahead journal
///    and fsynced;
/// 2. the payload — a `ldsnap1 <fnv1a-16hex>` header line plus the snapshot
///    JSON — is written to a `*.tmp` sibling and fsynced;
/// 3. the temp file is renamed over the final `<hash>.snapshot.json` name
///    (atomic on POSIX) and the directory is fsynced;
/// 4. a commit record (`C <hash>`) is appended to the journal.
///
/// A crash at *any* byte boundary therefore leaves either the old file, the
/// new file, or a torn `*.tmp` that was never published. The
/// [`recover`](Self::recover) pass quarantines torn temps and
/// checksum-failing entries and rebuilds the in-memory index, so at most
/// the in-flight snapshot is lost — never the rest of the store.
///
/// When its fault plan ([`Self::set_faults`]) arms the `crash` site,
/// [`save`](Self::save) deterministically simulates such a crash: it
/// writes a torn temp file (truncated at a hash-keyed offset), skips the
/// rename, and reports the spill as failed.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: std::path::PathBuf,
    /// Stable hashes of published, valid-named snapshots (the registry
    /// index). Rebuilt by [`Self::open`] / [`Self::recover`].
    index: std::sync::Mutex<std::collections::BTreeSet<u64>>,
    /// The plan the `crash` and `snapshot` sites draw from.
    faults: FaultPlan,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir` and indexes the
    /// snapshots already published there.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = SnapshotStore {
            dir,
            index: std::sync::Mutex::new(std::collections::BTreeSet::new()),
            faults: FaultPlan::disarmed(),
        };
        store.rebuild_index()?;
        Ok(store)
    }

    /// Replaces the store's fault plan (disarmed when opened).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The file a key spills to.
    pub fn path_for(&self, key: &ClientKey) -> std::path::PathBuf {
        self.dir.join(format!("{:016x}.snapshot.json", key.stable_hash()))
    }

    fn tmp_path_for(&self, hash: u64) -> std::path::PathBuf {
        self.dir.join(format!("{hash:016x}.snapshot.tmp"))
    }

    fn journal_path(&self) -> std::path::PathBuf {
        self.dir.join(JOURNAL_NAME)
    }

    fn index_lock(&self) -> std::sync::MutexGuard<'_, std::collections::BTreeSet<u64>> {
        self.index.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Frames `json` with the checksum header rehydration verifies.
    fn frame(json: &str) -> String {
        let sum = fnv1a_bytes(FNV_OFFSET, json.as_bytes());
        format!("{SNAP_MAGIC} {sum:016x}\n{json}")
    }

    /// Splits and verifies a framed payload, returning the JSON body.
    fn unframe(text: &str) -> Result<&str, SnapshotError> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Corrupt("missing checksum header".into()))?;
        let sum_hex = header
            .strip_prefix(SNAP_MAGIC)
            .map(str::trim)
            .ok_or_else(|| SnapshotError::Corrupt("bad magic in checksum header".into()))?;
        let stored = u64::from_str_radix(sum_hex, 16)
            .map_err(|e| SnapshotError::Corrupt(format!("unparsable checksum: {e}")))?;
        let actual = fnv1a_bytes(FNV_OFFSET, body.as_bytes());
        if actual != stored {
            return Err(SnapshotError::Corrupt(format!(
                "payload checksum mismatch: stored {stored:#018x}, recomputed {actual:#018x}"
            )));
        }
        Ok(body)
    }

    fn journal_append(&self, record: &str) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())?;
        writeln!(f, "{record}")?;
        f.sync_all()
    }

    /// Spills a snapshot for `key`: journaled, checksummed, fsynced, and
    /// atomically renamed into place.
    ///
    /// Under the `crash` fault site, the spill deterministically "crashes"
    /// mid-write — a torn temp file is left behind, nothing is published,
    /// and an error is returned — so callers must treat a failed spill as
    /// "the snapshot is still only in memory".
    pub fn save(&self, key: &ClientKey, snap: &ModelSnapshot) -> std::io::Result<()> {
        let hash = key.stable_hash();
        let framed = Self::frame(&snap.to_json());
        self.journal_append(&format!("I {hash:016x}"))?;
        let tmp = self.tmp_path_for(hash);
        if self.faults.hit_counted(FaultSite::CrashWrite) {
            // Simulated crash: tear the write at a hash-keyed byte offset
            // and never publish. The journal intent above has no commit, so
            // recovery knows this spill was in flight.
            let cut = 1 + (crate::hash::fnv1a_u64(hash, framed.len() as u64)
                % (framed.len() as u64 - 1)) as usize;
            std::fs::write(&tmp, &framed.as_bytes()[..cut])?;
            return Err(std::io::Error::other("simulated crash during snapshot spill"));
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(framed.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path_for(key))?;
        // Publish durably: fsync the directory so the rename itself
        // survives a crash.
        std::fs::File::open(&self.dir)?.sync_all()?;
        self.journal_append(&format!("C {hash:016x}"))?;
        self.index_lock().insert(hash);
        Ok(())
    }

    /// Whether the index lists a published snapshot for `key`.
    pub fn contains(&self, key: &ClientKey) -> bool {
        self.index_lock().contains(&key.stable_hash())
    }

    /// Number of indexed snapshots.
    pub fn index_len(&self) -> usize {
        self.index_lock().len()
    }

    /// Rehydrates the snapshot spilled for `key`, verifying the payload
    /// checksum and then the weight fingerprint.
    ///
    /// When the store's fault plan arms the `snapshot` site, the loaded
    /// bytes are deterministically mangled before verification (keyed off
    /// the key's stable hash), exercising the registry's
    /// corrupt-rehydration degradation path.
    pub fn load(&self, key: &ClientKey) -> Result<ModelSnapshot, SnapshotError> {
        let path = self.path_for(key);
        let mut text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SnapshotError::Missing)
            }
            Err(e) => return Err(SnapshotError::Io(e.to_string())),
        };
        if self
            .faults
            .hit(FaultSite::SnapshotCorrupt, key.stable_hash())
        {
            // Deterministic mangling: truncate to half and flip a digit, so
            // the checksum (or the fingerprint check) must fail.
            let half = text.len() / 2;
            text.truncate(half);
            text.push('!');
        }
        ModelSnapshot::from_json(Self::unframe(&text)?)
    }

    /// Startup / post-crash recovery pass:
    ///
    /// - quarantines every `*.tmp` file (torn in-flight writes);
    /// - verifies the checksum header of every published snapshot and
    ///   quarantines failures;
    /// - counts journal intents that never committed;
    /// - truncates the journal and rebuilds the in-memory index.
    ///
    /// Quarantined files move to `<dir>/quarantine/` (never deleted), so a
    /// post-mortem can inspect exactly what the crash tore.
    pub fn recover(&self) -> std::io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let quarantine = self.dir.join(QUARANTINE_DIR);
        // Journal first: intents without commits are the in-flight spills.
        if let Ok(journal) = std::fs::read_to_string(self.journal_path()) {
            let mut open_intents = std::collections::BTreeSet::new();
            for line in journal.lines() {
                match line.split_once(' ') {
                    Some(("I", h)) => {
                        open_intents.insert(h.to_string());
                    }
                    Some(("C", h)) => {
                        open_intents.remove(h);
                    }
                    _ => {}
                }
            }
            report.incomplete_journal = open_intents.len();
        }
        let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".snapshot.tmp") {
                std::fs::create_dir_all(&quarantine)?;
                std::fs::rename(&path, quarantine.join(name))?;
                report.quarantined_torn += 1;
            } else if name.ends_with(".snapshot.json") {
                report.scanned += 1;
                let ok = std::fs::read_to_string(&path)
                    .map(|text| Self::unframe(&text).is_ok())
                    .unwrap_or(false);
                if !ok {
                    std::fs::create_dir_all(&quarantine)?;
                    std::fs::rename(&path, quarantine.join(name))?;
                    report.quarantined_corrupt += 1;
                }
            }
        }
        // The journal's work is done; start the next epoch empty.
        let _ = std::fs::remove_file(self.journal_path());
        self.rebuild_index()?;
        report.indexed = self.index_len();
        Ok(report)
    }

    /// Rebuilds the index from the published files in the directory.
    fn rebuild_index(&self) -> std::io::Result<()> {
        let mut index = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(hex) = name.strip_suffix(".snapshot.json") {
                if let Ok(hash) = u64::from_str_radix(hex, 16) {
                    index.insert(hash);
                }
            }
        }
        *self.index_lock() = index;
        Ok(())
    }

    /// Removes every spilled snapshot, temp file, quarantined entry, and
    /// the journal (test hygiene).
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".snapshot.json")
                || name.ends_with(".snapshot.tmp")
                || name == JOURNAL_NAME
            {
                std::fs::remove_file(&path)?;
            } else if name == QUARANTINE_DIR && path.is_dir() {
                std::fs::remove_dir_all(&path)?;
            }
        }
        self.index_lock().clear();
        Ok(())
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

/// Digest of a serialized snapshot's bytes (store-level identity, used by
/// tests to prove spill/rehydrate losslessness).
pub fn snapshot_bytes_digest(snap: &ModelSnapshot) -> u64 {
    fnv1a_bytes(FNV_OFFSET, snap.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_nn::ForecasterConfig;

    fn snap(seed: u64) -> ModelSnapshot {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: 8,
            hidden_size: 4,
            num_layers: 1,
            seed,
        });
        let scaler = MinMaxScaler::fit(&[1.0, 5.0, 9.0]);
        ModelSnapshot::new(model, scaler, 8)
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/ld-serve-unit");
        p.push(name);
        p
    }

    #[test]
    fn json_roundtrip_preserves_fingerprint_and_outputs() {
        let s = snap(7);
        let back = ModelSnapshot::from_json(&s.to_json()).expect("roundtrip");
        assert_eq!(back.fingerprint(), s.fingerprint());
        assert_eq!(back.shape(), s.shape());
        let w: Vec<f64> = (0..8).map(|i| 0.1 * f64::from(i)).collect();
        assert_eq!(
            s.model().predict(&w).to_bits(),
            back.model().predict(&w).to_bits()
        );
    }

    #[test]
    fn fingerprint_distinguishes_models_and_survives_scaler_changes() {
        let a = snap(1);
        let b = snap(2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let a2 = ModelSnapshot::new(a.model().clone(), MinMaxScaler::fit(&[0.0, 1.0]), 8);
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn clones_share_one_model() {
        let s = snap(5);
        let c = s.clone();
        assert!(Arc::ptr_eq(s.shared_model(), c.shared_model()));
    }

    #[test]
    fn spill_format_is_pinned() {
        // FNV-1a of the JSON a store writes for a seeded snapshot: the
        // model's shared handle must not change a byte on disk.
        assert_eq!(snapshot_bytes_digest(&snap(42)), 0x0623_d269_b595_b0c9);
    }

    #[test]
    fn tampered_weights_fail_the_fingerprint_check() {
        let s = snap(3);
        let json = s.to_json();
        // Corrupt one weight without breaking JSON syntax: the fingerprint
        // check must still reject it.
        let needle = "\"data\":[";
        let at = json.find(needle).expect("weights present") + needle.len();
        let mut tampered = json.clone();
        tampered.replace_range(at..at + 1, if &json[at..at + 1] == "1" { "2" } else { "1" });
        match ModelSnapshot::from_json(&tampered) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn store_spill_and_rehydrate_is_lossless() {
        let store = SnapshotStore::open(test_dir("snapshot-lossless")).expect("open");
        store.clear().expect("clear");
        let key = ClientKey::new("tenant-9", "wiki");
        let s = snap(9);
        store.save(&key, &s).expect("save");
        let back = store.load(&key).expect("load");
        assert_eq!(snapshot_bytes_digest(&s), snapshot_bytes_digest(&back));
    }

    #[test]
    fn missing_key_is_distinguished_from_corruption() {
        let store = SnapshotStore::open(test_dir("snapshot-missing")).expect("open");
        let key = ClientKey::new("nobody", "nothing");
        assert_eq!(store.load(&key).unwrap_err(), SnapshotError::Missing);
    }

    #[test]
    fn save_publishes_atomically_with_checksum_header() {
        let store = SnapshotStore::open(test_dir("snapshot-atomic")).expect("open");
        store.clear().expect("clear");
        let key = ClientKey::new("tenant-a", "wiki");
        store.save(&key, &snap(4)).expect("save");
        // No temp file survives a successful spill; the journal holds a
        // matched intent/commit pair.
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file leaked: {leftovers:?}");
        let text = std::fs::read_to_string(store.path_for(&key)).unwrap();
        assert!(text.starts_with("ldsnap1 "), "missing checksum header");
        assert!(store.contains(&key));
        assert_eq!(store.index_len(), 1);
        // Flipping one payload byte must fail the checksum, not the parse.
        let flipped = text.replacen("\"data\":[", "\"data\":[ ", 1);
        std::fs::write(store.path_for(&key), flipped).unwrap();
        match store.load(&key) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("checksum"), "unexpected reason: {why}")
            }
            other => panic!("expected checksum Corrupt, got {other:?}"),
        }
    }

    // Crash-write injection is covered by the `serve_recovery` integration
    // tests.

    #[test]
    fn recovery_quarantines_corrupt_published_entries() {
        let store = SnapshotStore::open(test_dir("snapshot-recover-corrupt")).expect("open");
        store.clear().expect("clear");
        let good = ClientKey::new("good", "wiki");
        let bad = ClientKey::new("bad", "wiki");
        store.save(&good, &snap(7)).expect("save good");
        store.save(&bad, &snap(8)).expect("save bad");
        // Bit-rot the bad entry on disk.
        let mut text = std::fs::read_to_string(store.path_for(&bad)).unwrap();
        text.truncate(text.len() / 2);
        std::fs::write(store.path_for(&bad), text).unwrap();

        let report = store.recover().expect("recover");
        assert_eq!(report.scanned, 2);
        assert_eq!(report.quarantined_corrupt, 1);
        assert_eq!(report.indexed, 1);
        assert!(store.contains(&good) && !store.contains(&bad));
        assert!(store.load(&good).is_ok());
        assert_eq!(store.load(&bad).unwrap_err(), SnapshotError::Missing);
        // The quarantined bytes are preserved for post-mortem.
        let quarantined: Vec<_> = std::fs::read_dir(store.dir().join("quarantine"))
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(quarantined.len(), 1);
    }

    #[test]
    fn reopen_rebuilds_index_from_directory() {
        let dir = test_dir("snapshot-reopen");
        let store = SnapshotStore::open(&dir).expect("open");
        store.clear().expect("clear");
        let key = ClientKey::new("tenant-r", "wiki");
        store.save(&key, &snap(10)).expect("save");
        drop(store);
        let reopened = SnapshotStore::open(&dir).expect("reopen");
        assert!(reopened.contains(&key));
        assert_eq!(reopened.index_len(), 1);
    }
}
