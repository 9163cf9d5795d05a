//! The KVS state machine: sharded maps, range operations, counters, sets and
//! lease-based global read/write locks.
//!
//! This is the authoritative global tier of the two-tier state architecture
//! (§4.2) — the role Redis plays in the paper's deployment. It is a plain
//! data structure with no networking, so every behaviour is unit-testable;
//! `server.rs` exposes it over the fabric.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::writes::RangeWrites;

const SHARDS: usize = 16;

/// Lock modes for global state locks (Tab. 2:
/// `lock_state_global_read/write`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared read lock.
    Read,
    /// Exclusive write lock.
    Write,
}

#[derive(Debug)]
enum LockState {
    Readers(HashMap<u64, Instant>),
    Writer { owner: u64, expires: Instant },
}

#[derive(Debug, Default)]
struct Shard {
    values: HashMap<String, Vec<u8>>,
    sets: HashMap<String, HashSet<Vec<u8>>>,
    locks: HashMap<String, LockState>,
    /// Per-key mutation counters: bumped once per mutating op, under the
    /// same stripe lock as the mutation itself, so the version a caller is
    /// acked with names exactly the state its own write produced. Never
    /// removed on `del` — a deleted-then-recreated key keeps counting up,
    /// which is what makes the counter usable for cache revalidation.
    versions: HashMap<String, u64>,
}

impl Shard {
    /// Bump and return `key`'s version (first mutation yields 1).
    fn bump(&mut self, key: &str) -> u64 {
        let v = self.versions.entry(key.to_string()).or_insert(0);
        *v += 1;
        *v
    }

    /// `key`'s current version (0 if never mutated).
    fn version(&self, key: &str) -> u64 {
        self.versions.get(key).copied().unwrap_or(0)
    }
}

/// Exported lock state for one migrating key: owners and remaining lease.
///
/// Leases are exported as *remaining* milliseconds (not absolute instants)
/// so the receiving shard re-anchors them to its own clock — the owner's
/// exclusivity window never shrinks or grows across the handoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockMigration {
    /// Shared readers: `(owner, remaining_ms)` per holder.
    Readers(Vec<(u64, u64)>),
    /// Exclusive writer.
    Writer {
        /// Owner token used at acquisition.
        owner: u64,
        /// Remaining lease milliseconds.
        remaining_ms: u64,
    },
}

/// One key's complete state as it moves between shards during resharding:
/// value bytes, set members, lock state (with owners preserved) and the
/// per-key version counter (merged max-wise on import, so versions never
/// regress across migration, replication or failover promotion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMigration {
    /// The state key.
    pub key: String,
    /// Value bytes, if the key holds a value.
    pub value: Option<Vec<u8>>,
    /// Set members, if the key holds a set (empty = no set).
    pub set: Vec<Vec<u8>>,
    /// Live (unexpired) lock state, if any.
    pub lock: Option<LockMigration>,
    /// The key's mutation-version counter at export time.
    pub version: u64,
}

faasm_telemetry::counters! {
    /// What one shard counts. A shard's [`KvStore`] holds one of these for
    /// the op counters and its `ShardRouting` another for the routing and
    /// replication ones; a [`ShardStats`] report is their sum plus the
    /// gauges.
    pub struct ShardCounters => ShardStats {
        /// Read-side ops served (gets, range/batched reads, membership probes).
        reads,
        /// Write-side ops served (sets, range/batched writes, counters, sets).
        writes,
        /// Lock ops served (try_lock / unlock).
        lock_ops,
        /// Keyed requests rejected because this shard does not own the key
        /// (`WrongEpoch`/`NotPrimary`) — the retry-pressure signal during
        /// migrations.
        wrong_epoch_redirects,
        /// Total ns keyed requests spent blocked on the migration freeze
        /// gate while a migration held its write side.
        freeze_wait_ns,
        /// Batched requests served (`MultiGetRange` / `MultiSetRange` calls).
        batched_ops,
        /// Items carried by those batched requests (spans read + ranges
        /// written); `batched_items / batched_ops` is the realised batch width.
        batched_items,
        /// Primary → backup `Replicate` forwards sent by this shard.
        repl_forwards,
        /// Total ns primaries spent waiting on replica quorums (replication
        /// lag; `repl_lag_ns / repl_forwards` is the mean per-forward wait).
        repl_lag_ns,
        /// Failover promotions observed (epochs installed with no migration
        /// pending that tombstoned a live slot, promoting this shard's
        /// backup copies to primary).
        promotions,
    }
    gauges {
        /// The shard's routing epoch (0 for unrouted/standalone servers).
        epoch,
        /// Distinct keys holding a value.
        keys,
        /// Total value bytes held.
        value_bytes,
        /// The tier's replica-set size R (1 for unreplicated shards).
        replication,
        /// Keys this shard currently serves as primary.
        primary_keys,
        /// Keys this shard currently holds as a backup replica.
        backup_keys,
    }
}

/// Slice `v[offset..offset+len]` with truncation (possibly empty) where the
/// value is shorter — the range-read semantics the store and the
/// function-side cache share.
pub(crate) fn slice_range(v: &[u8], offset: u64, len: u64) -> Vec<u8> {
    let offset = offset as usize;
    if offset >= v.len() {
        return Vec::new();
    }
    // Saturate: a wire-supplied `len` near usize::MAX must truncate, not
    // wrap the slice bounds.
    let end = offset.saturating_add(len as usize).min(v.len());
    v[offset..end].to_vec()
}

/// A sharded in-memory key-value store with global locks.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<Mutex<Shard>>,
    /// Lock lease duration; expired locks are reaped lazily so a crashed
    /// client cannot deadlock the cluster.
    lease: Duration,
    counters: ShardCounters,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

impl KvStore {
    /// A store with the default 30 s lock lease.
    pub fn new() -> KvStore {
        KvStore::with_lease(Duration::from_secs(30))
    }

    /// A store with an explicit lock lease (tests use short leases).
    pub fn with_lease(lease: Duration) -> KvStore {
        KvStore {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            lease,
            counters: ShardCounters::new(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(crate::sharded::fnv1a(key.as_bytes()) as usize) % SHARDS]
    }

    fn count_read(&self) {
        self.counters.reads.inc();
    }

    fn count_write(&self) {
        self.counters.writes.inc();
    }

    fn count_batch(&self, items: usize) {
        self.counters.batched_ops.inc();
        self.counters.batched_items.add(items as u64);
    }

    /// Get a value.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.get_versioned(key).0
    }

    /// Get several whole values in one pass (the snapshot plane's chunk
    /// fetch), in request order. Not atomic across keys — chunk values are
    /// immutable, so per-key atomicity is all the fetch path needs.
    pub fn multi_get(&self, keys: &[String]) -> Vec<Option<Vec<u8>>> {
        self.count_batch(keys.len());
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Get a value together with the key's version, atomically — the pair a
    /// cache may stamp a snapshot with (reading them in two lock
    /// acquisitions could pair old bytes with a newer version).
    pub fn get_versioned(&self, key: &str) -> (Option<Vec<u8>>, u64) {
        self.count_read();
        let shard = self.shard(key).lock();
        (shard.values.get(key).cloned(), shard.version(key))
    }

    /// `key`'s mutation-version counter (0 if never mutated). Monotone for
    /// the life of the tier: `del` does not reset it, and migration/
    /// replication imports merge max-wise.
    pub fn version_of(&self, key: &str) -> u64 {
        self.shard(key).lock().version(key)
    }

    /// Set a value, replacing any previous one; returns the new version.
    pub fn set(&self, key: &str, value: Vec<u8>) -> u64 {
        self.count_write();
        let mut shard = self.shard(key).lock();
        shard.values.insert(key.to_string(), value);
        shard.bump(key)
    }

    /// Read `len` bytes at `offset`; the result is truncated (possibly
    /// empty) if the value is shorter. Missing keys yield `None`.
    pub fn get_range(&self, key: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.get_range_versioned(key, offset, len).0
    }

    /// [`KvStore::get_range`] plus the key's version, read atomically.
    pub fn get_range_versioned(
        &self,
        key: &str,
        offset: usize,
        len: usize,
    ) -> (Option<Vec<u8>>, u64) {
        self.count_read();
        let shard = self.shard(key).lock();
        (
            shard
                .values
                .get(key)
                .map(|v| slice_range(v, offset as u64, len as u64)),
            shard.version(key),
        )
    }

    /// Write `data` at `offset`, zero-extending the value as needed
    /// (Redis `SETRANGE` semantics; the paper's `push_state_offset`).
    /// Returns the new version.
    pub fn set_range(&self, key: &str, offset: usize, data: &[u8]) -> u64 {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let v = shard.values.entry(key.to_string()).or_default();
        if v.len() < offset + data.len() {
            v.resize(offset + data.len(), 0);
        }
        v[offset..offset + data.len()].copy_from_slice(data);
        shard.bump(key)
    }

    /// Read several ranges of one value under a single shard-lock
    /// acquisition (the batched chunk pull). `None` if the key is missing;
    /// otherwise one byte run per span, truncated like
    /// [`KvStore::get_range`] where the value is shorter.
    pub fn multi_get_range(&self, key: &str, spans: &[(u64, u64)]) -> Option<Vec<Vec<u8>>> {
        self.multi_get_range_versioned(key, spans).0
    }

    /// [`KvStore::multi_get_range`] plus the key's version, read atomically.
    pub fn multi_get_range_versioned(
        &self,
        key: &str,
        spans: &[(u64, u64)],
    ) -> (Option<Vec<Vec<u8>>>, u64) {
        self.count_read();
        self.count_batch(spans.len());
        let shard = self.shard(key).lock();
        (
            shard.values.get(key).map(|v| {
                spans
                    .iter()
                    .map(|&(offset, len)| slice_range(v, offset, len))
                    .collect()
            }),
            shard.version(key),
        )
    }

    /// Apply several range writes to one value under a single shard-lock
    /// acquisition (the batched chunk push), zero-extending as needed.
    /// Writes land in order, so overlapping ranges resolve last-writer-wins.
    /// Returns the new version (unchanged for an empty batch, which creates
    /// nothing).
    pub fn multi_set_range(&self, key: &str, writes: &RangeWrites) -> u64 {
        self.count_write();
        self.count_batch(writes.len());
        let mut shard = self.shard(key).lock();
        if writes.is_empty() {
            return shard.version(key);
        }
        let v = shard.values.entry(key.to_string()).or_default();
        for (offset, data) in writes.iter() {
            let offset = offset as usize;
            if v.len() < offset + data.len() {
                v.resize(offset + data.len(), 0);
            }
            v[offset..offset + data.len()].copy_from_slice(data);
        }
        shard.bump(key)
    }

    /// Append data; returns the new length and version (the paper's
    /// `append_state`).
    pub fn append(&self, key: &str, data: &[u8]) -> (usize, u64) {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let v = shard.values.entry(key.to_string()).or_default();
        v.extend_from_slice(data);
        let len = v.len();
        (len, shard.bump(key))
    }

    /// Delete a value; returns whether it existed and the new version (the
    /// deletion itself counts as a mutation).
    pub fn del(&self, key: &str) -> (bool, u64) {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let existed = shard.values.remove(key).is_some();
        (existed, shard.bump(key))
    }

    /// Whether the key holds a value.
    pub fn exists(&self, key: &str) -> bool {
        self.count_read();
        self.shard(key).lock().values.contains_key(key)
    }

    /// Length of the value in bytes (0 if missing).
    pub fn strlen(&self, key: &str) -> usize {
        self.count_read();
        self.shard(key).lock().values.get(key).map_or(0, Vec::len)
    }

    /// Add `delta` to an 8-byte little-endian counter, creating it at zero;
    /// returns the new value and version. Non-8-byte existing values are
    /// treated as corrupt and reset (documented divergence from Redis,
    /// which errors).
    pub fn incr(&self, key: &str, delta: i64) -> (i64, u64) {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let v = shard.values.entry(key.to_string()).or_default();
        let cur = if v.len() == 8 {
            i64::from_le_bytes(v[..8].try_into().expect("length checked"))
        } else {
            0
        };
        let next = cur.wrapping_add(delta);
        *v = next.to_le_bytes().to_vec();
        (next, shard.bump(key))
    }

    /// Add a member to a set; returns true if newly added (warm-set
    /// registration for the scheduler, §5.1), plus the new version.
    pub fn sadd(&self, key: &str, member: &[u8]) -> (bool, u64) {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let added = shard
            .sets
            .entry(key.to_string())
            .or_default()
            .insert(member.to_vec());
        (added, shard.bump(key))
    }

    /// Remove a member from a set; returns true if it was present, plus the
    /// new version.
    pub fn srem(&self, key: &str, member: &[u8]) -> (bool, u64) {
        self.count_write();
        let mut shard = self.shard(key).lock();
        let removed = shard.sets.get_mut(key).is_some_and(|s| s.remove(member));
        (removed, shard.bump(key))
    }

    /// All members of a set (sorted for determinism).
    pub fn smembers(&self, key: &str) -> Vec<Vec<u8>> {
        self.count_read();
        let mut out: Vec<Vec<u8>> = self
            .shard(key)
            .lock()
            .sets
            .get(key)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        out.sort();
        out
    }

    /// Set cardinality.
    pub fn scard(&self, key: &str) -> usize {
        self.count_read();
        self.shard(key).lock().sets.get(key).map_or(0, HashSet::len)
    }

    /// Try to acquire a global lock; `owner` is a caller-chosen token used
    /// to release and to make re-acquisition idempotent.
    pub fn try_lock(&self, key: &str, mode: LockMode, owner: u64) -> bool {
        self.counters.lock_ops.inc();
        let now = Instant::now();
        let expires = now + self.lease;
        let mut shard = self.shard(key).lock();
        let state = shard.locks.get_mut(key);
        match (mode, state) {
            (LockMode::Read, None) => {
                let mut readers = HashMap::new();
                readers.insert(owner, expires);
                shard
                    .locks
                    .insert(key.to_string(), LockState::Readers(readers));
                true
            }
            (LockMode::Read, Some(LockState::Readers(readers))) => {
                readers.retain(|_, exp| *exp > now);
                readers.insert(owner, expires);
                true
            }
            (
                LockMode::Read,
                Some(LockState::Writer {
                    owner: w,
                    expires: e,
                }),
            ) => {
                if *e <= now || *w == owner {
                    // Expired writer (or self re-entering as reader via
                    // downgrade): replace.
                    let mut readers = HashMap::new();
                    readers.insert(owner, expires);
                    shard
                        .locks
                        .insert(key.to_string(), LockState::Readers(readers));
                    true
                } else {
                    false
                }
            }
            (LockMode::Write, None) => {
                shard
                    .locks
                    .insert(key.to_string(), LockState::Writer { owner, expires });
                true
            }
            (LockMode::Write, Some(LockState::Readers(readers))) => {
                readers.retain(|_, exp| *exp > now);
                let only_self = readers.len() == 1 && readers.contains_key(&owner);
                if readers.is_empty() || only_self {
                    shard
                        .locks
                        .insert(key.to_string(), LockState::Writer { owner, expires });
                    true
                } else {
                    false
                }
            }
            (
                LockMode::Write,
                Some(LockState::Writer {
                    owner: w,
                    expires: e,
                }),
            ) => {
                if *e <= now || *w == owner {
                    shard
                        .locks
                        .insert(key.to_string(), LockState::Writer { owner, expires });
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Release a lock held by `owner`; unknown owners are ignored (the lease
    /// may have already expired and been taken over).
    pub fn unlock(&self, key: &str, mode: LockMode, owner: u64) {
        self.counters.lock_ops.inc();
        let mut shard = self.shard(key).lock();
        let remove = match (mode, shard.locks.get_mut(key)) {
            (LockMode::Read, Some(LockState::Readers(readers))) => {
                readers.remove(&owner);
                readers.is_empty()
            }
            (LockMode::Write, Some(LockState::Writer { owner: w, .. })) => *w == owner,
            _ => false,
        };
        if remove {
            shard.locks.remove(key);
        }
    }

    /// Remove everything (tests and failure-injection).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.values.clear();
            s.sets.clear();
            s.locks.clear();
            s.versions.clear();
        }
    }

    /// Total bytes held in values (global-tier memory accounting).
    pub fn total_value_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().values.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Number of value keys.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values.len()).sum()
    }

    /// Every distinct key with its value size in bytes (0 for keys holding
    /// only a set or a lock) — the per-key enumeration a migration planner
    /// snapshots to *preview* a reshard (pair it with
    /// [`rendezvous_delta`](crate::rendezvous_delta) to see exactly which
    /// keys and how many bytes an epoch change would move). The migration
    /// itself exports by predicate ([`KvStore::export_keys`]) and never
    /// needs the full listing.
    pub fn key_sizes(&self) -> Vec<(String, u64)> {
        let mut out: HashMap<String, u64> = HashMap::new();
        for shard in &self.shards {
            let s = shard.lock();
            for (k, v) in &s.values {
                out.insert(k.clone(), v.len() as u64);
            }
            for k in s.sets.keys() {
                out.entry(k.clone()).or_insert(0);
            }
            for k in s.locks.keys() {
                out.entry(k.clone()).or_insert(0);
            }
        }
        out.into_iter().collect()
    }

    /// This store's load report: its op counters and sizes, as an
    /// unrouted, unreplicated shard (the serving layer adds the rest).
    pub fn stats(&self) -> ShardStats {
        let keys = self.key_count() as u64;
        ShardStats {
            keys,
            value_bytes: self.total_value_bytes() as u64,
            replication: 1,
            primary_keys: keys,
            ..self.counters.snapshot()
        }
    }

    /// Export the complete state (value, set members, live lock with its
    /// owners and remaining lease) of every key matching `moving` — the
    /// donor half of a shard migration. Non-destructive: the caller purges
    /// via [`KvStore::purge_keys`] once the new epoch commits, so an
    /// aborted migration loses nothing.
    pub fn export_keys(&self, moving: impl Fn(&str) -> bool) -> Vec<KeyMigration> {
        let now = Instant::now();
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock();
            let mut keys: HashSet<&String> = s.values.keys().collect();
            keys.extend(s.sets.keys());
            keys.extend(s.locks.keys());
            keys.extend(s.versions.keys());
            for key in keys {
                if !moving(key) {
                    continue;
                }
                let lock = s.locks.get(key.as_str()).and_then(|state| match state {
                    LockState::Readers(readers) => {
                        let live: Vec<(u64, u64)> = readers
                            .iter()
                            .filter(|(_, exp)| **exp > now)
                            .map(|(owner, exp)| {
                                (*owner, exp.duration_since(now).as_millis() as u64)
                            })
                            .collect();
                        (!live.is_empty()).then_some(LockMigration::Readers(live))
                    }
                    LockState::Writer { owner, expires } => {
                        (*expires > now).then(|| LockMigration::Writer {
                            owner: *owner,
                            remaining_ms: expires.duration_since(now).as_millis() as u64,
                        })
                    }
                });
                out.push(KeyMigration {
                    key: key.clone(),
                    value: s.values.get(key.as_str()).cloned(),
                    set: s
                        .sets
                        .get(key.as_str())
                        .map(|m| {
                            let mut v: Vec<Vec<u8>> = m.iter().cloned().collect();
                            v.sort();
                            v
                        })
                        .unwrap_or_default(),
                    lock,
                    version: s.version(key),
                });
            }
        }
        out
    }

    /// Install migrated key state — the receiving half of a shard
    /// migration. Replaces any existing state for each key; lock leases are
    /// re-anchored to this store's clock with their exported remaining
    /// time, so lock owners survive the move with their windows intact.
    pub fn import_keys(&self, entries: &[KeyMigration]) {
        let now = Instant::now();
        for entry in entries {
            let mut shard = self.shard(&entry.key).lock();
            let merged = shard.version(&entry.key).max(entry.version);
            if merged > 0 {
                shard.versions.insert(entry.key.clone(), merged);
            }
            match &entry.value {
                Some(v) => {
                    shard.values.insert(entry.key.clone(), v.clone());
                }
                None => {
                    shard.values.remove(&entry.key);
                }
            }
            if entry.set.is_empty() {
                shard.sets.remove(&entry.key);
            } else {
                shard
                    .sets
                    .insert(entry.key.clone(), entry.set.iter().cloned().collect());
            }
            let lock = entry.lock.as_ref().map(|l| match l {
                LockMigration::Readers(readers) => LockState::Readers(
                    readers
                        .iter()
                        .map(|(owner, ms)| (*owner, now + Duration::from_millis(*ms)))
                        .collect(),
                ),
                LockMigration::Writer {
                    owner,
                    remaining_ms,
                } => LockState::Writer {
                    owner: *owner,
                    expires: now + Duration::from_millis(*remaining_ms),
                },
            });
            match lock {
                Some(state) => {
                    shard.locks.insert(entry.key.clone(), state);
                }
                None => {
                    shard.locks.remove(&entry.key);
                }
            }
        }
    }

    /// Drop every key matching `moved` (value, set and lock state) — the
    /// donor's cleanup once the new routing epoch has committed and the
    /// receiving shard owns the keys. Returns how many keys were dropped.
    /// Version counters are deliberately retained: they are a monotone
    /// floor, and keeping them means a key that later migrates back can
    /// never observe a version regression even against stale local state.
    pub fn purge_keys(&self, moved: impl Fn(&str) -> bool) -> usize {
        let mut purged = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            let doomed: HashSet<String> = s
                .values
                .keys()
                .chain(s.sets.keys())
                .chain(s.locks.keys())
                .filter(|k| moved(k))
                .cloned()
                .collect();
            s.values.retain(|k, _| !doomed.contains(k));
            s.sets.retain(|k, _| !doomed.contains(k));
            s.locks.retain(|k, _| !doomed.contains(k));
            purged += doomed.len();
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writes(list: &[(u64, &[u8])]) -> RangeWrites {
        list.iter().copied().collect()
    }

    #[test]
    fn get_set_del_roundtrip() {
        let s = KvStore::new();
        assert_eq!(s.get("k"), None);
        s.set("k", b"value".to_vec());
        assert_eq!(s.get("k"), Some(b"value".to_vec()));
        assert!(s.exists("k"));
        assert_eq!(s.strlen("k"), 5);
        assert!(s.del("k").0);
        assert!(!s.del("k").0);
        assert!(!s.exists("k"));
    }

    #[test]
    fn range_ops() {
        let s = KvStore::new();
        s.set_range("k", 4, b"abcd");
        assert_eq!(s.strlen("k"), 8);
        assert_eq!(s.get("k"), Some(b"\0\0\0\0abcd".to_vec()));
        s.set_range("k", 0, b"xy");
        assert_eq!(s.get_range("k", 0, 3), Some(b"xy\0".to_vec()));
        assert_eq!(s.get_range("k", 6, 100), Some(b"cd".to_vec()));
        assert_eq!(s.get_range("k", 100, 4), Some(Vec::new()));
        assert_eq!(s.get_range("missing", 0, 4), None);
    }

    #[test]
    fn multi_range_ops() {
        let s = KvStore::new();
        assert_eq!(s.multi_get_range("missing", &[(0, 4)]), None);
        s.multi_set_range("k", &writes(&[(0, b"abcd"), (8, b"ef")]));
        assert_eq!(s.get("k"), Some(b"abcd\0\0\0\0ef".to_vec()));
        assert_eq!(
            s.multi_get_range("k", &[(0, 2), (8, 100), (100, 4), (9, 0)]),
            Some(vec![b"ab".to_vec(), b"ef".to_vec(), Vec::new(), Vec::new()])
        );
        // Overlaps resolve in order (last writer wins).
        s.multi_set_range("k", &writes(&[(0, b"XX"), (1, b"Y")]));
        assert_eq!(s.get_range("k", 0, 3), Some(b"XYc".to_vec()));
        // An empty batch creates nothing.
        s.multi_set_range("fresh", &RangeWrites::new());
        assert!(!s.exists("fresh"));
    }

    #[test]
    fn append_returns_length() {
        let s = KvStore::new();
        assert_eq!(s.append("log", b"aa").0, 2);
        assert_eq!(s.append("log", b"bbb").0, 5);
        assert_eq!(s.get("log"), Some(b"aabbb".to_vec()));
    }

    #[test]
    fn counters() {
        let s = KvStore::new();
        assert_eq!(s.incr("c", 5).0, 5);
        assert_eq!(s.incr("c", -2).0, 3);
        // Corrupt (non-8-byte) value resets.
        s.set("c", b"xx".to_vec());
        assert_eq!(s.incr("c", 1).0, 1);
    }

    #[test]
    fn sets() {
        let s = KvStore::new();
        assert!(s.sadd("warm:f", b"host1").0);
        assert!(!s.sadd("warm:f", b"host1").0);
        assert!(s.sadd("warm:f", b"host0").0);
        assert_eq!(s.scard("warm:f"), 2);
        assert_eq!(
            s.smembers("warm:f"),
            vec![b"host0".to_vec(), b"host1".to_vec()]
        );
        assert!(s.srem("warm:f", b"host1").0);
        assert!(!s.srem("warm:f", b"host1").0);
        assert_eq!(s.scard("warm:f"), 1);
        assert_eq!(s.smembers("missing"), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn read_locks_are_shared() {
        let s = KvStore::new();
        assert!(s.try_lock("k", LockMode::Read, 1));
        assert!(s.try_lock("k", LockMode::Read, 2));
        // Writer blocked while readers hold.
        assert!(!s.try_lock("k", LockMode::Write, 3));
        s.unlock("k", LockMode::Read, 1);
        assert!(!s.try_lock("k", LockMode::Write, 3));
        s.unlock("k", LockMode::Read, 2);
        assert!(s.try_lock("k", LockMode::Write, 3));
    }

    #[test]
    fn write_lock_is_exclusive() {
        let s = KvStore::new();
        assert!(s.try_lock("k", LockMode::Write, 1));
        assert!(!s.try_lock("k", LockMode::Write, 2));
        assert!(!s.try_lock("k", LockMode::Read, 2));
        // Re-entrant for the same owner.
        assert!(s.try_lock("k", LockMode::Write, 1));
        s.unlock("k", LockMode::Write, 1);
        assert!(s.try_lock("k", LockMode::Read, 2));
    }

    #[test]
    fn reader_upgrades_to_writer_when_alone() {
        let s = KvStore::new();
        assert!(s.try_lock("k", LockMode::Read, 1));
        assert!(s.try_lock("k", LockMode::Write, 1), "sole reader upgrades");
        assert!(!s.try_lock("k", LockMode::Read, 2));
        s.unlock("k", LockMode::Write, 1);
    }

    #[test]
    fn unlock_by_non_owner_is_ignored() {
        let s = KvStore::new();
        assert!(s.try_lock("k", LockMode::Write, 1));
        s.unlock("k", LockMode::Write, 99);
        assert!(!s.try_lock("k", LockMode::Write, 2), "still held by 1");
    }

    #[test]
    fn expired_leases_are_reaped() {
        let s = KvStore::with_lease(Duration::from_millis(10));
        assert!(s.try_lock("k", LockMode::Write, 1));
        assert!(!s.try_lock("k", LockMode::Write, 2));
        std::thread::sleep(Duration::from_millis(15));
        assert!(s.try_lock("k", LockMode::Write, 2), "lease expired");
    }

    #[test]
    fn flush_and_accounting() {
        let s = KvStore::new();
        s.set("a", vec![0; 100]);
        s.set("b", vec![0; 50]);
        s.sadd("set", b"m");
        assert_eq!(s.total_value_bytes(), 150);
        assert_eq!(s.key_count(), 2);
        s.flush();
        assert_eq!(s.total_value_bytes(), 0);
        assert_eq!(s.key_count(), 0);
        assert_eq!(s.scard("set"), 0);
    }

    #[test]
    fn key_sizes_enumerates_values_sets_and_locks() {
        let s = KvStore::new();
        s.set("v", vec![1u8; 10]);
        s.sadd("members", b"m");
        assert!(s.try_lock("locked", LockMode::Write, 9));
        let mut sizes = s.key_sizes();
        sizes.sort();
        assert_eq!(
            sizes,
            vec![
                ("locked".to_string(), 0),
                ("members".to_string(), 0),
                ("v".to_string(), 10)
            ]
        );
    }

    #[test]
    fn stats_report_load_and_op_counters() {
        let s = KvStore::new();
        s.set("a", vec![0; 100]);
        s.set("b", vec![0; 20]);
        let _ = s.get("a");
        let _ = s.get("missing");
        s.try_lock("a", LockMode::Read, 1);
        s.unlock("a", LockMode::Read, 1);
        let st = s.stats();
        assert_eq!(st.keys, 2);
        assert_eq!(st.value_bytes, 120);
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 2);
        assert_eq!(st.lock_ops, 2);
    }

    #[test]
    fn export_import_moves_values_sets_and_lock_owners() {
        let donor = KvStore::new();
        donor.set("moves", b"payload".to_vec());
        donor.sadd("moves", b"m1");
        donor.sadd("moves", b"m2");
        assert!(donor.try_lock("moves", LockMode::Write, 42));
        donor.set("stays", b"here".to_vec());
        // A set-only key and a lock-only key move too.
        donor.sadd("set-only", b"s");
        assert!(donor.try_lock("lock-only", LockMode::Read, 7));

        let moving = |k: &str| k != "stays";
        let entries = donor.export_keys(moving);
        assert_eq!(entries.len(), 3);

        let target = KvStore::new();
        target.import_keys(&entries);
        assert_eq!(target.get("moves"), Some(b"payload".to_vec()));
        assert_eq!(
            target.smembers("moves"),
            vec![b"m1".to_vec(), b"m2".to_vec()]
        );
        // Lock state moved with its owner: a stranger cannot take it, the
        // original owner can re-enter and release it.
        assert!(!target.try_lock("moves", LockMode::Write, 99));
        assert!(target.try_lock("moves", LockMode::Write, 42));
        target.unlock("moves", LockMode::Write, 42);
        assert!(target.try_lock("moves", LockMode::Write, 99));
        assert!(target.scard("set-only") == 1);
        assert!(!target.try_lock("lock-only", LockMode::Write, 99));
        assert!(
            target.try_lock("lock-only", LockMode::Read, 8),
            "read lock shared"
        );

        // Export was non-destructive; purge drops exactly the moved keys.
        assert!(donor.exists("moves"));
        let purged = donor.purge_keys(moving);
        assert_eq!(purged, 3);
        assert!(!donor.exists("moves"));
        assert_eq!(donor.scard("set-only"), 0);
        assert!(donor.exists("stays"));
    }

    #[test]
    fn expired_locks_are_not_exported() {
        let s = KvStore::with_lease(Duration::from_millis(5));
        assert!(s.try_lock("k", LockMode::Write, 1));
        std::thread::sleep(Duration::from_millis(10));
        let entries = s.export_keys(|_| true);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].lock, None, "expired writer must not migrate");
    }

    #[test]
    fn imported_lease_is_reanchored_with_remaining_time() {
        let donor = KvStore::with_lease(Duration::from_millis(60));
        assert!(donor.try_lock("k", LockMode::Write, 5));
        let entries = donor.export_keys(|_| true);
        let target = KvStore::new();
        target.import_keys(&entries);
        assert!(!target.try_lock("k", LockMode::Write, 6), "still held");
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            target.try_lock("k", LockMode::Write, 6),
            "remaining lease expires on the target's clock"
        );
    }

    #[test]
    fn concurrent_incr_is_atomic() {
        let s = std::sync::Arc::new(KvStore::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.incr("n", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.incr("n", 0).0, 8000);
    }

    #[test]
    fn versions_are_monotone_per_key() {
        let s = KvStore::new();
        assert_eq!(s.version_of("k"), 0);
        let v1 = s.set("k", b"a".to_vec());
        assert_eq!(v1, 1);
        let v2 = s.set_range("k", 0, b"b");
        let (_, v3) = s.append("k", b"c");
        let (_, v4) = s.del("k");
        assert!(v1 < v2 && v2 < v3 && v3 < v4);
        // Deletion keeps the counter: a recreate continues, never restarts.
        let v5 = s.set("k", b"again".to_vec());
        assert!(v5 > v4);
        assert_eq!(s.version_of("k"), v5);
        // Reads pair bytes with the version atomically.
        assert_eq!(s.get_versioned("k"), (Some(b"again".to_vec()), v5));
        assert_eq!(s.get_range_versioned("k", 0, 2).1, v5);
        // An empty multi-set batch reports the version without bumping it.
        assert_eq!(s.multi_set_range("k", &RangeWrites::new()), v5);
    }

    #[test]
    fn import_merges_versions_max_wise() {
        let donor = KvStore::new();
        for _ in 0..5 {
            donor.set("k", b"x".to_vec());
        }
        let entries = donor.export_keys(|_| true);
        assert_eq!(entries[0].version, 5);

        // Target already saw a *newer* version (e.g. a replica that applied
        // more forwarded writes): import must not regress it.
        let target = KvStore::new();
        for _ in 0..9 {
            target.set("k", b"y".to_vec());
        }
        target.import_keys(&entries);
        assert_eq!(target.version_of("k"), 9);
        assert_eq!(target.get("k"), Some(b"x".to_vec()));

        // A fresh target adopts the exported version exactly.
        let fresh = KvStore::new();
        fresh.import_keys(&entries);
        assert_eq!(fresh.version_of("k"), 5);
    }

    #[test]
    fn version_only_keys_survive_migration() {
        // A deleted key leaves a version floor behind; migration carries it
        // so the new owner can never hand out a regressed version.
        let donor = KvStore::new();
        donor.set("gone", b"v".to_vec());
        donor.del("gone");
        let entries = donor.export_keys(|_| true);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].value, None);
        assert_eq!(entries[0].version, 2);
        let target = KvStore::new();
        target.import_keys(&entries);
        assert_eq!(target.version_of("gone"), 2);
        assert!(target.set("gone", b"new".to_vec()) > 2);
    }
}
