//! Function-side state caching with consistency tiers.
//!
//! [`CachedKv`] wraps any [`SharedKv`] with a bounded per-instance cache of
//! leased value/range snapshots, so a function's working set is served from
//! host memory instead of riding the wire to the global tier on every read
//! (§4.2's local tier, generalised to cache *remote* state). It is a plain
//! [`KvBackend`], interposed at the same seam tests already use for fault
//! injection — everything above (state entries, workloads) is unchanged.
//!
//! One [`Consistency`] mode per cache, set by
//! [`CacheConfig::default_consistency`] (Cloudburst's levels, PAPERS.md):
//!
//! * [`Eventual`](Consistency::Eventual) — serve any leased snapshot until
//!   its [`LEASE`] expires on the cluster's clock; staleness is bounded by
//!   the lease, nothing else.
//! * [`ReadYourWrites`](Consistency::ReadYourWrites) — the default. Cached
//!   snapshots are stamped with the backend's routing epoch and the shard's
//!   per-key mutation version; a reshard or failover (which always bumps the
//!   epoch) or an expired lease forces a cheap `VersionOf` revalidation
//!   round-trip before the snapshot is served again. A per-key floor of the
//!   caller's own acked write versions guarantees the cache never serves
//!   bytes older than this instance's last acknowledged write, even when a
//!   concurrent miss refills the entry with pre-write bytes.
//! * [`Strong`](Consistency::Strong) — bypass the cache entirely; reads and
//!   writes ride the global tier (and its distributed locks) directly.
//!
//! Writes always go through to the global tier first and only then update
//! the cache with the exact version the shard acked (bumped under the same
//! stripe lock as the mutation), so acked-write durability and the
//! replication invariants from the replicated tier are untouched.
//!
//! The cache is bounded by bytes *and* entries with LRU eviction, and it
//! records [`SpanKind::CacheHit`]/[`CacheMiss`](SpanKind::CacheMiss)/
//! [`CacheInvalidate`](SpanKind::CacheInvalidate)/
//! [`Revalidate`](SpanKind::Revalidate) spans under the calling thread's
//! trace context. A hit allocates its reply and nothing else
//! (`tests/cache_hit_allocations.rs`); hits are attributed to keys only
//! inside a [`touch_scope`], which a worker opens around one call.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_telemetry::{Recorder, SpanKind};
use parking_lot::Mutex;

use crate::backend::{KvBackend, SharedKv};
use crate::client::KvError;
use crate::codec::{Request, Response};
use crate::lru::BoundedLru;
use crate::store::{slice_range, LockMode, ShardStats};
use crate::writes::RangeWrites;

thread_local! {
    /// Per-call touched-key collection: a worker installs a scope around a
    /// function's execution, and every cache hit the call makes is counted
    /// against its key — the per-function working-set attribution behind
    /// the scheduler's state-affinity signal.
    static TOUCHED: std::cell::RefCell<Option<HashMap<String, u64>>> =
        const { std::cell::RefCell::new(None) };
}

/// Collect cache hits by key on this thread until the guard is finished —
/// wrap one function call to attribute its working set. Scopes do not nest;
/// a nested scope resets the outer one's counts.
pub fn touch_scope() -> TouchScope {
    TOUCHED.with(|t| *t.borrow_mut() = Some(HashMap::new()));
    TouchScope { _priv: () }
}

/// Active touched-key collection; [`finish`](TouchScope::finish) yields the
/// counts. Dropping without finishing discards them.
#[must_use = "finish() yields the collected per-key hit counts"]
pub struct TouchScope {
    _priv: (),
}

impl TouchScope {
    /// Stop collecting and return `(key, hits)` per touched key,
    /// hit-count-descending then by key.
    pub fn finish(self) -> Vec<(String, u64)> {
        let map = TOUCHED.with(|t| t.borrow_mut().take()).unwrap_or_default();
        let mut keys: Vec<(String, u64)> = map.into_iter().collect();
        keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        keys
    }
}

impl Drop for TouchScope {
    fn drop(&mut self) {
        TOUCHED.with(|t| {
            t.borrow_mut().take();
        });
    }
}

/// Count one cache hit for `key` in the thread's active scope, if any.
fn note_touch(key: &str) {
    TOUCHED.with(|t| {
        if let Some(map) = t.borrow_mut().as_mut() {
            *map.entry(key.to_string()).or_insert(0) += 1;
        }
    });
}

/// Consistency mode of reads and writes through a [`CachedKv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Serve leased snapshots until the TTL expires; no epoch or version
    /// checks. Staleness is bounded by the lease duration only.
    Eventual,
    /// Epoch-checked invalidation plus a floor of the caller's own acked
    /// write versions: a snapshot is served only while its routing epoch is
    /// current and its version is at least this instance's last ack for the
    /// key; epoch bumps and lease expiry trigger revalidation.
    #[default]
    ReadYourWrites,
    /// Bypass the cache; every read and write rides the global tier (and
    /// distributed locks) directly.
    Strong,
}

/// Sizing and behaviour knobs for a [`CachedKv`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total cached-bytes budget (keys + values); LRU eviction keeps the
    /// cache under it. A single value larger than the budget is never
    /// cached.
    pub max_bytes: usize,
    /// The mode every key of this cache reads and writes under.
    pub default_consistency: Consistency,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_bytes: 64 << 20,
            default_consistency: Consistency::ReadYourWrites,
        }
    }
}

faasm_telemetry::counters! {
    /// Cache-effectiveness counters of one [`CachedKv`].
    pub struct CacheCounters => CacheStats {
        /// Reads served from the cache (including successful revalidations).
        hits,
        /// Reads that went to the global tier.
        misses,
        /// Snapshots dropped because they failed a version/epoch check or
        /// were deleted.
        invalidations,
        /// `VersionOf` probes that confirmed a snapshot and extended its lease.
        revalidations,
        /// Snapshots dropped by the LRU to stay under budget.
        evictions,
    }
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no reads happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Cached bytes for one key: either the whole value or a set of
/// non-overlapping byte runs (offset → bytes) read at one version.
#[derive(Debug)]
enum CachedBytes {
    Full(Vec<u8>),
    Runs(BTreeMap<u64, Vec<u8>>),
}

impl CachedBytes {
    fn byte_len(&self) -> usize {
        match self {
            CachedBytes::Full(v) => v.len(),
            CachedBytes::Runs(runs) => runs.values().map(Vec::len).sum(),
        }
    }
}

/// Snapshot lease: how long, on the cluster's clock, a cached snapshot may
/// be served without revalidation. Bounds staleness under `Eventual`.
pub const LEASE: Duration = Duration::from_millis(100);

/// Fixed per-entry bookkeeping charge (map nodes, LRU links, stamps).
const ENTRY_OVERHEAD: usize = 96;

/// Entry-count bound beside the byte budget, so a cache of many tiny keys
/// stays a bounded map.
const MAX_ENTRIES: usize = 65_536;

#[derive(Debug)]
struct Entry {
    /// Shard mutation version the bytes were observed/acked at.
    version: u64,
    /// Routing epoch the bytes were fetched under.
    epoch: u64,
    /// Lease expiry; serving past it requires revalidation.
    expires_at: Instant,
    data: CachedBytes,
}

/// What a snapshot of `data` under `key` is charged against the byte budget.
fn charged_bytes(key: &str, data: &CachedBytes) -> usize {
    key.len() + data.byte_len() + ENTRY_OVERHEAD
}

struct Inner {
    /// The snapshots, bounded by charged bytes and by entries.
    entries: BoundedLru<String, Entry>,
    /// Per-key floor of this instance's own acked write versions — the
    /// read-your-writes guarantee. Never removed while the cache lives.
    last_acked: HashMap<String, u64>,
}

impl Inner {
    /// Remove an entry, returning whether it existed.
    fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Install (or replace) an entry unless a *newer* version is already
    /// cached (a racing reader/writer may have refreshed it since the wire
    /// round-trip completed — keep the higher version, versions are
    /// monotone per key). Equal-version snapshots are combined: a full
    /// value subsumes runs, and two run sets merge (bytes at one version
    /// agree wherever they overlap). Returns how many other snapshots the
    /// budget evicted to make room.
    fn upsert(&mut self, key: &str, mut entry: Entry) -> usize {
        enum Action {
            KeepExisting,
            Replace,
        }
        let action = match self.entries.peek_mut(key) {
            Some(existing) if existing.version > entry.version => Action::KeepExisting,
            Some(existing) if existing.version == entry.version => {
                match (&mut existing.data, &mut entry.data) {
                    (CachedBytes::Full(_), CachedBytes::Runs(_)) => {
                        existing.expires_at = existing.expires_at.max(entry.expires_at);
                        existing.epoch = existing.epoch.max(entry.epoch);
                        Action::KeepExisting
                    }
                    (CachedBytes::Runs(old), CachedBytes::Runs(new)) => {
                        for (off, run) in std::mem::take(old) {
                            merge_run(new, off, &run);
                        }
                        Action::Replace
                    }
                    _ => Action::Replace,
                }
            }
            _ => Action::Replace,
        };
        match action {
            Action::KeepExisting => {
                self.entries.touch(key);
                0
            }
            Action::Replace => match self.entries.insert(key.to_string(), entry) {
                Some(evicted) => evicted,
                // Merged runs outgrew the whole budget: keep neither half.
                None => {
                    self.entries.remove(key);
                    0
                }
            },
        }
    }

    /// The caller's own-ack floor for a key.
    fn floor(&self, key: &str) -> u64 {
        self.last_acked.get(key).copied().unwrap_or(0)
    }

    fn raise_floor(&mut self, key: &str, version: u64) {
        let slot = self.last_acked.entry(key.to_string()).or_insert(0);
        *slot = (*slot).max(version);
    }
}

/// What a locked lookup decided; wire work (if any) happens after unlock —
/// the cache never holds its lock across a round-trip.
enum Lookup<T> {
    Hit(T, u64),
    Revalidate(u64),
    Miss,
}

/// A bounded function-side cache over any [`KvBackend`] — see the module
/// docs for the consistency model.
pub struct CachedKv {
    inner: SharedKv,
    /// The inner backend's recorder, held so a hit records without a
    /// virtual call.
    recorder: Arc<Recorder>,
    cfg: CacheConfig,
    state: Mutex<Inner>,
    counters: CacheCounters,
}

impl CachedKv {
    /// Wrap `inner` with a cache sized/behaving per `cfg`.
    pub fn new(inner: SharedKv, cfg: CacheConfig) -> CachedKv {
        CachedKv {
            recorder: Arc::clone(inner.recorder()),
            inner,
            state: Mutex::new(Inner {
                entries: BoundedLru::new(cfg.max_bytes, MAX_ENTRIES, |key, e| {
                    charged_bytes(key, &e.data)
                }),
                last_acked: HashMap::new(),
            }),
            cfg,
            counters: CacheCounters::new(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Bytes currently charged against the budget.
    pub fn cached_bytes(&self) -> usize {
        self.state.lock().entries.cost()
    }

    /// Entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Drop every snapshot (own-ack floors survive — they are a correctness
    /// floor, not cached data).
    pub fn clear(&self) {
        let mut s = self.state.lock();
        let dropped = s.entries.len() as u64;
        s.entries.clear();
        self.counters.invalidations.add(dropped);
    }

    /// Cache `data` for `key` as read or acked at `version` under `epoch`,
    /// unless it alone outweighs the budget (returns `false`).
    fn install(
        &self,
        s: &mut Inner,
        key: &str,
        version: u64,
        epoch: u64,
        data: CachedBytes,
    ) -> bool {
        if charged_bytes(key, &data) > self.cfg.max_bytes {
            return false;
        }
        let entry = Entry {
            version,
            epoch,
            expires_at: self.recorder.clock().now() + LEASE,
            data,
        };
        let evicted = s.upsert(key, entry);
        self.counters.evictions.add(evicted as u64);
        true
    }

    /// Validity checks shared by both read shapes. Returns `None` when the
    /// entry must be dropped (below the own-ack floor), `Some(true)` when it
    /// may be served as-is, `Some(false)` when it needs revalidation.
    fn entry_state(&self, s: &Inner, key: &str, e: &Entry) -> Option<bool> {
        let mode = self.cfg.default_consistency;
        if mode != Consistency::Eventual && e.version < s.floor(key) {
            // A concurrent miss refilled the cache with pre-write bytes
            // after this instance's own write acked — never serve them.
            return None;
        }
        let fresh = self.recorder.clock().now() < e.expires_at;
        let epoch_ok = mode == Consistency::Eventual || e.epoch == self.inner.routing_epoch();
        Some(fresh && epoch_ok)
    }

    /// `VersionOf` probe after a lease/epoch check failed: if the shard's
    /// version still matches the snapshot, re-stamp and serve it; otherwise
    /// drop it and fall through to a miss. `read` re-extracts the served
    /// bytes from the (revalidated) entry under the relocked state.
    fn revalidate<T>(
        &self,
        key: &str,
        expected: u64,
        read: impl FnOnce(&Entry) -> Option<T>,
    ) -> Result<Option<(T, u64)>, KvError> {
        let t0 = self.recorder.now_ns();
        let live = self.inner.version_of(key)?;
        self.span(SpanKind::Revalidate, t0, live);
        let mut s = self.state.lock();
        if live == expected && live >= s.floor(key) {
            if let Some(e) = s.entries.peek_mut(key) {
                if e.version == expected {
                    e.expires_at = self.recorder.clock().now() + LEASE;
                    e.epoch = self.inner.routing_epoch();
                    if let Some(out) = read(e) {
                        s.entries.touch(key);
                        self.counters.revalidations.inc();
                        self.counters.hits.inc();
                        note_touch(key);
                        return Ok(Some((out, expected)));
                    }
                }
            }
        }
        // Stale (or raced past): drop the snapshot we probed for, but never
        // a newer one a concurrent write-through just installed.
        if s.entries.peek(key).is_some_and(|e| e.version == expected) && live != expected {
            s.remove(key);
            self.counters.invalidations.inc();
        }
        Ok(None)
    }

    /// Shared read skeleton: locked lookup, optional revalidation, then a
    /// miss fetch + fill. `lookup` inspects a valid entry and either serves
    /// it or declines (forcing a miss without dropping the entry — e.g. a
    /// runs-only entry cannot serve a full-value get); `fetch` does the
    /// wire read; `fill` builds the cached bytes from a successful fetch.
    fn read<T: Clone>(
        &self,
        key: &str,
        lookup: impl Fn(&Entry) -> Option<T>,
        fetch: impl FnOnce() -> Result<(Option<T>, u64), KvError>,
        fill: impl FnOnce(&T) -> Option<CachedBytes>,
    ) -> Result<(Option<T>, u64), KvError> {
        if self.strong() {
            return fetch();
        }
        let t0 = self.recorder.now_ns();
        let decision: Lookup<T> = {
            let mut s = self.state.lock();
            match s.entries.peek(key) {
                Some(e) => match self.entry_state(&s, key, e) {
                    Some(true) => match lookup(e) {
                        Some(out) => {
                            let version = e.version;
                            s.entries.touch(key);
                            Lookup::Hit(out, version)
                        }
                        None => Lookup::Miss,
                    },
                    Some(false) => {
                        if lookup(e).is_some() {
                            Lookup::Revalidate(e.version)
                        } else {
                            Lookup::Miss
                        }
                    }
                    None => {
                        s.remove(key);
                        self.counters.invalidations.inc();
                        Lookup::Miss
                    }
                },
                None => Lookup::Miss,
            }
        };

        match decision {
            Lookup::Hit(out, version) => {
                self.counters.hits.inc();
                note_touch(key);
                self.span(SpanKind::CacheHit, t0, 0);
                return Ok((Some(out), version));
            }
            Lookup::Revalidate(expected) => {
                if let Some((out, version)) = self.revalidate(key, expected, |e| lookup(e))? {
                    return Ok((Some(out), version));
                }
            }
            Lookup::Miss => {}
        }

        // Miss: capture the epoch *before* the round-trip so a reshard that
        // lands mid-flight leaves the snapshot stamped with the older epoch
        // (forcing revalidation) instead of masking it.
        let epoch = self.inner.routing_epoch();
        let (value, version) = fetch()?;
        self.counters.misses.inc();
        let mut s = self.state.lock();
        match &value {
            Some(v) => {
                if self.cfg.default_consistency == Consistency::Eventual || version >= s.floor(key)
                {
                    if let Some(data) = fill(v) {
                        self.install(&mut s, key, version, epoch, data);
                    }
                }
            }
            None => {
                // The key is gone at `version`; drop any older snapshot.
                if s.entries.peek(key).is_some_and(|e| e.version < version) {
                    s.remove(key);
                    self.counters.invalidations.inc();
                }
            }
        }
        drop(s);
        self.span(SpanKind::CacheMiss, t0, version);
        Ok((value, version))
    }

    /// Slice the requested spans out of a cached entry, or `None` when the
    /// entry cannot serve them all (runs coverage gap, or a full-get against
    /// a runs-only entry handled by the caller).
    fn slice_spans(e: &Entry, spans: &[(u64, u64)]) -> Option<Vec<Vec<u8>>> {
        match &e.data {
            CachedBytes::Full(v) => Some(
                spans
                    .iter()
                    .map(|&(off, len)| slice_range(v, off, len))
                    .collect(),
            ),
            CachedBytes::Runs(runs) => {
                let mut out = Vec::with_capacity(spans.len());
                for &(off, len) in spans {
                    let (&roff, run) = runs.range(..=off).next_back()?;
                    let end = off.checked_add(len)?;
                    if end > roff + run.len() as u64 {
                        return None;
                    }
                    let start = (off - roff) as usize;
                    out.push(run[start..start + len as usize].to_vec());
                }
                Some(out)
            }
        }
    }

    /// Write-through bookkeeping after a mutation acked at `version`:
    /// raise the own-ack floor and update/replace the snapshot with
    /// `update`'s result (`None` drops it).
    fn after_write(
        &self,
        key: &str,
        version: u64,
        update: impl FnOnce(Option<&Entry>) -> Option<CachedBytes>,
    ) {
        let mut s = self.state.lock();
        s.raise_floor(key, version);
        if self.strong() {
            if s.remove(key) {
                self.counters.invalidations.inc();
            }
            return;
        }
        let epoch = self.inner.routing_epoch();
        // An empty run set carries no servable bytes — treat it as a drop
        // (a Full empty value stays cacheable: empty values exist).
        let updated = update(s.entries.peek(key))
            .filter(|d| !matches!(d, CachedBytes::Runs(r) if r.is_empty()));
        let installed = updated.is_some_and(|data| self.install(&mut s, key, version, epoch, data));
        if !installed && s.remove(key) {
            self.counters.invalidations.inc();
        }
        drop(s);
        self.span(SpanKind::CacheInvalidate, self.recorder.now_ns(), version);
    }

    /// Record a span of `kind` from `start_ns` to now under the calling
    /// thread's trace context.
    fn span(&self, kind: SpanKind, start_ns: u64, extra: u64) {
        self.recorder
            .span(kind, faasm_telemetry::current(), start_ns, extra);
    }

    /// Whether this cache is `Strong`: nothing is served from, or kept in,
    /// the cache.
    fn strong(&self) -> bool {
        self.cfg.default_consistency == Consistency::Strong
    }

    /// Drop any leased snapshot of `key` without touching its floor.
    /// Acquiring a distributed lock rides through here: reads inside a
    /// critical section must observe the tier, not a lease — taking the
    /// lock promotes the key to strong consistency for the section's first
    /// read (the refetched snapshot is then safe to serve while the lock
    /// is held).
    fn drop_snapshot(&self, key: &str) {
        let mut s = self.state.lock();
        if s.remove(key) {
            self.counters.invalidations.inc();
        }
    }
}

/// Overlay `data` at `offset` onto a full value, zero-extending — the
/// store's `set_range` semantics, applied to a cached snapshot.
fn apply_range(v: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let offset = offset as usize;
    if v.len() < offset + data.len() {
        v.resize(offset + data.len(), 0);
    }
    v[offset..offset + data.len()].copy_from_slice(data);
}

/// Merge a byte run into a runs map, coalescing every overlapping or
/// adjacent run into one contiguous run (all runs in an entry were read or
/// written at the entry's version, so overlapping bytes agree).
fn merge_run(runs: &mut BTreeMap<u64, Vec<u8>>, off: u64, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    let mut start = off;
    let mut end = off + data.len() as u64;
    let overlapping: Vec<u64> = runs
        .range(..=end)
        .filter(|&(&roff, run)| roff + run.len() as u64 >= start)
        .map(|(&roff, _)| roff)
        .collect();
    for roff in &overlapping {
        start = start.min(*roff);
        end = end.max(roff + runs[roff].len() as u64);
    }
    let mut combined = vec![0u8; (end - start) as usize];
    for roff in overlapping {
        let run = runs.remove(&roff).expect("run offset just seen");
        let at = (roff - start) as usize;
        combined[at..at + run.len()].copy_from_slice(&run);
    }
    let at = (off - start) as usize;
    combined[at..at + data.len()].copy_from_slice(data);
    runs.insert(start, combined);
}

impl KvBackend for CachedKv {
    /// Keyed requests the cache has no behaviour for ride straight to the
    /// wrapped backend; the ops it caches or invalidates on are overridden
    /// below, each in its versioned form only.
    fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
        self.inner.call(req)
    }

    fn lock_owner(&self) -> u64 {
        self.inner.lock_owner()
    }

    fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    fn get_versioned(&self, key: &str) -> Result<(Option<Vec<u8>>, u64), KvError> {
        self.read(
            key,
            |e| match &e.data {
                CachedBytes::Full(v) => Some(v.clone()),
                // A runs-only snapshot cannot prove it covers the whole
                // value; fall through to a miss (which upgrades it to Full).
                CachedBytes::Runs(_) => None,
            },
            || self.inner.get_versioned(key),
            |v| Some(CachedBytes::Full(v.clone())),
        )
    }

    fn set_versioned(&self, key: &str, value: Vec<u8>) -> Result<u64, KvError> {
        let cached = if self.strong() {
            Vec::new()
        } else {
            value.clone()
        };
        let version = self.inner.set_versioned(key, value)?;
        self.after_write(key, version, |_| Some(CachedBytes::Full(cached)));
        Ok(version)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Option<Vec<u8>>, KvError> {
        let (runs, _) = self.multi_get_range_versioned(key, &[(offset, len)])?;
        Ok(runs.map(|mut r| r.remove(0)))
    }

    fn set_range_versioned(&self, key: &str, offset: u64, data: Vec<u8>) -> Result<u64, KvError> {
        let cached = if self.strong() {
            Vec::new()
        } else {
            data.clone()
        };
        let version = self.inner.set_range_versioned(key, offset, data)?;
        self.after_write(key, version, |existing| match existing {
            // No writer slipped in between our snapshot and our ack: the
            // snapshot plus this write is exactly the value at `version`.
            Some(e) if e.version + 1 == version => match &e.data {
                CachedBytes::Full(v) => {
                    let mut v = v.clone();
                    apply_range(&mut v, offset, &cached);
                    Some(CachedBytes::Full(v))
                }
                CachedBytes::Runs(runs) => {
                    let mut runs = runs.clone();
                    merge_run(&mut runs, offset, &cached);
                    Some(CachedBytes::Runs(runs))
                }
            },
            // Intervening writers may have changed other ranges: only the
            // bytes this write installed are known at `version`.
            _ => {
                let mut runs = BTreeMap::new();
                merge_run(&mut runs, offset, &cached);
                Some(CachedBytes::Runs(runs))
            }
        });
        Ok(version)
    }

    fn multi_get_range_versioned(
        &self,
        key: &str,
        spans: &[(u64, u64)],
    ) -> Result<(Option<Vec<Vec<u8>>>, u64), KvError> {
        self.read(
            key,
            |e| CachedKv::slice_spans(e, spans),
            || self.inner.multi_get_range_versioned(key, spans),
            |runs| {
                let mut map = BTreeMap::new();
                for (&(off, _), bytes) in spans.iter().zip(runs.iter()) {
                    merge_run(&mut map, off, bytes);
                }
                Some(CachedBytes::Runs(map))
            },
        )
    }

    fn multi_set_range_versioned(&self, key: &str, writes: RangeWrites) -> Result<u64, KvError> {
        let cached = if self.strong() {
            RangeWrites::new()
        } else {
            writes.clone()
        };
        let version = self.inner.multi_set_range_versioned(key, writes)?;
        self.after_write(key, version, |existing| match existing {
            Some(e) if e.version + 1 == version => match &e.data {
                CachedBytes::Full(v) => {
                    let mut v = v.clone();
                    for (off, data) in cached.iter() {
                        apply_range(&mut v, off, data);
                    }
                    Some(CachedBytes::Full(v))
                }
                CachedBytes::Runs(runs) => {
                    let mut runs = runs.clone();
                    for (off, data) in cached.iter() {
                        merge_run(&mut runs, off, data);
                    }
                    Some(CachedBytes::Runs(runs))
                }
            },
            _ => {
                let mut runs = BTreeMap::new();
                for (off, data) in cached.iter() {
                    merge_run(&mut runs, off, data);
                }
                Some(CachedBytes::Runs(runs))
            }
        });
        Ok(version)
    }

    fn append_versioned(&self, key: &str, data: Vec<u8>) -> Result<(u64, u64), KvError> {
        let (len, version) = self.inner.append_versioned(key, data)?;
        self.after_write(key, version, |_| None);
        Ok((len, version))
    }

    fn del_versioned(&self, key: &str) -> Result<(bool, u64), KvError> {
        let (existed, version) = self.inner.del_versioned(key)?;
        self.after_write(key, version, |_| None);
        Ok((existed, version))
    }

    fn incr_versioned(&self, key: &str, delta: i64) -> Result<(i64, u64), KvError> {
        // Counters share the value namespace on the shard: the mutation
        // changes the key's bytes, so drop any snapshot.
        let (value, version) = self.inner.incr_versioned(key, delta)?;
        self.after_write(key, version, |_| None);
        Ok((value, version))
    }

    fn try_lock(&self, key: &str, mode: LockMode) -> Result<bool, KvError> {
        let held = self.inner.try_lock(key, mode)?;
        if held {
            self.drop_snapshot(key);
        }
        Ok(held)
    }

    fn ping(&self) -> Result<(), KvError> {
        self.inner.ping()
    }

    fn flush(&self) -> Result<(), KvError> {
        self.inner.flush()?;
        // The store clears its version counters too; reset the floors so a
        // flushed tier starts from a clean slate.
        let mut s = self.state.lock();
        let dropped = s.entries.len() as u64;
        s.entries.clear();
        s.last_acked.clear();
        self.counters.invalidations.add(dropped);
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        self.inner.shard_stats()
    }

    fn routing_epoch(&self) -> u64 {
        self.inner.routing_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::LocalKv;

    /// A cache over a `LocalKv`, whose clock is manual: a lease runs out
    /// only when a test advances it.
    fn harness(cfg: CacheConfig) -> (Arc<LocalKv>, CachedKv) {
        let local = Arc::new(LocalKv::new());
        let cache = CachedKv::new(local.clone() as SharedKv, cfg);
        (local, cache)
    }

    #[test]
    fn repeated_reads_hit_without_wire_traffic() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", b"hello".to_vec()).unwrap();
        assert_eq!(local.wire_reads(), 0);
        for _ in 0..10 {
            assert_eq!(cache.get("k").unwrap(), Some(b"hello".to_vec()));
        }
        // Write-through populated the cache; no read ever hit the wire.
        assert_eq!(local.wire_reads(), 0);
        let st = cache.stats();
        assert_eq!(st.hits, 10);
        assert_eq!(st.misses, 0);
    }

    #[test]
    fn read_your_writes_after_external_write() {
        let (local, cache) = harness(CacheConfig::default());
        local.set("k", b"v1".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"v1".to_vec()));
        // Another host writes directly to the tier: this instance's cache
        // still serves the lease (eventual-within-lease is by design)...
        local.set("k", b"v2".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"v1".to_vec()));
        // ...but this instance's OWN write must never be shadowed.
        cache.set("k", b"v3".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn own_ack_floor_rejects_stale_refill() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", b"mine".to_vec()).unwrap();
        let acked = local.store.version_of("k");
        // Simulate a racing reader refilling the cache with pre-write bytes
        // observed at an older version.
        cache.clear();
        {
            let mut s = cache.state.lock();
            s.upsert(
                "k",
                Entry {
                    version: acked - 1,
                    epoch: local.routing_epoch(),
                    expires_at: local.recorder().clock().now() + LEASE,
                    data: CachedBytes::Full(b"stale".to_vec()),
                },
            );
        }
        // The floor check drops the stale snapshot and refetches.
        assert_eq!(cache.get("k").unwrap(), Some(b"mine".to_vec()));
        assert!(cache.stats().invalidations >= 1);
    }

    #[test]
    fn epoch_bump_forces_revalidation() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", b"v1".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"v1".to_vec()));
        let probes_before = cache.stats().revalidations;

        // Reshard/failover bumps the epoch; the version is unchanged, so a
        // probe re-stamps the snapshot without refetching the bytes.
        local.bump_epoch();
        assert_eq!(cache.get("k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(cache.stats().revalidations, probes_before + 1);
        assert_eq!(local.wire_reads(), 0);

        // Epoch bump WITH a concurrent external write: the probe sees a
        // newer version, drops the snapshot, and the read refetches.
        local.set("k", b"v2".to_vec()).unwrap();
        local.bump_epoch();
        assert_eq!(cache.get("k").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(local.wire_reads(), 1);
    }

    #[test]
    fn taking_a_lock_drops_the_lease() {
        // Lock-protected read-modify-write must observe the tier: another
        // writer updated the key, and the critical section's read after
        // acquiring the write lock may not serve the pre-lock lease.
        let (local, cache) = harness(CacheConfig::default());
        local.set("k", b"old".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"old".to_vec()));
        local.set("k", b"new".to_vec()).unwrap();
        // Still leased — eventual-within-lease is legal outside a lock.
        assert_eq!(cache.get("k").unwrap(), Some(b"old".to_vec()));
        assert!(cache.try_lock("k", LockMode::Write).unwrap());
        assert_eq!(
            cache.get("k").unwrap(),
            Some(b"new".to_vec()),
            "a read under the lock must see the tier"
        );
        cache.unlock("k", LockMode::Write).unwrap();
        // Blocking acquisition drops the snapshot the same way.
        local.set("k", b"newer".to_vec()).unwrap();
        cache.lock("k", LockMode::Write).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"newer".to_vec()));
        cache.unlock("k", LockMode::Write).unwrap();
    }

    #[test]
    fn lease_expiry_revalidates() {
        let (local, cache) = harness(CacheConfig::default());
        local.set("k", b"v".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"v".to_vec()));
        // Every subsequent read finds the lease expired and revalidates —
        // version unchanged, so the bytes never re-cross the wire.
        for _ in 0..3 {
            local.recorder().clock().advance(LEASE);
            assert_eq!(cache.get("k").unwrap(), Some(b"v".to_vec()));
        }
        assert_eq!(local.wire_reads(), 1);
        assert_eq!(cache.stats().revalidations, 3);
    }

    #[test]
    fn eventual_serves_lease_strong_bypasses() {
        let local = Arc::new(LocalKv::new());
        let with = |mode| {
            let cfg = CacheConfig {
                default_consistency: mode,
                ..CacheConfig::default()
            };
            CachedKv::new(local.clone() as SharedKv, cfg)
        };
        let (eventual, strong) = (with(Consistency::Eventual), with(Consistency::Strong));

        local.set("e", b"e1".to_vec()).unwrap();
        assert_eq!(eventual.get("e").unwrap(), Some(b"e1".to_vec()));
        local.set("e", b"e2".to_vec()).unwrap();
        local.bump_epoch(); // Eventual ignores epochs within the lease.
        assert_eq!(eventual.get("e").unwrap(), Some(b"e1".to_vec()));

        local.set("s", b"s1".to_vec()).unwrap();
        let before = local.wire_reads();
        assert_eq!(strong.get("s").unwrap(), Some(b"s1".to_vec()));
        assert_eq!(strong.get("s").unwrap(), Some(b"s1".to_vec()));
        // Strong never serves from cache: every read hit the wire.
        assert_eq!(local.wire_reads(), before + 2);
        assert_eq!(eventual.stats().hits + strong.stats().hits, 1); // only the leased "e" hit
                                                                    // Past the lease, Eventual sees the newer write.
        local.recorder().clock().advance(LEASE);
        assert_eq!(eventual.get("e").unwrap(), Some(b"e2".to_vec()));
    }

    #[test]
    fn range_reads_cache_runs_and_serve_subspans() {
        let (local, cache) = harness(CacheConfig::default());
        local.set("k", (0u8..=255).collect()).unwrap();
        let spans = [(0u64, 64u64), (128, 64)];
        let runs = cache.multi_get_range("k", &spans).unwrap().unwrap();
        assert_eq!(runs[0], (0u8..64).collect::<Vec<u8>>());
        assert_eq!(runs[1], (128u8..192).collect::<Vec<u8>>());
        let before = local.wire_reads();
        // Sub-spans of cached runs are served locally...
        assert_eq!(
            cache.get_range("k", 10, 20).unwrap(),
            Some((10u8..30).collect::<Vec<u8>>())
        );
        assert_eq!(
            cache.get_range("k", 140, 8).unwrap(),
            Some((140u8..148).collect::<Vec<u8>>())
        );
        assert_eq!(local.wire_reads(), before);
        // ...an uncovered span goes to the wire.
        assert_eq!(
            cache.get_range("k", 64, 8).unwrap(),
            Some((64u8..72).collect::<Vec<u8>>())
        );
        assert_eq!(local.wire_reads(), before + 1);
    }

    #[test]
    fn range_write_through_keeps_full_snapshot_current() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", vec![0u8; 16]).unwrap();
        cache.set_range("k", 4, vec![9u8; 4]).unwrap();
        let mut want = vec![0u8; 16];
        want[4..8].copy_from_slice(&[9; 4]);
        assert_eq!(cache.get("k").unwrap(), Some(want.clone()));
        assert_eq!(local.wire_reads(), 0);
        // And the cached snapshot matches the authoritative value exactly.
        assert_eq!(local.store.get("k"), Some(want));
    }

    #[test]
    fn intervening_writer_downgrades_snapshot_to_runs() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", vec![0u8; 16]).unwrap(); // cached Full at v1
        local.store.set_range("k", 0, &[7u8; 4]); // external write → v2
        cache.set_range("k", 8, vec![9u8; 4]).unwrap(); // acked v3 ≠ v1+1
                                                        // The cache must not serve a full value stitched from v1 bytes.
        let full = cache.get("k").unwrap().unwrap();
        assert_eq!(full, local.store.get("k").unwrap());
        // But the bytes this instance just wrote were servable locally.
        assert_eq!(cache.get_range("k", 8, 4).unwrap(), Some(vec![9u8; 4]));
    }

    #[test]
    fn delete_invalidates_and_floor_survives() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("k", b"v".to_vec()).unwrap();
        assert!(cache.del("k").unwrap());
        assert_eq!(cache.get("k").unwrap(), None);
        // Recreation through the tier is visible (version monotone past the
        // deletion's floor).
        local.set("k", b"back".to_vec()).unwrap();
        assert_eq!(cache.get("k").unwrap(), Some(b"back".to_vec()));
    }

    #[test]
    fn append_and_incr_floor_on_their_own_ack_in_one_request() {
        let (local, cache) = harness(CacheConfig::default());
        cache.set("log", b"ab".to_vec()).unwrap();
        let before = local.requests();
        assert_eq!(cache.append("log", b"cd".to_vec()).unwrap(), 4);
        assert_eq!(local.requests(), before + 1, "no follow-up version probe");
        assert_eq!(cache.incr("n", 5).unwrap(), 5);
        assert_eq!(local.requests(), before + 2, "no follow-up version probe");
        // The floor is the version the store installed for each write,
        // read off the write's own ack.
        let s = cache.state.lock();
        assert_eq!(s.floor("log"), local.store.version_of("log"));
        assert_eq!(s.floor("n"), local.store.version_of("n"));
        assert!(
            s.entries.peek("log").is_none(),
            "an append drops the snapshot"
        );
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let cfg = CacheConfig {
            max_bytes: 3 * (1 + 1024 + ENTRY_OVERHEAD),
            ..CacheConfig::default()
        };
        let (local, cache) = harness(cfg);
        for k in ["a", "b", "c", "d"] {
            local.set(k, vec![1u8; 1024]).unwrap();
        }
        for k in ["a", "b", "c"] {
            cache.get(k).unwrap();
        }
        cache.get("a").unwrap(); // refresh "a": "b" is now oldest
        cache.get("d").unwrap(); // over budget → evict "b"
        assert_eq!(cache.cached_entries(), 3);
        assert_eq!(cache.stats().evictions, 1);
        let before = local.wire_reads();
        cache.get("a").unwrap();
        cache.get("c").unwrap();
        cache.get("d").unwrap();
        assert_eq!(local.wire_reads(), before); // survivors still cached
        cache.get("b").unwrap();
        assert_eq!(local.wire_reads(), before + 1); // "b" was evicted
    }

    #[test]
    fn merging_runs_read_at_one_version_keeps_the_byte_account_exact() {
        let (local, cache) = harness(CacheConfig::default());
        local.set("k", vec![7u8; 4096]).unwrap();
        cache.multi_get_range("k", &[(0, 1024)]).unwrap();
        let one_run = cache.cached_bytes();
        // A second range at the same version misses and merges into the
        // first: the snapshot grows by exactly the new run.
        cache.multi_get_range("k", &[(2048, 1024)]).unwrap();
        assert_eq!(cache.cached_entries(), 1);
        assert_eq!(cache.cached_bytes(), one_run + 1024);
    }

    #[test]
    fn oversized_values_are_never_cached() {
        let cfg = CacheConfig {
            max_bytes: 512,
            ..CacheConfig::default()
        };
        let (local, cache) = harness(cfg);
        cache.set("big", vec![1u8; 4096]).unwrap();
        assert_eq!(cache.cached_entries(), 0);
        assert_eq!(cache.get("big").unwrap(), Some(vec![1u8; 4096]));
        assert_eq!(cache.cached_entries(), 0);
        assert_eq!(local.wire_reads(), 1);
    }

    #[test]
    fn touch_scope_attributes_hits_per_call() {
        let (local, cache) = harness(CacheConfig::default());
        local.set("a", b"x".to_vec()).unwrap();
        local.set("b", b"y".to_vec()).unwrap();
        cache.get("a").unwrap(); // misses outside any scope
        cache.get("b").unwrap();
        let scope = touch_scope();
        for _ in 0..3 {
            cache.get("a").unwrap();
        }
        cache.get("b").unwrap();
        let touched = scope.finish();
        assert_eq!(touched, vec![("a".to_string(), 3), ("b".to_string(), 1)]);
        // Outside a scope, hits are not collected anywhere.
        cache.get("a").unwrap();
        assert!(touch_scope().finish().is_empty());
    }

    #[test]
    fn merge_run_coalesces_overlaps() {
        let mut runs = BTreeMap::new();
        merge_run(&mut runs, 0, &[1, 1, 1, 1]);
        merge_run(&mut runs, 8, &[3, 3, 3, 3]);
        assert_eq!(runs.len(), 2);
        // Bridge the gap: all three coalesce into one run.
        merge_run(&mut runs, 2, &[2; 8]);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs.get(&0).unwrap(),
            &vec![1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3]
        );
    }
}
