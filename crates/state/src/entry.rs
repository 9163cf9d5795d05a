//! A single state value in the two-tier architecture (§4.2).
//!
//! A [`StateEntry`] is one key's **local-tier replica**: a shared memory
//! region (mapped zero-copy into every Faaslet on the host that uses the
//! key), a chunk table tracking which parts of the authoritative global
//! value are present locally and which local writes are dirty, plus the
//! local read/write lock. Pulls fetch only missing chunks; pushes send only
//! dirty chunks — the mechanism behind Listing 1's sparse matrix access and
//! batched weight updates.
//!
//! Failover transparency: batched pulls and pushes go through the shared
//! [`SharedKv`] backend, whose cell-connected sharded client parks and
//! retries on `WrongEpoch`/`NotPrimary` redirects and on the network
//! errors of a crashed primary. A push in flight when a shard dies simply
//! waits out the failover blackout and lands on the promoted backup — no
//! code here knows replication exists.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use faasm_kvs::{RangeWrites, SharedKv};
use faasm_mem::SharedRegion;
use faasm_telemetry::SpanKind;
use parking_lot::Mutex;

use crate::error::StateError;
use crate::rwlock::SyncRwLock;

/// Run one global-tier round trip on `kv` under its own child span,
/// recorded into `kv`'s recorder. The span's context is installed as the
/// thread-local current for the duration, so KVS requests encoded inside
/// `f` carry it — the shard's `ShardApply` span (and any `WrongEpochRetry`
/// park) nests under this pull/push span in the trace tree. Untraced
/// callers pay one thread-local read.
pub(crate) fn state_span<T>(kv: &SharedKv, kind: SpanKind, extra: u64, f: impl FnOnce() -> T) -> T {
    let parent = faasm_telemetry::current();
    if parent.is_none() {
        return f();
    }
    let recorder = kv.recorder();
    let ctx = recorder.child(parent);
    let start_ns = recorder.now_ns();
    let out = {
        let _tracing = faasm_telemetry::set_current(ctx);
        f()
    };
    recorder.close(kind, ctx, parent.span_id, start_ns, extra);
    out
}

/// Default chunk size: 16 KiB balances pull granularity against per-request
/// overhead (the paper treats chunks as "smaller independent state values").
pub const DEFAULT_CHUNK_SIZE: usize = 16 * 1024;

/// One bit per chunk, 64 chunks to an atomic word. Every access is
/// `SeqCst`: the bits order region bytes between threads (a reconcile's
/// fetched bytes behind `present`, a write's store ahead of `dirty`), and
/// the write/push protocol below reasons in one total order.
#[derive(Debug)]
struct ChunkBits(Box<[AtomicU64]>);

impl ChunkBits {
    fn new(chunks: usize) -> ChunkBits {
        ChunkBits(
            (0..chunks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        )
    }

    fn get(&self, idx: usize) -> bool {
        self.0[idx / 64].load(SeqCst) & (1 << (idx % 64)) != 0
    }

    /// Set one bit. A bit that already reads set is left alone: the hot
    /// callers re-mark bits that are nearly always set, and a load shares
    /// the cache line where a read-modify-write would take it.
    fn set(&self, idx: usize) {
        if !self.get(idx) {
            self.0[idx / 64].fetch_or(1 << (idx % 64), SeqCst);
        }
    }

    /// Clear one bit (likewise only if it reads set); returns whether this
    /// call cleared it.
    fn clear(&self, idx: usize) -> bool {
        let bit = 1 << (idx % 64);
        self.get(idx) && self.0[idx / 64].fetch_and(!bit, SeqCst) & bit != 0
    }

    fn clear_all(&self) {
        self.0.iter().for_each(|w| w.store(0, SeqCst));
    }

    /// Clear every set bit, a word per atomic swap; returns the indices
    /// that were set, ascending.
    fn take_all(&self) -> Vec<usize> {
        let mut taken = Vec::new();
        for (w, word) in self.0.iter().enumerate() {
            if word.load(SeqCst) != 0 {
                let bits = word.swap(0, SeqCst);
                taken.extend((0..64).filter(|b| bits >> b & 1 != 0).map(|b| w * 64 + b));
            }
        }
        taken
    }

    fn count(&self) -> usize {
        self.0
            .iter()
            .map(|w| w.load(SeqCst).count_ones() as usize)
            .sum()
    }
}

/// One state key's local replica plus its synchronisation state.
pub struct StateEntry {
    key: String,
    region: SharedRegion,
    size: usize,
    chunk_size: usize,
    n_chunks: usize,
    /// Chunks whose region bytes are at least as new as the global value
    /// was when they were fetched or written. Set only under
    /// `transition`; a warm access only loads it.
    present: ChunkBits,
    /// Chunks holding local writes not yet pushed.
    dirty: ChunkBits,
    /// Serialises absent→present transitions (a pull's reconcile, a
    /// write's claim, `push_full`) with each other and with `invalidate`,
    /// so a reconcile's "still absent?" check and its region write are one
    /// step against a claiming write. Nothing that finds its chunks
    /// present takes it.
    transition: Mutex<()>,
    /// The key's local lock: the implicit lock of [`StateEntry::read`] /
    /// [`StateEntry::write`] and the explicit one of `lock_state_*`.
    local_lock: Arc<SyncRwLock>,
    kv: SharedKv,
}

impl std::fmt::Debug for StateEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateEntry")
            .field("key", &self.key)
            .field("size", &self.size)
            .field("chunk_size", &self.chunk_size)
            .finish()
    }
}

impl StateEntry {
    /// Create a replica of `key` with value size `size`, backed by `region`
    /// (which must have capacity for `size` bytes).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::CapacityExceeded`] if the region is too small.
    pub fn new(
        key: &str,
        size: usize,
        region: SharedRegion,
        kv: SharedKv,
        chunk_size: usize,
    ) -> Result<StateEntry, StateError> {
        if size > region.capacity() {
            return Err(StateError::CapacityExceeded {
                requested: size,
                capacity: region.capacity(),
            });
        }
        let n_chunks = size.div_ceil(chunk_size).max(1);
        Ok(StateEntry {
            key: key.to_string(),
            region,
            size,
            chunk_size,
            n_chunks,
            present: ChunkBits::new(n_chunks),
            dirty: ChunkBits::new(n_chunks),
            transition: Mutex::new(()),
            local_lock: Arc::default(),
            kv,
        })
    }

    /// This replica, excluded by `lock` (its key's lock on the host)
    /// instead of a lock of its own.
    pub(crate) fn sharing_lock(mut self, lock: Arc<SyncRwLock>) -> StateEntry {
        self.local_lock = lock;
        self
    }

    /// The state key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The value size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The backing shared region — mapped into Faaslet linear memories for
    /// zero-copy access (§3.3). A mapped load or store is word-atomic and
    /// takes no lock (explicit locks, or HOGWILD-style races); a reader
    /// calls [`StateEntry::pull_range`] and a writer [`StateEntry::claim_range`]
    /// first. Mapped stores set no dirty bit: only [`StateEntry::push_full`]
    /// or [`StateEntry::push_ranges`] publishes them.
    pub fn region(&self) -> &SharedRegion {
        &self.region
    }

    /// Number of chunks currently present in the local tier.
    pub fn present_chunks(&self) -> usize {
        self.present.count()
    }

    /// Number of chunks dirtied by local writes since the last push.
    pub fn dirty_chunks(&self) -> usize {
        self.dirty.count()
    }

    fn check_range(&self, offset: usize, len: usize) -> Result<(), StateError> {
        if offset.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(StateError::OutOfRange {
                offset,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    fn chunk_span(&self, offset: usize, len: usize) -> (usize, usize) {
        // An empty range at the very end names the last chunk, not one past.
        let first = (offset / self.chunk_size).min(self.n_chunks - 1);
        let last = if len == 0 {
            first
        } else {
            (offset + len - 1) / self.chunk_size
        };
        (first, last)
    }

    fn chunk_bounds(&self, idx: usize) -> (usize, usize) {
        let start = idx * self.chunk_size;
        let end = ((idx + 1) * self.chunk_size).min(self.size);
        (start, end)
    }

    /// Coalesce sorted chunk indices into contiguous `(offset, len)` byte
    /// spans (adjacent chunks merge into one wire span).
    fn coalesce(&self, chunks: &[usize]) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for &idx in chunks {
            let (start, end) = self.chunk_bounds(idx);
            match spans.last_mut() {
                Some((offset, len)) if *offset + *len == start => *len = end - *offset,
                _ => spans.push((start, end - start)),
            }
        }
        spans
    }

    /// Fetch any chunks in `offset..offset+len` missing from the local
    /// replica ("the DDO implicitly performs a pull operation to ensure that
    /// data is present... only replicates the necessary subsets", §4.1).
    ///
    /// Missing chunks are coalesced into contiguous spans and fetched with
    /// **one** batched round-trip; no lock is held while the request is on
    /// the wire, so concurrent operations on other chunks of this key
    /// proceed at memory speed. A range already present costs one atomic
    /// load per chunk and nothing else.
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn pull_range(&self, offset: usize, len: usize) -> Result<(), StateError> {
        self.check_range(offset, len)?;
        let (first, last) = self.chunk_span(offset, len);
        if (first..=last).all(|i| self.present.get(i)) {
            return Ok(());
        }
        self.pull_missing(first, last)
    }

    /// The slow half of [`StateEntry::pull_range`]: fetch the absent chunks
    /// of `first..=last` and reconcile them into the region.
    #[inline(never)]
    fn pull_missing(&self, first: usize, last: usize) -> Result<(), StateError> {
        let missing: Vec<usize> = (first..=last).filter(|&i| !self.present.get(i)).collect();
        if missing.is_empty() {
            return Ok(());
        }
        let spans = self.coalesce(&missing);
        let wire_spans: Vec<(u64, u64)> = spans
            .iter()
            .map(|&(offset, len)| (offset as u64, len as u64))
            .collect();
        let pulled_bytes: u64 = wire_spans.iter().map(|&(_, len)| len).sum();
        let fetched = state_span(&self.kv, SpanKind::StatePull, pulled_bytes, || {
            self.kv.multi_get_range(&self.key, &wire_spans)
        })?;
        // Reconcile under the lock: a chunk that became present meanwhile
        // (a concurrent write dirtied it, or another pull landed first)
        // keeps its local bytes — global data fetched before the race
        // resolved must not clobber it.
        let _transition = self.transition.lock();
        match fetched {
            Some(runs) => {
                for (&(span_start, span_len), run) in spans.iter().zip(&runs) {
                    let span_end = span_start + span_len;
                    let mut idx = span_start / self.chunk_size;
                    loop {
                        let (start, end) = self.chunk_bounds(idx);
                        if start >= span_end {
                            break;
                        }
                        if !self.present.get(idx) {
                            // The run may be truncated if the global value
                            // is shorter than the span.
                            let have = run.len().saturating_sub(start - span_start);
                            let take = have.min(end - start);
                            if take > 0 {
                                let rel = start - span_start;
                                self.region.write(start, &run[rel..rel + take])?;
                            }
                            self.present.set(idx);
                        }
                        idx += 1;
                    }
                }
            }
            // Key absent globally: the zeroed region is authoritative.
            None => missing.iter().for_each(|&i| self.present.set(i)),
        }
        Ok(())
    }

    /// Pull the entire value (`pull_state`, Tab. 2).
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn pull(&self) -> Result<(), StateError> {
        self.pull_range(0, self.size)
    }

    /// Push dirty chunks to the global tier (`push_state`); clears dirty
    /// bits. Adjacent dirty chunks coalesce into contiguous spans sent in
    /// **one** batched round-trip, with no table lock held on the wire.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn push(&self) -> Result<(), StateError> {
        // Claim the dirty set up front (bits clear now): a write racing
        // this push re-dirties its chunk and is owed the *next* push —
        // clearing after the send would silently absorb it into this one.
        // On error the claimed bits are restored so no write is lost.
        let dirty = self.dirty.take_all();
        if dirty.is_empty() {
            return Ok(());
        }
        let result = self.send_ranges(&self.coalesce(&dirty));
        if result.is_err() {
            dirty.iter().for_each(|&i| self.dirty.set(i));
        }
        result
    }

    /// Read each `(offset, len)` range of the region straight into one
    /// flat batch and send it in a single round-trip.
    fn send_ranges(&self, ranges: &[(usize, usize)]) -> Result<(), StateError> {
        let bytes: usize = ranges.iter().map(|&(_, len)| len).sum();
        let mut writes = RangeWrites::with_capacity(ranges.len(), bytes);
        for &(offset, len) in ranges {
            writes.push_with(offset as u64, len, |buf| self.region.read(offset, buf))?;
        }
        state_span(&self.kv, SpanKind::StatePush, bytes as u64, || {
            self.kv.multi_set_range(&self.key, writes)
        })?;
        Ok(())
    }

    /// Push the entire value regardless of dirty state (`push_state`,
    /// Tab. 2). Guests that write through a mapped pointer bypass dirty
    /// tracking (§4.2 notes pointer writes skip the implicit machinery), so
    /// the whole-value push is the safe host-interface semantics. Marks all
    /// chunks present and clean.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn push_full(&self) -> Result<(), StateError> {
        let mut buf = vec![0u8; self.size];
        self.region.read(0, &mut buf)?;
        state_span(&self.kv, SpanKind::StatePush, self.size as u64, || {
            self.kv.set(&self.key, buf)
        })?;
        let _transition = self.transition.lock();
        (0..self.n_chunks).for_each(|i| self.present.set(i));
        self.dirty.clear_all();
        Ok(())
    }

    /// Push one byte range regardless of dirty state (`push_state_offset`).
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn push_range(&self, offset: usize, len: usize) -> Result<(), StateError> {
        self.push_ranges(&[(offset, len)])
    }

    /// Push several byte ranges regardless of dirty state, in **one**
    /// batched round-trip — the safe flush for writers updating scattered
    /// disjoint ranges of a shared value (chunk-granular [`StateEntry::push`]
    /// would overwrite neighbouring bytes they never touched).
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn push_ranges(&self, ranges: &[(usize, usize)]) -> Result<(), StateError> {
        for &(offset, len) in ranges {
            self.check_range(offset, len)?;
        }
        if ranges.is_empty() {
            return Ok(());
        }
        // Claim fully covered dirty chunks up front, like [`StateEntry::push`]:
        // a write racing this flush re-dirties its chunk *after* the claim
        // and is owed the next push — clearing after the send would mark a
        // racing write clean without its bytes ever leaving the host.
        let mut claimed = Vec::new();
        // Only a range as long as the shortest chunk (the last) can cover one.
        let (last_start, last_end) = self.chunk_bounds(self.n_chunks - 1);
        for &(offset, len) in ranges {
            if len < last_end - last_start {
                continue;
            }
            let (first, last) = self.chunk_span(offset, len);
            for idx in first..=last {
                let (start, end) = self.chunk_bounds(idx);
                if offset <= start && offset + len >= end && self.dirty.clear(idx) {
                    claimed.push(idx);
                }
            }
        }
        let result = self.send_ranges(ranges);
        if result.is_err() {
            claimed.iter().for_each(|&i| self.dirty.set(i));
        }
        result
    }

    /// Read from the local replica, pulling missing chunks first. Takes the
    /// local read lock implicitly (§4.2 "locking happens implicitly as part
    /// of all state API functions").
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<(), StateError> {
        self.pull_range(offset, buf.len())?;
        self.local_lock.lock_read();
        let r = self.region.read(offset, buf);
        self.local_lock.unlock_read();
        r.map_err(StateError::from)
    }

    /// Write to the local replica and mark dirty chunks. Chunks partially
    /// covered by the write are pulled first (read-modify-write), so a later
    /// push cannot clobber global bytes the Faaslet never saw. Takes the
    /// local write lock implicitly.
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), StateError> {
        self.claim_range(offset, data.len())?;
        self.local_lock.lock_write();
        let r = self.region.write(offset, data);
        self.local_lock.unlock_write();
        r?;
        // Re-mark dirty *after* the store: a push that claimed the bit
        // before this store landed read the region too early to carry it,
        // so the write is owed the next push. A bit `set` finds still set
        // was read after the store (both behind the `SeqCst` unlock
        // above), so whichever push claims it reads the region after the
        // store too.
        let (first, last) = self.chunk_span(offset, data.len());
        (first..=last).for_each(|idx| self.dirty.set(idx));
        Ok(())
    }

    /// Ready `offset..offset + len` for stores straight into
    /// [`StateEntry::region`]: pull the absent chunks the range only partly
    /// covers, so a later push cannot clobber global bytes the writer never
    /// saw, then mark every covered chunk present. Takes no local lock and
    /// sets no dirty bit.
    ///
    /// # Errors
    ///
    /// Global-tier or range errors.
    pub fn claim_range(&self, offset: usize, len: usize) -> Result<(), StateError> {
        self.check_range(offset, len)?;
        let (first, last) = self.chunk_span(offset, len);
        if (first..=last).all(|i| self.present.get(i)) {
            return Ok(());
        }
        self.claim_absent(offset, len, first, last)
    }

    /// The slow half of [`StateEntry::claim_range`], for a range
    /// `offset..offset + len` (chunks `first..=last`) that found a chunk
    /// absent: pull what the range only partly covers, then claim it all.
    #[inline(never)]
    fn claim_absent(
        &self,
        offset: usize,
        len: usize,
        first: usize,
        last: usize,
    ) -> Result<(), StateError> {
        // Pull partially-covered, absent chunks.
        for idx in first..=last {
            let (start, end) = self.chunk_bounds(idx);
            let fully_covered = offset <= start && offset + len >= end;
            if !self.present.get(idx) && !fully_covered {
                self.pull_range(start, end - start)?;
            }
        }
        // Claim every covered chunk present *before* touching the region:
        // a pull whose batched fetch is already on the wire reconciles
        // under the transition lock and skips present chunks, so the claim
        // is what stops stale global bytes from overwriting this write
        // once it lands (the fetch-in-flight/write race).
        let _transition = self.transition.lock();
        (first..=last).for_each(|idx| self.present.set(idx));
        Ok(())
    }

    /// Take the local write lock explicitly: the lock of this entry's key,
    /// which [`StateManager`](crate::StateManager) hands every replica of
    /// the key on the host.
    pub fn lock_write(&self) {
        self.local_lock.lock_write();
    }

    /// Explicit local write unlock.
    pub fn unlock_write(&self) {
        self.local_lock.unlock_write();
    }

    /// Threads parked on the local lock behind its current holder.
    pub fn local_lock_waiters(&self) -> usize {
        self.local_lock.waiters()
    }

    /// Forget local presence so the next access re-pulls (used after another
    /// party is known to have changed the global value, and by tests).
    pub fn invalidate(&self) {
        let _transition = self.transition.lock();
        self.present.clear_all();
        self.dirty.clear_all();
    }

    /// [`StateEntry::invalidate`] for the chunks `offset..offset + len`
    /// touches only (`pull_state_offset` refreshes its range).
    ///
    /// # Errors
    ///
    /// [`StateError::OutOfRange`] for a range past the value.
    pub fn invalidate_range(&self, offset: usize, len: usize) -> Result<(), StateError> {
        self.check_range(offset, len)?;
        let (first, last) = self.chunk_span(offset, len);
        let _transition = self.transition.lock();
        for idx in first..=last {
            self.present.clear(idx);
            self.dirty.clear(idx);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_kvs::{KvBackend, KvClient, KvError, KvStore, Request, Response};
    use std::time::Duration;

    fn entry_with(size: usize, chunk: usize) -> (Arc<KvClient>, StateEntry) {
        let store = Arc::new(KvStore::new());
        let kv = Arc::new(KvClient::local(store));
        let region = SharedRegion::new(size.max(1));
        let e = StateEntry::new("k", size, region, Arc::clone(&kv) as SharedKv, chunk).unwrap();
        (kv, e)
    }

    #[test]
    fn an_empty_range_at_the_end_names_no_chunk_past_it() {
        // 64 chunks fill the bitsets' one word exactly.
        let (kv, e) = entry_with(64 * 16, 16);
        kv.set("k", vec![7u8; 64 * 16]).unwrap();
        e.pull_range(64 * 16, 0).unwrap();
        e.invalidate_range(64 * 16, 0).unwrap();
        e.write(64 * 16, &[]).unwrap();
        assert!(e.invalidate_range(64 * 16, 1).is_err());
        assert!(e.present_chunks() <= 1, "at most the last chunk");
    }

    #[test]
    fn invalidate_range_repulls_only_its_chunks() {
        let (kv, e) = entry_with(64, 16);
        kv.set("k", vec![1u8; 64]).unwrap();
        e.pull().unwrap();
        kv.set("k", vec![2u8; 64]).unwrap();
        e.invalidate_range(20, 10).unwrap();
        assert_eq!(e.present_chunks(), 3, "chunk 1 alone forgotten");
        e.pull().unwrap();
        let mut got = [0u8; 64];
        e.region().read(0, &mut got).unwrap();
        assert!(got[..16].iter().chain(&got[32..]).all(|&b| b == 1));
        assert!(got[16..32].iter().all(|&b| b == 2));
    }

    /// A backend that counts batched calls and stalls batched *reads* in
    /// `stall` — the latency-injection seam for lock-discipline tests.
    struct SlowKv {
        inner: Arc<KvClient>,
        stall: Box<dyn Fn() + Send + Sync>,
        multi_gets: std::sync::atomic::AtomicUsize,
        multi_sets: std::sync::atomic::AtomicUsize,
    }

    impl SlowKv {
        fn new(inner: Arc<KvClient>, stall: impl Fn() + Send + Sync + 'static) -> SlowKv {
            SlowKv {
                inner,
                stall: Box::new(stall),
                multi_gets: std::sync::atomic::AtomicUsize::new(0),
                multi_sets: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    /// A `SlowKv` whose batched reads stay on the wire until the test
    /// drops the returned sender (or 10 s pass, so a failing test cannot
    /// hang).
    fn held_reads(plain: &Arc<KvClient>) -> (SlowKv, std::sync::mpsc::Sender<()>) {
        let (open, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        let stall = move || {
            held.lock().recv_timeout(Duration::from_secs(10)).ok();
        };
        (SlowKv::new(Arc::clone(plain), stall), open)
    }

    impl KvBackend for SlowKv {
        fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
            match req {
                Request::MultiGetRange { .. } => {
                    self.multi_gets
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    (self.stall)();
                }
                Request::MultiSetRange { .. } => {
                    self.multi_sets
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                _ => {}
            }
            self.inner.call(req)
        }
        fn lock_owner(&self) -> u64 {
            self.inner.lock_owner()
        }
        fn ping(&self) -> Result<(), KvError> {
            self.inner.ping()
        }
        fn flush(&self) -> Result<(), KvError> {
            self.inner.flush()
        }
        fn recorder(&self) -> &Arc<faasm_telemetry::Recorder> {
            self.inner.recorder()
        }
    }

    #[test]
    fn write_then_read_local() {
        let (_kv, e) = entry_with(100, 16);
        e.write(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        e.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(e.dirty_chunks() > 0);
    }

    #[test]
    fn push_sends_only_dirty_chunks() {
        let (kv, e) = entry_with(64, 16); // 4 chunks
        e.write(0, &[1u8; 16]).unwrap(); // chunk 0
        e.write(48, &[2u8; 16]).unwrap(); // chunk 3
        assert_eq!(e.dirty_chunks(), 2);
        e.push().unwrap();
        assert_eq!(e.dirty_chunks(), 0);
        let global = kv.get("k").unwrap().unwrap();
        assert_eq!(&global[0..16], &[1u8; 16]);
        assert_eq!(&global[48..64], &[2u8; 16]);
        // Untouched middle chunks were never sent; global zero-extended.
        assert_eq!(&global[16..48], &[0u8; 32]);
    }

    #[test]
    fn pull_fetches_only_missing_chunks() {
        let (kv, e) = entry_with(64, 16);
        kv.set("k", (0u8..64).collect()).unwrap();
        e.pull_range(20, 4).unwrap(); // chunk 1 only
        assert_eq!(e.present_chunks(), 1);
        let mut buf = [0u8; 4];
        e.read(20, &mut buf).unwrap();
        assert_eq!(buf, [20, 21, 22, 23]);
        e.pull().unwrap();
        assert_eq!(e.present_chunks(), 4);
    }

    #[test]
    fn read_pulls_implicitly() {
        let (kv, e) = entry_with(32, 16);
        kv.set("k", vec![7u8; 32]).unwrap();
        let mut buf = [0u8; 8];
        e.read(4, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert_eq!(e.present_chunks(), 1, "only the covering chunk pulled");
    }

    #[test]
    fn partial_write_to_absent_chunk_preserves_global_bytes() {
        let (kv, e) = entry_with(32, 16);
        kv.set("k", vec![9u8; 32]).unwrap();
        // Partial write into chunk 0 without reading it first.
        e.write(4, b"AB").unwrap();
        e.push().unwrap();
        let global = kv.get("k").unwrap().unwrap();
        assert_eq!(global[0], 9, "pre-existing byte survives RMW");
        assert_eq!(&global[4..6], b"AB");
        assert_eq!(global[6], 9);
    }

    #[test]
    fn push_range_clears_covered_chunk_dirty() {
        let (kv, e) = entry_with(32, 16);
        e.write(0, &[1u8; 32]).unwrap();
        assert_eq!(e.dirty_chunks(), 2);
        e.push_range(0, 16).unwrap();
        assert_eq!(e.dirty_chunks(), 1);
        assert_eq!(kv.strlen("k").unwrap(), 16);
    }

    #[test]
    fn out_of_range_rejected() {
        let (_kv, e) = entry_with(10, 16);
        let mut buf = [0u8; 4];
        assert!(matches!(
            e.read(8, &mut buf),
            Err(StateError::OutOfRange { .. })
        ));
        assert!(e.write(10, &[0]).is_err());
        assert!(e.pull_range(usize::MAX, 2).is_err());
    }

    #[test]
    fn capacity_checked_at_creation() {
        let store = Arc::new(KvStore::new());
        let kv = Arc::new(KvClient::local(store));
        let region = SharedRegion::new(10); // one page capacity
        assert!(StateEntry::new("k", faasm_mem::PAGE_SIZE + 1, region, kv, 1024).is_err());
    }

    #[test]
    fn explicit_local_locks() {
        let (_kv, e) = entry_with(8, 16);
        e.lock_write();
        e.unlock_write();
    }

    #[test]
    fn invalidate_forces_repull() {
        let (kv, e) = entry_with(8, 16);
        kv.set("k", vec![1u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        kv.set("k", vec![2u8; 8]).unwrap();
        // Still cached.
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        e.invalidate();
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn pull_and_push_batch_into_single_round_trips() {
        let store = Arc::new(KvStore::new());
        let plain = Arc::new(KvClient::local(Arc::clone(&store)));
        plain.set("k", (0u8..64).collect()).unwrap();
        let kv = Arc::new(SlowKv::new(Arc::clone(&plain), || {}));
        let e = StateEntry::new(
            "k",
            64,
            SharedRegion::new(64),
            Arc::clone(&kv) as SharedKv,
            16,
        )
        .unwrap();
        // 4 missing chunks, one wire round-trip.
        e.pull().unwrap();
        assert_eq!(kv.multi_gets.load(std::sync::atomic::Ordering::Relaxed), 1);
        let mut buf = [0u8; 64];
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), (0u8..64).collect::<Vec<u8>>());
        // Scattered dirty chunks (0, 1 and 3): still one round-trip, and
        // the untouched chunk 2 is not clobbered.
        e.write(0, &[9u8; 32]).unwrap();
        e.write(48, &[8u8; 16]).unwrap();
        e.push().unwrap();
        assert_eq!(kv.multi_sets.load(std::sync::atomic::Ordering::Relaxed), 1);
        let global = plain.get("k").unwrap().unwrap();
        assert_eq!(&global[0..32], &[9u8; 32]);
        assert_eq!(&global[32..48], &(32u8..48).collect::<Vec<u8>>()[..]);
        assert_eq!(&global[48..64], &[8u8; 16]);
    }

    #[test]
    fn pull_zero_fills_beyond_a_short_global_value() {
        let store = Arc::new(KvStore::new());
        let kv = Arc::new(KvClient::local(Arc::clone(&store)));
        kv.set("k", vec![7u8; 20]).unwrap();
        let region = SharedRegion::new(64);
        let e = StateEntry::new("k", 64, region, Arc::clone(&kv) as SharedKv, 16).unwrap();
        let mut buf = [0u8; 64];
        e.read(0, &mut buf).unwrap();
        assert_eq!(&buf[..20], &[7u8; 20]);
        assert_eq!(&buf[20..], &[0u8; 44]);
        assert_eq!(e.present_chunks(), 4);
    }

    #[test]
    fn slow_pull_does_not_block_ops_on_other_chunks() {
        // Regression for the chunk-table mutex held across KV round-trips:
        // while one thread's pull is stalled on the wire, local writes,
        // dirty queries and range pushes on *other* chunks must proceed.
        let store = Arc::new(KvStore::new());
        let plain = Arc::new(KvClient::local(Arc::clone(&store)));
        plain.set("k", vec![5u8; 64]).unwrap();
        // Stall reads only, so the concurrent push is not itself slowed.
        let (slow, gate) = held_reads(&plain);
        let slow = Arc::new(slow);
        let e = Arc::new(
            StateEntry::new(
                "k",
                64,
                SharedRegion::new(64),
                Arc::clone(&slow) as SharedKv,
                16,
            )
            .unwrap(),
        );
        let puller = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || e.pull_range(0, 16).unwrap())
        };
        // Let the puller reach its stalled round-trip.
        while slow.multi_gets.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let t0 = std::time::Instant::now();
        e.write(48, &[1u8; 16]).unwrap();
        assert_eq!(e.dirty_chunks(), 1);
        e.push_range(48, 16).unwrap();
        let elapsed = t0.elapsed();
        assert!(!puller.is_finished(), "the pull is still on the wire");
        drop(gate);
        puller.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(150),
            "ops on other chunks stalled {elapsed:?} behind a slow pull"
        );
        // And the slow pull still landed its chunk.
        let mut buf = [0u8; 16];
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 16]);
    }

    #[test]
    fn write_during_inflight_pull_is_not_clobbered_by_stale_fetch() {
        // The fetch-in-flight/write race: a pull's batched read is on the
        // wire (no lock held) when a fully-covering write lands on one of
        // the chunks being fetched. The write's claim must win — the
        // pull's reconcile may not overwrite it with stale global bytes,
        // and the next push must upload the fresh write.
        let store = Arc::new(KvStore::new());
        let plain = Arc::new(KvClient::local(Arc::clone(&store)));
        plain.set("k", vec![5u8; 32]).unwrap();
        let (slow, gate) = held_reads(&plain);
        let slow = Arc::new(slow);
        let e = Arc::new(
            StateEntry::new(
                "k",
                32,
                SharedRegion::new(32),
                Arc::clone(&slow) as SharedKv,
                16,
            )
            .unwrap(),
        );
        let puller = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || e.pull().unwrap())
        };
        while slow.multi_gets.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // The fetch (stale 5s) is in flight; overwrite chunk 0 locally.
        e.write(0, &[9u8; 16]).unwrap();
        drop(gate);
        puller.join().unwrap();
        let mut buf = [0u8; 16];
        e.read(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 16], "in-flight pull must not clobber the write");
        e.push().unwrap();
        assert_eq!(
            plain.get_range("k", 0, 16).unwrap().unwrap(),
            vec![9u8; 16],
            "push uploads the surviving write"
        );
    }

    #[test]
    fn push_ranges_is_one_round_trip_and_preserves_neighbours() {
        let store = Arc::new(KvStore::new());
        let plain = Arc::new(KvClient::local(Arc::clone(&store)));
        plain.set("k", vec![3u8; 64]).unwrap();
        let kv = Arc::new(SlowKv::new(Arc::clone(&plain), || {}));
        let e = StateEntry::new(
            "k",
            64,
            SharedRegion::new(64),
            Arc::clone(&kv) as SharedKv,
            16,
        )
        .unwrap();
        // Scattered 4-byte writes within chunks this entry never pulled.
        e.write(0, &[1u8; 4]).unwrap();
        e.write(20, &[2u8; 4]).unwrap();
        e.push_ranges(&[(0, 4), (20, 4)]).unwrap();
        assert_eq!(kv.multi_sets.load(std::sync::atomic::Ordering::Relaxed), 1);
        let global = plain.get("k").unwrap().unwrap();
        assert_eq!(&global[0..4], &[1u8; 4]);
        assert_eq!(&global[4..20], &[3u8; 16], "neighbour bytes survive");
        assert_eq!(&global[20..24], &[2u8; 4]);
        assert_eq!(&global[24..], &[3u8; 40]);
        // Partial-chunk pushes leave the chunks dirty (not fully covered).
        assert_eq!(e.dirty_chunks(), 2);
        // Out-of-range ranges are rejected before any wire traffic.
        assert!(e.push_ranges(&[(60, 8)]).is_err());
    }

    #[test]
    fn failed_push_restores_dirty_bits() {
        struct FailingSets(Arc<KvClient>);
        impl KvBackend for FailingSets {
            fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
                match req {
                    Request::MultiSetRange { .. } => Err(KvError::Server("injected".into())),
                    _ => self.0.call(req),
                }
            }
            fn lock_owner(&self) -> u64 {
                self.0.lock_owner()
            }
            fn ping(&self) -> Result<(), KvError> {
                self.0.ping()
            }
            fn flush(&self) -> Result<(), KvError> {
                self.0.flush()
            }
            fn recorder(&self) -> &Arc<faasm_telemetry::Recorder> {
                self.0.recorder()
            }
        }
        let store = Arc::new(KvStore::new());
        let kv = Arc::new(FailingSets(Arc::new(KvClient::local(store))));
        let e = StateEntry::new("k", 32, SharedRegion::new(32), kv as SharedKv, 16).unwrap();
        e.write(0, &[1u8; 32]).unwrap();
        assert_eq!(e.dirty_chunks(), 2);
        assert!(e.push().is_err());
        assert_eq!(e.dirty_chunks(), 2, "failed push must not lose dirt");
        // The range flush claims fully covered chunks the same way and
        // must also restore them when the send fails.
        assert!(e.push_range(0, 16).is_err());
        assert_eq!(e.dirty_chunks(), 2, "failed push_ranges must not lose dirt");
    }

    /// One seeded round of the table's three races at once: writers on
    /// disjoint words (claiming absent chunks as they go), one pusher
    /// alternating `push` and `push_ranges`, and pullers fetching absent
    /// chunks through a backend that stalls every batched read.
    fn stress_round(seed: u64) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const WORDS: usize = 128;
        const CHUNK: usize = 16; // two words a chunk
        const WRITERS: usize = 3;
        const UNTOUCHED: u64 = 0xEEEE_EEEE_EEEE_EEEE;
        let rng = |stream: u64| {
            let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as usize
            }
        };
        let plain = Arc::new(KvClient::local(Arc::new(KvStore::new())));
        let initial: Vec<u8> = (0..WORDS).flat_map(|_| UNTOUCHED.to_le_bytes()).collect();
        plain.set("k", initial).unwrap();
        // Batched reads give their core away a while, widening the window
        // in which a write or push lands during a pull's round-trip.
        let slow = Arc::new(SlowKv::new(Arc::clone(&plain), || {
            (0..20).for_each(|_| std::thread::yield_now())
        }));
        let e = StateEntry::new(
            "k",
            WORDS * 8,
            SharedRegion::new(WORDS * 8),
            slow as SharedKv,
            CHUNK,
        )
        .unwrap();
        // The last value each writer stored in each word (0: never written).
        let last: Vec<AtomicU64> = (0..WORDS).map(|_| AtomicU64::new(0)).collect();
        let writing = AtomicBool::new(true);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|id| {
                    let (e, last, mut next) = (&e, &last, rng(id as u64));
                    s.spawn(move || {
                        for round in 1..=200u64 {
                            let word = next() % (WORDS / WRITERS) * WRITERS + id;
                            let value = round << 8 | id as u64;
                            e.write(word * 8, &value.to_le_bytes()).unwrap();
                            last[word].store(value, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let (e, last, writing) = (&e, &last, &writing);
            let mut next = rng(100);
            s.spawn(move || {
                while writing.load(Ordering::SeqCst) {
                    e.push().unwrap();
                    // A written word's chunk is present, so its bytes are
                    // pushable: the word alone, or its whole chunk (which
                    // claims the chunk's dirty bit like `push`).
                    let word = next() % WORDS;
                    if last[word].load(Ordering::SeqCst) != 0 {
                        let chunk = word * 8 / CHUNK * CHUNK;
                        e.push_ranges(&[(word * 8, 8), (chunk, CHUNK)]).unwrap();
                    }
                }
            });
            for id in 0..2 {
                let mut next = rng(200 + id);
                s.spawn(move || {
                    while writing.load(Ordering::SeqCst) {
                        let first = next() % WORDS;
                        let len = (1 + next() % 8).min(WORDS - first);
                        e.pull_range(first * 8, len * 8).unwrap();
                    }
                });
            }
            for w in writers {
                w.join().unwrap();
            }
            writing.store(false, Ordering::SeqCst);
        });
        e.push().unwrap();
        assert_eq!(e.dirty_chunks(), 0, "seed {seed}");
        let global = plain.get("k").unwrap().unwrap();
        let mut local = vec![0u8; WORDS * 8];
        e.read(0, &mut local).unwrap();
        for (word, last) in last.iter().enumerate() {
            let want = match last.load(Ordering::SeqCst) {
                0 => UNTOUCHED,
                value => value,
            };
            let at = word * 8..word * 8 + 8;
            let got = |bytes: &[u8]| u64::from_le_bytes(bytes[at.clone()].try_into().unwrap());
            assert_eq!(
                got(&local),
                want,
                "seed {seed}: word {word} of the replica (a stale fetch overwrote a claimed chunk?)"
            );
            assert_eq!(
                got(&global),
                want,
                "seed {seed}: word {word} of the global value (a write missed every push?)"
            );
        }
    }

    #[test]
    fn writers_pushes_and_pulls_race_without_losing_a_write() {
        for seed in 1..=12 {
            stress_round(seed);
        }
    }

    #[test]
    fn shared_region_visible_to_co_located_replica_users() {
        // Two "Faaslets" with the same entry share one region: writes by one
        // are readable by the other without any pull/push.
        let (_kv, e) = entry_with(16, 16);
        let e = Arc::new(e);
        let e2 = Arc::clone(&e);
        e.write(0, b"from-f1").unwrap();
        let mut buf = [0u8; 7];
        e2.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"from-f1");
    }
}
