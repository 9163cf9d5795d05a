//! End-to-end tracing and telemetry for the FAASM reproduction.
//!
//! One ingress call yields a causally-linked span tree across every tier it
//! touches: the gateway stamps a root [`TraceCtx`] on the wire, the runtime
//! derives child contexts per stage, and the state tier reads the context
//! straight off the KVS request header. Spans land in one [`Recorder`] per
//! cluster, which has two sinks:
//!
//! * **Histograms** — per-[`SpanKind`] lock-free log2-bucket [`Hist`]s with
//!   fixed memory (64 atomic buckets), cheap enough to stay on in benches.
//! * **Flight recorder** — a bounded ring of recent [`SpanRecord`]s,
//!   dumpable on anomaly triggers and read by trace id
//!   ([`Recorder::trace`]).
//!
//! Counters are the third kind of telemetry: every stat set in the
//! workspace is one [`counters!`] declaration, and a [`Telemetry`] snapshot
//! carries all of a cluster's sets plus its recorder's histograms.
//!
//! The crate sits at the bottom of the workspace dependency graph (below
//! `faasm-kvs` and `faasm-net`). The cluster's fabric owns its recorder,
//! and every layer reaches it through the NIC or state backend it already
//! holds. Worker threads publish the active context through a thread-local
//! ([`set_current`] / [`current`]) so deep layers (state chunks, the KVS
//! client) can stamp requests without signature churn.

mod clock;
mod counters;

pub use clock::Clock;
pub use counters::{Counter, SetRow, Telemetry};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// A compact trace context carried on every wire format: which ingress call
/// this work belongs to (`trace_id`) and the span it is causally nested
/// under (`span_id`). Both ids come from the cluster's [`Recorder`]
/// ([`Recorder::root`], [`Recorder::child`]), so they are unique within
/// one cluster, and two clusters built alike mint the same ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The ingress call's trace, 0 = untraced.
    pub trace_id: u64,
    /// The enclosing span (the parent for spans recorded under this ctx).
    pub span_id: u64,
}

impl TraceCtx {
    /// The untraced sentinel (what untouched wire paths carry).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this context traces anything.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// One splitmix64 step from state `x`: `x` plus the golden gamma, through
/// the finaliser. A bijection, so distinct states give distinct outputs,
/// and consecutive states give outputs that do not cluster.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Thread-local current context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::Cell<TraceCtx> = const { std::cell::Cell::new(TraceCtx::NONE) };
}

/// The calling thread's active trace context ([`TraceCtx::NONE`] outside a
/// traced call). Deep layers use this to stamp outgoing KVS requests and to
/// parent their spans without any signature changes.
pub fn current() -> TraceCtx {
    CURRENT.with(std::cell::Cell::get)
}

/// Install `ctx` as the thread's active context for the guard's lifetime;
/// the previous context is restored on drop (so chained calls nest).
pub fn set_current(ctx: TraceCtx) -> CtxGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    CtxGuard { prev }
}

/// Restores the previous thread-local context on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    prev: TraceCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether span recording is on. Wire formats always carry the context —
/// only the recording sinks are gated, so toggling cannot skew codecs.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggle span recording (benches measure the on/off throughput delta).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Span taxonomy
// ---------------------------------------------------------------------------

/// The per-stage span taxonomy: each variant is one histogram and one kind
/// of flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Gateway admission: policy + token bucket + enqueue.
    Admission = 0,
    /// Time a job sat in its tenant queue before a dispatcher drained it.
    QueueSojourn = 1,
    /// Dispatch grouping: drain → per-host batches handed to the bus.
    Dispatch = 2,
    /// Message-bus transit: batch encode/send → worker decode.
    BusTransit = 3,
    /// Worker execution (the Faaslet run itself).
    WorkerExec = 4,
    /// State pull round-trip (global tier → local tier).
    StatePull = 5,
    /// State push round-trip (local tier → global tier).
    StatePush = 6,
    /// Global lock wait (acquire latency, not hold time).
    LockWait = 7,
    /// `WrongEpoch` park + retry at the sharded KVS client.
    WrongEpochRetry = 8,
    /// Server-side apply of one routed keyed op at a state shard.
    ShardApply = 9,
    /// Primary → backup replication forward (one backup round-trip).
    ReplForward = 10,
    /// Total time a primary write waited for its replica quorum.
    QuorumWait = 11,
    /// Function-side cache hit: a read served from the instance's cache
    /// without touching the wire.
    CacheHit = 12,
    /// Function-side cache miss: the read went to the global tier (and the
    /// snapshot was cached on the way back).
    CacheMiss = 13,
    /// Function-side cache invalidation: a write or epoch change evicted or
    /// superseded a cached snapshot.
    CacheInvalidate = 14,
    /// Lease-expiry / epoch-bump revalidation probe (`VersionOf`
    /// round-trip; the value bytes stay local when the version matches).
    Revalidate = 15,
    /// Proto-Faaslet restore: snapshot bytes on-host → runnable Faaslet
    /// (copy-on-write page mapping + globals + table install).
    ProtoRestore = 16,
    /// Snapshot chunk fetch: manifest + missing chunks pulled from the
    /// state tier into the host's page store.
    SnapshotFetch = 17,
    /// Digest verification of fetched snapshot chunks (the
    /// content-address check standing between the wire and a restore).
    SnapshotVerify = 18,
}

/// Number of span kinds (histogram array size).
pub const SPAN_KINDS: usize = 19;

impl SpanKind {
    /// All kinds, in wire order.
    pub const ALL: [SpanKind; SPAN_KINDS] = [
        SpanKind::Admission,
        SpanKind::QueueSojourn,
        SpanKind::Dispatch,
        SpanKind::BusTransit,
        SpanKind::WorkerExec,
        SpanKind::StatePull,
        SpanKind::StatePush,
        SpanKind::LockWait,
        SpanKind::WrongEpochRetry,
        SpanKind::ShardApply,
        SpanKind::ReplForward,
        SpanKind::QuorumWait,
        SpanKind::CacheHit,
        SpanKind::CacheMiss,
        SpanKind::CacheInvalidate,
        SpanKind::Revalidate,
        SpanKind::ProtoRestore,
        SpanKind::SnapshotFetch,
        SpanKind::SnapshotVerify,
    ];

    /// Stable display name (also the JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Admission => "admission",
            SpanKind::QueueSojourn => "queue_sojourn",
            SpanKind::Dispatch => "dispatch",
            SpanKind::BusTransit => "bus_transit",
            SpanKind::WorkerExec => "worker_exec",
            SpanKind::StatePull => "state_pull",
            SpanKind::StatePush => "state_push",
            SpanKind::LockWait => "lock_wait",
            SpanKind::WrongEpochRetry => "wrong_epoch_retry",
            SpanKind::ShardApply => "shard_apply",
            SpanKind::ReplForward => "repl_forward",
            SpanKind::QuorumWait => "quorum_wait",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheMiss => "cache_miss",
            SpanKind::CacheInvalidate => "cache_invalidate",
            SpanKind::Revalidate => "revalidate",
            SpanKind::ProtoRestore => "proto_restore",
            SpanKind::SnapshotFetch => "snapshot_fetch",
            SpanKind::SnapshotVerify => "snapshot_verify",
        }
    }
}

/// One completed span in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root-parented / no parent in this process).
    pub parent_id: u64,
    /// Stage.
    pub kind: SpanKind,
    /// Start, ns on the recorder's clock ([`Recorder::now_ns`]).
    pub start_ns: u64,
    /// End, ns on the recorder's clock.
    pub end_ns: u64,
    /// Kind-specific payload (e.g. retry attempts, bytes moved); 0 if unused.
    pub extra: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (saturating; clocks are monotone but
    /// cross-thread stamps may tie).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// ---------------------------------------------------------------------------
// Log2-bucket histogram
// ---------------------------------------------------------------------------

const BUCKETS: usize = 64;

/// A lock-free, fixed-memory log2-bucket histogram. Bucket `i` counts values
/// `v` with `bit_len(v) == i` (bucket 0 holds zeros), so the full `u64`
/// range fits in 64 atomic counters — recording is two relaxed atomic adds
/// and percentile reads never allocate.
#[derive(Debug)]
pub struct Hist {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)` clamped
/// into range — i.e. values in `[2^(i-1), 2^i)` share bucket `i`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Representative value reported for a bucket (its midpoint), so percentile
/// estimates sit inside the bucket rather than at its edge.
fn bucket_mid(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = 1u64 << (i - 1);
    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
    lo + (hi - lo) / 2
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free: two relaxed adds plus min/max updates.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`p` in 0..=100): the midpoint of the bucket
    /// holding the p-th sample, clamped to the observed min/max so p0/p100
    /// are exact. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// A point-in-time copy (buckets first, then count — a racing `record`
    /// can make the copy conservative but never inconsistent beyond one
    /// in-flight sample).
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned histogram snapshot: mergeable and readable without atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples (mean = sum / count).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 bucket counts.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Merge another snapshot into this one (cluster-wide aggregation).
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The samples recorded between `earlier` and `self`: count, sum and
    /// buckets are exact; min and max stay the later snapshot's (a
    /// histogram cannot forget an extreme), which only widens the clamp on
    /// p0/p100.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut gained = *self;
        gained.count -= earlier.count;
        gained.sum -= earlier.sum;
        for (g, e) in gained.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *g -= e;
        }
        gained
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate percentile — see [`Hist::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Spans kept in a recorder's flight-recorder ring.
const RING_CAP: usize = 65_536;
/// Spans captured per anomaly dump (the tail of the ring at trigger time).
const ANOMALY_TAIL: usize = 256;
/// Anomaly dumps retained per recorder: 16 for each of the six layers that
/// record spans, so a burst of admission-cap shrinks cannot evict a
/// reshard's dump.
const ANOMALY_CAP: usize = 6 * 16;

/// One anomaly-triggered flight-recorder dump.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// When the trigger fired, ns on the recorder's clock.
    pub at_ns: u64,
    /// What fired it (e.g. `"admission cap shrink"`, `"reshard begin"`).
    pub reason: String,
    /// The tail of the span ring at trigger time.
    pub spans: Vec<SpanRecord>,
}

/// A cluster's telemetry sink: per-kind histograms (always cheap) plus a
/// bounded ring of recent spans (the flight recorder). Each [`SpanKind`]
/// names the layer that records it, so one recorder serves every layer.
/// It is also the cluster's source of trace and span ids, and it owns the
/// cluster's [`Clock`]. The default recorder runs on a real clock.
#[derive(Debug, Default)]
pub struct Recorder {
    hists: [Hist; SPAN_KINDS],
    ring: Mutex<VecDeque<SpanRecord>>,
    anomalies: Mutex<VecDeque<Anomaly>>,
    dropped: AtomicU64,
    /// Ids handed out so far.
    ids: AtomicU64,
    clock: Clock,
}

impl Recorder {
    /// An empty recorder on `clock`.
    pub fn new(clock: Clock) -> Recorder {
        Recorder {
            clock,
            ..Recorder::default()
        }
    }

    /// The cluster's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Nanoseconds on the cluster's clock: what span stamps read.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let since = self.clock.now().saturating_duration_since(self.clock.epoch);
        since.as_nanos() as u64
    }

    /// A fresh id, unique among this recorder's: the `n`-th one, counting
    /// from 1, is `splitmix64(n)`, or 1 for the one `n` whose mix is 0 (the
    /// untraced sentinel).
    fn next_id(&self) -> u64 {
        splitmix64(self.ids.fetch_add(1, Ordering::Relaxed) + 1).max(1)
    }

    /// A fresh root context: new trace id, new root span id.
    pub fn root(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.next_id(),
            span_id: self.next_id(),
        }
    }

    /// A child context under `ctx`: same trace, fresh span id. Returns
    /// `NONE` for `NONE` so untraced calls never fabricate spans.
    pub fn child(&self, ctx: TraceCtx) -> TraceCtx {
        if ctx.is_none() {
            return TraceCtx::NONE;
        }
        TraceCtx {
            trace_id: ctx.trace_id,
            span_id: self.next_id(),
        }
    }

    /// Record a completed span: duration into the kind's histogram, the
    /// record into the flight-recorder ring (evicting the oldest when
    /// full — memory stays fixed). No-op while recording is disabled.
    pub fn record(&self, span: SpanRecord) {
        if !enabled() {
            return;
        }
        self.hists[span.kind as usize].record(span.duration_ns());
        if span.trace_id == 0 {
            return; // untraced work feeds histograms only
        }
        let mut ring = self.ring.lock();
        if ring.len() >= RING_CAP {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Record a span that started at `start_ns` and ends now, parented
    /// under `ctx` with a fresh span id, and return that id.
    pub fn span(&self, kind: SpanKind, ctx: TraceCtx, start_ns: u64, extra: u64) -> u64 {
        let child = self.child(ctx);
        self.close(kind, child, ctx.span_id, start_ns, extra);
        child.span_id
    }

    /// Record the span `ctx` from `start_ns` to now, parented under
    /// `parent_id`: for a span whose id ([`Recorder::child`]) its children
    /// carried before it ended.
    pub fn close(&self, kind: SpanKind, ctx: TraceCtx, parent_id: u64, start_ns: u64, extra: u64) {
        self.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
            kind,
            start_ns,
            end_ns: self.now_ns(),
            extra,
        });
    }

    /// The kind's histogram (live; snapshot for coherent reads).
    pub fn hist(&self, kind: SpanKind) -> &Hist {
        &self.hists[kind as usize]
    }

    /// Copy of the current span ring, oldest first.
    pub fn dump(&self) -> Vec<SpanRecord> {
        self.ring.lock().iter().copied().collect()
    }

    /// The ring's spans of `trace_id`, sorted by start time — one call's
    /// causally-linked span tree.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let of_trace = |s: &&SpanRecord| s.trace_id == trace_id;
        let mut spans: Vec<SpanRecord> =
            self.ring.lock().iter().filter(of_trace).copied().collect();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        spans
    }

    /// Spans evicted from the ring since startup.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Anomaly trigger: capture the ring tail under `reason`. Bounded
    /// (oldest dump evicted past [`ANOMALY_CAP`]).
    pub fn note_anomaly(&self, reason: &str) {
        if !enabled() {
            return;
        }
        let ring = self.ring.lock();
        let tail: Vec<SpanRecord> = ring
            .iter()
            .rev()
            .take(ANOMALY_TAIL)
            .rev()
            .copied()
            .collect();
        drop(ring);
        let mut anomalies = self.anomalies.lock();
        if anomalies.len() >= ANOMALY_CAP {
            anomalies.pop_front();
        }
        anomalies.push_back(Anomaly {
            at_ns: self.now_ns(),
            reason: reason.to_string(),
            spans: tail,
        });
    }

    /// Anomaly dumps captured so far, oldest first.
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.anomalies.lock().iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Benchmark-only process-wide state (deleted with ROADMAP item 1(e))
// ---------------------------------------------------------------------------

/// Every live cluster's recorder, for [`metrics_snapshot`] alone.
static REGISTRY: Mutex<Vec<Weak<Recorder>>> = Mutex::new(Vec::new());

/// Ids handed out by [`TraceCtx::new_root`].
static ROOTS: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since a process-wide epoch, for callers that hold no
/// cluster; a cluster stamps with [`Recorder::now_ns`].
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl TraceCtx {
    /// A fresh root context from a process-wide stream, for callers that
    /// hold no cluster (a cluster mints with [`Recorder::root`]). The
    /// stream starts 2^63 past every recorder's, so no id here is ever one
    /// a cluster mints.
    pub fn new_root() -> TraceCtx {
        let next = || splitmix64(ROOTS.fetch_add(1, Ordering::Relaxed) + (1 << 63)).max(1);
        TraceCtx {
            trace_id: next(),
            span_id: next(),
        }
    }
}

/// List a cluster's recorder for [`metrics_snapshot`]; entries whose
/// cluster is gone are pruned on the way.
pub fn register(recorder: &Arc<Recorder>) {
    let mut reg = REGISTRY.lock();
    reg.retain(|r| r.strong_count() > 0);
    reg.push(Arc::downgrade(recorder));
}

/// A fresh recorder that no cluster reads; the name is ignored.
pub fn tier(_name: &'static str) -> Arc<Recorder> {
    Arc::default()
}

/// Every live cluster's span histograms merged into one entry: by kind,
/// for each kind with a sample.
pub fn metrics_snapshot() -> Vec<(&'static str, Vec<(SpanKind, HistSnapshot)>)> {
    let live: Vec<Arc<Recorder>> = REGISTRY.lock().iter().filter_map(Weak::upgrade).collect();
    let merged = |kind| {
        let mut hist = HistSnapshot::default();
        live.iter()
            .for_each(|rec| hist.merge(&rec.hist(kind).snapshot()));
        (kind, hist)
    };
    let kinds = SpanKind::ALL.iter().map(|&kind| merged(kind));
    vec![("cluster", kinds.filter(|(_, h)| h.count > 0).collect())]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that records spans or turns recording off: the
    /// switch is process-wide, and the tests of one binary share a process.
    static RECORDING: Mutex<()> = Mutex::new(());

    #[test]
    fn ids_are_unique_and_nonzero() {
        let (rec, twin) = (Recorder::default(), Recorder::default());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let root = rec.root();
            assert_eq!(twin.root(), root, "two fresh recorders, one sequence");
            for id in [root.trace_id, root.span_id] {
                assert_ne!(id, 0);
                assert!(seen.insert(id));
            }
        }
        // The frozen benchmark's roots come from another stream.
        for _ in 0..1_000 {
            let root = TraceCtx::new_root();
            assert!(!seen.contains(&root.trace_id) && !seen.contains(&root.span_id));
        }
    }

    #[test]
    fn child_keeps_trace_id() {
        let rec = Recorder::default();
        let root = rec.root();
        let child = rec.child(root);
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert_eq!(rec.child(TraceCtx::NONE), TraceCtx::NONE);
    }

    #[test]
    fn thread_local_ctx_nests_and_restores() {
        assert!(current().is_none());
        let rec = Recorder::default();
        let a = rec.root();
        let g1 = set_current(a);
        assert_eq!(current(), a);
        {
            let b = rec.child(a);
            let _g2 = set_current(b);
            assert_eq!(current(), b);
        }
        assert_eq!(current(), a);
        drop(g1);
        assert!(current().is_none());
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn hist_percentiles_bracket_samples() {
        let h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        // Log2 buckets: estimates land within a factor of two of the truth.
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        assert!((500..=1000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
        let snap = h.snapshot();
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.mean(), (1..=1000u64).sum::<u64>() / 1000);
    }

    #[test]
    fn hist_extremes_are_exact() {
        let h = Hist::new();
        h.record(7);
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.percentile(50.0), 7);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Hist::new();
        let b = Hist::new();
        a.record(10);
        b.record(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.min, 10);
        assert_eq!(m.max, 1000);
    }

    #[test]
    fn recorder_ring_is_bounded() {
        let _recording = RECORDING.lock();
        let rec = Recorder::default();
        let ctx = rec.root();
        for i in 0..(RING_CAP + 100) {
            rec.record(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: i as u64 + 1,
                parent_id: ctx.span_id,
                kind: SpanKind::WorkerExec,
                start_ns: i as u64,
                end_ns: i as u64 + 1,
                extra: 0,
            });
        }
        assert_eq!(rec.dump().len(), RING_CAP);
        assert_eq!(rec.dropped(), 100);
        assert_eq!(
            rec.hist(SpanKind::WorkerExec).count(),
            (RING_CAP + 100) as u64
        );
    }

    #[test]
    fn trace_returns_only_that_traces_spans_in_start_order() {
        let _recording = RECORDING.lock();
        let rec = Recorder::default();
        let (root, other) = (rec.root(), rec.root());
        let span = |ctx: TraceCtx, kind, start_ns| SpanRecord {
            trace_id: ctx.trace_id,
            span_id: rec.child(ctx).span_id,
            parent_id: ctx.span_id,
            kind,
            start_ns,
            end_ns: start_ns + 1,
            extra: 0,
        };
        rec.record(span(root, SpanKind::StatePull, 30));
        rec.record(span(other, SpanKind::Dispatch, 20));
        rec.record(span(root, SpanKind::Admission, 10));
        let tree = rec.trace(root.trace_id);
        let kinds: Vec<SpanKind> = tree.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Admission, SpanKind::StatePull]);
        assert!(tree.iter().all(|s| s.trace_id == root.trace_id));
        assert!(rec.trace(rec.root().trace_id).is_empty());
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _recording = RECORDING.lock();
        let rec = Recorder::default();
        set_enabled(false);
        rec.span(SpanKind::Dispatch, rec.root(), rec.now_ns(), 0);
        set_enabled(true);
        assert_eq!(rec.hist(SpanKind::Dispatch).count(), 0);
        assert!(rec.dump().is_empty());
    }

    #[test]
    fn anomalies_capture_ring_tail() {
        let _recording = RECORDING.lock();
        let rec = Recorder::default();
        let ctx = rec.root();
        rec.span(SpanKind::QueueSojourn, ctx, rec.now_ns(), 0);
        rec.note_anomaly("unit trigger");
        let an = rec.anomalies();
        assert_eq!(an.len(), 1);
        assert_eq!(an[0].reason, "unit trigger");
        assert!(!an[0].spans.is_empty());
    }
}
