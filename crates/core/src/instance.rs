//! The FAASM runtime instance: one per host (Fig. 5).
//!
//! Each instance owns one record per deployed function (the upload it was
//! built from, its Proto-Faaslet and its warm Faaslets, under one
//! lifetime), one run queue, worker threads that execute calls, the host's
//! local state tier and filesystem, and the host-wide CPU cgroup. The run
//! queue is also the host's inbox: the fabric delivers every message-bus
//! message into it, and the worker that takes one decodes it — a result is
//! fulfilled, a batch of calls runs its first call on that worker and
//! queues the rest, a pre-stage goes to the fetch thread. A chained call
//! that can run warm here is queued here; any other is placed by the
//! cluster's one chooser and, if that picks a peer, sent over the fabric,
//! its result coming back the same way (§5.1's call sharing).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use faasm_fvm::Linker;
use faasm_kvs::{
    chunk_key, manifest_key, CacheConfig, CachedKv, Digest, RoutingCell, ShardedKvClient, SharedKv,
};
use faasm_net::{Envelope, Fabric, HostId, NetError, Nic};
use faasm_sched::{runs_warm_local, CallId, CallResult, CallSpec, SchedBoards};
use faasm_state::StateManager;
use faasm_telemetry::{SpanKind, TraceCtx};
use faasm_vfs::{HostFs, ObjectStore};
use parking_lot::{Mutex, RwLock};

use crate::cgroup::CgroupCpu;
use crate::cluster::Placer;
use crate::ctx::ChainRouter;
use crate::error::CoreError;
use crate::faaslet::{EgressLimit, Faaslet, FaasletEnv};
use crate::guest::{FunctionDef, FunctionRegistry, GuestCode};
use crate::hostfuncs::faaslet_linker;
use crate::metrics::{Metrics, StartKind};
use crate::msg::{decode_msg, encode_msg, frame_msg, InstanceMsg};
use crate::pending::{PendingCallback, PendingMap};
use crate::proto::{ProtoFaaslet, ProtoRef};
use crate::snapdist::{
    assemble_pages, chunk_proto, ProtoManifest, SnapStatsSnapshot, SnapshotCache,
    DEFAULT_SNAPSHOT_CACHE_BYTES,
};

/// Instance tuning knobs.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Worker threads (the instance's execution capacity).
    pub workers: usize,
    /// Per-Faaslet egress shaping, if any.
    pub egress: Option<EgressLimit>,
}

impl Default for InstanceConfig {
    fn default() -> InstanceConfig {
        InstanceConfig {
            workers: 4,
            egress: None,
        }
    }
}

/// Fuel tolerance for the CPU cgroup (how far a Faaslet may run ahead).
const CGROUP_TOLERANCE: u64 = 1 << 22;

/// Worker thread stack size (guest recursion uses the host stack).
const WORKER_STACK: usize = 16 * 1024 * 1024;

/// Pre-stage manifests waiting for the fetch thread. A worker drops one
/// that finds the queue full: a lost pre-stage only costs a fetch.
const PRESTAGE_QUEUE: usize = 64;

/// How long `await_call` first waits on its result before it looks at the
/// run queue again; each further wait doubles, up to [`AWAIT_NAP_MAX`]. A
/// result sent from a peer lands in the queue, not in the pending table,
/// and when every worker here waits, one of them must wake to decode it.
const AWAIT_NAP: Duration = Duration::from_micros(50);
const AWAIT_NAP_MAX: Duration = Duration::from_millis(1);

#[derive(Debug)]
struct QueuedCall {
    call: CallSpec,
    reply_to: HostId,
}

/// What a worker takes off its host's run queue.
#[derive(Debug)]
enum Work {
    /// A call placed on this host.
    Call(QueuedCall),
    /// A message the fabric delivered to this host, still encoded.
    Msg(Envelope),
}

/// One pre-placed call in a [`FaasmInstance::submit_placed_batch`], with
/// its completion hook: `on_complete` is invoked exactly once with the
/// terminal result, from whichever thread produced it.
pub struct PlacedCall {
    /// Owning tenant.
    pub user: String,
    /// Function name.
    pub function: String,
    /// Input bytes.
    pub input: Vec<u8>,
    /// The ingress call's trace context ([`TraceCtx::NONE`] when
    /// untraced) — carried into the batched [`CallSpec`] so every stage
    /// downstream of placement links back to the same trace.
    pub trace: TraceCtx,
    /// Completion callback (no thread parks per in-flight call).
    pub on_complete: PendingCallback<CallResult>,
}

impl std::fmt::Debug for PlacedCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacedCall")
            .field("user", &self.user)
            .field("function", &self.function)
            .field("input_len", &self.input.len())
            .finish()
    }
}

/// Everything this host knows about one upload of one function: the
/// definition it runs, the Proto-Faaslet captured from it and the Faaslets
/// restored from that, under one lifetime. A Faaslet returns to the record
/// it was built from and is reset from that record's proto, so code and
/// snapshot can never come from different uploads; a re-upload makes the
/// record stale and [`FaasmInstance::record`] drops it whole.
struct FunctionRecord {
    user: String,
    function: String,
    def: Arc<FunctionDef>,
    /// The generation the registry assigned the upload.
    generation: u64,
    /// The upload's Proto-Faaslet, installed once — captured here, fetched
    /// from the tier or pre-staged. Reads take no lock.
    proto: OnceLock<ProtoRef>,
    /// Held across fetch-or-capture: concurrent cold starts cost one.
    resolve: Mutex<()>,
    pool: Mutex<Pool>,
}

#[derive(Default)]
struct Pool {
    /// Whether this host is warm for the function, as placement reads it
    /// ([`FaasmInstance::idle_warmth`]): set when a call for the function
    /// is placed here ([`FaasmInstance::accept`]) or a Faaslet enters the
    /// pool, kept with every Faaslet checked out, cleared by `evict` and by
    /// a `retire_idle` that empties the pool. A pre-staged record holds a
    /// proto without being warm.
    warm: bool,
    idle: Vec<Faaslet>,
    /// Calls running on a Faaslet built for them, which the pool will
    /// hold only once they finish: placement counts them against this
    /// function as a warm call counts by the idle Faaslet it took.
    building: usize,
}

impl FunctionRecord {
    /// Install `proto` unless it is another upload's snapshot (or one is
    /// installed already) — the one identity check, whether the proto was
    /// captured here, fetched from the tier or pushed by a pre-stage.
    fn install(&self, proto: ProtoRef) {
        let ours = (&proto.user, &proto.function, proto.generation)
            == (&self.user, &self.function, self.generation);
        if ours {
            let _ = self.proto.set(proto);
        }
    }
}

/// One FAASM runtime instance.
pub struct FaasmInstance {
    /// Weak self, so `&self` trait methods ([`ChainRouter`]) can reach the
    /// `Arc<Self>`-requiring execute path.
    me: Weak<FaasmInstance>,
    host_id: HostId,
    nic: Nic,
    kv: SharedKv,
    /// The function-side state cache, when enabled — the same object `kv`
    /// points at, kept concretely typed for its stats.
    cache: Option<Arc<CachedKv>>,
    /// The raw sharded tier client, *under* any function-side cache: the
    /// snapshot plane's chunk traffic rides this so immutable chunks are
    /// not buffered in the state cache as well (a page's host-local home is
    /// the [`SnapshotCache`], decoded).
    tier_kv: SharedKv,
    /// The host's one store of decoded, verified proto pages, shared by
    /// every proto version that names them.
    snap_cache: Arc<SnapshotCache>,
    /// Hands pre-stage manifests to the dedicated fetch thread so no worker
    /// blocks on chunk round-trips; holds at most [`PRESTAGE_QUEUE`] of
    /// them.
    prestage_tx: Sender<(String, String, Vec<u8>)>,
    /// The affinity board this host's calls report their cache hits to.
    boards: Arc<SchedBoards>,
    /// The cluster's one chooser, which places this host's chained calls.
    placer: Weak<Placer>,
    state: Arc<StateManager>,
    hostfs: Arc<HostFs>,
    registry: Arc<FunctionRegistry>,
    cgroup: Arc<CgroupCpu>,
    linker: Arc<Linker>,
    /// The one map keyed by `(user, function)`: this host's record of the
    /// function's current upload.
    records: Mutex<HashMap<(String, String), Arc<FunctionRecord>>>,
    /// The run queue, which is also the host's inbox: the fabric delivers
    /// this host's messages into it.
    queue_tx: Sender<Work>,
    queue_rx: Receiver<Work>,
    /// Calls accepted here that no worker has checked a Faaslet out for
    /// yet, counted in by [`send_calls`](Self::send_calls) (the sender's)
    /// or [`submit_placed`](Self::submit_placed): a call still on the
    /// fabric, in the queue or just taken off it holds its place, so
    /// placement never reads an idle Faaslet it is about to claim as free.
    unstarted: AtomicUsize,
    /// Completion slots of the calls made from this host, keyed by call id
    /// (store-unregistered: a result may beat its waiter here).
    pending: PendingMap<CallResult>,
    metrics: Arc<Metrics>,
    next_faaslet: AtomicU64,
    call_seq: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    /// Orders sends to this host against its shutdown: a sender, on this
    /// host or a peer, holds a read guard across its stop-check + send, and
    /// shutdown barriers on the write side after setting `stop` — so every
    /// message a sender managed to send is already in the NIC queue when
    /// shutdown's drain runs, and every later sender observes `stop` and
    /// fails fast. Without this, a sender descheduled between check and
    /// send could land a batch nobody will ever answer.
    shutdown_gate: RwLock<()>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: InstanceConfig,
}

impl std::fmt::Debug for FaasmInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasmInstance")
            .field("host", &self.host_id)
            .field("workers", &self.config.workers)
            .finish()
    }
}

impl FaasmInstance {
    /// Start an instance on a new fabric host. `routing` is the global
    /// tier's live routing cell: the instance routes every state key to its
    /// owning shard under the published epoch, and transparently follows
    /// epoch changes when the tier reshards. `cache` is the function-side
    /// state cache over the global tier (`None` = every read rides the
    /// wire): when set, the instance's `SharedKv` is a [`CachedKv`] and
    /// workers feed the scheduler's state-affinity board from per-call
    /// cache hits. `placer` is the cluster's chooser for chained calls.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        fabric: &Fabric,
        routing: &Arc<RoutingCell>,
        object_store: Arc<ObjectStore>,
        registry: Arc<FunctionRegistry>,
        call_seq: Arc<AtomicU64>,
        boards: Arc<SchedBoards>,
        placer: Weak<Placer>,
        config: InstanceConfig,
        cache: Option<CacheConfig>,
    ) -> Arc<FaasmInstance> {
        let (queue_tx, queue_rx) = unbounded();
        let inbox = queue_tx.clone();
        let nic = fabric.add_host_into(move |env| {
            inbox
                .send(Work::Msg(env))
                .map_err(|_| NetError::Disconnected)
        });
        let sharded: SharedKv =
            Arc::new(ShardedKvClient::connect(nic.clone(), Arc::clone(routing)));
        // The snapshot plane keeps the uncached handle: chunks are
        // content-addressed and their pages live in the page store, so the
        // function-side cache would only hold them a second time.
        let tier_kv = Arc::clone(&sharded);
        // The function-side cache interposes at the backend seam: state
        // entries and workloads all read through it unchanged.
        let (kv, cache): (SharedKv, Option<Arc<CachedKv>>) = match cache {
            Some(cc) => {
                let cached = Arc::new(CachedKv::new(sharded, cc));
                (Arc::clone(&cached) as SharedKv, Some(cached))
            }
            None => (sharded, None),
        };
        let state = Arc::new(StateManager::new(Arc::clone(&kv)));
        let hostfs = HostFs::new(object_store);
        let (prestage_tx, prestage_rx) = bounded(PRESTAGE_QUEUE);
        let instance = Arc::new_cyclic(|me| FaasmInstance {
            me: Weak::clone(me),
            host_id: nic.id(),
            nic,
            kv,
            cache,
            tier_kv,
            snap_cache: Arc::new(SnapshotCache::new(DEFAULT_SNAPSHOT_CACHE_BYTES)),
            prestage_tx,
            boards,
            placer,
            state,
            hostfs,
            registry,
            cgroup: CgroupCpu::new(CGROUP_TOLERANCE),
            linker: Arc::new(faaslet_linker()),
            records: Mutex::new(HashMap::new()),
            queue_tx,
            queue_rx,
            unstarted: AtomicUsize::new(0),
            pending: PendingMap::default(),
            metrics: Arc::new(Metrics::new()),
            next_faaslet: AtomicU64::new(1),
            call_seq,
            stop: Arc::new(AtomicBool::new(false)),
            shutdown_gate: RwLock::new(()),
            threads: Mutex::new(Vec::new()),
            config,
        });

        // Pre-stage fetcher: pulls pushed manifests' pages into the page
        // store off the workers.
        {
            let inst = Arc::clone(&instance);
            let handle = std::thread::Builder::new()
                .name(format!("{}-prestage", inst.host_id))
                .spawn(move || inst.prestage_loop(prestage_rx))
                .expect("spawn prestage thread");
            instance.threads.lock().push(handle);
        }
        // Workers ("each function is executed by a dedicated thread").
        for w in 0..instance.config.workers {
            let inst = Arc::clone(&instance);
            let handle = std::thread::Builder::new()
                .name(format!("{}-worker{}", inst.host_id, w))
                .stack_size(WORKER_STACK)
                .spawn(move || inst.worker_loop())
                .expect("spawn worker thread");
            instance.threads.lock().push(handle);
        }
        instance
    }

    /// This instance's host id on the fabric.
    pub fn host_id(&self) -> HostId {
        self.host_id
    }

    /// The host NIC.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// The global-tier client.
    pub fn kv(&self) -> &SharedKv {
        &self.kv
    }

    /// The function-side state cache, when enabled.
    pub fn cache(&self) -> Option<&Arc<CachedKv>> {
        self.cache.as_ref()
    }

    /// The snapshot plane's per-instance counters (fetches, verify
    /// failures, publish dedup, cache evictions).
    pub fn snapshot_stats(&self) -> SnapStatsSnapshot {
        self.snap_cache.stats().snapshot()
    }

    /// Whether this host already holds an assembled proto for a function
    /// (restores from here are pure local CoW mappings).
    pub fn has_proto(&self, user: &str, function: &str) -> bool {
        self.record(user, function)
            .is_ok_and(|rec| rec.proto.get().is_some())
    }

    /// Push `function`'s chunk manifest to `target` over the bus — the
    /// autoscaler's pre-stage step: the receiver pulls the pages into its
    /// page store *before* the first call lands, so its prewarmed
    /// Faaslets restore from warm bytes. Best-effort: `false` when no
    /// manifest is published yet or the send failed, which only costs the
    /// target the peer-fetch it would have saved.
    pub fn push_prestage(&self, user: &str, function: &str, target: HostId) -> bool {
        let Ok(Some(manifest)) = self.tier_kv.get(&manifest_key(user, function)) else {
            return false;
        };
        let msg = encode_msg(&InstanceMsg::PreStage {
            user: user.to_string(),
            function: function.to_string(),
            manifest,
        });
        self.nic.send(target, msg).is_ok()
    }

    /// The host's local state tier.
    pub fn state(&self) -> &Arc<StateManager> {
        &self.state
    }

    /// The host filesystem.
    pub fn hostfs(&self) -> &Arc<HostFs> {
        &self.hostfs
    }

    /// Runtime metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Idle warm Faaslets for a function.
    pub fn warm_count(&self, user: &str, function: &str) -> usize {
        self.idle_warmth(user, function).unwrap_or(0)
    }

    /// This host's warmth for a function as placement scores it
    /// ([`faasm_sched::Candidate::idle_warm`]): `None` when it holds no
    /// Faaslet for it, else how many are idle.
    pub fn idle_warmth(&self, user: &str, function: &str) -> Option<usize> {
        let rec = self.record(user, function).ok()?;
        let pool = rec.pool.lock();
        pool.warm.then(|| pool.idle.len())
    }

    /// [`idle_warmth`](Self::idle_warmth) and the calls still to claim a
    /// Faaslet of the function here, read together as placement scores
    /// them: the [`queue_depth`](Self::queue_depth), plus the function's
    /// calls running on a Faaslet built for them. A worker moves a call
    /// between the two only under the pool lock (see
    /// [`checkout`](Self::checkout)), so the pair changes when a call is
    /// placed here ([`accept`](Self::accept)) or a Faaslet comes back to
    /// the pool, not as the workers take up a burst: the burst spreads the
    /// same way on every run.
    pub fn warmth_and_depth(&self, user: &str, function: &str) -> (Option<usize>, usize) {
        match self.record(user, function) {
            Ok(rec) => self.load_of(&rec),
            Err(_) => (None, self.queue_depth()),
        }
    }

    fn load_of(&self, rec: &FunctionRecord) -> (Option<usize>, usize) {
        let pool = rec.pool.lock();
        let depth = self.queue_depth() + pool.building;
        (pool.warm.then(|| pool.idle.len()), depth)
    }

    /// Aggregate host memory: each idle Faaslet's private bytes + local
    /// state tier (every replica once, however many Faaslets map it) + file
    /// cache (the per-host footprint behind Fig. 6c and Tab. 3).
    pub fn host_memory_bytes(&self) -> usize {
        let mut pool_mem = 0;
        for rec in self.records.lock().values() {
            pool_mem += rec
                .pool
                .lock()
                .idle
                .iter()
                .map(Faaslet::private_bytes)
                .sum::<usize>();
        }
        pool_mem + self.state.local_bytes() + self.hostfs.cached_bytes()
    }

    /// Evict all warm Faaslets for a function (scale-down / tests).
    pub fn evict(&self, user: &str, function: &str) {
        if let Ok(rec) = self.record(user, function) {
            let mut pool = rec.pool.lock();
            pool.warm = false;
            pool.idle.clear();
        }
    }

    /// Evict the warm Faaslets of every function this host holds (scale to
    /// zero).
    pub fn evict_all(&self) {
        let functions: Vec<(String, String)> = self.records.lock().keys().cloned().collect();
        for (user, function) in functions {
            self.evict(&user, &function);
        }
    }

    /// Calls this host has accepted but not started executing: counted
    /// from the moment they are sent or queued here until a worker has
    /// checked a Faaslet out for them (taken an idle one, or begun to build
    /// one). The backpressure signal read by a chained call's local check
    /// and, with [`warmth_and_depth`](Self::warmth_and_depth), by
    /// [`Cluster::place`](crate::Cluster::place).
    pub fn queue_depth(&self) -> usize {
        self.unstarted.load(Ordering::SeqCst)
    }

    /// Whether [`shutdown`](Self::shutdown) has begun: a stopped instance
    /// answers every submit with an error, so placement skips it.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// This host's record of `user/function`'s current upload — every
    /// access to a function's Faaslets or proto starts here, once per call.
    /// A record built from an upload the registry has since replaced is
    /// dropped whole: its idle Faaslets and proto go with it, and Faaslets
    /// still out on calls follow when those calls return them to a record
    /// nothing can reach any more.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownFunction`] when nothing is registered.
    fn record(&self, user: &str, function: &str) -> Result<Arc<FunctionRecord>, CoreError> {
        let Some((def, generation)) = self.registry.get(user, function) else {
            return Err(CoreError::UnknownFunction {
                user: user.to_string(),
                function: function.to_string(),
            });
        };
        let key = (user.to_string(), function.to_string());
        let mut records = self.records.lock();
        if let Some(rec) = records.get(&key) {
            // `>`: a caller that read the registry before a re-upload may
            // arrive after the caller that read it afterwards.
            if rec.generation >= generation {
                return Ok(Arc::clone(rec));
            }
        }
        let rec = Arc::new(FunctionRecord {
            user: key.0.clone(),
            function: key.1.clone(),
            def,
            generation,
            proto: OnceLock::new(),
            resolve: Mutex::new(()),
            pool: Mutex::default(),
        });
        records.insert(key, Arc::clone(&rec));
        Ok(rec)
    }

    /// Enter `faaslet` into the record's idle pool, and take the `built`
    /// calls that ran on a Faaslet built for them off `building` under the
    /// same lock. The host is warm for the function from then on: a
    /// pre-warm makes it so here, a call's placement already did.
    fn pool_enter(&self, rec: &FunctionRecord, faaslet: Option<Faaslet>, built: usize) {
        let mut pool = rec.pool.lock();
        pool.warm = true;
        pool.idle.extend(faaslet);
        pool.building -= built;
    }

    /// Pre-warm up to `count` Faaslets for a function into the idle pool
    /// (the autoscaler hook): each is built through the normal Proto-Faaslet
    /// restore / cold-start path without running a call, so a later burst
    /// hits only warm starts. Returns how many were created.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownFunction`] or Faaslet construction errors, only
    /// when nothing could be built; a partial batch is reported as
    /// `Ok(created)`.
    pub fn prewarm(
        self: &Arc<Self>,
        user: &str,
        function: &str,
        count: usize,
    ) -> Result<usize, CoreError> {
        let rec = self.record(user, function)?;
        for created in 0..count {
            match self.build_faaslet(&rec) {
                Ok(faaslet) => self.pool_enter(&rec, Some(faaslet), 0),
                Err(e) if created == 0 => return Err(e),
                Err(_) => return Ok(created),
            }
        }
        Ok(count)
    }

    /// Retire up to `count` idle Faaslets for a function from the pool (the
    /// autoscaler's scale-down hook). The host is cold for the function once
    /// the pool empties. Returns how many were dropped.
    pub fn retire_idle(&self, user: &str, function: &str, count: usize) -> usize {
        let Ok(rec) = self.record(user, function) else {
            return 0;
        };
        let mut pool = rec.pool.lock();
        let n = count.min(pool.idle.len());
        let kept = pool.idle.len() - n;
        pool.idle.truncate(kept);
        // Retiring nothing must not cool a host whose Faaslets are merely
        // all busy.
        pool.warm &= n == 0 || kept > 0;
        n
    }

    /// The environment used to build Faaslets on this host.
    fn env(self: &Arc<Self>) -> FaasletEnv {
        FaasletEnv {
            state: Arc::clone(&self.state),
            hostfs: Arc::clone(&self.hostfs),
            nic: self.nic.clone(),
            router: Arc::clone(self) as Arc<dyn ChainRouter>,
            cgroup: Arc::clone(&self.cgroup),
            linker: Arc::clone(&self.linker),
            egress: self.config.egress,
        }
    }

    /// `n` calls accepted here have checked a Faaslet out, or been
    /// answered without one. Saturating: bytes that reached the run queue
    /// without a sender's `send_calls` (a guest socket can aim at a runtime
    /// host) must not wrap the count.
    fn leave_queue(&self, n: usize) {
        let _ = self
            .unstarted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some(t.saturating_sub(n))
            });
    }

    fn worker_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::Relaxed) {
            match self.queue_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(work) => self.take(work),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Do one item off the run queue: run a call, or decode a message.
    fn take(self: &Arc<Self>, work: Work) {
        let env = match work {
            Work::Call(q) => return self.execute(q),
            Work::Msg(env) => env,
        };
        match decode_msg(&env.payload) {
            Some(InstanceMsg::Result { result }) => self.pending.fulfill(result.id.0, result),
            // Placement sent these calls to this host, from the front door
            // or as a chain: queue the rest for the other workers and run
            // the first here.
            Some(InstanceMsg::InvokeBatch {
                calls,
                reply_to,
                sent_at_ns,
            }) => {
                let recorder = self.nic.recorder();
                let mut calls = calls.into_iter().map(|call| {
                    if !call.trace.is_none() {
                        // One bus-transit span per call: encode + send +
                        // queueing + decode, measured against the sender's
                        // stamp.
                        recorder.span(SpanKind::BusTransit, call.trace, sent_at_ns, 0);
                    }
                    QueuedCall { call, reply_to }
                });
                let first = calls.next();
                for q in calls {
                    let _ = self.queue_tx.send(Work::Call(q));
                }
                if let Some(q) = first {
                    self.execute(q);
                }
            }
            // Pre-staged manifests are handed to the dedicated fetcher, or
            // dropped if it is behind; the worker stays free for calls.
            Some(InstanceMsg::PreStage {
                user,
                function,
                manifest,
            }) => {
                let _ = self.prestage_tx.try_send((user, function, manifest));
            }
            // Non-protocol traffic (e.g. a guest socket aimed at a runtime
            // host) is dropped.
            None => {}
        }
    }

    /// Answer a call that will not run.
    fn refuse(&self, q: QueuedCall, error: String) {
        self.leave_queue(1);
        self.respond(CallResult::error(q.call.id, error), q.reply_to, 0);
    }

    fn execute(self: &Arc<Self>, q: QueuedCall) {
        // A stopped host answers what it is left with: shutdown's drain
        // comes through here.
        if self.is_stopped() {
            return self.refuse(q, "runtime shutting down".into());
        }
        let rec = match self.record(&q.call.user, &q.call.function) {
            Ok(rec) => rec,
            Err(e) => return self.refuse(q, e.to_string()),
        };
        // A container's result is an HTTP response, refusals included.
        let http = rec.def.code.http_overhead();
        let (mut faaslet, built) = match self.checkout(&rec) {
            Ok(checked_out) => checked_out,
            Err(e) => {
                return self.respond(
                    CallResult::error(q.call.id, e.to_string()),
                    q.reply_to,
                    http,
                )
            }
        };
        let t0 = Instant::now();
        let start_ns = self.nic.recorder().now_ns();
        // The worker-exec span is allocated *before* the run and installed
        // as the thread's active context, so every state pull/push, lock
        // wait and KVS request the Faaslet issues nests under it.
        let exec_ctx = self.nic.recorder().child(q.call.trace);
        // With a state cache, collect which keys the call's cache hits
        // touched: the per-function working set feeds the affinity board.
        let touch = self.cache.as_ref().map(|_| faasm_kvs::cache::touch_scope());
        let result = {
            let _tracing = faasm_telemetry::set_current(exec_ctx);
            faaslet.run(&q.call)
        };
        if let Some(scope) = touch {
            let touched = scope.finish();
            if !touched.is_empty() {
                self.boards
                    .report_affinity(&q.call.user, &q.call.function, self.host_id, &touched);
            }
        }
        let exec_ns = t0.elapsed().as_nanos() as u64;
        if !exec_ctx.is_none() {
            let (parent, extra) = (q.call.trace.span_id, q.call.id.0);
            let recorder = self.nic.recorder();
            recorder.close(SpanKind::WorkerExec, exec_ctx, parent, start_ns, extra);
        }
        self.metrics.record_call(
            exec_ns,
            faaslet.fuel_consumed(),
            faaslet.instrs_retired(),
            faaslet.pss_bytes(),
        );

        // Reset-after-call (multi-tenant hygiene, §5.2) from the record's
        // own proto (native guests have none), then back to its pool.
        let reset_ok =
            !rec.def.reset_after_call || faaslet.reset(rec.proto.get().map(Arc::as_ref)).is_ok();
        if reset_ok {
            // 0 for a Faaslet that is never reset.
            self.metrics.reset_bytes.add(faaslet.reset_bytes() as u64);
        }
        // Back to the pool (a Faaslet whose reset failed is dropped), and
        // off `building` if the call built it.
        self.pool_enter(&rec, reset_ok.then_some(faaslet), usize::from(built));
        self.respond(result, q.reply_to, http);
    }

    /// Obtain a Faaslet: warm pool first, then Proto-Faaslet restore, then
    /// full cold start (which also generates the function's proto), and
    /// whether it was built. The call leaves
    /// [`queue_depth`](Self::queue_depth) here, under the pool lock, in the
    /// step that takes an idle Faaslet or, with none, counts it among the
    /// pool's `building` until the Faaslet it builds enters the pool: for
    /// [`warmth_and_depth`](Self::warmth_and_depth) neither step moves.
    fn checkout(self: &Arc<Self>, rec: &FunctionRecord) -> Result<(Faaslet, bool), CoreError> {
        let warm = {
            let mut pool = rec.pool.lock();
            let faaslet = pool.idle.pop();
            if faaslet.is_none() {
                pool.building += 1;
            }
            self.leave_queue(1);
            faaslet
        };
        if let Some(f) = warm {
            self.metrics.record_start(StartKind::Warm, 0);
            return Ok((f, false));
        }
        self.build_faaslet(rec)
            .map(|f| (f, true))
            .inspect_err(|_| rec.pool.lock().building -= 1)
    }

    /// Build a fresh Faaslet (proto restore or cold start), bypassing the
    /// pool. Shared by the call path ([`checkout`](Self::checkout)) and the
    /// autoscaler's [`prewarm`](Self::prewarm).
    fn build_faaslet(self: &Arc<Self>, rec: &FunctionRecord) -> Result<Faaslet, CoreError> {
        let id = self.next_faaslet.fetch_add(1, Ordering::Relaxed);
        let env = self.env();
        if let GuestCode::Container(code) = &rec.def.code {
            // The other isolation mechanism: the container's code starts
            // it, and the runtime times, pools and bills it like a Faaslet.
            let t0 = Instant::now();
            let sandbox = code
                .cold_start(id, &rec.user, &rec.function, self)
                .map_err(CoreError::Instantiate)?;
            self.metrics
                .record_start(StartKind::Cold, t0.elapsed().as_nanos() as u64);
            let def = Arc::clone(&rec.def);
            return Ok(Faaslet::container(
                id,
                &rec.user,
                &rec.function,
                def,
                sandbox,
                &env,
            ));
        }
        let cold_start = || {
            let t0 = Instant::now();
            let f = Faaslet::create_cold(id, &rec.user, &rec.function, Arc::clone(&rec.def), &env)?;
            self.metrics
                .record_start(StartKind::Cold, t0.elapsed().as_nanos() as u64);
            Ok(f)
        };
        if matches!(rec.def.code, GuestCode::Native(_)) {
            return cold_start();
        }
        // Resolve order (§5.2 at cluster scale): the record's proto → chunk
        // fetch through the snapshot plane → cold start. The expensive
        // steps are double-checked under the record's resolve lock: whoever
        // takes it first fetches or captures while concurrent cold starts
        // wait on it and then find the proto installed, so a
        // barrier-released burst costs exactly one capture.
        let proto = match rec.proto.get() {
            Some(proto) => proto,
            None => {
                let _resolving = rec.resolve.lock();
                match rec.proto.get().or_else(|| self.fetch_proto(rec)) {
                    Some(proto) => proto,
                    None => {
                        // First cold start of this upload anywhere:
                        // instantiate, run init, capture and publish the
                        // proto (§5.2: generated as part of upload / first
                        // use, stored for cross-host restores).
                        let mut f = cold_start()?;
                        if let Some(proto) = f.capture_proto() {
                            let proto = Arc::new(ProtoFaaslet {
                                generation: rec.generation,
                                ..proto
                            });
                            self.publish_proto(&proto);
                            rec.install(proto);
                        }
                        return Ok(f);
                    }
                }
            }
        };
        let s0 = self.nic.recorder().now_ns();
        let t0 = Instant::now();
        let f = Faaslet::restore(id, proto, Arc::clone(&rec.def), &env)?;
        self.metrics
            .record_start(StartKind::ProtoRestore, t0.elapsed().as_nanos() as u64);
        let ctx = faasm_telemetry::current();
        if !ctx.is_none() {
            self.nic.recorder().span(SpanKind::ProtoRestore, ctx, s0, 0);
        }
        Ok(f)
    }

    /// Fetch the record's proto through the snapshot plane: manifest from
    /// the tier, then cache-checked chunk reads. `None` when nothing is
    /// published, the fetch failed, or the manifest — the plane's only
    /// mutable key — names another upload's proto: the caller cold-starts,
    /// and its publish overwrites the manifest.
    fn fetch_proto<'a>(&self, rec: &'a FunctionRecord) -> Option<&'a ProtoRef> {
        let published = self
            .tier_kv
            .get(&manifest_key(&rec.user, &rec.function))
            .ok()??;
        rec.install(self.fetch_by_manifest(&published)?);
        rec.proto.get()
    }

    /// Resolve every chunk a serialised manifest names — page store first,
    /// then one batched tier read for the meta chunk and the missing pages —
    /// and assemble the proto. A fetched chunk is verified against its
    /// digest, and a page is decoded once, into the store; a chunk missing,
    /// corrupt or not a page yields `None`, and the caller cold-starts. The
    /// digests vouch for the bytes, not for whose proto they are: a
    /// manifest is a mutable tier key or unauthenticated bus traffic, so
    /// the result goes through [`FunctionRecord::install`].
    fn fetch_by_manifest(&self, manifest: &[u8]) -> Option<ProtoRef> {
        let manifest = ProtoManifest::from_bytes(manifest)?;
        let stats = self.snap_cache.stats();
        stats.fetches.inc();
        let s0 = self.nic.recorder().now_ns();
        let mut pages = HashMap::new();
        // The meta chunk is never stored (it names its upload), so it always
        // rides the read. A pre-staged manifest's length is bounded only by
        // its message: dedupe in O(1) per digest.
        let mut missing = vec![manifest.meta];
        let mut seen = HashSet::from([manifest.meta]);
        for &d in &manifest.pages {
            if !seen.insert(d) {
                continue;
            }
            match self.snap_cache.get(&d) {
                Some(page) => {
                    stats.chunk_hits.inc();
                    pages.insert(d, page);
                }
                None => missing.push(d),
            }
        }
        let keys: Vec<String> = missing.iter().map(chunk_key).collect();
        let values = self.tier_kv.multi_get(&keys).ok()?;
        let v0 = self.nic.recorder().now_ns();
        let mut meta = None;
        for (d, value) in missing.iter().zip(values) {
            // A chunk not in the tier: evicted, or the manifest raced ahead
            // of its chunks.
            let Some(bytes) = value else { continue };
            if Digest::of(&bytes) != *d {
                // A corrupt chunk must also be deleted, not just skipped:
                // the publisher's exists-check would otherwise dedup
                // against the bad bytes forever. Deleting lets the next
                // publish repair it.
                stats.verify_failures.inc();
                let _ = self.tier_kv.del(&chunk_key(d));
                continue;
            }
            stats.chunks_fetched.inc();
            if *d == manifest.meta {
                meta = Some(bytes);
            } else if let Some(page) = self.snap_cache.insert_chunk(*d, &bytes) {
                pages.insert(*d, page);
            }
        }
        let (ctx, recorder) = (faasm_telemetry::current(), self.nic.recorder());
        if !ctx.is_none() {
            recorder.span(SpanKind::SnapshotVerify, ctx, v0, missing.len() as u64);
        }
        let pages = manifest
            .pages
            .iter()
            .map(|d| pages.get(d).map(Arc::clone))
            .collect::<Option<_>>()?;
        let proto = assemble_pages(&meta?, pages)?;
        if !ctx.is_none() {
            recorder.span(SpanKind::SnapshotFetch, ctx, s0, missing.len() as u64);
        }
        Some(Arc::new(proto))
    }

    /// Publish a captured proto as content-addressed chunks plus a manifest
    /// through the state tier. Chunks the tier already holds are skipped —
    /// pages identical across proto versions (or functions) ship once.
    /// Errors are swallowed: a failed publish only costs peers a cold
    /// start, never a corrupt restore (fetchers verify digests).
    fn publish_proto(&self, proto: &ProtoFaaslet) {
        let Ok(chunked) = chunk_proto(proto) else {
            // A snapshot section too large for the wire encoding stays
            // host-local: restores here still work from the record.
            return;
        };
        let stats = self.snap_cache.stats();
        for (d, bytes) in &chunked.chunks {
            let ck = chunk_key(d);
            if matches!(self.tier_kv.exists(&ck), Ok(true)) {
                stats.chunks_deduped.inc();
                stats.bytes_deduped.add(bytes.len() as u64);
            } else if self.tier_kv.set(&ck, (**bytes).clone()).is_ok() {
                stats.chunks_published.inc();
                stats.bytes_published.add(bytes.len() as u64);
            }
        }
        // Seed the page store with the proto's own pages, copying and
        // decoding nothing: the publisher is this function's hottest host.
        let pages = proto.snapshot.mem.iter().flat_map(|mem| mem.pages());
        for (d, page) in chunked.manifest.pages.iter().zip(pages) {
            self.snap_cache.insert(*d, Arc::clone(page));
        }
        let _ = self.tier_kv.set(
            &manifest_key(&proto.user, &proto.function),
            chunked.manifest.to_bytes(),
        );
    }

    fn prestage_loop(self: Arc<Self>, rx: Receiver<(String, String, Vec<u8>)>) {
        while !self.stop.load(Ordering::Relaxed) {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok((user, function, manifest)) => self.handle_prestage(&user, &function, &manifest),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Handle a pushed pre-stage manifest: fetch its pages into the page
    /// store and install the assembled proto, so the first call
    /// after a scale-up restores from warm local bytes. The record holds
    /// the proto without becoming warm.
    fn handle_prestage(&self, user: &str, function: &str, manifest: &[u8]) {
        self.snap_cache.stats().prestages.inc();
        let Ok(rec) = self.record(user, function) else {
            return;
        };
        if rec.proto.get().is_some() {
            return;
        }
        if let Some(proto) = self.fetch_by_manifest(manifest) {
            rec.install(proto);
        }
    }

    /// Send a call's result to `reply_to`, framed in `http` padding bytes
    /// when it has any: a container's HTTP response crosses the fabric even
    /// to a caller on this host.
    fn respond(&self, result: CallResult, reply_to: HostId, http: usize) {
        if reply_to == self.host_id && http == 0 {
            return self.pending.fulfill(result.id.0, result);
        }
        let msg = frame_msg(&InstanceMsg::Result { result }, http);
        let _ = self.nic.send(reply_to, msg);
    }

    /// Count `calls`, placed on this host, in its depth and mark it warm for
    /// each call's function. This runs on the placing thread before any
    /// worker can take them: a call placed here will hold a Faaslet here,
    /// an idle one or one it builds, so the next placement follows it here
    /// however far the workers have got.
    fn accept(&self, calls: &[CallSpec]) {
        for call in calls {
            let rec = self.record(&call.user, &call.function).ok();
            // Both under the pool lock, so placement reads them together. A
            // call for a function unknown here only counts, until refused.
            let mut pool = rec.as_ref().map(|rec| rec.pool.lock());
            if let Some(pool) = &mut pool {
                pool.warm = true;
            }
            self.unstarted.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Queue a call for execution on this instance, which the caller has
    /// already chosen: a chained call placed here, a test or a benchmark
    /// driving one host. Await with [`ChainRouter::await_call`].
    pub fn submit_placed(&self, user: &str, function: &str, input: Vec<u8>) -> CallId {
        let call = self.new_call(user, function, input);
        let id = call.id;
        let reply_to = self.host_id;
        self.accept(std::slice::from_ref(&call));
        let _ = self
            .queue_tx
            .send(Work::Call(QueuedCall { call, reply_to }));
        id
    }

    /// A call made from this host, awaited here: a fresh id registered with
    /// the pending table, in the caller's active trace context (so a chain's
    /// workers all nest under the ingress trace).
    fn new_call(&self, user: &str, function: &str, input: Vec<u8>) -> CallSpec {
        let id = CallId(self.call_seq.fetch_add(1, Ordering::Relaxed));
        self.pending.register(id.0);
        CallSpec {
            id,
            user: user.to_string(),
            function: function.to_string(),
            input,
            trace: faasm_telemetry::current(),
        }
    }

    /// Queue `calls` for execution on this instance as **one bus message**
    /// ([`InstanceMsg::InvokeBatch`]), placed already like a
    /// [`submit_placed`](Self::submit_placed) call. Each call's
    /// `on_complete` is invoked exactly once with its terminal result, from
    /// the worker that produced it — no thread parks per in-flight call, so
    /// an ingress dispatcher can return to draining immediately.
    ///
    /// Returns the assigned call ids, in input order.
    pub fn submit_placed_batch(&self, calls: Vec<PlacedCall>) -> Vec<CallId> {
        let specs: Vec<CallSpec> = calls
            .into_iter()
            .map(|call| {
                let id = CallId(self.call_seq.fetch_add(1, Ordering::Relaxed));
                // Register-before-fulfill: the callback must be in place
                // before any worker can deliver the result.
                self.pending.register_callback(id.0, call.on_complete);
                CallSpec {
                    id,
                    user: call.user,
                    function: call.function,
                    input: call.input,
                    trace: call.trace,
                }
            })
            .collect();
        let ids = specs.iter().map(|spec| spec.id).collect();
        self.send_calls(self, specs);
        ids
    }

    /// The one way a placed call reaches its host: send `calls`, already
    /// registered in this host's pending table, to `target` (a peer or this
    /// host) as one [`InstanceMsg::InvokeBatch`], their results coming back
    /// here. N calls cost one message-bus hop, and the fabric's byte
    /// counters see the real coordination cost. The message is
    /// [framed](frame_msg) in the HTTP padding of every container call in
    /// it, whichever door the call came in by. The calls count in
    /// `target`'s [`queue_depth`](Self::queue_depth) from here until a
    /// worker there has checked a Faaslet out for each, and `target`'s
    /// shutdown gate guarantees that if the send happens, it happens before
    /// shutdown's drain (which answers it), and that a stop observed here
    /// is final: no call is lost.
    fn send_calls(&self, target: &FaasmInstance, calls: Vec<CallSpec>) {
        let mut sent = Vec::with_capacity(calls.len());
        let mut http = 0;
        for call in calls {
            // A call whose encoding would wrap the batch codec's u32
            // length prefix corrupts the whole message (the receiver drops
            // it, losing every call in the batch): fail just this call
            // fast instead. 24 bytes cover the id and length prefixes.
            let encoded = call
                .user
                .len()
                .saturating_add(call.function.len())
                .saturating_add(call.input.len())
                .saturating_add(24);
            if encoded > u32::MAX as usize {
                let error = CallResult::error(call.id, "call too large for batch submit");
                self.pending.fulfill(call.id.0, error);
                continue;
            }
            http += self
                .registry
                .get(&call.user, &call.function)
                .map_or(0, |(def, _)| def.code.http_overhead());
            sent.push(call);
        }
        if sent.is_empty() {
            return;
        }
        let ids: Vec<CallId> = sent.iter().map(|call| call.id).collect();
        target.accept(&sent);
        let msg = frame_msg(
            &InstanceMsg::InvokeBatch {
                calls: sent,
                reply_to: self.host_id,
                sent_at_ns: self.nic.recorder().now_ns(),
            },
            http,
        );
        let failed = {
            let _sending = target.shutdown_gate.read();
            target.is_stopped() || self.nic.send(target.host_id, msg).is_err()
        };
        if failed {
            target.leave_queue(ids.len());
            // Target shutting down or its fabric host gone: it will never
            // run these, so answer every call now.
            for id in ids {
                self.pending
                    .fulfill(id.0, CallResult::error(id, "runtime shutting down"));
            }
        }
    }

    /// Direct (test/benchmark) entry: run a call on this instance and wait.
    pub fn invoke_local(&self, user: &str, function: &str, input: Vec<u8>) -> CallResult {
        let id = self.submit_placed(user, function, input);
        self.await_call(id)
    }

    /// Stop threads and drop pooled Faaslets. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Barrier against in-flight batch submitters: once the write guard
        // is acquired, every submitter has either finished its send (the
        // message is in the NIC queue, the drain below answers it) or will
        // observe `stop` under the read guard and fail its batch fast.
        drop(self.shutdown_gate.write());
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        // Shutdown can run on one of these threads — a completion callback
        // on a worker releasing the last `Arc<Cluster>` — and a thread
        // cannot join itself; it exits on its own once it sees `stop`.
        let me = std::thread::current().id();
        for h in handles.into_iter().filter(|h| h.thread().id() != me) {
            let _ = h.join();
        }
        // Answer everything the stopped threads will never execute: calls
        // still in the run queue, and the batches and results the fabric
        // delivered there. Taken as a worker takes them, a call is refused
        // and a result fulfilled. Without this, completion callbacks
        // registered by batch submitters never fire — a gateway would leak
        // its in-flight slots and wedge once enough accumulated.
        if let Some(me) = self.me.upgrade() {
            while let Ok(work) = self.queue_rx.try_recv() {
                me.take(work);
            }
        }
        // Break the Arc cycle (pool faaslets hold the instance as router).
        self.records.lock().clear();
    }
}

impl ChainRouter for FaasmInstance {
    /// A chained call (§5.1) from a Faaslet or a container on this host. A
    /// Faaslet's call that can run warm here — an idle Faaslet, a shallow
    /// run queue — is queued here without asking anyone. Any other call is
    /// placed by the cluster's one chooser: queued here when it picks this
    /// host, [sent](Self::send_calls) to the host it picks otherwise. A
    /// container's call is always placed and always sent, framed in its
    /// HTTP padding, even to this host.
    fn chain_call(&self, user: &str, function: &str, input: Vec<u8>) -> CallId {
        let container = self
            .registry
            .get(user, function)
            .is_some_and(|(def, _)| matches!(def.code, GuestCode::Container(_)));
        if !container {
            let idle = self.warm_count(user, function);
            if runs_warm_local(idle, idle, self.queue_depth()) {
                return self.submit_placed(user, function, input);
            }
        }
        let placer = self.placer.upgrade();
        let placed = placer.and_then(|placer| placer.place(user, function, Some(self.host_id)));
        if placed
            .as_ref()
            .is_some_and(|host| host.host_id == self.host_id && !container)
        {
            return self.submit_placed(user, function, input);
        }
        let call = self.new_call(user, function, input);
        let id = call.id;
        match placed {
            Some(target) => self.send_calls(&target, vec![call]),
            None => self
                .pending
                .fulfill(id.0, CallResult::error(id, "no reachable instances")),
        }
        id
    }

    fn await_call(&self, id: CallId) -> CallResult {
        // Help with the run queue while waiting, so chains deeper than the
        // worker pool cannot deadlock and a waiting worker still decodes the
        // results its host is sent. Requires Arc self for take(); waiting
        // paths that cannot help fall back to blocking.
        let mut nap = AWAIT_NAP;
        loop {
            if let Some(r) = self.pending.try_take(id.0) {
                return r;
            }
            if let Ok(work) = self.queue_rx.try_recv() {
                if let Some(me) = self.me.upgrade() {
                    me.take(work);
                    nap = AWAIT_NAP;
                    continue;
                }
                // No Arc available (cannot happen in practice): put the
                // work back and block.
                let _ = self.queue_tx.send(work);
            }
            if let Some(r) = self.pending.wait(id.0, nap) {
                return r;
            }
            nap = (nap * 2).min(AWAIT_NAP_MAX);
            if self.stop.load(Ordering::Relaxed) {
                return CallResult::error(id, "runtime shutting down");
            }
        }
    }
}

#[cfg(test)]
impl FaasmInstance {
    /// The host's assembled proto, captured here or fetched.
    pub(crate) fn proto(&self, user: &str, function: &str) -> Option<ProtoRef> {
        self.record(user, function)
            .ok()?
            .proto
            .get()
            .map(Arc::clone)
    }

    /// The chunk manifest of the host's assembled proto — for bitwise
    /// parity checks between a locally-captured and a chunk-fetched proto
    /// (the manifest digests every byte of the meta chunk and of each page).
    pub(crate) fn proto_manifest(&self, user: &str, function: &str) -> Option<ProtoManifest> {
        let proto = self.proto(user, function)?;
        Some(chunk_proto(&proto).ok()?.manifest)
    }

    /// Resident bytes held by the host's page store.
    pub(crate) fn page_store_bytes(&self) -> usize {
        self.snap_cache.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};

    /// A manifest is unauthenticated bus traffic whose length is bounded
    /// only by its message: one that names thousands of unpublished chunks,
    /// each many times over, costs one tier read per distinct digest and
    /// yields no proto.
    #[test]
    fn a_manifest_of_repeated_missing_digests_asks_the_tier_once_per_digest() {
        let cluster = Cluster::new(1);
        let host = &cluster.instances()[0];
        let distinct: Vec<Digest> = (0u32..4_000)
            .map(|i| Digest::of(&i.to_le_bytes()))
            .collect();
        let manifest = ProtoManifest {
            meta: distinct[1],
            pages: distinct
                .iter()
                .cycle()
                .take(5 * distinct.len())
                .copied()
                .collect(),
        };
        let before = cluster.telemetry();
        assert!(host.fetch_by_manifest(&manifest.to_bytes()).is_none());
        let after = cluster.telemetry().delta(&before);
        assert_eq!(
            after.get("state-shard", "batched_items"),
            distinct.len() as u64,
            "one key per distinct digest"
        );
        assert_eq!(after.get("snapdist", "chunk_hits"), 0);
        assert_eq!(after.get("snapdist", "chunks_fetched"), 0);
    }

    /// Workers hand pre-stages to the fetch thread through a bounded
    /// queue: while the fetcher is stuck on one, a flood leaves the queue
    /// full — the cap, or one less if the fetcher took its one last — and
    /// the rest dropped.
    #[test]
    fn a_prestage_flood_holds_at_most_the_queue_cap() {
        // One worker, so the host's messages are decoded in order.
        let cluster = Cluster::with_config(ClusterConfig {
            hosts: 1,
            instance: InstanceConfig {
                workers: 1,
                ..InstanceConfig::default()
            },
            ..ClusterConfig::default()
        });
        let host = &cluster.instances()[0];
        let options = crate::UploadOptions::default();
        let f = "int main() { return 0; }";
        cluster.upload_fl("u", "f", f, options).unwrap();
        let sender = cluster.add_fabric_host();
        let prestage = encode_msg(&InstanceMsg::PreStage {
            user: "u".into(),
            function: "f".into(),
            manifest: Vec::new(),
        });
        // The fetcher parks on the records lock with at most one pre-stage.
        let records = host.records.lock();
        for _ in 0..4 * PRESTAGE_QUEUE {
            sender.send(host.host_id(), prestage.clone()).unwrap();
        }
        // The worker decodes its messages in order: once this result lands,
        // it has handed on or dropped every pre-stage before it.
        let marker = CallId(u64::MAX);
        host.pending.register(marker.0);
        let result = encode_msg(&InstanceMsg::Result {
            result: CallResult::error(marker, "marker"),
        });
        sender.send(host.host_id(), result).unwrap();
        assert!(host
            .pending
            .wait(marker.0, Duration::from_secs(10))
            .is_some());
        let queued = host.prestage_tx.len();
        let taken = host.snapshot_stats().prestages as usize;
        assert!(queued <= PRESTAGE_QUEUE && queued + 1 >= PRESTAGE_QUEUE);
        assert!(
            queued + taken <= PRESTAGE_QUEUE + 1,
            "the rest were dropped"
        );
        drop(records);
    }

    /// Spin until `done` holds; fail after a real-time bound.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::yield_now();
        }
    }

    /// Placement's reading of a host (`warmth_and_depth`) moves when a call
    /// is placed there and when a Faaslet comes back to the pool: not when a
    /// worker takes the call off the queue, takes an idle Faaslet for it or
    /// builds one, so a burst placed while the workers take it up spreads
    /// the same way however far they got. The worker is first held at the
    /// records lock after taking the call off the queue, where a depth that
    /// counted only the queue would already have dropped. A warm call and a
    /// cold one alike.
    #[test]
    fn placement_reads_a_call_the_same_until_its_faaslet_comes_back() {
        use faasm_sched::Candidate;

        let score = |(idle_warm, depth): (Option<usize>, usize)| {
            let candidate = Candidate {
                idle_warm,
                depth,
                affinity: 0,
            };
            candidate.score()
        };
        for prewarmed in [1, 0] {
            let cluster = Cluster::new(1);
            let host = &cluster.instances()[0];
            let options = crate::UploadOptions::default();
            let gated = crate::cluster::tests::GATED;
            cluster.upload_fl("u", "f", gated, options).unwrap();
            host.prewarm("u", "f", prewarmed).unwrap();
            let rec = host.record("u", "f").unwrap();
            let load = || host.load_of(&rec);

            // `submit_placed` in its two steps, so that the worker taking
            // the call finds the records lock held.
            let call = host.new_call("u", "f", Vec::new());
            let id = call.id;
            host.accept(std::slice::from_ref(&call));
            assert_eq!(load(), (Some(prewarmed), 1), "accepted: warm, one call");
            let accepted = score(load());
            let records = host.records.lock();
            let reply_to = host.host_id;
            let queued = Work::Call(QueuedCall { call, reply_to });
            host.queue_tx.send(queued).unwrap();
            wait_until("a worker takes the call", || host.queue_rx.is_empty());
            assert_eq!(score(load()), accepted, "taken, but not yet started");
            drop(records);
            wait_until("the call starts on its Faaslet", || {
                assert_eq!(score(load()), accepted, "on its way to the Faaslet");
                cluster.kv().get("go").unwrap().is_some()
            });
            assert_eq!(score(load()), accepted, "running on the Faaslet");
            assert_eq!(host.queue_depth(), 0, "checked out: no longer queued");
            cluster.kv().set("open", vec![1; 4]).unwrap();
            assert_eq!(host.await_call(id).return_code(), 0);
            assert_eq!(load(), (Some(1), 0), "its Faaslet back in the pool");
        }
    }

    /// Co-located native Faaslets share one mapped replica (§4, Fig. 6), so
    /// an idle Faaslet that mapped it adds only its own base to the host's
    /// footprint, not another copy of the replica.
    #[test]
    fn host_memory_counts_a_mapped_replica_once_however_many_faaslets_map_it() {
        use crate::faaslet::NATIVE_BASE_BYTES;
        use crate::{NativeApi, NativeGuest};
        use faasm_mem::BLOCK_SIZE;

        let cluster = Cluster::new(1);
        let host = &cluster.instances()[0];
        let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
            let entry = api
                .state("shared", 8 * BLOCK_SIZE)
                .map_err(faasm_fvm::Trap::host)?;
            entry
                .write(0, &[7; 8 * BLOCK_SIZE])
                .map_err(faasm_fvm::Trap::host)?;
            Ok(0)
        });
        cluster.register_native("it", "map", guest);
        let rec = host.record("it", "map").unwrap();
        for n in 0..4 {
            let mut faaslet = host.build_faaslet(&rec).unwrap();
            let result = faaslet.run(&CallSpec {
                id: CallId(n),
                user: "it".into(),
                function: "map".into(),
                input: Vec::new(),
                trace: TraceCtx::NONE,
            });
            assert_eq!(result.return_code(), 0, "{:?}", result.status);
            assert_eq!(
                faaslet.rss_bytes(),
                NATIVE_BASE_BYTES as usize + 8 * BLOCK_SIZE
            );
            host.pool_enter(&rec, Some(faaslet), 0);
        }
        assert_eq!(
            host.host_memory_bytes(),
            4 * NATIVE_BASE_BYTES as usize + 8 * BLOCK_SIZE
        );
    }
}
