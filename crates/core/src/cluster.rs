//! The FAASM cluster: runtime instances + global tier + upload service.
//!
//! Mirrors the deployment of §5/§6.1: N runtime instances (one per host),
//! a distributed KVS for the global state tier, a shared object store for
//! uploaded code and Proto-Faaslets, and the one chooser: [`Cluster::place`]
//! scores the live hosts for every call. An ingress call is handed to the
//! chosen instance's batched placed-submit path, completing through a
//! callback; a chained call is queued on, or sent to, the chosen host.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use faasm_fvm::{ExportKind, ObjectModule};
use faasm_kvs::{
    reshard, KvError, KvServer, RoutingCell, RoutingTable, ShardStats, ShardedKvClient, SharedKv,
};
use faasm_net::{Fabric, HostId};
use faasm_sched::{entry_for, CallId, CallResult, Candidate};
use faasm_telemetry::{Clock, Telemetry};
use faasm_vfs::ObjectStore;
use parking_lot::Mutex;

use crate::error::CoreError;
use crate::guest::{FunctionDef, FunctionRegistry, GuestCode, NativeGuest};
use crate::instance::{FaasmInstance, InstanceConfig, PlacedCall};
use crate::pending::PendingMap;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of runtime instances (hosts).
    pub hosts: usize,
    /// Global-tier shard servers: each state key (value, counters, locks,
    /// proto chunks) lives on exactly one shard, chosen by rendezvous
    /// hashing.
    /// 1 reproduces the paper's single-server tier.
    pub state_shards: usize,
    /// Replicas per state key (primary included): the key's top-R
    /// rendezvous-ranked shards. Writes ack only after every backup
    /// replica applied them, so a dead shard's keys promote onto their
    /// first backup with no acknowledged write lost (a liveness monitor
    /// drives the failover epoch automatically). 1 — the default —
    /// reproduces the unreplicated tier exactly.
    pub replication_factor: usize,
    /// Per-instance configuration.
    pub instance: InstanceConfig,
    /// Per-instance function-side state cache budget in bytes; 0 disables
    /// caching entirely (every read rides the wire — the pre-cache
    /// behaviour, and the default).
    pub cache_bytes: usize,
    /// Consistency mode of every instance's cache, for all of its keys
    /// (only meaningful when `cache_bytes > 0`).
    pub default_consistency: faasm_kvs::Consistency,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            hosts: 2,
            state_shards: 1,
            replication_factor: 1,
            instance: InstanceConfig::default(),
            cache_bytes: 0,
            default_consistency: faasm_kvs::Consistency::ReadYourWrites,
        }
    }
}

/// KVS server worker threads per state shard.
const KVS_WORKERS: usize = 2;

/// How long [`Cluster::invoke`] and [`Cluster::await_result`] wait for a
/// call before answering it with an error.
pub const INVOKE_TIMEOUT: Duration = Duration::from_secs(60);

/// Options for uploading a function. An upload's entry export is `main`,
/// and its Faaslets are reset from the Proto-Faaslet after every call
/// (§5.2).
#[derive(Debug, Clone, Default)]
pub struct UploadOptions {
    /// Initialisation export run before the Proto-Faaslet snapshot.
    pub init: Option<String>,
}

/// A running FAASM cluster.
pub struct Cluster {
    fabric: Fabric,
    kvs: Mutex<Vec<KvServer>>,
    /// The global tier's live routing table, shared with every instance's
    /// and driver's sharded client — publishing here redirects the whole
    /// cluster after a reshard.
    routing: Arc<RoutingCell>,
    /// Serialises reshard operations (one epoch change at a time); shared
    /// with the liveness monitor so an automatic failover and a manual
    /// reshard cannot race.
    reshard_lock: Arc<Mutex<()>>,
    /// The liveness monitor and its stop signal: dropping the sender
    /// stops it at once.
    monitor: Mutex<Option<(Sender<()>, std::thread::JoinHandle<()>)>>,
    coord_nic: faasm_net::Nic,
    object_store: Arc<ObjectStore>,
    placer: Arc<Placer>,
    /// Results of [`Cluster::invoke_async`] calls, parked by their
    /// completion callbacks for [`Cluster::await_result`].
    gateway_pending: Arc<PendingMap<CallResult>>,
    driver_kv: SharedKv,
    call_seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.placer.instances.len())
            .finish()
    }
}

/// The one instance chooser: the cluster's instances and what ranking them
/// reads. The cluster owns it and places ingress calls with it; each
/// instance holds it by `Weak` to place its chained calls, so no `Arc`
/// cycle outlives the cluster.
pub(crate) struct Placer {
    instances: Vec<Arc<FaasmInstance>>,
    registry: Arc<FunctionRegistry>,
    /// The affinity board: every instance reports to it, placement reads it.
    boards: Arc<faasm_sched::SchedBoards>,
    /// Seed for the rotation among equally-scored hosts.
    rotation: AtomicUsize,
}

impl Placer {
    /// Choose the instance for one call. Live hosts are ranked by the
    /// scheduler's one [score](Candidate::score): the warmth and run queue
    /// each host's pool reports, and the affinity board.
    /// Among equals `caller` wins when it is one of them (a chained call
    /// nobody is better placed for starts where it was made, as in §5.1),
    /// and otherwise the rotation takes them in turn. Stopped instances are
    /// never chosen, and `None` means none is left.
    ///
    /// A container function is routed the way Knative's ingress routes,
    /// blind to state, queues and the caller: every candidate is the
    /// default one — no warmth, depth or affinity — so every live host ties
    /// and the rotation takes them in turn.
    pub(crate) fn place(
        &self,
        user: &str,
        function: &str,
        caller: Option<HostId>,
    ) -> Option<Arc<FaasmInstance>> {
        let live: Vec<&Arc<FaasmInstance>> =
            self.instances.iter().filter(|i| !i.is_stopped()).collect();
        let code = self.registry.get(user, function).map(|(def, _)| def);
        let (candidates, prefer) = match code.as_ref().map(|def| &def.code) {
            Some(GuestCode::Container(_)) => (vec![Candidate::default(); live.len()], None),
            _ => {
                let hosts: Vec<HostId> = live.iter().map(|i| i.host_id()).collect();
                let affinity = self.boards.affinities(user, function, &hosts);
                let candidates: Vec<Candidate> = live
                    .iter()
                    .map(|i| {
                        let (idle_warm, depth) = i.warmth_and_depth(user, function);
                        Candidate {
                            idle_warm,
                            depth,
                            affinity: entry_for(&affinity, i.host_id()),
                        }
                    })
                    .collect();
                let prefer = caller.and_then(|c| hosts.iter().position(|&h| h == c));
                (candidates, prefer)
            }
        };
        let seed = self.rotation.fetch_add(1, Ordering::Relaxed);
        faasm_sched::best(&candidates, seed, prefer).map(|i| Arc::clone(live[i]))
    }
}

impl Cluster {
    /// Start a cluster with `hosts` instances and default settings.
    pub fn new(hosts: usize) -> Cluster {
        Cluster::with_config(ClusterConfig {
            hosts,
            ..ClusterConfig::default()
        })
    }

    /// Start a cluster from explicit configuration, on a real clock.
    pub fn with_config(config: ClusterConfig) -> Cluster {
        Cluster::with_clock(config, Clock::real())
    }

    /// Start a cluster whose leases, deadlines, TTLs, guest `gettime` and
    /// span stamps read `clock` (a test's [`Clock::manual`] moves only when
    /// the test advances it).
    pub fn with_clock(config: ClusterConfig, clock: Clock) -> Cluster {
        let fabric = Fabric::with_clock(clock);
        // The global tier: one fabric host per shard server, each routed
        // (it checks key ownership and speaks the resharding protocol). A
        // replicated tier gives every shard a second host for inbound
        // replica traffic, served by workers that never issue outbound
        // quorum calls.
        let shards = config.state_shards.max(1);
        let replication = config.replication_factor.clamp(1, shards);
        let (kvs, routing) = reshard::start_tier(&fabric, shards, replication, KVS_WORKERS);
        let object_store = Arc::new(ObjectStore::new());
        let registry = Arc::new(FunctionRegistry::new());
        let call_seq = Arc::new(AtomicU64::new(1));

        let boards = Arc::new(faasm_sched::SchedBoards::new());
        // `cache_bytes` turns the function-side state cache on for every
        // instance.
        let cache = (config.cache_bytes > 0).then_some(faasm_kvs::CacheConfig {
            max_bytes: config.cache_bytes,
            default_consistency: config.default_consistency,
        });
        let placer = Arc::new_cyclic(|placer: &Weak<Placer>| Placer {
            instances: (0..config.hosts.max(1))
                .map(|_| {
                    FaasmInstance::start(
                        &fabric,
                        &routing,
                        Arc::clone(&object_store),
                        Arc::clone(&registry),
                        Arc::clone(&call_seq),
                        Arc::clone(&boards),
                        Weak::clone(placer),
                        config.instance.clone(),
                        cache.clone(),
                    )
                })
                .collect(),
            registry,
            boards,
            rotation: AtomicUsize::new(0),
        });

        let driver_nic = fabric.add_host();
        let driver_kv: SharedKv = Arc::new(ShardedKvClient::connect(
            driver_nic.clone(),
            Arc::clone(&routing),
        ));

        let reshard_lock = Arc::new(Mutex::new(()));
        let monitor = (replication > 1).then(|| {
            let nic = fabric.add_host();
            let cell = Arc::clone(&routing);
            let lock = Arc::clone(&reshard_lock);
            let (stop_tx, stop) = bounded(0);
            let thread = std::thread::Builder::new()
                .name("state-liveness".into())
                .spawn(move || liveness_monitor(&nic, &cell, &lock, &stop))
                .expect("spawn liveness monitor");
            (stop_tx, thread)
        });

        Cluster {
            fabric,
            kvs: Mutex::new(kvs),
            routing,
            reshard_lock,
            monitor: Mutex::new(monitor),
            coord_nic: driver_nic,
            object_store,
            placer,
            gateway_pending: Arc::new(PendingMap::default()),
            driver_kv,
            call_seq,
        }
    }

    /// Upload an FL source function: the untrusted compile on "the user's
    /// machine", then the trusted decode + validate + codegen of §3.4.
    ///
    /// # Errors
    ///
    /// [`CoreError::Compile`] / [`CoreError::BadEntry`].
    pub fn upload_fl(
        &self,
        user: &str,
        function: &str,
        source: &str,
        options: UploadOptions,
    ) -> Result<(), CoreError> {
        let module = faasm_lang::compile(source).map_err(|e| CoreError::Compile(e.to_string()))?;
        let bytes = faasm_fvm::encode_module(&module);
        self.upload_module(user, function, &bytes, options)
    }

    /// Upload an encoded module binary (the paper's upload service: validate,
    /// generate object code, write to the shared object store).
    ///
    /// # Errors
    ///
    /// [`CoreError::Compile`] on validation failure, [`CoreError::BadEntry`]
    /// if the entry/init exports are missing or ill-typed.
    pub fn upload_module(
        &self,
        user: &str,
        function: &str,
        bytes: &[u8],
        options: UploadOptions,
    ) -> Result<(), CoreError> {
        let object = ObjectModule::compile(bytes).map_err(|e| CoreError::Compile(e.to_string()))?;
        self.register(
            user,
            function,
            FunctionDef {
                code: GuestCode::Fvm(object),
                entry: "main".into(),
                init: options.init,
                reset_after_call: true,
            },
        )
    }

    /// Register a trusted native guest: host-compiled code run inside a
    /// Faaslet with the same state, chaining and accounting as an FVM guest.
    /// Its Faaslet is not reset between calls.
    pub fn register_native(&self, user: &str, function: &str, guest: Arc<dyn NativeGuest>) {
        let def = FunctionDef {
            code: GuestCode::Native(guest),
            entry: "main".into(),
            init: None,
            reset_after_call: false,
        };
        self.register(user, function, def)
            .expect("a native guest has no exports to check");
    }

    /// Deploy `def` as `user/function` — the one way a function enters the
    /// cluster, each time as a **new upload**: no call placed after this
    /// returns uses what hosts hold of an earlier one (warm Faaslets, its
    /// Proto-Faaslet, its manifest in the tier). FVM code has its exports
    /// checked and its object file put in the shared store (what hosts
    /// would fetch in a multi-process deployment).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadEntry`] if an FVM module's entry/init export is
    /// missing or ill-typed.
    pub fn register(&self, user: &str, function: &str, def: FunctionDef) -> Result<(), CoreError> {
        if let GuestCode::Fvm(object) = &def.code {
            check_entry(object, &def.entry)?;
            if let Some(init) = &def.init {
                check_entry(object, init)?;
            }
            self.object_store
                .put(&format!("shared/obj/{user}/{function}"), object.to_bytes());
        }
        self.placer.registry.insert(user, function, def);
        Ok(())
    }

    /// Invoke a function and wait for its result.
    pub fn invoke(&self, user: &str, function: &str, input: Vec<u8>) -> CallResult {
        let id = self.invoke_async(user, function, input);
        self.await_result(id)
    }

    /// Invoke asynchronously; returns the call id. The call is
    /// [placed](Self::place) and batch-submitted to the chosen instance; its
    /// completion callback parks the result for
    /// [`await_result`](Self::await_result).
    pub fn invoke_async(&self, user: &str, function: &str, input: Vec<u8>) -> CallId {
        let Some(instance) = self.placer.place(user, function, None) else {
            let id = CallId(self.call_seq.fetch_add(1, Ordering::Relaxed));
            self.gateway_pending
                .fulfill(id.0, CallResult::error(id, "no reachable instances"));
            return id;
        };
        let pending = Arc::clone(&self.gateway_pending);
        let ids = instance.submit_placed_batch(vec![PlacedCall {
            user: user.to_string(),
            function: function.to_string(),
            input,
            // Front-door calls root a fresh trace (unless the caller is
            // itself traced, e.g. a test following one call end to end).
            trace: match faasm_telemetry::current() {
                ctx if ctx.is_none() => self.fabric.recorder().root(),
                ctx => ctx,
            },
            on_complete: Box::new(move |result| pending.fulfill(result.id.0, result)),
        }]);
        ids[0]
    }

    /// Choose the instance for one call — the only instance chooser: used
    /// by [`invoke_async`](Self::invoke_async), the gateway's dispatchers
    /// and every instance's chained calls alike. Live hosts are ranked by
    /// the scheduler's one [score](Candidate::score), rotating among
    /// equals; stopped instances are never chosen, and `None` means none is
    /// left.
    pub fn place(&self, user: &str, function: &str) -> Option<Arc<FaasmInstance>> {
        self.placer.place(user, function, None)
    }

    /// Simulate the failure of instance `idx`: its fabric host disappears
    /// and its threads stop. Calls queued there are answered with an error;
    /// [`place`](Self::place) sends new ones to the survivors.
    pub fn kill_instance(&self, idx: usize) {
        let Some(instance) = self.placer.instances.get(idx) else {
            return;
        };
        self.fabric.remove_host(instance.host_id());
        instance.shutdown();
    }

    /// Wait for an asynchronous invocation.
    pub fn await_result(&self, id: CallId) -> CallResult {
        self.gateway_pending
            .wait(id.0, INVOKE_TIMEOUT)
            .unwrap_or_else(|| CallResult::error(id, "invocation timed out"))
    }

    /// The cluster fabric (byte accounting lives here).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Register a fresh host on the cluster fabric and return its NIC —
    /// how out-of-process tiers join the cluster network: a gateway
    /// server binds its service loop to one of these, and remote ingress
    /// clients connect from their own.
    pub fn add_fabric_host(&self) -> faasm_net::Nic {
        self.fabric.add_host()
    }

    /// The shared object store.
    pub fn object_store(&self) -> &Arc<ObjectStore> {
        &self.object_store
    }

    /// A driver-side KVS client (dataset upload, state initialisation),
    /// routing over every state shard and following routing epochs.
    pub fn kv(&self) -> &SharedKv {
        &self.driver_kv
    }

    /// The global tier's shard servers (test/metric inspection). Holds the
    /// tier lock while the guard lives — don't hold it across a reshard.
    pub fn state_shards(&self) -> parking_lot::MutexGuard<'_, Vec<KvServer>> {
        self.kvs.lock()
    }

    /// How many shards currently serve the global tier (live slots only).
    pub fn state_shard_count(&self) -> usize {
        self.routing.load().live_count()
    }

    /// The tier's routing cell (shared with every consumer; out-of-process
    /// tools connect their own `ShardedKvClient` through it).
    pub fn state_routing(&self) -> &Arc<RoutingCell> {
        &self.routing
    }

    /// Per-shard load reports (key count, value bytes, per-op counters) in
    /// shard-index order — the migration planner's skew signal.
    ///
    /// # Errors
    ///
    /// [`KvError`] when a shard cannot be reached.
    pub fn state_shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        self.driver_kv.shard_stats()
    }

    /// Grow the global tier by one shard, live: boots a new `KvServer`
    /// fabric host routed at the next epoch, drives the epoch-bumped
    /// migration (freeze → handoff → commit) and publishes the new routing
    /// table. Requests in flight during the migration are redirected via
    /// `WrongEpoch`, never lost. Returns the new shard count.
    ///
    /// # Errors
    ///
    /// [`KvError`] when migration fails; the tier is rolled back to the old
    /// table and the new server is torn down.
    pub fn add_state_shard(&self) -> Result<usize, KvError> {
        let _one_at_a_time = self.reshard_lock.lock();
        let server = reshard::start_joiner(&self.fabric, &self.routing.load(), KVS_WORKERS);
        match reshard::grow(&self.coord_nic, &self.routing, &server) {
            Ok(new_table) => {
                let count = new_table.live_count();
                self.kvs.lock().push(server);
                Ok(count)
            }
            Err(e) => {
                for host in server.host_ids() {
                    self.fabric.remove_host(host);
                }
                server.shutdown();
                Err(e)
            }
        }
    }

    /// Simulate the failure of the state shard at `slot`: its fabric hosts
    /// (serving and replica NIC) disappear and its threads stop. Nothing
    /// in the routing table is touched — on a replicated tier the liveness
    /// monitor detects the dead slot and drives the failover epoch, after
    /// which the shard's keys are served by their promoted backups.
    pub fn kill_state_shard(&self, slot: usize) {
        let table = self.routing.load();
        let Some(&host) = table.hosts.get(slot) else {
            return;
        };
        let mut kvs = self.kvs.lock();
        if let Some(idx) = kvs.iter().position(|s| s.host_id() == host) {
            let server = kvs.remove(idx);
            drop(kvs);
            faasm_kvs::testutil::crash_server(&self.fabric, server);
        }
    }

    /// Manually drive the failover of `slot` (what the liveness monitor
    /// does on detection): tombstone the slot at the next epoch, promote
    /// its keys' backups and restore replication. Returns the new table.
    ///
    /// # Errors
    ///
    /// [`KvError`] when the slot is not live or is the last live slot.
    pub fn fail_over_state_shard(&self, slot: usize) -> Result<Arc<RoutingTable>, KvError> {
        let _one_at_a_time = self.reshard_lock.lock();
        reshard::failover(&self.coord_nic, &self.routing, slot)
    }

    /// Retire the tier's last live shard, live ([`reshard::shrink`]): its
    /// keys migrate to their new owners under the shrunk table (on a
    /// replicated tier their backups already hold them), the epoch commits,
    /// the table publishes, and the retired server leaves the fabric.
    /// Returns the new shard count.
    ///
    /// # Errors
    ///
    /// [`KvError`] when only one shard remains or migration fails.
    pub fn remove_state_shard(&self) -> Result<usize, KvError> {
        let _one_at_a_time = self.reshard_lock.lock();
        let (new_table, retired) = reshard::shrink(&self.coord_nic, &self.routing)?;
        let mut kvs = self.kvs.lock();
        if let Some(idx) = kvs.iter().position(|s| s.host_id() == retired) {
            let server = kvs.remove(idx);
            drop(kvs);
            for host in server.host_ids() {
                self.fabric.remove_host(host);
            }
            server.shutdown();
        }
        Ok(new_table.live_count())
    }

    /// The runtime instances.
    pub fn instances(&self) -> &[Arc<FaasmInstance>] {
        &self.placer.instances
    }

    /// The affinity board.
    pub fn boards(&self) -> &Arc<faasm_sched::SchedBoards> {
        &self.placer.boards
    }

    /// Every counter in the cluster, read in one pass: one row per stat-set
    /// instance — `fabric` (the fabric total, slot 0), `worker`, `snapdist`
    /// and `kvs-cache` per host (slot = index into [`Cluster::instances`]),
    /// `state-shard` per live shard (slot = its routing slot; read in place,
    /// so taking a snapshot moves no counter) — under the names the sets
    /// were declared with, plus the span histograms, by kind, of the
    /// recorder the cluster's fabric owns. All of it is this cluster's
    /// alone.
    pub fn telemetry(&self) -> Telemetry {
        let mut sets = vec![self.fabric.stats().snapshot().row("fabric", 0)];
        for (host, inst) in self.instances().iter().enumerate() {
            sets.push(inst.metrics().snapshot().row("worker", host));
            sets.push(inst.snapshot_stats().row("snapdist", host));
            if let Some(cache) = inst.cache() {
                sets.push(cache.stats().row("kvs-cache", host));
            }
        }
        for shard in self.kvs.lock().iter() {
            sets.push(shard.stats().row("state-shard", shard.routing().slot()));
        }
        Telemetry::capture(sets, self.fabric.recorder())
    }

    /// Sum of a metric across instances.
    pub fn total_calls(&self) -> u64 {
        self.instances().iter().map(|i| i.metrics().calls()).sum()
    }

    /// Total billable memory across instances (Fig. 6c).
    pub fn billable_gb_seconds(&self) -> f64 {
        self.instances()
            .iter()
            .map(|i| i.metrics().billable_gb_seconds())
            .sum()
    }

    /// Aggregate host memory bytes (Faaslets + state + file caches).
    pub fn host_memory_bytes(&self) -> usize {
        self.instances().iter().map(|i| i.host_memory_bytes()).sum()
    }

    /// Stop every component. Called automatically on drop.
    pub fn shutdown(&self) {
        if let Some((stop, thread)) = self.monitor.lock().take() {
            drop(stop);
            let _ = thread.join();
        }
        for i in self.instances() {
            i.shutdown();
        }
    }
}

/// How often the liveness monitor sweeps the tier, how long it waits for
/// one shard's pong, and how many consecutive failures condemn a slot.
/// A removed fabric host (a crash, not a partition) errors instantly and
/// skips the strike count, so crash detection is one sweep, not three.
const MONITOR_INTERVAL: Duration = Duration::from_millis(20);
const MONITOR_PING_TIMEOUT: Duration = Duration::from_millis(250);
const MONITOR_STRIKES: u32 = 3;

/// Sweep the tier every [`MONITOR_INTERVAL`] until `stop`'s sender is
/// dropped, which ends the wait between sweeps (and a sweep) at once.
fn liveness_monitor(
    nic: &faasm_net::Nic,
    cell: &RoutingCell,
    reshard_lock: &Mutex<()>,
    stop: &Receiver<()>,
) {
    let ping = faasm_kvs::codec::encode_request(&faasm_kvs::Request::Ping);
    let mut strikes: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
    let mut last_epoch = 0u64;
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(MONITOR_INTERVAL) {
        let table = cell.load();
        if table.epoch != last_epoch {
            // Any epoch change re-arms detection from scratch.
            strikes.clear();
            last_epoch = table.epoch;
        }
        for slot in table.live_slots() {
            if stop.try_recv() != Err(TryRecvError::Empty) {
                return;
            }
            let verdict = nic.call_timeout(table.hosts[slot], ping.clone(), MONITOR_PING_TIMEOUT);
            let condemned = match verdict {
                Ok(_) => {
                    strikes.remove(&slot);
                    false
                }
                // The host is gone from the fabric: a crash, not a slow
                // network — condemn immediately.
                Err(faasm_net::NetError::UnknownHost(_)) => true,
                Err(_) => {
                    let s = strikes.entry(slot).or_insert(0);
                    *s += 1;
                    *s >= MONITOR_STRIKES
                }
            };
            if condemned {
                let _one_at_a_time = reshard_lock.lock();
                // Re-check under the lock: a manual reshard or an earlier
                // failover may already have handled this slot.
                let cur = cell.load();
                if cur.epoch == table.epoch && cur.is_live(slot) && cur.live_count() > 1 {
                    let _ = reshard::failover(nic, cell, slot);
                }
                strikes.remove(&slot);
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
        for kvs in self.kvs.lock().drain(..) {
            kvs.shutdown();
        }
    }
}

fn check_entry(object: &ObjectModule, name: &str) -> Result<(), CoreError> {
    let Some(idx) = object.module.find_export(name, ExportKind::Func) else {
        return Err(CoreError::BadEntry(format!("missing export {name:?}")));
    };
    let ty = object
        .module
        .func_type(idx)
        .ok_or_else(|| CoreError::BadEntry(format!("export {name:?} has no type")))?;
    if !ty.params.is_empty() {
        return Err(CoreError::BadEntry(format!(
            "entry {name:?} must take no parameters, has {}",
            ty.params.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ctx::ChainRouter;
    use faasm_sched::{CallSpec, CallStatus};
    use std::time::Instant;

    const ECHO: &str = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            int n = input_size();
            read_call_input((ptr int) 1024, n);
            write_call_output((ptr int) 1024, n);
            return 0;
        }
    "#;

    /// An FL guest answering with its input or, when `next` names a
    /// function, with what `next` answers for it (its return code, if it
    /// fails); then with `tail`. A name or tail fits in 8 bytes.
    fn relay(next: Option<&str>, tail: &str) -> String {
        let long = |s: &str| {
            let mut w = [0; 8];
            w[..s.len()].copy_from_slice(s.as_bytes());
            i64::from_le_bytes(w)
        };
        let chain = next.map_or(String::new(), |next| {
            format!(
                "q[0] = {}L;
                long id = chain_call((ptr int) q, {}, (ptr int) 1024, n);
                int rc = await_call(id);
                if (rc != 0) {{ return rc; }}
                n = get_call_output(id, (ptr int) 1024, 4096);",
                long(next),
                next.len(),
            )
        });
        format!(
            r#"
            extern int input_size();
            extern int read_call_input(ptr int buf, int len);
            extern void write_call_output(ptr int buf, int len);
            extern long chain_call(ptr int name, int name_len, ptr int in, int in_len);
            extern int await_call(long id);
            extern int get_call_output(long id, ptr int buf, int len);
            int main() {{
                int n = input_size();
                read_call_input((ptr int) 1024, n);
                ptr long q = (ptr long) 64;
                {chain}
                write_call_output((ptr int) 1024, n);
                q[1] = {}L;
                write_call_output((ptr int) 72, {});
                return 0;
            }}
            "#,
            long(tail),
            tail.len(),
        )
    }

    /// An FL guest that says it started (state `go`), then waits until
    /// the test sets state `open`.
    pub(crate) const GATED: &str = r#"
        extern int get_state(ptr int key, int key_len, int size);
        extern void pull_state(ptr int key, int key_len, int size);
        extern void set_state(ptr int key, int key_len, ptr int val, int val_len);
        extern void push_state(ptr int key, int key_len);
        int main() {
            ptr int k = (ptr int) 64;
            k[0] = 28519; // "go"
            set_state(k, 2, k, 2);
            push_state(k, 2);
            k[0] = 1852141679; // "open"
            ptr int open = (ptr int) get_state(k, 4, 4);
            while (open[0] == 0) {
                pull_state(k, 4, 4);
            }
            return 0;
        }
    "#;

    #[test]
    fn end_to_end_invoke() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let r = cluster.invoke("u", "echo", b"round trip".to_vec());
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, b"round trip");
        assert_eq!(cluster.total_calls(), 1);
    }

    #[test]
    fn unknown_function_errors() {
        let cluster = Cluster::new(1);
        let r = cluster.invoke("u", "ghost", vec![]);
        assert!(matches!(r.status, CallStatus::Error(_)));
    }

    #[test]
    fn upload_rejects_bad_module_and_bad_entry() {
        let cluster = Cluster::new(1);
        assert!(matches!(
            cluster.upload_module("u", "junk", b"garbage", UploadOptions::default()),
            Err(CoreError::Compile(_))
        ));
        // Valid module but entry takes parameters.
        let src = "int main(int x) { return x; }";
        assert!(matches!(
            cluster.upload_fl("u", "badentry", src, UploadOptions::default()),
            Err(CoreError::BadEntry(_))
        ));
        // Missing entry.
        let src = "int other() { return 1; }";
        assert!(matches!(
            cluster.upload_fl("u", "noentry", src, UploadOptions::default()),
            Err(CoreError::BadEntry(_))
        ));
    }

    #[test]
    fn guest_return_code_propagates() {
        let cluster = Cluster::new(1);
        cluster
            .upload_fl(
                "u",
                "fail",
                "int main() { return 7; }",
                UploadOptions::default(),
            )
            .unwrap();
        let r = cluster.invoke("u", "fail", vec![]);
        assert_eq!(r.status, CallStatus::Failed(7));
        assert_eq!(r.return_code(), 7);
    }

    #[test]
    fn warm_faaslets_are_reused() {
        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        for i in 0..5 {
            let r = cluster.invoke("u", "echo", vec![i]);
            assert_eq!(r.status, CallStatus::Success);
        }
        let m = cluster.instances()[0].metrics();
        assert_eq!(m.calls(), 5);
        assert!(
            m.warm_starts() >= 3,
            "expected warm reuse, got {} warm / {} cold / {} restore",
            m.warm_starts(),
            m.cold_starts(),
            m.proto_restores()
        );
    }

    #[test]
    fn chained_calls_across_functions() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl(
                "u",
                "child",
                r#"
                extern int input_size();
                extern int read_call_input(ptr int buf, int len);
                extern void write_call_output(ptr int buf, int len);
                int main() {
                    read_call_input((ptr int) 1024, 4);
                    ptr int p = (ptr int) 1024;
                    p[0] = p[0] * 2;
                    write_call_output((ptr int) 1024, 4);
                    return 0;
                }
                "#,
                UploadOptions::default(),
            )
            .unwrap();
        cluster
            .upload_fl(
                "u",
                "parent",
                r#"
                extern int input_size();
                extern int read_call_input(ptr int buf, int len);
                extern void write_call_output(ptr int buf, int len);
                extern long chain_call(ptr int name, int name_len, ptr int in, int in_len);
                extern int await_call(long id);
                extern int get_call_output(long id, ptr int buf, int len);
                int main() {
                    read_call_input((ptr int) 1024, 4);
                    // name "child" at 2048.
                    ptr int nm = (ptr int) 2048;
                    nm[0] = 0x6c696863; // "chil"
                    nm[1] = 0x64;       // "d"
                    long id = chain_call((ptr int) 2048, 5, (ptr int) 1024, 4);
                    if (await_call(id) != 0) { return -1; }
                    if (get_call_output(id, (ptr int) 3072, 4) != 4) { return -2; }
                    ptr int out = (ptr int) 3072;
                    out[0] = out[0] + 1;
                    write_call_output((ptr int) 3072, 4);
                    return 0;
                }
                "#,
                UploadOptions::default(),
            )
            .unwrap();
        let r = cluster.invoke("u", "parent", 20i32.to_le_bytes().to_vec());
        assert_eq!(r.status, CallStatus::Success, "status: {:?}", r.status);
        assert_eq!(i32::from_le_bytes(r.output[..4].try_into().unwrap()), 41);
        assert_quiescent(&cluster);
    }

    /// Once every call a test made has returned, no host still counts one
    /// in its run queue or on its bus — a chain sent to a peer included.
    fn assert_quiescent(cluster: &Cluster) {
        for (host, inst) in cluster.instances().iter().enumerate() {
            assert_eq!(inst.queue_depth(), 0, "host {host} still counts a call");
        }
    }

    #[test]
    fn guests_share_state_across_calls() {
        const ADD: &str = r#"
            extern int get_state(ptr int key, int key_len, int size);
            extern void push_state(ptr int key, int key_len);
            extern void write_call_output(ptr int buf, int len);
            int main() {
                ptr int key = (ptr int) 64;
                key[0] = 1853189987; // "coun"
                key[1] = 7497076;    // "ter"
                ptr long v = (ptr long) get_state(key, 7, 8);
                v[0] = v[0] + 1L;
                push_state(key, 7);
                write_call_output((ptr int) v, 8);
                return 0;
            }
        "#;
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "add", ADD, UploadOptions::default())
            .unwrap();
        let mut seen = Vec::new();
        for _ in 0..6 {
            let r = cluster.invoke("u", "add", vec![]);
            assert_eq!(r.status, CallStatus::Success);
            seen.push(u64::from_le_bytes(r.output[..8].try_into().unwrap()));
        }
        // Counts may interleave across hosts (each host has its own local
        // replica pulled at first access), but the global value must reach
        // at least the per-host maximum and the last pushes must be
        // monotonic per host. The strongest portable assertion: the global
        // counter is positive and ≤ 6.
        let global = cluster.kv().get("counter").unwrap().unwrap();
        let v = u64::from_le_bytes(global[..8].try_into().unwrap());
        assert!((1..=6).contains(&v), "global counter {v}, seen {seen:?}");
    }

    #[test]
    fn concurrent_invocations_complete() {
        let cluster = Arc::new(Cluster::new(2));
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let ids: Vec<_> = (0..32u8)
            .map(|i| cluster.invoke_async("u", "echo", vec![i]))
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            let r = cluster.await_result(id);
            assert_eq!(r.status, CallStatus::Success);
            assert_eq!(r.output, vec![i as u8]);
        }
        assert_eq!(cluster.total_calls(), 32);
    }

    #[test]
    fn batch_submit_matches_per_call_submit() {
        use crate::ctx::ChainRouter;
        use crate::instance::PlacedCall;
        use std::sync::mpsc;

        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let inst = &cluster.instances()[0];

        // Per-call path: one submit_placed + await_call each.
        let per_call: Vec<Vec<u8>> = (0..8u8)
            .map(|i| {
                let id = inst.submit_placed("u", "echo", vec![i, i + 1]);
                inst.await_call(id)
            })
            .map(|r| {
                assert_eq!(r.status, CallStatus::Success);
                r.output
            })
            .collect();

        // Batch path: one bus message for all eight, completion callbacks.
        let (tx, rx) = mpsc::channel();
        let calls: Vec<PlacedCall> = (0..8u8)
            .map(|i| {
                let tx = tx.clone();
                PlacedCall {
                    user: "u".into(),
                    function: "echo".into(),
                    input: vec![i, i + 1],
                    trace: faasm_telemetry::TraceCtx::NONE,
                    on_complete: Box::new(move |result| {
                        let _ = tx.send(result);
                    }),
                }
            })
            .collect();
        let ids = inst.submit_placed_batch(calls);
        assert_eq!(ids.len(), 8);
        let mut batched: Vec<(u64, Vec<u8>)> = (0..8)
            .map(|_| {
                let r = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("batch completion");
                assert_eq!(r.status, CallStatus::Success);
                (r.id.0, r.output)
            })
            .collect();
        batched.sort_by_key(|(id, _)| *id);
        let batched: Vec<Vec<u8>> = batched.into_iter().map(|(_, out)| out).collect();
        assert_eq!(batched, per_call, "batched results must match per-call");
        assert_eq!(cluster.total_calls(), 16);
    }

    #[test]
    fn shutdown_answers_every_batched_callback() {
        use crate::instance::PlacedCall;
        use std::sync::mpsc;
        use std::time::Duration;

        // One host, calls held at a gate until shutdown has begun: most of
        // the batch is still queued when shutdown runs. Every callback must
        // fire anyway — a leaked callback would wedge any ingress tier
        // counting in-flight slots.
        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "slow", GATED, UploadOptions::default())
            .unwrap();
        let inst = &cluster.instances()[0];
        let (tx, rx) = mpsc::channel();
        let calls: Vec<PlacedCall> = (0..16)
            .map(|_| {
                let tx = tx.clone();
                PlacedCall {
                    user: "u".into(),
                    function: "slow".into(),
                    input: Vec::new(),
                    trace: faasm_telemetry::TraceCtx::NONE,
                    on_complete: Box::new(move |result| {
                        let _ = tx.send(result);
                    }),
                }
            })
            .collect();
        let ids = inst.submit_placed_batch(calls);
        assert_eq!(ids.len(), 16);
        let t0 = Instant::now();
        while cluster.kv().get("go").unwrap().is_none() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "no worker took a call"
            );
            std::thread::yield_now();
        }
        let opener = {
            let (inst, kv) = (Arc::clone(inst), Arc::clone(cluster.kv()));
            std::thread::spawn(move || {
                while !inst.is_stopped() {
                    std::thread::yield_now();
                }
                kv.set("open", vec![1; 4]).unwrap();
            })
        };
        inst.shutdown();
        opener.join().unwrap();
        for i in 0..16 {
            let r = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("callback {i} never fired after shutdown"));
            assert!(
                matches!(r.status, CallStatus::Success | CallStatus::Error(_)),
                "terminal answer expected, got {:?}",
                r.status
            );
        }
    }

    #[test]
    fn a_chained_call_that_cannot_run_warm_locally_is_placed_by_the_score() {
        use crate::ctx::ChainRouter;

        // The caller is cold for the function and a peer is warm and idle:
        // the score sends the child to the peer.
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        let id = b.submit_placed("u", "echo", vec![1]);
        assert_eq!(b.await_call(id).status, CallStatus::Success);
        let id = a.chain_call("u", "echo", vec![2]);
        let r = a.await_call(id);
        assert_eq!((r.status, r.output), (CallStatus::Success, vec![2]));
        assert_eq!(a.metrics().calls(), 0, "the cold caller ran nothing");
        assert_eq!(b.metrics().calls(), 2, "the warm peer ran the child");

        // A dead peer is never chosen: the chained call still succeeds on
        // a live host.
        cluster.kill_instance(1);
        let id = a.chain_call("u", "echo", vec![3]);
        let r = a.await_call(id);
        assert_eq!((r.status, r.output), (CallStatus::Success, vec![3]));
        assert_eq!(a.metrics().calls(), 1);
        assert_quiescent(&cluster);
    }

    /// A chain that crosses to a peer and back, with one worker per host:
    /// each host's only worker waits in `await_call` while its host is sent
    /// the next hop or the result it waits for, and must take both off its
    /// own run queue.
    #[test]
    fn a_chain_to_a_peer_and_back_finishes_with_one_worker_per_host() {
        let cluster = Cluster::with_config(ClusterConfig {
            hosts: 2,
            instance: InstanceConfig {
                workers: 1,
                ..InstanceConfig::default()
            },
            ..ClusterConfig::default()
        });
        let options = UploadOptions::default();
        for (name, next) in [
            ("start", Some("there")),
            ("there", Some("back")),
            ("back", None),
        ] {
            let hop = relay(next, "x");
            cluster.upload_fl("u", name, &hop, options.clone()).unwrap();
        }
        // Placement follows warmth: `start` and `back` run on A, `there` on
        // B. The test thread waits on the front door, so it helps neither.
        let (a, b) = (&cluster.instances()[0], &cluster.instances()[1]);
        a.prewarm("u", "start", 1).unwrap();
        b.prewarm("u", "there", 1).unwrap();
        a.prewarm("u", "back", 1).unwrap();
        let r = cluster.invoke("u", "start", Vec::new());
        assert_eq!((r.status, r.output), (CallStatus::Success, b"xxx".to_vec()));
        assert_eq!((a.metrics().calls(), b.metrics().calls()), (2, 1));
        assert_quiescent(&cluster);
    }

    /// A container echo: pooled, run and billed by the runtime, its calls
    /// framed in 256 bytes of HTTP padding.
    struct EchoContainer;

    impl crate::ContainerCode for EchoContainer {
        fn cold_start(
            &self,
            _id: u64,
            _user: &str,
            _function: &str,
            _host: &Arc<FaasmInstance>,
        ) -> Result<Box<dyn crate::Sandbox>, String> {
            Ok(Box::new(EchoContainer))
        }

        fn http_overhead(&self) -> usize {
            256
        }
    }

    impl crate::Sandbox for EchoContainer {
        fn run(&mut self, call: &CallSpec) -> CallResult {
            CallResult::success(call.id, call.input.clone())
        }

        fn rss_bytes(&self) -> usize {
            0
        }
    }

    /// The submit seam frames a container's call whichever door it came in
    /// by: one submitted the way the gateway submits it costs the fabric
    /// exactly what one through `Cluster::invoke` does.
    #[test]
    fn a_container_call_costs_the_fabric_the_same_through_either_door() {
        use crate::instance::PlacedCall;
        use std::sync::mpsc;

        let cluster = Cluster::new(1);
        let def = FunctionDef {
            code: GuestCode::Container(Arc::new(EchoContainer)),
            entry: "main".into(),
            init: None,
            reset_after_call: false,
        };
        cluster.register("u", "echo", def).unwrap();
        let inst = &cluster.instances()[0];
        // (messages, bytes) one call moves: its bus message and its result.
        // The fabric counts a send after routing it, so the caller can wake
        // before the result is counted: wait for both, bounded.
        let cost = |call: &dyn Fn() -> CallResult| {
            let before = cluster.telemetry();
            assert_eq!(call().output, vec![7; 8]);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let delta = cluster.telemetry().delta(&before);
                let got = (
                    delta.get("fabric", "msgs_sent"),
                    delta.get("fabric", "bytes_sent"),
                );
                if got.0 >= 2 || Instant::now() > deadline {
                    return got;
                }
                std::thread::yield_now();
            }
        };
        let front_door = || cluster.invoke("u", "echo", vec![7; 8]);
        let gateway_seam = || {
            let (tx, rx) = mpsc::channel();
            inst.submit_placed_batch(vec![PlacedCall {
                user: "u".into(),
                function: "echo".into(),
                input: vec![7; 8],
                trace: cluster.fabric().recorder().root(),
                on_complete: Box::new(move |result| drop(tx.send(result))),
            }]);
            rx.recv_timeout(Duration::from_secs(10)).unwrap()
        };
        // The cold start is the same either way; compare warm calls.
        cost(&front_door);
        let invoked = cost(&front_door);
        let submitted = cost(&gateway_seam);
        assert_eq!(invoked.0, 2, "a call and its result");
        assert!(invoked.1 > 2 * 256, "both hops framed: {invoked:?}");
        assert_eq!(submitted, invoked, "(messages, bytes) through the seam");
    }

    #[test]
    fn invoke_local_runs_on_its_own_instance_beside_a_warm_peer() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        assert_eq!(b.invoke_local("u", "echo", vec![1]).output, vec![1]);
        let (a_calls, b_calls) = (a.metrics().calls(), b.metrics().calls());
        assert_eq!(a.invoke_local("u", "echo", vec![2]).output, vec![2]);
        assert_eq!(a.metrics().calls(), a_calls + 1);
        assert_eq!(b.metrics().calls(), b_calls);
    }

    /// State-tier (reads, writes) served so far, over every shard.
    fn tier_ops(cluster: &Cluster) -> (u64, u64) {
        let stats = cluster.state_shard_stats().unwrap();
        (
            stats.iter().map(|s| s.reads).sum(),
            stats.iter().map(|s| s.writes).sum(),
        )
    }

    #[test]
    fn warm_stateless_calls_cost_the_state_tier_nothing() {
        // After the first call (cold start, proto publish), 100 warm echo
        // calls through the front door move no shard counter: placement
        // reads warmth off the host's pool.
        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        assert_eq!(cluster.invoke("u", "echo", vec![0]).return_code(), 0);
        let before = tier_ops(&cluster);
        for i in 0..100u8 {
            assert_eq!(cluster.invoke("u", "echo", vec![i]).output, vec![i]);
        }
        assert_eq!(tier_ops(&cluster), before, "(reads, writes) moved");
        let host = &cluster.instances()[0];
        assert_eq!(host.idle_warmth("u", "echo"), Some(1));
        // Retiring the pool cools the host; the next call warms it again.
        assert_eq!(host.retire_idle("u", "echo", 8), 1);
        assert_eq!(host.idle_warmth("u", "echo"), None);
        assert_eq!(cluster.invoke("u", "echo", vec![1]).return_code(), 0);
        assert_eq!(host.idle_warmth("u", "echo"), Some(1));
    }

    #[test]
    fn warm_local_chained_calls_read_nothing_from_the_tier() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "child", ECHO, UploadOptions::default())
            .unwrap();
        let parent = relay(Some("child"), "");
        cluster
            .upload_fl("u", "parent", &parent, UploadOptions::default())
            .unwrap();
        // Warm both functions on one host; from then on every hop runs warm
        // locally (`runs_warm_local`), and asks no one.
        let host = &cluster.instances()[0];
        assert_eq!(host.invoke_local("u", "parent", vec![1]).output, vec![1]);
        let before = tier_ops(&cluster);
        for i in 0..20u8 {
            assert_eq!(host.invoke_local("u", "parent", vec![i]).output, vec![i]);
        }
        assert_eq!(tier_ops(&cluster), before, "(reads, writes) moved");
        assert_eq!(host.metrics().calls(), cluster.total_calls());
        assert_quiescent(&cluster);
    }

    #[test]
    fn proto_faaslet_published_to_state_tier() {
        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        cluster.invoke("u", "echo", vec![1]);
        // First cold start publishes the proto as content-addressed chunks
        // plus a manifest through the global tier.
        let inst = &cluster.instances()[0];
        let manifest_bytes = inst
            .kv()
            .get(&faasm_kvs::manifest_key("u", "echo"))
            .unwrap()
            .expect("first cold start publishes the manifest");
        let manifest = crate::snapdist::ProtoManifest::from_bytes(&manifest_bytes).unwrap();
        for d in std::iter::once(&manifest.meta).chain(&manifest.pages) {
            assert_eq!(
                inst.kv().exists(&faasm_kvs::chunk_key(d)),
                Ok(true),
                "every manifest chunk is in the tier"
            );
        }
        let stats = inst.snapshot_stats();
        assert!(stats.chunks_published > 0, "publisher shipped chunks");
        // Object file stored at upload.
        assert!(cluster.object_store().exists("shared/obj/u/echo"));
    }

    #[test]
    fn concurrent_cold_starts_coalesce_to_one_capture() {
        // A barrier-released burst of first calls for one function must
        // produce exactly one cold start + capture: the single-flight
        // resolver elects a leader and parks the rest, which then restore.
        let cluster = Arc::new(Cluster::new(1));
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let burst = 8;
        let barrier = Arc::new(std::sync::Barrier::new(burst));
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                let cluster = Arc::clone(&cluster);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let inst = Arc::clone(&cluster.instances()[0]);
                    barrier.wait();
                    let id = inst.submit_placed("u", "echo", vec![i as u8]);
                    inst.await_call(id)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().status, CallStatus::Success);
        }
        let m = cluster.instances()[0].metrics();
        assert_eq!(
            m.cold_starts(),
            1,
            "burst coalesced to one capture ({} restores / {} warm)",
            m.proto_restores(),
            m.warm_starts()
        );
        assert_eq!(
            m.cold_starts() + m.proto_restores() + m.warm_starts(),
            burst as u64
        );
    }

    #[test]
    fn chunk_fetched_proto_restores_bitwise_identical() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        // A cold-starts, captures and publishes chunks + manifest.
        let id = a.submit_placed("u", "echo", vec![1]);
        assert_eq!(a.await_call(id).status, CallStatus::Success);
        // B resolves through the snapshot plane: manifest fetch, chunk
        // multi-get, digest verify, assembly — no cold start.
        let id = b.submit_placed("u", "echo", vec![2]);
        assert_eq!(b.await_call(id).status, CallStatus::Success);
        assert_eq!(b.metrics().cold_starts(), 0, "B restored, never compiled");
        assert_eq!(b.metrics().proto_restores(), 1);
        let stats = b.snapshot_stats();
        assert!(stats.fetches >= 1);
        assert!(stats.chunks_fetched >= 1, "chunks came over the wire");
        assert_eq!(stats.verify_failures, 0);
        // The fetched proto is bitwise identical to the captured one.
        assert_eq!(
            a.proto_manifest("u", "echo").unwrap(),
            b.proto_manifest("u", "echo").unwrap(),
            "chunk-fetched proto differs from the locally captured one"
        );
    }

    #[test]
    fn corrupt_chunk_rejected_and_repaired_by_republish() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        let id = a.submit_placed("u", "echo", vec![1]);
        assert_eq!(a.await_call(id).status, CallStatus::Success);
        // Corrupt one published page chunk in the tier.
        let manifest_bytes = a
            .kv()
            .get(&faasm_kvs::manifest_key("u", "echo"))
            .unwrap()
            .unwrap();
        let manifest = crate::snapdist::ProtoManifest::from_bytes(&manifest_bytes).unwrap();
        let victim = manifest.pages[0];
        a.kv()
            .set(&faasm_kvs::chunk_key(&victim), b"not the chunk".to_vec())
            .unwrap();
        // B's fetch must reject the chunk at the digest check and fall back
        // to a cold start — never a corrupt restore.
        let id = b.submit_placed("u", "echo", vec![2]);
        assert_eq!(b.await_call(id).status, CallStatus::Success);
        assert!(b.snapshot_stats().verify_failures >= 1);
        assert_eq!(b.metrics().cold_starts(), 1, "fallback was a cold start");
        // The verify deleted the corrupt chunk, so B's own publish repaired
        // it: the tier's bytes hash to the key again.
        let repaired = b
            .kv()
            .get(&faasm_kvs::chunk_key(&victim))
            .unwrap()
            .expect("chunk republished");
        assert_eq!(faasm_kvs::Digest::of(&repaired), victim);
    }

    #[test]
    fn prestage_installs_proto_before_first_call() {
        let cluster = Cluster::new(2);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        let id = a.submit_placed("u", "echo", vec![1]);
        assert_eq!(a.await_call(id).status, CallStatus::Success);
        // Pre-stage B the way the autoscaler does: push the manifest over
        // the bus, then wait for B's fetcher to install the proto.
        assert!(a.push_prestage("u", "echo", b.host_id()));
        let t0 = std::time::Instant::now();
        while !b.has_proto("u", "echo") && t0.elapsed() < std::time::Duration::from_secs(2) {
            std::thread::yield_now();
        }
        assert!(b.has_proto("u", "echo"), "pre-stage never landed");
        assert_eq!(b.snapshot_stats().prestages, 1);
        // B's first call is now a pure CoW restore.
        let id = b.submit_placed("u", "echo", vec![2]);
        assert_eq!(b.await_call(id).status, CallStatus::Success);
        assert_eq!(b.metrics().cold_starts(), 0);
        assert_eq!(b.metrics().proto_restores(), 1);
    }

    /// The benchmark's storm guest: `init` writes 8 000 four-byte ints at
    /// 1024, 65536 and 131072, so of its four pages the first holds data in
    /// blocks 0..=8, the next two in blocks 0..=7, and the last in none.
    const STORM: &str = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int init() {
            ptr int a = (ptr int) 1024;
            for (int i = 0; i < 8000; i = i + 1) { a[i] = 7 + i; }
            ptr int b = (ptr int) 65536;
            for (int i = 0; i < 8000; i = i + 1) { b[i] = i * 3; }
            ptr int c = (ptr int) 131072;
            for (int i = 0; i < 8000; i = i + 1) { c[i] = i * 5; }
            return 0;
        }
        int main() {
            int n = input_size();
            read_call_input((ptr int) 512, n);
            write_call_output((ptr int) 512, n);
            return 0;
        }
    "#;

    #[test]
    fn a_storm_proto_ships_and_is_stored_as_the_blocks_init_wrote() {
        let cluster = Cluster::new(2);
        let options = UploadOptions {
            init: Some("init".into()),
        };
        cluster.upload_fl("u", "storm", STORM, options).unwrap();
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        let id = a.submit_placed("u", "storm", vec![1]);
        assert_eq!(a.await_call(id).status, CallStatus::Success);
        let captured = a.proto("u", "storm").expect("A captured the proto");
        let chunked = crate::snapdist::chunk_proto(&captured).unwrap();
        let chunk_len = |d| chunked.chunks[d].len();
        let pages: Vec<usize> = chunked.manifest.pages.iter().map(chunk_len).collect();
        assert_eq!(pages, [36_866, 32_770, 32_770, 2], "mask + non-zero blocks");
        // The first upload publishes every chunk: the pages and the meta.
        assert_eq!(
            a.snapshot_stats().bytes_published,
            (pages.iter().sum::<usize>() + chunk_len(&chunked.manifest.meta)) as u64
        );
        // B fetches those chunks and restores the footprint A captured.
        let id = b.submit_placed("u", "storm", vec![2]);
        assert_eq!(b.await_call(id).status, CallStatus::Success);
        assert_eq!(b.metrics().cold_starts(), 0, "B restored, never compiled");
        let fetched = b.proto("u", "storm").expect("B fetched the proto");
        let resident = |proto: &crate::ProtoRef| {
            let mem = proto.snapshot.mem.as_ref().expect("a memory");
            faasm_mem::LinearMemory::restore(mem).stats().rss_bytes
        };
        assert_eq!(resident(&captured), 25 * faasm_mem::BLOCK_SIZE);
        assert_eq!(resident(&fetched), resident(&captured));
    }

    /// One page store per host: a second upload of the storm function
    /// changes only its first page, so a host that fetched the first reads
    /// just the new meta chunk and that page, and both protos map the three
    /// pages they share from one `Arc` each.
    #[test]
    fn a_second_version_fetches_only_its_changed_page_and_shares_the_rest() {
        let cluster = Cluster::new(2);
        let options = || UploadOptions {
            init: Some("init".into()),
        };
        let run = |host: &FaasmInstance| {
            let id = host.submit_placed("u", "storm", vec![1]);
            assert_eq!(host.await_call(id).status, CallStatus::Success);
        };
        let (a, b) = (&cluster.instances()[0], &cluster.instances()[1]);
        cluster.upload_fl("u", "storm", STORM, options()).unwrap();
        run(a);
        run(b);
        let v1 = b.proto("u", "storm").expect("B fetched v1");
        // v2's init writes other values into the first page only.
        let v2_src = STORM.replace("7 + i", "8 + i");
        cluster.upload_fl("u", "storm", &v2_src, options()).unwrap();
        run(a);
        let before = cluster.telemetry();
        run(b);
        let fetch = cluster.telemetry().delta(&before);
        assert_eq!(b.metrics().cold_starts(), 0, "B restored both versions");
        assert_eq!(fetch.get("snapdist", "chunks_fetched"), 2, "meta + page 0");
        assert_eq!(fetch.get("state-shard", "batched_items"), 2);
        assert_eq!(fetch.get("snapdist", "chunk_hits"), 3);
        let v2 = b.proto("u", "storm").expect("B fetched v2");
        let pages = |proto: &crate::ProtoRef| proto.snapshot.mem.as_ref().unwrap().pages().to_vec();
        let (v1, v2) = (pages(&v1), pages(&v2));
        assert!(!Arc::ptr_eq(&v1[0], &v2[0]));
        for i in 1..4 {
            assert!(Arc::ptr_eq(&v1[i], &v2[i]), "page {i} is one Arc");
        }
        // Each unique page costs the store once: v1's pages back 9, 8, 8
        // and 0 blocks, and v2 adds a first page of 9.
        assert_eq!(b.page_store_bytes(), 34 * faasm_mem::BLOCK_SIZE);
    }

    #[test]
    fn billable_memory_accumulates() {
        let cluster = Cluster::new(1);
        cluster
            .upload_fl("u", "echo", ECHO, UploadOptions::default())
            .unwrap();
        cluster.invoke("u", "echo", vec![0; 128]);
        assert!(cluster.billable_gb_seconds() > 0.0);
        assert!(cluster.host_memory_bytes() > 0);
    }
}
