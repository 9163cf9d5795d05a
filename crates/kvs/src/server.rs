//! The KVS server: serves a [`KvStore`] over the fabric.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use faasm_net::{Envelope, HostId, Nic};
use faasm_telemetry::{Clock, SpanKind, TraceCtx};
use parking_lot::{Mutex, RwLock};

use crate::codec::{
    decode_request_traced, decode_response, encode_request_at, encode_response, Request, Response,
};
use crate::reshard::handoff_frames;
use crate::sharded::{fnv1a, primary_index_live, replica_set_live, RoutingTable};
use crate::store::{KeyMigration, KvStore, ShardCounters, ShardStats};

/// One routing table generation as a shard sees it: the epoch, the total
/// slot count (live *and* dead), and the tombstoned slot indices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TableInfo {
    epoch: u64,
    shard_count: usize,
    dead: Vec<usize>,
}

#[derive(Debug, Clone)]
struct RouteState {
    cur: TableInfo,
    index: usize,
    /// A migration in flight: the table being moved to. While pending, a
    /// keyed op is served only if the key's replica set is identical under
    /// both tables and this shard is its primary — moving keys are frozen
    /// (rejected with `WrongEpoch`) so no write can land on the donor
    /// after its export snapshot and be lost.
    pending: Option<TableInfo>,
}

/// Striped ordering locks for outbound replication: same fnv1a hash as the
/// store's internal shards, so two writes to one key always forward in
/// their apply order.
const REPL_STRIPES: usize = 16;

fn repl_stripe(key: &str) -> usize {
    (fnv1a(key.as_bytes()) as usize) % REPL_STRIPES
}

/// One shard server's view of the cluster routing table: which epoch it
/// serves, how many shards that table has, and which index this shard is.
///
/// Drives the ownership check behind [`Response::WrongEpoch`]: a keyed
/// request whose key does not rendezvous-route to this shard under the
/// effective table is rejected, so a client with a stale table can never
/// read or write the wrong shard.
pub struct ShardRouting {
    state: RwLock<RouteState>,
    /// How many replicas (primary included) hold every key. Fixed for the
    /// life of the tier; `1` reproduces the unreplicated behaviour.
    replication: usize,
    /// Serialises migration state changes against in-flight keyed ops:
    /// every keyed request holds a read guard across its ownership check
    /// **and** store apply, while `Migrate`/`EpochCommit` hold the write
    /// guard across freeze + export / commit + purge. Without it, a worker
    /// that passed the check before `Migrate` landed could apply a write
    /// *after* the export snapshot — an acknowledged write silently lost.
    gate: RwLock<()>,
    /// Replica-traffic host per slot (where `Replicate` frames are sent);
    /// empty on an unreplicated tier.
    peers: RwLock<Vec<HostId>>,
    /// Ordering locks for outbound replication, striped by key. A forward
    /// re-exports the key's *current* state under its stripe lock, so the
    /// last forward in lock order always carries the newest state and a
    /// backup can never end behind an acknowledged write.
    repl_stripes: Vec<Mutex<()>>,
    /// Chunked-handoff reassembly: transfer id → next expected frame seq.
    xfers: Mutex<HashMap<u64, u32>>,
    /// The routing and replication half of the shard's counters.
    counters: ShardCounters,
}

impl std::fmt::Debug for ShardRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.read().clone();
        f.debug_struct("ShardRouting")
            .field("epoch", &s.cur.epoch)
            .field("shard_count", &s.cur.shard_count)
            .field("dead", &s.cur.dead)
            .field("index", &s.index)
            .field("replication", &self.replication)
            .field("pending", &s.pending)
            .finish()
    }
}

impl ShardRouting {
    /// Slot `index`'s view of `table`: its epoch, slot count, tombstones,
    /// replication factor and replica-traffic hosts.
    fn new(table: &RoutingTable, index: usize) -> Arc<ShardRouting> {
        assert!(
            !table.hosts.is_empty(),
            "a routed shard needs a non-empty table"
        );
        Arc::new(ShardRouting {
            state: RwLock::new(RouteState {
                cur: TableInfo {
                    epoch: table.epoch,
                    shard_count: table.hosts.len(),
                    dead: table.dead.clone(),
                },
                index,
                pending: None,
            }),
            replication: table.replication,
            gate: RwLock::new(()),
            peers: RwLock::new(table.repl_hosts.clone()),
            repl_stripes: (0..REPL_STRIPES).map(|_| Mutex::new(())).collect(),
            xfers: Mutex::new(HashMap::new()),
            counters: ShardCounters::new(),
        })
    }

    /// The epoch this shard currently serves.
    pub fn epoch(&self) -> u64 {
        self.state.read().cur.epoch
    }

    /// The serving table and this shard's slot in it.
    fn serving(&self) -> (TableInfo, usize) {
        let s = self.state.read();
        (s.cur.clone(), s.index)
    }

    /// This shard's slot in the table it serves.
    pub fn slot(&self) -> usize {
        self.state.read().index
    }

    /// The routing and replication counters (redirects, freeze wait,
    /// forwards, quorum wait, promotions).
    pub fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Ownership check for one keyed request: `None` when this shard is
    /// the serving primary for `key`, else the redirect response the
    /// client must act on (`WrongEpoch` to refresh its table, `NotPrimary`
    /// when it reached a backup replica).
    fn check(&self, key: &str, client_epoch: u64) -> Option<Response> {
        let s = self.state.read();
        if s.pending.is_none() && client_epoch == s.cur.epoch {
            // The client routed with this exact table, so the pure routing
            // function already sent the key to its primary — skip the hash.
            return None;
        }
        let cur_set = replica_set_live(key, s.cur.shard_count, &s.cur.dead, self.replication);
        let resp = match &s.pending {
            None => {
                if cur_set.first() == Some(&s.index) {
                    return None;
                }
                if cur_set.contains(&s.index) {
                    Response::NotPrimary {
                        epoch: s.cur.epoch,
                        shard_count: s.cur.shard_count as u64,
                    }
                } else {
                    Response::WrongEpoch {
                        epoch: s.cur.epoch,
                        shard_count: s.cur.shard_count as u64,
                    }
                }
            }
            Some(new) => {
                // Migration pending: serve only keys whose replica set is
                // untouched by the move (and whose primary we are) — all
                // others are frozen until the commit.
                let new_set = replica_set_live(key, new.shard_count, &new.dead, self.replication);
                if new_set.first() == Some(&s.index) && new_set == cur_set {
                    return None;
                }
                Response::WrongEpoch {
                    epoch: new.epoch,
                    shard_count: new.shard_count as u64,
                }
            }
        };
        self.counters.wrong_epoch_redirects.inc();
        Some(resp)
    }

    fn begin(&self, info: TableInfo) {
        self.state.write().pending = Some(info);
    }

    /// Install `info` as the serving table. Returns `true` when this was a
    /// direct install (no migration pending) that tombstoned at least one
    /// new slot — i.e. a failover promotion this replica lived through.
    fn commit(&self, info: TableInfo, peers: Option<Vec<HostId>>) -> bool {
        let mut s = self.state.write();
        let promoted = s.pending.is_none()
            && self.replication > 1
            && info.dead.iter().any(|d| !s.cur.dead.contains(d));
        if promoted {
            self.counters.promotions.inc();
        }
        s.cur = info;
        s.pending = None;
        drop(s);
        if let Some(p) = peers {
            *self.peers.write() = p;
        }
        promoted
    }
}

/// A running KVS server: worker threads draining a NIC and applying
/// commands to a shared store through the shard's routing view.
pub struct KvServer {
    store: Arc<KvStore>,
    routing: Arc<ShardRouting>,
    nic: Nic,
    /// Dedicated replica-traffic NIC (replicated tiers only). Its workers
    /// never issue outbound quorum calls, so two primaries forwarding to
    /// each other can always make progress even with every main worker
    /// blocked on a forward.
    repl_nic: Option<Nic>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("host", &self.nic.id())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl KvServer {
    /// Start the server of a one-shard tier on `nic` with `workers`
    /// threads: slot 0 of a one-slot table at epoch 1, so it owns every key.
    /// A tier of any size is booted by [`crate::reshard::start_tier`].
    pub fn start(nic: Nic, workers: usize) -> KvServer {
        let table = RoutingTable::new(1, vec![nic.id()]);
        KvServer::start_shard(nic, None, workers, Arc::new(KvStore::new()), &table, 0)
    }

    /// Start slot `slot` of `table` over `store`: keyed requests for keys
    /// this shard does not own answer [`Response::WrongEpoch`], and the
    /// server speaks the `Migrate`/`HandoffFrame`/`EpochCommit` resharding
    /// protocol. `nic` serves clients (and forwards writes to backups);
    /// `repl_nic`, on a replicated tier, serves only inbound replica traffic
    /// on dedicated workers so quorum forwards can never deadlock.
    pub(crate) fn start_shard(
        nic: Nic,
        repl_nic: Option<Nic>,
        workers: usize,
        store: Arc<KvStore>,
        table: &RoutingTable,
        slot: usize,
    ) -> KvServer {
        let routing = ShardRouting::new(table, slot);
        let stop = Arc::new(AtomicBool::new(false));
        let spawn_loop = |nic: Nic, forwards: bool| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let routing = Arc::clone(&routing);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match nic.recv_timeout(Duration::from_millis(50)) {
                        Ok(env) => serve_one(&store, &routing, &nic, forwards, env),
                        Err(faasm_net::NetError::Timeout) => continue,
                        Err(_) => break,
                    }
                }
            })
        };
        let mut handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|_| spawn_loop(nic.clone(), true))
            .collect();
        if let Some(rn) = &repl_nic {
            // Two replica workers: one can drain a rebuild stream while the
            // other keeps acking live write forwards.
            for _ in 0..2 {
                handles.push(spawn_loop(rn.clone(), false));
            }
        }
        KvServer {
            store,
            routing,
            nic,
            repl_nic,
            stop,
            workers: handles,
        }
    }

    /// The server's host id on the fabric.
    pub fn host_id(&self) -> faasm_net::HostId {
        self.nic.id()
    }

    /// The replica-traffic host id, when this server runs one.
    pub fn repl_host_id(&self) -> Option<faasm_net::HostId> {
        self.repl_nic.as_ref().map(|n| n.id())
    }

    /// Every fabric host this server answers on (main + replica NIC).
    pub fn host_ids(&self) -> Vec<faasm_net::HostId> {
        let mut ids = vec![self.nic.id()];
        ids.extend(self.repl_nic.as_ref().map(|n| n.id()));
        ids
    }

    /// Direct access to the underlying store (test/metric inspection).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The shard's routing view.
    pub fn routing(&self) -> &Arc<ShardRouting> {
        &self.routing
    }

    /// This shard's load report, read in place (no fabric round-trip, so
    /// reading it moves no counter).
    pub fn stats(&self) -> ShardStats {
        shard_stats(&self.store, &self.routing)
    }

    /// Stop the worker threads and wait for them (what dropping does).
    pub fn shutdown(self) {}
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn serve_one(store: &KvStore, routing: &ShardRouting, nic: &Nic, forwards: bool, env: Envelope) {
    let resp = match decode_request_traced(&env.payload) {
        Ok((req, epoch, trace)) => apply_traced(store, routing, nic, forwards, req, epoch, trace),
        Err(e) => Response::Err(e.to_string()),
    };
    // One-way requests (fire-and-forget writes) want no reply.
    if env.wants_reply() {
        let _ = nic.respond(&env, encode_response(&resp));
    }
}

/// The largest value a single range write may create. Range writes
/// zero-extend, so without a cap one hostile frame with an offset near
/// `u64::MAX` would panic (or OOM) the worker thread that served it —
/// the codec's count guards bound the *message*, this bounds the *store*.
pub const MAX_VALUE_BYTES: u64 = 256 * 1024 * 1024;

fn write_in_bounds(offset: u64, len: usize) -> bool {
    offset.saturating_add(len as u64) <= MAX_VALUE_BYTES
}

/// Wrap a successful keyed reply with the key's mutation-version counter.
fn versioned(version: u64, inner: Response) -> Response {
    Response::Versioned {
        version,
        inner: Box::new(inner),
    }
}

/// Apply one command to the store (exposed for deterministic unit tests);
/// a lock is taken at `clock`'s instant.
///
/// Keyed reads and mutation acks come back as [`Response::Versioned`]: the
/// version is taken under the same stripe lock as the operation itself, so
/// it is exact — a function-side cache stamping its snapshot with it can
/// never pair old bytes with a newer version (or vice versa).
pub fn apply(store: &KvStore, req: Request, clock: &Clock) -> Response {
    match req {
        Request::Get { key } => {
            let (value, v) = store.get_versioned(&key);
            versioned(v, Response::Value(value))
        }
        Request::Set { key, value } => {
            let v = store.set(&key, value);
            versioned(v, Response::Ok)
        }
        Request::GetRange { key, offset, len } => {
            let (value, v) = store.get_range_versioned(&key, offset as usize, len as usize);
            versioned(v, Response::Value(value))
        }
        Request::SetRange { key, offset, data } => {
            if !write_in_bounds(offset, data.len()) {
                return Response::Err("set_range beyond max value size".into());
            }
            let v = store.set_range(&key, offset as usize, &data);
            versioned(v, Response::Ok)
        }
        Request::Append { key, data } => {
            let (len, v) = store.append(&key, &data);
            versioned(v, Response::Len(len as u64))
        }
        Request::Del { key } => {
            let (existed, v) = store.del(&key);
            versioned(v, Response::Bool(existed))
        }
        Request::Exists { key } => Response::Bool(store.exists(&key)),
        Request::StrLen { key } => Response::Len(store.strlen(&key) as u64),
        Request::Incr { key, delta } => {
            let (n, v) = store.incr(&key, delta);
            versioned(v, Response::Int(n))
        }
        Request::TryLock { key, mode, owner } => {
            Response::Bool(store.try_lock(&key, mode, owner, clock.now()))
        }
        Request::Unlock { key, mode, owner } => {
            store.unlock(&key, mode, owner);
            Response::Ok
        }
        Request::Ping => Response::Pong,
        Request::Flush => {
            store.flush();
            Response::Ok
        }
        Request::MultiGetRange { key, spans } => {
            let (runs, v) = store.multi_get_range_versioned(&key, &spans);
            versioned(v, Response::Spans(runs))
        }
        Request::MultiSetRange { key, writes } => {
            if writes
                .spans()
                .iter()
                .any(|&(offset, len)| !write_in_bounds(offset, len as usize))
            {
                return Response::Err("multi_set_range beyond max value size".into());
            }
            let v = store.multi_set_range(&key, &writes);
            versioned(v, Response::Ok)
        }
        Request::VersionOf { key } => Response::Len(store.version_of(&key)),
        Request::MultiGet { keys } => Response::MultiValues(store.multi_get(&keys)),
        Request::Stats => Response::Stats(store.stats()),
        Request::Migrate { .. } | Request::EpochCommit { .. } => {
            Response::Err("resharding requires a routed shard".into())
        }
        Request::Replicate { .. } | Request::HandoffFrame { .. } | Request::Rebuild { .. } => {
            Response::Err("replication requires a routed shard".into())
        }
    }
}

/// How long a primary waits for one backup's `ReplAck` before declaring
/// the write quorum unavailable. Short relative to the fabric default so a
/// dead backup stalls writers for at most one forward, not 30 s.
pub const REPL_CALL_TIMEOUT: Duration = Duration::from_millis(400);

/// Chunked-handoff frame caps: a frame carries at most this many entries
/// and roughly this many payload bytes, whichever fills first.
pub const HANDOFF_FRAME_ENTRIES: usize = 512;
/// See [`HANDOFF_FRAME_ENTRIES`].
pub const HANDOFF_FRAME_BYTES: usize = 256 * 1024;

fn oversized(entries: &[KeyMigration]) -> bool {
    entries.iter().any(|e| {
        e.value
            .as_ref()
            .is_some_and(|v| v.len() as u64 > MAX_VALUE_BYTES)
    })
}

/// Forward `key`'s post-apply state to every backup replica and gate the
/// ack on the full write quorum (all live replicas). A key with no state
/// left (a delete) ships as a tombstone entry, which `import_keys`
/// resolves to removal. Returns the original `resp` when the quorum acked,
/// else [`Response::Unavailable`] (the local apply stands; the client
/// parks for the failover epoch and retries).
fn forward_replicas(
    store: &KvStore,
    routing: &ShardRouting,
    nic: &Nic,
    key: &str,
    resp: Response,
    trace: TraceCtx,
) -> Response {
    let (cur, index) = routing.serving();
    let (epoch, count, dead) = (cur.epoch, cur.shard_count, cur.dead);
    let set = replica_set_live(key, count, &dead, routing.replication);
    if set.len() <= 1 || set.first() != Some(&index) {
        return resp;
    }
    let peers = routing.peers.read().clone();
    let recorder = nic.recorder();
    let start = recorder.now_ns();
    // Stripe lock: orders this export+send against every other forward of
    // the same key, so the last forward always carries the newest state.
    let _ordered = routing.repl_stripes[repl_stripe(key)].lock();
    let mut entries = store.export_keys(|k| k == key, recorder.clock().now());
    if entries.is_empty() {
        // The op removed the key's last state: replicate the removal.
        entries.push(KeyMigration {
            key: key.to_string(),
            value: None,
            lock: None,
            version: store.version_of(key),
        });
    }
    let msg = encode_request_at(&Request::Replicate { entries }, epoch);
    let mut acked = 1usize; // the primary's own apply
    for &slot in &set[1..] {
        let fwd_start = recorder.now_ns();
        let ok = peers.get(slot).is_some_and(|host| {
            nic.call_timeout(*host, msg.clone(), REPL_CALL_TIMEOUT)
                .ok()
                .and_then(|b| decode_response(&b).ok())
                .is_some_and(|r| matches!(r, Response::ReplAck { .. }))
        });
        routing.counters.repl_forwards.inc();
        if !trace.is_none() {
            recorder.span(SpanKind::ReplForward, trace, fwd_start, 0);
        }
        if ok {
            acked += 1;
        }
    }
    routing
        .counters
        .repl_lag_ns
        .add(recorder.now_ns().saturating_sub(start));
    if !trace.is_none() {
        recorder.span(SpanKind::QuorumWait, trace, start, 0);
    }
    if acked < set.len() {
        return Response::Unavailable {
            epoch,
            shard_count: count as u64,
        };
    }
    resp
}

/// Re-ship replicas for keys whose replica set gained members when the
/// table moved from `prev_dead` tombstones to the current ones — how a
/// promoted replica set regains full redundancy after a failover. Returns
/// the number of `(key, new member)` pairs shipped.
fn rebuild_replicas(
    store: &KvStore,
    routing: &ShardRouting,
    nic: &Nic,
    prev_dead: &[usize],
) -> u64 {
    let (cur, index) = routing.serving();
    let (epoch, count, dead) = (cur.epoch, cur.shard_count, cur.dead);
    let r = routing.replication;
    let peers = routing.peers.read().clone();
    // Group this shard's primary keys by (gained member, stripe) so each
    // group re-exports and ships under one stripe lock.
    let mut groups: HashMap<(usize, usize), HashSet<String>> = HashMap::new();
    for key in store.keys() {
        let cur_set = replica_set_live(&key, count, &dead, r);
        if cur_set.first() != Some(&index) {
            continue;
        }
        let prev_set = replica_set_live(&key, count, prev_dead, r);
        for &slot in &cur_set[1..] {
            if !prev_set.contains(&slot) {
                groups
                    .entry((slot, repl_stripe(&key)))
                    .or_default()
                    .insert(key.clone());
            }
        }
    }
    let mut shipped = 0u64;
    for ((slot, stripe), keys) in groups {
        let Some(&host) = peers.get(slot) else {
            continue;
        };
        // The stripe lock spans the fresh export *and* the sends: a write
        // forwarding concurrently waits here, then re-exports newer state,
        // so a rebuild frame can never regress a backup.
        let _ordered = routing.repl_stripes[stripe].lock();
        let now = nic.recorder().clock().now();
        for entries in handoff_frames(store.export_keys(|k| keys.contains(k), now)) {
            shipped += entries.len() as u64;
            let msg = encode_request_at(&Request::Replicate { entries }, epoch);
            let _ = nic.call_timeout(host, msg, REPL_CALL_TIMEOUT);
        }
    }
    shipped
}

/// One shard's load report: the store's op counters and sizes plus its
/// epoch, routing/replication counters and replica roles. Computed in
/// place — what `Request::Stats` answers and what [`KvServer::stats`] reads
/// without a round-trip.
fn shard_stats(store: &KvStore, routing: &ShardRouting) -> ShardStats {
    let mut stats = store.stats();
    stats.merge(&routing.counters.snapshot());
    let (cur, index) = routing.serving();
    stats.epoch = cur.epoch;
    stats.replication = routing.replication as u64;
    if routing.replication > 1 {
        let held = store.keys();
        stats.primary_keys = held
            .iter()
            .filter(|key| primary_index_live(key, cur.shard_count, &cur.dead) == index)
            .count() as u64;
        stats.backup_keys = held.len() as u64 - stats.primary_keys;
    }
    stats
}

/// Apply one command through a shard's routing view: keyed requests are
/// ownership-checked (and rejected with [`Response::WrongEpoch`] when the
/// key routes elsewhere), and the resharding protocol messages mutate the
/// view. A traced keyed op records a [`SpanKind::ShardApply`] span
/// (parented under the client's stamp) covering freeze-gate wait +
/// ownership check + apply, so the state tier appears in the ingress
/// call's span tree. With `forwards` set on a replicated tier, a
/// successful keyed write additionally forwards the key's state to its
/// backup replicas over `nic` and gates the ack on the write quorum.
fn apply_traced(
    store: &KvStore,
    routing: &ShardRouting,
    nic: &Nic,
    forwards: bool,
    req: Request,
    client_epoch: u64,
    trace: TraceCtx,
) -> Response {
    let net = forwards.then_some(nic);
    match req {
        Request::Stats => Response::Stats(shard_stats(store, routing)),
        Request::Migrate { epoch, shard_count } => {
            if shard_count == 0 {
                return Response::Err("migrate to an empty table".into());
            }
            // Write side of the gate: from here on no in-flight keyed op
            // can land between the freeze and the export snapshot.
            let _migrating = routing.gate.write();
            let (cur, index) = routing.serving();
            let new_count = shard_count as usize;
            routing.begin(TableInfo {
                epoch,
                shard_count: new_count,
                dead: cur.dead.clone(),
            });
            let r = routing.replication;
            // Export every key this shard is the serving primary for whose
            // replica set changes under the new table — the coordinator
            // routes each entry to the members the key gained.
            let moving = |key: &str| {
                index < cur.shard_count
                    && primary_index_live(key, cur.shard_count, &cur.dead) == index
                    && replica_set_live(key, new_count, &cur.dead, r)
                        != replica_set_live(key, cur.shard_count, &cur.dead, r)
            };
            Response::Handoff(store.export_keys(moving, nic.recorder().clock().now()))
        }
        Request::EpochCommit {
            epoch,
            shard_count,
            dead,
            hosts,
        } => {
            if shard_count == 0 {
                return Response::Err("commit of an empty table".into());
            }
            let _migrating = routing.gate.write();
            let info = TableInfo {
                epoch,
                shard_count: shard_count as usize,
                dead: dead.iter().map(|d| *d as usize).collect(),
            };
            let peers = (!hosts.is_empty()).then(|| hosts.iter().map(|h| HostId(*h)).collect());
            let promoted = routing.commit(info, peers);
            let (cur, index) = routing.serving();
            let r = routing.replication;
            store.purge_keys(|key| {
                !replica_set_live(key, cur.shard_count, &cur.dead, r).contains(&index)
            });
            if promoted {
                nic.recorder()
                    .note_anomaly("replica promotion: failover epoch installed");
            }
            Response::Ok
        }
        Request::Replicate { entries } => {
            if oversized(&entries) {
                return Response::Err("replicate value beyond max value size".into());
            }
            let applied = entries.len() as u64;
            store.import_keys(&entries, nic.recorder().clock().now());
            Response::ReplAck { applied }
        }
        Request::HandoffFrame {
            xfer,
            seq,
            last,
            entries,
        } => {
            if oversized(&entries) {
                return Response::Err("handoff value beyond max value size".into());
            }
            {
                let mut xfers = routing.xfers.lock();
                let expected = xfers.get(&xfer).copied().unwrap_or(0);
                if seq != expected {
                    return Response::Err(format!(
                        "handoff frame {seq} out of order (expected {expected})"
                    ));
                }
                if last {
                    xfers.remove(&xfer);
                } else {
                    xfers.insert(xfer, seq + 1);
                }
            }
            store.import_keys(&entries, nic.recorder().clock().now());
            Response::Ok
        }
        Request::Rebuild { prev_dead } => {
            let Some(nic) = net else {
                return Response::Err("rebuild requires fabric access".into());
            };
            let prev: Vec<usize> = prev_dead.iter().map(|d| *d as usize).collect();
            Response::Len(rebuild_replicas(store, routing, nic, &prev))
        }
        req => {
            let recorder = nic.recorder();
            let entered_ns = recorder.now_ns();
            // Read side of the gate: the ownership check and the store
            // apply are atomic with respect to a concurrent freeze.
            let serving = routing.gate.try_read().unwrap_or_else(|| {
                // Contended: a migration holds the write side. Account the
                // block: `freeze_wait_ns` is what a freeze cost the callers.
                let g = routing.gate.read();
                routing
                    .counters
                    .freeze_wait_ns
                    .add(recorder.now_ns().saturating_sub(entered_ns));
                g
            });
            if let Some(key) = req.key() {
                if let Some(redirect) = routing.check(key, client_epoch) {
                    return redirect;
                }
            }
            // MultiGet is the one multi-key request: every key must be
            // owned here, or the whole batch redirects (the sharded client
            // groups keys per shard, so a redirect means its table is
            // stale for the entire group).
            if let Request::MultiGet { keys } = &req {
                for key in keys {
                    if let Some(redirect) = routing.check(key, client_epoch) {
                        return redirect;
                    }
                }
            }
            // Snapshot what forwarding needs before the apply consumes the
            // request (the key, and whether a TryLock refusal — a no-op on
            // the store — can skip the forward).
            let repl_key = match (net, routing.replication > 1, req.key()) {
                (Some(_), true, Some(key)) if req.mutates_key() => {
                    Some((key.to_string(), matches!(req, Request::TryLock { .. })))
                }
                _ => None,
            };
            let mut resp = apply(store, req, recorder.clock());
            if let (Some(nic), Some((key, is_try_lock))) = (net, repl_key) {
                let skip = matches!(resp, Response::Err(_))
                    || (is_try_lock && resp == Response::Bool(false));
                if !skip {
                    resp = forward_replicas(store, routing, nic, &key, resp, trace);
                }
            }
            drop(serving);
            if !trace.is_none() {
                recorder.span(SpanKind::ShardApply, trace, entered_ns, 0);
            }
            resp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LockMode;
    use faasm_net::Fabric;

    /// Expected shape of a versioned keyed reply.
    fn v(version: u64, inner: Response) -> Response {
        Response::Versioned {
            version,
            inner: Box::new(inner),
        }
    }

    /// Every command against one store, in order, with the reply it must
    /// get. The script holds a step for every tag in [`Request::TAGS`], and
    /// at each keyed step the row's `mutates` attribute must agree with the
    /// store: the key's version or lock holder changes iff the row says so.
    #[test]
    fn apply_covers_every_command() {
        let k = || "k".to_string();
        let unrouted = |what: &str| Response::Err(format!("{what} requires a routed shard"));
        let script = vec![
            (Request::Stats, Response::Stats(KvStore::new().stats())),
            (
                Request::Set {
                    key: k(),
                    value: b"v".to_vec(),
                },
                v(1, Response::Ok),
            ),
            (
                Request::Get { key: k() },
                v(1, Response::Value(Some(b"v".to_vec()))),
            ),
            (
                Request::GetRange {
                    key: k(),
                    offset: 0,
                    len: 1,
                },
                v(1, Response::Value(Some(b"v".to_vec()))),
            ),
            (
                Request::SetRange {
                    key: k(),
                    offset: 1,
                    data: b"w".to_vec(),
                },
                v(2, Response::Ok),
            ),
            (Request::StrLen { key: k() }, Response::Len(2)),
            (
                Request::Append {
                    key: k(),
                    data: b"x".to_vec(),
                },
                v(3, Response::Len(3)),
            ),
            (Request::Exists { key: k() }, Response::Bool(true)),
            (Request::VersionOf { key: k() }, Response::Len(3)),
            (
                Request::MultiGet {
                    keys: vec![k(), "absent".into()],
                },
                Response::MultiValues(vec![Some(b"vwx".to_vec()), None]),
            ),
            (
                Request::Incr {
                    key: "c".into(),
                    delta: 2,
                },
                v(1, Response::Int(2)),
            ),
            (
                Request::TryLock {
                    key: k(),
                    mode: LockMode::Write,
                    owner: 1,
                },
                Response::Bool(true),
            ),
            (
                Request::Unlock {
                    key: k(),
                    mode: LockMode::Write,
                    owner: 1,
                },
                Response::Ok,
            ),
            (
                Request::MultiSetRange {
                    key: "m".into(),
                    writes: [(0, b"ab"), (4, b"cd")].into_iter().collect(),
                },
                v(1, Response::Ok),
            ),
            (
                Request::MultiGetRange {
                    key: "m".into(),
                    spans: vec![(0, 2), (4, 2)],
                },
                v(
                    1,
                    Response::Spans(Some(vec![b"ab".to_vec(), b"cd".to_vec()])),
                ),
            ),
            (
                Request::MultiGetRange {
                    key: "absent".into(),
                    spans: vec![(0, 2)],
                },
                v(0, Response::Spans(None)),
            ),
            (Request::Del { key: "m".into() }, v(2, Response::Bool(true))),
            (Request::Ping, Response::Pong),
            (Request::Del { key: k() }, v(4, Response::Bool(true))),
            (
                Request::Migrate {
                    epoch: 2,
                    shard_count: 2,
                },
                unrouted("resharding"),
            ),
            (
                Request::EpochCommit {
                    epoch: 2,
                    shard_count: 2,
                    dead: Vec::new(),
                    hosts: Vec::new(),
                },
                unrouted("resharding"),
            ),
            (
                Request::Replicate {
                    entries: Vec::new(),
                },
                unrouted("replication"),
            ),
            (
                Request::HandoffFrame {
                    xfer: 1,
                    seq: 0,
                    last: true,
                    entries: Vec::new(),
                },
                unrouted("replication"),
            ),
            (
                Request::Rebuild {
                    prev_dead: Vec::new(),
                },
                unrouted("replication"),
            ),
            (Request::Flush, Response::Ok),
        ];
        // What forwarding to a backup would have to carry: the key's
        // version and who holds its lock.
        let clock = Clock::manual();
        let state = |store: &KvStore, key: &str| {
            let lock = store
                .export_keys(|k| k == key, clock.now())
                .pop()
                .and_then(|e| e.lock.as_ref().map(std::mem::discriminant));
            (store.version_of(key), lock)
        };
        let store = KvStore::new();
        let mut applied = Vec::new();
        for (req, reply) in script {
            applied.push(crate::codec::encode_request(&req)[24]);
            let key = req.key().map(str::to_owned);
            let before = key.as_deref().map(|key| state(&store, key));
            assert_eq!(apply(&store, req.clone(), &clock), reply, "{req:?}");
            let after = key.as_deref().map(|key| state(&store, key));
            assert_eq!(after != before, req.mutates_key(), "{req:?}");
        }
        assert_eq!(store.key_count(), 0);
        applied.sort_unstable();
        applied.dedup();
        let mut declared = Request::TAGS.to_vec();
        declared.sort_unstable();
        assert_eq!(applied, declared, "a step for every declared tag");
    }

    #[test]
    fn server_replies_over_fabric() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client = fabric.add_host();
        let server = KvServer::start(server_nic, 2);
        let sid = server.host_id();
        let resp = client
            .call(sid, crate::codec::encode_request(&Request::Ping))
            .unwrap();
        assert_eq!(
            crate::codec::decode_response(&resp).unwrap(),
            Response::Pong
        );
        server.shutdown();
    }

    #[test]
    fn hostile_offsets_get_errors_and_do_not_kill_workers() {
        // Offsets near u64::MAX pass the codec (the message is tiny) but
        // would panic the zero-extending store write; the apply layer must
        // reject them and the single worker must keep serving afterwards.
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client = fabric.add_host();
        let server = KvServer::start(server_nic, 1);
        let sid = server.host_id();
        for req in [
            Request::SetRange {
                key: "k".into(),
                offset: u64::MAX,
                data: vec![1],
            },
            Request::MultiSetRange {
                key: "k".into(),
                writes: [(0, vec![1]), (u64::MAX - 1, vec![2, 3])]
                    .into_iter()
                    .collect(),
            },
        ] {
            let resp = client
                .call(sid, crate::codec::encode_request(&req))
                .unwrap();
            assert!(
                matches!(
                    crate::codec::decode_response(&resp).unwrap(),
                    Response::Err(_)
                ),
                "hostile write must be rejected: {req:?}"
            );
        }
        // Huge read lengths truncate instead of wrapping slice bounds.
        server.store().set("k", vec![7u8; 8]);
        let resp = client
            .call(
                sid,
                crate::codec::encode_request(&Request::GetRange {
                    key: "k".into(),
                    offset: 2,
                    len: u64::MAX,
                }),
            )
            .unwrap();
        assert_eq!(
            crate::codec::decode_response(&resp).unwrap(),
            Response::Versioned {
                version: 1,
                inner: Box::new(Response::Value(Some(vec![7u8; 6]))),
            }
        );
        // The lone worker survived all of it.
        let resp = client
            .call(sid, crate::codec::encode_request(&Request::Ping))
            .unwrap();
        assert_eq!(
            crate::codec::decode_response(&resp).unwrap(),
            Response::Pong
        );
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client = fabric.add_host();
        let _server = KvServer::start(server_nic.clone(), 1);
        let resp = client.call(server_nic.id(), vec![255, 255]).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&resp).unwrap(),
            Response::Err(_)
        ));
    }

    #[test]
    fn restart_with_retained_store() {
        let fabric = Fabric::new();
        let nic = fabric.add_host();
        let store = Arc::new(KvStore::new());
        store.set("persist", b"yes".to_vec());
        let table = RoutingTable::new(1, vec![nic.id()]);
        let server = KvServer::start_shard(nic.clone(), None, 1, Arc::clone(&store), &table, 0);
        server.shutdown();
        // "Restart" the server process on the same authoritative state.
        let server2 = KvServer::start_shard(nic, None, 1, store, &table, 0);
        assert_eq!(server2.store().get("persist"), Some(b"yes".to_vec()));
        server2.shutdown();
    }
}
