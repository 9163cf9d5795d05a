//! A sharded global tier: rendezvous-hashed routing over N shard servers.
//!
//! The paper's global tier is "a distributed key-value store" (§4.2); one
//! `KvServer` per cluster caps state throughput at one host's NIC and one
//! store's locks. [`ShardedKvClient`] removes that ceiling: each key —
//! value, counter, lock and set alike — is owned by exactly one shard,
//! chosen by highest-random-weight (rendezvous) hashing, so adding shards
//! multiplies aggregate tier bandwidth while an unchanged shard set never
//! moves a key.
//!
//! The shard set is a **live** property: the routing table is versioned by
//! an epoch and published through a shared [`RoutingCell`]. A client that
//! reaches a shard which no longer owns its key (mid-migration, or with a
//! stale table) gets `WrongEpoch`, waits for the cell to reach the named
//! epoch, rebuilds its per-shard connections and retries — in-flight
//! operations during a reshard are redirected, never lost.

use std::sync::Arc;
use std::time::Duration;

use faasm_net::{HostId, Nic};
use parking_lot::RwLock;

use faasm_telemetry::{splitmix64, Recorder, SpanKind};

use crate::backend::KvBackend;
use crate::client::{KvClient, KvError};
use crate::codec::{Request, Response};
use crate::store::ShardStats;

/// One immutable version of the tier's routing: which fabric hosts serve
/// which shard index, stamped with the epoch that produced it.
///
/// Slots are stable for the life of the tier: a crashed shard is
/// *tombstoned* (its index lands in [`RoutingTable::dead`]) rather than
/// removed, so every surviving slot keeps its rendezvous weight and the
/// only keys that move are the dead slot's own — which fall to their
/// next-ranked live slot, i.e. exactly their backup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// The table's routing epoch (bumped once per reshard or failover).
    pub epoch: u64,
    /// Shard servers in slot order: key `k` is served by the top-ranked
    /// *live* slot of [`replica_set_live`]. Dead slots keep their entry
    /// (never routed to) so survivor weights are stable.
    pub hosts: Vec<HostId>,
    /// Replica-set size R: each key lives on the top-R live rendezvous
    /// ranks (1 = today's single-owner tier).
    pub replication: usize,
    /// Tombstoned slot indices (sorted), excluded from routing.
    pub dead: Vec<usize>,
    /// Per-slot replication endpoints: the host a *primary* forwards
    /// [`Request::Replicate`] to for each slot. Empty when `replication`
    /// is 1 (no forwarding happens).
    pub repl_hosts: Vec<HostId>,
}

impl RoutingTable {
    /// A single-owner table (replication factor 1, no tombstones) — the
    /// pre-replication shape every existing tier boots with.
    pub fn new(epoch: u64, hosts: Vec<HostId>) -> RoutingTable {
        RoutingTable {
            epoch,
            hosts,
            replication: 1,
            dead: Vec::new(),
            repl_hosts: Vec::new(),
        }
    }

    /// Whether `slot` is live (in range and not tombstoned).
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.hosts.len() && !self.dead.contains(&slot)
    }

    /// Number of live slots.
    pub fn live_count(&self) -> usize {
        self.hosts.len() - self.dead.len()
    }

    /// Live slot indices, ascending.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.hosts.len()).filter(|s| self.is_live(*s)).collect()
    }

    /// The slot serving `key` (rank 0 of its replica set).
    pub fn primary_for(&self, key: &str) -> usize {
        primary_index_live(key, self.hosts.len(), &self.dead)
    }

    /// The next epoch's table with one more slot: `host` serves it and, on
    /// a replicated tier, `repl_host` takes its replica traffic.
    pub(crate) fn joined(&self, host: HostId, repl_host: Option<HostId>) -> RoutingTable {
        let mut next = self.clone();
        next.epoch += 1;
        next.hosts.push(host);
        next.repl_hosts.extend(repl_host);
        next
    }
}

/// An epoch-versioned routing-table cell (ArcSwap-style): readers `load` a
/// cheap `Arc` snapshot, the resharding coordinator `store`s the next
/// epoch's table after migration commits. Shared by every consumer of one
/// tier, so a single publish redirects the whole cluster.
#[derive(Debug)]
pub struct RoutingCell {
    table: RwLock<Arc<RoutingTable>>,
}

impl RoutingCell {
    /// A cell initially publishing `table`.
    pub fn new(table: RoutingTable) -> Arc<RoutingCell> {
        assert!(table.live_count() > 0, "a routing table needs live shards");
        Arc::new(RoutingCell {
            table: RwLock::new(Arc::new(table)),
        })
    }

    /// The current table (an `Arc` snapshot; never blocks writers long).
    pub fn load(&self) -> Arc<RoutingTable> {
        Arc::clone(&self.table.read())
    }

    /// Publish the next table. Called by the resharding coordinator once
    /// every shard has committed the new epoch.
    pub fn store(&self, table: RoutingTable) {
        assert!(table.live_count() > 0, "a routing table needs live shards");
        *self.table.write() = Arc::new(table);
    }

    /// The published epoch.
    pub fn epoch(&self) -> u64 {
        self.table.read().epoch
    }
}

/// One epoch's connections: the table it was built from, materialised as a
/// `KvClient` per shard (all sharing the owning client's lock-owner token).
/// Dead slots get a connection too (slot indexing stays direct) but are
/// never routed to, and fan-out operations like `ping` and `flush` skip
/// them.
struct ShardSet {
    table: Arc<RoutingTable>,
    clients: Vec<KvClient>,
}

impl ShardSet {
    fn new(nic: &Nic, table: Arc<RoutingTable>, owner: u64) -> ShardSet {
        let clients = table
            .hosts
            .iter()
            .map(|&host| KvClient::connect_at(nic.clone(), host, table.epoch, owner))
            .collect();
        ShardSet { table, clients }
    }

    /// The live slots' connections, in slot order.
    fn live(&self) -> impl Iterator<Item = &KvClient> {
        self.clients
            .iter()
            .enumerate()
            .filter(|(slot, _)| self.table.is_live(*slot))
            .map(|(_, client)| client)
    }
}

/// How long one operation may wait, in total, for the routing cell to
/// reach an epoch a shard named in `WrongEpoch` (covers the freeze window
/// of a migration in flight) before the error surfaces to the caller.
const MAX_ROUTING_WAIT: Duration = Duration::from_secs(10);

/// A client routing each key to its owning shard, following the tier's
/// routing cell: it rebuilds its per-shard connections whenever the
/// published epoch moves past the one it is holding.
///
/// Lock ownership is consistent across resharding: the client carries one
/// stable owner token, and rebuilt per-shard connections re-use it, so a
/// global lock taken before a migration is still this client's lock after
/// its key moves shards (the server migrates lock state owner-intact).
pub struct ShardedKvClient {
    nic: Nic,
    cell: Arc<RoutingCell>,
    current: RwLock<Arc<ShardSet>>,
    owner: u64,
}

impl std::fmt::Debug for ShardedKvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = self.current();
        f.debug_struct("ShardedKvClient")
            .field("shards", &set.clients.len())
            .field("epoch", &set.table.epoch)
            .finish()
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard owning `key` among `shard_count` shards — a pure function of
/// its arguments (rendezvous hashing: the shard with the highest mixed hash
/// of `(key, shard)` wins, so changing the shard count by one reassigns
/// only the keys whose winner changed). Shared by clients (routing),
/// servers (the ownership check behind `WrongEpoch`) and the migration
/// planner (the epoch delta); panics if `shard_count` is zero.
pub fn shard_index_for(key: &str, shard_count: usize) -> usize {
    primary_index_live(key, shard_count, &[])
}

/// `key`'s ordered replica set: the top-`replication` shards by rendezvous
/// weight, rank 0 first. Rank 0 always equals [`shard_index_for`], so a
/// replication factor of 1 degenerates to the single-owner tier. Growing
/// the shard count by one can only insert the new shard into a set (the
/// survivors' weights are unchanged), which is the minimal-movement
/// property the migration and rebuild paths rely on.
pub fn replica_set_for(key: &str, shard_count: usize, replication: usize) -> Vec<usize> {
    replica_set_live(key, shard_count, &[], replication)
}

/// [`replica_set_for`] over the *live* slots only: tombstoned slots in
/// `dead` never rank. Because dead slots keep their indices, tombstoning a
/// slot leaves every set that did not contain it untouched, and a set that
/// did loses only that member — its backup is already rank 1, so failover
/// is a promotion, not a reshuffle.
pub fn replica_set_live(
    key: &str,
    shard_count: usize,
    dead: &[usize],
    replication: usize,
) -> Vec<usize> {
    assert!(replication >= 1, "replica set needs at least one rank");
    let kh = fnv1a(key.as_bytes());
    // (weight, slot) for every live slot, ranked descending. Shard counts
    // are small (tens); a full sort of the live slots is cheaper to reason
    // about than a partial heap and is off the per-op hot path (rank 0
    // alone is `primary_index_live`, which allocates nothing).
    let mut ranked: Vec<(u64, usize)> = (0..shard_count)
        .filter(|i| !dead.contains(i))
        .map(|i| (splitmix64(kh ^ splitmix64(i as u64)), i))
        .collect();
    assert!(!ranked.is_empty(), "no live shards to route to");
    // Weight descending, slot ascending on (astronomically unlikely) ties —
    // the same tie-break as `primary_index_live`'s first-max scan.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(replication);
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// The top-ranked *live* slot for `key` — rank 0 of [`replica_set_live`]
/// without the allocation (the client routing hot path under tombstones).
pub fn primary_index_live(key: &str, shard_count: usize, dead: &[usize]) -> usize {
    let kh = fnv1a(key.as_bytes());
    let mut best: Option<(u64, usize)> = None;
    for i in 0..shard_count {
        if dead.contains(&i) {
            continue;
        }
        let w = splitmix64(kh ^ splitmix64(i as u64));
        let better = match best {
            None => true,
            Some((bw, _)) => w > bw,
        };
        if better {
            best = Some((w, i));
        }
    }
    best.expect("no live shards to route to").1
}

/// The exact key movement of an epoch change: every key in `keys` whose
/// owner differs between `old_count` and `new_count` shards, paired with
/// its new owner. Growing by one shard moves keys only *onto* the new
/// shard; shrinking by one moves only the retiring shard's keys — the
/// rendezvous minimal-movement property the migration protocol relies on.
pub fn rendezvous_delta<S: AsRef<str>>(
    keys: &[S],
    old_count: usize,
    new_count: usize,
) -> Vec<(String, usize)> {
    keys.iter()
        .filter_map(|key| {
            let key = key.as_ref();
            let new_owner = shard_index_for(key, new_count);
            (shard_index_for(key, old_count) != new_owner).then(|| (key.to_string(), new_owner))
        })
        .collect()
}

impl ShardedKvClient {
    /// A live-routed client over `nic`: per-shard connections are built
    /// from the cell's current table and rebuilt whenever the published
    /// epoch moves (a reshard landing mid-operation is retried against the
    /// new table instead of failing).
    pub fn connect(nic: Nic, cell: Arc<RoutingCell>) -> ShardedKvClient {
        let owner = nic.fresh_tag();
        let current = RwLock::new(Arc::new(ShardSet::new(&nic, cell.load(), owner)));
        ShardedKvClient {
            nic,
            cell,
            current,
            owner,
        }
    }

    /// The shard index serving `key` (its primary) on this client's
    /// current table.
    pub fn shard_index(&self, key: &str) -> usize {
        self.current().table.primary_for(key)
    }

    /// The routing epoch this client is currently operating at.
    pub fn epoch(&self) -> u64 {
        self.current().table.epoch
    }

    /// The current shard set, synchronised with the routing cell: if the
    /// published epoch moved past the held one, per-shard connections are
    /// rebuilt (same owner token, new epoch stamp).
    fn current(&self) -> Arc<ShardSet> {
        let held = Arc::clone(&self.current.read());
        let table = self.cell.load();
        if table.epoch == held.table.epoch {
            return held;
        }
        let mut slot = self.current.write();
        // Double-check under the write lock: another thread may have
        // rebuilt while we waited.
        if slot.table.epoch != table.epoch {
            *slot = Arc::new(ShardSet::new(&self.nic, table, self.owner));
        }
        Arc::clone(&slot)
    }

    /// Wait for the routing cell to publish at least `target` — the other
    /// half of the `WrongEpoch` handshake. The first stale hit retries
    /// immediately (the table may simply be newer than the one this
    /// operation loaded); repeated hits back off while the migration's
    /// freeze window passes.
    fn wait_for_epoch(
        &self,
        target: u64,
        attempt: &mut u32,
        waited: &mut Duration,
        err: KvError,
    ) -> Result<(), KvError> {
        // The budget bounds *every* wait path: repeated rejections at an
        // already-published epoch (a mis-paired table, a commit fan-out
        // that never lands) must surface the error, not retry forever.
        if *waited >= MAX_ROUTING_WAIT {
            return Err(err);
        }
        if *attempt == 0 && self.cell.epoch() >= target {
            *attempt += 1;
            return Ok(());
        }
        *attempt += 1;
        // Wait for the named epoch, but only for a bounded slice per
        // round: a failed migration rolls the shards back and the epoch
        // is *never* published, yet a re-attempt at the current table
        // succeeds immediately — so periodically retry the operation
        // instead of waiting out the full budget for an epoch that may
        // never come.
        const RETRY_SLICE: Duration = Duration::from_millis(100);
        let mut backoff = Duration::from_micros(50);
        let mut sliced = Duration::ZERO;
        while self.cell.epoch() < target && sliced < RETRY_SLICE {
            if *waited >= MAX_ROUTING_WAIT {
                return Err(err);
            }
            std::thread::sleep(backoff);
            *waited += backoff;
            sliced += backoff;
            backoff = (backoff * 2).min(Duration::from_millis(2));
        }
        if self.cell.epoch() >= target {
            // The epoch is published but this op was still rejected (e.g.
            // the commit fan-out is mid-flight): pause — longer on each
            // repeat — before retrying so repeated rejections don't spin.
            let pause =
                Duration::from_micros(100 << (*attempt).min(6)).min(Duration::from_millis(5));
            std::thread::sleep(pause);
            *waited += pause;
        }
        Ok(())
    }

    /// Absorb a routing error from an operation attempted under the shard
    /// set at `set_epoch`: `Ok` means park is over and the caller retries
    /// on the freshly loaded table, `Err` surfaces the error. `WrongEpoch`
    /// and `NotPrimary` wait out the migration (or failover) that named
    /// their epoch; `Unavailable` (a primary that cannot reach its write
    /// quorum) and network errors park for the *next* epoch — the liveness
    /// monitor's failover — so a shard crash is a bounded stall, not a
    /// lost operation.
    fn park_on(
        &self,
        err: KvError,
        set_epoch: u64,
        attempt: &mut u32,
        waited: &mut Duration,
    ) -> Result<(), KvError> {
        match err {
            KvError::WrongEpoch { epoch, .. } | KvError::NotPrimary { epoch, .. } => {
                // The park+retry is a first-class latency stage: record
                // it as a span under the caller's active trace so epoch
                // storms show up in the ingress call's tree.
                let parked_ns = self.nic.recorder().now_ns();
                let outcome = self.wait_for_epoch(epoch, attempt, waited, err);
                let ctx = faasm_telemetry::current();
                if !ctx.is_none() {
                    self.nic.recorder().span(
                        SpanKind::WrongEpochRetry,
                        ctx,
                        parked_ns,
                        u64::from(*attempt),
                    );
                }
                outcome
            }
            // The primary applied nothing it will ack: its quorum is short
            // a backup. Park for the epoch that removes the dead replica;
            // the budget inside `wait_for_epoch` bounds the stall.
            KvError::Unavailable { epoch, .. } => {
                self.wait_for_epoch(epoch + 1, attempt, waited, err)
            }
            // A dead or partitioned shard: if a newer table is already
            // out, retry against it now; otherwise park for the failover
            // epoch like `Unavailable` — the blackout between a crash and
            // its epoch bump must redirect in-flight ops, not fail them.
            KvError::Net(_) if self.cell.epoch() == set_epoch => {
                self.wait_for_epoch(set_epoch + 1, attempt, waited, err)
            }
            KvError::Net(_) => Ok(()),
            other => Err(other),
        }
    }

    /// Every live shard's load report, in shard-index order.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        self.current().live().map(KvClient::stats).collect()
    }
}

impl KvBackend for ShardedKvClient {
    /// Run `req` against its key's primary shard, transparently following
    /// routing-epoch changes (see `park_on`). The
    /// request is built once by the caller and retried by reference: no
    /// per-attempt clone of megabyte write payloads on the hot path.
    fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
        // Only keyed requests have an owning shard to route to.
        let key = req.key().ok_or(KvError::Protocol)?;
        let mut attempt = 0u32;
        let mut waited = Duration::ZERO;
        loop {
            let set = self.current();
            match set.clients[set.table.primary_for(key)].call(req) {
                Ok(reply) => return Ok(reply),
                Err(err) => self.park_on(err, set.table.epoch, &mut attempt, &mut waited)?,
            }
        }
    }

    fn lock_owner(&self) -> u64 {
        self.owner
    }

    fn multi_get(&self, keys: &[String]) -> Result<Vec<Option<Vec<u8>>>, KvError> {
        // The batched chunk fetch: group keys by owning shard, one
        // round-trip per shard. This cannot ride `call` — that loop
        // re-routes on a *single* key, but an epoch change mid-batch can
        // split a group across shards, so every retry re-groups the
        // still-pending keys under the freshly loaded table.
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        let mut attempt = 0u32;
        let mut waited = Duration::ZERO;
        while !pending.is_empty() {
            let set = self.current();
            let mut groups: std::collections::HashMap<usize, Vec<usize>> =
                std::collections::HashMap::new();
            for &i in &pending {
                groups
                    .entry(set.table.primary_for(&keys[i]))
                    .or_default()
                    .push(i);
            }
            for (shard, idxs) in groups {
                let batch: Vec<String> = idxs.iter().map(|&i| keys[i].clone()).collect();
                match set.clients[shard].multi_get(&batch) {
                    Ok(vals) => {
                        for (&i, v) in idxs.iter().zip(vals) {
                            out[i] = v;
                        }
                        pending.retain(|i| !idxs.contains(i));
                    }
                    Err(err) => {
                        self.park_on(err, set.table.epoch, &mut attempt, &mut waited)?;
                        // Re-group the pending keys under the new table
                        // before touching the remaining shards of the
                        // stale grouping.
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    fn ping(&self) -> Result<(), KvError> {
        self.current().live().try_for_each(KvClient::ping)
    }

    fn flush(&self) -> Result<(), KvError> {
        self.current().live().try_for_each(KvClient::flush)
    }

    fn shard_count(&self) -> usize {
        self.current().clients.len()
    }

    fn shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        ShardedKvClient::shard_stats(self)
    }

    fn routing_epoch(&self) -> u64 {
        self.epoch()
    }

    fn recorder(&self) -> &Arc<Recorder> {
        self.nic.recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reshard::start_tier;
    use crate::server::KvServer;
    use crate::store::{KvStore, LockMode};
    use faasm_net::Fabric;

    /// A booted tier's shard servers and two cell-connected clients on it.
    struct Tier {
        servers: Vec<KvServer>,
        client: ShardedKvClient,
        rival: ShardedKvClient,
    }

    impl Tier {
        fn stores(&self) -> impl Iterator<Item = &Arc<KvStore>> {
            self.servers.iter().map(KvServer::store)
        }
    }

    fn sharded_at(n: usize, r: usize) -> Tier {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, n, r, 1);
        Tier {
            servers,
            client: ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell)),
            rival: ShardedKvClient::connect(fabric.add_host(), cell),
        }
    }

    fn sharded(n: usize) -> Tier {
        sharded_at(n, 1)
    }

    #[test]
    fn routing_is_deterministic_and_covers_full_api() {
        for replication in [1, 2] {
            let tier = sharded_at(4, replication);
            let c = &tier.client;
            c.set("k", b"v".to_vec()).unwrap();
            assert_eq!(c.get("k").unwrap(), Some(b"v".to_vec()));
            assert_eq!(c.strlen("k").unwrap(), 1);
            c.set_range("k", 1, b"w".to_vec()).unwrap();
            assert_eq!(c.get_range("k", 0, 2).unwrap(), Some(b"vw".to_vec()));
            assert_eq!(c.append("k", b"!".to_vec()).unwrap(), 3);
            assert!(c.exists("k").unwrap());
            assert_eq!(c.incr("n", 2).unwrap(), 2);
            c.multi_set_range("mk", [(0, b"ab"), (4, b"cd")].into_iter().collect())
                .unwrap();
            assert_eq!(
                c.multi_get_range("mk", &[(0, 2), (4, 2)]).unwrap(),
                Some(vec![b"ab".to_vec(), b"cd".to_vec()])
            );
            assert!(c.del("k").unwrap());
            c.ping().unwrap();
        }
    }

    #[test]
    fn every_op_on_a_key_lands_on_the_owning_shard() {
        let tier = sharded(4);
        let c = &tier.client;
        for key in ["alpha", "mm:C", "sched:warm:u:f", "ctr:9"] {
            let owner = c.shard_index(key);
            c.set(key, b"v".to_vec()).unwrap();
            // The counter is its own key with its own owner shard.
            let ctr = format!("{key}:n");
            c.incr(&ctr, 1).unwrap();
            for (i, store) in tier.stores().enumerate() {
                assert_eq!(
                    store.exists(&ctr),
                    i == c.shard_index(&ctr),
                    "counter {ctr} must live only on its owner shard"
                );
            }
            assert!(c.try_lock(key, LockMode::Write).unwrap());
            for (i, store) in tier.stores().enumerate() {
                let holds_value = store.exists(key);
                // The write lock is held, so only the owner can be blocked.
                let lock_free =
                    store.try_lock(key, LockMode::Write, u64::MAX, std::time::Instant::now());
                if lock_free {
                    store.unlock(key, LockMode::Write, u64::MAX);
                }
                if i == owner {
                    assert!(holds_value, "owner shard {i} must hold {key}");
                    assert!(!lock_free, "owner shard {i} must hold the lock on {key}");
                } else {
                    assert!(!holds_value && lock_free, "shard {i} must not see {key}");
                }
            }
            c.unlock(key, LockMode::Write).unwrap();
        }
    }

    #[test]
    fn single_shard_routes_everything_to_it() {
        let tier = sharded(1);
        let c = &tier.client;
        for i in 0..64 {
            c.set(&format!("k{i}"), vec![i]).unwrap();
        }
        assert_eq!(tier.servers[0].store().key_count(), 64);
        assert_eq!(c.shard_count(), 1);
    }

    #[test]
    fn load_is_balanced_across_shards() {
        let tier = sharded(4);
        let c = &tier.client;
        let keys = 1000;
        for i in 0..keys {
            c.set(&format!("state:key:{i}"), vec![0u8; 8]).unwrap();
        }
        let mean = keys as f64 / 4.0;
        for (i, store) in tier.stores().enumerate() {
            let n = store.key_count();
            assert!(
                (n as f64) <= 2.0 * mean && n > 0,
                "shard {i} holds {n} of {keys} keys (mean {mean})"
            );
        }
    }

    #[test]
    fn flush_clears_every_shard() {
        let tier = sharded(3);
        let c = &tier.client;
        for i in 0..32 {
            c.set(&format!("k{i}"), vec![1]).unwrap();
        }
        c.flush().unwrap();
        for store in tier.stores() {
            assert_eq!(store.key_count(), 0);
        }
    }

    #[test]
    fn locks_exclude_across_sharded_clients() {
        let tier = sharded(2);
        let (a, b) = (&tier.client, &tier.rival);
        assert!(a.try_lock("k", LockMode::Write).unwrap());
        assert!(!b.try_lock("k", LockMode::Write).unwrap());
        a.unlock("k", LockMode::Write).unwrap();
        assert!(b.try_lock("k", LockMode::Write).unwrap());
        b.unlock("k", LockMode::Write).unwrap();
    }
}
