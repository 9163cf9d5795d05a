//! The KVS client used by every host's runtime to reach the global tier.

use std::sync::Arc;

use faasm_net::{HostId, NetError, Nic};
use faasm_telemetry::Recorder;

use crate::backend::KvBackend;
use crate::codec::{
    decode_request, decode_response, encode_request_at, Request, Response, EPOCH_ANY,
};
use crate::server::apply;
use crate::store::{KvStore, ShardStats};

/// Errors from client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// A network failure.
    Net(NetError),
    /// The server reported an error.
    Server(String),
    /// The server replied with an unexpected response shape.
    Protocol,
    /// The shard does not own the key under its routing table: refresh the
    /// routing table to at least `epoch` and retry on the owning shard.
    /// [`ShardedKvClient`](crate::ShardedKvClient) handles this internally;
    /// it surfaces only when the retry budget is exhausted.
    WrongEpoch {
        /// The epoch the routing table must reach.
        epoch: u64,
        /// That epoch's shard count.
        shard_count: u64,
    },
    /// The shard holds the key only as a backup replica: retry on the
    /// primary (after refreshing the routing table to at least `epoch`).
    /// Like [`KvError::WrongEpoch`], the sharded client absorbs this
    /// internally.
    NotPrimary {
        /// The epoch the routing table must reach.
        epoch: u64,
        /// That epoch's total slot count (live and dead).
        shard_count: u64,
    },
    /// The primary could not reach a write quorum (a backup replica is
    /// down): wait for the failover epoch `epoch + 1` and retry. The
    /// sharded client absorbs this internally.
    Unavailable {
        /// The primary's current epoch when the quorum failed.
        epoch: u64,
        /// That epoch's total slot count (live and dead).
        shard_count: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Net(e) => write!(f, "kvs network error: {e}"),
            KvError::Server(m) => write!(f, "kvs server error: {m}"),
            KvError::Protocol => write!(f, "kvs protocol violation"),
            KvError::WrongEpoch { epoch, shard_count } => write!(
                f,
                "kvs routing stale: shard does not own the key (epoch {epoch}, {shard_count} shards)"
            ),
            KvError::NotPrimary { epoch, shard_count } => write!(
                f,
                "kvs replica is not the primary for the key (epoch {epoch}, {shard_count} shards)"
            ),
            KvError::Unavailable { epoch, shard_count } => write!(
                f,
                "kvs write quorum unavailable (epoch {epoch}, {shard_count} shards)"
            ),
        }
    }
}

impl std::error::Error for KvError {}

impl From<NetError> for KvError {
    fn from(e: NetError) -> KvError {
        KvError::Net(e)
    }
}

/// How a client reaches the store: over the fabric (normal case) or
/// in-process (a host that co-locates the global tier; also used heavily in
/// unit tests). A local client has no fabric, so it owns its recorder.
enum Transport {
    Remote { nic: Nic, server: HostId },
    Local(Arc<KvStore>, Arc<Recorder>),
}

/// A synchronous KVS client.
///
/// Thread-safe, with one lock-owner token for its lifetime: a global lock
/// taken on one thread can be released on another through the same client
/// (as the state layer does).
pub struct KvClient {
    transport: Transport,
    owner: u64,
    /// The routing epoch stamped on every request ([`EPOCH_ANY`] for
    /// clients that do not track routing tables).
    epoch: u64,
}

impl KvClient {
    /// A client that reaches the server at `server` over `nic`, its lock
    /// owner a fresh id from `nic`'s fabric.
    pub fn connect(nic: Nic, server: HostId) -> KvClient {
        let owner = nic.fresh_tag();
        KvClient::connect_at(nic, server, EPOCH_ANY, owner)
    }

    /// A client stamped with a routing `epoch` and an explicit lock-`owner`
    /// token — how a sharded client rebuilds its per-shard connections on
    /// an epoch change while keeping one stable owner, so locks taken
    /// before a reshard are still *its* locks after.
    pub fn connect_at(nic: Nic, server: HostId, epoch: u64, owner: u64) -> KvClient {
        KvClient {
            transport: Transport::Remote { nic, server },
            owner,
            epoch,
        }
    }

    /// A client bound directly to an in-process store, its lock owner a
    /// fresh one from that store.
    pub fn local(store: Arc<KvStore>) -> KvClient {
        KvClient {
            owner: store.fresh_owner(),
            transport: Transport::Local(store, Arc::default()),
            epoch: EPOCH_ANY,
        }
    }

    /// The NIC a remote client calls through (`None` for a local one).
    pub(crate) fn nic(&self) -> Option<&Nic> {
        match &self.transport {
            Transport::Remote { nic, .. } => Some(nic),
            Transport::Local(..) => None,
        }
    }

    fn exec(&self, req: &Request) -> Result<Response, KvError> {
        match &self.transport {
            Transport::Remote { nic, server } => {
                let resp = nic.call(*server, encode_request_at(req, self.epoch))?;
                decode_response(&resp).map_err(|_| KvError::Protocol)
            }
            Transport::Local(store, _) => {
                // Keep the codec on the path so local mode measures the same
                // serialisation costs as remote mode, minus the fabric.
                let req = decode_request(&encode_request_at(req, self.epoch))
                    .map_err(|_| KvError::Protocol)?;
                Ok(apply(store, req, self.recorder().clock()))
            }
        }
    }

    /// The shard's load report (key count, value bytes, per-op counters).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn stats(&self) -> Result<ShardStats, KvError> {
        match self.call(&Request::Stats)?.0 {
            Response::Stats(stats) => Ok(stats),
            _ => Err(KvError::Protocol),
        }
    }

    /// Begin a migration on this shard toward `(epoch, shard_count)`:
    /// freezes the moving keys and returns their exported state (the
    /// coordinator streams them to the receiving shard with
    /// [`send_handoff_chunked`](crate::reshard::send_handoff_chunked)).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn migrate(
        &self,
        epoch: u64,
        shard_count: u64,
    ) -> Result<Vec<crate::store::KeyMigration>, KvError> {
        match self.call(&Request::Migrate { epoch, shard_count })?.0 {
            Response::Handoff(entries) => Ok(entries),
            _ => Err(KvError::Protocol),
        }
    }

    /// Commit a routing epoch on this shard (donors purge moved keys).
    /// `dead` lists the slot indices tombstoned at that epoch and `hosts`
    /// the replica-traffic host ids per slot (both empty for a
    /// replication-factor-1 tier, reproducing the legacy wire shape).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn epoch_commit(
        &self,
        epoch: u64,
        shard_count: u64,
        dead: &[u32],
        hosts: &[u32],
    ) -> Result<(), KvError> {
        match self
            .call(&Request::EpochCommit {
                epoch,
                shard_count,
                dead: dead.to_vec(),
                hosts: hosts.to_vec(),
            })?
            .0
        {
            Response::Ok => Ok(()),
            _ => Err(KvError::Protocol),
        }
    }

    /// Install one bounded frame of a chunked handoff (`seq` starts at 0
    /// per transfer `xfer`; `last` marks the final frame).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn handoff_frame(
        &self,
        xfer: u64,
        seq: u32,
        last: bool,
        entries: Vec<crate::store::KeyMigration>,
    ) -> Result<(), KvError> {
        match self
            .call(&Request::HandoffFrame {
                xfer,
                seq,
                last,
                entries,
            })?
            .0
        {
            Response::Ok => Ok(()),
            _ => Err(KvError::Protocol),
        }
    }

    /// Ask a shard to re-ship replicas for keys whose replica set gained
    /// members relative to the routing table with `prev_dead` tombstones.
    /// Returns how many keys were re-shipped.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    pub fn rebuild(&self, prev_dead: &[u32]) -> Result<u64, KvError> {
        match self
            .call(&Request::Rebuild {
                prev_dead: prev_dead.to_vec(),
            })?
            .0
        {
            Response::Len(n) => Ok(n),
            _ => Err(KvError::Protocol),
        }
    }
}

/// Map server-side errors and unwrap the version envelope: the plain API
/// stays version-oblivious while versioned callers (the function-side
/// cache) read the exact counter the shard stamped.
pub(crate) fn check_v(resp: Response) -> Result<(Response, u64), KvError> {
    match resp {
        Response::Err(m) => Err(KvError::Server(m)),
        Response::WrongEpoch { epoch, shard_count } => {
            Err(KvError::WrongEpoch { epoch, shard_count })
        }
        Response::NotPrimary { epoch, shard_count } => {
            Err(KvError::NotPrimary { epoch, shard_count })
        }
        Response::Unavailable { epoch, shard_count } => {
            Err(KvError::Unavailable { epoch, shard_count })
        }
        Response::Versioned { version, inner } => Ok((*inner, version)),
        other => Ok((other, 0)),
    }
}

impl KvBackend for KvClient {
    /// Borrowing the request lets the sharded client retry one built
    /// request across epochs without cloning megabyte write payloads per
    /// attempt (the encode copy is unavoidable). Unlike a routing backend
    /// this one also executes shard-addressed (keyless) requests.
    fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
        check_v(self.exec(req)?)
    }

    fn lock_owner(&self) -> u64 {
        self.owner
    }

    fn multi_get(&self, keys: &[String]) -> Result<Vec<Option<Vec<u8>>>, KvError> {
        let want = keys.len();
        let keys = keys.to_vec();
        match self.call(&Request::MultiGet { keys })?.0 {
            Response::MultiValues(vs) if vs.len() == want => Ok(vs),
            _ => Err(KvError::Protocol),
        }
    }

    fn ping(&self) -> Result<(), KvError> {
        match self.call(&Request::Ping)?.0 {
            Response::Pong => Ok(()),
            _ => Err(KvError::Protocol),
        }
    }

    fn flush(&self) -> Result<(), KvError> {
        match self.call(&Request::Flush)?.0 {
            Response::Ok => Ok(()),
            _ => Err(KvError::Protocol),
        }
    }

    fn shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        Ok(vec![self.stats()?])
    }

    fn recorder(&self) -> &Arc<Recorder> {
        match &self.transport {
            Transport::Remote { nic, .. } => nic.recorder(),
            Transport::Local(_, recorder) => recorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KvServer;
    use crate::store::LockMode;
    use faasm_net::Fabric;

    fn remote_pair() -> (KvClient, KvServer) {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client_nic = fabric.add_host();
        let server = KvServer::start(server_nic, 2);
        let client = KvClient::connect(client_nic, server.host_id());
        (client, server)
    }

    #[test]
    fn full_api_over_network() {
        let (c, server) = remote_pair();
        c.ping().unwrap();
        assert_eq!(c.get("k").unwrap(), None);
        c.set("k", b"hello".to_vec()).unwrap();
        assert_eq!(c.get("k").unwrap(), Some(b"hello".to_vec()));
        assert_eq!(c.strlen("k").unwrap(), 5);
        assert_eq!(c.get_range("k", 1, 3).unwrap(), Some(b"ell".to_vec()));
        c.set_range("k", 0, b"J".to_vec()).unwrap();
        assert_eq!(c.get("k").unwrap(), Some(b"Jello".to_vec()));
        assert_eq!(c.append("k", b"!".to_vec()).unwrap(), 6);
        assert!(c.exists("k").unwrap());
        assert_eq!(c.incr("n", 7).unwrap(), 7);
        assert!(c.del("k").unwrap());
        c.flush().unwrap();
        server.shutdown();
    }

    #[test]
    fn local_transport_matches_remote_semantics() {
        let store = Arc::new(KvStore::new());
        let c = KvClient::local(store);
        c.set("k", b"v".to_vec()).unwrap();
        assert_eq!(c.get("k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(c.incr("n", 1).unwrap(), 1);
    }

    #[test]
    fn global_locks_exclude_across_clients() {
        let store = Arc::new(KvStore::new());
        let c1 = KvClient::local(Arc::clone(&store));
        let c2 = KvClient::local(store);
        c1.lock("k", LockMode::Write).unwrap();
        assert!(!c2.try_lock("k", LockMode::Write).unwrap());
        c1.unlock("k", LockMode::Write).unwrap();
        assert!(c2.try_lock("k", LockMode::Write).unwrap());
        c2.unlock("k", LockMode::Write).unwrap();
    }

    #[test]
    fn blocking_lock_waits_for_release() {
        let store = Arc::new(KvStore::new());
        let c1 = Arc::new(KvClient::local(Arc::clone(&store)));
        let c2 = KvClient::local(Arc::clone(&store));
        c2.lock("k", LockMode::Write).unwrap();
        let c1b = Arc::clone(&c1);
        let t = std::thread::spawn(move || {
            c1b.lock("k", LockMode::Write).unwrap();
            c1b.unlock("k", LockMode::Write).unwrap();
        });
        // c1 has been refused at least once: it is waiting on c2's lock.
        while store.stats().lock_ops < 2 {
            std::thread::yield_now();
        }
        assert!(!t.is_finished(), "c1 took a lock c2 still holds");
        c2.unlock("k", LockMode::Write).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn network_bytes_are_accounted() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client_nic = fabric.add_host();
        let server = KvServer::start(server_nic, 1);
        let client = KvClient::connect(client_nic, server.host_id());
        let before = fabric.stats().snapshot();
        client.set("key", vec![0u8; 1000]).unwrap();
        let delta = fabric.stats().snapshot().delta(&before);
        assert!(
            delta.bytes_sent >= 1000,
            "payload bytes must be charged: {delta:?}"
        );
        server.shutdown();
    }

    #[test]
    fn short_multi_get_reply_is_a_protocol_error() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client = KvClient::connect(fabric.add_host(), server_nic.id());
        let server = std::thread::spawn(move || {
            let env = server_nic.recv().unwrap();
            let short = Response::MultiValues(vec![None]);
            server_nic
                .respond(&env, crate::codec::encode_response(&short))
                .unwrap();
        });
        let keys = ["a".to_string(), "b".to_string()];
        assert_eq!(client.multi_get(&keys), Err(KvError::Protocol));
        server.join().unwrap();
    }

    #[test]
    fn server_gone_yields_net_error() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client_nic = fabric.add_host();
        let sid = server_nic.id();
        fabric.remove_host(sid);
        let client = KvClient::connect(client_nic, sid);
        assert!(matches!(client.ping(), Err(KvError::Net(_))));
    }
}
