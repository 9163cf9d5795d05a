//! The cluster fabric: hosts, NICs and request/response messaging.
//!
//! The fabric replaces the 1 Gbps switched network of the paper's testbed
//! (§6.1). Every host registers a [`Nic`]; messages are delivered through
//! in-process channels while being counted by [`TrafficStats`] and subject
//! to token-bucket shaping, so byte metrics are *measured*, not modelled.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::bucket::TokenBucket;
use crate::stats::TrafficStats;

/// Identifies a host on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Fixed per-message overhead charged on top of the payload (framing,
/// headers).
pub const MSG_HEADER_BYTES: u64 = 64;

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination host is not registered.
    UnknownHost(HostId),
    /// The peer disconnected or the fabric shut down.
    Disconnected,
    /// A blocking call exceeded its timeout.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownHost(h) => write!(f, "unknown host {h}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "network timeout"),
        }
    }
}

impl std::error::Error for NetError {}

/// An incoming message.
#[derive(Debug)]
pub struct Envelope {
    /// Sender host.
    pub src: HostId,
    /// Correlation tag; present when the sender awaits a reply.
    pub reply_tag: Option<u64>,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

struct HostPort {
    req_tx: Sender<Envelope>,
    pending: Arc<Mutex<HashMap<u64, Sender<Vec<u8>>>>>,
    stats: Arc<TrafficStats>,
}

struct FabricInner {
    hosts: Mutex<HashMap<HostId, HostPort>>,
    partitioned: Mutex<HashSet<HostId>>,
    total: TrafficStats,
    next_host: AtomicU64,
    next_tag: AtomicU64,
}

/// The in-process cluster network.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("hosts", &self.inner.hosts.lock().len())
            .field("total_bytes", &self.inner.total.total_bytes())
            .finish()
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new()
    }
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Fabric {
        Fabric {
            inner: Arc::new(FabricInner {
                hosts: Mutex::new(HashMap::new()),
                partitioned: Mutex::new(HashSet::new()),
                total: TrafficStats::new(),
                next_host: AtomicU64::new(0),
                next_tag: AtomicU64::new(1),
            }),
        }
    }

    /// Register a new host, returning its NIC.
    pub fn add_host(&self) -> Nic {
        let id = HostId(self.inner.next_host.fetch_add(1, Ordering::Relaxed) as u32);
        let (req_tx, req_rx) = unbounded();
        let stats = Arc::new(TrafficStats::new());
        let pending = Arc::new(Mutex::new(HashMap::new()));
        self.inner.hosts.lock().insert(
            id,
            HostPort {
                req_tx,
                pending: Arc::clone(&pending),
                stats: Arc::clone(&stats),
            },
        );
        Nic {
            inner: Arc::new(NicInner {
                id,
                fabric: self.clone(),
                req_rx,
                pending,
                stats,
            }),
        }
    }

    /// Remove a host (simulating failure); in-flight sends to it error with
    /// [`NetError::UnknownHost`] or [`NetError::Disconnected`].
    pub fn remove_host(&self, id: HostId) {
        self.inner.hosts.lock().remove(&id);
        self.inner.partitioned.lock().remove(&id);
    }

    /// Cut a host off the fabric without removing it: traffic to or from it
    /// is silently dropped, so senders see [`NetError::Timeout`] rather than
    /// a routing error — a network partition, not a crash. Undo with
    /// [`Fabric::heal_host`].
    pub fn partition_host(&self, id: HostId) {
        self.inner.partitioned.lock().insert(id);
    }

    /// Reconnect a host cut off by [`Fabric::partition_host`].
    pub fn heal_host(&self, id: HostId) {
        self.inner.partitioned.lock().remove(&id);
    }

    fn is_cut(&self, a: HostId, b: HostId) -> bool {
        let p = self.inner.partitioned.lock();
        if p.is_empty() {
            return false;
        }
        p.contains(&a) || p.contains(&b)
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.inner.hosts.lock().len()
    }

    /// Fabric-wide traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.inner.total
    }

    fn fresh_tag(&self) -> u64 {
        self.inner.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Deliver a request to `dst`. Byte counters are touched only after
    /// delivery succeeds: a send to an unknown or removed host moved
    /// nothing across the fabric, and counting it would break the
    /// "measured, not modelled" invariant.
    fn route_request(&self, env: Envelope, dst: HostId) -> Result<(), NetError> {
        if self.is_cut(env.src, dst) {
            // Partitioned link: the frame vanishes in transit. The sender
            // sees a timeout (its bytes did leave the host), never an error.
            return Ok(());
        }
        let bytes = env.payload.len() as u64 + MSG_HEADER_BYTES;
        let hosts = self.inner.hosts.lock();
        let port = hosts.get(&dst).ok_or(NetError::UnknownHost(dst))?;
        port.req_tx.send(env).map_err(|_| NetError::Disconnected)?;
        port.stats.record_recv(bytes);
        self.inner.total.record_recv(bytes);
        Ok(())
    }

    fn route_response(&self, dst: HostId, tag: u64, payload: Vec<u8>) -> Result<(), NetError> {
        if self.inner.partitioned.lock().contains(&dst) {
            // The responder's bytes are lost in transit; the caller times out.
            return Ok(());
        }
        let bytes = payload.len() as u64 + MSG_HEADER_BYTES;
        let hosts = self.inner.hosts.lock();
        let port = hosts.get(&dst).ok_or(NetError::UnknownHost(dst))?;
        let tx = port
            .pending
            .lock()
            .remove(&tag)
            .ok_or(NetError::Disconnected)?;
        tx.send(payload).map_err(|_| NetError::Disconnected)?;
        port.stats.record_recv(bytes);
        self.inner.total.record_recv(bytes);
        Ok(())
    }
}

struct NicInner {
    id: HostId,
    fabric: Fabric,
    req_rx: Receiver<Envelope>,
    pending: Arc<Mutex<HashMap<u64, Sender<Vec<u8>>>>>,
    stats: Arc<TrafficStats>,
}

/// A host's network interface.
///
/// Cloneable; clones share the same queues and counters. Request/response
/// correlation is built in: [`Nic::call`] blocks for the matching
/// [`Nic::respond`] from the server side.
#[derive(Clone)]
pub struct Nic {
    inner: Arc<NicInner>,
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic").field("id", &self.inner.id).finish()
    }
}

/// Default timeout for blocking RPC calls.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(30);

impl Nic {
    /// This NIC's host id.
    pub fn id(&self) -> HostId {
        self.inner.id
    }

    /// Per-host traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.inner.stats
    }

    fn record_send(&self, payload_len: usize) {
        let bytes = payload_len as u64 + MSG_HEADER_BYTES;
        self.inner.stats.record_send(bytes);
        self.inner.fabric.inner.total.record_send(bytes);
    }

    /// Send a one-way message (no reply expected).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownHost`] or [`NetError::Disconnected`];
    /// failed sends are not counted (nothing crossed the fabric).
    pub fn send(&self, dst: HostId, payload: Vec<u8>) -> Result<(), NetError> {
        let len = payload.len();
        self.inner.fabric.route_request(
            Envelope {
                src: self.inner.id,
                reply_tag: None,
                payload,
            },
            dst,
        )?;
        self.record_send(len);
        Ok(())
    }

    /// Send a request and block for its response (an RPC).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] after [`DEFAULT_RPC_TIMEOUT`], or a
    /// routing error.
    pub fn call(&self, dst: HostId, payload: Vec<u8>) -> Result<Vec<u8>, NetError> {
        self.call_timeout(dst, payload, DEFAULT_RPC_TIMEOUT)
    }

    /// [`Nic::call`] with an explicit timeout.
    ///
    /// # Errors
    ///
    /// See [`Nic::call`].
    pub fn call_timeout(
        &self,
        dst: HostId,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, NetError> {
        self.call_timeout_tracked(dst, payload, timeout).0
    }

    /// [`Nic::call_timeout`] plus whether the request was actually
    /// delivered (`true` even on timeout: the bytes crossed the fabric,
    /// only the reply is missing). Lets shaped interfaces keep their
    /// counters in agreement with the NIC's.
    fn call_timeout_tracked(
        &self,
        dst: HostId,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> (Result<Vec<u8>, NetError>, bool) {
        let tag = self.inner.fabric.fresh_tag();
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(tag, tx);
        let len = payload.len();
        let routed = self.inner.fabric.route_request(
            Envelope {
                src: self.inner.id,
                reply_tag: Some(tag),
                payload,
            },
            dst,
        );
        if let Err(e) = routed {
            self.inner.pending.lock().remove(&tag);
            return (Err(e), false);
        }
        // Counted only now: a request bounced by routing never left the host.
        self.record_send(len);
        let result = match rx.recv_timeout(timeout) {
            Ok(resp) => Ok(resp),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                self.inner.pending.lock().remove(&tag);
                Err(NetError::Timeout)
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        };
        (result, true)
    }

    /// Receive the next incoming request/one-way message, blocking.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the fabric shut down.
    pub fn recv(&self) -> Result<Envelope, NetError> {
        self.inner.req_rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// Receive with a timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] if nothing arrives in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.inner
            .req_rx
            .recv_timeout(timeout)
            .map_err(|e| match e {
                crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
                crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
            })
    }

    /// Try to receive without blocking; `None` if the queue is empty.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inner.req_rx.try_recv().ok()
    }

    /// Respond to a request received via [`Nic::recv`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the requester is gone, or
    /// [`NetError::UnknownHost`] if its host was removed.
    pub fn respond(&self, env: &Envelope, payload: Vec<u8>) -> Result<(), NetError> {
        let Some(tag) = env.reply_tag else {
            // One-way messages need no response; dropping it is a server
            // bug, so surface it.
            return Err(NetError::Disconnected);
        };
        if self.inner.fabric.is_cut(self.inner.id, env.src) {
            // The reply is lost in the partition; the caller times out.
            return Ok(());
        }
        let len = payload.len();
        self.inner.fabric.route_response(env.src, tag, payload)?;
        self.record_send(len);
        Ok(())
    }

    /// Create a shaped virtual interface on this NIC — the per-Faaslet
    /// network namespace + `tc` pair of §3.1.
    pub fn virtual_interface(&self, egress: TokenBucket) -> VirtualInterface {
        VirtualInterface {
            nic: self.clone(),
            shaper: egress,
            stats: TrafficStats::new(),
        }
    }
}

/// A per-Faaslet virtual interface: its own counters and egress shaping,
/// multiplexed over the host NIC.
#[derive(Debug)]
pub struct VirtualInterface {
    nic: Nic,
    shaper: TokenBucket,
    stats: TrafficStats,
}

impl VirtualInterface {
    /// The underlying host NIC.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// Per-interface counters (the Faaslet's own traffic).
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Whether egress shaping is enabled.
    pub fn is_shaped(&self) -> bool {
        self.shaper.is_limited()
    }

    /// Shaped one-way send.
    ///
    /// # Errors
    ///
    /// See [`Nic::send`]; failed sends are not counted.
    pub fn send(&self, dst: HostId, payload: Vec<u8>) -> Result<(), NetError> {
        let len = payload.len();
        self.shaper.acquire(len + MSG_HEADER_BYTES as usize);
        self.nic.send(dst, payload)?;
        self.stats.record_send(len as u64 + MSG_HEADER_BYTES);
        Ok(())
    }

    /// Shaped RPC.
    ///
    /// # Errors
    ///
    /// See [`Nic::call`]. Requests bounced by routing are not counted; a
    /// request that reached the peer but timed out awaiting the reply *is*
    /// (the bytes crossed the fabric).
    pub fn call(&self, dst: HostId, payload: Vec<u8>) -> Result<Vec<u8>, NetError> {
        let len = payload.len();
        self.shaper.acquire(len + MSG_HEADER_BYTES as usize);
        let (result, delivered) = self
            .nic
            .call_timeout_tracked(dst, payload, DEFAULT_RPC_TIMEOUT);
        if delivered {
            self.stats.record_send(len as u64 + MSG_HEADER_BYTES);
        }
        if let Ok(resp) = &result {
            self.stats.record_recv(resp.len() as u64 + MSG_HEADER_BYTES);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_send_and_recv() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        a.send(b.id(), b"hello".to_vec()).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.src, a.id());
        assert_eq!(env.payload, b"hello");
        assert!(env.reply_tag.is_none());
    }

    #[test]
    fn rpc_roundtrip() {
        let fabric = Fabric::new();
        let client = fabric.add_host();
        let server = fabric.add_host();
        let server_id = server.id();
        let handle = std::thread::spawn(move || {
            let env = server.recv().unwrap();
            let mut resp = env.payload.clone();
            resp.reverse();
            server.respond(&env, resp).unwrap();
        });
        let resp = client.call(server_id, b"abc".to_vec()).unwrap();
        assert_eq!(resp, b"cba");
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_rpcs_correlate() {
        let fabric = Fabric::new();
        let client = fabric.add_host();
        let server = fabric.add_host();
        let server_id = server.id();
        // Server: collect two requests, respond in reverse order.
        let handle = std::thread::spawn(move || {
            let e1 = server.recv().unwrap();
            let e2 = server.recv().unwrap();
            server.respond(&e2, e2.payload.clone()).unwrap();
            server.respond(&e1, e1.payload.clone()).unwrap();
        });
        let c1 = client.clone();
        let t1 = std::thread::spawn(move || c1.call(server_id, b"one".to_vec()).unwrap());
        // Give the first request a head start so ordering is deterministic
        // enough; correlation must hold regardless.
        std::thread::sleep(Duration::from_millis(10));
        let t2 = std::thread::spawn({
            let c = client.clone();
            move || c.call(server_id, b"two".to_vec()).unwrap()
        });
        assert_eq!(t1.join().unwrap(), b"one");
        assert_eq!(t2.join().unwrap(), b"two");
        handle.join().unwrap();
    }

    #[test]
    fn unknown_host_rejected() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        assert_eq!(
            a.send(HostId(99), vec![]),
            Err(NetError::UnknownHost(HostId(99)))
        );
    }

    #[test]
    fn removed_host_unreachable() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        fabric.remove_host(b.id());
        assert_eq!(fabric.host_count(), 1);
        assert!(matches!(
            a.send(b.id(), vec![]),
            Err(NetError::UnknownHost(_))
        ));
    }

    #[test]
    fn call_times_out_without_server() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        let err = a
            .call_timeout(b.id(), b"ping".to_vec(), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn traffic_is_counted_with_header_overhead() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        a.send(b.id(), vec![0u8; 100]).unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().bytes_sent(), 100 + MSG_HEADER_BYTES);
        assert_eq!(b.stats().bytes_received(), 100 + MSG_HEADER_BYTES);
        assert_eq!(
            fabric.stats().total_bytes(),
            2 * (100 + MSG_HEADER_BYTES),
            "fabric counts both directions"
        );
    }

    #[test]
    fn virtual_interface_counts_and_shapes() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        let vif = a.virtual_interface(TokenBucket::unlimited());
        assert!(!vif.is_shaped());
        vif.send(b.id(), vec![1, 2, 3]).unwrap();
        assert_eq!(vif.stats().bytes_sent(), 3 + MSG_HEADER_BYTES);
        // Host NIC sees it too.
        assert_eq!(a.stats().bytes_sent(), 3 + MSG_HEADER_BYTES);

        let shaped = a.virtual_interface(TokenBucket::new(
            100_000,
            64 + MSG_HEADER_BYTES as usize as u64,
        ));
        assert!(shaped.is_shaped());
        let start = std::time::Instant::now();
        shaped.send(b.id(), vec![0u8; 64]).unwrap(); // uses burst
        shaped.send(b.id(), vec![0u8; 64]).unwrap(); // must wait ~1.3 ms
        assert!(start.elapsed() >= Duration::from_micros(900));
    }

    #[test]
    fn failed_sends_are_not_counted() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        fabric.remove_host(b.id());
        // One-way send, RPC and shaped-interface traffic to a gone host:
        // nothing crossed the fabric, so nothing may be counted.
        assert!(a.send(b.id(), vec![0u8; 100]).is_err());
        assert!(a.call(b.id(), vec![0u8; 100]).is_err());
        let vif = a.virtual_interface(TokenBucket::unlimited());
        assert!(vif.send(b.id(), vec![0u8; 100]).is_err());
        assert!(vif.call(b.id(), vec![0u8; 100]).is_err());
        assert_eq!(a.stats().bytes_sent(), 0);
        assert_eq!(a.stats().msgs_sent(), 0);
        assert_eq!(vif.stats().bytes_sent(), 0);
        assert_eq!(fabric.stats().total_bytes(), 0);
        // A successful send still counts exactly once.
        let c = fabric.add_host();
        a.send(c.id(), vec![0u8; 100]).unwrap();
        assert_eq!(a.stats().bytes_sent(), 100 + MSG_HEADER_BYTES);
    }

    #[test]
    fn undeliverable_call_agrees_across_vif_and_nic_counters() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        let b_id = b.id();
        // Drop b's NIC while the host stays registered: routing finds the
        // port but channel delivery fails (pre-routing Disconnected).
        drop(b);
        let vif = a.virtual_interface(TokenBucket::unlimited());
        assert_eq!(
            vif.call(b_id, vec![0u8; 50]).unwrap_err(),
            NetError::Disconnected
        );
        // Nothing was delivered, so the interface and the NIC must agree:
        // zero bytes, both.
        assert_eq!(vif.stats().bytes_sent(), 0);
        assert_eq!(a.stats().bytes_sent(), 0);
    }

    #[test]
    fn timed_out_call_counts_the_request_bytes() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        // No server drains `b`, so the call times out — but the request
        // really was delivered to b's queue and must be counted.
        let err = a
            .call_timeout(b.id(), vec![0u8; 10], Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(a.stats().bytes_sent(), 10 + MSG_HEADER_BYTES);
        assert_eq!(b.stats().bytes_received(), 10 + MSG_HEADER_BYTES);
    }

    #[test]
    fn recv_timeout_and_try_recv() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        assert!(a.try_recv().is_none());
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn respond_to_oneway_is_error() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        a.send(b.id(), vec![]).unwrap();
        let env = b.recv().unwrap();
        assert!(b.respond(&env, vec![]).is_err());
    }
}
