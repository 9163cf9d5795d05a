//! The gateway service loop: ingress over the fabric.
//!
//! [`GatewayServer`] attaches a [`Gateway`] to a [`faasm_net::Nic`] so
//! remote hosts reach admission through the cluster network instead of an
//! in-process function call. Clients speak byte streams
//! ([`faasm_net::stream`]): framed [`codec`] requests arrive fragmented and
//! coalesced, so every connection gets its own [`FrameBuf`] reassembly.
//! Corrupt streams are surgical failures — an oversized length prefix, an
//! undecodable request or a chunk that would take the buffer past
//! [`MAX_FRAME`] plus slack drops *that* connection (with a `Close`
//! notification) and nothing else.
//!
//! Requests are submitted asynchronously ([`Gateway::submit_async`]): the
//! single service thread never blocks on execution, and responses flow back
//! down the originating connection from the dispatcher threads that
//! produced them. One service thread is a correctness requirement, not a
//! simplification: stream chunks must be reassembled in arrival order, and
//! fanning envelopes across threads would reorder them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faasm_net::stream::{close_msg, data_msg, decode_stream_msg, StreamKind};
use faasm_net::{HostId, Nic, DEFAULT_MTU};

use crate::codec::{self, FrameBuf, MAX_FRAME};
use crate::gateway::Gateway;
use crate::response::GatewayResponse;

/// Per-connection cap on buffered-but-unframed bytes: a chunk that would
/// take a connection's reassembly buffer past it drops the connection.
/// Complete frames leave the buffer as they arrive, so it holds at most one
/// partial frame of under `MAX_FRAME + 4` bytes, and a legal stream sent in
/// chunks of up to 4 093 bytes (a client sends [`DEFAULT_MTU`]) is never
/// dropped, however slowly it arrives. `MAX_FRAME` (the length prefix
/// check) bounds the buffer; the cap bounds one oversized chunk.
const MAX_PENDING_BYTES: usize = MAX_FRAME + 4096;

struct ServerInner {
    gateway: Arc<Gateway>,
    nic: Nic,
    stop: AtomicBool,
    /// Serialises response writes: completions fire from concurrent
    /// dispatcher threads, and interleaving two multi-chunk frames on the
    /// same connection would corrupt the client's stream (the mirror of
    /// the client's submit-side connection lock).
    send_lock: parking_lot::Mutex<()>,
    frames_received: AtomicU64,
    connections_dropped: AtomicU64,
}

/// A running gateway server: one service thread draining a NIC, one
/// reassembly buffer per live connection.
pub struct GatewayServer {
    inner: Arc<ServerInner>,
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for GatewayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayServer")
            .field("host", &self.inner.nic.id())
            .finish()
    }
}

impl GatewayServer {
    /// Start serving `gateway` on `nic`.
    pub fn start(gateway: Arc<Gateway>, nic: Nic) -> GatewayServer {
        let inner = Arc::new(ServerInner {
            gateway,
            nic,
            stop: AtomicBool::new(false),
            send_lock: parking_lot::Mutex::new(()),
            frames_received: AtomicU64::new(0),
            connections_dropped: AtomicU64::new(0),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-server".into())
                .spawn(move || inner.service_loop())
                .expect("spawn gateway server")
        };
        GatewayServer {
            inner,
            thread: parking_lot::Mutex::new(Some(thread)),
        }
    }

    /// The server's host id on the fabric (what clients connect to).
    pub fn host_id(&self) -> HostId {
        self.inner.nic.id()
    }

    /// Complete request frames decoded so far.
    pub fn frames_received(&self) -> u64 {
        self.inner.frames_received.load(Ordering::Relaxed)
    }

    /// Connections dropped for protocol violations (oversized frames,
    /// undecodable requests, a chunk past the pending-bytes cap).
    pub fn connections_dropped(&self) -> u64 {
        self.inner.connections_dropped.load(Ordering::Relaxed)
    }

    /// Stop the service thread and wait for it. Idempotent; also runs on
    /// drop. In-flight requests already handed to the gateway still
    /// complete (their responses are sent from dispatcher threads).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerInner {
    fn service_loop(self: Arc<Self>) {
        let mut conns: HashMap<(HostId, u64), FrameBuf> = HashMap::new();
        while !self.stop.load(Ordering::Relaxed) {
            match self.nic.recv_timeout(Duration::from_millis(20)) {
                Ok(env) => self.handle(&mut conns, env.src, &env.payload),
                Err(faasm_net::NetError::Timeout) => continue,
                Err(_) => break,
            }
        }
    }

    fn handle(
        self: &Arc<Self>,
        conns: &mut HashMap<(HostId, u64), FrameBuf>,
        src: HostId,
        payload: &[u8],
    ) {
        // Non-stream traffic on the ingress NIC is not a client bug we can
        // attribute to a connection; ignore it.
        let Some(msg) = decode_stream_msg(payload) else {
            return;
        };
        let key = (src, msg.conn);
        match msg.kind {
            StreamKind::Open => {
                conns.insert(key, FrameBuf::new());
            }
            StreamKind::Close => {
                conns.remove(&key);
            }
            StreamKind::Data => {
                // Data for a connection that never opened (or was dropped
                // for a violation): ignore. Feeding it would desynchronise
                // reassembly from the middle of a stream.
                let Some(fb) = conns.get_mut(&key) else {
                    return;
                };
                if fb.pending_bytes() + msg.bytes.len() > MAX_PENDING_BYTES {
                    self.drop_conn(conns, key);
                    return;
                }
                fb.feed(&msg.bytes);
                loop {
                    match fb.next_frame() {
                        Ok(Some(frame)) => {
                            self.frames_received.fetch_add(1, Ordering::Relaxed);
                            match codec::decode_request(&frame) {
                                Some(req) => self.dispatch(key, req),
                                None => {
                                    // An undecodable request: the stream
                                    // cannot be trusted past it. Tell the
                                    // client why, then cut the connection.
                                    self.send_response(
                                        key,
                                        &GatewayResponse::error(0, "malformed request frame"),
                                    );
                                    self.drop_conn(conns, key);
                                    return;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_oversized) => {
                            self.drop_conn(conns, key);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Hand one request to the gateway; the completion callback frames the
    /// response and sends it back down the connection from whichever
    /// thread fulfils the ticket.
    fn dispatch(self: &Arc<Self>, key: (HostId, u64), req: codec::GatewayRequest) {
        let server = Arc::clone(self);
        self.gateway.submit_async(req, move |resp| {
            server.send_response(key, &resp);
        });
    }

    fn send_response(&self, (host, conn): (HostId, u64), resp: &GatewayResponse) {
        let payload = codec::encode_response(resp);
        let frame = match codec::try_encode_frame(&payload) {
            Ok(frame) => frame,
            Err(_) => {
                // A function output too large to frame: the client still
                // gets a terminal answer, just not the oversized payload.
                let err = GatewayResponse::error(resp.seq, "response exceeds MAX_FRAME");
                codec::encode_frame(&codec::encode_response(&err))
            }
        };
        // All chunks of one frame must hit the wire contiguously.
        let _atomic_frame = self.send_lock.lock();
        // Send errors mean the client host left the fabric; nothing to do.
        for chunk in frame.chunks(DEFAULT_MTU) {
            if self.nic.send(host, data_msg(conn, chunk)).is_err() {
                return;
            }
        }
    }

    fn drop_conn(&self, conns: &mut HashMap<(HostId, u64), FrameBuf>, key: (HostId, u64)) {
        conns.remove(&key);
        self.connections_dropped.fetch_add(1, Ordering::Relaxed);
        let _ = self.nic.send(key.0, close_msg(key.1));
    }
}
