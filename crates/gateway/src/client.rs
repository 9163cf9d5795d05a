//! The remote gateway client: submit/wait over the fabric.
//!
//! A [`GatewayClient`] opens one byte-stream connection
//! ([`faasm_net::StreamConn`]) to a [`GatewayServer`](crate::GatewayServer)
//! and multiplexes any number of in-flight calls over it. Submission is
//! asynchronous: [`GatewayClient::submit`] sends the framed request (MTU
//! fragmented) and returns a ticket immediately; a receiver thread
//! reassembles response frames from the server's stream and correlates them
//! to tickets by sequence number, so N outstanding calls cost N map
//! entries, not N blocked RPCs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faasm_core::PendingMap;
use faasm_net::stream::{decode_stream_msg, StreamConn, StreamKind};
use faasm_net::{HostId, NetError, Nic};

use crate::codec::{self, FrameBuf, GatewayRequest, OversizedFrame};
use crate::gateway::WAIT_TIMEOUT;
use crate::response::GatewayResponse;

/// Gateway client construction parameters.
#[derive(Debug, Clone)]
pub struct GatewayClientConfig {
    /// Fragmentation size for request frames (small values exercise
    /// reassembly; the default mimics an Ethernet MTU).
    pub mtu: usize,
}

impl Default for GatewayClientConfig {
    fn default() -> GatewayClientConfig {
        GatewayClientConfig {
            mtu: faasm_net::DEFAULT_MTU,
        }
    }
}

/// Why a submission could not be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The encoded request exceeds [`codec::MAX_FRAME`]; it was never sent
    /// (sending it would only get the connection dropped).
    Oversized(OversizedFrame),
    /// The connection is closed — by the server (protocol violation on our
    /// stream) or because the client shut down.
    Closed(String),
    /// Fabric-level routing failure.
    Net(NetError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Oversized(e) => write!(f, "request too large: {e}"),
            ClientError::Closed(reason) => write!(f, "connection closed: {reason}"),
            ClientError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

struct ClientInner {
    nic: Nic,
    conn: parking_lot::Mutex<StreamConn>,
    server: HostId,
    next_seq: AtomicU64,
    /// Ticket → response. Non-storing (a response nobody holds a ticket
    /// for is dropped), TTL-swept at [`WAIT_TIMEOUT`] on the cluster's
    /// clock (fire-and-forget submitters must not grow it without bound).
    pending: PendingMap<GatewayResponse>,
    /// Why the connection died, once it has; new submits fail fast.
    closed: parking_lot::Mutex<Option<String>>,
    stop: AtomicBool,
}

/// A connected remote-gateway client.
pub struct GatewayClient {
    inner: Arc<ClientInner>,
    recv_thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for GatewayClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayClient")
            .field("host", &self.inner.nic.id())
            .field("server", &self.inner.server)
            .finish()
    }
}

impl GatewayClient {
    /// Connect from `nic` to the gateway server at `server` with defaults.
    ///
    /// # Errors
    ///
    /// Routing errors opening the connection.
    pub fn connect(nic: Nic, server: HostId) -> Result<GatewayClient, NetError> {
        GatewayClient::with_config(nic, server, GatewayClientConfig::default())
    }

    /// Connect with explicit parameters.
    ///
    /// # Errors
    ///
    /// Routing errors opening the connection.
    pub fn with_config(
        nic: Nic,
        server: HostId,
        config: GatewayClientConfig,
    ) -> Result<GatewayClient, NetError> {
        let conn = StreamConn::open(nic.clone(), server, config.mtu)?;
        let clock = nic.recorder().clock().clone();
        let inner = Arc::new(ClientInner {
            nic,
            conn: parking_lot::Mutex::new(conn),
            server,
            next_seq: AtomicU64::new(1),
            pending: PendingMap::new(false, Some(WAIT_TIMEOUT), clock),
            closed: parking_lot::Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let recv_thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-client".into())
                .spawn(move || inner.recv_loop())
                .expect("spawn gateway client receiver")
        };
        Ok(GatewayClient {
            inner,
            recv_thread: parking_lot::Mutex::new(Some(recv_thread)),
        })
    }

    /// This client's host id on the fabric.
    pub fn host_id(&self) -> HostId {
        self.inner.nic.id()
    }

    /// The client NIC (its traffic counters measure the over-fabric cost
    /// of remote ingress).
    pub fn nic(&self) -> &Nic {
        &self.inner.nic
    }

    /// Submit with the gateway's default queueing deadline; returns a
    /// ticket for [`GatewayClient::wait`] immediately (no round trip).
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the request cannot be sent.
    pub fn submit(&self, tenant: &str, function: &str, input: Vec<u8>) -> Result<u64, ClientError> {
        self.submit_with_deadline(tenant, function, input, Duration::ZERO)
    }

    /// Submit with an explicit queueing deadline (`Duration::ZERO` means
    /// the gateway default; sub-millisecond deadlines round up to 1 ms).
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the request cannot be sent.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
        deadline: Duration,
    ) -> Result<u64, ClientError> {
        self.submit_traced(tenant, function, input, deadline)
            .map(|(ticket, _)| ticket)
    }

    /// Submit under a fresh client-minted trace root; returns the ticket
    /// and the trace id, so after [`GatewayClient::wait`] the caller can
    /// pull the call's full span tree from the serving cluster's recorder
    /// (`cluster.fabric().recorder().trace(trace_id)`).
    /// An active thread-local trace context is adopted instead of minting,
    /// so chained remote calls stay on one trace.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the request cannot be sent.
    pub fn submit_traced(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
        deadline: Duration,
    ) -> Result<(u64, u64), ClientError> {
        let deadline_ms = if deadline.is_zero() {
            0
        } else {
            (deadline.as_millis() as u64).max(1)
        };
        let trace = match faasm_telemetry::current() {
            ctx if ctx.is_none() => self.inner.nic.recorder().root(),
            ctx => ctx,
        };
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let req = GatewayRequest {
            seq,
            tenant: tenant.to_string(),
            function: function.to_string(),
            deadline_ms,
            trace,
            input,
        };
        let frame = codec::try_encode_frame(&codec::encode_request(&req))
            .map_err(ClientError::Oversized)?;
        {
            // Checked and registered under the `closed` lock, which
            // `fail_all` takes to set it: a ticket is either refused here or
            // registered before `fail_all` resolves the waiting ones.
            let closed = self.inner.closed.lock();
            if let Some(reason) = &*closed {
                return Err(ClientError::Closed(reason.clone()));
            }
            self.inner.pending.register(seq);
        }
        // The connection lock serialises fragmented writes: interleaved
        // chunks from concurrent submitters would corrupt the stream.
        let sent = self.inner.conn.lock().send(&frame);
        if let Err(e) = sent {
            // Abandon the slot: a zero wait on a non-storing map drops it.
            self.inner.pending.wait(seq, Duration::ZERO);
            return Err(ClientError::Net(e));
        }
        Ok((seq, trace.trace_id))
    }

    /// Block for a submitted ticket's response. Tickets the server never
    /// answers (connection cut mid-call) resolve to an error response at
    /// the wait timeout; tickets this client does not track (never issued,
    /// already claimed, or abandoned by an earlier timed-out wait) resolve
    /// immediately.
    pub fn wait(&self, ticket: u64) -> GatewayResponse {
        self.inner
            .pending
            .wait(ticket, WAIT_TIMEOUT)
            .unwrap_or_else(|| {
                GatewayResponse::error(ticket, "unknown ticket or client wait timed out")
            })
    }

    /// Submit and wait (the synchronous surface).
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the request cannot be sent; a sent request
    /// always resolves to a [`GatewayResponse`].
    pub fn call(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
    ) -> Result<GatewayResponse, ClientError> {
        let ticket = self.submit(tenant, function, input)?;
        Ok(self.wait(ticket))
    }

    /// True once the server (or shutdown) closed the connection.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.lock().is_some()
    }

    /// Tickets currently tracked (in flight or fulfilled-but-unclaimed).
    /// Abandoned tickets are TTL-swept, so this stays bounded under
    /// fire-and-forget traffic.
    pub fn outstanding(&self) -> usize {
        self.inner.pending.len()
    }

    /// Close the connection and stop the receiver thread. Idempotent; also
    /// runs on drop. Outstanding waits resolve to errors.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.recv_thread.lock().take() {
            let _ = t.join();
        }
        self.inner.fail_all("client shut down");
        self.inner.conn.lock().close();
    }
}

impl Drop for GatewayClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ClientInner {
    fn recv_loop(self: Arc<Self>) {
        let my_conn = self.conn.lock().conn_id();
        let mut fb = FrameBuf::new();
        while !self.stop.load(Ordering::Relaxed) {
            let env = match self.nic.recv_timeout(Duration::from_millis(20)) {
                Ok(env) => env,
                Err(faasm_net::NetError::Timeout) => continue,
                Err(_) => {
                    self.fail_all("fabric disconnected");
                    return;
                }
            };
            let Some(msg) = decode_stream_msg(&env.payload) else {
                continue;
            };
            if msg.conn != my_conn || env.src != self.server {
                continue;
            }
            match msg.kind {
                StreamKind::Close => {
                    // The server cut us off (protocol violation on our
                    // stream); nothing in flight will be answered.
                    self.fail_all("connection closed by server");
                    return;
                }
                StreamKind::Data => {
                    fb.feed(&msg.bytes);
                    loop {
                        match fb.next_frame() {
                            Ok(Some(frame)) => match codec::decode_response(&frame) {
                                Some(resp) => self.pending.fulfill(resp.seq, resp),
                                None => {
                                    self.fail_all("malformed response from server");
                                    return;
                                }
                            },
                            Ok(None) => break,
                            Err(_) => {
                                self.fail_all("oversized response from server");
                                return;
                            }
                        }
                    }
                }
                StreamKind::Open => {}
            }
        }
    }

    /// Resolve every outstanding ticket with an error and mark the
    /// connection closed so new submits fail fast.
    fn fail_all(&self, reason: &str) {
        self.closed.lock().get_or_insert_with(|| reason.to_string());
        self.pending
            .fulfill_waiting(|seq| GatewayResponse::error(seq, reason));
    }
}
