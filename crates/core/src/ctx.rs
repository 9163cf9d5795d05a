//! The per-Faaslet execution context behind the host interface.
//!
//! A [`FaasletCtx`] is the `data` payload of a Faaslet's guest instance: the
//! host-interface implementation keeps everything it needs here — call
//! input/output, the state manager, the descriptor table, the virtual
//! network interface, chain bookkeeping, the per-user clock and RNG. FVM
//! guests reach it through host functions (`hostfuncs.rs`); native guests
//! through [`NativeApi`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use faasm_kvs::LockMode;
use faasm_net::{HostId, NetError, VirtualInterface};
use faasm_sched::{CallId, CallResult};
use faasm_state::{StateEntry, StateError, StateManager, SyncRwLock};
use faasm_vfs::FdTable;

use crate::cgroup::CgroupShare;
use crate::rng::SplitMix64;

/// Routes chained calls into the scheduler and awaits their results; the
/// runtime instance implements this (§3.2's `chain_call`/`await_call`).
pub trait ChainRouter: Send + Sync {
    /// Dispatch a chained call; returns its id immediately.
    fn chain_call(&self, user: &str, function: &str, input: Vec<u8>) -> CallId;

    /// Block until the call completes. Implementations should execute other
    /// pending work while waiting so chains deeper than the worker pool
    /// cannot deadlock.
    fn await_call(&self, id: CallId) -> CallResult;
}

/// A null router for Faaslets created outside a runtime instance (unit
/// tests, benchmarks of isolated Faaslets).
#[derive(Debug, Default)]
pub struct NoChain;

impl ChainRouter for NoChain {
    fn chain_call(&self, _user: &str, _function: &str, _input: Vec<u8>) -> CallId {
        CallId(0)
    }

    fn await_call(&self, id: CallId) -> CallResult {
        CallResult::error(id, "chaining not available in this context")
    }
}

/// A simple client-side socket over the Faaslet's virtual interface:
/// request/response flows to a remote host (the paper supports "simple
/// client-side send/receive operations ... such as connecting to an external
/// data store or a remote HTTP endpoint", §3.2).
#[derive(Debug, Default)]
pub struct Socket {
    /// Connected peer, if any.
    pub remote: Option<HostId>,
    /// Bytes received and not yet read.
    pub recv_buf: Vec<u8>,
}

/// A state value mapped into the Faaslet (guest address for FVM guests).
#[derive(Debug)]
pub struct MappedState {
    /// Guest base address of the mapping (0 for native guests).
    pub guest_addr: u32,
    /// The underlying entry.
    pub entry: Arc<StateEntry>,
}

/// Everything a Faaslet's host interface needs, bundled as instance data.
pub struct FaasletCtx {
    /// The Faaslet's id (also the RNG seed).
    pub faaslet_id: u64,
    /// Owning tenant.
    pub user: String,
    /// Function name.
    pub function: String,
    /// The call currently executing.
    pub call_id: CallId,
    /// Input bytes for the current call.
    pub input: Vec<u8>,
    /// Output bytes accumulated by `write_call_output`.
    pub output: Vec<u8>,
    /// The host's local state tier.
    pub state: Arc<StateManager>,
    /// Open file descriptors (WASI capability table).
    pub fdtable: FdTable,
    /// The Faaslet's shaped virtual NIC.
    pub vif: Arc<VirtualInterface>,
    /// Chained-call dispatch.
    pub router: Arc<dyn ChainRouter>,
    /// CPU-share handle, parked during blocking awaits.
    pub cgroup: Option<Arc<CgroupShare>>,
    /// State keys mapped into this Faaslet.
    pub mapped_state: HashMap<String, MappedState>,
    /// Local state locks the current call took through the host interface
    /// and has not released, oldest first. A local lock has no lease, so
    /// [`FaasletCtx::release_state_locks`] returns whatever is left here
    /// when the call ends, however it ends.
    pub(crate) held_locks: Vec<(Arc<SyncRwLock>, LockMode)>,
    /// Global state locks the current call took and has not released,
    /// oldest first; returned to the tier when the call ends, like
    /// `held_locks`, rather than left for their leases to expire.
    pub(crate) held_global: Vec<(String, LockMode)>,
    /// Open sockets.
    pub sockets: HashMap<u32, Socket>,
    /// Next socket descriptor.
    pub next_socket: u32,
    /// Start of the per-user monotonic clock (Tab. 2 `gettime`), an
    /// instant on the cluster's clock.
    pub started: Instant,
    /// Deterministic RNG backing `getrandom`.
    pub rng: SplitMix64,
    /// Calls chained by the current invocation.
    pub chained: Vec<CallId>,
    /// Completed chained-call results (for `get_call_output`).
    pub results: HashMap<CallId, CallResult>,
    /// Dynamically loaded modules (`dlopen`); slots are `None` after
    /// `dlclose`.
    pub dl_modules: Vec<Option<faasm_fvm::Instance>>,
}

impl std::fmt::Debug for FaasletCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasletCtx")
            .field("faaslet_id", &self.faaslet_id)
            .field("user", &self.user)
            .field("function", &self.function)
            .field("call_id", &self.call_id)
            .finish()
    }
}

impl FaasletCtx {
    /// Map a state key (creating/fetching the local entry of `size` bytes).
    ///
    /// # Errors
    ///
    /// State-layer errors; [`StateError::CapacityExceeded`] if the key is
    /// already mapped with a replica smaller than `size`.
    pub fn state_entry(&mut self, key: &str, size: usize) -> Result<Arc<StateEntry>, StateError> {
        if let Some(m) = self.mapped_state.get(key) {
            let capacity = m.entry.size();
            if size > capacity {
                return Err(StateError::CapacityExceeded {
                    requested: size,
                    capacity,
                });
            }
            return Ok(Arc::clone(&m.entry));
        }
        let entry = self.state.get(key, size)?;
        self.mapped_state.insert(
            key.to_string(),
            MappedState {
                guest_addr: 0,
                entry: Arc::clone(&entry),
            },
        );
        Ok(entry)
    }

    /// Take `key`'s local lock for the current call (`lock_state_read` /
    /// `lock_state_write`), blocking. The lock is the key's
    /// ([`StateManager::local_lock`]): it maps, creates and sizes no
    /// replica, and excludes replicas created while it is held.
    ///
    /// # Errors
    ///
    /// None: the `Result` is the host interface's shape for state calls.
    pub fn lock_state_local(&mut self, key: &str, mode: LockMode) -> Result<(), StateError> {
        let lock = self.state.local_lock(key);
        match mode {
            LockMode::Read => lock.lock_read(),
            LockMode::Write => lock.lock_write(),
        }
        self.held_locks.push((lock, mode));
        Ok(())
    }

    /// Release a local lock the current call holds (`unlock_state_read` /
    /// `unlock_state_write`). Returns `false`, and releases nothing, if
    /// this call holds no such lock: the lock is a count, so an unmatched
    /// unlock would release some other Faaslet's hold.
    ///
    /// # Errors
    ///
    /// None, as for [`FaasletCtx::lock_state_local`].
    pub fn unlock_state_local(&mut self, key: &str, mode: LockMode) -> Result<bool, StateError> {
        let lock = self.state.local_lock(key);
        let held = self
            .held_locks
            .iter()
            .rposition(|(l, m)| Arc::ptr_eq(l, &lock) && *m == mode);
        let Some(at) = held else {
            return Ok(false);
        };
        self.held_locks.remove(at);
        release_local(&lock, mode);
        Ok(true)
    }

    /// Take `key`'s global lock for the current call
    /// (`lock_state_global_read` / `lock_state_global_write`), blocking.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn lock_state_global(&mut self, key: &str, mode: LockMode) -> Result<(), StateError> {
        self.state.lock_global(key, mode)?;
        self.held_global.push((key.to_string(), mode));
        Ok(())
    }

    /// Release a global lock the current call holds. Returns `false`, and
    /// releases nothing, if this call holds no such lock: the tier keeps
    /// one hold per host, so an unmatched unlock would release a sibling
    /// Faaslet's.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn unlock_state_global(&mut self, key: &str, mode: LockMode) -> Result<bool, StateError> {
        let held = self
            .held_global
            .iter()
            .rposition(|(k, m)| k == key && *m == mode);
        let Some(at) = held else {
            return Ok(false);
        };
        self.held_global.remove(at);
        self.state.unlock_global(key, mode)?;
        Ok(true)
    }

    /// Release every lock the call still holds, newest first. Runs at the
    /// end of every call — return, non-zero exit, trap or fuel exhaustion
    /// alike — before the Faaslet is reset or pooled. A global release
    /// that fails leaves the hold to its lease.
    pub fn release_state_locks(&mut self) {
        while let Some((lock, mode)) = self.held_locks.pop() {
            release_local(&lock, mode);
        }
        while let Some((key, mode)) = self.held_global.pop() {
            let _ = self.state.unlock_global(&key, mode);
        }
    }

    /// Open a socket; returns its descriptor.
    pub fn socket(&mut self) -> u32 {
        let fd = self.next_socket;
        self.next_socket += 1;
        self.sockets.insert(fd, Socket::default());
        fd
    }

    /// Connect a socket to a remote host.
    ///
    /// Returns `false` for unknown descriptors.
    pub fn connect(&mut self, sock: u32, remote: HostId) -> bool {
        match self.sockets.get_mut(&sock) {
            Some(s) => {
                s.remote = Some(remote);
                true
            }
            None => false,
        }
    }

    /// Send on a connected socket; the response (request/response protocol)
    /// is buffered for [`FaasletCtx::sock_recv`]. Shaped and counted by the
    /// virtual interface.
    ///
    /// # Errors
    ///
    /// Network errors, or a `Disconnected` error for unconnected sockets.
    pub fn sock_send(&mut self, sock: u32, data: &[u8]) -> Result<usize, NetError> {
        let remote = self
            .sockets
            .get(&sock)
            .and_then(|s| s.remote)
            .ok_or(NetError::Disconnected)?;
        let sent = data.len();
        let resp = self.vif.call(remote, data.to_vec())?;
        if let Some(s) = self.sockets.get_mut(&sock) {
            s.recv_buf.extend_from_slice(&resp);
        }
        Ok(sent)
    }

    /// Read buffered response bytes from a socket.
    pub fn sock_recv(&mut self, sock: u32, buf: &mut [u8]) -> usize {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return 0;
        };
        let n = buf.len().min(s.recv_buf.len());
        buf[..n].copy_from_slice(&s.recv_buf[..n]);
        s.recv_buf.drain(..n);
        n
    }

    /// Close a socket; returns whether it existed.
    pub fn sock_close(&mut self, sock: u32) -> bool {
        self.sockets.remove(&sock).is_some()
    }

    /// Nanoseconds since the Faaslet was built, on the cluster's clock.
    pub fn gettime_ns(&self) -> u64 {
        let now = self.vif.nic().recorder().clock().now();
        now.saturating_duration_since(self.started).as_nanos() as u64
    }

    /// Prepare the context for a new call (same Faaslet, next invocation).
    pub fn begin_call(&mut self, call_id: CallId, input: Vec<u8>) {
        self.call_id = call_id;
        self.input = input;
        self.output.clear();
        self.chained.clear();
        self.results.clear();
    }

    /// Chain a call through the router, recording it.
    pub fn chain(&mut self, function: &str, input: Vec<u8>) -> CallId {
        let id = self.router.chain_call(&self.user, function, input);
        self.chained.push(id);
        id
    }

    /// Await a chained call, parking the CPU share while blocked so the
    /// cgroup does not stall siblings (§3.1).
    pub fn await_chained(&mut self, id: CallId) -> i32 {
        if let Some(r) = self.results.get(&id) {
            return r.return_code();
        }
        if let Some(cg) = &self.cgroup {
            cg.park();
        }
        let result = self.router.await_call(id);
        if let Some(cg) = &self.cgroup {
            cg.unpark();
        }
        let code = result.return_code();
        self.results.insert(id, result);
        code
    }
}

fn release_local(lock: &SyncRwLock, mode: LockMode) {
    match mode {
        LockMode::Read => lock.unlock_read(),
        LockMode::Write => lock.unlock_write(),
    }
}

/// The host interface as seen by trusted **native guests**: workloads the
/// paper compiled to WebAssembly from large C++ codebases run here as
/// native Rust against the same host objects.
pub struct NativeApi<'a> {
    ctx: &'a mut FaasletCtx,
}

impl<'a> NativeApi<'a> {
    /// Wrap a context for a native guest invocation.
    pub fn new(ctx: &'a mut FaasletCtx) -> NativeApi<'a> {
        NativeApi { ctx }
    }

    /// The call's input bytes (`read_call_input`).
    pub fn input(&self) -> &[u8] {
        &self.ctx.input
    }

    /// Set the call's output (`write_call_output`).
    pub fn write_output(&mut self, data: &[u8]) {
        self.ctx.output.extend_from_slice(data);
    }

    /// Get (or create) a state entry of `size` bytes.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn state(&mut self, key: &str, size: usize) -> Result<Arc<StateEntry>, StateError> {
        self.ctx.state_entry(key, size)
    }

    /// The host's state manager, for key-level calls that need no
    /// replica: global locks, and counters through its `kv()`.
    pub fn state_manager(&self) -> &Arc<StateManager> {
        &self.ctx.state
    }

    /// Chain a call (`chain_call`).
    pub fn chain(&mut self, function: &str, input: Vec<u8>) -> CallId {
        self.ctx.chain(function, input)
    }

    /// Await a chained call (`await_call`); returns its return code.
    pub fn await_call(&mut self, id: CallId) -> i32 {
        self.ctx.await_chained(id)
    }

    /// The Faaslet's descriptor table (file I/O).
    pub fn fs(&mut self) -> &mut FdTable {
        &mut self.ctx.fdtable
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use faasm_kvs::{KvClient, KvStore};
    use faasm_net::{Fabric, TokenBucket};
    use faasm_vfs::{HostFs, ObjectStore};

    pub(crate) fn test_ctx() -> FaasletCtx {
        let store = Arc::new(KvStore::new());
        let state = Arc::new(StateManager::new(Arc::new(KvClient::local(store))));
        let objects = Arc::new(ObjectStore::new());
        let hostfs = HostFs::new(objects);
        let fabric = Fabric::new();
        let nic = fabric.add_host();
        let vif = Arc::new(nic.virtual_interface(TokenBucket::unlimited()));
        FaasletCtx {
            faaslet_id: 1,
            user: "tester".into(),
            function: "f".into(),
            call_id: CallId(0),
            input: Vec::new(),
            output: Vec::new(),
            state,
            fdtable: FdTable::new(hostfs, "tester"),
            vif,
            router: Arc::new(NoChain),
            cgroup: None,
            mapped_state: HashMap::new(),
            held_locks: Vec::new(),
            held_global: Vec::new(),
            sockets: HashMap::new(),
            next_socket: 1,
            started: nic.recorder().clock().now(),
            rng: SplitMix64::new(1),
            chained: Vec::new(),
            results: HashMap::new(),
            dl_modules: Vec::new(),
        }
    }

    #[test]
    fn state_entry_is_cached() {
        let mut ctx = test_ctx();
        let a = ctx.state_entry("k", 100).unwrap();
        let b = ctx.state_entry("k", 100).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.mapped_state.len(), 1);
        assert_eq!(
            ctx.state_entry("k", 101).unwrap_err(),
            StateError::CapacityExceeded {
                requested: 101,
                capacity: 100
            },
            "a mapped replica is never handed out smaller than asked"
        );
    }

    #[test]
    fn sockets_lifecycle() {
        let mut ctx = test_ctx();
        let s = ctx.socket();
        assert!(!ctx.connect(99, HostId(0)), "unknown socket");
        assert!(ctx.connect(s, HostId(0)));
        // Unconnected socket errors on send.
        let s2 = ctx.socket();
        assert!(matches!(
            ctx.sock_send(s2, b"x"),
            Err(NetError::Disconnected)
        ));
        assert!(ctx.sock_close(s));
        assert!(!ctx.sock_close(s));
    }

    #[test]
    fn socket_request_response_with_echo_server() {
        let fabric = Fabric::new();
        let server_nic = fabric.add_host();
        let client_nic = fabric.add_host();
        let server_id = server_nic.id();
        let t = std::thread::spawn(move || {
            let env = server_nic.recv().unwrap();
            let mut out = env.payload.clone();
            out.reverse();
            server_nic.respond(&env, out).unwrap();
        });

        let mut ctx = test_ctx();
        ctx.vif = Arc::new(client_nic.virtual_interface(TokenBucket::unlimited()));
        let s = ctx.socket();
        ctx.connect(s, server_id);
        assert_eq!(ctx.sock_send(s, b"abc").unwrap(), 3);
        let mut buf = [0u8; 2];
        assert_eq!(ctx.sock_recv(s, &mut buf), 2);
        assert_eq!(&buf, b"cb");
        let mut rest = [0u8; 8];
        assert_eq!(ctx.sock_recv(s, &mut rest), 1);
        assert_eq!(rest[0], b'a');
        t.join().unwrap();
    }

    #[test]
    fn begin_call_resets_call_scope() {
        let mut ctx = test_ctx();
        ctx.output.extend_from_slice(b"old");
        ctx.results
            .insert(CallId(9), CallResult::success(CallId(9), vec![]));
        ctx.begin_call(CallId(5), b"new input".to_vec());
        assert_eq!(ctx.call_id, CallId(5));
        assert_eq!(ctx.input, b"new input");
        assert!(ctx.output.is_empty());
        assert!(ctx.results.is_empty());
    }

    #[test]
    fn gettime_is_monotonic() {
        let ctx = test_ctx();
        let a = ctx.gettime_ns();
        let b = ctx.gettime_ns();
        assert!(b >= a);
    }

    #[test]
    fn native_api_io() {
        let mut ctx = test_ctx();
        ctx.begin_call(CallId(1), b"payload".to_vec());
        let mut api = NativeApi::new(&mut ctx);
        assert_eq!(api.input(), b"payload");
        api.write_output(b"result");
        api.write_output(b"+more");
        // End the borrow before inspecting the context.
        let _ = api;
        assert_eq!(ctx.output, b"result+more");
    }

    #[test]
    fn nochain_router_errors_awaits() {
        let router = NoChain;
        let id = router.chain_call("u", "f", vec![]);
        let r = router.await_call(id);
        assert_eq!(r.return_code(), -1);
    }
}
