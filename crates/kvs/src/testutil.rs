//! Deterministic fault injection and a wire-free backend for the state tier.
//!
//! Tests and examples use these helpers to kill a shard server mid-workload
//! and then assert the replication invariants (no acked write lost, locks
//! intact after promotion, bounded blackout). They are plain library code —
//! nothing here is test-gated — so the failover example can drive the same
//! faults the integration tests do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use faasm_net::Fabric;
use faasm_telemetry::{Clock, Recorder};

use crate::backend::KvBackend;
use crate::client::{check_v, KvError};
use crate::codec::{Request, Response};
use crate::server::{apply, KvServer};
use crate::store::KvStore;

/// An in-process [`KvBackend`] over a bare [`KvStore`]: every request is
/// [`apply`]d exactly as a shard would (same replies, same versions), with
/// a bumpable routing epoch, request counters and a recorder of its own on
/// a manual clock (a lease runs out only when a test advances it) — the
/// wire-free harness for cache and state-entry semantics. "External"
/// writers (another host) mutate [`LocalKv::store`] directly.
pub struct LocalKv {
    /// The authoritative store.
    pub store: KvStore,
    recorder: Arc<Recorder>,
    epoch: AtomicU64,
    requests: AtomicU64,
    reads: AtomicU64,
}

impl Default for LocalKv {
    fn default() -> LocalKv {
        LocalKv::new()
    }
}

impl LocalKv {
    /// An empty store serving at routing epoch 1.
    pub fn new() -> LocalKv {
        LocalKv {
            store: KvStore::new(),
            recorder: Arc::new(Recorder::new(Clock::manual())),
            epoch: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// Bump the routing epoch, as a reshard or failover would.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Keyed requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests so far that carried value bytes back (`Get`, `GetRange`,
    /// `MultiGetRange`) — what a cache hit saves.
    pub fn wire_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl KvBackend for LocalKv {
    fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if matches!(
            req,
            Request::Get { .. } | Request::GetRange { .. } | Request::MultiGetRange { .. }
        ) {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        check_v(apply(&self.store, req.clone(), self.recorder.clock()))
    }

    fn lock_owner(&self) -> u64 {
        0
    }

    fn ping(&self) -> Result<(), KvError> {
        Ok(())
    }

    fn flush(&self) -> Result<(), KvError> {
        self.store.flush();
        Ok(())
    }

    fn routing_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }
}

/// Kill a shard server abruptly: every fabric host it answers on (main and
/// replica NIC) is removed *before* the workers stop, so new callers get
/// `UnknownHost`, a call still queued when the workers stop fails at once
/// with `Disconnected` (its request is dropped unanswered), and nothing in
/// the routing table is updated — detection is the liveness monitor's (or
/// the test's) job.
pub fn crash_server(fabric: &Fabric, server: KvServer) {
    for id in server.host_ids() {
        fabric.remove_host(id);
    }
    server.shutdown();
}
