//! The routing abstraction over the global tier.
//!
//! Everything above the KVS (state entries, proto chunks, workload drivers)
//! talks to the global tier through [`KvBackend`], not a concrete client.
//! A [`KvClient`](crate::KvClient) is the single-server backend; a
//! [`ShardedKvClient`](crate::ShardedKvClient) routes every key to exactly
//! one of N shard servers. Tests inject fault- or latency-wrapped backends
//! through the same seam.
//!
//! The keyed surface is one required method, [`KvBackend::call`]: every
//! typed op is a provided method that builds its [`Request`], calls `call`
//! and checks the reply shape, so "which request, which legal reply" is
//! decided here and nowhere else.

use std::sync::Arc;
use std::time::Duration;

use faasm_telemetry::Recorder;

use crate::client::KvError;
use crate::codec::{Request, Response};
use crate::store::{LockMode, ShardStats};
use crate::writes::RangeWrites;

/// A handle to the global tier shared across a host's runtime.
pub type SharedKv = Arc<dyn KvBackend>;

/// Result of a versioned multi-span read: the spans' bytes (None if the
/// key is absent) and the per-key version they were observed at.
pub type VersionedRunsResult = Result<(Option<Vec<Vec<u8>>>, u64), KvError>;

/// Operations the global state tier serves (Tab. 2's state tier plus
/// counters). Every method routes on its key, so a sharded backend places
/// each key's value, locks and counters on one owning shard.
///
/// A backend implements [`call`](KvBackend::call),
/// [`lock_owner`](KvBackend::lock_owner), [`ping`](KvBackend::ping),
/// [`flush`](KvBackend::flush) and [`recorder`](KvBackend::recorder). The
/// versioned form of an op is the primitive — the shard stamps a version
/// on every keyed ack anyway — and the plain form is the versioned form
/// minus the version, so a wrapper that overrides the versioned form
/// changes both.
pub trait KvBackend: Send + Sync {
    /// Execute one keyed request on the shard owning [`Request::key`] and
    /// return the unwrapped reply with the mutation version its ack
    /// carried (0 if the reply was not versioned).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn call(&self, req: &Request) -> Result<(Response, u64), KvError>;

    /// The owner token this backend's lock requests carry.
    fn lock_owner(&self) -> u64;

    /// Get a value.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, KvError> {
        Ok(self.get_versioned(key)?.0)
    }

    /// Set a value.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn set(&self, key: &str, value: Vec<u8>) -> Result<(), KvError> {
        self.set_versioned(key, value).map(|_| ())
    }

    /// Read a byte range (`None` if the key is missing).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Option<Vec<u8>>, KvError> {
        let key = key.into();
        match self.call(&Request::GetRange { key, offset, len })?.0 {
            Response::Value(v) => Ok(v),
            _ => Err(KvError::Protocol),
        }
    }

    /// Write a byte range, zero-extending the value.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn set_range(&self, key: &str, offset: u64, data: Vec<u8>) -> Result<(), KvError> {
        self.set_range_versioned(key, offset, data).map(|_| ())
    }

    /// Read several byte ranges of one value in one round-trip (`None` if
    /// the key is missing).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn multi_get_range(
        &self,
        key: &str,
        spans: &[(u64, u64)],
    ) -> Result<Option<Vec<Vec<u8>>>, KvError> {
        Ok(self.multi_get_range_versioned(key, spans)?.0)
    }

    /// Write several byte ranges of one value in one round-trip.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn multi_set_range(&self, key: &str, writes: RangeWrites) -> Result<(), KvError> {
        self.multi_set_range_versioned(key, writes).map(|_| ())
    }

    /// Append bytes; returns the new length.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn append(&self, key: &str, data: Vec<u8>) -> Result<u64, KvError> {
        Ok(self.append_versioned(key, data)?.0)
    }

    /// Delete a key; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn del(&self, key: &str) -> Result<bool, KvError> {
        Ok(self.del_versioned(key)?.0)
    }

    /// Whether the key exists.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn exists(&self, key: &str) -> Result<bool, KvError> {
        match self.call(&Request::Exists { key: key.into() })?.0 {
            Response::Bool(b) => Ok(b),
            _ => Err(KvError::Protocol),
        }
    }

    /// Value length in bytes (0 if missing).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn strlen(&self, key: &str) -> Result<u64, KvError> {
        match self.call(&Request::StrLen { key: key.into() })?.0 {
            Response::Len(n) => Ok(n),
            _ => Err(KvError::Protocol),
        }
    }

    /// Atomically add to a counter; returns the new value.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn incr(&self, key: &str, delta: i64) -> Result<i64, KvError> {
        Ok(self.incr_versioned(key, delta)?.0)
    }

    /// Try to acquire a global lock once.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn try_lock(&self, key: &str, mode: LockMode) -> Result<bool, KvError> {
        let (key, owner) = (key.into(), self.lock_owner());
        match self.call(&Request::TryLock { key, mode, owner })?.0 {
            Response::Bool(b) => Ok(b),
            _ => Err(KvError::Protocol),
        }
    }

    /// Acquire a global lock, retrying with backoff (the blocking
    /// `lock_state_global_*` of Tab. 2).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn lock(&self, key: &str, mode: LockMode) -> Result<(), KvError> {
        // Every attempt re-enters `try_lock`, so a wrapper's override runs
        // on acquisition and a reshard landing mid-wait re-routes the next
        // attempt to the key's new owner instead of spinning on the donor.
        let mut backoff = Duration::from_micros(50);
        loop {
            if self.try_lock(key, mode)? {
                return Ok(());
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(5));
        }
    }

    /// Release a global lock.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn unlock(&self, key: &str, mode: LockMode) -> Result<(), KvError> {
        let (key, owner) = (key.into(), self.lock_owner());
        match self.call(&Request::Unlock { key, mode, owner })?.0 {
            Response::Ok => Ok(()),
            _ => Err(KvError::Protocol),
        }
    }

    /// Liveness probe (all shards for a sharded backend).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn ping(&self) -> Result<(), KvError>;

    /// Clear the store (all shards for a sharded backend).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn flush(&self) -> Result<(), KvError>;

    /// The span recorder of the cluster this backend belongs to: the state
    /// layers above record their spans into it.
    fn recorder(&self) -> &Arc<Recorder>;

    /// Get several whole values, in request order — the snapshot plane's
    /// chunk fetch. Sharded backends group the keys per owning shard and
    /// issue one round-trip per shard; the default is a per-key loop so
    /// wrappers and test backends stay correct without batching.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn multi_get(&self, keys: &[String]) -> Result<Vec<Option<Vec<u8>>>, KvError> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// How many shards back this handle (1 for a plain client).
    fn shard_count(&self) -> usize {
        1
    }

    /// Per-shard load reports in shard-index order (key count, value
    /// bytes, per-op counters) — the migration planner's and the tier
    /// autoscaler's skew signal. Backends with nothing to report (test
    /// wrappers) return an empty list.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn shard_stats(&self) -> Result<Vec<ShardStats>, KvError> {
        Ok(Vec::new())
    }

    /// The routing epoch this backend currently serves under
    /// ([`EPOCH_ANY`](crate::EPOCH_ANY) for backends that do not track
    /// routing tables). A function-side cache stamps its snapshots with it
    /// so a reshard or failover (which always bumps the epoch) forces
    /// revalidation.
    fn routing_epoch(&self) -> u64 {
        crate::EPOCH_ANY
    }

    /// The key's mutation-version counter (0 if never mutated) — a
    /// revalidation probe carrying no value bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn version_of(&self, key: &str) -> Result<u64, KvError> {
        match self.call(&Request::VersionOf { key: key.into() })?.0 {
            Response::Len(n) => Ok(n),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::get`] with the version the bytes were observed at,
    /// read atomically on the shard.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn get_versioned(&self, key: &str) -> Result<(Option<Vec<u8>>, u64), KvError> {
        match self.call(&Request::Get { key: key.into() })? {
            (Response::Value(v), version) => Ok((v, version)),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::set`] returning the version the write installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn set_versioned(&self, key: &str, value: Vec<u8>) -> Result<u64, KvError> {
        let key = key.into();
        match self.call(&Request::Set { key, value })? {
            (Response::Ok, version) => Ok(version),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::set_range`] returning the version the write installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn set_range_versioned(&self, key: &str, offset: u64, data: Vec<u8>) -> Result<u64, KvError> {
        let key = key.into();
        match self.call(&Request::SetRange { key, offset, data })? {
            (Response::Ok, version) => Ok(version),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::append`] returning the new length and the version the
    /// append installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn append_versioned(&self, key: &str, data: Vec<u8>) -> Result<(u64, u64), KvError> {
        let key = key.into();
        match self.call(&Request::Append { key, data })? {
            (Response::Len(n), version) => Ok((n, version)),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::del`] returning the version the deletion installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn del_versioned(&self, key: &str) -> Result<(bool, u64), KvError> {
        match self.call(&Request::Del { key: key.into() })? {
            (Response::Bool(b), version) => Ok((b, version)),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::incr`] returning the new value and the version the
    /// increment installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn incr_versioned(&self, key: &str, delta: i64) -> Result<(i64, u64), KvError> {
        let key = key.into();
        match self.call(&Request::Incr { key, delta })? {
            (Response::Int(n), version) => Ok((n, version)),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::multi_get_range`] with the version the runs were
    /// observed at (one version for the whole atomic read).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn multi_get_range_versioned(&self, key: &str, spans: &[(u64, u64)]) -> VersionedRunsResult {
        let (key, want) = (key.into(), spans.len());
        let spans = spans.to_vec();
        match self.call(&Request::MultiGetRange { key, spans })? {
            // A reply must answer every span: a short run list silently
            // accepted would leave chunks unfetched behind an Ok.
            (Response::Spans(Some(runs)), _) if runs.len() != want => Err(KvError::Protocol),
            (Response::Spans(runs), version) => Ok((runs, version)),
            _ => Err(KvError::Protocol),
        }
    }

    /// [`KvBackend::multi_set_range`] returning the version the batch
    /// installed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on network/server failure.
    fn multi_set_range_versioned(&self, key: &str, writes: RangeWrites) -> Result<u64, KvError> {
        let key = key.into();
        match self.call(&Request::MultiSetRange { key, writes })? {
            (Response::Ok, version) => Ok(version),
            _ => Err(KvError::Protocol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    const OWNER: u64 = 0xfeed;
    const VERSION: u64 = 41;

    /// Records every request and answers each with one scripted reply.
    struct Recording {
        seen: Mutex<Vec<Request>>,
        reply: Mutex<Response>,
        recorder: Arc<Recorder>,
    }

    impl KvBackend for Recording {
        fn call(&self, req: &Request) -> Result<(Response, u64), KvError> {
            self.seen.lock().push(req.clone());
            Ok((self.reply.lock().clone(), VERSION))
        }
        fn lock_owner(&self) -> u64 {
            OWNER
        }
        fn ping(&self) -> Result<(), KvError> {
            Ok(())
        }
        fn flush(&self) -> Result<(), KvError> {
            Ok(())
        }
        fn recorder(&self) -> &Arc<Recorder> {
            &self.recorder
        }
    }

    /// A typed call rendered for comparison: the value's `Debug` form and
    /// the version it returned (`None` for forms that return none).
    type Outcome = Result<(String, Option<u64>), KvError>;
    type Op = fn(&Recording) -> Outcome;

    fn plain<T: std::fmt::Debug>(r: Result<T, KvError>) -> Outcome {
        r.map(|v| (format!("{v:?}"), None))
    }

    fn versioned<T: std::fmt::Debug>(r: Result<(T, u64), KvError>) -> Outcome {
        r.map(|(v, version)| (format!("{v:?}"), Some(version)))
    }

    /// One typed op: the request it must emit, a legal reply, the primitive
    /// form and (where the op has one) the plain twin derived from it.
    struct Row {
        name: &'static str,
        want: Request,
        good: Response,
        op: Op,
        twin: Option<Op>,
    }

    fn k() -> String {
        "k".to_string()
    }

    fn table() -> Vec<Row> {
        vec![
            Row {
                name: "get",
                want: Request::Get { key: k() },
                good: Response::Value(Some(b"v".to_vec())),
                op: |b| versioned(b.get_versioned("k")),
                twin: Some(|b| plain(b.get("k"))),
            },
            Row {
                name: "set",
                want: Request::Set {
                    key: k(),
                    value: b"v".to_vec(),
                },
                good: Response::Ok,
                op: |b| versioned(b.set_versioned("k", b"v".to_vec()).map(|v| ((), v))),
                twin: Some(|b| plain(b.set("k", b"v".to_vec()))),
            },
            Row {
                name: "get_range",
                want: Request::GetRange {
                    key: k(),
                    offset: 3,
                    len: 5,
                },
                good: Response::Value(None),
                op: |b| plain(b.get_range("k", 3, 5)),
                twin: None,
            },
            Row {
                name: "set_range",
                want: Request::SetRange {
                    key: k(),
                    offset: 3,
                    data: b"d".to_vec(),
                },
                good: Response::Ok,
                op: |b| {
                    versioned(
                        b.set_range_versioned("k", 3, b"d".to_vec())
                            .map(|v| ((), v)),
                    )
                },
                twin: Some(|b| plain(b.set_range("k", 3, b"d".to_vec()))),
            },
            Row {
                name: "multi_get_range",
                want: Request::MultiGetRange {
                    key: k(),
                    spans: vec![(0, 2), (4, 2)],
                },
                good: Response::Spans(Some(vec![b"ab".to_vec(), b"cd".to_vec()])),
                op: |b| versioned(b.multi_get_range_versioned("k", &[(0, 2), (4, 2)])),
                twin: Some(|b| plain(b.multi_get_range("k", &[(0, 2), (4, 2)]))),
            },
            Row {
                name: "multi_set_range",
                want: Request::MultiSetRange {
                    key: k(),
                    writes: [(0, b"ab"), (4, b"cd")].into_iter().collect(),
                },
                good: Response::Ok,
                op: |b| {
                    let writes = [(0, b"ab"), (4, b"cd")].into_iter().collect();
                    versioned(b.multi_set_range_versioned("k", writes).map(|v| ((), v)))
                },
                twin: Some(|b| {
                    let writes = [(0, b"ab"), (4, b"cd")].into_iter().collect();
                    plain(b.multi_set_range("k", writes))
                }),
            },
            Row {
                name: "append",
                want: Request::Append {
                    key: k(),
                    data: b"d".to_vec(),
                },
                good: Response::Len(7),
                op: |b| versioned(b.append_versioned("k", b"d".to_vec())),
                twin: Some(|b| plain(b.append("k", b"d".to_vec()))),
            },
            Row {
                name: "del",
                want: Request::Del { key: k() },
                good: Response::Bool(true),
                op: |b| versioned(b.del_versioned("k")),
                twin: Some(|b| plain(b.del("k"))),
            },
            Row {
                name: "incr",
                want: Request::Incr {
                    key: k(),
                    delta: -3,
                },
                good: Response::Int(-3),
                op: |b| versioned(b.incr_versioned("k", -3)),
                twin: Some(|b| plain(b.incr("k", -3))),
            },
            Row {
                name: "exists",
                want: Request::Exists { key: k() },
                good: Response::Bool(false),
                op: |b| plain(b.exists("k")),
                twin: None,
            },
            Row {
                name: "strlen",
                want: Request::StrLen { key: k() },
                good: Response::Len(9),
                op: |b| plain(b.strlen("k")),
                twin: None,
            },
            Row {
                name: "version_of",
                want: Request::VersionOf { key: k() },
                good: Response::Len(12),
                op: |b| plain(b.version_of("k")),
                twin: None,
            },
            Row {
                name: "try_lock",
                want: Request::TryLock {
                    key: k(),
                    mode: LockMode::Write,
                    owner: OWNER,
                },
                good: Response::Bool(true),
                op: |b| plain(b.try_lock("k", LockMode::Write)),
                // The blocking form is the same request until it is granted.
                twin: Some(|b| plain(b.lock("k", LockMode::Write).map(|()| true))),
            },
            Row {
                name: "unlock",
                want: Request::Unlock {
                    key: k(),
                    mode: LockMode::Read,
                    owner: OWNER,
                },
                good: Response::Ok,
                op: |b| plain(b.unlock("k", LockMode::Read)),
                twin: None,
            },
        ]
    }

    /// One reply of every shape a keyed op can legally see.
    fn shapes() -> Vec<Response> {
        vec![
            Response::Value(None),
            Response::Ok,
            Response::Len(1),
            Response::Int(1),
            Response::Bool(true),
            Response::Spans(None),
            Response::Pong,
            Response::MultiValues(Vec::new()),
        ]
    }

    #[test]
    fn every_typed_op_emits_its_request_and_checks_its_reply() {
        for row in table() {
            let backend = Recording {
                seen: Mutex::new(Vec::new()),
                reply: Mutex::new(row.good.clone()),
                recorder: Arc::default(),
            };
            let (value, version) = (row.op)(&backend).unwrap_or_else(|e| {
                panic!("{}: legal reply rejected: {e}", row.name);
            });
            assert_eq!(
                std::mem::take(&mut *backend.seen.lock()),
                vec![row.want.clone()],
                "{}: exactly its one request",
                row.name
            );
            if let Some(version) = version {
                assert_eq!(version, VERSION, "{}: the ack's own version", row.name);
            }
            if let Some(twin) = row.twin {
                let (twin_value, twin_version) = twin(&backend).expect("twin accepts the reply");
                assert_eq!(twin_value, value, "{}: plain == versioned value", row.name);
                assert_eq!(twin_version, None, "{}", row.name);
                assert_eq!(
                    std::mem::take(&mut *backend.seen.lock()),
                    vec![row.want.clone()],
                    "{}: the plain form sends the same request",
                    row.name
                );
            }
            for wrong in shapes() {
                if std::mem::discriminant(&wrong) == std::mem::discriminant(&row.good) {
                    continue;
                }
                *backend.reply.lock() = wrong.clone();
                for form in std::iter::once(row.op).chain(row.twin) {
                    assert_eq!(
                        form(&backend).err(),
                        Some(KvError::Protocol),
                        "{}: {wrong:?} is not a legal reply",
                        row.name
                    );
                }
            }
        }
    }

    #[test]
    fn a_span_reply_must_answer_every_span() {
        let backend = Recording {
            seen: Mutex::new(Vec::new()),
            reply: Mutex::new(Response::Spans(Some(vec![b"ab".to_vec()]))),
            recorder: Arc::default(),
        };
        let spans = [(0, 2), (4, 2)];
        assert_eq!(
            backend.multi_get_range_versioned("k", &spans).err(),
            Some(KvError::Protocol)
        );
        assert_eq!(
            backend.multi_get_range("k", &spans).err(),
            Some(KvError::Protocol)
        );
        // A missing key answers no span at all, legally.
        *backend.reply.lock() = Response::Spans(None);
        assert_eq!(
            backend.multi_get_range_versioned("k", &spans),
            Ok((None, VERSION))
        );
    }
}
