//! Wire protocol for the KVS: a compact hand-rolled binary codec.
//!
//! Every request/response crossing the fabric is encoded through this module,
//! so the byte counts the fabric records for the global tier are faithful to
//! the protocol (no hidden zero-cost serialisation — the paper's evaluation
//! charges serialisation and transfer to the platform, §2.1).

use faasm_net::wire::{
    self, put_bytes, put_count, put_i64, put_u32, put_u64, put_u8, put_varint, Reader, WireError,
};
use faasm_telemetry::TraceCtx;

use crate::store::{KeyMigration, LockMigration, LockMode, ShardStats};
use crate::writes::RangeWrites;

/// The epoch sent by clients that do not track routing epochs (plain
/// [`KvClient`](crate::KvClient)s and test drivers). Servers still apply the
/// key-ownership check — the sentinel only opts the client out of the
/// "epochs match" fast path, never out of correctness.
pub const EPOCH_ANY: u64 = u64::MAX;

/// A client → server command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Get the value of a key.
    Get {
        /// State key.
        key: String,
    },
    /// Set the value of a key.
    Set {
        /// State key.
        key: String,
        /// New value.
        value: Vec<u8>,
    },
    /// Read a byte range of a value.
    GetRange {
        /// State key.
        key: String,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Write a byte range of a value, zero-extending it.
    SetRange {
        /// State key.
        key: String,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Append bytes to a value.
    Append {
        /// State key.
        key: String,
        /// Bytes to append.
        data: Vec<u8>,
    },
    /// Delete a key.
    Del {
        /// State key.
        key: String,
    },
    /// Does the key exist?
    Exists {
        /// State key.
        key: String,
    },
    /// Length of a value.
    StrLen {
        /// State key.
        key: String,
    },
    /// Add to an 8-byte counter.
    Incr {
        /// Counter key.
        key: String,
        /// Signed delta.
        delta: i64,
    },
    /// Add a set member.
    SAdd {
        /// Set key.
        key: String,
        /// Member bytes.
        member: Vec<u8>,
    },
    /// Remove a set member.
    SRem {
        /// Set key.
        key: String,
        /// Member bytes.
        member: Vec<u8>,
    },
    /// List set members.
    SMembers {
        /// Set key.
        key: String,
    },
    /// Set cardinality.
    SCard {
        /// Set key.
        key: String,
    },
    /// Try to acquire a global lock.
    TryLock {
        /// State key.
        key: String,
        /// Read or write.
        mode: LockMode,
        /// Caller-chosen owner token.
        owner: u64,
    },
    /// Release a global lock.
    Unlock {
        /// State key.
        key: String,
        /// Read or write.
        mode: LockMode,
        /// Owner token used at acquisition.
        owner: u64,
    },
    /// Liveness probe.
    Ping,
    /// Clear the store (tests / failure injection).
    Flush,
    /// Read several byte ranges of one value in a single round-trip (the
    /// batched chunk pull: one request for every missing chunk span).
    MultiGetRange {
        /// State key.
        key: String,
        /// `(offset, len)` spans to read.
        spans: Vec<(u64, u64)>,
    },
    /// Write several byte ranges of one value in a single round-trip (the
    /// batched chunk push), zero-extending it as needed.
    MultiSetRange {
        /// State key.
        key: String,
        /// The writes to apply, in order.
        writes: RangeWrites,
    },
    /// Report this shard's load (key count, value bytes, per-op counters) —
    /// the migration planner's and the tier autoscaler's skew signal.
    Stats,
    /// Begin migrating this shard toward a new routing table: the shard
    /// freezes every key it will no longer own under `shard_count` shards
    /// (answering [`Response::WrongEpoch`] until the epoch commits) and
    /// replies [`Response::Handoff`] with the complete exported state of
    /// exactly those moving keys.
    Migrate {
        /// The routing epoch being migrated to.
        epoch: u64,
        /// The shard count of the new routing table.
        shard_count: u64,
    },
    /// Install migrated key state on the receiving shard (values, set
    /// members, counters-as-values and lock state with owners preserved).
    Handoff {
        /// The moving keys' exported state.
        entries: Vec<KeyMigration>,
    },
    /// Commit a routing epoch: the shard adopts the named table as its
    /// serving table and purges every key outside its replica sets (the
    /// donor's post-handoff cleanup). Also the failover path: a commit
    /// with no pending migration installs the table directly, which is how
    /// a backup learns it has been promoted.
    EpochCommit {
        /// The committed routing epoch.
        epoch: u64,
        /// The committed slot count (dead slots included).
        shard_count: u64,
        /// Tombstoned slot indices of the committed table.
        dead: Vec<u32>,
        /// Per-slot replication endpoints (the hosts primaries forward
        /// [`Request::Replicate`] to); empty for replication factor 1.
        hosts: Vec<u32>,
    },
    /// Primary → backup state shipping: install the full exported state of
    /// the carried keys (an entry with no value, members or lock deletes
    /// the key). Shard-addressed — backups accept it even for keys they
    /// are not primary for.
    Replicate {
        /// Exported state of the replicated keys.
        entries: Vec<KeyMigration>,
    },
    /// One bounded frame of a chunked handoff: frames of one transfer
    /// carry consecutive sequence numbers and are imported as they arrive;
    /// the receiver rejects gaps or reordering.
    HandoffFrame {
        /// Transfer id (unique per migration stream).
        xfer: u64,
        /// 0-based frame sequence number within the transfer.
        seq: u32,
        /// Whether this is the transfer's final frame.
        last: bool,
        /// This frame's slice of the exported entries.
        entries: Vec<KeyMigration>,
    },
    /// Post-failover replica rebuild: the shard re-ships, for every key it
    /// is now primary for, the key's state to replica-set members added by
    /// the last tombstone (computed against `prev_dead`, the dead list
    /// *before* the failover).
    Rebuild {
        /// The tombstoned slots of the previous epoch's table.
        prev_dead: Vec<u32>,
    },
    /// Read a key's mutation-version counter without its bytes — the cheap
    /// revalidation probe a function-side cache sends when a lease expires:
    /// if the version is unchanged the cached snapshot is still current and
    /// the value bytes never cross the wire. Replies [`Response::Len`].
    VersionOf {
        /// State key.
        key: String,
    },
    /// Get several whole values in one round-trip (the snapshot plane's
    /// chunk fetch: every content-addressed chunk a shard owns, in one
    /// request). Multi-key, so the server checks ownership of *every* key
    /// and redirects if any is misrouted. Replies
    /// [`Response::MultiValues`].
    MultiGet {
        /// State keys, in reply order.
        keys: Vec<String>,
    },
}

impl Request {
    /// The state key this request routes on, if any — migration, stats and
    /// liveness commands are shard-addressed, not key-addressed, and skip
    /// the server's ownership check.
    pub fn key(&self) -> Option<&str> {
        match self {
            Request::Get { key }
            | Request::Set { key, .. }
            | Request::GetRange { key, .. }
            | Request::SetRange { key, .. }
            | Request::Append { key, .. }
            | Request::Del { key }
            | Request::Exists { key }
            | Request::StrLen { key }
            | Request::Incr { key, .. }
            | Request::SAdd { key, .. }
            | Request::SRem { key, .. }
            | Request::SMembers { key }
            | Request::SCard { key }
            | Request::TryLock { key, .. }
            | Request::Unlock { key, .. }
            | Request::MultiGetRange { key, .. }
            | Request::MultiSetRange { key, .. }
            | Request::VersionOf { key } => Some(key),
            // MultiGet routes on *all* its keys; the server special-cases
            // its ownership check instead of this single-key accessor.
            Request::Ping
            | Request::Flush
            | Request::Stats
            | Request::Migrate { .. }
            | Request::Handoff { .. }
            | Request::EpochCommit { .. }
            | Request::Replicate { .. }
            | Request::HandoffFrame { .. }
            | Request::Rebuild { .. }
            | Request::MultiGet { .. } => None,
        }
    }
}

/// A server → client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A possibly-missing value.
    Value(Option<Vec<u8>>),
    /// Success with no payload.
    Ok,
    /// A length or cardinality.
    Len(u64),
    /// A counter value.
    Int(i64),
    /// A boolean outcome.
    Bool(bool),
    /// A list of values.
    Values(Vec<Vec<u8>>),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Server-side failure.
    Err(String),
    /// Reply to [`Request::MultiGetRange`]: `None` if the key is missing,
    /// otherwise one (possibly truncated) byte run per requested span.
    Spans(Option<Vec<Vec<u8>>>),
    /// The shard does not own the request's key under its current routing
    /// table: the client should refresh its table to at least `epoch` and
    /// retry against the owning shard.
    WrongEpoch {
        /// The epoch the client must reach before retrying.
        epoch: u64,
        /// The shard count of that epoch's routing table.
        shard_count: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats(ShardStats),
    /// Reply to [`Request::Migrate`]: the exported state of every moving
    /// key (also the payload shape of [`Request::Handoff`]).
    Handoff(Vec<KeyMigration>),
    /// Reply to [`Request::Replicate`]: the backup installed the entries.
    ReplAck {
        /// Number of entries applied.
        applied: u64,
    },
    /// The request's key is replicated on this shard but served by a
    /// different primary: the client should refresh its table to at least
    /// `epoch` and retry — the same redirect-and-retry loop as
    /// [`Response::WrongEpoch`].
    NotPrimary {
        /// The epoch the client should reach before retrying.
        epoch: u64,
        /// The slot count of that epoch's routing table.
        shard_count: u64,
    },
    /// The primary could not assemble its write quorum (a backup is dead
    /// or partitioned): nothing was acked. The client should park for the
    /// failover epoch (`epoch + 1`) and retry.
    Unavailable {
        /// The primary's current epoch.
        epoch: u64,
        /// The slot count of that epoch's routing table.
        shard_count: u64,
    },
    /// Reply to [`Request::MultiGet`]: one possibly-missing value per
    /// requested key, in request order.
    MultiValues(Vec<Option<Vec<u8>>>),
    /// A successful keyed reply widened with the key's mutation-version
    /// counter — what a function-side cache stamps its snapshots with
    /// (reads carry the version the bytes were observed at, mutation acks
    /// the version the write installed, both taken under the same stripe
    /// lock as the operation). Never wraps an error or redirect, and never
    /// nests.
    Versioned {
        /// The key's mutation-version counter at the time of the operation.
        version: u64,
        /// The plain reply being widened.
        inner: Box<Response>,
    },
}

/// A malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError(e.to_string())
    }
}

fn put_u32_list(out: &mut Vec<u8>, list: &[u32]) {
    put_count(out, list.len());
    for v in list {
        put_u32(out, *v);
    }
}

fn mode_byte(m: LockMode) -> u8 {
    match m {
        LockMode::Read => 0,
        LockMode::Write => 1,
    }
}

fn read_mode(r: &mut Reader<'_>) -> Result<LockMode, WireError> {
    match r.u8()? {
        0 => Ok(LockMode::Read),
        1 => Ok(LockMode::Write),
        _ => Err(WireError::Invalid),
    }
}

/// The span table of a [`Request::MultiSetRange`]: a count, then per span a
/// varint offset — as the distance from the previous span's end (from zero
/// for the first), so an ascending scatter of small writes costs a byte or
/// two a span where a fixed offset costs eight — and a varint length. The
/// distance wraps, so any order of any offsets roundtrips.
fn put_write_spans(out: &mut Vec<u8>, spans: &[(u64, u32)]) {
    put_count(out, spans.len());
    let mut end = 0u64;
    for &(offset, len) in spans {
        put_varint(out, offset.wrapping_sub(end));
        put_varint(out, u64::from(len));
        end = offset.wrapping_add(u64::from(len));
    }
}

fn read_write_spans(r: &mut Reader<'_>) -> Result<Vec<(u64, u32)>, WireError> {
    let mut end = 0u64;
    // Every span costs at least one byte of distance and one of length.
    r.list(2, |r| {
        let offset = end.wrapping_add(r.varint()?);
        let len = u32::try_from(r.varint()?).map_err(|_| WireError::Invalid)?;
        end = offset.wrapping_add(u64::from(len));
        Ok((offset, len))
    })
}

/// A presence flag, then the value it announces.
fn put_optional(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(v) => {
            put_u8(out, 1);
            put_bytes(out, v);
        }
        None => put_u8(out, 0),
    }
}

fn read_optional(r: &mut Reader<'_>) -> Result<Option<Vec<u8>>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.bytes()?.to_vec())),
        _ => Err(WireError::Invalid),
    }
}

/// Payload bytes one migration entry needs on the wire.
fn entry_payload_len(e: &KeyMigration) -> usize {
    let lock = match &e.lock {
        None => 1,
        Some(LockMigration::Readers(r)) => 5 + r.len() * 16,
        Some(LockMigration::Writer { .. }) => 17,
    };
    17 + e.key.len()
        + e.value.as_ref().map_or(0, |v| v.len() + 4)
        + e.set.iter().map(|m| m.len() + 4).sum::<usize>()
        + lock
}

/// Payload bytes a request encoding will need beyond its fixed fields —
/// sizing the output buffer up front keeps megabyte-scale batched pushes
/// from paying doubling reallocations.
fn request_payload_len(req: &Request) -> usize {
    match req {
        Request::Set { key, value } => key.len() + value.len(),
        Request::SetRange { key, data, .. } | Request::Append { key, data } => {
            key.len() + data.len()
        }
        Request::SAdd { key, member } | Request::SRem { key, member } => key.len() + member.len(),
        Request::MultiGetRange { key, spans } => key.len() + spans.len() * 16,
        Request::MultiSetRange { key, writes } => {
            key.len() + 8 + writes.len() * 4 + writes.payload().len()
        }
        Request::Get { key }
        | Request::GetRange { key, .. }
        | Request::Del { key }
        | Request::Exists { key }
        | Request::StrLen { key }
        | Request::Incr { key, .. }
        | Request::SMembers { key }
        | Request::SCard { key }
        | Request::TryLock { key, .. }
        | Request::Unlock { key, .. }
        | Request::VersionOf { key } => key.len(),
        Request::Ping | Request::Flush | Request::Stats => 0,
        Request::Migrate { .. } => 16,
        Request::EpochCommit { dead, hosts, .. } => 24 + (dead.len() + hosts.len()) * 4,
        Request::Handoff { entries } | Request::Replicate { entries } => {
            entries.iter().map(entry_payload_len).sum()
        }
        Request::HandoffFrame { entries, .. } => {
            17 + entries.iter().map(entry_payload_len).sum::<usize>()
        }
        Request::Rebuild { prev_dead } => 4 + prev_dead.len() * 4,
        Request::MultiGet { keys } => 4 + keys.iter().map(|k| k.len() + 4).sum::<usize>(),
    }
}

fn put_entry(out: &mut Vec<u8>, e: &KeyMigration) {
    put_bytes(out, e.key.as_bytes());
    put_optional(out, e.value.as_deref());
    put_count(out, e.set.len());
    for member in &e.set {
        put_bytes(out, member);
    }
    match &e.lock {
        None => put_u8(out, 0),
        Some(LockMigration::Readers(readers)) => {
            put_u8(out, 1);
            put_count(out, readers.len());
            for (owner, remaining) in readers {
                put_u64(out, *owner);
                put_u64(out, *remaining);
            }
        }
        Some(LockMigration::Writer {
            owner,
            remaining_ms,
        }) => {
            put_u8(out, 2);
            put_u64(out, *owner);
            put_u64(out, *remaining_ms);
        }
    }
    put_u64(out, e.version);
}

fn put_entries(out: &mut Vec<u8>, entries: &[KeyMigration]) {
    put_count(out, entries.len());
    for entry in entries {
        put_entry(out, entry);
    }
}

fn read_entry(r: &mut Reader<'_>) -> Result<KeyMigration, WireError> {
    Ok(KeyMigration {
        key: r.string()?,
        value: read_optional(r)?,
        // Every member costs at least its 4-byte length prefix.
        set: r.list(4, |r| Ok(r.bytes()?.to_vec()))?,
        lock: match r.u8()? {
            0 => None,
            1 => Some(LockMigration::Readers(
                r.list(16, |r| Ok((r.u64()?, r.u64()?)))?,
            )),
            2 => Some(LockMigration::Writer {
                owner: r.u64()?,
                remaining_ms: r.u64()?,
            }),
            _ => return Err(WireError::Invalid),
        },
        version: r.u64()?,
    })
}

/// Every entry costs at least 17 bytes of fixed framing (key length, value
/// flag, member count, lock kind, version).
fn read_entries(r: &mut Reader<'_>) -> Result<Vec<KeyMigration>, WireError> {
    r.list(17, read_entry)
}

/// Encode a request for the wire without epoch information
/// ([`encode_request_at`] with [`EPOCH_ANY`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_request_at(req, EPOCH_ANY)
}

/// Encode a request for the wire, stamped with the client's routing epoch
/// and the calling thread's active trace context ([`faasm_telemetry::current`]) —
/// so a Faaslet's state I/O carries its ingress call's trace to the shard
/// without any per-call-site plumbing.
pub fn encode_request_at(req: &Request, epoch: u64) -> Vec<u8> {
    encode_request_traced(req, epoch, faasm_telemetry::current())
}

/// Encode a request for the wire, stamped with the client's routing epoch
/// and an explicit trace context. Every request carries the epoch so a
/// shard can recognise stale routing at a glance (and skip the per-key
/// ownership hash when epochs match); the trace context lets the shard
/// parent its apply spans under the ingress call that caused the work.
pub fn encode_request_traced(req: &Request, epoch: u64, trace: TraceCtx) -> Vec<u8> {
    let mut out = Vec::with_capacity(56 + request_payload_len(req));
    put_u64(&mut out, epoch);
    put_u64(&mut out, trace.trace_id);
    put_u64(&mut out, trace.span_id);
    match req {
        Request::Get { key } => {
            put_u8(&mut out, 0);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::Set { key, value } => {
            put_u8(&mut out, 1);
            put_bytes(&mut out, key.as_bytes());
            put_bytes(&mut out, value);
        }
        Request::GetRange { key, offset, len } => {
            put_u8(&mut out, 2);
            put_bytes(&mut out, key.as_bytes());
            put_u64(&mut out, *offset);
            put_u64(&mut out, *len);
        }
        Request::SetRange { key, offset, data } => {
            put_u8(&mut out, 3);
            put_bytes(&mut out, key.as_bytes());
            put_u64(&mut out, *offset);
            put_bytes(&mut out, data);
        }
        Request::Append { key, data } => {
            put_u8(&mut out, 4);
            put_bytes(&mut out, key.as_bytes());
            put_bytes(&mut out, data);
        }
        Request::Del { key } => {
            put_u8(&mut out, 5);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::Exists { key } => {
            put_u8(&mut out, 6);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::StrLen { key } => {
            put_u8(&mut out, 7);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::Incr { key, delta } => {
            put_u8(&mut out, 8);
            put_bytes(&mut out, key.as_bytes());
            put_i64(&mut out, *delta);
        }
        Request::SAdd { key, member } => {
            put_u8(&mut out, 9);
            put_bytes(&mut out, key.as_bytes());
            put_bytes(&mut out, member);
        }
        Request::SRem { key, member } => {
            put_u8(&mut out, 10);
            put_bytes(&mut out, key.as_bytes());
            put_bytes(&mut out, member);
        }
        Request::SMembers { key } => {
            put_u8(&mut out, 11);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::SCard { key } => {
            put_u8(&mut out, 12);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::TryLock { key, mode, owner } => {
            put_u8(&mut out, 13);
            put_bytes(&mut out, key.as_bytes());
            put_u8(&mut out, mode_byte(*mode));
            put_u64(&mut out, *owner);
        }
        Request::Unlock { key, mode, owner } => {
            put_u8(&mut out, 14);
            put_bytes(&mut out, key.as_bytes());
            put_u8(&mut out, mode_byte(*mode));
            put_u64(&mut out, *owner);
        }
        Request::Ping => put_u8(&mut out, 15),
        Request::Flush => put_u8(&mut out, 16),
        Request::MultiGetRange { key, spans } => {
            put_u8(&mut out, 17);
            put_bytes(&mut out, key.as_bytes());
            put_count(&mut out, spans.len());
            for (offset, len) in spans {
                put_u64(&mut out, *offset);
                put_u64(&mut out, *len);
            }
        }
        Request::MultiSetRange { key, writes } => {
            put_u8(&mut out, 18);
            put_bytes(&mut out, key.as_bytes());
            put_write_spans(&mut out, writes.spans());
            put_bytes(&mut out, writes.payload());
        }
        Request::Stats => put_u8(&mut out, 19),
        Request::Migrate { epoch, shard_count } => {
            put_u8(&mut out, 20);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *shard_count);
        }
        Request::Handoff { entries } => {
            put_u8(&mut out, 21);
            put_entries(&mut out, entries);
        }
        Request::EpochCommit {
            epoch,
            shard_count,
            dead,
            hosts,
        } => {
            put_u8(&mut out, 22);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *shard_count);
            put_u32_list(&mut out, dead);
            put_u32_list(&mut out, hosts);
        }
        Request::Replicate { entries } => {
            put_u8(&mut out, 23);
            put_entries(&mut out, entries);
        }
        Request::HandoffFrame {
            xfer,
            seq,
            last,
            entries,
        } => {
            put_u8(&mut out, 24);
            put_u64(&mut out, *xfer);
            put_u32(&mut out, *seq);
            put_u8(&mut out, *last as u8);
            put_entries(&mut out, entries);
        }
        Request::Rebuild { prev_dead } => {
            put_u8(&mut out, 25);
            put_u32_list(&mut out, prev_dead);
        }
        Request::VersionOf { key } => {
            put_u8(&mut out, 26);
            put_bytes(&mut out, key.as_bytes());
        }
        Request::MultiGet { keys } => {
            put_u8(&mut out, 27);
            put_count(&mut out, keys.len());
            for key in keys {
                put_bytes(&mut out, key.as_bytes());
            }
        }
    }
    out
}

/// Decode a request, discarding the client epoch.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode_request(buf: &[u8]) -> Result<Request, CodecError> {
    decode_request_epoch(buf).map(|(req, _)| req)
}

/// Decode a request together with the client's routing epoch, discarding
/// the trace context.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode_request_epoch(buf: &[u8]) -> Result<(Request, u64), CodecError> {
    decode_request_traced(buf).map(|(req, epoch, _)| (req, epoch))
}

/// Decode a request together with the client's routing epoch and trace
/// context.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode_request_traced(buf: &[u8]) -> Result<(Request, u64, TraceCtx), CodecError> {
    Ok(wire::decode(buf, |r| {
        let epoch = r.u64()?;
        let trace = TraceCtx {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        };
        Ok((read_request(r)?, epoch, trace))
    })?)
}

fn read_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        0 => Request::Get { key: r.string()? },
        1 => Request::Set {
            key: r.string()?,
            value: r.bytes()?.to_vec(),
        },
        2 => Request::GetRange {
            key: r.string()?,
            offset: r.u64()?,
            len: r.u64()?,
        },
        3 => Request::SetRange {
            key: r.string()?,
            offset: r.u64()?,
            data: r.bytes()?.to_vec(),
        },
        4 => Request::Append {
            key: r.string()?,
            data: r.bytes()?.to_vec(),
        },
        5 => Request::Del { key: r.string()? },
        6 => Request::Exists { key: r.string()? },
        7 => Request::StrLen { key: r.string()? },
        8 => Request::Incr {
            key: r.string()?,
            delta: r.i64()?,
        },
        9 => Request::SAdd {
            key: r.string()?,
            member: r.bytes()?.to_vec(),
        },
        10 => Request::SRem {
            key: r.string()?,
            member: r.bytes()?.to_vec(),
        },
        11 => Request::SMembers { key: r.string()? },
        12 => Request::SCard { key: r.string()? },
        13 => Request::TryLock {
            key: r.string()?,
            mode: read_mode(r)?,
            owner: r.u64()?,
        },
        14 => Request::Unlock {
            key: r.string()?,
            mode: read_mode(r)?,
            owner: r.u64()?,
        },
        15 => Request::Ping,
        16 => Request::Flush,
        17 => Request::MultiGetRange {
            key: r.string()?,
            spans: r.list(16, |r| Ok((r.u64()?, r.u64()?)))?,
        },
        18 => {
            let key = r.string()?;
            let spans = read_write_spans(r)?;
            // One borrowed field, one copy: no allocation per range.
            let writes = RangeWrites::from_parts(spans, r.bytes()?.to_vec());
            Request::MultiSetRange {
                key,
                writes: writes.ok_or(WireError::Invalid)?,
            }
        }
        19 => Request::Stats,
        20 => Request::Migrate {
            epoch: r.u64()?,
            shard_count: r.u64()?,
        },
        21 => Request::Handoff {
            entries: read_entries(r)?,
        },
        22 => Request::EpochCommit {
            epoch: r.u64()?,
            shard_count: r.u64()?,
            dead: r.list(4, Reader::u32)?,
            hosts: r.list(4, Reader::u32)?,
        },
        23 => Request::Replicate {
            entries: read_entries(r)?,
        },
        24 => Request::HandoffFrame {
            xfer: r.u64()?,
            seq: r.u32()?,
            last: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Invalid),
            },
            entries: read_entries(r)?,
        },
        25 => Request::Rebuild {
            prev_dead: r.list(4, Reader::u32)?,
        },
        26 => Request::VersionOf { key: r.string()? },
        27 => Request::MultiGet {
            // Every key costs at least its 4-byte length prefix.
            keys: r.list(4, Reader::string)?,
        },
        _ => return Err(WireError::Invalid),
    })
}

/// Payload bytes a response encoding will need beyond its fixed fields.
fn response_payload_len(resp: &Response) -> usize {
    match resp {
        Response::Value(Some(v)) => v.len(),
        Response::Values(vs) => vs.iter().map(|v| v.len() + 4).sum(),
        Response::Spans(Some(runs)) => runs.iter().map(|r| r.len() + 4).sum(),
        Response::Err(msg) => msg.len(),
        Response::MultiValues(vs) => vs
            .iter()
            .map(|v| v.as_ref().map_or(1, |b| b.len() + 5))
            .sum(),
        Response::Handoff(entries) => entries.iter().map(entry_payload_len).sum(),
        Response::Stats(_) => 128,
        Response::Versioned { inner, .. } => 9 + response_payload_len(inner),
        _ => 0,
    }
}

/// Encode a response for the wire.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + response_payload_len(resp));
    write_response(&mut out, resp);
    out
}

fn write_response(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Value(None) => put_u8(out, 0),
        Response::Value(Some(v)) => {
            put_u8(out, 1);
            put_bytes(out, v);
        }
        Response::Ok => put_u8(out, 2),
        Response::Len(n) => {
            put_u8(out, 3);
            put_u64(out, *n);
        }
        Response::Int(n) => {
            put_u8(out, 4);
            put_i64(out, *n);
        }
        Response::Bool(b) => {
            put_u8(out, 5);
            put_u8(out, *b as u8);
        }
        Response::Values(vs) => {
            put_u8(out, 6);
            put_count(out, vs.len());
            for v in vs {
                put_bytes(out, v);
            }
        }
        Response::Pong => put_u8(out, 7),
        Response::Err(msg) => {
            put_u8(out, 8);
            put_bytes(out, msg.as_bytes());
        }
        Response::Spans(None) => put_u8(out, 9),
        Response::Spans(Some(runs)) => {
            put_u8(out, 10);
            put_count(out, runs.len());
            for run in runs {
                put_bytes(out, run);
            }
        }
        Response::WrongEpoch { epoch, shard_count } => {
            put_u8(out, 11);
            put_u64(out, *epoch);
            put_u64(out, *shard_count);
        }
        Response::Stats(stats) => {
            put_u8(out, 12);
            put_u64(out, stats.epoch);
            put_u64(out, stats.keys);
            put_u64(out, stats.value_bytes);
            put_u64(out, stats.reads);
            put_u64(out, stats.writes);
            put_u64(out, stats.lock_ops);
            put_u64(out, stats.wrong_epoch_redirects);
            put_u64(out, stats.freeze_wait_ns);
            put_u64(out, stats.batched_ops);
            put_u64(out, stats.batched_items);
            put_u64(out, stats.replication);
            put_u64(out, stats.repl_forwards);
            put_u64(out, stats.repl_lag_ns);
            put_u64(out, stats.promotions);
            put_u64(out, stats.primary_keys);
            put_u64(out, stats.backup_keys);
        }
        Response::Handoff(entries) => {
            put_u8(out, 13);
            put_entries(out, entries);
        }
        Response::ReplAck { applied } => {
            put_u8(out, 14);
            put_u64(out, *applied);
        }
        Response::NotPrimary { epoch, shard_count } => {
            put_u8(out, 15);
            put_u64(out, *epoch);
            put_u64(out, *shard_count);
        }
        Response::Unavailable { epoch, shard_count } => {
            put_u8(out, 16);
            put_u64(out, *epoch);
            put_u64(out, *shard_count);
        }
        Response::MultiValues(vs) => {
            put_u8(out, 18);
            put_count(out, vs.len());
            for v in vs {
                put_optional(out, v.as_deref());
            }
        }
        Response::Versioned { version, inner } => {
            debug_assert!(
                !matches!(**inner, Response::Versioned { .. }),
                "versioned responses never nest"
            );
            put_u8(out, 17);
            put_u64(out, *version);
            write_response(out, inner);
        }
    }
}

/// Decode a response.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode_response(buf: &[u8]) -> Result<Response, CodecError> {
    Ok(wire::decode(buf, |r| read_response(r, false))?)
}

fn read_response(r: &mut Reader<'_>, nested: bool) -> Result<Response, WireError> {
    Ok(match r.u8()? {
        0 => Response::Value(None),
        1 => Response::Value(Some(r.bytes()?.to_vec())),
        2 => Response::Ok,
        3 => Response::Len(r.u64()?),
        4 => Response::Int(r.i64()?),
        5 => Response::Bool(r.u8()? != 0),
        // Every value and every run costs at least its 4-byte length prefix.
        6 => Response::Values(r.list(4, |r| Ok(r.bytes()?.to_vec()))?),
        7 => Response::Pong,
        8 => Response::Err(r.string()?),
        9 => Response::Spans(None),
        10 => Response::Spans(Some(r.list(4, |r| Ok(r.bytes()?.to_vec()))?)),
        11 => Response::WrongEpoch {
            epoch: r.u64()?,
            shard_count: r.u64()?,
        },
        12 => Response::Stats(ShardStats {
            epoch: r.u64()?,
            keys: r.u64()?,
            value_bytes: r.u64()?,
            reads: r.u64()?,
            writes: r.u64()?,
            lock_ops: r.u64()?,
            wrong_epoch_redirects: r.u64()?,
            freeze_wait_ns: r.u64()?,
            batched_ops: r.u64()?,
            batched_items: r.u64()?,
            replication: r.u64()?,
            repl_forwards: r.u64()?,
            repl_lag_ns: r.u64()?,
            promotions: r.u64()?,
            primary_keys: r.u64()?,
            backup_keys: r.u64()?,
        }),
        13 => Response::Handoff(read_entries(r)?),
        14 => Response::ReplAck { applied: r.u64()? },
        15 => Response::NotPrimary {
            epoch: r.u64()?,
            shard_count: r.u64()?,
        },
        16 => Response::Unavailable {
            epoch: r.u64()?,
            shard_count: r.u64()?,
        },
        // A versioned reply never wraps another: rejected before recursing.
        17 if !nested => Response::Versioned {
            version: r.u64()?,
            inner: Box::new(read_response(r, true)?),
        },
        // Every slot costs at least its 1-byte presence flag.
        18 => Response::MultiValues(r.list(1, read_optional)?),
        _ => return Err(WireError::Invalid),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Get { key: "k".into() },
            Request::Set {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            Request::GetRange {
                key: "k".into(),
                offset: 5,
                len: 10,
            },
            Request::SetRange {
                key: "k".into(),
                offset: 3,
                data: b"xyz".to_vec(),
            },
            Request::Append {
                key: "k".into(),
                data: b"tail".to_vec(),
            },
            Request::Del { key: "k".into() },
            Request::Exists { key: "k".into() },
            Request::StrLen { key: "k".into() },
            Request::Incr {
                key: "k".into(),
                delta: -3,
            },
            Request::SAdd {
                key: "s".into(),
                member: b"m".to_vec(),
            },
            Request::SRem {
                key: "s".into(),
                member: b"m".to_vec(),
            },
            Request::SMembers { key: "s".into() },
            Request::SCard { key: "s".into() },
            Request::TryLock {
                key: "k".into(),
                mode: LockMode::Read,
                owner: 42,
            },
            Request::Unlock {
                key: "k".into(),
                mode: LockMode::Write,
                owner: 42,
            },
            Request::Ping,
            Request::Flush,
            Request::MultiGetRange {
                key: "k".into(),
                spans: vec![(0, 16), (32, 16), (64, 8)],
            },
            Request::MultiGetRange {
                key: "k".into(),
                spans: vec![],
            },
            Request::MultiSetRange {
                key: "k".into(),
                writes: [(0, &b"aa"[..]), (7, b""), (100, b"z")]
                    .into_iter()
                    .collect(),
            },
            // Descending, overlapping and extreme offsets: the distance wraps.
            Request::MultiSetRange {
                key: "k".into(),
                writes: [(u64::MAX, &b"aa"[..]), (5, b"b"), (5, b"c"), (0, b"")]
                    .into_iter()
                    .collect(),
            },
            Request::MultiSetRange {
                key: "k".into(),
                writes: RangeWrites::new(),
            },
            Request::Stats,
            Request::Migrate {
                epoch: 4,
                shard_count: 3,
            },
            Request::Handoff {
                entries: migration_entries(),
            },
            Request::Handoff {
                entries: Vec::new(),
            },
            Request::EpochCommit {
                epoch: 4,
                shard_count: 3,
                dead: Vec::new(),
                hosts: Vec::new(),
            },
            Request::EpochCommit {
                epoch: 9,
                shard_count: 5,
                dead: vec![1, 3],
                hosts: vec![10, 11, 12, 13, 14],
            },
            Request::Replicate {
                entries: migration_entries(),
            },
            Request::Replicate {
                entries: Vec::new(),
            },
            Request::HandoffFrame {
                xfer: 77,
                seq: 2,
                last: true,
                entries: migration_entries(),
            },
            Request::HandoffFrame {
                xfer: 77,
                seq: 0,
                last: false,
                entries: Vec::new(),
            },
            Request::Rebuild {
                prev_dead: vec![0, 4],
            },
            Request::Rebuild {
                prev_dead: Vec::new(),
            },
            Request::VersionOf { key: "k".into() },
            Request::MultiGet {
                keys: vec!["a".into(), "bb".into(), String::new()],
            },
            Request::MultiGet { keys: Vec::new() },
        ]
    }

    fn migration_entries() -> Vec<KeyMigration> {
        vec![
            KeyMigration {
                key: "plain".into(),
                value: Some(b"v".to_vec()),
                set: Vec::new(),
                lock: None,
                version: 3,
            },
            KeyMigration {
                key: "locked".into(),
                value: None,
                set: vec![b"m1".to_vec(), Vec::new()],
                lock: Some(LockMigration::Writer {
                    owner: 42,
                    remaining_ms: 1000,
                }),
                version: 0,
            },
            KeyMigration {
                key: "readers".into(),
                value: Some(Vec::new()),
                set: Vec::new(),
                lock: Some(LockMigration::Readers(vec![(1, 10), (2, 20)])),
                version: u64::MAX,
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Value(None),
            Response::Value(Some(b"v".to_vec())),
            Response::Ok,
            Response::Len(9),
            Response::Int(-1),
            Response::Bool(true),
            Response::Bool(false),
            Response::Values(vec![b"a".to_vec(), b"bb".to_vec()]),
            Response::Pong,
            Response::Err("boom".into()),
            Response::Spans(None),
            Response::Spans(Some(vec![b"run1".to_vec(), Vec::new(), b"r".to_vec()])),
            Response::WrongEpoch {
                epoch: 7,
                shard_count: 4,
            },
            Response::Stats(ShardStats {
                epoch: 3,
                keys: 10,
                value_bytes: 4096,
                reads: 100,
                writes: 50,
                lock_ops: 5,
                wrong_epoch_redirects: 2,
                freeze_wait_ns: 1_500_000,
                batched_ops: 12,
                batched_items: 480,
                replication: 2,
                repl_forwards: 31,
                repl_lag_ns: 9_000,
                promotions: 1,
                primary_keys: 7,
                backup_keys: 3,
            }),
            Response::Handoff(migration_entries()),
            Response::ReplAck { applied: 6 },
            Response::NotPrimary {
                epoch: 5,
                shard_count: 3,
            },
            Response::Unavailable {
                epoch: 5,
                shard_count: 3,
            },
            Response::MultiValues(vec![Some(b"v".to_vec()), None, Some(Vec::new())]),
            Response::MultiValues(Vec::new()),
            Response::Versioned {
                version: 12,
                inner: Box::new(Response::Value(Some(b"bytes".to_vec()))),
            },
            Response::Versioned {
                version: 0,
                inner: Box::new(Response::Ok),
            },
            Response::Versioned {
                version: 7,
                inner: Box::new(Response::Spans(Some(vec![b"run".to_vec(), Vec::new()]))),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "req {req:?}");
            // The client epoch rides every request and roundtrips exactly.
            let bytes = encode_request_at(&req, 17);
            assert_eq!(
                decode_request_epoch(&bytes).unwrap(),
                (req.clone(), 17),
                "epoch-stamped {req:?}"
            );
            // So does the trace context.
            let trace = TraceCtx {
                trace_id: 0xDEAD_BEEF,
                span_id: 0xCAFE,
            };
            let bytes = encode_request_traced(&req, 17, trace);
            assert_eq!(
                decode_request_traced(&bytes).unwrap(),
                (req.clone(), 17, trace),
                "trace-stamped {req:?}"
            );
        }
    }

    #[test]
    fn thread_local_trace_is_stamped() {
        let ctx = TraceCtx::new_root();
        let guard = faasm_telemetry::set_current(ctx);
        let bytes = encode_request_at(&Request::Get { key: "k".into() }, 3);
        drop(guard);
        let (_, epoch, trace) = decode_request_traced(&bytes).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(trace, ctx);
        // Outside a traced call the stamp is the untraced sentinel.
        let bytes = encode_request_at(&Request::Get { key: "k".into() }, 3);
        let (_, _, trace) = decode_request_traced(&bytes).unwrap();
        assert!(trace.is_none());
    }

    #[test]
    fn response_roundtrip() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "resp {resp:?}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_request(&[200]).is_err());
        assert!(decode_response(&[200]).is_err());
        // Truncations.
        let bytes = encode_request(&Request::Set {
            key: "key".into(),
            value: vec![1, 2, 3],
        });
        for cut in 1..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    /// An epoch+trace-prefixed request frame starting at op `op`.
    fn raw_request(op: u8) -> Vec<u8> {
        let mut bytes = EPOCH_ANY.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]); // untraced ctx
        bytes.push(op);
        bytes
    }

    #[test]
    fn hostile_batch_counts_rejected_before_allocation() {
        // MultiGetRange claiming u32::MAX spans in a tiny payload.
        let mut bytes = raw_request(17);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'k');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // MultiSetRange with an outsized write count.
        let mut bytes = raw_request(18);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'k');
        bytes.extend_from_slice(&0x4000_0000u32.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // Spans response with a count its payload cannot back.
        let mut bytes = vec![10u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
        // Values response likewise: these five bytes used to abort the
        // process inside `Vec::with_capacity`.
        assert!(decode_response(&[6, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        // Handoff with a hostile entry count.
        let mut bytes = raw_request(21);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // Handoff response with a hostile entry count.
        let mut bytes = vec![13u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
        // Replicate with a hostile entry count.
        let mut bytes = raw_request(23);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // A handoff frame with a hostile entry count.
        let mut bytes = raw_request(24);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // EpochCommit with a hostile dead-slot count.
        let mut bytes = raw_request(22);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // Rebuild with a hostile slot count.
        let mut bytes = raw_request(25);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // MultiGet with a hostile key count.
        let mut bytes = raw_request(27);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // MultiValues response with a count its payload cannot back.
        let mut bytes = vec![18u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
        // A hostile reader count inside one entry. The reader count sits
        // before one 16-byte reader and the trailing 8-byte version.
        let req = Request::Handoff {
            entries: vec![KeyMigration {
                key: "k".into(),
                value: None,
                set: Vec::new(),
                lock: Some(LockMigration::Readers(vec![(1, 1)])),
                version: 0,
            }],
        };
        let mut bytes = encode_request(&req);
        let n = bytes.len();
        bytes[n - 28..n - 24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn versioned_responses_never_nest() {
        // tag 17, version, then another tag 17: rejected before recursion.
        let mut bytes = vec![17u8];
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.push(17);
        bytes.extend_from_slice(&6u64.to_le_bytes());
        bytes.push(2); // Ok
        assert!(decode_response(&bytes).is_err());
        // A bare versioned header with no inner reply is truncated.
        let mut bytes = vec![17u8];
        bytes.extend_from_slice(&5u64.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn batch_truncations_rejected() {
        let bytes = encode_request(&Request::MultiSetRange {
            key: "key".into(),
            writes: [(4, vec![1, 2, 3]), (9, vec![4])].into_iter().collect(),
        });
        for cut in 1..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let bytes = encode_response(&Response::Spans(Some(vec![vec![1, 2], vec![3]])));
        for cut in 1..bytes.len() {
            assert!(decode_response(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn scatter_spans_must_sum_to_the_payload() {
        let req = Request::MultiSetRange {
            key: "k".into(),
            writes: [(4, &b"abc"[..]), (9, b"d")].into_iter().collect(),
        };
        let good = encode_request(&req);
        assert_eq!(decode_request(&good).unwrap(), req);
        // Layout after the 24-byte stamp: tag, key field, span count, two
        // (distance, length) varint pairs, then the payload field.
        let spans_at = 24 + 1 + 5 + 4;
        assert_eq!(&good[spans_at..spans_at + 4], &[4, 3, 2, 1]);
        for (at, len) in [(spans_at + 1, 2), (spans_at + 1, 4), (spans_at + 3, 0)] {
            let mut bytes = good.clone();
            bytes[at] = len;
            assert!(decode_request(&bytes).is_err(), "length {len} at {at}");
        }
        // A length past u32 is no span at all.
        let mut bytes = raw_request(18);
        bytes.extend_from_slice(&[1, 0, 0, 0, b'k', 1, 0, 0, 0, 0]);
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn a_scattered_weight_flush_costs_a_dozen_bytes_a_range() {
        // 650 eight-byte words spread over a 16 KiB value (a HOGWILD!
        // flush): 8 payload bytes, a two-byte distance and a one-byte
        // length each, against 20 bytes a range with fixed-width fields.
        let writes: RangeWrites = (0..650u64).map(|i| (i * 24 + 8, [i as u8; 8])).collect();
        let framing = encode_request(&Request::MultiSetRange {
            key: "sgd:weights".into(),
            writes: RangeWrites::new(),
        })
        .len();
        let bytes = encode_request(&Request::MultiSetRange {
            key: "sgd:weights".into(),
            writes,
        })
        .len();
        assert!(
            bytes - framing <= 650 * 12,
            "{} bytes for 650 ranges",
            bytes - framing
        );
    }

    #[test]
    fn non_utf8_key_rejected() {
        let mut bytes = raw_request(0); // Get
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_request(&bytes).is_err());
    }
}
