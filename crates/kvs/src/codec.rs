//! Wire protocol for the KVS: a compact hand-rolled binary codec.
//!
//! Every request/response crossing the fabric is encoded through this module,
//! so the byte counts the fabric records for the global tier are faithful to
//! the protocol (no hidden zero-cost serialisation — the paper's evaluation
//! charges serialisation and transfer to the platform, §2.1).
//!
//! The protocol is declared once. A message field is a type that is
//! [`Wire`]: it appends itself, reads itself back and knows its encoded
//! length. [`Request`] and [`Response`] are each one `messages!` table
//! whose row, `tag => Variant { field: Type, … }` plus the attributes
//! `keyed` and `mutates`, yields the enum variant, its encoding, its
//! decoding, its size, [`Request::key`], [`Request::mutates_key`] and its
//! entry in `TAGS`. A tag literal is written nowhere else.

use faasm_net::wire::{
    self, put_bytes, put_count, put_i64, put_u32, put_u64, put_u8, put_varint, varint_len, Reader,
    WireError,
};
use faasm_telemetry::TraceCtx;

use crate::store::{KeyMigration, LockMigration, LockMode, ShardStats};
use crate::writes::RangeWrites;

/// The epoch sent by clients that do not track routing epochs (plain
/// [`KvClient`](crate::KvClient)s and test drivers). Servers still apply the
/// key-ownership check — the sentinel only opts the client out of the
/// "epochs match" fast path, never out of correctness.
pub const EPOCH_ANY: u64 = u64::MAX;

/// A value with one wire layout.
pub(crate) trait Wire: Sized {
    /// The least bytes one value occupies: what a list of them bounds its
    /// count with before it allocates.
    const MIN_BYTES: usize;
    /// Append the encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value back, every count checked against the bytes left.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;
    /// Exactly the bytes [`put`](Wire::put) appends — sizing the output
    /// buffer up front keeps megabyte-scale batched pushes from paying
    /// doubling reallocations. A fixed-width value is as long as its least.
    fn wire_len(&self) -> usize {
        Self::MIN_BYTES
    }
}

macro_rules! wire_int {
    ($($ty:ident $put:ident),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            fn read(r: &mut Reader<'_>) -> Result<$ty, WireError> {
                r.$ty()
            }
        }
    )*};
}
wire_int!(u32 put_u32, u64 put_u64, i64 put_i64);

/// One byte, 0 or 1.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Result<bool, WireError> {
        let flag = r.u8()?;
        if flag > 1 {
            return Err(WireError::Invalid);
        }
        Ok(flag == 1)
    }
}

impl Wire for LockMode {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        (*self == LockMode::Write).put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<LockMode, WireError> {
        Ok(if bool::read(r)? {
            LockMode::Write
        } else {
            LockMode::Read
        })
    }
}

impl Wire for Vec<u8> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        Ok(r.bytes()?.to_vec())
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<String, WireError> {
        r.string()
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

/// An `(offset, len)` span or an `(owner, remaining_ms)` lease.
impl Wire for (u64, u64) {
    const MIN_BYTES: usize = 16;
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
        put_u64(out, self.1);
    }
    fn read(r: &mut Reader<'_>) -> Result<(u64, u64), WireError> {
        Ok((r.u64()?, r.u64()?))
    }
}

/// A presence flag, then the value it announces.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        bool::read(r)?.then(|| T::read(r)).transpose()
    }
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_len)
    }
}

/// A count, bounded by what the elements must at least cost, then the
/// elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for elem in self {
            elem.put(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        r.list(T::MIN_BYTES, T::read)
    }
    fn wire_len(&self) -> usize {
        4 + self.iter().map(T::wire_len).sum::<usize>()
    }
}

/// The span table as it travels: per span its distance from the previous
/// span's end (from zero for the first), so an ascending scatter of small
/// writes costs a byte or two a span where a fixed offset costs eight, and
/// its length. The distance wraps, so any order of any offsets roundtrips.
fn span_distances(spans: &[(u64, u32)]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut end = 0u64;
    spans.iter().map(move |&(offset, len)| {
        let distance = offset.wrapping_sub(end);
        end = offset.wrapping_add(u64::from(len));
        (distance, u64::from(len))
    })
}

/// A count, a varint `(distance, length)` pair a span, then one payload
/// field: decoding borrows that field once and copies it once, with no
/// allocation per range.
impl Wire for RangeWrites {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for (distance, len) in span_distances(self.spans()) {
            put_varint(out, distance);
            put_varint(out, len);
        }
        put_bytes(out, self.payload());
    }
    fn read(r: &mut Reader<'_>) -> Result<RangeWrites, WireError> {
        let mut end = 0u64;
        // Every span costs at least one byte of distance and one of length.
        let spans = r.list(2, |r| {
            let offset = end.wrapping_add(r.varint()?);
            let len = u32::try_from(r.varint()?).map_err(|_| WireError::Invalid)?;
            end = offset.wrapping_add(u64::from(len));
            Ok((offset, len))
        })?;
        RangeWrites::from_parts(spans, r.bytes()?.to_vec()).ok_or(WireError::Invalid)
    }
    fn wire_len(&self) -> usize {
        let table: usize = span_distances(self.spans())
            .map(|(distance, len)| varint_len(distance) + varint_len(len))
            .sum();
        8 + table + self.payload().len()
    }
}

const LOCK_FREE: u8 = 0;
const LOCK_READERS: u8 = 1;
const LOCK_WRITER: u8 = 2;

/// A lock kind, then the holders that kind has.
impl Wire for Option<LockMigration> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(out, LOCK_FREE),
            Some(LockMigration::Readers(readers)) => {
                put_u8(out, LOCK_READERS);
                readers.put(out);
            }
            Some(LockMigration::Writer {
                owner,
                remaining_ms,
            }) => {
                put_u8(out, LOCK_WRITER);
                (*owner, *remaining_ms).put(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<LockMigration>, WireError> {
        Ok(match r.u8()? {
            LOCK_FREE => None,
            LOCK_READERS => Some(LockMigration::Readers(Wire::read(r)?)),
            LOCK_WRITER => {
                let (owner, remaining_ms) = Wire::read(r)?;
                Some(LockMigration::Writer {
                    owner,
                    remaining_ms,
                })
            }
            _ => return Err(WireError::Invalid),
        })
    }
    fn wire_len(&self) -> usize {
        match self {
            None => 1,
            Some(LockMigration::Readers(readers)) => 1 + readers.wire_len(),
            Some(LockMigration::Writer { .. }) => 17,
        }
    }
}

/// A struct whose layout is its fields in order.
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),* $(,)? }) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as Wire>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn read(r: &mut Reader<'_>) -> Result<$name, WireError> {
                Ok($name { $($field: Wire::read(r)?),* })
            }
            fn wire_len(&self) -> usize {
                0 $(+ self.$field.wire_len())*
            }
        }
    };
}

// What one migrated key costs on the wire is `KeyMigration::wire_len`, for
// the codec's buffer sizing and for the senders that cut exports into
// bounded frames alike.
wire_struct!(KeyMigration {
    key: String,
    value: Option<Vec<u8>>,
    lock: Option<LockMigration>,
    version: u64,
});

wire_struct!(ShardStats {
    epoch: u64,
    keys: u64,
    value_bytes: u64,
    reads: u64,
    writes: u64,
    lock_ops: u64,
    wrong_epoch_redirects: u64,
    freeze_wait_ns: u64,
    batched_ops: u64,
    batched_items: u64,
    replication: u64,
    repl_forwards: u64,
    repl_lag_ns: u64,
    promotions: u64,
    primary_keys: u64,
    backup_keys: u64,
});

/// The reply a [`Response::Versioned`] widens. A versioned reply never
/// wraps another: rejected on the tag, before recursing.
impl Wire for Box<Response> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(
            !matches!(**self, Response::Versioned { .. }),
            "versioned responses never nest"
        );
        (**self).put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Box<Response>, WireError> {
        match r.u8()? {
            VERSIONED => Err(WireError::Invalid),
            tag => Response::read_tagged(tag, r).map(Box::new),
        }
    }
    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }
}

/// What a row's attributes say: `keyed` — the message routes on its first
/// field, a state key the serving shard must own; `mutates` — applying it
/// changes that key's state, so a replicated shard forwards the key to its
/// backups afterwards. Any other spelling matches no rule.
macro_rules! attr {
    (key [keyed $($mutates:ident)?] $key:ident $($field:ident)*) => {
        Some($key.as_str())
    };
    (key [] $($field:ident)*) => {
        None
    };
    (mutates [keyed mutates]) => {
        true
    };
    (mutates [keyed]) => {
        false
    };
    (mutates []) => {
        false
    };
}

/// One protocol table. A row is `tag => Variant`, with named fields, one
/// named field in parentheses or none, then the row's attributes (see
/// `attr!`); `tag as NAME` also names the tag for code outside the table. A
/// `tag_carried_options` row is an `Option` whose presence flag is the tag
/// itself: the first tag is `None`, the second announces the value.
macro_rules! messages {
    (
        $(#[$emeta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $(as $tag_name:ident)? => $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),+ $(,)? })?
                $(($tfield:ident: $tty:ty))?
                $($flag:ident)*
            ),+ $(,)?
        }
        $(tag_carried_options {
            $($(#[$ometa:meta])* $none:literal | $some:literal => $ovariant:ident(Option<$oty:ty>)),+ $(,)?
        })?
    ) => {
        $(#[$emeta])*
        pub enum $name {
            $($($(#[$ometa])* $ovariant(Option<$oty>),)+)?
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty),+ })? $(($tty))?,
            )+
        }

        $($(const $tag_name: u8 = $tag;)?)+

        impl $name {
            /// Every tag of the protocol: the first byte of an encoded
            /// message is one of these, and each decodes to one variant.
            pub const TAGS: &'static [u8] = &[$($($none, $some,)+)? $($tag),+];

            fn read_tagged(tag: u8, r: &mut Reader<'_>) -> Result<$name, WireError> {
                Ok(match tag {
                    $($(
                        $none => $name::$ovariant(None),
                        $some => $name::$ovariant(Some(Wire::read(r)?)),
                    )+)?
                    $(
                        $tag => $name::$variant
                            $({ $($field: Wire::read(r)?),+ })?
                            $((<$tty as Wire>::read(r)?))?,
                    )+
                    _ => return Err(WireError::Invalid),
                })
            }
        }

        impl Wire for $name {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($(
                        $name::$ovariant(None) => put_u8(out, $none),
                        $name::$ovariant(Some(value)) => {
                            put_u8(out, $some);
                            value.put(out);
                        }
                    )+)?
                    $(
                        $name::$variant $({ $($field),+ })? $(($tfield))? => {
                            put_u8(out, $tag);
                            $($($field.put(out);)+)?
                            $($tfield.put(out);)?
                        }
                    )+
                }
            }
            fn read(r: &mut Reader<'_>) -> Result<$name, WireError> {
                let tag = r.u8()?;
                $name::read_tagged(tag, r)
            }
            fn wire_len(&self) -> usize {
                1 + match self {
                    $($($name::$ovariant(value) => value.as_ref().map_or(0, Wire::wire_len),)+)?
                    $(
                        $name::$variant $({ $($field),+ })? $(($tfield))? =>
                            0 $($(+ $field.wire_len())+)? $(+ $tfield.wire_len())?,
                    )+
                }
            }
        }

        messages!(@routing $name $($variant [$($flag)*] [$($($field)+)?])+);
    };
    // No row carries an attribute: nothing routes on this message.
    (@routing $name:ident $($variant:ident [] [$($field:ident)*])+) => {};
    (@routing $name:ident $($variant:ident [$($flag:ident)*] [$($field:ident)*])+) => {
        impl $name {
            /// The state key this request routes on, if any — migration,
            /// stats and liveness commands are shard-addressed, not
            /// key-addressed, and skip the server's ownership check.
            #[allow(unused_variables)]
            pub fn key(&self) -> Option<&str> {
                match self {
                    $($name::$variant { $($field,)* .. } => attr!(key [$($flag)*] $($field)*),)+
                }
            }

            /// Does applying this request change its key's state (and
            /// therefore need forwarding to backup replicas afterwards)?
            pub fn mutates_key(&self) -> bool {
                match self {
                    $($name::$variant { .. } => attr!(mutates [$($flag)*]),)+
                }
            }
        }
    };
}

messages! {
    /// A client → server command.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Get the value of a key.
        0 => Get {
            /// State key.
            key: String,
        } keyed,
        /// Set the value of a key.
        1 => Set {
            /// State key.
            key: String,
            /// New value.
            value: Vec<u8>,
        } keyed mutates,
        /// Read a byte range of a value.
        2 => GetRange {
            /// State key.
            key: String,
            /// Byte offset.
            offset: u64,
            /// Bytes to read.
            len: u64,
        } keyed,
        /// Write a byte range of a value, zero-extending it.
        3 => SetRange {
            /// State key.
            key: String,
            /// Byte offset.
            offset: u64,
            /// Bytes to write.
            data: Vec<u8>,
        } keyed mutates,
        /// Append bytes to a value.
        4 => Append {
            /// State key.
            key: String,
            /// Bytes to append.
            data: Vec<u8>,
        } keyed mutates,
        /// Delete a key.
        5 => Del {
            /// State key.
            key: String,
        } keyed mutates,
        /// Does the key exist?
        6 => Exists {
            /// State key.
            key: String,
        } keyed,
        /// Length of a value.
        7 => StrLen {
            /// State key.
            key: String,
        } keyed,
        /// Add to an 8-byte counter.
        8 => Incr {
            /// Counter key.
            key: String,
            /// Signed delta.
            delta: i64,
        } keyed mutates,
        /// Try to acquire a global lock.
        13 => TryLock {
            /// State key.
            key: String,
            /// Read or write.
            mode: LockMode,
            /// Caller-chosen owner token.
            owner: u64,
        } keyed mutates,
        /// Release a global lock.
        14 => Unlock {
            /// State key.
            key: String,
            /// Read or write.
            mode: LockMode,
            /// Owner token used at acquisition.
            owner: u64,
        } keyed mutates,
        /// Liveness probe.
        15 => Ping,
        /// Clear the store (tests / failure injection).
        16 => Flush,
        /// Read several byte ranges of one value in a single round-trip (the
        /// batched chunk pull: one request for every missing chunk span).
        17 => MultiGetRange {
            /// State key.
            key: String,
            /// `(offset, len)` spans to read.
            spans: Vec<(u64, u64)>,
        } keyed,
        /// Write several byte ranges of one value in a single round-trip (the
        /// batched chunk push), zero-extending it as needed.
        18 => MultiSetRange {
            /// State key.
            key: String,
            /// The writes to apply, in order.
            writes: RangeWrites,
        } keyed mutates,
        /// Report this shard's load (key count, value bytes, per-op counters) —
        /// the migration planner's and the tier autoscaler's skew signal.
        19 => Stats,
        /// Begin migrating this shard toward a new routing table: the shard
        /// freezes every key it will no longer own under `shard_count` shards
        /// (answering [`Response::WrongEpoch`] until the epoch commits) and
        /// replies [`Response::Handoff`] with the complete exported state of
        /// exactly those moving keys.
        20 => Migrate {
            /// The routing epoch being migrated to.
            epoch: u64,
            /// The shard count of the new routing table.
            shard_count: u64,
        },
        /// Commit a routing epoch: the shard adopts the named table as its
        /// serving table and purges every key outside its replica sets (the
        /// donor's post-handoff cleanup). Also the failover path: a commit
        /// with no pending migration installs the table directly, which is how
        /// a backup learns it has been promoted.
        22 => EpochCommit {
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
        /// the carried keys (an entry with no value or lock deletes
        /// the key). Shard-addressed — backups accept it even for keys they
        /// are not primary for.
        23 => Replicate {
            /// Exported state of the replicated keys.
            entries: Vec<KeyMigration>,
        },
        /// One bounded frame of a chunked handoff: frames of one transfer
        /// carry consecutive sequence numbers and are imported as they arrive;
        /// the receiver rejects gaps or reordering.
        24 => HandoffFrame {
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
        25 => Rebuild {
            /// The tombstoned slots of the previous epoch's table.
            prev_dead: Vec<u32>,
        },
        /// Read a key's mutation-version counter without its bytes — the cheap
        /// revalidation probe a function-side cache sends when a lease expires:
        /// if the version is unchanged the cached snapshot is still current and
        /// the value bytes never cross the wire. Replies [`Response::Len`].
        26 => VersionOf {
            /// State key.
            key: String,
        } keyed,
        /// Get several whole values in one round-trip (the snapshot plane's
        /// chunk fetch: every content-addressed chunk a shard owns, in one
        /// request). Multi-key, so it is not `keyed`: the server checks
        /// ownership of *every* key and redirects if any is misrouted.
        /// Replies [`Response::MultiValues`].
        27 => MultiGet {
            /// State keys, in reply order.
            keys: Vec<String>,
        },
    }
}

messages! {
    /// A server → client reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Success with no payload.
        2 => Ok,
        /// A length, or a key's version.
        3 => Len(n: u64),
        /// A counter value.
        4 => Int(n: i64),
        /// A boolean outcome.
        5 => Bool(outcome: bool),
        /// Reply to [`Request::Ping`].
        7 => Pong,
        /// Server-side failure.
        8 => Err(message: String),
        /// The shard does not own the request's key under its current routing
        /// table: the client should refresh its table to at least `epoch` and
        /// retry against the owning shard.
        11 => WrongEpoch {
            /// The epoch the client must reach before retrying.
            epoch: u64,
            /// The shard count of that epoch's routing table.
            shard_count: u64,
        },
        /// Reply to [`Request::Stats`].
        12 => Stats(stats: ShardStats),
        /// Reply to [`Request::Migrate`]: the exported state of every moving
        /// key, which the coordinator streams on to the receiving shard as
        /// [`Request::HandoffFrame`]s.
        13 => Handoff(entries: Vec<KeyMigration>),
        /// Reply to [`Request::Replicate`]: the backup installed the entries.
        14 => ReplAck {
            /// Number of entries applied.
            applied: u64,
        },
        /// The request's key is replicated on this shard but served by a
        /// different primary: the client should refresh its table to at least
        /// `epoch` and retry — the same redirect-and-retry loop as
        /// [`Response::WrongEpoch`].
        15 => NotPrimary {
            /// The epoch the client should reach before retrying.
            epoch: u64,
            /// The slot count of that epoch's routing table.
            shard_count: u64,
        },
        /// The primary could not assemble its write quorum (a backup is dead
        /// or partitioned): nothing was acked. The client should park for the
        /// failover epoch (`epoch + 1`) and retry.
        16 => Unavailable {
            /// The primary's current epoch.
            epoch: u64,
            /// The slot count of that epoch's routing table.
            shard_count: u64,
        },
        /// A successful keyed reply widened with the key's mutation-version
        /// counter — what a function-side cache stamps its snapshots with
        /// (reads carry the version the bytes were observed at, mutation acks
        /// the version the write installed, both taken under the same stripe
        /// lock as the operation). Never wraps an error or redirect, and never
        /// nests.
        17 as VERSIONED => Versioned {
            /// The key's mutation-version counter at the time of the operation.
            version: u64,
            /// The plain reply being widened.
            inner: Box<Response>,
        },
        /// Reply to [`Request::MultiGet`]: one possibly-missing value per
        /// requested key, in request order.
        18 => MultiValues(values: Vec<Option<Vec<u8>>>),
    }
    tag_carried_options {
        /// A possibly-missing value.
        0 | 1 => Value(Option<Vec<u8>>),
        /// Reply to [`Request::MultiGetRange`]: `None` if the key is missing,
        /// otherwise one (possibly truncated) byte run per requested span.
        9 | 10 => Spans(Option<Vec<Vec<u8>>>),
    }
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

/// The epoch and trace context every request is stamped with.
const STAMP_BYTES: usize = 24;

/// Encode a request for the wire, stamped with the client's routing epoch
/// and an explicit trace context. Every request carries the epoch so a
/// shard can recognise stale routing at a glance (and skip the per-key
/// ownership hash when epochs match); the trace context lets the shard
/// parent its apply spans under the ingress call that caused the work.
pub fn encode_request_traced(req: &Request, epoch: u64, trace: TraceCtx) -> Vec<u8> {
    let mut out = Vec::with_capacity(STAMP_BYTES + req.wire_len());
    put_u64(&mut out, epoch);
    put_u64(&mut out, trace.trace_id);
    put_u64(&mut out, trace.span_id);
    req.put(&mut out);
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
        Ok((Request::read(r)?, epoch, trace))
    })?)
}

/// Encode a response for the wire.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(resp.wire_len());
    resp.put(&mut out);
    out
}

/// Decode a response.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode_response(buf: &[u8]) -> Result<Response, CodecError> {
    Ok(wire::decode(buf, Response::read)?)
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
                lock: None,
                version: 3,
            },
            KeyMigration {
                key: "locked".into(),
                value: None,
                lock: Some(LockMigration::Writer {
                    owner: 42,
                    remaining_ms: 1000,
                }),
                version: 0,
            },
            KeyMigration {
                key: "readers".into(),
                value: Some(Vec::new()),
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
        let ctx = faasm_telemetry::Recorder::default().root();
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
    fn every_encoding_fills_exactly_the_buffer_it_was_sized_for() {
        // A size that falls short costs a doubling reallocation (a
        // megabyte-scale one on a batched push); one that overshoots wastes
        // the same memory up front.
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(bytes.capacity(), STAMP_BYTES + req.wire_len(), "{req:?}");
            assert_eq!(bytes.len(), bytes.capacity(), "{req:?}");
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(bytes.capacity(), resp.wire_len(), "{resp:?}");
            assert_eq!(bytes.len(), bytes.capacity(), "{resp:?}");
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
        let req = Request::Replicate {
            entries: vec![KeyMigration {
                key: "k".into(),
                value: None,
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
