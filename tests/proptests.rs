//! Property-based tests on the workspace's core invariants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use faasm::core::msg::{decode_msg, encode_msg, InstanceMsg};
use faasm::core::{
    assemble_pages, assemble_proto, chunk_proto, CallId, CallResult, CallSpec, CallStatus,
    PendingMap, ProtoFaaslet, ProtoManifest, SnapshotCache, DEFAULT_SNAPSHOT_CACHE_BYTES,
};
use faasm::fvm::InstanceSnapshot;
use faasm::fvm::{decode_module, encode_module, ObjectModule};
use faasm::gateway::codec::{self, FrameBuf, GatewayRequest, MAX_FRAME};
use faasm::gateway::{GatewayResponse, GatewayStatus};
use faasm::kvs::{self, KvStore};
use faasm::lang;
use faasm::mem::{LinearMemory, MemorySnapshot, Page, SharedRegion, BLOCK_SIZE, PAGE_SIZE};
use faasm::net::HostId;
use faasm::sched::{decode_call, decode_result, encode_call, encode_result};
use faasm::telemetry::TraceCtx;
use proptest::prelude::*;

/// The system allocator, noting each thread's largest single request — so a
/// decoder property can check that no allocation outgrows what its input
/// could back (a hostile count behind `Vec::with_capacity` may not abort:
/// with overcommit a 24 GiB reservation that is never touched succeeds).
struct NotingAlloc;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = LARGEST_REQUEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping beside it touches only
// a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// The decoders' allocation budget: the widest decoded element
/// (`CallSpec`, 96 bytes) over the narrowest wire element (1 byte)
/// bounds any honest `with_capacity`; hostile counts miss it by gigabytes.
const ALLOC_BYTES_PER_INPUT_BYTE: usize = 128;
const ALLOC_SLACK: usize = 4096;

/// Mutate-a-valid-encoding: `decode` must return (a value or an error) on
/// every prefix of `valid` and on every 4-byte overwrite of it with
/// `u32::MAX` / `0x4000_0000` — at *any* offset, since count and length
/// fields follow tags and strings and are rarely aligned — without a panic,
/// an abort or an allocation the input could not back. Uniform garbage
/// almost never lands a hostile value on a count field; this always does.
fn assert_total_on_hostile_rewrites<T>(valid: &[u8], decode: impl Fn(&[u8]) -> T) {
    let check = |bytes: &[u8], rewrite: &str, at: usize| {
        LARGEST_REQUEST.with(|largest| largest.set(0));
        let _ = decode(bytes);
        let largest = LARGEST_REQUEST.with(Cell::get);
        assert!(
            largest <= ALLOC_BYTES_PER_INPUT_BYTE * bytes.len() + ALLOC_SLACK,
            "{rewrite} at {at}: one allocation of {largest} bytes for {} input bytes",
            bytes.len()
        );
    };
    for cut in 0..valid.len() {
        check(&valid[..cut], "truncated", cut);
    }
    let mut bytes = valid.to_vec();
    for at in 0..valid.len().saturating_sub(3) {
        for (hostile, name) in [(u32::MAX, "u32::MAX"), (0x4000_0000, "0x4000_0000")] {
            bytes[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
            check(&bytes, name, at);
            bytes[at..at + 4].copy_from_slice(&valid[at..at + 4]);
        }
    }
}

/// Arbitrary printable-ASCII strings (the vendored proptest shim has no
/// regex strategies).
fn ascii_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..max_len.max(1))
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// A representative sample of KVS request shapes (point ops, range ops and
/// variable-length payloads) for codec roundtrips.
fn kvs_request_strategy() -> impl Strategy<Value = kvs::codec::Request> {
    use kvs::codec::Request;
    prop_oneof![
        ascii_string(24).prop_map(|key| Request::Get { key }),
        (ascii_string(24), prop::collection::vec(any::<u8>(), 0..100))
            .prop_map(|(key, value)| Request::Set { key, value }),
        (ascii_string(24), any::<u64>(), any::<u64>())
            .prop_map(|(key, offset, len)| Request::GetRange { key, offset, len }),
        (
            ascii_string(24),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..100)
        )
            .prop_map(|(key, offset, data)| Request::SetRange { key, offset, data }),
        (ascii_string(24), prop::collection::vec(any::<u8>(), 0..100))
            .prop_map(|(key, data)| Request::Append { key, data }),
        ascii_string(24).prop_map(|key| Request::Del { key }),
    ]
}

/// A mutating store operation over a small colliding key set, for the
/// version-monotonicity property.
#[derive(Debug, Clone)]
enum StoreOp {
    Set(usize, Vec<u8>),
    SetRange(usize, u8, Vec<u8>),
    Append(usize, Vec<u8>),
    Del(usize),
    Incr(usize, i8),
}

fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
    let key = 0..6usize;
    let bytes = || prop::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        (key.clone(), bytes()).prop_map(|(k, v)| StoreOp::Set(k, v)),
        (key.clone(), any::<u8>(), bytes()).prop_map(|(k, off, v)| StoreOp::SetRange(
            k,
            off % 24,
            v
        )),
        (key.clone(), bytes()).prop_map(|(k, v)| StoreOp::Append(k, v)),
        key.clone().prop_map(StoreOp::Del),
        (key, any::<i8>()).prop_map(|(k, d)| StoreOp::Incr(k, d)),
    ]
}

fn store_op_key(op: &StoreOp) -> String {
    let k = match op {
        StoreOp::Set(k, _)
        | StoreOp::SetRange(k, _, _)
        | StoreOp::Append(k, _)
        | StoreOp::Del(k)
        | StoreOp::Incr(k, _) => k,
    };
    format!("ver:{k}")
}

fn apply_store_op(store: &KvStore, op: &StoreOp) {
    let key = store_op_key(op);
    match op {
        StoreOp::Set(_, v) => {
            store.set(&key, v.clone());
        }
        StoreOp::SetRange(_, off, v) => {
            store.set_range(&key, usize::from(*off), v);
        }
        StoreOp::Append(_, v) => {
            store.append(&key, v);
        }
        StoreOp::Del(_) => {
            store.del(&key);
        }
        StoreOp::Incr(_, d) => {
            store.incr(&key, i64::from(*d));
        }
    }
}

/// Arbitrary migration entries: values and every lock shape.
fn migration_entries_strategy() -> impl Strategy<Value = Vec<kvs::KeyMigration>> {
    let lock = prop_oneof![
        Just(None),
        (any::<u64>(), any::<u32>()).prop_map(|(owner, ms)| Some(kvs::LockMigration::Writer {
            owner,
            remaining_ms: u64::from(ms),
        })),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4)
            .prop_map(|readers| Some(kvs::LockMigration::Readers(readers))),
    ];
    prop::collection::vec(
        (
            ascii_string(16),
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..40)),
            lock,
            any::<u64>(),
        )
            .prop_map(
                |(key, (has_value, value), lock, version)| kvs::KeyMigration {
                    key,
                    value: has_value.then_some(value),
                    lock,
                    version,
                },
            ),
        0..5,
    )
}

/// The KVS requests that carry counted lists — the shapes a hostile count
/// can target.
fn kvs_list_request_strategy() -> impl Strategy<Value = kvs::codec::Request> {
    use kvs::codec::Request;
    let u32s = || prop::collection::vec(any::<u32>(), 0..6);
    prop_oneof![
        (
            ascii_string(12),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..6)
        )
            .prop_map(|(key, spans)| Request::MultiGetRange { key, spans }),
        (
            ascii_string(12),
            prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)),
                0..6
            )
        )
            .prop_map(|(key, writes)| Request::MultiSetRange {
                key,
                writes: writes.into_iter().collect(),
            }),
        migration_entries_strategy().prop_map(|entries| Request::Replicate { entries }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            migration_entries_strategy()
        )
            .prop_map(|(xfer, seq, last, entries)| Request::HandoffFrame {
                xfer,
                seq,
                last,
                entries,
            }),
        (any::<u64>(), any::<u64>(), u32s(), u32s()).prop_map(
            |(epoch, shard_count, dead, hosts)| Request::EpochCommit {
                epoch,
                shard_count,
                dead,
                hosts,
            }
        ),
        u32s().prop_map(|prev_dead| Request::Rebuild { prev_dead }),
        prop::collection::vec(ascii_string(12), 0..6).prop_map(|keys| Request::MultiGet { keys }),
    ]
}

/// KVS responses with payloads: every counted-list shape, bare and behind
/// a version stamp.
fn kvs_response_strategy() -> impl Strategy<Value = kvs::Response> {
    use kvs::Response;
    let plain = prop_oneof![
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..6)
            .prop_map(|runs| Response::Spans(Some(runs))),
        prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..6
        )
        .prop_map(|vs| Response::MultiValues(
            vs.into_iter().map(|(some, v)| some.then_some(v)).collect()
        )),
        migration_entries_strategy().prop_map(Response::Handoff),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|v| Response::Value(Some(v))),
        ascii_string(24).prop_map(Response::Err),
        any::<u64>().prop_map(Response::Len),
    ];
    (plain, any::<bool>(), any::<u64>()).prop_map(|(inner, versioned, version)| {
        if versioned {
            Response::Versioned {
                version,
                inner: Box::new(inner),
            }
        } else {
            inner
        }
    })
}

fn call_spec_strategy() -> impl Strategy<Value = CallSpec> {
    (
        (any::<u64>(), ascii_string(16), ascii_string(16)),
        (
            prop::collection::vec(any::<u8>(), 0..64),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((id, user, function), (input, trace_id, span_id))| CallSpec {
                id: CallId(id),
                user,
                function,
                input,
                trace: TraceCtx { trace_id, span_id },
            },
        )
}

fn call_result_strategy() -> impl Strategy<Value = CallResult> {
    let status = prop_oneof![
        Just(CallStatus::Success),
        any::<i32>().prop_map(CallStatus::Failed),
        ascii_string(40).prop_map(CallStatus::Error),
    ];
    (
        any::<u64>(),
        status,
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(id, status, output)| CallResult {
            id: CallId(id),
            status,
            output,
        })
}

fn gateway_status_strategy() -> impl Strategy<Value = GatewayStatus> {
    prop_oneof![
        Just(GatewayStatus::Ok),
        any::<i32>().prop_map(GatewayStatus::Failed),
        ascii_string(40).prop_map(GatewayStatus::Error),
        Just(GatewayStatus::Overloaded),
        Just(GatewayStatus::Expired),
    ]
}

/// A random arithmetic expression over two i32 variables, rendered to FL
/// and mirrored in Rust with wrapping semantics.
#[derive(Debug, Clone)]
enum ExprTree {
    X,
    Y,
    Const(i16),
    Add(Box<ExprTree>, Box<ExprTree>),
    Sub(Box<ExprTree>, Box<ExprTree>),
    Mul(Box<ExprTree>, Box<ExprTree>),
    And(Box<ExprTree>, Box<ExprTree>),
    Xor(Box<ExprTree>, Box<ExprTree>),
}

impl ExprTree {
    fn render(&self) -> String {
        match self {
            ExprTree::X => "x".into(),
            ExprTree::Y => "y".into(),
            ExprTree::Const(c) => format!("({c})"),
            ExprTree::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            ExprTree::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            ExprTree::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            ExprTree::And(a, b) => format!("({} & {})", a.render(), b.render()),
            ExprTree::Xor(a, b) => format!("({} ^ {})", a.render(), b.render()),
        }
    }

    fn eval(&self, x: i32, y: i32) -> i32 {
        match self {
            ExprTree::X => x,
            ExprTree::Y => y,
            ExprTree::Const(c) => *c as i32,
            ExprTree::Add(a, b) => a.eval(x, y).wrapping_add(b.eval(x, y)),
            ExprTree::Sub(a, b) => a.eval(x, y).wrapping_sub(b.eval(x, y)),
            ExprTree::Mul(a, b) => a.eval(x, y).wrapping_mul(b.eval(x, y)),
            ExprTree::And(a, b) => a.eval(x, y) & b.eval(x, y),
            ExprTree::Xor(a, b) => a.eval(x, y) ^ b.eval(x, y),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = ExprTree> {
    let leaf = prop_oneof![
        Just(ExprTree::X),
        Just(ExprTree::Y),
        any::<i16>().prop_map(ExprTree::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprTree::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprTree::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprTree::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprTree::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprTree::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

/// One step against a [`PendingMap`] in the model-based property test.
#[derive(Debug, Clone)]
enum PendingOp {
    /// Reserve a waiter slot.
    Register(u8),
    /// Install a callback waiter (the value is a unique token assigned at
    /// execution time, so every fire can be attributed to its callback).
    RegisterCb(u8),
    /// Deliver a value.
    Fulfill(u8, u32),
    /// Non-blocking take.
    TryTake(u8),
    /// Force the TTL sweep (with a zero TTL every unclaimed fulfilled slot
    /// is stale, so the sweep's effect is deterministic).
    Sweep,
}

fn pending_op_strategy() -> impl Strategy<Value = PendingOp> {
    prop_oneof![
        (0u8..6).prop_map(PendingOp::Register),
        (0u8..6).prop_map(PendingOp::RegisterCb),
        (0u8..6, any::<u32>()).prop_map(|(id, v)| PendingOp::Fulfill(id, v)),
        (0u8..6).prop_map(PendingOp::TryTake),
        Just(PendingOp::Sweep),
    ]
}

/// Reference model of one slot's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelSlot {
    Waiting,
    Ready(u32),
    /// Callback identified by its registration token.
    Callback(u32),
}

/// Drive a [`PendingMap`] and an in-model twin through the same op
/// sequence; every observable (try_take results, callback firings with
/// their values and order, final slot count) must agree.
fn check_pending_map_model(ops: &[PendingOp], store_unregistered: bool, ttl: bool) {
    let map: PendingMap<u32> = PendingMap::new(
        store_unregistered,
        ttl.then_some(Duration::ZERO),
        faasm::telemetry::Clock::manual(),
    );
    let fired: Arc<Mutex<Vec<(u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut model: HashMap<u8, ModelSlot> = HashMap::new();
    let mut expected_fired: Vec<(u32, u32)> = Vec::new();
    let mut next_token = 0u32;

    for op in ops {
        match *op {
            PendingOp::Register(id) => {
                map.register(u64::from(id));
                model.entry(id).or_insert(ModelSlot::Waiting);
            }
            PendingOp::RegisterCb(id) => {
                let token = next_token;
                next_token += 1;
                let fired = Arc::clone(&fired);
                map.register_callback(
                    u64::from(id),
                    Box::new(move |v| fired.lock().unwrap().push((token, v))),
                );
                match model.get(&id) {
                    // A parked value fires the new callback immediately.
                    Some(ModelSlot::Ready(v)) => {
                        expected_fired.push((token, *v));
                        model.remove(&id);
                    }
                    // Overwrites any waiter (a replaced callback is
                    // dropped, never fired — caller misuse, but defined).
                    _ => {
                        model.insert(id, ModelSlot::Callback(token));
                    }
                }
            }
            PendingOp::Fulfill(id, v) => {
                map.fulfill(u64::from(id), v);
                match model.get(&id) {
                    Some(ModelSlot::Callback(token)) => {
                        expected_fired.push((*token, v));
                        model.remove(&id);
                    }
                    Some(_) => {
                        model.insert(id, ModelSlot::Ready(v));
                    }
                    None if store_unregistered => {
                        model.insert(id, ModelSlot::Ready(v));
                    }
                    None => {} // non-storing maps drop unknown ids
                }
            }
            PendingOp::TryTake(id) => {
                let got = map.try_take(u64::from(id));
                let want = match model.get(&id) {
                    Some(ModelSlot::Ready(v)) => {
                        let v = *v;
                        model.remove(&id);
                        Some(v)
                    }
                    _ => None,
                };
                assert_eq!(got, want, "try_take({id}) diverged from the model");
            }
            PendingOp::Sweep => {
                map.sweep();
                if ttl {
                    // Zero TTL: every unclaimed Ready slot is stale.
                    model.retain(|_, s| !matches!(s, ModelSlot::Ready(_)));
                }
            }
        }
    }
    assert_eq!(
        *fired.lock().unwrap(),
        expected_fired,
        "callback firings (values and order) diverged from the model"
    );
    assert_eq!(map.len(), model.len(), "slot counts diverged");
}

proptest! {
    /// Linear memory is a faithful byte store: any sequence of in-bounds
    /// writes reads back exactly.
    #[test]
    fn memory_read_after_write(
        writes in prop::collection::vec(
            (0usize..3 * PAGE_SIZE - 64, prop::collection::vec(any::<u8>(), 1..64)),
            1..24,
        )
    ) {
        let mut mem = LinearMemory::new(3, 3).unwrap();
        let mut model = vec![0u8; 3 * PAGE_SIZE];
        for (addr, data) in &writes {
            mem.write(*addr, data).unwrap();
            model[*addr..*addr + data.len()].copy_from_slice(data);
        }
        prop_assert_eq!(mem.to_vec(), model);
    }

    /// Snapshots are immutable: no write to the source or any restored copy
    /// can change what later restores observe.
    #[test]
    fn snapshot_immutability(
        pre in prop::collection::vec((0usize..PAGE_SIZE - 8, any::<u64>()), 1..12),
        post in prop::collection::vec((0usize..PAGE_SIZE - 8, any::<u64>()), 1..12),
    ) {
        let mut mem = LinearMemory::new(1, 2).unwrap();
        for (addr, v) in &pre {
            mem.write_u64(*addr, *v).unwrap();
        }
        let expected = mem.to_vec();
        let snap = mem.snapshot();
        // Mutate the original and one restored copy.
        for (addr, v) in &post {
            mem.write_u64(*addr, *v).unwrap();
        }
        let mut restored1 = LinearMemory::restore(&snap);
        for (addr, v) in &post {
            restored1.write_u64(*addr, v.wrapping_add(1)).unwrap();
        }
        // A fresh restore still sees the snapshot-time contents.
        let restored2 = LinearMemory::restore(&snap);
        prop_assert_eq!(restored2.to_vec(), expected);
    }

    /// Memory snapshots survive the cross-host path: `chunk_proto` →
    /// `assemble_proto` → `LinearMemory::restore` gives back the same bytes
    /// in the same number of resident blocks, and so does assembly from the
    /// pages a host's page store decoded from the same chunks.
    #[test]
    fn snapshot_serialisation_roundtrip(
        writes in prop::collection::vec((0usize..2 * PAGE_SIZE - 8, any::<u64>()), 0..8)
    ) {
        let mut mem = LinearMemory::new(2, 4).unwrap();
        for (addr, v) in &writes {
            mem.write_u64(*addr, *v).unwrap();
        }
        let expected = mem.to_vec();
        let snap = mem.snapshot();
        let proto = ProtoFaaslet {
            user: "u".into(),
            function: "f".into(),
            generation: 1,
            snapshot: InstanceSnapshot { mem: Some(snap.clone()), globals: vec![], table: vec![] },
        };
        let chunked = chunk_proto(&proto).expect("chunks");
        let pages: Vec<_> =
            chunked.manifest.pages.iter().map(|d| Arc::clone(&chunked.chunks[d])).collect();
        let back = assemble_proto(&chunked.chunks[&chunked.manifest.meta], &pages)
            .expect("assembles");
        let restored = LinearMemory::restore(back.snapshot.mem.as_ref().expect("a memory"));
        prop_assert_eq!(restored.to_vec(), expected);
        prop_assert_eq!(
            restored.stats().rss_bytes,
            LinearMemory::restore(&snap).stats().rss_bytes
        );
        let store = SnapshotCache::new(DEFAULT_SNAPSHOT_CACHE_BYTES);
        let stored: Vec<_> = chunked
            .manifest
            .pages
            .iter()
            .map(|d| store.get(d).or_else(|| store.insert_chunk(*d, &chunked.chunks[d])))
            .collect::<Option<_>>()
            .expect("every page chunk decodes");
        let from_store = assemble_pages(&chunked.chunks[&chunked.manifest.meta], stored)
            .expect("assembles");
        let back_pages = back.snapshot.mem.as_ref().expect("a memory").pages();
        let store_pages = from_store.snapshot.mem.as_ref().expect("a memory").pages();
        prop_assert_eq!(store_pages.len(), back_pages.len());
        for (s, b) in store_pages.iter().zip(back_pages) {
            prop_assert_eq!(s.to_chunk(), b.to_chunk());
            prop_assert_eq!(s.resident_bytes(), b.resident_bytes());
        }
    }

    /// Shared-region writes through one mapping are exactly what every other
    /// mapping reads (zero-copy aliasing, Fig. 2).
    #[test]
    fn shared_region_aliasing(
        writes in prop::collection::vec(
            (0usize..PAGE_SIZE - 16, prop::collection::vec(any::<u8>(), 1..16)),
            1..10,
        )
    ) {
        let region = SharedRegion::new(PAGE_SIZE);
        let mut a = LinearMemory::new(1, 4).unwrap();
        let mut b = LinearMemory::new(2, 4).unwrap();
        let base_a = a.map_shared(&region).unwrap();
        let base_b = b.map_shared(&region).unwrap();
        for (off, data) in &writes {
            a.write(base_a + off, data).unwrap();
        }
        for (off, data) in &writes {
            let mut buf = vec![0u8; data.len()];
            b.read(base_b + off, &mut buf).unwrap();
            // Later writes may overlap earlier ones; re-read via region for
            // the authoritative value.
            let mut expect = vec![0u8; data.len()];
            region.read(*off, &mut expect).unwrap();
            prop_assert_eq!(buf, expect);
        }
    }

    /// The trusted decoder never panics on arbitrary bytes and never accepts
    /// then mis-executes garbage: decode either errors or yields a module
    /// that re-encodes canonically.
    #[test]
    fn module_decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(module) = decode_module(&bytes) {
            // Anything accepted must round-trip through our own encoder.
            let re = encode_module(&module);
            prop_assert_eq!(decode_module(&re).unwrap(), module);
        }
    }

    /// Bit-flipping a valid module binary must never panic the
    /// decode/validate pipeline (SFI's upload gate is total).
    #[test]
    fn upload_gate_survives_bitflips(flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8)) {
        let module = lang::compile(
            "int main() { int acc = 0; for (int i = 0; i < 10; i = i + 1) { acc = acc + i; } return acc; }",
        )
        .unwrap();
        let mut bytes = encode_module(&module);
        for (pos, val) in &flips {
            let idx = *pos as usize % bytes.len();
            bytes[idx] ^= *val;
        }
        // Must not panic; may succeed (benign flip) or fail.
        let _ = ObjectModule::compile(&bytes);
    }

    /// FL programs that compile always pass the FVM validator — the
    /// toolchain can never produce modules the trusted gate rejects.
    #[test]
    fn fl_codegen_always_validates(
        a in -1000i32..1000,
        b in 1i32..1000,
        loops in 1u8..5,
    ) {
        let src = format!(
            r#"
            int main() {{
                int acc = {a};
                for (int i = 0; i < {loops}; i = i + 1) {{
                    if (acc > 0 && i % 2 == 0) {{
                        acc = acc - {b};
                    }} else {{
                        acc = acc + i * {b};
                    }}
                }}
                return acc;
            }}
            "#
        );
        let module = lang::compile(&src).unwrap();
        prop_assert!(faasm::fvm::validate(&module).is_ok());
    }

    /// FL arithmetic agrees with a Rust reference across random inputs (the
    /// guest ISA computes correctly, not just safely).
    #[test]
    fn fl_arithmetic_matches_reference(x in -10_000i32..10_000, y in -10_000i32..10_000) {
        let src = r#"
            int f(int x, int y) {
                int s = x + y;
                int d = x - y;
                int p = (x % 97) * (y % 89);
                int m = 0;
                if (x > y) { m = x; } else { m = y; }
                return s * 3 + d - p + m;
            }
        "#;
        let module = lang::compile(src).unwrap();
        let object = ObjectModule::prepare(module).unwrap();
        let mut inst = faasm::fvm::Instance::new(
            object,
            &faasm::fvm::Linker::new(),
            Box::new(()),
        )
        .unwrap();
        let got = inst
            .invoke("f", &[faasm::fvm::Val::I32(x), faasm::fvm::Val::I32(y)])
            .unwrap()
            .unwrap();
        let s = x.wrapping_add(y);
        let d = x.wrapping_sub(y);
        let p = (x % 97).wrapping_mul(y % 89);
        let m = x.max(y);
        let expect = s.wrapping_mul(3).wrapping_add(d).wrapping_sub(p).wrapping_add(m);
        prop_assert_eq!(got, faasm::fvm::Val::I32(expect));
    }

    /// Random expression trees: the FL compiler + FVM interpreter agree with
    /// a Rust reference evaluator on every tree and input (the compiler
    /// differential test).
    #[test]
    fn fl_random_expression_trees_match_reference(
        tree in expr_strategy(),
        x in any::<i32>(),
        y in any::<i32>(),
    ) {
        let src = format!("int f(int x, int y) {{ return {}; }}", tree.render());
        let module = lang::compile(&src).unwrap();
        let object = ObjectModule::prepare(module).unwrap();
        let mut inst =
            faasm::fvm::Instance::new(object, &faasm::fvm::Linker::new(), Box::new(())).unwrap();
        let got = inst
            .invoke("f", &[faasm::fvm::Val::I32(x), faasm::fvm::Val::I32(y)])
            .unwrap()
            .unwrap();
        prop_assert_eq!(got, faasm::fvm::Val::I32(tree.eval(x, y)));
    }

    /// KVS range semantics: setrange/getrange behave like a byte array with
    /// zero extension, matching a Vec<u8> model.
    #[test]
    fn kvs_range_model(
        ops in prop::collection::vec(
            (0u16..2048, prop::collection::vec(any::<u8>(), 1..32)),
            1..16,
        )
    ) {
        let store = faasm::kvs::KvStore::new();
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &ops {
            let off = *off as usize;
            store.set_range("k", off, data);
            if model.len() < off + data.len() {
                model.resize(off + data.len(), 0);
            }
            model[off..off + data.len()].copy_from_slice(data);
        }
        prop_assert_eq!(store.get("k"), Some(model.clone()));
        // Random window reads match.
        let win = model.len().min(100);
        prop_assert_eq!(
            store.get_range("k", 0, win),
            Some(model[..win].to_vec())
        );
    }

    /// Gateway requests survive the wire codec for arbitrary field values,
    /// bare and framed — including the ingress trace context.
    #[test]
    fn gateway_request_codec_roundtrip(
        // The vendored proptest tops out at 5-tuples, so the u64 fields
        // share one strategy slot.
        nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        tenant in ascii_string(24),
        function in ascii_string(24),
        input in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let (seq, deadline_ms, trace_id, span_id) = nums;
        let trace = TraceCtx { trace_id, span_id };
        let req = GatewayRequest { seq, tenant, function, deadline_ms, trace, input };
        let payload = codec::encode_request(&req);
        prop_assert_eq!(codec::decode_request(&payload).as_ref(), Some(&req));
        // And through the checked frame path.
        let frame = codec::try_encode_frame(&payload).unwrap();
        let (framed, consumed) = codec::decode_frame(&frame).expect("frame decodes");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(codec::decode_request(framed), Some(req));
    }

    /// Batched dispatch messages survive the bus codec: every call keeps
    /// its id, payload and trace context, and the batch send timestamp
    /// rides along for bus-transit spans.
    #[test]
    fn invoke_batch_codec_roundtrip(
        reply_to in any::<u32>(),
        sent_at_ns in any::<u64>(),
        calls in prop::collection::vec(call_spec_strategy(), 0..6),
    ) {
        let msg = InstanceMsg::InvokeBatch {
            calls,
            reply_to: HostId(reply_to),
            sent_at_ns,
        };
        prop_assert_eq!(decode_msg(&encode_msg(&msg)), Some(msg));
    }

    /// KVS requests carry the routing epoch and trace context through the
    /// wire codec unchanged, for every request shape.
    #[test]
    fn kvs_request_codec_stamps_epoch_and_trace(
        req in kvs_request_strategy(),
        epoch in any::<u64>(),
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
    ) {
        let trace = TraceCtx { trace_id, span_id };
        let bytes = kvs::codec::encode_request_traced(&req, epoch, trace);
        let (got, got_epoch, got_trace) =
            kvs::codec::decode_request_traced(&bytes).expect("traced request decodes");
        prop_assert_eq!(got, req);
        prop_assert_eq!(got_epoch, epoch);
        prop_assert_eq!(got_trace, trace);
    }

    /// Gateway responses survive the wire codec for every status shape.
    #[test]
    fn gateway_response_codec_roundtrip(
        seq in any::<u64>(),
        status in gateway_status_strategy(),
        output in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let resp = GatewayResponse { seq, status, output };
        let payload = codec::encode_response(&resp);
        prop_assert_eq!(codec::decode_response(&payload), Some(resp));
    }

    /// FrameBuf reassembles any frame sequence from any fragmentation of
    /// the byte stream: chunk boundaries never change what comes out.
    #[test]
    fn framebuf_reassembles_under_arbitrary_splits(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..8),
        chunk_sizes in prop::collection::vec(1usize..64, 1..64),
    ) {
        let stream: Vec<u8> = payloads
            .iter()
            .flat_map(|p| codec::try_encode_frame(p).unwrap())
            .collect();
        let mut fb = FrameBuf::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut off = 0;
        let mut i = 0;
        while off < stream.len() {
            // Cycle through the generated chunk sizes so every prefix
            // length gets exercised, draining completed frames as we go
            // (the interleaving a service loop performs).
            let n = chunk_sizes[i % chunk_sizes.len()].min(stream.len() - off);
            i += 1;
            fb.feed(&stream[off..off + n]);
            off += n;
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert_eq!(fb.pending_bytes(), 0);
    }

    /// PendingMap agrees with a reference model across arbitrary
    /// register/fulfill/take/TTL-sweep interleavings, in all four policy
    /// combinations (store-unregistered × TTL) — the invariant behind one
    /// slot map serving the runtime's calls and the gateway's tickets.
    #[test]
    fn pending_map_matches_model(
        ops in prop::collection::vec(pending_op_strategy(), 0..64),
        store_unregistered in any::<bool>(),
        ttl in any::<bool>(),
    ) {
        check_pending_map_model(&ops, store_unregistered, ttl);
    }

    /// FrameBuf is total on garbage: arbitrary bytes in arbitrary chunks
    /// either frame, stay pending, or error — never panic, and an error
    /// always clears the buffer.
    #[test]
    fn framebuf_total_on_garbage(
        garbage in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..48,
    ) {
        let mut fb = FrameBuf::new();
        for piece in garbage.chunks(chunk) {
            fb.feed(piece);
            loop {
                match fb.next_frame() {
                    Ok(Some(frame)) => prop_assert!(frame.len() <= MAX_FRAME),
                    Ok(None) => break,
                    Err(_) => {
                        prop_assert_eq!(fb.pending_bytes(), 0);
                        break;
                    }
                }
            }
        }
    }

    /// The batched chunk messages roundtrip through the KVS codec for
    /// arbitrary keys, span lists and write payloads.
    #[test]
    fn kvs_batched_requests_roundtrip(
        key in ascii_string(24),
        spans in prop::collection::vec((any::<u32>(), any::<u32>()), 0..12),
        writes in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u8>(), 0..40)),
            0..8,
        ),
    ) {
        let req = kvs::Request::MultiGetRange {
            key: key.clone(),
            spans: spans.iter().map(|&(o, l)| (o as u64, l as u64)).collect(),
        };
        let decoded = kvs::codec::decode_request(&kvs::codec::encode_request(&req)).unwrap();
        prop_assert_eq!(decoded, req);
        let req = kvs::Request::MultiSetRange {
            key,
            writes: writes
                .iter()
                .map(|(o, d)| (*o as u64, d.clone()))
                .collect(),
        };
        let decoded = kvs::codec::decode_request(&kvs::codec::encode_request(&req)).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// The span-list response roundtrips, present or missing.
    #[test]
    fn kvs_spans_response_roundtrips(
        runs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..10),
        present in any::<bool>(),
    ) {
        let resp = kvs::Response::Spans(present.then_some(runs));
        let decoded = kvs::codec::decode_response(&kvs::codec::encode_response(&resp)).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    /// The KVS codec is total on garbage: arbitrary bytes decode to a
    /// value or an error, never a panic or an oversized preallocation.
    #[test]
    fn kvs_codec_total_on_garbage(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = kvs::codec::decode_request(&garbage);
        let _ = kvs::codec::decode_response(&garbage);
    }

    /// `kvs::codec::decode_request` under hostile rewrites of valid
    /// encodings, list-bearing shapes included.
    #[test]
    fn kvs_request_decoder_total_on_hostile_rewrites(
        req in prop_oneof![kvs_request_strategy(), kvs_list_request_strategy()],
    ) {
        assert_total_on_hostile_rewrites(
            &kvs::codec::encode_request(&req),
            kvs::codec::decode_request_traced,
        );
    }

    /// `kvs::codec::decode_response` likewise.
    #[test]
    fn kvs_response_decoder_total_on_hostile_rewrites(resp in kvs_response_strategy()) {
        assert_total_on_hostile_rewrites(
            &kvs::codec::encode_response(&resp),
            kvs::codec::decode_response,
        );
    }

    /// A KVS encoding fills exactly the buffer it was sized for: a size that
    /// falls short costs a doubling reallocation on a batched push.
    #[test]
    fn kvs_encodings_are_sized_exactly(
        req in prop_oneof![kvs_request_strategy(), kvs_list_request_strategy()],
        resp in kvs_response_strategy(),
    ) {
        let bytes = kvs::codec::encode_request(&req);
        prop_assert_eq!(bytes.capacity(), bytes.len());
        let bytes = kvs::codec::encode_response(&resp);
        prop_assert_eq!(bytes.capacity(), bytes.len());
    }

    /// The gateway's request decoder and frame splitter.
    #[test]
    fn gateway_request_decoder_total_on_hostile_rewrites(
        nums in (any::<u64>(), any::<u64>()),
        tenant in ascii_string(24),
        function in ascii_string(24),
        input in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (seq, deadline_ms) = nums;
        let trace = TraceCtx::NONE;
        let req = GatewayRequest { seq, tenant, function, deadline_ms, trace, input };
        let payload = codec::encode_request(&req);
        assert_total_on_hostile_rewrites(&payload, codec::decode_request);
        assert_total_on_hostile_rewrites(&codec::encode_frame(&payload), |bytes| {
            codec::try_decode_frame(bytes).map(|frame| frame.map(|(p, n)| (p.len(), n)))
        });
    }

    /// The gateway's response decoder.
    #[test]
    fn gateway_response_decoder_total_on_hostile_rewrites(
        seq in any::<u64>(),
        status in gateway_status_strategy(),
        output in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let resp = GatewayResponse { seq, status, output };
        assert_total_on_hostile_rewrites(&codec::encode_response(&resp), codec::decode_response);
    }

    /// The bus decoder, every message kind.
    #[test]
    fn bus_decoder_total_on_hostile_rewrites(
        calls in prop::collection::vec(call_spec_strategy(), 1..5),
        result in call_result_strategy(),
        manifest in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let reply_to = HostId(3);
        let msgs = [
            InstanceMsg::Result { result },
            InstanceMsg::PreStage {
                user: calls[0].user.clone(),
                function: calls[0].function.clone(),
                manifest,
            },
            InstanceMsg::InvokeBatch { calls, reply_to, sent_at_ns: 7 },
        ];
        for msg in &msgs {
            assert_total_on_hostile_rewrites(&encode_msg(msg), decode_msg);
        }
    }

    /// The call-spec and call-result decoders.
    #[test]
    fn call_decoders_total_on_hostile_rewrites(
        call in call_spec_strategy(),
        result in call_result_strategy(),
    ) {
        assert_total_on_hostile_rewrites(&encode_call(&call), decode_call);
        assert_total_on_hostile_rewrites(&encode_result(&result), decode_result);
    }

    /// The snapshot plane's three decoders: the manifest, and the meta chunk
    /// and a page chunk through `assemble_proto`, their only way in. Chunk
    /// keys are shared across tenants, so a page chunk is outside input too.
    #[test]
    fn proto_decoders_total_on_hostile_rewrites(
        globals in prop::collection::vec(any::<u64>(), 0..6),
        table in prop::collection::vec((any::<bool>(), any::<u32>()), 0..6),
        pages in 0usize..3,
        generation in any::<u64>(),
        stores in (
            0usize..PAGE_SIZE / BLOCK_SIZE,
            prop::collection::vec((0usize..BLOCK_SIZE, 1u8..=255), 1..4),
        ),
    ) {
        let table = table.into_iter().map(|(some, f)| some.then_some(f)).collect();
        let mem = (pages > 0).then(|| {
            let pages = (0..pages).map(|_| Arc::new(Page::zeroed())).collect();
            MemorySnapshot::from_pages(pages, 4).expect("within max")
        });
        let proto = ProtoFaaslet {
            user: "u".into(),
            function: "f".into(),
            generation,
            snapshot: InstanceSnapshot { mem, globals, table },
        };
        let chunked = chunk_proto(&proto).expect("chunks");
        assert_total_on_hostile_rewrites(&chunked.manifest.to_bytes(), ProtoManifest::from_bytes);
        // No page chunks: the meta chunk is decoded in full either way, and
        // a proto with memory then stops at the page-count check instead of
        // copying pages the meta bytes did not pay for.
        assert_total_on_hostile_rewrites(&chunked.chunks[&chunked.manifest.meta], |meta| {
            assemble_proto(meta, &[]).map(|proto| proto.generation)
        });
        // A one-page proto's real page chunk: its mask and one block.
        let (block, stores) = stores;
        let page = Page::zeroed();
        for (at, byte) in &stores {
            page.write(block * BLOCK_SIZE + at, &[*byte]);
        }
        let one_page = ProtoFaaslet {
            snapshot: InstanceSnapshot {
                mem: MemorySnapshot::from_pages(vec![Arc::new(page)], 1),
                globals: vec![],
                table: vec![],
            },
            ..proto
        };
        let chunked = chunk_proto(&one_page).expect("chunks");
        let meta = &chunked.chunks[&chunked.manifest.meta];
        assert_total_on_hostile_rewrites(&chunked.chunks[&chunked.manifest.pages[0]], |chunk| {
            assemble_proto(meta, &[Arc::new(chunk.to_vec())]).map(|proto| proto.generation)
        });
    }

    /// Rendezvous routing is deterministic and stable: two independently
    /// built clients over the same shard count agree on every key, and
    /// growing the shard set only ever moves keys to the *new* shard.
    #[test]
    fn rendezvous_routing_is_stable(
        shards in 1usize..6,
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        for k in &keys {
            let key = format!("state:{k}");
            let owner = kvs::shard_index_for(&key, shards);
            prop_assert!(owner < shards);
            prop_assert_eq!(
                kvs::shard_index_for(&key, shards),
                owner,
                "routing is a pure function"
            );
            let new_owner = kvs::shard_index_for(&key, shards + 1);
            prop_assert!(
                new_owner == owner || new_owner == shards,
                "adding a shard may move a key only onto the new shard \
                 (was {}, now {})",
                owner,
                new_owner
            );
        }
    }

    /// The epoch N→N+1 rendezvous delta is exactly the keys whose owner
    /// changed — no gratuitous movement — and every moved key lands on the
    /// newly added shard. Shrinking back moves exactly the retiring
    /// shard's keys. (The migration coordinator and the donors' export
    /// predicate both stand on this.)
    #[test]
    fn rendezvous_epoch_delta_is_exact(
        shards in 1usize..6,
        raw in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        let keys: Vec<String> = raw.iter().map(|k| format!("state:{k}")).collect();

        // Identity epoch change: nothing moves.
        prop_assert!(kvs::rendezvous_delta(&keys, shards, shards).is_empty());

        // Grow by one: the delta is exactly the owner-changed set.
        let grow: HashMap<String, usize> =
            kvs::rendezvous_delta(&keys, shards, shards + 1).into_iter().collect();
        for key in &keys {
            let old = kvs::shard_index_for(key, shards);
            let new = kvs::shard_index_for(key, shards + 1);
            if old == new {
                prop_assert!(
                    !grow.contains_key(key.as_str()),
                    "{key} did not change owner but is in the delta"
                );
            } else {
                prop_assert_eq!(
                    grow.get(key.as_str()),
                    Some(&new),
                    "owner-changed key missing from the delta or mistargeted"
                );
                prop_assert_eq!(
                    new, shards,
                    "growth may move keys only onto the new shard"
                );
            }
        }

        // Shrink back: exactly the retiring shard's keys move, each to its
        // owner under the shrunk table.
        let shrink: HashMap<String, usize> =
            kvs::rendezvous_delta(&keys, shards + 1, shards).into_iter().collect();
        for key in &keys {
            let was = kvs::shard_index_for(key, shards + 1);
            if was == shards {
                prop_assert_eq!(
                    shrink.get(key.as_str()),
                    Some(&kvs::shard_index_for(key, shards))
                );
            } else {
                prop_assert!(!shrink.contains_key(key.as_str()));
            }
        }
    }

    /// Ordered replica sets keep the rendezvous invariants the replicated
    /// tier stands on: rank 0 is the single-owner routing, growing the tier
    /// can only insert the newcomer into a set (minimal movement), the
    /// primary-change set is exactly the rendezvous delta, and tombstoning
    /// a slot promotes within the extended ranking — sets not containing
    /// the dead slot are untouched.
    #[test]
    fn replica_sets_are_stable_and_minimal(
        shards in 1usize..6,
        replication in 1usize..4,
        raw in prop::collection::vec(any::<u64>(), 1..96),
    ) {
        let keys: Vec<String> = raw.iter().map(|k| format!("state:{k}")).collect();
        let delta: HashMap<String, usize> =
            kvs::rendezvous_delta(&keys, shards, shards + 1).into_iter().collect();
        for key in &keys {
            let set = kvs::replica_set_for(key, shards, replication);
            prop_assert_eq!(set.len(), replication.min(shards));
            let distinct: std::collections::HashSet<&usize> = set.iter().collect();
            prop_assert_eq!(distinct.len(), set.len(), "ranks must be distinct");
            prop_assert_eq!(set[0], kvs::shard_index_for(key, shards));

            // Growth: the grown set draws only from the old set plus the
            // newcomer, and the primary changes exactly on the delta keys.
            let grown = kvs::replica_set_for(key, shards + 1, replication);
            for slot in &grown {
                prop_assert!(
                    set.contains(slot) || *slot == shards,
                    "growth may only insert the new shard into a replica set"
                );
            }
            prop_assert_eq!(
                grown[0] != set[0],
                delta.contains_key(key.as_str()),
                "primary changes exactly on the rendezvous delta"
            );

            // Tombstones: the live set is the extended ranking with the
            // dead slot struck out, so failover is a promotion — and sets
            // that never contained the victim do not move at all.
            if shards > 1 {
                for victim in [set[0], shards - 1] {
                    let live = kvs::replica_set_live(key, shards, &[victim], replication);
                    let mut expect: Vec<usize> =
                        kvs::replica_set_for(key, shards, replication + 1)
                            .into_iter()
                            .filter(|s| *s != victim)
                            .collect();
                    expect.truncate(replication);
                    prop_assert_eq!(&live, &expect, "tombstone must promote in rank order");
                    if !set.contains(&victim) {
                        prop_assert_eq!(&live, &set, "unaffected sets must not move");
                    }
                    prop_assert_eq!(
                        live[0],
                        kvs::primary_index_live(key, shards, &[victim]),
                        "the allocation-free primary must match rank 0"
                    );
                }
            }
        }
    }

    /// The migration-entry codec roundtrips arbitrary key state — values,
    /// versions and lock owners survive the wire bit-exact.
    #[test]
    fn kvs_handoff_roundtrips(
        entries in migration_entries_strategy(),
        epoch in any::<u64>(),
    ) {
        let req = kvs::Request::Replicate { entries: entries.clone() };
        let bytes = kvs::codec::encode_request_at(&req, epoch);
        prop_assert_eq!(
            kvs::codec::decode_request_epoch(&bytes).unwrap(),
            (req, epoch)
        );
        let resp = kvs::Response::Handoff(entries);
        let bytes = kvs::codec::encode_response(&resp);
        prop_assert_eq!(kvs::codec::decode_response(&bytes).unwrap(), resp);
    }

    /// Per-key mutation versions are monotone for the life of the tier:
    /// every mutating op bumps (never rewinds) the counter, a migration
    /// export/import carries it to the receiving store, and replaying an
    /// old handoff — the replica-rebuild path — max-merges instead of
    /// regressing. The cache's read-your-writes floor rides entirely on
    /// this invariant.
    #[test]
    fn kvs_versions_never_regress_across_migrate_and_rebuild(
        ops in prop::collection::vec(store_op_strategy(), 1..80),
    ) {
        let a = KvStore::new();
        let mut high: HashMap<String, u64> = HashMap::new();
        for op in &ops {
            let key = store_op_key(op);
            apply_store_op(&a, op);
            let v = a.version_of(&key);
            let prev = high.entry(key.clone()).or_insert(0);
            prop_assert!(v > *prev, "op {op:?} must bump {key}: {v} vs {prev}");
            *prev = v;
        }

        // Migrate every key to a fresh store (the donor half of a
        // reshard): versions travel with the data.
        let now = std::time::Instant::now();
        let entries = a.export_keys(|_| true, now);
        let b = KvStore::new();
        b.import_keys(&entries, now);
        for (key, v) in &high {
            prop_assert!(
                b.version_of(key) >= *v,
                "{key} regressed across migration: {} < {v}",
                b.version_of(key)
            );
        }

        // Keep mutating the receiving store, then replay the stale export
        // (a rebuild pulling from a lagging replica): import max-merges,
        // so no key ever rewinds.
        for op in &ops {
            apply_store_op(&b, op);
        }
        let before: HashMap<String, u64> = high
            .keys()
            .map(|k| (k.clone(), b.version_of(k)))
            .collect();
        b.import_keys(&entries, now);
        for (key, v) in &before {
            prop_assert!(
                b.version_of(key) >= *v,
                "{key} rewound by stale handoff replay: {} < {v}",
                b.version_of(key)
            );
        }
    }

    /// Rendezvous routing is balanced: 1000 distinct keys over 4 shards
    /// leave no shard above twice the mean (and none empty).
    #[test]
    fn rendezvous_routing_is_balanced(salt in any::<u32>()) {
        let keys = 1000usize;
        let mut per = [0usize; 4];
        for i in 0..keys {
            per[kvs::shard_index_for(&format!("key:{salt}:{i}"), 4)] += 1;
        }
        let mean = keys as f64 / 4.0;
        for (shard, n) in per.iter().enumerate() {
            prop_assert!(
                (*n as f64) <= 2.0 * mean && *n > 0,
                "shard {} holds {} of {} keys",
                shard,
                n,
                keys
            );
        }
    }
}
