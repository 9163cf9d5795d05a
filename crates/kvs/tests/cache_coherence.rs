//! Cache-coherence property test: an arbitrary interleaving of
//! through-cache operations, external (other-host) writes and routing-epoch
//! bumps is checked against a model store.
//!
//! The invariant under `ReadYourWrites` is *bounded staleness with an
//! own-write floor*: every read served by the cache must equal a value the
//! key actually held at some version **no older than the caller's own last
//! acknowledged write** to that key. Serving the current tier value is
//! always legal; serving a leased snapshot is legal only while it is not
//! older than the caller's own acks. After an epoch bump the next read
//! revalidates, so a final bump-then-sweep must observe the tier exactly.

use std::collections::HashMap;
use std::sync::Arc;

use faasm_kvs::testutil::LocalKv;
use faasm_kvs::{CacheConfig, CachedKv, KvBackend, SharedKv};
use proptest::prelude::*;

/// One step of the generated interleaving. `usize` selects a key from a
/// small hot set so operations genuinely collide.
#[derive(Debug, Clone)]
enum Op {
    /// Writes routed through the instance cache (this caller's own acks).
    CacheSet(usize, Vec<u8>),
    CacheSetRange(usize, u8, Vec<u8>),
    CacheAppend(usize, Vec<u8>),
    CacheIncr(usize, i8),
    CacheDel(usize),
    /// Reads routed through the cache — where staleness would surface.
    CacheGet(usize),
    CacheGetRange(usize, u8, u8),
    /// Another host mutating the tier behind the cache's back.
    ExternalSet(usize, Vec<u8>),
    ExternalDel(usize),
    /// A reshard/failover publishing a new routing epoch.
    EpochBump,
}

const KEYS: usize = 4;

fn key_name(i: usize) -> String {
    format!("coh:{}", i % KEYS)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0..KEYS;
    let bytes = || prop::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        (key.clone(), bytes()).prop_map(|(k, v)| Op::CacheSet(k, v)),
        (key.clone(), any::<u8>(), bytes()).prop_map(|(k, off, v)| Op::CacheSetRange(
            k,
            off % 32,
            v
        )),
        (key.clone(), bytes()).prop_map(|(k, v)| Op::CacheAppend(k, v)),
        (key.clone(), any::<i8>()).prop_map(|(k, d)| Op::CacheIncr(k, d)),
        key.clone().prop_map(Op::CacheDel),
        key.clone().prop_map(Op::CacheGet),
        (key.clone(), any::<u8>(), any::<u8>()).prop_map(|(k, off, len)| Op::CacheGetRange(
            k,
            off % 32,
            len % 32
        )),
        (key.clone(), bytes()).prop_map(|(k, v)| Op::ExternalSet(k, v)),
        key.prop_map(Op::ExternalDel),
        Just(Op::EpochBump),
    ]
}

/// The store's range-read semantics: missing key reads `None`, a present
/// value slices with truncation (possibly to empty).
fn model_slice(value: Option<&Vec<u8>>, offset: usize, len: usize) -> Option<Vec<u8>> {
    let v = value?;
    let start = offset.min(v.len());
    let end = (offset + len).min(v.len());
    Some(v[start..end].to_vec())
}

/// The store's range-write semantics: zero-extend to `offset`, overwrite.
fn model_apply_range(value: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if value.len() < offset + data.len() {
        value.resize(offset + data.len(), 0);
    }
    value[offset..offset + data.len()].copy_from_slice(data);
}

/// One key's observed `(version, value)` states, oldest first.
type KeyHistory = Vec<(u64, Option<Vec<u8>>)>;

/// Per-key mirror of everything the tier ever held: `(version, value)`
/// states, seeded with the pre-history absent state at version 0.
struct Model {
    history: HashMap<String, KeyHistory>,
    current: HashMap<String, Vec<u8>>,
    /// The caller's own-write floor per key (last acked version).
    ack: HashMap<String, u64>,
}

impl Model {
    fn new() -> Model {
        Model {
            history: HashMap::new(),
            current: HashMap::new(),
            ack: HashMap::new(),
        }
    }

    fn record(&mut self, key: &str, version: u64, own: bool) {
        let state = self.current.get(key).cloned();
        self.history
            .entry(key.to_string())
            .or_insert_with(|| vec![(0, None)])
            .push((version, state));
        if own {
            self.ack.insert(key.to_string(), version);
        }
    }

    /// Is `served` a legal response for a whole-value read of `key`?
    fn read_legal(&self, key: &str, served: &Option<Vec<u8>>) -> bool {
        let floor = self.ack.get(key).copied().unwrap_or(0);
        match self.history.get(key) {
            None => served.is_none(),
            Some(states) => states.iter().any(|(v, val)| *v >= floor && val == served),
        }
    }

    /// Is `served` a legal response for a range read of `key`?
    fn range_legal(&self, key: &str, offset: usize, len: usize, served: &Option<Vec<u8>>) -> bool {
        let floor = self.ack.get(key).copied().unwrap_or(0);
        match self.history.get(key) {
            None => served.is_none(),
            Some(states) => states
                .iter()
                .any(|(v, val)| *v >= floor && model_slice(val.as_ref(), offset, len) == *served),
        }
    }
}

proptest! {
    /// Read-your-writes coherence: no cached read ever serves a state
    /// older than the caller's own last acknowledged write, and a final
    /// epoch bump flushes the cache to exact agreement with the tier.
    #[test]
    fn cached_reads_never_precede_own_acks(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let local = Arc::new(LocalKv::new());
        // LocalKv's clock is manual and never advanced here: staleness
        // windows close only via the invalidation machinery under test,
        // never by lease expiry.
        let cache = CachedKv::new(Arc::clone(&local) as SharedKv, CacheConfig::default());
        let mut model = Model::new();

        for op in &ops {
            match op {
                Op::CacheSet(k, v) => {
                    let key = key_name(*k);
                    let ver = cache.set_versioned(&key, v.clone()).unwrap();
                    model.current.insert(key.clone(), v.clone());
                    model.record(&key, ver, true);
                }
                Op::CacheSetRange(k, off, v) => {
                    let key = key_name(*k);
                    let ver = cache
                        .set_range_versioned(&key, u64::from(*off), v.clone())
                        .unwrap();
                    let slot = model.current.entry(key.clone()).or_default();
                    model_apply_range(slot, usize::from(*off), v);
                    model.record(&key, ver, true);
                }
                Op::CacheAppend(k, v) => {
                    let key = key_name(*k);
                    cache.append(&key, v.clone()).unwrap();
                    model.current.entry(key.clone()).or_default().extend_from_slice(v);
                    let ver = local.store.version_of(&key);
                    model.record(&key, ver, true);
                }
                Op::CacheIncr(k, d) => {
                    let key = key_name(*k);
                    let next = cache.incr(&key, i64::from(*d)).unwrap();
                    model.current.insert(key.clone(), next.to_le_bytes().to_vec());
                    let ver = local.store.version_of(&key);
                    model.record(&key, ver, true);
                }
                Op::CacheDel(k) => {
                    let key = key_name(*k);
                    let (_, ver) = cache.del_versioned(&key).unwrap();
                    model.current.remove(&key);
                    model.record(&key, ver, true);
                }
                Op::CacheGet(k) => {
                    let key = key_name(*k);
                    let served = cache.get(&key).unwrap();
                    prop_assert!(
                        model.read_legal(&key, &served),
                        "get({key}) served {served:?} older than own ack \
                         (floor {:?}, history {:?})",
                        model.ack.get(&key),
                        model.history.get(&key),
                    );
                }
                Op::CacheGetRange(k, off, len) => {
                    let key = key_name(*k);
                    let served = cache
                        .get_range(&key, u64::from(*off), u64::from(*len))
                        .unwrap();
                    prop_assert!(
                        model.range_legal(&key, usize::from(*off), usize::from(*len), &served),
                        "get_range({key}, {off}, {len}) served {served:?} \
                         older than own ack (floor {:?})",
                        model.ack.get(&key),
                    );
                }
                Op::ExternalSet(k, v) => {
                    let key = key_name(*k);
                    let ver = local.store.set(&key, v.clone());
                    model.current.insert(key.clone(), v.clone());
                    model.record(&key, ver, false);
                }
                Op::ExternalDel(k) => {
                    let key = key_name(*k);
                    let (_, ver) = local.store.del(&key);
                    model.current.remove(&key);
                    model.record(&key, ver, false);
                }
                Op::EpochBump => {
                    local.bump_epoch();
                }
            }
        }

        // An epoch bump forces revalidation on the next touch of every
        // cached entry: the sweep must observe the tier exactly — zero
        // staleness survives a reshard/failover epoch.
        local.bump_epoch();
        for k in 0..KEYS {
            let key = key_name(k);
            prop_assert_eq!(
                cache.get(&key).unwrap(),
                model.current.get(&key).cloned(),
                "post-epoch sweep must match the tier for {}",
                key
            );
        }
    }
}
