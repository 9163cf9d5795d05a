//! Function-side state-cache smoke: a zipfian read-heavy storm over the
//! global tier through a `CachedKv`, with a live reshard in the middle.
//!
//! Run with `cargo run --release --example cache_locality`. Exits non-zero
//! (panics) if the hit rate falls below threshold, if any read serves a
//! value other than the caller's latest acknowledged write (a staleness
//! violation — every write here goes through the cache, so reads must be
//! exact), or if the epoch bump from the reshard leaks a stale snapshot.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use faasm::core::{Cluster, ClusterConfig};
use faasm::kvs::cache::touch_scope;
use faasm::kvs::{CacheConfig, CachedKv, KvBackend, SharedKv};

/// Hot-set size for the zipfian storm.
const KEYS: usize = 64;
/// Storm length (driver operations).
const OPS: usize = 30_000;
/// Required cache hit rate over the storm.
const HIT_RATE_FLOOR: f64 = 0.90;

/// Deterministic xorshift for op mixing.
fn next_rand(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A zipf(~1.1) rank over `KEYS` keys from precomputed cumulative weights.
fn zipf_rank(cum: &[f64], u: f64) -> usize {
    let total = *cum.last().expect("non-empty");
    let x = u * total;
    cum.iter().position(|c| *c >= x).unwrap_or(KEYS - 1)
}

fn main() {
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 2,
        state_shards: 2,
        ..ClusterConfig::default()
    });
    let cache = CachedKv::new(Arc::clone(cluster.kv()) as SharedKv, CacheConfig::default());
    println!(
        "cluster up: {} hosts, {} state shards; cache budget {} bytes, lease {:?}",
        cluster.instances().len(),
        cluster.state_shard_count(),
        CacheConfig::default().max_bytes,
        faasm::kvs::LEASE,
    );

    let mut cum = Vec::with_capacity(KEYS);
    let mut acc = 0.0;
    for rank in 0..KEYS {
        acc += 1.0 / ((rank + 1) as f64).powf(1.1);
        cum.push(acc);
    }

    // Seed every key so the storm starts warm-able, and mirror the tier:
    // all writes go through this cache, so every read must be exact.
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    for i in 0..KEYS {
        let key = format!("zipf:{i}");
        let val = (i as u64).to_le_bytes().to_vec();
        cache.set(&key, val.clone()).expect("seed write");
        model.insert(key, val);
    }

    let mut rng = 0x5eed_cafe_f00d_u64;
    let mut violations = 0usize;
    let mut reads = 0usize;
    let mut writes = 0usize;
    // The storm runs on this thread, so one scope counts its cache hits per
    // key: the per-call view a worker reports to the affinity board.
    let touched = touch_scope();
    let t0 = Instant::now();
    for op in 0..OPS {
        // A state shard joins mid-storm: the routing epoch bumps and every
        // leased snapshot must revalidate instead of serving the old epoch.
        if op == OPS / 2 {
            let shards = cluster.add_state_shard().expect("live reshard");
            println!(
                "live reshard at op {op}: {shards} shards, epoch {}",
                cluster.state_routing().epoch()
            );
        }
        let r = next_rand(&mut rng);
        let key = format!(
            "zipf:{}",
            zipf_rank(&cum, (r >> 11) as f64 / (1u64 << 53) as f64)
        );
        if r.is_multiple_of(10) {
            // 10% writes: write-through keeps the snapshot current.
            let val = r.to_le_bytes().to_vec();
            cache.set(&key, val.clone()).expect("write");
            model.insert(key, val);
            writes += 1;
        } else {
            let got = cache.get(&key).expect("read");
            if got.as_ref() != model.get(&key) {
                violations += 1;
            }
            reads += 1;
        }
    }
    let elapsed = t0.elapsed();
    let hot = touched.finish();

    let stats = cache.stats();
    let hit_rate = stats.hit_rate();
    println!(
        "storm: {reads} reads + {writes} writes in {:.1} ms ({:.0} ops/s)",
        elapsed.as_secs_f64() * 1e3,
        OPS as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "cache: {} hits / {} misses (hit rate {:.1}%), {} revalidations, \
         {} invalidations, {} bytes resident",
        stats.hits,
        stats.misses,
        hit_rate * 100.0,
        stats.revalidations,
        stats.invalidations,
        cache.cached_bytes(),
    );

    // The function-side working set, as the affinity board would see it.
    let shard_count = cluster.state_shard_count();
    print!("hottest keys → owning shard:");
    for (key, n) in hot.iter().take(5) {
        print!(
            " {key}×{n}→s{}",
            faasm::kvs::shard_index_for(key, shard_count)
        );
    }
    println!();

    assert_eq!(
        violations, 0,
        "every read must serve the caller's own latest acked write"
    );
    assert!(
        hit_rate >= HIT_RATE_FLOOR,
        "zipfian hit rate {:.3} below floor {HIT_RATE_FLOOR}",
        hit_rate
    );

    // Post-reshard sweep at the tier itself (uncached): write-through left
    // the global tier exactly in sync with the model.
    for (key, val) in &model {
        let got = cluster.kv().get(key).expect("tier read");
        assert_eq!(got.as_ref(), Some(val), "tier diverged on {key}");
    }
    println!(
        "OK: zero staleness violations, hit rate {:.1}% ≥ {:.0}%, tier \
         in sync after live reshard",
        hit_rate * 100.0,
        HIT_RATE_FLOOR * 100.0
    );
}
