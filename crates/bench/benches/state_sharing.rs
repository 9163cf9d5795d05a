//! Ablation: zero-copy shared regions vs copy-based state access (§3.3).
//!
//! The paper's core claim: co-located functions should *share* state memory
//! rather than copy it. Compares reading a 64 KiB value through a mapped
//! shared region against fetching a private copy from the global tier.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use faasm_kvs::{KvBackend, KvClient, KvServer, KvStore};
use faasm_mem::{LinearMemory, SharedRegion, PAGE_SIZE};
use faasm_net::Fabric;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_sharing");

    // Zero-copy: region mapped into a linear memory once, then read.
    let region = SharedRegion::from_bytes(&vec![7u8; PAGE_SIZE]);
    let mut mem = LinearMemory::new(1, 8).unwrap();
    let base = mem.map_shared(&region).unwrap();
    group.bench_function("shared_region_read_64k", |b| {
        let mut buf = vec![0u8; PAGE_SIZE];
        b.iter(|| {
            mem.read(base, &mut buf).unwrap();
            std::hint::black_box(buf[123])
        })
    });

    // Copy path: the container model — fetch the whole value from the
    // global tier over the fabric into a private copy (what every container
    // replica pays per cold access; co-located Faaslets pay it once).
    let store = Arc::new(KvStore::new());
    store.set("k", vec![7u8; PAGE_SIZE]);
    let fabric = Fabric::new();
    let server = KvServer::start_with_store(fabric.add_host(), 2, store);
    let kv = KvClient::connect(fabric.add_host(), server.host_id());
    group.bench_function("kv_fetch_copy_64k_over_fabric", |b| {
        b.iter(|| std::hint::black_box(kv.get("k").unwrap().unwrap()))
    });

    // Mapping cost itself (amortised once per Faaslet).
    group.bench_function("map_shared_region", |b| {
        b.iter(|| {
            let mut m = LinearMemory::new(1, 8).unwrap();
            std::hint::black_box(m.map_shared(&region).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
