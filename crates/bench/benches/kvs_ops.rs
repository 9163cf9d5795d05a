//! Global-tier operation costs, local transport vs over the fabric
//! (every byte of the remote path is counted by the traffic accounting).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use faasm_kvs::{KvBackend, KvClient, KvServer, KvStore};
use faasm_net::Fabric;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvs_ops");

    let local = KvClient::local(Arc::new(KvStore::new()));
    local.set("k", vec![1u8; 1024]).unwrap();
    group.bench_function("local_get_1k", |b| {
        b.iter(|| std::hint::black_box(local.get("k").unwrap()))
    });
    group.bench_function("local_set_range_64", |b| {
        b.iter(|| local.set_range("k", 512, vec![9u8; 64]).unwrap())
    });
    group.bench_function("local_incr", |b| {
        b.iter(|| std::hint::black_box(local.incr("n", 1).unwrap()))
    });

    let fabric = Fabric::new();
    let server = KvServer::start(fabric.add_host(), 2);
    let remote = KvClient::connect(fabric.add_host(), server.host_id());
    remote.set("k", vec![1u8; 1024]).unwrap();
    group.bench_function("remote_get_1k", |b| {
        b.iter(|| std::hint::black_box(remote.get("k").unwrap()))
    });
    group.bench_function("remote_incr", |b| {
        b.iter(|| std::hint::black_box(remote.incr("n", 1).unwrap()))
    });
    group.bench_function("remote_lock_unlock", |b| {
        b.iter(|| {
            remote.lock("lk", faasm_kvs::LockMode::Write).unwrap();
            remote.unlock("lk", faasm_kvs::LockMode::Write).unwrap();
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
