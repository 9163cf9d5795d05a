//! Global-tier state throughput: chunk batching and shard scaling.
//!
//! Two experiments against live `KvServer`s on the fabric:
//!
//! 1. **Chunk batching** — pull/push of a 64-chunk value through the
//!    seed's per-chunk protocol (one `GetRange`/`SetRange` round-trip plus
//!    one region copy per chunk) versus the batched
//!    `MultiGetRange`/`MultiSetRange` path `StateEntry` now uses (one
//!    round-trip per flush). 4 KiB chunks, so the per-request overhead
//!    batching removes is visible against the in-process fabric's
//!    microsecond RPCs; `modelled_*` fields restate the same message and
//!    byte counts as wire time on the paper's 1 Gbps / 100 µs testbed
//!    links, where the 64:1 round-trip ratio dominates.
//! 2. **Shard scaling** — aggregate pull/push throughput of 8 concurrent
//!    workers against 1, 2 and 4 state shards. Each shard server's NIC is
//!    token-bucket shaped (the paper's testbed runs the tier on 1 Gbps
//!    links, so a shard's NIC — not this machine's CPU — is the contended
//!    resource); keys are chosen so every shard owns an equal share.
//!
//! Run with `cargo bench --bench state_throughput`; a full run snapshots
//! `BENCH_state.json` at the repo root. Under `--test` it runs a tiny
//! smoke pass and writes nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_core::{Cluster, ClusterConfig};
use faasm_kvs::{
    reshard, KvBackend, KvClient, KvServer, KvStore, RoutingCell, RoutingTable, ShardRouting,
    ShardedKvClient,
};
use faasm_mem::SharedRegion;
use faasm_net::{Fabric, HostId, TokenBucket};
use faasm_state::StateEntry;

/// Shard-scaling series: the default 16 KiB chunks.
const CHUNK: usize = 16 * 1024;
const CHUNKS: usize = 64;
const VALUE: usize = CHUNK * CHUNKS;

/// Chunk-batching series: 64 chunks of 4 KiB.
const BATCH_CHUNK: usize = 4 * 1024;
const BATCH_VALUE: usize = BATCH_CHUNK * CHUNKS;

/// Shard-scaling parameters: per-shard NIC rate and worker threads.
const SHARD_NIC_BYTES_PER_SEC: u64 = 24 * 1024 * 1024;
const SHARD_NIC_BURST: u64 = 512 * 1024;
const WORKERS: usize = 8;

struct Tier {
    fabric: Fabric,
    servers: Vec<KvServer>,
}

impl Tier {
    fn start(shards: usize, shaped: bool) -> Tier {
        let fabric = Fabric::new();
        let servers = (0..shards)
            .map(|_| {
                let shaping = shaped
                    .then(|| Arc::new(TokenBucket::new(SHARD_NIC_BYTES_PER_SEC, SHARD_NIC_BURST)));
                KvServer::start_shaped(fabric.add_host(), 2, Arc::new(KvStore::new()), shaping)
            })
            .collect();
        Tier { fabric, servers }
    }

    fn hosts(&self) -> Vec<HostId> {
        self.servers.iter().map(KvServer::host_id).collect()
    }

    fn client(&self) -> Arc<ShardedKvClient> {
        let nic = self.fabric.add_host();
        Arc::new(ShardedKvClient::new(
            self.hosts()
                .iter()
                .map(|h| KvClient::connect(nic.clone(), *h))
                .collect(),
        ))
    }
}

/// Keys that spread `per_shard` keys onto each of `shards` shards
/// (rendezvous routing is a pure function of key and shard count, so no
/// live clients are needed to probe placement).
fn balanced_keys(shards: usize, per_shard: usize) -> Vec<String> {
    let mut per = vec![0usize; shards];
    let mut keys = Vec::new();
    let mut i = 0usize;
    while keys.len() < shards * per_shard {
        let key = format!("st:k{i}");
        let owner = ShardedKvClient::shard_index_for(&key, shards);
        if per[owner] < per_shard {
            per[owner] += 1;
            keys.push(key);
        }
        i += 1;
    }
    keys
}

struct BatchPoint {
    per_chunk_ms: f64,
    batched_ms: f64,
    speedup: f64,
}

/// Time `iters` runs of `op` after a short warmup, returning the median
/// milliseconds per run (robust against scheduler spikes on a shared box).
fn time_ms(iters: usize, op: impl FnMut()) -> f64 {
    time_ms_with_setup(iters, || {}, op)
}

/// [`time_ms`] with an untimed per-iteration `setup` step run before each
/// timed `op` (and before each warmup run).
fn time_ms_with_setup(iters: usize, mut setup: impl FnMut(), mut op: impl FnMut()) -> f64 {
    for _ in 0..3 {
        setup();
        op();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            setup();
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Chunk batching: the seed's per-chunk protocol (one RPC and one region
/// copy per chunk) vs one batched round-trip, same server, same bytes.
fn bench_batching(iters: usize) -> (BatchPoint, BatchPoint) {
    let tier = Tier::start(1, false);
    let kv = tier.client();
    kv.set("batch:k", vec![7u8; BATCH_VALUE]).unwrap();
    let entry = StateEntry::new(
        "batch:k",
        BATCH_VALUE,
        SharedRegion::new(BATCH_VALUE),
        Arc::clone(&kv) as faasm_kvs::SharedKv,
        BATCH_CHUNK,
    )
    .unwrap();
    let region = SharedRegion::new(BATCH_VALUE);

    // Pull: the seed protocol fetched every chunk with its own RPC and
    // copied it into the replica region chunk by chunk.
    let per_chunk_pull = time_ms(iters, || {
        for c in 0..CHUNKS {
            let data = kv
                .get_range("batch:k", (c * BATCH_CHUNK) as u64, BATCH_CHUNK as u64)
                .unwrap()
                .unwrap();
            region.write(c * BATCH_CHUNK, &data).unwrap();
        }
    });
    let batched_pull = time_ms(iters, || {
        entry.invalidate();
        entry.pull().unwrap();
    });

    // Push: all chunks dirty — per-chunk region read + SetRange, vs one
    // MultiSetRange. Only the flush is timed; the application's region
    // write that dirties the replica is identical in both protocols.
    let buf = vec![9u8; BATCH_VALUE];
    region.write(0, &buf).unwrap();
    let per_chunk_push = time_ms(iters, || {
        for c in 0..CHUNKS {
            let mut b = vec![0u8; BATCH_CHUNK];
            region.read(c * BATCH_CHUNK, &mut b).unwrap();
            kv.set_range("batch:k", (c * BATCH_CHUNK) as u64, b)
                .unwrap();
        }
    });
    let batched_push = time_ms_with_setup(
        iters,
        || entry.write(0, &buf).unwrap(),
        || entry.push().unwrap(),
    );

    (
        BatchPoint {
            per_chunk_ms: per_chunk_pull,
            batched_ms: batched_pull,
            speedup: per_chunk_pull / batched_pull,
        },
        BatchPoint {
            per_chunk_ms: per_chunk_push,
            batched_ms: batched_push,
            speedup: per_chunk_push / batched_push,
        },
    )
}

#[derive(Clone, Copy)]
enum Op {
    Pull,
    Push,
}

struct ScalePoint {
    shards: usize,
    pull_mbps: f64,
    push_mbps: f64,
}

/// Aggregate MB/s of `WORKERS` concurrent workers for `secs` wall seconds.
fn drive_shards(tier: &Tier, keys: &[String], op: Op, secs: f64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let bytes = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = keys
        .iter()
        .map(|key| {
            let kv = tier.client();
            let key = key.clone();
            let stop = Arc::clone(&stop);
            let bytes = Arc::clone(&bytes);
            std::thread::spawn(move || {
                let entry = StateEntry::new(
                    &key,
                    VALUE,
                    SharedRegion::new(VALUE),
                    Arc::clone(&kv) as faasm_kvs::SharedKv,
                    CHUNK,
                )
                .unwrap();
                let buf = vec![3u8; VALUE];
                while !stop.load(Ordering::Relaxed) {
                    match op {
                        Op::Pull => {
                            entry.invalidate();
                            entry.pull().unwrap();
                        }
                        Op::Push => {
                            entry.write(0, &buf).unwrap();
                            entry.push().unwrap();
                        }
                    }
                    bytes.fetch_add(VALUE as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    bytes.load(Ordering::Relaxed) as f64 / elapsed / (1024.0 * 1024.0)
}

struct ReshardPoint {
    before_mbps: f64,
    during_mbps: f64,
    after_mbps: f64,
    min_window_mbps: f64,
    migration_ms: f64,
}

/// Live reshard under load: 6 workers keep pushing 1 MiB values through
/// cell-connected clients while a third shard joins the 2-shard tier.
/// Throughput is sampled in 25 ms windows; the series records the rate
/// before / during / after the migration and the worst single window
/// (which must stay above zero — service never fully stops).
fn bench_reshard(secs: f64) -> ReshardPoint {
    const RESHARD_WORKERS: usize = 6;
    let fabric = Fabric::new();
    let servers: Vec<KvServer> = (0..2)
        .map(|i| {
            KvServer::start_routed(
                fabric.add_host(),
                2,
                Arc::new(KvStore::new()),
                ShardRouting::new(1, 2, i),
            )
        })
        .collect();
    let cell = RoutingCell::new(RoutingTable::new(
        1,
        servers.iter().map(KvServer::host_id).collect(),
    ));
    let keys = balanced_keys(2, RESHARD_WORKERS / 2);
    let driver = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
    for key in &keys {
        driver.set(key, vec![7u8; VALUE]).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let bytes = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = keys
        .iter()
        .map(|key| {
            let kv = Arc::new(ShardedKvClient::connect(
                fabric.add_host(),
                Arc::clone(&cell),
            ));
            let key = key.clone();
            let stop = Arc::clone(&stop);
            let bytes = Arc::clone(&bytes);
            std::thread::spawn(move || {
                let entry = StateEntry::new(
                    &key,
                    VALUE,
                    SharedRegion::new(VALUE),
                    kv as faasm_kvs::SharedKv,
                    CHUNK,
                )
                .unwrap();
                let buf = vec![3u8; VALUE];
                while !stop.load(Ordering::Relaxed) {
                    entry.write(0, &buf).unwrap();
                    entry.push().unwrap();
                    bytes.fetch_add(VALUE as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Sample cumulative bytes every 25 ms for the whole run.
    let sampling = Arc::new(AtomicBool::new(true));
    let samples: Arc<std::sync::Mutex<Vec<(Instant, u64)>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let sampler = {
        let sampling = Arc::clone(&sampling);
        let samples = Arc::clone(&samples);
        let bytes = Arc::clone(&bytes);
        std::thread::spawn(move || {
            while sampling.load(Ordering::Relaxed) {
                samples
                    .lock()
                    .unwrap()
                    .push((Instant::now(), bytes.load(Ordering::Relaxed)));
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    std::thread::sleep(Duration::from_secs_f64(secs));
    let grow_start = Instant::now();
    let joiner = KvServer::start_routed(
        fabric.add_host(),
        2,
        Arc::new(KvStore::new()),
        ShardRouting::new(2, 3, 2),
    );
    reshard::grow(&fabric.add_host(), &cell, joiner.host_id()).unwrap();
    let grow_end = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(secs));

    sampling.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }

    // Classify the sampled windows by their overlap with the migration.
    let samples = samples.lock().unwrap();
    let mut phase_bytes = [0u64; 3];
    let mut phase_secs = [0f64; 3];
    let mut min_window_mbps = f64::INFINITY;
    for pair in samples.windows(2) {
        let (t0, b0) = pair[0];
        let (t1, b1) = pair[1];
        let dur = t1.duration_since(t0).as_secs_f64();
        if dur <= 0.0 {
            continue;
        }
        let phase = if t1 <= grow_start {
            0
        } else if t0 < grow_end {
            1
        } else {
            2
        };
        phase_bytes[phase] += b1 - b0;
        phase_secs[phase] += dur;
        let mbps = (b1 - b0) as f64 / dur / (1024.0 * 1024.0);
        min_window_mbps = min_window_mbps.min(mbps);
    }
    let rate = |p: usize| {
        if phase_secs[p] > 0.0 {
            phase_bytes[p] as f64 / phase_secs[p] / (1024.0 * 1024.0)
        } else {
            0.0
        }
    };
    ReshardPoint {
        before_mbps: rate(0),
        during_mbps: rate(1),
        after_mbps: rate(2),
        min_window_mbps,
        migration_ms: grow_end.duration_since(grow_start).as_secs_f64() * 1e3,
    }
}

struct ReplPoint {
    replication: usize,
    set_ms: f64,
    sets_per_sec: f64,
}

/// The write cost of quorum replication: median driver `set` latency on a
/// 3-shard tier at a given replication factor. An R=2 write pays one
/// synchronous forward (export + RPC to the backup's replica NIC) inside
/// the acknowledgement path; R=1 is the single-owner tier unchanged.
fn bench_replicated_write(iters: usize, replication: usize) -> ReplPoint {
    const SETS_PER_ITER: usize = 32;
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 1,
        state_shards: 3,
        replication_factor: replication,
        ..ClusterConfig::default()
    });
    let value = vec![5u8; 16 * 1024];
    let iter_ms = time_ms(iters, || {
        for i in 0..SETS_PER_ITER {
            cluster.kv().set(&format!("rw:{i}"), value.clone()).unwrap();
        }
    });
    cluster.shutdown();
    let set_ms = iter_ms / SETS_PER_ITER as f64;
    ReplPoint {
        replication,
        set_ms,
        sets_per_sec: 1e3 / set_ms,
    }
}

struct FailoverPoint {
    blackout_ms: f64,
    acked_writes: u64,
    lost_writes: u64,
    promotions: u64,
}

/// Failover blackout under a write storm: 4 writers hammer an R=2 tier,
/// a primary slot is killed abruptly, and the liveness monitor drives the
/// failover epoch. The blackout is the wall time a write primaried on the
/// dead slot waits between the kill and the promoted backup serving it;
/// every acknowledged write is audited afterwards (`lost_writes` must be
/// zero — that is the replication invariant, not a performance number).
fn bench_failover(secs: f64) -> FailoverPoint {
    const FO_WORKERS: usize = 4;
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 1,
        state_shards: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..FO_WORKERS)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    cluster
                        .kv()
                        .set(&format!("fo:{w}:{n}"), n.to_le_bytes().to_vec())
                        .expect("acknowledged write");
                    n += 1;
                }
                n
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs_f64(secs));
    let victim = 1usize;
    let table = cluster.state_routing().load();
    let blackout_key = (0..10_000)
        .map(|i| format!("fo:blackout:{i}"))
        .find(|k| table.primary_for(k) == victim)
        .expect("some key is primaried on the victim");
    drop(table);
    cluster.kill_state_shard(victim);
    // Detection (liveness monitor) + failover epoch + promotion, measured
    // as the wait of one write that can only be served by the new primary.
    let t0 = Instant::now();
    cluster
        .kv()
        .set(&blackout_key, b"post-failover".to_vec())
        .expect("write lands on the promoted backup");
    let blackout_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);

    let per_worker: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    let acked_writes: u64 = per_worker.iter().sum();
    let mut lost_writes = 0u64;
    for (w, &acked) in per_worker.iter().enumerate() {
        for n in 0..acked {
            let got = cluster.kv().get(&format!("fo:{w}:{n}")).unwrap();
            if got != Some(n.to_le_bytes().to_vec()) {
                lost_writes += 1;
            }
        }
    }
    let promotions = cluster.telemetry().get("state-shard", "promotions");
    cluster.shutdown();
    FailoverPoint {
        blackout_ms,
        acked_writes,
        lost_writes,
        promotions,
    }
}

struct CachePoint {
    uncached_reads_per_sec: f64,
    cached_reads_per_sec: f64,
    speedup: f64,
    hit_rate: f64,
    uncached_p50_us: f64,
    uncached_p99_us: f64,
    cached_p50_us: f64,
    cached_p99_us: f64,
}

/// Zipfian read storm through the function-side cache vs the bare sharded
/// client: same tier, same keys, same access sequence. The cache serves
/// leased snapshots of the hot head of the distribution, so nearly every
/// read skips the wire; the uncached client pays a full RPC per read.
fn bench_cached_zipfian(secs: f64) -> CachePoint {
    const ZIPF_KEYS: usize = 64;
    const ZIPF_VALUE: usize = 4 * 1024;

    let tier = Tier::start(2, false);
    let kv = tier.client();
    let keys: Vec<String> = (0..ZIPF_KEYS).map(|i| format!("zipf:{i}")).collect();
    for key in &keys {
        kv.set(key, vec![5u8; ZIPF_VALUE]).unwrap();
    }
    // Zipf(1.1) cumulative weights and a deterministic xorshift mixer so
    // both runs replay the identical access sequence.
    let mut cum = Vec::with_capacity(ZIPF_KEYS);
    let mut acc = 0.0f64;
    for rank in 0..ZIPF_KEYS {
        acc += 1.0 / ((rank + 1) as f64).powf(1.1);
        cum.push(acc);
    }
    let pick = |seed: &mut u64| -> usize {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let u = (*seed >> 11) as f64 / (1u64 << 53) as f64 * acc;
        cum.iter().position(|c| *c >= u).unwrap_or(ZIPF_KEYS - 1)
    };

    let storm = |reader: &dyn KvBackend| -> (f64, f64, f64) {
        let mut seed = 0x5eed_0123_4567_u64;
        let mut lat_us: Vec<f64> = Vec::with_capacity(1 << 16);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            let key = &keys[pick(&mut seed)];
            let t = Instant::now();
            let got = reader.get(key).unwrap();
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(got.is_some(), "seeded key must be present");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        lat_us.sort_by(f64::total_cmp);
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
        (lat_us.len() as f64 / elapsed, pct(0.50), pct(0.99))
    };

    let (uncached_rps, u_p50, u_p99) = storm(kv.as_ref());
    let cache = faasm_kvs::CachedKv::new(
        Arc::clone(&kv) as faasm_kvs::SharedKv,
        faasm_kvs::CacheConfig::default(),
    );
    let (cached_rps, c_p50, c_p99) = storm(&cache);

    CachePoint {
        uncached_reads_per_sec: uncached_rps,
        cached_reads_per_sec: cached_rps,
        speedup: cached_rps / uncached_rps,
        hit_rate: cache.stats().hit_rate(),
        uncached_p50_us: u_p50,
        uncached_p99_us: u_p99,
        cached_p50_us: c_p50,
        cached_p99_us: c_p99,
    }
}

fn bench_shards(shards: usize, secs: f64) -> ScalePoint {
    let tier = Tier::start(shards, true);
    // The same 8 workers at every shard count, balanced over the shards.
    let keys = balanced_keys(shards, WORKERS / shards);
    let driver = tier.client();
    for key in &keys {
        driver.set(key, vec![7u8; VALUE]).unwrap();
    }
    let pull_mbps = drive_shards(&tier, &keys, Op::Pull, secs);
    let push_mbps = drive_shards(&tier, &keys, Op::Push, secs);
    ScalePoint {
        shards,
        pull_mbps,
        push_mbps,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (iters, secs) = if test_mode { (2, 0.2) } else { (20, 1.5) };

    println!("== chunk batching ({CHUNKS} x {BATCH_CHUNK} B chunks, 1 shard, unshaped) ==");
    let (pull, push) = bench_batching(iters);
    println!(
        "pull: per-chunk {:.3} ms, batched {:.3} ms ({:.1}x)",
        pull.per_chunk_ms, pull.batched_ms, pull.speedup
    );
    println!(
        "push: per-chunk {:.3} ms, batched {:.3} ms ({:.1}x)",
        push.per_chunk_ms, push.batched_ms, push.speedup
    );
    // The same message/byte counts restated on the paper's testbed links:
    // 64 round-trips (128 one-way messages) vs one.
    let model = faasm_net::NetModel::default();
    let modelled_per_chunk = model.batch_time(2 * CHUNKS as u64, BATCH_VALUE as u64);
    let modelled_batched = model.batch_time(2, BATCH_VALUE as u64);
    println!(
        "modelled wire time (1 Gbps, 100 us latency): per-chunk {:.2} ms, batched {:.2} ms ({:.0}x)",
        modelled_per_chunk.as_secs_f64() * 1e3,
        modelled_batched.as_secs_f64() * 1e3,
        modelled_per_chunk.as_secs_f64() / modelled_batched.as_secs_f64()
    );

    println!(
        "\n== shard scaling ({WORKERS} workers, {} MB/s NIC per shard) ==",
        SHARD_NIC_BYTES_PER_SEC / (1024 * 1024)
    );
    let mut series = Vec::new();
    for shards in [1usize, 2, 4] {
        let p = bench_shards(shards, secs);
        println!(
            "{} shard(s): pull {:.1} MB/s, push {:.1} MB/s aggregate",
            p.shards, p.pull_mbps, p.push_mbps
        );
        series.push(p);
    }
    let pull_scaling = series[2].pull_mbps / series[0].pull_mbps;
    let push_scaling = series[2].push_mbps / series[0].push_mbps;
    println!("4-shard scaling: pull {pull_scaling:.2}x, push {push_scaling:.2}x");

    println!("\n== live reshard (6 push workers, third shard joins mid-run) ==");
    let reshard = bench_reshard(secs);
    println!(
        "throughput: before {:.1} MB/s, during {:.1} MB/s, after {:.1} MB/s",
        reshard.before_mbps, reshard.during_mbps, reshard.after_mbps
    );
    println!(
        "migration {:.1} ms; worst 25 ms window {:.1} MB/s",
        reshard.migration_ms, reshard.min_window_mbps
    );
    assert!(
        reshard.during_mbps > 0.0,
        "service must continue during a live reshard"
    );

    println!("\n== cached zipfian reads (64 x 4 KiB keys, 2 shards, zipf 1.1) ==");
    let cached = bench_cached_zipfian(secs.max(0.3));
    println!(
        "uncached: {:.0} reads/s (p50 {:.1} us, p99 {:.1} us)",
        cached.uncached_reads_per_sec, cached.uncached_p50_us, cached.uncached_p99_us
    );
    println!(
        "cached:   {:.0} reads/s (p50 {:.1} us, p99 {:.1} us), hit rate {:.1}%",
        cached.cached_reads_per_sec,
        cached.cached_p50_us,
        cached.cached_p99_us,
        cached.hit_rate * 100.0
    );
    println!("cache speedup: {:.1}x", cached.speedup);
    assert!(
        cached.hit_rate >= 0.90,
        "zipfian hit rate {:.3} must reach 90%",
        cached.hit_rate
    );
    assert!(
        cached.speedup >= 5.0,
        "cached read throughput {:.1}x must reach 5x uncached",
        cached.speedup
    );

    println!("\n== replicated writes (3 shards, driver sets of 16 KiB) ==");
    let repl: Vec<ReplPoint> = [1usize, 2]
        .iter()
        .map(|&r| {
            let p = bench_replicated_write(iters, r);
            println!(
                "R={}: {:.3} ms/set, {:.0} sets/s",
                p.replication, p.set_ms, p.sets_per_sec
            );
            p
        })
        .collect();
    let repl_overhead = repl[1].set_ms / repl[0].set_ms;
    println!("R=2 write cost: {repl_overhead:.2}x the R=1 write");

    println!("\n== failover blackout (R=2, 4 writers, primary killed mid-storm) ==");
    let failover = bench_failover(secs);
    println!(
        "blackout {:.1} ms (kill -> promoted backup serves); {} acked writes, {} lost; {} promotion(s)",
        failover.blackout_ms, failover.acked_writes, failover.lost_writes, failover.promotions
    );
    assert_eq!(
        failover.lost_writes, 0,
        "an acknowledged write must never be lost across failover"
    );

    if test_mode {
        println!("test bench state_throughput ... ok");
        return;
    }

    // Snapshot for the repo (hand-rolled JSON: the workspace is std-only).
    let mut json = String::from("{\n  \"bench\": \"state_throughput\",\n  \"chunks\": 64,\n");
    json.push_str(&format!(
        "  \"batching\": {{\n    \"chunk_bytes\": {BATCH_CHUNK},\n    \"value_bytes\": {BATCH_VALUE},\n    \"pull\": {{\"per_chunk_ms\": {:.3}, \"batched_ms\": {:.3}, \"speedup\": {:.2}}},\n    \"push\": {{\"per_chunk_ms\": {:.3}, \"batched_ms\": {:.3}, \"speedup\": {:.2}}},\n    \"modelled_wire_ms\": {{\"per_chunk\": {:.2}, \"batched\": {:.2}}}\n  }},\n",
        pull.per_chunk_ms, pull.batched_ms, pull.speedup,
        push.per_chunk_ms, push.batched_ms, push.speedup,
        modelled_per_chunk.as_secs_f64() * 1e3,
        modelled_batched.as_secs_f64() * 1e3
    ));
    json.push_str(&format!(
        "  \"shard_value_bytes\": {VALUE},\n  \"shard_chunk_bytes\": {CHUNK},\n"
    ));
    json.push_str(&format!(
        "  \"shard_scaling\": {{\n    \"workers\": {WORKERS},\n    \"shard_nic_mbps\": {},\n    \"series\": [\n",
        SHARD_NIC_BYTES_PER_SEC / (1024 * 1024)
    ));
    for (i, p) in series.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"shards\": {}, \"pull_mbps\": {:.1}, \"push_mbps\": {:.1}}}{}\n",
            p.shards,
            p.pull_mbps,
            p.push_mbps,
            if i + 1 == series.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"pull_scaling_4x\": {pull_scaling:.2},\n    \"push_scaling_4x\": {push_scaling:.2}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"reshard_live\": {{\n    \"workers\": 6,\n    \"shards\": \"2 -> 3\",\n    \"before_mbps\": {:.1},\n    \"during_mbps\": {:.1},\n    \"after_mbps\": {:.1},\n    \"min_window_mbps\": {:.1},\n    \"migration_ms\": {:.1}\n  }},\n",
        reshard.before_mbps,
        reshard.during_mbps,
        reshard.after_mbps,
        reshard.min_window_mbps,
        reshard.migration_ms
    ));
    json.push_str(&format!(
        "  \"cached_zipfian\": {{\n    \"keys\": 64,\n    \"value_bytes\": 4096,\n    \"zipf_s\": 1.1,\n    \"uncached_reads_per_sec\": {:.0},\n    \"cached_reads_per_sec\": {:.0},\n    \"speedup\": {:.1},\n    \"hit_rate\": {:.3},\n    \"uncached_p50_us\": {:.1},\n    \"uncached_p99_us\": {:.1},\n    \"cached_p50_us\": {:.1},\n    \"cached_p99_us\": {:.1}\n  }},\n",
        cached.uncached_reads_per_sec,
        cached.cached_reads_per_sec,
        cached.speedup,
        cached.hit_rate,
        cached.uncached_p50_us,
        cached.uncached_p99_us,
        cached.cached_p50_us,
        cached.cached_p99_us
    ));
    json.push_str("  \"replicated_write\": {\n    \"shards\": 3,\n    \"series\": [\n");
    for (i, p) in repl.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"replication\": {}, \"set_ms\": {:.3}, \"sets_per_sec\": {:.0}}}{}\n",
            p.replication,
            p.set_ms,
            p.sets_per_sec,
            if i + 1 == repl.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"r2_write_cost_x\": {repl_overhead:.2}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"failover_blackout\": {{\n    \"replication\": 2,\n    \"shards\": 3,\n    \"writers\": 4,\n    \"blackout_ms\": {:.1},\n    \"acked_writes\": {},\n    \"lost_writes\": {},\n    \"promotions\": {}\n  }}\n}}\n",
        failover.blackout_ms, failover.acked_writes, failover.lost_writes, failover.promotions
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_state.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nsnapshot written to BENCH_state.json"),
        Err(e) => eprintln!("\ncould not write snapshot: {e}"),
    }
}
