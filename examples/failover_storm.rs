//! Failover smoke: a write storm keeps hammering a replication-factor-2
//! state tier while a primary shard is killed abruptly; the liveness
//! monitor promotes the backups and not one acknowledged write is lost.
//!
//! Run with `cargo run --release --example failover_storm`. Exits non-zero
//! (panics) if any acknowledged write is lost, the blackout exceeds a
//! second, or the monitor fails to tombstone the dead slot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::core::{Cluster, ClusterConfig};
use faasm::kvs::SharedKv;

const WRITERS: usize = 4;

fn main() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 2,
        state_shards: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    }));
    println!(
        "cluster up: {} hosts, {} state shards at R=2 (epoch {})",
        cluster.instances().len(),
        cluster.state_shard_count(),
        cluster.state_routing().epoch(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..WRITERS as u64)
        .map(|w| {
            let kv: SharedKv = Arc::clone(cluster.kv());
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("storm:{w}:{n}");
                    kv.set(&key, n.to_le_bytes().to_vec()).expect("acked write");
                    // Probe an earlier acked key: a stale read off a
                    // not-yet-promoted backup would fail the smoke here.
                    let probe = n / 2;
                    let got = kv.get(&format!("storm:{w}:{probe}")).expect("probe");
                    assert_eq!(got, Some(probe.to_le_bytes().to_vec()), "storm:{w}:{probe}");
                    ops.fetch_add(2, Ordering::Relaxed);
                    n += 1;
                }
                n
            })
        })
        .collect();

    let window = |label: &str, dur: Duration| {
        let t0 = Instant::now();
        let before = ops.load(Ordering::Relaxed);
        std::thread::sleep(dur);
        let rate = (ops.load(Ordering::Relaxed) - before) as f64 / t0.elapsed().as_secs_f64();
        println!("{label}: {rate:.0} ops/s");
        rate
    };

    let before = window("before kill", Duration::from_millis(400));

    // Kill a slot abruptly: its fabric hosts vanish mid-storm. Nothing
    // updates the routing table here — the liveness monitor must notice.
    let victim = 1usize;
    let table = cluster.state_routing().load();
    let blackout_key = (0..10_000)
        .map(|i| format!("blackout:{i}"))
        .find(|k| table.primary_for(k) == victim)
        .expect("a key primaried on the victim");
    drop(table);
    // The blackout its keys observe, from the kill's start: one write
    // primaried on the dead slot, parked until the promoted backup serves
    // it.
    let t0 = Instant::now();
    cluster.kill_state_shard(victim);
    println!("slot {victim} killed (no routing update — monitor must detect)");
    cluster
        .kv()
        .set(&blackout_key, b"survived".to_vec())
        .expect("write lands on the promoted backup");
    let blackout = t0.elapsed();
    let table = cluster.state_routing().load();
    assert!(table.dead.contains(&victim), "monitor tombstoned the slot");
    println!(
        "failover blackout {:.1} ms: epoch {} with {} live slots",
        blackout.as_secs_f64() * 1e3,
        table.epoch,
        table.live_count(),
    );
    assert!(
        blackout < Duration::from_secs(1),
        "blackout must stay sub-second, took {blackout:?}"
    );
    drop(table);

    let after = window("after promotion", Duration::from_millis(400));

    stop.store(true, Ordering::Relaxed);
    let written: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    // Full scan: every acknowledged write of every writer, exact value.
    for (w, n) in written.iter().enumerate() {
        for i in 0..*n {
            let got = cluster.kv().get(&format!("storm:{w}:{i}")).expect("scan");
            assert_eq!(got, Some(i.to_le_bytes().to_vec()), "lost storm:{w}:{i}");
        }
    }
    let total: u64 = written.iter().sum();
    let promotions = cluster.telemetry().get("state-shard", "promotions");
    assert!(promotions >= 1, "survivors must report the promotion");
    println!(
        "OK: {total} acknowledged writes verified across the kill \
         (throughput {before:.0} → {after:.0} ops/s, {promotions} promotion installs)"
    );
}
