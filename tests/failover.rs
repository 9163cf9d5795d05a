//! Failover of the replicated state tier, end to end: a primary shard is
//! killed mid-write-storm and the tier promotes its backups without losing
//! a single acknowledged write, without dropping a lock owner and with a
//! sub-second blackout for the dead slot's keys.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::core::{Cluster, ClusterConfig, UploadOptions};
use faasm::kvs::{KvBackend, LockMode, ShardedKvClient, SharedKv};

mod common;

/// Keys the chained counter workload increments.
const COUNTER_KEYS: usize = 8;

/// Block until `counter` reaches `target` — the progress a phase of the
/// workload needs — failing after 10 s of real time.
fn wait_for(counter: &AtomicU64, target: u64, what: &str) {
    let t0 = std::time::Instant::now();
    while counter.load(Ordering::Relaxed) < target {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "{what}: {} of {target}",
            counter.load(Ordering::Relaxed)
        );
        std::thread::yield_now();
    }
}

/// Kill a primary shard while driver writes and chained lock-protected
/// increments are in flight at replication factor 2. The liveness monitor
/// must detect the dead slot and drive the failover epoch on its own; the
/// tier must lose nothing it acknowledged.
#[test]
fn killing_a_primary_mid_write_storm_loses_no_acked_writes() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 2,
        state_shards: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    }));
    // The canonical stateful guest: increment a cross-host counter under
    // the global write lock. Every failover failure mode surfaces here — a
    // lost value, a lost lock owner, a stale read off a promoted backup.
    let options = UploadOptions::default();
    cluster
        .upload_fl("ha", "bump", common::BUMP, options)
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));

    // Driver-side write storm: every `set` that returns Ok is an
    // acknowledged write — quorum-replicated, so the kill must not lose it.
    let acked = Arc::new(AtomicU64::new(0));
    let writer = {
        let kv: SharedKv = Arc::clone(cluster.kv());
        let stop = Arc::clone(&stop);
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                kv.set(&format!("storm:{n}"), n.to_le_bytes().to_vec())
                    .expect("acknowledged write");
                acked.store(n + 1, Ordering::Relaxed);
                n += 1;
            }
        })
    };

    // Chained counter workload: each worker owns a disjoint key set so the
    // expected counts stay exact (the write lock is re-entrant per owner
    // token — see reshard_live.rs for the full rationale).
    let calls = Arc::new(AtomicU64::new(0));
    let callers: Vec<_> = (0..2)
        .map(|worker: u32| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                let mut successes = vec![0u64; COUNTER_KEYS];
                let mut turn = worker;
                while !stop.load(Ordering::Relaxed) {
                    let idx = (turn * 2 + worker) % COUNTER_KEYS as u32;
                    turn += 1;
                    let r = cluster.invoke("ha", "bump", format!("chain:{idx}").into_bytes());
                    assert_eq!(
                        r.return_code(),
                        0,
                        "chained call must survive failover: {:?}",
                        r.status
                    );
                    successes[idx as usize] += 1;
                    calls.fetch_add(1, Ordering::Relaxed);
                }
                successes
            })
        })
        .collect();

    // Warm up, then kill a slot abruptly. Nothing updates the routing
    // table here — detection is the liveness monitor's job.
    wait_for(&acked, 100, "warm-up writes");
    wait_for(&calls, 20, "warm-up calls");
    let victim = 1usize;
    let table = cluster.state_routing().load();
    let blackout_key = (0..10_000)
        .map(|i| format!("blackout:{i}"))
        .find(|k| table.primary_for(k) == victim)
        .expect("some key is primaried on the victim slot");
    drop(table);
    // The blackout the tier's keys observe runs from the kill's start (a
    // stall inside the kill counts) until a write primaried on the dead
    // slot, parked until the failover epoch publishes, lands.
    let t0 = Instant::now();
    cluster.kill_state_shard(victim);
    cluster
        .kv()
        .set(&blackout_key, b"survived".to_vec())
        .expect("write must succeed once the backup is promoted");
    let blackout = t0.elapsed();
    assert!(
        blackout < Duration::from_secs(1),
        "failover blackout {blackout:?} must stay sub-second"
    );

    // The monitor tombstoned the slot at a bumped epoch.
    let table = cluster.state_routing().load();
    assert!(table.dead.contains(&victim), "victim slot tombstoned");
    assert!(table.epoch >= 2, "failover bumps the epoch");
    assert_eq!(cluster.state_shard_count(), 2);
    drop(table);

    // Let the storm run on the promoted tier, then stop and audit.
    let (acked_then, calls_then) = (acked.load(Ordering::Relaxed), calls.load(Ordering::Relaxed));
    wait_for(&acked, acked_then + 100, "writes on the promoted tier");
    wait_for(&calls, calls_then + 20, "calls on the promoted tier");
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let mut successes = [0u64; COUNTER_KEYS];
    for caller in callers {
        for (idx, n) in caller.join().unwrap().into_iter().enumerate() {
            successes[idx] += n;
        }
    }

    // Every acknowledged driver write survived the kill with its value.
    let total_acked = acked.load(Ordering::Relaxed);
    assert!(total_acked > 0, "the writer made progress");
    for n in 0..total_acked {
        assert_eq!(
            cluster.kv().get(&format!("storm:{n}")).unwrap(),
            Some(n.to_le_bytes().to_vec()),
            "acked write storm:{n} lost across failover"
        );
    }
    assert_eq!(
        cluster.kv().get(&blackout_key).unwrap(),
        Some(b"survived".to_vec())
    );

    // Every successful lock-protected increment is in the counters: the
    // promoted backups inherited both the values and the lock state, so
    // the counts are exact, not merely bounded.
    for (idx, expect) in successes.iter().enumerate() {
        assert!(*expect > 0, "workload exercised counter {idx}");
        let global = cluster
            .kv()
            .get(&format!("chain:{idx}"))
            .unwrap()
            .unwrap_or_else(|| panic!("counter chain:{idx} vanished"));
        let v = u64::from_le_bytes(global[..8].try_into().unwrap());
        assert_eq!(
            v, *expect,
            "counter chain:{idx}: {v} increments survived, {expect} acknowledged"
        );
    }

    // The survivors report the promotion in their stats.
    let stats = cluster.state_shard_stats().unwrap();
    assert!(
        stats.iter().map(|s| s.promotions).sum::<u64>() >= 1,
        "a survivor must have recorded the promotion"
    );
    assert!(
        stats.iter().all(|s| s.replication == 2),
        "the tier still reports replication factor 2"
    );
}

/// A global write lock taken before a planned failover is still its
/// owner's lock afterwards: the backup inherited the lock state from the
/// quorum-replicated forwards, so promotion changes the serving slot but
/// not the owner, and a counter on the same slot keeps its value.
#[test]
fn lock_owner_and_counter_survive_primary_failover() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 1,
        state_shards: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    }));
    let cell = Arc::clone(cluster.state_routing());
    let alice = ShardedKvClient::connect(cluster.add_fabric_host(), Arc::clone(&cell));
    let bob = ShardedKvClient::connect(cluster.add_fabric_host(), Arc::clone(&cell));

    // A lock key and a counter key both primaried on the victim slot.
    let table = cell.load();
    let victim = 0usize;
    let lock_key = (0..10_000)
        .map(|i| format!("lock:{i}"))
        .find(|k| table.primary_for(k) == victim)
        .expect("some lock key on the victim");
    let ctr_key = (0..10_000)
        .map(|i| format!("ctr:{i}"))
        .find(|k| table.primary_for(k) == victim)
        .expect("some counter key on the victim");
    drop(table);

    alice.lock(&lock_key, LockMode::Write).unwrap();
    assert_eq!(alice.incr(&ctr_key, 5).unwrap(), 5);
    assert!(
        !bob.try_lock(&lock_key, LockMode::Write).unwrap(),
        "the lock is held before failover"
    );

    // Planned failover of the victim slot (the server stays up; routing
    // simply stops using it — the liveness monitor sees it alive and does
    // not interfere).
    let table = cluster.fail_over_state_shard(victim).unwrap();
    assert!(table.dead.contains(&victim));
    let promoted = table.primary_for(&lock_key);
    assert_ne!(promoted, victim, "the key moved off the dead slot");

    // The promoted backup serves the same lock owner and counter value.
    assert!(
        !bob.try_lock(&lock_key, LockMode::Write).unwrap(),
        "the promoted backup must still hold the lock for its owner"
    );
    assert_eq!(
        alice.incr(&ctr_key, 1).unwrap(),
        6,
        "counter value must survive promotion"
    );
    alice.unlock(&lock_key, LockMode::Write).unwrap();
    assert!(
        bob.try_lock(&lock_key, LockMode::Write).unwrap(),
        "the owner's unlock frees the lock on the promoted backup"
    );
    bob.unlock(&lock_key, LockMode::Write).unwrap();
}

/// Retiring a shard from a replicated tier is migration-free: the live
/// slots' backups already hold everything, so `remove_state_shard` shrinks
/// the tier with every key still readable.
#[test]
fn retiring_a_shard_under_replication_keeps_every_key() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 1,
        state_shards: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    }));
    for i in 0..256u32 {
        cluster
            .kv()
            .set(&format!("ds:{i}"), i.to_le_bytes().to_vec())
            .unwrap();
    }
    assert_eq!(cluster.remove_state_shard().unwrap(), 2);
    for i in 0..256u32 {
        assert_eq!(
            cluster.kv().get(&format!("ds:{i}")).unwrap(),
            Some(i.to_le_bytes().to_vec()),
            "ds:{i} after replicated retire"
        );
    }
    // And the tier can still grow back under replication.
    assert_eq!(cluster.add_state_shard().unwrap(), 3);
    for i in 0..256u32 {
        assert_eq!(
            cluster.kv().get(&format!("ds:{i}")).unwrap(),
            Some(i.to_le_bytes().to_vec()),
            "ds:{i} after growing the replicated tier back"
        );
    }
}
