//! End-to-end integration tests spanning the whole workspace: cluster
//! invocation, cross-host scheduling, chaining, two-tier state and failure
//! injection.

use std::sync::Arc;

use faasm::core::{CallStatus, Cluster, ClusterConfig, EgressLimit, InstanceConfig, UploadOptions};
use faasm::gateway::{Gateway, GatewayConfig, GatewayStatus};
use faasm::workloads::data::{rcv1_like, synth_images};
use faasm::workloads::{inference, matmul, sgd};

mod common;

use common::ECHO;

#[test]
fn fl_pipeline_compiles_uploads_and_executes() {
    let cluster = Cluster::new(2);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    for i in 0..10u8 {
        let r = cluster.invoke("it", "echo", vec![i; 8]);
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, vec![i; 8]);
    }
    assert_eq!(cluster.total_calls(), 10);
    // Each call was undone in place before its Faaslet was pooled again:
    // the one 4 KiB block the echo wrote, not its 64 KiB page.
    let reset_bytes = cluster.telemetry().get("worker", "reset_bytes");
    assert_eq!(reset_bytes, 10 * faasm::mem::BLOCK_SIZE as u64);
}

#[test]
fn calls_spread_across_hosts_via_round_robin_and_warm_sets() {
    let cluster = Cluster::new(4);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    // Warm every host first: one call to generate the Proto-Faaslet, then
    // an explicit pre-warm per instance. With microsecond echo calls and
    // no warm-up, whichever host cold-starts first wins the warm set and
    // can absorb the entire burst before a second host ever cold-starts
    // (timing-dependent on a loaded machine); with all hosts warm, the
    // round-robin ingress plus warm-local placement spreads
    // deterministically.
    assert_eq!(cluster.invoke("it", "echo", vec![9]).return_code(), 0);
    for inst in cluster.instances() {
        inst.prewarm("it", "echo", 1).unwrap();
    }
    let ids: Vec<_> = (0..32u8)
        .map(|i| cluster.invoke_async("it", "echo", vec![i]))
        .collect();
    for id in ids {
        assert_eq!(cluster.await_result(id).return_code(), 0);
    }
    let per_host: Vec<u64> = cluster
        .instances()
        .iter()
        .map(|i| i.metrics().calls())
        .collect();
    assert_eq!(per_host.iter().sum::<u64>(), 33, "32 + the warm-up call");
    let active_hosts = per_host.iter().filter(|&&c| c > 0).count();
    assert!(
        active_hosts >= 2,
        "work must spread across hosts: {per_host:?}"
    );
}

#[test]
fn two_tier_state_is_consistent_across_hosts() {
    // One function pushes a value; another (likely on a different host)
    // pulls and verifies it.
    let cluster = Cluster::new(3);
    cluster
        .upload_fl(
            "it",
            "writer",
            r#"
            extern int get_state(ptr int key, int key_len, int size);
            extern void push_state(ptr int key, int key_len);
            int main() {
                ptr int k = (ptr int) 64;
                k[0] = 0x79656b; // "key"
                ptr int s = (ptr int) get_state((ptr int) 64, 3, 16);
                s[0] = 1234;
                s[1] = 5678;
                push_state((ptr int) 64, 3);
                return 0;
            }
            "#,
            UploadOptions::default(),
        )
        .unwrap();
    cluster
        .upload_fl(
            "it",
            "reader",
            r#"
            extern int get_state(ptr int key, int key_len, int size);
            extern void write_call_output(ptr int buf, int len);
            int main() {
                ptr int k = (ptr int) 64;
                k[0] = 0x79656b;
                ptr int s = (ptr int) get_state((ptr int) 64, 3, 16);
                write_call_output((ptr int) ((ptr int) s), 8);
                return 0;
            }
            "#,
            UploadOptions::default(),
        )
        .unwrap();
    assert_eq!(cluster.invoke("it", "writer", vec![]).return_code(), 0);
    // Run readers by invoking repeatedly: equally cold hosts rotate, so the
    // first reader lands off the writer's host.
    for _ in 0..6 {
        let r = cluster.invoke("it", "reader", vec![]);
        assert_eq!(r.return_code(), 0, "{:?}", r.status);
        assert_eq!(i32::from_le_bytes(r.output[0..4].try_into().unwrap()), 1234);
        assert_eq!(i32::from_le_bytes(r.output[4..8].try_into().unwrap()), 5678);
    }
}

#[test]
fn deep_chains_do_not_deadlock_small_worker_pools() {
    // A chain of depth 6 on an instance with only 2 workers: await-helping
    // must prevent deadlock.
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 1,
        instance: InstanceConfig {
            workers: 2,
            ..InstanceConfig::default()
        },
        ..ClusterConfig::default()
    });
    cluster
        .upload_fl(
            "it",
            "countdown",
            r#"
            extern int input_size();
            extern int read_call_input(ptr int buf, int len);
            extern void write_call_output(ptr int buf, int len);
            extern long chain_call(ptr int name, int name_len, ptr int in, int in_len);
            extern int await_call(long id);
            extern int get_call_output(long id, ptr int buf, int len);
            int main() {
                read_call_input((ptr int) 1024, 4);
                ptr int v = (ptr int) 1024;
                if (v[0] <= 0) {
                    write_call_output((ptr int) 1024, 4);
                    return 0;
                }
                v[0] = v[0] - 1;
                ptr int nm = (ptr int) 2048;
                nm[0] = 0x6e756f63; // "coun"
                nm[1] = 0x776f6474; // "tdow"
                nm[2] = 0x6e;       // "n"
                long id = chain_call((ptr int) 2048, 9, (ptr int) 1024, 4);
                if (await_call(id) != 0) { return -1; }
                get_call_output(id, (ptr int) 3072, 4);
                ptr int out = (ptr int) 3072;
                out[0] = out[0] + 1;
                write_call_output((ptr int) 3072, 4);
                return 0;
            }
            "#,
            UploadOptions::default(),
        )
        .unwrap();
    let r = cluster.invoke("it", "countdown", 6i32.to_le_bytes().to_vec());
    assert_eq!(r.status, CallStatus::Success, "{:?}", r.status);
    assert_eq!(i32::from_le_bytes(r.output[..4].try_into().unwrap()), 6);
}

#[test]
fn guest_traps_surface_as_errors_and_do_not_poison_the_instance() {
    let cluster = Cluster::new(1);
    cluster
        .upload_fl(
            "it",
            "div0",
            "int main() { int z = 0; return 1 / z; }",
            UploadOptions::default(),
        )
        .unwrap();
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    let r = cluster.invoke("it", "div0", vec![]);
    assert!(matches!(r.status, CallStatus::Error(_)));
    // The instance keeps serving other functions.
    let r = cluster.invoke("it", "echo", b"alive".to_vec());
    assert_eq!(r.output, b"alive");
}

#[test]
fn a_long_call_beside_an_idle_warm_faaslet_finishes() {
    // An idle Faaslet in the warm pool is not running: its frozen vruntime
    // must not hold the host's cgroup back once another call runs more than
    // the tolerance (1 << 22 fuel) past it.
    let cluster = Cluster::new(1);
    let long = "int main() { int acc = 0; \
                for (int i = 0; i < 600000; i = i + 1) { acc = acc + i; } \
                return acc == 7; }";
    cluster
        .upload_fl("it", "long", long, UploadOptions::default())
        .unwrap();
    cluster
        .upload_fl(
            "it",
            "short",
            "int main() { return 0; }",
            UploadOptions::default(),
        )
        .unwrap();
    assert_eq!(
        cluster.invoke("it", "long", vec![]).status,
        CallStatus::Success
    );
    assert_eq!(
        cluster.invoke("it", "short", vec![]).status,
        CallStatus::Success
    );
    // `short`'s Faaslet now sits warm and idle beside the one running this.
    let r = cluster.invoke("it", "long", vec![]);
    if r.status != CallStatus::Success {
        // The stuck worker would also hang the cluster's shutdown.
        std::mem::forget(cluster);
        panic!("long call beside an idle Faaslet: {:?}", r.status);
    }
}

#[test]
fn local_state_locks_die_with_the_call_that_took_them() {
    // A local lock has no lease: a call that exits holding one — by a
    // trap, or by simply returning — used to park every later toucher of
    // the key on that host until its invoke timeout.
    const LOCKS: &str = r#"
        extern void lock_state_read(ptr int key, int key_len);
        extern void lock_state_write(ptr int key, int key_len);
        extern void unlock_state_write(ptr int key, int key_len);
    "#;
    let key = "ptr int k = (ptr int) 64; k[0] = 0x6b;";
    let cluster = Cluster::new(1);
    for (name, body) in [
        // Out-of-bounds store while holding the write lock.
        (
            "trap",
            "lock_state_write(k, 1); ptr int wild = (ptr int) -8; wild[0] = 1; return 0;",
        ),
        ("leave", "lock_state_read(k, 1); return 3;"),
        (
            "touch",
            "lock_state_write(k, 1); unlock_state_write(k, 1); return 0;",
        ),
        // Unlocking what this call never locked is refused with a trap.
        ("steal", "unlock_state_write(k, 1); return 0;"),
    ] {
        let src = format!("{LOCKS} int main() {{ {key} {body} }}");
        cluster
            .upload_fl("it", name, &src, UploadOptions::default())
            .unwrap();
    }
    let r = cluster.invoke("it", "trap", vec![]);
    assert!(matches!(r.status, CallStatus::Error(_)), "{:?}", r.status);
    assert_eq!(
        cluster.invoke("it", "touch", vec![]).status,
        CallStatus::Success
    );
    assert_eq!(
        cluster.invoke("it", "leave", vec![]).status,
        CallStatus::Failed(3)
    );
    assert_eq!(
        cluster.invoke("it", "touch", vec![]).status,
        CallStatus::Success
    );
    match cluster.invoke("it", "steal", vec![]).status {
        CallStatus::Error(msg) => assert!(msg.contains("holds no such lock"), "{msg}"),
        other => panic!("an unlock without a lock must trap, got {other:?}"),
    }
}

#[test]
fn cross_host_proto_restore_via_state_tier() {
    // First call on host A generates + publishes the proto as
    // content-addressed chunks; a later call on host B must restore from
    // the tier rather than cold start.
    let cluster = Cluster::new(2);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    for i in 0..8u8 {
        assert_eq!(cluster.invoke("it", "echo", vec![i]).return_code(), 0);
    }
    let cold: u64 = cluster
        .instances()
        .iter()
        .map(|i| i.metrics().cold_starts())
        .sum();
    assert_eq!(cold, 1, "only the very first start is a full cold start");
    // The scheduler prefers warm Faaslets, so restores may be 0 or more,
    // but the manifest and every chunk it names must sit in the tier for
    // cross-host use.
    let manifest_bytes = cluster
        .kv()
        .get(&faasm::kvs::manifest_key("it", "echo"))
        .unwrap()
        .expect("manifest published to the state tier");
    let manifest = faasm::core::snapdist::ProtoManifest::from_bytes(&manifest_bytes)
        .expect("manifest decodes");
    for d in std::iter::once(&manifest.meta).chain(&manifest.pages) {
        assert_eq!(
            cluster.kv().exists(&faasm::kvs::chunk_key(d)),
            Ok(true),
            "chunk {d:?} missing from the tier"
        );
    }
}

#[test]
fn scale_up_storm_restores_warm_without_duplicate_captures() {
    // A 0→N scale-up storm (satellite of the snapshot-distribution plane):
    // one publisher call, pre-stage every other host, then barrier-release
    // concurrent calls against every host at once. The single-flight
    // resolver plus pre-staged snapshot caches must absorb the burst with
    // zero failed calls and exactly one capture cluster-wide.
    use faasm::core::ChainRouter;

    const HOSTS: usize = 4;
    const THREADS_PER_HOST: usize = 3;
    const CALLS_PER_THREAD: usize = 6;

    let cluster = std::sync::Arc::new(Cluster::new(HOSTS));
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    let r = cluster.instances()[0].invoke_local("it", "echo", vec![0]);
    assert_eq!(r.status, CallStatus::Success);
    for inst in &cluster.instances()[1..] {
        assert!(cluster.instances()[0].push_prestage("it", "echo", inst.host_id()));
    }
    for inst in &cluster.instances()[1..] {
        let t0 = std::time::Instant::now();
        while !inst.has_proto("it", "echo") && t0.elapsed() < std::time::Duration::from_secs(2) {
            std::thread::yield_now();
        }
        assert!(inst.has_proto("it", "echo"), "pre-stage never landed");
    }

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(HOSTS * THREADS_PER_HOST));
    let handles: Vec<_> = (0..HOSTS * THREADS_PER_HOST)
        .map(|t| {
            let cluster = std::sync::Arc::clone(&cluster);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let inst = std::sync::Arc::clone(&cluster.instances()[t % HOSTS]);
                barrier.wait();
                let mut failed = 0usize;
                for i in 0..CALLS_PER_THREAD {
                    let id = inst.submit_placed("it", "echo", vec![i as u8]);
                    if inst.await_call(id).status != CallStatus::Success {
                        failed += 1;
                    }
                }
                failed
            })
        })
        .collect();
    let failed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failed, 0, "storm dropped calls");

    let (mut captures, mut restores, mut warm) = (0u64, 0u64, 0u64);
    for inst in cluster.instances() {
        let m = inst.metrics();
        captures += m.cold_starts();
        restores += m.proto_restores();
        warm += m.warm_starts();
    }
    assert_eq!(captures, 1, "duplicate captures under the storm");
    let starts = captures + restores + warm;
    assert_eq!(
        starts as usize,
        HOSTS * THREADS_PER_HOST * CALLS_PER_THREAD + 1,
        "every call maps to exactly one start"
    );
    let warm_rate = (starts - captures) as f64 / starts as f64;
    assert!(
        warm_rate >= 0.9,
        "warm-restore rate {:.1}% below 90%",
        warm_rate * 100.0
    );
}

/// A function whose answer names both halves of its upload: `init` leaves
/// `state` in memory (so it reaches a call only through the snapshot), the
/// entry adds `code` (so it reaches a call only through the module).
/// `init_spins` stretches the cold start.
fn versioned(state: i32, code: i32, init_spins: u32) -> String {
    format!(
        r#"
        extern void write_call_output(ptr int buf, int len);
        void init() {{
            ptr int m = (ptr int) 2048;
            int i = 0;
            while (i < {init_spins}) {{ m[2] = m[2] + i; i = i + 1; }}
            m[0] = {state};
        }}
        int main() {{
            ptr int m = (ptr int) 2048;
            m[1] = {code};
            write_call_output((ptr int) 2048, 8);
            return 0;
        }}
    "#
    )
}

fn upload_versioned(cluster: &Cluster, state: i32, code: i32, init_spins: u32) {
    let options = UploadOptions {
        init: Some("init".into()),
    };
    cluster
        .upload_fl("it", "f", &versioned(state, code, init_spins), options)
        .unwrap();
}

/// The `(init state, code)` pair a [`versioned`] call answered with.
fn answer(r: &faasm::core::CallResult) -> (i32, i32) {
    assert_eq!(r.status, CallStatus::Success, "{:?}", r.status);
    (
        i32::from_le_bytes(r.output[..4].try_into().unwrap()),
        i32::from_le_bytes(r.output[4..8].try_into().unwrap()),
    )
}

fn call_on(inst: &Arc<faasm::core::FaasmInstance>) -> (i32, i32) {
    use faasm::core::ChainRouter;
    let id = inst.submit_placed("it", "f", Vec::new());
    answer(&inst.await_call(id))
}

#[test]
fn a_reupload_replaces_code_and_snapshot_on_the_warm_host_and_after_evict() {
    use faasm::core::{FunctionDef, GuestCode};

    // A Faaslet kept warm without a reset between calls is replaced too.
    // An upload always resets, so that guest is registered directly.
    for reset_after_call in [true, false] {
        let cluster = Cluster::new(1);
        let host = &cluster.instances()[0];
        let upload = |state, code| {
            let module = faasm::lang::compile(&versioned(state, code, 0)).unwrap();
            let def = FunctionDef {
                code: GuestCode::Fvm(faasm::fvm::ObjectModule::prepare(module).unwrap()),
                entry: "main".into(),
                init: Some("init".into()),
                reset_after_call,
            };
            cluster.register("it", "f", def).unwrap();
        };
        upload(1, 10);
        for _ in 0..2 {
            assert_eq!(answer(&cluster.invoke("it", "f", Vec::new())), (1, 10));
        }
        upload(2, 20);
        // Warm host: v1's idle Faaslet must not serve another call.
        for _ in 0..4 {
            assert_eq!(answer(&cluster.invoke("it", "f", Vec::new())), (2, 20));
        }
        // After evict the next start builds from what the host kept: that
        // must be v2's snapshot (v2's `init` ran), not v1's under v2's code.
        host.evict("it", "f");
        assert_eq!(answer(&cluster.invoke("it", "f", Vec::new())), (2, 20));
        let m = host.metrics();
        assert_eq!(m.cold_starts(), 2, "one capture per upload");
        assert_eq!(m.proto_restores(), 1, "the start after evict restored");
        assert_eq!(host.idle_warmth("it", "f"), Some(1));
    }
}

#[test]
fn a_host_that_never_ran_v1_does_not_restore_it_from_a_stale_manifest() {
    let cluster = Cluster::new(2);
    let (a, b) = (&cluster.instances()[0], &cluster.instances()[1]);
    upload_versioned(&cluster, 1, 10, 0);
    assert_eq!(call_on(a), (1, 10));
    // The tier's manifest still names v1's proto when v2 is uploaded.
    upload_versioned(&cluster, 2, 20, 0);
    assert_eq!(call_on(b), (2, 20));
    assert_eq!(
        (b.metrics().cold_starts(), b.metrics().proto_restores()),
        (1, 0),
        "a stale manifest costs one cold start"
    );
    // ...which republished: A drops its v1 record whole and restores v2
    // through the tier instead of capturing again.
    assert_eq!(call_on(a), (2, 20));
    assert_eq!(a.metrics().cold_starts(), 1);
    assert_eq!(a.metrics().proto_restores(), 1);
}

#[test]
fn a_prestage_carrying_another_uploads_manifest_is_refused() {
    use faasm::core::msg::{encode_msg, InstanceMsg};

    let cluster = Cluster::new(2);
    let (a, b) = (&cluster.instances()[0], &cluster.instances()[1]);
    upload_versioned(&cluster, 1, 10, 0);
    assert_eq!(call_on(a), (1, 10));
    let v1_manifest = cluster
        .kv()
        .get(&faasm::kvs::manifest_key("it", "f"))
        .unwrap()
        .expect("v1 published");
    upload_versioned(&cluster, 2, 20, 0);
    // The fetcher handles pushes in order, so once the second is counted
    // the first has been fetched, checked and dropped.
    for manifest in [v1_manifest, b"not a manifest".to_vec()] {
        let push = InstanceMsg::PreStage {
            user: "it".into(),
            function: "f".into(),
            manifest,
        };
        a.nic().send(b.host_id(), encode_msg(&push)).unwrap();
    }
    while b.snapshot_stats().prestages < 2 {
        std::thread::yield_now();
    }
    assert!(!b.has_proto("it", "f"), "v1's proto installed under v2");
    assert_eq!(call_on(b), (2, 20));
    // The current upload's manifest still pre-stages.
    assert_eq!(call_on(a), (2, 20));
    a.evict("it", "f");
    b.evict("it", "f");
    upload_versioned(&cluster, 3, 30, 0);
    assert_eq!(call_on(a), (3, 30));
    assert!(a.push_prestage("it", "f", b.host_id()));
    while !b.has_proto("it", "f") {
        std::thread::yield_now();
    }
    assert_eq!(call_on(b), (3, 30));
    assert_eq!(
        b.metrics().cold_starts(),
        1,
        "v3 restored from the pre-stage"
    );
}

#[test]
fn a_reupload_racing_a_capture_never_mixes_code_and_snapshot() {
    use faasm::core::{FunctionDef, GuestCode};

    const CALLS: usize = 3;
    for seed in 0..20u64 {
        let mut rng = faasm::core::rng::SplitMix64::new(seed);
        let cluster = Arc::new(Cluster::new(2));
        upload_versioned(&cluster, 1, 10, 20_000);
        // Compiled ahead, so the race is with the registration alone.
        let module = faasm::lang::compile(&versioned(2, 20, 0)).unwrap();
        let v2 = FunctionDef {
            code: GuestCode::Fvm(faasm::fvm::ObjectModule::prepare(module).unwrap()),
            entry: "main".into(),
            init: Some("init".into()),
            reset_after_call: true,
        };
        let callers = 2 + (rng.next_u64() % 5) as usize;
        let start = Arc::new(std::sync::Barrier::new(callers + 1));
        let racing: Vec<_> = (0..callers)
            .map(|_| {
                let (cluster, start) = (Arc::clone(&cluster), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    [(); CALLS].map(|()| answer(&cluster.invoke("it", "f", Vec::new())))
                })
            })
            .collect();
        start.wait();
        // Re-upload once a cold start is under way (building claims the
        // host's warmth before it instantiates), a seeded beat later.
        while cluster
            .instances()
            .iter()
            .all(|i| i.idle_warmth("it", "f").is_none())
        {
            std::thread::yield_now();
        }
        for _ in 0..rng.next_u64() % 2_000 {
            std::thread::yield_now();
        }
        cluster.register("it", "f", v2).unwrap();
        for h in racing {
            let pairs = h.join().unwrap();
            let v1_calls = pairs.iter().take_while(|p| **p == (1, 10)).count();
            assert!(
                pairs[v1_calls..].iter().all(|p| *p == (2, 20)),
                "seed {seed}: a racing caller saw {pairs:?}"
            );
        }
        for host in cluster.instances() {
            for _ in 0..2 {
                assert_eq!(call_on(host), (2, 20), "seed {seed}: placed after v2");
            }
        }
    }
}

#[test]
fn dropping_a_stale_record_releases_its_faaslets() {
    let cluster = Cluster::new(1);
    let host = &cluster.instances()[0];
    upload_versioned(&cluster, 1, 10, 0);
    assert_eq!(host.prewarm("it", "f", 4).unwrap(), 4);
    assert_eq!(host.warm_count("it", "f"), 4);
    let held = host.host_memory_bytes();
    upload_versioned(&cluster, 2, 20, 0);
    assert_eq!(host.warm_count("it", "f"), 0, "v1's Faaslets outlived v1");
    assert!(!host.has_proto("it", "f"), "v1's proto outlived v1");
    assert!(host.host_memory_bytes() < held);
    assert_eq!(host.idle_warmth("it", "f"), None);
}

#[test]
fn kvs_flush_failure_injection_recovers() {
    // Flushing the global tier mid-run loses state values (as a KVS node
    // wipe would); functions re-create them and keep working.
    let cluster = Cluster::new(2);
    cluster
        .upload_fl(
            "it",
            "bump",
            r#"
            extern int get_state(ptr int key, int key_len, int size);
            extern void push_state(ptr int key, int key_len);
            extern void write_call_output(ptr int buf, int len);
            int main() {
                ptr int k = (ptr int) 64;
                k[0] = 0x6e; // "n"
                ptr int s = (ptr int) get_state((ptr int) 64, 1, 4);
                s[0] = s[0] + 1;
                push_state((ptr int) 64, 1);
                write_call_output((ptr int) ((ptr int) s), 4);
                return 0;
            }
            "#,
            UploadOptions::default(),
        )
        .unwrap();
    assert_eq!(cluster.invoke("it", "bump", vec![]).return_code(), 0);
    cluster.kv().flush().unwrap();
    // Still serves; state restarts from whatever the local tier holds.
    let r = cluster.invoke("it", "bump", vec![]);
    assert_eq!(r.return_code(), 0, "{:?}", r.status);
}

#[test]
fn metrics_align_with_traffic_accounting() {
    let cluster = Cluster::new(2);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    let before = cluster.fabric().stats().snapshot();
    for _ in 0..5 {
        cluster.invoke("it", "echo", vec![0u8; 256]);
    }
    let delta = cluster.fabric().stats().snapshot().delta(&before);
    // Each call moves the 256-byte payload across the fabric at least once:
    // the placed batch rides the instance's bus, while the result completes
    // through a callback, not a `Result` bus message.
    assert!(delta.total_bytes() >= 5 * 256);
    assert!(cluster.billable_gb_seconds() > 0.0);
    assert!(cluster.host_memory_bytes() > 0);
}

#[test]
fn telemetry_totals_equal_the_sum_of_the_typed_per_instance_snapshots() {
    use faasm::core::{ChainRouter, MetricsSnapshot, SnapStatsSnapshot};
    use faasm::kvs::{CacheStats, ShardStats};

    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 2,
        state_shards: 2,
        cache_bytes: 1 << 20,
        ..ClusterConfig::default()
    });
    // A small mixed run: a cold call and warm ones, a pre-stage and the
    // restore it feeds, and a state read served by the function-side cache.
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    let (a, b) = (&cluster.instances()[0], &cluster.instances()[1]);
    for i in 0..3 {
        let r = a.invoke_local("it", "echo", vec![i]);
        assert_eq!(r.status, CallStatus::Success);
    }
    assert!(a.push_prestage("it", "echo", b.host_id()));
    let t0 = std::time::Instant::now();
    while !b.has_proto("it", "echo") && t0.elapsed() < std::time::Duration::from_secs(2) {
        std::thread::yield_now();
    }
    // Placed, so B runs it itself instead of forwarding to warm A.
    let id = b.submit_placed("it", "echo", vec![9]);
    assert_eq!(b.await_call(id).status, CallStatus::Success);
    cluster.kv().set("it:model", vec![7u8; 512]).unwrap();
    const READ_TWICE: &str = r#"
        extern void pull_state(ptr int key, int key_len, int size);
        int main() {
            ptr int key = (ptr int) 64;
            key[0] = 1832547433; // "it:m"
            key[1] = 1818584175; // "odel"
            pull_state(key, 8, 512);
            pull_state(key, 8, 512);
            return 0;
        }
    "#;
    let options = UploadOptions::default();
    cluster
        .upload_fl("it", "read", READ_TWICE, options)
        .unwrap();
    assert_eq!(cluster.invoke("it", "read", Vec::new()).return_code(), 0);

    // Nothing is in flight: the typed snapshots and the one-call snapshot
    // read the same instants.
    let t = cluster.telemetry();
    let (mut workers, mut snaps, mut caches, mut shards) = (
        MetricsSnapshot::default(),
        SnapStatsSnapshot::default(),
        CacheStats::default(),
        ShardStats::default(),
    );
    for inst in cluster.instances() {
        workers.merge(&inst.metrics().snapshot());
        snaps.merge(&inst.snapshot_stats());
        caches.merge(&inst.cache().expect("cache_bytes > 0").stats());
    }
    for s in cluster.state_shards().iter() {
        shards.merge(&s.stats());
    }
    // (The fabric's set is one row, with nothing to sum, and a reply's
    // sender counts it just after handing it over — two reads of it can
    // straddle that.)
    for typed in [
        workers.row("worker", 0),
        snaps.row("snapdist", 0),
        caches.row("kvs-cache", 0),
        shards.row("state-shard", 0),
    ] {
        assert!(!typed.counters.is_empty());
        for (name, sum) in typed.counters.iter().chain(&typed.gauges) {
            assert_eq!(t.get(typed.tier, name), *sum, "{}.{name}", typed.tier);
        }
    }
    // The run was the mixed one described, and names mean what the typed
    // fields mean.
    assert_eq!(t.get("worker", "proto_restores"), workers.proto_restores);
    assert!(
        workers.cold_starts >= 1 && workers.proto_restores >= 1 && workers.warm_starts >= 2,
        "{workers:?}"
    );
    assert_eq!(t.get("snapdist", "prestages"), 1);
    assert!(t.get("kvs-cache", "hits") >= 1, "{caches:?}");
    assert_eq!(t.get("worker", "calls"), cluster.total_calls());
    // The shard reports a fabric round-trip fetches agree with the ones
    // read in place (fetching them is itself fabric traffic, hence last).
    let wire: u64 = cluster
        .state_shard_stats()
        .unwrap()
        .iter()
        .map(|s| s.writes)
        .sum();
    assert_eq!(wire, shards.writes);
}

#[test]
fn host_failure_calls_are_redispatched() {
    let cluster = Arc::new(Cluster::new(3));
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    // Warm every host.
    for i in 0..6u8 {
        assert_eq!(cluster.invoke("it", "echo", vec![i]).return_code(), 0);
    }
    // Kill one instance; the cluster must keep serving.
    cluster.kill_instance(1);
    let mut ok = 0;
    for i in 0..12u8 {
        if cluster.invoke("it", "echo", vec![i]).return_code() == 0 {
            ok += 1;
        }
    }
    // A few calls may fail while the warm set still names the dead host
    // (one-hop forwards fall back locally), but the cluster as a whole
    // must keep making progress.
    assert!(ok >= 10, "only {ok}/12 calls survived a host failure");
    // And eventually it serves cleanly again.
    assert_eq!(
        cluster.invoke("it", "echo", b"post".to_vec()).return_code(),
        0
    );
    // A gateway over the same cluster places through the same chooser: a
    // burst deep enough to leave the survivors no idle Faaslet must still
    // never be handed to the dead host.
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    let tickets: Vec<u64> = (0..64u8)
        .map(|i| gateway.submit("it", "echo", vec![i]))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = gateway.wait(ticket);
        assert_eq!(resp.status, GatewayStatus::Ok, "submit {i}: {resp:?}");
    }
}

#[test]
fn all_hosts_dead_fails_cleanly() {
    let cluster = Cluster::new(2);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    cluster.kill_instance(0);
    cluster.kill_instance(1);
    let r = cluster.invoke("it", "echo", vec![1]);
    assert!(matches!(r.status, CallStatus::Error(_)));
}

fn sharded_cluster(hosts: usize, state_shards: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        hosts,
        state_shards,
        ..ClusterConfig::default()
    })
}

/// Shards of the cluster's global tier that hold at least one value.
fn occupied_shards(cluster: &Cluster) -> usize {
    cluster
        .state_shards()
        .iter()
        .filter(|s| s.store().key_count() > 0)
        .count()
}

#[test]
fn sharded_tier_matches_single_shard_for_matmul() {
    let n = 16;
    let run = |shards: usize| {
        let cluster = sharded_cluster(2, shards);
        matmul::register_faasm(&cluster, "la");
        matmul::upload_matrices(cluster.kv().as_ref(), n, 3).unwrap();
        let r = cluster.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec());
        assert_eq!(r.return_code(), 0, "{:?}", r.status);
        let c = matmul::read_result(cluster.kv().as_ref(), n).unwrap();
        let spread = occupied_shards(&cluster);
        (c, spread)
    };
    let (single, _) = run(1);
    let (sharded, spread) = run(4);
    assert_eq!(single, sharded, "identical code, identical result");
    assert!(
        spread >= 2,
        "matmul's keys must spread over the shards, got {spread}"
    );
    let expected = {
        let cluster = sharded_cluster(1, 1);
        matmul::upload_matrices(cluster.kv().as_ref(), n, 3).unwrap();
        matmul::reference_product(cluster.kv().as_ref(), n).unwrap()
    };
    for (a, b) in sharded.iter().zip(&expected) {
        assert!((a - b).abs() < 1e-9, "sharded result must stay correct");
    }
}

#[test]
fn sharded_tier_matches_single_shard_for_sgd() {
    let dataset = rcv1_like(192, 64, 8, 11);
    let tasks = sgd::partition(192, 4, 64, 0.5, 16);
    let run = |shards: usize| {
        let cluster = sharded_cluster(2, shards);
        sgd::register_faasm(&cluster, "ml");
        sgd::upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
        for _epoch in 0..3 {
            let ids: Vec<_> = tasks
                .iter()
                .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
                .collect();
            for id in ids {
                assert_eq!(cluster.await_result(id).return_code(), 0);
            }
        }
        let acc = sgd::accuracy(cluster.kv().as_ref(), &dataset).unwrap();
        (acc, occupied_shards(&cluster))
    };
    let (acc_single, _) = run(1);
    let (acc_sharded, spread) = run(4);
    // HOGWILD interleaving is nondeterministic; both runs must train, not
    // match bitwise.
    assert!(
        acc_single > 0.7,
        "single-shard training works: {acc_single}"
    );
    assert!(acc_sharded > 0.7, "sharded training works: {acc_sharded}");
    assert!(spread >= 2, "sgd's keys must spread over the shards");
}

#[test]
fn sharded_tier_matches_single_shard_for_inference() {
    let imgs = synth_images(3, inference::SIDE, 21);
    let run = |shards: usize| {
        let cluster = sharded_cluster(1, shards);
        inference::setup_faasm(&cluster, "serve", 5);
        imgs.iter()
            .map(|img| {
                let r = cluster.invoke("serve", "infer", img.clone());
                assert_eq!(r.return_code(), 0, "{:?}", r.status);
                r.output
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(4), "same model, same scores on both tiers");
}

#[test]
fn sharded_tier_serves_chained_state_and_survives_flush() {
    // The generic cluster paths — warm sets, chained calls, two-tier state,
    // failure injection — on a 4-shard tier.
    let cluster = sharded_cluster(3, 4);
    cluster
        .upload_fl("it", "echo", ECHO, UploadOptions::default())
        .unwrap();
    for i in 0..12u8 {
        let r = cluster.invoke("it", "echo", vec![i; 4]);
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, vec![i; 4]);
    }
    cluster.kv().flush().unwrap();
    let r = cluster.invoke("it", "echo", b"post-flush".to_vec());
    assert_eq!(r.status, CallStatus::Success);
}

#[test]
fn faaslet_egress_is_traffic_shaped() {
    // A Faaslet with a 64 KiB/s egress limit sending ~4 KiB of socket
    // traffic must be rate-limited; an unshaped one must not (the network
    // namespace + tc mechanism of §3.1).
    fn run_with(egress: Option<EgressLimit>) -> std::time::Duration {
        let cluster = Cluster::with_config(ClusterConfig {
            hosts: 1,
            instance: InstanceConfig { workers: 1, egress },
            ..ClusterConfig::default()
        });
        // An echo service on its own fabric host.
        let server = cluster.fabric().add_host();
        let server_id = server.id();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let service = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(env) = server.recv_timeout(std::time::Duration::from_millis(20)) {
                    let _ = server.respond(&env, env.payload.clone());
                }
            }
        });

        let src = format!(
            r#"
            extern int socket();
            extern int connect(int sock, int host);
            extern int send(int sock, ptr int buf, int len);
            int main() {{
                int s = socket();
                if (connect(s, {server_id}) != 0) {{ return -1; }}
                for (int i = 0; i < 8; i = i + 1) {{
                    if (send(s, (ptr int) 1024, 512) != 512) {{ return -2; }}
                }}
                return 0;
            }}
            "#,
            server_id = server_id.0
        );
        cluster
            .upload_fl("net", "blast", &src, UploadOptions::default())
            .unwrap();
        // Warm up so the timed run has no cold-start component.
        assert_eq!(cluster.invoke("net", "blast", vec![]).return_code(), 0);
        let t0 = std::time::Instant::now();
        let r = cluster.invoke("net", "blast", vec![]);
        let elapsed = t0.elapsed();
        assert_eq!(r.return_code(), 0, "{:?}", r.status);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        service.join().unwrap();
        elapsed
    }

    let unshaped = run_with(None);
    // 8 × (512 + 64) bytes ≈ 4.6 KiB at 64 KiB/s with a 1 KiB burst →
    // ≳ 50 ms of enforced pacing.
    let shaped = run_with(Some(EgressLimit {
        rate: 64 * 1024,
        burst: 1024,
    }));
    assert!(
        shaped > unshaped * 3 && shaped > std::time::Duration::from_millis(30),
        "shaping must slow the sender: unshaped {unshaped:?}, shaped {shaped:?}"
    );
}

/// Guest `gettime` reads the cluster's clock: on a manual clock, the time a
/// guest sees pass between two readings is exactly what the test advanced
/// the clock by in between.
#[test]
fn guest_gettime_reads_the_cluster_clock() {
    const TICK: &str = r#"
        extern long gettime();
        extern void set_state(ptr int key, int key_len, ptr int val, int val_len);
        extern void push_state(ptr int key, int key_len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            long t0 = gettime();
            // Tell the test the first reading is taken: state "go" = 1.
            ptr int k = (ptr int) 64;
            k[0] = 0x6f67; // "go"
            ptr int v = (ptr int) 128;
            v[0] = 1;
            set_state((ptr int) 64, 2, (ptr int) 128, 4);
            push_state((ptr int) 64, 2);
            long t1 = gettime();
            while (t1 == t0) {
                t1 = gettime();
            }
            ptr long out = (ptr long) 256;
            out[0] = t1 - t0;
            write_call_output((ptr int) 256, 8);
            return 0;
        }
    "#;
    let clock = faasm::telemetry::Clock::manual();
    let config = ClusterConfig {
        hosts: 1,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::with_clock(config, clock.clone());
    cluster
        .upload_fl("it", "tick", TICK, UploadOptions::default())
        .unwrap();
    let id = cluster.invoke_async("it", "tick", Vec::new());
    let t0 = std::time::Instant::now();
    while cluster.kv().get("go").unwrap().is_none() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "the guest never took its first reading"
        );
        std::thread::yield_now();
    }
    clock.advance(std::time::Duration::from_millis(5));
    let r = cluster.await_result(id);
    assert_eq!(r.status, CallStatus::Success);
    let elapsed = i64::from_le_bytes(r.output[..8].try_into().unwrap());
    assert_eq!(elapsed, 5_000_000, "the guest saw exactly the advance");
}
