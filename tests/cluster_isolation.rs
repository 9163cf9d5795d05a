//! Two clusters in one process never see each other, and a cluster can be
//! torn down from any thread — including one of its own.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use faasm::core::{Cluster, ClusterConfig, InstanceConfig, UploadOptions};
use faasm::gateway::{Gateway, GatewayConfig, GatewayRequest, GatewayStatus};
use faasm::kvs::{KvBackend, LockMode, ShardedKvClient, LOCK_LEASE};
use faasm::telemetry::{Clock, SpanKind, TraceCtx};
use faasm::CallStatus;

mod common;

/// `parent` chains `child` (which doubles its input byte) and adds one.
fn register_chain(cluster: &Cluster, user: &str) {
    let options = UploadOptions::default();
    cluster
        .upload_fl(user, "child", common::DOUBLE, options.clone())
        .unwrap();
    cluster
        .upload_fl(user, "parent", common::PARENT, options)
        .unwrap();
}

#[test]
fn two_clusters_chain_concurrently_without_seeing_each_other() {
    // Every fabric numbers its hosts from zero, so the two clusters'
    // instances share host ids. Each registers its functions under its own
    // user: a chained call handed to the other cluster's instance could
    // only fail ("unknown function") or never be answered.
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = ["left", "right"]
        .into_iter()
        .map(|user| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cluster = Cluster::with_config(ClusterConfig {
                    hosts: 1,
                    invoke_timeout: Duration::from_secs(20),
                    ..ClusterConfig::default()
                });
                register_chain(&cluster, user);
                // Both clusters exist before either runs a call ...
                barrier.wait();
                for i in 0..50u8 {
                    let r = cluster.invoke(user, "parent", vec![i]);
                    assert_eq!(r.status, CallStatus::Success, "{user} call {i}: {r:?}");
                    assert_eq!(r.output, vec![i * 2 + 1]);
                }
                // ... and neither is torn down while the other still runs.
                barrier.wait();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("cluster thread");
    }
}

#[test]
fn two_clusters_driven_concurrently_count_only_their_own_work() {
    // Each cluster is driven with its own number of chained calls and
    // driver-side state writes while the other runs, and must then report,
    // through `Cluster::telemetry()`, exactly its own. A counter or span
    // recorder shared between the clusters would show the sum on both
    // sides.
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = [("left", 30u64, 7u64), ("right", 50, 13)]
        .into_iter()
        .map(|(user, calls, writes)| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cluster = Cluster::with_config(ClusterConfig {
                    hosts: 1,
                    invoke_timeout: Duration::from_secs(20),
                    ..ClusterConfig::default()
                });
                register_chain(&cluster, user);
                // Warm both functions, so the window holds no cold start
                // and none of the state-tier traffic a first start costs.
                let warmed = cluster.invoke(user, "parent", vec![1]).status;
                barrier.wait();
                let before = cluster.telemetry();
                let failed = (0..calls)
                    .filter(|i| {
                        cluster.invoke(user, "parent", vec![*i as u8]).status != CallStatus::Success
                    })
                    .count();
                for i in 0..writes {
                    cluster.kv().set(&format!("{user}:{i}"), vec![1]).unwrap();
                }
                // One placed batch per driver call, a request and a reply
                // per state write. A shard counts its reply just after
                // handing it over, so the driver can get here ahead of the
                // last one: a shortfall is waited out, an excess is not.
                let msgs = calls + 2 * writes;
                let deadline = Instant::now() + Duration::from_secs(10);
                while cluster.fabric().stats().msgs_sent() - before.get("fabric", "msgs_sent")
                    < msgs
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                barrier.wait();
                let own = cluster.telemetry().delta(&before);
                let recorder = Arc::clone(cluster.fabric().recorder());
                // Neither is torn down while the other still reads. (The
                // verdict is left to the joining thread: an assertion
                // failing here would strand the other side at the barrier.)
                barrier.wait();
                (user, warmed, failed, calls, writes, msgs, own, recorder)
            })
        })
        .collect();
    for t in threads {
        let (user, warmed, failed, calls, writes, msgs, own, recorder) =
            t.join().expect("cluster thread");
        assert_eq!((warmed, failed), (CallStatus::Success, 0), "{user}");
        // A parent and the child it chains, each on a warm Faaslet.
        assert_eq!(own.get("worker", "calls"), 2 * calls, "{user}");
        assert_eq!(own.get("worker", "warm_starts"), 2 * calls, "{user}");
        assert_eq!(own.get("worker", "cold_starts"), 0, "{user}");
        // A warm stateless call costs the state tier nothing.
        assert_eq!(own.get("state-shard", "writes"), writes, "{user}");
        assert_eq!(own.get("state-shard", "reads"), 0, "{user}");
        assert_eq!(own.get("state-shard", "lock_ops"), 0, "{user}");
        assert_eq!(own.get("fabric", "msgs_sent"), msgs, "{user}");
        // Every front-door call is traced and its child inherits the trace:
        // two worker-exec spans per chained call, in this cluster only.
        assert_eq!(own.hist("span", "worker_exec").count, 2 * calls, "{user}");
        // Ids are per cluster, so the other cluster's traces carry the same
        // ids; what shows a leak is the ring: it holds exactly the
        // worker-exec spans of this cluster's calls (the warm-up and the
        // measured ones), two to a trace.
        let execs: Vec<_> = recorder
            .dump()
            .into_iter()
            .filter(|s| s.kind == SpanKind::WorkerExec)
            .collect();
        assert_eq!(execs.len() as u64, 2 * (calls + 1), "{user}");
        let traces: HashSet<u64> = execs.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces.len() as u64, calls + 1, "{user}");
        let last = execs.last().expect("a traced call").trace_id;
        assert!(!recorder.trace(last).is_empty(), "{user}");
    }
}

#[test]
fn two_clusters_built_alike_mint_the_same_ids() {
    // Trace and span ids come from the cluster, not the process: two
    // clusters built alike, each running the same call while the other
    // runs it too, trace it under the same ids.
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cluster = Cluster::with_config(ClusterConfig {
                    hosts: 1,
                    invoke_timeout: Duration::from_secs(20),
                    ..ClusterConfig::default()
                });
                register_chain(&cluster, "u");
                // Warm, untraced: a cold start's proto publish is traced
                // state-tier work whose shard threads mint ids of their own.
                let host = &cluster.instances()[0];
                for function in ["parent", "child"] {
                    assert_eq!(host.prewarm("u", function, 1).unwrap(), 1);
                }
                barrier.wait();
                let status = cluster.invoke("u", "parent", vec![3]).status;
                // Every span of the call is recorded before its result
                // is handed back, and nothing else in the cluster is traced.
                let spans = cluster.fabric().recorder().dump();
                let traces: HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
                let ids: HashSet<(SpanKind, u64, u64)> = spans
                    .iter()
                    .map(|s| (s.kind, s.span_id, s.parent_id))
                    .collect();
                (status, traces, ids, spans.len())
            })
        })
        .collect();
    let mut runs = threads
        .into_iter()
        .map(|t| t.join().expect("cluster thread"));
    let (left, right) = (runs.next().unwrap(), runs.next().unwrap());
    assert_eq!(
        (left.0, right.0),
        (CallStatus::Success, CallStatus::Success)
    );
    assert_eq!(left.1.len(), 1, "one traced call: {:?}", left.1);
    assert_eq!(left.1, right.1, "the same trace id");
    // A parent and the child it chains, each with its worker-exec span.
    let execs = left.2.iter().filter(|s| s.0 == SpanKind::WorkerExec);
    assert_eq!(execs.count(), 2, "{:?}", left.2);
    assert_eq!(left.2.len(), left.3, "span ids are unique in a cluster");
    assert_eq!(left.2, right.2, "the same (kind, span id, parent id) set");
}

/// Reports, when the fabric that owns it is finally dropped, whether the
/// dropping thread was unwinding from a panic.
struct TornDown(mpsc::Sender<bool>);

impl Drop for TornDown {
    fn drop(&mut self) {
        let _ = self.0.send(std::thread::panicking());
    }
}

/// Each cluster reads its own clock: advancing one cluster's manual clock
/// expires that cluster's gateway deadlines and global-lock leases and
/// leaves the other's untouched.
#[test]
fn each_cluster_keeps_its_own_time() {
    struct Rig {
        clock: Clock,
        cluster: Arc<Cluster>,
        gateway: Gateway,
        rival: ShardedKvClient,
    }
    let rig = || {
        let clock = Clock::manual();
        let config = ClusterConfig {
            hosts: 1,
            ..ClusterConfig::default()
        };
        let cluster = Arc::new(Cluster::with_clock(config, clock.clone()));
        // A `hold` call waits at the gate until the test lets it through:
        // a ticket, not the clock, which the test moves on its own.
        let options = UploadOptions::default();
        cluster
            .upload_fl("u", "hold", common::GATE, options)
            .unwrap();
        register_chain(&cluster, "u");
        let gateway = Gateway::start(
            Arc::clone(&cluster),
            GatewayConfig {
                dispatchers: 1,
                max_batch: 1,
                autoscale: None,
                ..GatewayConfig::default()
            },
        );
        // The driver takes a global lock that a second client is refused.
        cluster.kv().lock("leased", LockMode::Write).unwrap();
        let cell = Arc::clone(cluster.state_routing());
        let rival = ShardedKvClient::connect(cluster.add_fabric_host(), cell);
        assert!(!rival.try_lock("leased", LockMode::Write).unwrap());
        Rig {
            clock,
            cluster,
            gateway,
            rival,
        }
    };
    let (moved, still) = (rig(), rig());
    // On each, a held call takes the one in-flight slot and a request
    // with a 10 ms deadline queues behind it.
    let queued = [&moved, &still].map(|r| {
        let held = r.gateway.submit("u", "hold", common::held(1, &[]));
        let t0 = Instant::now();
        while r.gateway.queue_len() > 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        let deadline = Duration::from_millis(10);
        let doomed = r
            .gateway
            .submit_with_deadline("u", "child", vec![1], deadline);
        (held, doomed)
    });
    moved.clock.advance(LOCK_LEASE);

    // The advanced cluster sheds its queued request as expired and lets
    // the rival take the lapsed lock.
    assert_eq!(
        moved.gateway.wait(queued[0].1).status,
        GatewayStatus::Expired
    );
    assert!(moved.rival.try_lock("leased", LockMode::Write).unwrap());
    // The other cluster's lease holds, and once its held call finishes,
    // its queued request runs: by its clock, no deadline has passed.
    assert!(!still.rival.try_lock("leased", LockMode::Write).unwrap());
    for r in [&moved, &still] {
        common::let_through(&r.cluster, 1);
    }
    assert_eq!(still.gateway.wait(queued[1].1).status, GatewayStatus::Ok);
    assert_eq!(moved.gateway.metrics().shed_expired(), 1);
    assert_eq!(still.gateway.metrics().shed_expired(), 0);
    for (r, (held, _)) in [&moved, &still].into_iter().zip(queued) {
        assert_eq!(r.gateway.wait(held).status, GatewayStatus::Ok);
    }
}

#[test]
fn last_cluster_handle_can_be_released_from_a_completion_callback() {
    // One worker, so the thread that runs the completion callback is the
    // last thread the instance's shutdown would join.
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 1,
        instance: InstanceConfig {
            workers: 1,
            ..InstanceConfig::default()
        },
        ..ClusterConfig::default()
    }));
    let (down_tx, down_rx) = mpsc::channel();
    let torn_down = TornDown(down_tx);
    // A fabric host that takes no messages, there only to own the report:
    // the fabric goes last, once every instance and NIC of the cluster has.
    drop(cluster.fabric().add_host_into(move |_| {
        let _owned_by_the_fabric = &torn_down;
        Err(faasm::net::NetError::Disconnected)
    }));
    cluster
        .upload_fl("u", "echo", common::ECHO, UploadOptions::default())
        .unwrap();
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            autoscale: None,
            ..GatewayConfig::default()
        },
    );

    let (in_callback_tx, in_callback_rx) = mpsc::channel();
    let (released_tx, released_rx) = mpsc::channel::<()>();
    gateway.submit_async(
        GatewayRequest {
            seq: 1,
            tenant: "u".into(),
            function: "echo".into(),
            deadline_ms: 0,
            trace: TraceCtx::NONE,
            input: vec![7],
        },
        move |resp| {
            // On the instance's worker thread, inside the gateway's
            // completion path (which holds the gateway state, and through
            // it the cluster, for the duration of this callback).
            let _ = in_callback_tx.send(resp.status);
            let _ = released_rx.recv_timeout(Duration::from_secs(30));
        },
    );
    let status = in_callback_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("completion callback ran");
    assert_eq!(status, GatewayStatus::Ok);
    // Release every other handle while the callback is parked: when it
    // returns, the worker thread drops the last one and `Cluster::drop`
    // runs on a thread the cluster itself would join.
    drop(gateway);
    drop(cluster);
    released_tx.send(()).expect("callback still parked");
    let panicking = down_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("cluster tear-down hung or leaked its instance");
    assert!(
        !panicking,
        "Cluster::drop panicked on its own worker thread"
    );
}
