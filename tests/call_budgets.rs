//! Per-call budgets: what each call shape costs in counted units. Every
//! row is exact and clock-free: a platform is driven through a fixed
//! sequence of phases at fixed seeds and host counts, and each phase's
//! counters are polled up to their pinned values with a deadline (a host
//! counts a message after delivering it, so a caller can wake before the
//! last reply is counted), then compared. The rows run one after another
//! in one test so that no other platform shares the cores with a burst.
//!
//! - The container baseline's rows count fabric messages and bytes, image
//!   pulls from the object store, cold and warm starts, resident container
//!   bytes and `OOMKilled` refusals.
//! - The Faasm rows, one per `BENCHMARK.json` workload shape plus a chain
//!   and Fig. 8's multiplication, count the messages and bytes the runtime
//!   hosts' NICs sent or received, state-shard reads and writes, cold, warm
//!   and restore starts, bytes copied back by resets, and calls per host.
//!   Counting at the runtime hosts keeps a replicated tier's liveness pings,
//!   which only the monitor and the shards see, out of the rows.
//!
//! `cargo test --test call_budgets -- --nocapture` prints both tables.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use faasm::baseline::{BaselineConfig, BaselinePlatform, ContainerApi, ImageConfig};
use faasm::core::{
    CallResult, CallStatus, ChainRouter, Cluster, ClusterConfig, InstanceConfig, UploadOptions,
};
use faasm::gateway::{Gateway, GatewayConfig, GatewayStatus};
use faasm::net::TrafficSnapshot;
use faasm::workloads::data::{rcv1_like, synth_images};
use faasm::workloads::env::ContainerEnv;
use faasm::workloads::{inference, matmul, sgd};

mod common;

/// One phase's cost. `resident` is the platform's resident container bytes
/// after the phase, not a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Budget {
    msgs: u64,
    bytes: u64,
    pulls: u64,
    cold: u64,
    warm: u64,
    resident: usize,
    oom: usize,
}

const fn row(
    msgs: u64,
    bytes: u64,
    pulls: u64,
    cold: u64,
    warm: u64,
    resident: usize,
    oom: usize,
) -> Budget {
    Budget {
        msgs,
        bytes,
        pulls,
        cold,
        warm,
        resident,
        oom,
    }
}

struct Counters {
    fabric: TrafficSnapshot,
    pulls: u64,
    cold: u64,
    warm: u64,
}

fn counters(p: &BaselinePlatform) -> Counters {
    let starts = |f: fn(&faasm::core::Metrics) -> u64| -> u64 {
        p.hosts().iter().map(|h| f(h.metrics())).sum()
    };
    Counters {
        fabric: p.fabric().stats().snapshot(),
        pulls: p.object_store().pulls(),
        cold: starts(faasm::core::Metrics::cold_starts),
        warm: starts(faasm::core::Metrics::warm_starts),
    }
}

/// Drives one platform phase by phase, checking each against its pin.
struct Ledger<'a> {
    platform: &'a BaselinePlatform,
    name: &'static str,
    before: Counters,
    rows: &'a mut Vec<(String, Budget, Budget)>,
}

impl<'a> Ledger<'a> {
    fn new(
        platform: &'a BaselinePlatform,
        name: &'static str,
        rows: &'a mut Vec<(String, Budget, Budget)>,
    ) -> Ledger<'a> {
        Ledger {
            before: counters(platform),
            platform,
            name,
            rows,
        }
    }

    /// Run `phase`, which returns how many calls were refused for memory,
    /// then wait for the fabric to reach `pinned` and record the phase.
    fn phase(
        &mut self,
        label: &str,
        pinned: Budget,
        phase: impl FnOnce(&BaselinePlatform) -> usize,
    ) {
        let oom = phase(self.platform);
        let deadline = Instant::now() + Duration::from_secs(10);
        let (now, got) = loop {
            let now = counters(self.platform);
            let fabric = now.fabric.delta(&self.before.fabric);
            let got = Budget {
                msgs: fabric.msgs_sent,
                bytes: fabric.bytes_sent,
                pulls: now.pulls - self.before.pulls,
                cold: now.cold - self.before.cold,
                warm: now.warm - self.before.warm,
                resident: self.platform.resident_bytes(),
                oom,
            };
            let settled = got.msgs >= pinned.msgs && got.bytes >= pinned.bytes;
            if settled || Instant::now() > deadline {
                break (now, got);
            }
            std::thread::yield_now();
        };
        self.before = now;
        self.rows
            .push((format!("{} / {label}", self.name), got, pinned));
    }
}

fn ok(r: &CallResult) -> usize {
    assert_eq!(r.status, CallStatus::Success, "{:?}", r.status);
    0
}

fn refusals(results: impl IntoIterator<Item = CallResult>) -> usize {
    results
        .into_iter()
        .filter(|r| match &r.status {
            CallStatus::Success => false,
            CallStatus::Error(e) if e.contains("OOMKilled") => true,
            other => panic!("unexpected failure {other:?}"),
        })
        .count()
}

fn platform(hosts: usize, workers: usize, image_bytes: usize, limit: usize) -> BaselinePlatform {
    BaselinePlatform::with_config(BaselineConfig {
        hosts,
        workers,
        image: ImageConfig {
            image_bytes,
            layers: 3,
            boot_passes: 2,
        },
        host_memory_limit: limit,
    })
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
const GIB: usize = 1 << 30;

fn echo(rows: &mut Vec<(String, Budget, Budget)>) {
    let p = platform(1, 2, 256 * KIB, GIB);
    p.register(
        "u",
        "echo",
        Arc::new(|api: &mut ContainerApi<'_>| {
            let data = api.input().to_vec();
            api.write_output(&data);
            Ok(0)
        }),
    );
    let mut l = Ledger::new(&p, "echo", rows);
    let call = |p: &BaselinePlatform| ok(&p.invoke("u", "echo", vec![7; 8]));
    l.phase("cold call", ECHO_COLD, call);
    l.phase("warm call", ECHO_WARM, call);
}

/// A parent that chains one child, on two hosts (the child runs on the
/// other one) and on one.
fn chain(rows: &mut Vec<(String, Budget, Budget)>, hosts: usize, pins: [Budget; 2]) {
    let p = platform(hosts, 2, 256 * KIB, GIB);
    p.register(
        "u",
        "child",
        Arc::new(|api: &mut ContainerApi<'_>| {
            let v = api.input()[0] * 2;
            api.write_output(&[v]);
            Ok(0)
        }),
    );
    p.register(
        "u",
        "parent",
        Arc::new(|api: &mut ContainerApi<'_>| {
            let id = api.chain("child", api.input().to_vec());
            if api.await_call(id) != 0 {
                return Err("child failed".into());
            }
            let out = api.call_output(id).ok_or("no child output")?[0] + 1;
            api.write_output(&[out]);
            Ok(0)
        }),
    );
    let name = if hosts == 1 {
        "chain, one host"
    } else {
        "chain"
    };
    let mut l = Ledger::new(&p, name, rows);
    let call = |p: &BaselinePlatform| {
        let r = p.invoke("u", "parent", vec![20]);
        assert_eq!(r.output, vec![41]);
        ok(&r)
    };
    l.phase("cold parent→child", pins[0], call);
    l.phase("warm parent→child", pins[1], call);
}

fn infer(rows: &mut Vec<(String, Budget, Budget)>) {
    let p = platform(1, 1, 256 * KIB, GIB);
    let images = synth_images(11, inference::SIDE, 7);
    let mut l = Ledger::new(&p, "infer", rows);
    l.phase("publish model", INFER_SETUP, |p| {
        inference::setup_baseline(p, "serve", 9);
        0
    });
    l.phase("cold call", INFER_COLD, |p| {
        ok(&p.invoke("serve", "infer", images[0].clone()))
    });
    l.phase("10 warm calls", INFER_WARM_10, |p| {
        images[1..]
            .iter()
            .map(|img| ok(&p.invoke("serve", "infer", img.clone())))
            .sum()
    });
}

fn sgd_task(rows: &mut Vec<(String, Budget, Budget)>) {
    let p = platform(1, 1, 256 * KIB, GIB);
    sgd::register_baseline(&p, "ml");
    let dataset = rcv1_like(192, 64, 8, 11);
    let task = sgd::partition(192, 4, 64, 0.5, 16).remove(0).to_bytes();
    let mut l = Ledger::new(&p, "sgd", rows);
    l.phase("upload dataset", SGD_UPLOAD, |p| {
        sgd::upload_dataset(p.kv().as_ref(), &dataset).unwrap();
        0
    });
    l.phase("cold task", SGD_COLD, |p| {
        ok(&p.invoke("ml", "sgd_update", task.clone()))
    });
    l.phase("warm task", SGD_WARM, |p| {
        ok(&p.invoke("ml", "sgd_update", task.clone()))
    });
}

/// Fig. 6a's P=32 burst: 4 hosts x 8 workers, 2 MiB images, 12 MiB per
/// host — six containers fit on a host, the seventh is refused. Each
/// admitted container waits at a gate until all 24 that fit have started,
/// so no call finds a container an earlier call already gave back: which
/// calls are refused does not depend on how the threads interleave.
fn burst(rows: &mut Vec<(String, Budget, Budget)>) {
    const FIT: usize = 24;
    let p = BaselinePlatform::with_config(BaselineConfig {
        hosts: 4,
        workers: 8,
        image: ImageConfig {
            image_bytes: 2 * MIB,
            layers: 5,
            boot_passes: 4,
        },
        host_memory_limit: 12 * MIB,
    });
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let arrivals = Arc::clone(&gate);
    p.register(
        "ml",
        "sgd_update",
        Arc::new(move |api: &mut ContainerApi<'_>| {
            let (started, all_in) = &*arrivals;
            let mut started = started.lock().unwrap();
            *started += 1;
            all_in.notify_all();
            // Bounded: a platform that admits fewer fails the row, not the run.
            let _ = all_in
                .wait_timeout_while(started, Duration::from_secs(10), |n| *n < FIT)
                .unwrap();
            sgd::weight_update(&mut ContainerEnv::new(api))
        }),
    );
    let dataset = rcv1_like(256, 64, 8, 42);
    let tasks = sgd::partition(256, 32, 64, 0.5, 32);
    let mut l = Ledger::new(&p, "fig6a P=32", rows);
    l.phase("upload dataset", BURST_UPLOAD, |p| {
        sgd::upload_dataset(p.kv().as_ref(), &dataset).unwrap();
        0
    });
    l.phase("burst", BURST, |p| {
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| p.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        refusals(ids.into_iter().map(|id| p.await_result(id)))
    });
}

/// One Faasm phase's cost, read off the runtime hosts (see the module
/// docs); `calls` is per host, in instance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    msgs: u64,
    bytes: u64,
    reads: u64,
    writes: u64,
    cold: u64,
    warm: u64,
    restore: u64,
    reset: u64,
    calls: [u64; 3],
}

#[allow(clippy::too_many_arguments)]
const fn cost(
    msgs: u64,
    bytes: u64,
    reads: u64,
    writes: u64,
    cold: u64,
    warm: u64,
    restore: u64,
    reset: u64,
    calls: [u64; 3],
) -> Cost {
    Cost {
        msgs,
        bytes,
        reads,
        writes,
        cold,
        warm,
        restore,
        reset,
        calls,
    }
}

/// The cluster's counters so far, as a [`Cost`].
fn cost_so_far(cluster: &Cluster) -> Cost {
    let t = cluster.telemetry();
    let hosts = cluster.instances();
    let nics: Vec<TrafficSnapshot> = hosts.iter().map(|h| h.nic().stats().snapshot()).collect();
    let mut calls = [0; 3];
    for (slot, host) in hosts.iter().enumerate() {
        calls[slot] = host.metrics().calls();
    }
    Cost {
        msgs: nics.iter().map(|n| n.msgs_sent + n.msgs_received).sum(),
        bytes: nics.iter().map(|n| n.bytes_sent + n.bytes_received).sum(),
        reads: t.get("state-shard", "reads"),
        writes: t.get("state-shard", "writes"),
        cold: t.get("worker", "cold_starts"),
        warm: t.get("worker", "warm_starts"),
        restore: t.get("worker", "proto_restores"),
        reset: t.get("worker", "reset_bytes"),
        calls,
    }
}

/// What a Faasm row is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    /// Every field of the row.
    Exact(Cost),
    /// Only what no placement can move: the calls, one start per call, the
    /// writes and the reset bytes. For a fan-out across hosts whose split
    /// is a race: each chained call is placed on the queues and pools of
    /// that instant, which the peer's progress keeps changing.
    Placed {
        calls: u64,
        starts: u64,
        writes: u64,
        reset: u64,
    },
}

impl Pin {
    fn holds(self, got: Cost) -> bool {
        match self {
            Pin::Exact(pinned) => got == pinned,
            Pin::Placed { .. } => got.placement_free() == self,
        }
    }

    /// The row as printed: a placed row shows only what it pins.
    fn show(self, got: Cost) -> String {
        let Cost {
            msgs,
            bytes,
            reads,
            writes,
            cold,
            warm,
            restore,
            reset,
            calls,
        } = got;
        match got.placement_free() {
            Pin::Placed { calls, starts, .. } if self != Pin::Exact(got) => format!(
                "{:>6} {:>9} {:>5} {writes:>6} {:>4} {:>4} {:>7} {reset:>7} {calls} calls, {starts} starts",
                "-", "-", "-", "-", "-", "-"
            ),
            _ => format!(
                "{msgs:>6} {bytes:>9} {reads:>5} {writes:>6} {cold:>4} {warm:>4} {restore:>7} {reset:>7} {calls:?}"
            ),
        }
    }
}

impl Cost {
    fn placement_free(self) -> Pin {
        Pin::Placed {
            calls: self.calls.iter().sum(),
            starts: self.cold + self.warm + self.restore,
            writes: self.writes,
            reset: self.reset,
        }
    }

    fn since(self, before: Cost) -> Cost {
        let mut calls = self.calls;
        for (now, then) in calls.iter_mut().zip(before.calls) {
            *now -= then;
        }
        cost(
            self.msgs - before.msgs,
            self.bytes - before.bytes,
            self.reads - before.reads,
            self.writes - before.writes,
            self.cold - before.cold,
            self.warm - before.warm,
            self.restore - before.restore,
            self.reset - before.reset,
            calls,
        )
    }
}

/// Drives one Faasm cluster phase by phase, checking each against its pin.
struct FaasmLedger<'a> {
    cluster: &'a Cluster,
    name: &'static str,
    before: Cost,
    rows: &'a mut Vec<(String, Cost, Pin)>,
}

impl<'a> FaasmLedger<'a> {
    fn new(
        cluster: &'a Cluster,
        name: &'static str,
        rows: &'a mut Vec<(String, Cost, Pin)>,
    ) -> FaasmLedger<'a> {
        FaasmLedger {
            before: cost_so_far(cluster),
            cluster,
            name,
            rows,
        }
    }

    /// Run `phase`, then wait (bounded) for the counters to reach `pinned`
    /// and record the phase.
    fn phase(&mut self, label: &str, pinned: Pin, phase: impl FnOnce()) {
        phase();
        let deadline = Instant::now() + Duration::from_secs(10);
        let (now, got) = loop {
            let now = cost_so_far(self.cluster);
            let got = now.since(self.before);
            if pinned.holds(got) || Instant::now() > deadline {
                break (now, got);
            }
            std::thread::yield_now();
        };
        self.before = now;
        self.rows
            .push((format!("{} / {label}", self.name), got, pinned));
    }
}

fn faasm_cluster(hosts: usize, workers: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        hosts,
        instance: InstanceConfig {
            workers,
            ..InstanceConfig::default()
        },
        ..ClusterConfig::default()
    })
}

fn succeeded(r: &CallResult) {
    assert_eq!(r.status, CallStatus::Success, "{:?}", r.status);
}

/// `ingress_null`: a 4-byte echo through an in-process gateway.
fn faasm_ingress(rows: &mut Vec<(String, Cost, Pin)>) {
    let cluster = Arc::new(faasm_cluster(2, 2));
    let options = UploadOptions::default();
    cluster
        .upload_fl("u", "echo", common::ECHO, options)
        .unwrap();
    let config = GatewayConfig {
        autoscale: None,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(Arc::clone(&cluster), config);
    let call = || {
        let r = gateway.call("u", "echo", vec![1, 2, 3, 4]);
        assert_eq!((r.status, r.output), (GatewayStatus::Ok, vec![1, 2, 3, 4]));
    };
    let mut l = FaasmLedger::new(&cluster, "ingress echo", rows);
    l.phase("cold call", INGRESS_COLD, call);
    l.phase("10 warm calls", INGRESS_WARM_10, || {
        (0..10).for_each(|_| call())
    });
    gateway.shutdown();
}

/// `fvm_compute`: an FL kernel of about a million instructions.
fn faasm_compute(rows: &mut Vec<(String, Cost, Pin)>) {
    const ARITH: &str = r#"
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            ptr int io = (ptr int) 512;
            read_call_input(io, 4);
            int acc = io[0];
            for (int i = 0; i < 56000; i = i + 1) { acc = acc + (i ^ io[0]); }
            io[0] = acc;
            write_call_output(io, 4);
            return 0;
        }
    "#;
    let cluster = faasm_cluster(1, 1);
    let options = UploadOptions::default();
    cluster.upload_fl("u", "arith", ARITH, options).unwrap();
    let call = || succeeded(&cluster.invoke("u", "arith", 7i32.to_le_bytes().to_vec()));
    let mut l = FaasmLedger::new(&cluster, "fl compute", rows);
    l.phase("cold call", COMPUTE_COLD, call);
    l.phase("warm call", COMPUTE_WARM, call);
}

/// `state_mix`: one op per call on a key of 4 KiB, about 9 reads to a
/// write, through a 128 KiB function-side cache. Each key takes two ops in
/// a row: the first misses the cache, the second finds it under its 100 ms
/// lease, so no clock-driven revalidation can move the row.
fn faasm_state_mix(rows: &mut Vec<(String, Cost, Pin)>, replication: usize, pins: [Pin; 2]) {
    const MIX: &str = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        extern int get_state(ptr int key, int key_len, int size);
        extern void pull_state(ptr int key, int key_len, int size);
        extern void push_state(ptr int key, int key_len);
        extern void lock_state_read(ptr int key, int key_len);
        extern void unlock_state_read(ptr int key, int key_len);
        extern void lock_state_write(ptr int key, int key_len);
        extern void unlock_state_write(ptr int key, int key_len);
        int main() {
            int n = input_size();
            ptr int req = (ptr int) 1024;
            read_call_input(req, n);
            ptr int key = (ptr int) 1032;
            int klen = n - 8;
            ptr int s = (ptr int) get_state(key, klen, 4096);
            if (req[0] == 0) {
                lock_state_read(key, klen);
                pull_state(key, klen, 4096);
                req[1] = s[0];
                unlock_state_read(key, klen);
            } else {
                lock_state_write(key, klen);
                s[0] = req[1];
                push_state(key, klen);
                unlock_state_write(key, klen);
            }
            write_call_output(req, 8);
            return 0;
        }
    "#;
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 1,
        state_shards: 2,
        replication_factor: replication,
        cache_bytes: 128 << 10,
        ..ClusterConfig::default()
    });
    for k in 0..64 {
        cluster
            .kv()
            .set(&format!("mix:{k:02}"), vec![0; 4096])
            .unwrap();
    }
    let options = UploadOptions::default();
    cluster.upload_fl("u", "mix", MIX, options).unwrap();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut op = |seq: u32| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let write = x.is_multiple_of(10);
        let mut input = Vec::with_capacity(14);
        input.extend_from_slice(&u32::from(write).to_le_bytes());
        input.extend_from_slice(&seq.to_le_bytes());
        input.extend_from_slice(format!("mix:{:02}", seq / 2).as_bytes());
        succeeded(&cluster.invoke("u", "mix", input));
    };
    let name = if replication == 1 {
        "state mix R=1"
    } else {
        "state mix R=2"
    };
    let mut l = FaasmLedger::new(&cluster, name, rows);
    l.phase("cold op", pins[0], || op(100));
    l.phase("100 ops", pins[1], || (0..100).for_each(&mut op));
}

/// `train_sgd`: one Listing 1 task on a host of its own.
fn faasm_sgd(rows: &mut Vec<(String, Cost, Pin)>) {
    let cluster = faasm_cluster(1, 1);
    sgd::register_faasm(&cluster, "ml");
    let dataset = rcv1_like(192, 64, 8, 11);
    let task = sgd::partition(192, 4, 64, 0.5, 16).remove(0).to_bytes();
    let mut l = FaasmLedger::new(&cluster, "sgd", rows);
    l.phase("upload dataset", FAASM_SGD_UPLOAD, || {
        sgd::upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
    });
    let call = || succeeded(&cluster.invoke("ml", "sgd_update", task.clone()));
    l.phase("cold task", FAASM_SGD_COLD, call);
    l.phase("warm task", FAASM_SGD_WARM, call);
}

/// One `coldstart_storm` round without its burst: host 0 cold-starts and
/// publishes, host 1 fetches from the tier, host 2 is pre-staged first.
fn faasm_storm(rows: &mut Vec<(String, Cost, Pin)>) {
    const STORM: &str = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int init() {
            ptr int a = (ptr int) 1024;
            for (int i = 0; i < 8000; i = i + 1) { a[i] = 7 + i; }
            ptr int b = (ptr int) 65536;
            for (int i = 0; i < 8000; i = i + 1) { b[i] = i * 3; }
            ptr int c = (ptr int) 131072;
            for (int i = 0; i < 8000; i = i + 1) { c[i] = i * 5; }
            return 0;
        }
        int main() {
            int n = input_size();
            read_call_input((ptr int) 512, n);
            write_call_output((ptr int) 512, n);
            return 0;
        }
    "#;
    let cluster = faasm_cluster(3, 2);
    let hosts = cluster.instances();
    let payload = 42u64.to_le_bytes().to_vec();
    let placed = |host: usize| {
        let id = hosts[host].submit_placed("u", "storm", payload.clone());
        succeeded(&hosts[host].await_call(id));
    };
    let mut l = FaasmLedger::new(&cluster, "storm round", rows);
    l.phase("upload", STORM_UPLOAD, || {
        let options = UploadOptions {
            init: Some("init".into()),
        };
        cluster.upload_fl("u", "storm", STORM, options).unwrap();
    });
    l.phase("cold call, host 0", STORM_COLD, || {
        succeeded(&hosts[0].invoke_local("u", "storm", payload.clone()));
    });
    l.phase("tier fetch, host 1", STORM_FETCH, || placed(1));
    l.phase("pre-staged call, host 2", STORM_PRESTAGED, || {
        assert!(hosts[0].push_prestage("u", "storm", hosts[2].host_id()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !hosts[2].has_proto("u", "storm") && Instant::now() < deadline {
            std::thread::yield_now();
        }
        placed(2);
    });
}

/// A parent that relays an echo's answer, on two hosts.
fn faasm_chain(rows: &mut Vec<(String, Cost, Pin)>) {
    let cluster = faasm_cluster(2, 2);
    let options = UploadOptions::default();
    cluster
        .upload_fl("u", "child", common::ECHO, options.clone())
        .unwrap();
    let parent = common::relay("child");
    cluster.upload_fl("u", "parent", &parent, options).unwrap();
    let call = || {
        let r = cluster.invoke("u", "parent", vec![5; 4]);
        succeeded(&r);
        assert_eq!(r.output, vec![5; 4]);
    };
    let mut l = FaasmLedger::new(&cluster, "parent→child", rows);
    l.phase("cold", FAASM_CHAIN_COLD, call);
    l.phase("warm", FAASM_CHAIN_WARM, call);
}

/// Fig. 8: matmul n=16 (64 chained products, 16 chained merges), two hosts
/// of one worker each.
fn faasm_matmul(rows: &mut Vec<(String, Cost, Pin)>) {
    let cluster = faasm_cluster(2, 1);
    matmul::register_faasm(&cluster, "la");
    let mut l = FaasmLedger::new(&cluster, "matmul n=16", rows);
    l.phase("upload matrices", MATMUL_UPLOAD, || {
        matmul::upload_matrices(cluster.kv().as_ref(), 16, 5).unwrap();
    });
    let call = || succeeded(&cluster.invoke("la", "mm_main", 16u32.to_le_bytes().to_vec()));
    l.phase("cold", MATMUL, call);
    l.phase("warm", MATMUL, call);
}

//                                msgs  bytes reads writes cold warm restore reset calls/host
const INGRESS_COLD: Pin = Pin::Exact(cost(14, 1_808, 3, 3, 1, 0, 0, 4_096, [1, 0, 0]));
const INGRESS_WARM_10: Pin = Pin::Exact(cost(20, 2_600, 0, 0, 0, 10, 0, 40_960, [10, 0, 0]));
const COMPUTE_COLD: Pin = Pin::Exact(cost(14, 1_813, 3, 3, 1, 0, 0, 4_096, [1, 0, 0]));
const COMPUTE_WARM: Pin = Pin::Exact(cost(2, 262, 0, 0, 0, 1, 0, 4_096, [1, 0, 0]));
const MIX_R1: [Pin; 2] = [
    Pin::Exact(cost(16, 6_120, 4, 3, 1, 0, 0, 4_096, [1, 0, 0])),
    Pin::Exact(cost(324, 293_926, 50, 12, 0, 100, 0, 409_600, [100, 0, 0])),
];
const MIX_R2: [Pin; 2] = MIX_R1;
const FAASM_SGD_UPLOAD: Pin = Pin::Exact(cost(0, 0, 0, 5, 0, 0, 0, 0, [0, 0, 0]));
const FAASM_SGD_COLD: Pin = Pin::Exact(cost(20, 24_616, 6, 3, 1, 0, 0, 0, [1, 0, 0]));
const FAASM_SGD_WARM: Pin = Pin::Exact(cost(10, 2_341, 1, 3, 0, 1, 0, 0, [1, 0, 0]));
const STORM_UPLOAD: Pin = Pin::Exact(cost(0, 0, 0, 0, 0, 0, 0, 0, [0, 0, 0]));
const STORM_COLD: Pin = Pin::Exact(cost(24, 105_403, 6, 6, 1, 0, 0, 36_864, [1, 0, 0]));
const STORM_FETCH: Pin = Pin::Exact(cost(4, 103_391, 6, 0, 0, 0, 1, 4_096, [0, 1, 0]));
const STORM_PRESTAGED: Pin = Pin::Exact(cost(6, 103_885, 6, 0, 0, 0, 1, 4_096, [0, 0, 1]));
const FAASM_CHAIN_COLD: Pin = Pin::Exact(cost(24, 3_120, 6, 5, 2, 0, 0, 12_288, [2, 0, 0]));
const FAASM_CHAIN_WARM: Pin = Pin::Exact(cost(2, 264, 0, 0, 0, 2, 0, 12_288, [2, 0, 0]));
const MATMUL_UPLOAD: Pin = Pin::Exact(cost(0, 0, 0, 3, 0, 0, 0, 0, [0, 0, 0]));
const MATMUL: Pin = Pin::Placed {
    calls: 81,
    starts: 81,
    writes: 80,
    reset: 0,
};

//                                msgs   bytes  pulls cold warm resident oom
const ECHO_COLD: Budget = row(2, 742, 1, 1, 0, 262_144, 0);
const ECHO_WARM: Budget = row(2, 742, 0, 0, 1, 262_144, 0);
const CHAIN_COLD: Budget = row(4, 1_459, 2, 2, 0, 524_288, 0);
const CHAIN_WARM: Budget = row(4, 1_459, 0, 0, 2, 524_288, 0);
const CHAIN_1_COLD: Budget = row(4, 1_459, 1, 2, 0, 524_288, 0);
const CHAIN_1_WARM: Budget = row(4, 1_459, 0, 0, 2, 524_288, 0);
const INFER_SETUP: Budget = row(2, 2_100, 0, 0, 0, 0, 0);
const INFER_COLD: Budget = row(4, 3_656, 1, 1, 0, 264_036, 0);
const INFER_WARM_10: Budget = row(20, 15_560, 0, 0, 10, 264_036, 0);
const SGD_UPLOAD: Budget = row(10, 22_155, 0, 0, 0, 0, 0);
const SGD_COLD: Budget = row(782, 99_122, 1, 1, 0, 283_396, 0);
const SGD_WARM: Budget = row(772, 76_967, 0, 0, 1, 283_396, 0);
const BURST_UPLOAD: Budget = row(10, 29_067, 0, 0, 0, 0, 0);
const BURST: Budget = row(3_424, 1_031_000, 4, 24, 0, 51_007_584, 8);

#[test]
fn every_call_shape_costs_its_pinned_budget() {
    let mut rows = Vec::new();
    echo(&mut rows);
    chain(&mut rows, 2, [CHAIN_COLD, CHAIN_WARM]);
    chain(&mut rows, 1, [CHAIN_1_COLD, CHAIN_1_WARM]);
    infer(&mut rows);
    sgd_task(&mut rows);
    burst(&mut rows);
    println!(
        "{:<36} {:>6} {:>9} {:>5} {:>4} {:>4} {:>10} {:>3}",
        "phase", "msgs", "bytes", "pulls", "cold", "warm", "resident", "oom"
    );
    for (label, got, _) in &rows {
        println!(
            "{label:<36} {:>6} {:>9} {:>5} {:>4} {:>4} {:>10} {:>3}",
            got.msgs, got.bytes, got.pulls, got.cold, got.warm, got.resident, got.oom
        );
    }
    let mut faasm = Vec::new();
    faasm_ingress(&mut faasm);
    faasm_compute(&mut faasm);
    faasm_state_mix(&mut faasm, 1, MIX_R1);
    faasm_state_mix(&mut faasm, 2, MIX_R2);
    faasm_sgd(&mut faasm);
    faasm_storm(&mut faasm);
    faasm_chain(&mut faasm);
    faasm_matmul(&mut faasm);
    println!(
        "\n{:<40} {:>6} {:>9} {:>5} {:>6} {:>4} {:>4} {:>7} {:>7} calls/host",
        "faasm phase", "msgs", "bytes", "reads", "writes", "cold", "warm", "restore", "reset"
    );
    for (label, got, pin) in &faasm {
        println!("{label:<40} {}", pin.show(*got));
    }
    let moved: Vec<_> = rows
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .collect();
    assert!(moved.is_empty(), "rows off their pins: {moved:#?}");
    let moved: Vec<_> = faasm
        .iter()
        .filter(|(_, got, pin)| !pin.holds(*got))
        .collect();
    assert!(moved.is_empty(), "faasm rows off their pins: {moved:#?}");
}
