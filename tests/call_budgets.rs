//! Per-call budgets of the container baseline: what each call shape costs
//! in counted units — fabric messages and bytes, image pulls from the
//! object store, cold and warm starts, resident container bytes and
//! `OOMKilled` refusals. Every row is exact and clock-free: a platform is
//! driven through a fixed sequence of phases at fixed seeds and host
//! counts, and each phase's counters are polled up to their pinned values
//! with a deadline (a host counts a message after delivering it, so a
//! caller can wake before the last reply is counted), then compared. The
//! rows run one after another in one test so that no other platform shares
//! the cores with a burst.
//!
//! `cargo test --test call_budgets -- --nocapture` prints the table.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use faasm::baseline::{BaselineConfig, BaselinePlatform, ContainerApi, ImageConfig};
use faasm::core::{CallResult, CallStatus};
use faasm::net::TrafficSnapshot;
use faasm::workloads::data::{rcv1_like, synth_images};
use faasm::workloads::env::ContainerEnv;
use faasm::workloads::{inference, sgd};

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
        ..BaselineConfig::default()
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
        ..BaselineConfig::default()
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

//                                msgs   bytes  pulls cold warm resident oom
const ECHO_COLD: Budget = row(2, 742, 1, 1, 0, 262_144, 0);
const ECHO_WARM: Budget = row(2, 742, 0, 0, 1, 262_144, 0);
const CHAIN_COLD: Budget = row(4, 1_444, 2, 2, 0, 524_288, 0);
const CHAIN_WARM: Budget = row(4, 1_444, 0, 0, 2, 524_288, 0);
const CHAIN_1_COLD: Budget = row(4, 1_444, 1, 2, 0, 524_288, 0);
const CHAIN_1_WARM: Budget = row(4, 1_444, 0, 0, 2, 524_288, 0);
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
    let moved: Vec<_> = rows
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .collect();
    assert!(moved.is_empty(), "rows off their pins: {moved:#?}");
}
