//! Per-layer probes: timed direct calls from the benchmark into each
//! layer's public functions, single-threaded, fixed iteration counts,
//! medians. Each returns `(per-layer metric name, value)` pairs; which
//! end-to-end metric each should move is tabled in README.md.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::baseline::{BaselineConfig, BaselinePlatform, Container, HttpRouter, ImageConfig};
use faasm::core::msg::{decode_msg, encode_msg, InstanceMsg};
use faasm::core::{
    assemble_proto, chunk_proto, faaslet_linker, CallId, CallResult, CallSpec, CgroupCpu,
    ChainRouter, Cluster, ClusterConfig, Faaslet, FaasletEnv, FunctionDef, GuestCode, NoChain,
    TraceCtx,
};
use faasm::fvm::prelude::*;
use faasm::gateway::codec as gw_codec;
use faasm::gateway::queue::{FairQueue, Job};
use faasm::gateway::{FrameBuf, GatewayRequest, GatewayResponse, GatewayStatus};
use faasm::kvs::codec as kv_codec;
use faasm::kvs::{
    CacheConfig, CachedKv, Digest, KvBackend, KvClient, KvServer, KvStore, Request, Response,
    SharedKv,
};
use faasm::mem::{LinearMemory, PAGE_SIZE};
use faasm::net::{Fabric, HostId, StreamConn, StreamKind, DEFAULT_MTU};
use faasm::sched::{decide, Decision};
use faasm::state::StateManager;
use faasm::telemetry::SpanKind;
use faasm::workloads::data::rcv1_like;
use faasm::workloads::sgd;

use crate::counters;
use crate::loadgen::{closed_loop, Driver, Limit, Verdict};
use crate::spans::Spans;
use crate::stats::{median, percentile, Rng};
use crate::workloads::coldstart_storm::{storm_options, storm_src};
use crate::workloads::fvm_compute::kernels;
use crate::workloads::ingress_null::{start_ingress, EchoDriver, ECHO_SRC, FUNCTION as ECHO};
use crate::workloads::{LAT_WINDOW, SAT_WINDOW, TENANT};

pub type Metrics = Vec<(&'static str, f64)>;

/// How much work each probe does: the full counts, or a fortieth of them
/// under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sequential calls per rung of the call ladder.
    pub ladder_calls: usize,
    /// Iterations of a microsecond-scale probe.
    pub iters: usize,
    /// Seconds of each short ingress run (stage attribution, overheads).
    pub ingress_secs: f64,
    /// Examples in, and timed epochs of, the baseline SGD job.
    pub baseline_examples: usize,
    pub baseline_epochs: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        ladder_calls: 20_000,
        iters: 2_000,
        ingress_secs: 1.5,
        baseline_examples: 8192,
        baseline_epochs: 2,
    };
    pub const SMOKE: Scale = Scale {
        ladder_calls: 500,
        iters: 50,
        ingress_secs: 0.1,
        baseline_examples: 512,
        baseline_epochs: 1,
    };
}

/// Median time of one call of `f`, in ns, over `n` individually timed calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u64> = (0..n)
        .map(|_| {
            let at = Instant::now();
            f();
            at.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&mut samples, 50.0) as f64
}

/// Median over 7 rounds of the mean time of `iters` back-to-back calls of
/// `f`, in ns: for calls too short to time one at a time.
fn batch_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..7)
        .map(|_| {
            let at = Instant::now();
            for _ in 0..iters {
                f();
            }
            at.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut rounds)
}

/// A Faaslet environment with no runtime instance behind it.
fn bare_env() -> FaasletEnv {
    let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
    FaasletEnv {
        state: Arc::new(StateManager::new(kv)),
        hostfs: faasm::vfs::HostFs::new(Arc::new(faasm::vfs::ObjectStore::new())),
        nic: Fabric::new().add_host(),
        router: Arc::new(NoChain),
        cgroup: CgroupCpu::new(1 << 22),
        linker: Arc::new(faaslet_linker()),
        egress: None,
    }
}

fn fl_def(src: &str, init: Option<&str>) -> Arc<FunctionDef> {
    let module = faasm::lang::compile(src).expect("probe source compiles");
    Arc::new(FunctionDef {
        code: GuestCode::Fvm(ObjectModule::prepare_lowered(module).expect("validates")),
        entry: "main".into(),
        init: init.map(str::to_string),
        reset_after_call: true,
    })
}

fn call_spec(input: Vec<u8>) -> CallSpec {
    CallSpec {
        id: CallId(1),
        user: TENANT.into(),
        function: ECHO.into(),
        input,
        trace: TraceCtx::NONE,
    }
}

/// One rung of the call ladder above the VM: `ladder_calls` calls through
/// one entry point at window 8, and their median latency in us.
fn rung_p50_us<T>(scale: Scale, submit: impl FnMut() -> T, complete: impl FnMut(T) -> bool) -> f64 {
    struct Rung<S, C>(S, C);
    impl<T, S: FnMut() -> T, C: FnMut(T) -> bool> Driver for Rung<S, C> {
        type Ticket = T;

        fn submit(&mut self, _i: u64) -> (T, &'static str) {
            ((self.0)(), "call")
        }

        fn complete(&mut self, ticket: T) -> Verdict {
            if (self.1)(ticket) {
                Verdict::Ok
            } else {
                Verdict::Failed
            }
        }
    }
    let phase = closed_loop(
        "rung",
        &mut Rung(submit, complete),
        LAT_WINDOW,
        Limit::Calls(scale.ladder_calls as u64),
        1,
        &mut Spans::new(false),
    );
    assert_eq!(phase.failed, 0, "a ladder call failed");
    phase.percentile_ms(None, 50.0) * 1e3
}

/// The call ladder on the null function, plus what the same ingress
/// cluster is needed for: stage attribution at window 8 and the two
/// overhead comparisons at window 64.
pub fn ingress(scale: Scale, seed: u64) -> Metrics {
    let mut out = Metrics::new();
    let payload = vec![1u8, 2, 3, 4];

    // Rung 1: the VM alone. `Faaslet::run` is `Instance::invoke` plus the
    // call context's input and output buffers.
    let env = bare_env();
    let mut faaslet =
        Faaslet::create_cold(1, TENANT, ECHO, fl_def(ECHO_SRC, None), &env).expect("cold");
    let call = call_spec(payload.clone());
    out.push((
        "fvm.null_invoke_ns",
        median_ns(scale.ladder_calls, || {
            std::hint::black_box(faaslet.run(&call));
        }),
    ));

    // Rungs 2-5 run at the `lat` phase's window, so the top rung is the
    // `p50_ms` of `ingress_null`: 2 adds run queue, warm acquire and reset;
    // 3 the front door, bus and pending map; 4 admission, fair queue and
    // dispatcher; 5 codec, stream and server loop. (One call at a time, a
    // rung would time this box waking an idle core: 27 us or 110 us for the
    // same call, from one run to the next.)
    let ingress = start_ingress();
    let host = &ingress.cluster.instances()[0];
    let echoed = |output: &[u8]| output == payload;
    let mut rung = |name, driver: &mut dyn FnMut() -> f64| out.push((name, driver()));
    rung("core.instance.warm_call_us", &mut || {
        rung_p50_us(
            scale,
            || host.submit_placed(TENANT, ECHO, payload.clone()),
            |id| echoed(&host.await_call(id).output),
        )
    });
    rung("core.bus.call_us", &mut || {
        rung_p50_us(
            scale,
            || ingress.cluster.invoke_async(TENANT, ECHO, payload.clone()),
            |id| echoed(&ingress.cluster.await_result(id).output),
        )
    });
    rung("gateway.inproc_call_us", &mut || {
        rung_p50_us(
            scale,
            || ingress.gateway.submit(TENANT, ECHO, payload.clone()),
            |ticket| echoed(&ingress.gateway.wait(ticket).output),
        )
    });
    rung("gateway.remote_call_us", &mut || {
        rung_p50_us(
            scale,
            || ingress.client.submit(TENANT, ECHO, payload.clone()).ok(),
            |ticket| ticket.is_some_and(|t| echoed(&ingress.client.wait(t).output)),
        )
    });

    let mut rng = Rng::new(seed);
    let mut run = |window: usize, spans: &mut Spans| {
        let mut driver = EchoDriver {
            ingress: &ingress,
            rng: Rng::new(rng.next_u64()),
        };
        closed_loop(
            "probe",
            &mut driver,
            window,
            Limit::For(Duration::from_secs_f64(scale.ingress_secs)),
            3,
            spans,
        )
    };

    // ROADMAP item 2(b): how much of the window-8 median no stage explains.
    let before = counters::snapshot(&ingress.cluster, Some(&ingress.gateway));
    let lat = run(LAT_WINDOW, &mut Spans::new(false));
    let after = counters::snapshot(&ingress.cluster, Some(&ingress.gateway));
    let p50_us = lat.percentile_ms(None, 50.0) * 1e3;
    let stages: f64 = [
        SpanKind::Admission,
        SpanKind::QueueSojourn,
        SpanKind::Dispatch,
        SpanKind::BusTransit,
        SpanKind::WorkerExec,
    ]
    .iter()
    .map(|&kind| counters::p50_us(&before, &after, kind))
    .sum();
    out.push(("gateway.unattributed_share", (p50_us - stages) / p50_us));

    // Recording off against on, twice over in turn, then the benchmark's
    // own spans on against off.
    let mut sat = |recording: bool, spans: bool| {
        faasm::telemetry::set_enabled(recording);
        let rps = run(SAT_WINDOW, &mut Spans::new(spans)).rps();
        faasm::telemetry::set_enabled(true);
        rps
    };
    let off = (sat(false, false) + sat(false, false)) / 2.0;
    let on = (sat(true, false) + sat(true, false)) / 2.0;
    let traced = (sat(true, true) + sat(true, true)) / 2.0;
    out.push(("telemetry.overhead_pct", (off - on) / off * 100.0));
    out.push(("benchmark.trace_overhead_pct", (on - traced) / on * 100.0));
    out
}

pub fn gateway_and_sched(scale: Scale) -> Metrics {
    let req = GatewayRequest {
        seq: 7,
        tenant: TENANT.into(),
        function: ECHO.into(),
        deadline_ms: 0,
        trace: TraceCtx::new_root(),
        input: vec![1, 2, 3, 4],
    };
    let resp = GatewayResponse {
        seq: 7,
        status: GatewayStatus::Ok,
        output: vec![1, 2, 3, 4],
    };
    let codec = batch_ns(scale.iters, || {
        let mut fb = FrameBuf::new();
        fb.feed(&gw_codec::encode_frame(&gw_codec::encode_request(&req)));
        let frame = fb.next_frame().expect("sized").expect("whole frame");
        std::hint::black_box(gw_codec::decode_request(&frame).expect("request"));
        fb.feed(&gw_codec::encode_frame(&gw_codec::encode_response(&resp)));
        let frame = fb.next_frame().expect("sized").expect("whole frame");
        std::hint::black_box(gw_codec::decode_response(&frame).expect("response"));
    });

    const JOBS: usize = 64;
    let queue = FairQueue::new();
    let stop = AtomicBool::new(false);
    let push_drain = batch_ns(scale.iters / 8 + 1, || {
        let now = Instant::now();
        for seq in 0..JOBS as u64 {
            let job = Job {
                seq,
                tenant: TENANT.into(),
                function: ECHO.into(),
                input: vec![1, 2, 3, 4],
                enqueued: now,
                deadline: now + Duration::from_secs(5),
                trace: TraceCtx::NONE,
            };
            assert!(queue.push(job, 1, 1024).is_ok());
        }
        while !queue.is_empty() {
            std::hint::black_box(queue.drain_batch(32, Duration::ZERO, &stop));
        }
    }) / JOBS as f64;

    let warm_hosts = [HostId(1), HostId(2), HostId(3), HostId(4)];
    let depths = [
        (HostId(1), 3),
        (HostId(2), 0),
        (HostId(3), 9),
        (HostId(4), 1),
    ];
    let affinity = [(HostId(2), 40u64), (HostId(3), 7)];
    let mut seed = 0;
    let decide_ns = batch_ns(scale.iters * 10, || {
        seed += 1;
        std::hint::black_box(decide(&Decision {
            this_host: HostId(1),
            warm_local: 2,
            idle_local: 0,
            warm_hosts: &warm_hosts,
            queue_depth: 12,
            seed,
            peer_depths: &depths,
            peer_affinity: &affinity,
        }));
    });

    let batch = InstanceMsg::InvokeBatch {
        calls: (0..16).map(|_| call_spec(vec![1, 2, 3, 4])).collect(),
        reply_to: HostId(1),
        sent_at_ns: 1,
    };
    let msg = batch_ns(scale.iters, || {
        std::hint::black_box(decode_msg(&encode_msg(&batch)).expect("decodes"));
    });
    vec![
        ("gateway.codec.roundtrip_ns", codec),
        ("gateway.queue.push_drain_ns", push_drain),
        ("sched.decide_ns", decide_ns),
        ("core.msg.batch_roundtrip_ns", msg),
    ]
}

/// The cold-start path below the cluster: compile, prepare, snapshot,
/// chunk, assemble, restore, all on the storm function's 3-page proto.
pub fn coldstart(scale: Scale) -> Metrics {
    let src = storm_src(1_000_000);
    let compile = median_ns(scale.iters / 10 + 1, || {
        std::hint::black_box(faasm::lang::compile(&src).expect("compiles"));
    });
    let bytes = encode_module(&faasm::lang::compile(&src).expect("compiles"));
    let prepare = median_ns(scale.iters / 10 + 1, || {
        std::hint::black_box(ObjectModule::compile_tier(&bytes, ExecTier::Lowered).expect("ok"));
    });

    let env = bare_env();
    let def = fl_def(&src, storm_options().init.as_deref());
    let mut donor = Faaslet::create_cold(1, TENANT, "storm", Arc::clone(&def), &env).expect("cold");
    let proto = donor.capture_proto().expect("FVM guest");
    let mut id = 1;
    let restore = median_ns(scale.iters, || {
        id += 1;
        std::hint::black_box(Faaslet::restore(id, &proto, Arc::clone(&def), &env).expect("ok"));
    });
    let chunk = median_ns(scale.iters / 10 + 1, || {
        std::hint::black_box(chunk_proto(&proto).expect("chunks"));
    });
    let chunked = chunk_proto(&proto).expect("chunks");
    let meta = Arc::clone(&chunked.chunks[&chunked.manifest.meta]);
    let pages: Vec<_> = chunked
        .manifest
        .pages
        .iter()
        .map(|d| Arc::clone(&chunked.chunks[d]))
        .collect();
    let assemble = median_ns(scale.iters / 10 + 1, || {
        std::hint::black_box(assemble_proto(&meta, &pages).expect("assembles"));
    });

    // Three pages dirtied since the last snapshot, then captured; restore
    // maps them back copy-on-write.
    let mut mem = LinearMemory::new(4, 256).expect("memory");
    let mut capture = Vec::new();
    let mut restore_mem = Vec::new();
    for i in 0..scale.iters {
        for page in 0..3 {
            mem.write(page * PAGE_SIZE + 8, &(i as u64).to_le_bytes())
                .expect("in bounds");
        }
        let at = Instant::now();
        let snap = mem.snapshot();
        capture.push(at.elapsed().as_nanos() as u64);
        let at = Instant::now();
        std::hint::black_box(LinearMemory::restore(&snap));
        restore_mem.push(at.elapsed().as_nanos() as u64);
    }

    let block = vec![0x5au8; 64 * 1024];
    let sha = batch_ns(scale.iters / 10 + 1, || {
        std::hint::black_box(Digest::of(&block));
    });
    vec![
        ("lang.compile_us", compile / 1e3),
        ("fvm.prepare_us", prepare / 1e3),
        ("core.faaslet.restore_us", restore / 1e3),
        ("core.snapdist.chunk_proto_us", chunk / 1e3),
        ("core.snapdist.assemble_us", assemble / 1e3),
        (
            "mem.snapshot_capture_us",
            percentile(&mut capture, 50.0) as f64 / 1e3,
        ),
        (
            "mem.snapshot_restore_us",
            percentile(&mut restore_mem, 50.0) as f64 / 1e3,
        ),
        // bytes per ns is GB/s; x1000 is MB/s.
        (
            "kvs.content.sha256_mb_per_s",
            block.len() as f64 / sha * 1e3,
        ),
    ]
}

/// One kernel on one tier: (source instructions per invoke, engine
/// dispatches per invoke, seconds per invoke).
fn time_kernel(fl: &str, tier: ExecTier) -> (u64, u64, f64) {
    let module = faasm::lang::compile(fl).expect("kernel compiles");
    let object = ObjectModule::prepare_tier(module, tier).expect("validates");
    let mut inst = Instance::new(object, &faaslet_linker(), Box::new(())).expect("links");
    let args = [Val::I32(12_345)];
    inst.fuel.reset_consumed();
    inst.reset_instrs();
    inst.invoke("kernel", &args).expect("runs");
    let (fuel, dispatches) = (inst.fuel.consumed(), inst.instrs_retired());
    let secs = median_ns(9, || {
        std::hint::black_box(inst.invoke("kernel", &args).expect("runs"));
    }) / 1e9;
    (fuel, dispatches, secs)
}

/// The plugin of the `dlcall` probe: the arithmetic kernel behind the
/// `dl_entry(buf, len) -> len` convention.
const PLUGIN_SRC: &str = r#"
    int dl_entry(ptr int buf, int len) {
        int x = buf[0];
        int acc = x;
        for (int i = 0; i < 56000; i = i + 1) { acc = acc + (i ^ x); }
        buf[0] = acc;
        return 4;
    }
"#;

/// Loads `plugin.fvm`, resolves `dl_entry` and calls it once on the input.
const DLCALL_SRC: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern int dlopen(ptr int path, int len);
    extern int dlsym(int handle, ptr int name, int len);
    extern int dlcall(int sym, ptr int arg, int arg_len, ptr int out, int out_cap);
    int main() {
        ptr int p = (ptr int) 64;
        p[0] = 0x67756c70; // "plug"
        p[1] = 0x662e6e69; // "in.f"
        p[2] = 0x6d76;     // "vm"
        int h = dlopen((ptr int) 64, 10);
        if (h < 0) { return 1; }
        ptr int n = (ptr int) 128;
        n[0] = 0x655f6c64; // "dl_e"
        n[1] = 0x7972746e; // "ntry"
        int sym = dlsym(h, (ptr int) 128, 8);
        if (sym < 0) { return 2; }
        read_call_input((ptr int) 192, 4);
        if (dlcall(sym, (ptr int) 192, 4, (ptr int) 256, 4) != 4) { return 3; }
        write_call_output((ptr int) 256, 4);
        return 0;
    }
"#;

pub fn fvm(scale: Scale) -> Metrics {
    let mut out = Metrics::new();
    let (mut fuel_sum, mut dispatch_sum) = (0, 0);
    let names = [
        "fvm.arith_minstr_per_s",
        "fvm.memory_minstr_per_s",
        "fvm.call_minstr_per_s",
        "fvm.float_minstr_per_s",
    ];
    for (kernel, name) in kernels().iter().zip(names) {
        let (fuel, dispatches, secs) = time_kernel(&kernel.fl, ExecTier::Lowered);
        out.push((name, fuel as f64 / 1e6 / secs));
        fuel_sum += fuel;
        dispatch_sum += dispatches;
    }
    // Source instructions per engine dispatch, over the four kernels.
    out.push(("fvm.fused_width", fuel_sum as f64 / dispatch_sum as f64));
    let (fuel, _, secs) = time_kernel(&kernels()[0].fl, ExecTier::Interpreter);
    out.push(("fvm.interp_arith_minstr_per_s", fuel as f64 / 1e6 / secs));

    // The plugin's instruction count comes from running it bare; the time
    // from calling it through a Faaslet's dlopen / dlsym / dlcall.
    let plugin = faasm::lang::compile(PLUGIN_SRC).expect("plugin compiles");
    let plugin_bytes = encode_module(&plugin);
    let mut bare = Instance::new(
        ObjectModule::prepare(plugin).expect("validates"),
        &Linker::new(),
        Box::new(()),
    )
    .expect("links");
    bare.invoke("dl_entry", &[Val::I32(4096), Val::I32(4)])
        .expect("plugin runs");
    let plugin_fuel = bare.fuel.consumed();
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 1,
        ..ClusterConfig::default()
    });
    cluster
        .object_store()
        .put(&format!("user:{TENANT}/plugin.fvm"), plugin_bytes);
    cluster
        .upload_fl(TENANT, "dlcall", DLCALL_SRC, Default::default())
        .expect("upload dlcall");
    let host = &cluster.instances()[0];
    let secs = median_ns(scale.iters / 100 + 3, || {
        let r = host.invoke_local(TENANT, "dlcall", 12_345i32.to_le_bytes().to_vec());
        assert_eq!(r.return_code(), 0, "dlcall guest: {:?}", r.status);
    }) / 1e9;
    out.push(("fvm.dlcall_minstr_per_s", plugin_fuel as f64 / 1e6 / secs));
    out
}

/// The state tier below the host interface: bulk chunk I/O, the KVS client
/// at replication 1 and 2, codec, cache.
pub fn state_and_kvs(scale: Scale) -> Metrics {
    let mut out = Metrics::new();

    // A 256 KiB value in 64 chunks, one batched round trip each way.
    const VALUE: usize = 256 * 1024;
    let fabric = Fabric::new();
    let server = KvServer::start(fabric.add_host(), 2);
    let kv: SharedKv = Arc::new(KvClient::connect(fabric.add_host(), server.host_id()));
    kv.set("bulk", vec![7; VALUE]).expect("set");
    let manager = StateManager::with_chunk_size(Arc::clone(&kv), VALUE / 64);
    let entry = manager.get("bulk", VALUE).expect("entry");
    let bulk = vec![9u8; VALUE];
    let (mut pull, mut push) = (Vec::new(), Vec::new());
    for _ in 0..scale.iters / 20 + 3 {
        entry.invalidate();
        let at = Instant::now();
        entry.pull().expect("pull");
        pull.push(at.elapsed().as_nanos() as u64);
        entry.write(0, &bulk).expect("write");
        let at = Instant::now();
        entry.push().expect("push");
        push.push(at.elapsed().as_nanos() as u64);
    }
    out.push(("state.pull_ms", percentile(&mut pull, 50.0) as f64 / 1e6));
    out.push(("state.push_ms", percentile(&mut push, 50.0) as f64 / 1e6));

    let request = Request::Set {
        key: "probe:key".into(),
        value: vec![3; 4096],
    };
    out.push((
        "kvs.codec.roundtrip_ns",
        batch_ns(scale.iters, || {
            let bytes = kv_codec::encode_request(&request);
            std::hint::black_box(kv_codec::decode_request(&bytes).expect("request"));
            let bytes = kv_codec::encode_response(&Response::Ok);
            std::hint::black_box(kv_codec::decode_response(&bytes).expect("response"));
        }),
    ));
    drop(entry);
    drop(manager);
    drop(kv);
    server.shutdown();

    // The same client calls against a 2-shard tier, unreplicated and then
    // with every write waiting on a backup.
    let tier = |replication_factor| {
        Cluster::with_config(ClusterConfig {
            hosts: 1,
            state_shards: 2,
            replication_factor,
            ..ClusterConfig::default()
        })
    };
    let r1 = tier(1);
    let kv = r1.kv();
    kv.set("probe:key", vec![3; 4096]).expect("set");
    out.push((
        "kvs.client.get_us",
        median_ns(scale.iters, || {
            std::hint::black_box(kv.get("probe:key").expect("get"));
        }) / 1e3,
    ));
    out.push((
        "kvs.client.set_us",
        median_ns(scale.iters, || {
            kv.set("probe:key", vec![3; 4096]).expect("set")
        }) / 1e3,
    ));
    let chunks: Vec<String> = (0..4).map(|i| format!("probe:chunk{i}")).collect();
    for key in &chunks {
        kv.set(key, vec![5; 64 * 1024]).expect("set");
    }
    out.push((
        "kvs.multiget_us",
        median_ns(scale.iters / 4 + 1, || {
            std::hint::black_box(kv.multi_get(&chunks).expect("multi_get"));
        }) / 1e3,
    ));
    let cache = CachedKv::new(Arc::clone(kv), CacheConfig::default());
    cache.get("probe:key").expect("miss");
    out.push((
        "kvs.cache.hit_ns",
        batch_ns(scale.iters, || {
            std::hint::black_box(cache.get("probe:key").expect("hit"));
        }),
    ));
    drop(cache);
    drop(r1);
    let r2 = tier(2);
    out.push((
        "kvs.client.set_r2_us",
        median_ns(scale.iters / 4 + 1, || {
            r2.kv().set("probe:key", vec![3; 4096]).expect("set");
        }) / 1e3,
    ));
    out
}

pub fn net_and_telemetry(scale: Scale) -> Metrics {
    let fabric = Fabric::new();
    let (a, b) = (fabric.add_host(), fabric.add_host());
    let b_id = b.id();

    // 64 B echoed between two NICs; an empty message stops the echo side.
    let echo = std::thread::spawn(move || {
        while let Ok(env) = b.recv() {
            if env.payload.is_empty() {
                return b;
            }
            b.respond(&env, env.payload.clone()).expect("respond");
        }
        b
    });
    let roundtrip = median_ns(scale.iters, || {
        std::hint::black_box(a.call(b_id, vec![0; 64]).expect("echo"));
    });
    a.send(b_id, Vec::new()).expect("stop echo");
    let b = echo.join().expect("echo thread");

    // 1 MiB through a stream connection at the default MTU.
    const STREAM_BYTES: usize = 1024 * 1024;
    let rounds = scale.iters / 100 + 3;
    let sink = std::thread::spawn(move || {
        let mut seen = 0;
        while seen < STREAM_BYTES * rounds {
            let env = b.recv().expect("stream data");
            if let Some(msg) = faasm::net::stream::decode_stream_msg(&env.payload) {
                if msg.kind == StreamKind::Data {
                    seen += msg.bytes.len();
                }
            }
        }
    });
    let conn = StreamConn::open(a.clone(), b_id, DEFAULT_MTU).expect("open stream");
    let payload = vec![0xabu8; STREAM_BYTES];
    let at = Instant::now();
    for _ in 0..rounds {
        conn.send(&payload).expect("send");
    }
    sink.join().expect("sink thread");
    let stream_secs = at.elapsed().as_secs_f64();

    // Recorded under a kind no per-layer metric reads.
    let recorder = faasm::telemetry::tier("benchmark");
    let ctx = TraceCtx::new_root();
    let span = batch_ns(scale.iters * 10, || {
        recorder.span(SpanKind::Revalidate, ctx, faasm::telemetry::now_ns(), 0);
    });
    vec![
        ("net.roundtrip_us", roundtrip / 1e3),
        (
            "net.stream_mb_per_s",
            (STREAM_BYTES * rounds) as f64 / 1e6 / stream_secs,
        ),
        ("telemetry.span_ns", span),
    ]
}

const BASELINE_IMAGE: ImageConfig = ImageConfig {
    image_bytes: 2 * 1024 * 1024,
    layers: 5,
    boot_passes: 4,
};

struct NoHttp;

impl HttpRouter for NoHttp {
    fn chain_call(&self, _user: &str, _function: &str, _input: Vec<u8>) -> CallId {
        CallId(0)
    }

    fn await_call(&self, id: CallId) -> CallResult {
        CallResult::error(id, "no gateway")
    }
}

/// The denominator of the paper's Fig. 6 ratios: the `train_sgd` job on
/// the container platform.
pub fn baseline_sgd(scale: Scale, seed: u64) -> Metrics {
    let platform = BaselinePlatform::with_config(BaselineConfig {
        hosts: 2,
        workers: 4,
        image: BASELINE_IMAGE,
        ..BaselineConfig::default()
    });
    sgd::register_baseline(&platform, TENANT);
    let examples = scale.baseline_examples;
    let dataset = rcv1_like(examples, 2048, 24, seed);
    sgd::upload_dataset(platform.kv().as_ref(), &dataset).expect("upload dataset");
    let tasks = sgd::partition(examples as u32, 8, 2048, 0.5, 32);
    let epoch = || {
        let at = Instant::now();
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| platform.invoke_async(TENANT, "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            assert_eq!(platform.await_result(id).return_code(), 0, "baseline task");
        }
        at.elapsed().as_secs_f64()
    };
    epoch();
    let net_before =
        platform.fabric().stats().total_bytes() + platform.object_store().pulled_bytes();
    let mut epochs: Vec<f64> = (0..scale.baseline_epochs).map(|_| epoch()).collect();
    let net = platform.fabric().stats().total_bytes() + platform.object_store().pulled_bytes()
        - net_before;
    vec![
        (
            "baseline.train_examples_per_s",
            examples as f64 / median(&mut epochs),
        ),
        (
            "baseline.net_mb_per_epoch",
            net as f64 / 1e6 / scale.baseline_epochs as f64,
        ),
        ("baseline.mem_mb", platform.resident_bytes() as f64 / 1e6),
    ]
}

/// The denominator of the paper's Table 3 ratio: a container cold start.
pub fn baseline_cold_start(scale: Scale) -> Metrics {
    let bytes: Vec<u8> = (0..BASELINE_IMAGE.image_bytes).map(|i| i as u8).collect();
    let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
    let router: Arc<dyn HttpRouter> = Arc::new(NoHttp);
    let mut id = 0;
    let cold = median_ns(scale.iters / 100 + 3, || {
        id += 1;
        std::hint::black_box(Container::cold_start(
            id,
            TENANT,
            "noop",
            &bytes,
            &BASELINE_IMAGE,
            Arc::clone(&kv),
            Arc::clone(&router),
        ));
    });
    vec![("baseline.cold_start_ms", cold / 1e6)]
}

/// The probes of the layers `workload` stresses. Each probe runs in one
/// workload's traced process, so a traced set times it once.
pub fn of(workload: &str, scale: Scale, seed: u64) -> Metrics {
    match workload {
        "ingress_null" => {
            let mut out = ingress(scale, seed);
            out.extend(gateway_and_sched(scale));
            out.extend(net_and_telemetry(scale));
            out
        }
        "fvm_compute" => fvm(scale),
        "state_mix" => state_and_kvs(scale),
        "train_sgd" => baseline_sgd(scale, seed),
        "coldstart_storm" => {
            let mut out = coldstart(scale);
            out.extend(baseline_cold_start(scale));
            out
        }
        _ => Metrics::new(),
    }
}
