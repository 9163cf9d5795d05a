//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! Usage: `cargo run -p faasm-bench --release --bin figures [EXPERIMENT]`
//! where EXPERIMENT is one of `fig6`, `fig6-small`, `fig7`, `fig8`, `fig9a`,
//! `fig9b`, `table3`, `fig10`, `shards`, `replicas`, `trace`, `metrics`,
//! `cache`, `coldstart`, or `all` (default; excludes the telemetry,
//! fault-injection, cache and coldstart commands).
//!
//! `replicas` boots a replication-factor-2 tier, prints the per-slot
//! replica roles (primary/backup key counts), replication lag and the
//! quorum-wait tail, then kills a primary and shows the liveness monitor's
//! failover: the promoted table, the post-failover roles and the flight
//! recorder's anomaly snapshot.
//!
//! `cache` storms the function-side state cache with a zipfian read-heavy
//! mix at each consistency tier (plus an uncached baseline and a
//! live-reshard run), printing per-tier hit rates, throughput and the
//! hot-key → owning-shard view: the live-reshard run's hits per key, as a
//! `touch_scope` counts them for the affinity board; pass `json` for a
//! machine-readable dump.
//!
//! `coldstart` measures the snapshot-distribution resolve paths: first-call
//! latency local-restore vs chunk-fetch vs cold-start, the cross-version
//! chunk dedup ratio, and the host-local snapshot-cache hit rate; pass
//! `json` for a machine-readable dump. `BENCH_coldstart.json` holds the
//! longer scale-up-storm numbers.
//!
//! `trace` runs a built-in scenario — a gateway storm over a
//! state-touching function with a live reshard mid-storm — then renders
//! one call's cross-tier span tree; pass `json` for the machine-readable
//! dump. `metrics` runs the same scenario and prints the cluster-wide
//! per-tier histogram table plus gateway counters (`json` likewise).
//!
//! Workloads are scaled to laptop size (factors printed with each figure).
//! Shapes — who wins, the crossovers, the saturation knees — are the
//! reproduction target, not absolute values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_bench::{
    baseline_platform, faasm_cluster, fmt_dur, fmt_mb, median, percentile, time, Table,
};
use faasm_core::faaslet::{Faaslet, FaasletEnv};
use faasm_core::{faaslet_linker, CgroupCpu, FunctionDef, GuestCode, NoChain};
use faasm_workloads::data::{rcv1_like, synth_images};
use faasm_workloads::minidyn::programs as dynprogs;
use faasm_workloads::polybench;
use faasm_workloads::{inference, matmul, sgd};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "fig6" {
        fig6();
    }
    if all || which == "fig6-small" {
        fig6_small();
    }
    if all || which == "fig7" {
        fig7();
    }
    if all || which == "fig8" {
        fig8();
    }
    if all || which == "fig9a" {
        fig9a();
    }
    if all || which == "fig9b" {
        fig9b();
    }
    if all || which == "table3" {
        table3();
    }
    if all || which == "fig10" {
        fig10();
    }
    if all || which == "shards" {
        shard_skew();
    }
    if which == "replicas" {
        replicas_cmd();
    }
    if which == "trace" {
        trace_cmd(std::env::args().nth(2).as_deref() == Some("json"));
    }
    if which == "metrics" {
        metrics_cmd(std::env::args().nth(2).as_deref() == Some("json"));
    }
    if which == "cache" {
        cache_cmd(std::env::args().nth(2).as_deref() == Some("json"));
    }
    if which == "vm" {
        vm_cmd();
    }
    if which == "coldstart" {
        coldstart_cmd(std::env::args().nth(2).as_deref() == Some("json"));
    }
}

// ── Cold start: snapshot-distribution resolve paths ─────────────────────

/// First-call latency down each proto resolve path (pre-staged local
/// restore, chunk fetch from the tier, full cold start), plus the
/// cross-version dedup ratio and the snapshot-cache hit rate. Quick
/// in-process runs of the `coldstart` bench's experiments;
/// `BENCH_coldstart.json` holds the longer scale-up-storm numbers.
fn coldstart_cmd(json: bool) {
    use faasm_core::{ChainRouter, UploadOptions};

    let storm_src = |seed: u32| -> String {
        format!(
            r#"
            extern int input_size();
            extern int read_call_input(ptr int buf, int len);
            extern void write_call_output(ptr int buf, int len);
            int init() {{
                ptr int a = (ptr int) 1024;
                for (int i = 0; i < 8000; i = i + 1) {{ a[i] = {seed} + i; }}
                ptr int b = (ptr int) 65536;
                for (int i = 0; i < 8000; i = i + 1) {{ b[i] = i * 3; }}
                ptr int c = (ptr int) 131072;
                for (int i = 0; i < 8000; i = i + 1) {{ c[i] = i * 5; }}
                return 0;
            }}
            int main() {{
                int n = input_size();
                read_call_input((ptr int) 512, n);
                write_call_output((ptr int) 512, n);
                return 0;
            }}
            "#
        )
    };
    let opts = || UploadOptions {
        init: Some("init".into()),
        ..UploadOptions::default()
    };

    // First-call latencies, median over fresh clusters per path.
    const SAMPLES: usize = 5;
    let (mut cold, mut fetch, mut prestaged) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let cluster = faasm_cluster(3, 2);
        cluster
            .upload_fl("fig", "work", &storm_src(1_000_000), opts())
            .unwrap();
        let hosts = cluster.instances();
        let t0 = Instant::now();
        hosts[0].invoke_local("fig", "work", vec![1]);
        cold.push(t0.elapsed());
        let t0 = Instant::now();
        let id = hosts[1].submit_placed("fig", "work", vec![2]);
        hosts[1].await_call(id);
        fetch.push(t0.elapsed());
        hosts[0].push_prestage("fig", "work", hosts[2].host_id());
        for _ in 0..2_000 {
            if hosts[2].has_proto("fig", "work") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        let id = hosts[2].submit_placed("fig", "work", vec![3]);
        hosts[2].await_call(id);
        prestaged.push(t0.elapsed());
    }
    let (cold, fetch, prestaged) = (median(cold), median(fetch), median(prestaged));

    // Dedup across two proto versions differing in one dirtied page, and
    // the cache hit rate on a host that fetches both: v2's shared chunks
    // come out of the snapshot cache, not the tier.
    let cluster = faasm_cluster(2, 2);
    for (f, seed) in [("work_v1", 1_000_000), ("work_v2", 2_000_000)] {
        cluster
            .upload_fl("fig", f, &storm_src(seed), opts())
            .unwrap();
    }
    let a = &cluster.instances()[0];
    let b = &cluster.instances()[1];
    a.invoke_local("fig", "work_v1", vec![1]);
    let before = cluster.telemetry();
    a.invoke_local("fig", "work_v2", vec![1]);
    for f in ["work_v1", "work_v2"] {
        let id = b.submit_placed("fig", f, vec![1]);
        b.await_call(id);
    }
    // Publishing is host A's alone and fetching host B's, so the cluster
    // totals over the window are each side's numbers.
    let window = cluster.telemetry().delta(&before);
    let snap = |name| window.get("snapdist", name);
    let (published, deduped) = (snap("chunks_published"), snap("chunks_deduped"));
    let dedup_ratio = deduped as f64 / (published + deduped).max(1) as f64;
    let (hits, fetched) = (snap("chunk_hits"), snap("chunks_fetched"));
    let hit_rate = hits as f64 / (hits + fetched).max(1) as f64;

    if json {
        println!(
            "{{\"figure\": \"coldstart\", \"first_call_ns\": {{\"cold\": {}, \"fetch_restore\": {}, \"prestaged_restore\": {}}}, \"dedup_ratio\": {:.4}, \"cache_hit_rate\": {:.4}}}",
            cold.as_nanos(),
            fetch.as_nanos(),
            prestaged.as_nanos(),
            dedup_ratio,
            hit_rate,
        );
        return;
    }
    println!("\n=== Cold start: snapshot-distribution resolve paths ===");
    let mut table = Table::new(&["resolve path", "first-call latency", "vs cold"]);
    for (path, t) in [
        ("pre-staged restore", prestaged),
        ("chunk-fetch restore", fetch),
        ("cold start", cold),
    ] {
        table.row(&[
            path.to_string(),
            fmt_dur(t),
            format!("{:.1}x", cold.as_secs_f64() / t.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    println!(
        "cross-version dedup: {deduped}/{} chunks shared ({:.0}%); fetch-side snapshot-cache hit rate {:.0}% ({} hits / {} tier fetches)",
        published + deduped,
        dedup_ratio * 100.0,
        hit_rate * 100.0,
        hits,
        fetched,
    );
}

// ── VM: execution-tier dispatch throughput ──────────────────────────────

/// Interpreter-vs-lowered instrs/s on the `vm_dispatch` loops. A quick
/// in-process run of the same harness as the bench; `BENCH_vm.json` holds
/// the longer-sampled numbers.
fn vm_cmd() {
    use faasm_bench::vm_tiers::{measure, workloads};

    println!("\n=== FVM execution tiers: source instrs/s by workload ===");
    let mut table = Table::new(&[
        "workload",
        "instrs/invoke",
        "interp Mi/s",
        "lowered Mi/s",
        "speedup",
        "fused width",
    ]);
    for w in workloads() {
        let p = measure(&w, 5, 5);
        table.row(&[
            p.workload.to_string(),
            p.fuel_per_invoke.to_string(),
            format!("{:.1}", p.interp_ips / 1e6),
            format!("{:.1}", p.lowered_ips / 1e6),
            format!("{:.2}x", p.speedup()),
            format!(
                "{:.2}",
                p.fuel_per_invoke as f64 / p.lowered_dispatches as f64
            ),
        ]);
    }
    table.print();
}

// ── Cache: consistency tiers under a zipfian storm ──────────────────────

/// One storm's worth of numbers for the `cache` exhibit.
struct CacheRow {
    series: String,
    reads_per_sec: f64,
    hit_rate: f64,
    revalidations: u64,
    invalidations: u64,
}

/// Storm the function-side state cache at every consistency tier over the
/// same zipfian working set, next to an uncached baseline; the last run
/// takes a live reshard mid-storm so the epoch-checked invalidation shows
/// up as revalidations instead of stale serves.
fn cache_cmd(json: bool) {
    use faasm_kvs::cache::touch_scope;
    use faasm_kvs::{CacheConfig, CachedKv, Consistency, KvBackend, SharedKv};

    const KEYS: usize = 64;
    const VALUE_BYTES: usize = 4096;
    const OPS: usize = 20_000;

    let cluster = Arc::new(faasm_core::Cluster::with_config(
        faasm_core::ClusterConfig {
            hosts: 2,
            state_shards: 2,
            ..faasm_core::ClusterConfig::default()
        },
    ));
    for i in 0..KEYS {
        cluster
            .kv()
            .set(&format!("zipf:{i}"), vec![i as u8; VALUE_BYTES])
            .unwrap();
    }
    // Zipf(~1.1) cumulative weights + deterministic xorshift, as in the
    // cache_locality example.
    let mut cum = Vec::with_capacity(KEYS);
    let mut acc = 0.0;
    for rank in 0..KEYS {
        acc += 1.0 / ((rank + 1) as f64).powf(1.1);
        cum.push(acc);
    }
    let total = *cum.last().expect("non-empty");
    let storm = |reader: &dyn KvBackend, reshard_at: Option<usize>| -> (f64, usize) {
        let mut rng = 0x5eed_cafe_f00d_u64;
        let mut reads = 0usize;
        let t0 = Instant::now();
        for op in 0..OPS {
            if Some(op) == reshard_at {
                cluster.add_state_shard().expect("live reshard");
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let x = (rng >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cum.iter().position(|c| *c >= x).unwrap_or(KEYS - 1);
            let key = format!("zipf:{rank}");
            if rng.is_multiple_of(10) {
                reader.set(&key, rng.to_le_bytes().to_vec()).unwrap();
            } else {
                assert!(reader.get(&key).unwrap().is_some(), "{key} missing");
                reads += 1;
            }
        }
        (t0.elapsed().as_secs_f64(), reads)
    };

    let mut rows = Vec::new();
    let (secs, reads) = storm(cluster.kv().as_ref(), None);
    rows.push(CacheRow {
        series: "uncached".into(),
        reads_per_sec: reads as f64 / secs,
        hit_rate: 0.0,
        revalidations: 0,
        invalidations: 0,
    });
    let mut hot: Vec<(String, u64)> = Vec::new();
    for (label, mode, reshard) in [
        ("eventual", Consistency::Eventual, None),
        ("read_your_writes", Consistency::ReadYourWrites, None),
        ("strong", Consistency::Strong, None),
        (
            "ryw + live reshard",
            Consistency::ReadYourWrites,
            Some(OPS / 2),
        ),
    ] {
        let cache = CachedKv::new(
            Arc::clone(cluster.kv()) as SharedKv,
            CacheConfig {
                default_consistency: mode,
                ..CacheConfig::default()
            },
        );
        // The storm runs on this thread: one scope counts its cache hits
        // per key, the view a worker reports to the affinity board.
        let touched = touch_scope();
        let (secs, reads) = storm(&cache, reshard);
        let touched = touched.finish();
        let stats = cache.stats();
        rows.push(CacheRow {
            series: label.into(),
            reads_per_sec: reads as f64 / secs,
            hit_rate: stats.hit_rate(),
            revalidations: stats.revalidations,
            invalidations: stats.invalidations,
        });
        if reshard.is_some() {
            hot = touched;
        }
    }

    let shard_count = cluster.state_shard_count();
    if json {
        let rows_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"series\":\"{}\",\"reads_per_sec\":{:.0},\"hit_rate\":{:.4},\"revalidations\":{},\"invalidations\":{}}}",
                    r.series, r.reads_per_sec, r.hit_rate, r.revalidations, r.invalidations
                )
            })
            .collect();
        let hot_json: Vec<String> = hot
            .iter()
            .take(8)
            .map(|(k, n)| {
                format!(
                    "{{\"key\":\"{k}\",\"hits\":{n},\"shard\":{}}}",
                    faasm_kvs::shard_index_for(k, shard_count)
                )
            })
            .collect();
        println!(
            "{{\"keys\":{KEYS},\"value_bytes\":{VALUE_BYTES},\"ops\":{OPS},\"series\":[{}],\"hot_keys\":[{}]}}",
            rows_json.join(","),
            hot_json.join(",")
        );
        return;
    }
    println!("\n=== Function-side state cache: consistency tiers under a zipfian storm ===");
    println!("{KEYS} keys x {VALUE_BYTES} B, {OPS} ops (90% reads), zipf s=1.1");
    let mut t = Table::new(&[
        "series",
        "reads/s",
        "hit rate",
        "revalidations",
        "invalidations",
    ]);
    for r in &rows {
        t.row(&[
            r.series.clone(),
            format!("{:.0}", r.reads_per_sec),
            if r.series == "uncached" {
                "-".into()
            } else {
                format!("{:.1}%", r.hit_rate * 100.0)
            },
            r.revalidations.to_string(),
            r.invalidations.to_string(),
        ]);
    }
    t.print();
    println!("hot keys → owning shard (the affinity board's placement signal):");
    for (k, n) in hot.iter().take(8) {
        println!(
            "  {k} x{n} → shard {}",
            faasm_kvs::shard_index_for(k, shard_count)
        );
    }
    println!("shape: eventual ≥ ryw ≫ strong ≈ uncached; the reshard run trades");
    println!("a revalidation burst at the epoch bump for zero stale serves.");

    // Per-instance view: the same cache wired into every instance
    // (`cache_bytes`), a state-bound function (invalidate + re-pull a
    // shared model each call, like a model server), and the affinity
    // board the placement decision reads — occupancy and placement share.
    let cluster = Arc::new(faasm_core::Cluster::with_config(
        faasm_core::ClusterConfig {
            hosts: 2,
            cache_bytes: 16 << 20,
            ..faasm_core::ClusterConfig::default()
        },
    ));
    const MODEL_BYTES: usize = 256 * 1024;
    cluster
        .kv()
        .set("figures:model", vec![3u8; MODEL_BYTES])
        .unwrap();
    let guest: Arc<dyn faasm_core::NativeGuest> =
        Arc::new(|api: &mut faasm_core::NativeApi<'_>| {
            let entry = api
                .state("figures:model", MODEL_BYTES)
                .map_err(faasm_fvm::Trap::host)?;
            entry.invalidate();
            entry.pull().map_err(faasm_fvm::Trap::host)?;
            let mut buf = [0u8; 64];
            entry.read(0, &mut buf).map_err(faasm_fvm::Trap::host)?;
            api.write_output(&buf[..8]);
            Ok(0)
        });
    cluster.register_native("cachefig", "modelread", guest, false);
    for _ in 0..32 {
        let r = cluster.invoke("cachefig", "modelread", Vec::new());
        assert_eq!(r.return_code(), 0, "{:?}", r.status);
    }
    let hosts: Vec<faasm_net::HostId> = cluster.instances().iter().map(|i| i.host_id()).collect();
    let affinity = cluster.boards().affinities("cachefig", "modelread", &hosts);
    let total_affinity: u64 = affinity.iter().map(|(_, a)| a).sum();
    let mut t = Table::new(&[
        "instance",
        "cached bytes",
        "hits",
        "misses",
        "affinity share",
    ]);
    for row in cluster.telemetry().rows("kvs-cache") {
        let inst = &cluster.instances()[row.slot];
        let cache = inst.cache().expect("a kvs-cache row means a cache");
        let score = affinity
            .iter()
            .find(|(h, _)| *h == inst.host_id())
            .map_or(0, |(_, a)| *a);
        t.row(&[
            format!("host {}", inst.host_id().0),
            cache.cached_bytes().to_string(),
            row.get("hits").to_string(),
            row.get("misses").to_string(),
            if total_affinity == 0 {
                "-".into()
            } else {
                format!("{:.0}%", score as f64 / total_affinity as f64 * 100.0)
            },
        ]);
    }
    println!("\nper-instance caches after 32 model-serving calls (256 KiB model):");
    t.print();
}

// ── Telemetry: one call's span tree, cluster-wide metrics ───────────────

/// The built-in telemetry scenario: a gateway in front of a 2-host cluster
/// with a sharded state tier, a function doing real state I/O per call, a
/// storm of gateway calls with a live reshard in the middle (so some state
/// round-trips park on `WrongEpoch` and retry), and finally one traced
/// call whose span tree is the exhibit. Returns that call's trace id and
/// the gateway (for its metrics snapshot).
fn telemetry_scenario() -> (u64, faasm_gateway::Gateway, Arc<faasm_core::Cluster>) {
    let cluster = Arc::new(faasm_core::Cluster::with_config(
        faasm_core::ClusterConfig {
            hosts: 2,
            state_shards: 2,
            ..faasm_core::ClusterConfig::default()
        },
    ));
    // A state-touching native function: read-modify-write a shared
    // accumulator row, then push — one pull and one push per call.
    let guest: Arc<dyn faasm_core::NativeGuest> =
        Arc::new(|api: &mut faasm_core::NativeApi<'_>| {
            let slot = api.input().first().copied().unwrap_or(0) as usize;
            let entry = api
                .state("telemetry:acc", 4096)
                .map_err(faasm_fvm::Trap::host)?;
            let mut buf = [0u8; 8];
            entry
                .read(slot * 8, &mut buf)
                .map_err(faasm_fvm::Trap::host)?;
            let v = u64::from_le_bytes(buf).wrapping_add(1);
            entry
                .write(slot * 8, &v.to_le_bytes())
                .map_err(faasm_fvm::Trap::host)?;
            entry.push().map_err(faasm_fvm::Trap::host)?;
            api.write_output(&v.to_le_bytes());
            Ok(0)
        });
    cluster.register_native("tel", "bump", guest, false);
    // An FVM guest alongside the native one, so the runtime metrics show
    // guest CPU (fuel + retired ops on the lowered tier).
    cluster
        .upload_fl(
            "tel",
            "spin",
            r"
            int main() {
                int acc = 0;
                int i = 0;
                while (i < 2000) { acc = acc + i * 3; i = i + 1; }
                return 0;
            }
            ",
            faasm_core::UploadOptions::default(),
        )
        .expect("upload spin");
    let gw = faasm_gateway::Gateway::start(
        Arc::clone(&cluster),
        faasm_gateway::GatewayConfig::default(),
    );

    // Storm with a live reshard in the middle: the epoch bump parks
    // in-flight state ops on `WrongEpoch`, producing retry spans.
    let mut tickets = Vec::new();
    for i in 0..128u8 {
        tickets.push(gw.submit("tel", "bump", vec![i % 64]));
        if i % 8 == 0 {
            tickets.push(gw.submit("tel", "spin", vec![]));
        }
        if i == 64 {
            cluster.add_state_shard().expect("live shard join");
        }
    }
    for t in tickets {
        let _ = gw.wait(t);
    }

    // The exhibit: traced calls racing a second live reshard. A call whose
    // state round-trip lands while the tier is frozen parks on `WrongEpoch`
    // and retries — that park shows up as a span in its tree. Prefer such
    // a call; fall back to the last traced call if the race never lands.
    let resharder = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            cluster.add_state_shard().expect("live shard join");
        })
    };
    let trace_id = loop {
        let done = resharder.is_finished();
        let (resp, tid) = gw.call_traced("tel", "bump", vec![7]);
        assert!(
            matches!(resp.status, faasm_gateway::GatewayStatus::Ok),
            "traced call failed: {:?}",
            resp.status
        );
        let kinds = faasm_bench::telemetry_export::trace_kinds(tid);
        if kinds.contains(&faasm_telemetry::SpanKind::WrongEpochRetry) || done {
            break tid;
        }
    };
    resharder.join().expect("resharder thread");
    (trace_id, gw, cluster)
}

fn trace_cmd(json: bool) {
    let (trace_id, _gw, _cluster) = telemetry_scenario();
    if json {
        println!(
            "{}",
            faasm_bench::telemetry_export::trace_tree_json(trace_id)
        );
        return;
    }
    println!(
        "
=== One gateway call, admission to state and back ==="
    );
    print!(
        "{}",
        faasm_bench::telemetry_export::render_trace_tree(trace_id)
    );
}

fn metrics_cmd(json: bool) {
    let (_, gw, _cluster) = telemetry_scenario();
    let t = gw.telemetry();
    if json {
        println!("{}", faasm_bench::telemetry_export::metrics_json(&t));
        return;
    }
    println!(
        "
=== Cluster-wide telemetry snapshot ==="
    );
    faasm_bench::telemetry_export::print_metrics_table(&t);
    let delay = t.hist("gateway", "queue_delay");
    let shed = ["shed_overloaded", "shed_ratelimited", "shed_expired"].map(|n| t.get("gateway", n));
    println!(
        "gateway: {} admitted, {} completed, {} shed; {} batches ({:.1} calls/batch); queue delay p50 {}us p99 {}us",
        t.get("gateway", "admitted"),
        t.get("gateway", "completed"),
        shed.iter().sum::<u64>(),
        t.get("gateway", "batches"),
        t.get("gateway", "batch_items") as f64 / t.get("gateway", "batches").max(1) as f64,
        delay.percentile(50.0) / 1_000,
        delay.percentile(99.0) / 1_000,
    );
    // The guest-CPU pair: fuel (source instructions, tier-independent) and
    // retired ops (engine dispatches — fewer on the lowered tier).
    let (fuel, instrs) = (t.get("worker", "fuel"), t.get("worker", "guest_instrs"));
    println!(
        "guest CPU: {} calls, {fuel} fuel, {instrs} ops retired ({:.2} instrs/dispatch on the lowered tier)",
        t.get("worker", "calls"),
        fuel as f64 / instrs.max(1) as f64,
    );
}

// ── Replicas: roles, lag and failover of the replicated tier ────────────

/// The replicated tier's operator view: per-slot replica roles (how many
/// keys each shard primaries vs backs up), forward counts, replication
/// lag and the quorum-wait tail at R=2 — then a primary is killed, the
/// liveness monitor drives the failover epoch, and the table is printed
/// again alongside the flight recorder's promotion anomaly.
fn replicas_cmd() {
    println!("\n=== Replicated state tier (3 shards, R=2, kill + failover) ===");
    let cluster = Arc::new(faasm_core::Cluster::with_config(
        faasm_core::ClusterConfig {
            hosts: 1,
            state_shards: 3,
            replication_factor: 2,
            ..faasm_core::ClusterConfig::default()
        },
    ));
    const KEYS: u32 = 2000;
    for i in 0..KEYS {
        // Traced writes: shard spans (ReplForward, QuorumWait) only record
        // under a trace context, matching the rest of the telemetry tier.
        let _tracing = faasm_telemetry::set_current(faasm_telemetry::TraceCtx::new_root());
        cluster
            .kv()
            .set(&format!("repl:{i}"), vec![0u8; 64 + (i % 7) as usize * 64])
            .unwrap();
    }

    let shard_rec = faasm_telemetry::tier("state-shard");
    let print_roles = |label: &str| {
        let telemetry = cluster.telemetry();
        let table = cluster.state_routing().load();
        let mut t = Table::new(&[
            "slot",
            "primary keys",
            "backup keys",
            "repl forwards",
            "lag us/fwd",
            "promotions",
        ]);
        for shard in telemetry.rows("state-shard") {
            let forwards = shard.get("repl_forwards");
            let lag = if forwards == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.1}",
                    shard.get("repl_lag_ns") as f64 / forwards as f64 / 1e3
                )
            };
            t.row(&[
                shard.slot.to_string(),
                shard.get("primary_keys").to_string(),
                shard.get("backup_keys").to_string(),
                forwards.to_string(),
                lag,
                shard.get("promotions").to_string(),
            ]);
        }
        println!(
            "{label} (epoch {}, {} live / {} dead slots)",
            table.epoch,
            table.live_count(),
            table.dead.len()
        );
        t.print();
        let qw = telemetry.hist("state-shard", "quorum_wait");
        println!(
            "quorum wait: {} forwards, p50 {} us, p99 {} us",
            qw.count,
            qw.percentile(50.0) / 1_000,
            qw.percentile(99.0) / 1_000
        );
    };
    print_roles("before failover");

    // Kill a primary slot abruptly; the liveness monitor detects the dead
    // host and drives the failover epoch on its own.
    let victim = 1usize;
    cluster.kill_state_shard(victim);
    let t0 = Instant::now();
    while !cluster.state_routing().load().dead.contains(&victim) {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "liveness monitor must fail the slot over"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "\nslot {victim} killed; monitor failed it over in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Every key is still served (promoted backups own the victim's keys).
    for i in 0..KEYS {
        assert!(
            cluster
                .kv()
                .get(&format!("repl:{i}"))
                .expect("tier serves")
                .is_some(),
            "repl:{i} lost in failover"
        );
    }
    println!("all {KEYS} keys still served after promotion");
    print_roles("after failover");

    // The flight recorder snapshotted the promotion.
    let anomalies = shard_rec.anomalies();
    let promo: Vec<_> = anomalies
        .iter()
        .filter(|a| a.reason.contains("failover") || a.reason.contains("promotion"))
        .collect();
    println!("anomaly snapshots ({} failover-related):", promo.len());
    for a in promo.iter().rev().take(4).rev() {
        println!(
            "  [{:.1} ms] {} ({} spans captured)",
            a.at_ns as f64 / 1e6,
            a.reason,
            a.spans.len()
        );
    }
    cluster.shutdown();
}

// ── Shard skew: the global tier's load distribution ─────────────────────

/// Per-shard load of the global tier (key count, value bytes, per-op
/// counters: the `state-shard` rows of `Cluster::telemetry()`) before and
/// after a live shard join —
/// what the migration planner and the tier autoscaler see.
fn shard_skew() {
    println!("\n=== Global-tier shard skew (live reshard 4 -> 5 shards) ===");
    let cluster = faasm_core::Cluster::with_config(faasm_core::ClusterConfig {
        hosts: 2,
        state_shards: 4,
        ..faasm_core::ClusterConfig::default()
    });
    for i in 0..2000u32 {
        cluster
            .kv()
            .set(&format!("skew:{i}"), vec![0u8; 64 + (i % 7) as usize * 64])
            .unwrap();
    }
    let print_stats = |label: &str| {
        let mut t = Table::new(&[
            "shard",
            "keys",
            "value KiB",
            "reads",
            "writes",
            "wrong-epoch",
            "freeze-wait us",
            "batched ops",
            "batch width",
        ]);
        for shard in cluster.telemetry().rows("state-shard") {
            let width = if shard.get("batched_ops") == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.1}",
                    shard.get("batched_items") as f64 / shard.get("batched_ops") as f64
                )
            };
            t.row(&[
                shard.slot.to_string(),
                shard.get("keys").to_string(),
                format!("{:.1}", shard.get("value_bytes") as f64 / 1024.0),
                shard.get("reads").to_string(),
                shard.get("writes").to_string(),
                shard.get("wrong_epoch_redirects").to_string(),
                (shard.get("freeze_wait_ns") / 1_000).to_string(),
                shard.get("batched_ops").to_string(),
                width,
            ]);
        }
        println!("{label} (epoch {})", cluster.state_routing().epoch());
        t.print();
    };
    print_stats("before join");
    // The planner's preview: enumerate every shard's keys (`key_sizes`)
    // and compute the exact rendezvous delta a join would migrate —
    // before doing it.
    let sizes: Vec<(String, u64)> = cluster
        .state_shards()
        .iter()
        .flat_map(|s| s.store().key_sizes())
        .collect();
    let shards = cluster.state_shard_count();
    let keys: Vec<&str> = sizes.iter().map(|(k, _)| k.as_str()).collect();
    let delta = faasm_kvs::rendezvous_delta(&keys, shards, shards + 1);
    let moving_bytes: u64 = {
        let by_key: std::collections::HashMap<&str, u64> =
            sizes.iter().map(|(k, b)| (k.as_str(), *b)).collect();
        delta.iter().map(|(k, _)| by_key[k.as_str()]).sum()
    };
    println!(
        "join preview: {} of {} keys would move ({:.1} KiB, {:.1}% of keys)",
        delta.len(),
        sizes.len(),
        moving_bytes as f64 / 1024.0,
        delta.len() as f64 / sizes.len().max(1) as f64 * 100.0
    );
    cluster.add_state_shard().expect("live shard join");
    print_stats("after join");
}

// ── Fig. 6: SGD training ────────────────────────────────────────────────

fn run_sgd_faasm(
    parallelism: u32,
    dataset: &faasm_workloads::data::SparseDataset,
) -> Option<(Duration, u64, f64)> {
    let cluster = faasm_cluster(4, 8);
    sgd::register_faasm(&cluster, "ml");
    sgd::upload_dataset(cluster.kv().as_ref(), dataset).ok()?;
    let tasks = sgd::partition(
        dataset.examples as u32,
        parallelism,
        dataset.features as u32,
        0.5,
        32,
    );
    let before = cluster.fabric().stats().snapshot();
    let t0 = Instant::now();
    for _epoch in 0..2 {
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            if cluster.await_result(id).return_code() != 0 {
                return None;
            }
        }
    }
    let elapsed = t0.elapsed();
    let bytes = cluster
        .fabric()
        .stats()
        .snapshot()
        .delta(&before)
        .total_bytes()
        + cluster.object_store().pulled_bytes();
    Some((elapsed, bytes, cluster.billable_gb_seconds()))
}

fn run_sgd_baseline(
    parallelism: u32,
    dataset: &faasm_workloads::data::SparseDataset,
) -> Option<(Duration, u64, f64)> {
    // 2 MB images; a 12 MB per-host budget OOMs at high parallelism, the
    // Fig. 6a "Knative exhausts memory with over 30 functions" shape.
    let platform = baseline_platform(4, 8, 2 * 1024 * 1024, 12 * 1024 * 1024);
    sgd::register_baseline(&platform, "ml");
    sgd::upload_dataset(platform.kv().as_ref(), dataset).ok()?;
    let tasks = sgd::partition(
        dataset.examples as u32,
        parallelism,
        dataset.features as u32,
        0.5,
        32,
    );
    let before = platform.fabric().stats().snapshot();
    let t0 = Instant::now();
    for _epoch in 0..2 {
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| platform.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            if platform.await_result(id).return_code() != 0 {
                return None; // OOMKilled
            }
        }
    }
    let elapsed = t0.elapsed();
    let bytes = platform
        .fabric()
        .stats()
        .snapshot()
        .delta(&before)
        .total_bytes()
        + platform.object_store().pulled_bytes();
    Some((elapsed, bytes, platform.billable_gb_seconds()))
}

fn fig6() {
    println!("\n=== Fig. 6: SGD training vs parallelism ===");
    println!("scale: 2048 docs x 512 features (paper: 800K x 47K), 2 epochs");
    let dataset = rcv1_like(2048, 512, 12, 42);
    let mut t = Table::new(&[
        "parallel fns",
        "faasm time",
        "knative time",
        "faasm net",
        "knative net",
        "faasm GB-s",
        "knative GB-s",
    ]);
    for p in [2u32, 4, 8, 16, 24, 32] {
        let f = run_sgd_faasm(p, &dataset);
        let b = run_sgd_baseline(p, &dataset);
        let cell = |v: &Option<(Duration, u64, f64)>, which: usize| -> String {
            match v {
                None => "OOM".into(),
                Some((d, bytes, gbs)) => match which {
                    0 => fmt_dur(*d),
                    1 => fmt_mb(*bytes),
                    _ => format!("{gbs:.6}"),
                },
            }
        };
        t.row(&[
            p.to_string(),
            cell(&f, 0),
            cell(&b, 0),
            cell(&f, 1),
            cell(&b, 1),
            cell(&f, 2),
            cell(&b, 2),
        ]);
    }
    t.print();
    println!("paper shape: faasm faster at scale, ~65% less transfer, ~10x less");
    println!("billable memory; knative OOMs above ~30 parallel functions.");
}

fn fig6_small() {
    println!("\n=== §6.2 small-scale run (128 examples) ===");
    let dataset = rcv1_like(128, 64, 8, 42);
    let f = run_sgd_faasm(8, &dataset).expect("faasm run");
    let b = run_sgd_baseline(8, &dataset).expect("baseline run");
    let mut t = Table::new(&["platform", "time", "net transfer", "billable GB-s"]);
    t.row(&[
        "faasm".into(),
        fmt_dur(f.0),
        fmt_mb(f.1),
        format!("{:.6}", f.2),
    ]);
    t.row(&[
        "knative".into(),
        fmt_dur(b.0),
        fmt_mb(b.1),
        format!("{:.6}", b.2),
    ]);
    t.print();
    println!("paper: 460ms vs 630ms, 19MB vs 48MB, 0.01 vs 0.04 GB-s.");
}

// ── Fig. 7: inference serving ───────────────────────────────────────────

fn fig7() {
    println!("\n=== Fig. 7: inference serving (latency vs throughput, cold starts) ===");
    println!("scale: mobilenet-lite (paper: TFLite MobileNet), 28x28 inputs");

    let images = Arc::new(synth_images(64, inference::SIDE, 7));

    // (a) throughput vs median latency, closed loop with rising concurrency.
    let mut ta = Table::new(&[
        "clients",
        "faasm req/s",
        "faasm p50",
        "knative-20%cold req/s",
        "knative p50",
    ]);
    for clients in [1usize, 2, 4, 8] {
        let (f_tput, f_p50, _f_p99) = drive_inference(Platform::Faasm, clients, 0, &images);
        let (b_tput, b_p50, _b_p99) = drive_inference(Platform::Baseline, clients, 5, &images);
        ta.row(&[
            clients.to_string(),
            format!("{f_tput:.0}"),
            fmt_dur(f_p50),
            format!("{b_tput:.0}"),
            fmt_dur(b_p50),
        ]);
    }
    ta.print();

    // (b) latency distribution at fixed concurrency for cold ratios.
    let mut tb = Table::new(&["series", "p50", "p90", "p99"]);
    for (name, platform, every) in [
        ("faasm (all ratios)", Platform::Faasm, 0usize),
        ("knative 0% cold", Platform::Baseline, 0),
        ("knative 2% cold", Platform::Baseline, 50),
        ("knative 20% cold", Platform::Baseline, 5),
    ] {
        let lat = latencies_inference(platform, 4, every, &images);
        tb.row(&[
            name.into(),
            fmt_dur(percentile(lat.clone(), 0.5)),
            fmt_dur(percentile(lat.clone(), 0.9)),
            fmt_dur(percentile(lat, 0.99)),
        ]);
    }
    tb.print();
    println!("paper shape: knative median spikes beyond a throughput knee that");
    println!("drops as the cold-start ratio rises; faasm is flat for all ratios");
    println!("with tail latency cut by ~90%.");
}

#[derive(Clone, Copy)]
enum Platform {
    Faasm,
    Baseline,
}

fn drive_inference(
    platform: Platform,
    clients: usize,
    evict_every: usize,
    images: &Arc<Vec<Vec<u8>>>,
) -> (f64, Duration, Duration) {
    let lat = latencies_inference(platform, clients, evict_every, images);
    let total: Duration = lat.iter().sum();
    let tput = lat.len() as f64 / (total.as_secs_f64() / clients as f64).max(1e-9);
    (tput, percentile(lat.clone(), 0.5), percentile(lat, 0.99))
}

fn latencies_inference(
    platform: Platform,
    clients: usize,
    evict_every: usize,
    images: &Arc<Vec<Vec<u8>>>,
) -> Vec<Duration> {
    let per_client = 40usize;
    let counter = Arc::new(AtomicU64::new(0));
    match platform {
        Platform::Faasm => {
            let cluster = Arc::new(faasm_cluster(2, 4));
            inference::setup_faasm(&cluster, "serve", 9);
            // Warm up.
            cluster.invoke("serve", "infer", images[0].clone());
            let mut handles = Vec::new();
            for c in 0..clients {
                let cluster = Arc::clone(&cluster);
                let images = Arc::clone(images);
                let counter = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let img = images[(c * per_client + i) % images.len()].clone();
                        let _n = counter.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let r = cluster.invoke("serve", "infer", img);
                        assert_eq!(r.return_code(), 0);
                        lat.push(t0.elapsed());
                    }
                    lat
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        }
        Platform::Baseline => {
            let platform = Arc::new(baseline_platform(2, 4, 4 * 1024 * 1024, 1024 * 1024 * 1024));
            inference::setup_baseline(&platform, "serve", 9);
            platform.invoke("serve", "infer", images[0].clone());
            let mut handles = Vec::new();
            for c in 0..clients {
                let platform = Arc::clone(&platform);
                let images = Arc::clone(images);
                let counter = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let img = images[(c * per_client + i) % images.len()].clone();
                        let n = counter.fetch_add(1, Ordering::Relaxed) as usize;
                        if evict_every > 0 && n.is_multiple_of(evict_every) {
                            // A fraction of requests land on fresh containers
                            // (the paper's per-user cold starts).
                            platform.evict_all();
                        }
                        let t0 = Instant::now();
                        let r = platform.invoke("serve", "infer", img);
                        assert_eq!(r.return_code(), 0);
                        lat.push(t0.elapsed());
                    }
                    lat
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        }
    }
}

// ── Fig. 8: matmul ──────────────────────────────────────────────────────

fn fig8() {
    println!("\n=== Fig. 8: distributed matrix multiplication ===");
    println!("scale: n in 16..128 (paper: 100..8000), 64 products + 16 merges");
    let mut t = Table::new(&[
        "n",
        "faasm time",
        "knative time",
        "faasm net",
        "knative net",
    ]);
    for n in [16usize, 32, 64, 128] {
        let cluster = faasm_cluster(2, 8);
        matmul::register_faasm(&cluster, "la");
        matmul::upload_matrices(cluster.kv().as_ref(), n, 5).unwrap();
        // Steady-state measurement: one warm-up multiplication first.
        cluster.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec());
        let before = cluster.fabric().stats().snapshot();
        let (r, f_time) =
            time(|| cluster.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec()));
        assert_eq!(r.return_code(), 0, "faasm matmul n={n}: {:?}", r.status);
        let f_bytes = cluster
            .fabric()
            .stats()
            .snapshot()
            .delta(&before)
            .total_bytes();

        let platform = baseline_platform(2, 8, 2 * 1024 * 1024, 1 << 30);
        matmul::register_baseline(&platform, "la");
        matmul::upload_matrices(platform.kv().as_ref(), n, 5).unwrap();
        platform.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec());
        let before = platform.fabric().stats().snapshot();
        let (r, b_time) =
            time(|| platform.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec()));
        assert_eq!(r.return_code(), 0, "baseline matmul n={n}: {:?}", r.status);
        let b_bytes = platform
            .fabric()
            .stats()
            .snapshot()
            .delta(&before)
            .total_bytes();

        t.row(&[
            n.to_string(),
            fmt_dur(f_time),
            fmt_dur(b_time),
            fmt_mb(f_bytes),
            fmt_mb(b_bytes),
        ]);
    }
    t.print();
    println!("paper shape: durations near parity; faasm ~13% less traffic.");
}

// ── Fig. 9: language-runtime performance ───────────────────────────────

fn fig9a() {
    println!("\n=== Fig. 9a: Polybench, FVM guest vs native ===");
    println!("note: the FVM interprets (paper used a JIT), so absolute ratios");
    println!("are larger; per-kernel orderings are the comparison target.");
    let mut t = Table::new(&["kernel", "native", "fvm", "ratio"]);
    for kernel in polybench::all_kernels() {
        let n = kernel.default_n;
        let native = median(
            (0..3)
                .map(|_| polybench::run_native(&kernel, n).1)
                .collect(),
        );
        let fvm = median((0..3).map(|_| polybench::run_fvm(&kernel, n).1).collect());
        let ratio = fvm.as_secs_f64() / native.as_secs_f64().max(1e-9);
        t.row(&[
            kernel.name.to_string(),
            fmt_dur(native),
            fmt_dur(fvm),
            format!("{ratio:.1}x"),
        ]);
    }
    t.print();
}

fn fig9b() {
    println!("\n=== Fig. 9b: MiniDyn suite, in-Faaslet vs direct ===");
    println!("note: the paper compares WASM-compiled CPython against native");
    println!("CPython; MiniDyn is native Rust in both modes, so this measures");
    println!("the host-interface + filesystem overhead of hosting the runtime");
    println!("in a Faaslet.");
    let cluster = faasm_cluster(1, 2);
    dynprogs::setup_faasm(&cluster, "py");
    let mut t = Table::new(&["benchmark", "direct", "in-faaslet", "ratio"]);
    for b in dynprogs::suite() {
        let direct = median(
            (0..3)
                .map(|_| time(|| dynprogs::run_direct(&b, b.default_n).unwrap()).1)
                .collect(),
        );
        let input = format!("{};{}", b.name, b.default_n);
        // Warm up (loads + caches the program file).
        cluster.invoke("py", "minidyn", input.clone().into_bytes());
        let hosted = median(
            (0..3)
                .map(|_| {
                    let (r, d) =
                        time(|| cluster.invoke("py", "minidyn", input.clone().into_bytes()));
                    assert_eq!(r.return_code(), 0);
                    d
                })
                .collect(),
        );
        let ratio = hosted.as_secs_f64() / direct.as_secs_f64().max(1e-9);
        t.row(&[
            b.name.to_string(),
            fmt_dur(direct),
            fmt_dur(hosted),
            format!("{ratio:.2}x"),
        ]);
    }
    t.print();
}

// ── Table 3 and Fig. 10: cold starts and churn ─────────────────────────

/// Build a standalone Faaslet environment (no cluster) for lifecycle
/// micro-measurements.
fn bare_env() -> FaasletEnv {
    let fabric = faasm_net::Fabric::new();
    let nic = fabric.add_host();
    let kv = Arc::new(faasm_kvs::KvClient::local(Arc::new(
        faasm_kvs::KvStore::new(),
    )));
    FaasletEnv {
        state: Arc::new(faasm_state::StateManager::new(kv)),
        hostfs: faasm_vfs::HostFs::new(Arc::new(faasm_vfs::ObjectStore::new())),
        nic,
        router: Arc::new(NoChain),
        cgroup: CgroupCpu::new(1 << 22),
        linker: Arc::new(faaslet_linker()),
        egress: None,
    }
}

fn noop_def() -> Arc<FunctionDef> {
    let module = faasm_lang::compile("int main() { return 0; }").unwrap();
    let object = faasm_fvm::ObjectModule::prepare(module).unwrap();
    Arc::new(FunctionDef {
        code: GuestCode::Fvm(object),
        entry: "main".into(),
        init: None,
        reset_after_call: true,
    })
}

fn table3() {
    println!("\n=== Table 3: cold-start comparison (no-op function) ===");
    let env = bare_env();
    let def = noop_def();

    // Faaslet cold start.
    let n = 200;
    let cold = median(
        (0..n)
            .map(|i| {
                time(|| Faaslet::create_cold(i, "u", "noop", Arc::clone(&def), &env).unwrap()).1
            })
            .collect(),
    );
    // Proto-Faaslet restore.
    let mut donor = Faaslet::create_cold(9999, "u", "noop", Arc::clone(&def), &env).unwrap();
    let proto = donor.capture_proto().unwrap();
    let restore = median(
        (0..n)
            .map(|i| {
                time(|| Faaslet::restore(10_000 + i, &proto, Arc::clone(&def), &env).unwrap()).1
            })
            .collect(),
    );
    // CPU cycles (fuel) for one no-op call.
    let mut f = Faaslet::restore(50_000, &proto, Arc::clone(&def), &env).unwrap();
    let call = faasm_core::CallSpec {
        id: faasm_core::CallId(1),
        user: "u".into(),
        function: "noop".into(),
        input: vec![],
        trace: faasm_core::TraceCtx::NONE,
    };
    f.run(&call);
    let fuel = f.fuel_consumed();
    let faaslet_rss = f.rss_bytes();
    let faaslet_pss = f.pss_bytes();

    // Container cold start (8 MB image, the paper's container overhead).
    let image: Vec<u8> = (0..8 * 1024 * 1024).map(|i| i as u8).collect();
    let cfg = faasm_baseline::ImageConfig {
        image_bytes: image.len(),
        layers: 5,
        boot_passes: 4,
    };
    let kv = Arc::new(faasm_kvs::KvClient::local(Arc::new(
        faasm_kvs::KvStore::new(),
    )));
    struct NoHttp;
    impl faasm_baseline::HttpRouter for NoHttp {
        fn chain_call(&self, _u: &str, _f: &str, _i: Vec<u8>) -> faasm_core::CallId {
            faasm_core::CallId(0)
        }
        fn await_call(&self, id: faasm_core::CallId) -> faasm_core::CallResult {
            faasm_core::CallResult::error(id, "none")
        }
    }
    let router: Arc<dyn faasm_baseline::HttpRouter> = Arc::new(NoHttp);
    let container_cold = median(
        (0..20)
            .map(|i| {
                time(|| {
                    faasm_baseline::Container::cold_start(
                        i,
                        "u",
                        "noop",
                        &image,
                        &cfg,
                        Arc::clone(&kv),
                        Arc::clone(&router),
                    )
                })
                .1
            })
            .collect(),
    );
    let container = faasm_baseline::Container::cold_start(
        999,
        "u",
        "noop",
        &image,
        &cfg,
        Arc::clone(&kv),
        router,
    );
    let container_rss = container.rss_bytes();
    let container_pss = container.pss_bytes(8) as usize; // image shared 8 ways

    // Capacity: instances fitting in a 4 GB host.
    let budget = 4usize << 30;
    let mut t = Table::new(&[
        "metric",
        "container",
        "faaslet",
        "proto-faaslet",
        "vs container",
    ]);
    t.row(&[
        "initialisation".into(),
        fmt_dur(container_cold),
        fmt_dur(cold),
        fmt_dur(restore),
        format!(
            "{:.0}x",
            container_cold.as_secs_f64() / restore.as_secs_f64().max(1e-9)
        ),
    ]);
    t.row(&[
        "CPU cycles (fuel)".into(),
        "-".into(),
        fuel.to_string(),
        fuel.to_string(),
        "-".into(),
    ]);
    t.row(&[
        "PSS memory".into(),
        fmt_mb(container_pss as u64),
        fmt_mb(faaslet_pss as u64),
        fmt_mb(faaslet_pss as u64),
        format!("{:.0}x", container_pss as f64 / faaslet_pss.max(1.0)),
    ]);
    t.row(&[
        "RSS memory".into(),
        fmt_mb(container_rss as u64),
        fmt_mb(faaslet_rss as u64),
        fmt_mb(faaslet_rss as u64),
        format!("{:.0}x", container_rss as f64 / faaslet_rss as f64),
    ]);
    t.row(&[
        "capacity / 4GB".into(),
        (budget / container_rss).to_string(),
        (budget / faaslet_rss).to_string(),
        format!("{:.0}", budget as f64 / faaslet_pss),
        format!(
            "{:.0}x",
            (budget as f64 / faaslet_pss) / (budget / container_rss) as f64
        ),
    ]);
    t.print();
    println!("paper: init 2.8s/5.2ms/0.5ms; PSS 1.3MB/200KB/90KB; RSS 5MB/200KB;");
    println!("capacity ~8K/~70K/>100K. The container column here reflects the");
    println!("scaled image-materialisation model.");

    // §6.5's Python-runtime variant: init builds a large interpreter heap.
    let dyn_src = r#"
        extern int mmap(int len);
        void init() {
            int base = mmap(4194304);
            ptr int p = (ptr int) base;
            for (int i = 0; i < 1048576; i = i + 1024) {
                p[i] = i;
            }
        }
        int main() { return 0; }
    "#;
    let module = faasm_lang::compile(dyn_src).unwrap();
    let object = faasm_fvm::ObjectModule::prepare(module).unwrap();
    let dyn_def = Arc::new(FunctionDef {
        code: GuestCode::Fvm(object),
        entry: "main".into(),
        init: Some("init".into()),
        reset_after_call: true,
    });
    let (mut dyn_cold_faaslet, dyn_cold) =
        time(|| Faaslet::create_cold(70_000, "u", "pynoop", Arc::clone(&dyn_def), &env).unwrap());
    let dyn_proto = dyn_cold_faaslet.capture_proto().unwrap();
    let dyn_restore = median(
        (0..50)
            .map(|i| {
                time(|| {
                    Faaslet::restore(80_000 + i, &dyn_proto, Arc::clone(&dyn_def), &env).unwrap()
                })
                .1
            })
            .collect(),
    );
    // A "python:3.7-alpine"-class image is ~6x the no-op image.
    let py_image: Vec<u8> = (0..48 * 1024 * 1024).map(|i| (i / 7) as u8).collect();
    let py_cfg = faasm_baseline::ImageConfig {
        image_bytes: py_image.len(),
        layers: 5,
        boot_passes: 4,
    };
    let router: Arc<dyn faasm_baseline::HttpRouter> = Arc::new(NoHttp);
    let py_container = median(
        (0..5)
            .map(|i| {
                time(|| {
                    faasm_baseline::Container::cold_start(
                        i,
                        "u",
                        "py",
                        &py_image,
                        &py_cfg,
                        Arc::clone(&kv),
                        Arc::clone(&router),
                    )
                })
                .1
            })
            .collect(),
    );
    println!("\n  dynamic-language runtime variant (paper: 3.2s container vs 0.9ms restore):");
    println!(
        "    container (python-class image): {}",
        fmt_dur(py_container)
    );
    println!("    faaslet cold (init runs):       {}", fmt_dur(dyn_cold));
    println!(
        "    proto-faaslet restore:          {}",
        fmt_dur(dyn_restore)
    );
}

fn fig10() {
    println!("\n=== Fig. 10: creation churn (latency vs creation rate) ===");
    let env = bare_env();
    let def = noop_def();
    let mut donor = Faaslet::create_cold(1, "u", "noop", Arc::clone(&def), &env).unwrap();
    let proto = Arc::new(donor.capture_proto().unwrap());

    let image: Vec<u8> = (0..8 * 1024 * 1024).map(|i| i as u8).collect();
    let cfg = faasm_baseline::ImageConfig {
        image_bytes: image.len(),
        layers: 5,
        boot_passes: 4,
    };
    struct NoHttp;
    impl faasm_baseline::HttpRouter for NoHttp {
        fn chain_call(&self, _u: &str, _f: &str, _i: Vec<u8>) -> faasm_core::CallId {
            faasm_core::CallId(0)
        }
        fn await_call(&self, id: faasm_core::CallId) -> faasm_core::CallResult {
            faasm_core::CallResult::error(id, "none")
        }
    }

    let mut t = Table::new(&["series", "threads", "achieved/s", "mean latency"]);
    for threads in [1usize, 2, 4] {
        // Containers.
        let image = Arc::new(image.clone());
        let kv = Arc::new(faasm_kvs::KvClient::local(Arc::new(
            faasm_kvs::KvStore::new(),
        )));
        let (count, lat) = churn(threads, Duration::from_millis(300), {
            let image = Arc::clone(&image);
            let kv = Arc::clone(&kv);
            move |i| {
                let router: Arc<dyn faasm_baseline::HttpRouter> = Arc::new(NoHttp);
                std::hint::black_box(faasm_baseline::Container::cold_start(
                    i,
                    "u",
                    "noop",
                    &image,
                    &cfg,
                    Arc::clone(&kv),
                    router,
                ));
            }
        });
        t.row(&[
            "docker (sim)".into(),
            threads.to_string(),
            format!("{count:.0}"),
            fmt_dur(lat),
        ]);

        // Faaslet cold starts.
        let env2 = bare_env();
        let def2 = Arc::clone(&def);
        let (count, lat) = churn(threads, Duration::from_millis(300), move |i| {
            std::hint::black_box(
                Faaslet::create_cold(i, "u", "noop", Arc::clone(&def2), &env2).unwrap(),
            );
        });
        t.row(&[
            "faaslet".into(),
            threads.to_string(),
            format!("{count:.0}"),
            fmt_dur(lat),
        ]);

        // Proto-Faaslet restores.
        let env3 = bare_env();
        let def3 = Arc::clone(&def);
        let proto3 = Arc::clone(&proto);
        let (count, lat) = churn(threads, Duration::from_millis(300), move |i| {
            std::hint::black_box(Faaslet::restore(i, &proto3, Arc::clone(&def3), &env3).unwrap());
        });
        t.row(&[
            "proto-faaslet".into(),
            threads.to_string(),
            format!("{count:.0}"),
            fmt_dur(lat),
        ]);
    }
    t.print();
    println!("paper shape: throughput ceilings of ~3/s (docker), ~600/s (faaslet)");
    println!("and ~4000/s (proto-faaslet) — three distinct orders of magnitude.");
}

/// Run `make(i)` from `threads` threads for `window`; returns
/// (achieved rate per second, mean latency).
fn churn<F>(threads: usize, window: Duration, make: F) -> (f64, Duration)
where
    F: Fn(u64) + Send + Sync + 'static,
{
    let make = Arc::new(make);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    let t0 = Instant::now();
    for t in 0..threads {
        let make = Arc::clone(&make);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut n = 0u64;
            let mut total = Duration::ZERO;
            let mut i = t as u64 * 1_000_000;
            while !stop.load(Ordering::Relaxed) {
                let s = Instant::now();
                make(i);
                total += s.elapsed();
                n += 1;
                i += 1;
            }
            (n, total)
        }));
    }
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut count = 0u64;
    let mut total = Duration::ZERO;
    for h in handles {
        let (n, t) = h.join().unwrap();
        count += n;
        total += t;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mean = if count > 0 {
        total / count as u32
    } else {
        Duration::ZERO
    };
    (count as f64 / elapsed, mean)
}
