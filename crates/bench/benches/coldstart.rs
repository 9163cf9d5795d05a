//! Cold-start vs snapshot-distributed restore at cluster scale (§5.2).
//!
//! Three experiments:
//!
//! * **First-call latency** by resolve path: a cold start (compile-free but
//!   init-running instantiate + capture + publish), a chunk-fetched restore
//!   on a second host, and a pre-staged restore on a host whose snapshot
//!   cache was warmed over the bus before the call.
//! * **Scale-up storm**: a 0→N burst across every host of a cluster after
//!   one publisher call; the single-flight resolver and the snapshot plane
//!   must keep it at exactly one capture and zero failures.
//! * **Dedup across proto versions**: publishing a second version whose
//!   init dirties one page differently must ship only the changed page.
//!
//! Run with `cargo bench --bench coldstart`; a full run snapshots its
//! numbers to `BENCH_coldstart.json` at the repo root. Under `cargo test`
//! (cargo passes `--test`) it runs scaled-down loads and writes nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_core::{ChainRouter, Cluster, UploadOptions};

/// The storm function: init dirties three 64 KiB pages (one of them with a
/// version-specific seed), so the proto ships real content and a cold
/// start pays a real init. `main` echoes.
fn storm_src(seed: u32) -> String {
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
}

fn upload_storm(cluster: &Cluster, function: &str, seed: u32) {
    cluster
        .upload_fl(
            "bench",
            function,
            &storm_src(seed),
            UploadOptions {
                init: Some("init".into()),
                ..UploadOptions::default()
            },
        )
        .unwrap();
}

struct FirstCalls {
    cold_ns: u64,
    fetch_ns: u64,
    prestaged_ns: u64,
}

/// First-call latency down each resolve path, on three hosts of one
/// cluster: host 0 cold-starts (and publishes), host 1 chunk-fetches,
/// host 2 is pre-staged before its call.
fn first_calls() -> FirstCalls {
    let cluster = faasm_bench::faasm_cluster(3, 2);
    upload_storm(&cluster, "work", 1_000_000);
    let hosts = cluster.instances();

    let t0 = Instant::now();
    let r = hosts[0].invoke_local("bench", "work", vec![1]);
    let cold_ns = t0.elapsed().as_nanos() as u64;
    assert!(r.status == faasm_core::CallStatus::Success);

    // Host 1: nothing local — the call fetches chunks from the tier,
    // verifies, assembles and restores.
    let t0 = Instant::now();
    let id = hosts[1].submit_placed("bench", "work", vec![2]);
    let r = hosts[1].await_call(id);
    let fetch_ns = t0.elapsed().as_nanos() as u64;
    assert!(r.status == faasm_core::CallStatus::Success);
    assert!(hosts[1].metrics().cold_starts() == 0);

    // Host 2: pre-staged over the bus first, so the call is a pure local
    // copy-on-write restore.
    assert!(hosts[0].push_prestage("bench", "work", hosts[2].host_id()));
    for _ in 0..2_000 {
        if hosts[2].has_proto("bench", "work") {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        hosts[2].has_proto("bench", "work"),
        "pre-stage never landed"
    );
    let t0 = Instant::now();
    let id = hosts[2].submit_placed("bench", "work", vec![3]);
    let r = hosts[2].await_call(id);
    let prestaged_ns = t0.elapsed().as_nanos() as u64;
    assert!(r.status == faasm_core::CallStatus::Success);
    assert!(hosts[2].metrics().cold_starts() == 0);

    FirstCalls {
        cold_ns,
        fetch_ns,
        prestaged_ns,
    }
}

struct StormOutcome {
    hosts: usize,
    calls: usize,
    failed: usize,
    captures: u64,
    restores: u64,
    warm: u64,
    warm_restore_rate: f64,
    chunks_fetched: u64,
    chunk_hits: u64,
}

/// A 0→N scale-up storm: one publisher call, pre-stage every host, then a
/// barrier-released burst of `calls_per_thread` calls from
/// `threads_per_host` threads against every host at once.
fn storm(hosts: usize, threads_per_host: usize, calls_per_thread: usize) -> StormOutcome {
    let cluster = Arc::new(faasm_bench::faasm_cluster(hosts, 2));
    upload_storm(&cluster, "work", 1_000_000);
    let r = cluster.instances()[0].invoke_local("bench", "work", vec![0]);
    assert!(r.status == faasm_core::CallStatus::Success);
    for inst in &cluster.instances()[1..] {
        let _ = cluster.instances()[0].push_prestage("bench", "work", inst.host_id());
    }
    for inst in &cluster.instances()[1..] {
        for _ in 0..2_000 {
            if inst.has_proto("bench", "work") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let barrier = Arc::new(std::sync::Barrier::new(hosts * threads_per_host));
    let handles: Vec<_> = (0..hosts * threads_per_host)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let inst = Arc::clone(&cluster.instances()[t % hosts]);
                barrier.wait();
                let mut failed = 0usize;
                for i in 0..calls_per_thread {
                    let id = inst.submit_placed("bench", "work", vec![i as u8]);
                    if inst.await_call(id).status != faasm_core::CallStatus::Success {
                        failed += 1;
                    }
                }
                failed
            })
        })
        .collect();
    let failed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let t = cluster.telemetry();
    let [captures, restores, warm] =
        ["cold_starts", "proto_restores", "warm_starts"].map(|n| t.get("worker", n));
    let starts = captures + restores + warm;
    StormOutcome {
        hosts,
        calls: hosts * threads_per_host * calls_per_thread + 1,
        failed,
        captures,
        restores,
        warm,
        warm_restore_rate: (starts - captures) as f64 / starts.max(1) as f64,
        chunks_fetched: t.get("snapdist", "chunks_fetched"),
        chunk_hits: t.get("snapdist", "chunk_hits"),
    }
}

struct DedupOutcome {
    chunks_published_v2: u64,
    chunks_deduped_v2: u64,
    bytes_deduped_v2: u64,
    dedup_ratio: f64,
}

/// Publish two proto versions whose init differs in exactly one page's
/// seed: the shared pages must dedup at publish (shipped once).
fn dedup() -> DedupOutcome {
    let cluster = faasm_bench::faasm_cluster(1, 2);
    upload_storm(&cluster, "work_v1", 1_000_000);
    upload_storm(&cluster, "work_v2", 2_000_000);
    let inst = &cluster.instances()[0];
    inst.invoke_local("bench", "work_v1", vec![1]);
    let before = inst.snapshot_stats();
    inst.invoke_local("bench", "work_v2", vec![1]);
    let v2 = inst.snapshot_stats().delta(&before);
    DedupOutcome {
        chunks_published_v2: v2.chunks_published,
        chunks_deduped_v2: v2.chunks_deduped,
        bytes_deduped_v2: v2.bytes_deduped,
        dedup_ratio: v2.chunks_deduped as f64
            / (v2.chunks_published + v2.chunks_deduped).max(1) as f64,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");

    let fc = first_calls();
    let speedup = fc.cold_ns as f64 / fc.prestaged_ns.max(1) as f64;
    println!(
        "first-call latency: cold {:.2} ms, chunk-fetch restore {:.2} ms, pre-staged restore {:.2} ms ({speedup:.1}x vs cold)",
        fc.cold_ns as f64 / 1e6,
        fc.fetch_ns as f64 / 1e6,
        fc.prestaged_ns as f64 / 1e6,
    );

    let (hosts, threads, calls) = if test_mode { (3, 2, 4) } else { (8, 4, 32) };
    let s = storm(hosts, threads, calls);
    println!(
        "scale-up storm: {} calls over {} hosts — {} failed, {} captures, {} restores, {} warm ({:.1}% warm-restore rate), {} chunks fetched / {} cache hits",
        s.calls,
        s.hosts,
        s.failed,
        s.captures,
        s.restores,
        s.warm,
        s.warm_restore_rate * 100.0,
        s.chunks_fetched,
        s.chunk_hits,
    );
    assert!(s.failed == 0, "storm dropped calls");
    assert!(s.captures == 1, "duplicate captures: {}", s.captures);

    let d = dedup();
    println!(
        "dedup across versions: v2 published {} chunks, deduped {} ({} bytes saved, {:.0}% of chunks shared)",
        d.chunks_published_v2,
        d.chunks_deduped_v2,
        d.bytes_deduped_v2,
        d.dedup_ratio * 100.0,
    );
    assert!(
        d.chunks_deduped_v2 >= 1,
        "no cross-version chunk dedup observed"
    );

    if test_mode {
        println!("test bench coldstart ... ok");
        return;
    }
    assert!(
        speedup >= 10.0,
        "pre-staged restore must beat cold start by >=10x, got {speedup:.1}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"coldstart\",\n  \"first_call\": {{\"cold_ns\": {}, \"fetch_restore_ns\": {}, \"prestaged_restore_ns\": {}, \"cold_over_prestaged\": {:.1}}},\n  \"storm\": {{\"hosts\": {}, \"calls\": {}, \"failed\": {}, \"captures\": {}, \"restores\": {}, \"warm\": {}, \"warm_restore_rate\": {:.4}, \"chunks_fetched\": {}, \"chunk_hits\": {}}},\n  \"dedup\": {{\"versions\": 2, \"chunks_published_v2\": {}, \"chunks_deduped_v2\": {}, \"bytes_deduped_v2\": {}, \"dedup_ratio\": {:.4}}}\n}}\n",
        fc.cold_ns,
        fc.fetch_ns,
        fc.prestaged_ns,
        speedup,
        s.hosts,
        s.calls,
        s.failed,
        s.captures,
        s.restores,
        s.warm,
        s.warm_restore_rate,
        s.chunks_fetched,
        s.chunk_hits,
        d.chunks_published_v2,
        d.chunks_deduped_v2,
        d.bytes_deduped_v2,
        d.dedup_ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coldstart.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nsnapshot written to BENCH_coldstart.json"),
        Err(e) => eprintln!("\ncould not write snapshot: {e}"),
    }
}
