//! Cold-start storm: 0→N scale-up through snapshot distribution.
//!
//! One call on one host captures a Proto-Faaslet, chunks it into
//! content-addressed pieces and publishes them through the state tier.
//! The manifest is then pre-staged to every other host over the bus, so
//! when a barrier-released storm of concurrent calls hits the whole
//! cluster at once, every host after the first restores copy-on-write
//! from warm local bytes instead of cold-starting. The run asserts zero
//! failed calls, exactly one capture cluster-wide, and a warm-restore
//! rate of at least 90%.
//!
//! ```sh
//! cargo run --release --example coldstart_storm
//! ```

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use faasm::core::ChainRouter;
use faasm::{CallStatus, Cluster, ClusterConfig, UploadOptions};

/// Init dirties three 64 KiB pages, so the proto carries real content and
/// a cold start pays a real initialisation; `main` just echoes.
const WORK: &str = r#"
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

const HOSTS: usize = 6;
const THREADS_PER_HOST: usize = 3;
const CALLS_PER_THREAD: usize = 20;

fn main() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: HOSTS,
        ..ClusterConfig::default()
    }));
    cluster
        .upload_fl(
            "demo",
            "work",
            WORK,
            UploadOptions {
                init: Some("init".into()),
                ..UploadOptions::default()
            },
        )
        .unwrap();

    // One publisher call: capture, chunk, publish through the tier.
    let t0 = Instant::now();
    let r = cluster.instances()[0].invoke_local("demo", "work", vec![0]);
    assert_eq!(r.status, CallStatus::Success);
    println!(
        "publisher cold start on host 0: {:?} (capture + chunk + publish)",
        t0.elapsed()
    );

    // Pre-stage the manifest to every other host and wait for the pushes
    // to land — each target pulls the pages into its page store and
    // installs the proto before any call arrives.
    for inst in &cluster.instances()[1..] {
        cluster.instances()[0].push_prestage("demo", "work", inst.host_id());
    }
    for inst in &cluster.instances()[1..] {
        for _ in 0..2_000 {
            if inst.has_proto("demo", "work") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(inst.has_proto("demo", "work"), "pre-stage never landed");
    }
    println!("pre-staged {} hosts over the bus", HOSTS - 1);

    // Barrier-release the storm across every host at once.
    let barrier = Arc::new(Barrier::new(HOSTS * THREADS_PER_HOST));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..HOSTS * THREADS_PER_HOST)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let inst = Arc::clone(&cluster.instances()[t % HOSTS]);
                barrier.wait();
                let mut failed = 0usize;
                for i in 0..CALLS_PER_THREAD {
                    let id = inst.submit_placed("demo", "work", vec![i as u8]);
                    if inst.await_call(id).status != CallStatus::Success {
                        failed += 1;
                    }
                }
                failed
            })
        })
        .collect();
    let failed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let storm = t0.elapsed();

    let telemetry = cluster.telemetry();
    println!("\nper-host starts after the storm:");
    for host in telemetry.rows("worker") {
        println!(
            "  host {}: {} cold, {} proto-restores, {} warm",
            host.slot,
            host.get("cold_starts"),
            host.get("proto_restores"),
            host.get("warm_starts")
        );
    }
    let [captures, restores, warm] =
        ["cold_starts", "proto_restores", "warm_starts"].map(|n| telemetry.get("worker", n));
    let starts = captures + restores + warm;
    let warm_rate = (starts - captures) as f64 / starts.max(1) as f64;
    let calls = HOSTS * THREADS_PER_HOST * CALLS_PER_THREAD;
    println!(
        "\nstorm: {calls} calls over {HOSTS} hosts in {storm:?} — {failed} failed, \
         {captures} capture(s), {restores} restores, {warm} warm ({:.1}% warm-restore rate)",
        warm_rate * 100.0
    );

    assert_eq!(failed, 0, "storm dropped calls");
    assert_eq!(captures, 1, "exactly one capture cluster-wide");
    assert!(
        warm_rate >= 0.9,
        "warm-restore rate {:.1}% below 90%",
        warm_rate * 100.0
    );
    println!("storm absorbed: one capture, everyone else restored warm");
}
