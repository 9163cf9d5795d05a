//! `--smoke`: every workload with 1 s windows, one set-up and scaled-down
//! probes, the whole set (one traced run included) well under 20 s, so a CI
//! step can run it.

use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_faasm-benchmark");
const WORKLOADS: [&str; 5] = [
    "ingress_null",
    "fvm_compute",
    "state_mix",
    "train_sgd",
    "coldstart_storm",
];

/// Run the benchmark and return its result line.
fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .args(["--smoke", "--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_set_is_correct_and_fast() {
    // The manifest's workloads are these five, each runnable by name.
    let manifest = include_str!("../../BENCHMARK.json");
    assert_eq!(manifest.matches(r#""why": "#).count(), WORKLOADS.len());
    let start = Instant::now();
    for workload in WORKLOADS {
        assert!(manifest.contains(&format!(r#"{{"name": "{workload}", "why": "#)));
        let result = run(&["--workload", workload, "--seed", "7"]);
        assert!(
            result.starts_with(r#"{"correct": true, "attempted": "#),
            "{workload}: {result}"
        );
        for metric in ["setup_s", "rps", "p50_ms", "mem_mb", "net_kb_per_call"] {
            assert!(
                result.contains(&format!(r#""{metric}": {{"value": "#)),
                "{workload} lacks {metric}: {result}"
            );
        }
        assert!(result.contains(r#""failed": 0"#), "{workload}: {result}");
    }
    // One traced run: its own probes and counters measured, every other
    // per-layer metric named, and its spans in its own file.
    let result = run(&["--workload", "state_mix", "--trace", "1"]);
    assert!(result.starts_with(r#"{"correct": true"#), "{result}");
    for measured in ["kvs.client.set_r2_us", "kvs.server.ops_per_call"] {
        assert!(
            !result.contains(&format!(r#""{measured}": {{"value": 0, "#)),
            "{measured}: {result}"
        );
    }
    for named in ["state.write_p50_ms", "state.r2_rps", "workloads.p99_ms"] {
        assert!(
            result.contains(&format!(r#""{named}": {{"value": "#)),
            "{named}: {result}"
        );
    }
    // The ladder is `ingress_null`'s to measure.
    assert!(result.contains(r#""gateway.remote_call_us": {"value": 0, "#));
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_TARGET_TMPDIR"),
        "/state_mix-trace.json"
    ))
    .expect("state_mix-trace.json");
    assert!(trace.contains(r#""name": "read""#) && trace.contains(r#""by_name""#));
    // The limit is for the optimised build a CI step would run.
    assert!(
        cfg!(debug_assertions) || start.elapsed() < Duration::from_secs(20),
        "the smoke set took {:?}",
        start.elapsed()
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "nope"])
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
