//! Trace storm: follow one call from admission to state and back while the
//! cluster is under load and resharding live.
//!
//! A state-touching function is stormed through the gateway while a state
//! shard joins; then one traced exhibit call races a second live reshard so
//! its state round trip can park on `WrongEpoch` and retry. The run prints
//! that call's span tree (every tier, causally linked) and the
//! cluster-wide per-tier span histograms, then asserts the tree is
//! non-empty, complete and causally ordered — this doubles as the CI smoke
//! test for the telemetry tier.
//!
//! ```sh
//! cargo run --release --example trace_storm
//! ```

use std::sync::Arc;

use faasm::core::{NativeApi, NativeGuest};
use faasm::gateway::{Gateway, GatewayConfig, GatewayStatus};
use faasm::telemetry::SpanKind;
use faasm::{Cluster, ClusterConfig};
use faasm_bench::telemetry_export;

const STORM_CALLS: usize = 256;

/// Read-modify-write one slot of a shared accumulator, then push: every
/// call does a global-tier state round trip for the trace to capture.
fn bump_guest() -> Arc<dyn NativeGuest> {
    Arc::new(|api: &mut NativeApi<'_>| {
        let slot = api.input().first().copied().unwrap_or(0) as usize;
        let entry = api
            .state("storm:acc", 4096)
            .map_err(faasm::fvm::Trap::host)?;
        let mut buf = [0u8; 8];
        entry
            .read(slot * 8, &mut buf)
            .map_err(faasm::fvm::Trap::host)?;
        let v = u64::from_le_bytes(buf).wrapping_add(1);
        entry
            .write(slot * 8, &v.to_le_bytes())
            .map_err(faasm::fvm::Trap::host)?;
        entry.push().map_err(faasm::fvm::Trap::host)?;
        api.write_output(&v.to_le_bytes());
        Ok(0)
    })
}

fn main() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 2,
        state_shards: 2,
        ..ClusterConfig::default()
    }));
    cluster.register_native("storm", "bump", bump_guest(), false);
    let gw = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());

    // Background storm with a live shard join in the middle, so the
    // histograms have real queueing, batching and migration in them.
    println!("storm: {STORM_CALLS} state-touching calls with a live shard join halfway");
    let mut tickets = Vec::new();
    for i in 0..STORM_CALLS {
        tickets.push(gw.submit("storm", "bump", vec![(i % 64) as u8]));
        if i == STORM_CALLS / 2 {
            cluster.add_state_shard().expect("live shard join");
        }
    }
    let ok = tickets
        .into_iter()
        .filter(|&t| gw.wait(t).status == GatewayStatus::Ok)
        .count();
    println!("storm: {ok}/{STORM_CALLS} ok");

    // The exhibit: traced calls racing one more live reshard. Prefer a
    // trace that caught a `WrongEpoch` park + retry; fall back to the last
    // one if the race never lands.
    let resharder = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            cluster.add_state_shard().expect("live shard join");
        })
    };
    let trace_id = loop {
        let done = resharder.is_finished();
        let (resp, tid) = gw.call_traced("storm", "bump", vec![7]);
        assert_eq!(resp.status, GatewayStatus::Ok, "exhibit call failed");
        let kinds = telemetry_export::trace_kinds(tid);
        if kinds.contains(&SpanKind::WrongEpochRetry) || done {
            break tid;
        }
    };
    resharder.join().expect("resharder thread");

    println!("\n== one call, admission to state and back ==");
    print!("{}", telemetry_export::render_trace_tree(trace_id));

    println!("\n== cluster-wide histograms and counters ==");
    telemetry_export::print_metrics_table(&gw.telemetry());

    // Smoke assertions: the tree is non-empty, covers every tier of the
    // pipeline, and is causally ordered.
    let spans = faasm::telemetry::trace_tree(trace_id);
    assert!(!spans.is_empty(), "exhibit trace recorded no spans");
    for (tier, s) in &spans {
        assert_eq!(s.trace_id, trace_id, "[{tier}] span from another trace");
        assert!(s.start_ns <= s.end_ns, "[{tier}] span runs backwards");
    }
    let kinds: Vec<SpanKind> = spans.iter().map(|(_, s)| s.kind).collect();
    for kind in [
        SpanKind::Admission,
        SpanKind::Dispatch,
        SpanKind::WorkerExec,
        SpanKind::StatePush,
        SpanKind::ShardApply,
    ] {
        assert!(kinds.contains(&kind), "trace is missing a {kind:?} span");
    }
    let start_of = |kind: SpanKind| {
        spans
            .iter()
            .filter(|(_, s)| s.kind == kind)
            .map(|(_, s)| s.start_ns)
            .min()
            .unwrap()
    };
    assert!(start_of(SpanKind::Admission) <= start_of(SpanKind::Dispatch));
    assert!(start_of(SpanKind::Dispatch) <= start_of(SpanKind::WorkerExec));
    assert!(start_of(SpanKind::WorkerExec) <= start_of(SpanKind::StatePush));
    println!("\ntrace storm OK");
}
