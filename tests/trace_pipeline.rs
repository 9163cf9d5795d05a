//! End-to-end tracing: one traced gateway call with state I/O must leave a
//! causally-linked span tree covering every tier — admission through
//! dispatch and worker execution down to the sharded state tier and back.

use std::collections::HashMap;
use std::sync::Arc;

use faasm::core::{Cluster, ClusterConfig, UploadOptions};
use faasm::gateway::{Gateway, GatewayConfig, GatewayStatus};
use faasm::telemetry::{Clock, SpanKind, SpanRecord};

mod common;

/// On a real clock and on a manual one that never moves (every span then
/// starts and ends at 0, and each still has to be recorded).
#[test]
fn traced_call_leaves_linked_span_tree_across_tiers() {
    check_span_tree(Clock::real());
    check_span_tree(Clock::manual());
}

fn check_span_tree(clock: Clock) {
    let config = ClusterConfig {
        hosts: 2,
        state_shards: 2,
        ..ClusterConfig::default()
    };
    let cluster = Arc::new(Cluster::with_clock(config, clock));
    // Read-modify-write a shared accumulator and push it: one global-tier
    // round trip per call, so the trace has state spans to link.
    let options = UploadOptions::default();
    cluster
        .upload_fl("tracer", "bump", common::ACCUMULATE, options)
        .unwrap();
    let gw = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());

    let (resp, trace_id) = gw.call_traced("tracer", "bump", vec![1]);
    assert_eq!(resp.status, GatewayStatus::Ok, "traced call failed");
    assert_ne!(trace_id, 0, "traced call minted no trace id");

    let spans = cluster.fabric().recorder().trace(trace_id);
    assert!(!spans.is_empty(), "traced call recorded no spans");

    // Every span belongs to this trace, has an id, and its clock is
    // monotone (start never after end).
    for s in &spans {
        assert_eq!(s.trace_id, trace_id, "{:?} span from another trace", s.kind);
        assert_ne!(s.span_id, 0, "{:?} span without an id", s.kind);
        assert!(
            s.start_ns <= s.end_ns,
            "{:?} span runs backwards: {} > {}",
            s.kind,
            s.start_ns,
            s.end_ns
        );
    }

    // The whole pipeline is covered: ingress, queueing, dispatch, bus,
    // execution, and the state round trip down to the shard server.
    let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    for kind in [
        SpanKind::Admission,
        SpanKind::QueueSojourn,
        SpanKind::Dispatch,
        SpanKind::BusTransit,
        SpanKind::WorkerExec,
        SpanKind::StatePush,
        SpanKind::ShardApply,
    ] {
        assert!(kinds.contains(&kind), "trace is missing a {kind:?} span");
    }

    // Parentage is consistent: spans whose parent was recorded start no
    // earlier than that parent, and spans whose parent was NOT recorded
    // all hang off the single ingress root context.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut root_parents: Vec<u64> = Vec::new();
    for s in &spans {
        match by_id.get(&s.parent_id) {
            Some(parent) => assert!(
                parent.start_ns <= s.start_ns,
                "{:?} starts before its parent {:?}",
                s.kind,
                parent.kind
            ),
            None => root_parents.push(s.parent_id),
        }
    }
    root_parents.sort_unstable();
    root_parents.dedup();
    assert_eq!(
        root_parents.len(),
        1,
        "top-level spans disagree on the root context: {root_parents:?}"
    );

    // Causal stage ordering: admission precedes dispatch, dispatch
    // precedes execution, and the state round trip happens inside the
    // worker's span.
    let first = |kind: SpanKind| -> &SpanRecord {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .min_by_key(|s| s.start_ns)
            .unwrap()
    };
    let admission = first(SpanKind::Admission);
    let dispatch = first(SpanKind::Dispatch);
    let worker = first(SpanKind::WorkerExec);
    let push = first(SpanKind::StatePush);
    assert!(
        admission.start_ns <= dispatch.start_ns,
        "dispatch before admission"
    );
    assert!(
        dispatch.start_ns <= worker.start_ns,
        "execution before dispatch"
    );
    assert!(
        worker.start_ns <= push.start_ns && push.end_ns <= worker.end_ns,
        "state push escapes the worker span: worker {}..{}, push {}..{}",
        worker.start_ns,
        worker.end_ns,
        push.start_ns,
        push.end_ns
    );
    // The state push is the parent of the shard-side apply.
    let apply = first(SpanKind::ShardApply);
    let apply_parent = by_id
        .get(&apply.parent_id)
        .expect("shard apply has a recorded parent");
    assert!(
        matches!(apply_parent.kind, SpanKind::StatePush | SpanKind::StatePull),
        "shard apply hangs off {:?}, not a state span",
        apply_parent.kind
    );
}
