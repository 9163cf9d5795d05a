//! Per-layer metrics from the counters and histograms the program already
//! exposes through public snapshot functions: one snapshot before a traced
//! window, one after, and the deltas.

use faasm::core::metrics::GatewayMetricsSnapshot;
use faasm::core::{Cluster, MetricsSnapshot, SnapStatsSnapshot};
use faasm::gateway::Gateway;
use faasm::kvs::CacheStats;
use faasm::net::TrafficSnapshot;
use faasm::telemetry::{HistSnapshot, SpanKind};

pub struct Snapshot {
    gateway: Option<GatewayMetricsSnapshot>,
    instances: MetricsSnapshot,
    cache: CacheStats,
    snap: SnapStatsSnapshot,
    /// Ops the state shards served: reads + writes + lock ops.
    shard_ops: u64,
    fabric: TrafficSnapshot,
    hists: Vec<(SpanKind, HistSnapshot)>,
}

/// Every tier's histogram of each span kind, merged.
fn hists() -> Vec<(SpanKind, HistSnapshot)> {
    let mut merged: Vec<(SpanKind, HistSnapshot)> = Vec::new();
    for (_tier, kinds) in faasm::telemetry::metrics_snapshot() {
        for (kind, hist) in kinds {
            match merged.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, total)) => total.merge(&hist),
                None => merged.push((kind, hist)),
            }
        }
    }
    merged
}

pub fn snapshot(cluster: &Cluster, gateway: Option<&Gateway>) -> Snapshot {
    let mut instances = MetricsSnapshot::default();
    let mut cache = CacheStats::default();
    let mut snap = SnapStatsSnapshot::default();
    for instance in cluster.instances() {
        instances.merge(&instance.metrics().snapshot());
        if let Some(c) = instance.cache() {
            let s = c.stats();
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.invalidations += s.invalidations;
            cache.revalidations += s.revalidations;
            cache.evictions += s.evictions;
        }
        let s = instance.snapshot_stats();
        snap.chunks_fetched += s.chunks_fetched;
        snap.chunk_hits += s.chunk_hits;
        snap.chunks_published += s.chunks_published;
        snap.chunks_deduped += s.chunks_deduped;
    }
    let shard_ops = cluster
        .state_shard_stats()
        .expect("state shard stats")
        .iter()
        .map(|s| s.reads + s.writes + s.lock_ops)
        .sum();
    Snapshot {
        gateway: gateway.map(|g| g.metrics().snapshot()),
        instances,
        cache,
        snap,
        shard_ops,
        fabric: cluster.fabric().stats().snapshot(),
        hists: hists(),
    }
}

/// The samples a histogram gained between two snapshots of it.
fn gained(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let mut delta = *after;
    delta.count -= before.count;
    delta.sum -= before.sum;
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets.iter()) {
        *d -= b;
    }
    delta
}

/// Median, in us, of the spans of `kind` recorded between two snapshots.
pub fn p50_us(before: &Snapshot, after: &Snapshot, kind: SpanKind) -> f64 {
    percentile_us(before, after, kind, 50.0)
}

fn percentile_us(before: &Snapshot, after: &Snapshot, kind: SpanKind, p: f64) -> f64 {
    let of = |s: &Snapshot| s.hists.iter().find(|(k, _)| *k == kind).map(|(_, h)| *h);
    match (of(after), of(before)) {
        (Some(a), Some(b)) => gained(&a, &b).percentile(p) as f64 / 1e3,
        (Some(a), None) => a.percentile(p) as f64 / 1e3,
        (None, _) => 0.0,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer metrics over the window between two snapshots in which the
/// workload completed `calls` correct calls.
pub fn derive(before: &Snapshot, after: &Snapshot, calls: u64) -> Vec<(&'static str, f64)> {
    let calls_f = calls.max(1) as f64;
    let mut out = Vec::new();
    if let (Some(b), Some(a)) = (&before.gateway, &after.gateway) {
        out.push((
            "gateway.batch_occupancy",
            share(a.batch_items - b.batch_items, a.batches - b.batches),
        ));
        let delay = gained(&a.queue_delay, &b.queue_delay);
        out.push((
            "gateway.queue_delay_p99_us",
            delay.percentile(99.0) as f64 / 1e3,
        ));
        out.push(("gateway.shed", (a.shed_total() - b.shed_total()) as f64));
    }
    for (name, kind) in [
        ("gateway.admission_p50_us", SpanKind::Admission),
        ("gateway.queue_sojourn_p50_us", SpanKind::QueueSojourn),
        ("gateway.dispatch_p50_us", SpanKind::Dispatch),
        ("core.bus_transit_p50_us", SpanKind::BusTransit),
        ("core.worker_exec_p50_us", SpanKind::WorkerExec),
        ("core.proto_restore_p50_us", SpanKind::ProtoRestore),
        ("core.snapshot_fetch_p50_us", SpanKind::SnapshotFetch),
        ("core.snapshot_verify_p50_us", SpanKind::SnapshotVerify),
        ("state.pull_p50_us", SpanKind::StatePull),
        ("state.push_p50_us", SpanKind::StatePush),
        ("state.lock_wait_p50_us", SpanKind::LockWait),
        ("kvs.shard_apply_p50_us", SpanKind::ShardApply),
        ("kvs.repl_forward_p50_us", SpanKind::ReplForward),
        ("kvs.quorum_wait_p50_us", SpanKind::QuorumWait),
    ] {
        // No samples, no metric: the workload does not use that stage.
        let p50 = p50_us(before, after, kind);
        if p50 > 0.0 {
            out.push((name, p50));
        }
    }
    let (bi, ai) = (&before.instances, &after.instances);
    let starts = (ai.warm_starts + ai.cold_starts + ai.proto_restores)
        - (bi.warm_starts + bi.cold_starts + bi.proto_restores);
    out.push((
        "core.instance.warm_share",
        share(ai.warm_starts - bi.warm_starts, starts),
    ));
    let (bs, as_) = (&before.snap, &after.snap);
    let hits = as_.chunk_hits - bs.chunk_hits;
    out.push((
        "core.snapdist.chunk_hit_share",
        share(hits, hits + as_.chunks_fetched - bs.chunks_fetched),
    ));
    let deduped = as_.chunks_deduped - bs.chunks_deduped;
    out.push((
        "core.snapdist.dedup_share",
        share(
            deduped,
            deduped + as_.chunks_published - bs.chunks_published,
        ),
    ));
    let (bc, ac) = (&before.cache, &after.cache);
    let cache_hits = ac.hits - bc.hits;
    out.push((
        "kvs.cache.hit_share",
        share(cache_hits, cache_hits + ac.misses - bc.misses),
    ));
    out.push(("kvs.cache.evictions", (ac.evictions - bc.evictions) as f64));
    out.push((
        "kvs.cache.invalidations",
        (ac.invalidations - bc.invalidations) as f64,
    ));
    out.push((
        "kvs.server.ops_per_call",
        (after.shard_ops - before.shard_ops) as f64 / calls_f,
    ));
    let net = after.fabric.delta(&before.fabric);
    out.push(("net.bytes_per_call", net.total_bytes() as f64 / calls_f));
    out.push(("net.msgs_per_call", net.msgs_sent as f64 / calls_f));
    out
}
