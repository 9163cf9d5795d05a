//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is `manifest()` printed (a unit test holds the two together).

use crate::json::Json;

/// How long one run measures, in seconds. 4 + 22 x 5 runs of this length,
/// each with nine set-ups (about 22 s a run, 26 s on `state_mix`), and two
/// builds fit the 3420 s cap with a fifth to spare.
pub const RUN_SECONDS: u64 = 18;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ingress_null",
        "ingress-bound: a 4-byte echo through the remote gateway, so codec, admission, \
         queue, dispatch, bus and Faaslet reset are all there is",
    ),
    (
        "fvm_compute",
        "VM-bound: four 1M-instruction FL kernels through Cluster::invoke_async, no \
         gateway and no state",
    ),
    (
        "state_mix",
        "state-bound: zipfian 90/10 read/write mix over a working set 4x the cache, \
         through the remote gateway, at replication 1 (the replication-2 twin runs traced)",
    ),
    (
        "train_sgd",
        "the paper's Fig. 6 job: bulk chunked state and host-shared memory, no gateway \
         and no VM",
    ),
    (
        "coldstart_storm",
        "cold-start plane: per round a new version is compiled, captured, published, \
         fetched, pre-staged and hit by a 128-call burst",
    ),
];

/// (name, unit, better, bound). Every workload reports every one of them.
///
/// A bound is the smallest the evidence carries: the driver accepts a
/// metric whose ten-seed spread (IQR / median) is inside its bound and asks
/// for a third of it. Over ten seeds on this 2-core box `rps` and `p50_ms`
/// spread 4-8 % on most workloads, pure-compute `fvm_compute` included, and
/// up to 12 % in one set of two (`baseline/repeat-10.txt`); the level
/// itself moved 13 % within two hours on one commit (`fvm_compute` `rps`
/// 689, 661, then 603 in `baseline/repeat-2.txt`). A native single-thread
/// loop on the idle box runs at 0.85-1.20 of its own median in plateaus of
/// 1-3 s. So the three timings take the contract's widest bound, 0.25; a
/// 0.10 bound would reject the parent against itself. `p99_ms` spread
/// 8-23 % and is reported per layer (`workloads.p99_ms`), not bounded.
/// `mem_mb` and `net_kb_per_call` are counts; they repeat to 0.7 % and 2 %
/// and keep bounds of 0.05 and 0.10.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("rps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("mem_mb", "MB", "lower", 0.05),
    ("net_kb_per_call", "KB", "lower", 0.1),
];

/// (name, unit, better). Printed by a traced run only; no bounds.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The call ladder on the null function: each rung adds one layer.
    ("fvm.null_invoke_ns", "ns", "lower"),
    ("core.instance.warm_call_us", "us", "lower"),
    ("core.bus.call_us", "us", "lower"),
    ("gateway.inproc_call_us", "us", "lower"),
    ("gateway.remote_call_us", "us", "lower"),
    // gateway / sched
    ("gateway.codec.roundtrip_ns", "ns", "lower"),
    ("gateway.queue.push_drain_ns", "ns", "lower"),
    ("sched.decide_ns", "ns", "lower"),
    ("gateway.batch_occupancy", "count", "higher"),
    ("gateway.queue_delay_p99_us", "us", "lower"),
    ("gateway.admission_p50_us", "us", "lower"),
    ("gateway.queue_sojourn_p50_us", "us", "lower"),
    ("gateway.dispatch_p50_us", "us", "lower"),
    ("gateway.shed", "count", "lower"),
    ("gateway.unattributed_share", "share", "lower"),
    // core: serving path
    ("core.msg.batch_roundtrip_ns", "ns", "lower"),
    ("core.bus_transit_p50_us", "us", "lower"),
    ("core.worker_exec_p50_us", "us", "lower"),
    ("core.instance.warm_share", "share", "higher"),
    // core: cold-start path
    ("core.faaslet.restore_us", "us", "lower"),
    ("core.snapdist.chunk_proto_us", "us", "lower"),
    ("core.snapdist.assemble_us", "us", "lower"),
    ("core.snapdist.prestaged_call_us", "us", "lower"),
    ("core.snapdist.chunk_hit_share", "share", "higher"),
    ("core.snapdist.dedup_share", "share", "higher"),
    ("core.snapdist.captures_per_round", "count", "lower"),
    ("core.proto_restore_p50_us", "us", "lower"),
    ("core.snapshot_fetch_p50_us", "us", "lower"),
    ("core.snapshot_verify_p50_us", "us", "lower"),
    ("core.cold_start_ms", "ms", "lower"),
    ("core.first_call_ms", "ms", "lower"),
    ("core.storm_ms", "ms", "lower"),
    // fvm / lang / mem
    ("fvm.arith_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.memory_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.call_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.float_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.fused_width", "count", "higher"),
    ("fvm.interp_arith_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.dlcall_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.guest_minstr_per_s", "Minstr/s", "higher"),
    ("fvm.prepare_us", "us", "lower"),
    ("lang.compile_us", "us", "lower"),
    ("mem.snapshot_capture_us", "us", "lower"),
    ("mem.snapshot_restore_us", "us", "lower"),
    // state / kvs
    ("state.pull_ms", "ms", "lower"),
    ("state.push_ms", "ms", "lower"),
    ("state.pull_p50_us", "us", "lower"),
    ("state.push_p50_us", "us", "lower"),
    ("state.lock_wait_p50_us", "us", "lower"),
    ("state.read_p50_ms", "ms", "lower"),
    ("state.write_p50_ms", "ms", "lower"),
    ("state.r2_rps", "1/s", "higher"),
    ("state.r2_p50_ms", "ms", "lower"),
    ("kvs.client.get_us", "us", "lower"),
    ("kvs.client.set_us", "us", "lower"),
    ("kvs.client.set_r2_us", "us", "lower"),
    ("kvs.multiget_us", "us", "lower"),
    ("kvs.codec.roundtrip_ns", "ns", "lower"),
    ("kvs.cache.hit_ns", "ns", "lower"),
    ("kvs.cache.hit_share", "share", "higher"),
    ("kvs.cache.evictions", "count", "lower"),
    ("kvs.cache.invalidations", "count", "lower"),
    ("kvs.shard_apply_p50_us", "us", "lower"),
    ("kvs.repl_forward_p50_us", "us", "lower"),
    ("kvs.quorum_wait_p50_us", "us", "lower"),
    ("kvs.server.ops_per_call", "count", "lower"),
    ("kvs.content.sha256_mb_per_s", "MB/s", "higher"),
    // net / telemetry / baseline / workloads / benchmark
    ("net.roundtrip_us", "us", "lower"),
    ("net.stream_mb_per_s", "MB/s", "higher"),
    ("net.bytes_per_call", "B", "lower"),
    ("net.msgs_per_call", "count", "lower"),
    ("telemetry.span_ns", "ns", "lower"),
    ("telemetry.overhead_pct", "%", "lower"),
    ("baseline.train_examples_per_s", "1/s", "higher"),
    ("baseline.net_mb_per_epoch", "MB", "lower"),
    ("baseline.mem_mb", "MB", "lower"),
    ("baseline.cold_start_ms", "ms", "lower"),
    ("workloads.sgd_update_ms", "ms", "lower"),
    ("workloads.examples_per_s", "1/s", "higher"),
    ("workloads.net_mb_per_epoch", "MB", "lower"),
    ("workloads.p99_ms", "ms", "lower"),
    ("benchmark.trace_overhead_pct", "%", "lower"),
    ("benchmark.client_busy_share", "share", "lower"),
];

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        let mut fields = named(name, unit, better);
                        fields.push(("bound", Json::Num(bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| Json::obj(named(name, unit, better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest().pretty(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)));
        let distinct: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.1) && m.3 <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }
}
