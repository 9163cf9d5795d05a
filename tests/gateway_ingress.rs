//! End-to-end tests for the ingress tier: multi-tenant floods through the
//! gateway must be fair, shed explicitly, and agree with direct
//! `Cluster::invoke` results.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::core::{Cluster, ClusterConfig};
use faasm::gateway::codec::{self, GatewayRequest};
use faasm::gateway::{
    AutoscaleConfig, Gateway, GatewayConfig, GatewayStatus, TenantPolicy, TARGET_DISPATCH_LATENCY,
};
use faasm::telemetry::Clock;

mod common;

use common::ECHO;

/// Spin until `done` holds or 10 s of real time pass; returns `done()`.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > Duration::from_secs(10) {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A cluster of `hosts` where alice and bob each have `echo` and a `slow`
/// echo held at the gate (`common::GATE`).
fn cluster_with_tenants(hosts: usize) -> Arc<Cluster> {
    tenants_on(Cluster::new(hosts))
}

fn tenants_on(cluster: Cluster) -> Arc<Cluster> {
    let cluster = Arc::new(cluster);
    for tenant in ["alice", "bob"] {
        cluster
            .upload_fl(tenant, "echo", ECHO, Default::default())
            .unwrap();
        cluster
            .upload_fl(tenant, "slow", common::GATE, Default::default())
            .unwrap();
    }
    cluster
}

/// A one-host cluster on a manual clock, with alice's and bob's functions.
fn one_host_on_manual_clock() -> (Arc<Cluster>, Clock) {
    let clock = Clock::manual();
    let config = ClusterConfig {
        hosts: 1,
        ..ClusterConfig::default()
    };
    let cluster = tenants_on(Cluster::with_clock(config, clock.clone()));
    (cluster, clock)
}

#[test]
fn gateway_results_match_direct_invoke() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    for i in 0..10u8 {
        let input = vec![i, i + 1, i + 2];
        let via_gateway = gateway.call("alice", "echo", input.clone());
        let direct = cluster.invoke("alice", "echo", input.clone());
        assert_eq!(via_gateway.status, GatewayStatus::Ok, "request {i}");
        assert_eq!(
            via_gateway.output, direct.output,
            "gateway and direct results must be identical"
        );
        assert_eq!(via_gateway.output, input);
    }
    // Guest return codes survive the trip too.
    cluster
        .upload_fl(
            "bob",
            "fail",
            "int main() { return 7; }",
            Default::default(),
        )
        .unwrap();
    let resp = gateway.call("bob", "fail", vec![]);
    assert_eq!(resp.status, GatewayStatus::Failed(7));
    let direct = cluster.invoke("bob", "fail", vec![]);
    assert_eq!(direct.return_code(), 7);
}

/// Which instance ran the call that moved the per-host call counts from
/// `before` to their current values.
fn host_that_ran(cluster: &Cluster, before: &mut Vec<u64>) -> usize {
    let now: Vec<u64> = cluster
        .instances()
        .iter()
        .map(|i| i.metrics().calls())
        .collect();
    let ran: Vec<usize> = (0..now.len()).filter(|&h| now[h] > before[h]).collect();
    assert_eq!(ran.len(), 1, "one call, one host: {before:?} -> {now:?}");
    *before = now;
    ran[0]
}

#[test]
fn both_doors_place_on_the_same_hosts() {
    // Twin clusters, identical warm pools, depths and boards: the cluster
    // door and the gateway share one chooser, so call for call they must
    // pick the same host and return the same result.
    let direct = cluster_with_tenants(3);
    let fronted = cluster_with_tenants(3);
    let gateway = Gateway::start(
        Arc::clone(&fronted),
        GatewayConfig {
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    let shape = |cluster: &Cluster, prewarm: [usize; 3], affine: Option<usize>| {
        for (inst, n) in cluster.instances().iter().zip(prewarm) {
            assert_eq!(inst.prewarm("alice", "echo", n).unwrap(), n);
        }
        if let Some(host) = affine.map(|h| cluster.instances()[h].host_id()) {
            let touched = [("state/alice/hot".into(), 3)];
            cluster
                .boards()
                .report_affinity("alice", "echo", host, &touched);
        }
    };
    let mut ran_direct = vec![0; 3];
    let mut ran_fronted = vec![0; 3];
    let mut sequence = Vec::new();
    // Two equally warm hosts tie and rotate; then the third is made both
    // warmer and affine and takes over.
    for (prewarm, affine) in [([1, 1, 0], None), ([0, 0, 3], Some(2))] {
        shape(&direct, prewarm, affine);
        shape(&fronted, prewarm, affine);
        for i in 0..8u8 {
            let a = direct.invoke("alice", "echo", vec![i, 7]);
            let b = gateway.call("alice", "echo", vec![i, 7]);
            assert_eq!(b.status, GatewayStatus::Ok);
            assert_eq!(a.output, b.output, "call {i}");
            let host = host_that_ran(&direct, &mut ran_direct);
            assert_eq!(host, host_that_ran(&fronted, &mut ran_fronted), "call {i}");
            sequence.push(host);
        }
    }
    assert!(
        sequence[..8].contains(&0) && sequence[..8].contains(&1),
        "tied hosts rotate: {sequence:?}"
    );
    assert_eq!(sequence[8..], [2; 8], "the best host wins outright");
}

#[test]
fn wire_frames_roundtrip_through_the_gateway() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    let req = GatewayRequest {
        seq: 777,
        tenant: "alice".into(),
        function: "echo".into(),
        deadline_ms: 0,
        trace: faasm::telemetry::TraceCtx::NONE,
        input: b"over the wire".to_vec(),
    };
    let frame = codec::encode_frame(&codec::encode_request(&req));
    let resp_frame = gateway.handle_frame(&frame);
    let (payload, _) = codec::decode_frame(&resp_frame).expect("framed response");
    let resp = codec::decode_response(payload).expect("decodable response");
    assert_eq!(resp.seq, 777, "response echoes the client seq");
    assert_eq!(resp.status, GatewayStatus::Ok);
    assert_eq!(resp.output, b"over the wire");

    // Malformed bytes get an explicit error, not a hang or a panic.
    let bad = gateway.handle_frame(&codec::encode_frame(b"not a request"));
    let (payload, _) = codec::decode_frame(&bad).unwrap();
    let resp = codec::decode_response(payload).unwrap();
    assert!(matches!(resp.status, GatewayStatus::Error(_)));
}

#[test]
fn overload_is_shed_with_explicit_status_not_a_hang() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 1,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Tiny bounded queue: the flood must overflow it.
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 4,
            ..TenantPolicy::default()
        },
    );
    let tickets: Vec<u64> = (0..64)
        .map(|i| gateway.submit("alice", "slow", common::held(1, &[i])))
        .collect();
    common::let_through(&cluster, i64::MAX);
    let responses: Vec<_> = tickets.into_iter().map(|t| gateway.wait(t)).collect();
    let shed = responses
        .iter()
        .filter(|r| r.status == GatewayStatus::Overloaded)
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.status == GatewayStatus::Ok)
        .count();
    assert!(shed > 0, "a 64-deep burst into a 4-deep queue must shed");
    assert!(ok > 0, "admitted requests still complete");
    assert_eq!(shed + ok, 64, "every request gets a terminal answer");
    assert_eq!(gateway.metrics().shed_overloaded(), shed as u64);
}

#[test]
fn rate_limited_tenants_shed_with_overloaded() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    // 1 request/second with a burst of 2: the third immediate request in
    // the burst must bounce off the token bucket.
    gateway.set_tenant_policy("alice", TenantPolicy::rate_limited(1, 2));
    let mut statuses = Vec::new();
    for i in 0..6u8 {
        statuses.push(gateway.call("alice", "echo", vec![i]).status);
    }
    let shed = statuses
        .iter()
        .filter(|s| **s == GatewayStatus::Overloaded)
        .count();
    assert!(
        shed >= 3,
        "rate 1/s burst 2 over 6 requests: got {statuses:?}"
    );
    assert!(gateway.metrics().shed_ratelimited() >= 3);
    // Bob is untouched by Alice's limit.
    assert_eq!(
        gateway.call("bob", "echo", vec![9]).status,
        GatewayStatus::Ok
    );
}

#[test]
fn queued_past_deadline_is_shed_with_expired() {
    let (cluster, clock) = one_host_on_manual_clock();
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 1,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Occupy the single dispatcher with held work, then enqueue requests
    // whose deadline passes while they sit behind it.
    let busy: Vec<u64> = (0..8)
        .map(|i| gateway.submit("alice", "slow", common::held(1, &[i])))
        .collect();
    let doomed: Vec<u64> = (0..4)
        .map(|i| gateway.submit_with_deadline("bob", "echo", vec![i], Duration::from_millis(1)))
        .collect();
    clock.advance(Duration::from_millis(1));
    let expired = doomed
        .into_iter()
        .map(|t| gateway.wait(t))
        .filter(|r| r.status == GatewayStatus::Expired)
        .count();
    assert!(expired > 0, "1 ms deadlines behind held work must expire");
    assert_eq!(gateway.metrics().shed_expired(), expired as u64);
    common::let_through(&cluster, i64::MAX);
    for t in busy {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
}

/// The head-of-line regression the batch-aware dispatcher fixes: with every
/// in-flight slot pinned by held work, short-deadline requests must still be
/// shed `Expired` within a few `BATCH_WAIT` polls of their deadline — not
/// after the held batch completes (the old dispatcher parked in
/// `await_call`), and certainly not at `WAIT_TIMEOUT`.
#[test]
fn expired_shed_is_prompt_while_dispatchers_are_saturated() {
    let (cluster, clock) = one_host_on_manual_clock();
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4, // max_inflight defaults to 1×4
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Pin all four in-flight slots (and more) with held calls.
    let busy: Vec<u64> = (0..8)
        .map(|i| gateway.submit("alice", "slow", common::held(1, &[i])))
        .collect();
    assert!(
        eventually(|| gateway.queue_len() == 4),
        "the dispatcher took the held batch in flight"
    );
    // Short-deadline requests behind the wall of held work.
    let doomed: Vec<u64> = (0..4)
        .map(|i| gateway.submit_with_deadline("bob", "echo", vec![i], Duration::from_millis(10)))
        .collect();
    clock.advance(Duration::from_millis(10));
    let t0 = Instant::now();
    for t in doomed {
        let r = gateway.wait(t);
        assert_eq!(
            r.status,
            GatewayStatus::Expired,
            "deadline passed while all submit slots were pinned"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "expired sheds must be bounded by the BATCH_WAIT cadence, not by \
         the in-flight work (took {elapsed:?})"
    );
    assert_eq!(gateway.metrics().shed_expired(), 4);
    // The held work still completes correctly behind the sheds.
    common::let_through(&cluster, i64::MAX);
    for t in busy {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
}

/// The dispatch-latency back-pressure loop: under saturation the measured
/// EWMA stands above target, the effective per-tenant queue caps shrink
/// (AIMD multiplicative decrease) and load is shed `Overloaded` **at
/// admission** instead of queueing work the cluster cannot serve; once the
/// gateway drains, the caps grow back. The clock is manual, so every
/// sojourn and every adjustment tick is the test's to make.
#[test]
fn standing_dispatch_delay_shrinks_admission_caps_then_recovers() {
    let (cluster, clock) = one_host_on_manual_clock();
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    assert_eq!(gateway.admission_cap_scale(), 1.0, "caps start unscaled");
    // Four held calls take every in-flight slot; four more queue.
    let mut tickets: Vec<u64> = (1..=8)
        .map(|ticket| gateway.submit("alice", "slow", common::held(ticket, &[])))
        .collect();
    assert!(eventually(|| gateway.queue_len() == 4), "a batch in flight");
    // The queued jobs stand past the sojourn target; one released call
    // lets one of them dispatch, and its sojourn feeds the EWMA.
    clock.advance(TARGET_DISPATCH_LATENCY * 2);
    common::let_through(&cluster, 1);
    assert!(
        eventually(|| gateway.queue_len() == 3),
        "a queued job dispatched"
    );
    // Standing delay: every adjustment tick shrinks the caps, down to
    // their floor of 1/16.
    while gateway.admission_cap_scale() > 1.0 / 16.0 {
        let before = gateway.admission_cap_scale();
        clock.advance(TARGET_DISPATCH_LATENCY);
        assert!(
            eventually(|| gateway.admission_cap_scale() < before),
            "standing delay must shrink the cap scale, still at {before}"
        );
    }
    // A flood the configured cap of 256 would queue whole.
    tickets
        .extend((9..109).map(|ticket| gateway.submit("alice", "slow", common::held(ticket, &[]))));
    let scale_under_load = gateway.admission_cap_scale();
    let queued_under_load = gateway.queue_len();
    let sheds = gateway.metrics().shed_overloaded();
    assert!(
        scale_under_load < 1.0,
        "standing delay must shrink the cap scale, still at {scale_under_load}"
    );
    assert!(
        gateway.dispatch_latency_ewma() > Duration::from_millis(2),
        "the EWMA has seen the standing queue"
    );
    assert!(
        sheds > 0,
        "saturation must shed Overloaded at admission (scale {scale_under_load})"
    );
    assert!(
        queued_under_load < 64,
        "load is shed at admission, not queued: {queued_under_load} queued \
         against a configured cap of 256"
    );

    // Drain, then the loop grows the caps back (the drained gateway decays
    // the EWMA below target/2 even with no fresh completions).
    common::let_through(&cluster, i64::MAX);
    for t in tickets {
        let r = gateway.wait(t);
        assert!(
            matches!(r.status, GatewayStatus::Ok | GatewayStatus::Overloaded),
            "unexpected terminal status {:?}",
            r.status
        );
    }
    let trough = gateway.admission_cap_scale();
    // Every adjustment tick of the drained gateway decays the EWMA; once it
    // is below half the target, a tick grows the caps.
    let recovered = eventually(|| {
        clock.advance(TARGET_DISPATCH_LATENCY);
        gateway.admission_cap_scale() > trough
    });
    assert!(
        recovered,
        "caps must grow back on drain (stuck at {trough})"
    );
}

/// A submit that passes the token bucket but is shed `Overloaded` at the
/// queue cap must refund its token: being at the queue cap must not also
/// drain the rate budget.
#[test]
fn queue_full_shed_refunds_the_rate_limit_token() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    // Rate 1/s with burst 2, and a queue that admits nothing: every submit
    // passes the bucket (thanks to refunds) and sheds at the queue.
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 0,
            ..TenantPolicy::rate_limited(1, 2)
        },
    );
    for i in 0..6u8 {
        let r = gateway.call("alice", "echo", vec![i]);
        assert_eq!(r.status, GatewayStatus::Overloaded);
    }
    let m = gateway.metrics();
    assert_eq!(
        m.shed_overloaded(),
        6,
        "all six sheds come from the queue cap"
    );
    assert_eq!(
        m.shed_ratelimited(),
        0,
        "refunded tokens mean the bucket never empties: without the refund \
         a burst of 2 would have rate-limited the third submit"
    );
}

#[test]
fn no_tenant_starves_under_weighted_fair_share() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 1024,
            ..TenantPolicy::default()
        },
    );
    // Alice floods the single dispatcher with held work...
    let flood: Vec<u64> = (1..=80)
        .map(|i| gateway.submit("alice", "slow", common::held(i, &[i as u8])))
        .collect();
    // ...then Bob shows up with a handful of requests. Sixteen calls may
    // finish: Bob's four and Alice's first twelve, the four in flight and
    // eight drained after them. Bob is served only if fair share dispatches
    // his calls before Alice's next four pin every in-flight slot.
    let modest: Vec<u64> = (1..=4)
        .map(|i| gateway.submit("bob", "slow", common::held(i, &[i as u8])))
        .collect();
    common::let_through(&cluster, 12);
    for t in modest {
        let r = gateway.wait(t);
        assert_eq!(
            r.status,
            GatewayStatus::Ok,
            "bob must be served despite alice's flood"
        );
    }
    // Fair share means Bob finished while Alice's backlog was still
    // pending: he did not wait behind her entire flood.
    assert!(
        gateway.queue_len() > 0,
        "alice's backlog should still be draining when bob completes"
    );
    common::let_through(&cluster, i64::MAX);
    for t in flood {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
    let m = gateway.metrics();
    assert_eq!(m.completed(), 84);
    assert!(m.batch_occupancy() >= 1.0);
    assert!(m.queue_delay_p99_ns() >= m.queue_delay_p50_ns());
}

#[test]
fn autoscaler_prewarms_under_backlog_and_retires_when_idle() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 2,
            autoscale: Some(AutoscaleConfig {
                backlog_high: 2,
                max_warm: 16,
                ..AutoscaleConfig::default()
            }),
            ..GatewayConfig::default()
        },
    );
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 1024,
            ..TenantPolicy::default()
        },
    );
    // Prime one proto so prewarm can restore, then flood.
    assert!(gateway.call("alice", "echo", vec![0]).is_ok());
    let tickets: Vec<u64> = (0..120)
        .map(|i| gateway.submit("alice", "slow", common::held(1, &[i])))
        .collect();
    // The backlog stands until the autoscaler has reacted to it.
    let m = gateway.metrics();
    eventually(|| m.prewarmed() > 0);
    common::let_through(&cluster, i64::MAX);
    for t in tickets {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
    assert!(
        m.prewarmed() > 0,
        "sustained backlog must trigger pre-warming"
    );
    // The idle autoscaler scales back down.
    let idle_slow = || -> usize {
        cluster
            .instances()
            .iter()
            .map(|i| i.warm_count("alice", "slow"))
            .sum()
    };
    eventually(|| idle_slow() <= 1 || m.retired() > 0);
    let idle_slow = idle_slow();
    assert!(
        idle_slow <= 1 || m.retired() > 0,
        "idle pools should shrink toward the target (idle {idle_slow}, retired {})",
        m.retired()
    );
}
