//! Gateway storm: thousands of concurrent requests from competing tenants.
//!
//! Three tenants with different fair-share weights and admission policies
//! hammer a 4-host cluster through the ingress tier at once — some through
//! the native API, some through the length-prefixed wire codec. The run
//! prints what the gateway observed: per-tenant outcomes, queueing-delay
//! percentiles, batch occupancy, shed counts and autoscaler actions.
//!
//! ```sh
//! cargo run --release --example gateway_storm
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::gateway::codec::{self, GatewayRequest};
use faasm::gateway::{AutoscaleConfig, Gateway, GatewayConfig, GatewayStatus, TenantPolicy};
use faasm::{Cluster, ClusterConfig};

const WORK: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        read_call_input((ptr int) 1024, 4);
        ptr int p = (ptr int) 1024;
        int acc = 0;
        for (int i = 0; i < 2000; i = i + 1) {
            acc = acc + i * p[0];
        }
        p[0] = acc;
        write_call_output((ptr int) 1024, 4);
        return 0;
    }
"#;

const TENANTS: [&str; 3] = ["anna", "ben", "carol"];
const REQUESTS_PER_TENANT: usize = 1500;
const CLIENT_THREADS_PER_TENANT: usize = 4;

fn main() {
    let cluster = Arc::new(Cluster::with_config(ClusterConfig {
        hosts: 4,
        ..ClusterConfig::default()
    }));
    for tenant in TENANTS {
        cluster
            .upload_fl(tenant, "work", WORK, Default::default())
            .unwrap();
    }

    let gateway = Arc::new(Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 4,
            max_batch: 32,
            autoscale: Some(AutoscaleConfig {
                interval: Duration::from_millis(5),
                ..AutoscaleConfig::default()
            }),
            ..GatewayConfig::default()
        },
    ));
    // Anna pays for twice the share; Ben is default; Carol is rate-capped
    // hard enough that much of her storm bounces off admission control.
    gateway.set_tenant_policy("anna", TenantPolicy::with_weight(2));
    gateway.set_tenant_policy(
        "carol",
        TenantPolicy {
            rate_per_sec: Some(500),
            burst: 100,
            queue_cap: 64,
            ..TenantPolicy::default()
        },
    );

    println!(
        "storm: {} tenants x {} requests over {} client threads each",
        TENANTS.len(),
        REQUESTS_PER_TENANT,
        CLIENT_THREADS_PER_TENANT
    );
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for tenant in TENANTS {
        for c in 0..CLIENT_THREADS_PER_TENANT {
            let gw = Arc::clone(&gateway);
            handles.push(std::thread::spawn(move || {
                let n = REQUESTS_PER_TENANT / CLIENT_THREADS_PER_TENANT;
                let mut ok = 0u64;
                let mut failed = 0u64;
                let mut shed = 0u64;
                for i in 0..n {
                    let input = (i as i32 + 1).to_le_bytes().to_vec();
                    // Half the clients speak the wire protocol end to end.
                    let status = if c % 2 == 0 {
                        let req = GatewayRequest {
                            seq: i as u64,
                            tenant: tenant.into(),
                            function: "work".into(),
                            deadline_ms: 2000,
                            trace: faasm::telemetry::TraceCtx::NONE,
                            input,
                        };
                        let frame = codec::encode_frame(&codec::encode_request(&req));
                        let resp_frame = gw.handle_frame(&frame);
                        let (payload, _) = codec::decode_frame(&resp_frame).expect("frame");
                        codec::decode_response(payload).expect("response").status
                    } else {
                        gw.call(tenant, "work", input).status
                    };
                    match status {
                        GatewayStatus::Ok => ok += 1,
                        GatewayStatus::Failed(_) | GatewayStatus::Error(_) => failed += 1,
                        GatewayStatus::Overloaded | GatewayStatus::Expired => shed += 1,
                    }
                }
                (tenant, ok, failed, shed)
            }));
        }
    }

    let mut per_tenant: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for h in handles {
        let (tenant, ok, failed, shed) = h.join().unwrap();
        let e = per_tenant.entry(tenant).or_default();
        e.0 += ok;
        e.1 += failed;
        e.2 += shed;
    }
    let elapsed = t0.elapsed();

    println!("\n== outcomes ==");
    for (tenant, (ok, failed, shed)) in &per_tenant {
        println!("{tenant:>8}: {ok:>5} ok  {failed:>3} failed  {shed:>5} shed");
    }

    let t = gateway.telemetry();
    let delay = t.hist("gateway", "queue_delay");
    let total_ok: u64 = per_tenant.values().map(|v| v.0).sum();
    println!("\n== gateway ==");
    println!("wall time          {:.2?}", elapsed);
    println!(
        "sustained rate     {:.0} req/s completed",
        total_ok as f64 / elapsed.as_secs_f64()
    );
    println!(
        "queueing delay     p50 {:.2} ms   p99 {:.2} ms",
        delay.percentile(50.0) as f64 / 1e6,
        delay.percentile(99.0) as f64 / 1e6
    );
    println!(
        "batch occupancy    {:.2} requests/batch",
        t.get("gateway", "batch_items") as f64 / t.get("gateway", "batches").max(1) as f64
    );
    println!(
        "shed               {} queue-full, {} rate-limited, {} expired",
        t.get("gateway", "shed_overloaded"),
        t.get("gateway", "shed_ratelimited"),
        t.get("gateway", "shed_expired")
    );
    println!(
        "autoscaler         {} pre-warmed, {} retired",
        t.get("gateway", "prewarmed"),
        t.get("gateway", "retired")
    );
    println!(
        "cluster            {} calls, {:.4} GB-s billable",
        t.get("worker", "calls"),
        cluster.billable_gb_seconds()
    );
}
