//! The five workloads and what they share.
//!
//! Each drives the system from outside through `faasm`'s public API, in
//! its own process (recorders and registries are process-global, ROADMAP
//! open item 1). Configs set only the fields listed here; everything else,
//! telemetry recording included, stays at its production default.

pub mod coldstart_storm;
pub mod fvm_compute;
pub mod ingress_null;
pub mod state_mix;
pub mod train_sgd;

use std::sync::Arc;
use std::time::Duration;

use faasm::core::{Cluster, ClusterConfig};
use faasm::gateway::{
    Gateway, GatewayClient, GatewayConfig, GatewayResponse, GatewayServer, GatewayStatus,
    TenantPolicy,
};

use crate::loadgen::{Limit, Phase, Verdict};
use crate::spans::Spans;

/// Every call goes out under this tenant.
pub const TENANT: &str = "bench";

/// The windows of the two ingress phases: `lat` reports latency where the
/// closed loop repeated within 2 %, `sat` reports throughput. Windows 1, 2
/// and 4 spread 15-40 % on this box and are not used.
pub const LAT_WINDOW: usize = 8;
pub const SAT_WINDOW: usize = 64;

/// Slices a phase is cut into (see `Phase`): of an 18 s run a slice is
/// 0.7 s to 1.5 s, which still holds a hundred requests of the slowest
/// workload.
pub const SLICES: usize = 12;

/// What one timed run of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub phases: Vec<Phase>,
    /// Correct completions per second (the `sat` phase where there are two).
    pub rps: f64,
    /// Submit-to-response latency (the `lat` phase where there are two).
    pub p50_ms: f64,
    /// Host memory plus global-tier value bytes.
    pub mem_mb: f64,
    /// Fabric bytes plus object-store pulls, per correct call.
    pub net_kb_per_call: f64,
    /// Numbers only this workload has, by per-layer metric name.
    pub extras: Vec<(&'static str, f64)>,
    /// Correctness failures beyond per-request verdicts; empty when correct.
    pub errors: Vec<String>,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn ok(&self) -> u64 {
        self.phases.iter().map(|p| p.ok).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Set `p50_ms` from one phase's latencies, and note its tail.
    pub fn latency_from(&mut self, phase: &Phase) {
        self.p50_ms = phase.percentile_ms(None, 50.0);
        self.extras
            .push(("workloads.p99_ms", phase.percentile_ms(None, 99.0)));
    }
}

/// A workload after set-up (boot, upload, preload, warm-up), ready for its
/// first timed request.
pub trait Workload {
    /// Run timed for about `secs` seconds.
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured;

    /// A second run a workload adds to the traced set once the counter
    /// window has closed: per-layer numbers and correctness failures.
    fn side_run(&mut self, _secs: f64) -> (Vec<(&'static str, f64)>, Vec<String>) {
        Default::default()
    }

    /// The cluster under test, for the counter snapshots of a traced run.
    fn cluster(&self) -> &Cluster;

    /// The gateway under test, where the workload has one.
    fn gateway(&self) -> Option<&Gateway> {
        None
    }

    /// The whole configuration under test and the workload's own
    /// parameters, for the result stamp.
    fn config(&self) -> String;
}

/// How much warm-up precedes a run. It is a count of work and not a time,
/// so that `setup_s` holds only work the program did; it is short, enough
/// to fill the warm pools, because a cold first slice of the timed window
/// does not move a median over slices.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Warm-up calls of `ingress_null`, `fvm_compute` and `state_mix`.
    pub ingress_calls: u64,
    pub fvm_calls: u64,
    pub state_calls: u64,
    /// Warm-up epochs of `train_sgd` and rounds of `coldstart_storm`.
    pub sgd_epochs: usize,
    pub storm_rounds: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        ingress_calls: 8192,
        fvm_calls: 128,
        state_calls: 2048,
        sgd_epochs: 3,
        storm_rounds: 20,
    };
    pub const SMOKE: Sizing = Sizing {
        ingress_calls: 1024,
        fvm_calls: 16,
        state_calls: 256,
        sgd_epochs: 1,
        storm_rounds: 2,
    };
}

/// Boot a cluster; beside it, its whole configuration for the result stamp.
pub fn boot(config: ClusterConfig) -> (Cluster, String) {
    let stamp = format!("{config:?}");
    (Cluster::with_config(config), stamp)
}

pub fn setup(name: &str, seed: u64, sizing: Sizing) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ingress_null" => Box::new(ingress_null::IngressNull::setup(seed, sizing)),
        "fvm_compute" => Box::new(fvm_compute::FvmCompute::setup(seed, sizing)),
        "state_mix" => Box::new(state_mix::StateMix::setup(seed, sizing)),
        "train_sgd" => Box::new(train_sgd::TrainSgd::setup(seed, sizing)),
        "coldstart_storm" => Box::new(coldstart_storm::ColdstartStorm::setup(seed, sizing)),
        _ => return None,
    })
}

/// A cluster behind a remote gateway: a `GatewayServer` and one
/// `GatewayClient`, each on its own fabric host.
pub struct Ingress {
    pub client: GatewayClient,
    /// Serves the client's connection for as long as the ingress lives.
    _server: GatewayServer,
    pub gateway: Arc<Gateway>,
    pub cluster: Arc<Cluster>,
    /// Cluster, gateway and tenant configuration, for the result stamp.
    pub config: String,
}

/// Shut down front to back from the owning thread. Left to the field
/// drops, the last `Arc<Cluster>` can be released by a completion callback
/// still unwinding on a worker thread, and `Cluster::drop` then joins the
/// thread it runs on ("Resource deadlock avoided").
impl Drop for Ingress {
    fn drop(&mut self) {
        self.client.shutdown();
        self._server.shutdown();
        self.gateway.shutdown();
        self.cluster.shutdown();
    }
}

impl Ingress {
    pub fn start(config: ClusterConfig) -> Ingress {
        let (cluster, cluster_stamp) = boot(config);
        let cluster = Arc::new(cluster);
        let gateway_config = GatewayConfig {
            dispatchers: 2,
            max_batch: 32,
            max_inflight: 64,
            autoscale: None,
            ..GatewayConfig::default()
        };
        let policy = TenantPolicy {
            queue_cap: 32_768,
            ..TenantPolicy::default()
        };
        let config = format!("{cluster_stamp}, {gateway_config:?}, {policy:?}");
        let gateway = Arc::new(Gateway::start(Arc::clone(&cluster), gateway_config));
        gateway.set_tenant_policy(TENANT, policy);
        let server = GatewayServer::start(Arc::clone(&gateway), cluster.add_fabric_host());
        let client = GatewayClient::connect(cluster.add_fabric_host(), server.host_id())
            .expect("connect to the gateway server");
        Ingress {
            client,
            _server: server,
            gateway,
            cluster,
            config,
        }
    }
}

/// `Ok` with the expected bytes, or why not.
pub fn verdict_of(resp: &GatewayResponse, expected: &[u8]) -> Verdict {
    match &resp.status {
        GatewayStatus::Ok if resp.output == expected => Verdict::Ok,
        GatewayStatus::Overloaded | GatewayStatus::Expired => Verdict::Shed,
        _ => Verdict::Failed,
    }
}

/// Host memory (Faaslets, local state tier, file cache) plus the value
/// bytes every state shard holds, in MB.
pub fn mem_mb(cluster: &Cluster) -> f64 {
    let shards: u64 = cluster
        .state_shard_stats()
        .expect("state shard stats")
        .iter()
        .map(|s| s.value_bytes)
        .sum();
    (cluster.host_memory_bytes() as u64 + shards) as f64 / 1e6
}

/// Bytes that crossed the fabric or were pulled from the object store.
pub fn net_bytes(cluster: &Cluster) -> u64 {
    cluster.fabric().stats().total_bytes() + cluster.object_store().pulled_bytes()
}

/// The two ingress phases over `secs` seconds, as [`SLICES`] alternating
/// blocks each (see `Phase::from_blocks`); `lat` gets 4/9 of the time and
/// `sat` the rest (8 s and 10 s of an 18 s run). `block` runs one block of
/// the named phase at the given window.
pub fn lat_and_sat(
    secs: f64,
    mut block: impl FnMut(&'static str, usize, Limit) -> Phase,
) -> (Phase, Phase) {
    let lat_s = secs * 4.0 / 9.0 / SLICES as f64;
    let sat_s = secs / SLICES as f64 - lat_s;
    let (mut lat, mut sat) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let dur = Duration::from_secs_f64(lat_s);
        lat.push(block("lat", LAT_WINDOW, Limit::For(dur)));
        let dur = Duration::from_secs_f64(sat_s);
        sat.push(block("sat", SAT_WINDOW, Limit::For(dur)));
    }
    (Phase::from_blocks(lat), Phase::from_blocks(sat))
}
