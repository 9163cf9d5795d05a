//! `ingress_null`: the ingress-bound workload.
//!
//! A guest that echoes 4 input bytes, through the remote gateway. Every
//! cycle of a request is gateway codec, admission, fair queue, dispatch,
//! bus, worker and Faaslet reset; the VM and the state tier do nothing.
//! This is where the "shared bottleneck below ingress" of ROADMAP item 2
//! and any codec, placement or single-flight unification must show, or
//! show no change.

use faasm::core::{Cluster, ClusterConfig};
use faasm::gateway::Gateway;

use super::{
    lat_and_sat, mem_mb, net_bytes, verdict_of, Ingress, Measured, Sizing, Workload, LAT_WINDOW,
    SAT_WINDOW, TENANT,
};
use crate::loadgen::{closed_loop, Driver, Limit, Verdict};
use crate::spans::Spans;
use crate::stats::Rng;

pub const FUNCTION: &str = "echo";

/// The null function: read 4 input bytes, write them back.
pub const ECHO_SRC: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        read_call_input((ptr int) 1024, 4);
        write_call_output((ptr int) 1024, 4);
        return 0;
    }
"#;

pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        hosts: 2,
        ..ClusterConfig::default()
    }
}

/// An `Ingress` with the null function uploaded.
pub fn start_ingress() -> Ingress {
    let ingress = Ingress::start(cluster_config());
    ingress
        .cluster
        .upload_fl(TENANT, FUNCTION, ECHO_SRC, Default::default())
        .expect("upload echo");
    ingress
}

/// Seeded 4-byte payloads over one client connection.
pub struct EchoDriver<'a> {
    pub ingress: &'a Ingress,
    pub rng: Rng,
}

impl Driver for EchoDriver<'_> {
    type Ticket = Option<(u64, [u8; 4])>;

    fn submit(&mut self, _i: u64) -> (Self::Ticket, &'static str) {
        let payload = (self.rng.next_u64() as u32).to_le_bytes();
        let ticket = self
            .ingress
            .client
            .submit(TENANT, FUNCTION, payload.to_vec())
            .ok()
            .map(|ticket| (ticket, payload));
        (ticket, "echo")
    }

    fn complete(&mut self, ticket: Self::Ticket) -> Verdict {
        match ticket {
            Some((ticket, payload)) => verdict_of(&self.ingress.client.wait(ticket), &payload),
            None => Verdict::Failed,
        }
    }
}

pub struct IngressNull {
    ingress: Ingress,
    rng: Rng,
}

impl IngressNull {
    pub fn setup(seed: u64, sizing: Sizing) -> IngressNull {
        let ingress = start_ingress();
        let mut rng = Rng::new(seed);
        let mut driver = EchoDriver {
            ingress: &ingress,
            rng: Rng::new(rng.next_u64()),
        };
        closed_loop(
            "warmup",
            &mut driver,
            SAT_WINDOW,
            Limit::Calls(sizing.ingress_calls),
            1,
            &mut Spans::new(false),
        );
        IngressNull { ingress, rng }
    }
}

impl Workload for IngressNull {
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured {
        let net_before = net_bytes(&self.ingress.cluster);
        let mut driver = EchoDriver {
            ingress: &self.ingress,
            rng: Rng::new(self.rng.next_u64()),
        };
        let (lat, sat) = lat_and_sat(secs, |name, window, limit| {
            closed_loop(name, &mut driver, window, limit, 1, spans)
        });
        let mut m = Measured {
            rps: sat.rps(),
            mem_mb: mem_mb(&self.ingress.cluster),
            ..Measured::default()
        };
        m.latency_from(&lat);
        m.phases = vec![lat, sat];
        m.net_kb_per_call =
            (net_bytes(&self.ingress.cluster) - net_before) as f64 / 1e3 / m.ok().max(1) as f64;
        m
    }

    fn cluster(&self) -> &Cluster {
        &self.ingress.cluster
    }

    fn gateway(&self) -> Option<&Gateway> {
        Some(&self.ingress.gateway)
    }

    fn config(&self) -> String {
        format!("{}, windows {LAT_WINDOW}/{SAT_WINDOW}", self.ingress.config)
    }
}
