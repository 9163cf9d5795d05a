//! FAASM-gateway: the cluster's ingress tier.
//!
//! The paper assumes an external load balancer feeding calls to per-host
//! schedulers (§5); this crate is that front door, built for the repo's
//! north star of sustained multi-tenant traffic. A [`Gateway`] sits in
//! front of a [`faasm_core::Cluster`] and gives every request the path:
//!
//! ```text
//!   client ──frame──▶ admission ──▶ pending queue ──▶ batch dispatch ──▶ Cluster
//!                      │   │             │                  │
//!                      ▼   ▼             ▼                  ▼
//!               rate limit  bounded   deadline shed    Cluster::place
//!               (Overloaded) queue    (Expired)        (the one chooser)
//!                           (Overloaded)
//! ```
//!
//! * **Wire codec** ([`codec`]): length-prefixed binary frames for
//!   requests/responses, with incremental reassembly ([`codec::FrameBuf`]) —
//!   the same no-hidden-serialisation discipline as the KVS protocol.
//! * **Remote ingress** ([`server`], [`client`]): a [`GatewayServer`]
//!   attaches the gateway to a `faasm_net::Nic`, so remote hosts reach
//!   admission over the fabric — byte-stream connections in
//!   [`faasm_net::DEFAULT_MTU`]-byte chunks, per-connection reassembly
//!   bounded by [`codec::MAX_FRAME`], and surgical drop of corrupt
//!   connections. [`GatewayClient`] multiplexes async submit/wait tickets
//!   over one connection.
//! * **Admission control** ([`TenantPolicy`], [`queue`]): per-tenant
//!   token-bucket rate limiting (a request-unit [`faasm_net::TokenBucket`])
//!   and bounded pending queues. Rejections are explicit —
//!   [`GatewayStatus::Overloaded`] for rate/queue sheds,
//!   [`GatewayStatus::Expired`] for requests whose deadline passed while
//!   queued — never a hang.
//! * **Batching dispatcher** ([`Gateway`]): drains the queue in weighted
//!   deficit-round-robin order across tenants (a flooding tenant cannot
//!   starve a quiet one) and fans batches out to the cluster, each call
//!   placed by [`faasm_core::Cluster::place`] — the chooser
//!   `Cluster::invoke` uses too.
//! * **Autoscaler** ([`autoscale`]): watches per-function queue depth and
//!   pre-warms Proto-Faaslet pool entries ahead of demand
//!   ([`faasm_core::FaasmInstance::prewarm`]) once a function's backlog
//!   passes 4 queued calls, up to 64 pooled Faaslets, or retires surplus
//!   idle Faaslets when the backlog drains.
//! * **Metrics** ([`faasm_core::GatewayMetrics`]): p50/p99 queueing delay,
//!   shed counts by reason, batch occupancy, autoscaler actions.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use faasm_core::Cluster;
//! use faasm_gateway::{Gateway, GatewayConfig, TenantPolicy};
//!
//! let cluster = Arc::new(Cluster::new(2));
//! cluster
//!     .upload_fl(
//!         "alice",
//!         "double",
//!         r#"
//!         extern int input_size();
//!         extern int read_call_input(ptr int buf, int len);
//!         extern void write_call_output(ptr int buf, int len);
//!         int main() {
//!             int n = input_size();
//!             read_call_input((ptr int) 1024, n);
//!             ptr int p = (ptr int) 1024;
//!             p[0] = p[0] * 2;
//!             write_call_output((ptr int) 1024, 4);
//!             return 0;
//!         }
//!         "#,
//!         Default::default(),
//!     )
//!     .unwrap();
//!
//! let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
//! gateway.set_tenant_policy("alice", TenantPolicy::with_weight(2));
//!
//! let resp = gateway.call("alice", "double", 21i32.to_le_bytes().to_vec());
//! assert!(resp.is_ok());
//! assert_eq!(i32::from_le_bytes(resp.output[..4].try_into().unwrap()), 42);
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod client;
pub mod codec;
mod gateway;
pub mod queue;
mod response;
pub mod server;
mod tenant;

pub use autoscale::{spread_prewarm, tier_scale_wanted, AutoscaleConfig};
pub use client::{ClientError, GatewayClient};
pub use codec::{FrameBuf, GatewayRequest};
pub use gateway::{
    Gateway, GatewayConfig, DEFAULT_DEADLINE, TARGET_DISPATCH_LATENCY, WAIT_TIMEOUT,
};
pub use response::{GatewayResponse, GatewayStatus};
pub use server::GatewayServer;
pub use tenant::TenantPolicy;
