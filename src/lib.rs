//! FAASM-RS: a Rust reproduction of "Faasm: Lightweight Isolation for
//! Efficient Stateful Serverless Computing" (Shillaker & Pietzuch, USENIX
//! ATC 2020).
//!
//! This meta-crate re-exports the workspace's public surface:
//!
//! * [`core`] — Faaslets, Proto-Faaslets, the host interface and the
//!   cluster runtime (the paper's contribution).
//! * [`fvm`] — the WebAssembly-style software-fault-isolation VM.
//! * [`lang`] — the FL guest-language compiler.
//! * [`mem`] — page-table virtual memory with shared regions and
//!   copy-on-write snapshots.
//! * [`state`] — the two-tier state architecture: host-local replicas
//!   shared between Faaslets over the global key-value tier.
//! * [`gateway`] — the multi-tenant ingress tier: admission control,
//!   weighted-fair batching and warm-pool autoscaling in front of the
//!   cluster.
//! * [`net`], [`kvs`], [`vfs`], [`sched`] — the remaining substrates.
//! * [`telemetry`] — distributed tracing and fixed-memory histograms.
//! * [`baseline`] — the container-platform baseline ("Knative").
//! * [`workloads`] — the paper's evaluation workloads.
//!
//! See `README.md` for a quickstart and the workspace layout, and
//! `benchmark/README.md` for the measured results.

#![warn(missing_docs)]

pub use faasm_baseline as baseline;
pub use faasm_core as core;
pub use faasm_fvm as fvm;
pub use faasm_gateway as gateway;
pub use faasm_kvs as kvs;
pub use faasm_lang as lang;
pub use faasm_mem as mem;
pub use faasm_net as net;
pub use faasm_sched as sched;
pub use faasm_state as state;
pub use faasm_telemetry as telemetry;
pub use faasm_vfs as vfs;
pub use faasm_workloads as workloads;

// The types almost every embedder needs, at the crate root.
pub use faasm_core::{CallResult, CallStatus, Cluster, ClusterConfig, UploadOptions};
pub use faasm_gateway::{
    Gateway, GatewayClient, GatewayConfig, GatewayResponse, GatewayServer, GatewayStatus,
    TenantPolicy,
};
