//! Simulated cluster network: fabric, NICs, traffic shaping and accounting.
//!
//! This crate replaces the 20-host, 1 Gbps testbed network of the paper's
//! evaluation (§6.1). Two properties matter
//! for reproducing the experiments:
//!
//! 1. **Measured bytes** — every message is counted (payload + header) at
//!    both endpoints, giving the "network transfer" series of Figs. 6b/8b
//!    without modelling.
//! 2. **Enforced shaping** — per-Faaslet [`VirtualInterface`]s carry their
//!    own [`TokenBucket`] egress limits, reproducing the network-namespace +
//!    `tc` mechanism of §3.1 as an actual mechanism, not an annotation.
//!
//! On top of the message fabric, [`stream`] layers byte-stream connections
//! ([`StreamConn`]): MTU-fragmented `Data` chunks under `Open`/`Close`
//! control flow, so framed protocols (the gateway's ingress codec) face
//! realistic segmentation and must reassemble.
//!
//! [`wire`] holds the checked reader/writer every codec that crosses the
//! fabric is built on (length-prefixed fields, counted lists, the
//! truncation / hostile-count / trailing-bytes rules).

#![warn(missing_docs)]

pub mod bucket;
pub mod fabric;
pub mod stats;
pub mod stream;
pub mod wire;

pub use bucket::TokenBucket;
pub use fabric::{
    Envelope, Fabric, HostId, NetError, Nic, VirtualInterface, DEFAULT_RPC_TIMEOUT,
    MSG_HEADER_BYTES,
};
pub use stats::{TrafficSnapshot, TrafficStats};
pub use stream::{StreamConn, StreamKind, StreamMsg, DEFAULT_MTU};
