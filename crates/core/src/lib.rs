//! FAASM-core: Faaslets and the FAASM runtime — the paper's contribution.
//!
//! This crate assembles the substrates (`faasm-mem`, `faasm-fvm`,
//! `faasm-net`, `faasm-kvs`, `faasm-vfs`, `faasm-state`, `faasm-sched`) into
//! the system of the paper:
//!
//! * [`Faaslet`] — the isolation abstraction (§3): an FVM guest with
//!   bounds-checked linear memory, a shaped virtual NIC, a WASI-style
//!   descriptor table, a CPU cgroup share, and the Tab. 2 host interface.
//! * [`hostfuncs`] — every host-interface function as a trusted thunk.
//! * [`ProtoFaaslet`] — ahead-of-time snapshots restored copy-on-write in
//!   microseconds, serialisable for cross-host restores (§5.2).
//! * [`FaasmInstance`] — one host's runtime: warm pools, the Omega-style
//!   local scheduler (§5.1), and workers that take calls and message-bus
//!   messages off one run queue, the host's inbox.
//! * [`Cluster`] — instances + global KVS tier + object store + upload
//!   service + ingress.
//! * [`ContainerCode`] — the one seam where a container takes a Faaslet's
//!   place: the isolation of the paper's container baseline (§6.1), run by
//!   the same instances.
//!
//! # Examples
//!
//! ```
//! use faasm_core::Cluster;
//!
//! let cluster = Cluster::new(2);
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
//! let result = cluster.invoke("alice", "double", 21i32.to_le_bytes().to_vec());
//! assert_eq!(result.return_code(), 0);
//! assert_eq!(i32::from_le_bytes(result.output[..4].try_into().unwrap()), 42);
//! ```

#![warn(missing_docs)]

pub mod cgroup;
pub mod cluster;
pub mod ctx;
pub mod error;
pub mod faaslet;
pub mod guest;
pub mod hostfuncs;
pub mod instance;
pub mod metrics;
pub mod msg;
pub mod pending;
pub mod proto;
pub mod rng;
pub mod snapdist;

pub use cgroup::{CgroupCpu, CgroupShare};
pub use cluster::{Cluster, ClusterConfig, UploadOptions, INVOKE_TIMEOUT};
pub use ctx::{ChainRouter, FaasletCtx, NativeApi, NoChain};
pub use error::CoreError;
pub use faaslet::{EgressLimit, Faaslet, FaasletEnv, NATIVE_BASE_BYTES};
pub use guest::{ContainerCode, FunctionDef, FunctionRegistry, GuestCode, NativeGuest, Sandbox};
pub use hostfuncs::faaslet_linker;
pub use instance::{FaasmInstance, InstanceConfig, PlacedCall};
pub use metrics::{GatewayMetrics, Metrics, MetricsSnapshot, StartKind};
pub use pending::{PendingCallback, PendingMap};
pub use proto::{ProtoEncodeError, ProtoFaaslet, ProtoRef};
pub use snapdist::{
    assemble_pages, assemble_proto, chunk_proto, ChunkedProto, ProtoManifest, SnapStats,
    SnapStatsSnapshot, SnapshotCache, DEFAULT_SNAPSHOT_CACHE_BYTES,
};

// Re-export the call types every embedder needs, and the entry type
// `NativeApi::state` hands a native guest.
pub use faasm_sched::{CallId, CallResult, CallSpec, CallStatus, TraceCtx};
pub use faasm_state::StateEntry;
