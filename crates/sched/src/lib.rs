//! Scheduling pieces (§5.1): call types and their wire codec, the affinity
//! board, and the one host score ([`Candidate::score`]) behind every
//! placement. `faasm-core`'s `Cluster::place` ranks the live hosts with it
//! for every call — ingress, gateway dispatch and chained calls alike —
//! reading each host's warmth and run queue from its pool in process. A
//! chained call that [`runs_warm_local`] on its caller's host asks nobody.

#![warn(missing_docs)]

pub mod boards;
pub mod decide;
pub mod score;
pub mod types;

pub use boards::{entry_for, SchedBoards};
pub use decide::{decide, runs_warm_local, Decision, Placement};
pub use score::{best, Candidate};
pub use types::{
    decode_call, decode_result, encode_call, encode_call_into, encode_result, encode_result_into,
    read_call, read_result, CallId, CallResult, CallSpec, CallStatus,
};
// Re-exported so consumers building `CallSpec`s can name the trace context
// without depending on the telemetry crate directly.
pub use types::TraceCtx;
