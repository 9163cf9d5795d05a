//! Omega-style distributed shared-state scheduling (§5.1).
//!
//! FAASM schedules without modifying the underlying platform's scheduler:
//! each local scheduler consults the **warm sets** held in the global tier
//! and either runs the call in a warm local Faaslet, forwards it to another
//! warm host's **sharing queue**, or cold-starts a new Faaslet. This crate
//! provides the pieces (call types + wire codec, warm sets, the placement
//! decision and the one host score ([`Candidate::score`]) behind every
//! chooser); `faasm-core` wires them to actual Faaslet pools.

#![warn(missing_docs)]

pub mod boards;
pub mod decide;
pub mod score;
pub mod types;
pub mod warm;

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
pub use warm::WarmSets;
