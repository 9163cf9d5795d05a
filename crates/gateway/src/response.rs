//! Terminal outcomes of a gateway request.

use faasm_sched::{CallResult, CallStatus};

/// What happened to a request, including the admission-control outcomes a
/// bare `Cluster::invoke` can never return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayStatus {
    /// Executed with return code zero.
    Ok,
    /// Executed with a non-zero guest return code.
    Failed(i32),
    /// Runtime error (trap, unknown function, timeout); carries the message.
    Error(String),
    /// Shed by admission control: the tenant's queue was full or its rate
    /// limit exceeded. The function never ran; safe to retry with backoff.
    Overloaded,
    /// Shed by the deadline: the request sat queued past its deadline. The
    /// function never ran.
    Expired,
}

/// A completed (or shed) gateway request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayResponse {
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Terminal status.
    pub status: GatewayStatus,
    /// Function output (empty for shed requests).
    pub output: Vec<u8>,
}

impl GatewayResponse {
    /// Wrap a cluster call result.
    pub fn from_call(seq: u64, result: CallResult) -> GatewayResponse {
        let status = match result.status {
            CallStatus::Success => GatewayStatus::Ok,
            CallStatus::Failed(code) => GatewayStatus::Failed(code),
            CallStatus::Error(msg) => GatewayStatus::Error(msg),
        };
        GatewayResponse {
            seq,
            status,
            output: result.output,
        }
    }

    /// An `Overloaded` shed response.
    pub fn overloaded(seq: u64) -> GatewayResponse {
        GatewayResponse {
            seq,
            status: GatewayStatus::Overloaded,
            output: Vec::new(),
        }
    }

    /// An `Expired` shed response.
    pub fn expired(seq: u64) -> GatewayResponse {
        GatewayResponse {
            seq,
            status: GatewayStatus::Expired,
            output: Vec::new(),
        }
    }

    /// An error response with a message.
    pub fn error(seq: u64, msg: impl Into<String>) -> GatewayResponse {
        GatewayResponse {
            seq,
            status: GatewayStatus::Error(msg.into()),
            output: Vec::new(),
        }
    }

    /// True for `Ok`.
    pub fn is_ok(&self) -> bool {
        self.status == GatewayStatus::Ok
    }
}
