//! Function-call types shared by the scheduler, runtime and message bus.

use faasm_net::wire::{self, put_bytes, put_i32, put_u64, put_u8, Reader, WireError};
pub use faasm_telemetry::TraceCtx;

/// A unique call identifier, as returned by `chain_call` (Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

impl std::fmt::Display for CallId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "call-{}", self.0)
    }
}

/// A function invocation request travelling through the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSpec {
    /// The call id.
    pub id: CallId,
    /// Owning user/tenant (namespaces functions and files).
    pub user: String,
    /// Function name ("users' functions have unique names", §3.2).
    pub function: String,
    /// Input data as a byte array — the generic, language-agnostic
    /// interface of §3.2.
    pub input: Vec<u8>,
    /// The ingress call's trace context ([`TraceCtx::NONE`] for untraced
    /// calls): rides the call across forwards and batch dispatch so every
    /// tier's spans link back to one trace.
    pub trace: TraceCtx,
}

/// Terminal status of a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallStatus {
    /// Completed with a return code of zero.
    Success,
    /// Completed with a non-zero return code.
    Failed(i32),
    /// Trapped or errored in the runtime; carries the message.
    Error(String),
}

/// The result of a completed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallResult {
    /// The call this result belongs to.
    pub id: CallId,
    /// Terminal status.
    pub status: CallStatus,
    /// Output data written by `write_call_output`.
    pub output: Vec<u8>,
}

impl CallResult {
    /// A successful result.
    pub fn success(id: CallId, output: Vec<u8>) -> CallResult {
        CallResult {
            id,
            status: CallStatus::Success,
            output,
        }
    }

    /// An errored result.
    pub fn error(id: CallId, msg: impl Into<String>) -> CallResult {
        CallResult {
            id,
            status: CallStatus::Error(msg.into()),
            output: Vec::new(),
        }
    }

    /// The return code convention used by `await_call`: 0 success, guest
    /// code for `Failed`, -1 for runtime errors.
    pub fn return_code(&self) -> i32 {
        match &self.status {
            CallStatus::Success => 0,
            CallStatus::Failed(code) => *code,
            CallStatus::Error(_) => -1,
        }
    }
}

/// Encode a call spec for the fabric (used when sharing work across hosts).
pub fn encode_call(call: &CallSpec) -> Vec<u8> {
    let mut out = Vec::new();
    encode_call_into(&mut out, call);
    out
}

/// Append a call spec's encoding to `out` — how bus messages embed calls
/// without a per-call temporary.
pub fn encode_call_into(out: &mut Vec<u8>, call: &CallSpec) {
    put_u64(out, call.id.0);
    put_u64(out, call.trace.trace_id);
    put_u64(out, call.trace.span_id);
    put_bytes(out, call.user.as_bytes());
    put_bytes(out, call.function.as_bytes());
    put_bytes(out, &call.input);
}

/// Decode a call spec from the fabric.
pub fn decode_call(buf: &[u8]) -> Option<CallSpec> {
    wire::decode(buf, read_call).ok()
}

/// Read one call spec off `r`, leaving whatever follows it.
pub fn read_call(r: &mut Reader<'_>) -> Result<CallSpec, WireError> {
    Ok(CallSpec {
        id: CallId(r.u64()?),
        trace: TraceCtx {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        },
        user: r.string()?,
        function: r.string()?,
        input: r.bytes()?.to_vec(),
    })
}

/// Encode a call result for the fabric.
pub fn encode_result(r: &CallResult) -> Vec<u8> {
    let mut out = Vec::new();
    encode_result_into(&mut out, r);
    out
}

/// Append a call result's encoding to `out`.
pub fn encode_result_into(out: &mut Vec<u8>, r: &CallResult) {
    put_u64(out, r.id.0);
    match &r.status {
        CallStatus::Success => put_u8(out, 0),
        CallStatus::Failed(code) => {
            put_u8(out, 1);
            put_i32(out, *code);
        }
        CallStatus::Error(msg) => {
            put_u8(out, 2);
            put_bytes(out, msg.as_bytes());
        }
    }
    put_bytes(out, &r.output);
}

/// Decode a call result from the fabric.
pub fn decode_result(buf: &[u8]) -> Option<CallResult> {
    wire::decode(buf, read_result).ok()
}

/// Read one call result off `r`, leaving whatever follows it.
pub fn read_result(r: &mut Reader<'_>) -> Result<CallResult, WireError> {
    let id = CallId(r.u64()?);
    let status = match r.u8()? {
        0 => CallStatus::Success,
        1 => CallStatus::Failed(r.i32()?),
        2 => CallStatus::Error(r.string()?),
        _ => return Err(WireError::Invalid),
    };
    let output = r.bytes()?.to_vec();
    Ok(CallResult { id, status, output })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let call = CallSpec {
            id: CallId(42),
            user: "alice".into(),
            function: "sgd_main".into(),
            input: vec![1, 2, 3],
            trace: TraceCtx::NONE,
        };
        assert_eq!(decode_call(&encode_call(&call)), Some(call.clone()));
        // A traced call carries its context across the fabric untouched.
        let traced = CallSpec {
            trace: TraceCtx {
                trace_id: 7,
                span_id: 9,
            },
            ..call
        };
        assert_eq!(decode_call(&encode_call(&traced)), Some(traced));
    }

    #[test]
    fn result_roundtrips_all_statuses() {
        for status in [
            CallStatus::Success,
            CallStatus::Failed(7),
            CallStatus::Error("trap: out of fuel".into()),
        ] {
            let r = CallResult {
                id: CallId(1),
                status,
                output: b"out".to_vec(),
            };
            assert_eq!(decode_result(&encode_result(&r)), Some(r));
        }
    }

    #[test]
    fn return_codes() {
        assert_eq!(CallResult::success(CallId(1), vec![]).return_code(), 0);
        assert_eq!(
            CallResult {
                id: CallId(1),
                status: CallStatus::Failed(3),
                output: vec![]
            }
            .return_code(),
            3
        );
        assert_eq!(CallResult::error(CallId(1), "x").return_code(), -1);
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(decode_call(&[]), None);
        assert_eq!(decode_result(&[]), None);
        let good = encode_call(&CallSpec {
            id: CallId(1),
            user: "u".into(),
            function: "f".into(),
            input: vec![9; 10],
            trace: TraceCtx::NONE,
        });
        for cut in 1..good.len() {
            assert!(decode_call(&good[..cut]).is_none(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_call(&trailing).is_none());
    }
}
