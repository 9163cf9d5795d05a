//! The gateway wire protocol: length-prefixed binary frames.
//!
//! Same discipline as the KVS codec (`faasm-kvs`): every request/response
//! crossing the ingress boundary is encoded through this module, so byte
//! accounting stays faithful and no hidden zero-cost serialisation sneaks
//! into the measurements. A frame is a `u32`-LE payload length followed by
//! the payload; [`FrameBuf`] reassembles frames from an arbitrary byte
//! stream (clients may deliver them fragmented or coalesced).

use faasm_net::wire::{self, put_bytes, put_i32, put_u64, put_u8, Reader, WireError};
use faasm_telemetry::TraceCtx;

use crate::response::{GatewayResponse, GatewayStatus};

/// Maximum accepted frame payload (defends the ingress against a hostile
/// length prefix).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

/// A function-call request as it arrives at the gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The tenant (the cluster's user namespace).
    pub tenant: String,
    /// Function name within the tenant's namespace.
    pub function: String,
    /// Milliseconds the client is willing to wait in queue; 0 means the
    /// gateway default.
    pub deadline_ms: u64,
    /// Trace context stamped by the client ([`TraceCtx::NONE`] when the
    /// caller is not tracing): the gateway adopts it as the root of this
    /// call's span tree so ingress, dispatch, worker and state spans all
    /// share one trace id.
    pub trace: TraceCtx,
    /// Input bytes.
    pub input: Vec<u8>,
}

/// Wrap a payload in a length-prefixed frame.
///
/// Every receiver rejects frames above [`MAX_FRAME`], so emitting one is
/// always a sender bug: this panics in debug builds. Wire paths (which may
/// carry caller-supplied payloads of arbitrary size) must use
/// [`try_encode_frame`] instead so oversized payloads fail fast at the
/// sender rather than poisoning the receiver's stream.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        payload.len() <= MAX_FRAME,
        "encode_frame payload {} exceeds MAX_FRAME {MAX_FRAME}",
        payload.len()
    );
    let mut out = Vec::with_capacity(4 + payload.len());
    put_bytes(&mut out, payload);
    out
}

/// [`encode_frame`] with the bound checked in all builds: the frame path
/// for payloads whose size the caller does not control.
///
/// # Errors
///
/// [`OversizedFrame`] when the payload exceeds [`MAX_FRAME`] — the frame
/// is never built, so no receiver ever sees a prefix it must treat as
/// hostile.
pub fn try_encode_frame(payload: &[u8]) -> Result<Vec<u8>, OversizedFrame> {
    if payload.len() > MAX_FRAME {
        return Err(OversizedFrame { len: payload.len() });
    }
    Ok(encode_frame(payload))
}

/// A length prefix exceeding [`MAX_FRAME`]: the stream is corrupt or
/// hostile, and the connection should be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    /// The claimed payload length.
    pub len: usize,
}

impl std::fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame length {} exceeds MAX_FRAME {MAX_FRAME}", self.len)
    }
}

impl std::error::Error for OversizedFrame {}

/// Split one frame off the front of `buf`: returns the payload and the
/// total bytes consumed, `None` if the frame is still incomplete, or an
/// error if the length prefix exceeds [`MAX_FRAME`].
pub fn try_decode_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, OversizedFrame> {
    // Peek the prefix first: a hostile length is an error even while the
    // rest of the frame is still in flight.
    let Ok(len) = Reader::new(buf).u32() else {
        return Ok(None);
    };
    let len = len as usize;
    if len > MAX_FRAME {
        return Err(OversizedFrame { len });
    }
    Ok(Reader::new(buf).bytes().ok().map(|p| (p, 4 + len)))
}

/// [`try_decode_frame`] with oversized prefixes flattened into `None`, for
/// callers holding one complete, bounded frame (not a stream).
pub fn decode_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    try_decode_frame(buf).ok().flatten()
}

/// Incremental frame reassembly over a byte stream.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append raw bytes received from the stream.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete frame payload. `Ok(None)` means "no complete
    /// frame yet". An [`OversizedFrame`] error means the stream is corrupt
    /// or hostile: the buffer is cleared (nothing behind a bad prefix is
    /// trustworthy) and the caller should drop the connection.
    ///
    /// # Errors
    ///
    /// [`OversizedFrame`] when the next length prefix exceeds [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, OversizedFrame> {
        match try_decode_frame(&self.buf) {
            Ok(Some((payload, consumed))) => {
                let payload = payload.to_vec();
                self.buf.drain(..consumed);
                Ok(Some(payload))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.buf.clear();
                self.buf.shrink_to_fit();
                Err(e)
            }
        }
    }

    /// Bytes buffered but not yet framed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

/// Encode a request payload (frame it with [`encode_frame`] for the wire).
///
/// A field of 4 GiB or more would wrap its `u32` length prefix; any such
/// payload also exceeds [`MAX_FRAME`], so the checked frame path
/// ([`try_encode_frame`]) rejects it gracefully in release builds while
/// the writers' debug assertion fails fast at the wrap boundary itself.
pub fn encode_request(req: &GatewayRequest) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, TAG_REQUEST);
    put_u64(&mut out, req.seq);
    put_bytes(&mut out, req.tenant.as_bytes());
    put_bytes(&mut out, req.function.as_bytes());
    put_u64(&mut out, req.deadline_ms);
    put_u64(&mut out, req.trace.trace_id);
    put_u64(&mut out, req.trace.span_id);
    put_bytes(&mut out, &req.input);
    out
}

/// Decode a request payload; `None` on malformed or trailing bytes.
pub fn decode_request(buf: &[u8]) -> Option<GatewayRequest> {
    wire::decode(buf, read_request).ok()
}

fn read_request(r: &mut Reader<'_>) -> Result<GatewayRequest, WireError> {
    if r.u8()? != TAG_REQUEST {
        return Err(WireError::Invalid);
    }
    Ok(GatewayRequest {
        seq: r.u64()?,
        tenant: r.string()?,
        function: r.string()?,
        deadline_ms: r.u64()?,
        trace: TraceCtx {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        },
        input: r.bytes()?.to_vec(),
    })
}

/// Encode a response payload.
pub fn encode_response(resp: &GatewayResponse) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, TAG_RESPONSE);
    put_u64(&mut out, resp.seq);
    match &resp.status {
        GatewayStatus::Ok => put_u8(&mut out, 0),
        GatewayStatus::Failed(code) => {
            put_u8(&mut out, 1);
            put_i32(&mut out, *code);
        }
        GatewayStatus::Error(msg) => {
            put_u8(&mut out, 2);
            put_bytes(&mut out, msg.as_bytes());
        }
        GatewayStatus::Overloaded => put_u8(&mut out, 3),
        GatewayStatus::Expired => put_u8(&mut out, 4),
    }
    put_bytes(&mut out, &resp.output);
    out
}

/// Decode a response payload; `None` on malformed or trailing bytes.
pub fn decode_response(buf: &[u8]) -> Option<GatewayResponse> {
    wire::decode(buf, read_response).ok()
}

fn read_response(r: &mut Reader<'_>) -> Result<GatewayResponse, WireError> {
    if r.u8()? != TAG_RESPONSE {
        return Err(WireError::Invalid);
    }
    let seq = r.u64()?;
    let status = match r.u8()? {
        0 => GatewayStatus::Ok,
        1 => GatewayStatus::Failed(r.i32()?),
        2 => GatewayStatus::Error(r.string()?),
        3 => GatewayStatus::Overloaded,
        4 => GatewayStatus::Expired,
        _ => return Err(WireError::Invalid),
    };
    Ok(GatewayResponse {
        seq,
        status,
        output: r.bytes()?.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> GatewayRequest {
        GatewayRequest {
            seq: 42,
            tenant: "alice".into(),
            function: "double".into(),
            deadline_ms: 250,
            trace: TraceCtx::NONE,
            input: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = req();
        assert_eq!(decode_request(&encode_request(&r)), Some(r));
        // A traced request carries its context across the wire untouched.
        let traced = GatewayRequest {
            trace: TraceCtx {
                trace_id: 0x5EED,
                span_id: 0xF00D,
            },
            ..req()
        };
        assert_eq!(decode_request(&encode_request(&traced)), Some(traced));
    }

    #[test]
    fn truncated_requests_rejected() {
        let good = encode_request(&req());
        for cut in 1..good.len() {
            assert!(decode_request(&good[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        for status in [
            GatewayStatus::Ok,
            GatewayStatus::Failed(7),
            GatewayStatus::Error("boom".into()),
            GatewayStatus::Overloaded,
            GatewayStatus::Expired,
        ] {
            let r = GatewayResponse {
                seq: 9,
                status,
                output: b"out".to_vec(),
            };
            assert_eq!(decode_response(&encode_response(&r)), Some(r));
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert_eq!(decode_request(&[]), None);
        assert_eq!(decode_request(&[TAG_RESPONSE; 16]), None);
        let mut ok = encode_request(&req());
        ok.push(0); // trailing garbage
        assert_eq!(decode_request(&ok), None);
        assert_eq!(decode_response(&encode_request(&req())), None);
    }

    #[test]
    fn frames_reassemble_from_fragments() {
        let a = encode_frame(&encode_request(&req()));
        let b = encode_frame(b"second");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut fb = FrameBuf::new();
        // Feed one byte at a time.
        for byte in &stream {
            fb.feed(&[*byte]);
        }
        let first = fb.next_frame().unwrap().expect("first frame");
        assert_eq!(decode_request(&first), Some(req()));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"second"[..]));
        assert_eq!(fb.next_frame(), Ok(None));
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn oversized_payload_never_becomes_a_frame() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let err = try_encode_frame(&payload).unwrap_err();
        assert_eq!(err.len, MAX_FRAME + 1);
        // In-bounds payloads are identical through both paths.
        let ok = try_encode_frame(b"fine").unwrap();
        assert_eq!(ok, encode_frame(b"fine"));
        // A frame at exactly the cap is legal and decodes.
        let edge = try_encode_frame(&payload[..MAX_FRAME]).unwrap();
        let (decoded, consumed) = try_decode_frame(&edge).unwrap().unwrap();
        assert_eq!(decoded.len(), MAX_FRAME);
        assert_eq!(consumed, 4 + MAX_FRAME);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME")]
    #[cfg(debug_assertions)]
    fn debug_encode_frame_asserts_on_oversize() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let _ = encode_frame(&payload);
    }

    #[test]
    fn hostile_length_prefix_is_a_hard_error_and_resets() {
        let mut fb = FrameBuf::new();
        fb.feed(&u32::MAX.to_le_bytes());
        fb.feed(&[0; 64]);
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.len, u32::MAX as usize);
        // The poisoned stream was discarded, not silently buffered forever.
        assert_eq!(fb.pending_bytes(), 0);
        // The buffer is reusable for a fresh (reconnected) stream.
        fb.feed(&encode_frame(b"recovered"));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"recovered"[..]));
    }
}
