//! The message bus protocol between runtime instances (Fig. 1: "the message
//! bus is used by Faaslets to communicate with their parent process and each
//! other, receive function calls, share work, invoke and await other
//! functions"). The fabric delivers a message into the receiving host's run
//! queue, and the worker that takes it decodes it.

use faasm_net::wire::{
    self, put_bytes, put_count, put_nested, put_u32, put_u64, put_u8, Reader, WireError,
};
use faasm_net::HostId;
use faasm_sched::{
    encode_call_into, encode_result_into, read_call, read_result, CallResult, CallSpec,
};

/// A message between runtime instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceMsg {
    /// A completed call's result, delivered to the awaiting host.
    Result {
        /// The result.
        result: CallResult,
    },
    /// Already-placed calls in one bus message — the one way a call
    /// reaches the host placement chose for it, whether it entered at the
    /// front door or was chained (batch-aware dispatch: the coordination
    /// cost the paper's scheduler counts is per-message, not per-call).
    /// The receiving host executes every call: placement already chose it.
    InvokeBatch {
        /// The calls to execute, in order.
        calls: Vec<CallSpec>,
        /// Where every result goes.
        reply_to: HostId,
        /// Send timestamp on the cluster's clock
        /// ([`faasm_telemetry::Recorder::now_ns`]):
        /// the worker that decodes the batch records its bus-transit span as
        /// `decode - sent_at_ns` per call.
        sent_at_ns: u64,
    },
    /// Pre-stage a function's proto snapshot: the autoscaler pushes the
    /// proto's chunk manifest to an instance it is about to pre-warm, so
    /// the instance pulls the pages into its page store *before* the
    /// first call lands — the prewarmed Faaslet restores from warm bytes
    /// instead of paying a cold start. Best-effort: a dropped or stale
    /// pre-stage only costs the peer-fetch it would have saved.
    PreStage {
        /// Owning user.
        user: String,
        /// Function name.
        function: String,
        /// The serialised [`crate::ProtoManifest`](crate::snapdist::ProtoManifest)
        /// to fetch against (decoded and digest-verified by the receiver).
        manifest: Vec<u8>,
    },
}

/// Encode a message for the fabric.
pub fn encode_msg(msg: &InstanceMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        InstanceMsg::Result { result } => {
            put_u8(&mut out, 1);
            encode_result_into(&mut out, result);
        }
        InstanceMsg::InvokeBatch {
            calls,
            reply_to,
            sent_at_ns,
        } => {
            put_u8(&mut out, 2);
            put_u32(&mut out, reply_to.0);
            put_u64(&mut out, *sent_at_ns);
            put_count(&mut out, calls.len());
            for call in calls {
                // Each call is length-prefixed: `decode_call` consumes an
                // exact buffer, so the decoder needs the boundaries. A
                // wrapped prefix would make the receiver drop the whole
                // batch; senders must bound call sizes (the runtime's
                // batch submit rejects oversized calls before encoding).
                put_nested(&mut out, |out| encode_call_into(out, call));
            }
        }
        InstanceMsg::PreStage {
            user,
            function,
            manifest,
        } => {
            put_u8(&mut out, 3);
            put_bytes(&mut out, user.as_bytes());
            put_bytes(&mut out, function.as_bytes());
            put_bytes(&mut out, manifest);
        }
    }
    out
}

/// The tag of an HTTP-framed message: a wrapper, never a message itself.
const FRAMED: u8 = 4;

/// Encode a message in HTTP-style framing: the encoding, length-prefixed,
/// then `padding` bytes standing for the request or response headers of a
/// hop through a container platform's gateway, so the fabric carries and
/// counts them. No padding is the plain [`encode_msg`]; [`decode_msg`]
/// reads both.
pub fn frame_msg(msg: &InstanceMsg, padding: usize) -> Vec<u8> {
    if padding == 0 {
        return encode_msg(msg);
    }
    let body = encode_msg(msg);
    let mut out = Vec::with_capacity(5 + body.len() + padding);
    put_u8(&mut out, FRAMED);
    put_bytes(&mut out, &body);
    out.resize(out.len() + padding, 0);
    out
}

/// Decode a fabric message, plain or [framed](frame_msg); `None` on
/// malformed input.
pub fn decode_msg(buf: &[u8]) -> Option<InstanceMsg> {
    let body = match buf.split_first() {
        // The padding after the framed message is skipped unread.
        Some((&FRAMED, framed)) => Reader::new(framed).bytes().ok()?,
        _ => buf,
    };
    wire::decode(body, read_msg).ok()
}

fn read_msg(r: &mut Reader<'_>) -> Result<InstanceMsg, WireError> {
    Ok(match r.u8()? {
        1 => InstanceMsg::Result {
            result: read_result(r)?,
        },
        2 => {
            let reply_to = HostId(r.u32()?);
            let sent_at_ns = r.u64()?;
            InstanceMsg::InvokeBatch {
                // Every call costs at least its 4-byte length prefix.
                calls: r.list(4, |r| wire::decode(r.bytes()?, read_call))?,
                reply_to,
                sent_at_ns,
            }
        }
        3 => InstanceMsg::PreStage {
            user: r.string()?,
            function: r.string()?,
            manifest: r.bytes()?.to_vec(),
        },
        _ => return Err(WireError::Invalid),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_sched::{CallId, CallStatus};

    #[test]
    fn a_framed_message_carries_its_padding_and_decodes_as_the_plain_one() {
        let msg = InstanceMsg::Result {
            result: CallResult::success(CallId(4), b"out".to_vec()),
        };
        let plain = encode_msg(&msg);
        assert_eq!(frame_msg(&msg, 0), plain);
        let framed = frame_msg(&msg, 256);
        assert_eq!(framed.len(), 1 + 4 + plain.len() + 256);
        assert_eq!(decode_msg(&framed), Some(msg));
        // A frame holds a plain message, never another frame.
        let mut nested = vec![FRAMED];
        put_bytes(&mut nested, &framed);
        assert_eq!(decode_msg(&nested), None);
    }

    #[test]
    fn result_roundtrip() {
        let msg = InstanceMsg::Result {
            result: CallResult {
                id: CallId(4),
                status: CallStatus::Failed(2),
                output: b"data".to_vec(),
            },
        };
        assert_eq!(decode_msg(&encode_msg(&msg)), Some(msg));
    }

    #[test]
    fn invoke_batch_roundtrip() {
        let calls: Vec<CallSpec> = (0..3)
            .map(|i| CallSpec {
                id: CallId(100 + i),
                user: "tenant".into(),
                function: format!("f{i}"),
                input: vec![i as u8; i as usize],
                trace: faasm_sched::TraceCtx::NONE,
            })
            .collect();
        let msg = InstanceMsg::InvokeBatch {
            calls,
            reply_to: HostId(9),
            sent_at_ns: 12_345,
        };
        assert_eq!(decode_msg(&encode_msg(&msg)), Some(msg));
        // Empty batches are legal on the wire.
        let empty = InstanceMsg::InvokeBatch {
            calls: Vec::new(),
            reply_to: HostId(0),
            sent_at_ns: 0,
        };
        assert_eq!(decode_msg(&encode_msg(&empty)), Some(empty));
    }

    #[test]
    fn prestage_roundtrip() {
        let msg = InstanceMsg::PreStage {
            user: "tenant".into(),
            function: "hot".into(),
            manifest: vec![7u8; 100],
        };
        let bytes = encode_msg(&msg);
        assert_eq!(decode_msg(&bytes), Some(msg));
        for cut in 1..bytes.len() {
            assert_eq!(decode_msg(&bytes[..cut]), None, "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_msg(&trailing), None);
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(decode_msg(&[]), None);
        assert_eq!(decode_msg(&[7]), None);
        assert_eq!(decode_msg(&[0, 1, 2]), None);
        // Batch with a hostile count and no payload.
        let mut bad = vec![2u8];
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_msg(&bad), None);
        // Truncated batch: cut anywhere must reject, trailing bytes too.
        let msg = InstanceMsg::InvokeBatch {
            calls: vec![CallSpec {
                id: CallId(1),
                user: "u".into(),
                function: "f".into(),
                input: vec![1, 2, 3],
                trace: faasm_sched::TraceCtx::NONE,
            }],
            reply_to: HostId(2),
            sent_at_ns: 7,
        };
        let good = encode_msg(&msg);
        for cut in 1..good.len() {
            assert_eq!(decode_msg(&good[..cut]), None, "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_msg(&trailing), None);
    }
}
