//! Byte-stream connections over the message fabric.
//!
//! The fabric delivers whole messages; real ingress traffic arrives as a
//! byte *stream* whose read boundaries need not align with protocol frames
//! (TCP segmentation and coalescing). This module layers connections on
//! top of [`Nic`] one-way messages: a connection is identified by
//! `(source host, connection id)`, carries `Open`/`Data`/`Close` control
//! flow, and a [`StreamConn`] fragments writes into MTU-sized `Data`
//! chunks so receivers must reassemble — exactly the conditions a framed
//! protocol's decoder has to survive.
//!
//! Ordering: the fabric preserves per-sender FIFO delivery, so chunks of
//! one connection arrive in order as long as a single receiver drains the
//! destination NIC (servers that fan envelopes out across threads would
//! reorder chunks and must not be used under stream traffic).

use crate::fabric::{HostId, NetError, Nic};

/// Default fragmentation size for [`StreamConn`] writes, mimicking an
/// Ethernet-ish MTU so multi-kilobyte frames always arrive in pieces.
pub const DEFAULT_MTU: usize = 1400;

/// What a stream message means to the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Start of a connection; carries no bytes.
    Open,
    /// A chunk of the byte stream.
    Data,
    /// End of the connection (either side may send it); carries no bytes.
    Close,
}

/// A decoded stream message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMsg {
    /// Connection id, unique per source host.
    pub conn: u64,
    /// Control flag.
    pub kind: StreamKind,
    /// Stream bytes (`Data` only; empty for `Open`/`Close`).
    pub bytes: Vec<u8>,
}

const KIND_OPEN: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_CLOSE: u8 = 3;

/// Encode a stream message: `[kind u8][conn u64 LE][bytes…]`.
pub fn encode_stream_msg(conn: u64, kind: StreamKind, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + bytes.len());
    out.push(match kind {
        StreamKind::Open => KIND_OPEN,
        StreamKind::Data => KIND_DATA,
        StreamKind::Close => KIND_CLOSE,
    });
    out.extend_from_slice(&conn.to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decode a stream message; `None` when the payload is not stream traffic.
pub fn decode_stream_msg(payload: &[u8]) -> Option<StreamMsg> {
    if payload.len() < 9 {
        return None;
    }
    let kind = match payload[0] {
        KIND_OPEN => StreamKind::Open,
        KIND_DATA => StreamKind::Data,
        KIND_CLOSE => StreamKind::Close,
        _ => return None,
    };
    let conn = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    Some(StreamMsg {
        conn,
        kind,
        bytes: payload[9..].to_vec(),
    })
}

/// The sending half of a byte-stream connection.
///
/// Writes are fragmented into chunks of at most `mtu` bytes, each shipped
/// as one `Data` message; the receiver sees arbitrary chunk boundaries and
/// must reassemble. Cheaply cloneable is *not* offered on purpose: one
/// writer per connection keeps the chunk order well-defined.
#[derive(Debug)]
pub struct StreamConn {
    nic: Nic,
    peer: HostId,
    conn: u64,
    mtu: usize,
    closed: bool,
}

impl StreamConn {
    /// Open a connection from `nic` to `peer`, announcing it with an
    /// `Open` message.
    ///
    /// # Errors
    ///
    /// Routing errors from the `Open` send ([`NetError::UnknownHost`],
    /// [`NetError::Disconnected`]).
    pub fn open(nic: Nic, peer: HostId, mtu: usize) -> Result<StreamConn, NetError> {
        let conn = nic.fresh_tag();
        nic.send(peer, encode_stream_msg(conn, StreamKind::Open, &[]))?;
        Ok(StreamConn {
            nic,
            peer,
            conn,
            mtu: mtu.max(1),
            closed: false,
        })
    }

    /// This connection's id (the receiver keys state by `(src, conn)`).
    pub fn conn_id(&self) -> u64 {
        self.conn
    }

    /// Send `bytes` down the stream, fragmented into `Data` chunks of at
    /// most the connection MTU.
    ///
    /// # Errors
    ///
    /// Routing errors; a partial write is possible when the peer vanishes
    /// mid-stream (as on a real network).
    pub fn send(&self, bytes: &[u8]) -> Result<(), NetError> {
        for chunk in bytes.chunks(self.mtu) {
            self.nic.send(
                self.peer,
                encode_stream_msg(self.conn, StreamKind::Data, chunk),
            )?;
        }
        Ok(())
    }

    /// Close the connection, notifying the peer. Idempotent; also runs on
    /// drop.
    pub fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            let _ = self.nic.send(
                self.peer,
                encode_stream_msg(self.conn, StreamKind::Close, &[]),
            );
        }
    }
}

impl Drop for StreamConn {
    fn drop(&mut self) {
        self.close();
    }
}

/// Build a `Data` message for an already-open connection — the raw-bytes
/// escape hatch servers use to speak back down a connection they accepted
/// (they hold a `(src, conn)` pair, not a [`StreamConn`]).
pub fn data_msg(conn: u64, bytes: &[u8]) -> Vec<u8> {
    encode_stream_msg(conn, StreamKind::Data, bytes)
}

/// Build a `Close` message for an already-open connection.
pub fn close_msg(conn: u64) -> Vec<u8> {
    encode_stream_msg(conn, StreamKind::Close, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;

    #[test]
    fn stream_msg_roundtrip() {
        for (kind, bytes) in [
            (StreamKind::Open, vec![]),
            (StreamKind::Data, b"payload".to_vec()),
            (StreamKind::Close, vec![]),
        ] {
            let enc = encode_stream_msg(7, kind, &bytes);
            assert_eq!(
                decode_stream_msg(&enc),
                Some(StreamMsg {
                    conn: 7,
                    kind,
                    bytes
                })
            );
        }
        assert_eq!(decode_stream_msg(&[]), None);
        assert_eq!(decode_stream_msg(&[9; 12]), None);
    }

    #[test]
    fn writes_fragment_at_the_mtu() {
        let fabric = Fabric::new();
        let client = fabric.add_host();
        let server = fabric.add_host();
        let conn = StreamConn::open(client, server.id(), 4).unwrap();
        conn.send(&[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();

        let open = decode_stream_msg(&server.recv().unwrap().payload).unwrap();
        assert_eq!(open.kind, StreamKind::Open);
        assert_eq!(open.conn, conn.conn_id());
        let mut reassembled = Vec::new();
        let mut chunks = 0;
        while reassembled.len() < 9 {
            let msg = decode_stream_msg(&server.recv().unwrap().payload).unwrap();
            assert_eq!(msg.kind, StreamKind::Data);
            assert!(msg.bytes.len() <= 4, "chunk exceeds MTU");
            reassembled.extend_from_slice(&msg.bytes);
            chunks += 1;
        }
        assert_eq!(reassembled, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(chunks, 3);
    }

    #[test]
    fn drop_sends_close() {
        let fabric = Fabric::new();
        let client = fabric.add_host();
        let server = fabric.add_host();
        let conn = StreamConn::open(client, server.id(), DEFAULT_MTU).unwrap();
        let id = conn.conn_id();
        drop(conn);
        let open = decode_stream_msg(&server.recv().unwrap().payload).unwrap();
        assert_eq!(open.kind, StreamKind::Open);
        let close = decode_stream_msg(&server.recv().unwrap().payload).unwrap();
        assert_eq!(close.kind, StreamKind::Close);
        assert_eq!(close.conn, id);
    }

    #[test]
    fn connection_ids_are_unique() {
        let fabric = Fabric::new();
        let a = fabric.add_host();
        let b = fabric.add_host();
        let c1 = StreamConn::open(a.clone(), b.id(), DEFAULT_MTU).unwrap();
        let c2 = StreamConn::open(a, b.id(), DEFAULT_MTU).unwrap();
        assert_ne!(c1.conn_id(), c2.conn_id());
    }
}
