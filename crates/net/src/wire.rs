//! Wire primitives: the one checked reader and writer under every codec.
//!
//! Every message format in the workspace (KVS requests, gateway frames, bus
//! messages, call specs, Proto-Faaslet chunks) is built from the same few
//! pieces, all little-endian:
//!
//! * fixed-width integers (`u8`, `u32`, `i32`, `u64`, `i64`) and fixed
//!   arrays;
//! * a **field**: a `u32` byte length, then that many bytes
//!   ([`put_bytes`] / [`Reader::bytes`], [`Reader::string`] for UTF-8);
//! * a **list**: a `u32` element count, then the elements
//!   ([`put_count`] / [`Reader::list`], or [`Reader::count`] for a bare
//!   count);
//! * a **varint**: a `u64` as unsigned LEB128, seven bits a byte, low bits
//!   first ([`put_varint`] / [`Reader::varint`]) — for tables of small
//!   numbers, where a fixed `u64` would be mostly zeros.
//!
//! The rules a decoder has to get right live here and nowhere else:
//!
//! * **Every read is checked.** A short buffer is [`WireError::Truncated`],
//!   never a panic.
//! * **A count is bounded before anything is allocated for it.**
//!   [`Reader::count`] (and [`Reader::list`] through it) takes the least
//!   bytes one element can occupy and rejects a count the remaining buffer
//!   cannot back, so `Vec::with_capacity(count)` is never larger than the
//!   input allows.
//! * **A message ends where its buffer ends.** [`decode`] (through
//!   [`Reader::finish`]) rejects trailing bytes.
//! * **Lengths and counts are `u32`.** The writers assert in debug builds
//!   that the value fits; an encoder whose input size a caller controls
//!   bounds it first with [`len_u32`] (proto sections, batch submit) or
//!   with its own frame cap (the gateway's `MAX_FRAME`).

/// Why a buffer is not a well-formed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a value.
    Truncated,
    /// A list count larger than the remaining bytes could hold.
    CountExceedsPayload,
    /// A string field that is not UTF-8.
    InvalidUtf8,
    /// A value with no meaning in its position: an unknown tag or flag, or
    /// fields that contradict each other.
    Invalid,
    /// Bytes left over after the message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireError::Truncated => "truncated message",
            WireError::CountExceedsPayload => "list count exceeds payload",
            WireError::InvalidUtf8 => "invalid utf-8",
            WireError::Invalid => "invalid tag, flag or field value",
            WireError::TrailingBytes => "trailing bytes",
        })
    }
}

impl std::error::Error for WireError {}

/// A cursor over received bytes whose every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        self.array().map(i32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        self.array().map(i64::from_le_bytes)
    }

    /// An unsigned LEB128 `u64`: at most ten bytes, the tenth carrying only
    /// the top bit. A longer or overflowing encoding is
    /// [`WireError::Invalid`], not a silently wrapped value.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(WireError::Invalid);
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::Invalid)
    }

    /// A length-prefixed field, borrowed from the buffer: the caller copies
    /// it (`to_vec`) only if it keeps it, so megabyte state payloads are
    /// never zero-filled and then overwritten.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length-prefixed UTF-8 field.
    pub fn string(&mut self) -> Result<String, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| WireError::InvalidUtf8)
    }

    /// A list count, rejected unless the remaining bytes could hold that
    /// many elements of at least `min_elem_bytes` (≥ 1) each — so a hostile
    /// count cannot out-size the buffer it rode in on.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        debug_assert!(min_elem_bytes > 0, "every wire element costs a byte");
        let n = self.u32()? as usize;
        if self.buf.len() / min_elem_bytes < n {
            return Err(WireError::CountExceedsPayload);
        }
        Ok(n)
    }

    /// A counted list: the count is bounded as in [`count`](Self::count),
    /// then `elem` reads each element in turn.
    pub fn list<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// End of message: an error if any byte is left unread.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Decode one whole message: `read` must succeed *and* consume `buf` to its
/// last byte.
pub fn decode<'a, T>(
    buf: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// `len` as a `u32` length prefix or count, `None` if it would wrap.
pub fn len_u32(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i32`.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` as unsigned LEB128 (one byte below 128, two below 16 384).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes [`put_varint`] appends for `v`.
pub fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Append a list count (see the module docs for the wrap policy).
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    debug_assert!(len_u32(n).is_some(), "length {n} wraps its u32 prefix");
    put_u32(out, n as u32);
}

/// Append a length-prefixed field.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_count(out, b.len());
    out.extend_from_slice(b);
}

/// Append a length-prefixed field whose bytes `body` writes in place — a
/// nested message needs no temporary buffer to learn its own length.
pub fn put_nested(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    body(out);
    let len = out.len() - at - 4;
    debug_assert!(len_u32(len).is_some(), "length {len} wraps its u32 prefix");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_roundtrips() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_i32(&mut out, -2);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, i64::MIN);
        put_bytes(&mut out, b"field");
        put_bytes(&mut out, "né".as_bytes());
        put_count(&mut out, 2);
        out.extend_from_slice(&[0xAA; 8]);
        put_nested(&mut out, |o| put_u64(o, 5));
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.i32(), Ok(-2));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(i64::MIN));
        assert_eq!(r.bytes(), Ok(&b"field"[..]));
        assert_eq!(r.string().as_deref(), Ok("né"));
        assert_eq!(r.count(4), Ok(2));
        assert_eq!(r.array::<8>(), Ok([0xAA; 8]));
        assert_eq!(r.bytes(), Ok(&5u64.to_le_bytes()[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn varints_roundtrip_and_reject_what_does_not_fit() {
        let mut sizes = Vec::new();
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(decode(&out, Reader::varint), Ok(v), "value {v}");
            for cut in 0..out.len() {
                assert_eq!(
                    Reader::new(&out[..cut]).varint(),
                    Err(WireError::Truncated),
                    "value {v} cut at {cut}"
                );
            }
            assert_eq!(varint_len(v), out.len(), "value {v}");
            sizes.push(out.len());
        }
        assert_eq!(sizes, [1, 1, 1, 2, 2, 3, 5, 10]);
        // Ten bytes whose last carries more than bit 63, and an eleventh
        // byte, would both wrap: rejected.
        let mut wraps = vec![0xff; 9];
        wraps.push(0x02);
        assert_eq!(Reader::new(&wraps).varint(), Err(WireError::Invalid));
        assert_eq!(Reader::new(&[0x80; 11]).varint(), Err(WireError::Invalid));
    }

    #[test]
    fn layout_is_little_endian_with_u32_prefixes() {
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_bytes(&mut out, b"ab");
        assert_eq!(out, [1, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn short_reads_are_errors_not_panics() {
        for cut in 0..8 {
            assert_eq!(
                Reader::new(&[0u8; 8][..cut]).u64(),
                Err(WireError::Truncated)
            );
        }
        // A length prefix the buffer cannot back.
        let mut field = Vec::new();
        put_bytes(&mut field, b"abc");
        for cut in 0..field.len() {
            assert_eq!(
                Reader::new(&field[..cut]).bytes(),
                Err(WireError::Truncated)
            );
        }
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).string(),
            Err(WireError::InvalidUtf8)
        );
        assert_eq!(Reader::new(&[0]).finish(), Err(WireError::TrailingBytes));
        assert_eq!(decode(&[1, 2], Reader::u8), Err(WireError::TrailingBytes));
        assert_eq!(decode(&[1], Reader::u8), Ok(1));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_behind_them() {
        let mut buf = Vec::new();
        put_count(&mut buf, 3);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).count(4), Ok(3));
        assert_eq!(
            Reader::new(&buf).count(5),
            Err(WireError::CountExceedsPayload)
        );
        for hostile in [u32::MAX, 0x4000_0000] {
            let bytes = hostile.to_le_bytes();
            assert_eq!(
                Reader::new(&bytes).count(1),
                Err(WireError::CountExceedsPayload)
            );
            assert_eq!(
                Reader::new(&bytes).count(17),
                Err(WireError::CountExceedsPayload)
            );
        }
        // A list reads exactly its elements and stops at the first bad one.
        let mut list = Vec::new();
        put_count(&mut list, 2);
        put_u32(&mut list, 10);
        put_u32(&mut list, 11);
        assert_eq!(decode(&list, |r| r.list(4, Reader::u32)), Ok(vec![10, 11]));
        assert_eq!(
            decode(&list[..list.len() - 1], |r| r.list(1, Reader::u32)),
            Err(WireError::Truncated)
        );
        assert_eq!(len_u32(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(len_u32(u32::MAX as usize + 1), None);
    }
}
