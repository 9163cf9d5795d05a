//! A batch of range writes to one value, held flat.
//!
//! A batched push names many small ranges — a HOGWILD! weight flush is
//! hundreds of 8-byte words — so the batch is one contiguous payload plus a
//! span table, two allocations whatever the range count, from the state
//! entry that fills it to the store that applies it.

/// Range writes to one value, in application order: later writes win where
/// ranges overlap. The spans' lengths always sum to the payload's length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeWrites {
    /// `(offset, len)` of each write.
    spans: Vec<(u64, u32)>,
    /// The writes' bytes back to back, in span order.
    payload: Vec<u8>,
}

impl RangeWrites {
    /// An empty batch.
    pub fn new() -> RangeWrites {
        RangeWrites::default()
    }

    /// An empty batch with room for `writes` ranges carrying `bytes` bytes
    /// in total.
    pub fn with_capacity(writes: usize, bytes: usize) -> RangeWrites {
        RangeWrites {
            spans: Vec::with_capacity(writes),
            payload: Vec::with_capacity(bytes),
        }
    }

    /// Reassemble a batch from its wire parts; `None` unless the span
    /// lengths sum to exactly the payload length.
    pub fn from_parts(spans: Vec<(u64, u32)>, payload: Vec<u8>) -> Option<RangeWrites> {
        let total: u64 = spans.iter().map(|&(_, len)| u64::from(len)).sum();
        (total == payload.len() as u64).then_some(RangeWrites { spans, payload })
    }

    /// Append a write of `data` at `offset`.
    pub fn push(&mut self, offset: u64, data: &[u8]) {
        self.spans.push((offset, span_len(data.len())));
        self.payload.extend_from_slice(data);
    }

    /// Append a write of `len` bytes at `offset` whose bytes `fill` produces
    /// in place — the source is read straight into the payload, with no
    /// buffer of its own. A failed `fill` leaves the batch as it was.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns.
    pub fn push_with<E>(
        &mut self,
        offset: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let at = self.payload.len();
        self.payload.resize(at + len, 0);
        match fill(&mut self.payload[at..]) {
            Ok(()) => {
                self.spans.push((offset, span_len(len)));
                Ok(())
            }
            Err(e) => {
                self.payload.truncate(at);
                Err(e)
            }
        }
    }

    /// Number of writes in the batch.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the batch holds no write.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `(offset, len)` table, in application order.
    pub fn spans(&self) -> &[(u64, u32)] {
        &self.spans
    }

    /// Every write's bytes back to back, in span order.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The writes as `(offset, bytes)`, in application order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let mut rest = self.payload.as_slice();
        self.spans.iter().map(move |&(offset, len)| {
            let (data, tail) = rest.split_at(len as usize);
            rest = tail;
            (offset, data)
        })
    }
}

/// A range length as the span table stores it. Lengths are `u32` on the
/// wire like every other; a longer single range is a caller bug, and a
/// truncated length would break the spans-sum-to-payload invariant.
fn span_len(len: usize) -> u32 {
    u32::try_from(len).expect("one range write is under 4 GiB")
}

impl<B: AsRef<[u8]>> FromIterator<(u64, B)> for RangeWrites {
    fn from_iter<I: IntoIterator<Item = (u64, B)>>(writes: I) -> RangeWrites {
        let mut out = RangeWrites::new();
        for (offset, data) in writes {
            out.push(offset, data.as_ref());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_iterate_in_order_with_their_own_bytes() {
        let mut w = RangeWrites::with_capacity(3, 5);
        w.push(8, b"ab");
        w.push(0, b"");
        w.push_with(3, 3, |buf| {
            buf.copy_from_slice(b"xyz");
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.payload(), b"abxyz");
        assert_eq!(w.spans(), &[(8, 2), (0, 0), (3, 3)]);
        let seen: Vec<(u64, &[u8])> = w.iter().collect();
        assert_eq!(seen, vec![(8, &b"ab"[..]), (0, &b""[..]), (3, &b"xyz"[..])]);
        let same: RangeWrites = seen.into_iter().collect();
        assert_eq!(same, w);
        assert!(RangeWrites::new().is_empty());
    }

    #[test]
    fn a_failed_fill_leaves_the_batch_unchanged() {
        let mut w: RangeWrites = [(1u64, b"k")].into_iter().collect();
        let before = w.clone();
        assert_eq!(w.push_with(9, 4, |_| Err("unreadable")), Err("unreadable"));
        assert_eq!(w, before);
    }

    #[test]
    fn parts_must_agree_on_the_payload_length() {
        let w = RangeWrites::from_parts(vec![(0, 2), (9, 1)], b"abc".to_vec()).unwrap();
        assert_eq!(w.iter().last(), Some((9, &b"c"[..])));
        assert_eq!(RangeWrites::from_parts(vec![(0, 2)], b"abc".to_vec()), None);
        assert_eq!(
            RangeWrites::from_parts(vec![(0, u32::MAX), (0, u32::MAX)], Vec::new()),
            None
        );
        assert_eq!(
            RangeWrites::from_parts(Vec::new(), Vec::new()),
            Some(RangeWrites::new())
        );
    }
}
