//! Frames: the backing store of one linear-memory page.

use std::sync::Arc;

use crate::page::Page;

/// How a frame relates to its backing page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The linear memory exclusively owns the page; writes go straight
    /// through, and a store inside one word is a plain load and store.
    Private,
    /// The page is shared with one or more [`crate::MemorySnapshot`]s; the
    /// first write materialises a private copy (copy-on-write, §5.2) that
    /// remembers the page it was copied from, so a reset to that snapshot
    /// can undo the writes in place instead of copying again.
    Cow,
    /// The page belongs to a [`crate::SharedRegion`] mapped into this memory
    /// (§3.3); reads and writes operate on the common page, visible to every
    /// memory that maps the region.
    Shared,
}

/// One page-sized frame of a linear memory.
///
/// Invariant: a [`FrameKind::Private`] frame's page is reachable only
/// through that frame (and its blocks only through the frame and the block
/// table of the memory that holds it). Private frames are built zeroed or
/// by a copy-on-write fault, and a snapshot demotes a frame to
/// copy-on-write before it shares the page. That is what lets a sub-word
/// store to a private page skip the compare-and-swap a shared page needs.
#[derive(Debug)]
pub struct Frame {
    page: Arc<Page>,
    kind: FrameKind,
    /// The snapshot page a private frame was materialised from, if it was.
    origin: Option<Arc<Page>>,
}

impl Frame {
    /// Create a private zero-filled frame.
    pub fn private_zeroed() -> Frame {
        Frame {
            page: Arc::new(Page::zeroed()),
            kind: FrameKind::Private,
            origin: None,
        }
    }

    /// Create a copy-on-write frame referencing a snapshot page.
    pub fn cow(page: Arc<Page>) -> Frame {
        Frame {
            page,
            kind: FrameKind::Cow,
            origin: None,
        }
    }

    /// Create a shared frame referencing a shared-region page.
    pub fn shared(page: Arc<Page>) -> Frame {
        Frame {
            page,
            kind: FrameKind::Shared,
            origin: None,
        }
    }

    /// The frame's relationship to its page.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Access the backing page for reading.
    pub fn page(&self) -> &Arc<Page> {
        &self.page
    }

    /// Prepare the frame for writing, materialising a private copy if the
    /// frame is copy-on-write. Returns the writable page.
    #[inline]
    pub fn page_for_write(&mut self) -> &Arc<Page> {
        if self.kind == FrameKind::Cow {
            self.fault();
        }
        &self.page
    }

    /// The copy-on-write fault: take a private copy of the page.
    #[cold]
    fn fault(&mut self) {
        let copy = self.page.clone_data();
        self.origin = Some(std::mem::replace(&mut self.page, copy));
        self.kind = FrameKind::Private;
    }

    /// Store `data` at `in_page`, inside one aligned word, copy-on-write
    /// first. Only a shared page's store takes a compare-and-swap: by the
    /// type's invariant no one else can write a private page.
    #[inline]
    pub(crate) fn store_in_word<const N: usize>(&mut self, in_page: usize, data: [u8; N]) {
        let exclusive = self.kind != FrameKind::Shared;
        let page = self.page_for_write();
        debug_assert!(
            !exclusive || Arc::strong_count(page) == 1,
            "a private frame's page is reachable only through that frame"
        );
        page.store_in_word(in_page, data, exclusive);
    }

    /// Make the frame read as `page` again, given the blocks `written`
    /// since the frame last did. A private copy *of that very page*
    /// (identity, not contents) gets its written blocks copied back and
    /// stays private; one left unwritten goes back to sharing the page, as
    /// does every other kind of frame. Returns the bytes copied.
    pub fn reset_to(&mut self, page: &Arc<Page>, written: u16) -> usize {
        match (self.kind, &self.origin) {
            (FrameKind::Private, Some(origin)) if written != 0 && Arc::ptr_eq(origin, page) => {
                self.page.copy_blocks_from(page, written)
            }
            (FrameKind::Cow, _) if Arc::ptr_eq(&self.page, page) => 0,
            _ => {
                *self = Frame::cow(Arc::clone(page));
                0
            }
        }
    }

    /// Demote a private frame to copy-on-write so its page can also be held
    /// by a snapshot. Shared frames are unaffected: shared-region contents
    /// are deliberately not captured by snapshots (§5.2 snapshots private
    /// execution state only).
    pub fn demote_to_cow(&mut self) {
        if self.kind == FrameKind::Private {
            self.kind = FrameKind::Cow;
            self.origin = None;
        }
    }

    /// Number of memories/snapshots currently referencing the backing page.
    ///
    /// Used for proportional-set-size accounting: a page shared `n` ways
    /// contributes its resident bytes / `n` to each holder's PSS (§6.5,
    /// Tab. 3).
    pub fn sharers(&self) -> usize {
        Arc::strong_count(&self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_frame_writes_in_place() {
        let mut f = Frame::private_zeroed();
        let before = Arc::as_ptr(f.page());
        f.page_for_write().write(0, b"x");
        assert_eq!(Arc::as_ptr(f.page()), before, "no copy for private frame");
        assert_eq!(f.kind(), FrameKind::Private);
    }

    #[test]
    fn cow_frame_copies_on_first_write() {
        let base = Arc::new(Page::from_bytes(b"orig"));
        let mut f = Frame::cow(base.clone());
        assert_eq!(f.kind(), FrameKind::Cow);
        f.page_for_write().write(0, b"new!");
        assert_eq!(f.kind(), FrameKind::Private);
        // Original page untouched.
        let mut buf = [0u8; 4];
        base.read(0, &mut buf);
        assert_eq!(&buf, b"orig");
        let mut buf2 = [0u8; 4];
        f.page().read(0, &mut buf2);
        assert_eq!(&buf2, b"new!");
    }

    #[test]
    fn cow_copies_only_once() {
        let base = Arc::new(Page::zeroed());
        let mut f = Frame::cow(base);
        f.page_for_write().write(0, b"a");
        let after_first = Arc::as_ptr(f.page());
        f.page_for_write().write(1, b"b");
        assert_eq!(Arc::as_ptr(f.page()), after_first);
    }

    #[test]
    fn reset_to_undoes_a_private_copy_in_place_and_repoints_the_rest() {
        let base = Arc::new(Page::from_bytes(b"orig"));
        let read4 = |f: &Frame| {
            let mut buf = [0u8; 4];
            f.page().read(0, &mut buf);
            buf
        };
        // A written private copy of `base`: block 0 copied back, kept.
        let mut f = Frame::cow(base.clone());
        f.page_for_write().write(0, b"new!");
        let private = Arc::as_ptr(f.page());
        assert_eq!(f.reset_to(&base, 1), crate::page::BLOCK_SIZE);
        assert_eq!(
            (f.kind(), Arc::as_ptr(f.page())),
            (FrameKind::Private, private)
        );
        assert_eq!(&read4(&f), b"orig");
        // Left clean by the next call: it goes back to sharing.
        assert_eq!(f.reset_to(&base, 0), 0);
        assert_eq!(f.kind(), FrameKind::Cow);
        assert!(Arc::ptr_eq(f.page(), &base));
        // A private copy of some *other* page with equal contents is not
        // trusted: identity, not contents.
        let twin = Arc::new(Page::from_bytes(b"orig"));
        let mut g = Frame::cow(twin);
        g.page_for_write().write(8, b"leak");
        assert_eq!(g.reset_to(&base, 1), 0);
        assert!(Arc::ptr_eq(g.page(), &base));
        // Shared and never-snapshotted private frames are re-pointed.
        for mut other in [
            Frame::shared(Arc::new(Page::zeroed())),
            Frame::private_zeroed(),
        ] {
            assert_eq!(other.reset_to(&base, u16::MAX), 0);
            assert_eq!(other.kind(), FrameKind::Cow);
            assert_eq!(&read4(&other), b"orig");
        }
    }

    #[test]
    fn shared_frame_writes_through() {
        let page = Arc::new(Page::zeroed());
        let mut f = Frame::shared(page.clone());
        f.page_for_write().write(0, b"s");
        assert_eq!(f.kind(), FrameKind::Shared);
        let mut buf = [0u8; 1];
        page.read(0, &mut buf);
        assert_eq!(&buf, b"s", "write visible through the region page");
    }

    #[test]
    fn demote_only_affects_private() {
        let mut f = Frame::private_zeroed();
        f.demote_to_cow();
        assert_eq!(f.kind(), FrameKind::Cow);
        let mut s = Frame::shared(Arc::new(Page::zeroed()));
        s.demote_to_cow();
        assert_eq!(s.kind(), FrameKind::Shared);
    }

    #[test]
    fn sharers_counts_references() {
        let page = Arc::new(Page::zeroed());
        let f = Frame::shared(page.clone());
        assert_eq!(f.sharers(), 2);
        drop(page);
        assert_eq!(f.sharers(), 1);
    }
}
