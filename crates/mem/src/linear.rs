//! The per-Faaslet linear address space.

use std::sync::Arc;

use crate::error::MemError;
use crate::frame::{Frame, FrameKind};
use crate::page::{load_in_block, store_in_block, Block, BLOCKS_PER_PAGE, BLOCK_SIZE, PAGE_SIZE};
use crate::region::SharedRegion;
use crate::snapshot::MemorySnapshot;
use crate::stats::MemStats;

/// A WebAssembly-style linear memory: a single densely packed byte array
/// addressed from zero, backed page-by-page by private, copy-on-write or
/// shared frames.
///
/// Guest code always sees one contiguous address space; the frame table makes
/// ranges of it alias shared regions (Fig. 2) or snapshot pages without the
/// guest being able to tell the difference. Every access is bounds-checked
/// and fails with [`MemError::OutOfBounds`] — the software-fault-isolation
/// guarantee.
///
/// # Examples
///
/// ```
/// use faasm_mem::{LinearMemory, SharedRegion, PAGE_SIZE};
///
/// let mut mem = LinearMemory::new(1, 4).unwrap();
/// mem.write(0, b"private").unwrap();
///
/// // Map a shared region; it appears at the end of the address space.
/// let region = SharedRegion::from_bytes(b"shared!");
/// let base = mem.map_shared(&region).unwrap();
/// let mut buf = [0u8; 7];
/// mem.read(base, &mut buf).unwrap();
/// assert_eq!(&buf, b"shared!");
/// ```
#[derive(Debug)]
pub struct LinearMemory {
    frames: Vec<Frame>,
    /// Per page, the 4 KiB blocks written since the memory was created or
    /// last reset (bit `i` = block `i`): the one dirty record. It is only
    /// ever cleared together with the frame it describes, which is what
    /// lets [`LinearMemory::reset_to`] copy back masked blocks alone.
    written: Vec<u16>,
    table: BlockTable,
    max_pages: usize,
}

/// The block table: what a one-word [`LinearMemory::load`] or
/// [`LinearMemory::store`] reaches without going through frame and page.
/// One entry per 4 KiB block of the address space (`addr / BLOCK_SIZE`), so
/// finding the entry is also the access's bounds check.
///
/// An entry is a cache, never the truth: `None` sends the access the long
/// way, through the frames. Every method that changes which page a frame
/// holds, backs a block or sets or clears a written bit re-syncs the
/// entries it touched ([`LinearMemory::sync`]); the blocks of a shared page
/// that another memory backs are found the long way.
#[derive(Default)]
struct BlockTable {
    /// The block's words, if its page has backed it.
    reads: Vec<Option<Arc<Block>>>,
    /// The same words, when a store may go straight to them: the frame is
    /// private (so no other memory, snapshot or thread reaches the page)
    /// and the block's written bit is already set.
    writes: Vec<Option<Arc<Block>>>,
}

impl BlockTable {
    /// Entries for `pages` pages, the ones past them dropped or new ones
    /// empty.
    fn resize(&mut self, pages: usize) {
        self.reads.resize(pages * BLOCKS_PER_PAGE, None);
        self.writes.resize(pages * BLOCKS_PER_PAGE, None);
    }
}

impl std::fmt::Debug for BlockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = |t: &[Option<Arc<Block>>]| t.iter().filter(|e| e.is_some()).count();
        f.debug_struct("BlockTable")
            .field("blocks", &self.reads.len())
            .field("readable", &cached(&self.reads))
            .field("writable", &cached(&self.writes))
            .finish()
    }
}

/// Whether a table entry already holds `want`.
fn holds(entry: &Option<Arc<Block>>, want: Option<&Arc<Block>>) -> bool {
    match (entry, want) {
        (Some(have), Some(want)) => Arc::ptr_eq(have, want),
        (have, want) => have.is_none() && want.is_none(),
    }
}

/// The blocks of a page that a write of `len` bytes at `in_page` touches.
#[inline]
fn blocks(in_page: usize, len: usize) -> u16 {
    if len == 0 {
        return 0;
    }
    let (first, last) = (in_page / BLOCK_SIZE, (in_page + len - 1) / BLOCK_SIZE);
    (u16::MAX << first) & (u16::MAX >> (15 - last))
}

impl LinearMemory {
    /// Create a memory with `initial_pages` zeroed private pages and a hard
    /// limit of `max_pages`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LimitExceeded`] if `initial_pages > max_pages`.
    pub fn new(initial_pages: usize, max_pages: usize) -> Result<LinearMemory, MemError> {
        if initial_pages > max_pages {
            return Err(MemError::LimitExceeded {
                requested_pages: initial_pages,
                max_pages,
            });
        }
        let mut table = BlockTable::default();
        table.resize(initial_pages);
        Ok(LinearMemory {
            frames: (0..initial_pages)
                .map(|_| Frame::private_zeroed())
                .collect(),
            written: vec![0; initial_pages],
            table,
            max_pages,
        })
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> usize {
        self.frames.len()
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.frames.len() * PAGE_SIZE
    }

    /// The configured page limit.
    pub fn max_pages(&self) -> usize {
        self.max_pages
    }

    /// Grow the memory by `delta` zeroed private pages, returning the
    /// previous size in pages (the `memory.grow` semantics the host interface
    /// builds `brk`/`mmap` on, §3.2).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LimitExceeded`] if the new size would exceed the
    /// page limit; the memory is unchanged in that case.
    pub fn grow(&mut self, delta: usize) -> Result<usize, MemError> {
        let old = self.frames.len();
        let requested = old + delta;
        if requested > self.max_pages {
            return Err(MemError::LimitExceeded {
                requested_pages: requested,
                max_pages: self.max_pages,
            });
        }
        self.frames
            .extend((0..delta).map(|_| Frame::private_zeroed()));
        self.written.resize(requested, 0);
        self.table.resize(requested);
        Ok(old)
    }

    /// Point the block table's entries for `blocks` of `page` at what the
    /// frame holds now. An entry that already does is left alone, so a
    /// re-sync of unchanged blocks touches no reference count.
    fn sync(&mut self, page: usize, blocks: u16) {
        let frame = &self.frames[page];
        let private = frame.kind() == FrameKind::Private;
        let mut rest = blocks;
        while rest != 0 {
            let block = rest.trailing_zeros() as usize;
            let at = page * BLOCKS_PER_PAGE + block;
            let words = frame.page().backed(block);
            let writable = words.filter(|_| private && self.written[page] & 1 << block != 0);
            if !holds(&self.table.reads[at], words) {
                self.table.reads[at] = words.cloned();
            }
            if !holds(&self.table.writes[at], writable) {
                self.table.writes[at] = writable.cloned();
            }
            rest &= rest - 1;
        }
    }

    /// Record a store to `blocks` of `page`, made after the frame kind was
    /// read as `before`: set their written bits and re-sync them — the
    /// whole page if the store took the copy-on-write fault, which gave the
    /// frame a new page.
    fn wrote(&mut self, page: usize, blocks: u16, before: FrameKind) {
        self.written[page] |= blocks;
        let stale = if before == FrameKind::Cow {
            u16::MAX
        } else {
            blocks
        };
        self.sync(page, stale);
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    pub fn read(&self, addr: usize, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len())?;
        let mut pos = 0;
        while pos < buf.len() {
            let a = addr + pos;
            let page = a / PAGE_SIZE;
            let in_page = a % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
            self.frames[page]
                .page()
                .read(in_page, &mut buf[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Write `data` starting at `addr`, materialising copy-on-write pages as
    /// needed and recording the blocks touched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    pub fn write(&mut self, addr: usize, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        let mut pos = 0;
        while pos < data.len() {
            let a = addr + pos;
            let page = a / PAGE_SIZE;
            let in_page = a % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(data.len() - pos);
            let before = self.frames[page].kind();
            self.frames[page]
                .page_for_write()
                .write(in_page, &data[pos..pos + n]);
            self.wrote(page, blocks(in_page, n), before);
            pos += n;
        }
        Ok(())
    }

    /// Read the `N` bytes at `addr`: the FVM's load. An access inside one
    /// aligned word of a backed block is one block-table lookup — which is
    /// also its bounds check — and one relaxed load; anything else (a block
    /// no store has backed, a straddle) takes the checked path.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    #[inline]
    pub fn load<const N: usize>(&self, addr: usize) -> Result<[u8; N], MemError> {
        // In one word, the whole access is in the block the table indexes.
        if addr % 8 + N <= 8 {
            if let Some(Some(words)) = self.table.reads.get(addr / BLOCK_SIZE) {
                return Ok(load_in_block(words, addr));
            }
        }
        self.load_slow(addr)
    }

    #[cold]
    #[inline(never)]
    fn load_slow<const N: usize>(&self, addr: usize) -> Result<[u8; N], MemError> {
        let mut buf = [0u8; N];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Write the `N` bytes `data` at `addr`: the FVM's store. An access
    /// inside one aligned word of a block the memory has already written
    /// in a private frame is one block-table lookup (the bounds check) and
    /// one store — a load and a store for a partial word, since no one else
    /// can reach a private page. Anything else takes the checked path,
    /// which materialises copy-on-write pages, records the blocks touched
    /// exactly like [`LinearMemory::write`] and gives a partial word of a
    /// shared page a compare-and-swap.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    #[inline]
    pub fn store<const N: usize>(&mut self, addr: usize, data: [u8; N]) -> Result<(), MemError> {
        if addr % 8 + N <= 8 {
            if let Some(Some(words)) = self.table.writes.get(addr / BLOCK_SIZE) {
                debug_assert_eq!(self.frames[addr / PAGE_SIZE].kind(), FrameKind::Private);
                store_in_block(words, addr, data, true);
                return Ok(());
            }
        }
        self.store_slow(addr, data)
    }

    #[cold]
    #[inline(never)]
    fn store_slow<const N: usize>(&mut self, addr: usize, data: [u8; N]) -> Result<(), MemError> {
        if addr % 8 + N > 8 {
            return self.write(addr, &data);
        }
        self.check(addr, N)?;
        let (page, in_page) = (addr / PAGE_SIZE, addr % PAGE_SIZE);
        let before = self.frames[page].kind();
        self.frames[page].store_in_word(in_page, data);
        self.wrote(page, 1 << (in_page / BLOCK_SIZE), before);
        Ok(())
    }

    /// Fill `len` bytes starting at `addr` with `value` (`memset`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    pub fn fill(&mut self, addr: usize, len: usize, value: u8) -> Result<(), MemError> {
        self.check(addr, len)?;
        let mut pos = 0;
        while pos < len {
            let a = addr + pos;
            let page = a / PAGE_SIZE;
            let in_page = a % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(len - pos);
            let before = self.frames[page].kind();
            self.frames[page].page_for_write().fill(in_page, n, value);
            self.wrote(page, blocks(in_page, n), before);
            pos += n;
        }
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` within the memory (`memmove`
    /// semantics: overlapping ranges are handled correctly).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if either range exceeds the memory.
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut tmp = vec![0u8; len];
        self.read(src, &mut tmp)?;
        self.write(dst, &tmp)
    }

    /// Map a shared region at the end of the address space, growing the
    /// memory by the region's page count. Returns the base address of the
    /// mapping (the paper's "extend the linear byte array and remap the new
    /// pages onto shared process memory", §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LimitExceeded`] if mapping would exceed the page
    /// limit.
    pub fn map_shared(&mut self, region: &SharedRegion) -> Result<usize, MemError> {
        let base_page = self.frames.len();
        self.map_shared_at(base_page, region)?;
        Ok(base_page * PAGE_SIZE)
    }

    /// Map a shared region so its first page lands at page index `page_idx`,
    /// growing the memory with zeroed private pages if there is a gap.
    ///
    /// # Errors
    ///
    /// * [`MemError::LimitExceeded`] if the mapping end exceeds the limit.
    /// * [`MemError::MappingOverlap`] if any target page is already part of a
    ///   shared mapping (remapping over a live region would silently detach
    ///   other Faaslets, so it is refused).
    pub fn map_shared_at(
        &mut self,
        page_idx: usize,
        region: &SharedRegion,
    ) -> Result<(), MemError> {
        let count = region.page_count();
        let end = page_idx + count;
        if end > self.max_pages {
            return Err(MemError::LimitExceeded {
                requested_pages: end,
                max_pages: self.max_pages,
            });
        }
        for (i, frame) in self.frames.iter().enumerate().skip(page_idx) {
            if i < end && frame.kind() == FrameKind::Shared {
                return Err(MemError::MappingOverlap { page: i });
            }
        }
        if end > self.frames.len() {
            let grow_by = end - self.frames.len();
            self.frames
                .extend((0..grow_by).map(|_| Frame::private_zeroed()));
            self.written.resize(end, 0);
            self.table.resize(end);
        }
        for (i, page) in region.pages().iter().enumerate() {
            self.frames[page_idx + i] = Frame::shared(Arc::clone(page));
            self.sync(page_idx + i, u16::MAX);
        }
        Ok(())
    }

    /// Replace the shared mapping covering `page_idx..page_idx + count` with
    /// zeroed private pages (`munmap` of a shared region).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory.
    pub fn unmap(&mut self, page_idx: usize, count: usize) -> Result<(), MemError> {
        let end = page_idx + count;
        if end > self.frames.len() {
            return Err(MemError::OutOfBounds {
                addr: page_idx * PAGE_SIZE,
                len: count * PAGE_SIZE,
                size: self.size_bytes(),
            });
        }
        for i in page_idx..end {
            self.frames[i] = Frame::private_zeroed();
            self.written[i] = 0;
            self.sync(i, u16::MAX);
        }
        Ok(())
    }

    /// The frame kind backing page `page_idx`, if the page exists.
    pub fn frame_kind(&self, page_idx: usize) -> Option<FrameKind> {
        self.frames.get(page_idx).map(|f| f.kind())
    }

    /// Take a snapshot of the memory's contents.
    ///
    /// Private pages are captured in O(1) each by demoting them to
    /// copy-on-write and sharing the page `Arc`; shared-region pages are
    /// captured by value (a point-in-time copy) since the region's future
    /// writes must not leak into the snapshot.
    pub fn snapshot(&mut self) -> MemorySnapshot {
        let mut pages = Vec::with_capacity(self.frames.len());
        for (i, frame) in self.frames.iter_mut().enumerate() {
            match frame.kind() {
                FrameKind::Private => {
                    frame.demote_to_cow();
                    pages.push(Arc::clone(frame.page()));
                    // The snapshot reaches the page now: no store may go
                    // straight to its blocks.
                    let blocks = i * BLOCKS_PER_PAGE..(i + 1) * BLOCKS_PER_PAGE;
                    self.table.writes[blocks].fill(None);
                }
                FrameKind::Cow => pages.push(Arc::clone(frame.page())),
                FrameKind::Shared => pages.push(frame.page().clone_data()),
            }
        }
        MemorySnapshot {
            size_pages: pages.len(),
            max_pages: self.max_pages,
            pages,
        }
    }

    /// Build a new memory from a snapshot using copy-on-write mappings.
    ///
    /// Cost is O(pages) reference-count increments; no page data is copied
    /// until the restored memory is written — the Proto-Faaslet restore path
    /// (§5.2). It is [`LinearMemory::reset_to`] on an empty memory.
    pub fn restore(snap: &MemorySnapshot) -> LinearMemory {
        let mut mem = LinearMemory {
            frames: Vec::with_capacity(snap.pages.len()),
            written: Vec::with_capacity(snap.pages.len()),
            table: BlockTable::default(),
            max_pages: snap.max_pages,
        };
        mem.reset_to(snap);
        mem
    }

    /// Make this memory read exactly as [`LinearMemory::restore`] of `snap`
    /// would — same bytes, size and page limit — at a cost proportional to
    /// what was written since: the reset-after-call path (§5.2). Returns the
    /// number of bytes copied.
    ///
    /// A page this memory privately copied *from `snap`'s own page* has only
    /// its written 4 KiB blocks copied back and stays private, so the next
    /// call's first store to it copies nothing; a private copy left
    /// unwritten since the previous reset goes back to sharing the snapshot
    /// page, so an idle memory holds private copies only of the pages its
    /// last call wrote. Every other frame (shared mappings, unmapped or
    /// grown pages, copies of some other snapshot's pages) is re-pointed
    /// copy-on-write, and pages beyond the snapshot are dropped. The
    /// snapshot's pages are never written. The block table is re-synced
    /// only where a frame changed page or had written blocks.
    pub fn reset_to(&mut self, snap: &MemorySnapshot) -> usize {
        let pages = snap.pages.len();
        self.max_pages = snap.max_pages;
        self.frames.truncate(pages);
        self.written.resize(self.frames.len(), 0);
        self.table.resize(pages);
        let mut copied = 0;
        for (i, page) in snap.pages.iter().enumerate() {
            let Some(frame) = self.frames.get_mut(i) else {
                self.frames.push(Frame::cow(Arc::clone(page)));
                self.written.push(0);
                self.sync(i, u16::MAX);
                continue;
            };
            let dirty = std::mem::take(&mut self.written[i]);
            let before = Arc::as_ptr(frame.page());
            copied += frame.reset_to(page, dirty);
            let stale = if Arc::as_ptr(frame.page()) == before {
                dirty
            } else {
                u16::MAX
            };
            self.sync(i, stale);
        }
        copied
    }

    /// Indices of pages written since the memory was created, restored or
    /// last [`LinearMemory::reset_to`] a snapshot.
    pub fn dirty_pages(&self) -> Vec<usize> {
        self.written
            .iter()
            .enumerate()
            .filter_map(|(i, &blocks)| (blocks != 0).then_some(i))
            .collect()
    }

    /// Point-in-time footprint accounting (see [`MemStats`]).
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for frame in &self.frames {
            let resident = frame.page().resident_bytes();
            s.rss_bytes += resident;
            match frame.kind() {
                FrameKind::Private => {
                    s.private_pages += 1;
                    s.pss_bytes += resident as f64;
                }
                FrameKind::Cow => {
                    s.cow_pages += 1;
                    s.pss_bytes += resident as f64 / frame.sharers() as f64;
                }
                FrameKind::Shared => {
                    s.shared_pages += 1;
                    s.pss_bytes += resident as f64 / frame.sharers() as f64;
                }
            }
        }
        s
    }

    /// Copy the full contents to an owned buffer (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size_bytes()];
        self.read(0, &mut out).expect("in-bounds by construction");
        out
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), MemError> {
        let size = self.size_bytes();
        if addr.checked_add(len).is_none_or(|end| end > size) {
            return Err(MemError::OutOfBounds { addr, len, size });
        }
        Ok(())
    }
}

// Typed little-endian accessors used by the FVM's load/store instructions.
macro_rules! typed_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl LinearMemory {
            /// Read a little-endian value at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory.
            pub fn $read(&self, addr: usize) -> Result<$ty, MemError> {
                let mut buf = [0u8; std::mem::size_of::<$ty>()];
                self.read(addr, &mut buf)?;
                Ok(<$ty>::from_le_bytes(buf))
            }

            /// Write a little-endian value at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory.
            pub fn $write(&mut self, addr: usize, value: $ty) -> Result<(), MemError> {
                self.write(addr, &value.to_le_bytes())
            }
        }
    };
}

typed_access!(read_u8, write_u8, u8);
typed_access!(read_u16, write_u16, u16);
typed_access!(read_u32, write_u32, u32);
typed_access!(read_u64, write_u64, u64);
typed_access!(read_i8, write_i8, i8);
typed_access!(read_i16, write_i16, i16);
typed_access!(read_i32, write_i32, i32);
typed_access!(read_i64, write_i64, i64);
typed_access!(read_f32, write_f32, f32);
typed_access!(read_f64, write_f64, f64);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn new_respects_limit() {
        assert!(LinearMemory::new(4, 4).is_ok());
        assert!(matches!(
            LinearMemory::new(5, 4),
            Err(MemError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn grow_returns_old_size_and_enforces_limit() {
        let mut mem = LinearMemory::new(1, 3).unwrap();
        assert_eq!(mem.grow(1).unwrap(), 1);
        assert_eq!(mem.size_pages(), 2);
        assert!(mem.grow(2).is_err());
        assert_eq!(mem.size_pages(), 2, "failed grow leaves memory unchanged");
        assert_eq!(mem.grow(1).unwrap(), 2);
    }

    #[test]
    fn raw_access_matches_checked_path_across_pages() {
        let mut mem = LinearMemory::new(2, 2).unwrap();
        // Straddle the page boundary and hit an interior offset.
        for addr in [100usize, PAGE_SIZE - 3, PAGE_SIZE - 1] {
            let data = [0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x07, 0x18];
            mem.store::<8>(addr, data).unwrap();
            let mut checked = [0u8; 8];
            mem.read(addr, &mut checked).unwrap();
            assert_eq!(checked, data);
            assert_eq!(mem.load::<8>(addr).unwrap(), data);
        }
    }

    #[test]
    fn read_write_cross_page() {
        let mut mem = LinearMemory::new(2, 2).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        mem.write(PAGE_SIZE - 128, &data).unwrap();
        let mut buf = vec![0u8; 256];
        mem.read(PAGE_SIZE - 128, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn out_of_bounds_is_reported_not_panicking() {
        let mut mem = LinearMemory::new(1, 1).unwrap();
        assert!(matches!(
            mem.write(PAGE_SIZE - 1, &[0, 0]),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(mem.read(PAGE_SIZE - 1, &mut buf).is_err());
        // Address arithmetic overflow also rejected.
        assert!(mem.read(usize::MAX, &mut buf).is_err());
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut mem = LinearMemory::new(1, 1).unwrap();
        mem.write_u32(0, 0xdead_beef).unwrap();
        assert_eq!(mem.read_u32(0).unwrap(), 0xdead_beef);
        mem.write_i64(8, -42).unwrap();
        assert_eq!(mem.read_i64(8).unwrap(), -42);
        mem.write_f64(16, 3.5).unwrap();
        assert_eq!(mem.read_f64(16).unwrap(), 3.5);
        mem.write_f32(24, -0.25).unwrap();
        assert_eq!(mem.read_f32(24).unwrap(), -0.25);
        mem.write_u16(28, 0xbeef).unwrap();
        assert_eq!(mem.read_u16(28).unwrap(), 0xbeef);
        mem.write_i8(30, -1).unwrap();
        assert_eq!(mem.read_i8(30).unwrap(), -1);
    }

    #[test]
    fn fill_and_copy_within() {
        let mut mem = LinearMemory::new(1, 1).unwrap();
        mem.fill(0, 16, 0x11).unwrap();
        mem.copy_within(0, 8, 8).unwrap();
        assert_eq!(mem.read_u64(8).unwrap(), 0x1111_1111_1111_1111);
        // Overlapping forward copy.
        mem.write(100, b"abcdef").unwrap();
        mem.copy_within(100, 102, 6).unwrap();
        let mut buf = [0u8; 6];
        mem.read(102, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn map_shared_appends_and_aliases() {
        let region = SharedRegion::from_bytes(b"hello region");
        let mut a = LinearMemory::new(1, 8).unwrap();
        let mut b = LinearMemory::new(2, 8).unwrap();
        let base_a = a.map_shared(&region).unwrap();
        let base_b = b.map_shared(&region).unwrap();
        assert_eq!(base_a, PAGE_SIZE);
        assert_eq!(base_b, 2 * PAGE_SIZE);
        // A write through one memory is visible in the other and the region.
        a.write(base_a, b"HELLO").unwrap();
        let mut buf = [0u8; 5];
        b.read(base_b, &mut buf).unwrap();
        assert_eq!(&buf, b"HELLO");
        let mut rbuf = [0u8; 5];
        region.read(0, &mut rbuf).unwrap();
        assert_eq!(&rbuf, b"HELLO");
    }

    #[test]
    fn map_shared_respects_limit() {
        let region = SharedRegion::new(4 * PAGE_SIZE);
        let mut mem = LinearMemory::new(1, 3).unwrap();
        assert!(matches!(
            mem.map_shared(&region),
            Err(MemError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn map_shared_at_fills_gap_and_rejects_overlap() {
        let region = SharedRegion::new(PAGE_SIZE);
        let mut mem = LinearMemory::new(1, 10).unwrap();
        mem.map_shared_at(3, &region).unwrap();
        assert_eq!(mem.size_pages(), 4);
        assert_eq!(mem.frame_kind(1), Some(FrameKind::Private));
        assert_eq!(mem.frame_kind(3), Some(FrameKind::Shared));
        // Mapping another region over the live one is refused.
        let other = SharedRegion::new(PAGE_SIZE);
        assert!(matches!(
            mem.map_shared_at(3, &other),
            Err(MemError::MappingOverlap { page: 3 })
        ));
    }

    #[test]
    fn unmap_replaces_with_private_zero() {
        let region = SharedRegion::from_bytes(b"data");
        let mut mem = LinearMemory::new(0, 4).unwrap();
        let base = mem.map_shared(&region).unwrap();
        mem.unmap(base / PAGE_SIZE, 1).unwrap();
        assert_eq!(mem.frame_kind(0), Some(FrameKind::Private));
        assert_eq!(mem.read_u32(0).unwrap(), 0);
        // Region itself unaffected.
        let mut buf = [0u8; 4];
        region.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
        assert!(mem.unmap(0, 2).is_err());
    }

    #[test]
    fn snapshot_restore_preserves_contents() {
        let mut mem = LinearMemory::new(2, 4).unwrap();
        mem.write(10, b"state").unwrap();
        let snap = mem.snapshot();
        let restored = LinearMemory::restore(&snap);
        let mut buf = [0u8; 5];
        restored.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"state");
        assert_eq!(restored.size_pages(), 2);
        assert_eq!(restored.max_pages(), 4);
        assert_eq!(restored.frame_kind(0), Some(FrameKind::Cow));
    }

    #[test]
    fn writes_after_snapshot_do_not_leak_into_snapshot() {
        let mut mem = LinearMemory::new(1, 2).unwrap();
        mem.write(0, b"before").unwrap();
        let snap = mem.snapshot();
        mem.write(0, b"AFTER!").unwrap();
        let restored = LinearMemory::restore(&snap);
        let mut buf = [0u8; 6];
        restored.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"before");
    }

    #[test]
    fn restored_memories_diverge_independently() {
        let mut mem = LinearMemory::new(1, 2).unwrap();
        mem.write(0, b"base").unwrap();
        let snap = mem.snapshot();
        let mut r1 = LinearMemory::restore(&snap);
        let mut r2 = LinearMemory::restore(&snap);
        r1.write(0, b"one!").unwrap();
        r2.write(0, b"two!").unwrap();
        let mut b1 = [0u8; 4];
        let mut b2 = [0u8; 4];
        r1.read(0, &mut b1).unwrap();
        r2.read(0, &mut b2).unwrap();
        assert_eq!(&b1, b"one!");
        assert_eq!(&b2, b"two!");
        // Snapshot still pristine.
        let r3 = LinearMemory::restore(&snap);
        let mut b3 = [0u8; 4];
        r3.read(0, &mut b3).unwrap();
        assert_eq!(&b3, b"base");
    }

    #[test]
    fn snapshot_of_shared_pages_copies_by_value() {
        let region = SharedRegion::from_bytes(b"shared");
        let mut mem = LinearMemory::new(0, 2).unwrap();
        let base = mem.map_shared(&region).unwrap();
        let snap = mem.snapshot();
        // Mutate the region after the snapshot.
        region.write(0, b"MUTATE").unwrap();
        let restored = LinearMemory::restore(&snap);
        let mut buf = [0u8; 6];
        restored.read(base, &mut buf).unwrap();
        assert_eq!(&buf, b"shared", "snapshot holds point-in-time copy");
    }

    #[test]
    fn dirty_tracking() {
        let mut mem = LinearMemory::new(3, 3).unwrap();
        assert!(mem.dirty_pages().is_empty());
        mem.write(PAGE_SIZE + 5, &[1]).unwrap();
        mem.write(2 * PAGE_SIZE, &[2]).unwrap();
        assert_eq!(mem.dirty_pages(), vec![1, 2]);
        mem.fill(0, 1, 9).unwrap();
        assert_eq!(mem.dirty_pages(), vec![0, 1, 2]);
        // Only a reset clears the record, together with the writes.
        let snap = LinearMemory::new(3, 3).unwrap().snapshot();
        mem.reset_to(&snap);
        assert!(mem.dirty_pages().is_empty());
    }

    #[test]
    fn blocks_cover_exactly_the_bytes_written() {
        assert_eq!(blocks(0, 0), 0);
        assert_eq!(blocks(0, 1), 0b1);
        assert_eq!(blocks(BLOCK_SIZE - 1, 1), 0b1);
        assert_eq!(blocks(BLOCK_SIZE - 1, 2), 0b11);
        assert_eq!(blocks(BLOCK_SIZE, BLOCK_SIZE), 0b10);
        assert_eq!(blocks(PAGE_SIZE - 1, 1), 1 << 15);
        assert_eq!(blocks(0, PAGE_SIZE), u16::MAX);
        assert_eq!(blocks(3 * BLOCK_SIZE + 7, 2 * BLOCK_SIZE), 0b111 << 3);
    }

    #[test]
    fn reset_to_copies_back_written_blocks_and_keeps_the_frame() {
        let mut donor = LinearMemory::new(3, 8).unwrap();
        donor.write(0, b"proto").unwrap();
        let snap = donor.snapshot();
        let mut mem = LinearMemory::restore(&snap);
        // Round 1 writes pages 0 (one block) and 1 (a straddle: two blocks).
        mem.write(1, b"SECRET").unwrap();
        mem.store::<8>(PAGE_SIZE + 2 * BLOCK_SIZE - 4, [0xff; 8])
            .unwrap();
        mem.grow(2).unwrap();
        assert_eq!(mem.reset_to(&snap), 3 * BLOCK_SIZE);
        assert_eq!(mem.to_vec(), LinearMemory::restore(&snap).to_vec());
        assert_eq!(mem.size_pages(), 3);
        let kinds = |m: &LinearMemory| [0, 1, 2].map(|p| m.frame_kind(p).unwrap());
        use FrameKind::{Cow, Private};
        assert_eq!(kinds(&mem), [Private, Private, Cow]);
        // Round 2 writes page 0 only — no copy-on-write fault — and page 1,
        // left clean, goes back to sharing the snapshot page.
        mem.write(9, b"x").unwrap();
        assert_eq!(mem.reset_to(&snap), BLOCK_SIZE);
        assert_eq!(kinds(&mem), [Private, Cow, Cow]);
        assert_eq!(mem.to_vec(), LinearMemory::restore(&snap).to_vec());
    }

    #[test]
    fn reset_to_another_snapshot_trusts_no_private_copy() {
        let mut donor = LinearMemory::new(1, 2).unwrap();
        donor.write(5 * BLOCK_SIZE, b"aaaa").unwrap();
        let snap_a = donor.snapshot();
        let mut donor = LinearMemory::new(2, 4).unwrap();
        donor.write(0, b"bbbb").unwrap();
        let snap_b = donor.snapshot();
        let mut mem = LinearMemory::restore(&snap_a);
        mem.write(100, b"from a").unwrap();
        assert_eq!(mem.reset_to(&snap_b), 0, "a copy of a's page is not b's");
        assert_eq!(mem.to_vec(), LinearMemory::restore(&snap_b).to_vec());
        assert_eq!((mem.size_pages(), mem.max_pages()), (2, 4));
    }

    #[test]
    fn grow_after_restore_respects_original_limit() {
        let mut mem = LinearMemory::new(1, 2).unwrap();
        let snap = mem.snapshot();
        let mut restored = LinearMemory::restore(&snap);
        assert!(restored.grow(1).is_ok());
        assert!(restored.grow(1).is_err());
    }

    /// xorshift64*: the properties need replayable seeds, not quality.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// An address `len` bytes short of `size`, half the time hugging a
        /// block or page boundary so that writes straddle it.
        fn addr(&mut self, size: usize, len: usize) -> usize {
            let room = size - len;
            if self.below(2) == 0 {
                return self.below(room + 1);
            }
            let unit = [BLOCK_SIZE, PAGE_SIZE][self.below(2)];
            let edge = (1 + self.below(size / unit)) * unit;
            edge.saturating_sub(self.below(len + 1)).min(room)
        }
    }

    /// One random mutation of `mem`; every error (limit, overlap) is a
    /// legal outcome and leaves a state `reset_to` must cope with too.
    fn mutate(mem: &mut LinearMemory, region: &SharedRegion, rng: &mut Rng) {
        let size = mem.size_bytes();
        let pages = mem.size_pages();
        match rng.below(if size == 0 { 3 } else { 9 }) {
            0 => drop(mem.grow(rng.below(3))),
            1 => drop(mem.map_shared(region)),
            2 => drop(mem.map_shared_at(rng.below(pages + 2), region)),
            3 => drop(mem.unmap(rng.below(pages), 1 + rng.below(2))),
            4 => {
                let data: Vec<u8> = (0..1 + rng.below(3 * BLOCK_SIZE))
                    .map(|_| rng.next() as u8 | 1)
                    .collect();
                let len = data.len().min(size);
                mem.write(rng.addr(size, len), &data[..len]).unwrap();
            }
            5 => mem
                .store::<8>(rng.addr(size, 8), [rng.next() as u8 | 1; 8])
                .unwrap(),
            6 => mem
                .store::<1>(rng.addr(size, 1), [rng.next() as u8 | 1])
                .unwrap(),
            7 => {
                let len = rng.below((2 * PAGE_SIZE).min(size) + 1);
                mem.fill(rng.addr(size, len), len, rng.next() as u8 | 1)
                    .unwrap();
            }
            _ => {
                let len = rng.below(PAGE_SIZE.min(size) + 1);
                let (src, dst) = (rng.addr(size, len), rng.addr(size, len));
                mem.copy_within(src, dst, len).unwrap();
            }
        }
    }

    #[test]
    fn reset_to_equals_restore_after_any_mutations() {
        for seed in 1..=256u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let region = SharedRegion::new((1 + rng.below(2)) * PAGE_SIZE);
            // The proto: a mutated memory, snapshotted (its shared pages
            // are captured by value).
            let mut donor = LinearMemory::new(1 + rng.below(3), 8).unwrap();
            for _ in 0..rng.below(12) {
                mutate(&mut donor, &region, &mut rng);
            }
            let snap = donor.snapshot();
            let want = LinearMemory::restore(&snap).to_vec();

            // Several rounds on the *same* memory: what one round leaves
            // private is what the next one's reset has to get right.
            let mut mem = LinearMemory::restore(&snap);
            for round in 0..5 {
                for _ in 0..rng.below(16) {
                    mutate(&mut mem, &region, &mut rng);
                }
                if round == 3 {
                    // A capture in between demotes the private frames.
                    let _ = mem.snapshot();
                }
                let copied = mem.reset_to(&snap);
                assert_eq!(copied % BLOCK_SIZE, 0, "seed {seed} round {round}");
                assert!(mem.to_vec() == want, "seed {seed} round {round}: bytes");
                assert_eq!(
                    (mem.size_pages(), mem.max_pages()),
                    (snap.size_pages(), snap.max_pages()),
                    "seed {seed} round {round}"
                );
                assert!(mem.dirty_pages().is_empty(), "seed {seed} round {round}");
                // The snapshot was not written through.
                assert!(
                    LinearMemory::restore(&snap).to_vec() == want,
                    "seed {seed} round {round}: snapshot changed"
                );
            }
        }
    }

    /// What a flat model needs to follow a memory: its bytes, and per page
    /// the page of the one shared region mapped there, if any.
    struct Model {
        bytes: Vec<u8>,
        mapped: Vec<Option<usize>>,
    }

    impl Model {
        fn resize(&mut self, pages: usize) {
            self.bytes.resize(pages * PAGE_SIZE, 0);
            self.mapped.resize(pages, None);
        }

        /// The region's pages now appear at pages `at..`.
        fn map(&mut self, at: usize, region: &SharedRegion) {
            self.resize(self.mapped.len().max(at + region.page_count()));
            for i in 0..region.page_count() {
                let page = &mut self.bytes[(at + i) * PAGE_SIZE..(at + i + 1) * PAGE_SIZE];
                region.read(i * PAGE_SIZE, page).unwrap();
                self.mapped[at + i] = Some(i);
            }
        }

        /// Bytes `data` were stored at `offset` of the region, by anyone.
        fn region_wrote(&mut self, offset: usize, data: &[u8]) {
            for (at, mapped) in self.mapped.iter().enumerate() {
                for (i, &b) in data.iter().enumerate() {
                    let o = offset + i;
                    if *mapped == Some(o / PAGE_SIZE) {
                        self.bytes[at * PAGE_SIZE + o % PAGE_SIZE] = b;
                    }
                }
            }
        }

        /// Bytes `data` were stored at `addr` through the memory: a shared
        /// page passes them on to the region, and so to its other mappings.
        fn wrote(&mut self, addr: usize, data: &[u8]) {
            self.bytes[addr..addr + data.len()].copy_from_slice(data);
            for (i, &b) in data.iter().enumerate() {
                let a = addr + i;
                if let Some(rp) = self.mapped[a / PAGE_SIZE] {
                    self.region_wrote(rp * PAGE_SIZE + a % PAGE_SIZE, &[b]);
                }
            }
        }
    }

    /// The block table's invariant: an entry is empty or the very block
    /// (by identity) its frame's page holds there, and a store entry also
    /// needs a private frame and the block's written bit. An entry that
    /// outlives its frame's page can still read the same bytes for a while
    /// — a snapshot block equals its copy until the copy is written — so the
    /// bytes alone would not show it.
    fn assert_table_in_sync(mem: &LinearMemory, at: &str) {
        assert_eq!(
            mem.table.reads.len(),
            mem.size_pages() * BLOCKS_PER_PAGE,
            "{at}"
        );
        assert_eq!(mem.table.writes.len(), mem.table.reads.len(), "{at}");
        for (i, (read, write)) in mem.table.reads.iter().zip(&mem.table.writes).enumerate() {
            let (page, block) = (i / BLOCKS_PER_PAGE, i % BLOCKS_PER_PAGE);
            let frame = &mem.frames[page];
            let backed = frame.page().backed(block);
            if let Some(read) = read {
                assert!(
                    backed.is_some_and(|b| Arc::ptr_eq(b, read)),
                    "{at}: block {i} reads a block its page does not hold"
                );
            }
            if let Some(write) = write {
                assert!(
                    frame.kind() == FrameKind::Private
                        && mem.written[page] & 1 << block != 0
                        && read.as_ref().is_some_and(|r| Arc::ptr_eq(r, write)),
                    "{at}: block {i} takes stores it may not"
                );
            }
        }
    }

    /// A one-word access of `n` bytes through the fast path, `n` = 1, 2, 4
    /// or 8; `None` if it is out of bounds.
    fn load_n(mem: &LinearMemory, n: usize, addr: usize) -> Option<Vec<u8>> {
        Some(match n {
            1 => mem.load::<1>(addr).ok()?.to_vec(),
            2 => mem.load::<2>(addr).ok()?.to_vec(),
            4 => mem.load::<4>(addr).ok()?.to_vec(),
            _ => mem.load::<8>(addr).ok()?.to_vec(),
        })
    }

    fn store_n(mem: &mut LinearMemory, addr: usize, data: &[u8]) -> Result<(), MemError> {
        match data.len() {
            1 => mem.store::<1>(addr, [data[0]]),
            2 => mem.store::<2>(addr, data.try_into().unwrap()),
            4 => mem.store::<4>(addr, data.try_into().unwrap()),
            _ => mem.store::<8>(addr, data.try_into().unwrap()),
        }
    }

    #[test]
    fn the_block_table_fast_path_matches_a_flat_model() {
        // The `mutate` mix (grow, map_shared/unmap, raw and bulk stores)
        // plus captures, restores, in-place resets and another memory's
        // stores into the mapped region, with every one-word load and store
        // going through the block table: an entry left stale by a grow, a
        // mapping, a copy-on-write fault, a capture or a reset reads or
        // writes the wrong block, and breaks the table's invariant at once.
        for seed in 1..=128u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let region = SharedRegion::new((1 + rng.below(2)) * PAGE_SIZE);
            let mut mem = LinearMemory::new(1 + rng.below(2), 8).unwrap();
            let mut model = Model {
                bytes: vec![0; mem.size_bytes()],
                mapped: vec![None; mem.size_pages()],
            };
            let mut snaps: Vec<(MemorySnapshot, Vec<u8>)> = Vec::new();
            for step in 0..60 {
                let size = mem.size_bytes();
                let pages = mem.size_pages();
                match rng.below(12) {
                    0 => {
                        if mem.grow(rng.below(3)).is_ok() {
                            model.resize(mem.size_pages());
                        }
                    }
                    1 => {
                        if let Ok(base) = mem.map_shared(&region) {
                            model.map(base / PAGE_SIZE, &region);
                        }
                    }
                    2 => {
                        let at = rng.below(pages + 2);
                        if mem.map_shared_at(at, &region).is_ok() {
                            model.map(at, &region);
                        }
                    }
                    3 => {
                        let (at, count) = (rng.below(pages + 1), 1 + rng.below(2));
                        if mem.unmap(at, count).is_ok() {
                            for p in at..at + count {
                                model.bytes[p * PAGE_SIZE..(p + 1) * PAGE_SIZE].fill(0);
                                model.mapped[p] = None;
                            }
                        }
                    }
                    4 => snaps.push((mem.snapshot(), model.bytes.clone())),
                    5 if !snaps.is_empty() => {
                        let (snap, bytes) = &snaps[rng.below(snaps.len())];
                        if rng.below(2) == 0 {
                            mem.reset_to(snap);
                        } else {
                            mem = LinearMemory::restore(snap);
                        }
                        model.bytes.clone_from(bytes);
                        model.mapped = vec![None; mem.size_pages()];
                    }
                    6 if size > 0 => {
                        let len = 1 + rng.below((2 * BLOCK_SIZE).min(size));
                        let addr = rng.addr(size, len);
                        let data = store_bytes(&mut rng, len);
                        mem.write(addr, &data).unwrap();
                        model.wrote(addr, &data);
                    }
                    7 => {
                        // Another memory's store into the region.
                        let len = 1 + rng.below(64);
                        let offset = rng.addr(region.page_count() * PAGE_SIZE, len);
                        let data = store_bytes(&mut rng, len);
                        region.write(offset, &data).unwrap();
                        model.region_wrote(offset, &data);
                    }
                    _ => {
                        // Raw stores, each loaded straight back, and now
                        // and then one past the end, which must fail and
                        // change nothing.
                        for _ in 0..1 + rng.below(8) {
                            let n = [1, 2, 4, 8][rng.below(4)];
                            let data = store_bytes(&mut rng, n);
                            if rng.below(16) == 0 {
                                let addr = size - n + 1 + rng.below(n + 64);
                                assert!(store_n(&mut mem, addr, &data).is_err(), "seed {seed}");
                                assert_eq!(load_n(&mem, n, addr), None, "seed {seed}");
                                continue;
                            }
                            let addr = rng.addr(size, n);
                            store_n(&mut mem, addr, &data).unwrap();
                            model.wrote(addr, &data);
                            let back = load_n(&mem, n, addr).unwrap();
                            assert_eq!(back, data, "seed {seed} step {step}: load after store");
                        }
                    }
                }
                assert_table_in_sync(&mem, &format!("seed {seed} step {step}"));
                // One word of every block, through the fast path.
                for block in 0..mem.size_bytes() / BLOCK_SIZE {
                    let n = [1, 2, 4, 8][rng.below(4)];
                    let addr = block * BLOCK_SIZE + rng.below(BLOCK_SIZE / n) * n;
                    assert_eq!(
                        load_n(&mem, n, addr).unwrap()[..],
                        model.bytes[addr..addr + n],
                        "seed {seed} step {step}: {n} B at {addr}"
                    );
                }
                assert!(
                    mem.to_vec() == model.bytes,
                    "seed {seed} step {step}: bytes"
                );
            }
            // No store reached a captured page.
            for (i, (snap, bytes)) in snaps.iter().enumerate() {
                let restored = LinearMemory::restore(snap);
                assert!(
                    &restored.to_vec() == bytes,
                    "seed {seed}: snapshot {i} changed"
                );
            }
        }
    }

    /// Bytes to store: all zero a third of the time, otherwise with a
    /// zero byte here and there.
    fn store_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        let zero = rng.below(3) == 0;
        (0..len)
            .map(|_| if zero { 0 } else { rng.next() as u8 & 0xf7 })
            .collect()
    }

    #[test]
    fn sparse_memory_matches_a_dense_model() {
        for seed in 1..=64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut mem = LinearMemory::new(1 + rng.below(2), 6).unwrap();
            let mut model = vec![0u8; mem.size_bytes()];
            // Every block (by address) that was ever stored a non-zero byte:
            // the most memory may hold, since each page in it was zero when
            // it entered at its address (a grow, a fresh region, a copy or
            // capture of a page at that same address).
            let mut touched = std::collections::BTreeSet::new();
            let mut snaps: Vec<(MemorySnapshot, Vec<u8>)> = Vec::new();
            for step in 0..40 {
                let size = mem.size_bytes();
                let rss = mem.stats().rss_bytes;
                // (address, bytes) of a store, if this step made one.
                let mut stored: Option<(usize, Vec<u8>)> = None;
                match rng.below(10) {
                    0 => {
                        if mem.grow(rng.below(3)).is_ok() {
                            model.resize(mem.size_bytes(), 0);
                        }
                    }
                    1 => {
                        let region = SharedRegion::new((1 + rng.below(2)) * PAGE_SIZE);
                        if mem.map_shared(&region).is_ok() {
                            model.resize(mem.size_bytes(), 0);
                        }
                    }
                    2 => {
                        if let Some((snap, bytes)) = snaps.get(rng.below(snaps.len() + 1)) {
                            mem.reset_to(snap);
                            model.clone_from(bytes);
                        } else {
                            snaps.push((mem.snapshot(), model.clone()));
                        }
                    }
                    3 => {
                        let len = 1 + rng.below((3 * BLOCK_SIZE).min(size));
                        let (addr, data) = (rng.addr(size, len), store_bytes(&mut rng, len));
                        mem.write(addr, &data).unwrap();
                        stored = Some((addr, data));
                    }
                    4..=6 => {
                        let n = [1, 4, 8][rng.below(3)];
                        let (addr, data) = (rng.addr(size, n), store_bytes(&mut rng, n));
                        match n {
                            1 => mem.store::<1>(addr, [data[0]]).unwrap(),
                            4 => mem.store::<4>(addr, data[..].try_into().unwrap()).unwrap(),
                            _ => mem.store::<8>(addr, data[..].try_into().unwrap()).unwrap(),
                        }
                        stored = Some((addr, data));
                    }
                    7 => {
                        let len = rng.below((2 * PAGE_SIZE).min(size) + 1);
                        let value = store_bytes(&mut rng, 1)[0];
                        let addr = rng.addr(size, len);
                        mem.fill(addr, len, value).unwrap();
                        stored = Some((addr, vec![value; len]));
                    }
                    8 => {
                        let len = rng.below(PAGE_SIZE.min(size) + 1);
                        let (src, dst) = (rng.addr(size, len), rng.addr(size, len));
                        mem.copy_within(src, dst, len).unwrap();
                        stored = Some((dst, model[src..src + len].to_vec()));
                    }
                    _ => {
                        // Loads: the raw word paths against the model.
                        let a = rng.addr(size, 1);
                        assert_eq!(mem.load::<1>(a).unwrap(), [model[a]], "seed {seed}");
                        let a = rng.addr(size, 4);
                        assert_eq!(
                            mem.load::<4>(a).unwrap()[..],
                            model[a..a + 4],
                            "seed {seed}"
                        );
                        let a = rng.addr(size, 8);
                        assert_eq!(
                            mem.load::<8>(a).unwrap()[..],
                            model[a..a + 8],
                            "seed {seed}"
                        );
                    }
                }
                if let Some((addr, data)) = stored {
                    model[addr..addr + data.len()].copy_from_slice(&data);
                    for (i, &b) in data.iter().enumerate() {
                        if b != 0 {
                            touched.insert((addr + i) / BLOCK_SIZE);
                        }
                    }
                    if data.iter().all(|&b| b == 0) {
                        let after = mem.stats().rss_bytes;
                        assert_eq!(after, rss, "seed {seed} step {step}: zeros backed a block");
                    }
                }
                assert!(mem.to_vec() == model, "seed {seed} step {step}: bytes");
                let rss = mem.stats().rss_bytes;
                assert!(
                    rss <= touched.len() * BLOCK_SIZE,
                    "seed {seed} step {step}: {rss} B resident, {} blocks stored to",
                    touched.len()
                );
            }
        }
    }
}
