//! The 64 KiB page: the unit of mapping, sharing and snapshotting, backed
//! by 4 KiB block ([`BLOCK_SIZE`]) — also the unit in which writes are
//! recorded, undone on reset, and shipped in a snapshot chunk
//! ([`Page::to_chunk`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Size of one memory page in bytes (the WebAssembly page size).
pub const PAGE_SIZE: usize = 64 * 1024;

/// Size of one block in bytes: the unit a page is backed in, and the unit a
/// linear memory records writes in and copies back on an in-place reset.
/// Sixteen blocks make a page, so a page's written blocks fit one `u16`
/// mask.
pub const BLOCK_SIZE: usize = 4 * 1024;

/// Number of blocks in a page.
pub(crate) const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_SIZE;

/// Number of 64-bit words in a block.
const WORDS_PER_BLOCK: usize = BLOCK_SIZE / 8;

/// The words of one backed block. A block is reference-counted so that a
/// linear memory's block table can reach it without going through its page.
pub(crate) type Block = [AtomicU64; WORDS_PER_BLOCK];

/// A block holding `word(i)` at word `i`.
fn new_block(word: impl Fn(usize) -> u64) -> Arc<Block> {
    Arc::new(std::array::from_fn(|i| AtomicU64::new(word(i))))
}

/// The `N` bytes at `offset` of `block`, inside one aligned word: one
/// relaxed load.
#[inline]
pub(crate) fn load_in_block<const N: usize>(block: &Block, offset: usize) -> [u8; N] {
    debug_assert!(offset % 8 + N <= 8, "the bytes lie inside one word");
    let word = block[offset % BLOCK_SIZE / 8].load(Ordering::Relaxed);
    let bytes = (word >> (offset % 8 * 8)).to_le_bytes();
    std::array::from_fn(|i| bytes[i])
}

/// Store `data` at `offset` of `block`, inside one aligned word: one relaxed
/// store for a whole word. A partial word is a load and a store when
/// `exclusive` — no other thread can reach the block — and a
/// compare-and-swap loop otherwise.
#[inline]
pub(crate) fn store_in_block<const N: usize>(
    block: &Block,
    offset: usize,
    data: [u8; N],
    exclusive: bool,
) {
    debug_assert!(offset % 8 + N <= 8, "the bytes lie inside one word");
    let word = &block[offset % BLOCK_SIZE / 8];
    let value = word_of(offset, data);
    if N == 8 {
        word.store(value, Ordering::Relaxed);
        return;
    }
    let mask = (u64::MAX >> (64 - 8 * N)) << (offset % 8 * 8);
    if exclusive {
        word.store(
            word.load(Ordering::Relaxed) & !mask | value,
            Ordering::Relaxed,
        );
    } else {
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur & !mask | value)
        });
    }
}

/// `data` placed at its byte position within the word holding `offset`.
#[inline]
fn word_of<const N: usize>(offset: usize, data: [u8; N]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..N].copy_from_slice(&data);
    u64::from_le_bytes(bytes) << (offset % 8 * 8)
}

/// A single 64 KiB page of memory: an address range backed per 4 KiB
/// block.
///
/// A block no store has backed reads as zero and costs nothing; the first
/// store of a non-zero byte backs it (a store of zeros backs nothing), and
/// a backed block stays backed. [`Page::resident_bytes`] — backed blocks ×
/// [`BLOCK_SIZE`] — is what the page costs, and every footprint number in
/// the workspace is a sum of it.
///
/// Backed blocks are arrays of [`AtomicU64`] words so that a page placed in
/// a shared region can be read and written concurrently from several
/// Faaslet threads without undefined behaviour, and backing a block is a
/// [`OnceLock`] initialisation, so racing first stores meet on one block.
/// Whole-word accesses are single relaxed atomic operations; sub-word
/// writes use a compare-and-swap loop so racing writers never lose each
/// other's neighbouring bytes.
///
/// Relaxed ordering is sufficient for the data itself: callers that need
/// cross-thread ordering (the state API's local read/write locks, §4.2)
/// acquire locks whose release/acquire edges order these relaxed accesses.
/// Lock-free concurrent writers (the HOGWILD! pattern of Listing 1) tolerate
/// word-granularity tearing by design.
pub struct Page {
    blocks: [OnceLock<Arc<Block>>; BLOCKS_PER_PAGE],
}

impl Page {
    /// Create a zero page: no block is backed.
    pub fn zeroed() -> Page {
        Page {
            blocks: [const { OnceLock::new() }; BLOCKS_PER_PAGE],
        }
    }

    /// Create a page initialised from `data`; only the blocks holding a
    /// non-zero byte are backed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`PAGE_SIZE`]; shorter input is
    /// zero-padded.
    pub fn from_bytes(data: &[u8]) -> Page {
        assert!(data.len() <= PAGE_SIZE, "page initialiser too long");
        let page = Page::zeroed();
        page.write(0, data);
        page
    }

    /// The block holding byte `offset`, if a store has backed it.
    #[inline]
    fn block(&self, offset: usize) -> Option<&Block> {
        self.blocks[offset / BLOCK_SIZE].get().map(|b| &**b)
    }

    /// Block `idx` (bytes `idx * BLOCK_SIZE..`), if a store has backed it.
    #[inline]
    pub(crate) fn backed(&self, idx: usize) -> Option<&Arc<Block>> {
        self.blocks[idx].get()
    }

    /// The block a store at `offset` lands in, backing it if needed — or
    /// `None` if it is unbacked and `zero()` says the store writes only
    /// zeros, which it already reads as.
    #[inline]
    fn block_for_store(&self, offset: usize, zero: impl FnOnce() -> bool) -> Option<&Block> {
        match self.block(offset) {
            None if zero() => None,
            None => Some(self.back(offset / BLOCK_SIZE)),
            backed => backed,
        }
    }

    /// Block `idx`, backed (zero-filled) if no store has backed it yet.
    fn back(&self, idx: usize) -> &Block {
        self.blocks[idx].get_or_init(|| new_block(|_| 0))
    }

    /// Read the `N` bytes at `offset`, which lie inside one aligned word:
    /// one block lookup and one relaxed load.
    #[inline]
    pub(crate) fn load_in_word<const N: usize>(&self, offset: usize) -> [u8; N] {
        self.block(offset)
            .map_or([0; N], |b| load_in_block(b, offset))
    }

    /// Store `data` at `offset`, inside one aligned word: one block lookup
    /// and one relaxed store for a whole word. A partial word is a load and
    /// a store when `exclusive` — no other thread can reach the page — and
    /// a compare-and-swap loop otherwise.
    #[inline]
    pub(crate) fn store_in_word<const N: usize>(
        &self,
        offset: usize,
        data: [u8; N],
        exclusive: bool,
    ) {
        if let Some(block) = self.block_for_store(offset, || word_of(offset, data) == 0) {
            store_in_block(block, offset, data, exclusive);
        }
    }

    /// Read `buf.len()` bytes starting at byte `offset` within the page.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page; bounds are the caller's
    /// responsibility ([`crate::LinearMemory`] checks them and returns
    /// [`crate::MemError::OutOfBounds`] instead).
    #[inline]
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "page read out of range");
        if buf.len() == 8 && offset.is_multiple_of(8) {
            buf.copy_from_slice(&self.load_in_word::<8>(offset));
        } else {
            self.read_blocks(offset, buf);
        }
    }

    /// [`Page::read`] off the word fast path: block by block.
    fn read_blocks(&self, offset: usize, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let at = offset + pos;
            let n = (BLOCK_SIZE - at % BLOCK_SIZE).min(buf.len() - pos);
            let out = &mut buf[pos..pos + n];
            match self.block(at) {
                Some(block) => read_words(block, at % BLOCK_SIZE, out),
                None => out.fill(0),
            }
            pos += n;
        }
    }

    /// Write `data` starting at byte `offset` within the page, backing the
    /// blocks it stores a non-zero byte in.
    ///
    /// Whole aligned words are stored with single atomic stores; partial words
    /// use a CAS loop so that concurrent writers to *other* bytes of the same
    /// word are never clobbered.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page (see [`Page::read`]).
    #[inline]
    pub fn write(&self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= PAGE_SIZE, "page write out of range");
        if let (0, Ok(word)) = (offset % 8, <[u8; 8]>::try_from(data)) {
            self.store_in_word(offset, word, false);
        } else {
            self.write_blocks(offset, data);
        }
    }

    /// [`Page::write`] off the word fast path: block by block, backing
    /// only blocks that get a non-zero byte.
    fn write_blocks(&self, offset: usize, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let at = offset + pos;
            let n = (BLOCK_SIZE - at % BLOCK_SIZE).min(data.len() - pos);
            let src = &data[pos..pos + n];
            if let Some(block) = self.block_for_store(at, || src.iter().all(|&b| b == 0)) {
                write_words(block, at % BLOCK_SIZE, src);
            }
            pos += n;
        }
    }

    /// Fill `len` bytes starting at `offset` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn fill(&self, offset: usize, len: usize, value: u8) {
        assert!(offset + len <= PAGE_SIZE, "page fill out of range");
        // Reuse the write path in chunks to keep partial-word CAS handling.
        let chunk = [value; 64];
        let mut pos = 0;
        while pos < len {
            let n = (len - pos).min(chunk.len());
            self.write(offset + pos, &chunk[..n]);
            pos += n;
        }
    }

    /// Encode the page as a snapshot chunk: a little-endian `u16` mask of
    /// the blocks that hold a non-zero byte, then those blocks in address
    /// order. A zero page is 2 bytes. Backed blocks are read in place, and
    /// a backed block of zeros is left out, so the encoding depends only on
    /// the contents: one page has one chunk, and one digest.
    pub fn to_chunk(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.resident_bytes());
        out.extend_from_slice(&[0, 0]);
        let mut mask = 0u16;
        for (idx, block) in self.blocks.iter().enumerate() {
            let Some(block) = block.get() else {
                continue;
            };
            let start = out.len();
            let mut any = 0;
            for word in block.iter() {
                let word = word.load(Ordering::Relaxed);
                any |= word;
                out.extend_from_slice(&word.to_le_bytes());
            }
            if any == 0 {
                out.truncate(start);
            } else {
                mask |= 1 << idx;
            }
        }
        out[..2].copy_from_slice(&mask.to_le_bytes());
        out
    }

    /// Decode a chunk written by [`Page::to_chunk`], backing exactly the
    /// blocks it carries. `None` unless the chunk is its mask and the
    /// mask's blocks, each holding a non-zero byte, and nothing after them.
    /// The length is checked against the mask before anything is
    /// allocated, and no input panics.
    pub fn from_chunk(chunk: &[u8]) -> Option<Page> {
        let (mask, body) = chunk.split_first_chunk::<2>()?;
        let mask = u16::from_le_bytes(*mask);
        if body.len() != mask.count_ones() as usize * BLOCK_SIZE {
            return None;
        }
        let mut body = body.chunks_exact(BLOCK_SIZE);
        let mut blocks = [const { OnceLock::new() }; BLOCKS_PER_PAGE];
        for (idx, slot) in blocks.iter_mut().enumerate() {
            if mask & 1 << idx == 0 {
                continue;
            }
            let (words, _) = body.next()?.as_chunks::<8>();
            if words.iter().all(|w| u64::from_ne_bytes(*w) == 0) {
                return None;
            }
            *slot = OnceLock::from(new_block(|w| u64::from_le_bytes(words[w])));
        }
        Some(Page { blocks })
    }

    /// Create a new page whose contents equal this page at the time of the
    /// call (the materialisation step of a copy-on-write fault). Only the
    /// backed blocks are copied; the rest stay unbacked.
    pub fn clone_data(&self) -> Arc<Page> {
        Arc::new(Page {
            blocks: std::array::from_fn(|i| match self.blocks[i].get() {
                Some(from) => OnceLock::from(new_block(|w| from[w].load(Ordering::Relaxed))),
                None => OnceLock::new(),
            }),
        })
    }

    /// Overwrite the blocks named by `blocks` (bit `i` = bytes
    /// `i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE`) with `src`'s — the copy-back
    /// step of an in-place reset. A block `src` never backed reads as zero,
    /// so it is zero-filled here (or left unbacked). Returns the number of
    /// bytes the named blocks hold.
    pub fn copy_blocks_from(&self, src: &Page, blocks: u16) -> usize {
        let mut rest = blocks;
        while rest != 0 {
            let idx = rest.trailing_zeros() as usize;
            match (src.blocks[idx].get(), self.blocks[idx].get()) {
                (Some(from), _) => {
                    for (to, from) in self.back(idx).iter().zip(from.iter()) {
                        to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                }
                (None, Some(to)) => to.iter().for_each(|w| w.store(0, Ordering::Relaxed)),
                (None, None) => {}
            }
            rest &= rest - 1;
        }
        blocks.count_ones() as usize * BLOCK_SIZE
    }

    /// True if every byte of the page is zero.
    pub fn is_zero(&self) -> bool {
        self.blocks.iter().all(|b| {
            b.get()
                .is_none_or(|b| b.iter().all(|w| w.load(Ordering::Relaxed) == 0))
        })
    }

    /// Bytes of memory the page holds: its backed blocks × [`BLOCK_SIZE`].
    pub fn resident_bytes(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count() * BLOCK_SIZE
    }
}

/// Read `out.len()` bytes at byte `in_block` of `block`.
fn read_words(block: &Block, in_block: usize, out: &mut [u8]) {
    let mut pos = 0;
    while pos < out.len() {
        let byte_addr = in_block + pos;
        let in_word = byte_addr % 8;
        let avail = (8 - in_word).min(out.len() - pos);
        let word = block[byte_addr / 8].load(Ordering::Relaxed);
        if in_word == 0 && avail == 8 {
            // Aligned whole-word fast path, mirroring `write_words`: the
            // fixed-length copy lets bulk reads (state pushes read whole
            // replicas) compile to straight-line code.
            out[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
        } else {
            let bytes = word.to_le_bytes();
            out[pos..pos + avail].copy_from_slice(&bytes[in_word..in_word + avail]);
        }
        pos += avail;
    }
}

/// Write `data` at byte `in_block` of `block`: whole aligned words with one
/// store, partial words with a CAS loop.
fn write_words(block: &Block, in_block: usize, data: &[u8]) {
    let mut pos = 0;
    while pos < data.len() {
        let byte_addr = in_block + pos;
        let in_word = byte_addr % 8;
        let avail = (8 - in_word).min(data.len() - pos);
        let slot = &block[byte_addr / 8];
        if in_word == 0 && avail == 8 {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&data[pos..pos + 8]);
            slot.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        } else {
            let _ = slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                let mut bytes = cur.to_le_bytes();
                bytes[in_word..in_word + avail].copy_from_slice(&data[pos..pos + avail]);
                Some(u64::from_le_bytes(bytes))
            });
        }
        pos += avail;
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::tests::Rng;
    use std::sync::Arc;

    /// The page's 64 KiB of contents.
    fn contents(p: &Page) -> Vec<u8> {
        let mut out = vec![0u8; PAGE_SIZE];
        p.read(0, &mut out);
        out
    }

    #[test]
    fn zeroed_page_reads_zero() {
        let p = Page::zeroed();
        let mut buf = [0xffu8; 16];
        p.read(100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert!(p.is_zero());
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let p = Page::zeroed();
        let data: Vec<u8> = (0..64).collect();
        p.write(0, &data);
        let mut buf = vec![0u8; 64];
        p.read(0, &mut buf);
        assert_eq!(buf, data);
        assert!(!p.is_zero());
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let p = Page::zeroed();
        let data: Vec<u8> = (0..23).map(|i| i as u8 + 1).collect();
        p.write(5, &data);
        let mut buf = vec![0u8; 23];
        p.read(5, &mut buf);
        assert_eq!(buf, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        p.read(4, &mut edge);
        assert_eq!(edge[0], 0);
        p.read(28, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn write_at_page_end() {
        let p = Page::zeroed();
        p.write(PAGE_SIZE - 4, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        p.read(PAGE_SIZE - 4, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_past_end_panics() {
        let p = Page::zeroed();
        p.write(PAGE_SIZE - 3, &[1, 2, 3, 4]);
    }

    #[test]
    fn fill_sets_range() {
        let p = Page::zeroed();
        p.fill(10, 200, 0xab);
        let mut buf = vec![0u8; 202];
        p.read(9, &mut buf);
        assert_eq!(buf[0], 0);
        assert!(buf[1..201].iter().all(|&b| b == 0xab));
        assert_eq!(buf[201], 0);
    }

    #[test]
    fn clone_data_is_independent() {
        let p = Page::zeroed();
        p.write(0, b"hello");
        let c = p.clone_data();
        p.write(0, b"world");
        let mut buf = [0u8; 5];
        c.read(0, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn copy_blocks_from_copies_exactly_the_named_blocks() {
        let src = Page::zeroed();
        src.fill(0, PAGE_SIZE, 0x5a);
        let dst = Page::zeroed();
        let copied = dst.copy_blocks_from(&src, 1 << 0 | 1 << 7 | 1 << 15);
        assert_eq!(copied, 3 * BLOCK_SIZE);
        let bytes = contents(&dst);
        for (block, chunk) in bytes.chunks(BLOCK_SIZE).enumerate() {
            let want = if [0, 7, 15].contains(&block) { 0x5a } else { 0 };
            assert!(chunk.iter().all(|&b| b == want), "block {block}");
        }
        assert_eq!(dst.copy_blocks_from(&src, 0), 0);
    }

    #[test]
    fn blocks_are_backed_by_the_first_non_zero_store() {
        let p = Page::zeroed();
        assert_eq!(p.resident_bytes(), 0);
        // Zeros back nothing, however they are stored.
        p.write(0, &[0; 100]);
        p.fill(BLOCK_SIZE, 3 * BLOCK_SIZE, 0);
        p.store_in_word(8, [0u8; 4], true);
        p.store_in_word(16, [0u8; 8], false);
        assert_eq!(p.resident_bytes(), 0);
        // One non-zero byte backs its block and no other.
        p.write(2 * BLOCK_SIZE - 1, &[0, 7, 0]);
        assert_eq!(p.resident_bytes(), BLOCK_SIZE);
        p.store_in_word(5 * BLOCK_SIZE + 3, [1u8], true);
        p.store_in_word(9 * BLOCK_SIZE + 8, [0, 0, 0, 0, 0, 0, 0, 2], false);
        assert_eq!(p.resident_bytes(), 3 * BLOCK_SIZE);
        // A backed block stays backed, and zeros stored into it land.
        p.write(2 * BLOCK_SIZE, &[0]);
        assert_eq!(p.resident_bytes(), 3 * BLOCK_SIZE);
        assert!(!p.is_zero());
        assert_eq!(p.load_in_word::<1>(2 * BLOCK_SIZE), [0]);
        assert_eq!(p.load_in_word::<2>(5 * BLOCK_SIZE + 2), [0, 1]);
        assert_eq!(p.load_in_word::<8>(9 * BLOCK_SIZE + 8)[7], 2);
        // A copy-on-write copy backs what its source backs; a copy-back
        // from an unbacked source block zero-fills.
        let copy = p.clone_data();
        assert_eq!(copy.resident_bytes(), 3 * BLOCK_SIZE);
        assert_eq!(contents(&copy), contents(&p));
        copy.copy_blocks_from(&Page::zeroed(), 1 << 5 | 1 << 6);
        assert_eq!(copy.resident_bytes(), 3 * BLOCK_SIZE);
        assert_eq!(copy.load_in_word::<2>(5 * BLOCK_SIZE + 2), [0, 0]);
    }

    #[test]
    fn concurrent_disjoint_writes_do_not_clobber() {
        // Two threads write adjacent bytes within the same words; CAS loops
        // must preserve both.
        let p = Arc::new(Page::zeroed());
        let a = p.clone();
        let b = p.clone();
        let ta = std::thread::spawn(move || {
            for i in 0..1024 {
                a.write(i * 2, &[0xaa]);
            }
        });
        let tb = std::thread::spawn(move || {
            for i in 0..1024 {
                b.write(i * 2 + 1, &[0xbb]);
            }
        });
        ta.join().unwrap();
        tb.join().unwrap();
        let mut buf = vec![0u8; 2048];
        p.read(0, &mut buf);
        for i in 0..1024 {
            assert_eq!(buf[i * 2], 0xaa, "byte {}", i * 2);
            assert_eq!(buf[i * 2 + 1], 0xbb, "byte {}", i * 2 + 1);
        }
    }

    #[test]
    fn chunks_of_seeded_sparse_pages_roundtrip() {
        for seed in 1..=32u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for blocks in [0, 1, BLOCKS_PER_PAGE] {
                let mut chosen = 0u16;
                while (chosen.count_ones() as usize) < blocks {
                    chosen |= 1 << rng.below(BLOCKS_PER_PAGE);
                }
                let page = Page::zeroed();
                for idx in (0..BLOCKS_PER_PAGE).filter(|i| chosen & 1 << i != 0) {
                    for _ in 0..1 + rng.below(8) {
                        let at = idx * BLOCK_SIZE + rng.below(BLOCK_SIZE);
                        page.write(at, &[1 + rng.below(255) as u8]);
                    }
                }
                let chunk = page.to_chunk();
                assert_eq!(chunk.len(), 2 + blocks * BLOCK_SIZE, "seed {seed}");
                assert_eq!(chunk[..2], chosen.to_le_bytes(), "seed {seed}");
                let back = Page::from_chunk(&chunk).expect("a chunk decodes");
                assert!(contents(&back) == contents(&page), "seed {seed}");
                assert_eq!(back.resident_bytes(), blocks * BLOCK_SIZE, "seed {seed}");
                assert_eq!(back.to_chunk(), chunk, "seed {seed}");
            }
        }
    }

    #[test]
    fn a_block_written_and_zeroed_again_is_left_out_of_the_chunk() {
        let p = Page::zeroed();
        p.write(3 * BLOCK_SIZE + 5, &[7]);
        p.write(9 * BLOCK_SIZE, &[1, 2]);
        p.write(3 * BLOCK_SIZE + 5, &[0]);
        assert_eq!(p.resident_bytes(), 2 * BLOCK_SIZE);
        let chunk = p.to_chunk();
        assert_eq!(chunk.len(), 2 + BLOCK_SIZE);
        assert_eq!(chunk[..2], (1u16 << 9).to_le_bytes());
        // One content, one chunk, however the page came to hold it.
        let fresh = Page::zeroed();
        fresh.write(9 * BLOCK_SIZE, &[1, 2]);
        assert_eq!(fresh.to_chunk(), chunk);
        assert_eq!(
            Page::from_chunk(&chunk).unwrap().resident_bytes(),
            BLOCK_SIZE
        );
        assert_eq!(Page::zeroed().to_chunk(), [0, 0]);
    }

    #[test]
    fn malformed_chunks_are_rejected() {
        let p = Page::zeroed();
        p.write(0, &[1]);
        p.write(5 * BLOCK_SIZE + 100, &[2]);
        let chunk = p.to_chunk();
        assert_eq!(chunk.len(), 2 + 2 * BLOCK_SIZE);
        assert!(Page::from_chunk(&chunk).is_some());
        // No mask, or fewer blocks than the mask names.
        assert!(Page::from_chunk(&[]).is_none());
        assert!(Page::from_chunk(&[0]).is_none());
        assert!(Page::from_chunk(&chunk[..chunk.len() - 1]).is_none());
        assert!(Page::from_chunk(&chunk[..2 + BLOCK_SIZE]).is_none());
        // A mask naming one block more or one fewer than the chunk carries.
        let mut more = chunk.clone();
        more[1] |= 0x80;
        assert!(Page::from_chunk(&more).is_none());
        let mut fewer = chunk.clone();
        fewer[0] &= !1;
        assert!(Page::from_chunk(&fewer).is_none());
        // Trailing bytes, even a whole zero block.
        for extra in [1, BLOCK_SIZE] {
            let mut trailing = chunk.clone();
            trailing.resize(chunk.len() + extra, 0);
            assert!(Page::from_chunk(&trailing).is_none(), "{extra}");
        }
        // An included block that is all zeros.
        let mut zero_block = chunk.clone();
        zero_block[2] = 0;
        assert!(Page::from_chunk(&zero_block).is_none());
        assert!(Page::from_chunk(&[0, 0]).is_some_and(|p| p.resident_bytes() == 0));
    }
}
