//! The 64 KiB page: the unit of mapping, sharing and snapshotting. (Writes
//! are recorded, and undone on reset, by 4 KiB block: [`BLOCK_SIZE`].)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size of one memory page in bytes (the WebAssembly page size).
pub const PAGE_SIZE: usize = 64 * 1024;

/// Size of one block in bytes: the unit a linear memory records writes in
/// and copies back on an in-place reset. Sixteen blocks make a page, so a
/// page's written blocks fit one `u16` mask.
pub const BLOCK_SIZE: usize = 4 * 1024;

/// Number of 64-bit words in a page.
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

/// Number of 64-bit words in a block.
const WORDS_PER_BLOCK: usize = BLOCK_SIZE / 8;

/// A single 64 KiB page of memory.
///
/// Pages are stored as arrays of [`AtomicU64`] words so that a page placed in
/// a shared region can be read and written concurrently from several Faaslet
/// threads without undefined behaviour. Whole-word accesses are single relaxed
/// atomic operations; sub-word writes use a compare-and-swap loop so racing
/// writers never lose each other's neighbouring bytes.
///
/// Relaxed ordering is sufficient for the data itself: callers that need
/// cross-thread ordering (the state API's local read/write locks, §4.2)
/// acquire locks whose release/acquire edges order these relaxed accesses.
/// Lock-free concurrent writers (the HOGWILD! pattern of Listing 1) tolerate
/// word-granularity tearing by design.
pub struct Page {
    words: Box<[AtomicU64]>,
}

impl Page {
    /// Create a zero-filled page.
    pub fn zeroed() -> Page {
        let words: Vec<AtomicU64> = (0..WORDS_PER_PAGE).map(|_| AtomicU64::new(0)).collect();
        Page {
            words: words.into_boxed_slice(),
        }
    }

    /// Create a page initialised from `data`.
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

    /// Read `buf.len()` bytes starting at byte `offset` within the page.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page; bounds are the caller's
    /// responsibility ([`crate::LinearMemory`] checks them and returns
    /// [`crate::MemError::OutOfBounds`] instead).
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "page read out of range");
        let mut pos = 0;
        while pos < buf.len() {
            let byte_addr = offset + pos;
            let word_idx = byte_addr / 8;
            let in_word = byte_addr % 8;
            let avail = (8 - in_word).min(buf.len() - pos);
            let word = self.words[word_idx].load(Ordering::Relaxed);
            if in_word == 0 && avail == 8 {
                // Aligned whole-word fast path, mirroring [`Page::write`]:
                // the fixed-length copy lets bulk reads (state pushes read
                // whole replicas) compile to straight-line code.
                buf[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
            } else {
                let bytes = word.to_le_bytes();
                buf[pos..pos + avail].copy_from_slice(&bytes[in_word..in_word + avail]);
            }
            pos += avail;
        }
    }

    /// Write `data` starting at byte `offset` within the page.
    ///
    /// Whole aligned words are stored with single atomic stores; partial words
    /// use a CAS loop so that concurrent writers to *other* bytes of the same
    /// word are never clobbered.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page (see [`Page::read`]).
    pub fn write(&self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= PAGE_SIZE, "page write out of range");
        let mut pos = 0;
        while pos < data.len() {
            let byte_addr = offset + pos;
            let word_idx = byte_addr / 8;
            let in_word = byte_addr % 8;
            let avail = (8 - in_word).min(data.len() - pos);
            if in_word == 0 && avail == 8 {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&data[pos..pos + 8]);
                self.words[word_idx].store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            } else {
                let slot = &self.words[word_idx];
                let mut cur = slot.load(Ordering::Relaxed);
                loop {
                    let mut bytes = cur.to_le_bytes();
                    bytes[in_word..in_word + avail].copy_from_slice(&data[pos..pos + avail]);
                    match slot.compare_exchange_weak(
                        cur,
                        u64::from_le_bytes(bytes),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
            pos += avail;
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

    /// Return an owned copy of the page contents.
    pub fn to_bytes(&self) -> Box<[u8]> {
        let mut out = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.read(0, &mut out);
        out
    }

    /// Create a new page whose contents equal this page at the time of the
    /// call (the materialisation step of a copy-on-write fault).
    pub fn clone_data(&self) -> Arc<Page> {
        let copy = Page::zeroed();
        for i in 0..WORDS_PER_PAGE {
            copy.words[i].store(self.words[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Arc::new(copy)
    }

    /// Overwrite the blocks named by `blocks` (bit `i` = bytes
    /// `i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE`) with `src`'s — the copy-back
    /// step of an in-place reset. Returns the number of bytes copied.
    pub fn copy_blocks_from(&self, src: &Page, blocks: u16) -> usize {
        let mut rest = blocks;
        while rest != 0 {
            let first = rest.trailing_zeros() as usize * WORDS_PER_BLOCK;
            let words = first..first + WORDS_PER_BLOCK;
            for (to, from) in self.words[words.clone()].iter().zip(&src.words[words]) {
                to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            rest &= rest - 1;
        }
        blocks.count_ones() as usize * BLOCK_SIZE
    }

    /// True if every byte of the page is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
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
    use std::sync::Arc;

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
        let bytes = dst.to_bytes();
        for (block, chunk) in bytes.chunks(BLOCK_SIZE).enumerate() {
            let want = if [0, 7, 15].contains(&block) { 0x5a } else { 0 };
            assert!(chunk.iter().all(|&b| b == want), "block {block}");
        }
        assert_eq!(dst.copy_blocks_from(&src, 0), 0);
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
    fn to_bytes_copies_contents() {
        let p = Page::zeroed();
        p.write(1000, &[9, 8, 7]);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), PAGE_SIZE);
        assert_eq!(&bytes[1000..1003], &[9, 8, 7]);
    }
}
