//! Memory snapshots: the substrate of Proto-Faaslets (§5.2).
//!
//! A snapshot captures a linear memory's private contents in O(pages) pointer
//! copies: each private frame is demoted to copy-on-write and its page `Arc`
//! is cloned into the snapshot. Restoring builds a fresh memory whose frames
//! all reference the snapshot pages copy-on-write, so restore cost is
//! independent of how much data the snapshot holds — pages are physically
//! copied only when the restored Faaslet first writes them. A memory that
//! keeps running calls against one snapshot pays that copy once per page:
//! [`crate::LinearMemory::reset_to`] undoes a call's writes in the private
//! copy, by 4 KiB block, and never writes a snapshot page.
//!
//! Snapshots are plain data (`Arc`s over immutable-by-convention pages), so
//! they can be shipped to other hosts, giving the paper's cross-host,
//! OS-independent restores: each page travels as its own chunk, the 4 KiB
//! blocks that hold data ([`Page::to_chunk`]), and the receiver rebuilds the
//! snapshot from the decoded pages with [`MemorySnapshot::from_pages`]. The
//! snapshot plane in `faasm-core` is the one place that does this.

use std::sync::Arc;

use crate::page::Page;

/// An immutable capture of a linear memory's private pages.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    pub(crate) pages: Vec<Arc<Page>>,
    pub(crate) size_pages: usize,
    pub(crate) max_pages: usize,
}

impl MemorySnapshot {
    /// Number of pages captured.
    pub fn size_pages(&self) -> usize {
        self.size_pages
    }

    /// The page limit of the memory the snapshot was taken from.
    pub fn max_pages(&self) -> usize {
        self.max_pages
    }

    /// The snapshot's pages in address order — the chunking unit of the
    /// snapshot distribution plane (one content-addressed chunk per page).
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Build a snapshot directly from pages (the chunk-assembly path of a
    /// fetched proto: pages arrive individually, already verified, and the
    /// restored memory maps them copy-on-write like any other snapshot).
    ///
    /// Returns `None` if `max_pages` cannot hold the pages.
    pub fn from_pages(pages: Vec<Arc<Page>>, max_pages: usize) -> Option<MemorySnapshot> {
        if max_pages < pages.len() {
            return None;
        }
        Some(MemorySnapshot {
            size_pages: pages.len(),
            pages,
            max_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearMemory;

    #[test]
    fn pages_reassemble_into_a_restorable_snapshot_within_the_limit() {
        let mut mem = LinearMemory::new(2, 4).unwrap();
        mem.write(100, b"snapshot me").unwrap();
        let snap = mem.snapshot();
        let back = MemorySnapshot::from_pages(snap.pages().to_vec(), 4).unwrap();
        assert_eq!(back.size_pages(), 2);
        assert_eq!(back.max_pages(), 4);
        let restored = LinearMemory::restore(&back);
        let mut buf = vec![0u8; 11];
        restored.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"snapshot me");
        assert!(MemorySnapshot::from_pages(snap.pages().to_vec(), 1).is_none());
    }
}
