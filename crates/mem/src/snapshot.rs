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
//! they can be serialised with [`MemorySnapshot::to_bytes`] and shipped to
//! other hosts, giving the paper's cross-host, OS-independent restores.

use std::sync::Arc;

use crate::page::{Page, PAGE_SIZE};

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

    /// Size of the captured memory in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_pages * PAGE_SIZE
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

    /// Serialise the snapshot to a flat byte buffer (for cross-host
    /// distribution via the global tier).
    ///
    /// Layout: `size_pages:u32 | max_pages:u32 | page bytes...`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.pages.len() * PAGE_SIZE);
        out.extend_from_slice(&(self.size_pages as u32).to_le_bytes());
        out.extend_from_slice(&(self.max_pages as u32).to_le_bytes());
        for p in &self.pages {
            out.extend_from_slice(&p.to_bytes());
        }
        out
    }

    /// Deserialise a snapshot previously produced by
    /// [`MemorySnapshot::to_bytes`].
    ///
    /// Returns `None` if the buffer is malformed.
    pub fn from_bytes(data: &[u8]) -> Option<MemorySnapshot> {
        if data.len() < 8 {
            return None;
        }
        let size_pages = u32::from_le_bytes(data[0..4].try_into().ok()?) as usize;
        let max_pages = u32::from_le_bytes(data[4..8].try_into().ok()?) as usize;
        let body = &data[8..];
        if body.len() != size_pages * PAGE_SIZE || max_pages < size_pages {
            return None;
        }
        let pages = (0..size_pages)
            .map(|i| Arc::new(Page::from_bytes(&body[i * PAGE_SIZE..(i + 1) * PAGE_SIZE])))
            .collect();
        Some(MemorySnapshot {
            pages,
            size_pages,
            max_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearMemory;

    #[test]
    fn roundtrip_serialisation() {
        let mut mem = LinearMemory::new(2, 4).unwrap();
        mem.write(100, b"snapshot me").unwrap();
        let snap = mem.snapshot();
        let bytes = snap.to_bytes();
        let back = MemorySnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.size_pages(), 2);
        assert_eq!(back.max_pages(), 4);
        let restored = LinearMemory::restore(&back);
        let mut buf = vec![0u8; 11];
        restored.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"snapshot me");
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        assert!(MemorySnapshot::from_bytes(&[]).is_none());
        assert!(MemorySnapshot::from_bytes(&[0u8; 7]).is_none());
        // Header claims 1 page but no body.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert!(MemorySnapshot::from_bytes(&bad).is_none());
        // max_pages < size_pages.
        let mut bad2 = Vec::new();
        bad2.extend_from_slice(&1u32.to_le_bytes());
        bad2.extend_from_slice(&0u32.to_le_bytes());
        bad2.extend_from_slice(&vec![0u8; PAGE_SIZE]);
        assert!(MemorySnapshot::from_bytes(&bad2).is_none());
    }
}
