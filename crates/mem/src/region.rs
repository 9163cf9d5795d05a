//! Shared memory regions (§3.3, Fig. 2).
//!
//! A [`SharedRegion`] is a run of pages allocated from "common process
//! memory". Several Faaslets map the same region into their private linear
//! address spaces; their guest code sees ordinary in-bounds offsets while the
//! underlying accesses land on the common pages — exactly the remapping trick
//! of Fig. 2. The local state tier (`faasm-state`) stores every state-value
//! replica in such a region, so co-located functions share data with zero
//! copies. A region's pages are backed per 4 KiB block on the first non-zero
//! store, so a 4 KiB value costs 4 KiB whatever its page-rounded capacity.

use std::sync::Arc;

use crate::error::MemError;
use crate::page::{Page, PAGE_SIZE};
use crate::pages_for_bytes;

/// A region of common process memory that can be mapped into many
/// [`crate::LinearMemory`] instances concurrently. A clone is another
/// handle on the same pages.
#[derive(Debug, Clone)]
pub struct SharedRegion {
    pages: Arc<Vec<Arc<Page>>>,
    len_bytes: usize,
}

impl SharedRegion {
    /// Allocate a zero shared region of at least `len_bytes` bytes (rounded
    /// up to whole pages). No block is backed until a non-zero store.
    pub fn new(len_bytes: usize) -> SharedRegion {
        let n = pages_for_bytes(len_bytes.max(1));
        let pages = (0..n).map(|_| Arc::new(Page::zeroed())).collect();
        SharedRegion {
            pages: Arc::new(pages),
            len_bytes,
        }
    }

    /// Allocate a shared region initialised from `data`.
    pub fn from_bytes(data: &[u8]) -> SharedRegion {
        let region = SharedRegion::new(data.len());
        region.write(0, data).expect("freshly sized region");
        region
    }

    /// Logical length in bytes (may be less than the page-rounded capacity).
    pub fn len(&self) -> usize {
        self.len_bytes
    }

    /// True if the region holds no logical bytes.
    pub fn is_empty(&self) -> bool {
        self.len_bytes == 0
    }

    /// Number of pages backing the region.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Capacity in bytes (whole pages): the bound accesses are checked
    /// against, not what the region costs (see
    /// [`SharedRegion::resident_bytes`]).
    pub fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Bytes of memory the region holds: the sum of its pages'
    /// [`Page::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.resident_bytes()).sum()
    }

    /// The backing pages, for mapping into a linear memory.
    pub(crate) fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Read bytes directly from the region (host-side access used by the
    /// state tier without going through a guest linear memory).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the region's
    /// page-rounded capacity.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len())?;
        let mut pos = 0;
        while pos < buf.len() {
            let addr = offset + pos;
            let page = addr / PAGE_SIZE;
            let in_page = addr % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
            self.pages[page].read(in_page, &mut buf[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Write bytes directly into the region.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the region's
    /// page-rounded capacity.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), MemError> {
        self.check(offset, data.len())?;
        let mut pos = 0;
        while pos < data.len() {
            let addr = offset + pos;
            let page = addr / PAGE_SIZE;
            let in_page = addr % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(data.len() - pos);
            self.pages[page].write(in_page, &data[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Copy the full logical contents out of the region.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len_bytes];
        self.read(0, &mut out).expect("in-bounds by construction");
        out
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), MemError> {
        let cap = self.capacity();
        if offset.checked_add(len).is_none_or(|end| end > cap) {
            return Err(MemError::OutOfBounds {
                addr: offset,
                len,
                size: cap,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_rounds_up_to_pages() {
        let r = SharedRegion::new(PAGE_SIZE + 1);
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.len(), PAGE_SIZE + 1);
        assert_eq!(r.capacity(), 2 * PAGE_SIZE);
    }

    #[test]
    fn zero_length_region_still_has_a_page() {
        let r = SharedRegion::new(0);
        assert_eq!(r.page_count(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn read_write_roundtrip_across_pages() {
        let r = SharedRegion::new(2 * PAGE_SIZE);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        r.write(PAGE_SIZE - 100, &data).unwrap();
        let mut buf = vec![0u8; 200];
        r.read(PAGE_SIZE - 100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let r = SharedRegion::new(10);
        let err = r.write(PAGE_SIZE - 2, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        let mut buf = [0u8; 4];
        assert!(r.read(PAGE_SIZE, &mut buf).is_err());
    }

    #[test]
    fn clones_share_pages() {
        let a = SharedRegion::from_bytes(b"shared data");
        let b = a.clone();
        b.write(0, b"SHARED").unwrap();
        let mut buf = vec![0u8; 6];
        a.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"SHARED");
    }
}
