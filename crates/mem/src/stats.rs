//! Memory accounting in the style of `/proc/<pid>/smaps` (§6.5, Tab. 3).

/// A point-in-time accounting of a linear memory's footprint.
///
/// A page costs its backed 4 KiB blocks ([`crate::Page::resident_bytes`]):
/// a page never stored a non-zero byte to holds no memory, however it is
/// mapped. On that one definition of resident bytes:
///
/// * **RSS** (resident set size) counts every mapped page's resident bytes
///   in full, the way a container's private copy of shared libraries is
///   charged to it.
/// * **PSS** (proportional set size) divides each page's resident bytes by
///   the number of memories/snapshots referencing it, so copy-on-write
///   pages restored from a common Proto-Faaslet and shared-region pages are
///   charged proportionally — this is the measurement that gives Faaslets
///   their order-of-magnitude footprint advantage in Tab. 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemStats {
    /// Pages exclusively owned by this memory.
    pub private_pages: usize,
    /// Copy-on-write pages still backed by a snapshot.
    pub cow_pages: usize,
    /// Pages belonging to mapped shared regions.
    pub shared_pages: usize,
    /// Resident set size in bytes (every mapped page's backed blocks,
    /// counted in full).
    pub rss_bytes: usize,
    /// Proportional set size in bytes (the backed blocks of shared/CoW
    /// pages divided by the pages' reference counts).
    pub pss_bytes: f64,
}

impl MemStats {
    /// Total number of mapped pages.
    pub fn total_pages(&self) -> usize {
        self.private_pages + self.cow_pages + self.shared_pages
    }
}

#[cfg(test)]
mod tests {
    use crate::linear::LinearMemory;
    use crate::page::{BLOCK_SIZE, PAGE_SIZE};
    use crate::region::SharedRegion;

    #[test]
    fn fresh_memory_is_all_private() {
        let mut mem = LinearMemory::new(3, 10).unwrap();
        let s = mem.stats();
        assert_eq!(s.private_pages, 3);
        assert_eq!(s.cow_pages, 0);
        assert_eq!(s.shared_pages, 0);
        assert_eq!(s.rss_bytes, 0, "a page nothing was stored to holds nothing");
        assert_eq!(s.pss_bytes, 0.0);
        assert_eq!(s.total_pages(), 3);
        mem.write(PAGE_SIZE + 7, &[1]).unwrap();
        let s = mem.stats();
        assert_eq!(s.rss_bytes, BLOCK_SIZE, "one byte backs one block");
        assert_eq!(s.pss_bytes, BLOCK_SIZE as f64);
    }

    #[test]
    fn restored_memory_has_low_pss() {
        let mut mem = LinearMemory::new(4, 8).unwrap();
        mem.write(0, &[1u8; 100]).unwrap();
        let snap = mem.snapshot();
        let r1 = LinearMemory::restore(&snap);
        let r2 = LinearMemory::restore(&snap);
        let s = r1.stats();
        assert_eq!(s.cow_pages, 4);
        // One block of page 0 is backed; the other pages hold nothing.
        assert_eq!(s.rss_bytes, BLOCK_SIZE);
        // Page 0 is referenced by the snapshot, the original (as CoW), r1
        // and r2: a quarter of its block is r1's.
        assert_eq!(s.pss_bytes, BLOCK_SIZE as f64 / 4.0);
        drop(r2);
    }

    #[test]
    fn shared_mapping_counts_as_shared() {
        let region = SharedRegion::new(2 * PAGE_SIZE);
        let mut a = LinearMemory::new(1, 10).unwrap();
        let mut b = LinearMemory::new(1, 10).unwrap();
        a.map_shared(&region).unwrap();
        b.map_shared(&region).unwrap();
        let s = a.stats();
        assert_eq!(s.private_pages, 1);
        assert_eq!(s.shared_pages, 2);
        // Shared pages referenced by region + two memories → charged ~1/3.
        assert!(s.pss_bytes < (PAGE_SIZE + 2 * PAGE_SIZE) as f64);
    }
}
