//! Page-table virtual memory substrate for Faaslets.
//!
//! This crate reproduces the memory model of the Faasm paper (§3.3 and §5.2):
//!
//! * Each Faaslet owns a [`LinearMemory`]: a WebAssembly-style, densely packed
//!   linear address space addressed from offset zero, grown in 64 KiB pages.
//! * Pages are backed by [`Frame`]s, which are either **private** (owned by one
//!   memory), **copy-on-write** (shared with a snapshot until first write), or
//!   **shared** (mapped into several linear memories at once — the paper's
//!   *shared regions*, Fig. 2).
//! * A [`Page`] is a 64 KiB address range backed per 4 KiB block, on the
//!   first non-zero store: what a page costs is its backed blocks
//!   ([`Page::resident_bytes`]), and [`MemStats`] and
//!   [`SharedRegion::resident_bytes`] are sums of that.
//! * [`MemorySnapshot`] captures the full contents of a memory in O(pages)
//!   pointer copies; [`LinearMemory::restore`] rebuilds a memory from a
//!   snapshot using copy-on-write mappings, which is what makes Proto-Faaslet
//!   restores run in microseconds (§5.2). A memory records which 4 KiB
//!   blocks of each page it wrote, so [`LinearMemory::reset_to`] puts a used
//!   memory back to its snapshot by copying those blocks alone — the
//!   reset-after-call path, whose cost is what the call dirtied.
//! * A memory keeps a block table beside its frames, so the FVM's one-word
//!   [`LinearMemory::load`] / [`LinearMemory::store`] is one lookup — its
//!   bounds check too — and one word access; everything else takes the
//!   checked path through frames and pages.
//! * [`SharedRegion`] is a standalone run of pages that can be concurrently
//!   mapped into many linear memories. Concurrent access is word-atomic
//!   (see [`page::Page`]), which matches the data-race-tolerant HOGWILD!
//!   access pattern used by the paper's SGD workload; synchronisation
//!   discipline (local read/write locks) is layered above in `faasm-state`.
//!
//! The crate has no dependencies on the rest of the workspace.

#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod linear;
pub mod page;
pub mod region;
pub mod snapshot;
pub mod stats;

pub use error::MemError;
pub use frame::{Frame, FrameKind};
pub use linear::LinearMemory;
pub use page::{Page, BLOCK_SIZE, PAGE_SIZE};
pub use region::SharedRegion;
pub use snapshot::MemorySnapshot;
pub use stats::MemStats;

/// Convert a byte count to the number of pages needed to hold it.
///
/// # Examples
///
/// ```
/// use faasm_mem::{pages_for_bytes, PAGE_SIZE};
/// assert_eq!(pages_for_bytes(0), 0);
/// assert_eq!(pages_for_bytes(1), 1);
/// assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
/// assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
/// ```
pub fn pages_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_bytes_boundaries() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE - 1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for_bytes(10 * PAGE_SIZE), 10);
    }
}
