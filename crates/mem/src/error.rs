//! Error types for memory operations.

use std::fmt;

/// Errors produced by memory operations.
///
/// All memory faults are reported as values; nothing in this crate panics on
/// guest-controlled input. The FVM maps [`MemError::OutOfBounds`] onto a trap,
/// which is the SFI enforcement point of the paper (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// An access at `addr..addr + len` fell outside a memory of `size` bytes.
    OutOfBounds {
        /// Start address of the faulting access.
        addr: usize,
        /// Length of the faulting access in bytes.
        len: usize,
        /// Current size of the memory in bytes.
        size: usize,
    },
    /// Growing the memory would exceed its configured page limit.
    ///
    /// The paper gives every function a predefined memory limit; `mmap`/`brk`
    /// calls fail once growth of the private region would exceed it (§3.2).
    LimitExceeded {
        /// Pages requested in total after the grow.
        requested_pages: usize,
        /// Configured maximum in pages.
        max_pages: usize,
    },
    /// A shared-region mapping request was not aligned to a page boundary.
    UnalignedMapping {
        /// The offending byte offset.
        offset: usize,
    },
    /// A mapping refers to pages that do not exist in the source region.
    BadRegionRange {
        /// First page requested.
        page: usize,
        /// Number of pages requested.
        count: usize,
        /// Pages available in the region.
        available: usize,
    },
    /// Attempted to map over pages that are already part of a shared mapping.
    MappingOverlap {
        /// First overlapping page index in the linear memory.
        page: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => write!(
                f,
                "out-of-bounds access: addr={addr:#x} len={len} memory_size={size:#x}"
            ),
            MemError::LimitExceeded {
                requested_pages,
                max_pages,
            } => write!(
                f,
                "memory limit exceeded: requested {requested_pages} pages, limit {max_pages}"
            ),
            MemError::UnalignedMapping { offset } => {
                write!(f, "mapping offset {offset:#x} is not page-aligned")
            }
            MemError::BadRegionRange {
                page,
                count,
                available,
            } => write!(
                f,
                "region range out of bounds: pages {page}..{} of {available}",
                page + count
            ),
            MemError::MappingOverlap { page } => {
                write!(f, "mapping overlaps existing shared mapping at page {page}")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = MemError::OutOfBounds {
            addr: 0x10,
            len: 4,
            size: 8,
        };
        assert!(e.to_string().contains("out-of-bounds"));
        let e = MemError::LimitExceeded {
            requested_pages: 10,
            max_pages: 4,
        };
        assert!(e.to_string().contains("limit"));
    }
}
