//! State-layer errors.

use faasm_kvs::KvError;
use faasm_mem::MemError;

/// Errors from two-tier state operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The global tier failed.
    Kv(KvError),
    /// A local-memory operation failed.
    Mem(MemError),
    /// An access fell outside the state value.
    OutOfRange {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Value size.
        size: usize,
    },
    /// A state value was re-opened with a size exceeding its capacity.
    CapacityExceeded {
        /// Requested size.
        requested: usize,
        /// Backing capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Kv(e) => write!(f, "global tier: {e}"),
            StateError::Mem(e) => write!(f, "local tier: {e}"),
            StateError::OutOfRange { offset, len, size } => {
                // A guest's offset and length may each be near usize::MAX.
                let end = *offset as u128 + *len as u128;
                write!(f, "state access {offset}..{end} out of range (size {size})")
            }
            StateError::CapacityExceeded {
                requested,
                capacity,
            } => write!(f, "state size {requested} exceeds capacity {capacity}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<KvError> for StateError {
    fn from(e: KvError) -> StateError {
        StateError::Kv(e)
    }
}

impl From<MemError> for StateError {
    fn from(e: MemError) -> StateError {
        StateError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = StateError::OutOfRange {
            offset: 10,
            len: 4,
            size: 12,
        };
        assert!(e.to_string().contains("10..14"));
    }
}
