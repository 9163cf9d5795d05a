//! Proto-Faaslets: ahead-of-time snapshots for microsecond restores (§5.2).
//!
//! A Proto-Faaslet captures "a function's stack, heap, function table, stack
//! pointer and data" — in the FVM that is the [`faasm_fvm::InstanceSnapshot`]
//! (memory pages, globals, indirect-call table; the operand stack is empty
//! between calls by construction). Restores use copy-on-write page mappings,
//! so their cost is O(pages touched), not O(snapshot size). Snapshots are
//! plain data: [`crate::snapdist`] ships one across hosts as
//! content-addressed chunks — a meta chunk, and per page only the 4 KiB
//! blocks that hold data — which gives the paper's cross-host,
//! OS-independent restores.

use std::sync::Arc;

use faasm_fvm::InstanceSnapshot;

/// A snapshot section too large for its `u32` length prefix: encoding it
/// would wrap and corrupt the meta chunk (see
/// [`chunk_proto`](crate::snapdist::chunk_proto)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoEncodeError {
    /// Which section overflowed.
    pub section: &'static str,
    /// Its actual length in elements/bytes.
    pub len: usize,
}

impl std::fmt::Display for ProtoEncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "proto section {:?} length {} exceeds the u32 length prefix",
            self.section, self.len
        )
    }
}

impl std::error::Error for ProtoEncodeError {}

/// A restorable snapshot of an initialised Faaslet.
#[derive(Debug, Clone)]
pub struct ProtoFaaslet {
    /// Owning user.
    pub user: String,
    /// Function name.
    pub function: String,
    /// The upload it was captured from: the generation the cluster's
    /// [`FunctionRegistry`](crate::FunctionRegistry) assigned (0 outside a
    /// cluster). A host restores a proto only under the upload it names.
    pub generation: u64,
    /// The captured execution state.
    pub snapshot: InstanceSnapshot,
}

/// Shared handle used throughout the runtime.
pub type ProtoRef = Arc<ProtoFaaslet>;
