//! Two-tier state architecture (§4).
//!
//! "A local tier provides in-memory sharing, and a global tier supports
//! distributed access to state across hosts." This crate implements both
//! halves and the API between them:
//!
//! * [`StateEntry`] — one key's local replica in a `faasm-mem` shared
//!   region (zero-copy across co-located Faaslets), with chunk-granular
//!   pull/push and implicit local read/write locking.
//! * [`StateManager`] — the per-host local tier handing out shared entries,
//!   owner of each key's local lock and the door to its global lock.
//!
//! Listing 1's distributed data objects have no type of their own here:
//! workloads speak this API through `faasm_workloads::env::FaasEnv`, which runs
//! one worker body on Faasm and on the container baseline alike.

#![warn(missing_docs)]

pub mod entry;
pub mod error;
pub mod manager;
pub mod rwlock;

pub use entry::{StateEntry, DEFAULT_CHUNK_SIZE};
pub use error::StateError;
pub use manager::StateManager;
pub use rwlock::SyncRwLock;
