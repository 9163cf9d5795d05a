//! Distributed key-value store: the global state tier.
//!
//! This crate is the reproduction's Redis substitute. It holds the
//! authoritative value for every state key (§4.2), serves range
//! reads/writes for chunked state, atomic counters, sets, content-addressed
//! proto chunks and lease-based global read/write locks — everything the
//! two-tier state architecture and the snapshot plane need from the global
//! tier.
//!
//! Structure: [`KvStore`] is the pure state machine; [`KvServer`] serves it
//! over the `faasm-net` fabric with a hand-rolled binary codec ([`codec`]) so
//! every byte is measured; [`KvClient`] is the synchronous client used by
//! host runtimes. Consumers hold a [`SharedKv`] ([`KvBackend`] trait
//! object): a single [`KvClient`] for one-server deployments, or a
//! [`ShardedKvClient`] routing each key to one of N shard servers by
//! rendezvous hashing.

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod codec;
pub mod content;
pub mod lru;
pub mod reshard;
pub mod server;
pub mod sharded;
pub mod store;
pub mod testutil;
pub mod writes;

pub use backend::{KvBackend, SharedKv};
pub use cache::{CacheConfig, CacheCounters, CacheStats, CachedKv, Consistency};
pub use client::{KvClient, KvError};
pub use codec::{Request, Response, EPOCH_ANY};
pub use content::{chunk_key, manifest_key, Digest};
pub use lru::BoundedLru;
pub use server::{KvServer, ServerShaping, ShardRouting};
pub use sharded::{
    primary_index_live, rendezvous_delta, replica_set_for, replica_set_live, shard_index_for,
    RoutingCell, RoutingTable, ShardedKvClient,
};
pub use store::{KeyMigration, KvStore, LockMigration, LockMode, ShardCounters, ShardStats};
pub use writes::RangeWrites;
