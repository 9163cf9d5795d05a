//! Distributed key-value store: the global state tier.
//!
//! This crate is the reproduction's Redis substitute. It holds the
//! authoritative value for every state key (§4.2), serves range
//! reads/writes for chunked state, atomic counters, content-addressed
//! proto chunks and lease-based global read/write locks — everything the
//! two-tier state architecture and the snapshot plane need from the global
//! tier.
//!
//! Structure: [`KvStore`] is the pure state machine; [`KvServer`] serves it
//! over the `faasm-net` fabric with a hand-rolled binary codec ([`codec`]) so
//! every byte is measured, always as one shard of a routed tier; [`KvClient`]
//! is the synchronous client of one server. The tier has one shape whatever
//! its shard count and replication factor: [`reshard::start_tier`] boots it
//! and [`reshard::start_joiner`] boots a shard that joins it. Consumers hold
//! a [`SharedKv`] ([`KvBackend`] trait object), a [`ShardedKvClient`] that
//! follows the tier's [`RoutingCell`] and routes each key to its shard by
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
pub use cache::{CacheConfig, CacheCounters, CacheStats, CachedKv, Consistency, LEASE};
pub use client::{KvClient, KvError};
pub use codec::{Request, Response, EPOCH_ANY};
pub use content::{chunk_key, manifest_key, Digest};
pub use lru::BoundedLru;
pub use server::{KvServer, ShardRouting};
pub use sharded::{
    primary_index_live, rendezvous_delta, replica_set_for, replica_set_live, shard_index_for,
    RoutingCell, RoutingTable, ShardedKvClient,
};
pub use store::{
    KeyMigration, KvStore, LockMigration, LockMode, ShardCounters, ShardStats, LOCK_LEASE,
};
pub use writes::RangeWrites;
