//! The per-host state manager: owner of the local tier.
//!
//! One [`StateManager`] exists per host runtime instance (Fig. 4/5). It
//! hands out [`StateEntry`] replicas backed by shared regions, so every
//! Faaslet on the host asking for the same key gets the *same* memory — the
//! local tier is "held exclusively in Faaslet shared memory regions", with
//! no separate local storage service (§4.2).
//!
//! Locks belong to the key, not to a replica: the manager keeps one local
//! lock per key and hands it to the key's replica when it creates one, so
//! a `lock_state_*` taken before any replica exists still excludes the
//! replica's users, and no lock call creates or sizes a replica.

use std::collections::HashMap;
use std::sync::Arc;

use faasm_kvs::{LockMode, SharedKv};
use faasm_mem::SharedRegion;
use faasm_telemetry::SpanKind;
use parking_lot::RwLock;

use crate::entry::{state_span, StateEntry, DEFAULT_CHUNK_SIZE};
use crate::error::StateError;
use crate::rwlock::SyncRwLock;

/// Per-host local-tier manager.
pub struct StateManager {
    kv: SharedKv,
    entries: RwLock<HashMap<String, Arc<StateEntry>>>,
    /// Each key's local lock on this host, shared with the key's replica.
    locks: RwLock<HashMap<String, Arc<SyncRwLock>>>,
    chunk_size: usize,
}

impl std::fmt::Debug for StateManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateManager")
            .field("entries", &self.entries.read().len())
            .field("chunk_size", &self.chunk_size)
            .finish()
    }
}

impl StateManager {
    /// A manager over the given global-tier client.
    pub fn new(kv: SharedKv) -> StateManager {
        StateManager::with_chunk_size(kv, DEFAULT_CHUNK_SIZE)
    }

    /// A manager with an explicit chunk size.
    pub fn with_chunk_size(kv: SharedKv, chunk_size: usize) -> StateManager {
        StateManager {
            kv,
            entries: RwLock::new(HashMap::new()),
            locks: RwLock::new(HashMap::new()),
            chunk_size: chunk_size.max(1),
        }
    }

    /// The global-tier client.
    pub fn kv(&self) -> &SharedKv {
        &self.kv
    }

    /// Get (or create) the local replica for `key` with value size `size`.
    /// Concurrent callers receive the same entry — that sharing *is* the
    /// local tier.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::CapacityExceeded`] if the key already has a
    /// replica smaller than `size`.
    pub fn get(&self, key: &str, size: usize) -> Result<Arc<StateEntry>, StateError> {
        if let Some(e) = self.entries.read().get(key) {
            if size <= e.size() {
                return Ok(Arc::clone(e));
            }
            return Err(StateError::CapacityExceeded {
                requested: size,
                capacity: e.size(),
            });
        }
        let mut entries = self.entries.write();
        // Re-check under the write lock.
        if let Some(e) = entries.get(key) {
            if size <= e.size() {
                return Ok(Arc::clone(e));
            }
            return Err(StateError::CapacityExceeded {
                requested: size,
                capacity: e.size(),
            });
        }
        let region = SharedRegion::new(size);
        let entry = StateEntry::new(key, size, region, Arc::clone(&self.kv), self.chunk_size)?;
        let entry = Arc::new(entry.sharing_lock(self.local_lock(key)));
        entries.insert(key.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// `key`'s local lock on this host (`lock_state_read` /
    /// `lock_state_write`), created unlocked on first use. Every replica
    /// of the key, past or future, is excluded by this one lock.
    pub fn local_lock(&self, key: &str) -> Arc<SyncRwLock> {
        if let Some(lock) = self.locks.read().get(key) {
            return Arc::clone(lock);
        }
        Arc::clone(self.locks.write().entry(key.to_string()).or_default())
    }

    /// Acquire `key`'s global lock (`lock_state_global_read` /
    /// `lock_state_global_write`), blocking. The lock is a lease the global
    /// tier holds; no replica is involved.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn lock_global(&self, key: &str, mode: LockMode) -> Result<(), StateError> {
        let write = u64::from(mode == LockMode::Write);
        Ok(state_span(&self.kv, SpanKind::LockWait, write, || {
            self.kv.lock(key, mode)
        })?)
    }

    /// Release `key`'s global lock.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn unlock_global(&self, key: &str, mode: LockMode) -> Result<(), StateError> {
        Ok(self.kv.unlock(key, mode)?)
    }

    /// Drop the local replica for `key` (the global value and the key's
    /// local lock are untouched).
    pub fn evict(&self, key: &str) -> bool {
        self.entries.write().remove(key).is_some()
    }

    /// Delete a key everywhere: local replica and global value.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn delete(&self, key: &str) -> Result<(), StateError> {
        self.entries.write().remove(key);
        self.kv.del(key)?;
        Ok(())
    }

    /// Bytes held by the local tier (the replicas' resident bytes: 4 KiB
    /// per block holding a non-zero byte) — the state component of the
    /// host's memory footprint.
    pub fn local_bytes(&self) -> usize {
        self.entries
            .read()
            .values()
            .map(|e| e.region().resident_bytes())
            .sum()
    }

    /// Drop every local replica and every local lock (host reset).
    pub fn clear(&self) {
        let mut entries = self.entries.write();
        entries.clear();
        self.locks.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_kvs::{KvClient, KvStore};

    fn manager() -> StateManager {
        let store = Arc::new(KvStore::new());
        StateManager::new(Arc::new(KvClient::local(store)))
    }

    #[test]
    fn same_key_shares_one_entry() {
        let m = manager();
        let a = m.get("k", 100).unwrap();
        let b = m.get("k", 100).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.region().write(0, b"one region").unwrap();
        let mut buf = [0u8; 10];
        b.region().read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one region");
    }

    #[test]
    fn smaller_request_reuses_larger_entry() {
        let m = manager();
        let a = m.get("k", 100).unwrap();
        let b = m.get("k", 50).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(matches!(
            m.get("k", 200),
            Err(StateError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn a_lock_taken_before_the_replica_excludes_its_users() {
        let m = Arc::new(manager());
        let lock = m.local_lock("k");
        lock.lock_write();
        let e = m.get("k", 8).unwrap();
        assert!(Arc::ptr_eq(&lock, &m.local_lock("k")), "one lock per key");
        let reader = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || e.read(0, &mut [0u8; 8]).unwrap())
        };
        while e.local_lock_waiters() == 0 {
            std::thread::yield_now();
        }
        lock.unlock_write();
        reader.join().unwrap();
        // Evicting the replica keeps the lock; a host reset drops both.
        m.evict("k");
        assert!(Arc::ptr_eq(&lock, &m.local_lock("k")));
        m.clear();
        assert!(!Arc::ptr_eq(&lock, &m.local_lock("k")));
    }

    #[test]
    fn global_locks_roundtrip_without_a_replica() {
        let m = manager();
        m.lock_global("g", LockMode::Write).unwrap();
        m.unlock_global("g", LockMode::Write).unwrap();
        m.lock_global("g", LockMode::Read).unwrap();
        m.unlock_global("g", LockMode::Read).unwrap();
        assert_eq!(m.local_bytes(), 0);
        assert!(!m.evict("g"), "no replica was created");
    }

    #[test]
    fn evict_and_delete() {
        let m = manager();
        m.get("k", 10).unwrap();
        assert!(m.evict("k"));
        assert!(!m.evict("k"));
        m.get("d", 10).unwrap().write(0, &[1u8; 10]).unwrap();
        m.get("d", 10).unwrap().push().unwrap();
        assert!(m.kv().exists("d").unwrap());
        m.delete("d").unwrap();
        assert!(!m.kv().exists("d").unwrap());
        assert!(!m.evict("d"), "delete dropped the replica");
    }

    #[test]
    fn local_bytes_accounts_regions() {
        let m = manager();
        m.get("a", 10).unwrap();
        let b = m.get("b", faasm_mem::PAGE_SIZE + 1).unwrap();
        assert_eq!(m.local_bytes(), 0, "a replica nothing was stored to");
        b.write(faasm_mem::PAGE_SIZE, &[1]).unwrap();
        assert_eq!(
            m.local_bytes(),
            faasm_mem::BLOCK_SIZE,
            "one byte, one block"
        );
        m.clear();
        assert_eq!(m.local_bytes(), 0);
    }

    #[test]
    fn concurrent_get_returns_same_entry() {
        let m = Arc::new(manager());
        let mut handles = vec![];
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || m.get("shared", 1000).unwrap()));
        }
        let entries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        entries[0].region().write(0, b"one region").unwrap();
        for entry in &entries {
            let mut buf = [0u8; 10];
            entry.region().read(0, &mut buf).unwrap();
            assert_eq!(&buf, b"one region");
        }
    }
}
