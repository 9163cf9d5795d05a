//! The per-host state manager: owner of the local tier.
//!
//! One [`StateManager`] exists per host runtime instance (Fig. 4/5). It
//! hands out [`StateEntry`] replicas backed by shared regions, so every
//! Faaslet on the host asking for the same key gets the *same* memory — the
//! local tier is "held exclusively in Faaslet shared memory regions", with
//! no separate local storage service (§4.2).

use std::collections::HashMap;
use std::sync::Arc;

use faasm_kvs::SharedKv;
use faasm_mem::SharedRegion;
use parking_lot::RwLock;

use crate::entry::{StateEntry, DEFAULT_CHUNK_SIZE};
use crate::error::StateError;

/// Per-host local-tier manager.
pub struct StateManager {
    kv: SharedKv,
    entries: RwLock<HashMap<String, Arc<StateEntry>>>,
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
        let entry = Arc::new(StateEntry::new(
            key,
            size,
            region,
            Arc::clone(&self.kv),
            self.chunk_size,
        )?);
        entries.insert(key.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Open a replica of an existing global value, sized from the global
    /// tier.
    ///
    /// # Errors
    ///
    /// [`StateError::NotFound`] if the key has no global value.
    pub fn get_existing(&self, key: &str) -> Result<Arc<StateEntry>, StateError> {
        if let Some(e) = self.entries.read().get(key) {
            return Ok(Arc::clone(e));
        }
        if !self.kv.exists(key)? {
            return Err(StateError::NotFound {
                key: key.to_string(),
            });
        }
        let size = self.kv.strlen(key)? as usize;
        self.get(key, size)
    }

    /// Drop the local replica for `key` (the global value is untouched).
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

    /// Keys with local replicas on this host.
    pub fn local_keys(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.read().keys().cloned().collect();
        v.sort();
        v
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

    /// Drop every local replica (host reset).
    pub fn clear(&self) {
        self.entries.write().clear();
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
        assert_eq!(a.region().id(), b.region().id());
        assert_eq!(m.local_keys(), vec!["k"]);
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
    fn get_existing_uses_global_size() {
        let m = manager();
        m.kv().set("g", vec![1u8; 77]).unwrap();
        let e = m.get_existing("g").unwrap();
        assert_eq!(e.size(), 77);
        assert!(matches!(
            m.get_existing("absent"),
            Err(StateError::NotFound { .. })
        ));
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
        assert!(m.local_keys().is_empty());
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
            handles.push(std::thread::spawn(move || {
                m.get("shared", 1000).unwrap().region().id()
            }));
        }
        let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
