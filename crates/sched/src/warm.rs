//! Warm-set tracking in the global tier (§5.1).
//!
//! "The set of warm hosts for each function is held in the FAASM state
//! global tier, and each scheduler may query and atomically update this set
//! during the scheduling decision." Warm sets are KVS sets keyed by user and
//! function; members are host ids.

use faasm_kvs::{KvError, SharedKv};
use faasm_net::HostId;

/// The global warm-host registry, shared by all local schedulers.
pub struct WarmSets {
    kv: SharedKv,
}

impl std::fmt::Debug for WarmSets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmSets").finish()
    }
}

fn warm_key(user: &str, function: &str) -> String {
    format!("sched:warm:{user}:{function}")
}

impl WarmSets {
    /// A registry over the given global-tier client.
    pub fn new(kv: SharedKv) -> WarmSets {
        WarmSets { kv }
    }

    /// Atomically register `host` as warm for `user/function`; returns true
    /// if it was not already registered.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn register(&self, user: &str, function: &str, host: HostId) -> Result<bool, KvError> {
        self.kv
            .sadd(&warm_key(user, function), &host.0.to_le_bytes())
    }

    /// Remove `host` from the warm set (e.g. when its Faaslets are evicted
    /// or the host fails).
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn deregister(&self, user: &str, function: &str, host: HostId) -> Result<bool, KvError> {
        self.kv
            .srem(&warm_key(user, function), &host.0.to_le_bytes())
    }

    /// The current warm hosts for `user/function`, sorted by id.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn hosts(&self, user: &str, function: &str) -> Result<Vec<HostId>, KvError> {
        let members = self.kv.smembers(&warm_key(user, function))?;
        let mut out: Vec<HostId> = members
            .into_iter()
            .filter_map(|m| {
                let bytes: [u8; 4] = m.try_into().ok()?;
                Some(HostId(u32::from_le_bytes(bytes)))
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_kvs::{KvClient, KvStore};
    use std::sync::Arc;

    fn warm() -> WarmSets {
        WarmSets::new(Arc::new(KvClient::local(Arc::new(KvStore::new()))))
    }

    #[test]
    fn register_query_deregister() {
        let w = warm();
        assert!(w.register("u", "f", HostId(1)).unwrap());
        assert!(!w.register("u", "f", HostId(1)).unwrap(), "idempotent");
        w.register("u", "f", HostId(3)).unwrap();
        assert_eq!(w.hosts("u", "f").unwrap(), vec![HostId(1), HostId(3)]);
        assert!(w.deregister("u", "f", HostId(1)).unwrap());
        assert_eq!(w.hosts("u", "f").unwrap(), vec![HostId(3)]);
    }

    #[test]
    fn sets_are_per_user_and_function() {
        let w = warm();
        w.register("u1", "f", HostId(1)).unwrap();
        w.register("u2", "f", HostId(2)).unwrap();
        w.register("u1", "g", HostId(3)).unwrap();
        assert_eq!(w.hosts("u1", "f").unwrap(), vec![HostId(1)]);
        assert_eq!(w.hosts("u2", "f").unwrap(), vec![HostId(2)]);
        assert_eq!(w.hosts("u1", "g").unwrap(), vec![HostId(3)]);
    }
}
