//! Shared scheduling boards: peer load and state affinity.
//!
//! Two gossip surfaces the local scheduling decision and the ingress tier
//! read when choosing a host:
//!
//! * **Load board** — every host publishes its run-queue depth; a
//!   forwarding host picks the least-loaded warm peer instead of blind
//!   rotation.
//! * **Affinity board** — hosts running a function with a warm state cache
//!   report how much of the function's working set their cache served
//!   (per-call cache-hit counts from the function-side cache). Placement
//!   prefers hosts whose caches already hold the function's hot keys —
//!   state-locality scheduling: the call moves to the data, not the data to
//!   the call. The board also keeps the function's hot keys themselves, so
//!   diagnostics can map a working set to the shards that own it.
//!
//! Both boards are advisory: scores decay as new reports fold in (an EWMA,
//! so a host that stops serving a function fades), absent entries read as
//! zero, and the decision's correctness never depends on board freshness.

use std::collections::HashMap;

use faasm_net::HostId;
use parking_lot::RwLock;

/// Hot keys retained per function on the affinity board.
const HOT_KEYS_PER_FN: usize = 64;

/// One function's affinity state.
#[derive(Debug, Default)]
struct FnAffinity {
    /// EWMA of per-call cache-hit weight, per host.
    hosts: HashMap<HostId, u64>,
    /// Decayed hit counts for the function's hottest keys.
    keys: HashMap<String, u64>,
}

/// Shared scheduling boards — see the module docs. One per cluster,
/// published to every instance and the ingress tier.
#[derive(Debug, Default)]
pub struct SchedBoards {
    depths: RwLock<HashMap<HostId, usize>>,
    affinity: RwLock<HashMap<(String, String), FnAffinity>>,
}

impl SchedBoards {
    /// An empty board set.
    pub fn new() -> SchedBoards {
        SchedBoards::default()
    }

    /// Publish this host's current run-queue depth.
    pub fn publish_depth(&self, host: HostId, depth: usize) {
        self.depths.write().insert(host, depth);
    }

    /// Known queue depths for `hosts`, in input order (unpublished hosts
    /// are omitted — unknown reads as zero at the decision).
    pub fn depths(&self, hosts: &[HostId]) -> Vec<(HostId, usize)> {
        let depths = self.depths.read();
        hosts
            .iter()
            .filter_map(|h| depths.get(h).map(|&d| (*h, d)))
            .collect()
    }

    /// Fold one call's cache-touch report into the function's affinity:
    /// the host's score moves as an EWMA of the call's total cache-hit
    /// weight (`new = old*3/4 + weight`, so it is bounded and self-decays),
    /// and the touched keys fold into the function's hot-key set the same
    /// way.
    pub fn report_affinity(
        &self,
        user: &str,
        function: &str,
        host: HostId,
        touched: &[(String, u64)],
    ) {
        let weight: u64 = touched.iter().map(|(_, n)| n).sum();
        let mut board = self.affinity.write();
        let f = board
            .entry((user.to_string(), function.to_string()))
            .or_default();
        let slot = f.hosts.entry(host).or_insert(0);
        *slot = *slot - *slot / 4 + weight;
        for (key, n) in touched {
            let slot = f.keys.entry(key.clone()).or_insert(0);
            *slot = *slot - *slot / 4 + n;
        }
        if f.keys.len() > HOT_KEYS_PER_FN {
            // Keep only the hottest keys; the map stays bounded per
            // function regardless of working-set churn.
            let mut counts: Vec<u64> = f.keys.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cutoff = counts[HOT_KEYS_PER_FN - 1];
            f.keys.retain(|_, v| *v >= cutoff);
        }
    }

    /// Known affinity scores for `hosts`, in input order (hosts with no
    /// score are omitted — absent reads as zero at the decision).
    pub fn affinities(&self, user: &str, function: &str, hosts: &[HostId]) -> Vec<(HostId, u64)> {
        let board = self.affinity.read();
        let Some(f) = board.get(&(user.to_string(), function.to_string())) else {
            return Vec::new();
        };
        hosts
            .iter()
            .filter_map(|h| f.hosts.get(h).map(|&a| (*h, a)))
            .collect()
    }

    /// The function's hottest keys (score-descending, then by key), and the
    /// global-tier shard each would route to under `shard_count` shards —
    /// the hot-key → owning-shard map behind the affinity signal.
    pub fn hot_key_shards(
        &self,
        user: &str,
        function: &str,
        shard_count: usize,
    ) -> Vec<(String, u64, usize)> {
        let board = self.affinity.read();
        let Some(f) = board.get(&(user.to_string(), function.to_string())) else {
            return Vec::new();
        };
        let mut keys: Vec<(String, u64, usize)> = f
            .keys
            .iter()
            .map(|(k, &n)| (k.clone(), n, faasm_kvs::shard_index_for(k, shard_count)))
            .collect();
        keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        keys
    }
}

/// `host`'s value in a slice read off a board ([`SchedBoards::depths`],
/// [`SchedBoards::affinities`]); a host the board omitted reads as zero.
pub fn entry_for<T: Copy + Default>(entries: &[(HostId, T)], host: HostId) -> T {
    entries
        .iter()
        .find(|(h, _)| *h == host)
        .map_or(T::default(), |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_publish_and_read() {
        let b = SchedBoards::new();
        b.publish_depth(HostId(1), 3);
        b.publish_depth(HostId(2), 0);
        assert_eq!(
            b.depths(&[HostId(1), HostId(2), HostId(9)]),
            vec![(HostId(1), 3), (HostId(2), 0)]
        );
        b.publish_depth(HostId(1), 7); // latest wins
        assert_eq!(b.depths(&[HostId(1)]), vec![(HostId(1), 7)]);
    }

    #[test]
    fn affinity_accumulates_and_decays() {
        let b = SchedBoards::new();
        let touched = [("u/k".to_string(), 8u64)];
        b.report_affinity("u", "f", HostId(1), &touched);
        let a1 = b.affinities("u", "f", &[HostId(1)])[0].1;
        assert_eq!(a1, 8);
        // Repeated reports converge (EWMA bound = 4 × weight), never grow
        // without bound.
        for _ in 0..64 {
            b.report_affinity("u", "f", HostId(1), &touched);
        }
        let a2 = b.affinities("u", "f", &[HostId(1)])[0].1;
        assert!(a2 <= 32, "EWMA must stay bounded, got {a2}");
        assert!(a2 > a1);
        // Other functions and hosts are independent.
        assert!(b.affinities("u", "g", &[HostId(1)]).is_empty());
        assert!(b.affinities("u", "f", &[HostId(2)]).is_empty());
    }

    #[test]
    fn hot_keys_map_to_owning_shards() {
        let b = SchedBoards::new();
        b.report_affinity(
            "u",
            "f",
            HostId(1),
            &[("u/a".to_string(), 9), ("u/b".to_string(), 2)],
        );
        let hot = b.hot_key_shards("u", "f", 4);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, "u/a"); // hottest first
        assert_eq!(hot[0].2, faasm_kvs::shard_index_for("u/a", 4));
        assert!(hot.iter().all(|(_, _, s)| *s < 4));
    }

    #[test]
    fn hot_key_set_stays_bounded() {
        let b = SchedBoards::new();
        for i in 0..(HOT_KEYS_PER_FN * 4) {
            b.report_affinity("u", "f", HostId(1), &[(format!("u/k{i}"), 1 + i as u64)]);
        }
        let hot = b.hot_key_shards("u", "f", 2);
        assert!(hot.len() <= HOT_KEYS_PER_FN + 1, "got {}", hot.len());
    }
}
