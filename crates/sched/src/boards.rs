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
//!   the call. A report is one call's `touch_scope` hits; the board folds
//!   only their total into the reporting host's score and keeps no keys.
//!
//! Both boards are advisory: scores decay as new reports fold in (an EWMA,
//! so a host that stops serving a function fades), absent entries read as
//! zero, and the decision's correctness never depends on board freshness.

use std::collections::HashMap;

use faasm_net::HostId;
use parking_lot::RwLock;

/// Shared scheduling boards — see the module docs. One per cluster,
/// published to every instance and the ingress tier.
#[derive(Debug, Default)]
pub struct SchedBoards {
    depths: RwLock<HashMap<HostId, usize>>,
    /// Per function: EWMA of per-call cache-hit weight, per host.
    affinity: RwLock<HashMap<(String, String), HashMap<HostId, u64>>>,
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
    /// weight (`new = old*3/4 + weight`, so it is bounded and self-decays).
    pub fn report_affinity(
        &self,
        user: &str,
        function: &str,
        host: HostId,
        touched: &[(String, u64)],
    ) {
        let weight: u64 = touched.iter().map(|(_, n)| n).sum();
        let mut board = self.affinity.write();
        let hosts = board
            .entry((user.to_string(), function.to_string()))
            .or_default();
        let slot = hosts.entry(host).or_insert(0);
        *slot = *slot - *slot / 4 + weight;
    }

    /// Known affinity scores for `hosts`, in input order (hosts with no
    /// score are omitted — absent reads as zero at the decision).
    pub fn affinities(&self, user: &str, function: &str, hosts: &[HostId]) -> Vec<(HostId, u64)> {
        let board = self.affinity.read();
        let Some(scores) = board.get(&(user.to_string(), function.to_string())) else {
            return Vec::new();
        };
        hosts
            .iter()
            .filter_map(|h| scores.get(h).map(|&a| (*h, a)))
            .collect()
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
}
