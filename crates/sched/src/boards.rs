//! The affinity board: state affinity, gossiped.
//!
//! Hosts running a function with a warm state cache report how much of the
//! function's working set their cache served (per-call cache-hit counts
//! from the function-side cache). Placement prefers hosts whose caches
//! already hold the function's hot keys — state-locality scheduling: the
//! call moves to the data, not the data to the call. A report is one call's
//! `touch_scope` hits; the board folds only their total into the reporting
//! host's score and keeps no keys.
//!
//! Load and warmth are not gossiped: placement reads them off each host's
//! pool and run queue. The board is advisory: scores decay as new reports
//! fold in (an EWMA, so a host that stops serving a function fades), absent
//! entries read as zero, and no placement's correctness depends on board
//! freshness.

use std::collections::HashMap;

use faasm_net::HostId;
use parking_lot::RwLock;

/// The affinity board — see the module docs. One per cluster, shared by
/// every instance and the ingress tier.
#[derive(Debug, Default)]
pub struct SchedBoards {
    /// Per function: EWMA of per-call cache-hit weight, per host.
    affinity: RwLock<HashMap<(String, String), HashMap<HostId, u64>>>,
}

impl SchedBoards {
    /// An empty board set.
    pub fn new() -> SchedBoards {
        SchedBoards::default()
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

/// `host`'s value in a slice read off the board
/// ([`SchedBoards::affinities`]); a host the board omitted reads as zero.
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
