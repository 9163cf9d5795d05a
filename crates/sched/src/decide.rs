//! The local scheduling decision (§5.1).
//!
//! "Function calls are sent round-robin to local schedulers, which execute
//! the function locally if they are warm and have capacity, or share it with
//! another warm host if one exists. If a function call is received and there
//! are no instances with warm Faaslets, the instance that received the call
//! creates a new Faaslet, incurring a 'cold start'."
//!
//! The runtime takes only the first branch, [`runs_warm_local`]: it is a
//! chained call's one pre-check, and every other call is placed by
//! `faasm_core::Cluster::place`'s score. [`decide`], [`Decision`] and
//! [`Placement`] are kept only because the benchmark's `sched.decide_ns`
//! probe names them.

use faasm_net::HostId;

use crate::boards::entry_for;
use crate::score::{best, Candidate};

/// Local run-queue depth beyond which a chained call stops running warm on
/// its caller's host and is placed by the score instead. Keeps one hot host
/// from absorbing an entire fan-out while warm peers idle.
pub const QUEUE_SHARE_THRESHOLD: usize = 8;

/// Where a call should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Execute on this host in an existing warm Faaslet.
    WarmLocal,
    /// Forward to another host's sharing queue.
    Forward(HostId),
    /// Create a new Faaslet here (cold start).
    ColdStartLocal,
}

/// Inputs to one scheduling decision, gathered by the caller (warm-set
/// lookup is the only global operation and is passed in pre-resolved).
#[derive(Debug, Clone, Copy)]
pub struct Decision<'a> {
    /// This host.
    pub this_host: HostId,
    /// Warm Faaslets for the function on this host.
    pub warm_local: usize,
    /// Idle warm Faaslets (warm and not currently executing).
    pub idle_local: usize,
    /// The function's warm hosts (§5.1 keeps them in the global tier).
    pub warm_hosts: &'a [HostId],
    /// Depth of this host's local run queue (all functions), the
    /// backpressure signal: a warm host drowning in queued work shares
    /// rather than queueing more.
    pub queue_depth: usize,
    /// Rotation seed for breaking ties between equally-scored peers.
    pub seed: usize,
    /// Known run-queue depths of peers; hosts not listed read as depth 0.
    /// Empty, forwarding degrades to pure seed rotation.
    pub peer_depths: &'a [(HostId, usize)],
    /// Known state-affinity scores of peers (from the affinity board:
    /// how much of this function's working set each host's state cache
    /// recently served); hosts not listed read as 0.
    pub peer_affinity: &'a [(HostId, u64)],
}

/// [`decide`]'s first branch: warm here, a Faaslet idle and the run queue
/// shallow. It reads only the host's own pool and queue, so a chained call
/// that passes it is queued on its caller's host without asking anyone.
pub fn runs_warm_local(warm_local: usize, idle_local: usize, queue_depth: usize) -> bool {
    warm_local > 0 && idle_local > 0 && queue_depth < QUEUE_SHARE_THRESHOLD
}

/// Decide a placement.
pub fn decide(d: &Decision<'_>) -> Placement {
    if runs_warm_local(d.warm_local, d.idle_local, d.queue_depth) {
        return Placement::WarmLocal;
    }
    // Otherwise share with another warm host if one exists: the
    // best-scoring warm peer (least loaded, nudged toward peers whose state
    // caches already hold the function's working set), seed-rotating among
    // ties. Every candidate is in the warm set; how many of its Faaslets
    // are idle is not gossiped.
    let others: Vec<HostId> = d
        .warm_hosts
        .iter()
        .copied()
        .filter(|h| *h != d.this_host)
        .collect();
    let candidates: Vec<Candidate> = others
        .iter()
        .map(|&h| Candidate {
            idle_warm: Some(0),
            depth: entry_for(d.peer_depths, h),
            affinity: entry_for(d.peer_affinity, h),
        })
        .collect();
    if let Some(i) = best(&candidates, d.seed, None) {
        return Placement::Forward(others[i]);
    }
    // No warm peer: run here even when deep — queueing beats failing.
    if d.warm_local > 0 && d.idle_local > 0 {
        return Placement::WarmLocal;
    }
    // No warm capacity anywhere: cold start here.
    Placement::ColdStartLocal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(warm_local: usize, idle_local: usize, warm_hosts: &[HostId], seed: usize) -> Placement {
        decide(&Decision {
            this_host: HostId(0),
            warm_local,
            idle_local,
            warm_hosts,
            queue_depth: 0,
            seed,
            peer_depths: &[],
            peer_affinity: &[],
        })
    }

    #[test]
    fn warm_and_idle_runs_local() {
        assert_eq!(d(2, 1, &[HostId(0), HostId(1)], 0), Placement::WarmLocal);
    }

    #[test]
    fn warm_but_busy_forwards_to_other_warm() {
        assert_eq!(
            d(2, 0, &[HostId(0), HostId(1)], 0),
            Placement::Forward(HostId(1))
        );
    }

    #[test]
    fn cold_host_forwards_to_warm_host() {
        assert_eq!(d(0, 0, &[HostId(3)], 0), Placement::Forward(HostId(3)));
    }

    #[test]
    fn nobody_warm_cold_starts_locally() {
        assert_eq!(d(0, 0, &[], 0), Placement::ColdStartLocal);
        // A warm set containing only ourselves (stale after eviction) also
        // cold starts.
        assert_eq!(d(0, 0, &[HostId(0)], 0), Placement::ColdStartLocal);
    }

    #[test]
    fn deep_queue_shares_despite_local_warmth() {
        // Warm and idle here, but the run queue is saturated: share with the
        // warm peer instead of queueing deeper.
        let got = decide(&Decision {
            this_host: HostId(0),
            warm_local: 2,
            idle_local: 2,
            warm_hosts: &[HostId(0), HostId(1)],
            queue_depth: QUEUE_SHARE_THRESHOLD,
            seed: 0,
            peer_depths: &[],
            peer_affinity: &[],
        });
        assert_eq!(got, Placement::Forward(HostId(1)));
        // With no warm peer, a deep queue still runs locally.
        let got = decide(&Decision {
            this_host: HostId(0),
            warm_local: 2,
            idle_local: 2,
            warm_hosts: &[HostId(0)],
            queue_depth: QUEUE_SHARE_THRESHOLD * 2,
            seed: 0,
            peer_depths: &[],
            peer_affinity: &[],
        });
        assert_eq!(got, Placement::WarmLocal);
    }

    #[test]
    fn forwarding_rotates_over_warm_hosts() {
        // With no load/affinity signal every peer ties: pure seed rotation.
        let hosts = [HostId(1), HostId(2), HostId(3)];
        let picks: Vec<Placement> = (0..3).map(|s| d(0, 0, &hosts, s)).collect();
        assert_eq!(
            picks,
            vec![
                Placement::Forward(HostId(1)),
                Placement::Forward(HostId(2)),
                Placement::Forward(HostId(3)),
            ]
        );
    }

    #[test]
    fn forwarding_prefers_least_loaded_peer() {
        // Regression: forwarding used to rotate blindly over the warm set
        // (`others[seed % len]`), dumping every `seed ≡ 0` call on a peer
        // already drowning in queued work. It must pick the least-loaded
        // warm peer, whatever the seed says.
        let hosts = [HostId(1), HostId(2), HostId(3)];
        let depths = [(HostId(1), 9), (HostId(2), 0), (HostId(3), 5)];
        for seed in 0..8 {
            let got = decide(&Decision {
                this_host: HostId(0),
                warm_local: 0,
                idle_local: 0,
                warm_hosts: &hosts,
                queue_depth: 0,
                seed,
                peer_depths: &depths,
                peer_affinity: &[],
            });
            assert_eq!(got, Placement::Forward(HostId(2)), "seed {seed}");
        }
        // Equal depths tie; the seed rotates among the tied peers only.
        let tied = [(HostId(1), 2), (HostId(2), 2), (HostId(3), 7)];
        let picks: Vec<Placement> = (0..4)
            .map(|seed| {
                decide(&Decision {
                    this_host: HostId(0),
                    warm_local: 0,
                    idle_local: 0,
                    warm_hosts: &hosts,
                    queue_depth: 0,
                    seed,
                    peer_depths: &tied,
                    peer_affinity: &[],
                })
            })
            .collect();
        assert_eq!(
            picks,
            vec![
                Placement::Forward(HostId(1)),
                Placement::Forward(HostId(2)),
                Placement::Forward(HostId(1)),
                Placement::Forward(HostId(2)),
            ]
        );
    }

    #[test]
    fn affinity_breaks_close_calls_but_never_overrides_load() {
        let hosts = [HostId(1), HostId(2)];
        // Depths within one call of each other: the peer whose cache holds
        // the function's working set wins (its bonus, log2(100)+1 = 7, is worth
        // more than one queued call).
        let got = decide(&Decision {
            this_host: HostId(0),
            warm_local: 0,
            idle_local: 0,
            warm_hosts: &hosts,
            queue_depth: 0,
            seed: 0,
            peer_depths: &[(HostId(1), 1), (HostId(2), 2)],
            peer_affinity: &[(HostId(2), 100)],
        });
        assert_eq!(got, Placement::Forward(HostId(2)));
        // But a drowning peer is never preferred for its cache: the log
        // scale caps the bonus at 64, far under a deep queue's cost.
        let got = decide(&Decision {
            this_host: HostId(0),
            warm_local: 0,
            idle_local: 0,
            warm_hosts: &hosts,
            queue_depth: 0,
            seed: 0,
            peer_depths: &[(HostId(1), 1), (HostId(2), 40)],
            peer_affinity: &[(HostId(2), u64::MAX)],
        });
        assert_eq!(got, Placement::Forward(HostId(1)));
    }
}
