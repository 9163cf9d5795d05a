//! The placement score (§5.1): the one place idle warmth, run-queue depth
//! and state affinity are combined into a ranking of hosts. The cluster's
//! ingress placement, [`decide`](crate::decide)'s forward target and the
//! autoscaler's pre-warm order all rank with it.

use crate::decide::QUEUE_SHARE_THRESHOLD;

/// What a placement knows about one candidate host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Candidate {
    /// The host's warmth for the function: `None` when it holds no Faaslet
    /// for it (a call placed there fetches the proto or cold-starts, and
    /// grows another host's memory), else how many of its Faaslets are
    /// idle (a call placed there starts at once).
    pub idle_warm: Option<usize>,
    /// Calls the host has accepted but not started executing.
    pub depth: usize,
    /// The affinity board's score for the function on the host (how much
    /// of its working set the host's state cache recently served).
    pub affinity: u64,
}

/// What one idle Faaslet adds to a score and one accepted, unstarted call
/// takes off it, in steps of log-scaled affinity. They cancel because the
/// waiting call will claim the Faaslet: what counts is idle Faaslets not
/// yet spoken for. Load dominates cache warmth (the affinity bonus is
/// capped at 64, so a host 17 calls deeper never wins on it); affinity
/// settles close calls.
const SLOT: i64 = 4;

/// What being warm at all adds: a call costs such a host a local restore at
/// worst. It is worth the queue a warm host absorbs before [`decide`]
/// shares its calls, so a function stays on the hosts that already hold it
/// until they are that far behind a cold one.
///
/// [`decide`]: crate::decide
const WARM: i64 = SLOT * QUEUE_SHARE_THRESHOLD as i64;

/// Log-scale an affinity score so raw hit counts cannot starve load
/// balancing: 0 → 0, else `⌊log2⌋ + 1` (bounded by 64).
fn affinity_bonus(affinity: u64) -> i64 {
    i64::from(64 - affinity.leading_zeros())
}

impl Candidate {
    /// The host's placement score; higher is better.
    pub fn score(&self) -> i64 {
        let slots = |n: usize| i64::try_from(n).map_or(i64::MAX, |n| n.saturating_mul(SLOT));
        self.idle_warm
            .map_or(0, |idle| WARM.saturating_add(slots(idle)))
            .saturating_sub(slots(self.depth))
            .saturating_add(affinity_bonus(self.affinity))
    }
}

/// Index of the best-scoring candidate, `seed`-rotating among equals so
/// repeated placements spread over tied hosts. `None` when there are no
/// candidates.
pub fn best(candidates: &[Candidate], seed: usize) -> Option<usize> {
    let top = candidates.iter().map(Candidate::score).max()?;
    let tied: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].score() == top)
        .collect();
    Some(tied[seed % tied.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn score_orders_hosts_the_way_every_chooser_relies_on(
            host in (0usize..1 << 20, 0usize..1 << 20, any::<u64>()),
            more in 1usize..1 << 10,
            ties in (1usize..64, 1usize..6, any::<usize>()),
        ) {
            let (idle, depth, affinity) = host;
            let idle_warm = Some(idle);
            let (worse_by, tied, seed) = ties;
            let c = Candidate { idle_warm, depth, affinity };
            // Warmer and more affine never hurt; deeper always does.
            let cold = Candidate { idle_warm: None, ..c };
            let busy = Candidate { idle_warm: Some(0), ..c };
            let warmer = Candidate { idle_warm: Some(idle + more), ..c };
            prop_assert!(cold.score() <= busy.score() && busy.score() <= c.score());
            prop_assert!(c.score() <= warmer.score());
            prop_assert!(Candidate { affinity: affinity.saturating_add(more as u64), ..c }.score() >= c.score());
            prop_assert!(Candidate { depth: depth + more, ..c }.score() < c.score());
            // Load dominates cache warmth: the largest affinity there is
            // never outranks an otherwise equal peer 39 calls shallower.
            let drowning = Candidate { idle_warm, depth: depth + 39, affinity: u64::MAX };
            let stranger = Candidate { idle_warm, depth, affinity: 0 };
            prop_assert!(drowning.score() < stranger.score());
            // `best` never picks a lower score, and consecutive seeds visit
            // every tied host once before repeating.
            let loser = Candidate { depth: depth + worse_by, ..c };
            let mut hosts = vec![loser];
            hosts.extend(std::iter::repeat_n(c, tied));
            hosts.push(loser);
            let mut picks: Vec<usize> = (0..tied)
                .map(|k| best(&hosts, seed.wrapping_add(k)).expect("non-empty"))
                .collect();
            picks.sort_unstable();
            prop_assert_eq!(picks, (1..=tied).collect::<Vec<_>>());
            prop_assert_eq!(best(&[], seed), None);
        }
    }
}
