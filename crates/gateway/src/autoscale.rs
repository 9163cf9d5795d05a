//! The gateway autoscaler: queue depth in, warm-pool size out.
//!
//! Every [`INTERVAL`] the autoscaler samples the per-function backlog of the
//! pending queue. Functions with deep backlogs get Faaslets pre-warmed on
//! the least-loaded instance (through the Proto-Faaslet restore path, so
//! the pre-warm itself is microseconds); functions whose backlog has
//! drained to zero have surplus idle Faaslets retired so the host memory
//! (the billable-memory curve of Fig. 6c) tracks demand.

use std::sync::Arc;
use std::time::Duration;

use faasm_core::FaasmInstance;
use faasm_net::HostId;
use faasm_sched::{entry_for, Candidate, SchedBoards};

/// Autoscaler tuning.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Backlog (queued requests for one function) above which Faaslets are
    /// pre-warmed.
    pub backlog_high: usize,
    /// Hard cap on pooled Faaslets per function across the cluster.
    pub max_warm: usize,
    /// Global-tier scale-up trigger: when the KVS ops served per shard in
    /// one sampling interval exceed this, the autoscaler adds a state
    /// shard live (`Cluster::add_state_shard`, Cloudburst-style storage
    /// autoscaling). `None` disables tier scaling.
    pub tier_ops_high: Option<u64>,
    /// Hard cap on state shards the autoscaler may grow the tier to.
    pub tier_max_shards: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            backlog_high: 4,
            max_warm: 64,
            tier_ops_high: None,
            tier_max_shards: 8,
        }
    }
}

/// The autoscaler's sampling period (real time: the wait between ticks).
pub const INTERVAL: Duration = Duration::from_millis(10);

/// Faaslets pre-warmed per backlog trigger.
pub(crate) const SCALE_STEP: usize = 2;

/// Idle Faaslets kept per function once its backlog drains.
pub(crate) const IDLE_TARGET: usize = 1;

/// Whether one sampling interval's tier load warrants adding a shard:
/// `ops_delta` KVS ops were served since the previous tick across
/// `shard_count` shards. Pure decision logic, unit-testable without a
/// cluster.
pub fn tier_scale_wanted(ops_delta: u64, shard_count: usize, cfg: &AutoscaleConfig) -> bool {
    let Some(high) = cfg.tier_ops_high else {
        return false;
    };
    shard_count > 0 && shard_count < cfg.tier_max_shards && ops_delta / shard_count as u64 > high
}

/// Pre-warm `count` Faaslets for a function, spread one at a time across
/// the instances best placement score first — instead of aiming the whole
/// step at a single host, so calls placed on other hosts later also land
/// warm. The score is the scheduler's own ([`Candidate::score`]) over
/// run-queue depth and (given `boards`) the function's hot-key affinity: a
/// host whose state cache already holds the function's working set beats
/// an equally-loaded stranger. Idle warmth is left out — a pre-warm adds
/// it, so a host that already has some is no better a target.
///
/// Before warming, the step's targets are **pre-staged**: the function's
/// chunk manifest is pushed to them over the bus, so hosts that don't yet
/// hold the proto pull its pages into their page stores and the
/// pre-warmed Faaslets restore from warm bytes instead of cold-starting.
///
/// Returns how many Faaslets were actually created.
pub fn spread_prewarm(
    instances: &[Arc<FaasmInstance>],
    boards: Option<&SchedBoards>,
    user: &str,
    function: &str,
    count: usize,
) -> usize {
    // Like placement, never a stopped host: its state-tier client can no
    // longer be answered, and its pool must stay empty.
    let mut order: Vec<&Arc<FaasmInstance>> =
        instances.iter().filter(|i| !i.is_stopped()).collect();
    if order.is_empty() || count == 0 {
        return 0;
    }
    let hosts: Vec<HostId> = order.iter().map(|i| i.host_id()).collect();
    let affinity = boards.map_or(Vec::new(), |b| b.affinities(user, function, &hosts));
    order.sort_by_cached_key(|i| {
        let candidate = Candidate {
            idle_warm: None,
            depth: i.queue_depth(),
            affinity: entry_for(&affinity, i.host_id()),
        };
        std::cmp::Reverse(candidate.score())
    });
    // Pre-stage before warming: push the manifest to every target that
    // does not already hold the proto. Best-effort — with nothing
    // published yet the pushes are no-ops and the first pre-warm below
    // captures and publishes.
    let targets = count.min(order.len());
    for target in &order[..targets] {
        if !target.has_proto(user, function) {
            let _ = order[0].push_prestage(user, function, target.host_id());
        }
    }
    let mut created = 0;
    for k in 0..count {
        if let Ok(n) = order[k % order.len()].prewarm(user, function, 1) {
            created += n;
        }
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_core::Cluster;

    const ECHO: &str = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            int n = input_size();
            read_call_input((ptr int) 1024, n);
            write_call_output((ptr int) 1024, n);
            return 0;
        }
    "#;

    #[test]
    fn tier_scale_decision_tracks_per_shard_load() {
        let cfg = AutoscaleConfig {
            tier_ops_high: Some(100),
            tier_max_shards: 4,
            ..AutoscaleConfig::default()
        };
        // Below the per-shard threshold: no scale.
        assert!(!tier_scale_wanted(150, 2, &cfg));
        // Above it: scale.
        assert!(tier_scale_wanted(300, 2, &cfg));
        // At the shard cap: never scale, whatever the load.
        assert!(!tier_scale_wanted(10_000, 4, &cfg));
        // Disabled by default.
        assert!(!tier_scale_wanted(10_000, 1, &AutoscaleConfig::default()));
        // Degenerate shard counts never divide by zero.
        assert!(!tier_scale_wanted(10_000, 0, &cfg));
    }

    #[test]
    fn prewarm_step_spreads_across_instances() {
        let cluster = Cluster::new(3);
        cluster
            .upload_fl("u", "echo", ECHO, Default::default())
            .unwrap();
        // Prime the proto so pre-warms restore instead of cold starting.
        cluster.invoke("u", "echo", vec![1]);
        let created = spread_prewarm(cluster.instances(), None, "u", "echo", 3);
        assert_eq!(created, 3);
        for (i, inst) in cluster.instances().iter().enumerate() {
            assert!(
                inst.warm_count("u", "echo") >= 1,
                "instance {i} got no pre-warm: the step must spread, not pile up"
            );
        }
        // A larger step wraps around the rotation instead of stopping.
        let more = spread_prewarm(cluster.instances(), None, "u", "echo", 5);
        assert_eq!(more, 5);
        let total: usize = cluster
            .instances()
            .iter()
            .map(|i| i.warm_count("u", "echo"))
            .sum();
        assert!(
            total >= 8,
            "3 + 5 pre-warms pooled (plus the primer), got {total}"
        );
    }

    #[test]
    fn prewarm_prefers_affine_hosts_among_equals() {
        let cluster = Cluster::new(3);
        cluster
            .upload_fl("u", "echo", ECHO, Default::default())
            .unwrap();
        cluster.invoke("u", "echo", vec![1]);
        // All three instances are idle and equally loaded; report hot-key
        // affinity for the *last* one, which load order alone would never
        // prefer.
        let affine = cluster.instances()[2].host_id();
        cluster
            .boards()
            .report_affinity("u", "echo", affine, &[("state/u/hot".into(), 50)]);
        let before = cluster.instances()[2].warm_count("u", "echo");
        let created = spread_prewarm(cluster.instances(), Some(cluster.boards()), "u", "echo", 1);
        assert_eq!(created, 1);
        assert_eq!(
            cluster.instances()[2].warm_count("u", "echo"),
            before + 1,
            "a one-Faaslet step must land on the affine host"
        );
    }

    #[test]
    fn prewarm_prestages_targets_through_the_bus() {
        let cluster = Cluster::new(3);
        cluster
            .upload_fl("u", "echo", ECHO, Default::default())
            .unwrap();
        // One host captures and publishes; nobody else holds the proto.
        let a = &cluster.instances()[0];
        let r = a.invoke_local("u", "echo", vec![1]);
        assert_eq!(r.status, faasm_core::CallStatus::Success);
        let created = spread_prewarm(cluster.instances(), None, "u", "echo", 3);
        assert_eq!(created, 3);
        // Every target got a manifest push (counted even when the pre-warm's
        // own synchronous fetch wins the race to install the proto), and no
        // host compiled from scratch. The push is asynchronous, so poll.
        let prestaged = |cluster: &Cluster| cluster.telemetry().get("snapdist", "prestages");
        let t0 = std::time::Instant::now();
        while prestaged(&cluster) < 2 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::yield_now();
        }
        let got = prestaged(&cluster);
        assert!(got >= 2, "cold targets were pre-staged: {got}");
        for (i, inst) in cluster.instances().iter().enumerate() {
            assert!(inst.has_proto("u", "echo") || inst.warm_count("u", "echo") > 0);
            assert_eq!(
                inst.metrics().cold_starts(),
                u64::from(i == 0),
                "only the publisher ever cold-started"
            );
        }
    }
}
