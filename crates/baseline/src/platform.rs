//! The container platform: a FAASM [`Cluster`] whose functions run in
//! containers instead of Faaslets.
//!
//! The stand-in for Knative on Kubernetes (§6.1) is the same runtime with
//! the other isolation mechanism: placement, bus, workers, warm pools,
//! start metrics, billing, the state tier and the fabric are the cluster's.
//! What is the container's: a cold start copies the host's image into a
//! private writable layer; state lands in private copies; a host refuses a
//! container that would take it past its memory limit (the OOM behind
//! Knative's collapse above ~30 parallel functions in Fig. 6a); and every
//! hop of a call carries HTTP framing.

use std::sync::Arc;

use faasm_core::{Cluster, ClusterConfig, FaasmInstance, FunctionDef, GuestCode, InstanceConfig};

use crate::container::{ContainerFn, ContainerGuest, Containers};
use crate::image::{publish_image, ImageConfig};

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Worker threads per host.
    pub workers: usize,
    /// Container image parameters.
    pub image: ImageConfig,
    /// Per-host memory budget; cold starts beyond it fail (OOM).
    pub host_memory_limit: usize,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig {
            hosts: 2,
            workers: 4,
            image: ImageConfig::default(),
            host_memory_limit: 2 * 1024 * 1024 * 1024,
        }
    }
}

/// The running container platform. It is a [`Cluster`], and every cluster
/// method (`invoke`, `fabric`, `kv`, `billable_gb_seconds`, …) applies.
pub struct BaselinePlatform {
    cluster: Cluster,
    containers: Arc<Containers>,
}

impl std::ops::Deref for BaselinePlatform {
    type Target = Cluster;

    fn deref(&self) -> &Cluster {
        &self.cluster
    }
}

impl BaselinePlatform {
    /// Start a platform with `hosts` hosts and default settings.
    pub fn new(hosts: usize) -> BaselinePlatform {
        BaselinePlatform::with_config(BaselineConfig {
            hosts,
            ..BaselineConfig::default()
        })
    }

    /// Start a platform from explicit configuration.
    pub fn with_config(config: BaselineConfig) -> BaselinePlatform {
        let cluster = Cluster::with_config(ClusterConfig {
            hosts: config.hosts,
            instance: InstanceConfig {
                workers: config.workers,
                ..InstanceConfig::default()
            },
            ..ClusterConfig::default()
        });
        publish_image(cluster.object_store(), &config.image);
        let containers = Arc::new(Containers::new(&cluster, config));
        BaselinePlatform {
            cluster,
            containers,
        }
    }

    /// Register a function.
    pub fn register(&self, user: &str, function: &str, guest: Arc<dyn ContainerGuest>) {
        let containers = Arc::clone(&self.containers);
        let def = FunctionDef {
            code: GuestCode::Container(Arc::new(ContainerFn { guest, containers })),
            entry: "main".into(),
            init: None,
            // A container keeps its private copies from call to call.
            reset_after_call: false,
        };
        let registered = self.cluster.register(user, function, def);
        registered.expect("a container has no exports to check");
    }

    /// The hosts: the cluster's runtime instances.
    pub fn hosts(&self) -> &[Arc<FaasmInstance>] {
        self.cluster.instances()
    }

    /// Resident container bytes across hosts.
    pub fn resident_bytes(&self) -> usize {
        self.containers.resident_bytes()
    }

    /// Evict all warm containers (force cold starts).
    pub fn evict_all(&self) {
        for host in self.hosts() {
            host.evict_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerApi;
    use faasm_core::CallStatus;
    use std::time::{Duration, Instant};

    fn echo_guest() -> Arc<dyn ContainerGuest> {
        Arc::new(|api: &mut ContainerApi<'_>| {
            let data = api.input().to_vec();
            api.write_output(&data);
            Ok(0)
        })
    }

    fn small_platform(hosts: usize) -> BaselinePlatform {
        BaselinePlatform::with_config(BaselineConfig {
            hosts,
            image: ImageConfig {
                image_bytes: 256 * 1024,
                layers: 3,
                boot_passes: 2,
            },
            ..BaselineConfig::default()
        })
    }

    #[test]
    fn end_to_end_invoke() {
        let p = small_platform(2);
        p.register("u", "echo", echo_guest());
        let r = p.invoke("u", "echo", b"container".to_vec());
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, b"container");
        assert_eq!(p.total_calls(), 1);
    }

    #[test]
    fn unknown_function_errors() {
        let p = small_platform(1);
        let r = p.invoke("u", "ghost", vec![]);
        assert!(matches!(r.status, CallStatus::Error(_)));
    }

    #[test]
    fn containers_kept_warm_and_evictable() {
        let p = small_platform(1);
        p.register("u", "echo", echo_guest());
        p.invoke("u", "echo", vec![1]);
        p.invoke("u", "echo", vec![2]);
        let m = p.hosts()[0].metrics();
        assert_eq!(m.cold_starts(), 1);
        assert_eq!(m.warm_starts(), 1);
        assert_eq!(p.hosts()[0].warm_count("u", "echo"), 1);
        p.evict_all();
        assert_eq!(p.hosts()[0].warm_count("u", "echo"), 0);
        p.invoke("u", "echo", vec![3]);
        assert_eq!(m.cold_starts(), 2, "eviction forces a cold start");
    }

    #[test]
    fn cold_start_is_slower_than_warm() {
        let p = small_platform(1);
        p.register("u", "echo", echo_guest());
        p.invoke("u", "echo", vec![0]);
        let cold_ns = p.hosts()[0].metrics().mean_init_ns();
        assert!(cold_ns > 10_000, "cold start does real work: {cold_ns} ns");
    }

    #[test]
    fn oom_at_memory_limit() {
        let p = BaselinePlatform::with_config(BaselineConfig {
            hosts: 1,
            image: ImageConfig {
                image_bytes: 512 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            // Budget for ~2 containers.
            host_memory_limit: 1100 * 1024,
            ..BaselineConfig::default()
        });
        // A guest that parks until told otherwise would be complex; instead
        // grow the pool by invoking distinct functions (each keeps one warm
        // container resident).
        p.register("u", "f1", echo_guest());
        p.register("u", "f2", echo_guest());
        p.register("u", "f3", echo_guest());
        assert_eq!(p.invoke("u", "f1", vec![]).status, CallStatus::Success);
        assert_eq!(p.invoke("u", "f2", vec![]).status, CallStatus::Success);
        let r = p.invoke("u", "f3", vec![]);
        assert!(
            matches!(&r.status, CallStatus::Error(e) if e.contains("OOM")),
            "third container must OOM: {:?}",
            r.status
        );
    }

    #[test]
    fn chaining_through_gateway() {
        let p = small_platform(2);
        p.register(
            "u",
            "child",
            Arc::new(|api: &mut ContainerApi<'_>| {
                let v = api.input()[0] * 2;
                api.write_output(&[v]);
                Ok(0)
            }),
        );
        p.register(
            "u",
            "parent",
            Arc::new(|api: &mut ContainerApi<'_>| {
                let input = api.input().to_vec();
                let id = api.chain("child", input);
                if api.await_call(id) != 0 {
                    return Err("child failed".into());
                }
                let out = api.call_output(id).unwrap()[0] + 1;
                api.write_output(&[out]);
                Ok(0)
            }),
        );
        let r = p.invoke("u", "parent", vec![20]);
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, vec![41]);
    }

    #[test]
    fn image_pulled_once_per_host() {
        let p = small_platform(2);
        p.register("u", "echo", echo_guest());
        for i in 0..6 {
            p.invoke("u", "echo", vec![i]);
        }
        // At most one pull per host (2 hosts).
        assert!(p.object_store().pulls() <= 2);
    }

    #[test]
    fn http_overhead_charged_per_hop() {
        let p = small_platform(1);
        p.register("u", "echo", echo_guest());
        let before = p.fabric().stats().snapshot();
        p.invoke("u", "echo", vec![0; 8]);
        // A sender's counters move after delivery, so the reply can wake
        // this thread before the replying host has counted it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let delta = loop {
            let delta = p.fabric().stats().snapshot().delta(&before);
            if delta.msgs_sent >= 2 || Instant::now() > deadline {
                break delta;
            }
            std::thread::yield_now();
        };
        // Invoke + result, each with ≥256 bytes HTTP overhead on top of the
        // protocol bytes.
        assert!(
            delta.bytes_sent >= 2 * 256,
            "HTTP framing must be charged: {delta:?}"
        );
    }

    #[test]
    fn billable_memory_charges_full_rss() {
        let p = small_platform(1);
        p.register("u", "echo", echo_guest());
        p.invoke("u", "echo", vec![0]);
        assert!(p.billable_gb_seconds() > 0.0);
        assert!(p.resident_bytes() >= 256 * 1024);
    }
}
