//! Containers and the container-side host interface.
//!
//! "All experiments are implemented using the same code for both FAASM and
//! Knative, with a Knative-specific implementation of the Faaslet host
//! interface for container-based code. This interface uses the same
//! underlying state management code as FAASM, but cannot share the local
//! tier between co-located functions" (§6.1). A [`ContainerApi`] therefore
//! offers the same operations as the Faaslet host interface, but every state
//! access goes to the global tier and lands in a **private, serialised
//! copy** — the data-shipping architecture of §2.1.
//!
//! On a cluster, a container takes a Faaslet's place through the runtime's
//! one seam, [`ContainerCode`]: the runtime places, queues, pools, times and
//! bills it, and the container keeps what is its own — the private image
//! copy, the private state copies, the host memory limit it is refused at
//! and the HTTP framing of its calls.

use std::collections::HashMap;
use std::sync::Arc;

use faasm_core::{Cluster, ContainerCode, FaasmInstance, Sandbox};
use faasm_kvs::{KvBackend, ShardedKvClient, SharedKv};
use faasm_net::HostId;
use faasm_sched::{CallId, CallResult, CallSpec};
use faasm_vfs::ObjectStore;
use parking_lot::Mutex;

use crate::image::{materialise_container, pull_image, ImageConfig};
use crate::platform::BaselineConfig;

/// Bytes of HTTP framing a container function's call carries on every hop
/// (request and result alike).
const HTTP_OVERHEAD_BYTES: usize = 256;

/// Chained-call routing for containers: the runtime's own router trait. On
/// a cluster it is the container's host instance, which places the call as
/// it places a Faaslet's and frames every hop of it in HTTP.
pub use faasm_core::ChainRouter as HttpRouter;

/// A guest function running in a container.
pub trait ContainerGuest: Send + Sync {
    /// Run one invocation; returns the call's return code.
    ///
    /// # Errors
    ///
    /// A message describing the failure.
    fn invoke(&self, api: &mut ContainerApi<'_>) -> Result<i32, String>;
}

impl<F> ContainerGuest for F
where
    F: Fn(&mut ContainerApi<'_>) -> Result<i32, String> + Send + Sync,
{
    fn invoke(&self, api: &mut ContainerApi<'_>) -> Result<i32, String> {
        self(api)
    }
}

/// Serialise/deserialise cost model: a byte-touching copy, so serialisation
/// is real work proportional to the data (the paper charges "repeated
/// serialisation" to container platforms, §1).
pub fn serialise(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut acc: u8 = 0;
    for &b in data {
        acc = acc.wrapping_add(b);
        out.push(b);
    }
    // Keep the checksum observable.
    std::hint::black_box(acc);
    out
}

/// One container: private writable layer and private state copies —
/// process-level isolation with no memory sharing.
pub struct Container {
    /// Container id on its host.
    pub id: u64,
    /// Owning user.
    pub user: String,
    /// Function name.
    pub function: String,
    /// Private writable layer (the image copy).
    writable: Vec<u8>,
    /// Private deserialised copies of state values.
    state_cache: HashMap<String, Vec<u8>>,
    kv: SharedKv,
    router: Arc<dyn HttpRouter>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("id", &self.id)
            .field("function", &self.function)
            .field("rss", &self.rss_bytes())
            .finish()
    }
}

impl Container {
    /// Cold-start a container: the real-work materialisation of the image.
    /// `kv` is its client of the global tier.
    pub fn cold_start<K: KvBackend + 'static>(
        id: u64,
        user: &str,
        function: &str,
        image: &[u8],
        config: &ImageConfig,
        kv: Arc<K>,
        router: Arc<dyn HttpRouter>,
    ) -> Container {
        let (writable, _checksum) = materialise_container(image, config);
        Container {
            id,
            user: user.to_string(),
            function: function.to_string(),
            writable,
            state_cache: HashMap::new(),
            kv,
            router,
        }
    }

    /// Resident set size: writable layer + private state copies. Containers
    /// are charged in full — nothing is shared (§6.2: billable memory grows
    /// with parallelism under Knative).
    pub fn rss_bytes(&self) -> usize {
        self.writable.len() + self.state_cache.values().map(Vec::len).sum::<usize>()
    }

    /// Proportional set size: image pages are shared with the host page
    /// cache across same-image containers, so PSS charges only the private
    /// state plus a fraction of the image (Tab. 3 distinguishes 1.3 MB PSS
    /// from 5 MB RSS for Docker).
    pub fn pss_bytes(&self, co_located_same_image: usize) -> f64 {
        let image_share = self.writable.len() as f64 / co_located_same_image.max(1) as f64;
        image_share + self.state_cache.values().map(Vec::len).sum::<usize>() as f64
    }

    /// Run one call.
    pub fn run(&mut self, guest: &dyn ContainerGuest, call_id: CallId, input: &[u8]) -> CallResult {
        let mut api = ContainerApi {
            input,
            output: Vec::new(),
            results: HashMap::new(),
            container: self,
        };
        match guest.invoke(&mut api) {
            Ok(0) => {
                let output = api.output;
                CallResult::success(call_id, output)
            }
            Ok(code) => CallResult {
                id: call_id,
                status: faasm_sched::CallStatus::Failed(code),
                output: api.output,
            },
            Err(msg) => CallResult::error(call_id, msg),
        }
    }
}

/// The host interface as containers see it: same operations, external state.
pub struct ContainerApi<'a> {
    input: &'a [u8],
    output: Vec<u8>,
    results: HashMap<CallId, CallResult>,
    container: &'a mut Container,
}

impl<'a> ContainerApi<'a> {
    /// The call's input.
    pub fn input(&self) -> &[u8] {
        self.input
    }

    /// Append output bytes.
    pub fn write_output(&mut self, data: &[u8]) {
        self.output.extend_from_slice(data);
    }

    /// Read a state range. The first access to a key fetches and privately
    /// caches the **entire value** (deserialised copy); later reads hit the
    /// private copy. This is the container data-shipping path: no
    /// co-located sharing, full-value transfer, serialisation both ways.
    ///
    /// # Errors
    ///
    /// Global-tier errors as strings.
    pub fn state_read(&mut self, key: &str, offset: usize, len: usize) -> Result<Vec<u8>, String> {
        if !self.container.state_cache.contains_key(key) {
            let raw = self
                .container
                .kv
                .get(key)
                .map_err(|e| e.to_string())?
                .unwrap_or_default();
            let copy = serialise(&raw);
            self.container.state_cache.insert(key.to_string(), copy);
        }
        let v = &self.container.state_cache[key];
        if offset >= v.len() {
            return Ok(Vec::new());
        }
        let end = (offset + len).min(v.len());
        Ok(v[offset..end].to_vec())
    }

    /// Write a state range: updates the private copy and writes through to
    /// the global tier (serialised) — "each function must write directly to
    /// external storage" (§6.2).
    ///
    /// # Errors
    ///
    /// Global-tier errors as strings.
    pub fn state_write(&mut self, key: &str, offset: usize, data: &[u8]) -> Result<(), String> {
        let cache = self
            .container
            .state_cache
            .entry(key.to_string())
            .or_default();
        if cache.len() < offset + data.len() {
            cache.resize(offset + data.len(), 0);
        }
        cache[offset..offset + data.len()].copy_from_slice(data);
        let wire = serialise(data);
        self.container
            .kv
            .set_range(key, offset as u64, wire)
            .map_err(|e| e.to_string())
    }

    /// Size of a global state value.
    ///
    /// # Errors
    ///
    /// Global-tier errors as strings.
    pub fn state_size(&self, key: &str) -> Result<usize, String> {
        self.container
            .kv
            .strlen(key)
            .map(|n| n as usize)
            .map_err(|e| e.to_string())
    }

    /// Chain a call: the cluster places it, and it travels HTTP-framed.
    pub fn chain(&mut self, function: &str, input: Vec<u8>) -> CallId {
        self.container
            .router
            .chain_call(&self.container.user, function, input)
    }

    /// Await a chained call; returns its return code.
    pub fn await_call(&mut self, id: CallId) -> i32 {
        let r = self.container.router.await_call(id);
        let code = r.return_code();
        self.results.insert(id, r);
        code
    }

    /// Output of an awaited chained call.
    pub fn call_output(&self, id: CallId) -> Option<&[u8]> {
        self.results.get(&id).map(|r| r.output.as_slice())
    }
}

/// What one host keeps for its containers: a client of the cluster's
/// sharded state tier, the image (pulled from the registry once) and the
/// bytes its containers hold against the memory limit.
struct Host {
    tier: Arc<ShardedKvClient>,
    image: Mutex<Option<Arc<Vec<u8>>>>,
    resident: Mutex<usize>,
}

impl Host {
    /// Replace a charge of `from` bytes with one of `to`.
    fn recharge(&self, from: usize, to: usize) {
        let mut resident = self.resident.lock();
        *resident = resident.saturating_sub(from) + to;
    }
}

/// A cluster's container isolation, shared by every function run with it.
pub(crate) struct Containers {
    config: BaselineConfig,
    hosts: HashMap<HostId, Arc<Host>>,
    /// The image registry: the cluster's object store.
    registry: Arc<ObjectStore>,
}

impl Containers {
    /// Containers for every host of `cluster`.
    pub(crate) fn new(cluster: &Cluster, config: BaselineConfig) -> Containers {
        let host = |instance: &Arc<FaasmInstance>| {
            let routing = Arc::clone(cluster.state_routing());
            let host = Host {
                tier: Arc::new(ShardedKvClient::connect(instance.nic().clone(), routing)),
                image: Mutex::new(None),
                resident: Mutex::new(0),
            };
            (instance.host_id(), Arc::new(host))
        };
        Containers {
            hosts: cluster.instances().iter().map(host).collect(),
            registry: Arc::clone(cluster.object_store()),
            config,
        }
    }

    /// Resident container bytes across hosts.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.hosts.values().map(|host| *host.resident.lock()).sum()
    }
}

/// One function's code on a cluster: its guest, run in containers.
pub(crate) struct ContainerFn {
    pub(crate) guest: Arc<dyn ContainerGuest>,
    pub(crate) containers: Arc<Containers>,
}

impl ContainerCode for ContainerFn {
    fn cold_start(
        &self,
        id: u64,
        user: &str,
        function: &str,
        instance: &Arc<FaasmInstance>,
    ) -> Result<Box<dyn Sandbox>, String> {
        let containers = &self.containers;
        let config = &containers.config;
        let host = containers.hosts.get(&instance.host_id());
        let host = Arc::clone(host.ok_or("the host is not one of this platform's")?);
        // Reserve the image under the lock, so concurrent cold starts cannot
        // jointly overshoot the limit (§6.2's OOM at high parallelism).
        let reserved = config.image.image_bytes;
        {
            let mut resident = host.resident.lock();
            let projected = *resident + reserved;
            if projected > config.host_memory_limit {
                let limit = config.host_memory_limit;
                return Err(format!(
                    "OOMKilled: container would exceed host memory ({projected} > {limit})"
                ));
            }
            *resident = projected;
        }
        // Registry pull, once per host (counted by the object store).
        let image = {
            let mut image = host.image.lock();
            if image.is_none() {
                *image = pull_image(&containers.registry);
            }
            image.clone()
        };
        let Some(image) = image else {
            host.recharge(reserved, 0);
            return Err("image missing from registry".to_string());
        };
        let tier = Arc::clone(&host.tier);
        let router = Arc::clone(instance) as Arc<dyn HttpRouter>;
        let container =
            Container::cold_start(id, user, function, &image, &config.image, tier, router);
        // The reservation becomes the container's actual footprint.
        let charged = container.rss_bytes();
        host.recharge(reserved, charged);
        let guest = Arc::clone(&self.guest);
        Ok(Box::new(Hosted {
            container,
            guest,
            host,
            charged,
        }))
    }

    fn http_overhead(&self) -> usize {
        HTTP_OVERHEAD_BYTES
    }
}

/// A container charged to its host for as long as it lives, busy or idle.
struct Hosted {
    container: Container,
    guest: Arc<dyn ContainerGuest>,
    host: Arc<Host>,
    charged: usize,
}

impl Sandbox for Hosted {
    fn run(&mut self, call: &CallSpec) -> CallResult {
        let result = self
            .container
            .run(self.guest.as_ref(), call.id, &call.input);
        // Charge the growth of its private state copies.
        let rss = self.container.rss_bytes();
        self.host
            .recharge(std::mem::replace(&mut self.charged, rss), rss);
        result
    }

    fn rss_bytes(&self) -> usize {
        self.container.rss_bytes()
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        self.host.recharge(self.charged, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_kvs::{KvClient, KvStore};
    use faasm_sched::CallStatus;

    struct NoHttp;
    impl HttpRouter for NoHttp {
        fn chain_call(&self, _u: &str, _f: &str, _i: Vec<u8>) -> CallId {
            CallId(0)
        }
        fn await_call(&self, id: CallId) -> CallResult {
            CallResult::error(id, "no gateway")
        }
    }

    fn container() -> (Arc<KvClient>, Container) {
        let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
        let image = vec![7u8; 64 * 1024];
        let cfg = ImageConfig {
            image_bytes: image.len(),
            layers: 2,
            boot_passes: 1,
        };
        let c = Container::cold_start(1, "u", "f", &image, &cfg, Arc::clone(&kv), Arc::new(NoHttp));
        (kv, c)
    }

    #[test]
    fn run_guest_with_io() {
        let (_kv, mut c) = container();
        let guest = |api: &mut ContainerApi<'_>| {
            let doubled: Vec<u8> = api.input().iter().map(|b| b * 3).collect();
            api.write_output(&doubled);
            Ok(0)
        };
        let r = c.run(&guest, CallId(1), &[1, 2]);
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, vec![3, 6]);
    }

    #[test]
    fn guest_failure_codes() {
        let (_kv, mut c) = container();
        let fail = |_api: &mut ContainerApi<'_>| Ok(9);
        assert_eq!(c.run(&fail, CallId(1), &[]).status, CallStatus::Failed(9));
        let err = |_api: &mut ContainerApi<'_>| Err("boom".to_string());
        assert!(matches!(
            c.run(&err, CallId(2), &[]).status,
            CallStatus::Error(_)
        ));
    }

    #[test]
    fn state_read_fetches_whole_value_privately() {
        let (kv, mut c) = container();
        kv.set("big", vec![5u8; 10_000]).unwrap();
        let rss_before = c.rss_bytes();
        let guest = |api: &mut ContainerApi<'_>| {
            // Read just 10 bytes...
            let part = api.state_read("big", 100, 10)?;
            assert_eq!(part, vec![5u8; 10]);
            Ok(0)
        };
        c.run(&guest, CallId(1), &[]);
        // ...but the whole 10 kB value was shipped and cached privately.
        assert_eq!(c.rss_bytes(), rss_before + 10_000);
    }

    #[test]
    fn state_write_goes_to_global_tier() {
        let (kv, mut c) = container();
        let guest = |api: &mut ContainerApi<'_>| {
            api.state_write("out", 4, &[9u8; 4])?;
            Ok(0)
        };
        c.run(&guest, CallId(1), &[]);
        assert_eq!(
            kv.get("out").unwrap().unwrap(),
            vec![0, 0, 0, 0, 9, 9, 9, 9]
        );
    }

    #[test]
    fn no_sharing_between_containers() {
        let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
        let image = vec![0u8; 1024];
        let cfg = ImageConfig {
            image_bytes: 1024,
            layers: 1,
            boot_passes: 1,
        };
        let mut c1 =
            Container::cold_start(1, "u", "f", &image, &cfg, Arc::clone(&kv), Arc::new(NoHttp));
        let mut c2 =
            Container::cold_start(2, "u", "f", &image, &cfg, Arc::clone(&kv), Arc::new(NoHttp));
        kv.set("k", b"v1".to_vec()).unwrap();
        let read_guest = |api: &mut ContainerApi<'_>| {
            let v = api.state_read("k", 0, 2)?;
            api.write_output(&v);
            Ok(0)
        };
        assert_eq!(c1.run(&read_guest, CallId(1), &[]).output, b"v1");
        // A write by c2 through the global tier...
        let write_guest = |api: &mut ContainerApi<'_>| {
            api.state_write("k", 0, b"v2")?;
            Ok(0)
        };
        c2.run(&write_guest, CallId(2), &[]);
        // ...is NOT visible to c1's stale private copy (unlike the Faaslet
        // shared local tier).
        assert_eq!(c1.run(&read_guest, CallId(3), &[]).output, b"v1");
        // Only a fresh container sees the update.
        let mut c3 =
            Container::cold_start(3, "u", "f", &image, &cfg, Arc::clone(&kv), Arc::new(NoHttp));
        assert_eq!(c3.run(&read_guest, CallId(4), &[]).output, b"v2");
    }

    #[test]
    fn pss_shares_image_but_not_state() {
        let (kv, mut c) = container();
        kv.set("s", vec![1u8; 1000]).unwrap();
        let guest = |api: &mut ContainerApi<'_>| {
            api.state_read("s", 0, 1)?;
            Ok(0)
        };
        c.run(&guest, CallId(1), &[]);
        let pss_alone = c.pss_bytes(1);
        let pss_shared = c.pss_bytes(4);
        assert!(pss_shared < pss_alone);
        // State copies are charged in full either way.
        assert!(pss_shared >= 1000.0);
    }

    #[test]
    fn counter_and_state_size() {
        let (kv, mut c) = container();
        kv.set("sz", vec![0u8; 77]).unwrap();
        let guest = |api: &mut ContainerApi<'_>| {
            assert_eq!(api.state_size("sz")?, 77);
            Ok(0)
        };
        let r = c.run(&guest, CallId(1), &[]);
        assert_eq!(r.status, CallStatus::Success);
    }
}
