//! The container platform: hosts, HTTP-style gateway and autoscaling pools.
//!
//! The stand-in for Knative on Kubernetes (§6.1): an ingress
//! gateway round-robins calls over hosts; each host runs containers from a
//! shared image, keeps finished containers warm, and refuses new containers
//! once its memory limit is reached (the OOM behaviour behind Knative's
//! collapse above ~30 parallel functions in Fig. 6a). Function chaining goes
//! back through the gateway with per-call HTTP framing overhead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use faasm_core::msg::{decode_msg, encode_msg, InstanceMsg};
use faasm_core::{Metrics, Pending, StartKind};
use faasm_kvs::{KvClient, KvServer, SharedKv};
use faasm_net::wire::{put_bytes, Reader};
use faasm_net::{Fabric, HostId, Nic};
use faasm_sched::{CallId, CallResult, CallSpec, RoundRobin};
use faasm_vfs::ObjectStore;
use parking_lot::Mutex;

use crate::container::{Container, ContainerGuest, HttpRouter};
use crate::image::{publish_image, pull_image, ImageConfig};

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
    /// Extra bytes charged per gateway hop (HTTP framing).
    pub http_overhead_bytes: usize,
    /// Synchronous invoke timeout.
    pub invoke_timeout: Duration,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig {
            hosts: 2,
            workers: 4,
            image: ImageConfig::default(),
            host_memory_limit: 2 * 1024 * 1024 * 1024,
            http_overhead_bytes: 256,
            invoke_timeout: Duration::from_secs(60),
        }
    }
}

/// KVS server worker threads.
const KVS_WORKERS: usize = 2;

/// Frame a protocol message with HTTP-style padding overhead.
fn frame(msg: &InstanceMsg, overhead: usize) -> Vec<u8> {
    let body = encode_msg(msg);
    let mut out = Vec::with_capacity(4 + body.len() + overhead);
    put_bytes(&mut out, &body);
    out.resize(out.len() + overhead, 0);
    out
}

/// Strip HTTP framing.
fn unframe(buf: &[u8]) -> Option<InstanceMsg> {
    decode_msg(Reader::new(buf).bytes().ok()?)
}

type FnKey = (String, String);

/// The platform-wide function registry.
#[derive(Default)]
pub struct BaselineRegistry {
    guests: Mutex<HashMap<FnKey, Arc<dyn ContainerGuest>>>,
}

impl BaselineRegistry {
    fn get(&self, user: &str, function: &str) -> Option<Arc<dyn ContainerGuest>> {
        self.guests
            .lock()
            .get(&(user.to_string(), function.to_string()))
            .cloned()
    }
}

struct QueuedCall {
    call: CallSpec,
    reply_to: HostId,
}

/// One baseline host running containers.
pub struct BaselineHost {
    /// Weak self, so `&self` trait methods can reach the `Arc<Self>`
    /// execute path.
    me: Weak<BaselineHost>,
    host_id: HostId,
    nic: Nic,
    kv: Arc<KvClient>,
    registry: Arc<BaselineRegistry>,
    object_store: Arc<ObjectStore>,
    image: Mutex<Option<Arc<Vec<u8>>>>,
    pool: Mutex<HashMap<FnKey, Vec<Container>>>,
    resident_bytes: Mutex<usize>,
    queue_tx: Sender<QueuedCall>,
    queue_rx: Receiver<QueuedCall>,
    pending: Arc<Pending>,
    metrics: Arc<Metrics>,
    next_container: AtomicU64,
    call_seq: Arc<AtomicU64>,
    routing: Arc<RoundRobin>,
    config: BaselineConfig,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for BaselineHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineHost")
            .field("host", &self.host_id)
            .finish()
    }
}

impl BaselineHost {
    fn start(
        fabric: &Fabric,
        kvs_host: HostId,
        object_store: Arc<ObjectStore>,
        registry: Arc<BaselineRegistry>,
        call_seq: Arc<AtomicU64>,
        routing: Arc<RoundRobin>,
        config: BaselineConfig,
    ) -> Arc<BaselineHost> {
        let nic = fabric.add_host();
        let kv = Arc::new(KvClient::connect(nic.clone(), kvs_host));
        let (queue_tx, queue_rx) = unbounded();
        let host = Arc::new_cyclic(|me| BaselineHost {
            me: Weak::clone(me),
            host_id: nic.id(),
            nic,
            kv,
            registry,
            object_store,
            image: Mutex::new(None),
            pool: Mutex::new(HashMap::new()),
            resident_bytes: Mutex::new(0),
            queue_tx,
            queue_rx,
            pending: Arc::new(Pending::default()),
            metrics: Arc::new(Metrics::new()),
            next_container: AtomicU64::new(1),
            call_seq,
            routing,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
        });
        {
            let h = Arc::clone(&host);
            let handle = std::thread::Builder::new()
                .name(format!("bl-{}-bus", h.host_id))
                .spawn(move || h.bus_loop())
                .expect("spawn bus");
            host.threads.lock().push(handle);
        }
        for w in 0..host.config.workers {
            let h = Arc::clone(&host);
            let handle = std::thread::Builder::new()
                .name(format!("bl-{}-w{}", h.host_id, w))
                .spawn(move || h.worker_loop())
                .expect("spawn worker");
            host.threads.lock().push(handle);
        }
        host
    }

    /// This host's id.
    pub fn host_id(&self) -> HostId {
        self.host_id
    }

    /// Host metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Total resident container bytes on this host.
    pub fn resident_bytes(&self) -> usize {
        *self.resident_bytes.lock()
    }

    /// Number of idle (warm) containers.
    pub fn pooled_containers(&self) -> usize {
        self.pool.lock().values().map(Vec::len).sum()
    }

    /// Drop all warm containers (scale to zero).
    pub fn evict_all(&self) {
        let mut pool = self.pool.lock();
        let freed: usize = pool
            .values()
            .flat_map(|v| v.iter().map(Container::rss_bytes))
            .sum();
        pool.clear();
        let mut resident = self.resident_bytes.lock();
        *resident = resident.saturating_sub(freed);
    }

    fn bus_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::Relaxed) {
            match self.nic.recv_timeout(Duration::from_millis(20)) {
                Ok(env) => match unframe(&env.payload) {
                    Some(InstanceMsg::Invoke { call, reply_to, .. }) => {
                        let _ = self.queue_tx.send(QueuedCall { call, reply_to });
                    }
                    Some(InstanceMsg::Result { result }) => self.pending.fulfill(result),
                    // The container baseline has no batch submit path; a
                    // batched message still executes every call (protocol
                    // compatibility with the FAASM ingress tier).
                    Some(InstanceMsg::InvokeBatch {
                        calls, reply_to, ..
                    }) => {
                        for call in calls {
                            let _ = self.queue_tx.send(QueuedCall { call, reply_to });
                        }
                    }
                    // Containers have no snapshot plane to pre-stage into.
                    Some(InstanceMsg::PreStage { .. }) => {}
                    None => {}
                },
                Err(faasm_net::NetError::Timeout) => {}
                Err(_) => break,
            }
        }
    }

    fn worker_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::Relaxed) {
            match self.queue_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(q) => self.execute(q),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    fn host_image(&self) -> Option<Arc<Vec<u8>>> {
        if let Some(img) = self.image.lock().as_ref() {
            return Some(Arc::clone(img));
        }
        // Registry pull, once per host (counted by the object store).
        let img = pull_image(&self.object_store)?;
        *self.image.lock() = Some(Arc::clone(&img));
        Some(img)
    }

    /// Obtain a container; returns it plus its start kind, init time and
    /// RSS at checkout (so post-run growth can be charged accurately).
    /// Busy containers stay in the resident accounting — a container's
    /// memory is held for its whole lifetime, not just while pooled.
    fn checkout(
        self: &Arc<Self>,
        key: &FnKey,
    ) -> Result<(Container, StartKind, u64, usize), String> {
        if let Some(c) = self.pool.lock().get_mut(key).and_then(Vec::pop) {
            let before = c.rss_bytes();
            return Ok((c, StartKind::Warm, 0, before));
        }
        // Cold start: reserve the image's worth of memory under the lock so
        // concurrent admissions cannot jointly overshoot (the OOM behaviour
        // of §6.2 at high parallelism).
        {
            let mut resident = self.resident_bytes.lock();
            let projected = *resident + self.config.image.image_bytes;
            if projected > self.config.host_memory_limit {
                return Err(format!(
                    "OOMKilled: container would exceed host memory ({projected} > {})",
                    self.config.host_memory_limit
                ));
            }
            *resident = projected;
        }
        let image = match self.host_image() {
            Some(i) => i,
            None => {
                let mut resident = self.resident_bytes.lock();
                *resident = resident.saturating_sub(self.config.image.image_bytes);
                return Err("image missing from registry".to_string());
            }
        };
        let t0 = Instant::now();
        let c = Container::cold_start(
            self.next_container.fetch_add(1, Ordering::Relaxed),
            &key.0,
            &key.1,
            &image,
            &self.config.image,
            Arc::clone(&self.kv),
            Arc::clone(self) as Arc<dyn HttpRouter>,
        );
        let before = c.rss_bytes();
        {
            // Replace the reservation with the actual footprint.
            let mut resident = self.resident_bytes.lock();
            *resident = resident.saturating_sub(self.config.image.image_bytes) + before;
        }
        Ok((c, StartKind::Cold, t0.elapsed().as_nanos() as u64, before))
    }

    fn execute(self: &Arc<Self>, q: QueuedCall) {
        let key = (q.call.user.clone(), q.call.function.clone());
        let Some(guest) = self.registry.get(&key.0, &key.1) else {
            self.deliver(
                CallResult::error(q.call.id, format!("unknown function {}/{}", key.0, key.1)),
                q.reply_to,
            );
            return;
        };
        let (mut container, kind, init_ns, rss_before) = match self.checkout(&key) {
            Ok(c) => c,
            Err(e) => {
                self.deliver(CallResult::error(q.call.id, e), q.reply_to);
                return;
            }
        };
        self.metrics.record_start(kind, init_ns);

        let t0 = Instant::now();
        let result = container.run(guest.as_ref(), q.call.id, &q.call.input);
        let exec_ns = t0.elapsed().as_nanos() as u64;
        // Containers are billed their full RSS — no page sharing with
        // co-located functions (§6.2).
        let rss_after = container.rss_bytes();
        self.metrics.record_call(exec_ns, 0, 0, rss_after as f64);

        // Charge state-cache growth and keep warm.
        {
            let mut resident = self.resident_bytes.lock();
            *resident = resident.saturating_sub(rss_before) + rss_after;
        }
        self.pool.lock().entry(key).or_default().push(container);
        self.deliver(result, q.reply_to);
    }

    fn deliver(&self, result: CallResult, reply_to: HostId) {
        if reply_to == self.host_id {
            self.pending.fulfill(result);
        } else {
            let msg = frame(
                &InstanceMsg::Result { result },
                self.config.http_overhead_bytes,
            );
            let _ = self.nic.send(reply_to, msg);
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        // Shutdown can run on one of these threads (a completion path
        // releasing the last handle to the platform): never self-join.
        let me = std::thread::current().id();
        for h in handles.into_iter().filter(|h| h.thread().id() != me) {
            let _ = h.join();
        }
        self.pool.lock().clear();
    }
}

impl HttpRouter for BaselineHost {
    fn chain_call(&self, user: &str, function: &str, input: Vec<u8>) -> CallId {
        let id = CallId(self.call_seq.fetch_add(1, Ordering::Relaxed));
        self.pending.register(id.0);
        let call = CallSpec {
            id,
            user: user.to_string(),
            function: function.to_string(),
            input,
            trace: faasm_sched::TraceCtx::NONE,
        };
        // Chaining goes back through the gateway: pick any host (including
        // possibly ourselves) and pay HTTP framing for the hop.
        let target = self.routing.next().unwrap_or(self.host_id);
        let msg = frame(
            &InstanceMsg::Invoke {
                call,
                reply_to: self.host_id,
                forwarded: true,
            },
            self.config.http_overhead_bytes,
        );
        if self.nic.send(target, msg).is_err() {
            self.pending
                .fulfill(CallResult::error(id, "gateway unreachable"));
        }
        id
    }

    fn await_call(&self, id: CallId) -> CallResult {
        loop {
            if let Some(r) = self.pending.try_take(id.0) {
                return r;
            }
            // Help execute queued work to avoid worker-pool deadlocks on
            // deep chains.
            if let Ok(q) = self.queue_rx.try_recv() {
                if let Some(me) = self.me.upgrade() {
                    me.execute(q);
                    continue;
                }
                let _ = self.queue_tx.send(q);
            }
            if let Some(r) = self.pending.wait(id.0, Duration::from_millis(1)) {
                return r;
            }
            if self.stop.load(Ordering::Relaxed) {
                return CallResult::error(id, "platform shutting down");
            }
        }
    }
}

/// The running container platform.
pub struct BaselinePlatform {
    fabric: Fabric,
    kvs: Option<KvServer>,
    object_store: Arc<ObjectStore>,
    registry: Arc<BaselineRegistry>,
    hosts: Vec<Arc<BaselineHost>>,
    routing: Arc<RoundRobin>,
    gateway_nic: Nic,
    gateway_pending: Arc<Pending>,
    gateway_stop: Arc<AtomicBool>,
    gateway_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    driver_kv: SharedKv,
    call_seq: Arc<AtomicU64>,
    config: BaselineConfig,
}

impl std::fmt::Debug for BaselinePlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselinePlatform")
            .field("hosts", &self.hosts.len())
            .finish()
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
        let fabric = Fabric::new();
        let kvs_nic = fabric.add_host();
        let kvs = KvServer::start(kvs_nic, KVS_WORKERS);
        let kvs_host = kvs.host_id();
        let object_store = Arc::new(ObjectStore::new());
        publish_image(&object_store, &config.image);
        let registry = Arc::new(BaselineRegistry::default());
        let call_seq = Arc::new(AtomicU64::new(1));
        let routing = Arc::new(RoundRobin::new());

        let hosts: Vec<Arc<BaselineHost>> = (0..config.hosts.max(1))
            .map(|_| {
                BaselineHost::start(
                    &fabric,
                    kvs_host,
                    Arc::clone(&object_store),
                    Arc::clone(&registry),
                    Arc::clone(&call_seq),
                    Arc::clone(&routing),
                    config.clone(),
                )
            })
            .collect();
        for h in &hosts {
            routing.add(h.host_id());
        }

        let gateway_nic = fabric.add_host();
        let gateway_pending = Arc::new(Pending::default());
        let gateway_stop = Arc::new(AtomicBool::new(false));
        let gateway_thread = {
            let nic = gateway_nic.clone();
            let pending = Arc::clone(&gateway_pending);
            let stop = Arc::clone(&gateway_stop);
            std::thread::Builder::new()
                .name("bl-gateway".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match nic.recv_timeout(Duration::from_millis(20)) {
                            Ok(env) => {
                                if let Some(InstanceMsg::Result { result }) = unframe(&env.payload)
                                {
                                    pending.fulfill(result);
                                }
                            }
                            Err(faasm_net::NetError::Timeout) => {}
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn gateway")
        };
        let driver_kv: SharedKv = Arc::new(KvClient::connect(fabric.add_host(), kvs_host));

        BaselinePlatform {
            fabric,
            kvs: Some(kvs),
            object_store,
            registry,
            hosts,
            routing,
            gateway_nic,
            gateway_pending,
            gateway_stop,
            gateway_thread: Mutex::new(Some(gateway_thread)),
            driver_kv,
            call_seq,
            config,
        }
    }

    /// Register a function.
    pub fn register(&self, user: &str, function: &str, guest: Arc<dyn ContainerGuest>) {
        self.registry
            .guests
            .lock()
            .insert((user.to_string(), function.to_string()), guest);
    }

    /// Invoke synchronously.
    pub fn invoke(&self, user: &str, function: &str, input: Vec<u8>) -> CallResult {
        let id = self.invoke_async(user, function, input);
        self.await_result(id)
    }

    /// Invoke asynchronously.
    pub fn invoke_async(&self, user: &str, function: &str, input: Vec<u8>) -> CallId {
        let id = CallId(self.call_seq.fetch_add(1, Ordering::Relaxed));
        self.gateway_pending.register(id.0);
        let call = CallSpec {
            id,
            user: user.to_string(),
            function: function.to_string(),
            input,
            trace: faasm_sched::TraceCtx::NONE,
        };
        let Some(target) = self.routing.next() else {
            self.gateway_pending
                .fulfill(CallResult::error(id, "no hosts"));
            return id;
        };
        let msg = frame(
            &InstanceMsg::Invoke {
                call,
                reply_to: self.gateway_nic.id(),
                forwarded: true,
            },
            self.config.http_overhead_bytes,
        );
        if self.gateway_nic.send(target, msg).is_err() {
            self.gateway_pending
                .fulfill(CallResult::error(id, "host unreachable"));
        }
        id
    }

    /// Wait for an asynchronous invocation.
    pub fn await_result(&self, id: CallId) -> CallResult {
        self.gateway_pending
            .wait(id.0, self.config.invoke_timeout)
            .unwrap_or_else(|| CallResult::error(id, "invocation timed out"))
    }

    /// The platform fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The image registry / object store.
    pub fn object_store(&self) -> &Arc<ObjectStore> {
        &self.object_store
    }

    /// Driver-side KVS client.
    pub fn kv(&self) -> &SharedKv {
        &self.driver_kv
    }

    /// The hosts.
    pub fn hosts(&self) -> &[Arc<BaselineHost>] {
        &self.hosts
    }

    /// Completed calls across hosts.
    pub fn total_calls(&self) -> u64 {
        self.hosts.iter().map(|h| h.metrics().calls()).sum()
    }

    /// Billable memory across hosts (Fig. 6c, container side).
    pub fn billable_gb_seconds(&self) -> f64 {
        self.hosts
            .iter()
            .map(|h| h.metrics().billable_gb_seconds())
            .sum()
    }

    /// Resident container bytes across hosts.
    pub fn resident_bytes(&self) -> usize {
        self.hosts.iter().map(|h| h.resident_bytes()).sum()
    }

    /// Evict all warm containers (force cold starts).
    pub fn evict_all(&self) {
        for h in &self.hosts {
            h.evict_all();
        }
    }

    /// Stop everything; called on drop.
    pub fn shutdown(&self) {
        for h in &self.hosts {
            h.shutdown();
        }
        self.gateway_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.gateway_thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for BaselinePlatform {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(kvs) = self.kvs.take() {
            kvs.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerApi;
    use faasm_sched::CallStatus;

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
        assert_eq!(p.hosts()[0].pooled_containers(), 1);
        p.evict_all();
        assert_eq!(p.hosts()[0].pooled_containers(), 0);
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
