//! The gateway runtime: admission, batching dispatch, autoscaling.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use faasm_core::{Cluster, FaasmInstance, GatewayMetrics, PendingMap, PlacedCall};
use faasm_net::TokenBucket;
use faasm_telemetry::{Recorder, SpanKind, TraceCtx};
use parking_lot::{Condvar, Mutex};

use crate::autoscale::{
    spread_prewarm, tier_scale_wanted, AutoscaleConfig, BACKLOG_HIGH, IDLE_TARGET, INTERVAL,
    MAX_WARM, SCALE_STEP,
};
use crate::codec::{self, GatewayRequest};
use crate::queue::{FairQueue, Job};
use crate::response::GatewayResponse;
use crate::tenant::TenantPolicy;

/// Gateway construction parameters.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Dispatcher threads draining the pending queue in batches.
    pub dispatchers: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Autoscaler; `None` disables it.
    pub autoscale: Option<AutoscaleConfig>,
    /// Requests submitted to the cluster but not yet completed, across all
    /// dispatchers — the admission tier's backpressure signal. While the
    /// cap is reached, dispatchers stop draining (so tenant queues fill and
    /// shed `Overloaded`) but keep shedding expired jobs on time. `0`
    /// means `dispatchers × max_batch`.
    pub max_inflight: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            dispatchers: 2,
            max_batch: 16,
            autoscale: Some(AutoscaleConfig::default()),
            max_inflight: 0,
        }
    }
}

/// How long a dispatcher waits for the first request of a batch before
/// re-checking for shutdown and expired jobs (real time: it bounds a wait).
const BATCH_WAIT: Duration = Duration::from_millis(5);

/// Queueing deadline of a request that carries none: a request still
/// queued this long after admission, on the cluster's clock, is shed with
/// `Expired`.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// Target dispatch delay (time a job may stand in the queue before
/// dispatch — CoDel's sojourn-time target) for the admission back-pressure
/// loop. When the measured EWMA stands above this, effective per-tenant
/// queue caps shrink multiplicatively (CoDel-lite: shed at admission
/// instead of queueing work the cluster cannot serve in time); when it
/// drops below half the target — or the gateway fully drains — caps grow
/// back additively.
pub const TARGET_DISPATCH_LATENCY: Duration = Duration::from_millis(25);

/// Upper bound a caller blocks in [`Gateway::wait`] before getting an error
/// response (covers runaway guests; normal sheds return fast), and the age
/// at which a response nobody claimed is swept.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Admission cap scale denominator: a scale of `CAP_SCALE_ONE` applies
/// tenants' configured queue caps unchanged.
const CAP_SCALE_ONE: u64 = 1024;

/// Floor for the AIMD shrink: caps never fall below 1/16 of configured.
const CAP_SCALE_MIN: u64 = CAP_SCALE_ONE / 16;

/// Additive step per adjustment tick on recovery.
const CAP_SCALE_STEP: u64 = CAP_SCALE_ONE / 32;

/// How often, on the cluster's clock, the AIMD loop re-evaluates the EWMA.
const ADJUST_EVERY: Duration = Duration::from_millis(10);

/// A remote waiter's completion hook, invoked exactly once with the
/// terminal response (outside the completion lock).
pub(crate) type CompletionFn = faasm_core::PendingCallback<GatewayResponse>;

/// Completion slots: ticket → eventual response.
///
/// A non-storing [`PendingMap`]: responses for tickets nobody registered
/// (abandoned by a timed-out waiter) are dropped, and fulfilled slots
/// nobody claims (fire-and-forget submits) are TTL-swept — the runtime's
/// call slots are the same map with the opposite policies.
type Completions = PendingMap<GatewayResponse>;

/// A cached tenant bucket with the (rate, burst) it was built from.
type BucketEntry = (u64, u64, Arc<TokenBucket>);

/// State shared between the public handle and the gateway's threads. The
/// threads hold `Arc<Inner>` (never the public [`Gateway`]), so dropping the
/// handle reliably reaches `Gateway::drop` and tears the threads down.
struct Inner {
    cluster: Arc<Cluster>,
    /// The cluster's span recorder, held so admission records without a
    /// lookup.
    recorder: Arc<Recorder>,
    config: GatewayConfig,
    queue: FairQueue,
    policies: Mutex<HashMap<String, TenantPolicy>>,
    /// Rate-limited tenants' buckets, keyed with the (rate, burst) they
    /// were built from so a policy change rebuilds them on next use (a
    /// `set_tenant_policy` racing a submit cannot resurrect a stale bucket
    /// for more than one request). Unlimited tenants share one bucket and
    /// cost no map entry — wire clients naming arbitrary tenants cannot
    /// grow this map unless the operator rate-limits the default policy.
    buckets: Mutex<HashMap<String, BucketEntry>>,
    unlimited: Arc<TokenBucket>,
    completions: Completions,
    metrics: Arc<GatewayMetrics>,
    seq: AtomicU64,
    stop: AtomicBool,
    /// Calls submitted to the cluster whose completion callback has not yet
    /// fired. Dispatchers reserve room here before draining and completions
    /// release it, so admission backpressure survives the non-blocking
    /// dispatch path.
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
    /// EWMA of measured dispatch delay in nanoseconds (0 = no samples):
    /// how long each dispatched job stood in the queue — CoDel's sojourn
    /// time, fed on every dispatch.
    dispatch_ewma_ns: AtomicU64,
    /// Effective per-tenant queue-cap scale in 1/[`CAP_SCALE_ONE`]ths,
    /// driven by the AIMD loop over the EWMA.
    cap_scale: AtomicU64,
    /// When the AIMD loop last adjusted (rate-limits adjustments so one
    /// standing-delay episode shrinks caps geometrically, not per sample).
    last_adjust: Mutex<Instant>,
}

/// The cluster's ingress tier.
///
/// See the crate docs for the architecture; constructed with
/// [`Gateway::start`], torn down on drop.
pub struct Gateway {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The autoscaler's stop signal: dropping it ends the autoscaler's
    /// wait between ticks at once.
    autoscaler_stop: Mutex<Option<Sender<()>>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("queued", &self.inner.queue.len())
            .field("dispatchers", &self.inner.config.dispatchers)
            .finish()
    }
}

impl Gateway {
    /// Start a gateway in front of `cluster`: spawns the dispatcher threads
    /// and (if configured) the autoscaler.
    pub fn start(cluster: Arc<Cluster>, config: GatewayConfig) -> Gateway {
        let recorder = Arc::clone(cluster.fabric().recorder());
        let clock = recorder.clock().clone();
        let inner = Arc::new(Inner {
            recorder,
            cluster,
            config,
            queue: FairQueue::new(),
            policies: Mutex::new(HashMap::new()),
            buckets: Mutex::new(HashMap::new()),
            unlimited: Arc::new(TokenBucket::unlimited()),
            completions: Completions::new(false, Some(WAIT_TIMEOUT), clock.clone()),
            metrics: Arc::new(GatewayMetrics::new()),
            seq: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            dispatch_ewma_ns: AtomicU64::new(0),
            cap_scale: AtomicU64::new(CAP_SCALE_ONE),
            last_adjust: Mutex::new(clock.now()),
        });
        let mut threads = Vec::new();
        for d in 0..inner.config.dispatchers.max(1) {
            let i = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gw-dispatch{d}"))
                    .spawn(move || i.dispatch_loop())
                    .expect("spawn gateway dispatcher"),
            );
        }
        let autoscaler_stop = inner.config.autoscale.is_some().then(|| {
            let (stop_tx, stop) = bounded(0);
            let i = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("gw-autoscale".into())
                    .spawn(move || i.autoscale_loop(&stop))
                    .expect("spawn gateway autoscaler"),
            );
            stop_tx
        });
        Gateway {
            inner,
            threads: Mutex::new(threads),
            autoscaler_stop: Mutex::new(autoscaler_stop),
        }
    }

    /// Install (or replace) a tenant's admission policy.
    pub fn set_tenant_policy(&self, tenant: &str, policy: TenantPolicy) {
        self.inner.buckets.lock().remove(tenant);
        self.inner
            .policies
            .lock()
            .insert(tenant.to_string(), policy);
    }

    /// The gateway's metrics.
    pub fn metrics(&self) -> &Arc<GatewayMetrics> {
        &self.inner.metrics
    }

    /// [`Cluster::telemetry`] of the cluster behind this gateway plus the
    /// gateway's own set (`gateway`, slot 0), in one snapshot.
    pub fn telemetry(&self) -> faasm_telemetry::Telemetry {
        let mut telemetry = self.inner.cluster.telemetry();
        let own = self.inner.metrics.snapshot();
        telemetry.sets.push(own.row("gateway", 0));
        telemetry
    }

    /// Requests currently pending dispatch.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// The cluster behind this gateway.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.inner.cluster
    }

    /// The measured dispatch-delay EWMA — time jobs stand in the queue
    /// before dispatch (zero before any job has been dispatched).
    pub fn dispatch_latency_ewma(&self) -> Duration {
        Duration::from_nanos(self.inner.dispatch_ewma_ns.load(Ordering::Relaxed))
    }

    /// The current admission cap scale in `(0, 1]`: the fraction of each
    /// tenant's configured queue cap the back-pressure loop is admitting.
    pub fn admission_cap_scale(&self) -> f64 {
        self.inner.cap_scale.load(Ordering::Relaxed) as f64 / CAP_SCALE_ONE as f64
    }

    /// Submit a request with the default queueing deadline; returns a
    /// ticket for [`Gateway::wait`].
    pub fn submit(&self, tenant: &str, function: &str, input: Vec<u8>) -> u64 {
        self.submit_with_deadline(tenant, function, input, DEFAULT_DEADLINE)
    }

    /// Submit a request that is shed with `Expired` if still queued
    /// `deadline` after admission, on the cluster's clock.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
        deadline: Duration,
    ) -> u64 {
        self.inner.submit(tenant, function, input, deadline)
    }

    /// Submit under a fresh trace root and return `(ticket, trace_id)`:
    /// after the call completes, `cluster.fabric().recorder().trace(trace_id)`
    /// holds its admission→dispatch→execution→state span tree. This is the
    /// in-process equivalent of a wire client stamping
    /// [`GatewayRequest::trace`](crate::GatewayRequest).
    pub fn submit_traced(&self, tenant: &str, function: &str, input: Vec<u8>) -> (u64, u64) {
        let root = self.inner.recorder.root();
        let ticket = self
            .inner
            .submit_with(tenant, function, input, DEFAULT_DEADLINE, None, root);
        (ticket, root.trace_id)
    }

    /// [`Gateway::submit_traced`] + [`Gateway::wait`]: the synchronous
    /// traced surface. Returns the response and the trace id.
    pub fn call_traced(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
    ) -> (GatewayResponse, u64) {
        let (ticket, trace_id) = self.submit_traced(tenant, function, input);
        (self.wait(ticket), trace_id)
    }

    /// Block for a submitted request's response.
    pub fn wait(&self, ticket: u64) -> GatewayResponse {
        self.inner
            .completions
            .wait(ticket, WAIT_TIMEOUT)
            .unwrap_or_else(|| GatewayResponse::error(ticket, "gateway wait timed out"))
    }

    /// Submit and wait (the synchronous client surface).
    pub fn call(&self, tenant: &str, function: &str, input: Vec<u8>) -> GatewayResponse {
        let ticket = self.submit(tenant, function, input);
        self.wait(ticket)
    }

    /// The wire surface: decode one request frame, run it through the full
    /// admission/dispatch path, return the encoded response frame. Malformed
    /// frames get an `Error` response with `seq` 0.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let resp = match codec::decode_frame(frame)
            .and_then(|(payload, _)| codec::decode_request(payload))
        {
            Some(req) => self.handle_request(req),
            None => GatewayResponse::error(0, "malformed request frame"),
        };
        codec::encode_frame(&codec::encode_response(&resp))
    }

    /// Run a decoded wire request through the gateway.
    pub fn handle_request(&self, req: GatewayRequest) -> GatewayResponse {
        let deadline = self.wire_deadline(&req);
        let ticket = self.inner.submit_with(
            &req.tenant,
            &req.function,
            req.input,
            deadline,
            None,
            req.trace,
        );
        let mut resp = self.wait(ticket);
        // The wire response echoes the client's sequence number, not the
        // gateway-internal ticket.
        resp.seq = req.seq;
        resp
    }

    /// Submit a decoded wire request without blocking: `on_complete` is
    /// invoked exactly once with the terminal response (its `seq` mapped
    /// back to the client's), from whichever thread produced it — a
    /// dispatcher on completion, or the calling thread on a synchronous
    /// shed. This is how [`GatewayServer`](crate::GatewayServer) keeps one
    /// service thread serving many in-flight connections.
    ///
    /// Returns the gateway-internal ticket (for observability; the
    /// callback is the delivery mechanism).
    pub fn submit_async(
        &self,
        req: GatewayRequest,
        on_complete: impl FnOnce(GatewayResponse) + Send + 'static,
    ) -> u64 {
        let deadline = self.wire_deadline(&req);
        let client_seq = req.seq;
        self.inner.submit_with(
            &req.tenant,
            &req.function,
            req.input,
            deadline,
            Some(Box::new(move |mut resp: GatewayResponse| {
                resp.seq = client_seq;
                on_complete(resp);
            })),
            req.trace,
        )
    }

    fn wire_deadline(&self, req: &GatewayRequest) -> Duration {
        if req.deadline_ms == 0 {
            DEFAULT_DEADLINE
        } else {
            Duration::from_millis(req.deadline_ms)
        }
    }

    /// Stop dispatchers and the autoscaler; shed whatever is still queued.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        drop(self.autoscaler_stop.lock().take());
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Fail whatever is still queued so waiters return.
        self.inner.shed_queue("gateway shut down");
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn submit(&self, tenant: &str, function: &str, input: Vec<u8>, deadline: Duration) -> u64 {
        // Inherit an active trace (a traced caller chaining through the
        // gateway) or leave it to `submit_with` to mint a fresh root.
        self.submit_with(
            tenant,
            function,
            input,
            deadline,
            None,
            faasm_telemetry::current(),
        )
    }

    /// Submit with an optional remote completion hook. With `remote: None`
    /// the ticket parks its response for a local [`Completions::wait`];
    /// with a callback, fulfilment invokes it (from whichever thread
    /// produced the terminal response — possibly this one, on a
    /// synchronous shed).
    fn submit_with(
        &self,
        tenant: &str,
        function: &str,
        input: Vec<u8>,
        deadline: Duration,
        remote: Option<CompletionFn>,
        trace: TraceCtx,
    ) -> u64 {
        // Every admitted request is traced: an untraced submit gets a
        // fresh root here, at the ingress boundary, so the flight recorder
        // always holds recent spans to dump on an anomaly.
        let trace = if trace.is_none() {
            self.recorder.root()
        } else {
            trace
        };
        let admit_start_ns = self.recorder.now_ns();
        let now = self.recorder.clock().now();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        match remote {
            Some(cb) => self.completions.register_callback(seq, cb),
            None => self.completions.register(seq),
        }
        // After shutdown no dispatcher will ever drain the queue; answer
        // immediately instead of letting the waiter sit out its timeout.
        if self.stop.load(Ordering::Relaxed) {
            self.completions
                .fulfill(seq, GatewayResponse::error(seq, "gateway shut down"));
            return seq;
        }
        let policy = self.policy_for(tenant);

        // Admission gate 1: the tenant's token bucket.
        let bucket = self.bucket_for(tenant, &policy);
        if !bucket.try_acquire_one(now) {
            self.metrics.shed_ratelimited.inc();
            self.completions
                .fulfill(seq, GatewayResponse::overloaded(seq));
            return seq;
        }
        // Admission gate 2: the tenant's bounded pending queue, scaled by
        // the dispatch-latency back-pressure loop — under standing delay
        // the gateway sheds here, at admission, instead of queueing work
        // the cluster cannot serve before it expires.
        let queue_cap = self.effective_queue_cap(policy.queue_cap);
        let job = Job {
            seq,
            tenant: tenant.to_string(),
            function: function.to_string(),
            input,
            enqueued: now,
            deadline: now + deadline,
            trace,
        };
        match self.queue.push(job, policy.weight, queue_cap) {
            Ok(()) => {
                self.metrics.admitted.inc();
                self.recorder
                    .span(SpanKind::Admission, trace, admit_start_ns, seq);
            }
            Err(job) => {
                // The request consumed no capacity: give the token back so
                // a tenant at its queue cap is not also drained of rate
                // budget (shed once, not twice).
                bucket.refund_one();
                self.metrics.shed_overloaded.inc();
                self.completions
                    .fulfill(job.seq, GatewayResponse::overloaded(job.seq));
            }
        }
        // Re-check after the push: a shutdown that raced us may already
        // have joined the dispatchers and drained the queue, in which case
        // our job would sit unfulfilled forever. Draining here (idempotent
        // with shutdown's own drain) guarantees the waiter an answer.
        if self.stop.load(Ordering::Relaxed) {
            self.shed_queue("gateway shut down");
        }
        seq
    }

    /// Drain everything queued and answer each waiter with an error.
    fn shed_queue(&self, reason: &str) {
        loop {
            let leftovers = self
                .queue
                .drain_batch(usize::MAX, Duration::ZERO, &self.stop);
            if leftovers.is_empty() {
                break;
            }
            for job in leftovers {
                self.completions
                    .fulfill(job.seq, GatewayResponse::error(job.seq, reason));
            }
        }
    }

    fn policy_for(&self, tenant: &str) -> TenantPolicy {
        self.policies
            .lock()
            .get(tenant)
            .cloned()
            .unwrap_or_default()
    }

    fn bucket_for(&self, tenant: &str, policy: &TenantPolicy) -> Arc<TokenBucket> {
        let Some(rate) = policy.rate_per_sec else {
            return Arc::clone(&self.unlimited);
        };
        let burst = policy.burst.max(1);
        let mut buckets = self.buckets.lock();
        match buckets.get(tenant) {
            Some((r, b, bucket)) if *r == rate && *b == burst => Arc::clone(bucket),
            _ => {
                let bucket = Arc::new(TokenBucket::per_second(rate, burst));
                buckets.insert(tenant.to_string(), (rate, burst, Arc::clone(&bucket)));
                bucket
            }
        }
    }

    /// A tenant's queue cap under the current back-pressure scale (never
    /// below 1 — a tenant with any cap at all can always queue one job).
    fn effective_queue_cap(&self, configured: usize) -> usize {
        let scale = self.cap_scale.load(Ordering::Relaxed);
        if scale >= CAP_SCALE_ONE || configured == 0 {
            return configured;
        }
        ((configured as u64 * scale / CAP_SCALE_ONE) as usize).max(1)
    }

    /// Fold one measured dispatch delay (job enqueue → batch dispatch,
    /// CoDel's sojourn time) into the EWMA. Racy read-modify-write by
    /// design: samples arrive from several dispatchers and the control
    /// loop only needs the trend, not an exact fold order.
    fn record_dispatch_delay(&self, ns: u64) {
        let old = self.dispatch_ewma_ns.load(Ordering::Relaxed);
        let next = if old == 0 { ns } else { (old * 7 + ns) / 8 };
        self.dispatch_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// The AIMD control loop (CoDel-lite), run on the dispatcher cadence:
    /// standing delay above target shrinks the admission cap scale
    /// multiplicatively; delay below half the target grows it back
    /// additively. A fully drained gateway (empty queue, nothing in
    /// flight) decays the EWMA so caps recover after a burst ends even
    /// though no new completions arrive to pull the average down.
    fn adjust_admission(&self) {
        {
            let mut last = self.last_adjust.lock();
            let now = self.recorder.clock().now();
            if now.saturating_duration_since(*last) < ADJUST_EVERY {
                return;
            }
            *last = now;
        }
        let drained = self.queue.is_empty() && *self.inflight.lock() == 0;
        let mut ewma = self.dispatch_ewma_ns.load(Ordering::Relaxed);
        if drained && ewma > 0 {
            ewma = ewma * 3 / 4;
            self.dispatch_ewma_ns.store(ewma, Ordering::Relaxed);
        }
        if ewma == 0 {
            return;
        }
        let target = TARGET_DISPATCH_LATENCY.as_nanos() as u64;
        let scale = self.cap_scale.load(Ordering::Relaxed);
        if ewma > target && !drained {
            // Multiplicative decrease only under *standing* delay: a high
            // EWMA with nothing queued or in flight is a memory of the
            // last burst, not congestion — decaying it (above) is enough.
            let next = (scale * 3 / 4).max(CAP_SCALE_MIN);
            self.cap_scale.store(next, Ordering::Relaxed);
            if next < scale {
                // A shed burst is an anomaly worth a flight-recorder dump:
                // the spans leading into it show which tenants' sojourn
                // times pushed the EWMA over target.
                self.recorder.note_anomaly(&format!(
                    "admission cap shrink to {next}/{CAP_SCALE_ONE} (dispatch ewma {} us over target)",
                    ewma / 1_000,
                ));
            }
        } else if ewma < target / 2 {
            self.cap_scale.store(
                (scale + CAP_SCALE_STEP).min(CAP_SCALE_ONE),
                Ordering::Relaxed,
            );
        }
    }

    /// Effective in-flight cap (`0` in config means dispatchers × batch).
    fn max_inflight(&self) -> usize {
        if self.config.max_inflight > 0 {
            return self.config.max_inflight;
        }
        (self.config.dispatchers.max(1) * self.config.max_batch.max(1)).max(1)
    }

    /// Reserve up to `want` in-flight slots; returns how many were granted.
    fn reserve_inflight(&self, want: usize, cap: usize) -> usize {
        let mut inflight = self.inflight.lock();
        let granted = want.min(cap.saturating_sub(*inflight));
        *inflight += granted;
        granted
    }

    /// Return `n` in-flight slots and wake a dispatcher once enough room
    /// has accumulated for a real batch. Waking on every released slot
    /// would hand saturated dispatchers one slot at a time — batches of
    /// one, a bus message per call, exactly the overhead batching exists
    /// to remove. Dispatchers also re-poll on their [`BATCH_WAIT`] cadence,
    /// so small leftovers are never stranded.
    fn release_inflight(&self, n: usize) {
        if n == 0 {
            return;
        }
        let cap = self.max_inflight();
        let room = {
            let mut inflight = self.inflight.lock();
            *inflight = inflight.saturating_sub(n);
            cap.saturating_sub(*inflight)
        };
        if room > self.config.max_batch.max(1) / 2 {
            self.inflight_cv.notify_one();
        }
    }

    /// Block up to `timeout` for in-flight room (woken by completions).
    fn wait_for_room(&self, cap: usize, timeout: Duration) {
        let mut inflight = self.inflight.lock();
        if *inflight >= cap {
            self.inflight_cv.wait_for(&mut inflight, timeout);
        }
    }

    /// Shed every queued job whose deadline has passed. Runs each
    /// dispatcher iteration, whether or not there is capacity to dispatch,
    /// so `Expired` responses stay bounded by [`BATCH_WAIT`] even when
    /// every submit slot is occupied by slow work.
    fn shed_expired_jobs(&self) {
        for job in self.queue.shed_expired(self.recorder.clock().now()) {
            self.metrics.shed_expired.inc();
            self.completions
                .fulfill(job.seq, GatewayResponse::expired(job.seq));
        }
    }

    /// The batch-aware dispatcher: drain in weighted-fair order, group the
    /// batch by placement target, hand each instance **one** batch submit
    /// (one bus message carrying N calls), and go straight back to
    /// draining. Completions fulfil tickets through callbacks, so no
    /// dispatcher ever parks in `await_call` — the head-of-line blocking
    /// that used to let expired jobs rot in the queue at saturation.
    fn dispatch_loop(self: Arc<Self>) {
        let cap = self.max_inflight();
        while !self.stop.load(Ordering::Relaxed) {
            self.shed_expired_jobs();
            self.adjust_admission();
            let granted = self.reserve_inflight(self.config.max_batch.max(1), cap);
            if granted == 0 {
                // Saturated: no draining, but keep polling the deadline
                // shed above at BATCH_WAIT cadence.
                self.wait_for_room(cap, BATCH_WAIT);
                continue;
            }
            let batch = self.queue.drain_batch(granted, BATCH_WAIT, &self.stop);
            if batch.len() < granted {
                self.release_inflight(granted - batch.len());
            }
            if batch.is_empty() {
                continue;
            }
            let now = self.recorder.clock().now();
            // Group by placement target so each instance gets one batch
            // submit. `Cluster::place` is the only chooser; the instance
            // queues placed calls as they are.
            let mut groups: HashMap<faasm_net::HostId, (Arc<FaasmInstance>, Vec<Job>)> =
                HashMap::new();
            let mut dispatched = 0usize;
            // Jobs answered right here hold no in-flight slot afterwards.
            let mut answered = 0usize;
            for job in batch {
                // Deadline-based shedding: anything that aged out in the
                // queue is answered immediately instead of wasting a worker.
                if job.deadline <= now {
                    answered += 1;
                    self.metrics.shed_expired.inc();
                    self.completions
                        .fulfill(job.seq, GatewayResponse::expired(job.seq));
                    continue;
                }
                let queued_ns = now.saturating_duration_since(job.enqueued).as_nanos() as u64;
                self.metrics.queue_delay.record(queued_ns);
                // The sojourn span's start is reconstructed from the queue
                // delay: enqueue happened `queued_ns` before this drain.
                self.recorder.span(
                    SpanKind::QueueSojourn,
                    job.trace,
                    self.recorder.now_ns().saturating_sub(queued_ns),
                    0,
                );
                // The admission back-pressure signal is CoDel's sojourn
                // time — how long the job stood in the queue before
                // dispatch — NOT service time: a merely slow function on
                // an idle cluster must not shrink anyone's caps.
                self.record_dispatch_delay(queued_ns);
                let Some(inst) = self.cluster.place(&job.tenant, &job.function) else {
                    // Every host is gone: answer now, like any other call
                    // the cluster could not run.
                    answered += 1;
                    self.completions.fulfill(
                        job.seq,
                        GatewayResponse::error(job.seq, "no reachable instances"),
                    );
                    continue;
                };
                groups
                    .entry(inst.host_id())
                    .or_insert_with(|| (inst, Vec::new()))
                    .1
                    .push(job);
                dispatched += 1;
            }
            self.release_inflight(answered);
            if dispatched == 0 {
                continue;
            }
            self.metrics.record_batch(dispatched);
            let dispatch_start_ns = self.recorder.now_ns();
            for (_, (inst, jobs)) in groups {
                let group_size = jobs.len() as u64;
                let calls: Vec<PlacedCall> = jobs
                    .into_iter()
                    .map(|job| {
                        let seq = job.seq;
                        // Dispatch span: grouping + batch-submit cost, with
                        // the realised group width in `extra`.
                        self.recorder.span(
                            SpanKind::Dispatch,
                            job.trace,
                            dispatch_start_ns,
                            group_size,
                        );
                        // Weak: completion slots at the instance must not
                        // keep the gateway (and through it the cluster)
                        // alive in a cycle.
                        let inner = Arc::downgrade(&self);
                        PlacedCall {
                            user: job.tenant,
                            function: job.function,
                            input: job.input,
                            trace: job.trace,
                            on_complete: Box::new(move |result| {
                                let Some(inner) = inner.upgrade() else {
                                    return;
                                };
                                inner.metrics.completed.inc();
                                inner
                                    .completions
                                    .fulfill(seq, GatewayResponse::from_call(seq, result));
                                inner.release_inflight(1);
                            }),
                        }
                    })
                    .collect();
                inst.submit_placed_batch(calls);
            }
        }
    }

    /// One autoscaler tick every [`INTERVAL`] until `stop`'s sender is
    /// dropped.
    fn autoscale_loop(self: Arc<Self>, stop: &Receiver<()>) {
        let cfg = self
            .config
            .autoscale
            .clone()
            .expect("autoscale loop without config");
        // Functions the autoscaler has seen traffic for; retirement only
        // considers these (it never touches pools it did not grow). Keys
        // with no backlog and nothing left to retire are dropped each tick,
        // so wire clients naming arbitrary tenants cannot grow this set or
        // the per-tick scan without bound.
        let mut seen: HashSet<(String, String)> = HashSet::new();
        // Tier scaling tracks the op-count delta between ticks.
        let mut last_tier_ops: Option<u64> = None;
        while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(INTERVAL) {
            if cfg.tier_ops_high.is_some() {
                if let Ok(stats) = self.cluster.state_shard_stats() {
                    let total: u64 = stats.iter().map(|s| s.reads + s.writes + s.lock_ops).sum();
                    let delta = total.saturating_sub(last_tier_ops.unwrap_or(total));
                    last_tier_ops = Some(total);
                    if tier_scale_wanted(delta, stats.len(), &cfg)
                        && self.cluster.add_state_shard().is_ok()
                    {
                        self.metrics.tier_scaleups.inc();
                    }
                }
            }
            let backlog = self.queue.backlog();
            seen.extend(backlog.keys().cloned());
            let instances = self.cluster.instances();
            seen.retain(|key| {
                let (tenant, function) = (&key.0, &key.1);
                let depth = backlog.get(key).copied().unwrap_or(0);
                let idle: usize = instances
                    .iter()
                    .map(|i| i.warm_count(tenant, function))
                    .sum();
                if depth > BACKLOG_HIGH && idle < MAX_WARM {
                    // Spread the pre-warm step across the least-loaded
                    // instances (affinity-weighted, pre-staged), so calls
                    // placed on other hosts also land warm.
                    let n = SCALE_STEP.min(MAX_WARM - idle);
                    let created =
                        spread_prewarm(instances, Some(self.cluster.boards()), tenant, function, n);
                    self.metrics.prewarmed.add(created as u64);
                } else if depth == 0 && idle > IDLE_TARGET {
                    let mut surplus = idle - IDLE_TARGET;
                    for inst in instances {
                        if surplus == 0 {
                            break;
                        }
                        let retired = inst.retire_idle(tenant, function, surplus);
                        self.metrics.retired.add(retired as u64);
                        surplus -= retired;
                    }
                }
                // Keep only keys that may still need action next tick.
                depth > 0 || idle > IDLE_TARGET
            });
        }
    }
}
