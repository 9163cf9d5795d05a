//! Runtime metrics: the measurements behind the paper's evaluation.
//!
//! * **Billable memory** (Fig. 6c): "the product of the peak function memory
//!   multiplied by the number and runtime of functions, in units of
//!   GB-seconds ... all memory measurements include the containers/Faaslets
//!   and their state." Faaslets are charged their PSS (shared state divided
//!   among sharers), which is exactly what makes FAASM's line flat.
//! * **Initialisation times** (Tab. 3, Fig. 10): cold/warm/restore paths are
//!   timed separately.
//! * **CPU cycles** (Tab. 3): total interpreter fuel.

/// Which path created a Faaslet for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// Reused an idle warm Faaslet.
    Warm,
    /// Built from scratch (instantiate + initialise).
    Cold,
    /// Restored from a Proto-Faaslet snapshot.
    ProtoRestore,
}

faasm_telemetry::counters! {
    /// Aggregated runtime metrics for one instance.
    pub struct Metrics => MetricsSnapshot {
        /// Completed calls.
        calls,
        /// Calls that reused an idle warm Faaslet.
        warm_starts,
        /// Cold starts (full instantiations).
        cold_starts,
        /// Proto-Faaslet restores.
        proto_restores,
        /// Total guest execution time in nanoseconds.
        exec_ns,
        /// Total interpreter fuel (the CPU-cycles analogue of Tab. 3).
        fuel,
        /// Total VM operations retired (guest CPU). Unlike `fuel` — a
        /// tier-independent *source* instruction count — this counts ops
        /// the engine actually dispatched, so the lowered tier reports
        /// fewer for the same work; fuel ÷ instrs is the mean
        /// superinstruction width.
        guest_instrs,
        /// Σ (PSS bytes × execution µs) per call, each product rounded to
        /// the nearest byte-µs (10⁻¹⁵ GB-s; a `u64` holds 18 000 GB-s).
        billable_byte_us,
        /// Σ initialisation ns over cold starts and proto restores.
        init_ns,
        /// Bytes of guest memory copied back by in-place resets: 4 KiB per
        /// block the reset call had written. A warm call whose reset copies
        /// a whole 64 KiB page, or nothing at all, shows here.
        reset_bytes,
    }
}

impl Metrics {
    /// Record a completed call.
    pub fn record_call(&self, exec_ns: u64, fuel: u64, guest_instrs: u64, pss_bytes: f64) {
        self.calls.inc();
        self.exec_ns.add(exec_ns);
        self.fuel.add(fuel);
        self.guest_instrs.add(guest_instrs);
        self.billable_byte_us
            .add((pss_bytes * exec_ns as f64 / 1e3).round() as u64);
    }

    /// Record how a Faaslet was obtained and how long that took.
    pub fn record_start(&self, kind: StartKind, init_ns: u64) {
        match kind {
            StartKind::Warm => self.warm_starts.inc(),
            StartKind::Cold => {
                self.cold_starts.inc();
                self.init_ns.add(init_ns);
            }
            StartKind::ProtoRestore => {
                self.proto_restores.inc();
                self.init_ns.add(init_ns);
            }
        }
    }

    /// Billable memory in GB-seconds (Fig. 6c).
    pub fn billable_gb_seconds(&self) -> f64 {
        self.snapshot().billable_gb_seconds()
    }

    /// Mean initialisation time in nanoseconds (0 when none recorded).
    pub fn mean_init_ns(&self) -> u64 {
        self.snapshot().mean_init_ns()
    }
}

impl MetricsSnapshot {
    /// Billable memory in GB-seconds (Fig. 6c).
    pub fn billable_gb_seconds(&self) -> f64 {
        self.billable_byte_us as f64 / 1e15
    }

    /// Mean initialisation time over cold starts and proto restores, in
    /// nanoseconds (0 when none recorded). Exact under `merge`: the sum and
    /// the counts add, so instances weigh in by how often they initialised.
    pub fn mean_init_ns(&self) -> u64 {
        self.init_ns
            .checked_div(self.cold_starts + self.proto_restores)
            .unwrap_or(0)
    }
}

faasm_telemetry::counters! {
    /// Ingress-tier metrics: what the gateway in front of a cluster observes.
    ///
    /// Kept here (rather than in `faasm-gateway`) so every metrics consumer —
    /// the telemetry snapshot, the benchmark, embedders — reads one crate,
    /// and so the gateway's numbers sit beside the runtime's.
    pub struct GatewayMetrics => GatewayMetricsSnapshot {
        /// Requests admitted past admission control.
        admitted,
        /// Requests completed end to end.
        completed,
        /// Requests shed with `Overloaded` because their tenant queue was full.
        shed_overloaded,
        /// Requests shed with `Overloaded` by a tenant token bucket.
        shed_ratelimited,
        /// Requests shed with `Expired`: their deadline passed while queued.
        shed_expired,
        /// Dispatched batches.
        batches,
        /// Requests carried by those batches.
        batch_items,
        /// Faaslets pre-warmed by the autoscaler.
        prewarmed,
        /// Idle Faaslets retired by the autoscaler.
        retired,
        /// State shards added live by the tier autoscaler.
        tier_scaleups,
    }
    hists {
        /// Time requests spent queued before dispatch, in nanoseconds: one
        /// sample per dispatched request into 64 atomic log2 buckets, so
        /// memory is fixed at any sample volume and percentile reads never
        /// allocate (estimates land within a factor of two of the exact
        /// sample, clamped to the observed min/max).
        queue_delay,
    }
}

impl GatewayMetrics {
    /// Record one dispatched batch of `items` requests.
    pub fn record_batch(&self, items: usize) {
        self.batches.inc();
        self.batch_items.add(items as u64);
    }

    /// Mean requests per dispatched batch (0 when none dispatched).
    pub fn batch_occupancy(&self) -> f64 {
        self.snapshot().batch_occupancy()
    }

    /// p50 queueing delay in nanoseconds.
    pub fn queue_delay_p50_ns(&self) -> u64 {
        self.queue_delay.percentile(50.0)
    }

    /// p99 queueing delay in nanoseconds.
    pub fn queue_delay_p99_ns(&self) -> u64 {
        self.queue_delay.percentile(99.0)
    }
}

impl GatewayMetricsSnapshot {
    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_overloaded + self.shed_ratelimited + self.shed_expired
    }

    /// Mean requests per dispatched batch (0 when none dispatched).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_items as f64 / self.batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_accounting() {
        let m = Metrics::new();
        m.record_call(1_000_000, 500, 120, 1e9); // 1 GB for 1 ms
        m.record_call(1_000_000, 300, 80, 1e9);
        assert_eq!(m.calls(), 2);
        assert_eq!(m.fuel(), 800);
        assert_eq!(m.guest_instrs(), 200);
        assert_eq!(m.exec_ns(), 2_000_000);
        // 2 × (1 GB × 1 ms) = 0.002 GB-s.
        assert!((m.billable_gb_seconds() - 0.002).abs() < 1e-9);
    }

    #[test]
    fn start_kinds() {
        let m = Metrics::new();
        m.record_start(StartKind::Warm, 10);
        m.record_start(StartKind::Cold, 1000);
        m.record_start(StartKind::ProtoRestore, 100);
        assert_eq!(m.warm_starts(), 1);
        assert_eq!(m.cold_starts(), 1);
        assert_eq!(m.proto_restores(), 1);
        // Warm starts do not contribute init samples.
        assert_eq!(m.init_ns(), 1100);
        assert_eq!(m.mean_init_ns(), 550);
    }

    #[test]
    fn merged_mean_init_is_weighted_by_initialisations() {
        // One instance initialised once, slowly; another nine times,
        // quickly. The cluster-wide mean weighs all ten, where keeping the
        // larger of the two means reported 1000.
        let (slow, fast) = (Metrics::new(), Metrics::new());
        slow.record_start(StartKind::Cold, 1000);
        for _ in 0..9 {
            fast.record_start(StartKind::ProtoRestore, 100);
        }
        let mut merged = slow.snapshot();
        merged.merge(&fast.snapshot());
        assert_eq!(merged.mean_init_ns(), (1000 + 9 * 100) / 10);
    }

    #[test]
    fn gateway_metrics_accounting() {
        let m = GatewayMetrics::new();
        m.admitted.inc();
        m.record_batch(3);
        m.record_batch(1);
        m.shed_overloaded.inc();
        m.shed_ratelimited.inc();
        m.shed_expired.inc();
        m.prewarmed.add(2);
        m.retired.add(1);
        assert_eq!(m.admitted(), 1);
        assert_eq!(m.snapshot().shed_total(), 3);
        assert_eq!(m.batches(), 2);
        assert!((m.batch_occupancy() - 2.0).abs() < 1e-9);
        assert_eq!(m.prewarmed(), 2);
        assert_eq!(m.retired(), 1);
    }

    #[test]
    fn gateway_delay_storm_stays_within_fixed_memory() {
        // 1M-sample storm: the histogram's memory is its struct size — no
        // heap growth, no eviction bookkeeping — and reads stay coherent.
        let m = GatewayMetrics::new();
        for i in 0..1_000_000u64 {
            m.queue_delay.record(i);
        }
        let snap = m.snapshot();
        assert_eq!(snap.queue_delay.count, 1_000_000);
        assert_eq!(snap.queue_delay.min, 0);
        assert_eq!(snap.queue_delay.max, 999_999);
        // The delay distribution lives in a fixed-size inline array; the
        // type holds no heap-backed sample storage to grow.
        assert!(std::mem::size_of::<faasm_telemetry::HistSnapshot>() <= 64 * 8 + 64);
        let p50 = m.queue_delay_p50_ns();
        let p99 = m.queue_delay_p99_ns();
        assert!(p50 > 0 && p99 >= p50, "p50 {p50} p99 {p99}");
        // Log2 buckets: estimates stay within 2x of the exact percentile.
        assert!((250_000..=1_000_000).contains(&p50), "p50 {p50}");
        assert!((495_000..=1_000_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn a_gateway_snapshot_is_a_frozen_copy() {
        let g = GatewayMetrics::new();
        g.admitted.inc();
        g.record_batch(4);
        g.shed_expired.inc();
        g.queue_delay.record(77);
        let gs = g.snapshot();
        assert_eq!(gs.admitted, 1);
        assert_eq!(gs.shed_total(), 1);
        assert!((gs.batch_occupancy() - 4.0).abs() < 1e-9);
        assert_eq!(gs.queue_delay.count, 1);
        // The snapshot is frozen: later recording does not change it.
        g.admitted.inc();
        assert_eq!(gs.admitted, 1);
    }
}
