//! `coldstart_storm`: the cold-start plane (paper 5.2, Table 3, Fig. 10).
//!
//! Every round uploads a new version of a function and takes it down each
//! resolve path: a cold start that captures and publishes the proto, a
//! first call on a host that must fetch it from the tier, a first call on a
//! pre-staged host, then a 128-call burst over all four hosts. Lang
//! compile, FVM prepare, mem snapshot, snapdist chunking and SHA-256, KVS
//! `MultiGet` and proto restore do the work; steady-state ingress does
//! none. Two of a version's three pages repeat across versions, so publish
//! dedup and the host snapshot cache that `BENCH_coldstart.json` left at
//! `chunk_hits: 0` are both on the path.

use std::time::{Duration, Instant};

use faasm::core::{CallStatus, ChainRouter, Cluster, ClusterConfig, TraceCtx, UploadOptions};

use super::{boot, mem_mb, net_bytes, Measured, Sizing, Workload, SLICES, TENANT};
use crate::loadgen::{Phase, Verdict};
use crate::spans::Spans;
use crate::stats::{median, Rng};

const HOSTS: usize = 4;
pub const BURST: usize = 128;
/// Memory is sampled after this many timed rounds (or at the end of a
/// shorter run): every round leaves one new proto behind, so memory at the
/// end of the window would grow with the round rate.
const MEM_SAMPLE_ROUND: usize = 256;
/// How long a pre-stage may take to land before the round fails.
const PRESTAGE_TIMEOUT: Duration = Duration::from_secs(5);

/// One version of the storm function. `init` dirties three 64 KiB pages:
/// the first is seeded by `version`, the other two are the same in every
/// version. `main` echoes its input.
pub fn storm_src(version: u32) -> String {
    format!(
        r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        int init() {{
            ptr int a = (ptr int) 1024;
            for (int i = 0; i < 8000; i = i + 1) {{ a[i] = {version} + i; }}
            ptr int b = (ptr int) 65536;
            for (int i = 0; i < 8000; i = i + 1) {{ b[i] = i * 3; }}
            ptr int c = (ptr int) 131072;
            for (int i = 0; i < 8000; i = i + 1) {{ c[i] = i * 5; }}
            return 0;
        }}
        int main() {{
            int n = input_size();
            read_call_input((ptr int) 512, n);
            write_call_output((ptr int) 512, n);
            return 0;
        }}
        "#
    )
}

pub fn storm_options() -> UploadOptions {
    UploadOptions {
        init: Some("init".into()),
        ..UploadOptions::default()
    }
}

/// The timed steps of one round, in seconds.
#[derive(Debug, Default)]
struct Steps {
    cold_start: Vec<f64>,
    first_call: Vec<f64>,
    prestaged_call: Vec<f64>,
    storm: Vec<f64>,
    /// Seconds the generator spent submitting the bursts.
    submit_s: f64,
}

pub struct ColdstartStorm {
    cluster: Cluster,
    rng: Rng,
    round: u32,
    config: String,
}

impl ColdstartStorm {
    pub fn setup(seed: u64, sizing: Sizing) -> ColdstartStorm {
        let (cluster, config) = boot(ClusterConfig {
            hosts: HOSTS,
            state_shards: 2,
            ..ClusterConfig::default()
        });
        let mut storm = ColdstartStorm {
            cluster,
            rng: Rng::new(seed),
            round: 0,
            config,
        };
        let mut warmup = Phase::new("warmup", BURST, 1.0, 1);
        for _ in 0..sizing.storm_rounds {
            let errors = storm.round(
                &mut warmup,
                Instant::now(),
                &mut Steps::default(),
                &mut Spans::new(false),
            );
            assert!(errors.is_empty(), "warm-up round failed: {errors:?}");
        }
        storm
    }

    fn captures(&self) -> u64 {
        self.cluster
            .instances()
            .iter()
            .map(|i| i.metrics().cold_starts())
            .sum()
    }

    /// One round of a phase that began at `began`; every call echoes a
    /// seeded payload. Returns what went wrong beyond failed calls.
    fn round(
        &mut self,
        phase: &mut Phase,
        began: Instant,
        steps: &mut Steps,
        spans: &mut Spans,
    ) -> Vec<String> {
        let mut errors = Vec::new();
        self.round += 1;
        let function = format!("storm_{}", self.round);
        let version = (self.rng.next_u64() >> 40) as u32;
        let hosts = self.cluster.instances();
        let captures_before = self.captures();
        let check = |phase: &mut Phase, at: Instant, status: &CallStatus, echoed: bool| {
            phase.sent += 1;
            if *status == CallStatus::Success && echoed {
                phase.count(Verdict::Ok);
                phase.sample(
                    "call",
                    at.elapsed().as_nanos() as u64,
                    began.elapsed().as_secs_f64(),
                );
            } else {
                phase.count(Verdict::Failed);
            }
        };
        let round_span = spans.next_id();
        let round_start_ns = spans.now_ns();

        // 1. Upload version `r`: compile, validate, lower.
        let t = spans.now_ns();
        self.cluster
            .upload_fl(TENANT, &function, &storm_src(version), storm_options())
            .expect("upload storm function");
        spans.record(round_span, round_span, "upload", t);

        // The first calls go straight to an instance, so they carry the
        // trace root an ingress would have minted: the restore, fetch and
        // verify stages record spans only for traced calls.
        let _traced = faasm::telemetry::set_current(TraceCtx::new_root());

        // 2. Host 0: cold instantiate + init + capture + publish.
        let payload = self.rng.next_u64().to_le_bytes().to_vec();
        let t = spans.now_ns();
        let at = Instant::now();
        let r = hosts[0].invoke_local(TENANT, &function, payload.clone());
        steps.cold_start.push(at.elapsed().as_secs_f64());
        check(phase, at, &r.status, r.output == payload);
        spans.record(round_span, round_span, "cold_start", t);

        // 3. Host 1, nothing staged: tier fetch + verify + restore.
        let t = spans.now_ns();
        let at = Instant::now();
        let id = hosts[1].submit_placed(TENANT, &function, payload.clone());
        let r = hosts[1].await_call(id);
        steps.first_call.push(at.elapsed().as_secs_f64());
        check(phase, at, &r.status, r.output == payload);
        spans.record(round_span, round_span, "first_call", t);

        // 4. Host 2: pre-stage over the bus, then call.
        let t = spans.now_ns();
        let staged_by = Instant::now() + PRESTAGE_TIMEOUT;
        if !hosts[0].push_prestage(TENANT, &function, hosts[2].host_id()) {
            errors.push(format!("round {}: no manifest to pre-stage", self.round));
        }
        while !hosts[2].has_proto(TENANT, &function) && Instant::now() < staged_by {
            std::thread::yield_now();
        }
        spans.record(round_span, round_span, "prestage", t);
        let t = spans.now_ns();
        let at = Instant::now();
        let id = hosts[2].submit_placed(TENANT, &function, payload.clone());
        let r = hosts[2].await_call(id);
        steps.prestaged_call.push(at.elapsed().as_secs_f64());
        check(phase, at, &r.status, r.output == payload);
        spans.record(round_span, round_span, "prestaged_call", t);

        // 5. The burst, over every host.
        let t = spans.now_ns();
        let burst_at = Instant::now();
        let submitted: Vec<_> = (0..BURST)
            .map(|_| {
                let at = Instant::now();
                (
                    self.cluster
                        .invoke_async(TENANT, &function, payload.clone()),
                    at,
                )
            })
            .collect();
        steps.submit_s += burst_at.elapsed().as_secs_f64();
        for (id, at) in submitted {
            let r = self.cluster.await_result(id);
            check(phase, at, &r.status, r.output == payload);
        }
        steps.storm.push(burst_at.elapsed().as_secs_f64());
        spans.record(round_span, round_span, "storm", t);

        // 6. Scale back to zero.
        for host in hosts {
            host.evict(TENANT, &function);
        }

        let captures = self.captures() - captures_before;
        if captures != 1 {
            errors.push(format!("round {}: {captures} captures", self.round));
        }
        spans.push(crate::spans::Span {
            id: round_span,
            trace: round_span,
            parent: 0,
            name: "round",
            start_ns: round_start_ns,
            end_ns: spans.now_ns(),
        });
        errors
    }
}

impl Workload for ColdstartStorm {
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured {
        let net_before = net_bytes(&self.cluster);
        let mut phase = Phase::new("storm", BURST, secs, SLICES);
        let mut steps = Steps::default();
        let mut m = Measured::default();
        let mut rounds = 0;
        let mut round_s = Vec::new();
        let captures_before = self.captures();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let at = Instant::now();
            m.errors
                .extend(self.round(&mut phase, start, &mut steps, spans));
            round_s.push(at.elapsed().as_secs_f64());
            rounds += 1;
            if rounds == MEM_SAMPLE_ROUND {
                m.mem_mb = mem_mb(&self.cluster);
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.client_busy_share = steps.submit_s / phase.elapsed_s;
        if rounds < MEM_SAMPLE_ROUND {
            m.mem_mb = mem_mb(&self.cluster);
        }
        // A round is 3 first calls and the burst; the rate follows the
        // median round.
        m.rps = (3 + BURST) as f64 / median(&mut round_s);
        m.net_kb_per_call =
            (net_bytes(&self.cluster) - net_before) as f64 / 1e3 / phase.ok.max(1) as f64;
        m.extras = vec![
            ("core.cold_start_ms", median(&mut steps.cold_start) * 1e3),
            ("core.first_call_ms", median(&mut steps.first_call) * 1e3),
            (
                "core.snapdist.prestaged_call_us",
                median(&mut steps.prestaged_call) * 1e6,
            ),
            ("core.storm_ms", median(&mut steps.storm) * 1e3),
            (
                "core.snapdist.captures_per_round",
                (self.captures() - captures_before) as f64 / rounds as f64,
            ),
        ];
        m.latency_from(&phase);
        m.phases = vec![phase];
        m
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn config(&self) -> String {
        format!("{}, no gateway, burst {BURST}", self.config)
    }
}
