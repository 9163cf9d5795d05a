//! `train_sgd`: the paper's Fig. 6 job.
//!
//! HOGWILD! logistic regression over an RCV1-like dataset: eight tasks per
//! epoch share one weights vector through the two-tier state. It uses the
//! same state tier as `state_mix` differently: large values through
//! `StateEntry` batched `pull_range` / `push_ranges`, and co-located
//! Faaslets sharing one mapped region, with no gateway and no VM. A change
//! that helps small cached point reads but hurts bulk chunk I/O shows here.

use std::time::Instant;

use faasm::core::{CallStatus, Cluster, ClusterConfig};
use faasm::workloads::data::{rcv1_like, SparseDataset};
use faasm::workloads::sgd::{self, SgdTask};

use super::{boot, mem_mb, net_bytes, Measured, Sizing, Workload, SLICES, TENANT};
use crate::loadgen::{Phase, Verdict};
use crate::spans::{Span, Spans};
use crate::stats::median;

const EXAMPLES: usize = 8192;
const FEATURES: usize = 2048;
const NNZ_PER_EXAMPLE: usize = 24;
const TASKS: u32 = 8;
const LEARNING_RATE: f64 = 0.5;
const PUSH_INTERVAL: u32 = 32;
/// Probed 0.909-0.916 after the warm-up epochs alone.
const MIN_ACCURACY: f64 = 0.88;

pub struct TrainSgd {
    cluster: Cluster,
    dataset: SparseDataset,
    tasks: Vec<SgdTask>,
    config: String,
}

impl TrainSgd {
    pub fn setup(seed: u64, sizing: Sizing) -> TrainSgd {
        // Replication 1 and no cache: the paper's configuration.
        let (cluster, config) = boot(ClusterConfig {
            hosts: 2,
            state_shards: 2,
            ..ClusterConfig::default()
        });
        sgd::register_faasm(&cluster, TENANT);
        let dataset = rcv1_like(EXAMPLES, FEATURES, NNZ_PER_EXAMPLE, seed);
        sgd::upload_dataset(cluster.kv().as_ref(), &dataset).expect("upload dataset");
        let tasks = sgd::partition(
            EXAMPLES as u32,
            TASKS,
            FEATURES as u32,
            LEARNING_RATE,
            PUSH_INTERVAL,
        );
        let mut train = TrainSgd {
            cluster,
            dataset,
            tasks,
            config,
        };
        let mut warmup = Phase::new("warmup", TASKS as usize, 1.0, 1);
        for _ in 0..sizing.sgd_epochs {
            train.epoch(&mut warmup, Instant::now(), &mut Spans::new(false));
        }
        train
    }

    /// One epoch of a phase that began at `began`: submit every task, then
    /// await them in order. Returns the epoch's wall time and the time spent
    /// inside `invoke_async`.
    fn epoch(&mut self, phase: &mut Phase, began: Instant, spans: &mut Spans) -> (f64, f64) {
        let epoch_span = spans.next_id();
        let epoch_start_ns = spans.now_ns();
        let start = Instant::now();
        let submitted: Vec<_> = self
            .tasks
            .iter()
            .map(|task| {
                let start_ns = spans.now_ns();
                let at = Instant::now();
                let id = self
                    .cluster
                    .invoke_async(TENANT, "sgd_update", task.to_bytes());
                (id, at, start_ns)
            })
            .collect();
        let busy = start.elapsed().as_secs_f64();
        phase.sent += submitted.len() as u64;
        for (id, at, start_ns) in submitted {
            let result = self.cluster.await_result(id);
            if result.status == CallStatus::Success {
                phase.count(Verdict::Ok);
                phase.sample(
                    "sgd_update",
                    at.elapsed().as_nanos() as u64,
                    began.elapsed().as_secs_f64(),
                );
            } else {
                phase.count(Verdict::Failed);
            }
            if spans.enabled() {
                let span = spans.next_id();
                let end_ns = spans.now_ns();
                spans.push(Span {
                    id: span,
                    trace: epoch_span,
                    parent: epoch_span,
                    name: "sgd_update",
                    start_ns,
                    end_ns,
                });
            }
        }
        let end_ns = spans.now_ns();
        spans.push(Span {
            id: epoch_span,
            trace: epoch_span,
            parent: 0,
            name: "epoch",
            start_ns: epoch_start_ns,
            end_ns,
        });
        (start.elapsed().as_secs_f64(), busy)
    }

    /// Time workers have spent executing guests, over every instance.
    fn exec_ns(&self) -> u64 {
        self.cluster
            .instances()
            .iter()
            .map(|i| i.metrics().exec_ns())
            .sum()
    }
}

impl Workload for TrainSgd {
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured {
        let net_before = net_bytes(&self.cluster);
        let exec_before = self.exec_ns();
        // A slice holds two dozen epochs: fewer would leave p99 to one task.
        let mut phase = Phase::new("train", TASKS as usize, secs, SLICES / 2);
        let mut epochs = Vec::new();
        let mut busy = 0.0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let (epoch_s, busy_s) = self.epoch(&mut phase, start, spans);
            epochs.push(epoch_s);
            busy += busy_s;
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.client_busy_share = busy / phase.elapsed_s;
        let net = (net_bytes(&self.cluster) - net_before) as f64;

        // Tasks complete eight at a time, so a per-slice count would be
        // quantised; the rate is a task's share of the median epoch.
        let epoch_s = median(&mut epochs);
        let mut m = Measured {
            rps: f64::from(TASKS) / epoch_s,
            mem_mb: mem_mb(&self.cluster),
            net_kb_per_call: net / 1e3 / phase.ok.max(1) as f64,
            ..Measured::default()
        };
        m.extras = vec![
            ("workloads.examples_per_s", EXAMPLES as f64 / epoch_s),
            (
                "workloads.net_mb_per_epoch",
                net / 1e6 / epochs.len() as f64,
            ),
            (
                "workloads.sgd_update_ms",
                (self.exec_ns() - exec_before) as f64 / 1e6 / phase.ok.max(1) as f64,
            ),
        ];
        match sgd::accuracy(self.cluster.kv().as_ref(), &self.dataset) {
            Ok(acc) if acc >= MIN_ACCURACY => {}
            Ok(acc) => m
                .errors
                .push(format!("accuracy {acc:.3} below {MIN_ACCURACY}")),
            Err(e) => m.errors.push(format!("accuracy: {e}")),
        }
        m.latency_from(&phase);
        m.phases = vec![phase];
        m
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn config(&self) -> String {
        format!(
            "{}, no gateway, rcv1_like({EXAMPLES}, {FEATURES}, {NNZ_PER_EXAMPLE}, seed), \
             partition({EXAMPLES}, {TASKS}, {FEATURES}, {LEARNING_RATE}, {PUSH_INTERVAL})",
            self.config
        )
    }
}
