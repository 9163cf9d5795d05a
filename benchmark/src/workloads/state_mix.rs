//! `state_mix`: the state-bound workload, reads beside writes.
//!
//! 4096 keys x 4 KiB (16 MiB, four times one instance's 4 MiB cache), drawn
//! zipf(1.0); 90 % of calls pull a key and read 8 bytes, 10 % write 8 bytes
//! and push. The cache, KVS client, codec, fabric and shard apply do most
//! of the work, and the gateway does the same per-request work as in
//! `ingress_null`. Read and write latency are reported apart, so a cache
//! gain that costs writers shows; the working set exceeds the cache, so
//! eviction matters.
//!
//! The timed run is at replication factor 1. At factor 2 the same mix is
//! seven times slower and bound by thread wake-ups, not by work: 8 workers
//! each blocked about 3.5 ms in a quorum wait. On this box that number
//! moved 28 % between runs of one commit, too much to hold a bound, so the
//! traced set runs a factor-2 twin and reports it per layer
//! (`state.r2_rps`, `state.r2_p50_ms`) beside `kvs.client.set_r2_us`,
//! `kvs.quorum_wait_p50_us` and `kvs.repl_forward_p50_us`.

use faasm::core::{Cluster, ClusterConfig};
use faasm::gateway::Gateway;
use faasm::kvs::Consistency;
use faasm::telemetry::SpanKind;

use super::{
    lat_and_sat, mem_mb, net_bytes, verdict_of, Ingress, Measured, Sizing, Workload, LAT_WINDOW,
    SAT_WINDOW, TENANT,
};
use crate::counters;
use crate::loadgen::{closed_loop, Driver, Limit, Phase, Verdict};
use crate::spans::Spans;
use crate::stats::{Rng, Zipf};

const FUNCTION: &str = "mix";
const KEYS: usize = 4096;
const VALUE_BYTES: usize = 4096;
const CACHE_BYTES: usize = 4 * 1024 * 1024;
const ZIPF_S: f64 = 1.0;
const WRITE_SHARE: f64 = 0.1;
/// Memory is sampled when this many timed calls have completed (or at the
/// end of a shorter run): each host's local tier grows with the distinct
/// keys it has served, so memory at the end of the window would grow with
/// the call rate.
const MEM_SAMPLE_CALL: u64 = 65_536;

/// Input: op (0 read, 1 write), sequence number, key index (three
/// little-endian `int`s), then the key's name. A value's first 8 bytes are
/// the sequence number of its last write and its key index; both ops
/// answer with them.
///
/// An FL guest on the host interface expresses the whole op. The local
/// read/write lock keeps a reader's `pull_state` (which re-fetches into
/// the host-shared region) from landing between a co-located writer's
/// store and its push.
const MIX_SRC: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern int get_state(ptr int key, int key_len, int size);
    extern void pull_state(ptr int key, int key_len, int size);
    extern void push_state(ptr int key, int key_len);
    extern void lock_state_read(ptr int key, int key_len);
    extern void unlock_state_read(ptr int key, int key_len);
    extern void lock_state_write(ptr int key, int key_len);
    extern void unlock_state_write(ptr int key, int key_len);
    int main() {
        int n = input_size();
        ptr int req = (ptr int) 1024;
        read_call_input(req, n);
        ptr int key = (ptr int) 1036;
        int klen = n - 12;
        ptr int s = (ptr int) get_state(key, klen, 4096);
        if (req[0] == 0) {
            lock_state_read(key, klen);
            pull_state(key, klen, 4096);
            req[0] = s[0];
            req[1] = s[1];
            unlock_state_read(key, klen);
        } else {
            lock_state_write(key, klen);
            s[0] = req[1];
            s[1] = req[2];
            push_state(key, klen);
            unlock_state_write(key, klen);
            req[0] = req[1];
            req[1] = req[2];
        }
        write_call_output(req, 8);
        return 0;
    }
"#;

fn key_name(idx: u32) -> String {
    format!("mix:{idx:04}")
}

fn head(seq: u32, idx: u32) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&seq.to_le_bytes());
    out[4..].copy_from_slice(&idx.to_le_bytes());
    out
}

/// What was asked of one key.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: u32,
    /// The sequence number written, or `None` for a read.
    write: Option<u32>,
}

/// The generator's record of every key: the model reads are checked
/// against, and the last acknowledged write the final audit expects.
struct Model {
    issued: Vec<u32>,
    acked: Vec<u32>,
    writing: Vec<bool>,
    /// Calls completed since the timed window opened, and the memory
    /// sample taken at call `MEM_SAMPLE_CALL`.
    completed: u64,
    mem_mb: Option<f64>,
}

struct MixDriver<'a> {
    ingress: &'a Ingress,
    model: &'a mut Model,
    zipf: &'a Zipf,
    rng: Rng,
}

impl Driver for MixDriver<'_> {
    type Ticket = (Option<u64>, Op);

    fn submit(&mut self, _i: u64) -> (Self::Ticket, &'static str) {
        let is_write = self.rng.next_f64() < WRITE_SHARE;
        let mut key = self.zipf.sample(&mut self.rng);
        // One write per key in flight, so "last acknowledged write" names
        // one value; a write that draws a busy key draws again.
        while is_write && self.model.writing[key] {
            key = self.zipf.sample(&mut self.rng);
        }
        let op = Op {
            key: key as u32,
            write: is_write.then(|| {
                self.model.writing[key] = true;
                self.model.issued[key] += 1;
                self.model.issued[key]
            }),
        };
        let mut input = Vec::with_capacity(20);
        input.extend_from_slice(&u32::from(is_write).to_le_bytes());
        input.extend_from_slice(&op.write.unwrap_or(0).to_le_bytes());
        input.extend_from_slice(&op.key.to_le_bytes());
        input.extend_from_slice(key_name(op.key).as_bytes());
        let ticket = self.ingress.client.submit(TENANT, FUNCTION, input).ok();
        ((ticket, op), if is_write { "write" } else { "read" })
    }

    fn complete(&mut self, (ticket, op): Self::Ticket) -> Verdict {
        let key = op.key as usize;
        let Some(ticket) = ticket else {
            return Verdict::Failed;
        };
        let resp = self.ingress.client.wait(ticket);
        self.model.completed += 1;
        if self.model.completed == MEM_SAMPLE_CALL {
            self.model.mem_mb = Some(mem_mb(&self.ingress.cluster));
        }
        match op.write {
            Some(seq) => {
                self.model.writing[key] = false;
                let verdict = verdict_of(&resp, &head(seq, op.key));
                if verdict == Verdict::Ok {
                    self.model.acked[key] = seq;
                }
                verdict
            }
            None => {
                // A read returns the key's initial value or one this
                // generator wrote to it.
                let seq = resp
                    .output
                    .get(..4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
                match seq {
                    Some(seq) if seq <= self.model.issued[key] => {
                        verdict_of(&resp, &head(seq, op.key))
                    }
                    _ => verdict_of(&resp, &[]),
                }
            }
        }
    }
}

pub struct StateMix {
    ingress: Ingress,
    model: Model,
    zipf: Zipf,
    rng: Rng,
    seed: u64,
    sizing: Sizing,
}

impl StateMix {
    pub fn setup(seed: u64, sizing: Sizing) -> StateMix {
        StateMix::start(seed, sizing, 1)
    }

    fn start(seed: u64, sizing: Sizing, replication_factor: usize) -> StateMix {
        let ingress = Ingress::start(ClusterConfig {
            hosts: 2,
            state_shards: 2,
            replication_factor,
            cache_bytes: CACHE_BYTES,
            default_consistency: Consistency::ReadYourWrites,
            ..ClusterConfig::default()
        });
        ingress
            .cluster
            .upload_fl(TENANT, FUNCTION, MIX_SRC, Default::default())
            .expect("upload mix");
        for idx in 0..KEYS as u32 {
            let mut value = vec![idx as u8; VALUE_BYTES];
            value[..8].copy_from_slice(&head(0, idx));
            ingress
                .cluster
                .kv()
                .set(&key_name(idx), value)
                .expect("preload");
        }
        let mut mix = StateMix {
            ingress,
            model: Model {
                issued: vec![0; KEYS],
                acked: vec![0; KEYS],
                writing: vec![false; KEYS],
                completed: 0,
                mem_mb: None,
            },
            zipf: Zipf::new(KEYS, ZIPF_S),
            rng: Rng::new(seed),
            seed,
            sizing,
        };
        mix.phase(
            "warmup",
            SAT_WINDOW,
            Limit::Calls(sizing.state_calls),
            &mut Spans::new(false),
        );
        mix
    }

    fn phase(
        &mut self,
        name: &'static str,
        window: usize,
        limit: Limit,
        spans: &mut Spans,
    ) -> Phase {
        let mut driver = MixDriver {
            ingress: &self.ingress,
            model: &mut self.model,
            zipf: &self.zipf,
            rng: Rng::new(self.rng.next_u64()),
        };
        closed_loop(name, &mut driver, window, limit, 1, spans)
    }

    /// After the run, an authoritative read of every written key equals its
    /// last acknowledged write (the driver's client reads the primary, past
    /// every function-side cache).
    fn audit(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (idx, &acked) in self.model.acked.iter().enumerate() {
            if self.model.issued[idx] == 0 {
                continue;
            }
            let value = self.ingress.cluster.kv().get(&key_name(idx as u32));
            let got = value.as_ref().ok().and_then(|v| v.as_deref()?.get(..8));
            if got != Some(&head(acked, idx as u32)[..]) {
                errors.push(format!(
                    "key {idx}: tier holds {got:?}, last acknowledged write was {acked}"
                ));
            }
        }
        errors
    }
}

impl Workload for StateMix {
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured {
        let net_before = net_bytes(&self.ingress.cluster);
        (self.model.completed, self.model.mem_mb) = (0, None);
        let (lat, sat) = lat_and_sat(secs, |name, window, limit| {
            self.phase(name, window, limit, spans)
        });
        let mut m = Measured {
            rps: sat.rps(),
            mem_mb: self
                .model
                .mem_mb
                .unwrap_or_else(|| mem_mb(&self.ingress.cluster)),
            errors: self.audit(),
            ..Measured::default()
        };
        m.latency_from(&lat);
        for (name, op) in [
            ("state.read_p50_ms", "read"),
            ("state.write_p50_ms", "write"),
        ] {
            m.extras.push((name, lat.percentile_ms(Some(op), 50.0)));
        }
        m.phases = vec![lat, sat];
        m.net_kb_per_call =
            (net_bytes(&self.ingress.cluster) - net_before) as f64 / 1e3 / m.ok().max(1) as f64;
        m
    }

    /// The mix at replication factor 2, with the two histograms only a
    /// replicated tier fills.
    fn side_run(&mut self, secs: f64) -> (Vec<(&'static str, f64)>, Vec<String>) {
        let mut twin = StateMix::start(self.seed, self.sizing, 2);
        let before = counters::snapshot(twin.cluster(), twin.gateway());
        let r2 = twin.measure(secs, &mut Spans::new(false));
        let after = counters::snapshot(twin.cluster(), twin.gateway());
        let mut errors = r2.errors.clone();
        if r2.failed() > 0 {
            errors.push(format!("{} calls failed at replication 2", r2.failed()));
        }
        let p50_us = |kind| counters::p50_us(&before, &after, kind);
        let extras = vec![
            ("state.r2_rps", r2.rps),
            ("state.r2_p50_ms", r2.p50_ms),
            ("kvs.repl_forward_p50_us", p50_us(SpanKind::ReplForward)),
            ("kvs.quorum_wait_p50_us", p50_us(SpanKind::QuorumWait)),
        ];
        (extras, errors)
    }

    fn cluster(&self) -> &Cluster {
        &self.ingress.cluster
    }

    fn gateway(&self) -> Option<&Gateway> {
        Some(&self.ingress.gateway)
    }

    fn config(&self) -> String {
        format!(
            "{}, windows {LAT_WINDOW}/{SAT_WINDOW}, {KEYS} keys x {VALUE_BYTES} B, \
             zipf s={ZIPF_S}, writes {WRITE_SHARE}",
            self.ingress.config
        )
    }
}
