//! Distributed SGD with HOGWILD! (§6.2, Listing 1).
//!
//! Reproduces the paper's machine-learning training workload: sparse
//! logistic-regression SGD over an RCV1-like dataset, parallelised across
//! serverless functions that share a central weights vector. Workers follow
//! Listing 1: they read their column (example) range from read-only sparse
//! matrices, update the shared weights lock-free (HOGWILD! "tolerates such
//! inconsistencies"), and push to the global tier sporadically.
//!
//! The same worker body runs on both platforms through [`FaasEnv`]; the
//! platforms differ exactly as the paper describes — Faaslets pull chunks
//! into host-shared regions and batch pushes, containers ship whole values
//! and write through to external storage.

use std::sync::Arc;

use faasm_baseline::{BaselinePlatform, ContainerApi, ContainerGuest};
use faasm_core::{Cluster, NativeApi, NativeGuest};
use faasm_kvs::KvBackend;

use crate::data::{bytes_to_f64s, f64s_to_bytes, u32s_to_bytes, SparseDataset};
use crate::env::{ContainerEnv, FaasEnv, FaasmEnv};

/// State keys used by the SGD application.
pub mod keys {
    /// CSC values (f64).
    pub const VALS: &str = "sgd:vals";
    /// CSC feature ids (u32).
    pub const FEATS: &str = "sgd:feats";
    /// CSC example pointers (u32).
    pub const COLPTR: &str = "sgd:colptr";
    /// Labels (f64).
    pub const LABELS: &str = "sgd:labels";
    /// The shared weights vector (f64).
    pub const WEIGHTS: &str = "sgd:weights";
}

/// A worker's slice of the training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdTask {
    /// First example (inclusive).
    pub start: u32,
    /// Last example (exclusive).
    pub end: u32,
    /// Feature dimensionality.
    pub features: u32,
    /// Total examples in the dataset.
    pub examples: u32,
    /// Learning rate.
    pub lr: f64,
    /// Push the weights every this many examples (Listing 1 line 12).
    pub push_interval: u32,
}

impl SgdTask {
    /// Serialise for a call input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28);
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.extend_from_slice(&self.features.to_le_bytes());
        out.extend_from_slice(&self.examples.to_le_bytes());
        out.extend_from_slice(&self.lr.to_le_bytes());
        out.extend_from_slice(&self.push_interval.to_le_bytes());
        out
    }

    /// Deserialise from a call input.
    pub fn from_bytes(b: &[u8]) -> Option<SgdTask> {
        if b.len() != 28 {
            return None;
        }
        Some(SgdTask {
            start: u32::from_le_bytes(b[0..4].try_into().ok()?),
            end: u32::from_le_bytes(b[4..8].try_into().ok()?),
            features: u32::from_le_bytes(b[8..12].try_into().ok()?),
            examples: u32::from_le_bytes(b[12..16].try_into().ok()?),
            lr: f64::from_le_bytes(b[16..24].try_into().ok()?),
            push_interval: u32::from_le_bytes(b[24..28].try_into().ok()?),
        })
    }
}

/// Upload a dataset to the global tier and initialise the weights — the
/// driver-side setup both platforms share.
///
/// # Errors
///
/// Global-tier errors as strings.
pub fn upload_dataset(kv: &dyn KvBackend, dataset: &SparseDataset) -> Result<(), String> {
    let (vals, feats, col_ptr) = dataset.to_csc();
    kv.set(keys::VALS, f64s_to_bytes(&vals))
        .map_err(|e| e.to_string())?;
    kv.set(keys::FEATS, u32s_to_bytes(&feats))
        .map_err(|e| e.to_string())?;
    kv.set(keys::COLPTR, u32s_to_bytes(&col_ptr))
        .map_err(|e| e.to_string())?;
    kv.set(keys::LABELS, f64s_to_bytes(&dataset.labels))
        .map_err(|e| e.to_string())?;
    kv.set(keys::WEIGHTS, f64s_to_bytes(&vec![0.0; dataset.features]))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Coalesce sorted, deduplicated element offsets (each `width` bytes) into
/// contiguous `(offset, len)` byte ranges for a batched push.
fn coalesce_ranges(offsets: &mut Vec<usize>, width: usize) -> Vec<(usize, usize)> {
    offsets.sort_unstable();
    offsets.dedup();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &off in offsets.iter() {
        match ranges.last_mut() {
            Some((start, len)) if *start + *len == off => *len += width,
            _ => ranges.push((off, width)),
        }
    }
    offsets.clear();
    ranges
}

/// Read elements `range` of `key`, a little-endian array of `total`
/// `N`-byte elements, into `out`. Both buffers are the caller's, so the
/// per-example reads of [`weight_update`] reuse one allocation each.
fn read_elems<E: FaasEnv, T, const N: usize>(
    env: &mut E,
    key: &str,
    total: usize,
    range: std::ops::Range<usize>,
    raw: &mut Vec<u8>,
    out: &mut Vec<T>,
    decode: fn([u8; N]) -> T,
) -> Result<(), String> {
    raw.resize(range.len() * N, 0);
    env.state_read(key, total * N, range.start * N, raw)?;
    out.clear();
    out.extend(
        raw.chunks_exact(N)
            .map(|c| decode(c.try_into().expect("N bytes"))),
    );
    Ok(())
}

/// The `weight_update` function of Listing 1, over [`FaasEnv`].
///
/// The weights vector is a **shared-output** value: many workers update
/// disjoint (and, HOGWILD-style, occasionally overlapping) features
/// concurrently. Flushes therefore push exactly the byte ranges this
/// worker wrote — a chunk-granular `push_state` would overwrite
/// neighbouring weights in the same 16 KiB chunk with the stale local
/// copies this worker pulled before the others updated them (the seed's
/// matmul `C` bug pattern).
///
/// # Errors
///
/// Platform error messages.
pub fn weight_update<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let task = SgdTask::from_bytes(&env.input()).ok_or("bad sgd task input")?;
    let wsize = task.features as usize * 8;
    let nnz_total = env.state_size(keys::VALS)? / 8;
    let (start, end, examples) = (
        task.start as usize,
        task.end as usize,
        task.examples as usize,
    );
    let mut raw = Vec::new();

    // Pointer window for this worker's example range (a chunked pull on
    // Faasm; whole-value ship on containers).
    let (mut ptrs, mut labels) = (Vec::new(), Vec::new());
    read_elems(
        env,
        keys::COLPTR,
        examples + 1,
        start..end + 1,
        &mut raw,
        &mut ptrs,
        u32::from_le_bytes,
    )?;
    read_elems(
        env,
        keys::LABELS,
        examples,
        start..end,
        &mut raw,
        &mut labels,
        f64::from_le_bytes,
    )?;

    let mut since_push = 0u32;
    // Feature byte offsets written since the last flush.
    let mut touched: Vec<usize> = Vec::new();
    // One example's values, feature ids and weights, reused across examples.
    let (mut vals, mut feats, mut w) = (Vec::new(), Vec::new(), Vec::new());
    for (i, ex) in (task.start..task.end).enumerate() {
        let lo = ptrs[i] as usize;
        let hi = ptrs[i + 1] as usize;
        if hi > nnz_total || lo > hi {
            return Err(format!("corrupt colptr for example {ex}"));
        }
        read_elems(
            env,
            keys::VALS,
            nnz_total,
            lo..hi,
            &mut raw,
            &mut vals,
            f64::from_le_bytes,
        )?;
        read_elems(
            env,
            keys::FEATS,
            nnz_total,
            lo..hi,
            &mut raw,
            &mut feats,
            u32::from_le_bytes,
        )?;

        // Prediction with the current (possibly stale — HOGWILD!) weights.
        let mut dot = 0.0;
        w.clear();
        for (f, v) in feats.iter().zip(&vals) {
            let mut word = [0u8; 8];
            env.state_read(keys::WEIGHTS, wsize, *f as usize * 8, &mut word)?;
            let wf = f64::from_le_bytes(word);
            w.push(wf);
            dot += wf * v;
        }
        let pred = 1.0 / (1.0 + (-dot).exp());
        let target = (labels[i] + 1.0) / 2.0; // {-1,1} → {0,1}
        let adj = task.lr * (target - pred);

        // The lock-free update of Listing 1 line 11.
        for ((f, v), wf) in feats.iter().zip(&vals).zip(&w) {
            let new = wf + v * adj;
            env.state_write(keys::WEIGHTS, wsize, *f as usize * 8, &new.to_le_bytes())?;
            touched.push(*f as usize * 8);
        }
        since_push += 1;
        if since_push >= task.push_interval {
            let ranges = coalesce_ranges(&mut touched, 8);
            env.state_push_ranges(keys::WEIGHTS, wsize, &ranges)?;
            since_push = 0;
        }
    }
    let ranges = coalesce_ranges(&mut touched, 8);
    env.state_push_ranges(keys::WEIGHTS, wsize, &ranges)?;
    Ok(0)
}

/// Register the SGD worker on a FAASM cluster.
pub fn register_faasm(cluster: &Cluster, user: &str) {
    let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
        let mut env = FaasmEnv::new(api);
        weight_update(&mut env).map_err(faasm_fvm::Trap::host)
    });
    cluster.register_native(user, "sgd_update", guest);
}

/// Register the SGD worker on the container baseline.
pub fn register_baseline(platform: &BaselinePlatform, user: &str) {
    let guest: Arc<dyn ContainerGuest> = Arc::new(|api: &mut ContainerApi<'_>| {
        let mut env = ContainerEnv::new(api);
        weight_update(&mut env)
    });
    platform.register(user, "sgd_update", guest);
}

/// Split `examples` into `workers` contiguous tasks.
pub fn partition(
    examples: u32,
    workers: u32,
    features: u32,
    lr: f64,
    push_interval: u32,
) -> Vec<SgdTask> {
    let workers = workers.max(1);
    let per = examples.div_ceil(workers);
    (0..workers)
        .filter_map(|w| {
            let start = w * per;
            let end = ((w + 1) * per).min(examples);
            (start < end).then_some(SgdTask {
                start,
                end,
                features,
                examples,
                lr,
                push_interval,
            })
        })
        .collect()
}

/// Training accuracy of the weights currently in the global tier.
///
/// # Errors
///
/// Global-tier errors as strings.
pub fn accuracy(kv: &dyn KvBackend, dataset: &SparseDataset) -> Result<f64, String> {
    let w = bytes_to_f64s(
        &kv.get(keys::WEIGHTS)
            .map_err(|e| e.to_string())?
            .ok_or("weights missing")?,
    );
    let (vals, feats, col_ptr) = dataset.to_csc();
    let mut correct = 0usize;
    for ex in 0..dataset.examples {
        let (lo, hi) = (col_ptr[ex] as usize, col_ptr[ex + 1] as usize);
        let dot: f64 = (lo..hi).map(|i| w[feats[i] as usize] * vals[i]).sum();
        let pred = if dot >= 0.0 { 1.0 } else { -1.0 };
        if pred == dataset.labels[ex] {
            correct += 1;
        }
    }
    Ok(correct as f64 / dataset.examples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::rcv1_like;

    #[test]
    fn task_roundtrip() {
        let t = SgdTask {
            start: 1,
            end: 9,
            features: 128,
            examples: 100,
            lr: 0.25,
            push_interval: 4,
        };
        assert_eq!(SgdTask::from_bytes(&t.to_bytes()), Some(t));
        assert_eq!(SgdTask::from_bytes(&[0; 3]), None);
    }

    #[test]
    fn partition_covers_all_examples() {
        let tasks = partition(100, 7, 32, 0.1, 8);
        assert_eq!(tasks[0].start, 0);
        assert_eq!(tasks.last().unwrap().end, 100);
        let total: u32 = tasks.iter().map(|t| t.end - t.start).sum();
        assert_eq!(total, 100);
        // Degenerate cases.
        assert_eq!(partition(3, 10, 8, 0.1, 1).len(), 3);
        assert_eq!(partition(0, 4, 8, 0.1, 1).len(), 0);
    }

    #[test]
    fn coalesce_merges_adjacent_and_dedups() {
        let mut offs = vec![16, 0, 8, 8, 40];
        assert_eq!(coalesce_ranges(&mut offs, 8), vec![(0, 24), (40, 8)]);
        assert!(offs.is_empty(), "buffer recycles");
        let mut none: Vec<usize> = Vec::new();
        assert_eq!(coalesce_ranges(&mut none, 8), Vec::new());
    }

    #[test]
    fn concurrent_writers_of_one_chunk_keep_each_others_updates() {
        use faasm_core::ChainRouter;

        // The shared-output regression behind the range-push conversion:
        // two hosts hold stale replicas of the same (single-chunk) weights
        // value, each writes its own half, each flushes. A chunk-granular
        // push would overwrite the other host's half with stale zeros; the
        // range push must keep both.
        let cluster = Cluster::new(2);
        cluster
            .kv()
            .set("w", crate::data::f64s_to_bytes(&[0.0; 16]))
            .unwrap();
        let mk = |val: f64, start: usize| {
            crate::env::tests::native(move |env| {
                // Pull the whole value into this host's local replica.
                env.state_read("w", 128, 0, &mut [0u8; 128])?;
                if env.input() == b"write" {
                    for i in 0..8 {
                        env.state_write("w", 128, (start + i) * 8, &val.to_le_bytes())?;
                    }
                    env.state_push_ranges("w", 128, &[(start * 8, 64)])?;
                }
                Ok(())
            })
        };
        cluster.register_native("ml", "left", mk(1.0, 0));
        cluster.register_native("ml", "right", mk(2.0, 8));
        let a = &cluster.instances()[0];
        let b = &cluster.instances()[1];
        // Both hosts prime their replicas while the value is all zeros...
        for (inst, f) in [(a, "left"), (b, "right")] {
            let id = inst.submit_placed("ml", f, b"prime".to_vec());
            assert_eq!(inst.await_call(id).return_code(), 0);
        }
        // ...then write and flush their halves from those stale replicas.
        for (inst, f) in [(a, "left"), (b, "right")] {
            let id = inst.submit_placed("ml", f, b"write".to_vec());
            assert_eq!(inst.await_call(id).return_code(), 0);
        }
        let w = crate::data::bytes_to_f64s(&cluster.kv().get("w").unwrap().unwrap());
        assert_eq!(&w[..8], &[1.0; 8], "left half survives the right flush");
        assert_eq!(&w[8..], &[2.0; 8], "right half survives the left flush");
    }

    #[test]
    fn weight_update_is_the_sequential_arithmetic_bit_for_bit() {
        let dataset = rcv1_like(96, 48, 6, 7);
        let (lr, push_interval) = (0.5, 16);
        let cluster = Cluster::new(1);
        register_faasm(&cluster, "ml");
        upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
        for task in partition(96, 1, 48, lr, push_interval) {
            let r = cluster.invoke("ml", "sgd_update", task.to_bytes());
            assert_eq!(r.return_code(), 0, "worker failed: {:?}", r.status);
        }
        let trained = bytes_to_f64s(&cluster.kv().get(keys::WEIGHTS).unwrap().unwrap());

        // Listing 1 with nothing in between: one pass over the examples in
        // order, each predicting from the weights as the last one left them.
        let (vals, feats, col_ptr) = dataset.to_csc();
        let mut weights = vec![0.0f64; dataset.features];
        for ex in 0..dataset.examples {
            let nz = col_ptr[ex] as usize..col_ptr[ex + 1] as usize;
            let w: Vec<f64> = nz.clone().map(|i| weights[feats[i] as usize]).collect();
            let mut dot = 0.0;
            for (wf, i) in w.iter().zip(nz.clone()) {
                dot += wf * vals[i];
            }
            let pred = 1.0 / (1.0 + (-dot).exp());
            let adj = lr * ((dataset.labels[ex] + 1.0) / 2.0 - pred);
            for (wf, i) in w.iter().zip(nz) {
                weights[feats[i] as usize] = wf + vals[i] * adj;
            }
        }
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&trained), bits(&weights));
        assert!(weights.iter().any(|w| *w != 0.0), "the task trained");
    }

    #[test]
    fn sgd_learns_on_faasm() {
        let cluster = Cluster::new(2);
        register_faasm(&cluster, "ml");
        let dataset = rcv1_like(256, 64, 8, 42);
        upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();

        let tasks = partition(256, 4, 64, 0.5, 16);
        for _epoch in 0..3 {
            let ids: Vec<_> = tasks
                .iter()
                .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
                .collect();
            for id in ids {
                let r = cluster.await_result(id);
                assert_eq!(r.return_code(), 0, "worker failed: {:?}", r.status);
            }
        }
        let acc = accuracy(cluster.kv().as_ref(), &dataset).unwrap();
        assert!(acc > 0.7, "training must beat chance: accuracy {acc}");
    }

    #[test]
    fn sgd_learns_on_baseline() {
        const HOSTS: usize = 2;
        let platform = BaselinePlatform::with_config(faasm_baseline::BaselineConfig {
            hosts: HOSTS,
            image: faasm_baseline::ImageConfig {
                image_bytes: 128 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            ..Default::default()
        });
        register_baseline(&platform, "ml");
        let dataset = rcv1_like(128, 64, 8, 42);
        upload_dataset(platform.kv().as_ref(), &dataset).unwrap();

        let tasks = partition(128, 4, 64, 0.5, 16);
        // A container trains on the private copy of the weights it fetched
        // on its first call, so what is learnt depends on which container
        // runs which task. One task per host at a time pins that down: the
        // gateway round-robins, each host only ever needs (and so keeps)
        // one container, and it sees the same tasks in the same order on
        // every run. The two tasks of a wave still race, HOGWILD!-style.
        for _epoch in 0..3 {
            for wave in tasks.chunks(HOSTS) {
                let ids: Vec<_> = wave
                    .iter()
                    .map(|t| platform.invoke_async("ml", "sgd_update", t.to_bytes()))
                    .collect();
                for id in ids {
                    let r = platform.await_result(id);
                    assert_eq!(r.return_code(), 0, "worker failed: {:?}", r.status);
                }
            }
        }
        let acc = accuracy(platform.kv().as_ref(), &dataset).unwrap();
        assert!(acc > 0.7, "training must beat chance: accuracy {acc}");
    }

    #[test]
    fn faasm_ships_fewer_bytes_than_baseline() {
        // The headline Fig. 6b property at miniature scale: identical
        // training on both platforms, compare fabric traffic.
        let dataset = rcv1_like(128, 64, 8, 1);
        let tasks = partition(128, 4, 64, 0.5, 16);

        let cluster = Cluster::new(2);
        register_faasm(&cluster, "ml");
        upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
        let before = cluster.fabric().stats().snapshot();
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            assert_eq!(cluster.await_result(id).return_code(), 0);
        }
        let faasm_bytes = cluster
            .fabric()
            .stats()
            .snapshot()
            .delta(&before)
            .total_bytes();

        let platform = BaselinePlatform::with_config(faasm_baseline::BaselineConfig {
            hosts: 2,
            image: faasm_baseline::ImageConfig {
                image_bytes: 128 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            ..Default::default()
        });
        register_baseline(&platform, "ml");
        upload_dataset(platform.kv().as_ref(), &dataset).unwrap();
        let before = platform.fabric().stats().snapshot();
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| platform.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            assert_eq!(platform.await_result(id).return_code(), 0);
        }
        let baseline_bytes = platform
            .fabric()
            .stats()
            .snapshot()
            .delta(&before)
            .total_bytes();

        assert!(
            faasm_bytes < baseline_bytes,
            "faasm {faasm_bytes} bytes must undercut baseline {baseline_bytes} bytes"
        );
    }
}
