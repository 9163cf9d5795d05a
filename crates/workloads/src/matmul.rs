//! Distributed divide-and-conquer matrix multiplication (§6.4, Fig. 8).
//!
//! "Each matrix multiplication is subdivided into multiplications of smaller
//! submatrices and merged. This is implemented by recursively chaining
//! serverless functions, with each multiplication using 64 multiplication
//! functions and 9 merging functions." We reproduce the structure with a
//! 4×4 block grid: `mm_main` chains 64 block-product functions
//! (`P[i,j,k] = A[i,k] × B[k,j]`) and then 16 merge functions
//! (`C[i,j] = Σ_k P[i,j,k]`), all through the ordinary chain/await host
//! interface on both platforms.

use std::sync::Arc;

use faasm_baseline::{BaselinePlatform, ContainerApi, ContainerGuest};
use faasm_core::{Cluster, NativeApi, NativeGuest};
use faasm_kvs::KvBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{bytes_to_f64s, f64s_to_bytes};
use crate::env::{ContainerEnv, FaasEnv, FaasmEnv};

/// Blocks per side of the grid (4 × 4 grid → 64 products + 16 merges).
pub const GRID: usize = 4;

/// State keys for the matmul application.
pub mod keys {
    /// Input matrix A (row-major f64).
    pub const A: &str = "mm:A";
    /// Input matrix B (row-major f64).
    pub const B: &str = "mm:B";
    /// Output matrix C (row-major f64).
    pub const C: &str = "mm:C";

    /// The temp key for one block product.
    pub fn product(i: usize, j: usize, k: usize) -> String {
        format!("mm:P:{i}:{j}:{k}")
    }
}

fn encode_task(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_task(b: &[u8], n: usize) -> Option<Vec<u32>> {
    if b.len() != n * 4 {
        return None;
    }
    Some(
        b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect(),
    )
}

/// Read a `block × block` submatrix at block coordinates `(bi, bj)` from a
/// row-major `n × n` state value, row by row (each row is a contiguous
/// range, so Faaslets pull only covering chunks).
fn read_block<E: FaasEnv>(
    env: &mut E,
    key: &str,
    n: usize,
    bi: usize,
    bj: usize,
    block: usize,
) -> Result<Vec<f64>, String> {
    let total = n * n * 8;
    let mut out = Vec::with_capacity(block * block);
    let mut bytes = vec![0u8; block * 8];
    for r in 0..block {
        let row = bi * block + r;
        let offset = (row * n + bj * block) * 8;
        env.state_read(key, total, offset, &mut bytes)?;
        out.extend_from_slice(&bytes_to_f64s(&bytes));
    }
    Ok(out)
}

/// Write a `block × block` submatrix into a row-major `n × n` state value.
fn write_block<E: FaasEnv>(
    env: &mut E,
    key: &str,
    n: usize,
    bi: usize,
    bj: usize,
    block: usize,
    data: &[f64],
) -> Result<(), String> {
    let total = n * n * 8;
    let mut ranges = Vec::with_capacity(block);
    for (r, row) in data.chunks_exact(block).enumerate() {
        let offset = ((bi * block + r) * n + bj * block) * 8;
        env.state_write(key, total, offset, &f64s_to_bytes(row))?;
        ranges.push((offset, block * 8));
    }
    // Push exactly the written rows: concurrent merges on other hosts own
    // the neighbouring bytes of each chunk, so a chunk-granular push would
    // race and overwrite their blocks with stale local zeros. All rows go
    // in one batched flush (one global-tier round-trip on Faasm).
    env.state_push_ranges(key, total, &ranges)
}

/// One block product: `P[i,j,k] = A[i,k] × B[k,j]`.
///
/// # Errors
///
/// Platform error messages.
pub fn mm_mult<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let t = decode_task(&env.input(), 4).ok_or("bad mm_mult input")?;
    let (n, i, j, k) = (t[0] as usize, t[1] as usize, t[2] as usize, t[3] as usize);
    let block = n / GRID;
    let a = read_block(env, keys::A, n, i, k, block)?;
    let b = read_block(env, keys::B, n, k, j, block)?;
    let mut p = vec![0.0f64; block * block];
    for r in 0..block {
        for kk in 0..block {
            let av = a[r * block + kk];
            if av == 0.0 {
                continue;
            }
            for c in 0..block {
                p[r * block + c] += av * b[kk * block + c];
            }
        }
    }
    let pkey = keys::product(i, j, k);
    env.state_write(&pkey, block * block * 8, 0, &f64s_to_bytes(&p))?;
    env.state_push(&pkey, block * block * 8)?;
    Ok(0)
}

/// One merge: `C[i,j] = Σ_k P[i,j,k]`.
///
/// # Errors
///
/// Platform error messages.
pub fn mm_merge<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let t = decode_task(&env.input(), 3).ok_or("bad mm_merge input")?;
    let (n, i, j) = (t[0] as usize, t[1] as usize, t[2] as usize);
    let block = n / GRID;
    let mut acc = vec![0.0f64; block * block];
    let mut bytes = vec![0u8; block * block * 8];
    for k in 0..GRID {
        let pkey = keys::product(i, j, k);
        env.state_read(&pkey, block * block * 8, 0, &mut bytes)?;
        for (a, v) in acc.iter_mut().zip(bytes_to_f64s(&bytes)) {
            *a += v;
        }
    }
    write_block(env, keys::C, n, i, j, block, &acc)?;
    Ok(0)
}

/// The driver function: chain 64 products, await, chain 16 merges, await
/// (Fig. 8's recursive chaining, flattened to the paper's fan-out counts).
///
/// # Errors
///
/// Platform error messages.
pub fn mm_main<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let t = decode_task(&env.input(), 1).ok_or("bad mm_main input")?;
    let n = t[0] as usize;
    if !n.is_multiple_of(GRID) {
        return Err(format!("matrix size {n} not divisible by grid {GRID}"));
    }
    let mut product_calls = Vec::with_capacity(GRID * GRID * GRID);
    for i in 0..GRID {
        for j in 0..GRID {
            for k in 0..GRID {
                let input = encode_task(&[n as u32, i as u32, j as u32, k as u32]);
                product_calls.push(env.chain("mm_mult", input));
            }
        }
    }
    for id in product_calls {
        if env.await_call(id) != 0 {
            return Err("block product failed".into());
        }
    }
    let mut merge_calls = Vec::with_capacity(GRID * GRID);
    for i in 0..GRID {
        for j in 0..GRID {
            let input = encode_task(&[n as u32, i as u32, j as u32]);
            merge_calls.push(env.chain("mm_merge", input));
        }
    }
    for id in merge_calls {
        if env.await_call(id) != 0 {
            return Err("merge failed".into());
        }
    }
    env.write_output(&(n as u32).to_le_bytes());
    Ok(0)
}

/// Register the three matmul functions on a FAASM cluster.
pub fn register_faasm(cluster: &Cluster, user: &str) {
    macro_rules! native {
        ($f:expr) => {{
            let g: Arc<dyn NativeGuest> = Arc::new(move |api: &mut NativeApi<'_>| {
                let mut env = FaasmEnv::new(api);
                $f(&mut env).map_err(faasm_fvm::Trap::host)
            });
            g
        }};
    }
    cluster.register_native(user, "mm_main", native!(mm_main));
    cluster.register_native(user, "mm_mult", native!(mm_mult));
    cluster.register_native(user, "mm_merge", native!(mm_merge));
}

/// Register the three matmul functions on the container baseline.
pub fn register_baseline(platform: &BaselinePlatform, user: &str) {
    macro_rules! guest {
        ($f:expr) => {{
            let g: Arc<dyn ContainerGuest> = Arc::new(move |api: &mut ContainerApi<'_>| {
                let mut env = ContainerEnv::new(api);
                $f(&mut env)
            });
            g
        }};
    }
    platform.register(user, "mm_main", guest!(mm_main));
    platform.register(user, "mm_mult", guest!(mm_mult));
    platform.register(user, "mm_merge", guest!(mm_merge));
}

/// Upload random `n × n` inputs and a zeroed output.
///
/// # Errors
///
/// Global-tier errors as strings.
pub fn upload_matrices(kv: &dyn KvBackend, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    kv.set(keys::A, f64s_to_bytes(&a))
        .map_err(|e| e.to_string())?;
    kv.set(keys::B, f64s_to_bytes(&b))
        .map_err(|e| e.to_string())?;
    kv.set(keys::C, f64s_to_bytes(&vec![0.0; n * n]))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Reference single-threaded multiply of the uploaded inputs.
///
/// # Errors
///
/// Global-tier errors as strings.
pub fn reference_product(kv: &dyn KvBackend, n: usize) -> Result<Vec<f64>, String> {
    let a = bytes_to_f64s(
        &kv.get(keys::A)
            .map_err(|e| e.to_string())?
            .ok_or("A missing")?,
    );
    let b = bytes_to_f64s(
        &kv.get(keys::B)
            .map_err(|e| e.to_string())?
            .ok_or("B missing")?,
    );
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let av = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += av * b[k * n + j];
            }
        }
    }
    Ok(c)
}

/// Fetch the distributed result.
///
/// # Errors
///
/// Global-tier errors as strings.
pub fn read_result(kv: &dyn KvBackend, n: usize) -> Result<Vec<f64>, String> {
    let c = bytes_to_f64s(
        &kv.get(keys::C)
            .map_err(|e| e.to_string())?
            .ok_or("C missing")?,
    );
    if c.len() != n * n {
        return Err(format!(
            "result has {} elements, expected {}",
            c.len(),
            n * n
        ));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn distributed_matmul_matches_reference_on_faasm() {
        let cluster = Cluster::new(2);
        register_faasm(&cluster, "la");
        let n = 16;
        upload_matrices(cluster.kv().as_ref(), n, 5).unwrap();
        let r = cluster.invoke("la", "mm_main", encode_task(&[n as u32]));
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        let c = read_result(cluster.kv().as_ref(), n).unwrap();
        let expected = reference_product(cluster.kv().as_ref(), n).unwrap();
        assert_close(&c, &expected);
    }

    #[test]
    fn distributed_matmul_matches_reference_on_baseline() {
        let platform = BaselinePlatform::with_config(faasm_baseline::BaselineConfig {
            hosts: 2,
            image: faasm_baseline::ImageConfig {
                image_bytes: 128 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            ..Default::default()
        });
        register_baseline(&platform, "la");
        let n = 16;
        upload_matrices(platform.kv().as_ref(), n, 5).unwrap();
        let r = platform.invoke("la", "mm_main", encode_task(&[n as u32]));
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        let c = read_result(platform.kv().as_ref(), n).unwrap();
        let expected = reference_product(platform.kv().as_ref(), n).unwrap();
        assert_close(&c, &expected);
    }

    #[test]
    fn bad_sizes_rejected() {
        let cluster = Cluster::new(1);
        register_faasm(&cluster, "la");
        upload_matrices(cluster.kv().as_ref(), 6, 1).unwrap();
        let r = cluster.invoke("la", "mm_main", encode_task(&[6]));
        assert!(matches!(r.status, faasm_core::CallStatus::Error(_)));
        let r = cluster.invoke("la", "mm_main", vec![1, 2, 3]);
        assert!(matches!(r.status, faasm_core::CallStatus::Error(_)));
    }
}
