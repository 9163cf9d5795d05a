//! Polybench kernels for Fig. 9a (§6.4).
//!
//! Each kernel exists twice: as FL source compiled to the FVM (the paper's
//! "compiled directly to WebAssembly and executed in Faaslets") and as a
//! native Rust mirror with the identical operation order. The benchmark
//! harness reports guest/native time ratios; the test suite asserts that
//! both implementations produce the same numbers, which pins the guest
//! semantics to the reference.
//!
//! Buffer convention: every kernel works on a single packed `f64` array
//! placed at guest address [`BASE`]; the `slots` function gives its length
//! for problem size `n`, `init` fills it identically for both sides, and
//! the FL entry is `void kernel(int n)`.

use std::time::{Duration, Instant};

use faasm_fvm::prelude::*;
use faasm_lang::MemConfig;

/// Guest base address of the data buffer (page 1).
pub const BASE: u32 = 65536;

/// One Polybench kernel.
pub struct Kernel {
    /// Kernel name, as in Fig. 9a.
    pub name: &'static str,
    /// FL source defining `void kernel(int n)`.
    pub fl: &'static str,
    /// Native mirror with identical operation order.
    pub native: fn(n: usize, mem: &mut [f64]),
    /// Buffer length in `f64` slots for problem size `n`.
    pub slots: fn(n: usize) -> usize,
    /// Deterministic input initialiser (shared by both sides).
    pub init: fn(n: usize, mem: &mut [f64]),
    /// Default problem size for tests.
    pub default_n: usize,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

/// Generic input fill: bounded, varied, deterministic.
#[allow(clippy::needless_range_loop)]
fn generic_init(_n: usize, mem: &mut [f64]) {
    for (i, v) in mem.iter_mut().enumerate() {
        *v = ((i * 7 + 3) % 13) as f64 / 13.0 + 0.1;
    }
}

/// Symmetric positive-definite fill for factorisation kernels: strong
/// diagonal dominance keeps Cholesky/LU stable.
fn spd_init(n: usize, mem: &mut [f64]) {
    generic_init(n, mem);
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                n as f64 + 1.0
            } else {
                0.3 / (1.0 + (i as f64 - j as f64).abs())
            };
            mem[i * n + j] = v;
        }
    }
}

/// Durbin needs |reflection coefficients| < 1: tiny autocorrelations.
fn durbin_init(n: usize, mem: &mut [f64]) {
    for (i, v) in mem.iter_mut().enumerate().take(n) {
        *v = 0.01 / (i as f64 + 1.0);
    }
    for v in mem.iter_mut().skip(n) {
        *v = 0.0;
    }
}

/// Nussinov sequence: bases 0..=3 cyclically; the DP table starts zeroed.
fn nussinov_init(n: usize, mem: &mut [f64]) {
    for (i, v) in mem.iter_mut().enumerate().take(n) {
        *v = (i % 4) as f64;
    }
    for v in mem.iter_mut().skip(n) {
        *v = 0.0;
    }
}

/// Compile and run a kernel in the FVM on the production tier — the
/// lowered tier `Cluster::upload_fl` compiles.
///
/// # Panics
///
/// Panics on FL compile errors (kernel sources are fixed test vectors) or a
/// guest trap.
pub fn run_fvm(kernel: &Kernel, n: usize) -> FvmRun {
    let slots = (kernel.slots)(n);
    let bytes_needed = BASE as usize + slots * 8;
    let pages = faasm_mem::pages_for_bytes(bytes_needed) as u32 + 1;
    let module = faasm_lang::compile_with(
        kernel.fl,
        MemConfig {
            initial_pages: pages,
            max_pages: pages + 4,
        },
    )
    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", kernel.name));
    let object = ObjectModule::prepare_lowered(module)
        .unwrap_or_else(|e| panic!("{} failed validation: {e}", kernel.name));
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).expect("links");

    let mut buf = vec![0.0f64; slots];
    (kernel.init)(n, &mut buf);
    let mem = inst.memory_mut().expect("kernel module has memory");
    for (i, v) in buf.iter().enumerate() {
        mem.write_f64(BASE as usize + i * 8, *v).expect("in bounds");
    }

    let t0 = Instant::now();
    inst.invoke("kernel", &[Val::I32(n as i32)])
        .unwrap_or_else(|t| panic!("{} trapped: {t}", kernel.name));
    let elapsed = t0.elapsed();

    let mem = inst.memory().expect("kernel module has memory");
    let mut out = vec![0.0f64; slots];
    for (i, v) in out.iter_mut().enumerate() {
        *v = mem.read_f64(BASE as usize + i * 8).expect("in bounds");
    }
    FvmRun {
        out,
        elapsed,
        fuel: inst.fuel.consumed(),
        dispatches: inst.instrs_retired(),
    }
}

/// One guest run of a kernel.
#[derive(Debug)]
pub struct FvmRun {
    /// The output buffer.
    pub out: Vec<f64>,
    /// Guest execution time of the `kernel` call.
    pub elapsed: Duration,
    /// Source instructions the call executed (its fuel).
    pub fuel: u64,
    /// Ops the lowered tier dispatched for it.
    pub dispatches: u64,
}

/// Run the native mirror, returning the output buffer and execution time.
pub fn run_native(kernel: &Kernel, n: usize) -> (Vec<f64>, Duration) {
    let mut buf = vec![0.0f64; (kernel.slots)(n)];
    (kernel.init)(n, &mut buf);
    let t0 = Instant::now();
    (kernel.native)(n, &mut buf);
    (buf, t0.elapsed())
}

mod kernels;
pub use kernels::all_kernels;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_outputs_match(kernel: &Kernel) {
        let n = kernel.default_n;
        let guest = run_fvm(kernel, n).out;
        let (native, _) = run_native(kernel, n);
        assert_eq!(guest.len(), native.len());
        for (i, (g, r)) in guest.iter().zip(&native).enumerate() {
            let scale = r.abs().max(1.0);
            assert!(
                (g - r).abs() / scale < 1e-9,
                "{}: slot {i} differs: guest {g} vs native {r}",
                kernel.name
            );
        }
        // The kernel must actually change the buffer.
        let mut input = vec![0.0f64; (kernel.slots)(n)];
        (kernel.init)(n, &mut input);
        assert_ne!(native, input, "{}: kernel is a no-op", kernel.name);
    }

    #[test]
    fn suite_has_many_kernels() {
        assert!(all_kernels().len() >= 16, "Fig. 9a needs a real suite");
    }

    // One test per kernel so failures name the culprit.
    macro_rules! kernel_test {
        ($fn_name:ident, $kernel_name:literal) => {
            #[test]
            fn $fn_name() {
                let kernel = all_kernels()
                    .into_iter()
                    .find(|k| k.name == $kernel_name)
                    .expect("kernel registered");
                assert_outputs_match(&kernel);
            }
        };
    }

    kernel_test!(twomm_matches, "2mm");
    kernel_test!(threemm_matches, "3mm");
    kernel_test!(atax_matches, "atax");
    kernel_test!(bicg_matches, "bicg");
    kernel_test!(mvt_matches, "mvt");
    kernel_test!(cholesky_matches, "cholesky");
    kernel_test!(lu_matches, "lu");
    kernel_test!(ludcmp_matches, "ludcmp");
    kernel_test!(trisolv_matches, "trisolv");
    kernel_test!(durbin_matches, "durbin");
    kernel_test!(jacobi1d_matches, "jacobi-1d");
    kernel_test!(jacobi2d_matches, "jacobi-2d");
    kernel_test!(seidel2d_matches, "seidel-2d");
    kernel_test!(fdtd2d_matches, "fdtd-2d");
    kernel_test!(heat3d_matches, "heat-3d");
    kernel_test!(floyd_matches, "floyd-warshall");
    kernel_test!(covariance_matches, "covariance");
    kernel_test!(correlation_matches, "correlation");
    kernel_test!(gramschmidt_matches, "gramschmidt");
    kernel_test!(doitgen_matches, "doitgen");
    kernel_test!(nussinov_matches, "nussinov");
}
