//! Runtime overhead (the paper's Fig. 9): what hosting code in a Faaslet
//! costs over running it natively.
//!
//! * 9a — every Polybench kernel compiled to the FVM and run as a guest on
//!   the production (lowered) tier, against its native Rust mirror; beside
//!   each ratio, the ops the call dispatched and the time per dispatch, in
//!   ns and in calibration units.
//! * 9b — every MiniDyn program interpreted inside a Faaslet (the program
//!   loaded from the Faaslet filesystem, through the host interface),
//!   against the same interpreter called directly.
//!
//! Each cell is the fastest of [`RUNS`] runs, the one the rest of the
//! machine disturbed least; the ratio is guest over native. Time per
//! dispatch is also given in calibration units: one step of a fixed native
//! loop timed in the same process ([`calibration_unit_ns`]), so a reading
//! carries the clock it was taken under. 9a ends with one
//! summary line: the median ratio, its range, the ns per dispatch of the
//! kernel at the median, and the median over every kernel of the time per
//! dispatch in ns and in calibration units.
//! The paper's FVM analogue is a JIT, so its Polybench ratios are mostly
//! below 2x; this FVM dispatches a register bytecode, and the 9a column is
//! the number an ahead-of-time tier would have to move. Timing, so release
//! only:
//!
//! ```sh
//! cargo run --release --example runtime_overhead
//! ```

use std::time::{Duration, Instant};

use faasm::workloads::minidyn::programs;
use faasm::workloads::polybench;
use faasm::{Cluster, ClusterConfig};

/// Runs per cell.
const RUNS: usize = 15;

/// The fastest of [`RUNS`] runs of `run`.
fn fastest(mut run: impl FnMut() -> Duration) -> Duration {
    (0..RUNS).map(|_| run()).min().expect("RUNS > 0")
}

/// Steps of the calibration loop (~2 ms a run).
const CALIBRATION_STEPS: u32 = 1 << 20;

/// One calibration unit in ns: a step of a serial multiply–xorshift chain
/// (each step needs the last, so nothing vectorises or overlaps), the
/// fastest of [`RUNS`] runs.
fn calibration_unit_ns() -> f64 {
    let run = fastest(|| {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..CALIBRATION_STEPS {
            x ^= x >> 29;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        std::hint::black_box(x);
        t0.elapsed()
    });
    run.as_nanos() as f64 / f64::from(CALIBRATION_STEPS)
}

fn ratio(guest: Duration, native: Duration) -> f64 {
    guest.as_secs_f64() / native.as_secs_f64().max(1e-9)
}

fn fig9a() {
    println!("== Fig. 9a: Polybench, FVM guest (lowered tier) vs native ==");
    let unit = calibration_unit_ns();
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>12} {:>8} {:>9}",
        "kernel", "native", "fvm", "ratio", "dispatches", "ns/disp", "cal/disp"
    );
    let mut rows = Vec::new();
    for kernel in polybench::all_kernels() {
        let n = kernel.default_n;
        let native = fastest(|| polybench::run_native(&kernel, n).1);
        let mut dispatches = 0;
        let fvm = fastest(|| {
            let run = polybench::run_fvm(&kernel, n);
            dispatches = run.dispatches;
            run.elapsed
        });
        let (r, ns) = (
            ratio(fvm, native),
            fvm.as_nanos() as f64 / dispatches.max(1) as f64,
        );
        println!(
            "{:<14} {:>12.1?} {:>12.1?} {:>8.1}x {:>12} {:>8.2} {:>9.2}",
            kernel.name,
            native,
            fvm,
            r,
            dispatches,
            ns,
            ns / unit
        );
        rows.push((r, ns, kernel.name));
    }
    let mut per_dispatch: Vec<f64> = rows.iter().map(|row| row.1).collect();
    per_dispatch.sort_by(f64::total_cmp);
    let ns_median = per_dispatch[per_dispatch.len() / 2];
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (median, ns, name) = rows[rows.len() / 2];
    println!(
        "9a: median ratio {median:.1}x (range {:.1}-{:.1}x); median kernel {name}: {ns:.2} ns/dispatch; \
         median of {} kernels: {ns_median:.2} ns = {:.2} cal/dispatch (1 cal = {unit:.3} ns)",
        rows[0].0,
        rows[rows.len() - 1].0,
        rows.len(),
        ns_median / unit
    );
}

fn fig9b() {
    println!("== Fig. 9b: MiniDyn, in a Faaslet vs direct ==");
    let cluster = Cluster::with_config(ClusterConfig {
        hosts: 1,
        ..ClusterConfig::default()
    });
    programs::setup_faasm(&cluster, "py");
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "program", "direct", "in-faaslet", "ratio"
    );
    for b in programs::suite() {
        let direct = fastest(|| {
            let t0 = Instant::now();
            programs::run_direct(&b, b.default_n).expect("program runs");
            t0.elapsed()
        });
        let input = format!("{};{}", b.name, b.default_n).into_bytes();
        // Warm-up: the first call loads and caches the program file.
        cluster.invoke("py", "minidyn", input.clone());
        let hosted = fastest(|| {
            let t0 = Instant::now();
            let r = cluster.invoke("py", "minidyn", input.clone());
            let elapsed = t0.elapsed();
            assert_eq!(r.return_code(), 0, "{}: {:?}", b.name, r.status);
            elapsed
        });
        println!(
            "{:<14} {:>12.1?} {:>12.1?} {:>8.2}x",
            b.name,
            direct,
            hosted,
            ratio(hosted, direct)
        );
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("runtime_overhead times guest against native code: run it with --release");
        std::process::exit(2);
    }
    fig9a();
    println!();
    fig9b();
}
