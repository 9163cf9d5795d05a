//! Runtime overhead (the paper's Fig. 9): what hosting code in a Faaslet
//! costs over running it natively.
//!
//! * 9a — every Polybench kernel compiled to the FVM and run as a guest,
//!   against its native Rust mirror.
//! * 9b — every MiniDyn program interpreted inside a Faaslet (the program
//!   loaded from the Faaslet filesystem, through the host interface),
//!   against the same interpreter called directly.
//!
//! Each cell is the median of three runs; the ratio is guest over native.
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

/// Median of three runs of `run`.
fn median3(mut run: impl FnMut() -> Duration) -> Duration {
    let mut samples = [run(), run(), run()];
    samples.sort_unstable();
    samples[1]
}

fn ratio(guest: Duration, native: Duration) -> f64 {
    guest.as_secs_f64() / native.as_secs_f64().max(1e-9)
}

fn fig9a() {
    println!("== Fig. 9a: Polybench, FVM guest vs native ==");
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "kernel", "native", "fvm", "ratio"
    );
    for kernel in polybench::all_kernels() {
        let n = kernel.default_n;
        let native = median3(|| polybench::run_native(&kernel, n).1);
        let fvm = median3(|| polybench::run_fvm(&kernel, n).1);
        println!(
            "{:<14} {:>12.1?} {:>12.1?} {:>8.1}x",
            kernel.name,
            native,
            fvm,
            ratio(fvm, native)
        );
    }
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
        let direct = median3(|| {
            let t0 = Instant::now();
            programs::run_direct(&b, b.default_n).expect("program runs");
            t0.elapsed()
        });
        let input = format!("{};{}", b.name, b.default_n).into_bytes();
        // Warm-up: the first call loads and caches the program file.
        cluster.invoke("py", "minidyn", input.clone());
        let hosted = median3(|| {
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
