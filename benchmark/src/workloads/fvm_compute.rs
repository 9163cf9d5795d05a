//! `fvm_compute`: the VM-bound workload.
//!
//! Four FL kernels of about 1 M source instructions per call, called in
//! rotation straight through `Cluster::invoke_async` (no gateway). The VM
//! does over 90 % of the work; ingress and state do none. Work on the
//! lowered tier (bounds checks and frame set-up on memory and call loops)
//! moves this workload and must not move `ingress_null`.

use std::time::Duration;

use faasm::core::{CallId, CallStatus, Cluster, ClusterConfig};

use super::{boot, mem_mb, net_bytes, Measured, Sizing, Workload, SLICES, TENANT};
use crate::loadgen::{closed_loop, Driver, Limit, Verdict};
use crate::spans::Spans;
use crate::stats::Rng;

/// Outstanding calls: enough to keep both hosts' workers busy without
/// queueing behind the 2 cores.
pub const WINDOW: usize = 4;

/// One kernel: FL source exporting `kernel` and a `main` that applies it
/// to the 4-byte operand in the call input, and the same computation in
/// Rust, operation for operation.
pub struct Kernel {
    pub name: &'static str,
    pub fl: String,
    pub native: fn(i32) -> Vec<u8>,
}

/// `main` for kernels returning `int`.
const INT_MAIN: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        ptr int io = (ptr int) 512;
        read_call_input(io, 4);
        io[0] = kernel(io[0]);
        write_call_output(io, 4);
        return 0;
    }
"#;

// Trip counts put each kernel at about one million source instructions
// per call (the unit test pins the range).
const ARITH_TRIPS: i32 = 56_000;
const MEMORY_TRIPS: i32 = 28_000;
const CALL_TRIPS: i32 = 46_000;
const FLOAT_N: usize = 48;
const FLOAT_ROUNDS: usize = 12;

/// The `vm_tiers` arithmetic loop, trip count raised, operand mixed in.
fn arith_fl() -> String {
    format!(
        r#"
        int kernel(int x) {{
            int acc = x;
            for (int i = 0; i < {ARITH_TRIPS}; i = i + 1) {{ acc = acc + (i ^ x); }}
            return acc;
        }}
        {INT_MAIN}"#
    )
}

fn arith_native(x: i32) -> Vec<u8> {
    let mut acc = x;
    for i in 0..ARITH_TRIPS {
        acc = acc.wrapping_add(i ^ x);
    }
    acc.to_le_bytes().to_vec()
}

/// The `vm_tiers` load/store loop.
fn memory_fl() -> String {
    format!(
        r#"
        int kernel(int x) {{
            ptr int p = (ptr int) 1024;
            int acc = 0;
            for (int i = 0; i < {MEMORY_TRIPS}; i = i + 1) {{
                p[i % 1000] = i + x;
                acc = acc + p[(i * 7) % 1000];
            }}
            return acc;
        }}
        {INT_MAIN}"#
    )
}

fn memory_native(x: i32) -> Vec<u8> {
    let mut p = [0i32; 1000];
    let mut acc = 0i32;
    for i in 0..MEMORY_TRIPS {
        p[(i % 1000) as usize] = i.wrapping_add(x);
        acc = acc.wrapping_add(p[((i * 7) % 1000) as usize]);
    }
    acc.to_le_bytes().to_vec()
}

/// The `vm_tiers` call loop.
fn call_fl() -> String {
    format!(
        r#"
        int leaf(int a, int b) {{ return a + b + 1; }}
        int kernel(int x) {{
            int acc = 0;
            for (int i = 0; i < {CALL_TRIPS}; i = i + 1) {{ acc = leaf(acc, x); }}
            return acc;
        }}
        {INT_MAIN}"#
    )
}

fn call_native(x: i32) -> Vec<u8> {
    let mut acc = 0i32;
    for _ in 0..CALL_TRIPS {
        acc = acc.wrapping_add(x).wrapping_add(1);
    }
    acc.to_le_bytes().to_vec()
}

/// Power iteration on a 48 x 48 matrix of doubles: the nested loops of a
/// Polybench kernel (matrix-vector product, norm, scale).
fn float_fl() -> String {
    format!(
        r#"
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        double kernel(int x) {{
            int n = {FLOAT_N};
            ptr double A = (ptr double) 65536;
            ptr double v = A + n * n;
            ptr double t = v + n;
            for (int i = 0; i < n; i = i + 1) {{
                for (int j = 0; j < n; j = j + 1) {{
                    A[i * n + j] = (double) ((i * j + x) % 13) / 13.0 + 0.1;
                }}
                v[i] = 1.0 + (double) i / (double) n;
            }}
            for (int r = 0; r < {FLOAT_ROUNDS}; r = r + 1) {{
                for (int i = 0; i < n; i = i + 1) {{
                    double acc = 0.0;
                    for (int j = 0; j < n; j = j + 1) {{ acc = acc + A[i * n + j] * v[j]; }}
                    t[i] = acc;
                }}
                double norm = 0.0;
                for (int i = 0; i < n; i = i + 1) {{ norm = norm + t[i] * t[i]; }}
                norm = sqrt(norm);
                for (int i = 0; i < n; i = i + 1) {{ v[i] = t[i] / norm; }}
            }}
            double s = 0.0;
            for (int i = 0; i < n; i = i + 1) {{ s = s + v[i]; }}
            return s;
        }}
        int main() {{
            ptr int io = (ptr int) 512;
            read_call_input(io, 4);
            ptr double out = (ptr double) 520;
            out[0] = kernel(io[0]);
            write_call_output((ptr int) 520, 8);
            return 0;
        }}
        "#
    )
}

fn float_native(x: i32) -> Vec<u8> {
    let n = FLOAT_N;
    let mut a = vec![0.0f64; n * n];
    let mut v = vec![0.0f64; n];
    let mut t = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = f64::from(((i * j) as i32 + x) % 13) / 13.0 + 0.1;
        }
        v[i] = 1.0 + i as f64 / n as f64;
    }
    for _ in 0..FLOAT_ROUNDS {
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * n + j] * v[j];
            }
            t[i] = acc;
        }
        let mut norm = 0.0;
        for ti in &t {
            norm += ti * ti;
        }
        let norm = norm.sqrt();
        for i in 0..n {
            v[i] = t[i] / norm;
        }
    }
    let mut s = 0.0;
    for vi in &v {
        s += vi;
    }
    s.to_le_bytes().to_vec()
}

pub fn kernels() -> [Kernel; 4] {
    [
        Kernel {
            name: "arith",
            fl: arith_fl(),
            native: arith_native,
        },
        Kernel {
            name: "memory",
            fl: memory_fl(),
            native: memory_native,
        },
        Kernel {
            name: "call",
            fl: call_fl(),
            native: call_native,
        },
        Kernel {
            name: "float",
            fl: float_fl(),
            native: float_native,
        },
    ]
}

/// Seeded operands in `0..2^20` (non-negative, so `%` agrees with C).
pub fn operand(rng: &mut Rng) -> i32 {
    (rng.next_u64() & 0xf_ffff) as i32
}

struct KernelDriver<'a> {
    cluster: &'a Cluster,
    kernels: &'a [Kernel],
    rng: Rng,
}

impl Driver for KernelDriver<'_> {
    type Ticket = (CallId, Vec<u8>);

    fn submit(&mut self, i: u64) -> (Self::Ticket, &'static str) {
        // A rotation that shifts by one every pass: the front door deals
        // calls to the two hosts in turn, and a plain `i % 4` would pin each
        // kernel to one host for the whole run.
        let n = self.kernels.len() as u64;
        let kernel = &self.kernels[((i + i / n) % n) as usize];
        let x = operand(&mut self.rng);
        let id = self
            .cluster
            .invoke_async(TENANT, kernel.name, x.to_le_bytes().to_vec());
        // The native mirror runs while the guest does: it costs the client
        // about 1 % of a guest call.
        ((id, (kernel.native)(x)), kernel.name)
    }

    fn complete(&mut self, (id, expected): Self::Ticket) -> Verdict {
        let result = self.cluster.await_result(id);
        if result.status == CallStatus::Success && result.output == expected {
            Verdict::Ok
        } else {
            Verdict::Failed
        }
    }
}

pub struct FvmCompute {
    cluster: Cluster,
    kernels: [Kernel; 4],
    rng: Rng,
    config: String,
}

impl FvmCompute {
    pub fn setup(seed: u64, sizing: Sizing) -> FvmCompute {
        let (cluster, config) = boot(ClusterConfig {
            hosts: 2,
            ..ClusterConfig::default()
        });
        let kernels = kernels();
        for kernel in &kernels {
            cluster
                .upload_fl(TENANT, kernel.name, &kernel.fl, Default::default())
                .expect("upload kernel");
        }
        let mut rng = Rng::new(seed);
        let mut driver = KernelDriver {
            cluster: &cluster,
            kernels: &kernels,
            rng: Rng::new(rng.next_u64()),
        };
        closed_loop(
            "warmup",
            &mut driver,
            WINDOW,
            Limit::Calls(sizing.fvm_calls),
            SLICES,
            &mut Spans::new(false),
        );
        FvmCompute {
            cluster,
            kernels,
            rng,
            config,
        }
    }
}

/// Source instructions executed by guests so far, over every instance.
pub fn fuel(cluster: &Cluster) -> u64 {
    cluster.instances().iter().map(|i| i.metrics().fuel()).sum()
}

impl Workload for FvmCompute {
    fn measure(&mut self, secs: f64, spans: &mut Spans) -> Measured {
        let net_before = net_bytes(&self.cluster);
        let fuel_before = fuel(&self.cluster);
        let mut driver = KernelDriver {
            cluster: &self.cluster,
            kernels: &self.kernels,
            rng: Rng::new(self.rng.next_u64()),
        };
        let run = closed_loop(
            "run",
            &mut driver,
            WINDOW,
            Limit::For(Duration::from_secs_f64(secs)),
            SLICES,
            spans,
        );
        let mut m = Measured {
            rps: run.rps(),
            mem_mb: mem_mb(&self.cluster),
            net_kb_per_call: (net_bytes(&self.cluster) - net_before) as f64
                / 1e3
                / run.ok.max(1) as f64,
            ..Measured::default()
        };
        m.extras.push((
            "fvm.guest_minstr_per_s",
            (fuel(&self.cluster) - fuel_before) as f64 / 1e6 / run.elapsed_s,
        ));
        m.latency_from(&run);
        m.phases = vec![run];
        m
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn config(&self) -> String {
        format!("{}, no gateway, window {WINDOW}", self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm::fvm::prelude::*;
    use std::sync::Arc;

    /// Every kernel agrees with its native mirror, and is sized to about
    /// one million source instructions per call.
    #[test]
    fn kernels_match_their_native_mirrors() {
        for kernel in &kernels() {
            let module = faasm::lang::compile(&kernel.fl).expect(kernel.name);
            let object = ObjectModule::prepare_lowered(module).expect(kernel.name);
            let linker = faasm::core::faaslet_linker();
            for x in [0, 1, 12_345, 0xf_ffff] {
                // A fresh instance per call, as the Faaslet reset gives.
                let mut inst =
                    Instance::new(Arc::clone(&object), &linker, Box::new(())).expect(kernel.name);
                let got = match inst.invoke("kernel", &[Val::I32(x)]).expect(kernel.name) {
                    Some(Val::I32(v)) => v.to_le_bytes().to_vec(),
                    Some(Val::F64(v)) => v.to_le_bytes().to_vec(),
                    other => panic!("{}: unexpected result {other:?}", kernel.name),
                };
                assert_eq!(got, (kernel.native)(x), "{} at operand {x}", kernel.name);
                let fuel = inst.fuel.consumed();
                assert!(
                    (900_000..1_100_000).contains(&fuel),
                    "{} executes {fuel} source instructions",
                    kernel.name
                );
            }
        }
    }
}
