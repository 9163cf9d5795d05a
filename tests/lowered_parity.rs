//! Lowered-vs-interpreter parity through the full cluster path: the FVM
//! execution tier must change speed, never answers. Each FL workload
//! (matmul, SGD, inference) is deployed on two clusters that differ only in
//! the tier its `ObjectModule` was compiled for — a cluster always uploads
//! lowered, so the interpreter build is registered through
//! `Cluster::register` — and must produce bitwise identical outputs —
//! including the inference run, whose model is built by an `init` export so
//! every start after the first restores a Proto-Faaslet snapshot taken
//! mid-workload (model materialised, forward passes still to come).

use faasm::core::{Cluster, FunctionDef, GuestCode, UploadOptions};
use faasm::fvm::{ExecTier, ObjectModule};

/// Deploy `src` compiled for `tier`: what `Cluster::upload_fl` does, with
/// the tier chosen here instead of fixed at lowered.
fn deploy(c: &Cluster, tier: ExecTier, name: &str, src: &str, options: UploadOptions) {
    let bytes = faasm::fvm::encode_module(&faasm::lang::compile(src).unwrap());
    let def = FunctionDef {
        code: GuestCode::Fvm(ObjectModule::compile_tier(&bytes, tier).unwrap()),
        entry: options.entry,
        init: options.init,
        reset_after_call: options.reset_after_call,
    };
    c.register("par", name, def).unwrap();
}

/// Dense f64 matmul with deterministic in-guest operands; outputs the full
/// product matrix, so a single flipped bit anywhere fails the test.
const MATMUL_FL: &str = r#"
    extern void write_call_output(ptr int buf, int len);
    int main() {
        int n = 12;
        int cbase = 8192 + 16 * n * n;
        ptr double A = (ptr double) 8192;
        ptr double B = A + n * n;
        ptr double C = (ptr double) cbase;
        for (int i = 0; i < n; i = i + 1) {
            for (int j = 0; j < n; j = j + 1) {
                A[i * n + j] = (double) ((i * 7 + j * 3) % 11) * 0.25;
                B[i * n + j] = (double) ((i * 5 + j) % 13) * 0.125;
            }
        }
        for (int i = 0; i < n; i = i + 1) {
            for (int j = 0; j < n; j = j + 1) {
                double acc = 0.0;
                for (int k = 0; k < n; k = k + 1) {
                    acc = acc + A[i * n + k] * B[k * n + j];
                }
                C[i * n + j] = acc;
            }
        }
        write_call_output((ptr int) cbase, n * n * 8);
        return 0;
    }
"#;

/// Three epochs of sequential least-squares SGD over a deterministic
/// synthetic dataset; outputs the final weight vector.
const SGD_FL: &str = r#"
    extern void write_call_output(ptr int buf, int len);
    int main() {
        int d = 16;
        int m = 24;
        ptr double w = (ptr double) 8192;
        ptr double x = (ptr double) 12288;
        for (int j = 0; j < d; j = j + 1) { w[j] = 0.0; }
        for (int e = 0; e < 3; e = e + 1) {
            for (int s = 0; s < m; s = s + 1) {
                for (int j = 0; j < d; j = j + 1) {
                    x[j] = (double) ((s * 13 + j * 7) % 19) * 0.1 - 0.9;
                }
                double y = (double) ((s * 3) % 7) * 0.5;
                double err = 0.0 - y;
                for (int j = 0; j < d; j = j + 1) { err = err + w[j] * x[j]; }
                for (int j = 0; j < d; j = j + 1) {
                    w[j] = w[j] - 0.01 * err * x[j];
                }
            }
        }
        write_call_output((ptr int) 8192, d * 8);
        return 0;
    }
"#;

/// Two-layer MLP. `init` materialises the weights (the first half of the
/// workload); the Proto-Faaslet snapshot is captured after it runs, so
/// restored starts resume mid-workload with the model already in memory.
const INFER_FL: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    void init() {
        ptr double w1 = (ptr double) 8192;
        ptr double w2 = (ptr double) 12288;
        for (int j = 0; j < 8; j = j + 1) {
            for (int i = 0; i < 16; i = i + 1) {
                w1[j * 16 + i] = (double) ((j * 31 + i * 17) % 23) * 0.05 - 0.5;
            }
        }
        for (int k = 0; k < 4; k = k + 1) {
            for (int j = 0; j < 8; j = j + 1) {
                w2[k * 8 + j] = (double) ((k * 11 + j * 5) % 17) * 0.1 - 0.8;
            }
        }
    }
    int main() {
        int n = input_size();
        read_call_input((ptr int) 4096, n);
        ptr int px = (ptr int) 4096;
        ptr double w1 = (ptr double) 8192;
        ptr double w2 = (ptr double) 12288;
        ptr double f = (ptr double) 16384;
        ptr double h = (ptr double) 20480;
        ptr double s = (ptr double) 24576;
        for (int i = 0; i < 16; i = i + 1) {
            f[i] = (double) (px[i] % 256) * 0.01;
        }
        for (int j = 0; j < 8; j = j + 1) {
            double acc = 0.0;
            for (int i = 0; i < 16; i = i + 1) {
                acc = acc + w1[j * 16 + i] * f[i];
            }
            if (acc < 0.0) { acc = 0.0; }
            h[j] = acc;
        }
        for (int k = 0; k < 4; k = k + 1) {
            double acc = 0.0;
            for (int j = 0; j < 8; j = j + 1) {
                acc = acc + w2[k * 8 + j] * h[j];
            }
            s[k] = acc;
        }
        write_call_output((ptr int) 24576, 32);
        return 0;
    }
"#;

/// Output transcript of one tier's run.
type Transcript = Vec<Vec<u8>>;

/// Run `calls` invocations of one uploaded function on both tiers and
/// return the two output transcripts plus each cluster's summed guest-CPU
/// counters (fuel, ops retired).
fn run_on_both(
    name: &str,
    src: &str,
    options: &UploadOptions,
    inputs: &[Vec<u8>],
    hosts: usize,
) -> (Transcript, Transcript, [(u64, u64); 2]) {
    let mut outs = Vec::new();
    let mut cpu = [(0, 0); 2];
    for (slot, tier) in [ExecTier::Interpreter, ExecTier::Lowered]
        .iter()
        .enumerate()
    {
        let c = Cluster::new(hosts);
        deploy(&c, *tier, name, src, options.clone());
        let mut transcript = Vec::new();
        for input in inputs {
            let r = c.invoke("par", name, input.clone());
            assert_eq!(r.return_code(), 0, "{tier:?} {name}: {:?}", r.status);
            transcript.push(r.output);
        }
        let mut fuel = 0;
        let mut instrs = 0;
        for inst in c.instances() {
            let s = inst.metrics().snapshot();
            fuel += s.fuel;
            instrs += s.guest_instrs;
        }
        cpu[slot] = (fuel, instrs);
        outs.push(transcript);
    }
    let lowered = outs.pop().unwrap();
    let interp = outs.pop().unwrap();
    (interp, lowered, cpu)
}

#[test]
fn matmul_bitwise_identical_across_tiers() {
    let (interp, lowered, cpu) = run_on_both(
        "mm",
        MATMUL_FL,
        &UploadOptions::default(),
        &vec![Vec::new(); 3],
        2,
    );
    assert_eq!(interp, lowered, "tier must be invisible in answers");
    assert_eq!(interp[0].len(), 12 * 12 * 8);
    let [(i_fuel, i_instrs), (l_fuel, l_instrs)] = cpu;
    // Fuel is the tier-independent source-instruction count; retired ops
    // are engine dispatches, which fusion and structural elision shrink.
    assert_eq!(i_fuel, l_fuel, "identical work, identical fuel");
    assert!(
        l_instrs < i_instrs,
        "lowering must retire fewer ops ({l_instrs} vs {i_instrs})"
    );
}

#[test]
fn sgd_weights_bitwise_identical_across_tiers() {
    let (interp, lowered, _) = run_on_both(
        "sgd",
        SGD_FL,
        &UploadOptions::default(),
        &vec![Vec::new(); 2],
        2,
    );
    assert_eq!(interp, lowered, "identical schedule, identical weights");
    assert_eq!(interp[0].len(), 16 * 8);
}

#[test]
fn inference_through_proto_restore_bitwise_identical_across_tiers() {
    // 8 calls across 2 hosts: the first start is cold (runs `init`, captures
    // the mid-workload proto), every later start on the other host restores
    // the snapshot — on both tiers.
    let options = UploadOptions {
        init: Some("init".into()),
        ..UploadOptions::default()
    };
    let inputs: Vec<Vec<u8>> = (0..8u8)
        .map(|i| {
            (0..64u8)
                .map(|b| b.wrapping_mul(7).wrapping_add(i))
                .collect()
        })
        .collect();
    let (interp, lowered, _) = run_on_both("infer", INFER_FL, &options, &inputs, 2);
    assert_eq!(interp, lowered, "snapshot/restore must preserve parity");
    assert_eq!(interp[0].len(), 32);
    // Distinct inputs must actually produce distinct scores (the model is
    // live, not a constant function).
    assert_ne!(interp[0], interp[7]);
}

/// A `dlopen` plugin behind the `dl_entry(buf, len) -> len` convention:
/// integer and float work over the argument, result written back in place.
const PLUGIN_FL: &str = r#"
    int dl_entry(ptr int buf, int len) {
        int x = buf[0];
        int acc = x;
        double f = 0.5;
        for (int i = 0; i < 2000; i = i + 1) {
            acc = acc + (i ^ x) % 7;
            f = f * 1.0001 + (double) (acc % 5) / 3.0;
        }
        buf[0] = acc;
        ptr double out = (ptr double) (buf + 2);
        out[0] = f;
        return 16;
    }
"#;

/// Loads `plugin.fvm`, resolves `dl_entry` and calls it on the call input.
const DLCALL_FL: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern int dlopen(ptr int path, int len);
    extern int dlsym(int handle, ptr int name, int len);
    extern int dlcall(int sym, ptr int arg, int arg_len, ptr int out, int out_cap);
    int main() {
        ptr int p = (ptr int) 64;
        p[0] = 0x67756c70; // "plug"
        p[1] = 0x662e6e69; // "in.f"
        p[2] = 0x6d76;     // "vm"
        int h = dlopen((ptr int) 64, 10);
        if (h < 0) { return 1; }
        ptr int n = (ptr int) 128;
        n[0] = 0x655f6c64; // "dl_e"
        n[1] = 0x7972746e; // "ntry"
        int sym = dlsym(h, (ptr int) 128, 8);
        if (sym < 0) { return 2; }
        read_call_input((ptr int) 192, 4);
        if (dlcall(sym, (ptr int) 192, 16, (ptr int) 256, 16) != 16) { return 3; }
        write_call_output((ptr int) 256, 16);
        return 0;
    }
"#;

#[test]
fn dlcall_bitwise_identical_across_tiers() {
    // The plugin always runs lowered; the module that loads it runs on
    // either tier — and the two must still agree to the bit.
    let plugin = faasm::fvm::encode_module(&faasm::lang::compile(PLUGIN_FL).unwrap());
    let inputs: Vec<Vec<u8>> = [3i32, 12_345, -7]
        .iter()
        .map(|x| x.to_le_bytes().to_vec())
        .collect();
    let transcripts: Vec<Transcript> = [ExecTier::Interpreter, ExecTier::Lowered]
        .iter()
        .map(|tier| {
            let c = Cluster::new(1);
            c.object_store().put("user:par/plugin.fvm", plugin.clone());
            deploy(&c, *tier, "dl", DLCALL_FL, UploadOptions::default());
            inputs
                .iter()
                .map(|input| {
                    let r = c.invoke("par", "dl", input.clone());
                    assert_eq!(r.return_code(), 0, "{tier:?} dlcall: {:?}", r.status);
                    r.output
                })
                .collect()
        })
        .collect();
    assert_eq!(
        transcripts[0], transcripts[1],
        "a plugin's tier is invisible"
    );
    assert_eq!(transcripts[0][0].len(), 16);
    assert_ne!(
        transcripts[0][0], transcripts[0][1],
        "the plugin really ran"
    );
}
