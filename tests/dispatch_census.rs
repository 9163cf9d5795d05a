//! Dispatch census of the lowered tier: the exact fuel and the exact number
//! of ops dispatched by one call of each of
//!
//! * the four `fvm_compute` kernels at operand 12345,
//! * every Polybench kernel of Fig. 9a at its `default_n`,
//! * one recursive function, which no lowering can flatten, so the plain
//!   guest `Call`/`Ret` path stays pinned.
//!
//! Fuel is the tier-independent count of source instructions: a change to
//! how bodies are lowered must leave every fuel pin where it is. The
//! dispatch pins are what such a change moves; each move is accounted for
//! in CHANGES.md. No clock is read, so the census is the same under any
//! `--test-threads`.

use std::sync::Arc;

use faasm::fvm::prelude::*;
use faasm::workloads::polybench;

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

// The four kernels below are the FL of `benchmark/src/workloads/fvm_compute.rs`,
// trip counts included, copied so the census does not depend on the
// benchmark crate.
const ARITH_TRIPS: i32 = 56_000;
const MEMORY_TRIPS: i32 = 28_000;
const CALL_TRIPS: i32 = 46_000;
const FLOAT_N: usize = 48;
const FLOAT_ROUNDS: usize = 12;

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

/// Naive Fibonacci: two guest calls per level, none of them inlinable.
const FIB_FL: &str = r#"
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(15); }
"#;

/// One census row: `(name, fuel, dispatches)`.
type Row = (&'static str, u64, u64);

/// Fuel and dispatches of `export(arg)` on a fresh lowered instance.
fn count(name: &'static str, fl: &str, export: &str, arg: i32) -> Row {
    let module = faasm::lang::compile(fl).expect(name);
    let object = ObjectModule::prepare(module).expect(name);
    let linker = faasm::core::faaslet_linker();
    let mut inst = Instance::new(Arc::clone(&object), &linker, Box::new(())).expect(name);
    inst.invoke(export, &[Val::I32(arg)]).expect(name);
    (name, inst.fuel.consumed(), inst.instrs_retired())
}

fn census() -> Vec<Row> {
    let mut rows = vec![
        count("arith", &arith_fl(), "kernel", 12_345),
        count("memory", &memory_fl(), "kernel", 12_345),
        count("call", &call_fl(), "kernel", 12_345),
        count("float", &float_fl(), "kernel", 12_345),
        count("fib", FIB_FL, "fib", 15),
    ];
    for kernel in polybench::all_kernels() {
        let run = polybench::run_fvm(&kernel, kernel.default_n);
        rows.push((kernel.name, run.fuel, run.dispatches));
    }
    rows
}

/// The pinned census. Fuel never moves with the lowering; dispatches move
/// only with a change CHANGES.md gives the cause of.
const PINNED: &[Row] = &[
    ("arith", 1_008_013, 168_004),
    ("memory", 1_008_015, 252_005),
    ("call", 1_012_013, 184_004),
    ("float", 1_014_673, 232_251),
    ("fib", 20_712, 8_876),
    ("2mm", 1_035_557, 257_058),
    ("3mm", 906_138, 224_606),
    ("atax", 161_801, 35_053),
    ("bicg", 168_191, 39_567),
    ("mvt", 195_599, 41_775),
    ("cholesky", 224_908, 56_468),
    ("lu", 425_436, 105_604),
    ("ludcmp", 459_876, 113_039),
    ("trisolv", 67_482, 14_697),
    ("durbin", 191_819, 37_380),
    ("jacobi-1d", 234_038, 66_116),
    ("jacobi-2d", 799_690, 298_842),
    ("seidel-2d", 669_877, 257_424),
    ("fdtd-2d", 993_596, 349_773),
    ("heat-3d", 1_354_624, 591_989),
    ("floyd-warshall", 1_601_542, 430_926),
    ("covariance", 482_682, 120_134),
    ("correlation", 487_485, 120_222),
    ("gramschmidt", 937_062, 253_088),
    ("doitgen", 986_106, 273_791),
    ("nussinov", 369_324, 120_000),
];

#[test]
fn every_kernel_retires_its_pinned_fuel_and_dispatches() {
    let got = census();
    let names: Vec<&str> = got.iter().map(|row| row.0).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "one pin per census row, in order");
    let off: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|(got, pin)| got != pin)
        .map(|((name, fuel, disp), (_, pin_fuel, pin_disp))| {
            format!(
                "{name}: fuel {fuel} (pinned {pin_fuel}), dispatches {disp} (pinned {pin_disp})"
            )
        })
        .collect();
    assert!(off.is_empty(), "census off its pins:\n{}", off.join("\n"));
}
