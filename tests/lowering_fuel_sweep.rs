//! The lowered tier's loop, address and call lowerings — bottom-tested
//! loops and their fused back-edges, scaled addresses folded into loads and
//! stores, straight-line leaf calls inlined — against the reference
//! interpreter, at every fuel limit.
//!
//! Each sweep case — a small-trip version of an `fvm_compute` kernel or of
//! a Polybench stencil, or a hand-built loop shape — runs on both tiers from
//! a fresh instance at every fuel limit from 1 to its total + 1: result or
//! trap, consumed fuel, globals and every byte of memory must agree at each.
//! The depth case calls an inlined leaf exactly at the call-depth limit, and
//! the trap cases trap inside an inlined body.

use std::sync::Arc;

use faasm::fvm::prelude::*;
use faasm::lang::MemConfig;
use faasm::workloads::polybench;

/// Everything a caller can see of one call.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Option<Val>, Trap>,
    fuel: u64,
    globals: Vec<Val>,
    memory: Vec<u8>,
}

/// One program, prepared for both tiers, with the memory image every run
/// starts from.
struct Case {
    name: &'static str,
    interp: Arc<ObjectModule>,
    lowered: Arc<ObjectModule>,
    image: Vec<(usize, f64)>,
}

impl Case {
    fn fl(name: &'static str, src: &str) -> Case {
        Case::compiled(name, src, Vec::new())
    }

    fn compiled(name: &'static str, src: &str, image: Vec<(usize, f64)>) -> Case {
        let module = faasm::lang::compile_with(
            src,
            MemConfig {
                initial_pages: 3,
                max_pages: 4,
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        Case::module(name, module, image)
    }

    fn module(name: &'static str, module: Module, image: Vec<(usize, f64)>) -> Case {
        Case {
            name,
            interp: ObjectModule::prepare(module.clone()).expect(name),
            lowered: ObjectModule::prepare_lowered(module).expect(name),
            image,
        }
    }

    /// Run `export(args)` on one tier from a fresh instance.
    fn run(
        &self,
        lowered: bool,
        export: &str,
        args: &[Val],
        fuel: FuelMeter,
        depth: usize,
    ) -> Outcome {
        let object = if lowered { &self.lowered } else { &self.interp };
        let mut inst = Instance::with_fuel(Arc::clone(object), &Linker::new(), Box::new(()), fuel)
            .expect(self.name);
        inst.set_max_call_depth(depth);
        let mem = inst.memory_mut().expect("FL modules have memory");
        for &(addr, v) in &self.image {
            mem.write_f64(addr, v).expect("in bounds");
        }
        let result = inst.invoke(export, args);
        Outcome {
            result,
            fuel: inst.fuel.consumed(),
            globals: (0..).map_while(|i| inst.global(i)).collect(),
            memory: inst.memory().expect("memory").to_vec(),
        }
    }

    /// Both tiers agree at every fuel limit from 1 to the total + 1; returns
    /// the unlimited outcome.
    fn sweep(&self, export: &str, args: &[Val]) -> Outcome {
        let depth = faasm::fvm::instance::DEFAULT_MAX_CALL_DEPTH;
        let full = self.run(false, export, args, FuelMeter::unlimited(), depth);
        assert_eq!(
            full,
            self.run(true, export, args, FuelMeter::unlimited(), depth),
            "{}: unlimited",
            self.name
        );
        for limit in 1..=full.fuel + 1 {
            let interp = self.run(false, export, args, FuelMeter::with_limit(limit), depth);
            let lowered = self.run(true, export, args, FuelMeter::with_limit(limit), depth);
            assert_eq!(interp, lowered, "{}: fuel limit {limit}", self.name);
            if limit >= full.fuel {
                assert_eq!(interp, full, "{}: fuel limit {limit}", self.name);
            } else {
                assert_eq!(
                    (interp.result, interp.fuel),
                    (Err(Trap::OutOfFuel), limit + 1),
                    "{}: fuel limit {limit}",
                    self.name
                );
            }
        }
        full
    }
}

fn sweep_kernel(name: &'static str, src: &str, x: i32) {
    let case = Case::fl(name, src);
    let out = case.sweep("kernel", &[Val::I32(x)]);
    assert!(out.result.is_ok(), "{name}: {:?}", out.result);
}

#[test]
fn arith_loop_agrees_at_every_fuel_limit() {
    sweep_kernel(
        "arith",
        r#"
        int kernel(int x) {
            int acc = x;
            for (int i = 0; i < 6; i = i + 1) { acc = acc + (i ^ x); }
            return acc;
        }"#,
        12_345,
    );
}

#[test]
fn memory_loop_agrees_at_every_fuel_limit() {
    // Loads through a scaled index between stores of a computed value and
    // of a constant.
    sweep_kernel(
        "memory",
        r#"
        int kernel(int x) {
            ptr int p = (ptr int) 1024;
            int acc = 0;
            for (int i = 0; i < 9; i = i + 1) {
                p[i % 7] = i + x;
                acc = acc + p[(i * 3) % 7];
                p[i % 5 + 7] = 3;
            }
            return acc;
        }"#,
        12_345,
    );
}

#[test]
fn call_loop_agrees_at_every_fuel_limit() {
    sweep_kernel(
        "call",
        r#"
        int leaf(int a, int b) { return a + b + 1; }
        int kernel(int x) {
            int acc = 0;
            for (int i = 0; i < 6; i = i + 1) { acc = leaf(acc, x); }
            return acc;
        }"#,
        12_345,
    );
}

#[test]
fn float_loops_agree_at_every_fuel_limit() {
    // The power iteration of `fvm_compute`'s float kernel at n = 3, two
    // rounds.
    sweep_kernel(
        "float",
        r#"
        double kernel(int x) {
            int n = 3;
            ptr double A = (ptr double) 65536;
            ptr double v = A + n * n;
            ptr double t = v + n;
            for (int i = 0; i < n; i = i + 1) {
                for (int j = 0; j < n; j = j + 1) {
                    A[i * n + j] = (double) ((i * j + x) % 13) / 13.0 + 0.1;
                }
                v[i] = 1.0 + (double) i / (double) n;
            }
            for (int r = 0; r < 2; r = r + 1) {
                for (int i = 0; i < n; i = i + 1) {
                    double acc = 0.0;
                    for (int j = 0; j < n; j = j + 1) { acc = acc + A[i * n + j] * v[j]; }
                    t[i] = acc;
                }
                double norm = 0.0;
                for (int i = 0; i < n; i = i + 1) { norm = norm + t[i] * t[i]; }
                norm = sqrt(norm);
                for (int i = 0; i < n; i = i + 1) { v[i] = t[i] / norm; }
            }
            double s = 0.0;
            for (int i = 0; i < n; i = i + 1) { s = s + v[i]; }
            return s;
        }"#,
        12_345,
    );
}

#[test]
fn jacobi_2d_agrees_at_every_fuel_limit() {
    let kernel = polybench::all_kernels()
        .into_iter()
        .find(|k| k.name == "jacobi-2d")
        .expect("registered");
    let n = 4;
    let mut buf = vec![0.0; (kernel.slots)(n)];
    (kernel.init)(n, &mut buf);
    let image = buf
        .iter()
        .enumerate()
        .map(|(i, v)| (polybench::BASE as usize + i * 8, *v))
        .collect();
    let case = Case::compiled("jacobi-2d", kernel.fl, image);
    let out = case.sweep("kernel", &[Val::I32(n as i32)]);
    assert_eq!(out.result, Ok(None));
}

#[test]
fn a_loop_headed_by_an_if_agrees_at_every_fuel_limit() {
    // loop; local.get 0; if; local 0 -= 1; global 0 += 1; br 1; end; end
    // The header is the `if`, whose false edge executes the `if`'s `end`:
    // the copied header's fall-through must pay it too.
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    let g = b.global(ValType::I32, true, Val::I32(0));
    let sig = b.sig(FuncType::new(vec![ValType::I32], vec![]));
    let f = b.func(
        sig,
        vec![],
        vec![
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::If(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::LocalSet(0),
            Instr::GlobalGet(g),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::GlobalSet(g),
            Instr::Br(1),
            Instr::End,
            Instr::End,
            Instr::End,
        ],
    );
    b.export_func("count_down", f);
    let case = Case::module("if-headed loop", b.build(), Vec::new());
    let out = case.sweep("count_down", &[Val::I32(4)]);
    assert_eq!(out.globals, [Val::I32(4)]);
}

#[test]
fn an_endless_loop_agrees_at_every_fuel_limit() {
    // loop; global 0 += 1; local.get 0; br_if 0; br 0; end; end — the
    // header branches back to its own loop, and no code after the loop is
    // live, so the copied header falls into a `Jump` back to the head.
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    let g = b.global(ValType::I32, true, Val::I32(0));
    let sig = b.sig(FuncType::new(vec![ValType::I32], vec![]));
    let f = b.func(
        sig,
        vec![],
        vec![
            Instr::Loop(BlockType::Empty),
            Instr::GlobalGet(g),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::GlobalSet(g),
            Instr::LocalGet(0),
            Instr::BrIf(0),
            Instr::Br(0),
            Instr::End,
            Instr::End,
        ],
    );
    b.export_func("spin", f);
    let case = Case::module("endless loop", b.build(), Vec::new());
    let depth = faasm::fvm::instance::DEFAULT_MAX_CALL_DEPTH;
    for arg in [0, 1] {
        for limit in 1..=100 {
            let args = [Val::I32(arg)];
            let interp = case.run(false, "spin", &args, FuelMeter::with_limit(limit), depth);
            let lowered = case.run(true, "spin", &args, FuelMeter::with_limit(limit), depth);
            assert_eq!(interp, lowered, "spin({arg}) at fuel limit {limit}");
            assert_eq!(interp.result, Err(Trap::OutOfFuel));
        }
    }
}

#[test]
fn fused_back_edges_agree_at_every_fuel_limit() {
    // Every loop here ends in an increment directly followed by its signed
    // `<` branch, which the lowered tier fuses into one op: a register
    // bound, an immediate bound with a step of 2, a negative step whose
    // induction variable wraps i32 to leave the loop, and a loop whose
    // branch is itself a jump target (the then-arm jumps onto it, past the
    // else-arm's fused increment). Every limit includes each one that lands
    // between an increment and its branch.
    sweep_kernel(
        "fused",
        r#"
        int kernel(int x) {
            int acc = 0;
            int n = x % 5 + 3;
            for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
            for (int i = 0; i < 5; i = i + 2) { acc = acc * 3 + i; }
            for (int i = 0 - 2147483640; i < 10; i = i - 3) { acc = acc + 1; }
            int j = 0;
            while (j < 10) {
                acc = acc + j;
                if (acc % 2 == 0) { j = j + 1; } else { j = j + 3; }
            }
            return acc;
        }"#,
        12,
    );

    // In bulk mode a fused back-edge is one dispatch per iteration: the
    // counter's start, the header's branch, ten back-edges and the return.
    let case = Case::fl(
        "count",
        "int count(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }",
    );
    let mut inst = Instance::new(Arc::clone(&case.lowered), &Linker::new(), Box::new(())).unwrap();
    assert_eq!(
        inst.invoke("count", &[Val::I32(10)]),
        Ok(Some(Val::I32(10)))
    );
    assert_eq!(inst.instrs_retired(), 1 + 1 + 10 + 1);
}

#[test]
fn scaled_stores_agree_at_every_fuel_limit() {
    // scatter(base, i): six full-width stores to `base + (index << shift)`,
    // each a shape the lowered tier addresses differently.
    use Instr::*;
    let mut b = ModuleBuilder::new();
    b.memory(3, 4);
    let sig = b.sig(FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]));
    let body = vec![
        // v = i * 3
        LocalGet(1),
        I32Const(3),
        I32Mul,
        LocalSet(2),
        // p[i] = v: a local index and a local value, one Store32X.
        LocalGet(0),
        LocalGet(1),
        I32Const(4),
        I32Mul,
        I32Add,
        LocalGet(2),
        I32Store(MemArg::zero()),
        // p[i & 15] = (i & 15) + v: the value is computed into the index's
        // operand slot, so the address is computed first.
        LocalGet(0),
        LocalGet(1),
        I32Const(15),
        I32And,
        I32Const(2),
        I32Shl,
        I32Add,
        LocalGet(1),
        I32Const(15),
        I32And,
        LocalGet(2),
        I32Add,
        I32Store(MemArg::zero()),
        // ((i64 *) base)[i] = 2^32 + 1: a constant value above a local
        // index, one Store64X.
        LocalGet(0),
        LocalGet(1),
        I32Const(3),
        I32Shl,
        I32Add,
        I64Const(0x1_0000_0001),
        I64Store(MemArg::zero()),
        // p[i] = (i = i + 1): the value writes the index local, so the
        // address reads the old i.
        LocalGet(0),
        LocalGet(1),
        I32Const(4),
        I32Mul,
        I32Add,
        LocalGet(1),
        I32Const(1),
        I32Add,
        LocalTee(1),
        I32Store(MemArg::zero()),
        // ((f64 *) base)[2i + 1] = v / 3.0: a computed index and a float
        // value computed over it.
        LocalGet(0),
        LocalGet(1),
        I32Const(2),
        I32Mul,
        I32Const(1),
        I32Add,
        I32Const(8),
        I32Mul,
        I32Add,
        LocalGet(2),
        F64ConvertI32S,
        F64Const(3.0),
        F64Div,
        F64Store(MemArg::zero()),
        // p[v] (unscaled) = i, and one store with an offset, which keeps
        // its add.
        LocalGet(0),
        LocalGet(2),
        I32Add,
        LocalGet(1),
        F32ConvertI32S,
        F32Store(MemArg::zero()),
        LocalGet(0),
        LocalGet(1),
        I32Add,
        LocalGet(2),
        I32Store(MemArg::at(4)),
        LocalGet(1),
        LocalGet(2),
        I32Add,
        End,
    ];
    let f = b.func(sig, vec![ValType::I32], body);
    b.export_func("scatter", f);
    let case = Case::module("scaled stores", b.build(), Vec::new());
    let base = 1024;
    // In bounds; out of bounds at the first store; and at the fifth, after
    // four stores landed.
    let out = case.sweep("scatter", &[Val::I32(base), Val::I32(5)]);
    assert_eq!(out.result, Ok(Some(Val::I32(6 + 15))));
    // (i, the faulting address, the access width)
    for (i, addr, len) in [
        (1 << 27, base as u64 + (4 << 27), 4),
        (20_000, base as u64 + (2 * 20_001 + 1) * 8, 8),
    ] {
        let out = case.sweep("scatter", &[Val::I32(base), Val::I32(i)]);
        assert_eq!(
            out.result,
            Err(Trap::OutOfBoundsMemory { addr, len }),
            "i = {i}"
        );
    }
}

#[test]
fn a_leaf_returning_an_unwritten_local_returns_zero() {
    // `zero` returns a declared local it never writes: zero, whatever the
    // caller's slot under the call last held (here `x + 1`).
    let case = Case::fl(
        "unwritten",
        r#"
        int zero() { int r; return r; }
        int kernel(int x) { int a = (x + 1) * 2; return zero() + a; }
        "#,
    );
    let out = case.sweep("kernel", &[Val::I32(20)]);
    assert_eq!(out.result, Ok(Some(Val::I32(42))));
}

/// A straight-line leaf, a recursion that calls it at its deepest frame,
/// and a one-call wrapper whose dispatch count shows the call inlined.
const DEPTH_FL: &str = r#"
    int leaf(int a) { return a * 2 + 1; }
    int down(int n) {
        if (n == 0) { return leaf(n); }
        return down(n - 1) + 1;
    }
    int once(int x) { return leaf(x); }
"#;

#[test]
fn an_inlined_leaf_at_the_depth_limit_traps_like_the_call() {
    let case = Case::fl("depth", DEPTH_FL);
    let unlimited = FuelMeter::unlimited;
    // Inlined: the guard, the multiply, the add and `once`'s return — a
    // call would add the argument move, the `Call` and the leaf's `Ret`.
    let mut inst = Instance::new(Arc::clone(&case.lowered), &Linker::new(), Box::new(())).unwrap();
    assert_eq!(inst.invoke("once", &[Val::I32(20)]), Ok(Some(Val::I32(41))));
    assert_eq!(inst.instrs_retired(), 4, "the leaf call is inlined");

    // `down(5)` runs frames at depths 0..=5 and calls the leaf from depth
    // 5: a limit of 6 stops exactly that call, 7 lets it through.
    let k = 5;
    for depth in 1..=k + 3 {
        let args = [Val::I32(k as i32)];
        let interp = case.run(false, "down", &args, unlimited(), depth);
        let lowered = case.run(true, "down", &args, unlimited(), depth);
        assert_eq!(interp, lowered, "call-depth limit {depth}");
        let expected = if depth > k + 1 {
            Ok(Some(Val::I32(1 + k as i32)))
        } else {
            Err(Trap::CallStackExhausted)
        };
        assert_eq!(interp.result, expected, "call-depth limit {depth}");
    }
    // The leaf call itself is the one refused at limit k + 1: one unit
    // later than the deepest `down` call refused at limit k.
    let fuel_at = |depth| {
        case.run(true, "down", &[Val::I32(k as i32)], unlimited(), depth)
            .fuel
    };
    assert!(fuel_at(k + 1) > fuel_at(k));
}

#[test]
fn a_trap_inside_an_inlined_body_matches_at_every_fuel_limit() {
    let case = Case::fl(
        "traps",
        r#"
        int quot(int a, int b) { return a / b; }
        int at(int i) { ptr int p = (ptr int) 0; return p[i]; }
        int div_by(int x) { return quot(100, x) + 1; }
        int load_at(int i) { return at(i) + 1; }
        "#,
    );
    assert_eq!(
        case.sweep("div_by", &[Val::I32(7)]).result,
        Ok(Some(Val::I32(15)))
    );
    let div = case.sweep("div_by", &[Val::I32(0)]);
    assert!(
        matches!(div.result, Err(Trap::IntegerDivideByZero)),
        "{div:?}"
    );
    let oob = case.sweep("load_at", &[Val::I32(1 << 28)]);
    assert!(
        matches!(oob.result, Err(Trap::OutOfBoundsMemory { .. })),
        "{:?}",
        oob.result
    );
}
