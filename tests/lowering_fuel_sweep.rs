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
//! the trap cases trap inside an inlined body. Last, a proptest generates FL
//! programs, each built around one lowering rule, and sweeps them the same
//! way.

use std::sync::Arc;

use faasm::fvm::prelude::*;
use faasm::lang::MemConfig;
use faasm::workloads::polybench;
use proptest::prelude::*;

/// `src` compiled with three pages of memory, growable to four.
fn compile(name: &str, src: &str) -> Module {
    let mem = MemConfig {
        initial_pages: 3,
        max_pages: 4,
    };
    faasm::lang::compile_with(src, mem).unwrap_or_else(|e| panic!("{name}: {e}"))
}

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
    name: String,
    interp: Arc<ObjectModule>,
    lowered: Arc<ObjectModule>,
    image: Vec<(usize, f64)>,
}

impl Case {
    fn fl(name: &str, src: &str) -> Case {
        Case::compiled(name, src, Vec::new())
    }

    fn compiled(name: &str, src: &str, image: Vec<(usize, f64)>) -> Case {
        Case::module(name, compile(name, src), image)
    }

    fn module(name: &str, module: Module, image: Vec<(usize, f64)>) -> Case {
        let interp = ObjectModule::prepare_tier(module.clone(), ExecTier::Interpreter).expect(name);
        let lowered = ObjectModule::prepare(module).expect(name);
        assert!(!interp.is_lowered() && lowered.is_lowered(), "{name}");
        Case {
            name: name.to_string(),
            interp,
            lowered,
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
            .expect(&self.name);
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

    /// Both tiers agree at every fuel limit from 1 to the total + 1, and
    /// unlimited; returns the unlimited outcome. The limits come first, so a
    /// lowered tier that runs on past the interpreter's total fails at one
    /// instead of never returning.
    fn sweep(&self, export: &str, args: &[Val]) -> Outcome {
        let depth = faasm::fvm::instance::DEFAULT_MAX_CALL_DEPTH;
        let full = self.run(false, export, args, FuelMeter::unlimited(), depth);
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
        assert_eq!(
            full,
            self.run(true, export, args, FuelMeter::unlimited(), depth),
            "{}: unlimited",
            self.name
        );
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

// ── Generated programs ─────────────────────────────────────────────────
//
// Each case builds one FL program around one lowering rule, in the shape
// that rule fires on, and sweeps it like the cases above. Every choice is
// drawn from a string of knob bytes, so the shrinker, which halves each
// byte toward zero, shrinks a failing program toward each choice's first
// option, and a failure prints the program.

/// The lowering rule a generated program is built around.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Loops whose header is one to four ops (rotation copies it) or five.
    Rotation,
    /// Loads through `p[i]`: an `i * 4`/`i * 8` index, or `i << 2`/`i << 3`.
    ScaledLoad,
    /// Stores through `p[i]` whose value does or does not overwrite an
    /// address operand, or tees the index.
    ScaledStore,
    /// Loops ending in an increment and a signed `<` on it, with i16 steps
    /// of either sign and steps just outside i16.
    FusedBackEdge,
    /// Calls of straight-line leaves that write their parameters, or read
    /// or return locals they never wrote.
    Leaf,
    /// A recursion that calls a leaf from its deepest frame, run at every
    /// call-depth limit around that frame.
    Recursion,
}

const RULES: [Rule; 6] = [
    Rule::Rotation,
    Rule::ScaledLoad,
    Rule::ScaledStore,
    Rule::FusedBackEdge,
    Rule::Leaf,
    Rule::Recursion,
];

/// Choices drawn from knob bytes; the first option once they run out.
struct Knobs<'a>(std::slice::Iter<'a, u8>);

impl Knobs<'_> {
    fn pick(&mut self, n: usize) -> usize {
        self.0.next().map_or(0, |&b| usize::from(b) % n)
    }

    fn of<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.pick(options.len())]
    }
}

/// One generated program: FL source and the two instruction rewrites that
/// spell what FL cannot.
#[derive(Default)]
struct Program {
    src: String,
    /// Every index scale as a shift (see [`scale_by_shift`]).
    shl: bool,
    /// `p[i] = i + k` stores tee their value into `i` (see [`tee_index`]).
    tee: bool,
    /// A recursion's `down(depth)`: `kernel` runs at call depth 0, so the
    /// deepest `down` runs at `depth + 1` and calls the leaf from there.
    depth: Option<usize>,
}

/// `kernel(x)`'s locals: `n` in `0..=6` for `x` in `-40..40`, and three
/// views of the memory image at 1024.
const PROLOGUE: &str = "
    int acc = x;
    int n = x % 4 + 3;
    ptr int p = (ptr int) 1024;
    ptr long q = (ptr long) 1024;
    ptr double d = (ptr double) 1024;";

fn kernel(body: &str) -> String {
    format!("int kernel(int x) {{{PROLOGUE}\n{body}\n    return acc;\n}}\n")
}

fn generate(rule: Rule, k: &mut Knobs) -> Program {
    let mut program = Program::default();
    program.src = match rule {
        Rule::Rotation => kernel(
            &(0..1 + k.pick(3))
                .map(|_| rotated_loop(k))
                .collect::<String>(),
        ),
        Rule::ScaledLoad => {
            program.shl = k.pick(2) == 1;
            let (a, b, c) = (load(k, "i"), load(k, "i"), load(k, "x % 8 + 8"));
            kernel(&format!(
                "for (int i = 0; i < n + 2; i = i + 1) {{ acc = acc ^ {a}; acc = acc * 3 + {b}; }}\n\
                 acc = acc + {c};"
            ))
        }
        Rule::ScaledStore => {
            program.shl = k.pick(2) == 1;
            program.tee = k.pick(2) == 1;
            let tee = if program.tee { "p[i] = i + 1;" } else { "" };
            let (a, b) = (store(k), store(k));
            kernel(&format!(
                "for (int i = 0; i < n + 2; i = i + 1) {{ {a} {tee} {b} acc = acc * 3 + p[i]; }}\n\
                 acc = acc + p[3] + (int) q[2] + (int) d[1];"
            ))
        }
        Rule::FusedBackEdge => {
            // Any loops, then one whose increment and branch fuse right
            // before the return: a unit the fused op fails to charge in
            // metered mode lets that return through one limit early.
            let mut loops: String = (0..k.pick(3)).map(|_| fused_loop(k, 5)).collect();
            loops += &fused_loop(k, 3);
            kernel(&loops)
        }
        Rule::Leaf => {
            let leaves: Vec<(String, usize)> = (0..3).map(|j| leaf(k, j)).collect();
            let mut src: String = leaves.iter().map(|(f, _)| f.as_str()).collect();
            let calls: String = (0..4 + k.pick(2))
                .map(|_| {
                    let j = k.pick(leaves.len());
                    call_site(k, j, leaves[j].1)
                })
                .collect();
            src += &kernel(&format!(
                "int y = x * 3 + 1; int z = x * 5 - 2; int dirt = 0;\n{calls}\n\
                 acc = acc * 7 + y * 5 + z * 3 + x;"
            ));
            src
        }
        Rule::Recursion => {
            let (leaf, params) = leaf(k, 0);
            let args = (0..params)
                .map(|_| k.of(&["acc", "m", "acc + m", "7"]))
                .collect::<Vec<_>>()
                .join(", ");
            let depth = 1 + k.pick(6);
            program.depth = Some(depth);
            let step = k.of(&[
                "return down(m - 1, acc * 3 + m) + 1;",
                "return down(m - 1, acc) * 3 + leaf0(ARGS);",
            ]);
            format!(
                "{leaf}int down(int m, int acc) {{\n\
                     if (m == 0) {{ return leaf0(ARGS); }}\n    {step}\n}}\n\
                 int kernel(int x) {{ int z = {DIRTY}; return down({depth}, x) + z; }}\n"
            )
            .replace("ARGS", &args)
        }
    };
    program
}

/// Computed through the operand slots a call site's frame starts at, it
/// leaves them non-zero: what an inlined leaf's unwritten local would read.
const DIRTY: &str = "(x + (x + (x + (x + (x + (x + (x + 7))))))) * 3";

/// A loop of up to seven trips whose header is `i` against `n`, in one to
/// five ops.
fn rotated_loop(k: &mut Knobs) -> String {
    let header = k.of(&[
        "i < n",
        "i <= n",
        "n > i",
        "i != n",
        "i < n - 1",
        "i + 2 <= n + 1",
        "i * 2 < n + 3",
        "i * 2 + 1 < n + 3",
        "(i ^ 5) * 3 + i < n * 4 + 2",
    ]);
    let body = k.of(&[
        "acc = acc * 3 + i;",
        "acc = acc * 3 + i; if (acc % 3 == 0) { acc = acc + 1; }",
        "acc = acc * 3 + i; if (acc > 100000) { break; }",
        "for (int j = 0; j < i; j = j + 1) { acc = acc * 3 + j; }",
        "acc = acc ^ p[i];",
        "if (i == 2) { continue; } acc = acc * 3 + i;",
    ]);
    match k.pick(3) {
        0 => format!("for (int i = 0; {header}; i = i + 1) {{ {body} }}\n"),
        // A `continue` here would skip the increment.
        1 if !body.contains("continue") => {
            format!("{{ int i = 0; while ({header}) {{ {body} i = i + 1; }} }}\n")
        }
        _ => {
            let header = k.of(&["i < (long) n", "i + 1L <= (long) n", "(long) n > i * 2L"]);
            format!("for (long i = 0L; {header}; i = i + 1L) {{ acc = acc * 3 + (int) i; }}\n")
        }
    }
}

/// A loop ending in `i = i ± step` and `i < bound`, one of the first
/// `shapes` of: an immediate bound, a register bound, a negative step that
/// leaves the loop by wrapping i32, a branch that both arms of an `if` jump
/// onto, and shapes that do not fuse.
/// A body may branch and store before the increment, so a fuel limit can
/// switch to metered mode ahead of the fused op and a step too many shows.
fn fused_loop(k: &mut Knobs, shapes: usize) -> String {
    let body = k.of(&[
        "acc = acc * 3 + i;",
        "p[i & 15] = acc; acc = acc * 3 + i; if (acc % 3 == 0) { acc = acc + 1; }",
        "acc = acc * 3 + i; if (acc % 3 == 0) { p[i & 15] = acc; }",
    ]);
    match k.pick(shapes) {
        0 => {
            let step = k.of(&[1, 2, 3, 127, 32_767, 32_768]);
            let bound = step * (1 + k.pick(4) as i32);
            format!("for (int i = x % 3; i < {bound}; i = i + {step}) {{ {body} }}\n")
        }
        1 => {
            let step = k.of(&[1, 2, 7, 32_767]);
            format!(
                "{{ int m = n * {step}; for (int i = 0; i < m; i = i + {step}) {{ {body} }} }}\n"
            )
        }
        2 => {
            let step = k.of(&[1, 3, 300, 32_768, 32_769]);
            let skew = step * k.pick(3) as i32 + k.pick(step.min(256) as usize) as i32;
            let bound = k.of(&["10", "n"]);
            format!(
                "for (int i = 0 - 2147483647 + {skew}; i < {bound}; i = i - {step}) {{ {body} }}\n"
            )
        }
        3 => {
            let (a, b) = (1 + k.pick(3), 1 + k.pick(3));
            format!(
                "{{ int i = 0; while (i < n + 2) {{ p[i & 15] = acc; acc = acc + i; \
                 if (acc % 2 == 0) {{ i = i + {a}; }} else {{ i = i + {b}; }} }} }}\n"
            )
        }
        _ => k
            .of(&[
                "{ int i = 0; while (i < n) { i = i + 1; acc = acc * 3 + i; } }\n",
                "for (int i = 0; i <= n; i = i + 2) { acc = acc * 3 + i; }\n",
            ])
            .to_string(),
    }
}

/// A load from the memory image at an index computed from `index`: i32 and
/// i64 loads, an f64 load through a conversion, and an index that leaves
/// the memory once `i` is 1.
fn load(k: &mut Knobs, index: &str) -> String {
    let index = match k.pick(6) {
        0 => index.to_string(),
        1 => format!("{index} + 5"),
        2 => format!("n - ({index}) % 7"),
        3 => format!("({index} * 3) % 7"),
        4 => format!("({index}) * 2"),
        _ if index == "i" && k.pick(3) == 0 => "i * 65536".to_string(),
        _ => index.to_string(),
    };
    match k.pick(4) {
        0 => format!("p[{index}]"),
        1 => format!("(int) (q[{index}] >> 13L)"),
        2 => format!("(int) q[{index}]"),
        _ => format!("(int) (d[{index}] * 1000.0)"),
    }
}

/// A store in a loop over `i`: its value a local, computed over a local
/// index, or computed over (or a constant materialised into) the slot a
/// computed index is in — and one store that leaves the memory once `i` is
/// 1.
fn store(k: &mut Knobs) -> &'static str {
    k.of(&[
        "p[i] = acc;",
        "p[i] = i * 3 + x;",
        "p[i % 5 + 1] = (i % 5) * 7 + acc;",
        "p[i + 1] = 9;",
        "q[i] = (long) acc * 3L;",
        "q[i + 2] = (long) i;",
        "d[i] = (double) acc / 7.0;",
        "d[i % 3 + 1] = 2.5;",
        "p[i * 100000] = i;",
    ])
}

/// Leaf `leaf{j}`, with two declared locals, of one of two kinds. A writer
/// always writes its first parameter, may write the rest and its locals, and
/// returns only what it wrote or was passed: it is inlined, and a parameter
/// bound to the caller's local must not write that local. A reader writes
/// neither local and reads or returns one: zero, whatever the slot under
/// the call held. Returns the leaf and its arity.
fn leaf(k: &mut Knobs, j: usize) -> (String, usize) {
    let writer = k.pick(2) == 0;
    let params = if writer { 1 + k.pick(3) } else { k.pick(4) };
    let names = ["a", "b", "c"];
    // Whether `src` names only parameters the leaf has.
    let declared = |src: &str| names[params..].iter().all(|p| !src.contains(p));
    let mut body = String::new();
    let mut rets = vec!["a * 2 + 1", "a - b", "c ^ a"];
    if writer {
        body += "a = a * 3 + 1;";
        for (stmt, ret) in [("b = b - a;", "b"), ("r = a ^ 5;", "r"), ("s = 7;", "s")] {
            if declared(stmt) && k.pick(2) == 1 {
                body += stmt;
                rets.push(ret);
            }
        }
    } else {
        if declared("b") && k.pick(2) == 1 {
            body += "b = b - a;";
        }
        rets = vec!["r", "s", "s * 3 + 1", "a + r"];
    }
    let rets: Vec<&str> = rets.into_iter().filter(|ret| declared(ret)).collect();
    let ret = k.of(&rets);
    let list: Vec<String> = names[..params].iter().map(|p| format!("int {p}")).collect();
    let src = format!(
        "int leaf{j}({}) {{ int r; int s; {body} return {ret}; }}\n",
        list.join(", ")
    );
    (src, params)
}

/// A call of `leaf{j}`, at operand height 0 or 1, in a loop or not, with
/// arguments that are locals (read in place) or computed.
fn call_site(k: &mut Knobs, j: usize, params: usize) -> String {
    let in_loop = k.pick(3) == 0;
    let options: &[&str] = if in_loop {
        &["y", "x", "z", "acc", "i", "acc + 1", "5"]
    } else {
        &["y", "x", "z", "acc", "acc + 1", "5"]
    };
    let args = (0..params)
        .map(|_| k.of(options))
        .collect::<Vec<_>>()
        .join(", ");
    let call = format!("leaf{j}({args})");
    // Every result lands in what the kernel returns.
    let stmt = match k.pick(3) {
        0 => format!("acc = {call} ^ acc;"),
        1 => format!("acc = acc * 3 + {call};"),
        _ => format!("y = {call} - y * 3;"),
    };
    // A called leaf's frame zeroes its locals in those slots: dirty them
    // again first.
    if in_loop {
        format!("for (int i = 0; i < n; i = i + 1) {{ dirt = {DIRTY}; {stmt} }}\n")
    } else {
        format!("dirt = {DIRTY}; {stmt}\n")
    }
}

/// Every `i32.const 4|8; i32.mul` becomes `i32.const 2|3; i32.shl`: the
/// same index scale spelled as the shift FL never emits.
fn scale_by_shift(module: &mut Module) {
    for f in &mut module.funcs {
        for j in 1..f.body.len() {
            let shift = match f.body[j - 1] {
                Instr::I32Const(4) => 2,
                Instr::I32Const(8) => 3,
                _ => continue,
            };
            if f.body[j] == Instr::I32Mul {
                f.body[j - 1] = Instr::I32Const(shift);
                f.body[j] = Instr::I32Shl;
            }
        }
    }
}

/// Each `p[i] = i + k` store tees its value into `i` — the store FL would
/// spell `p[i] = (i = i + k)`, whose value writes the index local after the
/// address read it. Returns how many stores it rewrote.
fn tee_index(module: &mut Module) -> usize {
    use Instr::*;
    let mut rewritten = 0;
    for f in &mut module.funcs {
        let mut j = 0;
        while j + 8 <= f.body.len() {
            if let [LocalGet(a), I32Const(4), I32Mul, I32Add, LocalGet(b), I32Const(_), I32Add, I32Store(m)] =
                &f.body[j..j + 8]
            {
                if a == b && m.offset == 0 {
                    let a = *a;
                    f.body.insert(j + 7, LocalTee(a));
                    rewritten += 1;
                }
            }
            j += 1;
        }
    }
    rewritten
}

/// The memory image under `p`, `q` and `d`: 64 doubles whose every 32-bit
/// half differs from its neighbours'.
fn image() -> Vec<(usize, f64)> {
    (0..64)
        .map(|i| (1024 + i * 8, (i as f64 + 1.0) / 7.0))
        .collect()
}

fn sweep_generated(rule: Rule, knobs: &[u8], x: i32) {
    let program = generate(rule, &mut Knobs(knobs.iter()));
    let shl = if program.shl { ", shl scales" } else { "" };
    let tee = if program.tee { ", teed stores" } else { "" };
    let name = format!("{rule:?} program (x = {x}{shl}{tee}):\n{}", program.src);
    let mut module = compile(&name, &program.src);
    if program.tee {
        assert!(tee_index(&mut module) > 0, "{name}: nothing to tee");
    }
    if program.shl {
        scale_by_shift(&mut module);
    }
    let case = Case::module(&name, module, image());
    let args = [Val::I32(x)];
    let full = case.sweep("kernel", &args);
    if let Some(depth) = program.depth {
        // Every call-depth limit up to two past the leaf call's frame, so
        // one refuses exactly that call and one lets it through.
        let meter = || FuelMeter::with_limit(full.fuel + 1);
        for limit in 1..=depth + 4 {
            let interp = case.run(false, "kernel", &args, meter(), limit);
            let lowered = case.run(true, "kernel", &args, meter(), limit);
            assert_eq!(interp, lowered, "{name}: call-depth limit {limit}");
        }
    }
}

proptest! {
    /// A generated program per case, swept at every fuel limit (and, for a
    /// recursion, at every call-depth limit around its deepest call).
    #[test]
    fn generated_programs_agree_at_every_fuel_limit(
        rule in 0..RULES.len(),
        knobs in prop::collection::vec(any::<u8>(), 64),
        x in -40i32..40,
    ) {
        sweep_generated(RULES[rule], &knobs, x);
    }
}
