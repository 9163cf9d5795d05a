//! Differential properties: the lowered tier must be observationally
//! identical to the reference interpreter.
//!
//! Generated modules (realistic codegen shapes: local arithmetic, immediate
//! and compare-and-branch patterns, while loops, if/else, br_table, calls,
//! memory traffic, float conversions, dead code, elided structural
//! instructions — and the hazards of the lowered tier's register form: a
//! local written under a pending read of it, results carried across
//! branches over other operands, deferred operands under a trap) run on
//! both tiers and must agree bitwise on:
//!
//! * the result value / trap kind (including trap payloads, which pin the
//!   trap *location* observably — e.g. the faulting address),
//! * fuel consumed at return or trap,
//! * all globals and the full linear memory.
//!
//! A second property bisects the fuel budget so exhaustion lands mid-block,
//! pinning the lowered tier's bulk-charge/refund bookkeeping against the
//! interpreter's per-instruction metering.
//!
//! The last property is the isolation contract of the warm path: one
//! instance reset in place between calls is indistinguishable from a fresh
//! restore per call, on both tiers, whatever state the previous call died
//! in.

use std::sync::Arc;

use faasm_fvm::fuel::FuelMeter;
use faasm_fvm::instr::BrTableData;
use faasm_fvm::prelude::*;
use proptest::prelude::*;

// ── Module skeleton ────────────────────────────────────────────────────
//
// main (i32, i32, i64) -> i32 with locals:
//   0,1   i32 params    2 i64 param
//   3     i32 scratch   4 i64 scratch   5 f32   6 f64
//   7,8,9 i32 loop counters (one per nesting level; bodies never touch them)
//   10,11,12 i32 loop bounds of `Count` loops (likewise)
// imports: func 0 = env::bump (i32)->i32, returns x+7
// funcs:   1 = main, 2 = helper (i32)->i32 (x+3), 3 = noop ()->(),
//          4 = rec (i32)->i32 (x == 0 ? 0 : rec(x-1) + 1, one frame per unit)
// table:   size 4, elems [helper, noop] at 0 (slots 2,3 uninitialised)
// globals: g0 i32 mut = 5, g1 i64 mut = -7
// memory:  1 page initial, max 4

const IMPORT_BUMP: u32 = 0;
const FUNC_HELPER: u32 = 2;
const FUNC_REC: u32 = 4;

/// i32 scratch locals statements may read/write.
fn i32_local(sel: u8) -> u32 {
    [0, 1, 3][sel as usize % 3]
}

fn build_module(stmts: &[Stmt]) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, 4);
    let t_main = b.sig(FuncType::new(
        vec![ValType::I32, ValType::I32, ValType::I64],
        vec![ValType::I32],
    ));
    let t1 = b.sig(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let t2 = b.sig(FuncType::new(vec![], vec![]));
    b.import_func("env", "bump", t1);

    let mut body = Vec::new();
    for s in stmts {
        s.emit(&mut body, 0, t1);
    }
    // Result: mix the locals the statements mutated.
    body.extend([
        Instr::LocalGet(0),
        Instr::LocalGet(1),
        Instr::I32Add,
        Instr::LocalGet(3),
        Instr::I32Add,
        Instr::End,
    ]);
    let main = b.func(
        t_main,
        vec![
            ValType::I32,
            ValType::I64,
            ValType::F32,
            ValType::F64,
            ValType::I32,
            ValType::I32,
            ValType::I32,
            ValType::I32,
            ValType::I32,
            ValType::I32,
        ],
        body,
    );
    let helper = b.func(
        t1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Const(3),
            Instr::I32Add,
            Instr::End,
        ],
    );
    let noop = b.func(t2, vec![], vec![Instr::End]);
    let rec = b.func(
        t1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::If(BlockType::Value(ValType::I32)),
            Instr::I32Const(0),
            Instr::Else,
            // The pending `1` sits in an operand slot below the call's
            // argument, in every frame of the recursion.
            Instr::I32Const(1),
            Instr::LocalGet(0),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::Call(FUNC_REC),
            Instr::I32Add,
            Instr::End,
            Instr::End,
        ],
    );
    assert_eq!((main, helper, noop, rec), (1, FUNC_HELPER, 3, FUNC_REC));
    b.table(4);
    b.elem(0, vec![helper, noop]);
    b.export_func("main", main);
    b.global(ValType::I32, true, Val::I32(5));
    b.global(ValType::I64, true, Val::I64(-7));
    b.data(16, vec![0xAB, 0x10, 0x00, 0x7F, 0xFE, 0x01, 0x02, 0x03]);
    b.build()
}

// ── Statement generator ────────────────────────────────────────────────

#[derive(Debug, Clone)]
enum Stmt {
    /// local\[dst] = local\[a] op local\[b] — i32, incl. trapping div/rem.
    BinLL { a: u8, b: u8, dst: u8, op: u8 },
    /// local\[dst] = local\[src] op k — the `FImmLS` fusion shape.
    ImmOp { src: u8, k: i32, dst: u8, op: u8 },
    /// local4 = local2 op64 local4.
    Bin64 { op: u8 },
    /// f32 / f64 arithmetic on locals 5 / 6.
    FOp { wide: bool, op: u8 },
    /// Conversions, i64 compares, trapping float→int truncations.
    Convert { which: u8 },
    /// Load into the matching-typed local; `masked` keeps the address safe.
    Load {
        al: u8,
        masked: bool,
        offset: u32,
        which: u8,
    },
    /// Store a local; the `FStoreL` fusion shape.
    Store {
        al: u8,
        masked: bool,
        offset: u32,
        which: u8,
    },
    /// Bounded counting loop in the toolchain's while shape.
    While { bound: u8, body: Vec<Stmt> },
    /// A counting loop whose back-edge the lowered tier fuses: `ctr < bound`
    /// against a constant or a register, stepped by `i32.add` or `i32.sub`
    /// of a small or (`big`) a too-wide step. A negative step leaves the
    /// loop by wrapping the counter past `i32::MIN`. At most 8 iterations.
    Count {
        trips: u8,
        step: i8,
        big: bool,
        sub: bool,
        bound: i8,
        reg: bool,
        body: Vec<Stmt>,
    },
    /// A full-width store to `base + (index << shift)`, the index a local or
    /// a masked operand, the value a local, a constant, a computation, or
    /// one that writes the index local (`local.tee`).
    ScaledStore {
        base: u8,
        idx: u8,
        masked: bool,
        scale: u8,
        value: u8,
        kind: u8,
        offset: bool,
    },
    /// if/else (or if-without-else) on an i32 local.
    IfElse {
        cond: u8,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
        has_else: bool,
    },
    /// Arity-1 if: local\[dst] = cond ? k1 : k2.
    IfVal { cond: u8, k1: i32, k2: i32, dst: u8 },
    /// Three-armed br_table over nested blocks.
    Table3 { sel: u8, a: Vec<Stmt>, b: Vec<Stmt> },
    /// local\[dst] = call(local\[arg]) — host import or wasm helper.
    Call { arg: u8, dst: u8, host: bool },
    /// call_indirect through table slot (success / mismatch / trap cases).
    CallInd { arg: u8, slot: u8, dst: u8 },
    /// Global get/set round-trips.
    GlobalOps { which: u8 },
    /// memory.size / grow / copy / fill.
    MemBulk { which: u8, a: u32, b: u32, c: u32 },
    /// Elided instructions: nop, reinterpret round-trips, empty blocks.
    Elided { which: u8 },
    /// br past statements: the dead tail must not perturb anything.
    DeadAfterBr { dead: Vec<Stmt> },
    /// Early return from mid-function when the condition local is nonzero.
    EarlyRet { cond: u8, k: i32 },
    /// Guarded trap: unreachable when the condition local is nonzero.
    Unreach { cond: u8 },
    /// A local written (`local.set` / `local.tee`) while an earlier read of
    /// it is still on the operand stack, and `select` over deferred operands.
    PendingRead {
        which: u8,
        a: u8,
        b: u8,
        k: i32,
        dst: u8,
    },
    /// A block result carried across `br` / `br_if` / `br_table` with other
    /// operands beneath it, inside and outside the block.
    Carry {
        which: u8,
        a: u8,
        b: u8,
        c: u8,
        dst: u8,
    },
    /// Calls whose arguments come from operand slots: the helper, a
    /// `call_indirect` (hit / type mismatch / bad slot), and a recursion
    /// that may run into `CallStackExhausted`.
    SlotCall { which: u8, a: u8, k: i32, dst: u8 },
    /// A trap (memory out of bounds, `i32.div_s`, `i32.trunc_f64_s`) with
    /// deferred operands pending beneath it in the same block.
    TrapUnderDeferred { which: u8, a: u8, b: u8, dst: u8 },
}

const I32_BIN: &[Instr] = &[
    Instr::I32Add,
    Instr::I32Sub,
    Instr::I32Mul,
    Instr::I32And,
    Instr::I32Or,
    Instr::I32Xor,
    Instr::I32Shl,
    Instr::I32ShrS,
    Instr::I32ShrU,
    Instr::I32Rotl,
    Instr::I32Rotr,
    Instr::I32DivS,
    Instr::I32DivU,
    Instr::I32RemS,
    Instr::I32RemU,
    Instr::I32Eq,
    Instr::I32Ne,
    Instr::I32LtS,
    Instr::I32LtU,
    Instr::I32GtS,
    Instr::I32GeU,
    Instr::I32LeS,
];

const I32_IMM: &[Instr] = &[
    Instr::I32Add,
    Instr::I32Sub,
    Instr::I32Mul,
    Instr::I32And,
    Instr::I32Or,
    Instr::I32Xor,
    Instr::I32Shl,
    Instr::I32ShrS,
    Instr::I32ShrU,
];

const I64_BIN: &[Instr] = &[
    Instr::I64Add,
    Instr::I64Sub,
    Instr::I64Mul,
    Instr::I64DivS,
    Instr::I64DivU,
    Instr::I64RemS,
    Instr::I64RemU,
    Instr::I64And,
    Instr::I64Or,
    Instr::I64Xor,
    Instr::I64Shl,
    Instr::I64ShrS,
    Instr::I64ShrU,
    Instr::I64Rotl,
    Instr::I64Rotr,
];

const F32_BIN: &[Instr] = &[
    Instr::F32Add,
    Instr::F32Sub,
    Instr::F32Mul,
    Instr::F32Div,
    Instr::F32Min,
    Instr::F32Max,
    Instr::F32Copysign,
];
const F32_UN: &[Instr] = &[
    Instr::F32Abs,
    Instr::F32Neg,
    Instr::F32Sqrt,
    Instr::F32Ceil,
    Instr::F32Floor,
    Instr::F32Nearest,
    Instr::F32Trunc,
];
const F64_BIN: &[Instr] = &[
    Instr::F64Add,
    Instr::F64Sub,
    Instr::F64Mul,
    Instr::F64Div,
    Instr::F64Min,
    Instr::F64Max,
    Instr::F64Copysign,
];
const F64_UN: &[Instr] = &[
    Instr::F64Abs,
    Instr::F64Neg,
    Instr::F64Sqrt,
    Instr::F64Ceil,
    Instr::F64Floor,
    Instr::F64Nearest,
    Instr::F64Trunc,
];

impl Stmt {
    /// Append this statement's (net-zero stack effect) instructions.
    ///
    /// `loops` counts enclosing while-loops so each level gets its own
    /// counter local (7 + level); nesting deeper than the reserved counters
    /// degrades to emitting the body inline, keeping termination guaranteed.
    fn emit(&self, out: &mut Vec<Instr>, loops: u32, t1: u32) {
        match self {
            Stmt::BinLL { a, b, dst, op } => {
                out.push(Instr::LocalGet(i32_local(*a)));
                out.push(Instr::LocalGet(i32_local(*b)));
                out.push(I32_BIN[*op as usize % I32_BIN.len()].clone());
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::ImmOp { src, k, dst, op } => {
                out.push(Instr::LocalGet(i32_local(*src)));
                out.push(Instr::I32Const(*k));
                out.push(I32_IMM[*op as usize % I32_IMM.len()].clone());
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::Bin64 { op } => {
                out.push(Instr::LocalGet(2));
                out.push(Instr::LocalGet(4));
                out.push(I64_BIN[*op as usize % I64_BIN.len()].clone());
                out.push(Instr::LocalSet(4));
            }
            Stmt::FOp { wide, op } => {
                let (l, bin, un) = if *wide {
                    (6, F64_BIN, F64_UN)
                } else {
                    (5, F32_BIN, F32_UN)
                };
                let i = *op as usize;
                out.push(Instr::LocalGet(l));
                if i.is_multiple_of(2) {
                    out.push(Instr::LocalGet(l));
                    out.push(bin[i / 2 % bin.len()].clone());
                } else {
                    out.push(un[i / 2 % un.len()].clone());
                }
                out.push(Instr::LocalSet(l));
            }
            Stmt::Convert { which } => {
                let seq: &[Instr] = match which % 11 {
                    0 => &[Instr::LocalGet(2), Instr::I32WrapI64, Instr::LocalSet(3)],
                    1 => &[Instr::LocalGet(0), Instr::I64ExtendI32S, Instr::LocalSet(4)],
                    2 => &[Instr::LocalGet(1), Instr::I64ExtendI32U, Instr::LocalSet(4)],
                    3 => &[
                        Instr::LocalGet(3),
                        Instr::F32ConvertI32S,
                        Instr::LocalSet(5),
                    ],
                    4 => &[
                        Instr::LocalGet(4),
                        Instr::F64ConvertI64S,
                        Instr::LocalSet(6),
                    ],
                    // Trapping truncations: NaN / out-of-range must trap
                    // identically on both tiers.
                    5 => &[Instr::LocalGet(5), Instr::I32TruncF32S, Instr::LocalSet(3)],
                    6 => &[Instr::LocalGet(6), Instr::I64TruncF64U, Instr::LocalSet(4)],
                    7 => &[Instr::LocalGet(5), Instr::F64PromoteF32, Instr::LocalSet(6)],
                    8 => &[Instr::LocalGet(6), Instr::F32DemoteF64, Instr::LocalSet(5)],
                    9 => &[
                        Instr::LocalGet(2),
                        Instr::LocalGet(4),
                        Instr::I64LtS,
                        Instr::LocalSet(3),
                    ],
                    _ => &[Instr::LocalGet(4), Instr::I64Eqz, Instr::LocalSet(3)],
                };
                out.extend_from_slice(seq);
            }
            Stmt::Load {
                al,
                masked,
                offset,
                which,
            } => {
                out.push(Instr::LocalGet(i32_local(*al)));
                if *masked {
                    out.push(Instr::I32Const(0x7FF8));
                    out.push(Instr::I32And);
                }
                let m = MemArg::at(*offset);
                let (ld, dst) = match which % 12 {
                    0 => (Instr::I32Load(m), 3),
                    1 => (Instr::I32Load8U(m), 3),
                    2 => (Instr::I32Load8S(m), 3),
                    3 => (Instr::I32Load16U(m), 3),
                    4 => (Instr::I32Load16S(m), 3),
                    5 => (Instr::I64Load(m), 4),
                    6 => (Instr::I64Load8U(m), 4),
                    7 => (Instr::I64Load16S(m), 4),
                    8 => (Instr::I64Load32U(m), 4),
                    9 => (Instr::I64Load32S(m), 4),
                    10 => (Instr::F32Load(m), 5),
                    _ => (Instr::F64Load(m), 6),
                };
                out.push(ld);
                out.push(Instr::LocalSet(dst));
            }
            Stmt::Store {
                al,
                masked,
                offset,
                which,
            } => {
                out.push(Instr::LocalGet(i32_local(*al)));
                if *masked {
                    out.push(Instr::I32Const(0x7FF8));
                    out.push(Instr::I32And);
                }
                let m = MemArg::at(*offset);
                let (st, src) = match which % 9 {
                    0 => (Instr::I32Store(m), 3),
                    1 => (Instr::I32Store8(m), 3),
                    2 => (Instr::I32Store16(m), 3),
                    3 => (Instr::I64Store(m), 4),
                    4 => (Instr::I64Store8(m), 4),
                    5 => (Instr::I64Store16(m), 4),
                    6 => (Instr::I64Store32(m), 4),
                    7 => (Instr::F32Store(m), 5),
                    _ => (Instr::F64Store(m), 6),
                };
                out.push(Instr::LocalGet(src));
                out.push(st);
            }
            Stmt::While { bound, body } => {
                if loops >= 3 {
                    for s in body {
                        s.emit(out, loops, t1);
                    }
                    return;
                }
                let ctr = 7 + loops;
                out.push(Instr::I32Const(0));
                out.push(Instr::LocalSet(ctr));
                out.push(Instr::Block(BlockType::Empty));
                out.push(Instr::Loop(BlockType::Empty));
                out.push(Instr::LocalGet(ctr));
                out.push(Instr::I32Const(i32::from(*bound % 12)));
                out.push(Instr::I32LtS);
                out.push(Instr::I32Eqz);
                out.push(Instr::BrIf(1));
                for s in body {
                    s.emit(out, loops + 1, t1);
                }
                out.push(Instr::LocalGet(ctr));
                out.push(Instr::I32Const(1));
                out.push(Instr::I32Add);
                out.push(Instr::LocalSet(ctr));
                out.push(Instr::Br(0));
                out.push(Instr::End);
                out.push(Instr::End);
            }
            Stmt::Count {
                trips,
                step,
                big,
                sub,
                bound,
                reg,
                body,
            } => {
                if loops >= 3 {
                    for s in body {
                        s.emit(out, loops, t1);
                    }
                    return;
                }
                let (ctr, bound_local) = (7 + loops, 10 + loops);
                let step =
                    i32::from(if *step == 0 { 1 } else { *step }) * if *big { 1024 } else { 1 };
                let trips = i32::from(trips % 8);
                let bound = i32::from(*bound);
                let start = if step > 0 {
                    bound - trips * step
                } else {
                    i32::MIN - trips * step
                };
                out.extend([Instr::I32Const(start), Instr::LocalSet(ctr)]);
                if *reg {
                    out.extend([Instr::I32Const(bound), Instr::LocalSet(bound_local)]);
                }
                out.extend([
                    Instr::Block(BlockType::Empty),
                    Instr::Loop(BlockType::Empty),
                    Instr::LocalGet(ctr),
                    if *reg {
                        Instr::LocalGet(bound_local)
                    } else {
                        Instr::I32Const(bound)
                    },
                    Instr::I32LtS,
                    Instr::I32Eqz,
                    Instr::BrIf(1),
                ]);
                for s in body {
                    s.emit(out, loops + 1, t1);
                }
                out.push(Instr::LocalGet(ctr));
                if *sub {
                    out.extend([Instr::I32Const(-step), Instr::I32Sub]);
                } else {
                    out.extend([Instr::I32Const(step), Instr::I32Add]);
                }
                out.extend([Instr::LocalSet(ctr), Instr::Br(0), Instr::End, Instr::End]);
            }
            Stmt::ScaledStore {
                base,
                idx,
                masked,
                scale,
                value,
                kind,
                offset,
            } => {
                let idx = i32_local(*idx);
                out.extend([
                    Instr::LocalGet(i32_local(*base)),
                    Instr::I32Const(0x7F00),
                    Instr::I32And,
                    Instr::LocalGet(idx),
                ]);
                if *masked {
                    out.extend([Instr::I32Const(0xFF), Instr::I32And]);
                }
                match scale % 4 {
                    0 => {}
                    1 => out.extend([Instr::I32Const(4), Instr::I32Mul]),
                    2 => out.extend([Instr::I32Const(2), Instr::I32Shl]),
                    _ => out.extend([Instr::I32Const(8), Instr::I32Mul]),
                }
                out.push(Instr::I32Add);
                let kind = kind % 4;
                // (value local, a constant, a computation on the local, the
                // conversion from the index's i32, the store)
                type Shape = (u32, Instr, [Instr; 2], Instr, fn(MemArg) -> Instr);
                let (local, konst, op, from_i32, store): Shape = match kind {
                    0 => (
                        3,
                        Instr::I32Const(-7),
                        [Instr::I32Const(5), Instr::I32Add],
                        Instr::Nop,
                        Instr::I32Store,
                    ),
                    1 => (
                        4,
                        Instr::I64Const(3 << 40),
                        [Instr::I64Const(3), Instr::I64Mul],
                        Instr::I64ExtendI32S,
                        Instr::I64Store,
                    ),
                    2 => (
                        5,
                        Instr::F32Const(1.5),
                        [Instr::F32Const(2.0), Instr::F32Mul],
                        Instr::F32ConvertI32S,
                        Instr::F32Store,
                    ),
                    _ => (
                        6,
                        Instr::F64Const(-2.25),
                        [Instr::F64Const(0.5), Instr::F64Add],
                        Instr::F64ConvertI32U,
                        Instr::F64Store,
                    ),
                };
                match value % 4 {
                    0 => out.push(Instr::LocalGet(local)),
                    1 => out.push(konst),
                    2 => {
                        out.push(Instr::LocalGet(local));
                        out.extend(op);
                    }
                    _ => out.extend([
                        Instr::LocalGet(idx),
                        Instr::I32Const(1),
                        Instr::I32Add,
                        Instr::LocalTee(idx),
                        from_i32,
                    ]),
                }
                out.push(store(MemArg::at(if *offset { 8 } else { 0 })));
            }
            Stmt::IfElse {
                cond,
                then,
                els,
                has_else,
            } => {
                out.push(Instr::LocalGet(i32_local(*cond)));
                out.push(Instr::If(BlockType::Empty));
                for s in then {
                    s.emit(out, loops, t1);
                }
                if *has_else {
                    out.push(Instr::Else);
                    for s in els {
                        s.emit(out, loops, t1);
                    }
                }
                out.push(Instr::End);
            }
            Stmt::IfVal { cond, k1, k2, dst } => {
                out.push(Instr::LocalGet(i32_local(*cond)));
                out.push(Instr::If(BlockType::Value(ValType::I32)));
                out.push(Instr::I32Const(*k1));
                out.push(Instr::Else);
                out.push(Instr::I32Const(*k2));
                out.push(Instr::End);
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::Table3 { sel, a, b } => {
                out.push(Instr::Block(BlockType::Empty));
                out.push(Instr::Block(BlockType::Empty));
                out.push(Instr::Block(BlockType::Empty));
                out.push(Instr::LocalGet(i32_local(*sel)));
                out.push(Instr::BrTable(Box::new(BrTableData {
                    targets: vec![0, 1],
                    default: 2,
                })));
                out.push(Instr::End);
                for s in a {
                    s.emit(out, loops, t1);
                }
                out.push(Instr::Br(1));
                out.push(Instr::End);
                for s in b {
                    s.emit(out, loops, t1);
                }
                out.push(Instr::End);
            }
            Stmt::Call { arg, dst, host } => {
                out.push(Instr::LocalGet(i32_local(*arg)));
                out.push(Instr::Call(if *host { IMPORT_BUMP } else { FUNC_HELPER }));
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::CallInd { arg, slot, dst } => {
                out.push(Instr::LocalGet(i32_local(*arg)));
                out.push(Instr::I32Const(i32::from(*slot % 6)));
                out.push(Instr::CallIndirect(t1));
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::GlobalOps { which } => {
                let seq: &[Instr] = match which % 4 {
                    0 => &[Instr::GlobalGet(0), Instr::LocalSet(3)],
                    1 => &[Instr::LocalGet(0), Instr::GlobalSet(0)],
                    2 => &[Instr::GlobalGet(1), Instr::LocalSet(4)],
                    _ => &[Instr::LocalGet(2), Instr::GlobalSet(1)],
                };
                out.extend_from_slice(seq);
            }
            Stmt::MemBulk { which, a, b, c } => match which % 4 {
                0 => out.extend([Instr::MemorySize, Instr::LocalSet(3)]),
                1 => out.extend([
                    Instr::I32Const((a % 2) as i32),
                    Instr::MemoryGrow,
                    Instr::LocalSet(3),
                ]),
                2 => out.extend([
                    Instr::I32Const((a & 0x3FFF) as i32),
                    Instr::I32Const((b & 0x3FFF) as i32),
                    Instr::I32Const((c & 0xFF) as i32),
                    Instr::MemoryCopy,
                ]),
                _ => out.extend([
                    Instr::I32Const((a & 0x3FFF) as i32),
                    Instr::I32Const((b & 0xFF) as i32),
                    Instr::I32Const((c & 0xFF) as i32),
                    Instr::MemoryFill,
                ]),
            },
            Stmt::Elided { which } => match which % 4 {
                0 => out.push(Instr::Nop),
                1 => out.extend([
                    Instr::LocalGet(3),
                    Instr::F32ReinterpretI32,
                    Instr::I32ReinterpretF32,
                    Instr::LocalSet(3),
                ]),
                2 => out.extend([
                    Instr::LocalGet(4),
                    Instr::F64ReinterpretI64,
                    Instr::I64ReinterpretF64,
                    Instr::LocalSet(4),
                ]),
                _ => out.extend([Instr::Block(BlockType::Empty), Instr::End]),
            },
            Stmt::DeadAfterBr { dead } => {
                out.push(Instr::Block(BlockType::Empty));
                out.push(Instr::Br(0));
                for s in dead {
                    s.emit(out, loops, t1);
                }
                out.push(Instr::End);
            }
            Stmt::EarlyRet { cond, k } => {
                out.push(Instr::LocalGet(i32_local(*cond)));
                out.push(Instr::If(BlockType::Empty));
                out.push(Instr::I32Const(*k));
                out.push(Instr::Return);
                out.push(Instr::End);
            }
            Stmt::Unreach { cond } => {
                out.push(Instr::LocalGet(i32_local(*cond)));
                out.push(Instr::If(BlockType::Empty));
                out.push(Instr::Unreachable);
                out.push(Instr::End);
            }
            Stmt::PendingRead {
                which,
                a,
                b,
                k,
                dst,
            } => {
                let (a, b) = (i32_local(*a), i32_local(*b));
                match which % 4 {
                    // a_old + (a = a + 1)
                    0 => out.extend([
                        Instr::LocalGet(a),
                        Instr::LocalGet(a),
                        Instr::I32Const(1),
                        Instr::I32Add,
                        Instr::LocalSet(a),
                        Instr::LocalGet(a),
                        Instr::I32Add,
                    ]),
                    // a_old - (a = b * k), the tee'd value read back
                    1 => out.extend([
                        Instr::LocalGet(a),
                        Instr::LocalGet(b),
                        Instr::I32Const(*k),
                        Instr::I32Mul,
                        Instr::LocalTee(a),
                        Instr::I32Sub,
                        Instr::LocalGet(a),
                        Instr::I32Xor,
                    ]),
                    // a_old ^ (a = k) with a plain set of a constant
                    2 => out.extend([
                        Instr::LocalGet(a),
                        Instr::I32Const(*k),
                        Instr::LocalSet(a),
                        Instr::LocalGet(a),
                        Instr::I32Xor,
                    ]),
                    // select(a, k, b) — every operand deferred
                    _ => out.extend([
                        Instr::LocalGet(a),
                        Instr::I32Const(*k),
                        Instr::LocalGet(b),
                        Instr::Select,
                    ]),
                }
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::Carry {
                which,
                a,
                b,
                c,
                dst,
            } => {
                let (a, b, c) = (i32_local(*a), i32_local(*b), i32_local(*c));
                let i32_block = Instr::Block(BlockType::Value(ValType::I32));
                // An operand beneath the block on the outside.
                out.push(Instr::LocalGet(c));
                match which % 4 {
                    // br_if: taken carries b over a; not taken adds them.
                    0 => out.extend([
                        i32_block,
                        Instr::LocalGet(a),
                        Instr::LocalGet(b),
                        Instr::LocalGet(c),
                        Instr::BrIf(0),
                        Instr::I32Add,
                        Instr::End,
                    ]),
                    // br: a constant carried over a, then dead code.
                    1 => out.extend([
                        i32_block,
                        Instr::LocalGet(a),
                        Instr::I32Const(77),
                        Instr::Br(0),
                        Instr::I32Add,
                        Instr::End,
                    ]),
                    // br_table: the same value lands in the inner or the
                    // outer label's slot.
                    2 => out.extend([
                        i32_block.clone(),
                        Instr::LocalGet(b),
                        i32_block,
                        Instr::LocalGet(a),
                        Instr::LocalGet(b),
                        Instr::I32Const(3),
                        Instr::I32Mul,
                        Instr::LocalGet(c),
                        Instr::BrTable(Box::new(BrTableData {
                            targets: vec![0, 1],
                            default: 0,
                        })),
                        Instr::End,
                        Instr::I32Sub,
                        Instr::End,
                    ]),
                    // br_if out of a loop body to the enclosing block.
                    _ => out.extend([
                        i32_block,
                        Instr::Loop(BlockType::Empty),
                        Instr::LocalGet(a),
                        Instr::LocalGet(b),
                        Instr::I32Const(1),
                        Instr::I32Or,
                        Instr::BrIf(1),
                        Instr::Drop,
                        Instr::End,
                        Instr::I32Const(-5),
                        Instr::End,
                    ]),
                }
                out.push(Instr::I32Xor);
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::SlotCall { which, a, k, dst } => {
                let a = i32_local(*a);
                // A pending operand below the arguments.
                out.push(Instr::LocalGet(a));
                match which % 3 {
                    0 => out.extend([
                        Instr::LocalGet(a),
                        Instr::I32Const(*k),
                        Instr::I32Add,
                        Instr::Call(FUNC_HELPER),
                    ]),
                    1 => out.extend([
                        Instr::LocalGet(a),
                        Instr::I32Const(*k),
                        Instr::I32Xor,
                        Instr::LocalGet(a),
                        Instr::I32Const(7),
                        Instr::I32And,
                        Instr::CallIndirect(t1),
                    ]),
                    // Depth 0..=255 against the default limit of 200.
                    _ => out.extend([
                        Instr::LocalGet(a),
                        Instr::I32Const(*k),
                        Instr::I32Add,
                        Instr::I32Const(255),
                        Instr::I32And,
                        Instr::Call(FUNC_REC),
                    ]),
                }
                out.push(Instr::I32Add);
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
            Stmt::TrapUnderDeferred { which, a, b, dst } => {
                let (a, b) = (i32_local(*a), i32_local(*b));
                out.push(Instr::LocalGet(a));
                out.push(Instr::I32Const(9));
                match which % 3 {
                    // Traps when b is within 16 bytes of the address space's
                    // end or past the memory's.
                    0 => out.extend([
                        Instr::LocalGet(b),
                        Instr::I32Const(-64),
                        Instr::I32Or,
                        Instr::I32Load(MemArg::at(60)),
                    ]),
                    // Traps when b is 0 (and on MIN / -1).
                    1 => out.extend([Instr::LocalGet(a), Instr::LocalGet(b), Instr::I32DivS]),
                    // Traps when local 6 is NaN or out of i32 range.
                    _ => out.extend([Instr::LocalGet(6), Instr::I32TruncF64S]),
                }
                out.push(Instr::I32Add);
                out.push(Instr::I32Add);
                out.push(Instr::LocalSet(i32_local(*dst)));
            }
        }
    }
}

fn leaf_stmt() -> BoxedStrategy<Stmt> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(a, b, dst, op)| Stmt::BinLL { a, b, dst, op }),
        (any::<u8>(), any::<i32>(), any::<u8>(), any::<u8>())
            .prop_map(|(src, k, dst, op)| Stmt::ImmOp { src, k, dst, op }),
        any::<u8>().prop_map(|op| Stmt::Bin64 { op }),
        (any::<bool>(), any::<u8>()).prop_map(|(wide, op)| Stmt::FOp { wide, op }),
        any::<u8>().prop_map(|which| Stmt::Convert { which }),
        (any::<u8>(), any::<bool>(), 0u32..80, any::<u8>()).prop_map(
            |(al, masked, offset, which)| Stmt::Load {
                al,
                masked,
                offset,
                which
            }
        ),
        (any::<u8>(), any::<bool>(), 0u32..80, any::<u8>()).prop_map(
            |(al, masked, offset, which)| Stmt::Store {
                al,
                masked,
                offset,
                which
            }
        ),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(arg, dst, host)| Stmt::Call {
            arg,
            dst,
            host
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(arg, slot, dst)| Stmt::CallInd {
            arg,
            slot,
            dst
        }),
        any::<u8>().prop_map(|which| Stmt::GlobalOps { which }),
        (any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(which, a, b, c)| Stmt::MemBulk { which, a, b, c }),
        any::<u8>().prop_map(|which| Stmt::Elided { which }),
        (any::<u8>(), any::<i32>(), any::<u8>(), any::<u8>()).prop_map(|(cond, k1, k2, dst)| {
            Stmt::IfVal {
                cond,
                k1: k1 / 2,
                k2: i32::from(k2),
                dst,
            }
        }),
        (any::<u8>(), any::<i32>()).prop_map(|(cond, k)| Stmt::EarlyRet { cond, k }),
        any::<u8>().prop_map(|cond| Stmt::Unreach { cond }),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<i32>(),
            any::<u8>()
        )
            .prop_map(|(which, a, b, k, dst)| Stmt::PendingRead {
                which,
                a,
                b,
                k,
                dst
            }),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(which, a, b, c, dst)| Stmt::Carry {
                which,
                a,
                b,
                c,
                dst
            }),
        (any::<u8>(), any::<u8>(), any::<i32>(), any::<u8>())
            .prop_map(|(which, a, k, dst)| Stmt::SlotCall { which, a, k, dst }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(which, a, b, dst)| Stmt::TrapUnderDeferred { which, a, b, dst }),
        (
            (any::<u8>(), any::<u8>(), any::<bool>()),
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>())
        )
            .prop_map(|((base, idx, masked), (scale, value, kind, offset))| {
                Stmt::ScaledStore {
                    base,
                    idx,
                    masked,
                    scale,
                    value,
                    kind,
                    offset,
                }
            }),
    ]
    .boxed()
}

fn stmt_strategy() -> BoxedStrategy<Stmt> {
    leaf_stmt().prop_recursive(2, 32, 4, |inner| {
        prop_oneof![
            (any::<u8>(), prop::collection::vec(inner.clone(), 0..4))
                .prop_map(|(bound, body)| Stmt::While { bound, body }),
            (
                (any::<u8>(), any::<i8>(), any::<bool>(), any::<bool>()),
                (any::<i8>(), any::<bool>()),
                prop::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|((trips, step, big, sub), (bound, reg), body)| {
                    Stmt::Count {
                        trips,
                        step,
                        big,
                        sub,
                        bound,
                        reg,
                        body,
                    }
                }),
            (
                any::<u8>(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3),
                any::<bool>(),
            )
                .prop_map(|(cond, then, els, has_else)| Stmt::IfElse {
                    cond,
                    then,
                    els,
                    has_else
                }),
            (
                any::<u8>(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3),
            )
                .prop_map(|(sel, a, b)| Stmt::Table3 { sel, a, b }),
            prop::collection::vec(inner, 0..3).prop_map(|dead| Stmt::DeadAfterBr { dead }),
        ]
    })
}

// ── Harness ────────────────────────────────────────────────────────────

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Option<Val>, Trap>,
    fuel: u64,
    globals: Vec<Val>,
    memory: Vec<u8>,
}

fn linker() -> Linker {
    let mut l = Linker::new();
    l.define_fn("env", "bump", |_ctx, args| {
        let Val::I32(x) = args[0] else { unreachable!() };
        Ok(vec![Val::I32(x.wrapping_add(7))])
    });
    l
}

/// Everything a caller can see of `inst` once a call returned `result`.
fn observe(inst: &Instance, result: Result<Option<Val>, Trap>) -> Outcome {
    Outcome {
        result,
        fuel: inst.fuel.consumed(),
        globals: (0..2).map(|i| inst.global(i).expect("global")).collect(),
        memory: inst.memory().expect("memory").to_vec(),
    }
}

fn run_tier(object: Arc<ObjectModule>, args: &[Val], fuel: FuelMeter) -> Outcome {
    let mut inst = Instance::with_fuel(object, &linker(), Box::new(()), fuel).expect("instantiate");
    let result = inst.invoke("main", args);
    observe(&inst, result)
}

fn run_both(module: &Module, args: &[Val], limit: Option<u64>) -> (Outcome, Outcome) {
    let meter = || limit.map_or_else(FuelMeter::unlimited, FuelMeter::with_limit);
    let interp = ObjectModule::prepare(module.clone()).expect("validates");
    let lowered = ObjectModule::prepare_lowered(module.clone()).expect("validates");
    assert!(!interp.is_lowered());
    assert!(lowered.is_lowered());
    (
        run_tier(interp, args, meter()),
        run_tier(lowered, args, meter()),
    )
}

fn args_of(a: i32, b: i32, c: i64) -> [Val; 3] {
    [Val::I32(a), Val::I32(b), Val::I64(c)]
}

proptest! {
    /// Unlimited fuel: results, traps (kind + payload), fuel consumed,
    /// globals, and the whole linear memory match bitwise.
    #[test]
    fn tiers_agree_unlimited(
        stmts in prop::collection::vec(stmt_strategy(), 0..10),
        a in any::<i32>(),
        b in any::<i32>(),
        c in any::<i64>(),
    ) {
        let module = build_module(&stmts);
        let (i, l) = run_both(&module, &args_of(a, b, c), None);
        prop_assert_eq!(i, l);
    }

    /// Fuel budgets bisected to land mid-block: the lowered tier's bulk
    /// charging + metered fallback must exhaust at the interpreter's exact
    /// instruction, with identical partial side effects.
    #[test]
    fn tiers_agree_at_every_fuel_bisection(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        a in any::<i32>(),
        b in any::<i32>(),
        c in any::<i64>(),
    ) {
        let module = build_module(&stmts);
        let args = args_of(a, b, c);
        // Reference run to learn the total cost.
        let (full, _) = run_both(&module, &args, None);
        let total = full.fuel;
        let mut limits = vec![1, total / 3, total / 2, total.saturating_sub(1), total, total + 1];
        limits.sort_unstable();
        limits.dedup();
        for limit in limits {
            if limit == 0 {
                continue;
            }
            let (i, l) = run_both(&module, &args, Some(limit));
            prop_assert_eq!(&i, &l, "diverged at fuel limit {}", limit);
            if limit < total {
                // The budget really did bite mid-run. Unit charges land on
                // exactly limit + 1; variable charges (host calls, bulk
                // memory ops) may overshoot — but identically on both tiers.
                prop_assert_eq!(i.result, Err(Trap::OutOfFuel));
                prop_assert!(i.fuel > limit);
            }
        }
    }

    /// Snapshot/restore round-trips on the lowered tier mid-workload and
    /// resumes to the same final state as an uninterrupted lowered run and
    /// as the interpreter.
    #[test]
    fn lowered_snapshot_restore_matches(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        a in any::<i32>(),
        b in any::<i32>(),
        c in any::<i64>(),
    ) {
        let module = build_module(&stmts);
        let args = args_of(a, b, c);
        let (interp, direct) = run_both(&module, &args, None);
        prop_assert_eq!(&interp, &direct);

        // Run once to mutate state, snapshot, restore into a fresh
        // instance, then run again: both tiers must agree on the
        // second run's outcome starting from the snapshotted state.
        let run_twice = |object: Arc<ObjectModule>| {
            let lk = linker();
            let mut first =
                Instance::with_fuel(object.clone(), &lk, Box::new(()), FuelMeter::unlimited())
                    .expect("instantiate");
            let _ = first.invoke("main", &args);
            let snap = first.snapshot();
            let mut second =
                Instance::restore(object, &snap, &lk, Box::new(()), FuelMeter::unlimited())
                    .expect("restore");
            let result = second.invoke("main", &args);
            let globals: Vec<Val> = (0..2).map(|i| second.global(i).expect("global")).collect();
            let mem = second.memory().expect("memory");
            let mut memory = vec![0u8; mem.size_bytes()];
            mem.read(0, &mut memory).expect("memory read");
            (result, globals, memory)
        };
        let i2 = run_twice(ObjectModule::prepare(module.clone()).expect("validates"));
        let l2 = run_twice(ObjectModule::prepare_lowered(module.clone()).expect("validates"));
        prop_assert_eq!(i2, l2);
    }

    /// Calls on one instance with `reset_to` between them agree with a
    /// fresh `Instance::restore` per call on result, trap, fuel, globals,
    /// table and every memory byte. Every run includes a call that returns,
    /// one that traps 200 frames deep and one that runs out of fuel half-way
    /// — the last two leave the kept instance's stacks non-empty.
    #[test]
    fn reset_in_place_matches_a_fresh_restore_per_call(
        stmts in prop::collection::vec(stmt_strategy(), 0..8),
        calls in prop::collection::vec((any::<i32>(), any::<i32>(), any::<i64>()), 3..7),
    ) {
        // Every call first leaves a fingerprint of its arguments in memory
        // (local3 = a | 1 stored at b & 0x7FF8), then recurses
        // `local0 & 255` frames deep (limit: 200), so the low byte of the
        // first argument picks how the call ends.
        let mut body = vec![
            Stmt::ImmOp { src: 0, k: 1, dst: 2, op: 4 },
            Stmt::Store { al: 1, masked: true, offset: 0, which: 0 },
            Stmt::SlotCall { which: 2, a: 0, k: 0, dst: 2 },
        ];
        body.extend(stmts);
        let module = build_module(&body);
        let lk = linker();
        for prepare in [ObjectModule::prepare, ObjectModule::prepare_lowered] {
            let object = prepare(module.clone()).expect("validates");
            // The proto: an instance that has already run once.
            let mut donor = Instance::new(object.clone(), &lk, Box::new(())).expect("instantiate");
            let _ = donor.invoke("main", &args_of(3, 1, 2));
            let snap = donor.snapshot();
            let restore = |fuel| {
                Instance::restore(object.clone(), &snap, &lk, Box::new(()), fuel).expect("restore")
            };

            let mut kept = restore(FuelMeter::unlimited());
            for (n, &(a, b, c)) in calls.iter().enumerate() {
                let depth = [3, 250, 150][n % 3];
                let args = args_of(a & !255 | depth, b, c);
                let limit = (n % 3 == 2).then(|| {
                    let mut probe = restore(FuelMeter::unlimited());
                    let _ = probe.invoke("main", &args);
                    probe.fuel.consumed() / 2
                });
                let meter = || limit.map_or_else(FuelMeter::unlimited, FuelMeter::with_limit);

                let mut fresh = restore(meter());
                let want = fresh.invoke("main", &args);
                kept.fuel = meter();
                let got = kept.invoke("main", &args);
                match n % 3 {
                    1 => prop_assert_eq!(&want, &Err(Trap::CallStackExhausted)),
                    2 => prop_assert_eq!(&want, &Err(Trap::OutOfFuel)),
                    _ => {}
                }
                prop_assert_eq!(observe(&kept, got), observe(&fresh, want), "call {}", n);
                kept.reset_to(&snap).expect("same module");
            }
            // After the last reset: the proto's state, table included, and
            // the snapshot itself was never written through.
            let (mut fresh, after) = (restore(FuelMeter::unlimited()), kept.snapshot());
            let pristine = fresh.snapshot();
            prop_assert_eq!(&after.globals, &pristine.globals);
            prop_assert_eq!(&after.table, &pristine.table);
            let bytes = |inst: &Instance| inst.memory().expect("memory").to_vec();
            prop_assert!(bytes(&kept) == bytes(&fresh), "memory differs after the last reset");
        }
    }
}
