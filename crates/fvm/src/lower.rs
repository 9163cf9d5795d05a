//! Lowering: from structured, stack-form `Instr` bodies to flat register ops.
//!
//! The plain interpreter walks the tree-form body, paying for structure on
//! every instruction: a label stack, an operand `Vec`, `fuel.charge(1)` per
//! instruction. Validation already proved the structure and every stack
//! height, so this pass compiles each body once, at `ObjectModule`
//! preparation time, into a flat array of three-address [`Op`]s.
//!
//! # The frame
//!
//! A function runs in a window of the instance's one value stack:
//!
//! ```text
//! [ params | declared locals | operand slot 0 .. operand slot max_height )
//! ```
//!
//! The operand at static stack height `h` has the *canonical* frame index
//! `n_locals + h`. Every op names its sources and destination as frame
//! indices (or carries a 32-bit immediate), so there is no push/pop traffic
//! and no `block`/`loop`/`end` at run time. A callee's frame starts at its
//! arguments, exactly where the caller's canonical slots already hold them,
//! and it leaves its result in its own frame index 0 — the caller's slot for
//! the call's result.
//!
//! # Deferral and materialisation
//!
//! `local.get` and `*.const` emit nothing. The abstract operand stack the
//! scan keeps records them as *deferred* entries, and the op that pops one
//! reads the local's frame index (or takes the constant as its immediate)
//! in place. A value-producing instruction followed by `local.set`/`tee`
//! writes the local directly. A deferred entry is *materialised* — copied
//! to its canonical slot — only where the abstract stack must be canonical:
//!
//! * before a write to a local that still has a deferred read on the stack,
//! * at a block boundary (`block`/`loop`/`if` entry: the whole stack; a
//!   block's `end`/`else` and every branch: the carried result),
//! * for a call's outgoing arguments,
//! * for a constant no immediate form can hold.
//!
//! Three more instructions are deferred, each only when its one consumer
//! is known: an i32 comparison (and `i32.eqz`) feeding `br_if`/`if` becomes
//! a compare-and-branch; an `i32.add` that only addresses a full-width
//! zero-offset access becomes its base + index address; and an `i32.mul` by
//! 4 or 8 (`i32.shl` by 2 or 3) feeding that add becomes the index's scale,
//! a shift field of the access. The address stays the wrapping i32
//! `a + (b << shift)`; no displacement is folded into an offset, whose sum
//! does not wrap.
//!
//! * **Scaled loads** (`Load32X`/`Load64X`): the load is the instruction
//!   right after the add.
//! * **Scaled stores** (`Store32X`/`Store64X`): the store comes after the
//!   straight-line computation of its value (at most [`MAX_STORE_VALUE`]
//!   instructions with no call, store or control, see `value_effect`),
//!   which runs first, exactly as it would after the address. When that
//!   computation writes a frame index the address reads — the stored value
//!   lands in the index's operand slot, or a `local.tee` writes the index
//!   local — the address is computed into its own slot just before, by one
//!   [`Op::I32AddX`], and the store takes it as a plain address: one op
//!   where the `i32.mul` and `i32.add` were two.
//!
//! # Loops and calls
//!
//! * **Bottom-tested loops.** A `br` back to a loop whose header is one
//!   short basic block ending in a conditional branch emits a copy of the
//!   header with the branch inverted: taken into the body, falling through
//!   where the header's branch goes (through a `Jump` unless that is the
//!   next op). An iteration dispatches one branch, not a `Jump` and the
//!   header; the header runs once, on entry.
//! * **Fused back-edges.** An increment (`i32.add`/`i32.sub` of an `i16`
//!   step to a register) directly followed by a signed `<` branch on that
//!   register — the shape a bottom-tested counting loop ends in — becomes
//!   one [`Op::IncBrLtSI`]/[`Op::IncBrLtS`] in the increment's place, by a
//!   pass over the finished op array. The branch stays after it, and the
//!   fuel tables and edges are those of the pair: bulk mode runs the pair
//!   as one dispatch and skips the branch, while metered mode, and an edge
//!   that lands on the branch, run the fused op as the increment alone and
//!   then the branch. An out-of-fuel limit that lands between the two
//!   therefore stops where the interpreter does.
//! * **Inlined leaves.** A `call` of a function whose lowered body is one
//!   basic block of a few ops with no call and no variable-fuel memory op is
//!   replaced by that body: parameters read the caller's entries in place,
//!   the result lands where the caller wants it, and one
//!   [`Op::DepthGuard`] keeps the call-depth trap at the call. Bodies
//!   without calls are lowered first so their callers can inline them;
//!   every body is still lowered once.
//!
//! # The fuel-equivalence contract
//!
//! The interpreter charges one fuel unit per executed instruction, *before*
//! executing it, including the structural ops that lowering erases. The only
//! observables are: guest state (memory, globals, table) at every trap or
//! return, the trap kind and value, and `FuelMeter::consumed()` at those
//! points. The lowered tier reproduces those observables exactly:
//!
//! * Every instruction that emits no op — erased structure, or a deferred
//!   instruction — is accounted to the *edge* that executes it: its unit is
//!   carried by the next op emitted at or after its source position (never
//!   by its consumer) as that op's [`OpFuel::pre`], and each branch edge
//!   pays its [`Edge::extra`] count (walked out of the side tables at
//!   lowering time, so back-edges to a loop do not re-pay the `Loop`
//!   opener, exactly like the interpreter). Deferred instructions have no
//!   effect a trap could observe, so moving their *work* later is invisible;
//!   their *fuel* never moves past an op that can trap or write guest state.
//! * A basic block's member costs — plus, when it falls straight through
//!   into the next block, that block's — are charged in one
//!   [`FuelMeter::charge_block`] on the control edge that enters it
//!   ([`Edge::bulk`], [`Edge::fall`], the function-entry charge). If the
//!   charge would cross the fuel limit it is refused and execution switches
//!   to a per-op metered mode that charges with
//!   [`FuelMeter::charge_steps`], so the out-of-fuel trap lands at the same
//!   consumed value (`limit + 1`) the interpreter observes.
//! * A non-fuel trap mid-block refunds the not-yet-executed remainder
//!   ([`OpFuel::rest`]), so consumed fuel equals exactly what the interpreter
//!   charged up to and through the trapping instruction.
//! * Variable charges (host-call flat 16, `memory.grow` 64/page,
//!   `memory.copy`/`fill` len/8) terminate basic blocks and use the same
//!   plain [`FuelMeter::charge`] the interpreter uses.
//! * A copied loop header and an inlined body are ordinary ops of the block
//!   they land in: their costs are the units of the instructions they stand
//!   for (the `br` and the back-edge walk on the header's first op; the
//!   `call` on the guard, the callee's entry walk on its first op, its
//!   return as an op-less unit after it), so a trap or an exhausted limit
//!   inside them lands where the interpreter's does.
//!
//! Dead code (instructions the validator types with a polymorphic stack
//! because they can never execute) is not lowered at all: it can never
//! contribute fuel or effects on any tier.
//!
//! [`FuelMeter::charge`]: crate::fuel::FuelMeter::charge
//! [`FuelMeter::charge_block`]: crate::fuel::FuelMeter::charge_block
//! [`FuelMeter::charge_steps`]: crate::fuel::FuelMeter::charge_steps

use crate::instr::Instr;
use crate::module::{FuncDef, Module};
use crate::num::numeric_ops;
use crate::object::CtrlMeta;

type MkBin = fn(u32, u32, u32) -> Op;
type MkBinImm = fn(u32, u32, i32) -> Op;
type MkUn = fn(u32, u32) -> Op;

/// Generates [`Op`], the `Instr` → `Op` constructors and [`Cmp`] from the
/// numeric table; every non-numeric op is written out below.
macro_rules! define_ops {
    (int_bin: [$(($ib:ident, $ibi:ident, $ibf:ident)),* $(,)?]
     int_bin_trap: [$(($it:ident, $iti:ident, $itf:ident)),* $(,)?]
     float_bin: [$(($fb:ident, $fbf:ident)),* $(,)?]
     un: [$(($un:ident, $unf:ident)),* $(,)?]
     un_trap: [$(($ut:ident, $utf:ident)),* $(,)?]
     br_cmp: [$(($c:ident, $cneg:ident, $br:ident, $bri:ident, $cf:ident)),* $(,)?]) => {
        /// One lowered op: at most three frame indices / immediates, one
        /// dispatch each. `dst`, `a`, `b`, `src`, `addr`, … are frame
        /// indices; `imm` is the right operand, sign-extended to the slot;
        /// `edge` indexes [`LoweredFunc::edges`].
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) enum Op {
            $($ib { dst: u32, a: u32, b: u32 }, $ibi { dst: u32, a: u32, imm: i32 },)*
            $($it { dst: u32, a: u32, b: u32 }, $iti { dst: u32, a: u32, imm: i32 },)*
            $($fb { dst: u32, a: u32, b: u32 },)*
            $($un { dst: u32, a: u32 },)*
            $($ut { dst: u32, a: u32 },)*
            /// Branch when the i32 comparison of two frame slots holds.
            $($br { a: u32, b: u32, edge: u32 }, $bri { a: u32, imm: i32, edge: u32 },)*
            Unreachable,
            Jump { edge: u32 },
            /// Branch when the i32 in `cond` is zero / non-zero.
            BrZ { cond: u32, edge: u32 },
            BrNz { cond: u32, edge: u32 },
            /// `edges[first + min(frame[idx], len)]`; the default is last.
            BrTable { idx: u32, first: u32, len: u32 },
            /// Copy `src` to frame index 0 (the caller's result slot), return.
            Ret { src: u32 },
            RetVoid,
            /// Call local function `func`; its frame starts at `base`.
            Call { func: u32, base: u32 },
            CallHost { import: u32, base: u32 },
            CallIndirect { type_idx: u32, idx: u32, base: u32 },
            MemorySize { dst: u32 },
            MemoryGrow { dst: u32, delta: u32 },
            MemoryCopy { dst: u32, src: u32, len: u32 },
            MemoryFill { dst: u32, val: u32, len: u32 },
            GlobalGet { dst: u32, idx: u32 },
            GlobalSet { idx: u32, src: u32 },
            Mov { dst: u32, src: u32 },
            /// Zero-extended 32-bit constant.
            Const { dst: u32, imm: u32 },
            Const64 { dst: u32, bits: u64 },
            /// `dst = frame[base + 2] != 0 ? frame[base] : frame[base + 1]`.
            Select { dst: u32, base: u32 },
            // Loads: access width, then the extension into the slot.
            // i32/f32 and i64/f64 are indistinguishable — slots are raw bits.
            Load8U { dst: u32, addr: u32, offset: u32 },
            Load8S32 { dst: u32, addr: u32, offset: u32 },
            Load8S64 { dst: u32, addr: u32, offset: u32 },
            Load16U { dst: u32, addr: u32, offset: u32 },
            Load16S32 { dst: u32, addr: u32, offset: u32 },
            Load16S64 { dst: u32, addr: u32, offset: u32 },
            Load32 { dst: u32, addr: u32, offset: u32 },
            Load32S64 { dst: u32, addr: u32, offset: u32 },
            Load64 { dst: u32, addr: u32, offset: u32 },
            /// Scaled base + index: the address is the wrapping i32
            /// `a + (b << shift)`.
            Load32X { dst: u32, a: u32, b: u32, shift: u8 },
            Load64X { dst: u32, a: u32, b: u32, shift: u8 },
            Store8 { addr: u32, val: u32, offset: u32 },
            Store16 { addr: u32, val: u32, offset: u32 },
            Store32 { addr: u32, val: u32, offset: u32 },
            Store64 { addr: u32, val: u32, offset: u32 },
            /// Scaled base + index stores: `val` to the wrapping i32
            /// `a + (b << shift)`.
            Store32X { a: u32, b: u32, val: u32, shift: u8 },
            Store64X { a: u32, b: u32, val: u32, shift: u8 },
            /// `dst = a + (b << shift)`, wrapping i32: a scaled store address
            /// whose index slot the stored value is about to overwrite.
            I32AddX { dst: u32, a: u32, b: u32, shift: u8 },
            /// A loop's back-edge: `a += step` (wrapping i32), then branch
            /// when `a < b` (`a < imm`), signed. It stands in place of the
            /// increment and the branch stays after it: in bulk mode this op
            /// runs both and skips the branch; in metered mode, and for an
            /// edge landing on the branch, it is the increment alone.
            IncBrLtS { a: u32, b: u32, edge: u32, step: i16 },
            IncBrLtSI { a: u32, imm: i32, edge: u32, step: i16 },
            /// The depth check of an inlined call: trap exactly where the
            /// call would have.
            DepthGuard,
        }

        /// Register and (integer ops only) immediate constructors of a
        /// binary numeric instruction.
        fn bin_ctor(i: &Instr) -> Option<(MkBin, Option<MkBinImm>)> {
            Some(match i {
                $(Instr::$ib => {
                    let (rr, ri): (MkBin, MkBinImm) = (
                        |dst, a, b| Op::$ib { dst, a, b },
                        |dst, a, imm| Op::$ibi { dst, a, imm },
                    );
                    (rr, Some(ri))
                })*
                $(Instr::$it => {
                    let (rr, ri): (MkBin, MkBinImm) = (
                        |dst, a, b| Op::$it { dst, a, b },
                        |dst, a, imm| Op::$iti { dst, a, imm },
                    );
                    (rr, Some(ri))
                })*
                $(Instr::$fb => {
                    let rr: MkBin = |dst, a, b| Op::$fb { dst, a, b };
                    (rr, None)
                })*
                _ => return None,
            })
        }

        /// Constructor of a unary numeric instruction or conversion.
        fn un_ctor(i: &Instr) -> Option<MkUn> {
            Some(match i {
                $(Instr::$un => |dst, a| Op::$un { dst, a },)*
                $(Instr::$ut => |dst, a| Op::$ut { dst, a },)*
                _ => return None,
            })
        }

        /// An i32 comparison a conditional branch can absorb.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Cmp {
            $($c,)*
        }

        impl Cmp {
            fn of(i: &Instr) -> Option<Cmp> {
                match i {
                    $(Instr::$c => Some(Cmp::$c),)*
                    _ => None,
                }
            }

            /// The comparison that holds exactly when `self` does not.
            fn negated(self) -> Cmp {
                match self {
                    $(Cmp::$c => Cmp::$cneg,)*
                }
            }

            fn branch(self, a: u32, b: Rhs, edge: u32) -> Op {
                match (self, b) {
                    $((Cmp::$c, Rhs::Reg(b)) => Op::$br { a, b, edge },
                      (Cmp::$c, Rhs::Imm(imm)) => Op::$bri { a, imm, edge },)*
                }
            }
        }

        impl Op {
            /// The edge of a two-way conditional branch.
            fn cond_edge(&self) -> Option<u32> {
                match *self {
                    $(Op::$br { edge, .. } | Op::$bri { edge, .. } => Some(edge),)*
                    Op::BrZ { edge, .. } | Op::BrNz { edge, .. } => Some(edge),
                    _ => None,
                }
            }

            /// The conditional branch taken exactly when `self` is not,
            /// along `edge`.
            fn inverted(self, edge: u32) -> Option<Op> {
                Some(match self {
                    $(Op::$br { a, b, .. } => Cmp::$c.negated().branch(a, Rhs::Reg(b), edge),
                      Op::$bri { a, imm, .. } => Cmp::$c.negated().branch(a, Rhs::Imm(imm), edge),)*
                    Op::BrZ { cond, .. } => Op::BrNz { cond, edge },
                    Op::BrNz { cond, .. } => Op::BrZ { cond, edge },
                    _ => return None,
                })
            }

            /// A numeric op with its written frame index mapped by `w` and
            /// the ones it reads by `r`; `None` for any other op.
            fn remap_numeric(
                self,
                w: &mut impl FnMut(u32) -> u32,
                r: &mut impl FnMut(u32) -> u32,
            ) -> Option<Op> {
                Some(match self {
                    $(Op::$ib { dst, a, b } => Op::$ib { a: r(a), b: r(b), dst: w(dst) },
                      Op::$ibi { dst, a, imm } => Op::$ibi { a: r(a), imm, dst: w(dst) },)*
                    $(Op::$it { dst, a, b } => Op::$it { a: r(a), b: r(b), dst: w(dst) },
                      Op::$iti { dst, a, imm } => Op::$iti { a: r(a), imm, dst: w(dst) },)*
                    $(Op::$fb { dst, a, b } => Op::$fb { a: r(a), b: r(b), dst: w(dst) },)*
                    $(Op::$un { dst, a } => Op::$un { a: r(a), dst: w(dst) },)*
                    $(Op::$ut { dst, a } => Op::$ut { a: r(a), dst: w(dst) },)*
                    _ => return None,
                })
            }
        }
    };
}

numeric_ops!(define_ops);

// The hot loop copies one op per dispatch; keep it two words, so that no
// new op quietly widens every op array.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// The op with the frame index it writes mapped by `w` and the ones it
    /// reads by `r`; `None` for an op an inlined body does not hold:
    /// control transfers, calls, variable-fuel memory ops, the return, and
    /// `Select`, whose three operands need not stay adjacent.
    fn remap(self, mut w: impl FnMut(u32) -> u32, mut r: impl FnMut(u32) -> u32) -> Option<Op> {
        macro_rules! remap_arms {
            (loads: $($l:ident),*; stores: $($st:ident),*; scaled_loads: $($lx:ident),*;
             scaled_stores: $($sx:ident),*) => {
                match self {
                    $(Op::$l { dst, addr, offset } => Op::$l { addr: r(addr), offset, dst: w(dst) },)*
                    $(Op::$st { addr, val, offset } => Op::$st { addr: r(addr), val: r(val), offset },)*
                    $(Op::$lx { dst, a, b, shift } => Op::$lx { a: r(a), b: r(b), shift, dst: w(dst) },)*
                    $(Op::$sx { a, b, val, shift } => Op::$sx { a: r(a), b: r(b), val: r(val), shift },)*
                    Op::I32AddX { dst, a, b, shift } => Op::I32AddX { a: r(a), b: r(b), shift, dst: w(dst) },
                    Op::MemorySize { dst } => Op::MemorySize { dst: w(dst) },
                    Op::GlobalGet { dst, idx } => Op::GlobalGet { dst: w(dst), idx },
                    Op::GlobalSet { idx, src } => Op::GlobalSet { idx, src: r(src) },
                    Op::Mov { dst, src } => Op::Mov { src: r(src), dst: w(dst) },
                    Op::Const { dst, imm } => Op::Const { dst: w(dst), imm },
                    Op::Const64 { dst, bits } => Op::Const64 { dst: w(dst), bits },
                    op => return op.remap_numeric(&mut w, &mut r),
                }
            };
        }
        Some(remap_arms!(
            loads: Load8U, Load8S32, Load8S64, Load16U, Load16S32, Load16S64, Load32,
                Load32S64, Load64;
            stores: Store8, Store16, Store32, Store64;
            scaled_loads: Load32X, Load64X;
            scaled_stores: Store32X, Store64X
        ))
    }

    /// The frame index an op [`Op::remap`] takes writes, if any.
    fn written(self) -> Option<u32> {
        let mut written = None;
        self.remap(
            |d| {
                written = Some(d);
                d
            },
            |s| s,
        );
        written
    }

    /// True for ops that end a basic block: control transfers, calls (the
    /// callee charges its own fuel) and variable-fuel memory ops.
    fn is_terminator(&self) -> bool {
        self.cond_edge().is_some()
            || matches!(
                self,
                Op::Unreachable
                    | Op::Jump { .. }
                    | Op::BrTable { .. }
                    | Op::Ret { .. }
                    | Op::RetVoid
                    | Op::Call { .. }
                    | Op::CallHost { .. }
                    | Op::CallIndirect { .. }
                    | Op::MemoryGrow { .. }
                    | Op::MemoryCopy { .. }
                    | Op::MemoryFill { .. }
            )
    }
}

/// One control edge out of a branch op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Edge {
    /// Absolute index of the op the taken edge lands on.
    pub target: u32,
    /// Fuel for the instructions the interpreter executes along the taken
    /// edge without the lowered tier emitting an op (`End`s walked over, an
    /// `Else` skip, deferred instructions) — what metered mode charges.
    pub extra: u32,
    /// Bulk-mode charge of the taken edge: `extra` plus the target block.
    pub bulk: u32,
    /// Bulk-mode charge of a conditional branch's not-taken edge: the
    /// successor's `pre` plus its block.
    pub fall: u32,
}

/// Per-op fuel side table, indexed by pc. Bulk mode reads it only on a trap
/// (`rest`), after a call or variable-fuel op (`pre + charge` of the
/// successor) and when a refused charge switches to metered mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct OpFuel {
    /// Interpreter fuel units this op stands for (non-leaders also fold
    /// their `pre`).
    pub cost: u32,
    /// Units of op-less instructions on the linear fall-through edge into
    /// this op. Non-zero only on block leaders (folded into `cost`
    /// otherwise).
    pub pre: u32,
    /// Bulk charge of the block this op leads (zero on non-leaders): member
    /// costs, plus `pre + charge` of the next block when this one falls
    /// straight through into it.
    pub charge: u32,
    /// Portion of the block charge not yet executed once this op traps —
    /// refunded on a non-fuel trap so consumed fuel matches the interpreter.
    pub rest: u32,
}

/// A lowered function body. `ops` is never empty: the smallest body lowers
/// to a single `RetVoid`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoweredFunc {
    pub ops: Vec<Op>,
    /// Fuel side table, parallel to `ops`.
    pub fuel: Vec<OpFuel>,
    pub edges: Vec<Edge>,
    /// Bulk-mode charge on entry: the entry edge's `pre` plus the first
    /// block (kept beside `fuel[0]` because every call reads it).
    pub entry_bulk: u32,
    pub n_params: u32,
    /// Params plus declared locals: the frame index of operand slot 0.
    pub n_locals: u32,
    /// `n_locals` plus the body's maximum operand-stack height.
    pub frame_size: u32,
}

impl LoweredFunc {
    /// Units of the op-less instructions before the first op: what the
    /// function-entry edge costs on its own.
    pub fn entry_pre(&self) -> u32 {
        self.fuel[0].pre
    }
}

/// Most ops, the return included, a callee may lower to and still be
/// inlined at its call sites.
const MAX_INLINE_OPS: usize = 8;

/// Most ops a loop header may have for a back-edge to copy it.
const MAX_HEADER_OPS: usize = 4;

/// Lower every function body of a validated module, each exactly once.
/// Bodies without calls go first: the straight-line ones among them are
/// what the call sites in the other bodies inline.
pub(crate) fn lower_module(module: &Module, ctrl: &[Vec<CtrlMeta>]) -> Vec<LoweredFunc> {
    let lower = |i: usize, leaves: &[Option<LoweredFunc>]| {
        let mut l = Lowerer::new(module, &module.funcs[i], &ctrl[i], leaves);
        l.scan();
        l.finish()
    };
    let calls = |i: usize| {
        module.funcs[i]
            .body
            .iter()
            .any(|instr| matches!(instr, Instr::Call(_) | Instr::CallIndirect(_)))
    };
    let n = module.funcs.len();
    let mut lowered: Vec<Option<LoweredFunc>> =
        (0..n).map(|i| (!calls(i)).then(|| lower(i, &[]))).collect();
    let leaves: Vec<Option<LoweredFunc>> = lowered
        .iter()
        .map(|lf| lf.as_ref().filter(|lf| inlinable(lf)).cloned())
        .collect();
    for (i, slot) in lowered.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(lower(i, &leaves));
        }
    }
    lowered.into_iter().flatten().collect()
}

/// Whether a call site may inline `lf`: one basic block of at most
/// [`MAX_INLINE_OPS`] ops ending in its return, with no call and no
/// variable-fuel memory op, whose declared locals are written before they
/// are read (an inlined body has no frame entry to zero them).
fn inlinable(lf: &LoweredFunc) -> bool {
    let Some((ret, body)) = lf.ops.split_last() else {
        return false;
    };
    if lf.ops.len() > MAX_INLINE_OPS || !matches!(ret, Op::Ret { .. } | Op::RetVoid) {
        return false;
    }
    let mut set = vec![false; lf.frame_size as usize];
    set[..lf.n_params as usize].fill(true);
    for op in body {
        let mut reads_unset = false;
        if op
            .remap(
                |d| d,
                |s| {
                    reads_unset |= !set[s as usize];
                    s
                },
            )
            .is_none()
            || reads_unset
        {
            return false;
        }
        if let Some(d) = op.written() {
            set[d as usize] = true;
        }
    }
    !matches!(ret, Op::Ret { src } if !set[*src as usize])
}

/// A full-width load (`i32`/`f32`, `i64`/`f64`) with no offset, whose
/// address one `Load32X`/`Load64X` can compute: whether it is 64-bit.
fn indexed_load(i: &Instr) -> Option<bool> {
    let (wide, m) = match i {
        Instr::I32Load(m) | Instr::F32Load(m) => (false, m),
        Instr::I64Load(m) | Instr::F64Load(m) => (true, m),
        _ => return None,
    };
    (m.offset == 0).then_some(wide)
}

/// The store twin of [`indexed_load`]: a full-width store with no offset,
/// whose address one `Store32X`/`Store64X` can compute.
fn indexed_store(i: &Instr) -> Option<bool> {
    let (wide, m) = match i {
        Instr::I32Store(m) | Instr::F32Store(m) => (false, m),
        Instr::I64Store(m) | Instr::F64Store(m) => (true, m),
        _ => return None,
    };
    (m.offset == 0).then_some(wide)
}

/// Most instructions between a scaled store's address and the store
/// itself: the value's computation.
const MAX_STORE_VALUE: usize = 32;

/// Stack effect `(pops, pushes)` of an instruction a scaled store's value
/// may be computed by: straight-line, no call, no store, and lowered only to
/// ops that name the frame index they write ([`Op::written`]), which is
/// what lets [`Lowerer::emit`] see a write to the address's operands coming.
fn value_effect(i: &Instr) -> Option<(usize, usize)> {
    Some(match i {
        Instr::LocalGet(_)
        | Instr::GlobalGet(_)
        | Instr::I32Const(_)
        | Instr::I64Const(_)
        | Instr::F32Const(_)
        | Instr::F64Const(_) => (0, 1),
        Instr::Nop => (0, 0),
        Instr::LocalSet(_) | Instr::Drop => (1, 0),
        Instr::LocalTee(_)
        | Instr::I32ReinterpretF32
        | Instr::I64ReinterpretF64
        | Instr::F32ReinterpretI32
        | Instr::F64ReinterpretI64 => (1, 1),
        i if bin_ctor(i).is_some() => (2, 1),
        i if un_ctor(i).is_some() || load_ctor(i).is_some() => (1, 1),
        _ => return None,
    })
}

/// `dst = a + (b << shift)`: one plain add when nothing is scaled.
fn add_x(dst: u32, a: u32, b: u32, shift: u8) -> Op {
    if shift == 0 {
        Op::I32Add { dst, a, b }
    } else {
        Op::I32AddX { dst, a, b, shift }
    }
}

/// Fuse each loop back-edge: an `i32.add`/`i32.sub` of an `i16` step to a
/// register, directly followed by a signed `<` branch on that register,
/// becomes [`Op::IncBrLtSI`]/[`Op::IncBrLtS`] in the increment's place. The
/// branch stays where it was, and the fuel tables and edges stay those of
/// the pair: the fused op is the pair in bulk mode and the increment alone
/// in metered mode (see [`Op::IncBrLtS`]).
fn fuse_back_edges(ops: &mut [Op]) {
    for i in 1..ops.len() {
        let (reg, step) = match ops[i - 1] {
            Op::I32AddI { dst, a, imm } if dst == a => (a, i16::try_from(imm).ok()),
            Op::I32SubI { dst, a, imm } if dst == a => {
                (a, imm.checked_neg().and_then(|s| i16::try_from(s).ok()))
            }
            _ => continue,
        };
        let Some(step) = step else {
            continue;
        };
        ops[i - 1] = match ops[i] {
            Op::BrLtSI { a, imm, edge } if a == reg => Op::IncBrLtSI { a, imm, edge, step },
            Op::BrLtS { a, b, edge } if a == reg => Op::IncBrLtS { a, b, edge, step },
            _ => continue,
        };
    }
}

/// Whether an entry's value is in a frame slot already.
fn in_reg(e: &Entry) -> bool {
    matches!(e, Entry::Canon | Entry::Local(_))
}

type MkMem = fn(u32, u32, u32) -> Op;

/// `(dst, addr, offset)` constructor of a load instruction.
fn load_ctor(i: &Instr) -> Option<(MkMem, u32)> {
    let (mk, m): (MkMem, _) = match i {
        Instr::I32Load8U(m) | Instr::I64Load8U(m) => {
            (|dst, addr, offset| Op::Load8U { dst, addr, offset }, m)
        }
        Instr::I32Load8S(m) => (|dst, addr, offset| Op::Load8S32 { dst, addr, offset }, m),
        Instr::I64Load8S(m) => (|dst, addr, offset| Op::Load8S64 { dst, addr, offset }, m),
        Instr::I32Load16U(m) | Instr::I64Load16U(m) => {
            (|dst, addr, offset| Op::Load16U { dst, addr, offset }, m)
        }
        Instr::I32Load16S(m) => (|dst, addr, offset| Op::Load16S32 { dst, addr, offset }, m),
        Instr::I64Load16S(m) => (|dst, addr, offset| Op::Load16S64 { dst, addr, offset }, m),
        Instr::I32Load(m) | Instr::F32Load(m) | Instr::I64Load32U(m) => {
            (|dst, addr, offset| Op::Load32 { dst, addr, offset }, m)
        }
        Instr::I64Load32S(m) => (|dst, addr, offset| Op::Load32S64 { dst, addr, offset }, m),
        Instr::I64Load(m) | Instr::F64Load(m) => {
            (|dst, addr, offset| Op::Load64 { dst, addr, offset }, m)
        }
        _ => return None,
    };
    Some((mk, m.offset))
}

/// `(addr, val, offset)` constructor of a store instruction.
fn store_ctor(i: &Instr) -> Option<(MkMem, u32)> {
    let (mk, m): (MkMem, _) = match i {
        Instr::I32Store8(m) | Instr::I64Store8(m) => {
            (|addr, val, offset| Op::Store8 { addr, val, offset }, m)
        }
        Instr::I32Store16(m) | Instr::I64Store16(m) => {
            (|addr, val, offset| Op::Store16 { addr, val, offset }, m)
        }
        Instr::I32Store(m) | Instr::F32Store(m) | Instr::I64Store32(m) => {
            (|addr, val, offset| Op::Store32 { addr, val, offset }, m)
        }
        Instr::I64Store(m) | Instr::F64Store(m) => {
            (|addr, val, offset| Op::Store64 { addr, val, offset }, m)
        }
        _ => return None,
    };
    Some((mk, m.offset))
}

/// Right operand of an integer op or an absorbed comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rhs {
    Reg(u32),
    Imm(i32),
}

/// One entry of the abstract operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// The value is in the entry's canonical slot.
    Canon,
    /// A deferred `local.get`: the value is the local itself.
    Local(u32),
    /// A deferred constant; `imm` is set when an integer op can take it as
    /// its sign-extended 32-bit immediate.
    Const { bits: u64, imm: Option<i32> },
    /// A deferred `i32.mul`/`i32.shl` of a register by 4 or 8 whose only
    /// consumer is the next `i32.add`, itself deferred as a [`Entry::Sum`]:
    /// `(index, shift)`.
    Scaled(u32, u8),
    /// A deferred `i32.add` whose only consumer is a full-width,
    /// zero-offset access — the next load, or the store after the
    /// straight-line computation of its value: the address
    /// `a + (b << shift)`. A write to `a` or `b` before the store computes
    /// it into the entry's canonical slot first ([`Lowerer::emit`]).
    Sum(u32, u32, u8),
    /// A deferred i32 comparison whose only consumer is the next branch.
    Cmp { cmp: Cmp, a: u32, b: Rhs },
}

/// An op during lowering, before fuel-block assignment.
#[derive(Debug, Clone, Copy)]
struct PreOp {
    op: Op,
    cost: u32,
    pre: u32,
}

/// A structured-control frame tracked by the scan.
struct Frame {
    /// Stack height at frame entry (after the `if` condition pop).
    height: u32,
    /// Result arity of the block type (height contribution on fall-through).
    arity: u32,
    is_loop: bool,
    is_if: bool,
    else_pc: u32,
    end_pc: u32,
    /// Where a branch to this frame continues, in original pc space.
    cont_orig: u32,
    /// A live branch targets this frame (makes the code after `end` live).
    branched: bool,
    /// The then-arm of an `if` reached its `else` alive.
    then_fell: bool,
    /// The scan is currently inside the else-arm.
    in_else: bool,
}

/// An edge whose target is resolved once the whole body has been scanned.
#[derive(Clone, Copy)]
struct Fixup {
    edge: u32,
    /// Walk start, in original pc space.
    start: usize,
    /// Fuel of the instructions the edge executes before the walk begins
    /// (an `Else` skip and the `End` it lands on).
    bias: u32,
}

/// Where a branch of relative depth `d` goes.
enum Dest {
    Return,
    Label {
        /// Stack height the label's result (if any) lands at.
        height: u32,
        carry: bool,
        cont: usize,
    },
}

/// Out-of-line tail of a conditional or table branch whose taken edge has
/// work of its own: a result to move down the stack, or a return. Appended
/// after the body, reached only through `edge_in`.
struct Trampoline {
    edge_in: u32,
    /// The move of the carried value, if it is not already in place.
    mov: Option<Op>,
    /// `Jump` to the real target, or the return.
    exit: Op,
}

struct Lowerer<'a> {
    module: &'a Module,
    /// Per local function, its lowered body if call sites inline it.
    leaves: &'a [Option<LoweredFunc>],
    body: &'a [Instr],
    meta: &'a [CtrlMeta],
    n_params: u32,
    n_locals: u32,
    has_result: bool,
    ops: Vec<PreOp>,
    edges: Vec<Edge>,
    fixups: Vec<Fixup>,
    trampolines: Vec<Trampoline>,
    /// First op emitted at each source position (`u32::MAX`: none).
    flat_of: Vec<u32>,
    frames: Vec<Frame>,
    stack: Vec<Entry>,
    max_height: u32,
    /// Fuel units of op-less instructions since the last emitted op.
    elided: u32,
    /// Where the fall-through of a bottom-tested loop's copied header must
    /// go, settled where the dead code after the back-edge ends.
    exit: Option<Fixup>,
}

impl<'a> Lowerer<'a> {
    fn new(
        module: &'a Module,
        func: &'a FuncDef,
        meta: &'a [CtrlMeta],
        leaves: &'a [Option<LoweredFunc>],
    ) -> Lowerer<'a> {
        let ty = &module.types[func.type_idx as usize];
        Lowerer {
            module,
            leaves,
            body: &func.body,
            meta,
            n_params: ty.params.len() as u32,
            n_locals: (ty.params.len() + func.locals.len()) as u32,
            has_result: !ty.results.is_empty(),
            ops: Vec::new(),
            edges: Vec::new(),
            fixups: Vec::new(),
            trampolines: Vec::new(),
            flat_of: vec![u32::MAX; func.body.len()],
            frames: Vec::new(),
            stack: Vec::new(),
            max_height: 0,
            elided: 0,
            exit: None,
        }
    }

    // ── Emission ───────────────────────────────────────────────────────

    /// Emit an op standing for `cost` source instructions (0 for a
    /// materialisation); it also carries every op-less unit before it.
    ///
    /// A deferred store address ([`Entry::Sum`]) that reads the frame index
    /// the op writes — the stored value's computation reusing the index's
    /// slot, or writing the index local — is computed into its canonical
    /// slot first, by one [`Op::I32AddX`].
    fn emit(&mut self, op: Op, cost: u32) {
        if let Some(d) = op.written() {
            for pos in 0..self.stack.len() {
                if let Entry::Sum(a, b, shift) = self.stack[pos] {
                    if a == d || b == d {
                        self.stack[pos] = Entry::Canon;
                        self.emit(add_x(self.canon(pos), a, b, shift), 0);
                    }
                }
            }
        }
        let pre = std::mem::take(&mut self.elided);
        self.ops.push(PreOp { op, cost, pre });
    }

    fn new_edge(&mut self) -> u32 {
        self.edges.push(Edge::default());
        self.edges.len() as u32 - 1
    }

    /// A new edge that continues at original pc `start`.
    fn edge_to(&mut self, start: usize, bias: u32) -> u32 {
        let edge = self.new_edge();
        self.fixups.push(Fixup { edge, start, bias });
        edge
    }

    // ── The abstract stack ─────────────────────────────────────────────

    fn canon(&self, pos: usize) -> u32 {
        self.n_locals + pos as u32
    }

    fn push(&mut self, e: Entry) {
        self.stack.push(e);
        self.max_height = self.max_height.max(self.stack.len() as u32);
    }

    /// Pop the top entry, returning it with its stack position.
    fn pop(&mut self) -> (Entry, usize) {
        let e = self.stack.pop().expect("validated stack");
        (e, self.stack.len())
    }

    /// Emit the op that puts `e` (at stack position `pos`) into `dst`.
    fn emit_move(&mut self, dst: u32, e: Entry, pos: usize, cost: u32) {
        let op = match e {
            Entry::Canon => Op::Mov {
                dst,
                src: self.canon(pos),
            },
            Entry::Local(src) => Op::Mov { dst, src },
            Entry::Const { bits, .. } => match u32::try_from(bits) {
                Ok(imm) => Op::Const { dst, imm },
                Err(_) => Op::Const64 { dst, bits },
            },
            Entry::Scaled(..) | Entry::Sum(..) | Entry::Cmp { .. } => {
                unreachable!("consumed by the access or branch it feeds")
            }
        };
        self.emit(op, cost);
    }

    /// Copy a deferred entry still on the stack to its canonical slot.
    fn materialise(&mut self, pos: usize) {
        let e = self.stack[pos];
        if e != Entry::Canon {
            self.emit_move(self.canon(pos), e, pos, 0);
            self.stack[pos] = Entry::Canon;
        }
    }

    /// Block boundary: the whole stack becomes canonical.
    fn flush(&mut self) {
        for pos in 0..self.stack.len() {
            self.materialise(pos);
        }
    }

    /// Local `c` is about to be written: deferred reads of it still on the
    /// stack must see the old value.
    fn spill_reads_of(&mut self, c: u32) {
        for pos in 0..self.stack.len() {
            if self.stack[pos] == Entry::Local(c) {
                self.materialise(pos);
            }
        }
    }

    /// Frame index holding a popped entry's value; a constant is written to
    /// the entry's own canonical slot first.
    fn reg(&mut self, e: Entry, pos: usize) -> u32 {
        match e {
            Entry::Canon => self.canon(pos),
            Entry::Local(i) => i,
            Entry::Const { .. } => {
                let dst = self.canon(pos);
                self.emit_move(dst, e, pos, 0);
                dst
            }
            Entry::Scaled(..) | Entry::Sum(..) | Entry::Cmp { .. } => {
                unreachable!("consumed by the access or branch it feeds")
            }
        }
    }

    fn pop_reg(&mut self) -> u32 {
        let (e, pos) = self.pop();
        self.reg(e, pos)
    }

    /// Pop a right operand: a constant stays an immediate when the
    /// consuming op has an immediate form (`allow_imm`) and it fits.
    fn pop_rhs(&mut self, allow_imm: bool) -> Rhs {
        match self.pop() {
            (Entry::Const { imm: Some(imm), .. }, _) if allow_imm => Rhs::Imm(imm),
            (e, pos) => Rhs::Reg(self.reg(e, pos)),
        }
    }

    /// Destination of a value produced at `pc` onto stack position `pos`,
    /// and the entry to push for it: a following `local.set`/`tee` makes
    /// the op write the local itself.
    fn dst_for(&mut self, pc: usize, pos: usize) -> (u32, Entry) {
        match self.body.get(pc + 1) {
            Some(Instr::LocalSet(c) | Instr::LocalTee(c)) => {
                self.spill_reads_of(*c);
                (*c, Entry::Local(*c))
            }
            _ => (self.canon(pos), Entry::Canon),
        }
    }

    /// Whether the instruction after `pc` is a conditional branch, directly
    /// or through one `i32.eqz`. Neither position can be a branch target
    /// (those follow `end` or `loop`), so the pair always runs together.
    fn feeds_branch(&self, pc: usize) -> bool {
        let is_branch = |i: Option<&Instr>| matches!(i, Some(Instr::BrIf(_) | Instr::If(_)));
        is_branch(self.body.get(pc + 1))
            || (matches!(self.body.get(pc + 1), Some(Instr::I32Eqz))
                && is_branch(self.body.get(pc + 2)))
    }

    // ── Control ────────────────────────────────────────────────────────

    fn dest(&mut self, d: u32) -> Dest {
        let d = d as usize;
        if d >= self.frames.len() {
            return Dest::Return;
        }
        let fi = self.frames.len() - 1 - d;
        let f = &mut self.frames[fi];
        f.branched = true;
        Dest::Label {
            height: f.height,
            carry: !f.is_loop && f.arity == 1,
            cont: f.cont_orig as usize,
        }
    }

    /// The function's return op; the result, if any, is the top entry.
    fn ret_op(&mut self) -> Op {
        if self.has_result {
            let pos = self.stack.len() - 1;
            let e = self.stack[pos];
            Op::Ret {
                src: self.reg(e, pos),
            }
        } else {
            Op::RetVoid
        }
    }

    /// Point `edge`, the taken edge of a conditional or table branch, at
    /// label `d`. The value a label carries is the top entry; if it is
    /// already where the label wants it the edge goes straight to the
    /// target, otherwise through a trampoline that moves it (or returns it)
    /// first.
    fn branch_into(&mut self, d: u32, edge: u32) {
        match self.dest(d) {
            Dest::Return => {
                let exit = self.ret_op();
                self.trampolines.push(Trampoline {
                    edge_in: edge,
                    mov: None,
                    exit,
                });
            }
            Dest::Label {
                height,
                carry,
                cont,
            } => {
                let height = height as usize;
                if carry {
                    let top = self.stack.len() - 1;
                    self.materialise(top);
                    if top != height {
                        let edge_out = self.edge_to(cont, 0);
                        self.trampolines.push(Trampoline {
                            edge_in: edge,
                            mov: Some(Op::Mov {
                                dst: self.canon(height),
                                src: self.canon(top),
                            }),
                            exit: Op::Jump { edge: edge_out },
                        });
                        return;
                    }
                }
                self.fixups.push(Fixup {
                    edge,
                    start: cont,
                    bias: 0,
                });
            }
        }
    }

    /// Pop a branch condition and build the op that branches on it (or,
    /// `negate`d, on its absence) along an edge chosen afterwards.
    fn pop_cond(&mut self, negate: bool) -> impl Fn(u32) -> Op {
        let (e, pos) = self.pop();
        let (cmp, a, b) = match e {
            Entry::Cmp { cmp, a, b } => (cmp, a, b),
            e => (Cmp::I32Ne, self.reg(e, pos), Rhs::Imm(0)),
        };
        let cmp = if negate { cmp.negated() } else { cmp };
        move |edge| match (cmp, b) {
            (Cmp::I32Ne, Rhs::Imm(0)) => Op::BrNz { cond: a, edge },
            (Cmp::I32Eq, Rhs::Imm(0)) => Op::BrZ { cond: a, edge },
            _ => cmp.branch(a, b, edge),
        }
    }

    fn open(&mut self, pc: usize, arity: usize, is_loop: bool, is_if: bool) {
        let m = self.meta[pc];
        self.frames.push(Frame {
            height: self.stack.len() as u32,
            arity: arity as u32,
            is_loop,
            is_if,
            else_pc: if is_if { m.else_pc } else { u32::MAX },
            end_pc: m.end_pc,
            // Back-edges re-enter after the opener, so they never re-pay
            // the `Loop` instruction — same as the interpreter's label cont.
            cont_orig: if is_loop { pc as u32 + 1 } else { m.end_pc + 1 },
            branched: false,
            then_fell: false,
            in_else: false,
        });
    }

    /// Dead code is never emitted; only track the frame structure so we
    /// know where liveness resumes. Returns whether it did.
    fn skip_dead(&mut self, pc: usize, instr: &Instr, dead_nest: &mut u32) -> bool {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => *dead_nest += 1,
            Instr::Else if *dead_nest == 0 => {
                // The then-arm ended in a branch/return; the else-arm is
                // still reachable via the if's false edge.
                self.settle_exit(None);
                let f = self.frames.last_mut().expect("validated else inside if");
                f.in_else = true;
                let height = f.height as usize;
                self.stack.truncate(height);
                self.elided = 0;
                return true;
            }
            Instr::End => {
                if *dead_nest > 0 {
                    *dead_nest -= 1;
                } else if let Some(f) = self.frames.pop() {
                    let resurrect = if f.is_loop {
                        // A loop's `end` is only reachable by falling out
                        // of the body; back-edges don't help.
                        false
                    } else if f.is_if && !f.in_else && f.else_pc == u32::MAX {
                        // `if` without `else`: the false edge always lands
                        // on this `end`.
                        true
                    } else {
                        f.branched || f.then_fell
                    };
                    if resurrect {
                        self.settle_exit(Some(pc + 1));
                        self.stack.truncate(f.height as usize);
                        for _ in 0..f.arity {
                            self.push(Entry::Canon);
                        }
                        self.elided = 0;
                        return true;
                    }
                }
            }
            _ => {}
        }
        false
    }

    /// Pass 1: walk the body once, tracking liveness and the abstract
    /// operand stack, emitting register ops for live instructions.
    fn scan(&mut self) {
        let body = self.body;
        let mut live = true;
        let mut dead_nest: u32 = 0;
        for (pc, instr) in body.iter().enumerate() {
            if !live {
                live = self.skip_dead(pc, instr, &mut dead_nest);
                continue;
            }
            let first = self.ops.len();
            live = self.lower_instr(pc, instr);
            if self.ops.len() > first {
                self.flat_of[pc] = first as u32;
            }
        }
        self.settle_exit(None);
        debug_assert!(self.frames.is_empty(), "validated nesting");
    }

    /// Lower one live instruction; returns whether the next one is live.
    #[allow(clippy::too_many_lines)]
    fn lower_instr(&mut self, pc: usize, instr: &Instr) -> bool {
        match instr {
            Instr::Nop
            | Instr::I32ReinterpretF32
            | Instr::I64ReinterpretF64
            | Instr::F32ReinterpretI32
            | Instr::F64ReinterpretI64 => self.elided += 1,
            Instr::Block(bt) => {
                self.flush();
                self.elided += 1;
                self.open(pc, bt.arity(), false, false);
            }
            Instr::Loop(bt) => {
                self.flush();
                self.elided += 1;
                self.open(pc, bt.arity(), true, false);
            }
            Instr::If(bt) => {
                let branch_if_not = self.pop_cond(true);
                self.flush();
                // False edge: past the `else`, or past the `end` (which the
                // interpreter executes) when there is none.
                let m = self.meta[pc];
                let edge = if m.else_pc != u32::MAX {
                    self.edge_to(m.else_pc as usize + 1, 0)
                } else {
                    self.edge_to(m.end_pc as usize + 1, 1)
                };
                self.emit(branch_if_not(edge), 1);
                self.open(pc, bt.arity(), false, true);
            }
            Instr::Else => {
                // Live then-arm falls into `else`: put the result where the
                // join expects it and jump over the else-arm — past its
                // `end`, where the else-arm puts *its* result in place. The
                // interpreter executes the `Else` and the matching `End`
                // (2 fuel) on this edge.
                let f = self.frames.last_mut().expect("validated else inside if");
                f.then_fell = true;
                f.in_else = true;
                let (height, arity, end_pc) = (f.height as usize, f.arity, f.end_pc as usize);
                if arity == 1 {
                    self.materialise(height);
                }
                let edge = self.edge_to(end_pc + 1, 2);
                self.emit(Op::Jump { edge }, 0);
                self.stack.truncate(height);
            }
            Instr::End => {
                if let Some(f) = self.frames.pop() {
                    if f.arity == 1 {
                        self.materialise(f.height as usize);
                    }
                    self.elided += 1;
                } else {
                    // Function-level `end`: a real op (it costs 1 fuel and
                    // returns), and the terminator every fall-through walk
                    // lands on.
                    let ret = self.ret_op();
                    self.emit(ret, 1);
                    return false;
                }
            }
            Instr::Br(d) if self.rotate(pc, *d) => return false,
            Instr::Br(d) => {
                match self.dest(*d) {
                    Dest::Return => {
                        let ret = self.ret_op();
                        self.emit(ret, 1);
                    }
                    Dest::Label {
                        height,
                        carry,
                        cont,
                    } => {
                        if carry {
                            let pos = self.stack.len() - 1;
                            let dst = self.canon(height as usize);
                            if self.stack[pos] != Entry::Canon || pos != height as usize {
                                self.emit_move(dst, self.stack[pos], pos, 0);
                            }
                        }
                        let edge = self.edge_to(cont, 0);
                        self.emit(Op::Jump { edge }, 1);
                    }
                }
                return false;
            }
            Instr::BrIf(d) => {
                let branch_if = self.pop_cond(false);
                let edge = self.new_edge();
                self.branch_into(*d, edge);
                self.emit(branch_if(edge), 1);
            }
            Instr::BrTable(t) => {
                let idx = self.pop_reg();
                let first = self.edges.len() as u32;
                // Table edges must be consecutive: reserve them before any
                // trampoline takes an edge of its own.
                let n = t.targets.len() + 1;
                self.edges.resize(self.edges.len() + n, Edge::default());
                for (i, d) in t.targets.iter().chain([&t.default]).enumerate() {
                    self.branch_into(*d, first + i as u32);
                }
                self.emit(
                    Op::BrTable {
                        idx,
                        first,
                        len: t.targets.len() as u32,
                    },
                    1,
                );
                return false;
            }
            Instr::Return => {
                let ret = self.ret_op();
                self.emit(ret, 1);
                return false;
            }
            Instr::Unreachable => {
                self.emit(Op::Unreachable, 1);
                return false;
            }
            Instr::Call(idx) if self.inline(pc, *idx) => {}
            Instr::Call(idx) => {
                let ty = self.module.func_type(*idx).expect("validated call target");
                let (n_args, n_results) = (ty.params.len(), ty.results.len());
                let base = self.call_args(n_args, n_results);
                let n_imports = self.module.imports.len() as u32;
                let op = if *idx < n_imports {
                    Op::CallHost { import: *idx, base }
                } else {
                    Op::Call {
                        func: *idx - n_imports,
                        base,
                    }
                };
                self.emit(op, 1);
            }
            Instr::CallIndirect(type_idx) => {
                let ty = &self.module.types[*type_idx as usize];
                let (n_args, n_results) = (ty.params.len(), ty.results.len());
                let idx = self.pop_reg();
                let base = self.call_args(n_args, n_results);
                self.emit(
                    Op::CallIndirect {
                        type_idx: *type_idx,
                        idx,
                        base,
                    },
                    1,
                );
            }
            Instr::Drop => {
                self.pop();
                self.elided += 1;
            }
            Instr::Select => {
                let base = self.stack.len() - 3;
                for pos in base..base + 3 {
                    self.materialise(pos);
                }
                self.stack.truncate(base);
                let (dst, e) = self.dst_for(pc, base);
                self.emit(
                    Op::Select {
                        dst,
                        base: self.canon(base),
                    },
                    1,
                );
                self.push(e);
            }
            Instr::LocalGet(i) => {
                self.push(Entry::Local(*i));
                self.elided += 1;
            }
            Instr::LocalSet(c) => self.local_set(*c),
            Instr::LocalTee(c) => {
                self.local_set(*c);
                self.push(Entry::Local(*c));
            }
            Instr::GlobalGet(idx) => {
                let (dst, e) = self.dst_for(pc, self.stack.len());
                self.emit(Op::GlobalGet { dst, idx: *idx }, 1);
                self.push(e);
            }
            Instr::GlobalSet(idx) => {
                let src = self.pop_reg();
                self.emit(Op::GlobalSet { idx: *idx, src }, 1);
            }
            Instr::MemorySize => {
                let (dst, e) = self.dst_for(pc, self.stack.len());
                self.emit(Op::MemorySize { dst }, 1);
                self.push(e);
            }
            Instr::MemoryGrow => {
                let (e, pos) = self.pop();
                let delta = self.reg(e, pos);
                self.emit(
                    Op::MemoryGrow {
                        dst: self.canon(pos),
                        delta,
                    },
                    1,
                );
                self.push(Entry::Canon);
            }
            Instr::MemoryCopy => {
                let len = self.pop_reg();
                let src = self.pop_reg();
                let dst = self.pop_reg();
                self.emit(Op::MemoryCopy { dst, src, len }, 1);
            }
            Instr::MemoryFill => {
                let len = self.pop_reg();
                let val = self.pop_reg();
                let dst = self.pop_reg();
                self.emit(Op::MemoryFill { dst, val, len }, 1);
            }
            Instr::I32Const(v) => self.push_const(*v as u32 as u64, Some(*v)),
            Instr::I64Const(v) => self.push_const(*v as u64, i32::try_from(*v).ok()),
            Instr::F32Const(v) => self.push_const(v.to_bits() as u64, None),
            Instr::F64Const(v) => self.push_const(v.to_bits(), None),
            Instr::I32Eqz if matches!(self.stack.last(), Some(Entry::Cmp { .. })) => {
                let Some(Entry::Cmp { cmp, .. }) = self.stack.last_mut() else {
                    unreachable!("matched above")
                };
                *cmp = cmp.negated();
                self.elided += 1;
            }
            Instr::I32Eqz if self.feeds_branch(pc) => {
                let a = self.pop_reg();
                self.push(Entry::Cmp {
                    cmp: Cmp::I32Eq,
                    a,
                    b: Rhs::Imm(0),
                });
                self.elided += 1;
            }
            i if Cmp::of(i).is_some() && self.feeds_branch(pc) => {
                let cmp = Cmp::of(i).expect("checked by the guard");
                let b = self.pop_rhs(true);
                let a = self.pop_reg();
                self.push(Entry::Cmp { cmp, a, b });
                self.elided += 1;
            }
            Instr::I32Mul | Instr::I32Shl if self.index_scale(pc, instr).is_some() => {
                let shift = self.index_scale(pc, instr).expect("checked by the guard");
                self.pop();
                let b = self.pop_reg();
                self.push(Entry::Scaled(b, shift));
                self.elided += 1;
            }
            Instr::I32Add if self.sums_an_address(pc) => {
                let (b, shift) = match self.pop() {
                    (Entry::Scaled(b, shift), _) => (b, shift),
                    (e, pos) => (self.reg(e, pos), 0),
                };
                let a = self.pop_reg();
                self.push(Entry::Sum(a, b, shift));
                self.elided += 1;
            }
            i => {
                if let Some((rr, ri)) = bin_ctor(i) {
                    let b = self.pop_rhs(ri.is_some());
                    let (ea, pa) = self.pop();
                    let a = self.reg(ea, pa);
                    let (dst, e) = self.dst_for(pc, pa);
                    let op = match (b, ri) {
                        (Rhs::Reg(b), _) => rr(dst, a, b),
                        (Rhs::Imm(imm), Some(ri)) => ri(dst, a, imm),
                        (Rhs::Imm(_), None) => unreachable!("no immediate was asked for"),
                    };
                    self.emit(op, 1);
                    self.push(e);
                } else if let Some(mk) = un_ctor(i) {
                    let (ea, pa) = self.pop();
                    let a = self.reg(ea, pa);
                    let (dst, e) = self.dst_for(pc, pa);
                    self.emit(mk(dst, a), 1);
                    self.push(e);
                } else if let Some((mk, offset)) = load_ctor(i) {
                    let (ea, pa) = self.pop();
                    // Base + index is only ever set up for a full-width
                    // load (see `feeds_indexed_load`).
                    let addr = match ea {
                        Entry::Sum(a, b, shift) => Err((a, b, shift)),
                        e => Ok(self.reg(e, pa)),
                    };
                    let (dst, e) = self.dst_for(pc, pa);
                    let op = match (addr, indexed_load(i)) {
                        (Ok(addr), _) => mk(dst, addr, offset),
                        (Err((a, b, shift)), Some(true)) => Op::Load64X { dst, a, b, shift },
                        (Err((a, b, shift)), _) => Op::Load32X { dst, a, b, shift },
                    };
                    self.emit(op, 1);
                    self.push(e);
                } else if let Some((mk, offset)) = store_ctor(i) {
                    // Popping the value may materialise a constant over the
                    // index's slot, which computes a deferred address first.
                    let val = self.pop_reg();
                    let op = match (self.pop(), indexed_store(i)) {
                        ((Entry::Sum(a, b, shift), _), Some(true)) => {
                            Op::Store64X { a, b, val, shift }
                        }
                        ((Entry::Sum(a, b, shift), _), _) => Op::Store32X { a, b, val, shift },
                        ((e, pa), _) => mk(self.reg(e, pa), val, offset),
                    };
                    self.emit(op, 1);
                } else {
                    unreachable!("every instruction is lowered: {i:?}");
                }
            }
        }
        true
    }

    fn push_const(&mut self, bits: u64, imm: Option<i32>) {
        self.push(Entry::Const { bits, imm });
        self.elided += 1;
    }

    /// `local.set c`: after a producer that already wrote `c` (see
    /// [`Lowerer::dst_for`]) the value *is* the local and nothing is left to
    /// do; otherwise one move.
    fn local_set(&mut self, c: u32) {
        let (e, pos) = self.pop();
        if e == Entry::Local(c) {
            self.elided += 1;
        } else {
            self.spill_reads_of(c);
            self.emit_move(c, e, pos, 1);
        }
    }

    /// Whether the `i32.add` at `pc` only computes the address of a
    /// full-width, zero-offset access: the load right after it, or a store
    /// whose value the straight-line instructions in between compute
    /// without touching the address (see [`value_effect`]).
    fn feeds_indexed_access(&self, pc: usize) -> bool {
        if self.body.get(pc + 1).and_then(indexed_load).is_some() {
            return true;
        }
        // Operands the instructions after the add hold above its result.
        let mut above = 0;
        for i in self.body.iter().skip(pc + 1).take(MAX_STORE_VALUE + 1) {
            if above == 1 && indexed_store(i).is_some() {
                return true;
            }
            match value_effect(i) {
                Some((pops, pushes)) if pops <= above => above = above - pops + pushes,
                _ => return false,
            }
        }
        false
    }

    /// Whether the `i32.add` at `pc` becomes the address of a load or store
    /// after it: both addends in registers (the top one possibly scaled).
    fn sums_an_address(&self, pc: usize) -> bool {
        let n = self.stack.len();
        matches!(
            self.stack[n - 1],
            Entry::Canon | Entry::Local(_) | Entry::Scaled(..)
        ) && in_reg(&self.stack[n - 2])
            && self.feeds_indexed_access(pc)
    }

    /// The shift of an `i32.mul` by 4 or 8 (`i32.shl` by 2 or 3) at `pc`
    /// whose product only indexes the access the next `i32.add` addresses.
    fn index_scale(&self, pc: usize, instr: &Instr) -> Option<u8> {
        let n = self.stack.len();
        let shift = match (instr, self.stack.last()?) {
            (Instr::I32Mul, Entry::Const { imm: Some(4), .. })
            | (Instr::I32Shl, Entry::Const { imm: Some(2), .. }) => 2,
            (Instr::I32Mul, Entry::Const { imm: Some(8), .. })
            | (Instr::I32Shl, Entry::Const { imm: Some(3), .. }) => 3,
            _ => return None,
        };
        (n >= 3
            && in_reg(&self.stack[n - 2])
            && in_reg(&self.stack[n - 3])
            && matches!(self.body.get(pc + 1), Some(Instr::I32Add))
            && self.feeds_indexed_access(pc + 1))
        .then_some(shift)
    }

    /// Materialise a call's outgoing arguments, pop them and push its
    /// results; returns the frame index the callee's frame starts at.
    fn call_args(&mut self, n_args: usize, n_results: usize) -> u32 {
        let base = self.stack.len() - n_args;
        for pos in base..base + n_args {
            self.materialise(pos);
        }
        self.stack.truncate(base);
        for _ in 0..n_results {
            self.push(Entry::Canon);
        }
        self.canon(base)
    }

    // ── Bottom-tested loops ────────────────────────────────────────────

    /// The `br` at `pc` back to loop `d`, bottom-tested: when the loop's
    /// header is one basic block of at most [`MAX_HEADER_OPS`] ops ending in
    /// a conditional branch along a plain edge, emit a copy of the header
    /// whose branch is inverted — taken into the body, falling through to
    /// where the header's branch goes — and return true. Each iteration
    /// then dispatches one branch instead of a `Jump` and the header.
    ///
    /// The copy stands for what the interpreter executes: the `br`, the
    /// op-less instructions from the loop opener to the header (the
    /// back-edge walk) and the header itself, so its first op carries all
    /// their units. Its taken edge pays what the header's own fall-through
    /// pays; its fall-through is settled by [`Lowerer::settle_exit`].
    fn rotate(&mut self, pc: usize, d: u32) -> bool {
        let Some(fi) = self.frames.len().checked_sub(1 + d as usize) else {
            return false;
        };
        if !self.frames[fi].is_loop {
            return false;
        }
        let mut head = self.frames[fi].cont_orig as usize;
        let mut walked = 0;
        while head < pc && self.flat_of[head] == u32::MAX {
            walked += 1;
            head += 1;
        }
        if head == pc {
            return false;
        }
        let first = self.flat_of[head] as usize;
        let Some(last) = (first..self.ops.len())
            .take(MAX_HEADER_OPS)
            .find(|&j| self.ops[j].op.is_terminator())
        else {
            return false;
        };
        let Some(exit) = self.ops[last]
            .op
            .cond_edge()
            .and_then(|edge| self.fixups.iter().rev().find(|fx| fx.edge == edge))
            .copied()
        else {
            return false;
        };
        for j in first..=last {
            let p = self.ops[j];
            let cost = if j == first {
                1 + walked + p.cost
            } else {
                p.pre + p.cost
            };
            if j < last {
                self.emit(p.op, cost);
            } else {
                let into_body = self.new_edge();
                let op = p.op.inverted(into_body).expect("a conditional branch");
                self.emit(op, cost);
                self.edges[into_body as usize] = Edge {
                    target: last as u32 + 1,
                    extra: self.ops[last + 1].pre,
                    ..Edge::default()
                };
            }
        }
        self.exit = Some(exit);
        true
    }

    /// Liveness resumes after a bottom-tested loop's back-edge, at
    /// `resume` (`None`: at an else-arm, or never). The copied header
    /// falls through to the header branch's target only when that is where
    /// liveness resumes, with no fuel of its own on the way; otherwise it
    /// falls into a `Jump` there.
    fn settle_exit(&mut self, resume: Option<usize>) {
        if let Some(exit) = self.exit.take() {
            if resume != Some(exit.start) || exit.bias != 0 {
                let edge = self.edge_to(exit.start, exit.bias);
                self.emit(Op::Jump { edge }, 0);
            }
        }
    }

    // ── Inlined leaf calls ─────────────────────────────────────────────

    /// The `call` at `pc` of guest function `idx`, inlined when its body is
    /// [`inlinable`]; returns whether it was.
    ///
    /// Each parameter binds to the caller's entry for its argument — a
    /// local read in place, or the argument's canonical slot — unless the
    /// body writes it, and the callee's other frame indices sit where its
    /// frame would have started. A [`Op::DepthGuard`] carrying the call's
    /// unit traps where the call would have; the body's ops carry their
    /// units (the entry walk on the first) and the return's units ride the
    /// next op, as an op-less instruction's would. The body's last op
    /// writes the result where the caller's `local.set` wants it.
    fn inline(&mut self, pc: usize, idx: u32) -> bool {
        let leaves = self.leaves;
        let Some(leaf) = idx
            .checked_sub(self.module.imports.len() as u32)
            .and_then(|f| leaves.get(f as usize)?.as_ref())
        else {
            return false;
        };
        let (ret, body) = leaf.ops.split_last().expect("inlinable");
        let n_params = leaf.n_params as usize;
        let base = self.stack.len() - n_params;
        let frame = self.canon(base);
        let mut own = vec![false; n_params];
        for op in body {
            if let Some(d) = op.written().filter(|&d| (d as usize) < n_params) {
                own[d as usize] = true;
            }
        }
        let mut bound = Vec::with_capacity(n_params);
        for (j, own) in own.into_iter().enumerate() {
            bound.push(match self.stack[base + j] {
                Entry::Local(i) if !own => i,
                _ => {
                    self.materialise(base + j);
                    frame + j as u32
                }
            });
        }
        self.stack.truncate(base);
        self.max_height = self.max_height.max(base as u32 + leaf.frame_size);
        let map = |j: u32| bound.get(j as usize).copied().unwrap_or(frame + j);
        let result = match *ret {
            Op::Ret { src } => Some((src, self.dst_for(pc, base))),
            _ => None,
        };
        // The body's last op writes the result straight to its destination
        // when it computes it; otherwise one move after the body.
        let last_writes = result
            .filter(|&(src, _)| body.last().and_then(|op| op.written()) == Some(src))
            .map(|(_, (dst, _))| dst);
        self.emit(Op::DepthGuard, 1);
        for (j, op) in body.iter().enumerate() {
            let into = last_writes.filter(|_| j + 1 == body.len());
            let op = op
                .remap(|d| into.unwrap_or_else(|| map(d)), map)
                .expect("inlinable");
            let entry_walk = if j == 0 { leaf.entry_pre() } else { 0 };
            self.emit(op, leaf.fuel[j].cost + entry_walk);
        }
        if let Some((src, (dst, e))) = result {
            if last_writes.is_none() && map(src) != dst {
                self.emit(Op::Mov { dst, src: map(src) }, 0);
            }
            self.push(e);
        }
        let ret_fuel = leaf.fuel[body.len()];
        self.elided += ret_fuel.cost + if body.is_empty() { ret_fuel.pre } else { 0 };
        true
    }

    // ── Resolution and fuel blocks ─────────────────────────────────────

    /// Walk forward from an original pc over op-less instructions until a
    /// position that emitted an op, counting the fuel the interpreter would
    /// charge along the way. Every walk starts on a live edge, so it must
    /// land on a live op.
    fn walk(&self, mut p: usize) -> (u32, u32) {
        let mut extra: u32 = 0;
        loop {
            debug_assert!(p < self.body.len(), "walks terminate at the function Ret");
            if self.flat_of[p] != u32::MAX {
                return (self.flat_of[p], extra);
            }
            debug_assert!(
                !matches!(self.body[p], Instr::Else),
                "a live `else` always emits its jump"
            );
            extra += 1;
            p += 1;
        }
    }

    /// Passes 2 and 3: append the trampolines, resolve every edge, split
    /// into basic blocks and attach the bulk-fuel metadata.
    fn finish(mut self) -> LoweredFunc {
        for t in std::mem::take(&mut self.trampolines) {
            self.edges[t.edge_in as usize].target = self.ops.len() as u32;
            for op in t.mov.into_iter().chain([t.exit]) {
                self.ops.push(PreOp {
                    op,
                    cost: 0,
                    pre: 0,
                });
            }
        }
        for fx in &self.fixups {
            let (target, walked) = self.walk(fx.start);
            let e = &mut self.edges[fx.edge as usize];
            e.target = target;
            e.extra = fx.bias + walked;
        }

        let n = self.ops.len();
        let mut leader = vec![false; n];
        leader[0] = true;
        for (i, p) in self.ops.iter().enumerate() {
            if p.op.is_terminator() && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        for e in &self.edges {
            leader[e.target as usize] = true;
        }

        let mut ops: Vec<Op> = self.ops.iter().map(|p| p.op).collect();
        let mut fuel: Vec<OpFuel> = self
            .ops
            .iter()
            .zip(&leader)
            .map(|(p, leads)| {
                // Non-leaders can only be reached linearly: fold their edge
                // fuel into their cost.
                if *leads {
                    OpFuel {
                        cost: p.cost,
                        pre: p.pre,
                        ..OpFuel::default()
                    }
                } else {
                    OpFuel {
                        cost: p.cost + p.pre,
                        ..OpFuel::default()
                    }
                }
            })
            .collect();

        // Per block, last to first (a block that falls straight through
        // prepays its successor): bulk charge on the leader, un-executed
        // remainder per op.
        let mut e = n;
        while e > 0 {
            let mut s = e - 1;
            while !leader[s] {
                s -= 1;
            }
            let falls_through = !ops[e - 1].is_terminator() && e < n;
            let mut run = if falls_through {
                fuel[e].pre + fuel[e].charge
            } else {
                0
            };
            for i in (s..e).rev() {
                fuel[i].rest = if ops[i].is_terminator() { 0 } else { run };
                run += fuel[i].cost;
            }
            fuel[s].charge = run;
            e = s;
        }

        let mut edges = self.edges;
        for e in &mut edges {
            e.bulk = e.extra + fuel[e.target as usize].charge;
        }
        for (i, op) in ops.iter().enumerate() {
            if let Some(edge) = op.cond_edge() {
                edges[edge as usize].fall = fuel[i + 1].pre + fuel[i + 1].charge;
            }
        }
        fuse_back_edges(&mut ops);

        LoweredFunc {
            entry_bulk: fuel[0].pre + fuel[0].charge,
            ops,
            fuel,
            edges,
            n_params: self.n_params,
            n_locals: self.n_locals,
            frame_size: self.n_locals + self.max_height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemArg;
    use crate::module::ModuleBuilder;
    use crate::object::ObjectModule;
    use crate::types::{BlockType, FuncType, ValType};
    use Instr::*;

    fn lower_body(params: Vec<ValType>, results: Vec<ValType>, body: Vec<Instr>) -> LoweredFunc {
        let mut b = ModuleBuilder::new();
        b.memory(1, 2);
        let sig = b.sig(FuncType::new(params, results));
        b.func(sig, vec![], body);
        let m = b.build();
        let obj = ObjectModule::prepare(m).unwrap();
        lower_module(&obj.module, &obj.ctrl).remove(0)
    }

    fn i32s(n: usize) -> Vec<ValType> {
        vec![ValType::I32; n]
    }

    #[test]
    fn minimal_body_lowers_to_ret() {
        let lf = lower_body(vec![], vec![], vec![End]);
        assert_eq!(lf.ops, [Op::RetVoid]);
        assert_eq!(lf.fuel[0].cost, 1);
        assert_eq!(lf.fuel[0].charge, 1);
        assert_eq!((lf.entry_pre(), lf.entry_bulk), (0, 1));
        assert_eq!(lf.frame_size, 0);
    }

    #[test]
    fn structural_ops_disappear_with_fuel_accounted() {
        // block; nop; end; end → one RetVoid carrying 3 op-less units as pre.
        let lf = lower_body(vec![], vec![], vec![Block(BlockType::Empty), Nop, End, End]);
        assert_eq!(lf.ops, [Op::RetVoid]);
        assert_eq!(lf.entry_pre(), 3, "block + nop + end on the entry edge");
        assert_eq!(lf.fuel[0].cost, 1);
        assert_eq!(lf.entry_bulk, 4);
    }

    #[test]
    fn operands_are_resolved_at_lowering_time() {
        // (a + b) * 5 - c: no local.get, const or stack traffic survives.
        let lf = lower_body(
            i32s(3),
            i32s(1),
            vec![
                LocalGet(0),
                LocalGet(1),
                I32Add,
                I32Const(5),
                I32Mul,
                LocalGet(2),
                I32Sub,
                End,
            ],
        );
        // Operand slot 0 is frame index 3.
        assert_eq!(
            lf.ops,
            [
                Op::I32Add { dst: 3, a: 0, b: 1 },
                Op::I32MulI {
                    dst: 3,
                    a: 3,
                    imm: 5
                },
                Op::I32Sub { dst: 3, a: 3, b: 2 },
                Op::Ret { src: 3 },
            ]
        );
        assert_eq!((lf.n_params, lf.n_locals, lf.frame_size), (3, 3, 5));
        // A deferred instruction's unit rides the next op emitted at or
        // after it — never its consumer's successor: 3 + 2 + 2 + 1.
        let costs: Vec<u32> = lf.fuel.iter().map(|f| f.cost).collect();
        assert_eq!(lf.entry_pre(), 2, "both local.gets precede the first op");
        assert_eq!(costs, [1, 2, 2, 1]);
        assert_eq!(lf.entry_bulk, 8);
    }

    #[test]
    fn loop_back_edge_skips_the_opener() {
        // local 0 counts down to 0.
        // 0: loop
        // 1:   local.get 0
        // 2:   i32.const 1
        // 3:   i32.sub
        // 4:   local.set 0
        // 5:   local.get 0
        // 6:   br_if 0
        // 7: end
        // 8: end
        let lf = lower_body(
            i32s(1),
            vec![],
            vec![
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(1),
                I32Sub,
                LocalSet(0),
                LocalGet(0),
                BrIf(0),
                End,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::I32SubI {
                    dst: 0,
                    a: 0,
                    imm: 1
                },
                Op::BrNz { cond: 0, edge: 0 },
                Op::RetVoid,
            ]
        );
        assert_eq!(lf.entry_pre(), 3, "the Loop opener + local.get + const");
        // The back-edge re-enters at the subtraction without the opener's
        // fuel, paying for the two deferred operands it walks over.
        let back = lf.edges[0];
        assert_eq!(back.target, 0);
        assert_eq!(back.extra, 2, "local.get + const, not the Loop");
        // Loop block: sub (1) + [set, get] + br_if (3) = 4 past the edge.
        assert_eq!(lf.fuel[0].charge, 4);
        assert_eq!(back.bulk, 6);
        assert_eq!(back.fall, 2, "falling out executes the loop End, then Ret");
    }

    #[test]
    fn while_shape_is_bottom_tested() {
        // The faasm-lang while shape:
        // block; loop; local.get 0; i32.const 10; i32.lt_s; i32.eqz;
        // br_if 1; local.get 0; i32.const 1; i32.add; local.set 0;
        // br 0; end; end; end
        let lf = lower_body(
            i32s(1),
            vec![],
            vec![
                Block(BlockType::Empty),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(10),
                I32LtS,
                I32Eqz,
                BrIf(1),
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalSet(0),
                Br(0),
                End,
                End,
                End,
            ],
        );
        // `!(x < 10)` is `x >= 10`: one compare-and-branch, no eqz. The
        // back-edge is a copy of that header, inverted: taken back into the
        // body, falling through to the loop exit. The increment before it
        // is fused with it, and the branch stays for metered mode.
        assert_eq!(
            lf.ops,
            [
                Op::BrGeSI {
                    a: 0,
                    imm: 10,
                    edge: 0
                },
                Op::IncBrLtSI {
                    a: 0,
                    imm: 10,
                    edge: 1,
                    step: 1
                },
                Op::BrLtSI {
                    a: 0,
                    imm: 10,
                    edge: 1
                },
                Op::RetVoid,
            ]
        );
        let exit = lf.edges[0];
        assert_eq!(exit.target, 3, "exit lands on the return");
        // The branch jumps past both `end`s — the interpreter never
        // executes them on this edge.
        assert_eq!(exit.extra, 0);
        assert_eq!(
            lf.entry_pre(),
            6,
            "block + loop + the four absorbed instructions"
        );
        assert_eq!(lf.fuel[0].cost, 1, "the br_if itself");
        assert_eq!(lf.fuel[0].charge, 1, "a conditional ends its block");
        assert_eq!(
            lf.fuel[2].cost,
            1 + 1 + 4 + 1,
            "set, then the br, the back-edge walk and the header's br_if"
        );
        let back = lf.edges[1];
        assert_eq!(back.target, 1, "into the body, past the header");
        assert_eq!(back.extra, 2, "get + const, as the header's fall-through");
        // The body block: get + const on the edge in, add (1), set + br +
        // header (7) — one iteration of the interpreter, 10 units.
        assert_eq!(lf.fuel[1].charge, 8);
        assert_eq!((exit.fall, back.bulk), (10, 10));
        assert_eq!(back.fall, 1, "out of the loop: the return");
    }

    #[test]
    fn if_else_joins_on_the_canonical_slot() {
        // 0: local.get 0
        // 1: if (i32)
        // 2:   i32.const 1
        // 3: else
        // 4:   i32.const 2
        // 5: end
        // 6: end
        let lf = lower_body(
            i32s(1),
            i32s(1),
            vec![
                LocalGet(0),
                If(BlockType::Value(ValType::I32)),
                I32Const(1),
                Else,
                I32Const(2),
                End,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::BrZ { cond: 0, edge: 0 },
                Op::Const { dst: 1, imm: 1 },
                Op::Jump { edge: 1 },
                Op::Const { dst: 1, imm: 2 },
                Op::Ret { src: 1 },
            ]
        );
        assert_eq!(lf.edges[0].target, 3, "false edge lands on the else-arm");
        assert_eq!(lf.edges[0].extra, 1, "… walking over its deferred const");
        // The then-arm jumps past the else-arm *and* its materialisation.
        assert_eq!(lf.edges[1].target, 4);
        assert_eq!(lf.edges[1].extra, 2, "executes Else and End");
        assert_eq!(lf.fuel[1].cost, 0, "a materialisation is free …");
        assert_eq!(lf.fuel[1].pre, 1, "… but carries the deferred const");
        assert_eq!(lf.fuel[2].cost, 0, "synthetic jump; Else is edge fuel");
        assert_eq!(lf.fuel[3].pre, 1, "the else-arm's const");
        assert_eq!(lf.fuel[4].pre, 1, "the if End before the function end");
    }

    #[test]
    fn else_skip_fuel_matches_the_interpreter() {
        // if/else without a result: then-arm pays Else + End on its jump;
        // the false edge of an else-less `if` pays the End it lands on.
        let lf = lower_body(
            i32s(1),
            vec![],
            vec![
                LocalGet(0),
                If(BlockType::Empty),
                Nop,
                Else,
                Nop,
                End,
                LocalGet(0),
                If(BlockType::Empty),
                Nop,
                End,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::BrZ { cond: 0, edge: 0 },
                Op::Jump { edge: 1 },
                Op::BrZ { cond: 0, edge: 2 },
                Op::RetVoid,
            ]
        );
        assert_eq!(lf.fuel[1].pre, 1, "then-arm nop");
        assert_eq!(
            (lf.edges[1].target, lf.edges[1].extra),
            (2, 3),
            "Else + End + get"
        );
        assert_eq!(
            (lf.edges[0].target, lf.edges[0].extra),
            (2, 3),
            "nop + End + get"
        );
        assert_eq!(
            (lf.edges[2].target, lf.edges[2].extra),
            (3, 1),
            "the if's End"
        );
        assert_eq!(lf.edges[2].fall, 3, "nop + End, then the Ret");
    }

    #[test]
    fn dead_code_is_not_emitted() {
        // 0: block
        // 1:   br 0
        // 2:   i32.const 7   (dead)
        // 3:   drop          (dead)
        // 4: end
        // 5: end
        let lf = lower_body(
            vec![],
            vec![],
            vec![Block(BlockType::Empty), Br(0), I32Const(7), Drop, End, End],
        );
        assert_eq!(lf.ops, [Op::Jump { edge: 0 }, Op::RetVoid]);
        // The branch continuation is the function End itself (a real op),
        // so no op-less fuel rides the edge.
        assert_eq!((lf.edges[0].target, lf.edges[0].extra), (1, 0));
        assert_eq!(lf.frame_size, 0, "dead pushes reserve no slots");
    }

    #[test]
    fn a_branch_target_sees_a_canonical_stack() {
        // The br_if carries local 0 out of the block; the fall-through path
        // carries local 2. Both must be in operand slot 0 at the join.
        // 0: block (i32)
        // 1:   local.get 0   ; carried value
        // 2:   local.get 1   ; condition
        // 3:   br_if 0       ; exits to pc 7
        // 4:   drop
        // 5:   local.get 2
        // 6: end
        // 7: i32.const 1     ; branch target
        // 8: i32.add
        // 9: drop
        // 10: end
        let lf = lower_body(
            i32s(3),
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)),
                LocalGet(0),
                LocalGet(1),
                BrIf(0),
                Drop,
                LocalGet(2),
                End,
                I32Const(1),
                I32Add,
                Drop,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Mov { dst: 3, src: 0 },
                Op::BrNz { cond: 1, edge: 0 },
                Op::Mov { dst: 3, src: 2 },
                Op::I32AddI {
                    dst: 3,
                    a: 3,
                    imm: 1
                },
                Op::RetVoid,
            ]
        );
        assert_eq!(lf.edges[0].target, 3, "past the fall-through path's move");
        assert_eq!(lf.edges[0].extra, 1, "the deferred const");
        assert_eq!(lf.fuel[3].pre, 2, "fall-through: End + const");
    }

    #[test]
    fn a_displaced_carry_goes_through_a_trampoline() {
        // The carried value sits above another operand, so only the taken
        // edge may move it down.
        // block (i32); local.get 0; local.get 1; local.get 2; br_if 0;
        // i32.add; end; drop; end
        let lf = lower_body(
            i32s(3),
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)),
                LocalGet(0),
                LocalGet(1),
                LocalGet(2),
                BrIf(0),
                I32Add,
                End,
                Drop,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Mov { dst: 4, src: 1 },
                Op::BrNz { cond: 2, edge: 0 },
                Op::I32Add { dst: 3, a: 0, b: 4 },
                Op::RetVoid,
                // Trampoline: move the carry to the label's slot, go on.
                Op::Mov { dst: 3, src: 4 },
                Op::Jump { edge: 1 },
            ]
        );
        // Not taken: the add, then (falling through) Drop + End + the Ret.
        assert_eq!(
            lf.edges[0],
            Edge {
                target: 4,
                extra: 0,
                bulk: 0,
                fall: 4
            }
        );
        assert_eq!((lf.edges[1].target, lf.edges[1].extra), (3, 1), "the Drop");
        assert_eq!(lf.fuel[4], OpFuel::default(), "trampolines cost nothing");
    }

    #[test]
    fn a_local_write_spills_pending_reads_of_it() {
        // local.get 0; local.get 0; i32.const 1; i32.add; local.set 0;
        // i32.add — the first read must see the old value.
        let lf = lower_body(
            i32s(1),
            i32s(1),
            vec![
                LocalGet(0),
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalSet(0),
                LocalGet(0),
                I32Add,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Mov { dst: 1, src: 0 },
                Op::I32AddI {
                    dst: 0,
                    a: 0,
                    imm: 1
                },
                Op::I32Add { dst: 1, a: 1, b: 0 },
                Op::Ret { src: 1 },
            ]
        );
        // A producer that wrote the local leaves `local.set` op-less; its
        // unit moves to the next op, not onto the (possibly trapping) add.
        let costs: Vec<u32> = lf.fuel.iter().map(|f| f.cost).collect();
        assert_eq!(lf.entry_pre(), 3);
        assert_eq!(costs, [0, 1, 3, 1]);
    }

    #[test]
    fn tee_leaves_a_deferred_read_of_the_local() {
        // local.get 0; i32.const 3; i32.mul; local.tee 1; local.get 1;
        // i32.add
        let lf = lower_body(
            i32s(2),
            i32s(1),
            vec![
                LocalGet(0),
                I32Const(3),
                I32Mul,
                LocalTee(1),
                LocalGet(1),
                I32Add,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::I32MulI {
                    dst: 1,
                    a: 0,
                    imm: 3
                },
                Op::I32Add { dst: 2, a: 1, b: 1 },
                Op::Ret { src: 2 },
            ]
        );
    }

    #[test]
    fn loads_read_locals_in_place_and_only_full_width_ones_index() {
        let lf = lower_body(
            i32s(2),
            i32s(1),
            vec![
                LocalGet(0),
                I32Load(MemArg::at(8)),
                LocalGet(0),
                I32Load8U(MemArg::zero()),
                I32Add,
                LocalGet(0),
                LocalGet(1),
                I32Add,
                I32Load(MemArg::zero()),
                I32Add,
                LocalGet(0),
                LocalGet(1),
                I32Add,
                I32Load16U(MemArg::zero()),
                I32Add,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Load32 {
                    dst: 2,
                    addr: 0,
                    offset: 8
                },
                Op::Load8U {
                    dst: 3,
                    addr: 0,
                    offset: 0
                },
                Op::I32Add { dst: 2, a: 2, b: 3 },
                // i32.add + full-width zero-offset load: base + index.
                Op::Load32X {
                    dst: 3,
                    a: 0,
                    b: 1,
                    shift: 0
                },
                Op::I32Add { dst: 2, a: 2, b: 3 },
                // A narrow load keeps its add.
                Op::I32Add { dst: 3, a: 0, b: 1 },
                Op::Load16U {
                    dst: 3,
                    addr: 3,
                    offset: 0
                },
                Op::I32Add { dst: 2, a: 2, b: 3 },
                Op::Ret { src: 2 },
            ]
        );
        assert_eq!(lf.fuel[3].cost, 4, "get, get, add, load");
    }

    #[test]
    fn call_arguments_are_materialised_where_the_callee_starts() {
        let mut b = ModuleBuilder::new();
        let t2 = b.sig(FuncType::new(i32s(2), i32s(1)));
        // Two basic blocks, so the call stays a call.
        let leaf = b.func(
            t2,
            vec![],
            vec![LocalGet(0), LocalGet(1), I32Add, LocalGet(1), BrIf(0), End],
        );
        b.func(
            t2,
            i32s(1),
            vec![
                LocalGet(1),
                LocalGet(0),
                I32Const(9),
                Call(leaf),
                I32Add,
                LocalSet(2),
                LocalGet(2),
                End,
            ],
        );
        let obj = ObjectModule::prepare(b.build()).unwrap();
        let lf = lower_module(&obj.module, &obj.ctrl).remove(1);
        assert_eq!(
            lf.ops,
            [
                // local 1 stays deferred across the call: the callee cannot
                // touch the caller's locals.
                Op::Mov { dst: 4, src: 0 },
                Op::Const { dst: 5, imm: 9 },
                Op::Call { func: 0, base: 4 },
                Op::I32Add { dst: 2, a: 1, b: 4 },
                Op::Ret { src: 2 },
            ]
        );
        assert_eq!((lf.n_params, lf.n_locals, lf.frame_size), (2, 3, 6));
        assert_eq!(lf.entry_pre(), 3, "the three deferred operands");
        assert_eq!(lf.fuel[0].charge, 1, "the call ends the entry block");
        assert_eq!(lf.fuel[3].charge, 4, "add, set, get, end after the call");
    }

    #[test]
    fn straight_line_leaves_are_inlined() {
        let mut b = ModuleBuilder::new();
        let t2 = b.sig(FuncType::new(i32s(2), i32s(1)));
        let t1 = b.sig(FuncType::new(i32s(1), i32s(1)));
        // add1(a, b) = a + b + 1
        let add1 = b.func(
            t2,
            vec![],
            vec![LocalGet(0), LocalGet(1), I32Add, I32Const(1), I32Add, End],
        );
        // inc(a) = (a = a + 1): writes its parameter.
        let inc = b.func(
            t1,
            vec![],
            vec![
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalSet(0),
                LocalGet(0),
                End,
            ],
        );
        // local 2 = add1(y, 9); return inc(x) + x
        b.func(
            t2,
            i32s(1),
            vec![
                LocalGet(1),
                I32Const(9),
                Call(add1),
                LocalSet(2),
                LocalGet(0),
                Call(inc),
                LocalGet(0),
                I32Add,
                End,
            ],
        );
        let obj = ObjectModule::prepare(b.build()).unwrap();
        let lf = lower_module(&obj.module, &obj.ctrl).remove(2);
        assert_eq!(
            lf.ops,
            [
                // The constant argument needs a slot; `y` is read in place
                // and the sum lands in local 2, where the `local.set` wants
                // it. The callee's operand slot 0 is caller frame index 5.
                Op::Const { dst: 4, imm: 9 },
                Op::DepthGuard,
                Op::I32Add { dst: 5, a: 1, b: 4 },
                Op::I32AddI {
                    dst: 2,
                    a: 5,
                    imm: 1
                },
                // `inc` writes its parameter: `x` is copied to the
                // argument's own slot, which the caller's `x` never sees.
                Op::Mov { dst: 3, src: 0 },
                Op::DepthGuard,
                Op::I32AddI {
                    dst: 3,
                    a: 3,
                    imm: 1
                },
                Op::I32Add { dst: 3, a: 3, b: 0 },
                Op::Ret { src: 3 },
            ]
        );
        assert_eq!(lf.frame_size, 3 + 4, "room for add1's frame");
        let costs: Vec<u32> = lf.fuel.iter().map(|f| f.cost).collect();
        // get + const ride the first op; the guard is the call; the first
        // body op carries the callee's entry walk (get, get); add1's return,
        // the `local.set` and the `local.get` ride the next op, and inc's
        // return (set, get, end) rides the add after it.
        assert_eq!(lf.entry_pre(), 2);
        assert_eq!(costs, [0, 1, 3, 2, 3, 1, 3, 5, 1]);
        // One block: exactly the interpreter's units, the callees' included.
        assert_eq!(lf.entry_bulk, 3 + 6 + 1 + 2 + 6 + 3);
    }

    #[test]
    fn scaled_indices_fold_into_full_width_loads() {
        // return p[i] (i32) + wrap(q[i]) (i64, the index shifted by 3)
        let lf = lower_body(
            i32s(2),
            i32s(1),
            vec![
                LocalGet(0),
                LocalGet(1),
                I32Const(4),
                I32Mul,
                I32Add,
                I32Load(MemArg::zero()),
                LocalGet(0),
                LocalGet(1),
                I32Const(3),
                I32Shl,
                I32Add,
                I64Load(MemArg::zero()),
                I32WrapI64,
                I32Add,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Load32X {
                    dst: 2,
                    a: 0,
                    b: 1,
                    shift: 2
                },
                Op::Load64X {
                    dst: 3,
                    a: 0,
                    b: 1,
                    shift: 3
                },
                Op::I32WrapI64 { dst: 3, a: 3 },
                Op::I32Add { dst: 2, a: 2, b: 3 },
                Op::Ret { src: 2 },
            ]
        );
        let costs: Vec<u32> = lf.fuel.iter().map(|f| f.cost).collect();
        // Each deferred get, const, mul, shl and add rides the load after
        // it; the first load's are the entry walk.
        assert_eq!(costs, [1, 6, 1, 1, 1]);
        assert_eq!(lf.entry_pre(), 5);
    }

    #[test]
    fn scaled_stores_fold_their_address_unless_the_value_overwrites_it() {
        // p[i] = v; p[i & 7] = (i & 7) + v; p[i] = (i = i + 1)
        let store = |index: Vec<Instr>, value: Vec<Instr>| {
            let mut v = vec![LocalGet(0)];
            v.extend(index);
            v.extend([I32Const(4), I32Mul, I32Add]);
            v.extend(value);
            v.push(I32Store(MemArg::zero()));
            v
        };
        let mut body = store(vec![LocalGet(1)], vec![LocalGet(2)]);
        body.extend(store(
            vec![LocalGet(1), I32Const(7), I32And],
            vec![LocalGet(1), I32Const(7), I32And, LocalGet(2), I32Add],
        ));
        body.extend(store(
            vec![LocalGet(1)],
            vec![LocalGet(1), I32Const(1), I32Add, LocalTee(1)],
        ));
        body.push(End);
        let lf = lower_body(i32s(3), vec![], body);
        assert_eq!(
            lf.ops,
            [
                // A local index and a local value: one op.
                Op::Store32X {
                    a: 0,
                    b: 1,
                    val: 2,
                    shift: 2
                },
                // The value is computed into the index's operand slot (4),
                // so the address goes to its own slot (3) first.
                Op::I32AndI {
                    dst: 4,
                    a: 1,
                    imm: 7
                },
                Op::I32AddX {
                    dst: 3,
                    a: 0,
                    b: 4,
                    shift: 2
                },
                Op::I32AndI {
                    dst: 4,
                    a: 1,
                    imm: 7
                },
                Op::I32Add { dst: 4, a: 4, b: 2 },
                Op::Store32 {
                    addr: 3,
                    val: 4,
                    offset: 0
                },
                // The value writes the index local: the address reads the
                // old index first.
                Op::I32AddX {
                    dst: 3,
                    a: 0,
                    b: 1,
                    shift: 2
                },
                Op::I32AddI {
                    dst: 1,
                    a: 1,
                    imm: 1
                },
                Op::Store32 {
                    addr: 3,
                    val: 1,
                    offset: 0
                },
                Op::RetVoid,
            ]
        );
        let costs: Vec<u32> = lf.fuel.iter().map(|f| f.cost).collect();
        // Every source instruction is carried once: the deferred multiply
        // and add ride the next op, an address computed early is free.
        assert_eq!(lf.entry_pre(), 6, "get, get, const, mul, add, get");
        assert_eq!(costs, [1, 4, 5, 1, 2, 1, 7, 1, 2, 1]);
        assert_eq!(lf.entry_bulk, 31, "one unit per source instruction");
    }

    #[test]
    fn a_decrement_fuses_as_a_negative_step() {
        // while (i < n) { i = i - 3 }, with n in local 0 and i in local 1.
        let lf = lower_body(
            i32s(2),
            vec![],
            vec![
                Block(BlockType::Empty),
                Loop(BlockType::Empty),
                LocalGet(1),
                LocalGet(0),
                I32LtS,
                I32Eqz,
                BrIf(1),
                LocalGet(1),
                I32Const(3),
                I32Sub,
                LocalSet(1),
                Br(0),
                End,
                End,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::BrGeS {
                    a: 1,
                    b: 0,
                    edge: 0
                },
                Op::IncBrLtS {
                    a: 1,
                    b: 0,
                    edge: 1,
                    step: -3
                },
                Op::BrLtS {
                    a: 1,
                    b: 0,
                    edge: 1
                },
                Op::RetVoid,
            ]
        );
    }

    #[test]
    fn block_charges_sum_member_costs() {
        // Straight-line: const, const, add, drop, end
        let lf = lower_body(
            vec![],
            vec![],
            vec![I32Const(1), I32Const(2), I32Add, Drop, End],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Const { dst: 0, imm: 1 },
                Op::I32AddI {
                    dst: 0,
                    a: 0,
                    imm: 2
                },
                Op::RetVoid,
            ]
        );
        let total: u32 = lf.fuel.iter().map(|f| f.cost + f.pre).sum();
        assert_eq!(total, 5);
        assert_eq!(lf.entry_bulk, 5, "the entry edge charges everything");
        assert!(lf.fuel[1..].iter().all(|f| f.charge == 0));
        // rest decreases to zero along the block.
        assert_eq!(lf.fuel[0].rest, lf.fuel[0].charge - lf.fuel[0].cost);
        assert_eq!(lf.fuel.last().unwrap().rest, 0, "Ret is a terminator");
    }

    #[test]
    fn a_block_that_falls_through_prepays_its_successor() {
        // The loop head is a branch target reached first by falling in.
        // i32.const 0; local.set 0; loop; local.get 0; br_if 0; end; end
        let lf = lower_body(
            i32s(1),
            vec![],
            vec![
                I32Const(0),
                LocalSet(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                BrIf(0),
                End,
                End,
            ],
        );
        assert_eq!(
            lf.ops,
            [
                Op::Const { dst: 0, imm: 0 },
                Op::BrNz { cond: 0, edge: 0 },
                Op::RetVoid,
            ]
        );
        assert_eq!(lf.fuel[1].pre, 2, "loop + local.get on the way in");
        assert_eq!(lf.fuel[1].charge, 1);
        assert_eq!(
            lf.fuel[0].charge,
            1 + 2 + 1,
            "own cost, then pre + charge of the head"
        );
        assert_eq!(lf.entry_bulk, 5);
        assert_eq!(
            lf.fuel[0].rest, 3,
            "a trap in the first block refunds the prepayment"
        );
        assert_eq!(
            lf.edges[0].bulk,
            1 + 1,
            "back-edge: local.get + the head block"
        );
    }
}
