//! The lowered-tier execution loop: one dispatch per register op over the
//! flat op arrays produced by [`crate::lower`].
//!
//! Frames are windows of the instance's one value stack (see the frame
//! layout in [`crate::lower`]). A guest→guest call checks depth and stack
//! capacity, zero-fills the callee's declared locals, suspends the caller
//! on a control stack and moves the loop's cursor into the callee — no
//! allocation, no `Arc` traffic, no host-stack recursion.
//!
//! The loop runs in one of two fuel modes, selected by a const generic so
//! the hot path monomorphises without per-op fuel work:
//!
//! * **Bulk** (`METERED = false`, the normal mode): fuel is charged once per
//!   basic block, on the control edge that enters it, via
//!   [`crate::fuel::FuelMeter::charge_block`]. A non-fuel trap mid-block
//!   refunds the un-executed remainder (`OpFuel::rest`), so observed
//!   consumption equals the interpreter's. When an edge's charge would cross
//!   the hard fuel limit, the charge is refused and the rest of the invoke
//!   runs in metered mode from the edge's target.
//! * **Metered** (`METERED = true`): each op charges its own cost (plus the
//!   fall-through edge fuel when it was reached linearly) with
//!   [`crate::fuel::FuelMeter::charge_steps`], reproducing the
//!   interpreter's exact out-of-fuel point, `consumed == limit + 1`.
//!
//! Taken branch edges charge their pre-walked `extra` (the op-less
//! instructions the interpreter executes along that edge) in both modes.
//! A fused back-edge (`IncBrLtS*`, see [`crate::lower`]) is its increment
//! and the branch after it in bulk mode, and the increment alone in
//! metered mode, where the branch then runs as its own op.

use crate::lower::{LoweredFunc, Op};
use crate::module::Module;
use crate::num::{self, numeric_ops};
use crate::object::ObjectModule;
use crate::trap::Trap;
use crate::types::Val;

use super::Instance;

/// What the loop needs of the prepared module, borrowed once per invoke.
#[derive(Clone, Copy)]
struct Code<'a> {
    module: &'a Module,
    funcs: &'a [LoweredFunc],
}

/// The two stacks of an instance's lowered tier.
#[derive(Debug, Default)]
pub(super) struct Stacks {
    /// The one value stack: every frame of every call is a window of it.
    values: Vec<u64>,
    /// Suspended callers, one per guest call in flight (at most the
    /// instance's call-depth limit).
    calls: Vec<Activation>,
}

/// Value-stack slots (64 KiB) an instance keeps allocated across
/// [`Stacks::reset`]. Between resets the stack grows on demand and never
/// shrinks; without this bound one deep call would pin its high-water mark
/// for as long as the instance sits in a warm pool.
const KEPT_VALUE_SLOTS: usize = 8 * 1024;

impl Stacks {
    /// Empty both stacks — whatever a call that trapped or ran out of fuel
    /// mid-frame left behind included — keeping their allocations up to
    /// [`KEPT_VALUE_SLOTS`]. Regrowth zero-fills, so nothing a previous
    /// call computed is there to be read.
    pub(super) fn reset(&mut self) {
        self.calls.clear();
        self.values.clear();
        self.values.shrink_to(KEPT_VALUE_SLOTS);
    }

    /// Bytes the two stacks hold allocated.
    pub(super) fn capacity_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<u64>()
            + self.calls.capacity() * std::mem::size_of::<Activation>()
    }
}

/// A suspended caller: where a `Ret` resumes.
#[derive(Debug, Clone, Copy)]
struct Activation {
    func: u32,
    /// The call op; execution resumes after it.
    pc: u32,
    base: usize,
}

/// Where the loop is: a function, its frame's base in the value stack and a
/// pc. `fell` (metered mode only) says whether `pc` was reached by falling
/// through, i.e. whether its `pre` is still owed.
#[derive(Clone, Copy)]
struct Cursor {
    func: u32,
    base: usize,
    pc: usize,
    fell: bool,
}

/// How a run of the loop ended without trapping.
enum Exit {
    /// The outermost function returned.
    Done,
    /// A bulk charge was refused; continue from here in metered mode.
    Metered(Cursor),
}

/// Make room for a frame ending at `top`. Off the steady path: a call that
/// has reached its depth before does not get here again until the instance
/// is reset, and then only to re-zero capacity it kept.
#[cold]
#[inline(never)]
fn grow_stack(stack: &mut Vec<u64>, top: usize) {
    stack.resize(top.max(stack.len() * 2), 0);
}

impl Instance {
    /// Call function `func_idx` with typed arguments on the lowered tier;
    /// returns the raw result slot (meaningless for a void function).
    pub(super) fn call_lowered(
        &mut self,
        object: &ObjectModule,
        func_idx: u32,
        args: &[Val],
    ) -> Result<u64, Trap> {
        let code = Code {
            module: &object.module,
            funcs: object.lowered.as_deref().expect("lowered tier prepared"),
        };
        // The stacks leave `self` for the duration of the call so frames
        // can be borrowed from them while the loop still has `&mut self`.
        let mut stacks = std::mem::take(&mut self.stacks);
        let Stacks {
            values: stack,
            calls,
        } = &mut stacks;
        let need = args.len().max(1);
        if stack.len() < need {
            grow_stack(stack, need);
        }
        for (slot, arg) in stack.iter_mut().zip(args) {
            *slot = arg.to_slot();
        }
        let n_imports = code.module.imports.len() as u32;
        let result = if func_idx < n_imports {
            self.call_import(code.module, stack, func_idx, 0)
        } else {
            self.call_guest(code, stack, calls, func_idx - n_imports)
        };
        let out = stack[0];
        calls.clear();
        self.stacks = stacks;
        result.map(|()| out)
    }

    #[inline(never)]
    fn call_import(
        &mut self,
        module: &Module,
        stack: &mut [u64],
        import: u32,
        base: usize,
    ) -> Result<(), Trap> {
        let ty = &module.types[module.imports[import as usize].type_idx as usize];
        let args = &stack[base..base + ty.params.len()];
        if let Some(v) = self.call_host(module, import as usize, args)? {
            stack[base] = v;
        }
        Ok(())
    }

    /// Run local function `func`, whose arguments are at `stack[0..]`, to
    /// completion: in bulk mode until (if ever) a charge is refused, then
    /// metered.
    fn call_guest(
        &mut self,
        code: Code<'_>,
        stack: &mut Vec<u64>,
        calls: &mut Vec<Activation>,
        func: u32,
    ) -> Result<(), Trap> {
        let mut at = Cursor {
            func,
            base: 0,
            pc: 0,
            fell: false,
        };
        if self.enter_frame(&code.funcs[func as usize], stack, 0, false)? {
            match self.run::<false>(code, stack, calls, at)? {
                Exit::Done => return Ok(()),
                Exit::Metered(cursor) => at = cursor,
            }
        }
        self.run::<true>(code, stack, calls, at).map(|_| ())
    }

    /// Set up a callee's frame over the arguments the caller left at
    /// `stack[base..]` — one capacity check for the whole frame, zeroed
    /// declared locals — and charge its entry edge. Returns whether the
    /// bulk charge was made; if not (`metered`, or refused), only the edge's
    /// own fuel has been paid and the callee must run metered.
    #[inline]
    fn enter_frame(
        &mut self,
        lf: &LoweredFunc,
        stack: &mut Vec<u64>,
        base: usize,
        metered: bool,
    ) -> Result<bool, Trap> {
        let top = base + lf.frame_size as usize;
        if stack.len() < top {
            grow_stack(stack, top);
        }
        stack[base + lf.n_params as usize..base + lf.n_locals as usize].fill(0);
        if !metered && self.fuel.charge_block(lf.entry_bulk as u64)? {
            return Ok(true);
        }
        self.fuel.charge_steps(lf.entry_pre() as u64)?;
        Ok(false)
    }

    /// The function a `call_indirect` through table slot `index` reaches.
    #[inline(never)]
    fn resolve_indirect(&self, module: &Module, type_idx: u32, index: u32) -> Result<u32, Trap> {
        let slot = self
            .table
            .get(index as usize)
            .ok_or(Trap::OutOfBoundsTable { index })?;
        let func_idx = slot.ok_or(Trap::UninitializedElement { index })?;
        match module.func_type(func_idx) {
            Some(actual) if *actual == module.types[type_idx as usize] => Ok(func_idx),
            _ => Err(Trap::IndirectCallTypeMismatch),
        }
    }

    /// A non-fuel trap exits mid-block: in bulk mode, hand back the fuel
    /// for the ops that never ran.
    #[cold]
    #[inline(never)]
    fn trap_at(&mut self, lf: &LoweredFunc, pc: usize, metered: bool, trap: Trap) -> Trap {
        if !metered {
            self.fuel.refund(lf.fuel[pc].rest as u64);
        }
        trap
    }

    /// The dispatch loop; see the module docs for the fuel modes. Guest
    /// calls do not recurse: `Call` suspends the caller on `calls` and
    /// moves the cursor into the callee, `Ret` pops it back.
    #[allow(clippy::too_many_lines)]
    fn run<const METERED: bool>(
        &mut self,
        code: Code<'_>,
        stack: &mut Vec<u64>,
        calls: &mut Vec<Activation>,
        at: Cursor,
    ) -> Result<Exit, Trap> {
        let Cursor {
            mut func,
            mut base,
            mut pc,
            mut fell,
        } = at;
        let mut lf = &code.funcs[func as usize];
        let mut ops = lf.ops.as_slice();
        let mut edges = lf.edges.as_slice();
        let mut frame = &mut stack[base..base + lf.frame_size as usize];
        // Dispatches of this run, written back at every exit.
        let mut retired: u64 = 0;

        macro_rules! exit {
            ($result:expr) => {{
                self.instrs += retired;
                return $result;
            }};
        }
        macro_rules! trap {
            ($trap:expr) => {{
                let trap = self.trap_at(lf, pc, METERED, $trap);
                exit!(Err(trap))
            }};
        }
        // Move the cursor into `$func`, whose frame is already set up.
        macro_rules! enter {
            ($func:expr, $base:expr, $pc:expr) => {{
                func = $func;
                base = $base;
                pc = $pc;
                lf = &code.funcs[func as usize];
                ops = lf.ops.as_slice();
                edges = lf.edges.as_slice();
                frame = &mut stack[base..base + lf.frame_size as usize];
            }};
        }
        // Bulk mode: charge a whole block, or leave for metered mode at
        // `$pc` (with `$extra` of edge fuel still to pay) if refused.
        macro_rules! charge {
            ($fuel:expr, $extra:expr, $pc:expr, $fell:expr) => {
                match self.fuel.charge_block($fuel as u64) {
                    Ok(true) => {}
                    Ok(false) => {
                        if let Err(trap) = self.fuel.charge_steps($extra as u64) {
                            exit!(Err(trap));
                        }
                        exit!(Ok(Exit::Metered(Cursor {
                            func,
                            base,
                            pc: $pc,
                            fell: $fell,
                        })));
                    }
                    Err(trap) => exit!(Err(trap)),
                }
            };
        }
        // Taken branch edge: pay the walked fuel and the target block, jump.
        macro_rules! take {
            ($edge:expr) => {{
                let edge = &edges[$edge as usize];
                if METERED {
                    if let Err(trap) = self.fuel.charge_steps(edge.extra as u64) {
                        exit!(Err(trap));
                    }
                    // The edge fuel was just charged; the target's `pre`
                    // belongs to the fall-through edge only.
                    fell = false;
                } else {
                    charge!(edge.bulk, edge.extra, edge.target as usize, false);
                }
                pc = edge.target as usize;
                continue;
            }};
        }
        // Not-taken edge of a conditional branch (metered mode pays it via
        // the successor's `pre`).
        macro_rules! fall {
            ($edge:expr) => {
                if !METERED {
                    charge!(edges[$edge as usize].fall, 0, pc + 1, true);
                }
            };
        }
        // Bulk mode, a fused back-edge: run the branch that follows it, at
        // its own pc, so its edges charge and leave from where they would.
        macro_rules! back_edge {
            ($cond:expr, $edge:expr) => {{
                pc += 1;
                if $cond != 0 {
                    take!($edge);
                }
                fall!($edge);
            }};
        }
        // Back from a call or a variable-fuel op: pay for the next block.
        macro_rules! resume {
            () => {
                if !METERED {
                    let next = &lf.fuel[pc + 1];
                    charge!(next.pre + next.charge, 0, pc + 1, true);
                }
            };
        }
        // Guest→guest call: depth, frame, entry fuel — in the interpreter's
        // order — then suspend the caller. Nothing allocates, nothing
        // recurses.
        macro_rules! call {
            ($callee:expr, $at:expr) => {{
                if calls.len() + 1 >= self.max_call_depth {
                    trap!(Trap::CallStackExhausted);
                }
                let (callee, callee_base) = ($callee, base + $at as usize);
                let callee_lf = &code.funcs[callee as usize];
                let bulk = match self.enter_frame(callee_lf, stack, callee_base, METERED) {
                    Ok(bulk) => bulk,
                    Err(trap) => trap!(trap),
                };
                calls.push(Activation {
                    func,
                    pc: pc as u32,
                    base,
                });
                if !METERED && !bulk {
                    exit!(Ok(Exit::Metered(Cursor {
                        func: callee,
                        base: callee_base,
                        pc: 0,
                        fell: false,
                    })));
                }
                enter!(callee, callee_base, 0);
                fell = false;
                continue;
            }};
        }
        // Host call: the thunk runs on the arguments in place; the frame
        // is re-borrowed afterwards because the call needed the stack.
        macro_rules! call_host {
            ($import:expr, $at:expr) => {{
                let at = base + $at as usize;
                if let Err(trap) = self.call_import(code.module, stack, $import, at) {
                    trap!(trap);
                }
                frame = &mut stack[base..base + lf.frame_size as usize];
                resume!();
            }};
        }
        // Return: resume the suspended caller after its call op, or leave.
        macro_rules! ret {
            () => {{
                let Some(caller) = calls.pop() else {
                    exit!(Ok(Exit::Done));
                };
                enter!(caller.func, caller.base, caller.pc as usize);
                resume!();
            }};
        }
        macro_rules! r {
            ($idx:expr) => {
                frame[$idx as usize]
            };
        }
        // Every access is range-checked by the memory itself: for a word
        // the block table holds, the table lookup is the check.
        macro_rules! load {
            ($dst:expr, $addr:expr, $n:literal, |$bytes:ident| $value:expr) => {{
                let addr: u64 = $addr;
                let mem = self.mem.as_ref().expect("validated memory presence");
                match usize::try_from(addr).map(|addr| mem.load::<$n>(addr)) {
                    Ok(Ok($bytes)) => r!($dst) = $value,
                    _ => trap!(Trap::OutOfBoundsMemory { addr, len: $n }),
                }
            }};
        }
        macro_rules! store {
            ($addr:expr, $n:literal, $bytes:expr) => {{
                let addr: u64 = $addr;
                let mem = self.mem.as_mut().expect("validated memory presence");
                if !matches!(
                    usize::try_from(addr).map(|addr| mem.store::<$n>(addr, $bytes)),
                    Ok(Ok(()))
                ) {
                    trap!(Trap::OutOfBoundsMemory { addr, len: $n });
                }
            }};
        }
        macro_rules! ea {
            ($addr:expr, $offset:expr) => {
                r!($addr) as u32 as u64 + $offset as u64
            };
        }
        // Scaled base + index: the wrapping i32 `a + (b << shift)`.
        macro_rules! xa {
            ($a:expr, $b:expr, $shift:expr) => {
                (r!($a) as u32).wrapping_add((r!($b) as u32) << $shift) as u64
            };
        }
        // The whole dispatch `match`: numeric arms from the one table in
        // `num`, everything else written out.
        macro_rules! dispatch {
            (int_bin: [$(($ib:ident, $ibi:ident, $ibf:ident)),* $(,)?]
             int_bin_trap: [$(($it:ident, $iti:ident, $itf:ident)),* $(,)?]
             float_bin: [$(($fb:ident, $fbf:ident)),* $(,)?]
             un: [$(($un:ident, $unf:ident)),* $(,)?]
             un_trap: [$(($ut:ident, $utf:ident)),* $(,)?]
             br_cmp: [$(($c:ident, $cneg:ident, $br:ident, $bri:ident, $cf:ident)),* $(,)?]) => {
                match ops[pc] {
                    $(Op::$ib { dst, a, b } => r!(dst) = num::$ibf(r!(a), r!(b)),
                      Op::$ibi { dst, a, imm } => r!(dst) = num::$ibf(r!(a), imm as i64 as u64),)*
                    $(Op::$it { dst, a, b } => match num::$itf(r!(a), r!(b)) {
                          Ok(v) => r!(dst) = v,
                          Err(trap) => trap!(trap),
                      },
                      Op::$iti { dst, a, imm } => match num::$itf(r!(a), imm as i64 as u64) {
                          Ok(v) => r!(dst) = v,
                          Err(trap) => trap!(trap),
                      },)*
                    $(Op::$fb { dst, a, b } => r!(dst) = num::$fbf(r!(a), r!(b)),)*
                    $(Op::$un { dst, a } => r!(dst) = num::$unf(r!(a)),)*
                    $(Op::$ut { dst, a } => match num::$utf(r!(a)) {
                          Ok(v) => r!(dst) = v,
                          Err(trap) => trap!(trap),
                      },)*
                    $(Op::$br { a, b, edge } => {
                          if num::$cf(r!(a), r!(b)) != 0 {
                              take!(edge);
                          }
                          fall!(edge);
                      }
                      Op::$bri { a, imm, edge } => {
                          if num::$cf(r!(a), imm as i64 as u64) != 0 {
                              take!(edge);
                          }
                          fall!(edge);
                      })*
                    Op::Unreachable => trap!(Trap::Unreachable),
                    Op::Jump { edge } => take!(edge),
                    Op::BrZ { cond, edge } => {
                        if r!(cond) as u32 == 0 {
                            take!(edge);
                        }
                        fall!(edge);
                    }
                    Op::BrNz { cond, edge } => {
                        if r!(cond) as u32 != 0 {
                            take!(edge);
                        }
                        fall!(edge);
                    }
                    Op::BrTable { idx, first, len } => take!(first + (r!(idx) as u32).min(len)),
                    Op::Ret { src } => {
                        r!(0) = r!(src);
                        ret!();
                    }
                    Op::RetVoid => ret!(),
                    Op::Call { func: callee, base: at } => call!(callee, at),
                    Op::CallHost { import, base: at } => call_host!(import, at),
                    Op::CallIndirect { type_idx, idx, base: at } => {
                        let callee = match self.resolve_indirect(code.module, type_idx, r!(idx) as u32)
                        {
                            Ok(callee) => callee,
                            Err(trap) => trap!(trap),
                        };
                        let n_imports = code.module.imports.len() as u32;
                        if callee >= n_imports {
                            call!(callee - n_imports, at);
                        }
                        call_host!(callee, at);
                    }
                    Op::MemorySize { dst } => r!(dst) = self.memory_size(),
                    Op::MemoryGrow { dst, delta } => {
                        match self.memory_grow(r!(delta) as u32) {
                            Ok(v) => r!(dst) = v,
                            Err(trap) => trap!(trap),
                        }
                        resume!();
                    }
                    Op::MemoryCopy { dst, src, len } => {
                        let (dst, src, len) = (r!(dst) as u32, r!(src) as u32, r!(len) as u32);
                        if let Err(trap) = self.memory_copy(dst, src, len) {
                            trap!(trap);
                        }
                        resume!();
                    }
                    Op::MemoryFill { dst, val, len } => {
                        let (dst, val, len) = (r!(dst) as u32, r!(val) as u32, r!(len) as u32);
                        if let Err(trap) = self.memory_fill(dst, val, len) {
                            trap!(trap);
                        }
                        resume!();
                    }
                    Op::GlobalGet { dst, idx } => r!(dst) = self.globals[idx as usize],
                    Op::GlobalSet { idx, src } => self.globals[idx as usize] = r!(src),
                    Op::Mov { dst, src } => r!(dst) = r!(src),
                    Op::Const { dst, imm } => r!(dst) = imm as u64,
                    Op::Const64 { dst, bits } => r!(dst) = bits,
                    Op::Select { dst, base: at } => {
                        let v = if r!(at + 2) as u32 != 0 { r!(at) } else { r!(at + 1) };
                        r!(dst) = v;
                    }
                    Op::Load8U { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 1, |b| b[0] as u64)
                    }
                    Op::Load8S32 { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 1, |b| b[0] as i8 as i32 as u32 as u64)
                    }
                    Op::Load8S64 { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 1, |b| b[0] as i8 as i64 as u64)
                    }
                    Op::Load16U { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 2, |b| u16::from_le_bytes(b) as u64)
                    }
                    Op::Load16S32 { dst, addr, offset } => load!(dst, ea!(addr, offset), 2, |b| {
                        i16::from_le_bytes(b) as i32 as u32 as u64
                    }),
                    Op::Load16S64 { dst, addr, offset } => load!(dst, ea!(addr, offset), 2, |b| {
                        i16::from_le_bytes(b) as i64 as u64
                    }),
                    Op::Load32 { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 4, |b| u32::from_le_bytes(b) as u64)
                    }
                    Op::Load32S64 { dst, addr, offset } => load!(dst, ea!(addr, offset), 4, |b| {
                        i32::from_le_bytes(b) as i64 as u64
                    }),
                    Op::Load64 { dst, addr, offset } => {
                        load!(dst, ea!(addr, offset), 8, |b| u64::from_le_bytes(b))
                    }
                    Op::Load32X { dst, a, b, shift } => {
                        load!(dst, xa!(a, b, shift), 4, |b| u32::from_le_bytes(b) as u64)
                    }
                    Op::Load64X { dst, a, b, shift } => {
                        load!(dst, xa!(a, b, shift), 8, |b| u64::from_le_bytes(b))
                    }
                    Op::Store8 { addr, val, offset } => {
                        store!(ea!(addr, offset), 1, [r!(val) as u8])
                    }
                    Op::Store16 { addr, val, offset } => {
                        store!(ea!(addr, offset), 2, (r!(val) as u16).to_le_bytes())
                    }
                    Op::Store32 { addr, val, offset } => {
                        store!(ea!(addr, offset), 4, (r!(val) as u32).to_le_bytes())
                    }
                    Op::Store64 { addr, val, offset } => {
                        store!(ea!(addr, offset), 8, r!(val).to_le_bytes())
                    }
                    Op::Store32X { a, b, val, shift } => {
                        store!(xa!(a, b, shift), 4, (r!(val) as u32).to_le_bytes())
                    }
                    Op::Store64X { a, b, val, shift } => {
                        store!(xa!(a, b, shift), 8, r!(val).to_le_bytes())
                    }
                    Op::I32AddX { dst, a, b, shift } => r!(dst) = xa!(a, b, shift),
                    Op::IncBrLtS { a, b, edge, step } => {
                        r!(a) = num::i32_add(r!(a), step as i64 as u64);
                        if !METERED {
                            back_edge!(num::i32_lt_s(r!(a), r!(b)), edge);
                        }
                    }
                    Op::IncBrLtSI { a, imm, edge, step } => {
                        r!(a) = num::i32_add(r!(a), step as i64 as u64);
                        if !METERED {
                            back_edge!(num::i32_lt_s(r!(a), imm as i64 as u64), edge);
                        }
                    }
                    Op::DepthGuard => {
                        if calls.len() + 1 >= self.max_call_depth {
                            trap!(Trap::CallStackExhausted);
                        }
                    }
                }
            };
        }

        loop {
            retired += 1;
            if METERED {
                let fuel = &lf.fuel[pc];
                let owed = fuel.cost + if fell { fuel.pre } else { 0 };
                if let Err(trap) = self.fuel.charge_steps(owed as u64) {
                    exit!(Err(trap));
                }
                fell = true;
            }
            numeric_ops!(dispatch);
            pc += 1;
        }
    }
}
