//! The reference interpreter: a stack machine over the structured `Instr`
//! bodies, one fuel unit and one label-stack step per instruction. It is the
//! oracle the lowered tier is differentially tested against, and runs only
//! where a caller names its [`crate::ExecTier`]. It keeps its operands in a
//! per-call `Vec` and recurses on the host stack for guest calls.

use std::sync::Arc;

use crate::instr::Instr;
use crate::num::{self, numeric_ops};
use crate::object::ObjectModule;
use crate::trap::Trap;
use crate::types::Val;

use super::Instance;

struct Label {
    /// Where a branch to this label continues execution.
    cont: usize,
    /// Value-stack height at label entry.
    height: usize,
    /// Values a branch out of this label carries (0 or 1).
    arity: usize,
    /// Loops keep their label on branch; blocks pop it.
    is_loop: bool,
}

impl Instance {
    /// Call function `func_idx` with typed arguments on the interpreter;
    /// returns the raw result slot (meaningless for a void function).
    pub(super) fn call_interp(&mut self, func_idx: u32, args: &[Val]) -> Result<u64, Trap> {
        let mut stack: Vec<u64> = args.iter().map(|v| v.to_slot()).collect();
        self.dispatch_call(func_idx, &mut stack, 0)?;
        Ok(stack.pop().unwrap_or(0))
    }

    /// Call a function index with arguments already on `stack`; leaves
    /// results on `stack`.
    fn dispatch_call(
        &mut self,
        func_idx: u32,
        stack: &mut Vec<u64>,
        depth: usize,
    ) -> Result<(), Trap> {
        let object = Arc::clone(&self.object);
        let n_imports = object.module.imports.len();
        if (func_idx as usize) < n_imports {
            let ty =
                &object.module.types[object.module.imports[func_idx as usize].type_idx as usize];
            debug_assert!(stack.len() >= ty.params.len(), "validated host call arity");
            let at = stack.len() - ty.params.len();
            let result = self.call_host(&object.module, func_idx as usize, &stack[at..])?;
            stack.truncate(at);
            stack.extend(result);
            Ok(())
        } else {
            let local_idx = func_idx as usize - n_imports;
            let func = &object.module.funcs[local_idx];
            let ty = &object.module.types[func.type_idx as usize];
            let n_params = ty.params.len();
            debug_assert!(stack.len() >= n_params, "validated call arity");
            let mut locals: Vec<u64> = stack.split_off(stack.len() - n_params);
            locals.resize(n_params + func.locals.len(), 0);
            let result = self.exec_body(&object, local_idx, locals, depth)?;
            if let Some(v) = result {
                stack.push(v);
            }
            Ok(())
        }
    }

    /// The interpreter main loop for one function body.
    #[allow(clippy::too_many_lines)]
    fn exec_body(
        &mut self,
        object: &Arc<ObjectModule>,
        local_idx: usize,
        mut locals: Vec<u64>,
        depth: usize,
    ) -> Result<Option<u64>, Trap> {
        if depth >= self.max_call_depth {
            return Err(Trap::CallStackExhausted);
        }
        let func = &object.module.funcs[local_idx];
        let func_arity = object.module.types[func.type_idx as usize].results.len();
        let body: &[Instr] = &func.body;

        let mut stack: Vec<u64> = Vec::with_capacity(32);
        let mut labels: Vec<Label> = Vec::with_capacity(8);
        let mut pc: usize = 0;

        // Performs a branch to relative `depth`; returns the function result
        // if the branch leaves the function body.
        macro_rules! branch {
            ($d:expr) => {{
                let d = $d as usize;
                if d >= labels.len() {
                    // Branch to the function frame: return.
                    return Ok(take_result(&mut stack, func_arity));
                }
                let idx = labels.len() - 1 - d;
                if labels[idx].is_loop {
                    let height = labels[idx].height;
                    let cont = labels[idx].cont;
                    labels.truncate(idx + 1);
                    stack.truncate(height);
                    pc = cont;
                } else {
                    let arity = labels[idx].arity;
                    let height = labels[idx].height;
                    let cont = labels[idx].cont;
                    let carried = if arity == 1 { stack.pop() } else { None };
                    labels.truncate(idx);
                    stack.truncate(height);
                    if let Some(v) = carried {
                        stack.push(v);
                    }
                    pc = cont;
                }
                continue;
            }};
        }

        loop {
            self.fuel.charge(1)?;
            self.instrs += 1;
            debug_assert!(pc < body.len(), "validated bodies end with End");
            let instr = &body[pc];
            match instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Block(bt) => {
                    let meta = object.meta(local_idx, pc);
                    labels.push(Label {
                        cont: meta.end_pc as usize + 1,
                        height: stack.len(),
                        arity: bt.arity(),
                        is_loop: false,
                    });
                }
                Instr::Loop(_) => {
                    labels.push(Label {
                        cont: pc + 1,
                        height: stack.len(),
                        arity: 0,
                        is_loop: true,
                    });
                }
                Instr::If(bt) => {
                    let meta = object.meta(local_idx, pc);
                    let cond = pop_u32(&mut stack);
                    labels.push(Label {
                        cont: meta.end_pc as usize + 1,
                        height: stack.len(),
                        arity: bt.arity(),
                        is_loop: false,
                    });
                    if cond == 0 {
                        if meta.else_pc != u32::MAX {
                            pc = meta.else_pc as usize + 1;
                        } else {
                            // No else: jump to the End, which pops the label.
                            pc = meta.end_pc as usize;
                        }
                        continue;
                    }
                }
                Instr::Else => {
                    // Fell out of the then-arm: skip to the matching end,
                    // which pops the label.
                    let meta = object.meta(local_idx, pc);
                    pc = meta.end_pc as usize;
                    continue;
                }
                Instr::End => {
                    if labels.pop().is_none() {
                        // Function-level end.
                        return Ok(take_result(&mut stack, func_arity));
                    }
                }
                Instr::Br(d) => branch!(*d),
                Instr::BrIf(d) => {
                    if pop_u32(&mut stack) != 0 {
                        branch!(*d);
                    }
                }
                Instr::BrTable(t) => {
                    let i = pop_u32(&mut stack) as usize;
                    let d = t.targets.get(i).copied().unwrap_or(t.default);
                    branch!(d);
                }
                Instr::Return => return Ok(take_result(&mut stack, func_arity)),
                Instr::Call(idx) => {
                    let idx = *idx;
                    self.dispatch_call(idx, &mut stack, depth + 1)?;
                }
                Instr::CallIndirect(type_idx) => {
                    let type_idx = *type_idx;
                    let i = pop_u32(&mut stack);
                    let slot = self
                        .table
                        .get(i as usize)
                        .ok_or(Trap::OutOfBoundsTable { index: i })?;
                    let func_idx = slot.ok_or(Trap::UninitializedElement { index: i })?;
                    let expected = &object.module.types[type_idx as usize];
                    let actual = object
                        .module
                        .func_type(func_idx)
                        .ok_or(Trap::IndirectCallTypeMismatch)?;
                    if actual != expected {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    self.dispatch_call(func_idx, &mut stack, depth + 1)?;
                }
                other => self.step_plain(other, &mut locals, &mut stack)?,
            }
            pc += 1;
        }
    }
}

/// A bounds-checked interpreter load: pop the address, push the value.
macro_rules! load {
    ($self:ident, $stack:ident, $marg:expr, $read:ident, $size:expr, $map:expr) => {{
        let base = pop_u32($stack);
        let addr = base as u64 + $marg.offset as u64;
        let mem = $self.mem.as_ref().expect("validated memory presence");
        match mem.$read(addr as usize) {
            Ok(v) => $stack.push($map(v)),
            Err(_) => return Err(Trap::OutOfBoundsMemory { addr, len: $size }),
        }
    }};
}

/// A bounds-checked interpreter store: pop the value, then the address.
macro_rules! store {
    ($self:ident, $stack:ident, $marg:expr, $write:ident, $size:expr, $map:expr) => {{
        let v = pop_raw($stack);
        let base = pop_u32($stack);
        let addr = base as u64 + $marg.offset as u64;
        let mem = $self.mem.as_mut().expect("validated memory presence");
        if mem.$write(addr as usize, $map(v)).is_err() {
            return Err(Trap::OutOfBoundsMemory { addr, len: $size });
        }
    }};
}

/// Generates `Instance::step_plain`: the numeric arms come from the one
/// table in [`crate::num`], everything else is written out.
macro_rules! define_step_plain {
    (int_bin: [$(($ib:ident, $ibi:ident, $ibf:ident)),* $(,)?]
     int_bin_trap: [$(($it:ident, $iti:ident, $itf:ident)),* $(,)?]
     float_bin: [$(($fb:ident, $fbf:ident)),* $(,)?]
     un: [$(($un:ident, $unf:ident)),* $(,)?]
     un_trap: [$(($ut:ident, $utf:ident)),* $(,)?]
     br_cmp: [$($absorbed:tt)*]) => {
        impl Instance {
            /// Execute one non-control instruction on the interpreter's
            /// operand stack. The per-instruction base fuel unit is charged
            /// by the caller; only the variable charges
            /// (`memory.grow`/`copy`/`fill`) happen below, after the pops.
            #[allow(clippy::too_many_lines)]
            #[inline]
            fn step_plain(
                &mut self,
                instr: &Instr,
                locals: &mut [u64],
                stack: &mut Vec<u64>,
            ) -> Result<(), Trap> {
                match instr {
                    $(Instr::$ib => {
                        let b = pop_raw(stack);
                        let a = pop_raw(stack);
                        stack.push(num::$ibf(a, b));
                    })*
                    $(Instr::$it => {
                        let b = pop_raw(stack);
                        let a = pop_raw(stack);
                        stack.push(num::$itf(a, b)?);
                    })*
                    $(Instr::$fb => {
                        let b = pop_raw(stack);
                        let a = pop_raw(stack);
                        stack.push(num::$fbf(a, b));
                    })*
                    $(Instr::$un => {
                        let a = pop_raw(stack);
                        stack.push(num::$unf(a));
                    })*
                    $(Instr::$ut => {
                        let a = pop_raw(stack);
                        stack.push(num::$utf(a)?);
                    })*
                    Instr::Nop => {}
                    Instr::Drop => {
                        stack.pop();
                    }
                    Instr::Select => {
                        let c = pop_u32(stack);
                        let b = pop_raw(stack);
                        let a = pop_raw(stack);
                        stack.push(if c != 0 { a } else { b });
                    }
                    Instr::LocalGet(i) => stack.push(locals[*i as usize]),
                    Instr::LocalSet(i) => locals[*i as usize] = pop_raw(stack),
                    Instr::LocalTee(i) => {
                        locals[*i as usize] = *stack.last().expect("validated stack");
                    }
                    Instr::GlobalGet(i) => stack.push(self.globals[*i as usize]),
                    Instr::GlobalSet(i) => self.globals[*i as usize] = pop_raw(stack),
                    Instr::I32Load(m) | Instr::F32Load(m) | Instr::I64Load32U(m) => {
                        load!(self, stack, m, read_u32, 4, |v: u32| v as u64)
                    }
                    Instr::I64Load(m) | Instr::F64Load(m) => {
                        load!(self, stack, m, read_u64, 8, |v: u64| v)
                    }
                    Instr::I32Load8S(m) => {
                        load!(self, stack, m, read_i8, 1, |v: i8| v as i32 as u32 as u64)
                    }
                    Instr::I32Load8U(m) | Instr::I64Load8U(m) => {
                        load!(self, stack, m, read_u8, 1, |v: u8| v as u64)
                    }
                    Instr::I32Load16S(m) => {
                        load!(self, stack, m, read_i16, 2, |v: i16| v as i32 as u32 as u64)
                    }
                    Instr::I32Load16U(m) | Instr::I64Load16U(m) => {
                        load!(self, stack, m, read_u16, 2, |v: u16| v as u64)
                    }
                    Instr::I64Load8S(m) => {
                        load!(self, stack, m, read_i8, 1, |v: i8| v as i64 as u64)
                    }
                    Instr::I64Load16S(m) => {
                        load!(self, stack, m, read_i16, 2, |v: i16| v as i64 as u64)
                    }
                    Instr::I64Load32S(m) => {
                        load!(self, stack, m, read_i32, 4, |v: i32| v as i64 as u64)
                    }
                    Instr::I32Store(m) | Instr::F32Store(m) | Instr::I64Store32(m) => {
                        store!(self, stack, m, write_u32, 4, |v: u64| v as u32)
                    }
                    Instr::I64Store(m) | Instr::F64Store(m) => {
                        store!(self, stack, m, write_u64, 8, |v: u64| v)
                    }
                    Instr::I32Store8(m) | Instr::I64Store8(m) => {
                        store!(self, stack, m, write_u8, 1, |v: u64| v as u8)
                    }
                    Instr::I32Store16(m) | Instr::I64Store16(m) => {
                        store!(self, stack, m, write_u16, 2, |v: u64| v as u16)
                    }
                    Instr::MemorySize => stack.push(self.memory_size()),
                    Instr::MemoryGrow => {
                        let delta = pop_u32(stack);
                        stack.push(self.memory_grow(delta)?);
                    }
                    Instr::MemoryCopy => {
                        let len = pop_u32(stack);
                        let src = pop_u32(stack);
                        let dst = pop_u32(stack);
                        self.memory_copy(dst, src, len)?;
                    }
                    Instr::MemoryFill => {
                        let len = pop_u32(stack);
                        let val = pop_u32(stack);
                        let dst = pop_u32(stack);
                        self.memory_fill(dst, val, len)?;
                    }
                    Instr::I32Const(v) => stack.push(*v as u32 as u64),
                    Instr::I64Const(v) => stack.push(*v as u64),
                    Instr::F32Const(v) => stack.push(v.to_bits() as u64),
                    Instr::F64Const(v) => stack.push(v.to_bits()),
                    Instr::I32ReinterpretF32
                    | Instr::I64ReinterpretF64
                    | Instr::F32ReinterpretI32
                    | Instr::F64ReinterpretI64 => { /* bits already in slot */ }
                    Instr::Unreachable
                    | Instr::Block(_)
                    | Instr::Loop(_)
                    | Instr::If(_)
                    | Instr::Else
                    | Instr::End
                    | Instr::Br(_)
                    | Instr::BrIf(_)
                    | Instr::BrTable(_)
                    | Instr::Return
                    | Instr::Call(_)
                    | Instr::CallIndirect(_) => {
                        unreachable!("control instruction in step_plain: {instr:?}")
                    }
                }
                Ok(())
            }
        }
    };
}

numeric_ops!(define_step_plain);

#[inline]
fn pop_raw(s: &mut Vec<u64>) -> u64 {
    s.pop().expect("validated stack")
}

#[inline]
fn pop_u32(s: &mut Vec<u64>) -> u32 {
    pop_raw(s) as u32
}

#[inline]
fn take_result(stack: &mut Vec<u64>, arity: usize) -> Option<u64> {
    if arity == 1 {
        stack.pop()
    } else {
        None
    }
}
