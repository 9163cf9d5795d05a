//! Instances and the execution engine.
//!
//! An [`Instance`] is the "executable" of Fig. 3: a prepared
//! [`ObjectModule`] linked with its host-interface thunks, given a private
//! linear memory, globals and an indirect-call table. Execution is either
//! the reference stack-machine interpreter in this file or the register loop
//! in `lowered`, both over untyped 64-bit slots — validation makes runtime
//! type tags redundant — and both calling the one set of per-instruction
//! functions in [`crate::num`]. Every linear-memory access is bounds-checked
//! and surfaces as [`Trap::OutOfBoundsMemory`]; every instruction is
//! fuel-metered for cgroup-style CPU accounting.

use std::any::Any;
use std::sync::Arc;

use faasm_mem::{LinearMemory, MemError, MemorySnapshot};

use crate::fuel::FuelMeter;
use crate::host::{HostCtx, HostFunc, LinkError, Linker};
use crate::module::{ExportKind, Module};
use crate::object::ObjectModule;
use crate::trap::Trap;
use crate::types::Val;

/// Default limit on guest call depth.
///
/// The interpreter uses the Rust call stack for guest calls, so the bound
/// must fit inside the host thread's stack. Faaslet threads in `faasm-core`
/// are spawned with large stacks and may raise this via
/// [`Instance::set_max_call_depth`].
pub const DEFAULT_MAX_CALL_DEPTH: usize = 200;

/// Errors constructing an instance.
#[derive(Debug)]
pub enum InstantiateError {
    /// An import could not be resolved.
    Link(LinkError),
    /// The start function trapped.
    StartTrap(Trap),
    /// Memory construction failed (initial pages over the limit).
    Memory(MemError),
    /// A snapshot did not match the module shape.
    BadSnapshot,
}

impl std::fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstantiateError::Link(e) => write!(f, "link error: {e}"),
            InstantiateError::StartTrap(t) => write!(f, "start function trapped: {t}"),
            InstantiateError::Memory(e) => write!(f, "memory error: {e}"),
            InstantiateError::BadSnapshot => write!(f, "snapshot does not match module"),
        }
    }
}

impl std::error::Error for InstantiateError {}

/// A point-in-time capture of an instance's mutable execution state: memory
/// pages (copy-on-write), globals and the indirect-call table — exactly the
/// state a Proto-Faaslet snapshot needs (§5.2: "a function's stack, heap,
/// function table, stack pointer and data"; the FVM keeps its operand stack
/// empty between calls, so memory + globals + table is the complete set).
#[derive(Debug, Clone)]
pub struct InstanceSnapshot {
    /// Captured linear memory, if the module has one.
    pub mem: Option<MemorySnapshot>,
    /// Captured global values (untyped slots).
    pub globals: Vec<u64>,
    /// Captured indirect-call table.
    pub table: Vec<Option<u32>>,
}

/// Whether `snap` can be the state of an instance of `object`.
fn check_shape(object: &ObjectModule, snap: &InstanceSnapshot) -> Result<(), InstantiateError> {
    if snap.globals.len() != object.module.globals.len()
        || snap.mem.is_some() != object.module.memory.is_some()
    {
        return Err(InstantiateError::BadSnapshot);
    }
    Ok(())
}

/// A linked, executable module instance.
pub struct Instance {
    object: Arc<ObjectModule>,
    mem: Option<LinearMemory>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
    host_fns: Vec<Arc<dyn HostFunc>>,
    data: Box<dyn Any + Send>,
    /// Fuel meter; public so the embedder can swap policies between calls.
    pub fuel: FuelMeter,
    max_call_depth: usize,
    /// Ops retired by the execution engine (telemetry; the lowered tier
    /// retires fewer ops than the interpreter for the same work).
    instrs: u64,
    /// The lowered tier's value stack and control stack. They live as long
    /// as the instance and grow on demand, so a warmed-up instance calls
    /// without allocating; [`Instance::reset_to`] empties them and keeps a
    /// bounded capacity. Not guest-visible state, so not part of snapshots
    /// or memory stats; [`Instance::stack_bytes`] is what they hold.
    stacks: lowered::Stacks,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("funcs", &self.object.module.func_count())
            .field("mem_pages", &self.mem.as_ref().map(|m| m.size_pages()))
            .field("globals", &self.globals.len())
            .field("table", &self.table.len())
            .field("fuel", &self.fuel)
            .finish()
    }
}

impl Instance {
    /// Instantiate an object module: resolve imports, build memory (applying
    /// data segments), globals and table, then run the start function.
    ///
    /// # Errors
    ///
    /// Returns [`InstantiateError`] on unresolved imports, memory limits, or
    /// a trapping start function.
    pub fn new(
        object: Arc<ObjectModule>,
        linker: &Linker,
        data: Box<dyn Any + Send>,
    ) -> Result<Instance, InstantiateError> {
        Instance::with_fuel(object, linker, data, FuelMeter::unlimited())
    }

    /// Instantiate with an explicit fuel meter.
    ///
    /// # Errors
    ///
    /// See [`Instance::new`].
    pub fn with_fuel(
        object: Arc<ObjectModule>,
        linker: &Linker,
        data: Box<dyn Any + Send>,
        fuel: FuelMeter,
    ) -> Result<Instance, InstantiateError> {
        let mut host_fns = Vec::with_capacity(object.module.imports.len());
        for imp in &object.module.imports {
            host_fns.push(
                linker
                    .resolve(&imp.module, &imp.name)
                    .map_err(InstantiateError::Link)?,
            );
        }

        let mem = match &object.module.memory {
            Some(spec) => {
                let mut m = LinearMemory::new(spec.initial_pages as usize, spec.max_pages as usize)
                    .map_err(InstantiateError::Memory)?;
                for seg in &object.module.data {
                    // Validation bounds-checked segments against the initial
                    // memory size.
                    m.write(seg.offset as usize, &seg.bytes)
                        .map_err(InstantiateError::Memory)?;
                }
                Some(m)
            }
            None => None,
        };

        let globals = object
            .module
            .globals
            .iter()
            .map(|g| g.init.to_slot())
            .collect();

        let mut table = vec![None; object.module.table_size as usize];
        for seg in &object.module.elems {
            for (i, func) in seg.funcs.iter().enumerate() {
                table[seg.offset as usize + i] = Some(*func);
            }
        }

        let mut inst = Instance {
            object,
            mem,
            globals,
            table,
            host_fns,
            data,
            fuel,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
            instrs: 0,
            stacks: lowered::Stacks::default(),
        };

        if let Some(start) = inst.object.module.start {
            inst.call_func(start, &[])
                .map_err(InstantiateError::StartTrap)?;
        }
        Ok(inst)
    }

    /// Rebuild an instance from a snapshot: memory is restored copy-on-write,
    /// data segments and the start function are *not* re-applied — the
    /// snapshot already contains initialised state. This is the
    /// Proto-Faaslet restore path (§5.2).
    ///
    /// # Errors
    ///
    /// Returns [`InstantiateError`] on unresolved imports or a snapshot whose
    /// shape does not match the module.
    pub fn restore(
        object: Arc<ObjectModule>,
        snap: &InstanceSnapshot,
        linker: &Linker,
        data: Box<dyn Any + Send>,
        fuel: FuelMeter,
    ) -> Result<Instance, InstantiateError> {
        let mut host_fns = Vec::with_capacity(object.module.imports.len());
        for imp in &object.module.imports {
            host_fns.push(
                linker
                    .resolve(&imp.module, &imp.name)
                    .map_err(InstantiateError::Link)?,
            );
        }
        check_shape(&object, snap)?;
        Ok(Instance {
            object,
            mem: snap.mem.as_ref().map(LinearMemory::restore),
            globals: snap.globals.clone(),
            table: snap.table.clone(),
            host_fns,
            data,
            fuel,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
            instrs: 0,
            stacks: lowered::Stacks::default(),
        })
    }

    /// Reset in place: afterwards the guest-visible state — memory, globals,
    /// table — is what [`Instance::restore`] of `snap` would build, at a cost
    /// proportional to what was written since (see
    /// [`LinearMemory::reset_to`]). The resolved imports stay, as do the
    /// lowered tier's stacks, emptied; the per-instance data, the fuel meter,
    /// the retired-op counter and the call-depth limit are the embedder's
    /// and are left alone.
    /// Returns the number of memory bytes copied back.
    ///
    /// # Errors
    ///
    /// [`InstantiateError::BadSnapshot`], with the instance untouched, if
    /// the snapshot's shape does not match the module.
    pub fn reset_to(&mut self, snap: &InstanceSnapshot) -> Result<usize, InstantiateError> {
        check_shape(&self.object, snap)?;
        let copied = match (&mut self.mem, &snap.mem) {
            (Some(mem), Some(snap)) => mem.reset_to(snap),
            _ => 0,
        };
        self.globals.clone_from(&snap.globals);
        self.table.clone_from(&snap.table);
        self.stacks.reset();
        Ok(copied)
    }

    /// Capture the instance's mutable state.
    pub fn snapshot(&mut self) -> InstanceSnapshot {
        InstanceSnapshot {
            mem: self.mem.as_mut().map(|m| m.snapshot()),
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// The prepared module this instance executes.
    pub fn object(&self) -> &Arc<ObjectModule> {
        &self.object
    }

    /// The instance's linear memory, if any.
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.mem.as_ref()
    }

    /// Bytes the lowered tier's stacks hold allocated (their capacity,
    /// not their depth): part of the instance's footprint beside its
    /// memory.
    pub fn stack_bytes(&self) -> usize {
        self.stacks.capacity_bytes()
    }

    /// Mutable access to the linear memory (host-side state mapping).
    pub fn memory_mut(&mut self) -> Option<&mut LinearMemory> {
        self.mem.as_mut()
    }

    /// Downcast the per-instance data.
    pub fn data_as<T: 'static>(&mut self) -> Option<&mut T> {
        self.data.downcast_mut::<T>()
    }

    /// Replace the per-instance data, returning the old box.
    pub fn replace_data(&mut self, data: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        std::mem::replace(&mut self.data, data)
    }

    /// Read a global by index (test/diagnostic helper).
    pub fn global(&self, idx: usize) -> Option<Val> {
        let g = self.object.module.globals.get(idx)?;
        Some(Val::from_slot(self.globals[idx], g.ty))
    }

    /// Set the call-depth limit.
    pub fn set_max_call_depth(&mut self, depth: usize) {
        self.max_call_depth = depth.max(1);
    }

    /// Ops retired since construction (guest-CPU telemetry). On the lowered
    /// tier one register op may stand for several source instructions, so
    /// this counts engine dispatches; fuel remains the tier-independent
    /// instruction count.
    pub fn instrs_retired(&self) -> u64 {
        self.instrs
    }

    /// Zero the retired-op counter (per-call accounting, like
    /// [`crate::fuel::FuelMeter::reset_consumed`]).
    pub fn reset_instrs(&mut self) {
        self.instrs = 0;
    }

    /// Invoke an exported function by name with typed arguments.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::NoSuchExport`] / [`Trap::BadSignature`] for lookup and
    /// argument errors, or any trap raised during execution.
    pub fn invoke(&mut self, name: &str, args: &[Val]) -> Result<Option<Val>, Trap> {
        let func_idx = self
            .object
            .module
            .find_export(name, ExportKind::Func)
            .ok_or_else(|| Trap::NoSuchExport {
                name: name.to_string(),
            })?;
        self.call_func(func_idx, args)
    }

    /// Invoke a function by index with typed arguments.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::BadSignature`] on arity/type mismatch, or any runtime
    /// trap.
    pub fn call_func(&mut self, func_idx: u32, args: &[Val]) -> Result<Option<Val>, Trap> {
        // One reference-count bump per host-side invoke; guest→guest calls
        // below borrow from it.
        let object = Arc::clone(&self.object);
        let ty = object
            .module
            .func_type(func_idx)
            .ok_or_else(|| Trap::BadSignature {
                expected: format!("function index {func_idx} in range"),
            })?;
        if args.len() != ty.params.len() || args.iter().zip(&ty.params).any(|(a, p)| a.ty() != *p) {
            return Err(Trap::BadSignature {
                expected: ty.to_string(),
            });
        }
        let result = if object.lowered.is_some() {
            self.call_lowered(&object, func_idx, args)?
        } else {
            self.call_interp(func_idx, args)?
        };
        Ok(ty.results.first().map(|t| Val::from_slot(result, *t)))
    }

    /// Marshal a host call: argument slots → typed values → host thunk →
    /// result slot. Shared by both tiers.
    fn call_host(
        &mut self,
        module: &Module,
        import_idx: usize,
        args: &[u64],
    ) -> Result<Option<u64>, Trap> {
        /// Arguments marshalled without touching the heap.
        const INLINE_ARGS: usize = 16;
        let imp = &module.imports[import_idx];
        let ty = &module.types[imp.type_idx as usize];
        let typed = args
            .iter()
            .zip(&ty.params)
            .map(|(s, t)| Val::from_slot(*s, *t));
        let mut inline = [Val::I32(0); INLINE_ARGS];
        let spilled: Vec<Val>;
        let vals: &[Val] = if args.len() <= INLINE_ARGS {
            for (slot, v) in inline.iter_mut().zip(typed) {
                *slot = v;
            }
            &inline[..args.len()]
        } else {
            spilled = typed.collect();
            &spilled
        };
        // Host work is charged a flat fuel cost so that guest code cannot
        // spin through free host calls.
        self.fuel.charge(16)?;
        let mut ctx = HostCtx {
            mem: self.mem.as_mut(),
            data: &mut *self.data,
        };
        let results = self.host_fns[import_idx].call(&mut ctx, vals)?;
        if results.len() != ty.results.len()
            || results.iter().zip(&ty.results).any(|(r, t)| r.ty() != *t)
        {
            return Err(Trap::Host(format!(
                "host function {}::{} returned wrong types",
                imp.module, imp.name
            )));
        }
        Ok(results.first().map(|v| v.to_slot()))
    }

    fn memory_size(&self) -> u64 {
        self.mem.as_ref().expect("validated").size_pages() as u32 as u64
    }

    /// `memory.grow`, shared by both tiers; off the steady path. Growing
    /// costs fuel proportional to pages zeroed.
    #[cold]
    #[inline(never)]
    fn memory_grow(&mut self, delta: u32) -> Result<u64, Trap> {
        self.fuel.charge(64 * delta as u64)?;
        let mem = self.mem.as_mut().expect("validated");
        Ok(match mem.grow(delta as usize) {
            Ok(old) => old as u32 as u64,
            Err(_) => -1i32 as u32 as u64,
        })
    }

    /// `memory.copy`, shared by both tiers; off the steady path.
    #[cold]
    #[inline(never)]
    fn memory_copy(&mut self, dst: u32, src: u32, len: u32) -> Result<(), Trap> {
        self.fuel.charge(len as u64 / 8)?;
        let mem = self.mem.as_mut().expect("validated");
        mem.copy_within(src as usize, dst as usize, len as usize)
            .map_err(|_| Trap::OutOfBoundsMemory {
                addr: src.max(dst) as u64,
                len,
            })
    }

    /// `memory.fill`, shared by both tiers; off the steady path.
    #[cold]
    #[inline(never)]
    fn memory_fill(&mut self, dst: u32, val: u32, len: u32) -> Result<(), Trap> {
        self.fuel.charge(len as u64 / 8)?;
        let mem = self.mem.as_mut().expect("validated");
        mem.fill(dst as usize, len as usize, val as u8)
            .map_err(|_| Trap::OutOfBoundsMemory {
                addr: dst as u64,
                len,
            })
    }
}

mod interp;
mod lowered;

#[cfg(test)]
mod tests;
