//! The Faasm Virtual Machine: a from-scratch, WebAssembly-style
//! software-fault-isolation engine.
//!
//! This crate is the reproduction's substitute for WebAssembly + WAVM in the
//! paper (§2.2, §3.4). It provides:
//!
//! * a binary **module format** with LEB128 encoding ([`encode`]/[`decode`]),
//! * a specification-style **validator** ([`validate()`]) performing full stack
//!   type-checking of untrusted code,
//! * an **object module** form with precomputed branch targets ([`object`]) —
//!   the "code generation" phase of Fig. 3,
//! * a bounds-checked, fuel-metered **interpreter** over linear memories
//!   provided by `faasm-mem` ([`instance`]),
//! * **host-function linking** via trusted thunks ([`host`]), and
//! * O(pages) **snapshot/restore** of full execution state
//!   ([`instance::InstanceSnapshot`]) — the mechanism behind Proto-Faaslets.
//!
//! # Examples
//!
//! ```
//! use faasm_fvm::prelude::*;
//!
//! // Untrusted phase: build a module (a toolchain would emit bytes).
//! let mut b = ModuleBuilder::new();
//! let sig = b.sig(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
//! let f = b.func(
//!     sig,
//!     vec![],
//!     vec![Instr::LocalGet(0), Instr::I32Const(1), Instr::I32Add, Instr::End],
//! );
//! b.export_func("inc", f);
//! let bytes = encode_module(&b.build());
//!
//! // Trusted phase: validate and lower (the production tier), then run.
//! let object = ObjectModule::compile(&bytes).unwrap();
//! let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
//! assert_eq!(inst.invoke("inc", &[Val::I32(41)]).unwrap(), Some(Val::I32(42)));
//! ```

#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod fuel;
pub mod host;
pub mod instance;
pub mod instr;
pub mod leb128;
mod lower;
pub mod module;
mod num;
pub mod object;
mod opcodes;
pub mod trap;
pub mod types;
pub mod validate;

pub use decode::{decode_module, DecodeError};
pub use encode::encode_module;
pub use fuel::{CpuController, FuelMeter};
pub use host::{HostCtx, HostFunc, LinkError, Linker};
pub use instance::{Instance, InstanceSnapshot, InstantiateError};
pub use instr::{Instr, MemArg};
pub use module::{ExportKind, Module, ModuleBuilder};
pub use object::{CompileError, ExecTier, ObjectModule};
pub use trap::Trap;
pub use types::{BlockType, FuncType, Val, ValType};
pub use validate::{validate, ValidateError};

/// Convenient glob-import surface for embedders and toolchains.
pub mod prelude {
    pub use crate::decode::decode_module;
    pub use crate::encode::encode_module;
    pub use crate::fuel::FuelMeter;
    pub use crate::host::{HostCtx, Linker};
    pub use crate::instance::{Instance, InstanceSnapshot};
    pub use crate::instr::{Instr, MemArg};
    pub use crate::module::{Module, ModuleBuilder};
    pub use crate::object::{ExecTier, ObjectModule};
    pub use crate::trap::Trap;
    pub use crate::types::{BlockType, FuncType, Val, ValType};
}
