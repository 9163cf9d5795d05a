//! Object modules: the output of the trusted code-generation phase (§3.4).
//!
//! After validation, the module's structured control flow is scanned once to
//! produce branch side-tables (matching `end`/`else` positions for every
//! `block`/`loop`/`if`). This is the FVM's analogue of machine-code
//! generation: it turns the verified binary into a directly executable form
//! that the interpreter can run without re-analysing control flow. Object
//! modules are cached in the platform's object store and shared by every
//! instance of a function.

use std::sync::Arc;

use crate::decode::{decode_module, DecodeError};
use crate::encode::encode_module;
use crate::instr::Instr;
use crate::lower::{lower_module, LoweredFunc};
use crate::module::Module;
use crate::validate::{validate, ValidateError};

/// Which execution engine an [`ObjectModule`] is prepared for.
///
/// The interpreter is the reference implementation: it walks the structured
/// body directly. The lowered tier compiles each body into a flat array of
/// direct-threaded, fused ops at preparation time (see [`crate::lower`]) and
/// is observably identical — same results, traps and fuel accounting — while
/// dispatching a fraction of the ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// Tree-walking reference interpreter.
    Interpreter,
    /// Flat, fused, block-metered ops (the default production tier).
    #[default]
    Lowered,
}

/// Pre-resolved control-flow targets for one instruction position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlMeta {
    /// Position of the matching `end` (valid for `block`/`loop`/`if`).
    pub end_pc: u32,
    /// Position of the matching `else`, or `u32::MAX` if there is none.
    pub else_pc: u32,
}

impl Default for CtrlMeta {
    fn default() -> CtrlMeta {
        CtrlMeta {
            end_pc: 0,
            else_pc: u32::MAX,
        }
    }
}

/// Errors turning untrusted bytes into an object module.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The binary could not be decoded.
    Decode(DecodeError),
    /// The module failed validation.
    Validate(ValidateError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Decode(e) => write!(f, "decode error: {e}"),
            CompileError::Validate(e) => write!(f, "validation error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<DecodeError> for CompileError {
    fn from(e: DecodeError) -> CompileError {
        CompileError::Decode(e)
    }
}

impl From<ValidateError> for CompileError {
    fn from(e: ValidateError) -> CompileError {
        CompileError::Validate(e)
    }
}

/// A validated module plus its executable side-tables.
#[derive(Debug)]
pub struct ObjectModule {
    /// The validated module.
    pub module: Module,
    /// Per defined function, a side-table parallel to the body.
    pub(crate) ctrl: Vec<Vec<CtrlMeta>>,
    /// Lowered bodies, present when prepared for [`ExecTier::Lowered`].
    pub(crate) lowered: Option<Vec<LoweredFunc>>,
}

impl ObjectModule {
    /// Validate a structured module and build its side-tables, for the
    /// reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if the module is malformed.
    pub fn prepare(module: Module) -> Result<Arc<ObjectModule>, ValidateError> {
        ObjectModule::prepare_tier(module, ExecTier::Interpreter)
    }

    /// Validate, build side-tables and lower every body for the fast tier.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if the module is malformed.
    pub fn prepare_lowered(module: Module) -> Result<Arc<ObjectModule>, ValidateError> {
        ObjectModule::prepare_tier(module, ExecTier::Lowered)
    }

    /// Validate and prepare for the requested execution tier.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if the module is malformed.
    pub fn prepare_tier(
        module: Module,
        tier: ExecTier,
    ) -> Result<Arc<ObjectModule>, ValidateError> {
        validate(&module)?;
        let ctrl: Vec<Vec<CtrlMeta>> = module.funcs.iter().map(|f| side_table(&f.body)).collect();
        let lowered = match tier {
            ExecTier::Interpreter => None,
            ExecTier::Lowered => Some(lower_module(&module, &ctrl)),
        };
        Ok(Arc::new(ObjectModule {
            module,
            ctrl,
            lowered,
        }))
    }

    /// Decode, validate and prepare untrusted bytes — the full trusted half
    /// of the Fig. 3 pipeline — for the reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the bytes fail decoding or validation.
    pub fn compile(bytes: &[u8]) -> Result<Arc<ObjectModule>, CompileError> {
        ObjectModule::compile_tier(bytes, ExecTier::Interpreter)
    }

    /// Decode, validate and prepare untrusted bytes for a specific tier.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the bytes fail decoding or validation.
    pub fn compile_tier(bytes: &[u8], tier: ExecTier) -> Result<Arc<ObjectModule>, CompileError> {
        let module = decode_module(bytes)?;
        Ok(ObjectModule::prepare_tier(module, tier)?)
    }

    /// Whether this module carries lowered bodies (the fast tier).
    pub fn is_lowered(&self) -> bool {
        self.lowered.is_some()
    }

    /// The execution tier this object module was prepared for — what a
    /// module it loads at run time (`dlopen`) is prepared for too.
    pub fn tier(&self) -> ExecTier {
        if self.is_lowered() {
            ExecTier::Lowered
        } else {
            ExecTier::Interpreter
        }
    }

    /// Serialise the module for the shared object store.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_module(&self.module)
    }

    /// The side-table entry for function `local_idx` at instruction `pc`.
    pub(crate) fn meta(&self, local_idx: usize, pc: usize) -> CtrlMeta {
        self.ctrl[local_idx][pc]
    }
}

/// Compute the `end`/`else` positions for every structured instruction.
///
/// Validation guarantees well-nested bodies, so the scan cannot fail.
fn side_table(body: &[Instr]) -> Vec<CtrlMeta> {
    let mut meta = vec![CtrlMeta::default(); body.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => stack.push(pc),
            Instr::Else => {
                let open = *stack.last().expect("validated nesting");
                meta[open].else_pc = pc as u32;
                // The `else` itself needs the end position too, so the
                // then-arm can skip over the else-arm; store the opener so we
                // can back-patch when the `end` is found.
                meta[pc].end_pc = open as u32;
            }
            Instr::End => {
                if let Some(open) = stack.pop() {
                    meta[open].end_pc = pc as u32;
                    // Back-patch the matching `else`, if any.
                    let else_pc = meta[open].else_pc;
                    if else_pc != u32::MAX {
                        meta[else_pc as usize].end_pc = pc as u32;
                    }
                }
            }
            _ => {}
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::types::{BlockType, FuncType, ValType};
    use Instr::*;

    #[test]
    fn side_table_matches_nesting() {
        // 0: block        end at 6
        // 1:   if         else at 3, end at 5
        // 2:     nop
        // 3:   else
        // 4:     nop
        // 5:   end
        // 6: end
        // 7: end (function)
        let body = vec![
            Block(BlockType::Empty),
            If(BlockType::Empty),
            Nop,
            Else,
            Nop,
            End,
            End,
            End,
        ];
        // The `if` needs a condition for validation; test the raw scan.
        let meta = side_table(&body);
        assert_eq!(meta[0].end_pc, 6);
        assert_eq!(meta[1].else_pc, 3);
        assert_eq!(meta[1].end_pc, 5);
        assert_eq!(meta[3].end_pc, 5, "else knows its end");
    }

    #[test]
    fn prepare_rejects_invalid() {
        let mut b = ModuleBuilder::new();
        let sig = b.sig(FuncType::new(vec![], vec![ValType::I32]));
        b.func(sig, vec![], vec![End]); // missing result
        assert!(ObjectModule::prepare(b.build()).is_err());
    }

    #[test]
    fn compile_roundtrips_through_bytes() {
        let mut b = ModuleBuilder::new();
        let sig = b.sig(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
        let f = b.func(sig, vec![], vec![LocalGet(0), I32Const(1), I32Add, End]);
        b.export_func("inc", f);
        let m = b.build();
        let obj = ObjectModule::prepare(m.clone()).unwrap();
        let bytes = obj.to_bytes();
        let obj2 = ObjectModule::compile(&bytes).unwrap();
        assert_eq!(obj2.module, m);
    }

    #[test]
    fn compile_rejects_garbage() {
        assert!(matches!(
            ObjectModule::compile(b"not a module"),
            Err(CompileError::Decode(_))
        ));
    }
}
