//! Traps: the runtime half of software-fault isolation.
//!
//! WebAssembly's security model backs its compile-time checks with runtime
//! traps (§2.2 of the paper). In the FVM every trap is a value returned
//! through `Result`; a trapped Faaslet is torn down and reset from its
//! Proto-Faaslet without affecting any other Faaslet in the process.

use std::fmt;

/// A runtime fault raised by guest execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// The `unreachable` instruction was executed.
    Unreachable,
    /// A linear-memory access fell outside the memory (the SFI bounds check).
    OutOfBoundsMemory {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        len: u32,
    },
    /// An indirect call used a table slot that is out of range.
    OutOfBoundsTable {
        /// The faulting table index.
        index: u32,
    },
    /// An indirect call hit an uninitialised table slot.
    UninitializedElement {
        /// The faulting table index.
        index: u32,
    },
    /// An indirect call's target had a different signature than expected.
    IndirectCallTypeMismatch,
    /// Integer division or remainder by zero.
    IntegerDivideByZero,
    /// Integer overflow (`i32::MIN / -1` and friends).
    IntegerOverflow,
    /// A float-to-int conversion of NaN or an out-of-range value.
    InvalidConversionToInteger,
    /// Guest recursion exceeded the configured call-depth limit.
    CallStackExhausted,
    /// The Faaslet's fuel allowance was exhausted (CPU limit; the cgroup
    /// analogue).
    OutOfFuel,
    /// `memory.grow` or a host `mmap`/`brk` exceeded the function's memory
    /// limit (§3.2).
    MemoryLimitExceeded,
    /// A host-interface call failed; carries the host's message.
    Host(String),
    /// An exported function was invoked with the wrong argument types.
    BadSignature {
        /// Human-readable description of the mismatch.
        expected: String,
    },
    /// The named export does not exist.
    NoSuchExport {
        /// The requested export name.
        name: String,
    },
}

impl Trap {
    /// Construct a host-error trap from any displayable error.
    pub fn host(err: impl fmt::Display) -> Trap {
        Trap::Host(err.to_string())
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::OutOfBoundsMemory { addr, len } => {
                write!(f, "out-of-bounds memory access at {addr:#x} len {len}")
            }
            Trap::OutOfBoundsTable { index } => write!(f, "table index {index} out of range"),
            Trap::UninitializedElement { index } => {
                write!(f, "uninitialised table element {index}")
            }
            Trap::IndirectCallTypeMismatch => write!(f, "indirect call type mismatch"),
            Trap::IntegerDivideByZero => write!(f, "integer divide by zero"),
            Trap::IntegerOverflow => write!(f, "integer overflow"),
            Trap::InvalidConversionToInteger => write!(f, "invalid conversion to integer"),
            Trap::CallStackExhausted => write!(f, "call stack exhausted"),
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::MemoryLimitExceeded => write!(f, "memory limit exceeded"),
            Trap::Host(msg) => write!(f, "host error: {msg}"),
            Trap::BadSignature { expected } => write!(f, "bad signature: expected {expected}"),
            Trap::NoSuchExport { name } => write!(f, "no such export: {name}"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let t = Trap::OutOfBoundsMemory {
            addr: 0x100,
            len: 8,
        };
        assert!(t.to_string().contains("0x100"));
        assert!(Trap::host("kv miss").to_string().contains("kv miss"));
        assert!(Trap::NoSuchExport {
            name: "main".into()
        }
        .to_string()
        .contains("main"));
    }
}
