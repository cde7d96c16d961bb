//! Runtime fault types for the eBPF interpreter.

use std::fmt;

/// A fault raised while executing extension bytecode.
///
/// Any of these aborts the program; the Virtual Machine Manager reacts by
/// falling back to the host implementation's native behaviour and recording
/// the failure (paper §2.1: "the VMM also monitors their execution and
/// stops them in case of error").
///
/// Every variant carries the faulting program counter (original slot
/// index, matching the verifier's numbering) so postmortem tooling can
/// point at the offending instruction: [`VmError::pc`] is the uniform
/// accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A memory access fell outside every registered region, crossed a
    /// region boundary, or wrote to a read-only region.
    MemFault {
        pc: usize,
        /// Virtual address of the access.
        addr: u64,
        /// Access width in bytes.
        size: usize,
        /// True for a store, false for a load.
        write: bool,
    },
    /// Division or modulo by zero at runtime.
    DivByZero { pc: usize },
    /// An opcode the interpreter does not implement (should be unreachable
    /// for verified programs).
    BadInstruction { pc: usize, opcode: u8 },
    /// The fuel budget was exhausted: the program ran too long. `pc` is
    /// the slot of the instruction where the check fired: the **branching
    /// instruction** of a taken back-edge (never the jump target) or the
    /// `call` site.
    FuelExhausted { pc: usize },
    /// `call` referenced a helper id with no registered implementation.
    UnknownHelper { pc: usize, helper: u32 },
    /// A helper function reported a failure.
    HelperFault {
        pc: usize,
        helper: u32,
        reason: String,
    },
    /// Shift amount >= operand width with the strict config enabled.
    BadShift { pc: usize, amount: u64 },
}

impl VmError {
    /// Stamp the faulting site onto errors constructed outside the
    /// interpreter loop.
    ///
    /// Helper dispatchers and the memory map cannot know the program
    /// counter, so they construct `UnknownHelper`/`HelperFault`/`MemFault`
    /// with a placeholder pc. The interpreter rewrites it at the
    /// call/load/store site; every other variant already carries its own
    /// pc and passes through.
    #[must_use]
    pub fn at_pc(self, pc: usize) -> VmError {
        match self {
            VmError::UnknownHelper { helper, .. } => VmError::UnknownHelper { pc, helper },
            VmError::HelperFault { helper, reason, .. } => {
                VmError::HelperFault { pc, helper, reason }
            }
            VmError::MemFault { addr, size, write, .. } => {
                VmError::MemFault { pc, addr, size, write }
            }
            other => other,
        }
    }

    /// The faulting program counter (original slot index).
    pub fn pc(&self) -> usize {
        match self {
            VmError::MemFault { pc, .. }
            | VmError::DivByZero { pc }
            | VmError::BadInstruction { pc, .. }
            | VmError::FuelExhausted { pc }
            | VmError::UnknownHelper { pc, .. }
            | VmError::HelperFault { pc, .. }
            | VmError::BadShift { pc, .. } => *pc,
        }
    }

    /// Small stable code for telemetry payloads (trace events).
    pub fn code(&self) -> u64 {
        match self {
            VmError::MemFault { .. } => 1,
            VmError::DivByZero { .. } => 2,
            VmError::BadInstruction { .. } => 3,
            VmError::FuelExhausted { .. } => 4,
            VmError::UnknownHelper { .. } => 5,
            VmError::HelperFault { .. } => 6,
            VmError::BadShift { .. } => 7,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MemFault { pc, addr, size, write } => write!(
                f,
                "memory fault: {} of {size} bytes at {addr:#x} (pc {pc})",
                if *write { "store" } else { "load" }
            ),
            VmError::DivByZero { pc } => write!(f, "division by zero at pc {pc}"),
            VmError::BadInstruction { pc, opcode } => {
                write!(
                    f,
                    "illegal instruction {opcode:#04x} (`{}`) at pc {pc}",
                    crate::insn::mnemonic(*opcode)
                )
            }
            VmError::FuelExhausted { pc } => {
                write!(f, "instruction budget exhausted at pc {pc}")
            }
            VmError::UnknownHelper { pc, helper } => {
                write!(f, "unknown helper {helper} called at pc {pc}")
            }
            VmError::HelperFault { pc, helper, reason } => {
                write!(f, "helper {helper} failed at pc {pc}: {reason}")
            }
            VmError::BadShift { pc, amount } => {
                write!(f, "oversized shift by {amount} at pc {pc}")
            }
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_direction() {
        let e = VmError::MemFault { pc: 0, addr: 0x10, size: 4, write: true };
        assert!(e.to_string().contains("store"));
        let e = VmError::MemFault { pc: 0, addr: 0x10, size: 4, write: false };
        assert!(e.to_string().contains("load"));
    }

    #[test]
    fn at_pc_stamps_externally_constructed_faults() {
        let e = VmError::MemFault { pc: 0, addr: 0x10, size: 8, write: false }.at_pc(42);
        assert_eq!(e.pc(), 42);
        let e = VmError::HelperFault { pc: 0, helper: 7, reason: "x".into() }.at_pc(9);
        assert_eq!(e.pc(), 9);
        // Variants stamped at construction pass through unchanged.
        let e = VmError::DivByZero { pc: 3 }.at_pc(99);
        assert_eq!(e.pc(), 3);
    }

    #[test]
    fn codes_are_distinct() {
        let errs = [
            VmError::MemFault { pc: 0, addr: 0, size: 0, write: false },
            VmError::DivByZero { pc: 0 },
            VmError::BadInstruction { pc: 0, opcode: 0 },
            VmError::FuelExhausted { pc: 0 },
            VmError::UnknownHelper { pc: 0, helper: 0 },
            VmError::HelperFault { pc: 0, helper: 0, reason: String::new() },
            VmError::BadShift { pc: 0, amount: 0 },
        ];
        let mut codes: Vec<u64> = errs.iter().map(VmError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }
}
