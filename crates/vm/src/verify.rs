//! Static verifier run before any extension bytecode is attached.
//!
//! The checks are structural (the style of uBPF's verifier rather than the
//! Linux kernel's symbolic one): they guarantee the interpreter can never
//! leave the program text, execute an undefined opcode, touch an invalid
//! register, or divide by a constant zero. An opcode is defined when it has
//! a row in [`crate::isa::ISA`]; the other checks follow the row's form
//! (which registers it reads and writes, whether `off` is a jump or a
//! memory displacement). Memory safety is enforced
//! dynamically by [`crate::mem::MemoryMap`]; termination is enforced
//! dynamically by the fuel budget.

use crate::insn::{op, Program};
use crate::isa::{self, Off};
use crate::prep::{DOp, LoadedProgram};
use std::collections::HashSet;
use std::fmt;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    Empty,
    TooManyInstructions(usize),
    /// `pc` holds an opcode outside the implemented ISA.
    BadOpcode {
        pc: usize,
        opcode: u8,
    },
    /// A register operand outside r0..r10, or a write to r10.
    BadRegister {
        pc: usize,
        reg: u8,
    },
    WriteToFramePointer {
        pc: usize,
    },
    /// Jump to a target outside the program or into an `lddw` second slot.
    BadJumpTarget {
        pc: usize,
        target: i64,
    },
    /// Constant division/modulo by zero.
    ConstDivByZero {
        pc: usize,
    },
    /// `lddw` missing its second slot or second slot malformed.
    BadLddw {
        pc: usize,
    },
    /// Execution can fall through past the last instruction.
    FallThrough,
    /// `call` names a helper the host did not register.
    UnknownHelper {
        pc: usize,
        helper: u32,
    },
    /// Constant shift amount ≥ operand width.
    BadShift {
        pc: usize,
    },
    /// Constant-offset frame access provably outside `[r10-512, r10)`.
    OobStackAccess {
        pc: usize,
        mnemonic: &'static str,
        off: i32,
        size: u32,
    },
    /// A register is (or may be) read before any write ([`crate::absint`]).
    UninitRead {
        pc: usize,
        reg: u8,
        mnemonic: &'static str,
    },
    /// A block no path can reach, even with every branch edge considered
    /// possible ([`crate::absint`]).
    UnreachableCode {
        pc: usize,
    },
    /// The helper contract forbids this helper at this insertion point.
    HelperNotAllowed {
        pc: usize,
        helper: u32,
    },
    /// A pointer argument is a provably-invalid non-null constant.
    BadHelperArg {
        pc: usize,
        helper: u32,
        arg: u8,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::TooManyInstructions(n) => write!(f, "program too large: {n} slots"),
            VerifyError::BadOpcode { pc, opcode } => {
                write!(f, "invalid opcode {opcode:#04x} at pc {pc}")
            }
            VerifyError::BadRegister { pc, reg } => write!(f, "invalid register r{reg} at pc {pc}"),
            VerifyError::WriteToFramePointer { pc } => write!(f, "write to r10 at pc {pc}"),
            VerifyError::BadJumpTarget { pc, target } => {
                write!(f, "jump from pc {pc} to invalid target {target}")
            }
            VerifyError::ConstDivByZero { pc } => write!(f, "constant division by zero at pc {pc}"),
            VerifyError::BadLddw { pc } => write!(f, "malformed lddw at pc {pc}"),
            VerifyError::FallThrough => write!(f, "control can fall through past the program end"),
            VerifyError::UnknownHelper { pc, helper } => {
                write!(f, "call to unregistered helper {helper} at pc {pc}")
            }
            VerifyError::BadShift { pc } => write!(f, "oversized constant shift at pc {pc}"),
            VerifyError::OobStackAccess { pc, mnemonic, off, size } => {
                write!(
                    f,
                    "`{mnemonic}` at pc {pc}: frame access r10{off:+} of {size} bytes is outside [r10-512, r10)"
                )
            }
            VerifyError::UninitRead { pc, reg, mnemonic } => {
                write!(f, "`{mnemonic}` at pc {pc} reads r{reg} before any write")
            }
            VerifyError::UnreachableCode { pc } => {
                write!(f, "unreachable code starting at pc {pc}")
            }
            VerifyError::HelperNotAllowed { pc, helper } => {
                write!(f, "call at pc {pc}: helper {helper} is not allowed at this insertion point")
            }
            VerifyError::BadHelperArg { pc, helper, arg } => {
                write!(
                    f,
                    "call at pc {pc}: helper {helper} argument {arg} is a provably-invalid pointer"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Maximum program size in slots (same order as kernel eBPF's historic 4k).
pub const MAX_INSNS: usize = 65_536;

/// Reject constant-offset frame accesses that can only fault: `r10` is
/// fixed at load time, so `[r10+off, r10+off+size)` must sit inside the
/// 512-byte frame `[r10-512, r10)`.
fn check_frame_offset(pc: usize, insn: &crate::insn::Insn) -> Result<(), VerifyError> {
    let size = isa::access_size(insn.opcode) as i32;
    let off = i32::from(insn.offset);
    if off < -(crate::STACK_SIZE as i32) || off + size > 0 {
        return Err(VerifyError::OobStackAccess {
            pc,
            mnemonic: crate::insn::mnemonic(insn.opcode),
            off,
            size: size as u32,
        });
    }
    Ok(())
}

/// Verify `prog` against the set of helper ids the host will provide.
///
/// Returns `Ok(())` when the program is structurally safe to interpret.
pub fn verify(prog: &Program, known_helpers: &HashSet<u32>) -> Result<(), VerifyError> {
    let insns = &prog.insns;
    if insns.is_empty() {
        return Err(VerifyError::Empty);
    }
    if insns.len() > MAX_INSNS {
        return Err(VerifyError::TooManyInstructions(insns.len()));
    }

    // First pass: identify lddw second slots (not directly executable).
    let mut is_lddw_hi = vec![false; insns.len()];
    let mut pc = 0;
    while pc < insns.len() {
        if insns[pc].opcode == op::LDDW {
            if pc + 1 >= insns.len() {
                return Err(VerifyError::BadLddw { pc });
            }
            let hi = &insns[pc + 1];
            if hi.opcode != 0 || hi.dst != 0 || hi.src != 0 || hi.offset != 0 {
                return Err(VerifyError::BadLddw { pc });
            }
            is_lddw_hi[pc + 1] = true;
            pc += 2;
        } else {
            pc += 1;
        }
    }

    let check_reg = |pc: usize, reg: u8| -> Result<(), VerifyError> {
        if reg > 10 {
            Err(VerifyError::BadRegister { pc, reg })
        } else {
            Ok(())
        }
    };
    let check_dst_writable = |pc: usize, reg: u8| -> Result<(), VerifyError> {
        check_reg(pc, reg)?;
        if reg == 10 {
            Err(VerifyError::WriteToFramePointer { pc })
        } else {
            Ok(())
        }
    };

    for (pc, insn) in insns.iter().enumerate() {
        if is_lddw_hi[pc] {
            continue;
        }
        let Some(row) = isa::lookup(insn.opcode, insn.imm) else {
            return Err(VerifyError::BadOpcode { pc, opcode: insn.opcode });
        };
        let f = row.form;
        if f.off == Off::Jump {
            let target = pc as i64 + 1 + i64::from(insn.offset);
            if target < 0 || target >= insns.len() as i64 || is_lddw_hi[target as usize] {
                return Err(VerifyError::BadJumpTarget { pc, target });
            }
        }
        if f.dst.writes() {
            check_dst_writable(pc, insn.dst)?;
        } else if f.dst.reads() {
            check_reg(pc, insn.dst)?;
        }
        if f.src {
            check_reg(pc, insn.src)?;
        }
        match row.op {
            DOp::Div64Imm | DOp::Div32Imm | DOp::Mod64Imm | DOp::Mod32Imm if insn.imm == 0 => {
                return Err(VerifyError::ConstDivByZero { pc });
            }
            DOp::Lsh64Imm
            | DOp::Lsh32Imm
            | DOp::Rsh64Imm
            | DOp::Rsh32Imm
            | DOp::Arsh64Imm
            | DOp::Arsh32Imm => {
                let width: i64 = if insn.class() == op::CLS_ALU64 { 64 } else { 32 };
                if i64::from(insn.imm) >= width || insn.imm < 0 {
                    return Err(VerifyError::BadShift { pc });
                }
            }
            DOp::Call if !known_helpers.contains(&(insn.imm as u32)) => {
                return Err(VerifyError::UnknownHelper { pc, helper: insn.imm as u32 });
            }
            _ => {}
        }
        // The base register of a load is `src`, of a store `dst`.
        let base = if f.dst.writes() { insn.src } else { insn.dst };
        if f.off == Off::Mem && base == 10 {
            check_frame_offset(pc, insn)?;
        }
    }

    // Fall-through check: the last real instruction must be EXIT or an
    // unconditional backward JA.
    let last = insns.len() - 1;
    let last_real = if is_lddw_hi[last] { last - 1 } else { last };
    let li = &insns[last_real];
    let terminal = last_real == last
        && isa::lookup(li.opcode, li.imm).is_some_and(|r| matches!(r.op, DOp::Exit | DOp::Ja));
    if !terminal {
        return Err(VerifyError::FallThrough);
    }
    Ok(())
}

/// Verify `prog` and, on success, pre-decode it into the dense executable
/// form. This is the load-time entry point the VMM uses: all decoding and
/// jump-target resolution happens exactly once here, and the returned
/// [`LoadedProgram`] is guaranteed free of trap instructions.
pub fn verify_and_load(
    prog: &Program,
    known_helpers: &HashSet<u32>,
) -> Result<LoadedProgram, VerifyError> {
    verify_and_load_with(prog, known_helpers, &crate::absint::AnalysisOptions::default())
}

/// [`verify_and_load`] with explicit [`crate::absint`] options: the host
/// supplies per-insertion-point helper contracts so the analysis can prove
/// helper-returned pointers and reject contract violations at load time.
pub fn verify_and_load_with(
    prog: &Program,
    known_helpers: &HashSet<u32>,
    opts: &crate::absint::AnalysisOptions,
) -> Result<LoadedProgram, VerifyError> {
    verify(prog, known_helpers)?;
    let mut lp = LoadedProgram::load(prog);
    crate::absint::analyze(&mut lp, prog, opts)?;
    Ok(lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{build, Insn};

    fn helpers(ids: &[u32]) -> HashSet<u32> {
        ids.iter().copied().collect()
    }

    fn ok(insns: Vec<Insn>) -> Result<(), VerifyError> {
        verify(&Program::new(insns), &helpers(&[1, 2, 3]))
    }

    #[test]
    fn minimal_program_verifies() {
        assert_eq!(ok(vec![build::mov_imm(0, 0), build::exit()]), Ok(()));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(ok(vec![]), Err(VerifyError::Empty));
    }

    #[test]
    fn fall_through_rejected() {
        assert_eq!(ok(vec![build::mov_imm(0, 0)]), Err(VerifyError::FallThrough));
    }

    #[test]
    fn jump_out_of_range_rejected() {
        assert!(matches!(
            ok(vec![build::ja(5), build::exit()]),
            Err(VerifyError::BadJumpTarget { .. })
        ));
        assert!(matches!(
            ok(vec![build::jeq_imm(0, 0, -3), build::exit()]),
            Err(VerifyError::BadJumpTarget { .. })
        ));
    }

    #[test]
    fn jump_into_lddw_second_slot_rejected() {
        let [lo, hi] = build::lddw(1, 42);
        assert!(matches!(
            ok(vec![build::ja(1), lo, hi, build::exit()]),
            Err(VerifyError::BadJumpTarget { .. })
        ));
    }

    #[test]
    fn lddw_missing_half_rejected() {
        let [lo, _] = build::lddw(1, 42);
        assert!(matches!(ok(vec![lo]), Err(VerifyError::BadLddw { .. })));
    }

    #[test]
    fn write_to_r10_rejected() {
        assert!(matches!(
            ok(vec![build::mov_imm(10, 0), build::exit()]),
            Err(VerifyError::WriteToFramePointer { .. })
        ));
    }

    #[test]
    fn const_div_by_zero_rejected() {
        let div0 = Insn::new(op::CLS_ALU64 | op::ALU_DIV | op::SRC_K, 1, 0, 0, 0);
        assert!(matches!(ok(vec![div0, build::exit()]), Err(VerifyError::ConstDivByZero { .. })));
    }

    #[test]
    fn oversized_const_shift_rejected() {
        let sh = Insn::new(op::CLS_ALU64 | op::ALU_LSH | op::SRC_K, 1, 0, 0, 64);
        assert!(matches!(ok(vec![sh, build::exit()]), Err(VerifyError::BadShift { .. })));
        let sh32 = Insn::new(op::CLS_ALU | op::ALU_LSH | op::SRC_K, 1, 0, 0, 32);
        assert!(matches!(ok(vec![sh32, build::exit()]), Err(VerifyError::BadShift { .. })));
        let fine = Insn::new(op::CLS_ALU64 | op::ALU_LSH | op::SRC_K, 1, 0, 0, 63);
        assert_eq!(ok(vec![fine, build::exit()]), Ok(()));
    }

    #[test]
    fn unknown_helper_rejected() {
        assert!(matches!(
            ok(vec![build::call(99), build::exit()]),
            Err(VerifyError::UnknownHelper { helper: 99, .. })
        ));
        assert_eq!(ok(vec![build::call(2), build::exit()]), Ok(()));
    }

    #[test]
    fn undefined_opcode_rejected() {
        let bogus = Insn::new(0xff, 0, 0, 0, 0);
        assert!(matches!(ok(vec![bogus, build::exit()]), Err(VerifyError::BadOpcode { .. })));
        let bogus_alu = Insn::new(op::CLS_ALU64 | 0xe0, 0, 0, 0, 0);
        assert!(matches!(ok(vec![bogus_alu, build::exit()]), Err(VerifyError::BadOpcode { .. })));
    }

    #[test]
    fn bad_register_rejected() {
        let i = Insn::new(op::CLS_ALU64 | op::ALU_MOV | op::SRC_X, 3, 12, 0, 0);
        assert!(matches!(ok(vec![i, build::exit()]), Err(VerifyError::BadRegister { .. })));
    }

    #[test]
    fn backward_ja_as_terminal_is_allowed() {
        // A self-contained loop ending in `ja -n` cannot fall through; the
        // fuel budget bounds it at runtime.
        let prog = vec![build::mov_imm(0, 0), build::ja(-2)];
        assert_eq!(ok(prog), Ok(()));
    }

    /// Encodings that set a reserved bit of a defined instruction: the
    /// source bit of `ja`, `call`, `exit` and `neg`, and byte swaps in the
    /// `ALU64` class. They are not aliases: RFC 9669 defines `0xd7` as an
    /// unconditional byte swap, and LLVM emits `0x8d` as `callx`.
    #[test]
    fn reserved_bit_encodings_are_rejected() {
        for opcode in [0x0d, 0x8d, 0x9d, 0x8c, 0x8f, 0xd7, 0xdf] {
            let prog = Program::new(vec![Insn::new(opcode, 1, 0, 0, 16), build::exit()]);
            assert_eq!(
                verify(&prog, &helpers(&[16])),
                Err(VerifyError::BadOpcode { pc: 0, opcode })
            );
        }
    }

    #[test]
    fn end_requires_valid_width() {
        let be = Insn::new(op::CLS_ALU | op::ALU_END | op::SRC_X, 1, 0, 0, 16);
        assert_eq!(ok(vec![be, build::exit()]), Ok(()));
        let bad = Insn::new(op::CLS_ALU | op::ALU_END | op::SRC_X, 1, 0, 0, 24);
        assert!(matches!(ok(vec![bad, build::exit()]), Err(VerifyError::BadOpcode { .. })));
    }
}
