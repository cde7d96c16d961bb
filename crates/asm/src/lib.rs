//! # xbgp-asm — eBPF assembler and disassembler
//!
//! xBGP extension code in the paper is C compiled to eBPF with clang. This
//! workspace has no offline BPF C toolchain, so extensions are written in
//! eBPF assembly instead and assembled to the *identical bytecode format*
//! the VM executes (see DESIGN.md, substitution table). The syntax follows
//! the ubpf/llvm conventions:
//!
//! ```text
//! ; Reject routes whose nexthop metric exceeds MAX_METRIC (Listing 1).
//! .equ MAX_METRIC, 1000
//!     call get_nexthop          ; r0 = &nexthop
//!     ldxw r6, [r0+0]           ; r6 = nexthop->igp_metric
//!     call get_peer_info        ; r0 = &peer
//!     ldxw r7, [r0+8]           ; r7 = peer->peer_type
//!     jeq r7, EBGP_SESSION, check_metric
//!     call next                 ; iBGP: do not filter
//! check_metric:
//!     jgt r6, MAX_METRIC, reject
//!     call next
//! reject:
//!     mov r0, FILTER_REJECT
//!     exit
//! ```
//!
//! * `;`, `#` and `//` start comments; labels end with `:`.
//! * `.equ NAME, value` defines a constant; the assembler also accepts an
//!   external symbol table (helper names and ABI constants from
//!   `xbgp-core`).
//! * Registers are `r0`..`r10`; memory operands are `[rX]`, `[rX+imm]`,
//!   `[rX-imm]`.
//! * `32`-suffixed mnemonics (`mov32`, `add32`, `jeq32`, …) select the
//!   32-bit ALU / JMP32 classes.

mod asm;
mod disasm;

pub use asm::{assemble, assemble_with_symbols, AsmError};
pub use disasm::disassemble;

use std::collections::HashMap;
use xbgp_vm::isa::{Dst, Form, Imm, Off};

/// One operand position in the text of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// `rD`
    Dst,
    /// `rS`
    Src,
    /// A constant or symbol (`lddw`'s is 64-bit).
    Imm,
    /// A jump: label or `+N`.
    Off,
    /// `[rD+off]`, a store's destination.
    MemDst,
    /// `[rS+off]`, a load's source.
    MemSrc,
}

/// The operands an instruction takes in source order, from what its form
/// reads: `ldxw r0, [r1+4]`, `stxw [r10-8], r1`, `stb [r10-1], 7`, and
/// otherwise `dst`, then `src` or `imm`, then the jump (`jeq r1, 5, out`).
fn slots(f: Form) -> impl Iterator<Item = Slot> {
    let on = |s: Slot, present: bool| present.then_some(s);
    let list = match f.off {
        Off::Mem if f.dst.writes() => [Some(Slot::Dst), Some(Slot::MemSrc), None, None],
        Off::Mem => {
            [Some(Slot::MemDst), Some(if f.src { Slot::Src } else { Slot::Imm }), None, None]
        }
        _ => [
            on(Slot::Dst, f.dst != Dst::Unused),
            on(Slot::Src, f.src),
            on(Slot::Imm, f.imm == Imm::Operand),
            on(Slot::Off, f.off == Off::Jump),
        ],
    };
    list.into_iter().flatten()
}

/// A symbol table mapping names (helper functions, ABI constants) to
/// numeric values for use as immediates or call targets.
pub type Symbols = HashMap<String, i64>;

/// Convenience builder for symbol tables.
pub fn symbols<I, S>(pairs: I) -> Symbols
where
    I: IntoIterator<Item = (S, i64)>,
    S: Into<String>,
{
    pairs.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_vm::insn::{build, op};
    use xbgp_vm::{ExecOutcome, LoadedProgram, MemoryMap, NoHelpers, VmConfig};

    fn run(src: &str) -> u64 {
        let prog = assemble(src).expect("assembles");
        let mut mem = MemoryMap::new();
        let lp = LoadedProgram::load(&prog);
        match lp.run(VmConfig::default(), &mut mem, &mut NoHelpers, &[]).unwrap() {
            ExecOutcome::Return(v) => v,
            ExecOutcome::Next => panic!("unexpected next"),
        }
    }

    #[test]
    fn trivial_program() {
        assert_eq!(run("mov r0, 42\nexit"), 42);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = r"
            ; a comment
            # another
            mov r0, 1   // trailing
            exit
        ";
        assert_eq!(run(src), 1);
    }

    #[test]
    fn arithmetic_and_registers() {
        let src = r"
            mov r1, 6
            mov r2, 7
            mov r0, r1
            mul r0, r2
            exit
        ";
        assert_eq!(run(src), 42);
    }

    #[test]
    fn labels_and_jumps() {
        let src = r"
            mov r0, 0
            mov r1, 10
        loop:
            add r0, r1
            sub r1, 1
            jne r1, 0, loop
            exit
        ";
        assert_eq!(run(src), 55);
    }

    #[test]
    fn forward_jump() {
        let src = r"
            mov r0, 1
            ja done
            mov r0, 2
        done:
            exit
        ";
        assert_eq!(run(src), 1);
    }

    #[test]
    fn equ_constants() {
        let src = r"
            .equ ANSWER, 42
            mov r0, ANSWER
            exit
        ";
        assert_eq!(run(src), 42);
    }

    #[test]
    fn external_symbols_and_call() {
        let syms = symbols([("my_helper", 7i64)]);
        let prog = assemble_with_symbols("call my_helper\nexit", &syms).unwrap();
        assert_eq!(prog.insns[0], build::call(7));
    }

    #[test]
    fn memory_operands() {
        let src = r"
            mov r1, 0x11223344
            stxw [r10-8], r1
            ldxw r0, [r10-8]
            exit
        ";
        assert_eq!(run(src), 0x1122_3344);
        let src = r"
            stb [r10-1], 0x7f
            ldxb r0, [r10-1]
            exit
        ";
        assert_eq!(run(src), 0x7f);
    }

    #[test]
    fn lddw_and_hex() {
        let src = r"
            lddw r0, 0xdeadbeefcafef00d
            exit
        ";
        assert_eq!(run(src), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn lddw_counts_two_slots_for_labels() {
        let src = r"
            lddw r1, 0x100000000
            ja end
            mov r0, 9
        end:
            mov r0, 5
            exit
        ";
        assert_eq!(run(src), 5);
    }

    #[test]
    fn byte_swaps() {
        assert_eq!(run("mov r0, 0x01020304\nbe32 r0\nexit"), u64::from(0x0102_0304u32.to_be()));
        assert_eq!(run("mov r0, 0x0102\nbe16 r0\nexit"), u64::from(0x0102u16.to_be()));
    }

    #[test]
    fn thirty_two_bit_mnemonics() {
        // add32 wraps at 32 bits.
        let src = r"
            mov r0, -1
            add32 r0, 1
            exit
        ";
        assert_eq!(run(src), 0);
        let prog = assemble("mov32 r0, 5\nexit").unwrap();
        assert_eq!(prog.insns[0].opcode, op::CLS_ALU | op::ALU_MOV | op::SRC_K);
    }

    #[test]
    fn negative_immediates() {
        assert_eq!(run("mov r0, -5\nneg r0\nexit") as i64, 5);
    }

    #[test]
    fn signed_jumps_assemble() {
        let src = r"
            mov r1, -1
            mov r0, 0
            jsgt r1, -2, yes
            ja done
        yes:
            mov r0, 1
        done:
            exit
        ";
        assert_eq!(run(src), 1);
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let err = assemble("mov r0, 1\nbogus r1, 2\nexit").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));

        let err = assemble("jeq r1, 0, nowhere\nexit").unwrap_err();
        assert!(err.to_string().contains("nowhere"));

        let err = assemble("mov r11, 1\nexit").unwrap_err();
        assert!(err.to_string().contains("register"));

        let err = assemble(".equ X\nexit").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("a:\nmov r0, 0\na:\nexit").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn disassemble_round_trip() {
        let src = r"
            mov r1, 10
            mov32 r2, -3
            lddw r3, 0xdeadbeefcafef00d
            ldxw r0, [r1+4]
            stxdw [r10-8], r2
            stb [r10-1], 7
            be32 r0
            jne r1, r2, +2
            call 13
            add r0, r1
            exit
        ";
        let syms = symbols([("13", 13i64)]);
        let _ = &syms;
        let prog = assemble(src).unwrap();
        let text = disassemble(&prog);
        let prog2 = assemble(&text).expect("disassembly reassembles");
        assert_eq!(prog.insns, prog2.insns);
    }

    #[test]
    fn label_on_same_line_as_insn() {
        let src = r"
            mov r0, 0
        here: add r0, 1
            jeq r0, 3, done
            ja here
        done: exit
        ";
        assert_eq!(run(src), 3);
    }
}
