//! Disassembler: renders a program back into assembler-compatible text.
//!
//! The output of [`disassemble`] reassembles to identical bytecode, which
//! the round-trip tests rely on. Names and operand shapes come from the
//! ISA table, as in the assembler.

use crate::{slots, Slot};
use std::fmt::Write;
use xbgp_vm::insn::{op, Program};
use xbgp_vm::isa;

fn mem_operand(out: &mut String, reg: u8, off: i16) -> std::fmt::Result {
    if off == 0 {
        write!(out, "[r{reg}]")
    } else {
        write!(out, "[r{reg}{off:+}]")
    }
}

/// Render `prog` as assembly text, one instruction per line.
pub fn disassemble(prog: &Program) -> String {
    let mut out = String::new();
    let insns = &prog.insns;
    let mut pc = 0;
    while pc < insns.len() {
        let i = insns[pc];
        let Some(row) = isa::lookup(i.opcode, i.imm) else {
            let _ = writeln!(out, "; unknown opcode {:#04x}", i.opcode);
            pc += 1;
            continue;
        };
        out.push_str(row.name);
        for (k, slot) in slots(row.form).enumerate() {
            out.push_str(if k == 0 { " " } else { ", " });
            let _ = match slot {
                Slot::Dst => write!(out, "r{}", i.dst),
                Slot::Src => write!(out, "r{}", i.src),
                Slot::Imm if row.opcode == op::LDDW => {
                    // The second slot carries the upper half.
                    pc += 1;
                    let hi = insns.get(pc).map_or(0, |h| h.imm as u32);
                    write!(out, "{:#x}", u64::from(i.imm as u32) | (u64::from(hi) << 32))
                }
                Slot::Imm => write!(out, "{}", i.imm),
                Slot::Off => write!(out, "{:+}", i.offset),
                Slot::MemDst => mem_operand(&mut out, i.dst, i.offset),
                Slot::MemSrc => mem_operand(&mut out, i.src, i.offset),
            };
        }
        out.push('\n');
        pc += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_vm::insn::build;

    #[test]
    fn renders_basic_forms() {
        let prog = Program::new(vec![
            build::mov_imm(1, 5),
            build::mov_reg(2, 1),
            build::ldxw(0, 1, -4),
            build::stxw(10, 1, -8),
            build::call(3),
            build::exit(),
        ]);
        let text = disassemble(&prog);
        assert!(text.contains("mov r1, 5"));
        assert!(text.contains("mov r2, r1"));
        assert!(text.contains("ldxw r0, [r1-4]"));
        assert!(text.contains("stxw [r10-8], r1"));
        assert!(text.contains("call 3"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn zero_offset_memory_operand() {
        let prog = Program::new(vec![build::ldxb(0, 2, 0), build::exit()]);
        assert!(disassemble(&prog).contains("ldxb r0, [r2]"));
    }
}
