//! The ISA table is the one description of the instruction set: for every
//! opcode byte, with canonical fields, the verifier, the table, the loader,
//! the mnemonic and the assembler ↔ disassembler loop must agree on
//! whether it is an instruction.

use std::collections::HashSet;
use xbgp_asm::{assemble, disassemble};
use xbgp_vm::insn::{build, mnemonic, op, Insn, Program};
use xbgp_vm::isa::{self, Dst, Imm};
use xbgp_vm::{verify, LoadedProgram, MemoryMap, NoHelpers, VmConfig, VmError};

/// `mnemonic(b)` of every accepted byte, as it read before the table
/// existed, so verifier and postmortem messages are unchanged.
const MNEMONICS: &str = "
    04 add32 05 ja 07 add 0c add32 0f add 14 sub32 15 jeq 16 jeq32
    17 sub 18 lddw 1c sub32 1d jeq 1e jeq32 1f sub 24 mul32 25 jgt
    26 jgt32 27 mul 2c mul32 2d jgt 2e jgt32 2f mul 34 div32 35 jge
    36 jge32 37 div 3c div32 3d jge 3e jge32 3f div 44 or32 45 jset
    46 jset32 47 or 4c or32 4d jset 4e jset32 4f or 54 and32 55 jne
    56 jne32 57 and 5c and32 5d jne 5e jne32 5f and 61 ldxw 62 stw
    63 stxw 64 lsh32 65 jsgt 66 jsgt32 67 lsh 69 ldxh 6a sth 6b stxh
    6c lsh32 6d jsgt 6e jsgt32 6f lsh 71 ldxb 72 stb 73 stxb 74 rsh32
    75 jsge 76 jsge32 77 rsh 79 ldxdw 7a stdw 7b stxdw 7c rsh32 7d jsge
    7e jsge32 7f rsh 84 neg32 85 call 87 neg 94 mod32 95 exit 97 mod
    9c mod32 9f mod a4 xor32 a5 jlt a6 jlt32 a7 xor ac xor32 ad jlt
    ae jlt32 af xor b4 mov32 b5 jle b6 jle32 b7 mov bc mov32 bd jle
    be jle32 bf mov c4 arsh32 c5 jslt c6 jslt32 c7 arsh cc arsh32 cd jslt
    ce jslt32 cf arsh d4 le d5 jsle d6 jsle32 dc be dd jsle de jsle32
";

/// `opcode` with `dst` = r1, `src` = r2, `off` = 0 and `imm`, then the
/// fields its row (if any) does not read zeroed; `lddw` gets its second
/// slot. Followed by `exit`.
fn canonical(opcode: u8, imm: i32) -> Program {
    let mut insn = Insn::new(opcode, 1, 2, 0, imm);
    if let Some(row) = isa::lookup(opcode, imm) {
        let f = row.form;
        if f.dst == Dst::Unused {
            insn.dst = 0;
        }
        if !f.src {
            insn.src = 0;
        }
        if f.imm == Imm::Unused {
            insn.imm = 0;
        }
    }
    let mut insns = vec![insn];
    if opcode == op::LDDW {
        insns.push(Insn::default());
    }
    insns.push(build::exit());
    Program::new(insns)
}

#[test]
fn every_opcode_byte_agrees_across_the_toolchain() {
    let helpers: HashSet<u32> = [1].into();
    let mut accepted = Vec::new();
    for b in 0..=255u8 {
        // Byte swaps are keyed by width; try every width on their op bits.
        let is_swap = b & op::ALU_OP_MASK == op::ALU_END;
        let imms: &[i32] = if is_swap { &[16, 32, 64, 24] } else { &[1] };
        let mut any = false;
        for &imm in imms {
            let p = canonical(b, imm);
            let verified = verify(&p, &helpers).is_ok();
            let row = isa::lookup(b, imm).is_some();
            let run = LoadedProgram::load(&p).run(
                VmConfig::default(),
                &mut MemoryMap::new(),
                &mut NoHelpers,
                &[],
            );
            let decoded = !matches!(run, Err(VmError::BadInstruction { pc: 0, .. }));
            let round_trip = assemble(&disassemble(&p)).is_ok_and(|q| q == p);
            assert_eq!(
                [row, decoded, round_trip],
                [verified; 3],
                "{b:#04x} imm {imm}: [row, decoded, round trip] vs verified"
            );
            any |= verified;
        }
        assert_eq!(mnemonic(b) != "?", any, "{b:#04x}: mnemonic {}", mnemonic(b));
        if any {
            accepted.push(format!("{b:02x} {}", mnemonic(b)));
        }
    }
    assert_eq!(accepted.len(), 112);
    assert_eq!(accepted.join(" "), MNEMONICS.split_whitespace().collect::<Vec<_>>().join(" "));
}
