//! eBPF instruction encoding.
//!
//! Instructions are the standard 8-byte eBPF slots:
//!
//! ```text
//! +--------+----+----+--------+------------+
//! | opcode |dst |src | offset | immediate  |
//! |  8 bit |4bit|4bit| 16 bit |   32 bit   |
//! +--------+----+----+--------+------------+
//! ```
//!
//! `lddw` (load 64-bit immediate) occupies two consecutive slots; the second
//! slot must have a zero opcode and carries the upper 32 bits in its
//! immediate field.

use std::fmt;

pub use crate::isa::mnemonic;

/// Opcode class and operation constants (mirrors `linux/bpf.h`).
pub mod op {
    // Instruction classes (low 3 bits).
    pub const CLS_LD: u8 = 0x00;
    pub const CLS_LDX: u8 = 0x01;
    pub const CLS_ST: u8 = 0x02;
    pub const CLS_STX: u8 = 0x03;
    pub const CLS_ALU: u8 = 0x04;
    pub const CLS_JMP: u8 = 0x05;
    pub const CLS_JMP32: u8 = 0x06;
    pub const CLS_ALU64: u8 = 0x07;

    /// Mask extracting the class.
    pub const CLS_MASK: u8 = 0x07;

    // Source modifier (bit 3) for ALU/JMP.
    pub const SRC_K: u8 = 0x00;
    pub const SRC_X: u8 = 0x08;

    // Size modifier (bits 3-4) for LD/LDX/ST/STX.
    pub const SIZE_W: u8 = 0x00;
    pub const SIZE_H: u8 = 0x08;
    pub const SIZE_B: u8 = 0x10;
    pub const SIZE_DW: u8 = 0x18;
    pub const SIZE_MASK: u8 = 0x18;

    // Mode modifier (bits 5-7) for LD/LDX/ST/STX.
    pub const MODE_IMM: u8 = 0x00;
    pub const MODE_MEM: u8 = 0x60;
    pub const MODE_MASK: u8 = 0xe0;

    // ALU / ALU64 operations (bits 4-7).
    pub const ALU_ADD: u8 = 0x00;
    pub const ALU_SUB: u8 = 0x10;
    pub const ALU_MUL: u8 = 0x20;
    pub const ALU_DIV: u8 = 0x30;
    pub const ALU_OR: u8 = 0x40;
    pub const ALU_AND: u8 = 0x50;
    pub const ALU_LSH: u8 = 0x60;
    pub const ALU_RSH: u8 = 0x70;
    pub const ALU_NEG: u8 = 0x80;
    pub const ALU_MOD: u8 = 0x90;
    pub const ALU_XOR: u8 = 0xa0;
    pub const ALU_MOV: u8 = 0xb0;
    pub const ALU_ARSH: u8 = 0xc0;
    pub const ALU_END: u8 = 0xd0;
    pub const ALU_OP_MASK: u8 = 0xf0;

    // JMP / JMP32 operations (bits 4-7).
    pub const JMP_JA: u8 = 0x00;
    pub const JMP_JEQ: u8 = 0x10;
    pub const JMP_JGT: u8 = 0x20;
    pub const JMP_JGE: u8 = 0x30;
    pub const JMP_JSET: u8 = 0x40;
    pub const JMP_JNE: u8 = 0x50;
    pub const JMP_JSGT: u8 = 0x60;
    pub const JMP_JSGE: u8 = 0x70;
    pub const JMP_CALL: u8 = 0x80;
    pub const JMP_EXIT: u8 = 0x90;
    pub const JMP_JLT: u8 = 0xa0;
    pub const JMP_JLE: u8 = 0xb0;
    pub const JMP_JSLT: u8 = 0xc0;
    pub const JMP_JSLE: u8 = 0xd0;

    /// `lddw`: 64-bit immediate load, two slots.
    pub const LDDW: u8 = CLS_LD | SIZE_DW | MODE_IMM; // 0x18
}

/// One decoded eBPF instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Insn {
    pub opcode: u8,
    pub dst: u8,
    pub src: u8,
    pub offset: i16,
    pub imm: i32,
}

impl Insn {
    /// Construct an instruction slot.
    pub fn new(opcode: u8, dst: u8, src: u8, offset: i16, imm: i32) -> Insn {
        Insn { opcode, dst, src, offset, imm }
    }

    /// Opcode class (low 3 bits).
    pub fn class(&self) -> u8 {
        self.opcode & op::CLS_MASK
    }

    /// Encode to the canonical 8-byte little-endian slot layout.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0] = self.opcode;
        b[1] = (self.src << 4) | (self.dst & 0x0f);
        b[2..4].copy_from_slice(&self.offset.to_le_bytes());
        b[4..8].copy_from_slice(&self.imm.to_le_bytes());
        b
    }

    /// Decode from an 8-byte slot.
    pub fn from_bytes(b: &[u8; 8]) -> Insn {
        Insn {
            opcode: b[0],
            dst: b[1] & 0x0f,
            src: b[1] >> 4,
            offset: i16::from_le_bytes([b[2], b[3]]),
            imm: i32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dst=r{} src=r{} off={} imm={}",
            mnemonic(self.opcode),
            self.dst,
            self.src,
            self.offset,
            self.imm
        )
    }
}

/// A verified-or-not sequence of instructions plus its bytecode form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    pub insns: Vec<Insn>,
}

impl Program {
    pub fn new(insns: Vec<Insn>) -> Program {
        Program { insns }
    }

    /// Total slot count (each `lddw` counts as two).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Serialize to flat bytecode (slot-per-8-bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.insns.len() * 8);
        for i in &self.insns {
            out.extend_from_slice(&i.to_bytes());
        }
        out
    }

    /// Deserialize from flat bytecode. Fails if the length is not a
    /// multiple of 8.
    pub fn from_bytes(data: &[u8]) -> Result<Program, String> {
        if !data.len().is_multiple_of(8) {
            return Err(format!("bytecode length {} not a multiple of 8", data.len()));
        }
        let insns = data
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                Insn::from_bytes(&b)
            })
            .collect();
        Ok(Program { insns })
    }
}

/// Convenience constructors used by tests and the assembler's builder API.
pub mod build {
    use super::{op, Insn};

    /// `mov dst, imm` (64-bit).
    pub fn mov_imm(dst: u8, imm: i32) -> Insn {
        Insn::new(op::CLS_ALU64 | op::ALU_MOV | op::SRC_K, dst, 0, 0, imm)
    }
    /// `mov dst, src` (64-bit).
    pub fn mov_reg(dst: u8, src: u8) -> Insn {
        Insn::new(op::CLS_ALU64 | op::ALU_MOV | op::SRC_X, dst, src, 0, 0)
    }
    /// `add dst, imm` (64-bit).
    pub fn add_imm(dst: u8, imm: i32) -> Insn {
        Insn::new(op::CLS_ALU64 | op::ALU_ADD | op::SRC_K, dst, 0, 0, imm)
    }
    /// `add dst, src` (64-bit).
    pub fn add_reg(dst: u8, src: u8) -> Insn {
        Insn::new(op::CLS_ALU64 | op::ALU_ADD | op::SRC_X, dst, src, 0, 0)
    }
    /// `lddw dst, imm64` — expands to two slots.
    pub fn lddw(dst: u8, imm: u64) -> [Insn; 2] {
        [
            Insn::new(op::LDDW, dst, 0, 0, imm as u32 as i32),
            Insn::new(0, 0, 0, 0, (imm >> 32) as u32 as i32),
        ]
    }
    /// `ldxdw dst, [src+off]`.
    pub fn ldxdw(dst: u8, src: u8, off: i16) -> Insn {
        Insn::new(op::CLS_LDX | op::SIZE_DW | op::MODE_MEM, dst, src, off, 0)
    }
    /// `ldxw dst, [src+off]`.
    pub fn ldxw(dst: u8, src: u8, off: i16) -> Insn {
        Insn::new(op::CLS_LDX | op::SIZE_W | op::MODE_MEM, dst, src, off, 0)
    }
    /// `ldxb dst, [src+off]`.
    pub fn ldxb(dst: u8, src: u8, off: i16) -> Insn {
        Insn::new(op::CLS_LDX | op::SIZE_B | op::MODE_MEM, dst, src, off, 0)
    }
    /// `stxdw [dst+off], src`.
    pub fn stxdw(dst: u8, src: u8, off: i16) -> Insn {
        Insn::new(op::CLS_STX | op::SIZE_DW | op::MODE_MEM, dst, src, off, 0)
    }
    /// `stxw [dst+off], src`.
    pub fn stxw(dst: u8, src: u8, off: i16) -> Insn {
        Insn::new(op::CLS_STX | op::SIZE_W | op::MODE_MEM, dst, src, off, 0)
    }
    /// `stb [dst+off], imm`.
    pub fn stb(dst: u8, off: i16, imm: i32) -> Insn {
        Insn::new(op::CLS_ST | op::SIZE_B | op::MODE_MEM, dst, 0, off, imm)
    }
    /// `ja +off`.
    pub fn ja(off: i16) -> Insn {
        Insn::new(op::CLS_JMP | op::JMP_JA, 0, 0, off, 0)
    }
    /// `jeq dst, imm, +off`.
    pub fn jeq_imm(dst: u8, imm: i32, off: i16) -> Insn {
        Insn::new(op::CLS_JMP | op::JMP_JEQ | op::SRC_K, dst, 0, off, imm)
    }
    /// `jne dst, imm, +off`.
    pub fn jne_imm(dst: u8, imm: i32, off: i16) -> Insn {
        Insn::new(op::CLS_JMP | op::JMP_JNE | op::SRC_K, dst, 0, off, imm)
    }
    /// `call helper_id`.
    pub fn call(helper: u32) -> Insn {
        Insn::new(op::CLS_JMP | op::JMP_CALL, 0, 0, 0, helper as i32)
    }
    /// `exit`.
    pub fn exit() -> Insn {
        Insn::new(op::CLS_JMP | op::JMP_EXIT, 0, 0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slot_encoding_round_trip() {
        let i = Insn::new(op::CLS_ALU64 | op::ALU_ADD | op::SRC_X, 3, 7, -42, 0x1234_5678);
        assert_eq!(Insn::from_bytes(&i.to_bytes()), i);
    }

    #[test]
    fn program_bytes_round_trip() {
        let p = Program::new(vec![build::mov_imm(0, 7), build::exit()]);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 16);
        assert_eq!(Program::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn odd_length_bytecode_rejected() {
        assert!(Program::from_bytes(&[0u8; 7]).is_err());
    }

    #[test]
    fn lddw_builder_produces_two_slots() {
        let [a, b] = build::lddw(1, 0xdead_beef_cafe_f00d);
        assert_eq!(a.opcode, op::LDDW);
        assert_eq!(a.imm as u32, 0xcafe_f00d);
        assert_eq!(b.opcode, 0);
        assert_eq!(b.imm as u32, 0xdead_beef);
    }

    proptest! {
        #[test]
        fn prop_insn_round_trip(opcode: u8, dst in 0u8..16, src in 0u8..16, offset: i16, imm: i32) {
            let i = Insn::new(opcode, dst, src, offset, imm);
            prop_assert_eq!(Insn::from_bytes(&i.to_bytes()), i);
        }
    }
}
