//! The instruction set, written down once.
//!
//! [`ISA`] has one row per canonical instruction: its opcode byte, its
//! assembler name, the `DOp` the loader decodes it to, and its [`Form`]
//! — which of the slot's `dst` / `src` / `off` / `imm` fields it reads.
//! The byte swaps share two opcode bytes and are told apart by the width
//! in `imm`, so they are keyed by it ([`Imm::Width`]).
//!
//! Every consumer reads this table: the verifier rejects a slot with no
//! row and checks the rest by form, the loader decodes through it, the
//! abstract interpreter classifies decoded ops by form, and the
//! assembler, the disassembler and [`mnemonic`] take names and operand
//! shapes from it. A new instruction is one row here plus one arm in the
//! interpreter. The rows follow RFC 9669 for the opcodes this VM
//! implements; an encoding that has no row is not part of the ISA.

use crate::prep::DOp;

/// What an instruction does with its `dst` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    Unused,
    /// Read only: a compare operand or a store's base address.
    Read,
    /// Written without being read: `mov`, `lddw`, loads.
    Write,
    /// Read and written: ALU operations and byte swaps.
    ReadWrite,
}

impl Dst {
    pub fn reads(self) -> bool {
        matches!(self, Dst::Read | Dst::ReadWrite)
    }

    pub fn writes(self) -> bool {
        matches!(self, Dst::Write | Dst::ReadWrite)
    }
}

/// What an instruction does with its `off` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Off {
    Unused,
    /// Slot-relative jump displacement.
    Jump,
    /// Memory displacement from the base register (`src` for loads,
    /// `dst` for stores).
    Mem,
}

/// What an instruction does with its `imm` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Imm {
    Unused,
    /// An operand: ALU/compare constant, stored value, helper id, or the
    /// low half of `lddw`'s 64-bit constant.
    Operand,
    /// Part of the encoding: a byte swap's width, which selects the row.
    Width(i32),
}

/// Which fields of a slot an instruction reads. `call` and `exit` also
/// use registers implicitly (r1–r5 and r0), which no form records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Form {
    pub dst: Dst,
    /// Whether the `src` register is read.
    pub src: bool,
    pub off: Off,
    pub imm: Imm,
}

const fn form(dst: Dst, src: bool, off: Off, imm: Imm) -> Form {
    Form { dst, src, off, imm }
}

const ALU_K: Form = form(Dst::ReadWrite, false, Off::Unused, Imm::Operand);
const ALU_X: Form = form(Dst::ReadWrite, true, Off::Unused, Imm::Unused);
const MOV_K: Form = form(Dst::Write, false, Off::Unused, Imm::Operand);
const MOV_X: Form = form(Dst::Write, true, Off::Unused, Imm::Unused);
const NEG: Form = form(Dst::ReadWrite, false, Off::Unused, Imm::Unused);
const fn swap(width: i32) -> Form {
    form(Dst::ReadWrite, false, Off::Unused, Imm::Width(width))
}
const JMP_K: Form = form(Dst::Read, false, Off::Jump, Imm::Operand);
const JMP_X: Form = form(Dst::Read, true, Off::Jump, Imm::Unused);
const JA: Form = form(Dst::Unused, false, Off::Jump, Imm::Unused);
const CALL: Form = form(Dst::Unused, false, Off::Unused, Imm::Operand);
const EXIT: Form = form(Dst::Unused, false, Off::Unused, Imm::Unused);
const LOAD: Form = form(Dst::Write, true, Off::Mem, Imm::Unused);
const STORE_K: Form = form(Dst::Read, false, Off::Mem, Imm::Operand);
const STORE_X: Form = form(Dst::Read, true, Off::Mem, Imm::Unused);
const LDDW: Form = form(Dst::Write, false, Off::Unused, Imm::Operand);

/// One canonical instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub opcode: u8,
    pub name: &'static str,
    pub(crate) op: DOp,
    pub form: Form,
}

const fn row(opcode: u8, name: &'static str, op: DOp, form: Form) -> Row {
    Row { opcode, name, op, form }
}

/// The instruction set, sorted by opcode byte (byte swaps by width).
pub const ISA: &[Row] = &[
    row(0x04, "add32", DOp::Add32Imm, ALU_K),
    row(0x05, "ja", DOp::Ja, JA),
    row(0x07, "add", DOp::Add64Imm, ALU_K),
    row(0x0c, "add32", DOp::Add32Reg, ALU_X),
    row(0x0f, "add", DOp::Add64Reg, ALU_X),
    row(0x14, "sub32", DOp::Sub32Imm, ALU_K),
    row(0x15, "jeq", DOp::Jeq64Imm, JMP_K),
    row(0x16, "jeq32", DOp::Jeq32Imm, JMP_K),
    row(0x17, "sub", DOp::Sub64Imm, ALU_K),
    row(0x18, "lddw", DOp::LdDw, LDDW),
    row(0x1c, "sub32", DOp::Sub32Reg, ALU_X),
    row(0x1d, "jeq", DOp::Jeq64Reg, JMP_X),
    row(0x1e, "jeq32", DOp::Jeq32Reg, JMP_X),
    row(0x1f, "sub", DOp::Sub64Reg, ALU_X),
    row(0x24, "mul32", DOp::Mul32Imm, ALU_K),
    row(0x25, "jgt", DOp::Jgt64Imm, JMP_K),
    row(0x26, "jgt32", DOp::Jgt32Imm, JMP_K),
    row(0x27, "mul", DOp::Mul64Imm, ALU_K),
    row(0x2c, "mul32", DOp::Mul32Reg, ALU_X),
    row(0x2d, "jgt", DOp::Jgt64Reg, JMP_X),
    row(0x2e, "jgt32", DOp::Jgt32Reg, JMP_X),
    row(0x2f, "mul", DOp::Mul64Reg, ALU_X),
    row(0x34, "div32", DOp::Div32Imm, ALU_K),
    row(0x35, "jge", DOp::Jge64Imm, JMP_K),
    row(0x36, "jge32", DOp::Jge32Imm, JMP_K),
    row(0x37, "div", DOp::Div64Imm, ALU_K),
    row(0x3c, "div32", DOp::Div32Reg, ALU_X),
    row(0x3d, "jge", DOp::Jge64Reg, JMP_X),
    row(0x3e, "jge32", DOp::Jge32Reg, JMP_X),
    row(0x3f, "div", DOp::Div64Reg, ALU_X),
    row(0x44, "or32", DOp::Or32Imm, ALU_K),
    row(0x45, "jset", DOp::Jset64Imm, JMP_K),
    row(0x46, "jset32", DOp::Jset32Imm, JMP_K),
    row(0x47, "or", DOp::Or64Imm, ALU_K),
    row(0x4c, "or32", DOp::Or32Reg, ALU_X),
    row(0x4d, "jset", DOp::Jset64Reg, JMP_X),
    row(0x4e, "jset32", DOp::Jset32Reg, JMP_X),
    row(0x4f, "or", DOp::Or64Reg, ALU_X),
    row(0x54, "and32", DOp::And32Imm, ALU_K),
    row(0x55, "jne", DOp::Jne64Imm, JMP_K),
    row(0x56, "jne32", DOp::Jne32Imm, JMP_K),
    row(0x57, "and", DOp::And64Imm, ALU_K),
    row(0x5c, "and32", DOp::And32Reg, ALU_X),
    row(0x5d, "jne", DOp::Jne64Reg, JMP_X),
    row(0x5e, "jne32", DOp::Jne32Reg, JMP_X),
    row(0x5f, "and", DOp::And64Reg, ALU_X),
    row(0x61, "ldxw", DOp::LdxW, LOAD),
    row(0x62, "stw", DOp::StW, STORE_K),
    row(0x63, "stxw", DOp::StxW, STORE_X),
    row(0x64, "lsh32", DOp::Lsh32Imm, ALU_K),
    row(0x65, "jsgt", DOp::Jsgt64Imm, JMP_K),
    row(0x66, "jsgt32", DOp::Jsgt32Imm, JMP_K),
    row(0x67, "lsh", DOp::Lsh64Imm, ALU_K),
    row(0x69, "ldxh", DOp::LdxH, LOAD),
    row(0x6a, "sth", DOp::StH, STORE_K),
    row(0x6b, "stxh", DOp::StxH, STORE_X),
    row(0x6c, "lsh32", DOp::Lsh32Reg, ALU_X),
    row(0x6d, "jsgt", DOp::Jsgt64Reg, JMP_X),
    row(0x6e, "jsgt32", DOp::Jsgt32Reg, JMP_X),
    row(0x6f, "lsh", DOp::Lsh64Reg, ALU_X),
    row(0x71, "ldxb", DOp::LdxB, LOAD),
    row(0x72, "stb", DOp::StB, STORE_K),
    row(0x73, "stxb", DOp::StxB, STORE_X),
    row(0x74, "rsh32", DOp::Rsh32Imm, ALU_K),
    row(0x75, "jsge", DOp::Jsge64Imm, JMP_K),
    row(0x76, "jsge32", DOp::Jsge32Imm, JMP_K),
    row(0x77, "rsh", DOp::Rsh64Imm, ALU_K),
    row(0x79, "ldxdw", DOp::LdxDw, LOAD),
    row(0x7a, "stdw", DOp::StDw, STORE_K),
    row(0x7b, "stxdw", DOp::StxDw, STORE_X),
    row(0x7c, "rsh32", DOp::Rsh32Reg, ALU_X),
    row(0x7d, "jsge", DOp::Jsge64Reg, JMP_X),
    row(0x7e, "jsge32", DOp::Jsge32Reg, JMP_X),
    row(0x7f, "rsh", DOp::Rsh64Reg, ALU_X),
    row(0x84, "neg32", DOp::Neg32, NEG),
    row(0x85, "call", DOp::Call, CALL),
    row(0x87, "neg", DOp::Neg64, NEG),
    row(0x94, "mod32", DOp::Mod32Imm, ALU_K),
    row(0x95, "exit", DOp::Exit, EXIT),
    row(0x97, "mod", DOp::Mod64Imm, ALU_K),
    row(0x9c, "mod32", DOp::Mod32Reg, ALU_X),
    row(0x9f, "mod", DOp::Mod64Reg, ALU_X),
    row(0xa4, "xor32", DOp::Xor32Imm, ALU_K),
    row(0xa5, "jlt", DOp::Jlt64Imm, JMP_K),
    row(0xa6, "jlt32", DOp::Jlt32Imm, JMP_K),
    row(0xa7, "xor", DOp::Xor64Imm, ALU_K),
    row(0xac, "xor32", DOp::Xor32Reg, ALU_X),
    row(0xad, "jlt", DOp::Jlt64Reg, JMP_X),
    row(0xae, "jlt32", DOp::Jlt32Reg, JMP_X),
    row(0xaf, "xor", DOp::Xor64Reg, ALU_X),
    row(0xb4, "mov32", DOp::Mov32Imm, MOV_K),
    row(0xb5, "jle", DOp::Jle64Imm, JMP_K),
    row(0xb6, "jle32", DOp::Jle32Imm, JMP_K),
    row(0xb7, "mov", DOp::Mov64Imm, MOV_K),
    row(0xbc, "mov32", DOp::Mov32Reg, MOV_X),
    row(0xbd, "jle", DOp::Jle64Reg, JMP_X),
    row(0xbe, "jle32", DOp::Jle32Reg, JMP_X),
    row(0xbf, "mov", DOp::Mov64Reg, MOV_X),
    row(0xc4, "arsh32", DOp::Arsh32Imm, ALU_K),
    row(0xc5, "jslt", DOp::Jslt64Imm, JMP_K),
    row(0xc6, "jslt32", DOp::Jslt32Imm, JMP_K),
    row(0xc7, "arsh", DOp::Arsh64Imm, ALU_K),
    row(0xcc, "arsh32", DOp::Arsh32Reg, ALU_X),
    row(0xcd, "jslt", DOp::Jslt64Reg, JMP_X),
    row(0xce, "jslt32", DOp::Jslt32Reg, JMP_X),
    row(0xcf, "arsh", DOp::Arsh64Reg, ALU_X),
    row(0xd4, "le16", DOp::Le16, swap(16)),
    row(0xd4, "le32", DOp::Le32, swap(32)),
    row(0xd4, "le64", DOp::Le64, swap(64)),
    row(0xd5, "jsle", DOp::Jsle64Imm, JMP_K),
    row(0xd6, "jsle32", DOp::Jsle32Imm, JMP_K),
    row(0xdc, "be16", DOp::Be16, swap(16)),
    row(0xdc, "be32", DOp::Be32, swap(32)),
    row(0xdc, "be64", DOp::Be64, swap(64)),
    row(0xdd, "jsle", DOp::Jsle64Reg, JMP_X),
    row(0xde, "jsle32", DOp::Jsle32Reg, JMP_X),
];

const NONE: u8 = u8::MAX;
const _: () = assert!(ISA.len() < NONE as usize);

/// Index of each opcode byte's first row, or [`NONE`].
const FIRST: [u8; 256] = {
    let mut first = [NONE; 256];
    let mut i = ISA.len();
    while i > 0 {
        i -= 1;
        first[ISA[i].opcode as usize] = i as u8;
    }
    first
};

/// Index of each decoded op's row, or [`NONE`] (`DivZero`, `Trap`).
const OF_OP: [u8; DOp::Trap as usize + 1] = {
    let mut of = [NONE; DOp::Trap as usize + 1];
    let mut i = 0;
    while i < ISA.len() {
        of[ISA[i].op as usize] = i as u8;
        i += 1;
    }
    of
};

fn rows_of(opcode: u8) -> &'static [Row] {
    match FIRST[opcode as usize] {
        NONE => &[],
        i => {
            let rest = &ISA[i as usize..];
            &rest[..rest.iter().take_while(|r| r.opcode == opcode).count()]
        }
    }
}

/// The instruction a slot encodes, or `None` when it is not in the ISA.
pub fn lookup(opcode: u8, imm: i32) -> Option<&'static Row> {
    rows_of(opcode).iter().find(|r| match r.form.imm {
        Imm::Width(w) => w == imm,
        _ => true,
    })
}

/// The row a decoded op came from.
pub(crate) fn row_of(op: DOp) -> Option<&'static Row> {
    ISA.get(OF_OP[op as usize] as usize)
}

/// Width in bytes of a load or store, from its size bits.
pub(crate) fn access_size(opcode: u8) -> u32 {
    match opcode & crate::insn::op::SIZE_MASK {
        crate::insn::op::SIZE_B => 1,
        crate::insn::op::SIZE_H => 2,
        crate::insn::op::SIZE_W => 4,
        _ => 8,
    }
}

/// Assembler mnemonic for an opcode byte, or `"?"` for a byte outside
/// the ISA. Diagnostics (verifier errors, lint output, runtime
/// postmortems) use this so operators never have to decode raw bytes. A
/// byte swap is named by its direction alone (`be`, `le`): the width is
/// in `imm`.
pub fn mnemonic(opcode: u8) -> &'static str {
    match rows_of(opcode).first() {
        Some(r) if matches!(r.form.imm, Imm::Width(_)) => {
            r.name.trim_end_matches(|c: char| c.is_ascii_digit())
        }
        Some(r) => r.name,
        None => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::op;

    #[test]
    fn rows_are_sorted_and_each_op_has_one_row() {
        assert!(ISA.windows(2).all(|w| w[0].opcode <= w[1].opcode));
        for r in ISA {
            assert_eq!(row_of(r.op), Some(r));
            assert_eq!(
                lookup(r.opcode, if let Imm::Width(w) = r.form.imm { w } else { 0 }),
                Some(r)
            );
        }
        assert_eq!(row_of(DOp::DivZero), None);
        assert_eq!(row_of(DOp::Trap), None);
    }

    /// A typo in a row shows here: the op's name must match the row's
    /// name, its `Imm`/`Reg` suffix the source bit and the form, and a
    /// `32` name the 32-bit classes.
    #[test]
    fn rows_agree_with_the_opcode_bit_layout() {
        for r in ISA {
            let dop = format!("{:?}", r.op).to_lowercase();
            let base = dop.strip_suffix("imm").or(dop.strip_suffix("reg")).unwrap_or(&dop);
            assert!(base == r.name || base == format!("{}64", r.name), "{r:?}");
            if base != dop {
                let reg = dop.ends_with("reg");
                assert_eq!(reg, r.opcode & op::SRC_X != 0, "{r:?}");
                assert_eq!(reg, r.form.src, "{r:?}");
                let narrow = matches!(r.opcode & op::CLS_MASK, op::CLS_ALU | op::CLS_JMP32);
                assert_eq!(r.name.ends_with("32"), narrow, "{r:?}");
            }
        }
    }
}
