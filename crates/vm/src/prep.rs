//! Load-time pre-decoding of programs into a dense executable form.
//!
//! The raw [`Program`] is a sequence of 8-byte eBPF slots. Interpreting it
//! directly means re-splitting every opcode into class/source/size bits on
//! every executed instruction, re-reading the second `lddw` slot, and
//! re-computing relative jump targets. All of that is static, so it is done
//! exactly once here, at load time:
//!
//! * every slot becomes one [`DInsn`] with a fully resolved [`DOp`]
//!   discriminant — the interpreter dispatches on it with a single match,
//! * the two `lddw` slots fuse into one instruction with a 64-bit immediate,
//! * jump offsets are rewritten to dense instruction indices, so a taken
//!   branch is an index assignment with no arithmetic or range check,
//! * immediates are sign-extended once.
//!
//! Decoding is *total* by construction: it goes through the one ISA table
//! ([`crate::isa::ISA`]), and a slot with no row there — or whose form
//! reads a register outside r0..r10 — decodes to [`DOp::Trap`], which
//! raises [`crate::VmError::BadInstruction`] when (and only when) it is
//! reached. The verifier rejects exactly the slots with no row, so
//! verified programs never contain one — running [`crate::verify`] first
//! proves every `DOp` is a real operation and every jump target is in
//! range, which is what lets the interpreter elide the per-step checks.
//! Each decoded instruction keeps its original slot index (`slot`) so
//! faults still report program counters in slot units, matching the
//! verifier's diagnostics.

use crate::insn::{op, Insn, Program};
use crate::isa::{self, Dst, Imm, Off};

/// Fully decoded operation. One variant per (operation, width, operand
/// source) combination, so the interpreter's dispatch is a single jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)]
pub(crate) enum DOp {
    Add64Imm,
    Add64Reg,
    Add32Imm,
    Add32Reg,
    Sub64Imm,
    Sub64Reg,
    Sub32Imm,
    Sub32Reg,
    Mul64Imm,
    Mul64Reg,
    Mul32Imm,
    Mul32Reg,
    Div64Imm,
    Div64Reg,
    Div32Imm,
    Div32Reg,
    Mod64Imm,
    Mod64Reg,
    Mod32Imm,
    Mod32Reg,
    Or64Imm,
    Or64Reg,
    Or32Imm,
    Or32Reg,
    And64Imm,
    And64Reg,
    And32Imm,
    And32Reg,
    Xor64Imm,
    Xor64Reg,
    Xor32Imm,
    Xor32Reg,
    Lsh64Imm,
    Lsh64Reg,
    Lsh32Imm,
    Lsh32Reg,
    Rsh64Imm,
    Rsh64Reg,
    Rsh32Imm,
    Rsh32Reg,
    Arsh64Imm,
    Arsh64Reg,
    Arsh32Imm,
    Arsh32Reg,
    Mov64Imm,
    Mov64Reg,
    Mov32Imm,
    Mov32Reg,
    Neg64,
    Neg32,
    /// `div`/`mod` with a constant zero divisor: always faults. Folding the
    /// check into decode keeps the real divide arms branch-free.
    DivZero,
    Be16,
    Be32,
    Be64,
    Le16,
    Le32,
    Le64,
    /// Fused two-slot `lddw`; `imm` holds the full 64-bit constant.
    LdDw,
    LdxDw,
    LdxW,
    LdxH,
    LdxB,
    StDw,
    StW,
    StH,
    StB,
    StxDw,
    StxW,
    StxH,
    StxB,
    Ja,
    Call,
    Exit,
    Jeq64Imm,
    Jeq64Reg,
    Jeq32Imm,
    Jeq32Reg,
    Jne64Imm,
    Jne64Reg,
    Jne32Imm,
    Jne32Reg,
    Jgt64Imm,
    Jgt64Reg,
    Jgt32Imm,
    Jgt32Reg,
    Jge64Imm,
    Jge64Reg,
    Jge32Imm,
    Jge32Reg,
    Jlt64Imm,
    Jlt64Reg,
    Jlt32Imm,
    Jlt32Reg,
    Jle64Imm,
    Jle64Reg,
    Jle32Imm,
    Jle32Reg,
    Jset64Imm,
    Jset64Reg,
    Jset32Imm,
    Jset32Reg,
    Jsgt64Imm,
    Jsgt64Reg,
    Jsgt32Imm,
    Jsgt32Reg,
    Jsge64Imm,
    Jsge64Reg,
    Jsge32Imm,
    Jsge32Reg,
    Jslt64Imm,
    Jslt64Reg,
    Jslt32Imm,
    Jslt32Reg,
    Jsle64Imm,
    Jsle64Reg,
    Jsle32Imm,
    Jsle32Reg,
    /// Undecodable slot (or a register outside r0..r10). `dst` carries the
    /// original opcode for the `BadInstruction` report.
    Trap,
}

/// One pre-decoded instruction (24 bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DInsn {
    pub op: DOp,
    pub dst: u8,
    pub src: u8,
    /// Proof bits stamped by [`crate::absint`]; see [`elide`]. Zero straight
    /// out of [`LoadedProgram::load`], so unanalyzed programs keep every
    /// dynamic check.
    pub flags: u8,
    /// Memory displacement for load/store forms; unused elsewhere.
    pub off: i16,
    /// Dense index of the taken branch (jumps), or the helper id (`Call`).
    pub target: u32,
    /// Original slot index, for fault program counters.
    pub slot: u32,
    /// Sign-extended immediate; the fused 64-bit constant for `LdDw`.
    pub imm: u64,
}

const _: () = assert!(std::mem::size_of::<DInsn>() == 24);

/// Proof-bit layout of [`DInsn::flags`], written by the abstract
/// interpreter and consumed by the execution loop in [`crate::interp`].
pub(crate) mod elide {
    /// The access is proven in-region: the engine may skip the
    /// `MemoryMap` region scan and permission check.
    pub const BOUNDS: u8 = 1;
    /// Region kind of a proven access, `flags >> KIND_SHIFT`:
    /// 0 = stack, 1 = heap, 2 = shared.
    pub const KIND_SHIFT: u8 = 1;
    pub const KIND_STACK: u8 = 0;
    pub const KIND_HEAP: u8 = 1;
    pub const KIND_SHARED: u8 = 2;

    pub const fn pack(kind: u8) -> u8 {
        BOUNDS | (kind << KIND_SHIFT)
    }
    pub const fn kind(flags: u8) -> u8 {
        flags >> KIND_SHIFT
    }
}

/// A [`Program`] decoded for execution. Build one with [`LoadedProgram::load`]
/// (after [`crate::verify`]) and run it as many times as you like — this is
/// the per-extension artifact the VMM caches so the per-invocation path does
/// no decoding at all.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    pub(crate) code: Vec<DInsn>,
    /// Number of slots in the source program (diagnostics only).
    slots: usize,
    /// Static worst-case fuel cost proven by [`crate::absint`]: every run
    /// of this program retires at most this many instructions. `None` when
    /// the analysis has not run or could not bound every loop.
    pub(crate) worst_fuel: Option<u64>,
    /// Master switch for proof-based check elision. Proof bits stamped on
    /// instructions are retained either way; turning this off makes the
    /// interpreter take every dynamic check, which is how the bench
    /// ablation and the soundness proptests compare the two modes.
    pub(crate) elide: bool,
    /// True when the analysis proved at least one access elidable. Programs
    /// with nothing to elide skip the per-run region snapshot entirely.
    pub(crate) has_elided: bool,
    /// What [`crate::absint`] proved the program can observe of the watched
    /// helper's window; unbounded until the analysis has run.
    pub(crate) watched: crate::absint::WatchedReads,
}

fn decode_slot(insn: Insn, slot: u32, hi_imm: Option<i32>, resolve: impl Fn(i16) -> u32) -> DInsn {
    let trap = DInsn {
        op: DOp::Trap,
        dst: insn.opcode,
        src: 0,
        flags: 0,
        off: 0,
        target: 0,
        slot,
        imm: 0,
    };
    let Some(row) = isa::lookup(insn.opcode, insn.imm) else {
        return trap;
    };
    let f = row.form;
    // Fields the form does not read decode to zero.
    let dst = if f.dst == Dst::Unused { 0 } else { insn.dst };
    let src = if f.src { insn.src } else { 0 };
    if dst > 10 || src > 10 {
        return trap;
    }
    let mut op = row.op;
    let mut imm = if f.imm == Imm::Operand {
        insn.imm as i64 as u64
    } else {
        0
    };
    match op {
        DOp::Div64Imm | DOp::Div32Imm | DOp::Mod64Imm | DOp::Mod32Imm if insn.imm == 0 => {
            op = DOp::DivZero
        }
        DOp::LdDw => match hi_imm {
            Some(hi) => imm = u64::from(insn.imm as u32) | (u64::from(hi as u32) << 32),
            // lddw in the very last slot: nothing to fuse with.
            None => return trap,
        },
        _ => {}
    }
    let target = match f.off {
        Off::Jump => resolve(insn.offset),
        _ if op == DOp::Call => insn.imm as u32,
        _ => 0,
    };
    let off = if f.off == Off::Mem { insn.offset } else { 0 };
    DInsn { op, dst, src, flags: 0, off, target, slot, imm }
}

impl LoadedProgram {
    /// Pre-decode a program. Total: never fails, even on garbage input —
    /// undecodable slots become [`DOp::Trap`] instructions that fault at
    /// runtime. For programs accepted by [`crate::verify`] the result
    /// contains no traps and every jump target is a valid dense index.
    pub fn load(prog: &Program) -> LoadedProgram {
        let insns = &prog.insns;
        let n = insns.len();

        // Pass 1: dense index of every decodable slot. An `lddw` second
        // slot is not independently executable and keeps the sentinel.
        let mut dense_of = vec![u32::MAX; n];
        let mut count: u32 = 0;
        let mut i = 0;
        while i < n {
            dense_of[i] = count;
            count += 1;
            if insns[i].opcode == op::LDDW && i + 1 < n {
                i += 2;
            } else {
                i += 1;
            }
        }
        // Dense index of the trailing trap sentinel (below); jumps that
        // leave the text or land inside an lddw resolve here.
        let trap_target = count;

        // Pass 2: decode, rewriting slot-relative jumps to dense indices.
        let mut code = Vec::with_capacity(count as usize + 1);
        let mut i = 0;
        while i < n {
            let insn = insns[i];
            let resolve = |off: i16| -> u32 {
                let t = i as i64 + 1 + i64::from(off);
                if t >= 0 && (t as usize) < n {
                    let d = dense_of[t as usize];
                    if d != u32::MAX {
                        return d;
                    }
                }
                trap_target
            };
            let fused = insn.opcode == op::LDDW && i + 1 < n;
            let hi_imm = if fused { Some(insns[i + 1].imm) } else { None };
            code.push(decode_slot(insn, i as u32, hi_imm, resolve));
            i += if fused { 2 } else { 1 };
        }

        // Sentinel: control that would leave the text (possible only for
        // unverified programs) raises BadInstruction instead of indexing
        // out of bounds.
        code.push(DInsn {
            op: DOp::Trap,
            dst: 0,
            src: 0,
            flags: 0,
            off: 0,
            target: 0,
            slot: n as u32,
            imm: 0,
        });
        LoadedProgram {
            code,
            slots: n,
            worst_fuel: None,
            elide: true,
            has_elided: false,
            watched: Default::default(),
        }
    }

    /// Number of slots in the source program.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Static worst-case fuel bound proven by the abstract interpreter,
    /// if every loop in the program was bounded.
    pub fn worst_fuel(&self) -> Option<u64> {
        self.worst_fuel
    }

    /// What the abstract interpreter proved this program can observe of
    /// the watched helper's window ([`crate::AnalysisOptions::watch`]).
    pub fn watched_reads(&self) -> crate::absint::WatchedReads {
        self.watched
    }

    /// Enable or disable proof-based runtime check elision. Elision-on and
    /// elision-off runs are contractually byte-identical (outcome, memory,
    /// metrics, faults); the switch exists so that equivalence can be
    /// measured and tested.
    pub fn set_elide(&mut self, elide: bool) {
        self.elide = elide;
    }

    /// Whether proof-based check elision is enabled.
    pub fn elide(&self) -> bool {
        self.elide
    }

    /// Number of decoded instructions (a fused `lddw` counts once).
    pub fn len(&self) -> usize {
        self.code.len() - 1 // minus the trap sentinel
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::build;

    #[test]
    fn lddw_fuses_into_one_instruction() {
        let [lo, hi] = build::lddw(3, 0xdead_beef_0bad_f00d);
        let lp = LoadedProgram::load(&Program::new(vec![lo, hi, build::exit()]));
        assert_eq!(lp.len(), 2);
        assert_eq!(lp.code[0].op, DOp::LdDw);
        assert_eq!(lp.code[0].imm, 0xdead_beef_0bad_f00d);
        assert_eq!(lp.code[0].dst, 3);
        assert_eq!(lp.code[1].op, DOp::Exit);
        // Slot pcs survive: exit was slot 2.
        assert_eq!(lp.code[1].slot, 2);
    }

    #[test]
    fn jump_targets_are_rewritten_to_dense_indices() {
        // slot 0: ja +2 (over the two lddw slots) → slot 3 → dense 2.
        let [lo, hi] = build::lddw(0, 99);
        let lp = LoadedProgram::load(&Program::new(vec![build::ja(2), lo, hi, build::exit()]));
        assert_eq!(lp.code[0].op, DOp::Ja);
        assert_eq!(lp.code[0].target, 2);
        assert_eq!(lp.code[2].op, DOp::Exit);
    }

    #[test]
    fn backward_jump_before_lddw_keeps_dense_target() {
        // slot 0: mov; slots 1-2: lddw; slot 3: jne → slot 0 (dense 0).
        let [lo, hi] = build::lddw(2, 7);
        let insns = vec![build::mov_imm(0, 0), lo, hi, build::jne_imm(1, 0, -4), build::exit()];
        let lp = LoadedProgram::load(&Program::new(insns));
        assert_eq!(lp.code[2].op, DOp::Jne64Imm);
        assert_eq!(lp.code[2].target, 0);
        assert_eq!(lp.code[2].slot, 3);
    }

    #[test]
    fn undecodable_slots_become_traps() {
        let bogus = Insn::new(0xff, 0, 0, 0, 0);
        let lp = LoadedProgram::load(&Program::new(vec![bogus, build::exit()]));
        assert_eq!(lp.code[0].op, DOp::Trap);
        assert_eq!(lp.code[0].dst, 0xff);
    }

    /// Slots the verifier rejects must not run: `jmp32` exit, `ldx` in a
    /// non-MEM mode, and the reserved-bit encodings of `ja`, `call`,
    /// `exit`, `neg` and the byte swaps.
    #[test]
    fn slots_outside_the_isa_decode_to_traps() {
        for opcode in [0x96, 0x21, 0x0d, 0x8d, 0x9d, 0x8c, 0x8f, 0xd7, 0xdf] {
            let slot = Insn::new(opcode, 0, 0, 0, 16);
            let lp = LoadedProgram::load(&Program::new(vec![slot, build::exit()]));
            assert_eq!(lp.code[0].op, DOp::Trap, "{opcode:#04x}");
        }
    }

    /// A constant-operand ALU op does not read `src`, so a stray value
    /// there neither traps nor reaches the analysis (it used to index
    /// past the register file).
    #[test]
    fn unread_fields_decode_to_zero() {
        let mov = Insn::new(op::CLS_ALU64 | op::ALU_MOV | op::SRC_K, 0, 15, 3, 1);
        let prog = Program::new(vec![mov, build::exit()]);
        let lp = crate::verify_and_load(&prog, &Default::default()).unwrap();
        assert_eq!((lp.code[0].op, lp.code[0].src, lp.code[0].off), (DOp::Mov64Imm, 0, 0));
    }

    #[test]
    fn out_of_range_jump_resolves_to_sentinel() {
        let lp = LoadedProgram::load(&Program::new(vec![build::ja(100), build::exit()]));
        assert_eq!(lp.code[0].target, lp.len() as u32);
        assert_eq!(lp.code[lp.len()].op, DOp::Trap);
    }

    #[test]
    fn const_zero_divisor_decodes_to_div_zero() {
        let div0 = Insn::new(op::CLS_ALU64 | op::ALU_DIV | op::SRC_K, 1, 0, 0, 0);
        let lp = LoadedProgram::load(&Program::new(vec![div0, build::exit()]));
        assert_eq!(lp.code[0].op, DOp::DivZero);
    }
}
