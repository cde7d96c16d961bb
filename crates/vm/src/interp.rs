//! The eBPF interpreter.
//!
//! Execution runs over the pre-decoded [`LoadedProgram`] form (see
//! [`crate::prep`]): opcode splitting, `lddw` fusion, immediate sign
//! extension and jump-target resolution all happened at load time, so the
//! per-instruction work here is one match on a flat discriminant.

use crate::error::VmError;
use crate::insn::Program;
use crate::mem::{ElideCtx, MemoryMap, Region, RegionKind};
use crate::prep::{elide, DOp, LoadedProgram};
use crate::{STACK_BASE, STACK_SIZE};

/// How a program run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The program executed `exit`; r0 is the return value.
    Return(u64),
    /// The program called the special `next()` helper, delegating the
    /// decision to the next extension in the chain (or to the host's
    /// native code). Paper §2.1.
    Next,
}

/// Host-side implementation of the helper functions a program may call.
///
/// The dispatcher receives the helper id, the five argument registers
/// (r1..r5), and the memory map so it can read or write extension memory.
/// Returning `Err(VmError::HelperFault mapped from NextSignal)` is awkward,
/// so delegation is signalled with [`HelperOutcome::Next`] instead.
pub trait HelperDispatcher {
    /// Execute helper `id`. Return the value for r0, or `Next` to stop the
    /// program and delegate, or a fault. Fault pcs are stamped by the
    /// interpreter afterwards (see [`VmError::at_pc`]); dispatchers may use
    /// a placeholder.
    fn call(
        &mut self,
        id: u32,
        args: [u64; 5],
        mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError>;
}

/// Result of one helper invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperOutcome {
    /// Normal return value, placed into r0.
    Value(u64),
    /// The `next()` delegation signal: abort execution with
    /// [`ExecOutcome::Next`].
    Next,
}

/// A dispatcher with no helpers, for pure-computation programs and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHelpers;

impl HelperDispatcher for NoHelpers {
    fn call(
        &mut self,
        id: u32,
        _args: [u64; 5],
        _mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError> {
        // pc is a placeholder: the interpreter rewrites it to the real
        // call site via `VmError::at_pc`.
        Err(VmError::UnknownHelper { pc: 0, helper: id })
    }
}

/// Interpreter tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Instruction budget for one run (the paper's "monitors their
    /// execution and stops them"). Enforced at loop back-edges and helper
    /// calls, so a run may overshoot by at most one straight-line basic
    /// block before being stopped.
    pub fuel: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        // Generous enough for a full pass over a 4 KiB message with a
        // few dozen instructions per byte; tiny compared to a runaway loop.
        VmConfig { fuel: 1_000_000 }
    }
}

/// Per-run execution metrics, reported by [`Vm::run_metered`].
///
/// Counting costs nothing on the interpreter hot path: instructions are
/// already metered by the fuel counter, so `insns_retired` falls out of
/// the fuel arithmetic, and `helper_calls` bumps a local only on the
/// (rare) `call` instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Instructions executed (a two-slot `lddw` counts once).
    pub insns_retired: u64,
    /// Helper invocations, including `next()`.
    pub helper_calls: u64,
    /// Fuel consumed — identical to `insns_retired` today, kept separate
    /// so a future weighted-fuel scheme (e.g. helpers costing more) does
    /// not change the reporting API.
    pub fuel_consumed: u64,
}

impl LoadedProgram {
    /// Execute the pre-decoded program.
    ///
    /// `args` pre-loads r1..r5 (insertion-point arguments, usually virtual
    /// addresses of marshalled structs). A fresh stack region is mapped at
    /// [`STACK_BASE`] if the caller did not pre-map one, and r10 points one
    /// past its end, per eBPF convention.
    pub fn run(
        &self,
        config: VmConfig,
        mem: &mut MemoryMap,
        helpers: &mut dyn HelperDispatcher,
        args: &[u64],
    ) -> Result<ExecOutcome, VmError> {
        self.run_metered(config, mem, helpers, args).0
    }

    /// Execute the program and report [`RunMetrics`] alongside the outcome.
    ///
    /// Fuel is charged per instruction but the balance is only *checked*
    /// at loop back-edges (taken jumps that do not advance the pc) and at
    /// helper calls — the two places a program can spend unbounded time —
    /// so straight-line code pays nothing beyond the decrement. A program
    /// can therefore overrun its budget by at most one basic block; a
    /// run stopped by `FuelExhausted` reports *at least* `config.fuel`
    /// instructions retired (exactly `config.fuel` when the stopping
    /// instruction is itself the back-edge, as in a tight loop).
    pub fn run_metered(
        &self,
        config: VmConfig,
        mem: &mut MemoryMap,
        helpers: &mut dyn HelperDispatcher,
        args: &[u64],
    ) -> (Result<ExecOutcome, VmError>, RunMetrics) {
        assert!(args.len() <= 5, "at most five argument registers");
        let mut reg = [0u64; 11];
        for (i, a) in args.iter().enumerate() {
            reg[i + 1] = *a;
        }
        // Fresh stack per run. If the caller pre-mapped one (the VMM pools
        // stack buffers), it must already be zeroed; otherwise map our own.
        if mem.region_of(RegionKind::Stack).is_none() {
            mem.map(Region::new(RegionKind::Stack, STACK_BASE, vec![0; STACK_SIZE], true));
        }
        reg[10] = STACK_BASE + STACK_SIZE as u64;

        let code = &self.code[..];
        let mut pc: usize = 0;
        // Signed so the balance can dip below zero between checks: the
        // per-instruction cost is an unconditional decrement, and only
        // back-edges and calls compare against zero.
        let mut fuel: i64 = config.fuel.min(i64::MAX as u64) as i64;
        let budget = fuel;
        // Fuel-ledger elision: when the analyzer proved a worst case
        // strictly under the budget, exhaustion cannot fire in *either*
        // mode (consumed ≤ worst < budget), so the ledger may start
        // saturated. Metrics stay instruction-exact via `start - fuel`.
        if self.elide && self.worst_fuel.is_some_and(|w| w < budget as u64) {
            fuel = i64::MAX;
        }
        let start = fuel;
        let mut helper_calls: u64 = 0;
        // Proof-carrying memory elision: resolve the provable regions once
        // up front; revalidated after helper returns (helpers may remap
        // regions). Programs with no proven accesses skip all of it.
        let elide_on = self.elide && self.has_elided;
        let mut ectx = if elide_on { mem.elide_ctx() } else { ElideCtx::default() };

        // Binary ALU forms: f(dst, operand) → dst, then fall through.
        macro_rules! bin64i {
            ($ins:expr, $f:expr) => {{
                let d = $ins.dst as usize;
                reg[d] = $f(reg[d], $ins.imm);
                pc += 1;
            }};
        }
        macro_rules! bin64r {
            ($ins:expr, $f:expr) => {{
                let d = $ins.dst as usize;
                reg[d] = $f(reg[d], reg[$ins.src as usize]);
                pc += 1;
            }};
        }
        macro_rules! bin32i {
            ($ins:expr, $f:expr) => {{
                let d = $ins.dst as usize;
                reg[d] = u64::from($f(reg[d] as u32, $ins.imm as u32));
                pc += 1;
            }};
        }
        macro_rules! bin32r {
            ($ins:expr, $f:expr) => {{
                let d = $ins.dst as usize;
                reg[d] = u64::from($f(reg[d] as u32, reg[$ins.src as usize] as u32));
                pc += 1;
            }};
        }
        // Taken branches whose target does not advance the pc are the
        // only way to revisit an instruction, so they are where the fuel
        // balance is enforced (see the `run_metered` doc).
        macro_rules! back_edge {
            ($target:expr, $slot:expr) => {
                if $target <= pc && fuel <= 0 {
                    return Err(VmError::FuelExhausted { pc: $slot as usize });
                }
            };
        }
        // Conditional jumps: taken branches go straight to the pre-resolved
        // dense target, no arithmetic or range check.
        macro_rules! jmp64i {
            ($ins:expr, $f:expr) => {
                pc = if $f(reg[$ins.dst as usize], $ins.imm) {
                    let t = $ins.target as usize;
                    back_edge!(t, $ins.slot);
                    t
                } else {
                    pc + 1
                }
            };
        }
        macro_rules! jmp64r {
            ($ins:expr, $f:expr) => {
                pc = if $f(reg[$ins.dst as usize], reg[$ins.src as usize]) {
                    let t = $ins.target as usize;
                    back_edge!(t, $ins.slot);
                    t
                } else {
                    pc + 1
                }
            };
        }
        macro_rules! jmp32i {
            ($ins:expr, $f:expr) => {
                pc = if $f(reg[$ins.dst as usize] as u32, $ins.imm as u32) {
                    let t = $ins.target as usize;
                    back_edge!(t, $ins.slot);
                    t
                } else {
                    pc + 1
                }
            };
        }
        macro_rules! jmp32r {
            ($ins:expr, $f:expr) => {
                pc = if $f(reg[$ins.dst as usize] as u32, reg[$ins.src as usize] as u32) {
                    let t = $ins.target as usize;
                    back_edge!(t, $ins.slot);
                    t
                } else {
                    pc + 1
                }
            };
        }
        // Loads and stores carry the verifier's proof bits: when the
        // analyzer proved the access in-bounds for a specific region kind,
        // the slow find()+bounds walk is skipped and the access indexes the
        // pre-resolved region directly. The fast path still returns None on
        // any disagreement (region remapped, analysis bug), falling back to
        // the checked path so faults are bit-identical with elision off.
        macro_rules! ld {
            ($ins:expr, $fast:ident, $slow:ident) => {{
                let a = reg[$ins.src as usize].wrapping_add($ins.off as i64 as u64);
                reg[$ins.dst as usize] = if elide_on && $ins.flags & elide::BOUNDS != 0 {
                    match mem.$fast(&ectx, elide::kind($ins.flags), a) {
                        Some(v) => v,
                        None => mem.$slow(a).map_err(|e| e.at_pc($ins.slot as usize))?,
                    }
                } else {
                    mem.$slow(a).map_err(|e| e.at_pc($ins.slot as usize))?
                };
                pc += 1;
            }};
        }
        macro_rules! st {
            ($ins:expr, $fast:ident, $slow:ident, $v:expr) => {{
                let a = reg[$ins.dst as usize].wrapping_add($ins.off as i64 as u64);
                let v = $v;
                if !(elide_on
                    && $ins.flags & elide::BOUNDS != 0
                    && mem.$fast(&ectx, elide::kind($ins.flags), a, v))
                {
                    mem.$slow(a, v).map_err(|e| e.at_pc($ins.slot as usize))?;
                }
                pc += 1;
            }};
        }

        // The body keeps its early `return`s by running inside an
        // immediately-invoked closure; the metrics are assembled from the
        // fuel arithmetic afterwards, whatever the exit path.
        let result = (|| -> Result<ExecOutcome, VmError> {
            loop {
                fuel -= 1;
                let ins = code[pc];
                match ins.op {
                    DOp::Add64Imm => bin64i!(ins, u64::wrapping_add),
                    DOp::Add64Reg => bin64r!(ins, u64::wrapping_add),
                    DOp::Add32Imm => bin32i!(ins, u32::wrapping_add),
                    DOp::Add32Reg => bin32r!(ins, u32::wrapping_add),
                    DOp::Sub64Imm => bin64i!(ins, u64::wrapping_sub),
                    DOp::Sub64Reg => bin64r!(ins, u64::wrapping_sub),
                    DOp::Sub32Imm => bin32i!(ins, u32::wrapping_sub),
                    DOp::Sub32Reg => bin32r!(ins, u32::wrapping_sub),
                    DOp::Mul64Imm => bin64i!(ins, u64::wrapping_mul),
                    DOp::Mul64Reg => bin64r!(ins, u64::wrapping_mul),
                    DOp::Mul32Imm => bin32i!(ins, u32::wrapping_mul),
                    DOp::Mul32Reg => bin32r!(ins, u32::wrapping_mul),
                    // Constant divisors are proven non-zero at decode time
                    // (a zero divisor decodes to DivZero), so the immediate
                    // forms divide unconditionally.
                    DOp::Div64Imm => bin64i!(ins, |d: u64, s: u64| d / s),
                    DOp::Div32Imm => bin32i!(ins, |d: u32, s: u32| d / s),
                    DOp::Mod64Imm => bin64i!(ins, |d: u64, s: u64| d % s),
                    DOp::Mod32Imm => bin32i!(ins, |d: u32, s: u32| d % s),
                    DOp::Div64Reg => {
                        let s = reg[ins.src as usize];
                        if s == 0 {
                            return Err(VmError::DivByZero { pc: ins.slot as usize });
                        }
                        let d = ins.dst as usize;
                        reg[d] /= s;
                        pc += 1;
                    }
                    DOp::Div32Reg => {
                        let s = reg[ins.src as usize] as u32;
                        if s == 0 {
                            return Err(VmError::DivByZero { pc: ins.slot as usize });
                        }
                        let d = ins.dst as usize;
                        reg[d] = u64::from(reg[d] as u32 / s);
                        pc += 1;
                    }
                    DOp::Mod64Reg => {
                        let s = reg[ins.src as usize];
                        if s == 0 {
                            return Err(VmError::DivByZero { pc: ins.slot as usize });
                        }
                        let d = ins.dst as usize;
                        reg[d] %= s;
                        pc += 1;
                    }
                    DOp::Mod32Reg => {
                        let s = reg[ins.src as usize] as u32;
                        if s == 0 {
                            return Err(VmError::DivByZero { pc: ins.slot as usize });
                        }
                        let d = ins.dst as usize;
                        reg[d] = u64::from(reg[d] as u32 % s);
                        pc += 1;
                    }
                    DOp::DivZero => return Err(VmError::DivByZero { pc: ins.slot as usize }),
                    DOp::Or64Imm => bin64i!(ins, |d: u64, s: u64| d | s),
                    DOp::Or64Reg => bin64r!(ins, |d: u64, s: u64| d | s),
                    DOp::Or32Imm => bin32i!(ins, |d: u32, s: u32| d | s),
                    DOp::Or32Reg => bin32r!(ins, |d: u32, s: u32| d | s),
                    DOp::And64Imm => bin64i!(ins, |d: u64, s: u64| d & s),
                    DOp::And64Reg => bin64r!(ins, |d: u64, s: u64| d & s),
                    DOp::And32Imm => bin32i!(ins, |d: u32, s: u32| d & s),
                    DOp::And32Reg => bin32r!(ins, |d: u32, s: u32| d & s),
                    DOp::Xor64Imm => bin64i!(ins, |d: u64, s: u64| d ^ s),
                    DOp::Xor64Reg => bin64r!(ins, |d: u64, s: u64| d ^ s),
                    DOp::Xor32Imm => bin32i!(ins, |d: u32, s: u32| d ^ s),
                    DOp::Xor32Reg => bin32r!(ins, |d: u32, s: u32| d ^ s),
                    // Shift amounts wrap modulo the operand width, exactly
                    // as the slot interpreter's wrapping_shl/shr did.
                    DOp::Lsh64Imm => bin64i!(ins, |d: u64, s: u64| d.wrapping_shl(s as u32)),
                    DOp::Lsh64Reg => bin64r!(ins, |d: u64, s: u64| d.wrapping_shl(s as u32)),
                    DOp::Lsh32Imm => bin32i!(ins, u32::wrapping_shl),
                    DOp::Lsh32Reg => bin32r!(ins, u32::wrapping_shl),
                    DOp::Rsh64Imm => bin64i!(ins, |d: u64, s: u64| d.wrapping_shr(s as u32)),
                    DOp::Rsh64Reg => bin64r!(ins, |d: u64, s: u64| d.wrapping_shr(s as u32)),
                    DOp::Rsh32Imm => bin32i!(ins, u32::wrapping_shr),
                    DOp::Rsh32Reg => bin32r!(ins, u32::wrapping_shr),
                    DOp::Arsh64Imm => {
                        bin64i!(ins, |d: u64, s: u64| (d as i64).wrapping_shr(s as u32) as u64)
                    }
                    DOp::Arsh64Reg => {
                        bin64r!(ins, |d: u64, s: u64| (d as i64).wrapping_shr(s as u32) as u64)
                    }
                    DOp::Arsh32Imm => {
                        bin32i!(ins, |d: u32, s: u32| (d as i32).wrapping_shr(s) as u32)
                    }
                    DOp::Arsh32Reg => {
                        bin32r!(ins, |d: u32, s: u32| (d as i32).wrapping_shr(s) as u32)
                    }
                    DOp::Mov64Imm => bin64i!(ins, |_, s| s),
                    DOp::Mov64Reg => bin64r!(ins, |_, s| s),
                    DOp::Mov32Imm => bin32i!(ins, |_, s: u32| s),
                    DOp::Mov32Reg => bin32r!(ins, |_, s: u32| s),
                    DOp::Neg64 => {
                        let d = ins.dst as usize;
                        reg[d] = (reg[d] as i64).wrapping_neg() as u64;
                        pc += 1;
                    }
                    DOp::Neg32 => {
                        let d = ins.dst as usize;
                        reg[d] = (reg[d] as u32 as i32).wrapping_neg() as u32 as u64;
                        pc += 1;
                    }
                    DOp::Be16 => {
                        let d = ins.dst as usize;
                        reg[d] = u64::from((reg[d] as u16).to_be());
                        pc += 1;
                    }
                    DOp::Be32 => {
                        let d = ins.dst as usize;
                        reg[d] = u64::from((reg[d] as u32).to_be());
                        pc += 1;
                    }
                    DOp::Be64 => {
                        let d = ins.dst as usize;
                        reg[d] = reg[d].to_be();
                        pc += 1;
                    }
                    DOp::Le16 => {
                        let d = ins.dst as usize;
                        reg[d] = u64::from((reg[d] as u16).to_le());
                        pc += 1;
                    }
                    DOp::Le32 => {
                        let d = ins.dst as usize;
                        reg[d] = u64::from((reg[d] as u32).to_le());
                        pc += 1;
                    }
                    DOp::Le64 => {
                        let d = ins.dst as usize;
                        reg[d] = reg[d].to_le();
                        pc += 1;
                    }
                    DOp::LdDw => {
                        reg[ins.dst as usize] = ins.imm;
                        pc += 1;
                    }
                    DOp::LdxDw => ld!(ins, fast_load64, load64),
                    DOp::LdxW => ld!(ins, fast_load32, load32),
                    DOp::LdxH => ld!(ins, fast_load16, load16),
                    DOp::LdxB => ld!(ins, fast_load8, load8),
                    DOp::StDw => st!(ins, fast_store64, store64, ins.imm),
                    DOp::StW => st!(ins, fast_store32, store32, ins.imm as u32),
                    DOp::StH => st!(ins, fast_store16, store16, ins.imm as u16),
                    DOp::StB => st!(ins, fast_store8, store8, ins.imm as u8),
                    DOp::StxDw => st!(ins, fast_store64, store64, reg[ins.src as usize]),
                    DOp::StxW => st!(ins, fast_store32, store32, reg[ins.src as usize] as u32),
                    DOp::StxH => st!(ins, fast_store16, store16, reg[ins.src as usize] as u16),
                    DOp::StxB => st!(ins, fast_store8, store8, reg[ins.src as usize] as u8),
                    DOp::Ja => {
                        let t = ins.target as usize;
                        back_edge!(t, ins.slot);
                        pc = t;
                    }
                    DOp::Call => {
                        if fuel <= 0 {
                            return Err(VmError::FuelExhausted { pc: ins.slot as usize });
                        }
                        helper_calls += 1;
                        let args5 = [reg[1], reg[2], reg[3], reg[4], reg[5]];
                        match helpers.call(ins.target, args5, mem) {
                            Ok(HelperOutcome::Value(v)) => {
                                reg[0] = v;
                                // Caller-saved registers are clobbered,
                                // matching eBPF calling convention.
                                reg[1] = 0;
                                reg[2] = 0;
                                reg[3] = 0;
                                reg[4] = 0;
                                reg[5] = 0;
                                // Helpers may remap regions; the
                                // pre-resolved elision slots must track.
                                if elide_on {
                                    ectx.refresh(mem);
                                }
                                pc += 1;
                            }
                            Ok(HelperOutcome::Next) => return Ok(ExecOutcome::Next),
                            Err(e) => return Err(e.at_pc(ins.slot as usize)),
                        }
                    }
                    DOp::Exit => return Ok(ExecOutcome::Return(reg[0])),
                    DOp::Jeq64Imm => jmp64i!(ins, |a, b| a == b),
                    DOp::Jeq64Reg => jmp64r!(ins, |a, b| a == b),
                    DOp::Jeq32Imm => jmp32i!(ins, |a: u32, b: u32| a == b),
                    DOp::Jeq32Reg => jmp32r!(ins, |a: u32, b: u32| a == b),
                    DOp::Jne64Imm => jmp64i!(ins, |a, b| a != b),
                    DOp::Jne64Reg => jmp64r!(ins, |a, b| a != b),
                    DOp::Jne32Imm => jmp32i!(ins, |a: u32, b: u32| a != b),
                    DOp::Jne32Reg => jmp32r!(ins, |a: u32, b: u32| a != b),
                    DOp::Jgt64Imm => jmp64i!(ins, |a, b| a > b),
                    DOp::Jgt64Reg => jmp64r!(ins, |a, b| a > b),
                    DOp::Jgt32Imm => jmp32i!(ins, |a: u32, b: u32| a > b),
                    DOp::Jgt32Reg => jmp32r!(ins, |a: u32, b: u32| a > b),
                    DOp::Jge64Imm => jmp64i!(ins, |a, b| a >= b),
                    DOp::Jge64Reg => jmp64r!(ins, |a, b| a >= b),
                    DOp::Jge32Imm => jmp32i!(ins, |a: u32, b: u32| a >= b),
                    DOp::Jge32Reg => jmp32r!(ins, |a: u32, b: u32| a >= b),
                    DOp::Jlt64Imm => jmp64i!(ins, |a, b| a < b),
                    DOp::Jlt64Reg => jmp64r!(ins, |a, b| a < b),
                    DOp::Jlt32Imm => jmp32i!(ins, |a: u32, b: u32| a < b),
                    DOp::Jlt32Reg => jmp32r!(ins, |a: u32, b: u32| a < b),
                    DOp::Jle64Imm => jmp64i!(ins, |a, b| a <= b),
                    DOp::Jle64Reg => jmp64r!(ins, |a, b| a <= b),
                    DOp::Jle32Imm => jmp32i!(ins, |a: u32, b: u32| a <= b),
                    DOp::Jle32Reg => jmp32r!(ins, |a: u32, b: u32| a <= b),
                    DOp::Jset64Imm => jmp64i!(ins, |a, b| a & b != 0),
                    DOp::Jset64Reg => jmp64r!(ins, |a, b| a & b != 0),
                    DOp::Jset32Imm => jmp32i!(ins, |a: u32, b: u32| a & b != 0),
                    DOp::Jset32Reg => jmp32r!(ins, |a: u32, b: u32| a & b != 0),
                    DOp::Jsgt64Imm => jmp64i!(ins, |a: u64, b: u64| (a as i64) > (b as i64)),
                    DOp::Jsgt64Reg => jmp64r!(ins, |a: u64, b: u64| (a as i64) > (b as i64)),
                    DOp::Jsgt32Imm => jmp32i!(ins, |a: u32, b: u32| (a as i32) > (b as i32)),
                    DOp::Jsgt32Reg => jmp32r!(ins, |a: u32, b: u32| (a as i32) > (b as i32)),
                    DOp::Jsge64Imm => jmp64i!(ins, |a: u64, b: u64| (a as i64) >= (b as i64)),
                    DOp::Jsge64Reg => jmp64r!(ins, |a: u64, b: u64| (a as i64) >= (b as i64)),
                    DOp::Jsge32Imm => jmp32i!(ins, |a: u32, b: u32| (a as i32) >= (b as i32)),
                    DOp::Jsge32Reg => jmp32r!(ins, |a: u32, b: u32| (a as i32) >= (b as i32)),
                    DOp::Jslt64Imm => jmp64i!(ins, |a: u64, b: u64| (a as i64) < (b as i64)),
                    DOp::Jslt64Reg => jmp64r!(ins, |a: u64, b: u64| (a as i64) < (b as i64)),
                    DOp::Jslt32Imm => jmp32i!(ins, |a: u32, b: u32| (a as i32) < (b as i32)),
                    DOp::Jslt32Reg => jmp32r!(ins, |a: u32, b: u32| (a as i32) < (b as i32)),
                    DOp::Jsle64Imm => jmp64i!(ins, |a: u64, b: u64| (a as i64) <= (b as i64)),
                    DOp::Jsle64Reg => jmp64r!(ins, |a: u64, b: u64| (a as i64) <= (b as i64)),
                    DOp::Jsle32Imm => jmp32i!(ins, |a: u32, b: u32| (a as i32) <= (b as i32)),
                    DOp::Jsle32Reg => jmp32r!(ins, |a: u32, b: u32| (a as i32) <= (b as i32)),
                    DOp::Trap => {
                        return Err(VmError::BadInstruction {
                            pc: ins.slot as usize,
                            opcode: ins.dst,
                        })
                    }
                }
            }
        })();
        let fuel_consumed = (start - fuel) as u64;
        (result, RunMetrics { insns_retired: fuel_consumed, helper_calls, fuel_consumed })
    }
}

/// The virtual machine: a pre-decoded program plus configuration. The
/// memory map travels separately so the VMM can prepare it per invocation.
pub struct Vm {
    prog: LoadedProgram,
    config: VmConfig,
}

impl Vm {
    /// Pre-decode and wrap a (verified) program. Run [`crate::verify`]
    /// first: the decoder is total, but only verification proves the
    /// program free of trap instructions and invalid jumps.
    pub fn new(prog: &Program) -> Vm {
        Vm { prog: LoadedProgram::load(prog), config: VmConfig::default() }
    }

    pub fn with_config(prog: &Program, config: VmConfig) -> Vm {
        Vm { prog: LoadedProgram::load(prog), config }
    }

    /// Execute the program. See [`LoadedProgram::run`].
    pub fn run(
        &self,
        mem: &mut MemoryMap,
        helpers: &mut dyn HelperDispatcher,
        args: &[u64],
    ) -> Result<ExecOutcome, VmError> {
        self.prog.run(self.config, mem, helpers, args)
    }

    /// Execute the program and report [`RunMetrics`] alongside the outcome.
    /// See [`LoadedProgram::run_metered`].
    pub fn run_metered(
        &self,
        mem: &mut MemoryMap,
        helpers: &mut dyn HelperDispatcher,
        args: &[u64],
    ) -> (Result<ExecOutcome, VmError>, RunMetrics) {
        self.prog.run_metered(self.config, mem, helpers, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{build, op, Insn, Program};
    use crate::verify::verify;
    use std::collections::HashSet;

    fn run(insns: Vec<Insn>) -> Result<ExecOutcome, VmError> {
        run_with(insns, &mut NoHelpers, &[])
    }

    fn run_with(
        insns: Vec<Insn>,
        helpers: &mut dyn HelperDispatcher,
        args: &[u64],
    ) -> Result<ExecOutcome, VmError> {
        let prog = Program::new(insns);
        let mut mem = MemoryMap::new();
        Vm::new(&prog).run(&mut mem, helpers, args)
    }

    fn ret(insns: Vec<Insn>) -> u64 {
        match run(insns).unwrap() {
            ExecOutcome::Return(v) => v,
            ExecOutcome::Next => panic!("unexpected next()"),
        }
    }

    #[test]
    fn mov_and_exit() {
        assert_eq!(ret(vec![build::mov_imm(0, 42), build::exit()]), 42);
    }

    #[test]
    fn arithmetic_64() {
        // r0 = (7 + 3) * 5 - 8 = 42
        assert_eq!(
            ret(vec![
                build::mov_imm(0, 7),
                build::add_imm(0, 3),
                Insn::new(op::CLS_ALU64 | op::ALU_MUL | op::SRC_K, 0, 0, 0, 5),
                Insn::new(op::CLS_ALU64 | op::ALU_SUB | op::SRC_K, 0, 0, 0, 8),
                build::exit(),
            ]),
            42
        );
    }

    #[test]
    fn alu32_truncates() {
        // 32-bit add of 0xffff_ffff + 1 wraps to 0 and clears the top half.
        let insns = vec![
            build::mov_imm(0, -1), // r0 = 0xffff_ffff_ffff_ffff
            Insn::new(op::CLS_ALU | op::ALU_ADD | op::SRC_K, 0, 0, 0, 1),
            build::exit(),
        ];
        assert_eq!(ret(insns), 0);
    }

    #[test]
    fn division_and_modulo() {
        let insns = vec![
            build::mov_imm(0, 43),
            Insn::new(op::CLS_ALU64 | op::ALU_DIV | op::SRC_K, 0, 0, 0, 4),
            build::exit(),
        ];
        assert_eq!(ret(insns), 10);
        let insns = vec![
            build::mov_imm(0, 43),
            Insn::new(op::CLS_ALU64 | op::ALU_MOD | op::SRC_K, 0, 0, 0, 4),
            build::exit(),
        ];
        assert_eq!(ret(insns), 3);
    }

    #[test]
    fn runtime_div_by_zero_faults() {
        let insns = vec![
            build::mov_imm(0, 1),
            build::mov_imm(1, 0),
            Insn::new(op::CLS_ALU64 | op::ALU_DIV | op::SRC_X, 0, 1, 0, 0),
            build::exit(),
        ];
        assert!(matches!(run(insns), Err(VmError::DivByZero { pc: 2 })));
    }

    #[test]
    fn const_div_by_zero_faults_at_its_slot() {
        // Unverified program: the decoder folds a constant zero divisor
        // into a DivZero trap that still reports the right pc.
        let insns = vec![
            build::mov_imm(0, 1),
            Insn::new(op::CLS_ALU64 | op::ALU_MOD | op::SRC_K, 0, 0, 0, 0),
            build::exit(),
        ];
        assert!(matches!(run(insns), Err(VmError::DivByZero { pc: 1 })));
    }

    #[test]
    fn signed_ops() {
        // arsh: -8 >> 1 == -4
        let insns = vec![
            build::mov_imm(0, -8),
            Insn::new(op::CLS_ALU64 | op::ALU_ARSH | op::SRC_K, 0, 0, 0, 1),
            build::exit(),
        ];
        assert_eq!(ret(insns) as i64, -4);
        // neg
        let insns = vec![
            build::mov_imm(0, 5),
            Insn::new(op::CLS_ALU64 | op::ALU_NEG, 0, 0, 0, 0),
            build::exit(),
        ];
        assert_eq!(ret(insns) as i64, -5);
    }

    #[test]
    fn byte_swap() {
        // be32 of 0x01020304 (LE memory semantics) = 0x04030201 as u32.
        let insns = vec![
            build::mov_imm(0, 0x0102_0304),
            Insn::new(op::CLS_ALU | op::ALU_END | op::SRC_X, 0, 0, 0, 32),
            build::exit(),
        ];
        assert_eq!(ret(insns), u64::from(0x0102_0304u32.to_be()));
        let insns = vec![
            build::mov_imm(0, 0x0102),
            Insn::new(op::CLS_ALU | op::ALU_END | op::SRC_X, 0, 0, 0, 16),
            build::exit(),
        ];
        assert_eq!(ret(insns), u64::from(0x0102u16.to_be()));
    }

    #[test]
    fn lddw_loads_full_64_bits() {
        let [lo, hi] = build::lddw(0, 0xdead_beef_0bad_f00d);
        assert_eq!(ret(vec![lo, hi, build::exit()]), 0xdead_beef_0bad_f00d);
    }

    #[test]
    fn conditional_jumps() {
        // if r1 == 7 return 1 else return 0
        let prog = |arg: u64| {
            let insns = vec![
                build::mov_imm(0, 0),
                build::jne_imm(1, 7, 1),
                build::mov_imm(0, 1),
                build::exit(),
            ];
            match run_with(insns, &mut NoHelpers, &[arg]).unwrap() {
                ExecOutcome::Return(v) => v,
                _ => panic!(),
            }
        };
        assert_eq!(prog(7), 1);
        assert_eq!(prog(8), 0);
    }

    #[test]
    fn jmp32_compares_low_word_only() {
        // r1 = 0x1_0000_0007; jeq32 r1, 7 must be taken.
        let [lo, hi] = build::lddw(1, 0x1_0000_0007);
        let insns = vec![
            lo,
            hi,
            build::mov_imm(0, 0),
            Insn::new(op::CLS_JMP32 | op::JMP_JEQ | op::SRC_K, 1, 0, 1, 7),
            build::ja(1),
            build::mov_imm(0, 1),
            build::exit(),
        ];
        assert_eq!(ret(insns), 1);
    }

    #[test]
    fn signed_jumps() {
        // jsgt: -1 > -2 signed.
        let insns = vec![
            build::mov_imm(1, -1),
            build::mov_imm(2, -2),
            build::mov_imm(0, 0),
            Insn::new(op::CLS_JMP | op::JMP_JSGT | op::SRC_X, 1, 2, 1, 0),
            build::ja(1),
            build::mov_imm(0, 1),
            build::exit(),
        ];
        assert_eq!(ret(insns), 1);
    }

    #[test]
    fn stack_load_store() {
        // Store 0x11223344 at [r10-8], load it back.
        let insns = vec![
            build::mov_imm(1, 0x1122_3344),
            build::stxw(10, 1, -8),
            build::ldxw(0, 10, -8),
            build::exit(),
        ];
        assert_eq!(ret(insns), 0x1122_3344);
    }

    #[test]
    fn byte_access_on_stack() {
        let insns = vec![build::stb(10, -1, 0x7f), build::ldxb(0, 10, -1), build::exit()];
        assert_eq!(ret(insns), 0x7f);
    }

    #[test]
    fn out_of_stack_access_faults() {
        // One past the stack top.
        let insns = vec![build::ldxb(0, 10, 0), build::exit()];
        assert!(matches!(run(insns), Err(VmError::MemFault { .. })));
        // Below the stack bottom.
        let insns = vec![build::ldxb(0, 10, -(STACK_SIZE as i16) - 1), build::exit()];
        assert!(matches!(run(insns), Err(VmError::MemFault { .. })));
    }

    #[test]
    fn mem_faults_carry_the_faulting_slot() {
        // Slot 0 is fine; the out-of-bounds load sits at slot 1.
        let insns = vec![build::mov_imm(0, 0), build::ldxb(0, 10, 0), build::exit()];
        match run(insns) {
            Err(VmError::MemFault { pc, write: false, .. }) => assert_eq!(pc, 1),
            other => panic!("expected a load fault at pc 1, got {other:?}"),
        }
    }

    #[test]
    fn infinite_loop_is_stopped_by_fuel() {
        let prog = Program::new(vec![build::ja(-1)]);
        let mut mem = MemoryMap::new();
        let vm = Vm::with_config(&prog, VmConfig { fuel: 1000 });
        // The back-edge that trips the check is the jump at slot 0.
        assert_eq!(vm.run(&mut mem, &mut NoHelpers, &[]), Err(VmError::FuelExhausted { pc: 0 }));
    }

    #[test]
    fn loop_with_counter_terminates() {
        // r0 = sum of 1..=10 computed with a backward jump.
        let insns = vec![
            build::mov_imm(0, 0),  // acc
            build::mov_imm(1, 10), // counter
            // loop: acc += counter; counter -= 1; if counter != 0 goto loop
            build::add_reg(0, 1),
            Insn::new(op::CLS_ALU64 | op::ALU_SUB | op::SRC_K, 1, 0, 0, 1),
            build::jne_imm(1, 0, -3),
            build::exit(),
        ];
        assert_eq!(ret(insns), 55);
    }

    #[test]
    fn falling_off_the_end_faults_instead_of_panicking() {
        // Unverified program with no terminal exit: execution reaches the
        // decoder's trap sentinel and reports a BadInstruction one past
        // the last slot.
        let insns = vec![build::mov_imm(0, 0)];
        assert_eq!(run(insns), Err(VmError::BadInstruction { pc: 1, opcode: 0 }));
    }

    struct Doubler;
    impl HelperDispatcher for Doubler {
        fn call(
            &mut self,
            id: u32,
            args: [u64; 5],
            _mem: &mut MemoryMap,
        ) -> Result<HelperOutcome, VmError> {
            match id {
                1 => Ok(HelperOutcome::Value(args[0] * 2)),
                2 => Ok(HelperOutcome::Next),
                3 => Err(VmError::HelperFault { pc: 0, helper: 3, reason: "boom".into() }),
                other => Err(VmError::UnknownHelper { pc: 0, helper: other }),
            }
        }
    }

    #[test]
    fn helper_call_returns_value_and_clobbers_caller_saved() {
        let insns = vec![
            build::mov_imm(1, 21),
            build::call(1),
            // r1 must be clobbered to 0 after the call.
            build::add_reg(0, 1),
            build::exit(),
        ];
        match run_with(insns, &mut Doubler, &[]).unwrap() {
            ExecOutcome::Return(v) => assert_eq!(v, 42),
            _ => panic!(),
        }
    }

    #[test]
    fn next_helper_short_circuits() {
        let insns = vec![
            build::call(2),
            build::mov_imm(0, 99), // never reached
            build::exit(),
        ];
        assert_eq!(run_with(insns, &mut Doubler, &[]).unwrap(), ExecOutcome::Next);
    }

    #[test]
    fn helper_fault_propagates() {
        let insns = vec![build::call(3), build::exit()];
        assert!(matches!(
            run_with(insns, &mut Doubler, &[]),
            Err(VmError::HelperFault { helper: 3, .. })
        ));
    }

    #[test]
    fn unknown_helper_reports_pc() {
        let insns = vec![build::mov_imm(0, 0), build::call(77), build::exit()];
        assert_eq!(
            run_with(insns, &mut Doubler, &[]),
            Err(VmError::UnknownHelper { pc: 1, helper: 77 })
        );
    }

    #[test]
    fn helper_fault_reports_call_site_pc() {
        // Regression: helper faults used to surface with the dispatcher's
        // placeholder pc (always 0). The interpreter must stamp the real
        // call site, including when lddw slots shift it.
        let [lo, hi] = build::lddw(1, 7);
        let insns = vec![build::mov_imm(0, 0), lo, hi, build::call(3), build::exit()];
        match run_with(insns, &mut Doubler, &[]) {
            Err(VmError::HelperFault { pc, helper: 3, reason }) => {
                assert_eq!(pc, 3, "pc must be the call's slot index");
                assert_eq!(reason, "boom");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn args_arrive_in_r1_to_r5() {
        let insns = vec![
            build::mov_reg(0, 1),
            build::add_reg(0, 2),
            build::add_reg(0, 3),
            build::add_reg(0, 4),
            build::add_reg(0, 5),
            build::exit(),
        ];
        match run_with(insns, &mut NoHelpers, &[1, 2, 3, 4, 5]).unwrap() {
            ExecOutcome::Return(v) => assert_eq!(v, 15),
            _ => panic!(),
        }
    }

    #[test]
    fn reading_host_buffer_region() {
        // Program reads a big-endian u32 from a read-only host buffer whose
        // address arrives in r1, then byte-swaps it to host order.
        let prog = Program::new(vec![
            build::ldxw(0, 1, 0),
            Insn::new(op::CLS_ALU | op::ALU_END | op::SRC_X, 0, 0, 0, 32),
            build::exit(),
        ]);
        let mut mem = MemoryMap::new();
        mem.map(Region::new(
            RegionKind::HostBuf,
            crate::HOST_BUF_BASE,
            0xc0a8_0101u32.to_be_bytes().to_vec(), // 192.168.1.1 in NBO
            false,
        ));
        let out = Vm::new(&prog).run(&mut mem, &mut NoHelpers, &[crate::HOST_BUF_BASE]).unwrap();
        assert_eq!(out, ExecOutcome::Return(0xc0a8_0101));
    }

    #[test]
    fn run_metered_counts_instructions_and_helpers() {
        // mov, call(×2 — one Value, then exit): 4 instructions retired,
        // 2 helper calls.
        let prog = Program::new(vec![
            build::mov_imm(1, 21),
            build::call(1),
            build::call(1),
            build::exit(),
        ]);
        let mut mem = MemoryMap::new();
        let (out, m) = Vm::new(&prog).run_metered(&mut mem, &mut Doubler, &[]);
        assert!(matches!(out, Ok(ExecOutcome::Return(_))));
        assert_eq!(m.insns_retired, 4);
        assert_eq!(m.helper_calls, 2);
        assert_eq!(m.fuel_consumed, m.insns_retired);
    }

    #[test]
    fn run_metered_counts_lddw_once() {
        let [lo, hi] = build::lddw(0, 7);
        let prog = Program::new(vec![lo, hi, build::exit()]);
        let mut mem = MemoryMap::new();
        let (out, m) = Vm::new(&prog).run_metered(&mut mem, &mut NoHelpers, &[]);
        assert_eq!(out, Ok(ExecOutcome::Return(7)));
        assert_eq!(m.insns_retired, 2, "lddw retires as one instruction");
    }

    #[test]
    fn run_metered_reports_full_fuel_on_exhaustion() {
        let prog = Program::new(vec![build::ja(-1)]);
        let mut mem = MemoryMap::new();
        let vm = Vm::with_config(&prog, VmConfig { fuel: 123 });
        let (out, m) = vm.run_metered(&mut mem, &mut NoHelpers, &[]);
        assert_eq!(out, Err(VmError::FuelExhausted { pc: 0 }));
        assert_eq!(m.fuel_consumed, 123);
        assert_eq!(m.insns_retired, 123);
        assert_eq!(m.helper_calls, 0);
    }

    #[test]
    fn straight_line_code_is_not_stopped_between_checks() {
        // Fuel is only enforced at back-edges and calls: a loop-free,
        // call-free program runs to completion even on an empty budget,
        // overshooting by exactly its own length.
        let prog = Program::new(vec![build::mov_imm(0, 9), build::exit()]);
        let mut mem = MemoryMap::new();
        let vm = Vm::with_config(&prog, VmConfig { fuel: 0 });
        let (out, m) = vm.run_metered(&mut mem, &mut NoHelpers, &[]);
        assert_eq!(out, Ok(ExecOutcome::Return(9)));
        assert_eq!(m.insns_retired, 2);
    }

    #[test]
    fn helper_calls_are_fuel_check_points() {
        // A program that only ever jumps *forward* to a call still cannot
        // run for free: the call site enforces the budget.
        let prog = Program::new(vec![build::call(1), build::exit()]);
        let mut mem = MemoryMap::new();
        let vm = Vm::with_config(&prog, VmConfig { fuel: 0 });
        let (out, _) = vm.run_metered(&mut mem, &mut Doubler, &[]);
        assert_eq!(out, Err(VmError::FuelExhausted { pc: 0 }));
    }

    #[test]
    fn verified_programs_execute_clean() {
        // Everything the verifier accepts in its own tests must also run
        // without BadInstruction.
        let progs: Vec<Vec<Insn>> = vec![
            vec![build::mov_imm(0, 0), build::exit()],
            vec![build::mov_imm(0, 0), build::ja(-2)],
        ];
        let helpers: HashSet<u32> = HashSet::new();
        for insns in progs {
            let p = Program::new(insns);
            verify(&p, &helpers).unwrap();
            let mut mem = MemoryMap::new();
            let vm = Vm::with_config(&p, VmConfig { fuel: 100 });
            match vm.run(&mut mem, &mut NoHelpers, &[]) {
                Ok(_) | Err(VmError::FuelExhausted { .. }) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
}
