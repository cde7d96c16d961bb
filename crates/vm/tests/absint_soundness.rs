//! Soundness of proof-carrying check elision: on every verifier-accepted
//! program, running with elision armed (the default) must be bit-for-bit
//! identical to running with every dynamic check in place — same outcome
//! or typed fault at the same slot pc, same `RunMetrics` ledger, same
//! final stack bytes. The generator draws over the full lowered ISA —
//! ALU/shift/neg/byteswap bodies, guarded skips in both JMP classes,
//! counted loops, in-bounds stack traffic, wild faulting accesses — so
//! elided stack loads sit next to accesses the analysis cannot prove.
//!
//! The same generator, extended with loads through a watched helper's
//! pointer, checks the other thing the host relies on: when the analysis
//! reports which bytes of that window a program can observe
//! (`WatchedReads::Bytes`), two runs whose windows differ only in the
//! other bytes are indistinguishable.
//!
//! Also here: the must-reject corpus (uninitialized reads, constant
//! out-of-bounds frame slots) and the loop-bound inference contracts
//! (counted loops get a static worst case, wrap-prone or data-dependent
//! loops must stay `None`).

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use xbgp_vm::insn::{build, op, Insn, Program};
use xbgp_vm::interp::{HelperDispatcher, HelperOutcome, NoHelpers};
use xbgp_vm::verify::{verify_and_load_with, VerifyError};
use xbgp_vm::{
    verify_and_load, AnalysisOptions, ExecOutcome, HelperContract, HelperRet, LoadedProgram,
    MemKind, MemoryMap, Region, RegionKind, RunMetrics, Unbounded, VmConfig, VmError, WatchedReads,
    HEAP_BASE, STACK_BASE, STACK_SIZE,
};

const GEN_REGS: u8 = 6;

fn reg() -> impl Strategy<Value = u8> {
    0u8..GEN_REGS
}

fn alu_insn() -> impl Strategy<Value = Insn> {
    let ops = prop_oneof![
        Just(op::ALU_ADD),
        Just(op::ALU_SUB),
        Just(op::ALU_MUL),
        Just(op::ALU_DIV),
        Just(op::ALU_OR),
        Just(op::ALU_AND),
        Just(op::ALU_XOR),
        Just(op::ALU_MOD),
        Just(op::ALU_MOV),
    ];
    (any::<bool>(), ops, any::<bool>(), reg(), reg(), any::<i32>()).prop_map(
        |(is64, opb, use_src, dst, src, imm)| {
            let cls = if is64 { op::CLS_ALU64 } else { op::CLS_ALU };
            let srcbit = if use_src { op::SRC_X } else { op::SRC_K };
            let imm = if matches!(opb, op::ALU_DIV | op::ALU_MOD) && !use_src && imm == 0 {
                1
            } else {
                imm
            };
            Insn::new(cls | opb | srcbit, dst, src, 0, imm)
        },
    )
}

fn shift_insn() -> impl Strategy<Value = Insn> {
    let ops = prop_oneof![Just(op::ALU_LSH), Just(op::ALU_RSH), Just(op::ALU_ARSH)];
    (any::<bool>(), ops, any::<bool>(), reg(), reg(), 0i32..64).prop_map(
        |(is64, opb, use_src, dst, src, amt)| {
            let cls = if is64 { op::CLS_ALU64 } else { op::CLS_ALU };
            let srcbit = if use_src { op::SRC_X } else { op::SRC_K };
            let amt = if !use_src && !is64 { amt % 32 } else { amt };
            Insn::new(cls | opb | srcbit, dst, src, 0, amt)
        },
    )
}

fn neg_insn() -> impl Strategy<Value = Insn> {
    (any::<bool>(), reg()).prop_map(|(is64, dst)| {
        let cls = if is64 { op::CLS_ALU64 } else { op::CLS_ALU };
        Insn::new(cls | op::ALU_NEG, dst, 0, 0, 0)
    })
}

/// Byteswaps: `be16/32/64` (SRC bit set) and `le16/32/64`.
fn end_insn() -> impl Strategy<Value = Insn> {
    (prop_oneof![Just(16), Just(32), Just(64)], any::<bool>(), reg()).prop_map(
        |(width, to_be, dst)| {
            let srcbit = if to_be { op::SRC_X } else { op::SRC_K };
            Insn::new(op::CLS_ALU | op::ALU_END | srcbit, dst, 0, 0, width)
        },
    )
}

/// In-bounds stack traffic through r10 — the accesses the analysis
/// proves and elides.
fn stack_insn() -> impl Strategy<Value = Insn> {
    let slots = (STACK_SIZE / 8) as i16;
    (any::<bool>(), reg(), 0i16..slots).prop_map(|(store, r, slot)| {
        let off = -8 * (slot + 1);
        if store {
            build::stxdw(10, r, off)
        } else {
            build::ldxdw(r, 10, off)
        }
    })
}

/// An access through a data register: usually faults, never elidable —
/// the fault must be identical with elision on and off.
fn wild_mem_insn() -> impl Strategy<Value = Insn> {
    (any::<bool>(), reg(), reg(), any::<i16>()).prop_map(|(store, a, b, off)| {
        if store {
            build::stxdw(a, b, off)
        } else {
            build::ldxb(a, b, off)
        }
    })
}

fn body_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        alu_insn(),
        alu_insn(),
        alu_insn(),
        shift_insn(),
        neg_insn(),
        end_insn(),
        stack_insn(),
        stack_insn(),
        stack_insn(),
        wild_mem_insn(),
    ]
}

#[derive(Debug, Clone, Copy)]
struct Guard {
    cls32: bool,
    opb: u8,
    use_src: bool,
    dst: u8,
    src: u8,
    imm: i32,
}

fn guard() -> impl Strategy<Value = Guard> {
    let ops = prop_oneof![
        Just(op::JMP_JEQ),
        Just(op::JMP_JGT),
        Just(op::JMP_JGE),
        Just(op::JMP_JSET),
        Just(op::JMP_JNE),
        Just(op::JMP_JSGT),
        Just(op::JMP_JSGE),
        Just(op::JMP_JLT),
        Just(op::JMP_JLE),
        Just(op::JMP_JSLT),
        Just(op::JMP_JSLE),
    ];
    (any::<bool>(), ops, any::<bool>(), reg(), reg(), any::<i32>()).prop_map(
        |(cls32, opb, use_src, dst, src, imm)| Guard { cls32, opb, use_src, dst, src, imm },
    )
}

type Segment = (Option<Guard>, Vec<Insn>);

fn segments() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (proptest::option::of(guard()), proptest::collection::vec(body_insn(), 0..12)),
        0..6,
    )
}

fn assemble(seeds: [u64; GEN_REGS as usize], segs: &[Segment], loop_iters: Option<u8>) -> Program {
    let mut p: Vec<Insn> = Vec::new();
    for (r, s) in seeds.iter().enumerate() {
        p.extend(build::lddw(r as u8, *s));
    }
    if let Some(iters) = loop_iters {
        p.push(build::mov_imm(5, i32::from(iters)));
    }
    let body_start = p.len();
    for (g, body) in segs {
        if let Some(g) = g {
            let cls = if g.cls32 { op::CLS_JMP32 } else { op::CLS_JMP };
            let srcbit = if g.use_src { op::SRC_X } else { op::SRC_K };
            p.push(Insn::new(cls | g.opb | srcbit, g.dst, g.src, body.len() as i16, g.imm));
        }
        p.extend(body.iter().copied());
    }
    if loop_iters.is_some() {
        p.push(build::add_imm(5, -1));
        let jne_slot = p.len() as i64;
        let off = body_start as i64 - (jne_slot + 1);
        p.push(build::jne_imm(5, 0, off as i16));
    }
    for r in 0..GEN_REGS {
        p.push(build::stxdw(10, r, -8 * (i16::from(r) + 1)));
    }
    p.push(build::exit());
    Program::new(p)
}

type RunResult = (Result<ExecOutcome, VmError>, RunMetrics, Vec<u8>);

/// Run the same program with elision off and on and assert the two runs
/// are byte-identical.
fn assert_elision_sound(prog: &Program, fuel: u64, args: &[u64]) -> Result<(), TestCaseError> {
    let helpers = HashSet::new();
    let lp_on = match verify_and_load(prog, &helpers) {
        Ok(lp) => lp,
        Err(e) => {
            return Err(TestCaseError::fail(format!("generator emitted rejected program: {e}")))
        }
    };
    let mut lp_off = verify_and_load(prog, &helpers).expect("same program verified twice");
    lp_off.set_elide(false);
    let run = |lp: &LoadedProgram| -> RunResult {
        let mut mem = MemoryMap::new();
        let (out, metrics) = lp.run_metered(VmConfig { fuel }, &mut mem, &mut NoHelpers, args);
        let stack = mem.read_bytes(STACK_BASE, STACK_SIZE).expect("stack mapped");
        (out, metrics, stack)
    };
    prop_assert_eq!(run(&lp_off), run(&lp_on), "interpreter diverged with elision on");
    Ok(())
}

proptest! {
    /// Straight-line and guarded programs under generous fuel.
    #[test]
    fn elision_is_invisible_on_random_programs(
        seeds in any::<[u64; GEN_REGS as usize]>(),
        segs in segments(),
        args in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let prog = assemble(seeds, &segs, None);
        assert_elision_sound(&prog, 1_000_000, &args)?;
    }

    /// Counted loops: exercises the static-fuel ledger (when the bound is
    /// proven under the budget, exhaustion checks are elided too).
    #[test]
    fn elision_is_invisible_on_looped_programs(
        seeds in any::<[u64; GEN_REGS as usize]>(),
        segs in segments(),
        iters in 1u8..6,
    ) {
        let prog = assemble(seeds, &segs, Some(iters));
        assert_elision_sound(&prog, 1_000_000, &[])?;
    }

    /// Tight budgets: `FuelExhausted` at arbitrary points must be
    /// identical with elision on and off — the fuel-ledger elision may
    /// only arm when exhaustion is provably impossible.
    #[test]
    fn fuel_exhaustion_is_identical_with_elision(
        seeds in any::<[u64; GEN_REGS as usize]>(),
        segs in segments(),
        iters in proptest::option::of(1u8..6),
        fuel in 0u64..400,
    ) {
        let prog = assemble(seeds, &segs, iters);
        assert_elision_sound(&prog, fuel, &[])?;
    }
}

// ----- what a program can observe of a watched helper's window -----

/// `peer() -> ptr | 0` to a 24-byte block: the watched helper.
const PEER: u32 = 40;
/// `copy8(dst, src)`: a helper that reads through a pointer argument.
const COPY8: u32 = 41;
const WINDOW: usize = 24;
const HEAP_LEN: usize = 256;
/// Where the dispatcher places the block inside the heap.
const BLOCK_AT: u64 = HEAP_BASE + 64;

fn watch_opts() -> AnalysisOptions {
    let mut contracts = BTreeMap::new();
    contracts.insert(
        PEER,
        HelperContract {
            allowed: true,
            ptr_args: Vec::new(),
            ret: HelperRet::ZeroOrPtr { kind: MemKind::Heap, size: Some(WINDOW as u64) },
        },
    );
    contracts.insert(
        COPY8,
        HelperContract { allowed: true, ptr_args: vec![0, 1], ret: HelperRet::Scalar },
    );
    AnalysisOptions { contracts, watch: Some(PEER) }
}

fn load_watched(insns: Vec<Insn>) -> Result<LoadedProgram, VerifyError> {
    let helpers: HashSet<u32> = [PEER, COPY8].into_iter().collect();
    verify_and_load_with(&Program::new(insns), &helpers, &watch_opts())
}

/// Serves the two helpers out of a heap the run starts with.
struct PeerBlock([u8; WINDOW]);

impl HelperDispatcher for PeerBlock {
    fn call(
        &mut self,
        id: u32,
        args: [u64; 5],
        mem: &mut MemoryMap,
    ) -> Result<HelperOutcome, VmError> {
        match id {
            PEER => {
                mem.write_bytes(BLOCK_AT, &self.0)?;
                Ok(HelperOutcome::Value(BLOCK_AT))
            }
            COPY8 => {
                mem.copy_within(args[0], args[1], 8)?;
                Ok(HelperOutcome::Value(0))
            }
            other => Err(VmError::UnknownHelper { pc: 0, helper: other }),
        }
    }
}

/// Everything a run leaves observable: outcome, ledger, stack, and the
/// heap around the block.
fn observe(lp: &LoadedProgram, block: [u8; WINDOW]) -> (RunResult, Vec<u8>) {
    let mut mem = MemoryMap::new();
    mem.map(Region::new(RegionKind::Heap, HEAP_BASE, vec![0; HEAP_LEN], true));
    let (out, metrics) =
        lp.run_metered(VmConfig { fuel: 100_000 }, &mut mem, &mut PeerBlock(block), &[]);
    let stack = mem.read_bytes(STACK_BASE, STACK_SIZE).expect("stack mapped");
    let mut heap = mem.read_bytes(HEAP_BASE, HEAP_LEN).expect("heap mapped");
    let at = (BLOCK_AT - HEAP_BASE) as usize;
    heap.drain(at..at + WINDOW);
    ((out, metrics, stack), heap)
}

/// An instruction that touches the watched pointer, which the prologue
/// parks in r6 (outside the generator's register range): field loads of
/// every width at offsets around the window, copies into data registers
/// (where the ALU, the stack traffic and the guards then get at them),
/// and loads through a data register that may hold such a copy.
fn peer_insn() -> impl Strategy<Value = Insn> {
    let load = |w: u8, dst: u8, src: u8, off: i16| match w {
        0 => build::ldxb(dst, src, off),
        1 => build::ldxw(dst, src, off),
        _ => build::ldxdw(dst, src, off),
    };
    prop_oneof![
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), 0i16..20).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        (0u8..3, reg(), -4i16..28).prop_map(move |(w, r, off)| load(w, r, 6, off)),
        reg().prop_map(|r| build::mov_reg(r, 6)),
        (reg(), -8i32..32).prop_map(|(r, k)| build::add_imm(r, k)),
        (0u8..3, reg(), reg(), -4i16..28).prop_map(move |(w, a, b, off)| load(w, a, b, off)),
    ]
}

fn watched_segments() -> impl Strategy<Value = Vec<Segment>> {
    let body = prop_oneof![peer_insn(), peer_insn(), peer_insn(), alu_insn(), stack_insn()];
    proptest::collection::vec(
        (proptest::option::of(guard()), proptest::collection::vec(body, 1..6)),
        1..4,
    )
}

/// `r6 = peer()`, then the generated body over seeded data registers.
fn assemble_watched(seeds: [u64; GEN_REGS as usize], segs: &[Segment]) -> Vec<Insn> {
    let mut p = vec![build::call(PEER), build::mov_reg(6, 0)];
    p.extend(assemble(seeds, segs, None).insns);
    p
}

proptest! {
    /// Bytes the analysis says a program cannot observe really are
    /// invisible to it: randomize them and nothing the run leaves behind
    /// changes.
    #[test]
    fn unobserved_watched_bytes_are_invisible(
        seeds in any::<[u64; GEN_REGS as usize]>(),
        segs in watched_segments(),
        block in any::<[u8; WINDOW]>(),
        noise in any::<[u8; WINDOW]>(),
    ) {
        let Ok(lp) = load_watched(assemble_watched(seeds, &segs)) else {
            return Ok(()); // e.g. a constant out-of-frame slot
        };
        let WatchedReads::Bytes(mask) = lp.watched_reads() else {
            return Ok(()); // no bound claimed, nothing to hold it to
        };
        let mut other = block;
        for (i, b) in other.iter_mut().enumerate() {
            if mask >> i & 1 == 0 {
                *b = noise[i];
            }
        }
        prop_assert_eq!(observe(&lp, block), observe(&lp, other), "mask {:#x}", mask);
    }
}

/// The property above is not vacuous, and the mask is exact on the
/// canonical shape: a field load names exactly its bytes, null-checked
/// or not.
#[test]
fn field_loads_name_their_bytes() {
    let lp = load_watched(vec![
        build::call(PEER),
        build::ldxw(1, 0, 8),
        build::jeq_imm(0, 0, 1),
        build::ldxb(2, 0, 20),
        build::mov_imm(0, 0),
        build::exit(),
    ])
    .unwrap();
    assert_eq!(lp.watched_reads(), WatchedReads::Bytes(0xf << 8 | 1 << 20));
    // A program that never asks observes nothing.
    let lp = load_watched(vec![build::mov_imm(0, 0), build::exit()]).unwrap();
    assert_eq!(lp.watched_reads(), WatchedReads::Bytes(0));
    // A cursor walk over the whole window observes all of it.
    let lp = load_watched(vec![
        build::call(PEER),
        build::jeq_imm(0, 0, 6),
        build::mov_reg(6, 0),
        build::mov_reg(7, 0),
        build::add_imm(7, WINDOW as i32),
        build::ldxb(1, 6, 0),
        build::add_imm(6, 1),
        Insn::new(op::CLS_JMP | op::JMP_JLT | op::SRC_X, 6, 7, -3, 0),
        build::mov_imm(0, 0),
        build::exit(),
    ])
    .unwrap();
    assert_eq!(lp.watched_reads(), WatchedReads::Bytes((1 << WINDOW) - 1));
}

fn unbounded_why(insns: Vec<Insn>) -> Unbounded {
    match load_watched(insns).unwrap().watched_reads() {
        WatchedReads::Unbounded { why, .. } => why,
        bytes => panic!("claimed a bound: {bytes:?}"),
    }
}

/// Every way the pointer can get out of the analysis's sight must give
/// up the bound rather than under-report.
#[test]
fn escaping_watched_pointers_give_up_the_bound() {
    // Passed to a helper that reads through it.
    let copy = vec![
        build::call(PEER),
        build::mov_reg(2, 0),
        build::mov_reg(1, 10),
        build::add_imm(1, -32),
        build::call(COPY8),
        build::exit(),
    ];
    assert_eq!(unbounded_why(copy), Unbounded::HelperArg);
    // Spilled to the stack (and reloadable as a plain number).
    let spill = vec![build::call(PEER), build::stxdw(10, 0, -8), build::exit()];
    assert_eq!(unbounded_why(spill), Unbounded::Stored);
    // Merged from two call sites: the pointer is still known to alias
    // the window, its offset inside it no longer is.
    let merged = vec![
        build::call(PEER),
        build::mov_reg(6, 0),
        build::jne_imm(6, 0, 2),
        build::call(PEER),
        build::mov_reg(6, 0),
        build::ldxb(0, 6, 0),
        build::exit(),
    ];
    assert_eq!(unbounded_why(merged), Unbounded::Anonymous);
    // Laundered through 32-bit arithmetic into a plain number.
    let laundered = vec![
        build::call(PEER),
        Insn::new(op::CLS_ALU | op::ALU_MOV | op::SRC_X, 1, 0, 0, 0),
        build::ldxb(0, 1, 0),
        build::exit(),
    ];
    assert_eq!(unbounded_why(laundered), Unbounded::UnprovenAccess);
    // A helper argument that is a pointer nobody tracked.
    let wild_arg = vec![
        build::mov_reg(2, 1),
        build::mov_reg(1, 10),
        build::add_imm(1, -32),
        build::call(COPY8),
        build::exit(),
    ];
    assert_eq!(unbounded_why(wild_arg), Unbounded::UnprovenHelperArg);
}

// ----- deterministic anchors -----

/// The analysis must actually prove something on the canonical shape —
/// otherwise the proptests above pass vacuously.
#[test]
fn stack_traffic_is_elided_and_still_identical() {
    let mut p: Vec<Insn> = Vec::new();
    p.push(build::mov_imm(0, 7));
    for slot in 0..8i16 {
        p.push(build::stxdw(10, 0, -8 * (slot + 1)));
    }
    for slot in 0..8i16 {
        p.push(build::ldxdw(1, 10, -8 * (slot + 1)));
    }
    p.push(build::mov_reg(0, 1));
    p.push(build::exit());
    let prog = Program::new(p);
    let lp = verify_and_load(&prog, &HashSet::new()).unwrap();
    let mut mem = MemoryMap::new();
    let (out, metrics) = lp.run_metered(VmConfig { fuel: 1000 }, &mut mem, &mut NoHelpers, &[]);
    assert_eq!(out, Ok(ExecOutcome::Return(7)));
    assert_eq!(metrics.insns_retired, 19, "metrics survive the saturated ledger");
}

/// A counted decrement loop gets a static worst-case fuel bound.
#[test]
fn counted_loop_has_static_fuel_bound() {
    let p = vec![
        build::mov_imm(1, 1000),
        build::add_imm(1, -1),
        build::jne_imm(1, 0, -2),
        build::mov_imm(0, 0),
        build::exit(),
    ];
    let lp = verify_and_load(&Program::new(p), &HashSet::new()).unwrap();
    let w = lp.worst_fuel().expect("counted loop must be bounded");
    // 1 seed + 1000 × (add + jne) + mov + exit.
    assert_eq!(w, 1 + 2 * 1000 + 2);
    // Budget above the bound: the run must complete and meter exactly.
    let mut mem = MemoryMap::new();
    let (out, metrics) = lp.run_metered(VmConfig { fuel: w + 1 }, &mut mem, &mut NoHelpers, &[]);
    assert_eq!(out, Ok(ExecOutcome::Return(0)));
    assert_eq!(metrics.fuel_consumed, w);
}

/// An increment loop whose counter can wrap before reaching the bound
/// must NOT be claimed bounded (the first-iteration wrap hole).
#[test]
fn wrapping_increment_loop_is_unbounded() {
    let mut p: Vec<Insn> = Vec::new();
    p.extend(build::lddw(1, u64::MAX));
    p.push(build::add_imm(1, 1)); // wraps to 0 on the first iteration
    p.push(Insn::new(op::CLS_JMP | op::JMP_JLT | op::SRC_K, 1, 0, -2, 5));
    p.push(build::mov_imm(0, 0));
    p.push(build::exit());
    let lp = verify_and_load(&Program::new(p), &HashSet::new()).unwrap();
    assert!(
        lp.worst_fuel().is_none(),
        "wrap-prone loop claimed bounded: {:?}",
        lp.worst_fuel()
    );
}

/// A data-dependent loop (counter from an argument register) stays
/// unbounded.
#[test]
fn data_dependent_loop_is_unbounded() {
    let p = vec![
        build::mov_reg(2, 1),
        build::add_imm(2, -1),
        build::jne_imm(2, 0, -2),
        build::mov_imm(0, 0),
        build::exit(),
    ];
    let lp = verify_and_load(&Program::new(p), &HashSet::new()).unwrap();
    assert!(lp.worst_fuel().is_none());
}

// ----- must-reject corpus -----

#[test]
fn uninit_read_is_rejected() {
    // r6 is callee-saved and never written.
    let p = vec![build::mov_reg(0, 6), build::exit()];
    let err = verify_and_load(&Program::new(p), &HashSet::new()).unwrap_err();
    assert!(matches!(err, VerifyError::UninitRead { pc: 0, reg: 6, .. }), "{err:?}");
}

#[test]
fn uninit_r0_at_exit_is_rejected() {
    // `exit` returns r0, which was never written.
    let p = vec![build::exit()];
    let err = verify_and_load(&Program::new(p), &HashSet::new()).unwrap_err();
    assert!(matches!(err, VerifyError::UninitRead { reg: 0, .. }), "{err:?}");
}

#[test]
fn oob_constant_stack_slot_is_rejected() {
    // One slot below the 512-byte frame.
    let p = vec![build::mov_imm(0, 0), build::stxdw(10, 0, -520), build::exit()];
    let err = verify_and_load(&Program::new(p), &HashSet::new()).unwrap_err();
    assert!(
        matches!(err, VerifyError::OobStackAccess { pc: 1, off: -520, size: 8, .. }),
        "{err:?}"
    );
    // At the boundary (r10-512, 8 bytes): legal.
    let p = vec![build::mov_imm(0, 0), build::stxdw(10, 0, -512), build::exit()];
    assert!(verify_and_load(&Program::new(p), &HashSet::new()).is_ok());
    // Positive offsets (above the frame) are equally out.
    let p = vec![build::mov_imm(0, 0), build::ldxdw(0, 10, 0), build::exit()];
    let err = verify_and_load(&Program::new(p), &HashSet::new()).unwrap_err();
    assert!(matches!(err, VerifyError::OobStackAccess { pc: 1, off: 0, .. }), "{err:?}");
}

#[test]
fn unreachable_code_is_rejected() {
    let p = vec![
        build::mov_imm(0, 0),
        build::exit(),
        build::mov_imm(0, 1), // dead
        build::exit(),
    ];
    let err = verify_and_load(&Program::new(p), &HashSet::new()).unwrap_err();
    assert!(matches!(err, VerifyError::UnreachableCode { pc: 2 }), "{err:?}");
}
