//! Abstract interpretation over the pre-decoded [`DInsn`] stream.
//!
//! Runs after structural verification (see [`crate::verify`]) and derives
//! load-time proofs that let the interpreter drop dynamic checks:
//!
//! * **Memory safety** — every `LDX`/`STX` whose address is provably inside
//!   its region gets an [`elide::BOUNDS`] proof bit; the interpreter then
//!   reads the backing slice directly instead of walking the region table.
//! * **Loop bounds** — counted self-loops (induction-variable patterns over
//!   the verifier-proven back-edge set) yield a static worst-case fuel cost
//!   for the whole program ([`LoadedProgram::worst_fuel`]); when that bound
//!   fits under the configured budget the interpreter may start from a
//!   saturated fuel ledger, knowing exhaustion cannot fire.
//! * **Hard errors** — reads of never-written registers, structurally
//!   unreachable code, and helper-contract violations (disallowed helper at
//!   an insertion point, provably-bad pointer argument) become
//!   [`VerifyError`]s at load time instead of runtime faults.
//! * **Lint facts** — dead register stores, constant-condition branches and
//!   the stack high-water mark are reported as [`Warning`]s for `xbgp-lint`.
//!
//! Everything is proof-carrying and **fail-open**: an instruction the
//! analysis cannot prove simply keeps its dynamic check (`flags == 0`), so
//! elision-on and elision-off runs are byte-identical by construction.
//!
//! # Abstract domain
//!
//! Each register holds an [`Av`]:
//!
//! * `Uninit` — may not have been written (join-absorbing, so "maybe
//!   uninitialized" propagates as must-not-read).
//! * `Scalar(Iv)` — unsigned 64-bit interval.
//! * `FailOr(Iv)` — `Iv ∪ {u64::MAX}`, the shape of length-or-fail helper
//!   returns; branch refinement against `-1` splits it exactly.
//! * `Ptr(Pv)` / `ZeroOrPtr(Pv)` — pointer (resp. nullable pointer) with
//!   provenance: region kind, an allocation *root* (the frame, or a helper
//!   call site), a delta interval relative to that root, and the window of
//!   valid bytes `[w_lo, w_hi)` relative to the root. Deltas are relational:
//!   two pointers with the same (non-anonymous) root can refine each other
//!   through compares, which is what proves guarded cursor loops.
//!
//! Roots are scrubbed at each helper call: values rooted at *that* call site
//! demote to the anonymous root (windows re-based onto the pointer itself),
//! because re-executing the site returns a fresh allocation. The previous
//! allocation stays mapped for the rest of the run — the dispatcher's heap
//! is bump-allocated — so the re-based window remains valid.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::insn::{mnemonic, Program};
use crate::prep::{elide, DInsn, DOp, LoadedProgram};
use crate::verify::VerifyError;
use crate::{STACK_BASE, STACK_SIZE};

/// Region kind a helper contract may hand out pointers into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    Stack,
    Heap,
    Shared,
}

impl MemKind {
    fn elide_kind(self) -> u8 {
        match self {
            MemKind::Stack => elide::KIND_STACK,
            MemKind::Heap => elide::KIND_HEAP,
            MemKind::Shared => elide::KIND_SHARED,
        }
    }
}

/// Abstract return value of a helper.
#[derive(Debug, Clone, Copy)]
pub enum HelperRet {
    /// Arbitrary scalar.
    Scalar,
    /// Length in `[0, cap]` where `cap` is argument `cap_arg`'s value, or
    /// `u64::MAX` on failure (the `get_attr` family).
    LenOrFail { cap_arg: u8 },
    /// Null, or a pointer to a fresh allocation of `size` bytes (`None` =
    /// unknown size: provenance tracked, nothing elidable).
    ZeroOrPtr { kind: MemKind, size: Option<u64> },
    /// Null, or a pointer to an allocation whose size is argument
    /// `size_arg`'s value (`ctx_malloc`-style). The provable window is the
    /// *guaranteed minimum* of that argument.
    ZeroOrPtrSizedByArg { kind: MemKind, size_arg: u8 },
}

/// Per-helper contract, resolved by the host layer for one insertion point.
#[derive(Debug, Clone)]
pub struct HelperContract {
    /// Whether this helper may be called at the insertion point at all.
    pub allowed: bool,
    /// Argument indices (0 = r1) that must be pointers when non-null.
    pub ptr_args: Vec<u8>,
    pub ret: HelperRet,
}

/// Analysis configuration. Helpers absent from `contracts` are treated
/// fail-open: unknown scalar return, no argument constraints, allowed.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    pub contracts: BTreeMap<u32, HelperContract>,
    /// Helper whose returned window is *watched*: the analysis reports
    /// which of its bytes the program may observe
    /// ([`Analysis::watched`]). The host sets this to `get_peer_info` so
    /// it can tell which peers a program cannot tell apart.
    pub watch: Option<u32>,
}

/// Lint-grade diagnostics (never fatal).
#[derive(Debug, Clone)]
pub enum Warning {
    /// A side-effect-free register write whose value is never read.
    DeadStore {
        pc: usize,
        reg: u8,
        mnemonic: &'static str,
    },
    /// A conditional branch the analysis proves always goes one way.
    ConstBranch {
        pc: usize,
        mnemonic: &'static str,
        taken: bool,
    },
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::DeadStore { pc, reg, mnemonic } => {
                write!(f, "pc {pc}: dead store to r{reg} (`{mnemonic}`): value is never read")
            }
            Warning::ConstBranch { pc, mnemonic, taken } => {
                let way = if *taken { "taken" } else { "fall through" };
                write!(
                    f,
                    "pc {pc}: branch `{mnemonic}` always {way}s under the inferred value ranges"
                )
            }
        }
    }
}

/// Why no bound on the watched window's observable bytes was proven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unbounded {
    /// The analysis did not run to a fixpoint (not run, or out of budget).
    NotAnalyzed,
    /// A load or store not proven to stay inside one tracked allocation
    /// window: it may alias anything mapped, the watched window included.
    UnprovenAccess,
    /// A pointer into the watched window is passed to a helper, which may
    /// read through it.
    HelperArg,
    /// A helper pointer argument that is not a tracked pointer, so it may
    /// point into the watched window.
    UnprovenHelperArg,
    /// A pointer into the watched window is stored to memory.
    Stored,
    /// An access through a pointer that may point into the watched window
    /// but lost its allocation root (merged, widened or re-allocated), so
    /// its offset inside the window is unknown.
    Anonymous,
}

/// What a program can observe of the window returned by the watched
/// helper ([`AnalysisOptions::watch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchedReads {
    /// Every reachable memory access provably stays inside one tracked
    /// allocation window, no pointer into the watched window leaves the
    /// registers, and bit `i` is set for every byte `i` of the watched
    /// window some load may read. Two runs whose watched windows differ
    /// only in unset bytes are indistinguishable to the program.
    Bytes(u64),
    /// No such bound; `pc` is the slot pc of the first reason found.
    Unbounded { pc: usize, why: Unbounded },
}

impl Default for WatchedReads {
    fn default() -> WatchedReads {
        WatchedReads::Unbounded { pc: 0, why: Unbounded::NotAnalyzed }
    }
}

/// Facts the fixpoint proved about one program.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Static worst-case fuel for a complete run, when every cycle is a
    /// counted self-loop. `None` = at least one unbounded/unrecognized loop.
    pub worst_fuel: Option<u64>,
    /// Loads whose bounds check was proven elidable.
    pub elided_loads: usize,
    /// Stores whose bounds + writability checks were proven elidable.
    pub elided_stores: usize,
    /// Total reachable loads and stores (elided + dynamically checked).
    pub mem_accesses: usize,
    /// Counted self-loops with an inferred trip bound.
    pub bounded_loops: usize,
    /// Deepest proven frame access, in bytes below `r10` (0..=512).
    pub stack_high_water: i64,
    /// Observable bytes of the watched helper's window.
    pub watched: WatchedReads,
    pub warnings: Vec<Warning>,
}

const FRAME_ROOT: u32 = 0;
const ANON_ROOT: u32 = u32::MAX;
/// Widen a block's entry state after this many re-visits.
const WIDEN_AFTER: u32 = 8;
/// Relational (same-root) delta refinement is only sound while `base + delta`
/// cannot wrap; region bases sit well below 2^31, windows are tiny.
const DELTA_SANE: i64 = 1 << 30;

/// Unsigned 64-bit interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: u64,
    hi: u64,
}

impl Iv {
    const TOP: Iv = Iv { lo: 0, hi: u64::MAX };

    fn exact(k: u64) -> Iv {
        Iv { lo: k, hi: k }
    }

    fn is_exact(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn join(a: Iv, b: Iv) -> Iv {
        Iv { lo: a.lo.min(b.lo), hi: a.hi.max(b.hi) }
    }

    fn widen(old: Iv, new: Iv) -> Iv {
        Iv {
            lo: if new.lo < old.lo { 0 } else { new.lo },
            hi: if new.hi > old.hi { u64::MAX } else { new.hi },
        }
    }
}

/// Pointer provenance: `value = root_base + delta`, with `[w_lo, w_hi)` the
/// valid byte window relative to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pv {
    kind: u8,
    root: u32,
    d_lo: i64,
    d_hi: i64,
    w_lo: i64,
    w_hi: i64,
    /// May point into a window returned by the watched helper. Survives
    /// anonymization, so a pointer that lost its root is still known to
    /// (possibly) alias watched bytes.
    watched: bool,
}

impl Pv {
    fn frame() -> Pv {
        Pv {
            kind: elide::KIND_STACK,
            root: FRAME_ROOT,
            d_lo: 0,
            d_hi: 0,
            w_lo: -(STACK_SIZE as i64),
            w_hi: 0,
            watched: false,
        }
    }

    /// Re-base the window onto the pointer value itself and drop relations.
    /// Sound for every concrete delta in `[d_lo, d_hi]` (intersection).
    fn anonymize(self) -> Pv {
        let w_lo = self.w_lo.saturating_sub(self.d_lo);
        let w_hi = self.w_hi.saturating_sub(self.d_hi);
        let (w_lo, w_hi) = if w_lo <= w_hi { (w_lo, w_hi) } else { (0, 0) };
        Pv {
            kind: self.kind,
            root: ANON_ROOT,
            d_lo: 0,
            d_hi: 0,
            w_lo,
            w_hi,
            watched: self.watched,
        }
    }

    fn shift(self, k: i64) -> Option<Pv> {
        Some(Pv {
            d_lo: self.d_lo.checked_add(k)?,
            d_hi: self.d_hi.checked_add(k)?,
            ..self
        })
    }

    /// The root-relative byte range `[lo, hi)` a `size`-byte access at
    /// `self + off` may touch, when all of it provably lies inside the
    /// allocation window.
    fn range_in_window(&self, off: i64, size: i64) -> Option<(i64, i64)> {
        let lo = self.d_lo.checked_add(off)?;
        let hi = self.d_hi.checked_add(off)?.checked_add(size)?;
        (lo >= self.w_lo && hi <= self.w_hi).then_some((lo, hi))
    }

    fn shift_iv(self, iv: Iv, negate: bool) -> Option<Pv> {
        if iv.hi > i64::MAX as u64 {
            return None;
        }
        let (a, b) = if negate {
            (self.d_lo.checked_sub(iv.hi as i64)?, self.d_hi.checked_sub(iv.lo as i64)?)
        } else {
            (self.d_lo.checked_add(iv.lo as i64)?, self.d_hi.checked_add(iv.hi as i64)?)
        };
        Some(Pv { d_lo: a, d_hi: b, ..self })
    }
}

/// Abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Av {
    Uninit,
    Scalar(Iv),
    FailOr(Iv),
    Ptr(Pv),
    ZeroOrPtr(Pv),
}

impl Av {
    const TOP: Av = Av::Scalar(Iv::TOP);

    /// The scalar view of a value, for arithmetic that consumes it as a
    /// number. Pointers and maybe-uninit values give the full range.
    fn as_iv(&self) -> Iv {
        match self {
            Av::Scalar(iv) => *iv,
            Av::FailOr(iv) => Iv { lo: iv.lo, hi: u64::MAX },
            _ => Iv::TOP,
        }
    }
}

type State = [Av; 11];

fn entry_state() -> State {
    let mut st = [Av::Uninit; 11];
    // r1-r5 carry the host-marshalled arguments — addresses included — so
    // they enter as unknown scalars, not uninitialized.
    for r in st.iter_mut().take(6).skip(1) {
        *r = Av::TOP;
    }
    st[10] = Av::Ptr(Pv::frame());
    st
}

fn join_ptr(p: Pv, q: Pv) -> Av {
    if p.kind != q.kind {
        return Av::TOP;
    }
    if p.root == q.root && p.root != ANON_ROOT {
        return Av::Ptr(Pv {
            kind: p.kind,
            root: p.root,
            d_lo: p.d_lo.min(q.d_lo),
            d_hi: p.d_hi.max(q.d_hi),
            w_lo: p.w_lo.max(q.w_lo),
            w_hi: p.w_hi.min(q.w_hi),
            watched: p.watched || q.watched,
        });
    }
    let (a, b) = (p.anonymize(), q.anonymize());
    let w_lo = a.w_lo.max(b.w_lo);
    let w_hi = a.w_hi.min(b.w_hi);
    let (w_lo, w_hi) = if w_lo <= w_hi { (w_lo, w_hi) } else { (0, 0) };
    Av::Ptr(Pv {
        kind: p.kind,
        root: ANON_ROOT,
        d_lo: 0,
        d_hi: 0,
        w_lo,
        w_hi,
        watched: p.watched || q.watched,
    })
}

fn join_av(a: Av, b: Av) -> Av {
    use Av::*;
    match (a, b) {
        (Uninit, _) | (_, Uninit) => Uninit,
        (Scalar(x), Scalar(y)) => Scalar(Iv::join(x, y)),
        (Scalar(x), FailOr(y)) | (FailOr(y), Scalar(x)) | (FailOr(x), FailOr(y)) => {
            FailOr(Iv::join(x, y))
        }
        (Ptr(p), Ptr(q)) => join_ptr(p, q),
        (ZeroOrPtr(p), ZeroOrPtr(q)) | (Ptr(p), ZeroOrPtr(q)) | (ZeroOrPtr(p), Ptr(q)) => {
            match join_ptr(p, q) {
                Ptr(r) => ZeroOrPtr(r),
                other => other,
            }
        }
        (Scalar(x), Ptr(p) | ZeroOrPtr(p)) | (Ptr(p) | ZeroOrPtr(p), Scalar(x)) => {
            if x == Iv::exact(0) {
                ZeroOrPtr(p)
            } else {
                Av::TOP
            }
        }
        (FailOr(_), Ptr(_) | ZeroOrPtr(_)) | (Ptr(_) | ZeroOrPtr(_), FailOr(_)) => Av::TOP,
    }
}

/// Windows at most this wide let their pointer deltas ascend exactly
/// instead of widening: the chain is bounded by the window size, so the
/// fixpoint terminates, and guard refinement (`refine_deltas`) keeps its
/// precision — this is what proves a cursor-vs-end-pointer memory walk.
/// The frame (512 B) and every helper-contract window fit; anything
/// larger jumps to the window edge, then ±∞.
const WIDEN_FREE_WINDOW: i64 = 1024;

/// Widening for pointer deltas. A delta still inside its root's window
/// either ascends exactly (small windows, see [`WIDEN_FREE_WINDOW`]) or
/// jumps to the window edge — both keep it within [`DELTA_SANE`], so
/// same-root guard refinement can still bound a walk. Only deltas already
/// outside the window widen to ±∞.
fn widen_delta(o: &Pv, n: &Pv) -> (i64, i64) {
    let small = n.w_hi.saturating_sub(n.w_lo) <= WIDEN_FREE_WINDOW;
    let d_lo = if n.d_lo >= o.d_lo {
        n.d_lo
    } else if n.d_lo >= n.w_lo {
        if small {
            n.d_lo
        } else {
            n.w_lo
        }
    } else {
        i64::MIN
    };
    let d_hi = if n.d_hi <= o.d_hi {
        n.d_hi
    } else if n.d_hi <= n.w_hi {
        if small {
            n.d_hi
        } else {
            n.w_hi
        }
    } else {
        i64::MAX
    };
    (d_lo, d_hi)
}

fn widen_av(old: Av, new: Av) -> Av {
    use Av::*;
    match (old, new) {
        (Scalar(o), Scalar(n)) => Scalar(Iv::widen(o, n)),
        (FailOr(o), FailOr(n)) => FailOr(Iv::widen(o, n)),
        (Ptr(o), Ptr(n)) | (Ptr(o), ZeroOrPtr(n)) if o.kind == n.kind && o.root == n.root => {
            let (d_lo, d_hi) = widen_delta(&o, &n);
            let widened = Pv { d_lo, d_hi, ..n };
            if matches!(new, Ptr(_)) {
                Ptr(widened)
            } else {
                ZeroOrPtr(widened)
            }
        }
        (ZeroOrPtr(o), ZeroOrPtr(n)) if o.kind == n.kind && o.root == n.root => {
            let (d_lo, d_hi) = widen_delta(&o, &n);
            ZeroOrPtr(Pv { d_lo, d_hi, ..n })
        }
        // Shape changed between visits: give up on precision for this slot.
        _ if old == new => new,
        (_, Uninit) => Uninit,
        (_, Ptr(p) | ZeroOrPtr(p)) => {
            // Collapse to an anonymous, windowless pointer so the chain ends.
            ZeroOrPtr(Pv { d_lo: 0, d_hi: 0, w_lo: 0, w_hi: 0, root: ANON_ROOT, ..p })
        }
        _ => Av::TOP,
    }
}

fn join_state(a: &State, b: &State) -> State {
    let mut out = [Av::Uninit; 11];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = join_av(a[i], b[i]);
    }
    out
}

fn widen_state(old: &State, new: &State) -> State {
    let mut out = [Av::Uninit; 11];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = widen_av(old[i], new[i]);
    }
    out
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Block {
    start: usize,
    /// Exclusive end: `end - 1` is the terminator slot.
    end: usize,
}

fn is_branch(op: DOp) -> bool {
    branch_parts(op).is_some()
}

fn build_blocks(code: &[DInsn], n: usize) -> (Vec<Block>, Vec<usize>) {
    let mut leaders = vec![false; n + 1];
    leaders[0] = true;
    for (i, ins) in code.iter().enumerate().take(n) {
        match ins.op {
            DOp::Ja => {
                leaders[ins.target as usize] = true;
                leaders[i + 1] = true;
            }
            DOp::Call | DOp::Exit | DOp::Trap | DOp::DivZero => leaders[i + 1] = true,
            op if is_branch(op) => {
                leaders[ins.target as usize] = true;
                leaders[i + 1] = true;
            }
            _ => {}
        }
    }
    let mut blocks = Vec::new();
    let mut block_of = vec![0usize; n];
    let mut start = 0;
    // `pc == n` is the sentinel that closes the final block, so the range
    // intentionally runs one past the `leaders` table.
    #[allow(clippy::needless_range_loop)]
    for pc in 1..=n {
        if pc == n || leaders[pc] {
            let b = blocks.len();
            blocks.push(Block { start, end: pc });
            for s in block_of.iter_mut().take(pc).skip(start) {
                *s = b;
            }
            start = pc;
        }
    }
    (blocks, block_of)
}

/// Structural successor dense-pcs of a block (all branch edges possible).
fn structural_succs(code: &[DInsn], b: Block, n: usize) -> Vec<usize> {
    let t = &code[b.end - 1];
    match t.op {
        DOp::Ja => vec![t.target as usize],
        DOp::Exit | DOp::Trap | DOp::DivZero => vec![],
        DOp::Call => {
            if b.end < n {
                vec![b.end]
            } else {
                vec![]
            }
        }
        op if is_branch(op) => {
            let mut v = vec![t.target as usize];
            if b.end < n {
                v.push(b.end);
            }
            v
        }
        _ => {
            if b.end < n {
                vec![b.end]
            } else {
                vec![]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Branch classification and refinement
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ck {
    Eq,
    Ne,
    Gt,
    Ge,
    Lt,
    Le,
    Sgt,
    Sge,
    Slt,
    Sle,
    Set,
}

/// `(condition, is_32bit, is_imm)` for conditional jumps; `None` otherwise.
fn branch_parts(op: DOp) -> Option<(Ck, bool, bool)> {
    use DOp::*;
    Some(match op {
        Jeq64Imm => (Ck::Eq, false, true),
        Jeq64Reg => (Ck::Eq, false, false),
        Jeq32Imm => (Ck::Eq, true, true),
        Jeq32Reg => (Ck::Eq, true, false),
        Jne64Imm => (Ck::Ne, false, true),
        Jne64Reg => (Ck::Ne, false, false),
        Jne32Imm => (Ck::Ne, true, true),
        Jne32Reg => (Ck::Ne, true, false),
        Jgt64Imm => (Ck::Gt, false, true),
        Jgt64Reg => (Ck::Gt, false, false),
        Jgt32Imm => (Ck::Gt, true, true),
        Jgt32Reg => (Ck::Gt, true, false),
        Jge64Imm => (Ck::Ge, false, true),
        Jge64Reg => (Ck::Ge, false, false),
        Jge32Imm => (Ck::Ge, true, true),
        Jge32Reg => (Ck::Ge, true, false),
        Jlt64Imm => (Ck::Lt, false, true),
        Jlt64Reg => (Ck::Lt, false, false),
        Jlt32Imm => (Ck::Lt, true, true),
        Jlt32Reg => (Ck::Lt, true, false),
        Jle64Imm => (Ck::Le, false, true),
        Jle64Reg => (Ck::Le, false, false),
        Jle32Imm => (Ck::Le, true, true),
        Jle32Reg => (Ck::Le, true, false),
        Jsgt64Imm => (Ck::Sgt, false, true),
        Jsgt64Reg => (Ck::Sgt, false, false),
        Jsgt32Imm => (Ck::Sgt, true, true),
        Jsgt32Reg => (Ck::Sgt, true, false),
        Jsge64Imm => (Ck::Sge, false, true),
        Jsge64Reg => (Ck::Sge, false, false),
        Jsge32Imm => (Ck::Sge, true, true),
        Jsge32Reg => (Ck::Sge, true, false),
        Jslt64Imm => (Ck::Slt, false, true),
        Jslt64Reg => (Ck::Slt, false, false),
        Jslt32Imm => (Ck::Slt, true, true),
        Jslt32Reg => (Ck::Slt, true, false),
        Jsle64Imm => (Ck::Sle, false, true),
        Jsle64Reg => (Ck::Sle, false, false),
        Jsle32Imm => (Ck::Sle, true, true),
        Jsle32Reg => (Ck::Sle, true, false),
        Jset64Imm => (Ck::Set, false, true),
        Jset64Reg => (Ck::Set, false, false),
        Jset32Imm => (Ck::Set, true, true),
        Jset32Reg => (Ck::Set, true, false),
        _ => return None,
    })
}

fn invert(ck: Ck) -> Option<Ck> {
    Some(match ck {
        Ck::Eq => Ck::Ne,
        Ck::Ne => Ck::Eq,
        Ck::Gt => Ck::Le,
        Ck::Ge => Ck::Lt,
        Ck::Lt => Ck::Ge,
        Ck::Le => Ck::Gt,
        Ck::Sgt => Ck::Sle,
        Ck::Sge => Ck::Slt,
        Ck::Slt => Ck::Sge,
        Ck::Sle => Ck::Sgt,
        Ck::Set => return None,
    })
}

/// Map a signed compare to its unsigned twin when every involved value is
/// provably in the non-negative `i64` range.
fn designed(ck: Ck, ivs: &[Iv], k: Option<u64>) -> Option<Ck> {
    let unsigned = match ck {
        Ck::Sgt => Ck::Gt,
        Ck::Sge => Ck::Ge,
        Ck::Slt => Ck::Lt,
        Ck::Sle => Ck::Le,
        other => return Some(other),
    };
    let sane =
        ivs.iter().all(|iv| iv.hi <= i64::MAX as u64) && k.is_none_or(|k| k <= i64::MAX as u64);
    sane.then_some(unsigned)
}

/// Refine `iv` under `iv <ck> k` holding. `None` = condition cannot hold.
fn refine_iv(iv: Iv, ck: Ck, k: u64) -> Option<Iv> {
    let out = match ck {
        Ck::Eq => Iv { lo: iv.lo.max(k), hi: iv.hi.min(k) },
        Ck::Ne => {
            if iv.is_exact() == Some(k) {
                return None;
            }
            let mut o = iv;
            if o.lo == k {
                o.lo = o.lo.checked_add(1)?;
            }
            if o.hi == k {
                o.hi = o.hi.checked_sub(1)?;
            }
            o
        }
        Ck::Gt => Iv { lo: iv.lo.max(k.checked_add(1)?), hi: iv.hi },
        Ck::Ge => Iv { lo: iv.lo.max(k), hi: iv.hi },
        Ck::Lt => Iv { lo: iv.lo, hi: iv.hi.min(k.checked_sub(1)?) },
        Ck::Le => Iv { lo: iv.lo, hi: iv.hi.min(k) },
        // `Set` with a non-zero mask implies the value is non-zero only for
        // mask == value cases; not worth modelling. Signed forms reach here
        // only when `designed` already mapped them away.
        _ => iv,
    };
    (out.lo <= out.hi).then_some(out)
}

/// Refine both sides of `a <ck> b`. `None` = condition cannot hold.
fn refine_pair(a: Iv, b: Iv, ck: Ck) -> Option<(Iv, Iv)> {
    let out = match ck {
        Ck::Eq => {
            let m = Iv { lo: a.lo.max(b.lo), hi: a.hi.min(b.hi) };
            (m, m)
        }
        Ck::Ne => {
            if a.is_exact().is_some() && a.is_exact() == b.is_exact() {
                return None;
            }
            (a, b)
        }
        Ck::Gt => (
            Iv { lo: a.lo.max(b.lo.checked_add(1)?), hi: a.hi },
            Iv { lo: b.lo, hi: b.hi.min(a.hi.checked_sub(1)?) },
        ),
        Ck::Ge => (Iv { lo: a.lo.max(b.lo), hi: a.hi }, Iv { lo: b.lo, hi: b.hi.min(a.hi) }),
        Ck::Lt => (
            Iv { lo: a.lo, hi: a.hi.min(b.hi.checked_sub(1)?) },
            Iv { lo: b.lo.max(a.lo.checked_add(1)?), hi: b.hi },
        ),
        Ck::Le => (Iv { lo: a.lo, hi: a.hi.min(b.hi) }, Iv { lo: b.lo.max(a.lo), hi: b.hi }),
        _ => (a, b),
    };
    (out.0.lo <= out.0.hi && out.1.lo <= out.1.hi).then_some(out)
}

/// Same-root pointer-delta refinement (signed `i64` mirror of `refine_pair`).
fn refine_deltas(a: (i64, i64), b: (i64, i64), ck: Ck) -> Option<((i64, i64), (i64, i64))> {
    let out = match ck {
        Ck::Eq => {
            let m = (a.0.max(b.0), a.1.min(b.1));
            (m, m)
        }
        Ck::Ne => {
            if a.0 == a.1 && b.0 == b.1 && a.0 == b.0 {
                return None;
            }
            (a, b)
        }
        Ck::Gt => ((a.0.max(b.0.checked_add(1)?), a.1), (b.0, b.1.min(a.1.checked_sub(1)?))),
        Ck::Ge => ((a.0.max(b.0), a.1), (b.0, b.1.min(a.1))),
        Ck::Lt => ((a.0, a.1.min(b.1.checked_sub(1)?)), (b.0.max(a.0.checked_add(1)?), b.1)),
        Ck::Le => ((a.0, a.1.min(b.1)), (b.0.max(a.0), b.1)),
        _ => (a, b),
    };
    (out.0 .0 <= out.0 .1 && out.1 .0 <= out.1 .1).then_some(out)
}

/// Refine a `FailOr` as the two-part union `iv ∪ {MAX}` under an imm compare.
fn refine_failor(iv: Iv, ck: Ck, k: u64) -> Option<Av> {
    let iv_part = refine_iv(iv, ck, k);
    let max_part = refine_iv(Iv::exact(u64::MAX), ck, k).is_some();
    match (iv_part, max_part) {
        (Some(v), true) => Some(Av::FailOr(v)),
        (Some(v), false) => Some(Av::Scalar(v)),
        (None, true) => Some(Av::Scalar(Iv::exact(u64::MAX))),
        (None, false) => None,
    }
}

/// Refine the branch operands in `st` under the branch at `ins` going
/// `taken`-ward. `None` = that edge is infeasible.
fn refine_edge(st: &State, ins: &DInsn, taken: bool) -> Option<State> {
    let (ck, is32, is_imm) = branch_parts(ins.op)?;
    let ck = if taken {
        ck
    } else {
        match invert(ck) {
            Some(c) => c,
            None => return Some(*st), // Jset fall: no refinement
        }
    };
    let mut out = *st;
    let dst = ins.dst as usize;
    if is_imm {
        let k = ins.imm;
        match st[dst] {
            Av::Scalar(iv) => {
                if is32 {
                    if iv.hi <= u32::MAX as u64 {
                        let ck = designed(ck, &[iv], Some(k as u32 as u64))?;
                        out[dst] = Av::Scalar(refine_iv(iv, ck, k as u32 as u64)?);
                    }
                } else {
                    let ck = match designed(ck, &[iv], Some(k)) {
                        Some(c) => c,
                        None => return Some(out),
                    };
                    out[dst] = Av::Scalar(refine_iv(iv, ck, k)?);
                }
            }
            Av::FailOr(iv) if !is32 => {
                // The implicit MAX element is -1 signed, so the
                // signed-to-unsigned mapping is unsound here: refine only
                // genuinely unsigned compares.
                if matches!(ck, Ck::Sgt | Ck::Sge | Ck::Slt | Ck::Sle | Ck::Set) {
                    return Some(out);
                }
                out[dst] = refine_failor(iv, ck, k)?;
            }
            Av::ZeroOrPtr(pv) if !is32 && k == 0 => match ck {
                Ck::Eq => out[dst] = Av::Scalar(Iv::exact(0)),
                Ck::Ne => out[dst] = Av::Ptr(pv),
                _ => {}
            },
            Av::Ptr(_) if !is32 && k == 0 && ck == Ck::Eq => {
                // A proven pointer is never null: regions start above 0.
                return None;
            }
            _ => {}
        }
    } else {
        let src = ins.src as usize;
        match (st[dst], st[src]) {
            (Av::Scalar(a), Av::Scalar(b)) => {
                if is32 {
                    if a.hi <= u32::MAX as u64 && b.hi <= u32::MAX as u64 {
                        let ck = designed(ck, &[a, b], None)?;
                        let (ra, rb) = refine_pair(a, b, ck)?;
                        out[dst] = Av::Scalar(ra);
                        out[src] = Av::Scalar(rb);
                    }
                } else {
                    let ck = match designed(ck, &[a, b], None) {
                        Some(c) => c,
                        None => return Some(out),
                    };
                    let (ra, rb) = refine_pair(a, b, ck)?;
                    out[dst] = Av::Scalar(ra);
                    out[src] = Av::Scalar(rb);
                }
            }
            (Av::Ptr(p), Av::Ptr(q))
                if !is32
                    && p.root == q.root
                    && p.root != ANON_ROOT
                    && p.d_lo.abs() < DELTA_SANE
                    && p.d_hi.abs() < DELTA_SANE
                    && q.d_lo.abs() < DELTA_SANE
                    && q.d_hi.abs() < DELTA_SANE =>
            {
                // Same allocation: unsigned address order == delta order
                // (bases are well under 2^31, deltas sanity-bounded).
                let ck = match ck {
                    Ck::Sgt | Ck::Sge | Ck::Slt | Ck::Sle | Ck::Set => return Some(out),
                    c => c,
                };
                let ((al, ah), (bl, bh)) = refine_deltas((p.d_lo, p.d_hi), (q.d_lo, q.d_hi), ck)?;
                out[dst] = Av::Ptr(Pv { d_lo: al, d_hi: ah, ..p });
                out[src] = Av::Ptr(Pv { d_lo: bl, d_hi: bh, ..q });
            }
            _ => {}
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Transfer function
// ---------------------------------------------------------------------------

fn truncate32(av: Av) -> Av {
    match av {
        Av::Scalar(iv) if iv.hi <= u32::MAX as u64 => Av::Scalar(iv),
        _ => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
    }
}

fn add_iv(a: Iv, b: Iv) -> Iv {
    match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
        (Some(lo), Some(hi)) => Iv { lo, hi },
        _ => Iv::TOP,
    }
}

fn sub_iv(a: Iv, b: Iv) -> Iv {
    match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
        (Some(lo), Some(hi)) => Iv { lo, hi },
        _ => Iv::TOP,
    }
}

fn signed_k(imm: u64) -> i64 {
    imm as i64
}

/// Abstract effect of one non-terminator, non-call instruction.
fn step(st: &mut State, ins: &DInsn) {
    use DOp::*;
    let dst = ins.dst as usize;
    let k = ins.imm;
    let src_av = st[ins.src as usize];
    let d_iv = st[dst].as_iv();
    let s_iv = src_av.as_iv();
    let new: Av = match ins.op {
        Mov64Imm | LdDw => Av::Scalar(Iv::exact(k)),
        Mov64Reg => src_av,
        Mov32Imm => Av::Scalar(Iv::exact(k as u32 as u64)),
        Mov32Reg => truncate32(src_av),
        Add64Imm => match st[dst] {
            Av::Ptr(p) => p.shift(signed_k(k)).map_or(Av::TOP, Av::Ptr),
            _ => {
                let kk = signed_k(k);
                match (d_iv.lo.checked_add_signed(kk), d_iv.hi.checked_add_signed(kk)) {
                    (Some(lo), Some(hi)) => Av::Scalar(Iv { lo, hi }),
                    _ => Av::TOP,
                }
            }
        },
        Add64Reg => match (st[dst], src_av) {
            (Av::Ptr(p), _) => p.shift_iv(s_iv, false).map_or(Av::TOP, Av::Ptr),
            (_, Av::Ptr(p)) => p.shift_iv(d_iv, false).map_or(Av::TOP, Av::Ptr),
            _ => Av::Scalar(add_iv(d_iv, s_iv)),
        },
        Sub64Imm => match st[dst] {
            Av::Ptr(p) => {
                p.shift(signed_k(k).checked_neg().unwrap_or(i64::MAX)).map_or(Av::TOP, Av::Ptr)
            }
            _ => {
                let kk = signed_k(k);
                match (d_iv.lo.checked_add_signed(-kk), d_iv.hi.checked_add_signed(-kk)) {
                    (Some(lo), Some(hi)) if kk != i64::MIN => Av::Scalar(Iv { lo, hi }),
                    _ => Av::TOP,
                }
            }
        },
        Sub64Reg => match (st[dst], src_av) {
            (Av::Ptr(p), Av::Ptr(q)) if p.root == q.root && p.root != ANON_ROOT => {
                // Same-allocation pointer difference is the delta difference.
                let lo = p.d_lo.saturating_sub(q.d_hi);
                let hi = p.d_hi.saturating_sub(q.d_lo);
                if lo >= 0 {
                    Av::Scalar(Iv { lo: lo as u64, hi: hi as u64 })
                } else {
                    Av::TOP
                }
            }
            (Av::Ptr(p), _) => p.shift_iv(s_iv, true).map_or(Av::TOP, Av::Ptr),
            _ => Av::Scalar(sub_iv(d_iv, s_iv)),
        },
        Mul64Imm | Mul64Reg => {
            let b = if matches!(ins.op, Mul64Imm) { Iv::exact(k) } else { s_iv };
            match (d_iv.lo.checked_mul(b.lo), d_iv.hi.checked_mul(b.hi)) {
                (Some(lo), Some(hi)) => Av::Scalar(Iv { lo, hi }),
                _ => Av::TOP,
            }
        }
        Div64Imm => {
            // Structural verify rejects constant zero divisors.
            Av::Scalar(Iv { lo: d_iv.lo / k.max(1), hi: d_iv.hi / k.max(1) })
        }
        Div64Reg => Av::Scalar(Iv { lo: 0, hi: d_iv.hi }),
        Mod64Imm => Av::Scalar(Iv { lo: 0, hi: (k.max(1) - 1).min(d_iv.hi) }),
        Mod64Reg => Av::Scalar(Iv { lo: 0, hi: d_iv.hi }),
        And64Imm => Av::Scalar(Iv { lo: 0, hi: k.min(d_iv.hi) }),
        And64Reg => Av::Scalar(Iv { lo: 0, hi: d_iv.hi.min(s_iv.hi) }),
        Or64Imm | Or64Reg | Xor64Imm | Xor64Reg => match (d_iv.is_exact(), ins.op) {
            (Some(a), Or64Imm) => Av::Scalar(Iv::exact(a | k)),
            (Some(a), Xor64Imm) => Av::Scalar(Iv::exact(a ^ k)),
            _ => Av::TOP,
        },
        Lsh64Imm => {
            let sh = (k & 63) as u32;
            match (d_iv.lo.checked_shl(sh), d_iv.hi.checked_shl(sh)) {
                (Some(lo), Some(hi)) if d_iv.hi.leading_zeros() >= sh => Av::Scalar(Iv { lo, hi }),
                _ => Av::TOP,
            }
        }
        Rsh64Imm => {
            let sh = (k & 63) as u32;
            Av::Scalar(Iv { lo: d_iv.lo >> sh, hi: d_iv.hi >> sh })
        }
        Arsh64Imm => {
            let sh = (k & 63) as u32;
            if d_iv.hi <= i64::MAX as u64 {
                Av::Scalar(Iv { lo: d_iv.lo >> sh, hi: d_iv.hi >> sh })
            } else {
                Av::TOP
            }
        }
        Lsh64Reg | Rsh64Reg | Arsh64Reg => Av::TOP,
        Neg64 => match d_iv.is_exact() {
            Some(a) => Av::Scalar(Iv::exact(a.wrapping_neg())),
            None => Av::TOP,
        },
        // 32-bit ALU: exact when both operands are constants, else the
        // 32-bit range.
        Add32Imm | Sub32Imm | Mul32Imm | Div32Imm | Mod32Imm | Or32Imm | And32Imm | Xor32Imm
        | Lsh32Imm | Rsh32Imm | Arsh32Imm => {
            let r32 = |x: u32| -> Option<u32> {
                let kk = k as u32;
                Some(match ins.op {
                    Add32Imm => x.wrapping_add(kk),
                    Sub32Imm => x.wrapping_sub(kk),
                    Mul32Imm => x.wrapping_mul(kk),
                    Div32Imm => x / kk.max(1),
                    Mod32Imm => x % kk.max(1),
                    Or32Imm => x | kk,
                    And32Imm => x & kk,
                    Xor32Imm => x ^ kk,
                    Lsh32Imm => x.wrapping_shl(kk & 31),
                    Rsh32Imm => x.wrapping_shr(kk & 31),
                    Arsh32Imm => ((x as i32).wrapping_shr(kk & 31)) as u32,
                    _ => return None,
                })
            };
            match d_iv.is_exact().filter(|v| *v <= u32::MAX as u64) {
                Some(a) => match r32(a as u32) {
                    Some(v) => Av::Scalar(Iv::exact(v as u64)),
                    None => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
                },
                None => match ins.op {
                    And32Imm => Av::Scalar(Iv { lo: 0, hi: (k as u32 as u64).min(d_iv.hi) }),
                    Mod32Imm => Av::Scalar(Iv { lo: 0, hi: (k as u32).saturating_sub(1) as u64 }),
                    _ => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
                },
            }
        }
        Add32Reg | Sub32Reg | Mul32Reg | Div32Reg | Mod32Reg | Or32Reg | And32Reg | Xor32Reg
        | Lsh32Reg | Rsh32Reg | Arsh32Reg | Neg32 => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
        Be16 | Le16 => Av::Scalar(Iv { lo: 0, hi: 0xFFFF }),
        Be32 | Le32 => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
        Be64 | Le64 => Av::TOP,
        LdxDw => Av::TOP,
        LdxW => Av::Scalar(Iv { lo: 0, hi: u32::MAX as u64 }),
        LdxH => Av::Scalar(Iv { lo: 0, hi: 0xFFFF }),
        LdxB => Av::Scalar(Iv { lo: 0, hi: 0xFF }),
        // Stores have no register effect; terminators are handled by the
        // caller.
        _ => return,
    };
    st[dst] = new;
}

/// Abstract effect of a helper call at dense pc `pc`.
fn step_call(st: &mut State, ins: &DInsn, pc: usize, opts: &AnalysisOptions) {
    let root = (pc + 1) as u32;
    // A re-executed call site returns a fresh allocation: demote survivors
    // of the previous execution to anonymous provenance.
    for av in st.iter_mut() {
        match av {
            Av::Ptr(p) if p.root == root => *av = Av::Ptr(p.anonymize()),
            Av::ZeroOrPtr(p) if p.root == root => *av = Av::ZeroOrPtr(p.anonymize()),
            _ => {}
        }
    }
    let ret = match opts.contracts.get(&ins.target) {
        Some(c) => c.ret,
        None => HelperRet::Scalar,
    };
    let watched = opts.watch == Some(ins.target);
    let r0 = match ret {
        HelperRet::Scalar => Av::TOP,
        HelperRet::LenOrFail { cap_arg } => {
            let cap = st[(1 + cap_arg.min(4)) as usize].as_iv();
            Av::FailOr(Iv { lo: 0, hi: cap.hi })
        }
        HelperRet::ZeroOrPtr { kind, size } => Av::ZeroOrPtr(Pv {
            kind: kind.elide_kind(),
            root,
            d_lo: 0,
            d_hi: 0,
            w_lo: 0,
            w_hi: size.map_or(0, |s| s.min(i64::MAX as u64) as i64),
            watched,
        }),
        HelperRet::ZeroOrPtrSizedByArg { kind, size_arg } => {
            let min = match st[(1 + size_arg.min(4)) as usize] {
                Av::Scalar(iv) => iv.lo.min(i64::MAX as u64) as i64,
                _ => 0,
            };
            Av::ZeroOrPtr(Pv {
                kind: kind.elide_kind(),
                root,
                d_lo: 0,
                d_hi: 0,
                w_lo: 0,
                w_hi: min,
                watched,
            })
        }
    };
    st[0] = r0;
    // The interpreter zeroes r1-r5 after a successful helper return.
    for r in st.iter_mut().take(6).skip(1) {
        *r = Av::Scalar(Iv::exact(0));
    }
}

/// Width in bytes of a memory access op, with `true` for stores.
fn mem_parts(op: DOp) -> Option<(i64, bool)> {
    use DOp::*;
    Some(match op {
        LdxB => (1, false),
        LdxH => (2, false),
        LdxW => (4, false),
        LdxDw => (8, false),
        StB | StxB => (1, true),
        StH | StxH => (2, true),
        StW | StxW => (4, true),
        StDw | StxDw => (8, true),
        _ => return None,
    })
}

/// Registers read by an instruction, as a bitmask, for uninit detection.
/// `Call` is deliberately empty (argument arity is unknown — fail open).
fn uses_mask(ins: &DInsn) -> u16 {
    use DOp::*;
    let d = 1u16 << ins.dst;
    let s = 1u16 << ins.src;
    match ins.op {
        Mov64Imm | Mov32Imm | LdDw | Ja | Call | Trap | DivZero => 0,
        Mov64Reg | Mov32Reg => s,
        Exit => 1, // r0
        LdxDw | LdxW | LdxH | LdxB => s,
        StDw | StW | StH | StB => d,
        StxDw | StxW | StxH | StxB => d | s,
        op if branch_parts(op).is_some() => {
            if branch_parts(op).is_some_and(|(_, _, imm)| imm) {
                d
            } else {
                d | s
            }
        }
        // Remaining ALU/byteswap forms read dst, reg forms also read src.
        Add64Reg | Sub64Reg | Mul64Reg | Div64Reg | Mod64Reg | Or64Reg | And64Reg | Xor64Reg
        | Lsh64Reg | Rsh64Reg | Arsh64Reg | Add32Reg | Sub32Reg | Mul32Reg | Div32Reg
        | Mod32Reg | Or32Reg | And32Reg | Xor32Reg | Lsh32Reg | Rsh32Reg | Arsh32Reg => d | s,
        _ => d,
    }
}

/// Register defined by an instruction (excluding `Call`'s clobbers).
fn def_reg(ins: &DInsn) -> Option<u8> {
    use DOp::*;
    match ins.op {
        StDw | StW | StH | StB | StxDw | StxW | StxH | StxB | Ja | Exit | Trap | DivZero => None,
        op if branch_parts(op).is_some() => None,
        Call => Some(0),
        _ => Some(ins.dst),
    }
}

/// Whether a def is side-effect-free (safe to call "dead" in lint output).
fn pure_def(op: DOp) -> bool {
    use DOp::*;
    !matches!(
        op,
        LdxDw
            | LdxW
            | LdxH
            | LdxB
            | Call
            | StDw
            | StW
            | StH
            | StB
            | StxDw
            | StxW
            | StxH
            | StxB
            | Ja
            | Exit
            | Trap
            | DivZero
    ) && branch_parts(op).is_none()
}

// ---------------------------------------------------------------------------
// Watched-window reads
// ---------------------------------------------------------------------------

/// Accumulates [`WatchedReads`] over the annotation pass: observed bytes
/// until the first thing that defeats the bound, which then sticks.
struct Watch(WatchedReads);

impl Watch {
    fn unbounded(&mut self, pc: usize, why: Unbounded) {
        if let WatchedReads::Bytes(_) = self.0 {
            self.0 = WatchedReads::Unbounded { pc, why };
        }
    }

    /// A `size`-byte access at `addr + off`. It is accounted for only
    /// when `addr` is a tracked pointer — nullable is fine, a null
    /// dereference faults identically whatever the window holds — and
    /// the whole range lies inside its allocation window.
    fn access(&mut self, pc: usize, addr: Av, off: i64, size: i64, is_store: bool) {
        let (Av::Ptr(p) | Av::ZeroOrPtr(p)) = addr else {
            return self.unbounded(pc, Unbounded::UnprovenAccess);
        };
        let Some((lo, hi)) = p.range_in_window(off, size) else {
            return self.unbounded(pc, Unbounded::UnprovenAccess);
        };
        if !p.watched {
            return;
        }
        // An anonymous pointer's window is relative to itself, and a
        // helper window starts at 0: only rooted offsets name bytes.
        if p.root == ANON_ROOT || p.w_lo != 0 || p.w_hi > 64 {
            return self.unbounded(pc, Unbounded::Anonymous);
        }
        if let (false, WatchedReads::Bytes(bits)) = (is_store, &mut self.0) {
            for byte in lo..hi {
                *bits |= 1 << byte;
            }
        }
    }

    /// The value a register store writes to memory.
    fn stored(&mut self, pc: usize, value: Av) {
        if let Av::Ptr(p) | Av::ZeroOrPtr(p) = value {
            if p.watched {
                self.unbounded(pc, Unbounded::Stored);
            }
        }
    }

    /// A helper argument the contract declares a pointer.
    fn helper_ptr_arg(&mut self, pc: usize, arg: Av) {
        match arg {
            Av::Ptr(p) | Av::ZeroOrPtr(p) if p.watched => self.unbounded(pc, Unbounded::HelperArg),
            Av::Ptr(_) | Av::ZeroOrPtr(_) => {}
            Av::Scalar(iv) if iv == Iv::exact(0) => {}
            _ => self.unbounded(pc, Unbounded::UnprovenHelperArg),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Cfg {
    blocks: Vec<Block>,
    block_of: Vec<usize>,
    n: usize,
}

/// Compute the per-edge successor states of one block: the body transfer
/// followed by terminator-specific edge refinement.
fn out_edges(
    cfg: &Cfg,
    code: &[DInsn],
    b: usize,
    entry: &State,
    opts: &AnalysisOptions,
) -> Vec<(usize, State)> {
    let blk = cfg.blocks[b];
    let mut st = *entry;
    for ins in code.iter().take(blk.end - 1).skip(blk.start) {
        step(&mut st, ins);
    }
    let term = &code[blk.end - 1];
    let succ_block = |pc: usize| cfg.block_of[pc];
    match term.op {
        DOp::Ja => vec![(succ_block(term.target as usize), st)],
        DOp::Exit | DOp::Trap | DOp::DivZero => vec![],
        DOp::Call => {
            step_call(&mut st, term, blk.end - 1, opts);
            if blk.end < cfg.n {
                vec![(succ_block(blk.end), st)]
            } else {
                vec![]
            }
        }
        op if is_branch(op) => {
            let mut v = Vec::with_capacity(2);
            if let Some(t) = refine_edge(&st, term, true) {
                v.push((succ_block(term.target as usize), t));
            }
            if blk.end < cfg.n {
                if let Some(f) = refine_edge(&st, term, false) {
                    v.push((succ_block(blk.end), f));
                }
            }
            v
        }
        _ => {
            step(&mut st, term);
            if blk.end < cfg.n {
                vec![(succ_block(blk.end), st)]
            } else {
                vec![]
            }
        }
    }
}

/// Run the abstract interpreter over a structurally-verified program,
/// stamping proof bits into `lp` and recording `worst_fuel`.
///
/// `prog` is the original slot-indexed program, used only to render
/// mnemonics in diagnostics.
pub fn analyze(
    lp: &mut LoadedProgram,
    prog: &Program,
    opts: &AnalysisOptions,
) -> Result<Analysis, VerifyError> {
    let n = lp.len();
    if n == 0 {
        lp.watched = WatchedReads::Bytes(0);
        return Ok(Analysis { watched: lp.watched, ..Analysis::default() });
    }
    let code: Vec<DInsn> = lp.code[..n].to_vec();
    let (blocks, block_of) = build_blocks(&code, n);
    let cfg = Cfg { blocks: blocks.clone(), block_of, n };
    let slot_mn = |i: usize| -> &'static str { mnemonic(prog.insns[code[i].slot as usize].opcode) };
    let slot_pc = |i: usize| code[i].slot as usize;

    // Structural reachability: every block must be reachable with all branch
    // edges considered possible. (Semantically-dead blocks under the inferred
    // value ranges are *not* errors — they just keep their dynamic checks.)
    let mut struct_reach = vec![false; blocks.len()];
    let mut queue = VecDeque::from([0usize]);
    struct_reach[0] = true;
    while let Some(b) = queue.pop_front() {
        for pc in structural_succs(&code, blocks[b], n) {
            let s = cfg.block_of[pc];
            if !struct_reach[s] {
                struct_reach[s] = true;
                queue.push_back(s);
            }
        }
    }
    if let Some(dead) = struct_reach.iter().position(|r| !r) {
        return Err(VerifyError::UnreachableCode { pc: slot_pc(blocks[dead].start) });
    }

    // Worklist fixpoint over block entry states.
    let mut entry: Vec<Option<State>> = vec![None; blocks.len()];
    entry[0] = Some(entry_state());
    let mut visits = vec![0u32; blocks.len()];
    let mut work = VecDeque::from([0usize]);
    let mut queued = vec![false; blocks.len()];
    queued[0] = true;
    // Safety valve: widening guarantees termination, but if the ascent is
    // ever pathologically long, fail open (no proofs, no errors) rather
    // than stall the load path. Sized so byte-granular pointer walks over
    // the frame (up to [`WIDEN_FREE_WINDOW`] exact ascent steps per loop,
    // a few block visits each) converge comfortably.
    let mut budget = 256usize.saturating_mul(blocks.len()).max(16384);
    while let Some(b) = work.pop_front() {
        if budget == 0 {
            return Ok(Analysis::default());
        }
        budget -= 1;
        queued[b] = false;
        let st = entry[b].expect("queued blocks have entry states");
        for (succ, new_st) in out_edges(&cfg, &code, b, &st, opts) {
            let merged = match &entry[succ] {
                None => new_st,
                Some(old) => {
                    let joined = join_state(old, &new_st);
                    if visits[succ] >= WIDEN_AFTER {
                        widen_state(old, &joined)
                    } else {
                        joined
                    }
                }
            };
            if entry[succ] != Some(merged) {
                visits[succ] += 1;
                entry[succ] = Some(merged);
                if !queued[succ] {
                    queued[succ] = true;
                    work.push_back(succ);
                }
            }
        }
    }

    // Final annotation pass: hard errors, proof bits, warnings.
    let mut analysis = Analysis::default();
    let mut watch = Watch(WatchedReads::Bytes(0));
    for (b, blk) in blocks.iter().enumerate() {
        let Some(mut st) = entry[b] else { continue };
        for (i, &ins) in code.iter().enumerate().take(blk.end).skip(blk.start) {
            // Uninitialized reads are hard errors.
            let used = uses_mask(&ins);
            for r in 0..11u8 {
                if used & (1 << r) != 0 && st[r as usize] == Av::Uninit {
                    return Err(VerifyError::UninitRead {
                        pc: slot_pc(i),
                        reg: r,
                        mnemonic: slot_mn(i),
                    });
                }
            }
            match ins.op {
                DOp::Call => {
                    let helper = ins.target;
                    if let Some(c) = opts.contracts.get(&helper) {
                        if !c.allowed {
                            return Err(VerifyError::HelperNotAllowed { pc: slot_pc(i), helper });
                        }
                        for &a in &c.ptr_args {
                            if a > 4 {
                                continue;
                            }
                            watch.helper_ptr_arg(slot_pc(i), st[(1 + a) as usize]);
                            // Only reject what is *provably* a bad pointer: a
                            // nonzero constant below every mapped region.
                            if let Av::Scalar(iv) = st[(1 + a) as usize] {
                                if let Some(v) = iv.is_exact() {
                                    if v != 0 && v < STACK_BASE {
                                        return Err(VerifyError::BadHelperArg {
                                            pc: slot_pc(i),
                                            helper,
                                            arg: a,
                                        });
                                    }
                                }
                            }
                        }
                    } else {
                        // An unknown helper may read through any argument.
                        watch.unbounded(slot_pc(i), Unbounded::UnprovenHelperArg);
                    }
                    step_call(&mut st, &ins, i, opts);
                }
                op if is_branch(op) => {
                    let t = refine_edge(&st, &ins, true).is_some();
                    let f = blk.end < n && refine_edge(&st, &ins, false).is_some();
                    if t != f {
                        analysis.warnings.push(Warning::ConstBranch {
                            pc: slot_pc(i),
                            mnemonic: slot_mn(i),
                            taken: t,
                        });
                    }
                }
                _ => {
                    if let Some((size, is_store)) = mem_parts(ins.op) {
                        analysis.mem_accesses += 1;
                        let addr_reg = if is_store { ins.dst } else { ins.src } as usize;
                        let off = ins.off as i64;
                        watch.access(slot_pc(i), st[addr_reg], off, size, is_store);
                        if is_store
                            && matches!(ins.op, DOp::StxDw | DOp::StxW | DOp::StxH | DOp::StxB)
                        {
                            watch.stored(slot_pc(i), st[ins.src as usize]);
                        }
                        if let Av::Ptr(p) = st[addr_reg] {
                            if p.kind == elide::KIND_STACK && p.root == FRAME_ROOT {
                                let depth = -(p.d_lo + off);
                                analysis.stack_high_water = analysis.stack_high_water.max(depth);
                            }
                            if p.range_in_window(off, size).is_some() {
                                lp.code[i].flags = elide::pack(p.kind);
                                if is_store {
                                    analysis.elided_stores += 1;
                                } else {
                                    analysis.elided_loads += 1;
                                }
                            }
                        }
                    }
                    step(&mut st, &ins);
                }
            }
        }
    }

    // Register-level liveness for dead-store warnings (structural edges).
    let mut live_in: Vec<u16> = vec![0; blocks.len()];
    loop {
        let mut changed = false;
        for (b, blk) in blocks.iter().enumerate().rev() {
            let mut live: u16 = structural_succs(&code, *blk, n)
                .iter()
                .map(|&pc| live_in[cfg.block_of[pc]])
                .fold(0, |acc, l| acc | l);
            for i in (blk.start..blk.end).rev() {
                let ins = &code[i];
                if ins.op == DOp::Call {
                    live &= !0x3F; // defs r0-r5
                    live |= 0x3E; // uses r1-r5 (conservative arity)
                } else {
                    if let Some(d) = def_reg(ins) {
                        live &= !(1 << d);
                    }
                    live |= uses_mask(ins);
                }
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (b, blk) in blocks.iter().enumerate() {
        if entry[b].is_none() {
            continue;
        }
        let mut live: u16 = structural_succs(&code, *blk, n)
            .iter()
            .map(|&pc| live_in[cfg.block_of[pc]])
            .fold(0, |acc, l| acc | l);
        for i in (blk.start..blk.end).rev() {
            let ins = &code[i];
            if ins.op == DOp::Call {
                live &= !0x3F;
                live |= 0x3E;
            } else {
                if let Some(d) = def_reg(ins) {
                    if pure_def(ins.op) && live & (1 << d) == 0 {
                        analysis.warnings.push(Warning::DeadStore {
                            pc: slot_pc(i),
                            reg: d,
                            mnemonic: slot_mn(i),
                        });
                    }
                    live &= !(1 << d);
                }
                live |= uses_mask(ins);
            }
        }
    }

    // Loop bounds: counted self-loops, then a longest path over the DAG.
    analysis.worst_fuel = infer_worst_fuel(&cfg, &code, &entry, opts, &mut analysis.bounded_loops);
    lp.worst_fuel = analysis.worst_fuel;
    analysis.watched = watch.0;
    lp.watched = watch.0;
    lp.has_elided = analysis.elided_loads + analysis.elided_stores > 0;
    analysis.warnings.sort_by_key(|w| match w {
        Warning::DeadStore { pc, .. } | Warning::ConstBranch { pc, .. } => *pc,
    });
    Ok(analysis)
}

/// Trip bound of the self-loop block `b`, from its entry state over
/// non-back-edge predecessors. Recognizes the two counted patterns:
/// decrement-to-zero (`c -= 1; jne c, 0, loop`) and increment-to-limit
/// (`c += d; jlt/jle c, K, loop`).
fn self_loop_trips(cfg: &Cfg, code: &[DInsn], b: usize, outside: &State) -> Option<u128> {
    let blk = cfg.blocks[b];
    let term = &code[blk.end - 1];
    let (ck, is32, is_imm) = branch_parts(term.op)?;
    if is32 || !is_imm || cfg.block_of[term.target as usize] != b {
        return None;
    }
    let c = term.dst;
    // Exactly one write to the counter inside the block, and no other def
    // may alias it.
    let mut write: Option<&DInsn> = None;
    for ins in code.iter().take(blk.end - 1).skip(blk.start) {
        if def_reg(ins) == Some(c) || (ins.op == DOp::Call && c <= 5) {
            if write.is_some() || ins.op == DOp::Call {
                return None;
            }
            write = Some(ins);
        }
    }
    let w = write?;
    let entry_c = match outside[c as usize] {
        Av::Scalar(iv) => iv,
        _ => return None,
    };
    let kk = signed_k(w.imm);
    match (w.op, ck) {
        // while (--c != 0): trips bounded by the entry value.
        (DOp::Add64Imm, Ck::Ne) if kk == -1 && term.imm == 0 => {
            (entry_c.lo >= 1 && entry_c.hi < u64::MAX).then_some(entry_c.hi as u128)
        }
        (DOp::Sub64Imm, Ck::Ne) if kk == 1 && term.imm == 0 => {
            (entry_c.lo >= 1 && entry_c.hi < u64::MAX).then_some(entry_c.hi as u128)
        }
        // while ((c += d) < K): ceil((K - lo) / d), at least one execution.
        (DOp::Add64Imm, Ck::Lt | Ck::Le) if kk >= 1 => {
            let d = kk as u64;
            let k_excl = if ck == Ck::Lt {
                term.imm
            } else {
                term.imm.checked_add(1)?
            };
            // Neither the first increment nor the step past K may wrap.
            entry_c.hi.checked_add(d)?;
            k_excl.checked_add(d)?;
            let span = k_excl.saturating_sub(entry_c.lo);
            Some(((span.div_ceil(d)) as u128).max(1))
        }
        _ => None,
    }
}

fn infer_worst_fuel(
    cfg: &Cfg,
    code: &[DInsn],
    entry: &[Option<State>],
    opts: &AnalysisOptions,
    bounded_loops: &mut usize,
) -> Option<u64> {
    let nb = cfg.blocks.len();
    // Per-block weight: instruction count × trip bound for self-loops.
    let mut weight: Vec<u128> = Vec::with_capacity(nb);
    // Entry-from-outside states for self-loop trip inference.
    let mut outside: Vec<Option<State>> = vec![None; nb];
    for (p, e) in entry.iter().enumerate().take(nb) {
        let Some(st) = e else { continue };
        for (succ, edge_st) in out_edges(cfg, code, p, st, opts) {
            if succ == p {
                continue;
            }
            outside[succ] = Some(match &outside[succ] {
                None => edge_st,
                Some(old) => join_state(old, &edge_st),
            });
        }
    }
    outside[0] = Some(match &outside[0] {
        None => entry_state(),
        Some(st) => join_state(st, &entry_state()),
    });

    let mut self_loop = vec![false; nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let cost = (blk.end - blk.start) as u128;
        let term = &code[blk.end - 1];
        let loops_to_self = match term.op {
            DOp::Ja => cfg.block_of[term.target as usize] == b,
            op if is_branch(op) => cfg.block_of[term.target as usize] == b,
            _ => false,
        };
        if loops_to_self {
            self_loop[b] = true;
            let trips = outside[b].as_ref().and_then(|st| self_loop_trips(cfg, code, b, st))?;
            *bounded_loops += 1;
            weight.push(cost.checked_mul(trips)?);
        } else {
            weight.push(cost);
        }
    }

    // Kahn topological sort with self-loop edges removed; any remaining
    // cycle means a multi-block loop we cannot bound.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut indeg = vec![0usize; nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for pc in structural_succs(code, *blk, cfg.n) {
            let s = cfg.block_of[pc];
            if s == b && self_loop[b] {
                continue;
            }
            succs[b].push(s);
            indeg[s] += 1;
        }
    }
    let mut order = VecDeque::new();
    for (b, &d) in indeg.iter().enumerate() {
        if d == 0 {
            order.push_back(b);
        }
    }
    let mut dist: Vec<u128> = weight.clone();
    let mut seen = 0;
    while let Some(b) = order.pop_front() {
        seen += 1;
        for &s in &succs[b] {
            let cand = dist[b].checked_add(weight[s])?;
            if cand > dist[s] {
                dist[s] = cand;
            }
            indeg[s] -= 1;
            if indeg[s] == 0 {
                order.push_back(s);
            }
        }
    }
    if seen != nb {
        return None; // irreducible or multi-block cycle
    }
    let max = dist.iter().copied().max().unwrap_or(0);
    Some(max.min(u64::MAX as u128) as u64)
}
