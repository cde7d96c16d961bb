//! # xbgp-vm — a sandboxed eBPF virtual machine
//!
//! From-scratch implementation of the eBPF instruction set used by xBGP to
//! run operator-supplied extension code inside a BGP daemon. It mirrors the
//! role of the modified uBPF machine in the paper:
//!
//! * **Full BPF ISA**: 64/32-bit ALU, conditional jumps (JMP and JMP32
//!   classes), byte/half/word/double-word loads and stores, `lddw`,
//!   byte-swap (`END`) instructions, helper calls and `exit`.
//! * **Static verifier** ([`verify`]): jump-target validation, opcode
//!   validation, register bounds, constant div/mod-by-zero rejection,
//!   helper-id whitelisting, `lddw` pairing, and guaranteed absence of
//!   fall-through past the last instruction.
//! * **Sandboxed memory** ([`mem::MemoryMap`]): extension code addresses a
//!   segmented virtual address space; every access is bounds-checked
//!   against the regions the host registered (stack, arguments, ephemeral
//!   heap, per-program shared heap, host buffers). This provides the
//!   isolation property of §2.1 — "an extension code has its own dedicated
//!   memory space and cannot directly access the memory of other extension
//!   codes or the host implementation".
//! * **Monitored execution**: a fuel budget bounds the number of executed
//!   instructions; any fault (out-of-bounds access, division by zero, fuel
//!   exhaustion, helper failure) aborts the program cleanly so the VMM can
//!   fall back to the host's native behaviour.
//!
//! Memory accesses use little-endian byte order (the common choice of
//! deployed eBPF targets); the `be16/be32/be64` END instructions and the
//! `bpf_htonl`-family helpers in `xbgp-core` perform network-order
//! conversions, exactly as xBGP extension code does in the paper.

pub mod absint;
pub mod error;
pub mod insn;
pub mod interp;
pub mod mem;
pub mod prep;
pub mod verify;

pub use absint::{
    Analysis, AnalysisOptions, HelperContract, HelperRet, MemKind, Unbounded, Warning, WatchedReads,
};
pub use error::VmError;
pub use insn::{Insn, Program};
pub use interp::{ExecOutcome, HelperDispatcher, NoHelpers, RunMetrics, Vm, VmConfig};
pub use mem::{MemoryMap, Region, RegionKind};
pub use prep::LoadedProgram;
pub use verify::{verify, verify_and_load, verify_and_load_with, VerifyError};

/// Virtual base address of the 512-byte eBPF stack region.
pub const STACK_BASE: u64 = 0x1000_0000;
/// Size of the eBPF stack in bytes.
pub const STACK_SIZE: usize = 512;
/// Virtual base address of the argument area (host-marshalled structs).
pub const ARGS_BASE: u64 = 0x2000_0000;
/// Virtual base address of the per-invocation ephemeral heap.
pub const HEAP_BASE: u64 = 0x3000_0000;
/// Virtual base address of the per-program persistent (shared) heap.
pub const SHARED_BASE: u64 = 0x4000_0000;
/// Virtual base address of read-only host buffers (message bytes, etc.).
pub const HOST_BUF_BASE: u64 = 0x5000_0000;
