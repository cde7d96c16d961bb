//! Helper contracts for the proof-carrying verifier.
//!
//! The VM-level abstract interpreter ([`xbgp_vm::absint`]) is
//! host-agnostic: it only knows what a helper returns if the host tells
//! it. This module is that telling — one [`HelperContract`] per xBGP API
//! helper, resolved per insertion point, so `verify_and_load_with` can:
//!
//! * track pointer provenance through `get_peer_info`/`ctx_malloc`-style
//!   returns and prove the subsequent field loads in-bounds,
//! * model the `get_attr` family's `len | XBGP_FAIL` return shape,
//! * reject at *load time* calls that are illegal at the insertion point
//!   (`write_buf` outside `bgp_encode_message`, §2.2's per-point API
//!   surface) or that pass a provably-bad pointer argument.
//!
//! Helpers absent from the table fall open in the analyzer (unknown
//! scalar return, no constraints) — new helpers degrade verification
//! precision, never soundness.
//!
//! The other direction — what the host may conclude from what the
//! verifier proved — is [`peer_reads`]: the bytes of `get_peer_info`'s
//! result a program can observe, which is what lets the export path run
//! an outbound chain once for every peer the chain cannot tell apart.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use xbgp_vm::{AnalysisOptions, HelperContract, HelperRet, MemKind, Unbounded, WatchedReads};

use crate::api::{helper, InsertionPoint, NEXTHOP_INFO_SIZE, PEER_INFO_SIZE, PREFIX_INFO_SIZE};

fn scalar() -> HelperContract {
    HelperContract { allowed: true, ptr_args: Vec::new(), ret: HelperRet::Scalar }
}

fn scalar_ptr_args(ptr_args: &[u8]) -> HelperContract {
    HelperContract {
        allowed: true,
        ptr_args: ptr_args.to_vec(),
        ret: HelperRet::Scalar,
    }
}

fn len_or_fail(dst_arg: u8, cap_arg: u8) -> HelperContract {
    HelperContract {
        allowed: true,
        ptr_args: vec![dst_arg],
        ret: HelperRet::LenOrFail { cap_arg },
    }
}

fn zero_or_ptr(kind: MemKind, size: Option<u64>) -> HelperContract {
    HelperContract {
        allowed: true,
        ptr_args: Vec::new(),
        ret: HelperRet::ZeroOrPtr { kind, size },
    }
}

/// The analyzer configuration for one insertion point: the full helper
/// table, with per-point availability applied.
pub fn analysis_options(point: InsertionPoint) -> AnalysisOptions {
    let mut contracts: BTreeMap<u32, HelperContract> = BTreeMap::new();
    contracts.insert(helper::NEXT, scalar());
    // get_arg(idx, dst, cap) / get_attr(code, dst, cap): dst (arg 1) is a
    // pointer, the return is a length bounded by cap (arg 2) or XBGP_FAIL.
    contracts.insert(helper::GET_ARG, len_or_fail(1, 2));
    contracts.insert(helper::ARG_LEN, scalar());
    contracts
        .insert(helper::GET_PEER_INFO, zero_or_ptr(MemKind::Heap, Some(PEER_INFO_SIZE as u64)));
    contracts
        .insert(helper::GET_NEXTHOP, zero_or_ptr(MemKind::Heap, Some(NEXTHOP_INFO_SIZE as u64)));
    contracts.insert(helper::GET_ATTR, len_or_fail(1, 2));
    // set_attr(code, flags, ptr, len) / add_attr: ptr is arg 2.
    contracts.insert(helper::SET_ATTR, scalar_ptr_args(&[2]));
    contracts.insert(helper::ADD_ATTR, scalar_ptr_args(&[2]));
    contracts.insert(helper::REMOVE_ATTR, scalar());
    // get_xtra(key_ptr, key_len, dst, cap): two pointer args, length-or-fail
    // return capped by arg 3.
    contracts.insert(
        helper::GET_XTRA,
        HelperContract {
            allowed: true,
            ptr_args: vec![0, 2],
            ret: HelperRet::LenOrFail { cap_arg: 3 },
        },
    );
    // write_buf(ptr, len): the output buffer only exists while encoding a
    // message, so any other insertion point rejects the call at load time.
    contracts.insert(
        helper::WRITE_BUF,
        HelperContract {
            allowed: point == InsertionPoint::BgpEncodeMessage,
            ptr_args: vec![0],
            ret: HelperRet::Scalar,
        },
    );
    contracts.insert(helper::EBPF_MEMCPY, scalar_ptr_args(&[0, 1]));
    contracts.insert(helper::BPF_HTONL, scalar());
    contracts.insert(helper::BPF_NTOHL, scalar());
    contracts.insert(helper::BPF_HTONS, scalar());
    contracts.insert(helper::BPF_NTOHS, scalar());
    contracts.insert(helper::EBPF_PRINT, scalar_ptr_args(&[0]));
    // ctx_malloc(size): null or a heap pointer with at least `size` (arg 0)
    // valid bytes.
    contracts.insert(
        helper::CTX_MALLOC,
        HelperContract {
            allowed: true,
            ptr_args: Vec::new(),
            ret: HelperRet::ZeroOrPtrSizedByArg { kind: MemKind::Heap, size_arg: 0 },
        },
    );
    // ctx_shared_malloc(key, size): size is arg 1, region is the shared heap.
    contracts.insert(
        helper::CTX_SHARED_MALLOC,
        HelperContract {
            allowed: true,
            ptr_args: Vec::new(),
            ret: HelperRet::ZeroOrPtrSizedByArg { kind: MemKind::Shared, size_arg: 1 },
        },
    );
    // ctx_shared_get(key): the allocation size is keyed state the verifier
    // cannot see, so provenance is tracked but no window is provable.
    contracts.insert(helper::CTX_SHARED_GET, zero_or_ptr(MemKind::Shared, None));
    contracts.insert(helper::RPKI_CHECK_ORIGIN, scalar());
    contracts.insert(helper::RIB_ADD_ROUTE, scalar());
    contracts.insert(helper::GET_PREFIX, zero_or_ptr(MemKind::Heap, Some(PREFIX_INFO_SIZE as u64)));
    AnalysisOptions { contracts, watch: Some(helper::GET_PEER_INFO) }
}

/// Read mask covering every byte of the marshalled `PeerInfo`.
pub const PEER_INFO_ALL: u32 = (1 << PEER_INFO_SIZE) - 1;

/// Helpers whose effect outlives the run or leaves the sandbox, in
/// reporting order. A program granted one of them must run once per
/// destination peer: running it once for a group of peers would change
/// how often the effect happens.
const SIDE_EFFECTS: [u32; 4] = [
    helper::CTX_SHARED_GET,
    helper::CTX_SHARED_MALLOC,
    helper::EBPF_PRINT,
    helper::RIB_ADD_ROUTE,
];

/// Why a program's runs cannot be shared between destination peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerPeer {
    /// The manifest grants this side-effecting helper.
    Declares(&'static str),
    /// The verifier proved no bound on what the program reads of
    /// `get_peer_info`'s result.
    Unbounded { pc: usize, why: Unbounded },
}

impl fmt::Display for PerPeer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerPeer::Declares(name) => write!(f, "declares {name}"),
            PerPeer::Unbounded { pc, why } => match why {
                Unbounded::NotAnalyzed => write!(f, "analysis did not converge"),
                Unbounded::UnprovenAccess => write!(f, "unproven memory access at pc {pc}"),
                Unbounded::UnprovenHelperArg => {
                    write!(f, "unproven helper pointer argument at pc {pc}")
                }
                Unbounded::HelperArg | Unbounded::Stored | Unbounded::Anonymous => {
                    write!(f, "get_peer_info pointer escapes at pc {pc}")
                }
            },
        }
    }
}

/// The bytes of the destination's marshalled `PeerInfo` a program granted
/// `helpers` can observe, as a bit per byte offset — or why its runs
/// depend on more than that.
pub fn peer_reads(helpers: &HashSet<u32>, watched: WatchedReads) -> Result<u32, PerPeer> {
    if let Some(id) = SIDE_EFFECTS.iter().find(|id| helpers.contains(id)) {
        return Err(PerPeer::Declares(helper::name_of(*id).expect("API helper")));
    }
    match watched {
        WatchedReads::Bytes(bits) => Ok(bits as u32 & PEER_INFO_ALL),
        WatchedReads::Unbounded { pc, why } => Err(PerPeer::Unbounded { pc, why }),
    }
}

/// Names of the `PeerInfo` fields a read mask touches, in layout order.
pub fn peer_info_fields(mask: u32) -> Vec<&'static str> {
    const FIELDS: [&str; 6] = ["router_id", "asn", "type", "local_router_id", "local_asn", "flags"];
    FIELDS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (4 * i) & 0xf != 0)
        .map(|(_, name)| *name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{abi_symbols, PeerInfo, PeerType};
    use crate::host::MockHost;
    use crate::{ExtensionSpec, Manifest, Vmm, VmmOutcome};

    /// A VMM with `src` attached at the encode point, granted `helpers`.
    fn encode_vmm(helpers: &[&str], src: &str) -> Vmm {
        let prog = xbgp_asm::assemble_with_symbols(src, &abi_symbols()).expect("assembles");
        let point = InsertionPoint::BgpEncodeMessage;
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program("t", "t", point, helpers, &prog));
        Vmm::from_manifest(&m).expect("loads")
    }

    fn encode_mask(helpers: &[&str], src: &str) -> u32 {
        encode_vmm(helpers, src).peer_read_mask(&[InsertionPoint::BgpEncodeMessage])
    }

    /// A program that reads the destination's type and flags, writes
    /// both out and stages an attribute: everything it leaves behind is
    /// the same for two peers that differ only in the bytes it cannot
    /// read, and differs as soon as a byte inside the mask does.
    #[test]
    fn peers_equal_inside_the_mask_get_identical_runs() {
        let src = "call get_peer_info
            ldxw r6, [r0+PEER_INFO_OFF_TYPE]
            ldxw r7, [r0+PEER_INFO_OFF_FLAGS]
            stxw [r10-8], r6
            stxw [r10-4], r7
            mov r1, r10
            sub r1, 8
            mov r2, 8
            call write_buf
            mov r0, r6
            add r0, r7
            exit";
        let helpers = ["get_peer_info", "write_buf"];
        assert_eq!(peer_info_fields(encode_mask(&helpers, src)), ["type", "flags"]);

        let run = |peer: PeerInfo| {
            let mut host = MockHost { peer, ..MockHost::default() };
            let mut vmm = encode_vmm(&helpers, src);
            let out = vmm.run(InsertionPoint::BgpEncodeMessage, &mut host);
            (out, host.out_buf, host.attrs, host.logs)
        };
        let a = PeerInfo {
            router_id: 1,
            asn: 65001,
            peer_type: PeerType::Ibgp,
            local_router_id: 9,
            local_asn: 65000,
            flags: 1,
        };
        let outside = PeerInfo { router_id: 2, asn: 65002, local_asn: 7, ..a };
        assert_eq!(run(a), run(outside));
        assert_eq!(run(a).0, VmmOutcome::Value(1));
        assert_ne!(run(a), run(PeerInfo { flags: 0, ..a }));
    }

    /// The three degrade arms: an escaping pointer, an access the
    /// verifier cannot bound, a helper with effects outside the run.
    #[test]
    fn anything_unproven_reads_the_full_mask() {
        let cases: [(&[&str], &str, &str); 6] = [
            (
                &["get_peer_info", "ebpf_memcpy"],
                "call get_peer_info\nmov r2, r0\nmov r1, r10\nsub r1, 24\nmov r3, 24
                 call ebpf_memcpy\nmov r0, 0\nexit",
                "get_peer_info pointer escapes at pc 5",
            ),
            (
                &["get_peer_info"],
                "call get_peer_info\nstxdw [r10-8], r0\nldxdw r1, [r10-8]\nmov r0, 0\nexit",
                "get_peer_info pointer escapes at pc 1",
            ),
            (
                &["get_peer_info"],
                "call get_peer_info\nmov r6, r0\njne r6, 0, +2\ncall get_peer_info
                 mov r6, r0\nldxb r0, [r6+0]\nexit",
                "get_peer_info pointer escapes at pc 5",
            ),
            (
                &["get_peer_info"],
                "call get_peer_info\nmov32 r1, r0\nldxb r0, [r1+0]\nexit",
                "unproven memory access at pc 2",
            ),
            (
                &["get_peer_info", "ctx_shared_get"],
                "call get_peer_info\nldxw r0, [r0+PEER_INFO_OFF_TYPE]\nexit",
                "declares ctx_shared_get",
            ),
            (&["ebpf_print"], "mov r0, 0\nexit", "declares ebpf_print"),
        ];
        for (helpers, src, why) in cases {
            assert_eq!(encode_mask(helpers, src), PEER_INFO_ALL, "{src}");
            let prog = xbgp_asm::assemble_with_symbols(src, &abi_symbols()).expect("assembles");
            let ids: HashSet<u32> = helpers.iter().map(|h| helper::id_of(h).unwrap()).collect();
            let opts = analysis_options(InsertionPoint::BgpEncodeMessage);
            let lp = xbgp_vm::verify_and_load_with(&prog, &ids, &opts).expect("verifies");
            let reason = peer_reads(&ids, lp.watched_reads()).expect_err("per-peer");
            assert_eq!(reason.to_string(), why, "{src}");
        }
        // A cursor walk over the whole struct is bounded — by every byte.
        let walk = "call get_peer_info\njeq r0, 0, +6\nmov r6, r0\nmov r7, r0\nadd r7, 24
            ldxb r1, [r6+0]\nadd r6, 1\njlt r6, r7, -3\nmov r0, 0\nexit";
        assert_eq!(encode_mask(&["get_peer_info"], walk), PEER_INFO_ALL);
        // And a chain's mask is the union over its programs.
        assert_eq!(peer_info_fields(0x0000_0f0f), ["router_id", "type"]);
    }

    #[test]
    fn every_api_helper_has_a_contract() {
        let opts = analysis_options(InsertionPoint::BgpDecision);
        for (name, id) in helper::TABLE {
            assert!(opts.contracts.contains_key(id), "no contract for helper `{name}`");
        }
    }

    #[test]
    fn write_buf_gated_to_encode_point() {
        for point in InsertionPoint::ALL {
            let opts = analysis_options(point);
            let allowed = opts.contracts[&helper::WRITE_BUF].allowed;
            assert_eq!(allowed, point == InsertionPoint::BgpEncodeMessage, "{point:?}");
        }
    }

    #[test]
    fn marshalled_struct_windows_match_api_sizes() {
        let opts = analysis_options(InsertionPoint::BgpDecision);
        let size_of = |id: u32| match opts.contracts[&id].ret {
            HelperRet::ZeroOrPtr { size, .. } => size,
            _ => panic!("expected ZeroOrPtr"),
        };
        assert_eq!(size_of(helper::GET_PEER_INFO), Some(PEER_INFO_SIZE as u64));
        assert_eq!(size_of(helper::GET_NEXTHOP), Some(NEXTHOP_INFO_SIZE as u64));
        assert_eq!(size_of(helper::GET_PREFIX), Some(PREFIX_INFO_SIZE as u64));
    }
}
