//! The xBGP API: insertion points, helper identifiers, and the neutral ABI.
//!
//! Everything in this module is part of the *vendor-neutral contract*
//! between extension bytecode and host implementations. Helper ids, struct
//! layouts, and constants must never change meaning once published — the
//! whole point of xBGP is that one compiled program runs on every
//! compliant implementation.

use std::collections::{HashMap, HashSet};

/// The locations inside a BGP implementation where extension code can be
/// attached (the paper's Fig. 2, green circles 1-5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertionPoint {
    /// ① Raw UPDATE received from a peer, before import filtering. The raw
    /// message body (network byte order) is argument 0; the extension may
    /// attach attributes to the route(s) with `add_attr`.
    BgpReceiveMessage,
    /// ② Import policy applied to one decoded route.
    /// Return [`FILTER_REJECT`] to drop, [`FILTER_ACCEPT`] to accept, or
    /// call `next()` to delegate.
    BgpInboundFilter,
    /// ③ Best-path comparison step of the decision process. Argument 0 is
    /// the candidate route's attribute section, argument 1 the current
    /// best's; return [`DECISION_PREFER_NEW`] or [`DECISION_PREFER_OLD`],
    /// or `next()` for the host's native comparison.
    BgpDecision,
    /// ④ Export policy applied per peer before a route enters the
    /// Adj-RIB-Out. Same conventions as the inbound filter.
    BgpOutboundFilter,
    /// ⑤ Serialization of an outgoing UPDATE. The extension may append
    /// extra attribute TLVs to the message with `write_buf`.
    BgpEncodeMessage,
}

impl InsertionPoint {
    /// All insertion points, in pipeline order.
    pub const ALL: [InsertionPoint; 5] = [
        InsertionPoint::BgpReceiveMessage,
        InsertionPoint::BgpInboundFilter,
        InsertionPoint::BgpDecision,
        InsertionPoint::BgpOutboundFilter,
        InsertionPoint::BgpEncodeMessage,
    ];

    /// The manifest spelling of this insertion point.
    pub fn name(self) -> &'static str {
        match self {
            InsertionPoint::BgpReceiveMessage => "bgp_receive_message",
            InsertionPoint::BgpInboundFilter => "bgp_inbound_filter",
            InsertionPoint::BgpDecision => "bgp_decision",
            InsertionPoint::BgpOutboundFilter => "bgp_outbound_filter",
            InsertionPoint::BgpEncodeMessage => "bgp_encode_message",
        }
    }

    /// Inverse of [`InsertionPoint::name`], for manifest parsing.
    pub fn from_name(name: &str) -> Option<InsertionPoint> {
        InsertionPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Filter verdicts (inbound/outbound filter insertion points).
pub const FILTER_REJECT: u64 = 0;
/// See [`FILTER_REJECT`].
pub const FILTER_ACCEPT: u64 = 1;
/// Decision-point verdict: keep the current best route.
pub const DECISION_PREFER_OLD: u64 = 0;
/// Decision-point verdict: prefer the candidate route.
pub const DECISION_PREFER_NEW: u64 = 1;

/// Session types as seen by `get_peer_info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum PeerType {
    Ibgp = 0,
    Ebgp = 1,
}

/// ABI constant: `peer_type` value for iBGP sessions.
pub const IBGP_SESSION: u64 = 0;
/// ABI constant: `peer_type` value for eBGP sessions.
pub const EBGP_SESSION: u64 = 1;

/// Origin-validation results returned by `rpki_check_origin`
/// (RFC 6811 states).
pub const ROV_NOT_FOUND: u64 = 0;
/// See [`ROV_NOT_FOUND`].
pub const ROV_VALID: u64 = 1;
/// See [`ROV_NOT_FOUND`].
pub const ROV_INVALID: u64 = 2;

/// Sentinel returned by lookup helpers when the requested item is absent
/// or the destination buffer is too small.
pub const XBGP_FAIL: u64 = u64::MAX;

/// Marshalled peer information (`get_peer_info`).
///
/// Wire layout (little-endian, 24 bytes):
///
/// | offset | field            |
/// |--------|------------------|
/// | 0      | `router_id: u32` |
/// | 4      | `asn: u32`       |
/// | 8      | `peer_type: u32` |
/// | 12     | `local_router_id: u32` |
/// | 16     | `local_asn: u32` |
/// | 20     | `flags: u32`     |
///
/// `flags` bit 0 ([`PEER_FLAG_RR_CLIENT`]) marks a route-reflection
/// client; bit 1 ([`PEER_FLAG_LOCAL`]) marks a pseudo-peer describing a
/// locally originated route (used when a peer-info blob describes a
/// route's *source*, as at the outbound-filter and encode points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    pub router_id: u32,
    pub asn: u32,
    pub peer_type: PeerType,
    pub local_router_id: u32,
    pub local_asn: u32,
    pub flags: u32,
}

/// Byte offset of `peer_type` inside the marshalled [`PeerInfo`].
pub const PEER_INFO_OFF_ROUTER_ID: i64 = 0;
pub const PEER_INFO_OFF_ASN: i64 = 4;
pub const PEER_INFO_OFF_TYPE: i64 = 8;
pub const PEER_INFO_OFF_LOCAL_ROUTER_ID: i64 = 12;
pub const PEER_INFO_OFF_LOCAL_ASN: i64 = 16;
pub const PEER_INFO_OFF_FLAGS: i64 = 20;
/// Marshalled size of [`PeerInfo`].
pub const PEER_INFO_SIZE: usize = 24;

/// `PeerInfo::flags` bit: the peer is a route-reflection client.
pub const PEER_FLAG_RR_CLIENT: u32 = 1;
/// `PeerInfo::flags` bit: pseudo-peer for a locally originated route.
pub const PEER_FLAG_LOCAL: u32 = 2;

impl PeerInfo {
    /// Marshal to the fixed ABI layout.
    pub fn to_bytes(&self) -> [u8; PEER_INFO_SIZE] {
        let mut b = [0u8; PEER_INFO_SIZE];
        b[0..4].copy_from_slice(&self.router_id.to_le_bytes());
        b[4..8].copy_from_slice(&self.asn.to_le_bytes());
        b[8..12].copy_from_slice(&(self.peer_type as u32).to_le_bytes());
        b[12..16].copy_from_slice(&self.local_router_id.to_le_bytes());
        b[16..20].copy_from_slice(&self.local_asn.to_le_bytes());
        b[20..24].copy_from_slice(&self.flags.to_le_bytes());
        b
    }
}

/// Marshalled nexthop information (`get_nexthop`).
///
/// Wire layout (little-endian, 12 bytes):
///
/// | offset | field              |
/// |--------|--------------------|
/// | 0      | `addr: u32`        |
/// | 4      | `igp_metric: u32`  |
/// | 8      | `reachable: u32`   |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHopInfo {
    /// Nexthop address, host byte order.
    pub addr: u32,
    /// IGP cost to reach the nexthop ([`u32::MAX`] when unreachable).
    pub igp_metric: u32,
    /// 1 when the IGP can currently reach the nexthop.
    pub reachable: bool,
}

pub const NEXTHOP_OFF_ADDR: i64 = 0;
pub const NEXTHOP_OFF_IGP_METRIC: i64 = 4;
pub const NEXTHOP_OFF_REACHABLE: i64 = 8;
/// Marshalled size of [`NextHopInfo`].
pub const NEXTHOP_INFO_SIZE: usize = 12;

impl NextHopInfo {
    /// Marshal to the fixed ABI layout.
    pub fn to_bytes(&self) -> [u8; NEXTHOP_INFO_SIZE] {
        let mut b = [0u8; NEXTHOP_INFO_SIZE];
        b[0..4].copy_from_slice(&self.addr.to_le_bytes());
        b[4..8].copy_from_slice(&self.igp_metric.to_le_bytes());
        b[8..12].copy_from_slice(&u32::from(self.reachable).to_le_bytes());
        b
    }
}

/// Byte offset of the address field in the marshalled prefix
/// (`get_prefix` helper): `{ addr: u32 host order, len: u32 }`.
pub const PREFIX_OFF_ADDR: i64 = 0;
/// Byte offset of the length field in the marshalled prefix.
pub const PREFIX_OFF_LEN: i64 = 4;
/// Marshalled size of a prefix.
pub const PREFIX_INFO_SIZE: usize = 8;

/// Helper function identifiers — the stable numeric ABI of the xBGP API.
pub mod helper {
    /// `next()` — delegate to the next extension in the chain (§2.1).
    pub const NEXT: u32 = 1;
    /// `get_arg(idx, dst, cap) -> len | XBGP_FAIL` — copy insertion-point
    /// argument `idx` (e.g. the raw UPDATE body) into extension memory.
    pub const GET_ARG: u32 = 2;
    /// `arg_len(idx) -> len | XBGP_FAIL`.
    pub const ARG_LEN: u32 = 3;
    /// `get_peer_info() -> ptr` to a marshalled [`super::PeerInfo`].
    pub const GET_PEER_INFO: u32 = 4;
    /// `get_nexthop() -> ptr | 0` to a marshalled [`super::NextHopInfo`].
    pub const GET_NEXTHOP: u32 = 5;
    /// `get_attr(code, dst, cap) -> len | XBGP_FAIL` — attribute payload in
    /// network byte order.
    pub const GET_ATTR: u32 = 6;
    /// `set_attr(code, flags, ptr, len) -> 0 | XBGP_FAIL` — upsert.
    pub const SET_ATTR: u32 = 7;
    /// `add_attr(code, flags, ptr, len) -> 0 | XBGP_FAIL` — add, failing if
    /// the attribute already exists.
    pub const ADD_ATTR: u32 = 8;
    /// `remove_attr(code) -> 0 | XBGP_FAIL`.
    pub const REMOVE_ATTR: u32 = 9;
    /// `get_xtra(key_ptr, key_len, dst, cap) -> len | XBGP_FAIL` — static
    /// data from the manifest / router configuration.
    pub const GET_XTRA: u32 = 10;
    /// `write_buf(ptr, len) -> written | XBGP_FAIL` — append bytes to the
    /// host's output buffer (encode-message insertion point).
    pub const WRITE_BUF: u32 = 11;
    /// `ebpf_memcpy(dst, src, len) -> dst`.
    pub const EBPF_MEMCPY: u32 = 12;
    /// `bpf_htonl(v) -> v'` (and friends): byte-order conversions.
    pub const BPF_HTONL: u32 = 13;
    pub const BPF_NTOHL: u32 = 14;
    pub const BPF_HTONS: u32 = 15;
    pub const BPF_NTOHS: u32 = 16;
    /// `ebpf_print(ptr, len) -> 0` — debug output through the host logger.
    pub const EBPF_PRINT: u32 = 17;
    /// `ctx_malloc(size) -> ptr | 0` — ephemeral allocation, freed
    /// automatically when the extension returns (§2.1).
    pub const CTX_MALLOC: u32 = 18;
    /// `ctx_shared_malloc(key, size) -> ptr | 0` — persistent allocation in
    /// the program's shared memory space.
    pub const CTX_SHARED_MALLOC: u32 = 19;
    /// `ctx_shared_get(key) -> ptr | 0`.
    pub const CTX_SHARED_GET: u32 = 20;
    /// `rpki_check_origin(prefix_addr, prefix_len, asn) -> ROV_*`.
    pub const RPKI_CHECK_ORIGIN: u32 = 21;
    /// `rib_add_route(prefix_addr, prefix_len, nexthop) -> 0 | XBGP_FAIL` —
    /// install a route into the RIB through a hidden-argument context.
    pub const RIB_ADD_ROUTE: u32 = 22;
    /// `get_prefix() -> ptr | 0` to the marshalled prefix of the current
    /// route: `{ addr: u32 (host order), len: u32 }`, little-endian.
    pub const GET_PREFIX: u32 = 23;

    /// Name ↔ id table (used by the assembler's symbol table and by
    /// manifests that whitelist helpers by name).
    pub const TABLE: &[(&str, u32)] = &[
        ("next", NEXT),
        ("get_arg", GET_ARG),
        ("arg_len", ARG_LEN),
        ("get_peer_info", GET_PEER_INFO),
        ("get_nexthop", GET_NEXTHOP),
        ("get_attr", GET_ATTR),
        ("set_attr", SET_ATTR),
        ("add_attr", ADD_ATTR),
        ("remove_attr", REMOVE_ATTR),
        ("get_xtra", GET_XTRA),
        ("write_buf", WRITE_BUF),
        ("ebpf_memcpy", EBPF_MEMCPY),
        ("bpf_htonl", BPF_HTONL),
        ("bpf_ntohl", BPF_NTOHL),
        ("bpf_htons", BPF_HTONS),
        ("bpf_ntohs", BPF_NTOHS),
        ("ebpf_print", EBPF_PRINT),
        ("ctx_malloc", CTX_MALLOC),
        ("ctx_shared_malloc", CTX_SHARED_MALLOC),
        ("ctx_shared_get", CTX_SHARED_GET),
        ("rpki_check_origin", RPKI_CHECK_ORIGIN),
        ("rib_add_route", RIB_ADD_ROUTE),
        ("get_prefix", GET_PREFIX),
    ];

    /// Resolve a helper name to its id.
    pub fn id_of(name: &str) -> Option<u32> {
        TABLE.iter().find(|(n, _)| *n == name).map(|(_, id)| *id)
    }

    /// Resolve a helper id to its name.
    pub fn name_of(id: u32) -> Option<&'static str> {
        TABLE.iter().find(|(_, i)| *i == id).map(|(n, _)| *n)
    }
}

/// The full helper id set (for verifying programs allowed to use the whole
/// API).
pub fn all_helper_ids() -> HashSet<u32> {
    helper::TABLE.iter().map(|(_, id)| *id).collect()
}

/// The symbol table handed to the assembler: helper names plus every ABI
/// constant an extension program may reference by name.
pub fn abi_symbols() -> HashMap<String, i64> {
    let mut m: HashMap<String, i64> =
        helper::TABLE.iter().map(|(n, id)| (n.to_string(), i64::from(*id))).collect();
    let consts: &[(&str, i64)] = &[
        ("FILTER_REJECT", FILTER_REJECT as i64),
        ("FILTER_ACCEPT", FILTER_ACCEPT as i64),
        ("DECISION_PREFER_OLD", DECISION_PREFER_OLD as i64),
        ("DECISION_PREFER_NEW", DECISION_PREFER_NEW as i64),
        ("IBGP_SESSION", IBGP_SESSION as i64),
        ("EBGP_SESSION", EBGP_SESSION as i64),
        ("ROV_NOT_FOUND", ROV_NOT_FOUND as i64),
        ("ROV_VALID", ROV_VALID as i64),
        ("ROV_INVALID", ROV_INVALID as i64),
        ("PEER_INFO_OFF_ROUTER_ID", PEER_INFO_OFF_ROUTER_ID),
        ("PEER_INFO_OFF_ASN", PEER_INFO_OFF_ASN),
        ("PEER_INFO_OFF_TYPE", PEER_INFO_OFF_TYPE),
        ("PEER_INFO_OFF_LOCAL_ROUTER_ID", PEER_INFO_OFF_LOCAL_ROUTER_ID),
        ("PEER_INFO_OFF_LOCAL_ASN", PEER_INFO_OFF_LOCAL_ASN),
        ("PEER_INFO_OFF_FLAGS", PEER_INFO_OFF_FLAGS),
        ("PEER_FLAG_RR_CLIENT", PEER_FLAG_RR_CLIENT as i64),
        ("PEER_FLAG_LOCAL", PEER_FLAG_LOCAL as i64),
        ("NEXTHOP_OFF_ADDR", NEXTHOP_OFF_ADDR),
        ("NEXTHOP_OFF_IGP_METRIC", NEXTHOP_OFF_IGP_METRIC),
        ("NEXTHOP_OFF_REACHABLE", NEXTHOP_OFF_REACHABLE),
        ("PREFIX_OFF_ADDR", PREFIX_OFF_ADDR),
        ("PREFIX_OFF_LEN", PREFIX_OFF_LEN),
        // Well-known BGP attribute codes, for get_attr/set_attr calls.
        ("ATTR_ORIGIN", 1),
        ("ATTR_AS_PATH", 2),
        ("ATTR_NEXT_HOP", 3),
        ("ATTR_MED", 4),
        ("ATTR_LOCAL_PREF", 5),
        ("ATTR_AGGREGATOR", 7),
        ("ATTR_COMMUNITIES", 8),
        ("ATTR_ORIGINATOR_ID", 9),
        ("ATTR_CLUSTER_LIST", 10),
        // Attribute flag octets.
        ("ATTR_FLAGS_WELL_KNOWN", 0x40),
        ("ATTR_FLAGS_OPT_TRANS", 0xc0),
        ("ATTR_FLAGS_OPT_NON_TRANS", 0x80),
    ];
    for (k, v) in consts {
        m.insert((*k).to_string(), *v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_table_is_bijective() {
        let mut names = HashSet::new();
        let mut ids = HashSet::new();
        for (n, id) in helper::TABLE {
            assert!(names.insert(*n), "duplicate helper name {n}");
            assert!(ids.insert(*id), "duplicate helper id {id}");
            assert_eq!(helper::id_of(n), Some(*id));
            assert_eq!(helper::name_of(*id), Some(*n));
        }
    }

    /// DESIGN.md §7 lists the helpers by name, in id order; it must list
    /// exactly the ones in [`helper::TABLE`].
    #[test]
    fn design_section_7_lists_the_helper_table() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 7.").expect("DESIGN.md has a section 7");
        let section = &design[start + 1..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        let listed: Vec<&str> = section
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|w| w.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .collect();
        let table: Vec<&str> = helper::TABLE.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn peer_info_layout_matches_offsets() {
        let pi = PeerInfo {
            router_id: 0x0101_0101,
            asn: 65001,
            peer_type: PeerType::Ebgp,
            local_router_id: 0x0202_0202,
            local_asn: 65000,
            flags: PEER_FLAG_RR_CLIENT,
        };
        let b = pi.to_bytes();
        let at = |off: i64| {
            let o = off as usize;
            u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
        };
        assert_eq!(at(PEER_INFO_OFF_ROUTER_ID), 0x0101_0101);
        assert_eq!(at(PEER_INFO_OFF_ASN), 65001);
        assert_eq!(at(PEER_INFO_OFF_TYPE), 1);
        assert_eq!(at(PEER_INFO_OFF_LOCAL_ROUTER_ID), 0x0202_0202);
        assert_eq!(at(PEER_INFO_OFF_LOCAL_ASN), 65000);
        assert_eq!(at(PEER_INFO_OFF_FLAGS), PEER_FLAG_RR_CLIENT);
    }

    #[test]
    fn nexthop_layout_matches_offsets() {
        let nh = NextHopInfo { addr: 0x0a00_0001, igp_metric: 1000, reachable: true };
        let b = nh.to_bytes();
        assert_eq!(u32::from_le_bytes([b[4], b[5], b[6], b[7]]), 1000);
        assert_eq!(u32::from_le_bytes([b[8], b[9], b[10], b[11]]), 1);
    }

    #[test]
    fn abi_symbols_include_helpers_and_constants() {
        let syms = abi_symbols();
        assert_eq!(syms["next"], 1);
        assert_eq!(syms["EBGP_SESSION"], 1);
        assert_eq!(syms["FILTER_REJECT"], 0);
        assert_eq!(syms["NEXTHOP_OFF_IGP_METRIC"], 4);
        assert_eq!(syms["ATTR_ORIGINATOR_ID"], 9);
    }

    #[test]
    fn insertion_point_names_round_trip() {
        for p in InsertionPoint::ALL {
            assert_eq!(InsertionPoint::from_name(p.name()), Some(p));
        }
        assert_eq!(InsertionPoint::from_name("nope"), None);
    }
}
