//! # xbgp-progs — the paper's extension programs
//!
//! The five xBGP use cases, written in eBPF assembly (see DESIGN.md §1 on
//! the C→asm substitution) and packaged as manifest builders. Every
//! program here is **implementation-agnostic**: the same bytecode loads
//! into `bgp-fir` and `bgp-wren`, which is the paper's central claim.
//!
//! | module | paper section | insertion points |
//! |---|---|---|
//! | [`geoloc`] | §2 running example | ①②④⑤ (receive, inbound, outbound, encode) |
//! | [`igp_filter`] | §3.1 Listing 1 | ④ outbound |
//! | [`route_reflect`] | §3.2 | ②④⑤ |
//! | [`valley_free`] | §3.3 | ② |
//! | [`origin_validation`] | §3.4 | ② |

use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::{abi_symbols, InsertionPoint};
use xbgp_core::{ExtensionSpec, Manifest};
use xbgp_vm::Program;

/// The GeoLoc attribute type code (unassigned space, as in the unadopted
/// draft the paper cites).
pub const GEOLOC_ATTR: u8 = 66;

/// Assemble one of the bundled sources against the xBGP ABI symbols.
/// Panics on assembly errors — the sources are part of this crate, so a
/// failure is a build bug, not an input condition.
pub fn assemble(src: &str) -> Program {
    assemble_with_symbols(src, &abi_symbols()).expect("bundled program assembles")
}

/// §3.1 — the IGP-cost export filter (Listing 1).
pub mod igp_filter {
    use super::*;

    /// The assembly source (Listing 1's logic).
    pub const SOURCE: &str = include_str!("../asm/export_igp.s");

    /// The filter as a loadable extension.
    pub fn extension() -> ExtensionSpec {
        ExtensionSpec::from_program(
            "export_igp",
            "igp_filter",
            InsertionPoint::BgpOutboundFilter,
            &["get_peer_info", "get_nexthop", "next"],
            &assemble(SOURCE),
        )
    }

    /// A manifest containing only this filter.
    pub fn manifest() -> Manifest {
        let mut m = Manifest::new();
        m.push(extension());
        m
    }
}

/// §2 — the GeoLoc attribute: four bytecodes, one program group.
pub mod geoloc {
    use super::*;

    pub const SRC_RECV: &str = include_str!("../asm/geoloc_recv.s");
    pub const SRC_INBOUND: &str = include_str!("../asm/geoloc_inbound.s");
    pub const SRC_OUTBOUND: &str = include_str!("../asm/geoloc_out.s");
    pub const SRC_ENCODE: &str = include_str!("../asm/geoloc_encode.s");

    /// Encode router coordinates for the `"geo"` configuration key:
    /// latitude and longitude in signed milli-degrees, network byte order.
    pub fn coords_bytes(lat_mdeg: i32, lon_mdeg: i32) -> Vec<u8> {
        let mut v = Vec::with_capacity(8);
        v.extend_from_slice(&lat_mdeg.to_be_bytes());
        v.extend_from_slice(&lon_mdeg.to_be_bytes());
        v
    }

    /// Encode the squared-distance threshold for `"geo_max_dist2"`.
    pub fn max_dist2_bytes(max_dist2: u64) -> Vec<u8> {
        max_dist2.to_be_bytes().to_vec()
    }

    /// The four bytecodes as one manifest. Per-router data (own
    /// coordinates under `"geo"`, threshold under `"geo_max_dist2"`) comes
    /// from the router configuration (`HostApi::get_xtra`), which shadows
    /// manifest data; a fleet-wide threshold can be set here instead via
    /// `max_dist2`.
    pub fn manifest(max_dist2: Option<u64>) -> Manifest {
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "geoloc_recv",
            "geoloc",
            InsertionPoint::BgpReceiveMessage,
            &["get_peer_info", "ctx_malloc", "get_arg", "get_xtra", "add_attr"],
            &assemble(SRC_RECV),
        ));
        m.push(ExtensionSpec::from_program(
            "geoloc_inbound",
            "geoloc",
            InsertionPoint::BgpInboundFilter,
            &["get_attr", "get_xtra", "next"],
            &assemble(SRC_INBOUND),
        ));
        m.push(ExtensionSpec::from_program(
            "geoloc_outbound",
            "geoloc",
            InsertionPoint::BgpOutboundFilter,
            &["get_peer_info", "get_attr", "next"],
            &assemble(SRC_OUTBOUND),
        ));
        m.push(ExtensionSpec::from_program(
            "geoloc_encode",
            "geoloc",
            InsertionPoint::BgpEncodeMessage,
            &["get_peer_info", "get_attr", "write_buf"],
            &assemble(SRC_ENCODE),
        ));
        if let Some(d) = max_dist2 {
            m.set_xtra("geo_max_dist2", max_dist2_bytes(d));
        }
        m
    }
}

/// §3.2 — route reflection entirely as extension code.
pub mod route_reflect {
    use super::*;

    pub const SRC_INBOUND: &str = include_str!("../asm/rr_inbound.s");
    pub const SRC_OUTBOUND: &str = include_str!("../asm/rr_outbound.s");
    pub const SRC_ENCODE: &str = include_str!("../asm/rr_encode.s");

    /// The three bytecodes (loop prevention, reflection policy, attribute
    /// emission) as one program group. Load on a router whose *native*
    /// reflection is disabled; client-ness comes from the host's peer
    /// configuration through the peer-info flags.
    pub fn manifest() -> Manifest {
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "rr_inbound",
            "route_reflect",
            InsertionPoint::BgpInboundFilter,
            &["get_peer_info", "get_attr", "ctx_malloc", "next"],
            &assemble(SRC_INBOUND),
        ));
        m.push(ExtensionSpec::from_program(
            "rr_outbound",
            "route_reflect",
            InsertionPoint::BgpOutboundFilter,
            &["get_peer_info", "get_arg", "next"],
            &assemble(SRC_OUTBOUND),
        ));
        m.push(ExtensionSpec::from_program(
            "rr_encode",
            "route_reflect",
            InsertionPoint::BgpEncodeMessage,
            &["get_peer_info", "get_arg", "get_attr", "bpf_htonl", "write_buf", "ctx_malloc"],
            &assemble(SRC_ENCODE),
        ));
        m
    }
}

/// §3.3 — valley-free routing for BGP-in-the-datacenter.
pub mod valley_free {
    use super::*;
    use xbgp_wire::Ipv4Prefix;

    pub const SOURCE: &str = include_str!("../asm/valley_free.s");

    /// Encode the fabric adjacency manifest: `(below, above)` ASN pairs.
    pub fn pairs_bytes(pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut v = Vec::with_capacity(pairs.len() * 8);
        for (below, above) in pairs {
            v.extend_from_slice(&below.to_be_bytes());
            v.extend_from_slice(&above.to_be_bytes());
        }
        v
    }

    /// Encode the datacenter's covering prefix for the internal-destination
    /// escape hatch.
    pub fn dc_prefix_bytes(prefix: Ipv4Prefix) -> Vec<u8> {
        let mut v = Vec::with_capacity(8);
        v.extend_from_slice(&prefix.addr().to_be_bytes());
        v.extend_from_slice(&u32::from(prefix.len()).to_be_bytes());
        v
    }

    /// Build the manifest: the filter plus its static tables.
    pub fn manifest(pairs: &[(u32, u32)], dc_prefix: Ipv4Prefix) -> Manifest {
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "valley_free",
            "valley_free",
            InsertionPoint::BgpInboundFilter,
            &["get_peer_info", "ctx_malloc", "get_xtra", "get_prefix", "get_attr", "next"],
            &assemble(SOURCE),
        ));
        m.set_xtra("vf_pairs", pairs_bytes(pairs));
        m.set_xtra("dc_prefix", dc_prefix_bytes(dc_prefix));
        m
    }
}

/// §3.4 — origin validation via the xBGP hash-backed helper.
pub mod origin_validation {
    use super::*;

    pub const SOURCE: &str = include_str!("../asm/rov_check.s");

    /// Program-group name (for reading the persistent counters).
    pub const GROUP: &str = "origin_validation";
    /// Shared-memory key of the counters block.
    pub const COUNTERS_KEY: u64 = 1;

    pub fn extension() -> ExtensionSpec {
        ExtensionSpec::from_program(
            "rov_check",
            GROUP,
            InsertionPoint::BgpInboundFilter,
            &[
                "get_prefix",
                "ctx_malloc",
                "get_attr",
                "rpki_check_origin",
                "ctx_shared_get",
                "ctx_shared_malloc",
                "next",
            ],
            &assemble(SOURCE),
        )
    }

    pub fn manifest() -> Manifest {
        let mut m = Manifest::new();
        m.push(extension());
        m
    }

    /// Decode the persistent counter block: `(valid, invalid, not_found)`.
    pub fn decode_counters(raw: &[u8]) -> (u64, u64, u64) {
        let le =
            |o: usize| u64::from_le_bytes(raw[o..o + 8].try_into().expect("24-byte counter block"));
        (le(0), le(8), le(16))
    }
}

/// Fault-injection probe — not one of the paper's use cases. Exercises
/// the transactional execution contract (DESIGN.md §4d): every `period`-th
/// invocation stages two attribute writes and traps mid-run, so a correct
/// VMM leaves the Loc-RIB byte-identical to a native run; all other
/// invocations delegate with `next()`. Used by the harness's
/// `--fault-rate` option and the fault-injection integration tests.
pub mod fault_inject {
    use super::*;

    /// Assembly template; `PERIOD` and `FAULT_ATTR` are prepended by
    /// [`source`].
    pub const TEMPLATE: &str = include_str!("../asm/fault_inject.s");

    /// Scratch attribute code the probe stages (never committed).
    pub const FAULT_ATTR: u8 = 77;

    /// The probe's source with a concrete fault period (clamped to ≥ 1;
    /// period 1 faults on every invocation).
    pub fn source(period: u64) -> String {
        format!(".equ PERIOD, {}\n.equ FAULT_ATTR, {}\n{}", period.max(1), FAULT_ATTR, TEMPLATE)
    }

    pub fn extension(period: u64) -> ExtensionSpec {
        ExtensionSpec::from_program(
            "fault_inject",
            "fault_inject",
            InsertionPoint::BgpInboundFilter,
            &["ctx_shared_get", "ctx_shared_malloc", "set_attr", "next"],
            &assemble(&source(period)),
        )
    }

    pub fn manifest(period: u64) -> Manifest {
        let mut m = Manifest::new();
        m.push(extension(period));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_core::api::{
        NextHopInfo, PeerInfo, PeerType, FILTER_REJECT, PEER_FLAG_LOCAL, PEER_FLAG_RR_CLIENT,
        ROV_INVALID, ROV_VALID,
    };
    use xbgp_core::host::MockHost;
    use xbgp_core::{Vmm, VmmOutcome};
    use xbgp_wire::attr::AttrFlags;
    use xbgp_wire::AsPath;

    fn host() -> MockHost {
        MockHost::default()
    }

    fn peer(t: PeerType) -> PeerInfo {
        PeerInfo {
            router_id: 0x0a00_0009,
            asn: if t == PeerType::Ebgp { 65009 } else { 65000 },
            peer_type: t,
            local_router_id: 0x0a00_0001,
            local_asn: 65000,
            flags: 0,
        }
    }

    fn as_path_raw(asns: &[u32]) -> Vec<u8> {
        let mut body = Vec::new();
        AsPath::sequence(asns.to_vec()).encode_body(&mut body, 4);
        body
    }

    /// Marshal a source peer-info arg blob the way the daemons do.
    fn source_blob(router_id: u32, t: PeerType, flags: u32) -> Vec<u8> {
        PeerInfo {
            router_id,
            asn: 65000,
            peer_type: t,
            local_router_id: 0x0a00_0001,
            local_asn: 65000,
            flags,
        }
        .to_bytes()
        .to_vec()
    }

    #[test]
    fn every_bundled_program_assembles_and_loads() {
        // Loading a manifest verifies each program against its declared
        // helpers; this is the "same bytecode, verified" path.
        for m in [
            igp_filter::manifest(),
            geoloc::manifest(Some(100)),
            route_reflect::manifest(),
            valley_free::manifest(&[(1, 2)], "10.0.0.0/8".parse().unwrap()),
            origin_validation::manifest(),
        ] {
            Vmm::from_manifest(&m).expect("manifest loads and verifies");
        }
    }

    /// What each shipped ④/⑤ program can learn about the peer it exports
    /// to. The export path shares one run between peers that agree on
    /// these fields, so an edit that starts reading, say, the peer's
    /// router id must show up here as a diff.
    #[test]
    fn shipped_export_programs_read_only_these_peer_fields() {
        use xbgp_core::contracts::{peer_info_fields, PEER_INFO_ALL};
        let fields = |m: &Manifest, point| {
            let mut only = Manifest::new();
            for e in m.extensions.iter().filter(|e| e.insertion_point == point) {
                only.push(e.clone());
            }
            let mask = Vmm::from_manifest(&only).unwrap().peer_read_mask(&[point]);
            assert_ne!(mask, PEER_INFO_ALL, "not groupable");
            peer_info_fields(mask)
        };
        let outbound = xbgp_core::InsertionPoint::BgpOutboundFilter;
        let encode = xbgp_core::InsertionPoint::BgpEncodeMessage;
        assert_eq!(fields(&route_reflect::manifest(), outbound), ["type", "flags"]);
        assert_eq!(fields(&route_reflect::manifest(), encode), ["type", "local_router_id"]);
        assert_eq!(fields(&geoloc::manifest(None), outbound), ["type"]);
        assert_eq!(fields(&geoloc::manifest(None), encode), ["type"]);
        assert_eq!(fields(&igp_filter::manifest(), outbound), ["type"]);
    }

    // ----- §3.1 Listing 1 -----

    #[test]
    fn igp_filter_rejects_costly_ebgp_routes_only() {
        let mut vmm = Vmm::from_manifest(&igp_filter::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpOutboundFilter;

        let mut h = host();
        h.peer = peer(PeerType::Ebgp);
        h.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 1001, reachable: true });
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));

        h.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 1000, reachable: true });
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback, "metric at bound: accepted");

        h.peer = peer(PeerType::Ibgp);
        h.nexthop = Some(NextHopInfo { addr: 1, igp_metric: 999_999, reachable: true });
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback, "iBGP is never filtered");

        // No nexthop information: conservative reject.
        h.peer = peer(PeerType::Ebgp);
        h.nexthop = None;
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));
    }

    // ----- §2 GeoLoc -----

    #[test]
    fn geoloc_recv_stamps_ebgp_routes_with_config_coords() {
        let mut vmm = Vmm::from_manifest(&geoloc::manifest(None)).unwrap();
        let point = xbgp_core::InsertionPoint::BgpReceiveMessage;
        let mut h = host();
        h.peer = peer(PeerType::Ebgp);
        h.args = vec![vec![0u8; 23]]; // raw update body placeholder
        h.xtra.push(("geo".into(), geoloc::coords_bytes(50_846, 4_352))); // Brussels-ish
        vmm.run(point, &mut h);
        let (flags, payload) = h
            .attrs
            .iter()
            .find(|(c, _, _)| *c == GEOLOC_ATTR)
            .map(|(_, f, v)| (*f, v.clone()))
            .expect("GeoLoc attached");
        assert_eq!(flags, AttrFlags::OPT_TRANS.0);
        assert_eq!(payload, geoloc::coords_bytes(50_846, 4_352));

        // iBGP: not stamped.
        let mut h2 = host();
        h2.peer = peer(PeerType::Ibgp);
        h2.args = vec![vec![0u8; 23]];
        h2.xtra.push(("geo".into(), geoloc::coords_bytes(1, 1)));
        vmm.run(point, &mut h2);
        assert!(h2.attrs.is_empty());

        // Already stamped: left alone (add_attr refuses).
        let mut h3 = host();
        h3.peer = peer(PeerType::Ebgp);
        h3.args = vec![vec![0u8; 23]];
        h3.xtra.push(("geo".into(), geoloc::coords_bytes(9, 9)));
        h3.attrs.push((GEOLOC_ATTR, AttrFlags::OPT_TRANS.0, geoloc::coords_bytes(1, 2)));
        vmm.run(point, &mut h3);
        assert_eq!(h3.attrs.len(), 1);
        assert_eq!(h3.attrs[0].2, geoloc::coords_bytes(1, 2));
    }

    #[test]
    fn geoloc_inbound_rejects_far_routes() {
        let mut vmm = Vmm::from_manifest(&geoloc::manifest(None)).unwrap();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        let mut h = host();
        h.xtra.push(("geo".into(), geoloc::coords_bytes(0, 0)));
        h.xtra.push(("geo_max_dist2".into(), geoloc::max_dist2_bytes(100 * 100)));

        // Route learned 60 units away on each axis: 7200 > 10000? No → ok.
        h.attrs
            .push((GEOLOC_ATTR, AttrFlags::OPT_TRANS.0, geoloc::coords_bytes(60, 60)));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);

        // 80 units away on each axis: 12800 > 10000 → reject.
        h.attrs[0].2 = geoloc::coords_bytes(80, 80);
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));

        // Negative coordinates work (signed arithmetic).
        h.attrs[0].2 = geoloc::coords_bytes(-80, -80);
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));
        h.attrs[0].2 = geoloc::coords_bytes(-60, 60);
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);

        // No GeoLoc attribute: passes through.
        h.attrs.clear();
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
    }

    #[test]
    fn geoloc_encode_writes_tlv_on_ibgp_only() {
        let mut vmm = Vmm::from_manifest(&geoloc::manifest(None)).unwrap();
        let point = xbgp_core::InsertionPoint::BgpEncodeMessage;

        let mut h = host();
        h.peer = peer(PeerType::Ibgp);
        h.attrs.push((GEOLOC_ATTR, AttrFlags::OPT_TRANS.0, geoloc::coords_bytes(7, 9)));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(0));
        let mut expected = vec![AttrFlags::OPT_TRANS.0, GEOLOC_ATTR, 8];
        expected.extend_from_slice(&geoloc::coords_bytes(7, 9));
        assert_eq!(h.out_buf, expected);

        let mut h2 = host();
        h2.peer = peer(PeerType::Ebgp);
        h2.attrs.push((GEOLOC_ATTR, AttrFlags::OPT_TRANS.0, geoloc::coords_bytes(7, 9)));
        vmm.run(point, &mut h2);
        assert!(h2.out_buf.is_empty(), "GeoLoc not written over eBGP");
    }

    // ----- §3.2 route reflection -----

    #[test]
    fn rr_inbound_rejects_reflection_loops() {
        let mut vmm = Vmm::from_manifest(&route_reflect::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        // ORIGINATOR_ID equals the local router id.
        let mut h = host();
        h.peer = peer(PeerType::Ibgp);
        h.attrs.push((9, 0x80, 0x0a00_0001u32.to_be_bytes().to_vec()));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));

        // Foreign originator: fine.
        h.attrs[0].2 = 0x0a00_0099u32.to_be_bytes().to_vec();
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);

        // CLUSTER_LIST containing the local cluster id (third entry).
        let mut cl = Vec::new();
        for id in [5u32, 6, 0x0a00_0001] {
            cl.extend_from_slice(&id.to_be_bytes());
        }
        h.attrs.push((10, 0x80, cl));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));

        // eBGP sessions: no reflection checks at all.
        let mut h2 = host();
        h2.peer = peer(PeerType::Ebgp);
        h2.attrs.push((9, 0x80, 0x0a00_0001u32.to_be_bytes().to_vec()));
        assert_eq!(vmm.run(point, &mut h2), VmmOutcome::Fallback);
    }

    #[test]
    fn rr_outbound_reflection_matrix() {
        let mut vmm = Vmm::from_manifest(&route_reflect::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpOutboundFilter;
        let run = |vmm: &mut Vmm, dest_flags: u32, src_flags: u32, src_type: PeerType| {
            let mut h = host();
            h.peer = PeerInfo { flags: dest_flags, ..peer(PeerType::Ibgp) };
            h.args = vec![source_blob(0x0a00_0005, src_type, src_flags)];
            vmm.run(point, &mut h)
        };

        // client → anyone: reflect.
        assert_eq!(
            run(&mut vmm, 0, PEER_FLAG_RR_CLIENT, PeerType::Ibgp),
            VmmOutcome::Value(xbgp_core::api::FILTER_ACCEPT)
        );
        // non-client → client: reflect.
        assert_eq!(
            run(&mut vmm, PEER_FLAG_RR_CLIENT, 0, PeerType::Ibgp),
            VmmOutcome::Value(xbgp_core::api::FILTER_ACCEPT)
        );
        // non-client → non-client: refuse.
        assert_eq!(run(&mut vmm, 0, 0, PeerType::Ibgp), VmmOutcome::Value(FILTER_REJECT));
        // eBGP-learned: native policy decides.
        assert_eq!(run(&mut vmm, 0, 0, PeerType::Ebgp), VmmOutcome::Fallback);
        // Locally originated: native policy decides.
        assert_eq!(run(&mut vmm, 0, PEER_FLAG_LOCAL, PeerType::Ibgp), VmmOutcome::Fallback);
    }

    #[test]
    fn rr_encode_emits_originator_and_cluster_list() {
        let mut vmm = Vmm::from_manifest(&route_reflect::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpEncodeMessage;

        let mut h = host();
        h.peer = peer(PeerType::Ibgp); // local router id 0x0a000001
        h.args = vec![source_blob(0x0a00_0005, PeerType::Ibgp, 0)];
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(0));
        // ORIGINATOR_ID TLV: source router id; CLUSTER_LIST TLV: [local id].
        let mut expected = vec![0x80, 9, 4];
        expected.extend_from_slice(&0x0a00_0005u32.to_be_bytes());
        expected.extend_from_slice(&[0x80, 10, 4]);
        expected.extend_from_slice(&0x0a00_0001u32.to_be_bytes());
        assert_eq!(h.out_buf, expected);

        // Existing ORIGINATOR_ID and CLUSTER_LIST are preserved/extended.
        let mut h2 = host();
        h2.peer = peer(PeerType::Ibgp);
        h2.args = vec![source_blob(0x0a00_0005, PeerType::Ibgp, 0)];
        h2.attrs.push((9, 0x80, 0x0a00_0042u32.to_be_bytes().to_vec()));
        h2.attrs.push((10, 0x80, 0x0a00_0077u32.to_be_bytes().to_vec()));
        vmm.run(point, &mut h2);
        let mut expected = vec![0x80, 9, 4];
        expected.extend_from_slice(&0x0a00_0042u32.to_be_bytes());
        expected.extend_from_slice(&[0x80, 10, 8]);
        expected.extend_from_slice(&0x0a00_0001u32.to_be_bytes()); // prepended
        expected.extend_from_slice(&0x0a00_0077u32.to_be_bytes()); // old list
        assert_eq!(h2.out_buf, expected);

        // eBGP destination or eBGP-learned: nothing written.
        let mut h3 = host();
        h3.peer = peer(PeerType::Ebgp);
        h3.args = vec![source_blob(5, PeerType::Ibgp, 0)];
        vmm.run(point, &mut h3);
        assert!(h3.out_buf.is_empty());
        let mut h4 = host();
        h4.peer = peer(PeerType::Ibgp);
        h4.args = vec![source_blob(5, PeerType::Ebgp, 0)];
        vmm.run(point, &mut h4);
        assert!(h4.out_buf.is_empty());
    }

    // ----- §3.3 valley-free -----

    fn vf_vmm() -> Vmm {
        // Fabric: leaf 101,102 below spines 201,202; tor 1..4 below leaves.
        let pairs = vec![
            (101, 201),
            (101, 202),
            (102, 201),
            (102, 202),
            (1, 101),
            (2, 101),
            (3, 102),
            (4, 102),
        ];
        Vmm::from_manifest(&valley_free::manifest(&pairs, "10.0.0.0/8".parse().unwrap())).unwrap()
    }

    fn vf_peer(sender_asn: u32, my_asn: u32) -> PeerInfo {
        PeerInfo {
            router_id: 1,
            asn: sender_asn,
            peer_type: PeerType::Ebgp,
            local_router_id: 2,
            local_asn: my_asn,
            flags: 0,
        }
    }

    #[test]
    fn valley_free_rejects_up_after_down() {
        let mut vmm = vf_vmm();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        // Spine 202 receives from leaf 102 a path that already went down
        // through (101 learned from 201): a valley.
        let mut h = host();
        h.peer = vf_peer(102, 202);
        h.prefix = Some("192.0.2.0/24".parse().unwrap()); // external prefix
        h.attrs.push((2, 0x40, as_path_raw(&[101, 201, 999])));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));
    }

    #[test]
    fn valley_free_allows_clean_up_moves_and_down_moves() {
        let mut vmm = vf_vmm();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        // Clean upward path: tor 1 → leaf 101 → spine (no down move yet).
        let mut h = host();
        h.peer = vf_peer(101, 201);
        h.prefix = Some("192.0.2.0/24".parse().unwrap());
        h.attrs.push((2, 0x40, as_path_raw(&[1, 999])));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);

        // Down move (receiving from above): never filtered.
        let mut h2 = host();
        h2.peer = vf_peer(201, 101); // sender 201 is ABOVE me (101)
        h2.prefix = Some("192.0.2.0/24".parse().unwrap());
        h2.attrs.push((2, 0x40, as_path_raw(&[202, 102, 201, 999])));
        assert_eq!(vmm.run(point, &mut h2), VmmOutcome::Fallback);
    }

    #[test]
    fn valley_free_allows_internal_destinations() {
        // The paper's Fig. 5 double-failure scenario: the valley path must
        // survive for prefixes inside the datacenter.
        let mut vmm = vf_vmm();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;
        let mut h = host();
        h.peer = vf_peer(102, 201);
        h.prefix = Some("10.3.0.0/24".parse().unwrap()); // inside 10/8
        h.attrs.push((2, 0x40, as_path_raw(&[102, 202, 4]))); // went down at 102←202? pair (102,202) is down
        assert_eq!(
            vmm.run(point, &mut h),
            VmmOutcome::Fallback,
            "valley allowed toward internal destination"
        );
        // Same path toward an external prefix: rejected.
        h.prefix = Some("192.0.2.0/24".parse().unwrap());
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Value(FILTER_REJECT));
    }

    // ----- §3.4 origin validation -----

    #[test]
    fn rov_check_counts_but_never_discards() {
        let mut vmm = Vmm::from_manifest(&origin_validation::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        let mut h = host();
        h.prefix = Some("10.0.0.0/8".parse().unwrap());
        h.attrs.push((2, 0x40, as_path_raw(&[65001, 65002])));

        h.rov_answer = ROV_VALID;
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback, "valid: pass");
        h.rov_answer = ROV_INVALID;
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback, "invalid: STILL pass");
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);

        let raw = vmm
            .shared_read(origin_validation::GROUP, origin_validation::COUNTERS_KEY)
            .expect("counters allocated");
        assert_eq!(origin_validation::decode_counters(&raw), (1, 2, 0));
    }

    #[test]
    fn rov_check_handles_missing_data_gracefully() {
        let mut vmm = Vmm::from_manifest(&origin_validation::manifest()).unwrap();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;

        // No prefix in scope.
        let mut h = host();
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        // Prefix but no AS_PATH attribute.
        h.prefix = Some("10.0.0.0/8".parse().unwrap());
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        // Empty AS_PATH (iBGP-originated).
        h.attrs.push((2, 0x40, Vec::new()));
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        // No counters were allocated for any of these.
        assert!(vmm
            .shared_read(origin_validation::GROUP, origin_validation::COUNTERS_KEY)
            .is_none());
    }

    #[test]
    fn fault_inject_traps_every_nth_run_and_rolls_back() {
        let mut vmm = Vmm::from_manifest(&fault_inject::manifest(3)).unwrap();
        let point = xbgp_core::InsertionPoint::BgpInboundFilter;
        let mut h = host();
        h.attrs.push((5, 0x40, 100u32.to_be_bytes().to_vec()));
        let native = h.attrs.clone();

        // Runs 1 and 2 delegate cleanly; run 3 stages two writes and traps.
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_none());
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_none());
        assert_eq!(vmm.run(point, &mut h), VmmOutcome::Fallback);
        assert!(vmm.last_error().is_some(), "third run trapped");
        assert_eq!(h.attrs, native, "staged writes rolled back");
        assert!(!h.attrs.iter().any(|(c, _, _)| *c == fault_inject::FAULT_ATTR));

        // The period resets the streak, so the probe never self-quarantines.
        for _ in 0..12 {
            vmm.run(point, &mut h);
        }
        assert!(!vmm.stats()[0].quarantined);
        assert_eq!(h.attrs, native);
    }
}

#[cfg(test)]
mod disasm_round_trip {
    use super::*;
    use xbgp_asm::disassemble;

    /// Every bundled program disassembles to text that reassembles to the
    /// identical bytecode — the `xbgp-as -d` / `xbgp-as` loop is lossless.
    #[test]
    fn all_bundled_programs_survive_disassembly() {
        let sources = [
            igp_filter::SOURCE,
            geoloc::SRC_RECV,
            geoloc::SRC_INBOUND,
            geoloc::SRC_OUTBOUND,
            geoloc::SRC_ENCODE,
            route_reflect::SRC_INBOUND,
            route_reflect::SRC_OUTBOUND,
            route_reflect::SRC_ENCODE,
            valley_free::SOURCE,
            origin_validation::SOURCE,
        ];
        for (i, src) in sources.iter().enumerate() {
            let prog = assemble(src);
            let text = disassemble(&prog);
            let back = xbgp_asm::assemble(&text)
                .unwrap_or_else(|e| panic!("program {i} disassembly reassembles: {e}"));
            assert_eq!(prog.to_bytes(), back.to_bytes(), "program {i} bytecode differs");
        }
    }
}
