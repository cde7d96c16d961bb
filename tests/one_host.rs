//! One BGP host, two route engines: behaviour the shared host
//! (`xbgp_driver::host`) owns must be the same bytes and the same metric
//! vocabulary on fir and wren. Each test drives both daemons through
//! `xbgp_harness::dut::build` on a `NodeDriver`, frame by frame.

use std::collections::BTreeSet;

use netsim::{LinkId, NodeDriver};
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::abi_symbols;
use xbgp_core::{ExtensionSpec, InsertionPoint, Manifest};
use xbgp_harness::dut::{build, DaemonSpec, Dut, DutNode};
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, OpenMsg, PathAttr, UpdateMsg};

const LOCAL_AS: u32 = 65000;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// A DUT (AS 65000, id 2) with two eBGP neighbors — 1 (AS 65001) on link
/// 0 and 3 (AS 65003) on link 1 — started and with both sessions
/// established; the handshake frames are already drained.
fn two_peer_dut(dut: Dut, customize: impl FnOnce(&mut DaemonSpec)) -> NodeDriver {
    let mut spec =
        DaemonSpec::new(LOCAL_AS, 2)
            .neighbor(LinkId(0), 1, 65001)
            .neighbor(LinkId(1), 3, 65003);
    customize(&mut spec);
    let mut drv = NodeDriver::new(Box::new(build(dut, spec)), 2);
    drv.start(0);
    for (link, asn, id) in [(LinkId(0), 65001, 1), (LinkId(1), 65003, 3)] {
        let open = Message::Open(OpenMsg::standard(asn, 90, id));
        drv.deliver(1, link, &open.encode(4).unwrap());
        drv.deliver(2, link, &Message::Keepalive.encode(4).unwrap());
    }
    drv.drain_outbound();
    drv
}

/// One UPDATE from neighbor 1 (link 0) with the given AS_PATH.
fn update(withdrawn: &[&str], path: Vec<u32>, nlri: &[&str]) -> Vec<u8> {
    let upd = UpdateMsg {
        withdrawn: withdrawn.iter().map(|s| p(s)).collect(),
        attrs: vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(path)),
            PathAttr::NextHop(1),
        ],
        nlri: nlri.iter().map(|s| p(s)).collect(),
    };
    Message::Update(upd).encode(4).unwrap()
}

/// An UPDATE whose NLRI is dropped by AS-loop detection must still send
/// the withdrawals its withdrawn-routes section caused — in the same
/// event, not when some unrelated UPDATE next flushes the queue.
#[test]
fn withdrawal_beside_a_looped_nlri_is_sent_at_once() {
    let mut outbound = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        let mut drv = two_peer_dut(dut, |_| {});
        drv.deliver(3, LinkId(0), &update(&[], vec![65001], &["10.1.0.0/16"]));
        let announced = drv.drain_outbound();
        assert_eq!(announced.len(), 1, "{dut:?}: P announced to the other neighbor");

        let looped = update(&["10.1.0.0/16"], vec![65001, LOCAL_AS], &["10.9.0.0/16"]);
        drv.deliver(4, LinkId(0), &looped);
        let out = drv.drain_outbound();
        let withdrawals: Vec<Ipv4Prefix> = out
            .iter()
            .filter(|(link, _)| *link == LinkId(1))
            .flat_map(|(_, frame)| match Message::decode(frame, 4).unwrap() {
                Message::Update(u) => u.withdrawn,
                other => panic!("{dut:?}: unexpected {other:?}"),
            })
            .collect();
        assert_eq!(withdrawals, vec![p("10.1.0.0/16")], "{dut:?}: {out:?}");
        let node = drv.node_ref::<DutNode>();
        assert!(!node.0.has_best_route(&p("10.9.0.0/16")), "{dut:?}: looped NLRI dropped");
        outbound.push(out);
    }
    assert_eq!(outbound[0], outbound[1], "fir and wren emit the same frames");
}

/// `remove_attr` on a mandatory attribute is refused by the host — a
/// recoverable helper failure, not a fault — so the same bytecode leaves
/// the same Loc-RIB, AS_PATH included, on both daemons.
#[test]
fn remove_attr_on_as_path_is_refused_by_both_daemons() {
    let src = "mov r1, ATTR_AS_PATH\ncall remove_attr\nmov r0, FILTER_ACCEPT\nexit";
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("assembles");
    let mut dumps = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        let mut manifest = Manifest::new();
        manifest.push(ExtensionSpec::from_program(
            "strip_as_path",
            "strip_as_path",
            InsertionPoint::BgpInboundFilter,
            &["remove_attr"],
            &prog,
        ));
        let mut drv = two_peer_dut(dut, |spec| spec.xbgp = Some(manifest));
        drv.deliver(3, LinkId(0), &update(&[], vec![65001], &["10.1.0.0/16"]));

        let node = drv.node_ref::<DutNode>();
        let dump = node.0.loc_rib_dump();
        assert_eq!(dump.len(), 1, "{dut:?}: the filter accepted the route");
        let attrs = xbgp_wire::attr::decode_attrs(&dump[0].1, 4).unwrap();
        assert!(
            attrs
                .iter()
                .any(|a| matches!(a, PathAttr::AsPath(path) if path.contains(65001))),
            "{dut:?}: AS_PATH survived: {attrs:?}"
        );
        let snap = node.0.metrics_snapshot();
        assert_eq!(snap.counter_sum("xbgp_vmm_errors_total"), 0, "{dut:?}: recoverable, no fault");
        dumps.push(dump);
    }
    assert_eq!(dumps[0], dumps[1], "fir ≡ wren on identical bytecode");
}

/// The session FSM counters use the RFC 4271 state names on both daemons,
/// and the two snapshots expose the same `xbgp_daemon_*` series.
#[test]
fn both_daemons_speak_one_metrics_vocabulary() {
    // Gauges only one engine has a quantity for.
    let engine_specific = ["xbgp_daemon_interned_attr_sets"];
    let mut names = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        let spec = DaemonSpec::new(LOCAL_AS, 2).neighbor(LinkId(0), 1, 65001);
        let mut drv = NodeDriver::new(Box::new(build(dut, spec)), 1);
        drv.start(0);
        let open = Message::Open(OpenMsg::standard(65001, 90, 1));
        drv.deliver(1, LinkId(0), &open.encode(4).unwrap());
        drv.deliver(2, LinkId(0), &Message::Keepalive.encode(4).unwrap());
        drv.link_event(3, LinkId(0), false);

        let snap = drv.node_ref::<DutNode>().0.metrics_snapshot();
        let daemon = format!("bgp-{}", dut.slug());
        for to in ["open_sent", "open_confirm", "established", "idle"] {
            assert_eq!(
                snap.counter_value(
                    "xbgp_daemon_fsm_transitions_total",
                    &[("daemon", &daemon), ("to", to)]
                ),
                Some(1),
                "{dut:?}: one transition to {to}"
            );
        }
        names.push(
            snap.metrics
                .iter()
                .map(|m| m.name.clone())
                .filter(|n| n.starts_with("xbgp_daemon_") && !engine_specific.contains(&&n[..]))
                .collect::<BTreeSet<String>>(),
        );
    }
    assert_eq!(names[0], names[1]);
    assert!(names[0].contains("xbgp_daemon_adj_rib_out_size"));
}

/// The Loc-RIB dump and the VMM fault count of `dut` after one UPDATE
/// (10.1.0.0/16 from neighbor 1) went through `src` at ② `BGP_INBOUND_FILTER`.
fn inbound_filter_outcome(
    dut: Dut,
    src: &str,
    helpers: &[&str],
) -> (Vec<(Ipv4Prefix, Vec<u8>)>, u64) {
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("assembles");
    let mut manifest = Manifest::new();
    let point = InsertionPoint::BgpInboundFilter;
    manifest.push(ExtensionSpec::from_program("probe", "probe", point, helpers, &prog));
    let mut drv = two_peer_dut(dut, |spec| spec.xbgp = Some(manifest));
    drv.deliver(3, LinkId(0), &update(&[], vec![65001], &["10.1.0.0/16"]));
    let node = drv.node_ref::<DutNode>();
    let errors = node.0.metrics_snapshot().counter_sum("xbgp_vmm_errors_total");
    (node.0.loc_rib_dump(), errors)
}

/// `set_attr` with a payload that is malformed for its code (a 3-byte
/// MED) is refused at stage time by both daemons — `BadAttrValue`, a
/// recoverable helper failure the program sees as `XBGP_FAIL`, not a
/// fault — so the write staged before it commits, the bad one never
/// reaches the route, and the Loc-RIB is the same bytes on fir and wren.
/// The program rejects the route if the host *stored* the bad payload.
#[test]
fn malformed_set_attr_is_refused_by_both_daemons() {
    let src = r"
        stb [r10-8], 0
        stb [r10-7], 0
        stb [r10-6], 0
        stb [r10-5], 200
        mov r1, ATTR_LOCAL_PREF
        mov r2, ATTR_FLAGS_WELL_KNOWN
        mov r3, r10
        sub r3, 8
        mov r4, 4
        call set_attr           ; well-formed: staged
        mov r1, ATTR_MED
        mov r2, ATTR_FLAGS_OPT_NON_TRANS
        mov r3, r10
        sub r3, 8
        mov r4, 3
        call set_attr           ; three bytes of MED
        jeq r0, 0, stored
        mov r0, FILTER_ACCEPT
        exit
    stored:
        mov r0, FILTER_REJECT
        exit
    ";
    let mut dumps = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        let (dump, errors) = inbound_filter_outcome(dut, src, &["set_attr"]);
        assert_eq!(dump.len(), 1, "{dut:?}: the host refused the 3-byte MED");
        let attrs = xbgp_wire::attr::decode_attrs(&dump[0].1, 4).unwrap();
        assert!(attrs.contains(&PathAttr::LocalPref(200)), "{dut:?}: staged write: {attrs:?}");
        assert!(!attrs.iter().any(|a| a.code() == 4), "{dut:?}: no MED: {attrs:?}");
        assert_eq!(errors, 0, "{dut:?}: recoverable, no fault");
        dumps.push(dump);
    }
    assert_eq!(dumps[0], dumps[1], "fir ≡ wren on identical bytecode");
}
