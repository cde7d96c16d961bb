//! The paper's central claim: the *same* xBGP bytecode runs unmodified on
//! two very different BGP implementations.
//!
//! Each test builds the same topology twice — once with FIR as the device
//! under test, once with WREN — loads byte-identical manifests, and
//! asserts identical protocol-visible behaviour.

mod common;

use bgp_fir::{FirDaemon, FirEngine};
use bgp_wren::{WrenDaemon, WrenEngine};
use common::{p, sim_with_nodes, MS, SEC};
use netsim::{NodeId, Sim};
use xbgp_driver::host::{BgpDaemon, RouteEngine};
use xbgp_driver::{Daemon, DaemonSpec};
use xbgp_progs::{geoloc, igp_filter, GEOLOC_ATTR};

/// Origin —iBGP— DUT —eBGP— peer, all on engine `E`, with the IGP metric
/// to the route's nexthop set by the origin—DUT link: did the §3.1
/// filter on the DUT let the route through to the peer?
fn igp_filter_exports<E: RouteEngine>(metric: u32) -> bool {
    let (mut sim, n) = sim_with_nodes(3);
    let l1 = sim.connect(n[0], n[1], MS);
    let l2 = sim.connect(n[1], n[2], MS);
    let shared_igp = igp::shared({
        let mut net = igp::IgpNetwork::new();
        net.add_link(1, 2, metric);
        net
    });
    let mut cfg_origin = DaemonSpec::new(65000, 1).neighbor(l1, 2, 65000);
    cfg_origin.originate = vec![(p("203.0.113.0/24"), 1)];
    let mut cfg_dut = DaemonSpec::new(65000, 2).neighbor(l1, 1, 65000).neighbor(l2, 3, 65009);
    cfg_dut.xbgp = Some(igp_filter::manifest());
    cfg_dut.igp = Some(shared_igp.clone());
    let cfg_peer = DaemonSpec::new(65009, 3).neighbor(l2, 2, 65000);
    sim.replace_node(n[0], Box::new(BgpDaemon::<E>::new(cfg_origin)));
    sim.replace_node(n[1], Box::new(BgpDaemon::<E>::new(cfg_dut)));
    sim.replace_node(n[2], Box::new(BgpDaemon::<E>::new(cfg_peer)));
    sim.run_until(5 * SEC);
    sim.node_ref::<BgpDaemon<E>>(n[2]).loc_rib_len() > 0
}

/// The §3.1 filter loaded into both daemons rejects the same route for
/// the same reason (nexthop IGP metric above 1000): the DUT must not
/// export the route when the metric exceeds 1000.
#[test]
fn igp_filter_same_bytecode_both_daemons() {
    for metric in [10u32, 5000] {
        let expect_exported = metric <= 1000;
        assert_eq!(
            igp_filter_exports::<FirEngine>(metric),
            expect_exported,
            "FIR, metric {metric}"
        );
        assert_eq!(
            igp_filter_exports::<WrenEngine>(metric),
            expect_exported,
            "WREN, metric {metric}"
        );
    }
}

/// ext —eBGP— border —iBGP— inner on engine `E`: GeoLoc is stamped at
/// eBGP ingress and carried over iBGP by the encode bytecode. Returns the
/// simulation and the inner node, where it must be visible.
fn geoloc_chain<E: RouteEngine>() -> (Sim, NodeId) {
    let (mut sim, n) = sim_with_nodes(3);
    let l1 = sim.connect(n[0], n[1], MS); // eBGP ingress
    let l2 = sim.connect(n[1], n[2], MS); // iBGP inside the AS

    let mut cfg_ext = DaemonSpec::new(65009, 9).neighbor(l1, 1, 65000);
    cfg_ext.originate = vec![(p("198.51.100.0/24"), 9)];
    let mut cfg_border = DaemonSpec::new(65000, 1).neighbor(l1, 9, 65009).neighbor(l2, 2, 65000);
    cfg_border.xbgp = Some(geoloc::manifest(None));
    cfg_border.xtra = vec![("geo".into(), geoloc::coords_bytes(50_846, 4_352))];
    let cfg_inner = DaemonSpec::new(65000, 2).neighbor(l2, 1, 65000);
    sim.replace_node(n[0], Box::new(BgpDaemon::<E>::new(cfg_ext)));
    sim.replace_node(n[1], Box::new(BgpDaemon::<E>::new(cfg_border)));
    sim.replace_node(n[2], Box::new(BgpDaemon::<E>::new(cfg_inner)));
    sim.run_until(5 * SEC);
    (sim, n[2])
}

/// GeoLoc end-to-end on FIR: the attribute lands in FIR's `extra` list.
#[test]
fn geoloc_end_to_end_on_fir() {
    let (mut sim, inner) = geoloc_chain::<FirEngine>();
    let inner: &FirDaemon = sim.node_ref(inner);
    let best = inner.engine.best_route(&p("198.51.100.0/24")).expect("route arrives");
    let geoloc_attr = best
        .attrs
        .extra
        .iter()
        .find(|(code, _, _)| *code == GEOLOC_ATTR)
        .expect("GeoLoc attribute crossed the iBGP hop");
    assert_eq!(geoloc_attr.2, geoloc::coords_bytes(50_846, 4_352));
}

/// The same GeoLoc bytecode on WREN produces the same wire behaviour.
#[test]
fn geoloc_end_to_end_on_wren() {
    let (mut sim, inner) = geoloc_chain::<WrenEngine>();
    let inner: &WrenDaemon = sim.node_ref(inner);
    let best = inner.engine.best_route(&p("198.51.100.0/24")).expect("route arrives");
    let ea = best.eattrs.get(GEOLOC_ATTR).expect("GeoLoc crossed the iBGP hop");
    assert_eq!(ea.raw, geoloc::coords_bytes(50_846, 4_352));
}

/// GeoLoc distance filtering: a second border router drops routes learned
/// too far away (the paper's "more than x kilometers" policy).
#[test]
fn geoloc_distance_filter_drops_far_routes() {
    // far_origin —eBGP— stamper —iBGP— filterer: the stamper is far from
    // the filterer's configured radius.
    for (threshold, expect_kept) in [(u64::MAX, true), (10, false)] {
        let (mut sim, n) = sim_with_nodes(3);
        let l1 = sim.connect(n[0], n[1], MS);
        let l2 = sim.connect(n[1], n[2], MS);

        let mut cfg_origin = DaemonSpec::new(65009, 9).neighbor(l1, 1, 65000);
        cfg_origin.originate = vec![(p("198.51.100.0/24"), 9)];
        let mut cfg_stamper =
            DaemonSpec::new(65000, 1).neighbor(l1, 9, 65009).neighbor(l2, 2, 65000);
        cfg_stamper.xbgp = Some(geoloc::manifest(None));
        cfg_stamper.xtra = vec![("geo".into(), geoloc::coords_bytes(10_000, 10_000))];
        let mut cfg_filterer = DaemonSpec::new(65000, 2).neighbor(l2, 1, 65000);
        cfg_filterer.xbgp = Some(geoloc::manifest(Some(threshold)));
        cfg_filterer.xtra = vec![("geo".into(), geoloc::coords_bytes(0, 0))];
        sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_origin)));
        sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_stamper)));
        sim.replace_node(n[2], Box::new(FirDaemon::new(cfg_filterer)));
        sim.run_until(5 * SEC);

        let filterer: &FirDaemon = sim.node_ref(n[2]);
        assert_eq!(
            filterer.engine.best_route(&p("198.51.100.0/24")).is_some(),
            expect_kept,
            "threshold {threshold}"
        );
    }
}

/// FIR and WREN interoperate on the wire: an eBGP session between the two
/// implementations converges and exchanges routes in both directions.
#[test]
fn fir_and_wren_interoperate() {
    let (mut sim, n) = sim_with_nodes(2);
    let link = sim.connect(n[0], n[1], MS);
    let mut cfg_fir = DaemonSpec::new(65001, 1).neighbor(link, 2, 65002);
    cfg_fir.originate = vec![(p("10.1.0.0/16"), 1)];
    let mut cfg_wren = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg_wren.originate = vec![(p("10.2.0.0/16"), 2)];
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_fir)));
    sim.replace_node(n[1], Box::new(WrenDaemon::new(cfg_wren)));
    sim.run_until(5 * SEC);

    {
        let fir: &FirDaemon = sim.node_ref(n[0]);
        assert!(fir.session_established(2));
        assert_eq!(fir.engine.loc_rib_prefixes(), vec![p("10.1.0.0/16"), p("10.2.0.0/16")]);
        let f = fir.engine.best_route(&p("10.2.0.0/16")).unwrap();
        assert_eq!(f.attrs.as_path.asns().collect::<Vec<_>>(), vec![65002]);
    }
    let wren: &WrenDaemon = sim.node_ref(n[1]);
    assert_eq!(wren.engine.nets(), vec![p("10.1.0.0/16"), p("10.2.0.0/16")]);
    let w = wren.engine.best_route(&p("10.1.0.0/16")).unwrap();
    assert!(w.eattrs.as_path_contains(65001));
}

/// FIR and WREN compute identical route sets on a mixed 5-router topology
/// with competing paths.
#[test]
fn mixed_topology_converges_to_identical_tables() {
    // Ring of alternating implementations, one prefix originated at each
    // router. All routers must end with all 5 prefixes.
    let (mut sim, n) = sim_with_nodes(5);
    let mut links = Vec::new();
    for i in 0..5 {
        links.push(sim.connect(n[i], n[(i + 1) % 5], MS));
    }
    // Router i: AS 65001+i, id i+1, originates 10.(i+1).0.0/16.
    for i in 0..5 {
        let id = (i + 1) as u32;
        let asn = 65001 + i as u32;
        let left = links[(i + 4) % 5];
        let left_id = ((i + 4) % 5 + 1) as u32;
        let left_asn = 65001 + ((i + 4) % 5) as u32;
        let right = links[i];
        let right_id = ((i + 1) % 5 + 1) as u32;
        let right_asn = 65001 + ((i + 1) % 5) as u32;
        let prefix = p(&format!("10.{id}.0.0/16"));
        if i % 2 == 0 {
            let mut cfg = DaemonSpec::new(asn, id)
                .neighbor(left, left_id, left_asn)
                .neighbor(right, right_id, right_asn);
            cfg.originate = vec![(prefix, id)];
            sim.replace_node(n[i], Box::new(FirDaemon::new(cfg)));
        } else {
            let mut cfg = DaemonSpec::new(asn, id)
                .neighbor(left, left_id, left_asn)
                .neighbor(right, right_id, right_asn);
            cfg.originate = vec![(prefix, id)];
            sim.replace_node(n[i], Box::new(WrenDaemon::new(cfg)));
        }
    }
    sim.run_until(20 * SEC);

    let want: Vec<_> = (1..=5).map(|i| p(&format!("10.{i}.0.0/16"))).collect();
    for (i, &node) in n.iter().enumerate().take(5) {
        let got = if i % 2 == 0 {
            sim.node_ref::<FirDaemon>(node).engine.loc_rib_prefixes()
        } else {
            sim.node_ref::<WrenDaemon>(node).engine.nets()
        };
        assert_eq!(got, want, "router {i}");
    }
}
