//! §3.2 — route reflection implemented entirely as extension code, on
//! both daemons, compared against the native implementation.

mod common;

use bgp_fir::{FirDaemon, FirEngine};
use bgp_wren::{WrenDaemon, WrenEngine};
use common::{p, sim_with_nodes, MS, SEC};
use netsim::{NodeId, Sim};
use xbgp_driver::host::{BgpDaemon, RouteEngine};
use xbgp_driver::DaemonSpec;
use xbgp_progs::route_reflect;

/// What the downstream sees after reflection: `(originator_id,
/// cluster_list, local_pref, prefix present)`.
#[derive(Debug, PartialEq)]
struct ReflectedView {
    originator: Option<u32>,
    clusters: Vec<u32>,
    local_pref: Option<u32>,
}

/// Run the Fig. 3 chain (up --iBGP-- DUT --iBGP-- down) on one engine
/// and hand back the simulation and the downstream node.
fn run_chain<E: RouteEngine>(extension: bool) -> (Sim, NodeId) {
    let (mut sim, n) = sim_with_nodes(3);
    let l_up = sim.connect(n[0], n[1], MS);
    let l_down = sim.connect(n[1], n[2], MS);

    let mut cfg_up = DaemonSpec::new(65000, 1).neighbor(l_up, 2, 65000);
    cfg_up.originate = vec![(p("198.51.100.0/24"), 1)];
    let mut cfg_rr =
        DaemonSpec::new(65000, 2).rr_client(l_up, 1, 65000).rr_client(l_down, 3, 65000);
    if extension {
        cfg_rr.native_rr = false;
        cfg_rr.xbgp = Some(route_reflect::manifest());
    } else {
        cfg_rr.native_rr = true;
    }
    let cfg_down = DaemonSpec::new(65000, 3).neighbor(l_down, 2, 65000);
    sim.replace_node(n[0], Box::new(BgpDaemon::<E>::new(cfg_up)));
    sim.replace_node(n[1], Box::new(BgpDaemon::<E>::new(cfg_rr)));
    sim.replace_node(n[2], Box::new(BgpDaemon::<E>::new(cfg_down)));
    sim.run_until(5 * SEC);
    (sim, n[2])
}

/// FIR's downstream view of the reflected route.
fn run_fir(extension: bool) -> ReflectedView {
    let (mut sim, down) = run_chain::<FirEngine>(extension);
    let down: &FirDaemon = sim.node_ref(down);
    let best = down
        .engine
        .best_route(&p("198.51.100.0/24"))
        .expect("route reflected to the downstream client");
    ReflectedView {
        originator: best.attrs.originator_id,
        clusters: best.attrs.cluster_list.clone(),
        local_pref: best.attrs.local_pref,
    }
}

/// Same, with WREN everywhere.
fn run_wren(extension: bool) -> ReflectedView {
    let (mut sim, down) = run_chain::<WrenEngine>(extension);
    let down: &WrenDaemon = sim.node_ref(down);
    let best = down
        .engine
        .best_route(&p("198.51.100.0/24"))
        .expect("route reflected to the downstream client");
    ReflectedView {
        originator: best.eattrs.originator_id(),
        clusters: best.eattrs.cluster_list(),
        local_pref: best.eattrs.local_pref(),
    }
}

#[test]
fn extension_rr_equals_native_rr_on_fir() {
    let native = run_fir(false);
    let ext = run_fir(true);
    assert_eq!(
        native,
        ReflectedView {
            originator: Some(1),
            clusters: vec![2],
            local_pref: Some(100)
        }
    );
    assert_eq!(ext, native, "extension reflection is wire-identical to native");
}

#[test]
fn extension_rr_equals_native_rr_on_wren() {
    let native = run_wren(false);
    let ext = run_wren(true);
    assert_eq!(
        native,
        ReflectedView {
            originator: Some(1),
            clusters: vec![2],
            local_pref: Some(100)
        }
    );
    assert_eq!(ext, native);
}

#[test]
fn extension_rr_loop_prevention_works() {
    // Client originates; two extension reflectors in a triangle with the
    // client. Without the inbound loop checks the route would circulate.
    let (mut sim, n) = sim_with_nodes(3);
    let l1 = sim.connect(n[0], n[1], MS); // client — rr1
    let l2 = sim.connect(n[1], n[2], MS); // rr1 — rr2
    let l3 = sim.connect(n[2], n[0], MS); // rr2 — client

    let mut cfg_client = DaemonSpec::new(65000, 1).neighbor(l1, 2, 65000).neighbor(l3, 3, 65000);
    cfg_client.originate = vec![(p("10.9.9.0/24"), 1)];
    let mut cfg_rr1 = DaemonSpec::new(65000, 2).rr_client(l1, 1, 65000).neighbor(l2, 3, 65000);
    cfg_rr1.xbgp = Some(route_reflect::manifest());
    let mut cfg_rr2 = DaemonSpec::new(65000, 3).rr_client(l3, 1, 65000).neighbor(l2, 2, 65000);
    cfg_rr2.xbgp = Some(route_reflect::manifest());
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_client)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_rr1)));
    sim.replace_node(n[2], Box::new(FirDaemon::new(cfg_rr2)));
    sim.run_until(10 * SEC);

    for i in [1, 2] {
        let d: &FirDaemon = sim.node_ref(n[i]);
        assert_eq!(d.engine.loc_rib_prefixes(), vec![p("10.9.9.0/24")], "reflector {i}");
    }
    let client: &FirDaemon = sim.node_ref(n[0]);
    assert!(
        client.engine.best_route(&p("10.9.9.0/24")).unwrap().source.local,
        "the client never prefers a reflected copy of its own route"
    );
}

#[test]
fn non_client_to_non_client_is_refused_by_extension() {
    // up (non-client) — DUT — down (non-client): extension RR must refuse
    // iBGP→iBGP between non-clients, like native RR does.
    let (mut sim, n) = sim_with_nodes(3);
    let l_up = sim.connect(n[0], n[1], MS);
    let l_down = sim.connect(n[1], n[2], MS);
    let mut cfg_up = DaemonSpec::new(65000, 1).neighbor(l_up, 2, 65000);
    cfg_up.originate = vec![(p("198.51.100.0/24"), 1)];
    let mut cfg_rr = DaemonSpec::new(65000, 2).neighbor(l_up, 1, 65000).neighbor(l_down, 3, 65000);
    cfg_rr.xbgp = Some(route_reflect::manifest());
    let cfg_down = DaemonSpec::new(65000, 3).neighbor(l_down, 2, 65000);
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_up)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_rr)));
    sim.replace_node(n[2], Box::new(FirDaemon::new(cfg_down)));
    sim.run_until(5 * SEC);
    assert!(
        sim.node_ref::<FirDaemon>(n[2]).engine.loc_rib_prefixes().is_empty(),
        "no reflection between non-clients"
    );
}

#[test]
fn cross_implementation_reflection_chain() {
    // A WREN client's route reflected by a FIR extension reflector to a
    // WREN downstream: implementations and feature provenance both mixed.
    let (mut sim, n) = sim_with_nodes(3);
    let l_up = sim.connect(n[0], n[1], MS);
    let l_down = sim.connect(n[1], n[2], MS);
    let mut cfg_up = DaemonSpec::new(65000, 1).neighbor(l_up, 2, 65000);
    cfg_up.originate = vec![(p("198.51.100.0/24"), 1)];
    let mut cfg_rr =
        DaemonSpec::new(65000, 2).rr_client(l_up, 1, 65000).rr_client(l_down, 3, 65000);
    cfg_rr.xbgp = Some(route_reflect::manifest());
    let cfg_down = DaemonSpec::new(65000, 3).neighbor(l_down, 2, 65000);
    sim.replace_node(n[0], Box::new(WrenDaemon::new(cfg_up)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_rr)));
    sim.replace_node(n[2], Box::new(WrenDaemon::new(cfg_down)));
    sim.run_until(5 * SEC);

    let down: &WrenDaemon = sim.node_ref(n[2]);
    let best = down.engine.best_route(&p("198.51.100.0/24")).expect("reflected");
    assert_eq!(best.eattrs.originator_id(), Some(1));
    assert_eq!(best.eattrs.cluster_list(), vec![2]);
}
