//! §3.4 — origin validation as extension code on both daemons.
//!
//! The extension validates every received prefix against the xBGP-layer
//! hash-backed ROA store, tallies verdicts in persistent memory, and never
//! discards — mirroring the paper's measurement setup ("checks the
//! validity of the origin of each prefix but does not discard the invalid
//! ones").

mod common;

use bgp_fir::{FirDaemon, FirEngine};
use bgp_wren::WrenEngine;
use common::{p, sim_with_nodes, MS, SEC};
use rpki::Roa;
use xbgp_driver::host::{BgpDaemon, RouteEngine};
use xbgp_driver::{Daemon, DaemonSpec};
use xbgp_progs::origin_validation;

fn roas() -> Vec<Roa> {
    vec![
        Roa::new(p("10.1.0.0/16"), 16, 65001), // valid for origin 65001
        Roa::new(p("10.2.0.0/16"), 16, 64999), // wrong AS: invalid
                                               // 10.3.0.0/16 has no ROA: not found
    ]
}

/// The same check on either engine: three routes in, three kept, one
/// verdict of each kind tallied in the extension's persistent memory.
fn counts_and_keeps_routes<E: RouteEngine>() {
    let (mut sim, n) = sim_with_nodes(2);
    let link = sim.connect(n[0], n[1], MS);
    let mut cfg_origin = DaemonSpec::new(65001, 1).neighbor(link, 2, 65002);
    cfg_origin.originate =
        vec![(p("10.1.0.0/16"), 1), (p("10.2.0.0/16"), 1), (p("10.3.0.0/16"), 1)];
    let mut cfg_dut = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg_dut.xbgp = Some(origin_validation::manifest());
    cfg_dut.xbgp_roas = Some(roas());
    sim.replace_node(n[0], Box::new(BgpDaemon::<E>::new(cfg_origin)));
    sim.replace_node(n[1], Box::new(BgpDaemon::<E>::new(cfg_dut)));
    sim.run_until(5 * SEC);

    let dut: &BgpDaemon<E> = sim.node_ref(n[1]);
    assert_eq!(dut.loc_rib_len(), 3, "nothing discarded");
    let raw = dut
        .xbgp_shared_read(origin_validation::GROUP, origin_validation::COUNTERS_KEY)
        .expect("counters persisted");
    assert_eq!(origin_validation::decode_counters(&raw), (1, 1, 1));
}

#[test]
fn ov_extension_counts_and_keeps_routes_on_fir() {
    counts_and_keeps_routes::<FirEngine>();
}

#[test]
fn ov_extension_counts_and_keeps_routes_on_wren() {
    counts_and_keeps_routes::<WrenEngine>();
}

#[test]
fn extension_and_native_validation_agree() {
    // The same routes validated natively (FIR trie) and by the extension
    // (hash table through the helper) must produce identical tallies —
    // structural difference, same semantics.
    let (mut sim, n) = sim_with_nodes(3);
    let l1 = sim.connect(n[0], n[1], MS);
    let l2 = sim.connect(n[0], n[2], MS);
    let mut cfg_origin = DaemonSpec::new(65001, 1).neighbor(l1, 2, 65002).neighbor(l2, 3, 65003);
    cfg_origin.originate =
        vec![(p("10.1.0.0/16"), 1), (p("10.2.0.0/16"), 1), (p("10.3.0.0/16"), 1)];
    // DUT A: native trie validation.
    let mut cfg_native = DaemonSpec::new(65002, 2).neighbor(l1, 1, 65001);
    cfg_native.native_rov = Some(roas());
    // DUT B: extension validation.
    let mut cfg_ext = DaemonSpec::new(65003, 3).neighbor(l2, 1, 65001);
    cfg_ext.xbgp = Some(origin_validation::manifest());
    cfg_ext.xbgp_roas = Some(roas());
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_origin)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_native)));
    sim.replace_node(n[2], Box::new(FirDaemon::new(cfg_ext)));
    sim.run_until(5 * SEC);

    let native: &FirDaemon = sim.node_ref(n[1]);
    let native_counts = (
        native.host.stats.rov_valid,
        native.host.stats.rov_invalid,
        native.host.stats.rov_not_found,
    );
    let ext: &FirDaemon = sim.node_ref(n[2]);
    let raw = ext
        .xbgp_shared_read(origin_validation::GROUP, origin_validation::COUNTERS_KEY)
        .unwrap();
    assert_eq!(origin_validation::decode_counters(&raw), native_counts);
    assert_eq!(native_counts, (1, 1, 1));
}
