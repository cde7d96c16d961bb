//! §2.1's monitored execution, end to end: a faulty extension on a live
//! router must be stopped by the VMM, the host notified, and routing
//! continue on native behaviour — the network must not notice.

mod common;

use bgp_fir::{FirDaemon, FirEngine};
use bgp_wren::WrenEngine;
use common::{p, sim_with_nodes, MS, SEC};
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::abi_symbols;
use xbgp_core::{ExtensionSpec, InsertionPoint, Manifest};
use xbgp_driver::host::{BgpDaemon, RouteEngine};
use xbgp_driver::{Daemon, DaemonSpec};
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, PathAttr};

fn ext(name: &str, point: InsertionPoint, helpers: &[&str], src: &str) -> ExtensionSpec {
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("assembles");
    ExtensionSpec::from_program(name, name, point, helpers, &prog)
}

/// Run a 2-router chain with the given manifest on the receiver; return
/// (received prefixes count, receiver daemon logs, xbgp stats).
fn run_with_manifest(
    manifest: Manifest,
) -> (usize, Vec<String>, Vec<xbgp_core::vmm::ExtensionStats>) {
    let (mut sim, n) = sim_with_nodes(2);
    let link = sim.connect(n[0], n[1], MS);
    let mut cfg_a = DaemonSpec::new(65001, 1).neighbor(link, 2, 65002);
    cfg_a.originate = (0..20).map(|i| (p(&format!("10.{i}.0.0/16")), 1)).collect();
    let mut cfg_b = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg_b.xbgp = Some(manifest);
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_b)));
    sim.run_until(5 * SEC);
    let d: &FirDaemon = sim.node_ref(n[1]);
    (d.loc_rib_len(), d.host.logs.clone(), d.xbgp_stats())
}

#[test]
fn out_of_bounds_extension_falls_back_to_native() {
    let mut m = Manifest::new();
    m.push(ext(
        "wild_pointer",
        InsertionPoint::BgpInboundFilter,
        &[],
        // Dereference unmapped memory on every route.
        "lddw r1, 0x7777777777\nldxb r0, [r1]\nexit",
    ));
    let (routes, logs, stats) = run_with_manifest(m);
    assert_eq!(routes, 20, "all routes still accepted natively");
    assert!(
        logs.iter().any(|l| l.contains("wild_pointer") && l.contains("aborted")),
        "host notified: {logs:?}"
    );
    assert_eq!(stats[0].errors, stats[0].runs, "every run aborted");
    // The circuit breaker quarantines an always-faulting extension after
    // QUARANTINE_THRESHOLD consecutive faults; later routes skip it.
    assert_eq!(stats[0].runs, u64::from(xbgp_core::vmm::QUARANTINE_THRESHOLD));
    assert!(stats[0].quarantined, "breaker tripped");
    assert!(
        logs.iter().any(|l| l.contains("wild_pointer") && l.contains("quarantined")),
        "host notified of the quarantine: {logs:?}"
    );
}

#[test]
fn faults_surface_in_the_daemon_metrics_snapshot() {
    // The same wild pointer, but observed through the observability layer:
    // the per-point error counter and per-extension counters must account
    // for every aborted run while routing continues natively.
    let mut m = Manifest::new();
    m.push(ext(
        "wild_pointer",
        InsertionPoint::BgpInboundFilter,
        &[],
        "lddw r1, 0x7777777777\nldxb r0, [r1]\nexit",
    ));
    let (mut sim, n) = sim_with_nodes(2);
    let link = sim.connect(n[0], n[1], MS);
    let mut cfg_a = DaemonSpec::new(65001, 1).neighbor(link, 2, 65002);
    cfg_a.originate = (0..20).map(|i| (p(&format!("10.{i}.0.0/16")), 1)).collect();
    let mut cfg_b = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg_b.xbgp = Some(m);
    cfg_b.metrics = true;
    sim.replace_node(n[0], Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(n[1], Box::new(FirDaemon::new(cfg_b)));
    sim.run_until(5 * SEC);
    let d: &FirDaemon = sim.node_ref(n[1]);
    assert_eq!(d.loc_rib_len(), 20, "all routes still accepted natively");

    let snap = d.metrics_snapshot();
    let labels = &[("daemon", "bgp-fir"), ("point", InsertionPoint::BgpInboundFilter.name())];
    let errors = snap
        .counter_value("xbgp_vmm_errors_total", labels)
        .expect("per-point error counter present");
    let runs = snap
        .counter_value("xbgp_vmm_runs_total", labels)
        .expect("per-point run counter present");
    // Each dispatched chain run faulted until the breaker quarantined the
    // extension; the remaining routes of the batch ran an empty chain.
    assert_eq!(errors, u64::from(xbgp_core::vmm::QUARANTINE_THRESHOLD));
    assert!(runs >= 20, "every route still consulted the VMM: {runs}");
    assert_eq!(
        snap.counter_value("xbgp_vmm_quarantines_total", &[("daemon", "bgp-fir")]),
        Some(1),
        "the quarantine is visible in the daemon's snapshot"
    );
    // Fallback is what the daemon saw: nothing was rejected by the
    // extension, so the snapshot's value count stays zero.
    assert_eq!(snap.counter_value("xbgp_vmm_values_total", labels), Some(0));
    // Timing instrumentation was on; only dispatched (non-empty) chains
    // are timed, so the histogram counts exactly the faulted runs.
    let lat = snap
        .histogram_value("xbgp_vmm_run_latency_ns", labels)
        .expect("latency histogram present");
    assert_eq!(lat.count, errors);
}

#[test]
fn runaway_extension_is_stopped_and_contained() {
    let mut m = Manifest::new();
    m.push(ext("spinner", InsertionPoint::BgpInboundFilter, &[], "loop: ja loop"));
    let (routes, logs, _) = run_with_manifest(m);
    assert_eq!(routes, 20, "fuel exhaustion cannot take the router down");
    assert!(logs.iter().any(|l| l.contains("budget exhausted") || l.contains("aborted")));
}

#[test]
fn faulty_extension_does_not_poison_healthy_chain_members() {
    // A crasher and a healthy accept-all filter on the same point: the
    // crasher aborts the chain (falls back to native), but the healthy one
    // keeps working when it runs first.
    let healthy = ext("accept_all", InsertionPoint::BgpInboundFilter, &["next"], "call next\nexit");
    let crasher = ext(
        "crasher",
        InsertionPoint::BgpInboundFilter,
        &[],
        "lddw r1, 0x7777777777\nldxb r0, [r1]\nexit",
    );
    let mut m = Manifest::new();
    m.push(healthy);
    m.push(crasher);
    let (routes, _, stats) = run_with_manifest(m);
    assert_eq!(routes, 20);
    let healthy_stats = stats.iter().find(|s| s.name == "accept_all").unwrap();
    assert_eq!(healthy_stats.errors, 0);
    assert!(healthy_stats.runs >= 20);
}

#[test]
fn helper_misuse_is_contained() {
    // write_buf does not exist at the inbound filter: the per-point
    // helper contract makes that a *load-time* rejection — the abstract
    // interpreter refuses the program before it ever sees a route, so
    // the router never has to contain this misuse at runtime.
    let mut m = Manifest::new();
    m.push(ext(
        "misuser",
        InsertionPoint::BgpInboundFilter,
        &["write_buf"],
        r"
            mov r1, r10
            sub r1, 8
            mov r2, 8
            call write_buf      ; contract violation: rejected at load
            mov r0, FILTER_REJECT
            exit
        ",
    ));
    match xbgp_core::vmm::Vmm::from_manifest(&m) {
        Err(xbgp_core::vmm::VmmError::Rejected { extension, error }) => {
            assert_eq!(extension, "misuser");
            assert!(
                error.to_string().contains("not allowed at this insertion point"),
                "typed per-point rejection: {error}"
            );
        }
        Err(other) => panic!("expected per-point rejection, got {other}"),
        Ok(_) => panic!("write_buf outside the encode point must not load"),
    }

    // Misuse the verifier *cannot* see — a helper pointer argument that
    // only becomes garbage at runtime (arg_len on the argument-less
    // inbound point returns XBGP_FAIL, i.e. -1) — still faults the run,
    // rolls back, and falls through to native processing.
    let mut m = Manifest::new();
    m.push(ext(
        "misuser",
        InsertionPoint::BgpInboundFilter,
        &["arg_len", "set_attr"],
        r"
            mov r1, 0
            call arg_len        ; no args at this point: returns -1
            mov r3, r0          ; data-dependent garbage pointer
            mov r1, 5
            mov r2, 0
            mov r4, 8
            call set_attr       ; reads through r3: faults the run
            mov r0, FILTER_REJECT
            exit
        ",
    ));
    let (routes, logs, stats) = run_with_manifest(m);
    assert_eq!(routes, 20, "the reject after the misuse never executed");
    assert!(stats[0].errors > 0, "misuse is a hard fault");
    assert!(
        logs.iter().any(|l| l.contains("misuser") && l.contains("aborted")),
        "typed error reached the host log: {logs:?}"
    );

    // A *recoverable* condition stays testable: remove_attr on an absent
    // attribute returns XBGP_FAIL and the program keeps running.
    let mut m = Manifest::new();
    m.push(ext(
        "prober",
        InsertionPoint::BgpInboundFilter,
        &["remove_attr"],
        r"
            mov r1, 200         ; attribute no route carries
            call remove_attr
            jeq r0, -1, ok
            mov r0, FILTER_REJECT
            exit
        ok:
            mov r0, FILTER_ACCEPT
            exit
        ",
    ));
    let (routes, _, stats) = run_with_manifest(m);
    assert_eq!(routes, 20);
    assert_eq!(stats[0].errors, 0, "recoverable conditions are not faults");
}

type Dump = Vec<(xbgp_wire::Ipv4Prefix, Vec<u8>)>;

/// Two eBGP peers — 1 (AS 65001) over a `lat1` link, 2 (AS 65002) over a
/// `lat2` link — announce 10.0.0.0/8 to a DUT on engine `E` whose ③
/// `BGP_DECISION` program prefers whatever AS 65002 sent. Returns the
/// DUT's Loc-RIB dump, its full-recompute oracle dump and how many
/// decisions the extension made.
fn decision_override<E: RouteEngine>(lat1: u64, lat2: u64) -> (Dump, Dump, u64) {
    let (mut sim, n) = sim_with_nodes(3);
    let l1 = sim.connect(n[0], n[2], lat1);
    let l2 = sim.connect(n[1], n[2], lat2);
    let mut cfg_1 = DaemonSpec::new(65001, 1).neighbor(l1, 3, 65003);
    cfg_1.originate = vec![(p("10.0.0.0/8"), 1)];
    let mut cfg_2 = DaemonSpec::new(65002, 2).neighbor(l2, 3, 65003);
    cfg_2.originate = vec![(p("10.0.0.0/8"), 2)];
    let mut m = Manifest::new();
    m.push(ext(
        "prefer_as_65002",
        InsertionPoint::BgpDecision,
        &["get_peer_info"],
        r"
            call get_peer_info          ; the candidate's source
            ldxw r1, [r0+PEER_INFO_OFF_ASN]
            jeq r1, 65002, new
            mov r0, DECISION_PREFER_OLD
            exit
        new:
            mov r0, DECISION_PREFER_NEW
            exit
        ",
    ));
    let mut cfg_dut = DaemonSpec::new(65003, 3).neighbor(l1, 1, 65001).neighbor(l2, 2, 65002);
    cfg_dut.xbgp = Some(m);
    sim.replace_node(n[0], Box::new(BgpDaemon::<E>::new(cfg_1)));
    sim.replace_node(n[1], Box::new(BgpDaemon::<E>::new(cfg_2)));
    sim.replace_node(n[2], Box::new(BgpDaemon::<E>::new(cfg_dut)));
    sim.run_until(5 * SEC);

    let d: &mut BgpDaemon<E> = sim.node_mut(n[2]);
    assert_eq!(d.xbgp_stats()[0].errors, 0);
    let decisions = d.host.stats.xbgp_decisions;
    (d.loc_rib_dump(), d.oracle_loc_rib_dump(), decisions)
}

/// ③ end to end on both engines. Natively the two routes tie down to the
/// last step and peer 1 (lower address) wins; the extension picks peer 2.
/// Either peer's announcement may arrive last — unequal link latencies
/// fix the order — so neither the native comparison nor "the last
/// arrival stays" explains the winner, only the program does.
#[test]
fn decision_point_extension_can_override_best_path() {
    for (lat1, lat2) in [(MS, 5 * MS), (5 * MS, MS)] {
        let fir = decision_override::<FirEngine>(lat1, lat2);
        let wren = decision_override::<WrenEngine>(lat1, lat2);
        for (name, (dump, oracle, decisions)) in [("fir", &fir), ("wren", &wren)] {
            assert_eq!(dump.len(), 1, "{name}");
            let attrs = xbgp_wire::attr::decode_attrs(&dump[0].1, 4).unwrap();
            let learned_from_peer_2 = [
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence(vec![65002])),
                PathAttr::NextHop(2),
            ];
            assert_eq!(attrs, learned_from_peer_2, "{name}, latencies {lat1}/{lat2}");
            assert!(*decisions > 0, "{name}: the extension decided");
            assert_eq!(dump, oracle, "{name}: incremental ≡ full re-decide");
        }
        assert_eq!(fir.0, wren.0, "fir ≡ wren");
    }
}
