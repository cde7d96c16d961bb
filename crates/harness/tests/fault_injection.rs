//! The transactional execution contract, end to end: an extension that
//! stages host mutations (`set_attr` twice) and then traps must leave the
//! Loc-RIB **byte-identical** to a native run — on both daemons — and a
//! persistently faulting extension must be quarantined by the circuit
//! breaker with the event visible in the metrics snapshot.

use bgp_fir::{FirDaemon, FirEngine};
use bgp_wren::WrenEngine;
use netsim::{Sim, SimConfig};
use xbgp_core::vmm::QUARANTINE_THRESHOLD;
use xbgp_core::Manifest;
use xbgp_driver::host::{BgpDaemon, RouteEngine};
use xbgp_driver::{Daemon, DaemonSpec, Dut};
use xbgp_progs::fault_inject;
use xbgp_wire::Ipv4Prefix;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;
const ROUTES: usize = 12;

struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct DutOutcome {
    loc_rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    stats: Vec<xbgp_core::vmm::ExtensionStats>,
    metrics: xbgp_obs::Snapshot,
}

/// Two-router chain: a FIR origin feeds `ROUTES` prefixes into a DUT on
/// engine `E`, which optionally runs `manifest` at its insertion points.
fn run_engine<E: RouteEngine>(manifest: Option<Manifest>, metrics: bool) -> DutOutcome {
    let mut sim = Sim::new(SimConfig::default());
    let origin = sim.add_node(Box::new(Placeholder));
    let dut = sim.add_node(Box::new(Placeholder));
    let link = sim.connect(origin, dut, MS);

    let mut cfg_origin = DaemonSpec::new(65001, 1).neighbor(link, 2, 65002);
    cfg_origin.originate = (0..ROUTES)
        .map(|i| (format!("10.{i}.0.0/16").parse::<Ipv4Prefix>().unwrap(), 1))
        .collect();
    sim.replace_node(origin, Box::new(FirDaemon::new(cfg_origin)));

    let mut cfg = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg.xbgp = manifest;
    cfg.metrics = metrics;
    sim.replace_node(dut, Box::new(BgpDaemon::<E>::new(cfg)));
    sim.run_until(5 * SEC);

    let d: &BgpDaemon<E> = sim.node_ref(dut);
    DutOutcome {
        loc_rib: d.loc_rib_dump(),
        stats: d.xbgp_stats(),
        metrics: d.metrics_snapshot(),
    }
}

fn run_dut(dut: Dut, manifest: Option<Manifest>, metrics: bool) -> DutOutcome {
    match dut {
        Dut::Fir => run_engine::<FirEngine>(manifest, metrics),
        Dut::Wren => run_engine::<WrenEngine>(manifest, metrics),
    }
}

#[test]
fn trap_after_staged_mutations_leaves_loc_rib_byte_identical() {
    for kind in [Dut::Fir, Dut::Wren] {
        let name = kind.slug();
        let native = run_dut(kind, None, false);
        assert_eq!(native.loc_rib.len(), ROUTES, "{name}: native run converged");

        // Period 1: the probe stages two `set_attr`s of a scratch
        // attribute and traps on *every* dispatched run. The breaker
        // quarantines it after QUARANTINE_THRESHOLD faults; every route
        // before and after must come out exactly as the native run's.
        let faulty = run_dut(kind, Some(fault_inject::manifest(1)), false);
        assert_eq!(faulty.loc_rib.len(), ROUTES, "{name}: faults never lose routes");
        assert_eq!(
            native.loc_rib, faulty.loc_rib,
            "{name}: staged-then-trapped mutations must roll back to byte-identical state"
        );

        let probe = &faulty.stats[0];
        assert!(probe.errors > 0, "{name}: the probe actually faulted");
    }
}

#[test]
fn persistent_faults_trip_the_breaker_and_surface_in_metrics() {
    for kind in [Dut::Fir, Dut::Wren] {
        let daemon = &format!("bgp-{}", kind.slug())[..];
        let out = run_dut(kind, Some(fault_inject::manifest(1)), true);
        assert_eq!(out.loc_rib.len(), ROUTES);

        let probe = &out.stats[0];
        assert_eq!(probe.errors, u64::from(QUARANTINE_THRESHOLD), "{daemon}");
        assert!(probe.quarantined, "{daemon}: breaker tripped");

        let labels = &[("daemon", daemon)];
        assert_eq!(
            out.metrics.counter_value("xbgp_vmm_quarantines_total", labels),
            Some(1),
            "{daemon}: quarantine counted"
        );
        // Every fault staged mutations first (the probe set_attrs before
        // trapping), so rollbacks track errors one-for-one.
        assert_eq!(
            out.metrics.counter_sum("xbgp_vmm_rollbacks_total"),
            u64::from(QUARANTINE_THRESHOLD),
            "{daemon}: every fault rolled back staged state"
        );
        assert_eq!(
            out.metrics.counter_value(
                "xbgp_vmm_extension_quarantined",
                &[("daemon", daemon), ("extension", "fault_inject")],
            ),
            Some(1),
            "{daemon}: per-extension quarantine flag exported"
        );
    }
}
