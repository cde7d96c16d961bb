//! The Fig. 3 testbed: upstream feeder → device under test → downstream
//! sink, with CPU accounting enabled so the DUT's real compute cost
//! becomes the measured quantity.
//!
//! One chain serves every Fig. 3 measurement: the one-shot table load
//! behind Fig. 4 and, when the spec carries a [`ChurnSpec`], the
//! steady-state churn phase that follows it (see [`crate::churn`]).

use crate::churn::dump_diff;
use crate::dut::{build, DaemonSpec, DutNode};
use crate::feeder::{encode_frames, replay_rounds, Feeder};
use crate::sink::Sink;
use netsim::{NodeId, Sim, SimConfig};
use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use rpki::Roa;
use xbgp_obs::trace::{TraceConfig, TraceDump};
use xbgp_obs::Snapshot;
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::Ipv4Prefix;

pub use xbgp_driver::Dut;

/// Which §3 use case runs on the DUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseCase {
    /// §3.2: iBGP chain, the DUT reflects the table.
    RouteReflection,
    /// §3.4: eBGP chain, the DUT validates every prefix origin.
    OriginValidation,
}

impl UseCase {
    pub fn name(self) -> &'static str {
        match self {
            UseCase::RouteReflection => "Route Reflectors",
            UseCase::OriginValidation => "Origin Validation",
        }
    }

    /// Machine-friendly name, used as a metric label value.
    pub fn slug(self) -> &'static str {
        match self {
            UseCase::RouteReflection => "route_reflection",
            UseCase::OriginValidation => "origin_validation",
        }
    }
}

/// One experiment run description. [`Fig3Spec::new`] fills in the
/// defaults; callers override only what they vary.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Spec {
    pub dut: Dut,
    pub use_case: UseCase,
    /// Run the feature as extension bytecode instead of native code.
    pub extension: bool,
    /// Table size (the paper used 724k; scale to taste).
    pub routes: usize,
    /// Workload seed (table and ROAs; the churn stream has its own).
    pub seed: u64,
    /// Enable the DUT's instrumentation ([`DaemonSpec::metrics`]: counters,
    /// fuel histograms and one clock per layer of an extension run) and
    /// return its metrics snapshot in the outcome.
    pub metrics: bool,
    /// Collect the DUT's final Loc-RIB contents in the outcome (the
    /// determinism tests compare these across runs).
    pub rib_dump: bool,
    /// Route-scoped tracing: sample 1 route in this many through the
    /// DUT's flight recorder (0 = tracing off).
    pub trace_sample: u64,
    /// Replay this churn stream against the loaded table (see
    /// [`crate::churn`]); `None` measures the table load only.
    pub churn: Option<ChurnSpec>,
}

impl Fig3Spec {
    /// A native, uninstrumented table load of `routes` prefixes.
    pub fn new(dut: Dut, use_case: UseCase, routes: usize, seed: u64) -> Fig3Spec {
        Fig3Spec {
            dut,
            use_case,
            extension: false,
            routes,
            seed,
            metrics: false,
            rib_dump: false,
            trace_sample: 0,
            churn: None,
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Fig3Outcome {
    /// Paper metric: virtual ns between the upstream's first announcement
    /// and the last prefix of the table landing at the downstream.
    pub elapsed_ns: u64,
    /// Distinct prefixes that reached the sink during the table load.
    pub prefixes_delivered: usize,
    /// Measured CPU ns charged to the DUT by the end of the table load.
    pub dut_cpu_ns: u64,
    /// Best-path changes the RIB recorded over the whole run.
    pub best_changes: u64,
    /// Churn phase only: routing updates (announced NLRI + withdrawn
    /// prefixes) the DUT absorbed — exactly the generated stream.
    pub updates_applied: u64,
    /// Churn phase only: DUT CPU ns charged between the quiescent
    /// baseline and the settled end of the storm.
    pub churn_cpu_ns: u64,
    /// Churn phase only: virtual ns from the last round leaving the
    /// feeder to the DUT's last best-path change.
    pub convergence_ns: u64,
    /// Churn phase only: Loc-RIB entries differing from the DUT's
    /// full-recompute oracle. Anything non-zero is a correctness bug.
    pub oracle_mismatches: usize,
    /// DUT metrics snapshot (when [`Fig3Spec::metrics`] is set).
    pub metrics: Option<Snapshot>,
    /// Final Loc-RIB contents, sorted by prefix (when
    /// [`Fig3Spec::rib_dump`] is set, and always after a churn phase).
    pub loc_rib: Option<Vec<(Ipv4Prefix, Vec<u8>)>>,
    /// Flight-recorder dump (when [`Fig3Spec::trace_sample`] is set).
    pub trace: Option<TraceDump>,
}

impl Fig3Outcome {
    /// `updates_applied` per churn-phase DUT CPU-second (0 without a
    /// churn phase).
    pub fn updates_per_sec(&self) -> f64 {
        if self.churn_cpu_ns == 0 {
            return 0.0;
        }
        self.updates_applied as f64 / (self.churn_cpu_ns as f64 / 1e9)
    }
}

/// ROA validity mix of §3.4 ("75% of the injected prefixes as valid").
pub const VALID_FRACTION: f64 = 0.75;

const SEC: u64 = 1_000_000_000;

/// Build the table's ROA set: `routegen::make_roas` draws one RNG value
/// per route, so the set is a function of the whole table and the seed.
fn make_roas(routes: &[Route], seed: u64) -> Vec<Roa> {
    routegen::make_roas(routes, VALID_FRACTION, seed)
        .into_iter()
        .map(|e| Roa::new(e.prefix, e.max_len, e.asn))
        .collect()
}

/// Run one Fig. 3 experiment on the calling thread: generate the table,
/// its churn stream and (origin validation only) its ROA set, then run
/// the chain once. An empty table measures nothing and returns the
/// default outcome.
pub fn run(spec: &Fig3Spec) -> Fig3Outcome {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    if table.is_empty() {
        return Fig3Outcome::default();
    }
    let rounds = spec.churn.map(|c| churn_rounds(&table, &c)).unwrap_or_default();
    let roas = (spec.use_case == UseCase::OriginValidation).then(|| make_roas(&table, spec.seed));
    run_chain(spec, &table, &rounds, roas.as_deref())
}

/// Run one feeder → DUT → sink chain: load `routes`, and with a churn
/// spec replay `rounds` against the loaded table. `roas` is the table's
/// ROA set (origin validation only).
fn run_chain(
    spec: &Fig3Spec,
    routes: &[Route],
    rounds: &[ChurnRound],
    roas: Option<&[Roa]>,
) -> Fig3Outcome {
    let ibgp = spec.use_case == UseCase::RouteReflection;
    let local_pref = ibgp.then_some(100);

    // Addresses/ASNs: feeder=1, DUT=2, sink=3.
    let (feeder_asn, dut_asn, sink_asn) = if ibgp {
        (65000, 65000, 65000)
    } else {
        (65001, 65002, 65003)
    };

    let mut sim = Sim::new(SimConfig { cpu_accounting: true });
    let frames = encode_frames(to_updates(routes, 1, local_pref));
    let f = sim.add_node(Box::new(Feeder::new(feeder_asn, 1, frames)));
    let d = sim.reserve_node();
    let s = sim.add_node(Box::new(Sink::new(sink_asn, 3)));
    let l_up = sim.connect(f, d, 100_000); // 0.1 ms links
    let l_down = sim.connect(d, s, 100_000);

    let mut dspec = DaemonSpec::new(dut_asn, 2);
    dspec = if ibgp {
        dspec.rr_client(l_up, 1, feeder_asn).rr_client(l_down, 3, sink_asn)
    } else {
        dspec.neighbor(l_up, 1, feeder_asn).neighbor(l_down, 3, sink_asn)
    };
    let roa_set = || Some(roas.expect("OV workloads carry ROAs").to_vec());
    match (spec.use_case, spec.extension) {
        (UseCase::RouteReflection, false) => dspec.native_rr = true,
        (UseCase::RouteReflection, true) => dspec.xbgp = Some(route_reflect::manifest()),
        (UseCase::OriginValidation, false) => dspec.native_rov = roa_set(),
        (UseCase::OriginValidation, true) => {
            dspec.xbgp_roas = roa_set();
            dspec.xbgp = Some(origin_validation::manifest());
        }
    }
    dspec.metrics = spec.metrics;
    dspec.trace = (spec.trace_sample > 0).then_some(TraceConfig {
        sample_every: spec.trace_sample,
        capacity: 0,
        shard: 0,
    });
    sim.replace_node(d, Box::new(build(spec.dut, dspec)));

    // Table load: run in bounded virtual-time chunks until the sink has
    // the whole table. (Keepalive timers re-arm forever, so the event
    // queue never drains and run-until-idle would not terminate.)
    let mut deadline = 0u64;
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        let seen = sim.node_ref::<Sink>(s).prefixes_seen();
        if seen >= routes.len() {
            break;
        }
        assert!(
            deadline < 1_000_000 * SEC,
            "table load did not converge: {seen}/{} prefixes",
            routes.len()
        );
    }
    let first_sent = sim.node_ref::<Feeder>(f).first_sent.expect("session established, table sent");
    let sink = sim.node_ref::<Sink>(s);
    let (last_rx, prefixes_delivered) =
        (sink.last_prefix_rx.expect("table reached the sink"), sink.prefixes_seen());
    let mut out = Fig3Outcome {
        elapsed_ns: last_rx.saturating_sub(first_sent),
        prefixes_delivered,
        dut_cpu_ns: sim.cpu_time(d),
        ..Fig3Outcome::default()
    };

    if spec.churn.is_some() {
        churn_phase(&mut sim, f, d, rounds, local_pref, &mut out);
    }

    let dut = &mut sim.node_mut::<DutNode>(d).0;
    let snapshot = dut.metrics_snapshot();
    out.best_changes = snapshot.counter_sum("xbgp_rib_best_changes_total");
    out.metrics = spec.metrics.then_some(snapshot);
    if spec.rib_dump || spec.churn.is_some() {
        let rib = dut.loc_rib_dump();
        if spec.churn.is_some() {
            out.oracle_mismatches = dump_diff(&rib, &dut.oracle_loc_rib_dump());
        }
        out.loc_rib = Some(rib);
    }
    out.trace = dut.take_trace();
    out
}

/// The churn phase of [`run_chain`], against a loaded table: settle,
/// sample baselines at quiescence, replay every round to convergence
/// ([`replay_rounds`]), and record the deltas.
fn churn_phase(
    sim: &mut Sim,
    f: NodeId,
    d: NodeId,
    rounds: &[ChurnRound],
    local_pref: Option<u32>,
    out: &mut Fig3Outcome,
) {
    let updates_rx = |sim: &mut Sim| sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx();
    // A settle window so in-flight exports drain; the baselines are then
    // taken strictly before the storm is armed.
    sim.run_until(sim.now() + 5 * SEC);
    let (c0, u0) = (sim.cpu_time(d), updates_rx(sim));

    // Loading the rounds arms them in the same call.
    let round_frames = rounds.iter().map(|r| encode_frames(r.to_updates(1, local_pref))).collect();
    sim.node_mut::<Feeder>(f).load_rounds(round_frames);
    replay_rounds(sim, f).expect("churn replay");

    out.churn_cpu_ns = sim.cpu_time(d) - c0;
    out.updates_applied = updates_rx(sim) - u0;
    // A short stream would report updates/s over the wrong count, so this
    // holds in release builds too.
    assert_eq!(
        out.updates_applied,
        total_updates(rounds),
        "the DUT must absorb exactly the generated stream"
    );
    let last_round_sent = sim.node_ref::<Feeder>(f).last_round_sent.expect("rounds were sent");
    let last_change = sim.node_mut::<DutNode>(d).0.counters().last_route_change;
    out.convergence_ns = last_change.map_or(0, |t| t.saturating_sub(last_round_sent));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_configurations_deliver_the_full_table() {
        for dut in [Dut::Fir, Dut::Wren] {
            for use_case in [UseCase::RouteReflection, UseCase::OriginValidation] {
                for extension in [false, true] {
                    let out = run(&Fig3Spec {
                        extension,
                        metrics: extension,
                        ..Fig3Spec::new(dut, use_case, 400, 7)
                    });
                    assert_eq!(
                        out.prefixes_delivered,
                        400,
                        "{} / {} / ext={extension}",
                        dut.name(),
                        use_case.name()
                    );
                    assert!(out.elapsed_ns > 0);
                    assert!(out.dut_cpu_ns > 0, "CPU accounting active");
                    if extension {
                        let snap = out.metrics.as_ref().expect("metrics requested");
                        assert!(
                            snap.counter_sum("xbgp_vmm_runs_total") > 0,
                            "extension run produced VMM run counters"
                        );
                    }
                }
            }
        }
    }
}
