//! The Fig. 3 testbed: upstream feeder → device under test → downstream
//! sink, with CPU accounting enabled so the DUT's real compute cost
//! becomes the measured quantity.

use crate::dut::{build, DaemonSpec, DutNode};
use crate::feeder::Feeder;
use crate::sink::Sink;
use netsim::{Sim, SimConfig};
use routegen::{to_updates, Route, TableSpec};
use rpki::Roa;
use xbgp_core::Manifest;
use xbgp_obs::trace::{TraceConfig, TraceDump};
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::{Ipv4Prefix, Message};

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

/// One experiment run description.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Spec {
    pub dut: Dut,
    pub use_case: UseCase,
    /// Run the feature as extension bytecode instead of native code.
    pub extension: bool,
    /// Table size (the paper used 724k; scale to taste).
    pub routes: usize,
    /// Workload seed.
    pub seed: u64,
    /// Enable the DUT's timing instrumentation and return its metrics
    /// snapshot in the outcome.
    pub metrics: bool,
    /// Prefix-hash shards to split the workload across (see
    /// [`crate::shard`]). `0` and `1` both mean the sequential path.
    pub shards: usize,
    /// Collect the DUT's final Loc-RIB contents in the outcome (the
    /// determinism regression test compares these across shard counts).
    pub rib_dump: bool,
    /// Route-scoped tracing: sample 1 route in this many through the
    /// DUT's flight recorder (0 = tracing off). The dump lands in
    /// [`Fig3Outcome::trace`]; sharded runs merge per-shard dumps in
    /// timeline order.
    pub trace_sample: u64,
    /// Enable the DUT's VM execution profiler (`xbgp_prof_*` series in
    /// the metrics snapshot).
    pub profile: bool,
}

/// Measured outcome of one run.
#[derive(Debug, Clone)]
pub struct Fig3Outcome {
    /// Paper metric: virtual ns between the upstream's first announcement
    /// and the last prefix landing at the downstream.
    pub elapsed_ns: u64,
    /// Distinct prefixes that reached the sink (sanity check).
    pub prefixes_delivered: usize,
    /// Measured CPU ns charged to the DUT.
    pub dut_cpu_ns: u64,
    /// DUT metrics snapshot (when `Fig3Spec::metrics` is set). A sharded
    /// run merges the per-shard snapshots, summing matching counters.
    pub metrics: Option<xbgp_obs::Snapshot>,
    /// Final Loc-RIB contents, sorted by prefix (when
    /// `Fig3Spec::rib_dump` is set).
    pub loc_rib: Option<Vec<(Ipv4Prefix, Vec<u8>)>>,
    /// Flight-recorder dump (when `Fig3Spec::trace_sample` is set). A
    /// sharded run merges per-shard dumps into one timeline.
    pub trace: Option<TraceDump>,
}

/// ROA validity mix of §3.4 ("75% of the injected prefixes as valid").
pub const VALID_FRACTION: f64 = 0.75;

/// Build the full-table ROA set for a workload. Must always be derived
/// from the *complete* table: `routegen::make_roas` draws one RNG value
/// per route, so the set only reproduces when generated over the same
/// route list — and trie validation consults covering ROAs, so every
/// shard needs the whole set regardless of which prefixes it owns.
pub(crate) fn make_roas(routes: &[Route], seed: u64) -> Vec<Roa> {
    routegen::make_roas(routes, VALID_FRACTION, seed)
        .into_iter()
        .map(|e| Roa::new(e.prefix, e.max_len, e.asn))
        .collect()
}

/// Run one Fig. 3 experiment.
pub fn run(spec: &Fig3Spec) -> Fig3Outcome {
    if spec.shards > 1 {
        return crate::shard::run_fig3_sharded(spec, crate::shard::ExecMode::Threads).merged;
    }
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let roas = (spec.use_case == UseCase::OriginValidation).then(|| make_roas(&table, spec.seed));
    let frames = encode_frames(spec, &table);
    run_frames(spec, frames, table.len(), roas.as_deref(), 0)
}

/// Pre-encode a route list into the wire-format UPDATE frames the feeder
/// blasts: packed by shared attribute set, chunked under the message
/// limit. These frames are plain bytes — `Send` — which is what crosses
/// the thread boundary in a sharded run.
pub(crate) fn encode_frames(spec: &Fig3Spec, routes: &[Route]) -> Vec<Vec<u8>> {
    let local_pref = (spec.use_case == UseCase::RouteReflection).then_some(100);
    to_updates(routes, 1, local_pref)
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("update encodes"))
        .collect()
}

/// Run one feeder → DUT → sink chain over pre-encoded UPDATE frames
/// carrying `expected` distinct prefixes. `roas` is the full-table ROA
/// set (origin validation only); `shard` namespaces the flight
/// recorder's trace ids so merged multi-worker timelines stay
/// attributable. This is the complete shard-local workload: every input
/// is `Send`, and all `Rc`-based daemon state is constructed inside this
/// call and never leaves it.
pub(crate) fn run_frames(
    spec: &Fig3Spec,
    frames: Vec<Vec<u8>>,
    expected: usize,
    roas: Option<&[Roa]>,
    shard: u32,
) -> Fig3Outcome {
    let ibgp = spec.use_case == UseCase::RouteReflection;
    let trace_cfg = (spec.trace_sample > 0).then_some(TraceConfig {
        sample_every: spec.trace_sample,
        capacity: 0,
        shard,
    });

    // Addresses/ASNs: feeder=1, DUT=2, sink=3.
    let (feeder_asn, dut_asn, sink_asn) = if ibgp {
        (65000, 65000, 65000)
    } else {
        (65001, 65002, 65003)
    };

    let mut sim = Sim::new(SimConfig { cpu_accounting: true });
    let f = sim.add_node(Box::new(Feeder::new(feeder_asn, 1, frames)));
    let d = sim.add_node(Box::new(Placeholder));
    let s = sim.add_node(Box::new(Sink::new(sink_asn, 3)));
    let l_up = sim.connect(f, d, 100_000); // 0.1 ms links
    let l_down = sim.connect(d, s, 100_000);

    let (native_roas, ext_roas, manifest): (Option<Vec<Roa>>, Option<Vec<Roa>>, Option<Manifest>) =
        match (spec.use_case, spec.extension) {
            (UseCase::RouteReflection, false) => (None, None, None),
            (UseCase::RouteReflection, true) => (None, None, Some(route_reflect::manifest())),
            (UseCase::OriginValidation, false) => {
                (Some(roas.expect("OV workloads carry ROAs").to_vec()), None, None)
            }
            (UseCase::OriginValidation, true) => (
                None,
                Some(roas.expect("OV workloads carry ROAs").to_vec()),
                Some(origin_validation::manifest()),
            ),
        };

    let mut dspec = DaemonSpec::new(dut_asn, 2);
    dspec = if ibgp {
        dspec.rr_client(l_up, 1, feeder_asn).rr_client(l_down, 3, sink_asn)
    } else {
        dspec.neighbor(l_up, 1, feeder_asn).neighbor(l_down, 3, sink_asn)
    };
    dspec.native_rr = ibgp && !spec.extension;
    dspec.native_rov = native_roas;
    dspec.xbgp_roas = ext_roas;
    dspec.xbgp = manifest;
    dspec.metrics = spec.metrics;
    dspec.trace = trace_cfg;
    dspec.profile = spec.profile;
    sim.replace_node(d, Box::new(build(spec.dut, dspec)));

    // Run in bounded virtual-time chunks until the sink has the whole
    // table. (Keepalive timers re-arm forever, so the event queue never
    // drains and run-until-idle would not terminate.)
    const SEC: u64 = 1_000_000_000;
    let mut deadline = 0u64;
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        let seen = {
            let sink: &Sink = sim.node_ref(s);
            sink.prefixes_seen()
        };
        if seen >= expected {
            break;
        }
        assert!(
            deadline < 1_000_000 * SEC,
            "experiment did not converge: {seen}/{expected} prefixes"
        );
    }

    let first_sent = {
        let feeder: &Feeder = sim.node_ref(f);
        feeder.first_sent.expect("session established, table sent")
    };
    let (last_rx, delivered) = {
        let sink: &Sink = sim.node_ref(s);
        (sink.last_prefix_rx.expect("table reached the sink"), sink.prefixes_seen())
    };
    let metrics = spec.metrics.then(|| sim.node_ref::<DutNode>(d).0.metrics_snapshot());
    let loc_rib = spec.rib_dump.then(|| sim.node_ref::<DutNode>(d).0.loc_rib_dump());
    let trace = trace_cfg.and_then(|_| sim.node_mut::<DutNode>(d).0.take_trace());
    Fig3Outcome {
        elapsed_ns: last_rx.saturating_sub(first_sent),
        prefixes_delivered: delivered,
        dut_cpu_ns: sim.cpu_time(d),
        metrics,
        loc_rib,
        trace,
    }
}

struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
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
                        dut,
                        use_case,
                        extension,
                        routes: 400,
                        seed: 7,
                        metrics: extension,
                        shards: 1,
                        rib_dump: false,
                        trace_sample: 0,
                        profile: false,
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
                        let ran = snap.metrics.iter().any(|m| {
                            m.name == "xbgp_vmm_runs_total"
                                && matches!(m.value,
                                    xbgp_obs::MetricValue::Counter(n) if n > 0)
                        });
                        assert!(ran, "extension run produced VMM run counters");
                    }
                }
            }
        }
    }
}
