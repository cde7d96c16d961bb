//! Churn-scale update engine measurements.
//!
//! The Fig. 3/4 harnesses measure one-shot table transfer: blast 724k
//! routes, wait for the sink. This module measures the other regime a
//! production speaker lives in — **steady-state churn** against an
//! already-converged RIB. A [`routegen::churn`] stream (withdraw storms,
//! peer flaps, ROA sweeps, path-hunting cascades) replays against the DUT
//! in timed rounds, and two quantities come out:
//!
//! * **updates/sec** — routing updates absorbed per DUT CPU-second during
//!   the churn phase. Baselines (CPU time, update counters) are sampled at
//!   quiescence after the initial blast, strictly before the storm is
//!   armed, so the initial convergence cost never pollutes the figure.
//! * **convergence time** — virtual ns from the last churn round leaving
//!   the feeder to the DUT's last best-path change.
//!
//! Correctness is pinned by the full-recompute oracle: at the quiescent
//! point after the final (restore) round, the DUT's incremental Loc-RIB
//! must be byte-identical to a from-scratch decision pass over its
//! Adj-RIB-In ([`xbgp_driver::Daemon::oracle_loc_rib_dump`]). Sharded
//! runs self-check each replica — the invariant is per-RIB, not
//! per-deployment.

use crate::dut::{build, DaemonSpec, DutNode};
use crate::feeder::Feeder;
use crate::fig3::{make_roas, Dut, UseCase};
use crate::shard::shard_of;
use crate::sink::Sink;
use netsim::{Sim, SimConfig};
use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use rpki::Roa;
use xbgp_core::Manifest;
use xbgp_obs::{MetricValue, Snapshot};
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::{Ipv4Prefix, Message};

/// One churn experiment description.
#[derive(Debug, Clone, Copy)]
pub struct ChurnRunSpec {
    pub dut: Dut,
    pub use_case: UseCase,
    /// Run the feature as extension bytecode instead of native code.
    pub extension: bool,
    /// Initial table size.
    pub routes: usize,
    /// Workload seed (table, ROAs and churn stream all derive from it).
    pub seed: u64,
    /// Prefix-hash shards (see [`crate::shard`]). `0`/`1` = sequential.
    pub shards: usize,
    /// Run the full-recompute decision baseline instead of incremental
    /// delta recomputation (the ablation the speedup ratio is against).
    pub full_recompute: bool,
    /// Compare the final Loc-RIB against the from-scratch oracle and
    /// report the number of differing entries (0 = byte-identical).
    pub check_oracle: bool,
    /// The churn stream parameters (rounds, storm rates, flap period…).
    pub churn: ChurnSpec,
    /// Virtual-time gap between churn rounds.
    pub round_interval_ns: u64,
}

impl ChurnRunSpec {
    /// A churn run over `routes` prefixes with the default storm shape.
    pub fn new(dut: Dut, use_case: UseCase, routes: usize, seed: u64) -> ChurnRunSpec {
        ChurnRunSpec {
            dut,
            use_case,
            extension: false,
            routes,
            seed,
            shards: 1,
            full_recompute: false,
            check_oracle: true,
            churn: ChurnSpec::new(seed, 12),
            round_interval_ns: 200_000_000,
        }
    }
}

/// Measured outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Routing updates (announced NLRI + withdrawn prefixes) the DUT
    /// absorbed during the churn phase.
    pub updates_applied: u64,
    /// DUT CPU ns charged during the churn phase (max across shards).
    pub churn_cpu_ns: u64,
    /// `updates_applied` per churn-phase DUT CPU-second.
    pub updates_per_sec: f64,
    /// Virtual ns from the last round leaving the feeder to the DUT's
    /// last best-path change (max across shards).
    pub convergence_ns: u64,
    /// Best-path changes the RIB recorded over the whole run.
    pub best_changes: u64,
    /// Loc-RIB entries differing from the full-recompute oracle (only
    /// populated when [`ChurnRunSpec::check_oracle`] is set; summed
    /// across shards). Anything non-zero is a correctness bug.
    pub oracle_mismatches: usize,
    /// Merged DUT metrics snapshot (RIB gauges, churn counters, …).
    pub metrics: Snapshot,
}

/// Count entries differing between two prefix-sorted Loc-RIB dumps:
/// prefixes present on one side only, plus prefixes whose attribute bytes
/// differ. 0 ⇔ byte-identical.
pub fn dump_diff(a: &[(Ipv4Prefix, Vec<u8>)], b: &[(Ipv4Prefix, Vec<u8>)]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                n += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                n += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    n += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    n + (a.len() - i) + (b.len() - j)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// Run one churn experiment. Sharded runs split the table *and* every
/// churn round by prefix hash, run each replica to completion
/// sequentially (uncontended CPU accounting, as in the throughput
/// benches), and merge: updates sum, CPU and convergence take the max
/// (replicas run concurrently in a real deployment), oracle mismatches
/// sum.
pub fn run(spec: &ChurnRunSpec) -> ChurnOutcome {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    // The stream is always derived from the FULL table, then split — so
    // every shard count replays the same logical churn.
    let rounds = churn_rounds(&table, &spec.churn);
    let roas = (spec.use_case == UseCase::OriginValidation).then(|| make_roas(&table, spec.seed));

    let shards = spec.shards.max(1);
    if shards == 1 {
        return run_one(spec, &table, &rounds, roas.as_deref(), 0);
    }

    let mut split_tables: Vec<Vec<Route>> = vec![Vec::new(); shards];
    for r in &table {
        split_tables[shard_of(&r.prefix, shards)].push(r.clone());
    }
    let split_rounds: Vec<Vec<ChurnRound>> = (0..shards)
        .map(|k| {
            rounds
                .iter()
                .map(|round| ChurnRound {
                    withdrawals: round
                        .withdrawals
                        .iter()
                        .filter(|p| shard_of(p, shards) == k)
                        .copied()
                        .collect(),
                    announcements: round
                        .announcements
                        .iter()
                        .filter(|r| shard_of(&r.prefix, shards) == k)
                        .cloned()
                        .collect(),
                })
                .collect()
        })
        .collect();

    let mut merged: Option<ChurnOutcome> = None;
    for k in 0..shards {
        let out = run_one(spec, &split_tables[k], &split_rounds[k], roas.as_deref(), k as u32);
        merged = Some(match merged {
            None => out,
            Some(mut acc) => {
                acc.updates_applied += out.updates_applied;
                acc.churn_cpu_ns = acc.churn_cpu_ns.max(out.churn_cpu_ns);
                acc.convergence_ns = acc.convergence_ns.max(out.convergence_ns);
                acc.best_changes += out.best_changes;
                acc.oracle_mismatches += out.oracle_mismatches;
                acc.metrics.merge(out.metrics).expect("shard snapshots share layouts");
                acc
            }
        });
    }
    let mut out = merged.expect("at least one shard");
    out.updates_per_sec = if out.churn_cpu_ns > 0 {
        out.updates_applied as f64 / (out.churn_cpu_ns as f64 / 1e9)
    } else {
        0.0
    };
    out
}

/// One shard-local churn run: feeder → DUT → sink, two measured phases.
fn run_one(
    spec: &ChurnRunSpec,
    routes: &[Route],
    rounds: &[ChurnRound],
    roas: Option<&[Roa]>,
    shard: u32,
) -> ChurnOutcome {
    let ibgp = spec.use_case == UseCase::RouteReflection;
    let local_pref = ibgp.then_some(100);
    let frames: Vec<Vec<u8>> = to_updates(routes, 1, local_pref)
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("update encodes"))
        .collect();
    let round_frames: Vec<Vec<Vec<u8>>> = rounds
        .iter()
        .map(|r| {
            r.to_updates(1, local_pref)
                .into_iter()
                .map(|u| Message::Update(u).encode(4).expect("update encodes"))
                .collect()
        })
        .collect();
    let n_rounds = round_frames.len();
    let stream_updates = total_updates(rounds);

    let (feeder_asn, dut_asn, sink_asn) = if ibgp {
        (65000, 65000, 65000)
    } else {
        (65001, 65002, 65003)
    };

    let mut sim = Sim::new(SimConfig { cpu_accounting: true });
    let f = sim.add_node(Box::new(Feeder::new(feeder_asn, 1, frames)));
    let d = sim.add_node(Box::new(Placeholder));
    let s = sim.add_node(Box::new(Sink::new(sink_asn, 3)));
    let l_up = sim.connect(f, d, 100_000);
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
    dspec.full_recompute = spec.full_recompute;
    sim.replace_node(d, Box::new(build(spec.dut, dspec)));

    const SEC: u64 = 1_000_000_000;
    // Phase 1: initial blast until the sink has the whole shard table,
    // plus a settle window so in-flight exports drain.
    let expected = routes.len();
    let mut deadline = 0u64;
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        let seen = sim.node_ref::<Sink>(s).prefixes_seen();
        if seen >= expected {
            break;
        }
        assert!(deadline < 1_000_000 * SEC, "blast did not converge: {seen}/{expected}");
    }
    deadline = sim.now() + 5 * SEC;
    sim.run_until(deadline);

    // Baselines at quiescence — the churn phase measures deltas off these.
    let c0 = sim.cpu_time(d);
    let s0 = sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx();

    // Phase 2: load the storm into the feeder (which arms it in the same
    // call) and run until every round is out, then a settle window so the
    // final (restore) round converges.
    sim.node_mut::<Feeder>(f).load_rounds(round_frames, spec.round_interval_ns);
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        if sim.node_ref::<Feeder>(f).rounds_sent >= n_rounds {
            break;
        }
        assert!(deadline < 2_000_000 * SEC, "churn rounds stalled");
    }
    sim.run_until(sim.now() + 60 * SEC);

    let c1 = sim.cpu_time(d);
    let s1 = sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx();
    let updates_applied = s1 - s0;
    debug_assert_eq!(
        updates_applied, stream_updates,
        "DUT must absorb exactly the generated stream"
    );
    let churn_cpu_ns = c1 - c0;

    let last_round_sent = sim.node_ref::<Feeder>(f).last_round_sent.expect("rounds were sent");
    let (last_change, metrics) = {
        let dm = &sim.node_ref::<DutNode>(d).0;
        (dm.counters().last_route_change, dm.metrics_snapshot())
    };
    let convergence_ns = last_change.map_or(0, |t| t.saturating_sub(last_round_sent));
    let best_changes = counter(&metrics, "xbgp_rib_best_changes_total");

    let oracle_mismatches = if spec.check_oracle {
        let dm = sim.node_mut::<DutNode>(d);
        let incremental = dm.0.loc_rib_dump();
        dump_diff(&incremental, &dm.0.oracle_loc_rib_dump())
    } else {
        0
    };
    let _ = shard; // shards are independent full testbeds; id kept for symmetry

    ChurnOutcome {
        updates_applied,
        churn_cpu_ns,
        updates_per_sec: if churn_cpu_ns > 0 {
            updates_applied as f64 / (churn_cpu_ns as f64 / 1e9)
        } else {
            0.0
        },
        convergence_ns,
        best_changes,
        oracle_mismatches,
        metrics,
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
    fn churn_run_measures_and_matches_oracle() {
        for dut in [Dut::Fir, Dut::Wren] {
            let mut spec = ChurnRunSpec::new(dut, UseCase::OriginValidation, 400, 7);
            spec.churn.rounds = 6;
            let out = run(&spec);
            assert!(out.updates_applied > 0, "{}: churn stream absorbed", dut.name());
            assert!(out.best_changes > 0, "{}: best paths changed", dut.name());
            assert!(out.updates_per_sec > 0.0);
            assert_eq!(out.oracle_mismatches, 0, "{}: incremental ≡ oracle", dut.name());
        }
    }

    #[test]
    fn sharded_churn_self_checks_each_replica() {
        let mut spec = ChurnRunSpec::new(Dut::Fir, UseCase::OriginValidation, 400, 9);
        spec.churn.rounds = 5;
        spec.shards = 4;
        let out = run(&spec);
        let single = run(&ChurnRunSpec { shards: 1, ..spec });
        assert_eq!(out.updates_applied, single.updates_applied, "same logical stream");
        assert_eq!(out.oracle_mismatches, 0);
        assert_eq!(single.oracle_mismatches, 0);
        assert!(out.best_changes > 0);
    }

    #[test]
    fn extension_churn_stays_oracle_clean() {
        let mut spec = ChurnRunSpec::new(Dut::Wren, UseCase::RouteReflection, 300, 11);
        spec.churn.rounds = 5;
        spec.extension = true;
        let out = run(&spec);
        assert_eq!(out.oracle_mismatches, 0);
        assert!(out.best_changes > 0);
    }

    #[test]
    fn full_recompute_baseline_is_equivalent_but_measured() {
        let mut spec = ChurnRunSpec::new(Dut::Fir, UseCase::OriginValidation, 300, 13);
        spec.churn.rounds = 5;
        let inc = run(&spec);
        let full = run(&ChurnRunSpec { full_recompute: true, ..spec });
        assert_eq!(inc.oracle_mismatches, 0);
        assert_eq!(full.oracle_mismatches, 0);
        assert_eq!(inc.updates_applied, full.updates_applied);
        assert!(full.churn_cpu_ns > 0 && inc.churn_cpu_ns > 0);
    }

    #[test]
    fn dump_diff_counts_all_divergences() {
        let p = |s: &str| -> Ipv4Prefix { s.parse().unwrap() };
        let a = vec![(p("10.0.0.0/24"), vec![1]), (p("10.0.1.0/24"), vec![2])];
        let b = vec![(p("10.0.0.0/24"), vec![1]), (p("10.0.1.0/24"), vec![3])];
        assert_eq!(dump_diff(&a, &a), 0);
        assert_eq!(dump_diff(&a, &b), 1);
        let c = vec![(p("10.0.0.0/24"), vec![1])];
        assert_eq!(dump_diff(&a, &c), 1);
        assert_eq!(dump_diff(&c, &a), 1);
        assert_eq!(dump_diff(&a, &[]), 2);
    }
}
