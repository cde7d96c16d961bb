//! End-to-end loopback selftest: the acceptance harness for the TCP
//! runtime.
//!
//! N real TCP clients each own a prefix-hash slice of a generated table
//! and of every churn round, handshake against [`crate::server::Server`],
//! blast their slices, and hold their sessions open. When the daemons
//! have absorbed exactly the logical stream, the combined serve Loc-RIB
//! must be **byte-identical** to the same stream replayed through the
//! netsim [`xbgp_harness::Feeder`] — the virtual-time harness every other
//! figure in this repo trusts — and to the daemons' own full-recompute
//! oracle.
//!
//! Prefix-partitioning the sessions is what makes the comparison exact:
//! TCP only guarantees order per connection, but each prefix lives on
//! exactly one connection, so per-prefix update order matches the
//! single-feeder replay, and best-path selection is independent per
//! prefix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::{Sim, SimConfig};
use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use xbgp_driver::{DaemonSpec, Dut, DutNode};
use xbgp_harness::churn::dump_diff;
use xbgp_harness::feeder::encode_frames;
use xbgp_harness::shard::partition;
use xbgp_harness::Feeder;
use xbgp_obs::HistogramSnapshot;

use crate::client::{self, ClientPlan};
use crate::server::{ServeConfig, Server};

/// One selftest description.
#[derive(Debug, Clone, Copy)]
pub struct SelftestSpec {
    pub dut: Dut,
    /// Concurrent TCP sessions.
    pub sessions: usize,
    /// Initial table size (split across sessions by prefix hash).
    pub routes: usize,
    /// Churn rounds after the initial blast.
    pub rounds: usize,
    pub seed: u64,
    /// Shard cores inside the server.
    pub shards: usize,
    /// Wall-clock gap between churn rounds per client; `None` = blast.
    pub round_gap: Option<Duration>,
}

impl SelftestSpec {
    pub fn new(dut: Dut, sessions: usize) -> SelftestSpec {
        SelftestSpec {
            dut,
            sessions,
            routes: 2000,
            rounds: 6,
            seed: 42,
            shards: 1,
            round_gap: None,
        }
    }
}

/// Measured outcome of one selftest run.
#[derive(Debug, Clone)]
pub struct SelftestOutcome {
    /// Sessions the daemons saw established (must equal `spec.sessions`).
    pub established: usize,
    /// Routing updates (NLRI + withdrawn) absorbed across shard cores.
    pub updates_applied: u64,
    /// Expected logical stream size (table + churn).
    pub expected_updates: u64,
    /// Best-path changes across shard cores.
    pub best_changes: u64,
    /// Loc-RIB entries differing from the netsim feeder replay
    /// (0 = byte-identical).
    pub parity_mismatches: usize,
    /// Loc-RIB entries differing from the daemons' own full-recompute
    /// oracle (0 = byte-identical).
    pub oracle_mismatches: usize,
    /// Loc-RIB size after the run.
    pub loc_rib_len: usize,
    /// Socket-to-RIB propagation latency (ns).
    pub latency: HistogramSnapshot,
    /// Wall-clock duration of the TCP phase (connect → stream absorbed).
    pub elapsed: Duration,
    /// Connections the server dropped for lack of session slots.
    pub rejected: u64,
}

impl SelftestOutcome {
    pub fn passed(&self, spec: &SelftestSpec) -> bool {
        self.established == spec.sessions
            && self.updates_applied == self.expected_updates
            && self.parity_mismatches == 0
            && self.oracle_mismatches == 0
    }
}

/// Run one selftest. Panics only on harness bugs (thread failures); all
/// protocol-level divergence is reported in the outcome.
pub fn run(spec: &SelftestSpec) -> SelftestOutcome {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let rounds = churn_rounds(&table, &ChurnSpec::new(spec.seed, spec.rounds));
    let expected_updates = table.len() as u64 + total_updates(&rounds);

    let server = Server::start(ServeConfig {
        shards: spec.shards,
        ..ServeConfig::new(spec.dut, spec.sessions)
    })
    .expect("bind loopback server");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut clients = Vec::new();
    // Per-session slices: initial table and every round, by prefix hash.
    for (k, (routes, rounds)) in partition(&table, &rounds, spec.sessions).into_iter().enumerate() {
        let plan = ClientPlan {
            initial: encode_frames(to_updates(&routes, 1, None)),
            rounds: rounds.iter().map(|r| encode_frames(r.to_updates(1, None))).collect(),
            round_gap: spec.round_gap,
        };
        let stop = Arc::clone(&stop);
        clients.push(
            std::thread::Builder::new()
                .name(format!("xbgp-client-{k}"))
                .stack_size(256 * 1024)
                .spawn(move || client::run(addr, 65001, 1000 + k as u32, plan, &stop))
                .expect("spawn client"),
        );
    }

    // Wait until the daemons have absorbed exactly the logical stream.
    // Counter queries are barriers behind all frames already fanned in.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let got = server.counters().routing_updates_rx();
        if got >= expected_updates {
            assert_eq!(got, expected_updates, "absorbed more updates than the stream carries");
            break;
        }
        assert!(Instant::now() < deadline, "stream stalled: {got}/{expected_updates} updates");
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = started.elapsed();

    // Sessions still up (clients hold until stop), RIBs quiescent.
    let established = server.established_sessions();
    let serve_rib = server.loc_rib();
    let oracle_mismatches = dump_diff(&serve_rib, &server.oracle_loc_rib());
    let best_changes = server.snapshot().counter_sum("xbgp_rib_best_changes_total");
    let latency = server.latency();
    let rejected = server.rejected();

    stop.store(true, Ordering::SeqCst);
    for c in clients {
        let outcome = c.join().expect("client thread").expect("client io");
        assert!(!outcome.closed_early, "client session closed before the run finished");
    }
    server.shutdown();

    let ref_rib = reference_loc_rib(spec, &table, &rounds, expected_updates);
    let parity_mismatches = dump_diff(&serve_rib, &ref_rib);

    SelftestOutcome {
        established,
        updates_applied: expected_updates,
        expected_updates,
        best_changes,
        parity_mismatches,
        oracle_mismatches,
        loc_rib_len: serve_rib.len(),
        latency,
        elapsed,
        rejected,
    }
}

/// Replay the identical logical stream through the virtual-time harness:
/// one netsim feeder, one DUT, same attribute encoding (`next_hop = 1`,
/// no LOCAL_PREF). Returns the reference Loc-RIB.
fn reference_loc_rib(
    spec: &SelftestSpec,
    table: &[Route],
    rounds: &[ChurnRound],
    expected_updates: u64,
) -> Vec<(xbgp_wire::Ipv4Prefix, Vec<u8>)> {
    const SEC: u64 = 1_000_000_000;
    let frames = encode_frames(to_updates(table, 1, None));
    let round_frames: Vec<Vec<Vec<u8>>> =
        rounds.iter().map(|r| encode_frames(r.to_updates(1, None))).collect();

    let mut sim = Sim::new(SimConfig { cpu_accounting: false });
    let f = sim.add_node(Box::new(Feeder::new(65001, 1, frames).with_churn(
        round_frames,
        5 * SEC,
        SEC,
    )));
    let d = sim.reserve_node();
    let l_up = sim.connect(f, d, 100_000);
    let dspec = DaemonSpec::new(65002, 2).neighbor(l_up, 1, 65001);
    sim.replace_node(d, Box::new(xbgp_harness::dut::build(spec.dut, dspec)));

    let mut deadline = 0u64;
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        let got = sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx();
        if got >= expected_updates {
            break;
        }
        assert!(deadline < 1_000_000 * SEC, "reference replay stalled: {got}/{expected_updates}");
    }
    sim.run_until(sim.now() + 60 * SEC);
    assert_eq!(
        sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx(),
        expected_updates,
        "reference absorbed a different stream"
    );
    sim.node_mut::<DutNode>(d).0.loc_rib_dump()
}
