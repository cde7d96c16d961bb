//! End-to-end loopback selftest: the acceptance harness for the TCP
//! runtime.
//!
//! N [`Peer`]s, all driven from the calling thread, each own a
//! prefix-hash slice of a generated table and of every churn round,
//! handshake against [`crate::server::Server`], blast their slices, and
//! hold their sessions open. When the daemons have absorbed exactly the
//! logical stream, the combined serve Loc-RIB must be **byte-identical**
//! to the same stream replayed through the netsim
//! [`xbgp_harness::Feeder`] — the virtual-time harness every other figure
//! in this repo trusts — and to the daemons' own full-recompute oracle.
//! Once every export has arrived, each peer must hold exactly that
//! Loc-RIB minus its own slice (split horizon).
//!
//! Prefix-partitioning the sessions is what makes the comparison exact:
//! TCP only guarantees order per connection, but each prefix lives on
//! exactly one connection, so per-prefix update order matches the
//! single-feeder replay, and best-path selection is independent per
//! prefix.

use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use netsim::{Sim, SimConfig};
use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use xbgp_driver::{DaemonSpec, Dut, DutNode};
use xbgp_harness::churn::dump_diff;
use xbgp_harness::feeder::{encode_frames, replay_rounds};
use xbgp_harness::Feeder;
use xbgp_obs::HistogramSnapshot;

use crate::peer::{pump_until, Peer};
use crate::server::{ServeConfig, Server};
use crate::split::shard_of;

/// A peer's plan is handed to its connection while the connection holds
/// less than this.
const LOW_WATER: usize = 64 * 1024;

/// How long the stream, and then the exports, may take before the run
/// reports what arrived.
const STALL: Duration = Duration::from_secs(600);

/// One selftest description.
#[derive(Debug, Clone, Copy)]
pub struct SelftestSpec {
    pub dut: Dut,
    /// Concurrent TCP sessions (at least 1).
    pub sessions: usize,
    /// Initial table size (split across sessions by prefix hash).
    pub routes: usize,
    /// Churn rounds after the initial blast.
    pub rounds: usize,
    pub seed: u64,
    /// Shard cores inside the server.
    pub shards: usize,
    /// Wall-clock gap between churn rounds per peer; `None` = blast.
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
    /// Prefixes, summed over peers, that a peer holds and should not or
    /// should hold and does not: each should hold the Loc-RIB minus its
    /// own slice.
    pub export_mismatches: usize,
    /// Sessions that closed before the run finished.
    pub early_closes: usize,
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
            && self.export_mismatches == 0
            && self.early_closes == 0
    }
}

/// What one peer still has to send: the rest of the stage under way,
/// the churn rounds after it, and when the next round may start.
struct Plan {
    frames: VecDeque<Vec<u8>>,
    rounds: VecDeque<Vec<Vec<u8>>>,
    next_round: Instant,
}

impl Plan {
    /// Hand an established `peer` whole frames until it holds
    /// [`LOW_WATER`], starting the next round once this one is handed
    /// over and `gap` has passed since it started. True once everything
    /// is with TCP.
    fn top_up(&mut self, peer: &mut Peer, gap: Option<Duration>) -> bool {
        // One write for the lot, not one per frame.
        let mut batch = Vec::new();
        while peer.established && peer.backlog() + batch.len() < LOW_WATER {
            if let Some(frame) = self.frames.pop_front() {
                batch.extend_from_slice(&frame);
            } else if !self.rounds.is_empty() && Instant::now() >= self.next_round {
                self.frames = self.rounds.pop_front().unwrap_or_default().into();
                self.next_round = Instant::now() + gap.unwrap_or_default();
            } else {
                break;
            }
        }
        if !batch.is_empty() {
            peer.send(&batch);
        }
        peer.established && self.frames.is_empty() && self.rounds.is_empty() && peer.backlog() == 0
    }
}

/// Split a workload — a route table plus the churn rounds replayed
/// against it — into `n` per-session slices by prefix hash. Order is
/// preserved within each slice (attribute-sharing runs stay intact, so
/// UPDATE packing keeps working per session), and every slice carries one
/// round per input round, possibly empty, so round timing is the same for
/// every session count.
fn partition(
    routes: &[Route],
    rounds: &[ChurnRound],
    n: usize,
) -> Vec<(Vec<Route>, Vec<ChurnRound>)> {
    let mut parts: Vec<(Vec<Route>, Vec<ChurnRound>)> = (0..n)
        .map(|_| {
            (
                Vec::with_capacity(routes.len() / n + 1),
                vec![ChurnRound::default(); rounds.len()],
            )
        })
        .collect();
    for r in routes {
        parts[shard_of(&r.prefix, n)].0.push(r.clone());
    }
    for (i, round) in rounds.iter().enumerate() {
        for p in &round.withdrawals {
            parts[shard_of(p, n)].1[i].withdrawals.push(*p);
        }
        for r in &round.announcements {
            parts[shard_of(&r.prefix, n)].1[i].announcements.push(r.clone());
        }
    }
    parts
}

/// The session is over, for whatever reason.
fn down(peer: &Peer) -> bool {
    peer.gone || peer.closed.is_some()
}

/// Run one selftest on the calling thread. Panics only on harness bugs;
/// all protocol-level divergence is reported in the outcome.
pub fn run(spec: &SelftestSpec) -> SelftestOutcome {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let rounds = churn_rounds(&table, &ChurnSpec::new(spec.seed, spec.rounds));
    let expected_updates = table.len() as u64 + total_updates(&rounds);

    let server = Server::start(ServeConfig {
        shards: spec.shards,
        ..ServeConfig::new(spec.dut, spec.sessions)
    })
    .expect("bind loopback server");

    let started = Instant::now();
    let mut peers = Vec::new();
    let mut plans = Vec::new();
    // Per-session slices: initial table and every round, by prefix hash.
    for (k, (routes, rounds)) in partition(&table, &rounds, spec.sessions).into_iter().enumerate() {
        peers.push(Peer::connect(server.addr(), 1000 + k as u32).expect("connect to the server"));
        plans.push(Plan {
            frames: encode_frames(to_updates(&routes, 1, None)).into(),
            rounds: rounds.iter().map(|r| encode_frames(r.to_updates(1, None))).collect(),
            next_round: started,
        });
    }
    let mut peers: Vec<&mut Peer> = peers.iter_mut().collect();

    // Until the daemons have absorbed exactly the logical stream. Counter
    // queries are barriers behind all frames already fanned in, so they
    // wait until every plan is with TCP.
    pump_until(&mut peers, STALL, |peers| {
        let mut sent = true;
        for (peer, plan) in peers.iter_mut().zip(&mut plans) {
            sent &= plan.top_up(peer, spec.round_gap);
        }
        peers.iter().any(|p| down(p))
            || sent && server.counters().routing_updates_rx() >= expected_updates
    });
    let elapsed = started.elapsed();
    // Then until every UPDATE the daemons sent has arrived.
    pump_until(&mut peers, STALL, |peers| {
        let rx: usize = peers.iter().map(|p| p.updates_rx).sum();
        peers.iter().any(|p| down(p)) || rx as u64 >= server.counters().updates_tx
    });

    let established = server.established_sessions();
    let updates_applied = server.counters().routing_updates_rx();
    let serve_rib = server.loc_rib();
    let oracle_mismatches = dump_diff(&serve_rib, &server.oracle_loc_rib());
    let best_changes = server.snapshot().counter_sum("xbgp_rib_best_changes_total");
    let latency = server.latency();
    let rejected = server.rejected();
    let export_mismatches = peers
        .iter()
        .enumerate()
        .map(|(k, peer)| {
            let expected: BTreeSet<_> = serve_rib
                .iter()
                .map(|(p, _)| *p)
                .filter(|p| shard_of(p, spec.sessions) != k)
                .collect();
            peer.rib.symmetric_difference(&expected).count()
        })
        .sum();
    let early_closes = peers.iter().filter(|p| down(p)).count();
    server.shutdown();

    let ref_rib = reference_loc_rib(spec, &table, &rounds, expected_updates);
    let parity_mismatches = dump_diff(&serve_rib, &ref_rib);

    SelftestOutcome {
        established,
        updates_applied,
        expected_updates,
        best_changes,
        parity_mismatches,
        oracle_mismatches,
        export_mismatches,
        early_closes,
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
    let mut feeder = Feeder::new(65001, 1, encode_frames(to_updates(table, 1, None)));
    feeder.load_rounds(rounds.iter().map(|r| encode_frames(r.to_updates(1, None))).collect());

    let mut sim = Sim::new(SimConfig { cpu_accounting: false });
    let f = sim.add_node(Box::new(feeder));
    let d = sim.reserve_node();
    let l_up = sim.connect(f, d, 100_000);
    let dspec = DaemonSpec::new(65002, 2).neighbor(l_up, 1, 65001);
    sim.replace_node(d, Box::new(xbgp_harness::dut::build(spec.dut, dspec)));

    replay_rounds(&mut sim, f).expect("reference replay");
    assert_eq!(
        sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx(),
        expected_updates,
        "reference absorbed a different stream"
    );
    sim.node_mut::<DutNode>(d).0.loc_rib_dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_every_route_exactly_once() {
        let table = routegen::generate(&TableSpec::new(1000, 3));
        let rounds = churn_rounds(&table, &ChurnSpec::new(3, 4));
        let parts = partition(&table, &rounds, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|(r, _)| r.len()).sum::<usize>(), table.len());
        for (k, (routes, part_rounds)) in parts.iter().enumerate() {
            assert!(routes.iter().all(|r| shard_of(&r.prefix, 4) == k));
            assert_eq!(part_rounds.len(), rounds.len(), "one slice per round");
            for round in part_rounds {
                assert!(round.withdrawals.iter().all(|p| shard_of(p, 4) == k));
                assert!(round.announcements.iter().all(|r| shard_of(&r.prefix, 4) == k));
            }
        }
        // Every round's updates land in exactly one slice.
        for (i, round) in rounds.iter().enumerate() {
            let n: usize = parts.iter().map(|(_, r)| r[i].update_count()).sum();
            assert_eq!(n, round.update_count());
        }
        // A hash split of 1000 routes should not be pathologically skewed.
        assert!(parts.iter().all(|(r, _)| (150..=350).contains(&r.len())));
    }
}
