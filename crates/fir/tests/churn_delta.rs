//! Withdraw edge cases and randomized interleavings under incremental
//! delta recomputation.
//!
//! The daemon's fast path re-decides only dirty prefixes against the
//! committed best (see `FirDaemon::decide_after_announce` /
//! `remove_candidate_and_decide`). These tests drive the cases where
//! that shortcut is easiest to get wrong — the last route for a net
//! disappearing, the best flapping away and back, a withdraw and
//! re-announce of the same prefix inside one UPDATE batch — and pin
//! every quiescent state to the from-scratch decision oracle
//! (`oracle_loc_rib_dump`).

use bgp_fir::FirDaemon;
use netsim::{NodeCtx, Sim, SimConfig};
use proptest::prelude::*;
use xbgp_driver::{Daemon, DaemonSpec};
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg, PathAttr, UpdateMsg};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;
const STEP_TIMER: u64 = 1;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn announce(prefix: Ipv4Prefix, asns: Vec<u32>, med: Option<u32>) -> UpdateMsg {
    let mut attrs = vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(asns)),
        PathAttr::NextHop(9),
    ];
    if let Some(m) = med {
        attrs.push(PathAttr::Med(m));
    }
    UpdateMsg::announce(attrs, vec![prefix])
}

fn frame(msg: UpdateMsg) -> Vec<u8> {
    Message::Update(msg).encode(4).unwrap()
}

/// A scripted BGP speaker: completes the handshake, then replays one
/// step of pre-encoded frames every 2 virtual seconds, with keepalives
/// to hold the session open. Step `i` hits the wire at `t ≈ 2(i+1)s`,
/// so `t = 2(i+1) + 1` seconds is a quiescent point after step `i`.
struct Scripted {
    asn: u32,
    router_id: u32,
    reader: MsgReader,
    steps: Vec<Vec<Vec<u8>>>,
    next: usize,
    link: Option<netsim::LinkId>,
}

impl Scripted {
    fn new(asn: u32, router_id: u32, steps: Vec<Vec<Vec<u8>>>) -> Scripted {
        Scripted {
            asn,
            router_id,
            reader: MsgReader::new(),
            steps,
            next: 0,
            link: None,
        }
    }
}

impl netsim::Node for Scripted {
    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: netsim::LinkId, data: &[u8]) {
        self.reader.push(data);
        while let Ok(Some(f)) = self.reader.next_frame() {
            if let Ok((MsgType::Open, _)) = xbgp_wire::msg::deframe(&f) {
                let open = OpenMsg::standard(self.asn, 30, self.router_id);
                ctx.send(link, &Message::Open(open).encode(4).unwrap());
                ctx.send(link, &Message::Keepalive.encode(4).unwrap());
                ctx.set_timer(2 * SEC, STEP_TIMER);
            }
        }
        // The handshake link is the only link a Scripted peer has, so
        // remembering it for the timer path is just the latest `link`.
        self.link = Some(link);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token != STEP_TIMER {
            return;
        }
        let Some(link) = self.link else {
            return;
        };
        ctx.send(link, &Message::Keepalive.encode(4).unwrap());
        if let Some(step) = self.steps.get(self.next) {
            for f in step {
                ctx.send(link, f);
            }
            self.next += 1;
        }
        ctx.set_timer(2 * SEC, STEP_TIMER);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One DUT with one or two scripted eBGP peers.
fn dut_with_scripted(scripts: Vec<Vec<Vec<Vec<u8>>>>) -> (Sim, netsim::NodeId) {
    let mut sim = Sim::new(SimConfig::default());
    let dut = sim.reserve_node();
    let mut cfg = DaemonSpec::new(65001, 1);
    for (i, steps) in scripts.into_iter().enumerate() {
        let peer_addr = 9 + i as u32;
        let peer_asn = 65009 + i as u32;
        let peer = sim.add_node(Box::new(Scripted::new(peer_asn, peer_addr, steps)));
        let link = sim.connect(peer, dut, MS);
        cfg = cfg.neighbor(link, peer_addr, peer_asn);
    }
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg)));
    (sim, dut)
}

/// Incremental Loc-RIB must match the from-scratch decision pass.
fn assert_oracle_clean(sim: &mut Sim, dut: netsim::NodeId) {
    let d: &mut FirDaemon = sim.node_mut(dut);
    let incremental = d.loc_rib_dump();
    let oracle = d.oracle_loc_rib_dump();
    assert_eq!(incremental, oracle, "incremental Loc-RIB diverged from full recompute");
}

#[test]
fn last_route_withdraw_empties_the_net() {
    let px = p("203.0.113.0/24");
    let steps = vec![
        vec![frame(announce(px, vec![65009], None))],
        vec![frame(UpdateMsg::withdraw(vec![px]))],
    ];
    let (mut sim, dut) = dut_with_scripted(vec![steps]);

    sim.run_until(3 * SEC);
    {
        let d: &FirDaemon = sim.node_ref(dut);
        assert_eq!(d.engine.loc_rib_prefixes(), vec![px]);
    }
    assert_oracle_clean(&mut sim, dut);

    sim.run_until(5 * SEC + SEC / 2);
    let d: &FirDaemon = sim.node_ref(dut);
    assert!(d.engine.loc_rib_prefixes().is_empty(), "last-route withdraw must empty the net");
    assert_eq!(d.host.stats.counters.withdrawals_rx, 1);
    assert_oracle_clean(&mut sim, dut);
}

#[test]
fn best_flap_away_and_back_settles_on_the_original() {
    let px = p("198.51.100.0/24");
    // Peer 9 holds a two-hop path the whole time; peer 10 interposes a
    // one-hop path (wins on AS-path length), then withdraws it.
    let steps_a = vec![vec![frame(announce(px, vec![65009, 65100], None))]];
    let steps_b = vec![
        vec![],
        vec![frame(announce(px, vec![65010], None))],
        vec![frame(UpdateMsg::withdraw(vec![px]))],
    ];
    let (mut sim, dut) = dut_with_scripted(vec![steps_a, steps_b]);

    sim.run_until(3 * SEC);
    assert_eq!(
        sim.node_ref::<FirDaemon>(dut).engine.best_route(&px).unwrap().source.peer_addr,
        9
    );
    assert_oracle_clean(&mut sim, dut);

    sim.run_until(5 * SEC + SEC / 2);
    assert_eq!(
        sim.node_ref::<FirDaemon>(dut).engine.best_route(&px).unwrap().source.peer_addr,
        10,
        "shorter path must take over"
    );
    assert_oracle_clean(&mut sim, dut);

    sim.run_until(9 * SEC);
    let d: &FirDaemon = sim.node_ref(dut);
    assert_eq!(
        d.engine.best_route(&px).unwrap().source.peer_addr,
        9,
        "after the flap the original best must return"
    );
    assert_eq!(d.engine.loc_rib_prefixes(), vec![px]);
    assert_oracle_clean(&mut sim, dut);
}

#[test]
fn same_batch_withdraw_and_reannounce_keeps_the_new_route() {
    let px = p("192.0.2.0/24");
    // One UPDATE carrying the prefix in both the withdrawn field and the
    // NLRI: RFC 4271 processes the withdraw first, so the net must end
    // the batch holding exactly the re-announced route.
    let mut both = announce(px, vec![65009], Some(9));
    both.withdrawn = vec![px];
    let steps = vec![vec![frame(announce(px, vec![65009], Some(5)))], vec![frame(both)]];
    let (mut sim, dut) = dut_with_scripted(vec![steps]);

    sim.run_until(3 * SEC);
    assert_eq!(
        sim.node_ref::<FirDaemon>(dut).engine.best_route(&px).unwrap().attrs.med,
        Some(5)
    );

    sim.run_until(5 * SEC + SEC / 2);
    let d: &FirDaemon = sim.node_ref(dut);
    assert_eq!(d.engine.loc_rib_prefixes(), vec![px], "the net must survive the batch");
    assert_eq!(
        d.engine.best_route(&px).unwrap().attrs.med,
        Some(9),
        "the re-announce inside the batch must win over the withdraw"
    );
    assert_oracle_clean(&mut sim, dut);
}

#[test]
fn re_announce_within_one_delivery_takes_the_last_frame() {
    let px = p("192.0.2.0/24");
    // Two announcements of the same prefix land back-to-back in one
    // step; the second replaces the first in the same candidate slot.
    let steps = vec![vec![
        frame(announce(px, vec![65009], Some(3))),
        frame(announce(px, vec![65009], Some(7))),
    ]];
    let (mut sim, dut) = dut_with_scripted(vec![steps]);

    sim.run_until(3 * SEC + SEC / 2);
    let d: &FirDaemon = sim.node_ref(dut);
    assert_eq!(d.engine.best_route(&px).unwrap().attrs.med, Some(7));
    assert_eq!(d.host.stats.counters.prefixes_rx, 2, "both announcements were absorbed");
    assert_oracle_clean(&mut sim, dut);
}

proptest! {
    /// Random announce/withdraw interleavings over a small prefix pool
    /// from two peers: at quiescence the incremental Loc-RIB must be
    /// byte-identical to the full-recompute oracle.
    #[test]
    fn random_interleavings_match_the_full_recompute_oracle(
        ops in proptest::collection::vec(
            // (peer, prefix index, withdraw?, med, extra AS hops)
            (0u8..2, 0u8..6, 0u8..4, 0u32..50, 0u8..3),
            1..28,
        ),
    ) {
        let pool: Vec<Ipv4Prefix> = (0u32..6)
            .map(|i| Ipv4Prefix::new(0xc633_0000 + (i << 8), 24))
            .collect();
        let mut scripts = vec![Vec::new(), Vec::new()];
        // Three ops per step per peer keeps withdraw + re-announce of
        // one prefix landing inside a single drain batch reachable.
        for (i, (peer, pxi, wd, med, hops)) in ops.iter().enumerate() {
            let peer = usize::from(*peer);
            let step = i / 3;
            for s in scripts.iter_mut() {
                while s.len() <= step {
                    s.push(Vec::new());
                }
            }
            let px = pool[usize::from(*pxi)];
            let asn = 65009 + peer as u32;
            let msg = if *wd == 0 {
                UpdateMsg::withdraw(vec![px])
            } else {
                let mut asns = vec![asn];
                asns.extend((0..*hops).map(|k| 64000 + u32::from(*pxi) + u32::from(k)));
                announce(px, asns, Some(*med))
            };
            scripts[peer][step].push(frame(msg));
        }
        let n_steps = scripts.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let (mut sim, dut) = dut_with_scripted(scripts);
        sim.run_until((2 * (n_steps + 1) + 2) * SEC);
        let d: &mut FirDaemon = sim.node_mut(dut);
        let incremental = d.loc_rib_dump();
        let oracle = d.oracle_loc_rib_dump();
        prop_assert_eq!(incremental, oracle);
    }
}
