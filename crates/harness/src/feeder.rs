//! The upstream router of the Fig. 3 testbed.
//!
//! Speaks just enough BGP to establish a session, then blasts a
//! pre-encoded routing table at the device under test — the role the
//! RIS-fed FRRouting upstream plays in the paper. Pre-encoding keeps the
//! feeder's own CPU cost out of the measurement loop.

use netsim::{LinkId, Node, NodeCtx};
use xbgp_wire::{Message, MsgReader, MsgType, OpenMsg, UpdateMsg};

/// Encode UPDATEs into the complete wire frames a [`Feeder`] sends. The
/// frames are plain bytes, so a workload can be encoded on one thread and
/// replayed on another.
pub fn encode_frames(updates: Vec<UpdateMsg>) -> Vec<Vec<u8>> {
    updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("update encodes"))
        .collect()
}

/// Upstream feeder node.
pub struct Feeder {
    asn: u32,
    router_id: u32,
    link: Option<LinkId>,
    reader: MsgReader,
    /// Pre-encoded UPDATE frames to send once the session is up.
    frames: Vec<Vec<u8>>,
    established: bool,
    /// Virtual time the first UPDATE was handed to the link.
    pub first_sent: Option<u64>,
    pub frames_sent: u64,
    /// Pre-encoded churn rounds replayed on a timer after the blast.
    rounds: Vec<Vec<Vec<u8>>>,
    next_round: usize,
    /// Virtual-time gap between churn rounds.
    round_interval_ns: u64,
    /// Delay between the blast and the first churn round, leaving the DUT
    /// time to converge on the initial table.
    round_start_delay_ns: u64,
    /// Virtual time the most recent churn round was handed to the link —
    /// the convergence-time baseline for that round.
    pub last_round_sent: Option<u64>,
    pub rounds_sent: usize,
    /// `false` until the harness calls [`Feeder::load_rounds`] (manual
    /// mode) or the blast goes out (auto mode).
    armed: bool,
    auto_start: bool,
}

/// Timer token for the churn-round clock (keepalives use token 1).
const ROUND_TIMER: u64 = 2;

impl Feeder {
    /// `frames` are complete BGP frames (header + body).
    pub fn new(asn: u32, router_id: u32, frames: Vec<Vec<u8>>) -> Feeder {
        Feeder {
            asn,
            router_id,
            link: None,
            reader: MsgReader::new(),
            frames,
            established: false,
            first_sent: None,
            frames_sent: 0,
            rounds: Vec::new(),
            next_round: 0,
            round_interval_ns: 0,
            round_start_delay_ns: 0,
            last_round_sent: None,
            rounds_sent: 0,
            armed: false,
            auto_start: false,
        }
    }

    /// Schedule pre-encoded churn `rounds` after the blast: the first
    /// round fires `start_delay_ns` after the table is sent, subsequent
    /// rounds every `interval_ns`.
    pub fn with_churn(
        mut self,
        rounds: Vec<Vec<Vec<u8>>>,
        start_delay_ns: u64,
        interval_ns: u64,
    ) -> Feeder {
        self.rounds = rounds;
        self.round_start_delay_ns = start_delay_ns;
        self.round_interval_ns = interval_ns;
        self.auto_start = true;
        self
    }

    /// Load pre-encoded churn `rounds` into a running feeder and arm them
    /// in one step: the first round goes out on the next keepalive tick
    /// (≤30 s of virtual time later), subsequent rounds every
    /// `interval_ns`. Harnesses call this at storm time, *after* sampling
    /// their quiescent baselines (CPU, update counters) — so the baseline
    /// window is delimited by construction, not by a separate arming
    /// call that is easy to forget.
    pub fn load_rounds(&mut self, rounds: Vec<Vec<Vec<u8>>>, interval_ns: u64) {
        self.rounds = rounds;
        self.round_interval_ns = interval_ns;
        self.next_round = 0;
        self.rounds_sent = 0;
        self.armed = true;
    }

    fn blast(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.first_sent.is_none() {
            self.first_sent = Some(ctx.now());
        }
        let link = self.link.expect("started");
        for f in &self.frames {
            ctx.send(link, f);
        }
        self.frames_sent += self.frames.len() as u64;
        self.frames.clear();
        if !self.rounds.is_empty() && self.auto_start {
            self.armed = true;
            ctx.set_timer(self.round_start_delay_ns, ROUND_TIMER);
        }
    }

    fn send_round(&mut self, ctx: &mut NodeCtx<'_>) {
        let link = self.link.expect("started");
        let round = &self.rounds[self.next_round];
        for f in round {
            ctx.send(link, f);
        }
        self.frames_sent += round.len() as u64;
        self.last_round_sent = Some(ctx.now());
        self.next_round += 1;
        self.rounds_sent += 1;
        if self.next_round < self.rounds.len() {
            ctx.set_timer(self.round_interval_ns, ROUND_TIMER);
        }
    }
}

impl Node for Feeder {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let link = ctx.links()[0];
        self.link = Some(link);
        let open = Message::Open(OpenMsg::standard(self.asn, 180, self.router_id));
        ctx.send(link, &open.encode(4).expect("OPEN encodes"));
        // Periodic keepalives so the peer's hold timer stays quiet.
        ctx.set_timer(30_000_000_000, 1);
    }

    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, _link: LinkId, data: &[u8]) {
        self.reader.push(data);
        while let Ok(Some(frame)) = self.reader.next_frame() {
            match xbgp_wire::msg::deframe(&frame) {
                Ok((MsgType::Open, _)) => {
                    let link = self.link.expect("started");
                    ctx.send(link, &Message::Keepalive.encode(4).expect("encodes"));
                }
                Ok((MsgType::Keepalive, _)) if !self.established => {
                    self.established = true;
                    self.blast(ctx);
                }
                _ => {} // updates reflected back, notifications: ignore
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == ROUND_TIMER {
            if self.next_round < self.rounds.len() {
                self.send_round(ctx);
            }
            return;
        }
        if let Some(link) = self.link {
            ctx.send(link, &Message::Keepalive.encode(4).expect("encodes"));
            ctx.set_timer(30_000_000_000, 1);
            // Manually-armed churn kicks off from the keepalive clock.
            if self.armed && self.established && self.rounds_sent == 0 && !self.rounds.is_empty() {
                self.send_round(ctx);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Sink;
    use netsim::{Sim, SimConfig};
    use routegen::{to_updates, TableSpec};

    #[test]
    fn feeder_and_sink_handshake_directly() {
        // Feeder wired straight to a sink: the sink must receive the whole
        // table (sanity for both measurement endpoints).
        let routes = routegen::generate(&TableSpec::new(500, 1));
        let frames = encode_frames(to_updates(&routes, 0x0a00_0001, Some(100)));
        let mut sim = Sim::new(SimConfig::default());
        let f = sim.add_node(Box::new(Feeder::new(65001, 1, frames)));
        let s = sim.add_node(Box::new(Sink::new(65001, 2)));
        sim.connect(f, s, 1000);
        sim.run_until(120_000_000_000); // bounded: keepalives re-arm forever

        let last_rx = {
            let sink: &Sink = sim.node_ref(s);
            assert_eq!(sink.prefixes_seen(), 500);
            sink.last_prefix_rx.expect("prefixes received")
        };
        let feeder: &Feeder = sim.node_ref(f);
        assert!(feeder.first_sent.expect("table sent") <= last_rx);
    }

    #[test]
    fn churn_rounds_replay_on_the_round_timer() {
        let routes = routegen::generate(&TableSpec::new(300, 2));
        let frames = encode_frames(to_updates(&routes, 0x0a00_0001, None));
        let spec = routegen::churn::ChurnSpec::new(4, 5);
        let rounds = routegen::churn::churn_rounds(&routes, &spec);
        let n_rounds = rounds.len();
        let total = routegen::churn::total_updates(&rounds);
        let round_frames: Vec<Vec<Vec<u8>>> =
            rounds.iter().map(|r| encode_frames(r.to_updates(0x0a00_0001, None))).collect();
        let mut sim = Sim::new(SimConfig::default());
        let f = sim.add_node(Box::new(Feeder::new(65001, 1, frames).with_churn(
            round_frames,
            1_000_000_000,
            500_000_000,
        )));
        let s = sim.add_node(Box::new(Sink::new(65001, 2)));
        sim.connect(f, s, 1000);
        sim.run_until(60_000_000_000);

        let feeder: &Feeder = sim.node_ref(f);
        assert_eq!(feeder.rounds_sent, n_rounds, "every round replayed");
        let last = feeder.last_round_sent.expect("rounds sent");
        assert!(last >= feeder.first_sent.unwrap() + 1_000_000_000);
        let sink: &Sink = sim.node_ref(s);
        // The sink saw the churn traffic: all withdrawals arrived, and the
        // final state covers the whole table again (restore round).
        let wd: u64 = rounds.iter().map(|r| r.withdrawals.len() as u64).sum();
        assert_eq!(sink.withdrawals_rx, wd);
        assert!(total > 0);
        assert_eq!(sink.prefixes_seen(), 300);
    }
}
