//! The upstream router of the Fig. 3 testbed.
//!
//! Speaks just enough BGP to establish a session, then blasts a
//! pre-encoded routing table at the device under test — the role the
//! RIS-fed FRRouting upstream plays in the paper. Pre-encoding keeps the
//! feeder's own CPU cost out of the measurement loop. Churn rounds loaded
//! into it replay on a fixed timer, and [`replay_rounds`] is the one way
//! a harness runs such a replay to its end.

use netsim::{LinkId, Node, NodeCtx, NodeId, Sim};
use xbgp_wire::{Message, MsgReader, MsgType, OpenMsg, UpdateMsg};

const SEC: u64 = 1_000_000_000;

/// Virtual-time gap between churn rounds.
const ROUND_INTERVAL_NS: u64 = 200_000_000;

/// Virtual time a replay runs after its last round, so the final
/// (restore) round converges everywhere before anyone reads a RIB.
const SETTLE_NS: u64 = 60 * SEC;

/// Virtual time by which every round must have been sent.
const STALL_NS: u64 = 1_000_000 * SEC;

/// Encode UPDATEs into the complete wire frames a [`Feeder`] sends. The
/// frames are plain bytes, so a workload can be encoded on one thread and
/// replayed on another.
pub fn encode_frames(updates: Vec<UpdateMsg>) -> Vec<Vec<u8>> {
    updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("update encodes"))
        .collect()
}

/// Run `sim` until the feeder at `f` has sent every churn round loaded
/// with [`Feeder::load_rounds`], then settle so the last round converges.
/// Every churn replay in the workspace — the Fig. 3 churn phase, a
/// scenario's `churn` section, the TCP selftest's reference — ends here.
pub fn replay_rounds(sim: &mut Sim, f: NodeId) -> Result<(), String> {
    loop {
        let feeder = sim.node_ref::<Feeder>(f);
        let (sent, total) = (feeder.rounds_sent, feeder.rounds.len());
        if sent >= total {
            break;
        }
        if sim.now() >= STALL_NS {
            return Err(format!("churn rounds stalled: {sent}/{total} sent"));
        }
        sim.run_until(sim.now() + 30 * SEC);
    }
    sim.run_until(sim.now() + SETTLE_NS);
    Ok(())
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
    /// Pre-encoded churn rounds, replayed every `ROUND_INTERVAL_NS`
    /// from the first keepalive tick after they are loaded.
    rounds: Vec<Vec<Vec<u8>>>,
    /// Rounds handed to the link so far (the index of the next one).
    pub rounds_sent: usize,
    /// Virtual time the most recent churn round was handed to the link —
    /// the convergence-time baseline for that round.
    pub last_round_sent: Option<u64>,
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
            rounds: Vec::new(),
            rounds_sent: 0,
            last_round_sent: None,
        }
    }

    /// Load pre-encoded churn `rounds`, which arms them: the first round
    /// goes out on the first keepalive tick after the session is up
    /// (≤30 s of virtual time later), the rest every 200 ms
    /// (`ROUND_INTERVAL_NS`). A harness that samples quiescent baselines
    /// (CPU, update counters) loads the rounds *after* sampling them, so
    /// the baseline window is delimited by construction; one that does
    /// not loads them when it builds the feeder. [`replay_rounds`] then
    /// runs the replay to its end.
    pub fn load_rounds(&mut self, rounds: Vec<Vec<Vec<u8>>>) {
        self.rounds = rounds;
        self.rounds_sent = 0;
    }

    fn blast(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.first_sent.is_none() {
            self.first_sent = Some(ctx.now());
        }
        let link = self.link.expect("started");
        for f in &self.frames {
            ctx.send(link, f);
        }
        self.frames.clear();
    }

    fn send_round(&mut self, ctx: &mut NodeCtx<'_>) {
        let link = self.link.expect("started");
        for f in &self.rounds[self.rounds_sent] {
            ctx.send(link, f);
        }
        self.last_round_sent = Some(ctx.now());
        self.rounds_sent += 1;
        if self.rounds_sent < self.rounds.len() {
            ctx.set_timer(ROUND_INTERVAL_NS, ROUND_TIMER);
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
            if self.rounds_sent < self.rounds.len() {
                self.send_round(ctx);
            }
            return;
        }
        if let Some(link) = self.link {
            ctx.send(link, &Message::Keepalive.encode(4).expect("encodes"));
            ctx.set_timer(30_000_000_000, 1);
            // Loaded churn kicks off from the keepalive clock.
            if self.established && self.rounds_sent == 0 && !self.rounds.is_empty() {
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
    use netsim::SimConfig;
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
        let mut feeder = Feeder::new(65001, 1, frames);
        feeder.load_rounds(round_frames);
        let mut sim = Sim::new(SimConfig::default());
        let f = sim.add_node(Box::new(feeder));
        let s = sim.add_node(Box::new(Sink::new(65001, 2)));
        sim.connect(f, s, 1000);
        replay_rounds(&mut sim, f).expect("every round replays");

        let feeder: &Feeder = sim.node_ref(f);
        assert_eq!(feeder.rounds_sent, n_rounds, "every round replayed");
        // The first round waits for the first keepalive tick (30 s), the
        // rest follow on the round timer.
        let last = feeder.last_round_sent.expect("rounds sent");
        assert_eq!(last, 30 * SEC + (n_rounds as u64 - 1) * ROUND_INTERVAL_NS);
        assert!(feeder.first_sent.unwrap() < 30 * SEC, "the table goes out first");
        let sink: &Sink = sim.node_ref(s);
        // The sink saw the churn traffic: all withdrawals arrived, and the
        // final state covers the whole table again (restore round).
        let wd: u64 = rounds.iter().map(|r| r.withdrawals.len() as u64).sum();
        assert_eq!(sink.withdrawals_rx, wd);
        assert!(total > 0);
        assert_eq!(sink.prefixes_seen(), 300);
    }
}
