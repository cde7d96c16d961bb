//! The shard core: one daemon on a [`netsim::NodeDriver`], fed by the
//! I/O thread over an mpsc channel.
//!
//! Each core owns a complete single-threaded daemon (fir or wren, behind
//! the [`xbgp_driver::Daemon`] seam) with one neighbor slot per session,
//! numbered `LinkId(0)..LinkId(slots)`. The I/O thread never touches the
//! daemon — it sends [`CoreMsg`]s; the core thread is the only place
//! the `Rc`-based daemon state lives. What the daemon emits goes back as
//! one [`Outbound`] buffer per session per flush, followed by one wake-up
//! of the I/O thread.
//!
//! Session liveness belongs to the edge FSMs ([`xbgp_wire::Session`]),
//! not the daemon: when a session establishes, the core injects a
//! synthetic OPEN carrying the configured neighbor ASN and **hold time
//! 0**, so the daemon negotiates liveness off and never arms hold or
//! keepalive timers. The daemon's own handshake frames (OPEN, KEEPALIVE)
//! are consumed at the core boundary; only UPDATE and NOTIFICATION
//! frames fan back out to the sockets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::{LinkId, NodeDriver};
use xbgp_driver::{DaemonCounters, DaemonSpec, Dut, DutNode};
use xbgp_obs::{Histogram, Snapshot};
use xbgp_wire::msg::deframe;
use xbgp_wire::{Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg};

use crate::io::Waker;

/// Neighbor address of session slot `slot` in the daemon's config — the
/// identity [`xbgp_driver::Daemon::session_established`] is queried by.
pub fn slot_addr(slot: usize) -> u32 {
    0x0a00_0001 + slot as u32
}

/// Frame bytes queued to one core and not yet applied, above which the
/// I/O thread stops reading sockets: a burst is then held by TCP flow
/// control in the senders' kernels, not by an unbounded channel. One
/// session alone cannot reach it — its reads are paced well under what a
/// core applies ([`crate::server::INGRESS_RATE`]) — many sessions
/// dumping at once can.
pub const INBOUND_BOUND: usize = 4 << 20;

/// What the I/O thread asks of a shard core.
pub enum CoreMsg {
    /// The edge FSM reached Established: bring the daemon's session slot
    /// up. `session` names this use of the slot and comes back on every
    /// [`Outbound`] for it, so output still in flight when a slot is
    /// reused cannot reach the next session.
    SessionUp {
        slot: usize,
        session: u64,
    },
    /// Validated UPDATE frames from one session, in arrival order.
    /// `recv_ns` is the runtime clock when the bytes left the socket —
    /// the start of the propagation-latency measurement.
    Frames {
        slot: usize,
        frames: Vec<Vec<u8>>,
        recv_ns: u64,
    },
    /// The session closed: tear the daemon's slot down (flushes its
    /// routes and withdraws them from every other session).
    SessionDown {
        slot: usize,
    },
    Query(Query),
    Shutdown,
}

/// Synchronous inspection requests; the reply channel makes them act as
/// barriers behind all previously queued frames.
pub enum Query {
    Counters(Sender<DaemonCounters>),
    Snapshot(Sender<Snapshot>),
    LocRib(Sender<Vec<(Ipv4Prefix, Vec<u8>)>>),
    OracleLocRib(Sender<Vec<(Ipv4Prefix, Vec<u8>)>>),
    /// How many session slots the *daemon* (not the edge) sees established.
    EstablishedSlots(Sender<usize>),
}

/// Everything one flush emitted for one session: whole UPDATE and
/// NOTIFICATION frames, back to back.
pub struct Outbound {
    pub slot: usize,
    pub session: u64,
    pub bytes: Vec<u8>,
}

/// A core's side of its link to the I/O thread.
pub struct CoreIo {
    /// The one core→I/O channel, shared by every core.
    pub out: Sender<Outbound>,
    /// Written once after each flush that sent something, and when the
    /// inbound backlog falls back under [`INBOUND_BOUND`].
    pub waker: Waker,
    /// Frame bytes the I/O thread has queued to this core (it adds) that
    /// the daemon has not applied yet (the core subtracts).
    pub queued: Arc<AtomicUsize>,
}

/// Static description of one shard core.
#[derive(Clone)]
pub struct CoreConfig {
    pub dut: Dut,
    pub asn: u32,
    pub router_id: u32,
    /// ASN every session's synthetic OPEN carries; all neighbor slots are
    /// configured with it.
    pub peer_asn: u32,
    /// Session slots (= max concurrent sessions).
    pub slots: usize,
    /// Enable the daemon's timing instrumentation.
    pub metrics: bool,
}

/// Spawn one shard core thread. `latency` receives one observation per
/// delivered UPDATE frame: runtime-clock ns from socket read to the
/// daemon having applied it (queue wait + decode + RIB work).
pub fn spawn(
    cfg: CoreConfig,
    rx: Receiver<CoreMsg>,
    io: CoreIo,
    latency: Arc<Histogram>,
    epoch: Instant,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("xbgp-core-{}", cfg.router_id))
        .spawn(move || run(cfg, rx, io, latency, epoch))
        .expect("spawn core thread")
}

fn run(
    cfg: CoreConfig,
    rx: Receiver<CoreMsg>,
    io: CoreIo,
    latency: Arc<Histogram>,
    epoch: Instant,
) {
    let mut spec = DaemonSpec::new(cfg.asn, cfg.router_id);
    // The daemon proposes hold 0 too; either side's zero wins negotiation.
    spec.hold_time_secs = 0;
    spec.metrics = cfg.metrics;
    for slot in 0..cfg.slots {
        spec = spec.neighbor(LinkId(slot), slot_addr(slot), cfg.peer_asn);
    }
    let node = xbgp_harness::dut::build(cfg.dut, spec);
    let mut driver = NodeDriver::new(Box::new(node), cfg.slots);

    let now = move || epoch.elapsed().as_nanos() as u64;
    let mut egress = Egress {
        readers: (0..cfg.slots).map(|_| MsgReader::new()).collect(),
        sessions: vec![None; cfg.slots],
        bufs: vec![Vec::new(); cfg.slots],
        touched: Vec::new(),
    };
    // Slots that have been through at least one session: a later reuse
    // needs a link-up event to push the daemon's FSM out of Idle again.
    let mut used = vec![false; cfg.slots];

    driver.start(now());
    egress.flush(&mut driver, &io.out);

    while let Ok(msg) = rx.recv() {
        // The I/O thread may have stopped reading sockets on this core's
        // backlog; it must hear when the backlog is back under the bound.
        let mut resume = false;
        match msg {
            CoreMsg::SessionUp { slot, session } => {
                egress.sessions[slot] = Some(session);
                if used[slot] {
                    driver.link_event(now(), LinkId(slot), true);
                }
                used[slot] = true;
                let open = OpenMsg::standard(cfg.peer_asn, 0, slot_addr(slot));
                let open = Message::Open(open).encode(4).expect("OPEN encodes");
                driver.deliver(now(), LinkId(slot), &open);
                let ka = Message::Keepalive.encode(4).expect("KEEPALIVE encodes");
                driver.deliver(now(), LinkId(slot), &ka);
            }
            CoreMsg::Frames { slot, frames, recv_ns } => {
                for f in &frames {
                    driver.deliver(now(), LinkId(slot), f);
                    latency.observe(now().saturating_sub(recv_ns));
                }
                let applied: usize = frames.iter().map(Vec::len).sum();
                let before = io.queued.fetch_sub(applied, Ordering::SeqCst);
                resume = before > INBOUND_BOUND && before - applied <= INBOUND_BOUND;
            }
            CoreMsg::SessionDown { slot } => {
                egress.sessions[slot] = None;
                driver.link_event(now(), LinkId(slot), false);
            }
            CoreMsg::Query(q) => {
                // Replies may race a caller that gave up; ignore send errors.
                match q {
                    Query::Counters(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.counters());
                    }
                    Query::Snapshot(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.metrics_snapshot());
                    }
                    Query::LocRib(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.loc_rib_dump());
                    }
                    Query::OracleLocRib(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.oracle_loc_rib_dump());
                    }
                    Query::EstablishedSlots(tx) => {
                        let d = driver.node_mut::<DutNode>();
                        let n = (0..cfg.slots)
                            .filter(|&s| d.0.session_established(slot_addr(s)))
                            .count();
                        let _ = tx.send(n);
                    }
                }
            }
            CoreMsg::Shutdown => break,
        }
        if egress.flush(&mut driver, &io.out) || resume {
            io.waker.wake();
        }
    }
}

/// The way out of a core: per-slot frame readers over the daemon's
/// output, which session (if any) holds each slot, and the buffers one
/// flush gathers.
struct Egress {
    readers: Vec<MsgReader>,
    sessions: Vec<Option<u64>>,
    bufs: Vec<Vec<u8>>,
    /// Slots whose `bufs` entry is non-empty.
    touched: Vec<usize>,
}

impl Egress {
    /// Route everything the daemon emitted: UPDATE and NOTIFICATION frames
    /// are gathered per session and sent as **one buffer per session**;
    /// the daemon's own handshake frames are consumed here — the edge FSM
    /// already ran the real handshake on the wire. Returns whether
    /// anything was sent (the caller then wakes the I/O thread once).
    fn flush(&mut self, driver: &mut NodeDriver, out: &Sender<Outbound>) -> bool {
        for (link, bytes) in driver.drain_outbound() {
            let slot = link.0;
            self.readers[slot].push(&bytes);
            while let Ok(Some(frame)) = self.readers[slot].next_frame() {
                let forward = matches!(
                    deframe(&frame),
                    Ok((MsgType::Update, _)) | Ok((MsgType::Notification, _))
                );
                if forward && self.sessions[slot].is_some() {
                    if self.bufs[slot].is_empty() {
                        self.touched.push(slot);
                    }
                    self.bufs[slot].extend_from_slice(&frame);
                }
            }
        }
        let sent = !self.touched.is_empty();
        for slot in self.touched.drain(..) {
            let session = self.sessions[slot].expect("only registered slots are buffered");
            let bytes = std::mem::take(&mut self.bufs[slot]);
            // A dropped receiver means the I/O thread is already gone
            // (shutdown); nobody is left to write to.
            let _ = out.send(Outbound { slot, session, bytes });
        }
        sent
    }
}
