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
//! The BGP handshake and session liveness belong to the edge FSMs
//! ([`xbgp_wire::Session`], one per connection, in the I/O thread), not
//! to the daemon: when one establishes, the daemon *adopts* the session
//! ([`xbgp_driver::Daemon::adopt_session`]) as the edge negotiated it —
//! Established at once, at the edge's AS-number width, hold time 0 — so
//! there is no second handshake and no timer in the core. Everything the
//! daemon then emits on a slot is for that slot's socket. A session the
//! *daemon* ends (an UPDATE it cannot apply: NOTIFICATION, then teardown)
//! reaches the edge as the slot's last [`Outbound`], after which the I/O
//! thread closes the connection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::{LinkId, NodeDriver};
use xbgp_driver::{Daemon, DaemonSpec, DutNode};
use xbgp_obs::Histogram;

use crate::io::Waker;
use crate::server::ServeConfig;

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
    /// The edge FSM reached Established: the daemon adopts the session on
    /// this slot. `session` names this use of the slot and comes back on
    /// every [`Outbound`] for it, so output still in flight when a slot is
    /// reused cannot reach the next session. `four_octet_as` is what the
    /// edge negotiated ([`xbgp_wire::SessionEvent::Established`]).
    SessionUp {
        slot: usize,
        session: u64,
        four_octet_as: bool,
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

/// A synchronous inspection request: run against the daemon on its core
/// thread, behind everything queued to the core before it. The closure
/// carries its own reply channel ([`crate::Server`]'s `ask`).
pub type Query = Box<dyn FnOnce(&mut dyn Daemon) + Send>;

/// Everything one flush emitted for one session: whole UPDATE and
/// NOTIFICATION frames, back to back.
pub struct Outbound {
    pub slot: usize,
    pub session: u64,
    pub bytes: Vec<u8>,
    /// The daemon ended the session: close the connection once `bytes`
    /// (which end in its NOTIFICATION) are written.
    pub last: bool,
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

/// Spawn the core thread of shard `shard`. `latency` receives one
/// observation per delivered UPDATE frame: runtime-clock ns from socket
/// read to the daemon having applied it (queue wait + decode + RIB work).
pub fn spawn(
    cfg: ServeConfig,
    shard: usize,
    rx: Receiver<CoreMsg>,
    io: CoreIo,
    latency: Arc<Histogram>,
    epoch: Instant,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("xbgp-core-{shard}"))
        .spawn(move || run(cfg, shard, rx, io, latency, epoch))
        .expect("spawn core thread")
}

fn run(
    cfg: ServeConfig,
    shard: usize,
    rx: Receiver<CoreMsg>,
    io: CoreIo,
    latency: Arc<Histogram>,
    epoch: Instant,
) {
    let slots = cfg.max_sessions;
    // Distinct router ids keep shard daemons distinguishable in traces;
    // parity checks never compare router ids.
    let mut spec = DaemonSpec::new(cfg.asn, cfg.router_id + shard as u32);
    // No liveness in the core: the OPENs the daemon sends into the void at
    // start wait for no answer, and adopted sessions have none anyway.
    spec.hold_time_secs = 0;
    spec.metrics = cfg.metrics;
    for slot in 0..slots {
        spec = spec.neighbor(LinkId(slot), slot_addr(slot), cfg.peer_asn);
    }
    let node = xbgp_harness::dut::build(cfg.dut, spec);
    let mut driver = NodeDriver::new(Box::new(node), slots);

    let now = move || epoch.elapsed().as_nanos() as u64;
    let mut egress = Egress {
        sessions: vec![None; slots],
        bufs: vec![Vec::new(); slots],
        touched: Vec::new(),
    };

    driver.start(now());
    egress.flush(&mut driver, &io.out, None);

    while let Ok(msg) = rx.recv() {
        // The I/O thread may have stopped reading sockets on this core's
        // backlog; it must hear when the backlog is back under the bound.
        let mut resume = false;
        // The slot whose session the daemon ended on this message.
        let mut ended = None;
        match msg {
            CoreMsg::SessionUp { slot, session, four_octet_as } => {
                egress.sessions[slot] = Some(session);
                driver.with_node(now(), |d: &mut DutNode, ctx| {
                    d.0.adopt_session(ctx, LinkId(slot), four_octet_as);
                });
            }
            CoreMsg::Frames { slot, frames, recv_ns } => {
                for f in &frames {
                    driver.deliver(now(), LinkId(slot), f);
                    latency.observe(now().saturating_sub(recv_ns));
                }
                let applied: usize = frames.iter().map(Vec::len).sum();
                let before = io.queued.fetch_sub(applied, Ordering::SeqCst);
                resume = before > INBOUND_BOUND && before - applied <= INBOUND_BOUND;
                // Only its own input makes the daemon end a session.
                let up = driver.node_mut::<DutNode>().0.session_established(slot_addr(slot));
                ended = (!up && egress.sessions[slot].is_some()).then_some(slot);
            }
            CoreMsg::SessionDown { slot } => {
                egress.sessions[slot] = None;
                driver.link_event(now(), LinkId(slot), false);
            }
            CoreMsg::Query(query) => query(driver.node_mut::<DutNode>().0.as_mut()),
            CoreMsg::Shutdown => break,
        }
        if egress.flush(&mut driver, &io.out, ended) || resume {
            io.waker.wake();
        }
    }
}

/// The way out of a core: which session (if any) holds each slot, and the
/// buffers one flush gathers.
struct Egress {
    sessions: Vec<Option<u64>>,
    bufs: Vec<Vec<u8>>,
    /// Slots whose `bufs` entry goes out at this flush.
    touched: Vec<usize>,
}

impl Egress {
    /// Route everything the daemon emitted to the session holding the
    /// slot it was sent on, as **one buffer per session**; what it sends
    /// on a slot no session holds (its OPENs at start) goes nowhere.
    /// `ended` is the slot whose session the daemon just closed: that
    /// buffer is marked as its last and the slot is released. Returns
    /// whether anything was sent (the caller then wakes the I/O thread
    /// once).
    fn flush(
        &mut self,
        driver: &mut NodeDriver,
        out: &Sender<Outbound>,
        ended: Option<usize>,
    ) -> bool {
        for (link, bytes) in driver.drain_outbound() {
            let slot = link.0;
            if self.sessions[slot].is_none() {
                continue;
            }
            if self.bufs[slot].is_empty() {
                self.touched.push(slot);
                self.bufs[slot] = bytes;
            } else {
                self.bufs[slot].extend_from_slice(&bytes);
            }
        }
        if let Some(slot) = ended.filter(|&slot| self.bufs[slot].is_empty()) {
            self.touched.push(slot);
        }
        let sent = !self.touched.is_empty();
        for slot in self.touched.drain(..) {
            let last = ended == Some(slot);
            let session = self.sessions[slot].expect("only registered slots are buffered");
            if last {
                self.sessions[slot] = None;
            }
            let bytes = std::mem::take(&mut self.bufs[slot]);
            // A dropped receiver means the I/O thread is already gone
            // (shutdown); nobody is left to write to.
            let _ = out.send(Outbound { slot, session, bytes, last });
        }
        sent
    }
}
