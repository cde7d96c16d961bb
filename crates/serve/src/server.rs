//! The TCP runtime: one readiness-driven I/O thread, shard cores.
//!
//! Layering (one box per thread, `1 + shards` threads whatever the number
//! of sessions):
//!
//! ```text
//!   I/O thread — sleeps only in poll(2) over
//!     │            { waker, listener, every session socket }
//!     │  owns every nonblocking socket with its xbgp_wire::Session
//!     │  (real BGP FSM, hold timer, NOTIFY-and-close) and its
//!     │  outbound byte buffer
//!     │
//!     │ CoreMsg over mpsc (validated wire frames, stamped per read)
//!     ▼
//!   shard core(s) — daemon on a NodeDriver; it adopts each session
//!     │               as the edge negotiated it, no second handshake
//!     │
//!     │ Outbound over one mpsc (one buffer per session per flush, the
//!     │ last one marked when the daemon ends a session), then one byte
//!     │ on the waker
//!     ▼
//!   I/O thread appends to the session's buffer and writes at once;
//!   what TCP does not take waits for POLLOUT
//! ```
//!
//! The daemon is never touched from more than one thread; sessions speak
//! to it exclusively in wire frames. With `shards > 1` each UPDATE is cut
//! along prefix-hash boundaries by [`crate::split::split_update`] and
//! each piece goes to the core that owns those prefixes.
//!
//! A peer sending less than [`INGRESS_RATE`] never waits for a timer:
//! the timeout `poll` is given is the nearest
//! [`xbgp_wire::Session::next_deadline`] (hold expiry or KEEPALIVE
//! cadence). A peer sending more is read at that rate — the rest waits
//! in its own kernel, and the timeout is then the moment its
//! [`ReadBudget`] allows the next read. Nothing blocks in `write`, so a
//! peer that stops reading costs its own buffer — capped at [`OUT_CAP`]
//! — and nothing else.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xbgp_driver::{Daemon, DaemonCounters, Dut};
use xbgp_obs::{Histogram, HistogramSnapshot, Snapshot};
use xbgp_wire::{Ipv4Prefix, Message, NotificationMsg, SessionConfig, SessionEvent};

use crate::daemon_core::{self, slot_addr, CoreIo, CoreMsg, Outbound, INBOUND_BOUND};
use crate::io::{wait, Conn, PollFd, ReadBudget, ReadStatus, Waker, POLLIN, READ_CHUNK};
use crate::split::split_update;

/// Cap on one session's outbound backlog: room for a full-table dump to a
/// peer that is slow to start reading (the paper-scale 724 000-route
/// table is about 50 MB as single-prefix UPDATEs). A session that crosses
/// it is closed with Cease instead of growing without bound.
pub const OUT_CAP: usize = 64 << 20;

/// Bytes per second the loop reads from one session once the session has
/// used up [`INGRESS_BURST`] — 8.4 Mbit/s: about 52 000 routes a second
/// of a table dump in packed UPDATEs (20 bytes a route), 17 000
/// single-prefix UPDATEs, a quarter or less of what one core applies
/// (~4 µs a route). A peer dumping a table is read at this pace and the
/// rest is held by TCP flow control in its kernel, so the core's queue
/// stays a few milliseconds deep and every other session's updates pass
/// the dump instead of queueing behind it — and how long a dump takes is
/// set by this constant, not by how the host happens to schedule the
/// core, the I/O thread and the peer on its CPUs.
pub const INGRESS_RATE: u64 = 1 << 20;

/// What one session may be read at once, ahead of [`INGRESS_RATE`]: about
/// 800 packed routes, 3 ms of core work. It is also how long (16 ms of
/// the rate) the I/O thread can be away without the session losing
/// credit.
pub const INGRESS_BURST: usize = 16 << 10;
const _: () = assert!(INGRESS_BURST <= READ_CHUNK, "one read takes the whole burst");

/// The smallest allowance worth a `read`: below it the session waits for
/// its budget instead of reading a few bytes per turn.
const READ_QUANTUM: usize = 1024;

/// Runtime configuration for one [`Server`].
#[derive(Clone)]
pub struct ServeConfig {
    pub dut: Dut,
    /// Our ASN (the daemon's).
    pub asn: u32,
    pub router_id: u32,
    /// ASN every peer must present in its OPEN.
    pub peer_asn: u32,
    /// Maximum concurrent sessions; later connections are refused with
    /// NOTIFICATION Cease / Connection Rejected.
    pub max_sessions: usize,
    /// Shard cores. 1 = single daemon owning the whole table.
    pub shards: usize,
    /// Hold time we offer peers (real wall-clock liveness at the edge).
    pub hold_time_secs: u16,
    /// Enable daemon timing instrumentation.
    pub metrics: bool,
    /// Loopback port to listen on; 0 = ephemeral.
    pub bind_port: u16,
}

impl ServeConfig {
    pub fn new(dut: Dut, max_sessions: usize) -> ServeConfig {
        ServeConfig {
            dut,
            asn: 65002,
            router_id: 2,
            peer_asn: 65001,
            max_sessions,
            shards: 1,
            hold_time_secs: 90,
            metrics: false,
            bind_port: 0,
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    cores: Vec<Sender<CoreMsg>>,
    /// Per core: frame bytes queued to it and not yet applied.
    queued: Vec<Arc<AtomicUsize>>,
    waker: Waker,
    stop: AtomicBool,
    epoch: Instant,
    latency: Arc<Histogram>,
    /// Peak concurrent edge-established sessions (for reporting).
    established_peak: AtomicU64,
    rejected: AtomicU64,
}

/// A running many-peer runtime: owns the I/O thread (listener and every
/// session) and one core thread per shard.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    io: Option<JoinHandle<()>>,
    cores: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind a loopback listener and bring the full runtime up.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.bind_port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let waker = Waker::new()?;

        let epoch = Instant::now();
        let latency = Arc::new(Histogram::new());
        let (out_tx, out_rx) = mpsc::channel();
        let mut cores = Vec::new();
        let mut queued = Vec::new();
        let mut core_handles = Vec::new();
        for shard in 0..cfg.shards.max(1) {
            let (tx, rx) = mpsc::channel();
            let backlog = Arc::new(AtomicUsize::new(0));
            let io = CoreIo {
                out: out_tx.clone(),
                waker: waker.clone(),
                queued: Arc::clone(&backlog),
            };
            let latency = Arc::clone(&latency);
            core_handles.push(daemon_core::spawn(cfg.clone(), shard, rx, io, latency, epoch));
            cores.push(tx);
            queued.push(backlog);
        }

        let shared = Arc::new(Shared {
            cfg,
            cores,
            queued,
            waker,
            stop: AtomicBool::new(false),
            epoch,
            latency,
            established_peak: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });

        let io = IoLoop::new(Arc::clone(&shared), listener, out_rx);
        let io = std::thread::Builder::new()
            .name("xbgp-io".into())
            .spawn(move || io.run())
            .expect("spawn I/O thread");

        Ok(Server { shared, addr, io: Some(io), cores: core_handles })
    }

    /// Address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What `query` returns on each shard core, run behind everything
    /// queued to that core before it. A core that is gone does not reply.
    fn ask<T: Send + 'static>(
        &self,
        query: impl Fn(&mut dyn Daemon) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        let mut replies = Vec::new();
        for core in &self.shared.cores {
            let (tx, rx) = mpsc::channel();
            let query = query.clone();
            // A reply may race a caller that gave up; ignore send errors.
            let _ = core.send(CoreMsg::Query(Box::new(move |d| drop(tx.send(query(d))))));
            replies.extend(rx.recv());
        }
        replies
    }

    /// Daemon counters merged across shard cores
    /// ([`DaemonCounters::merge`]).
    pub fn counters(&self) -> DaemonCounters {
        self.ask(|d| d.counters())
            .into_iter()
            .fold(DaemonCounters::default(), DaemonCounters::merge)
    }

    /// Merged metrics snapshot across shard cores.
    pub fn snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for s in self.ask(|d| d.metrics_snapshot()) {
            let _ = merged.merge(s);
        }
        merged
    }

    /// Combined Loc-RIB across shards, sorted by prefix. Shards own
    /// disjoint prefix sets, so concatenation is exact.
    pub fn loc_rib(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        sorted(self.ask(|d| d.loc_rib_dump()))
    }

    /// Combined oracle Loc-RIB across shards, sorted by prefix.
    pub fn oracle_loc_rib(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        sorted(self.ask(|d| d.oracle_loc_rib_dump()))
    }

    /// Sessions the *daemons* consider established (max across shards —
    /// every shard sees the same session slots).
    pub fn established_sessions(&self) -> usize {
        let slots = self.shared.cfg.max_sessions;
        let count = move |d: &mut dyn Daemon| {
            (0..slots).filter(|&s| d.session_established(slot_addr(s))).count()
        };
        self.ask(count).into_iter().max().unwrap_or(0)
    }

    /// Peak concurrent sessions the edge FSMs reached Established.
    pub fn established_peak(&self) -> u64 {
        self.shared.established_peak.load(Ordering::Relaxed)
    }

    /// Connections refused because all session slots were taken.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Socket-to-RIB propagation latency histogram (ns).
    pub fn latency(&self) -> HistogramSnapshot {
        self.shared.latency.snapshot()
    }

    /// Stop the runtime and join its threads: the I/O thread sends Cease
    /// on every open session, hands TCP what it takes, closes the sockets
    /// and tells the cores each session is down; then the cores stop.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.io.take() {
            h.join().expect("I/O thread panicked");
        }
        for core in &self.shared.cores {
            let _ = core.send(CoreMsg::Shutdown);
        }
        for h in self.cores.drain(..) {
            let _ = h.join();
        }
    }
}

/// The shards' RIB dumps as one, in prefix order.
fn sorted(shards: Vec<Vec<(Ipv4Prefix, Vec<u8>)>>) -> Vec<(Ipv4Prefix, Vec<u8>)> {
    let mut all: Vec<_> = shards.into_iter().flatten().collect();
    all.sort_by_key(|(p, _)| *p);
    all
}

/// One session slot in use.
struct Peer {
    conn: Conn,
    /// Names this use of the slot to the cores (see [`CoreMsg::SessionUp`]).
    session: u64,
    /// The cores have been told the session is up.
    up: bool,
    /// What may still be read from it, at [`INGRESS_RATE`].
    budget: ReadBudget,
}

/// The I/O thread's state: the listener, every session, and the way back
/// from the cores.
struct IoLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    out_rx: Receiver<Outbound>,
    /// Indexed by session slot.
    peers: Vec<Option<Peer>>,
    free_slots: Vec<usize>,
    next_session: u64,
    established_now: u64,
    scratch: Vec<u8>,
    events: Vec<SessionEvent>,
}

impl IoLoop {
    fn new(shared: Arc<Shared>, listener: TcpListener, out_rx: Receiver<Outbound>) -> IoLoop {
        let slots = shared.cfg.max_sessions;
        IoLoop {
            shared,
            listener,
            out_rx,
            peers: (0..slots).map(|_| None).collect(),
            free_slots: (0..slots).rev().collect(),
            next_session: 0,
            established_now: 0,
            scratch: vec![0u8; READ_CHUNK],
            events: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        // Slot of `fds[2 + i]`.
        let mut polled: Vec<usize> = Vec::new();
        loop {
            fds.clear();
            polled.clear();
            fds.push(self.shared.waker.pollfd());
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            // Inbound bound: while a core is this far behind, leave what
            // peers send in their kernels. The core wakes us when it has
            // caught up.
            let read = self.shared.queued.iter().all(|q| q.load(Ordering::SeqCst) <= INBOUND_BOUND);
            let now = self.now();
            // The nearest FSM timer, and the nearest moment a session
            // that is over its ingress rate may be read again.
            let mut deadline: Option<u64> = None;
            let mut refill: Option<u64> = None;
            for (slot, peer) in self.peers.iter_mut().enumerate() {
                let Some(peer) = peer else { continue };
                let funded = peer.budget.available(now) >= READ_QUANTUM;
                fds.push(peer.conn.pollfd(read && funded));
                polled.push(slot);
                deadline = [deadline, peer.conn.next_deadline()].into_iter().flatten().min();
                if read && !funded {
                    refill =
                        [refill, peer.budget.ready_at(READ_QUANTUM)].into_iter().flatten().min();
                }
            }
            let wake = [deadline, refill].into_iter().flatten().min();
            let timeout = wake.map(|d| Duration::from_nanos(d.saturating_sub(self.now())));
            if wait(&mut fds, timeout).is_err() {
                break;
            }
            // Swallow the wake-ups first, then look at what they announce
            // (the stop flag, the cores' output, their backlog): whatever
            // is published after this drain leaves its byte for the next
            // `wait`.
            self.shared.waker.drain();
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            self.route_outbound();
            // A timer is due somewhere: every session gets its turn. Else
            // only the ones `poll` reported.
            let due = deadline.is_some_and(|d| d <= self.now());
            for (i, &slot) in polled.iter().enumerate() {
                if due || fds[2 + i].ready() {
                    self.service(slot, fds[2 + i]);
                }
            }
            if fds[1].readable() {
                self.accept_all();
            }
        }
        self.close_all();
    }

    /// Append what the cores emitted to the sessions it is for, and write
    /// it at once.
    fn route_outbound(&mut self) {
        while let Ok(Outbound { slot, session, bytes, last }) = self.out_rx.try_recv() {
            // Output for an earlier use of the slot is dropped.
            let Some(mut peer) = self.peers[slot].take_if(|p| p.session == session) else {
                continue;
            };
            if peer.conn.queue(&bytes).is_err() {
                // Outbound cap: this peer is not taking its exports.
                peer.conn.shutdown();
            } else if last {
                // The daemon ended the session; its NOTIFICATION is queued.
                peer.conn.finish();
            }
            self.settle(slot, peer, false);
        }
    }

    /// One session's turn: what `poll` reported for it and its timers.
    fn service(&mut self, slot: usize, fd: PollFd) {
        // Retired earlier this turn (outbound cap).
        let Some(mut peer) = self.peers[slot].take() else {
            return;
        };
        let mut gone = fd.writable() && peer.conn.writable().is_err();
        if fd.readable() {
            // Read to `WouldBlock` or to the end of the session's budget.
            // `poll` is level-triggered: what is left is reported again
            // once the budget allows, after every other session and the
            // cores' output have had their turn — which keeps exports
            // flowing under a stream that never pauses.
            loop {
                // Every read is stamped on its own, and its UPDATEs go to
                // the cores before the next read.
                let recv_ns = self.now();
                let allowed = peer.budget.available(recv_ns);
                if allowed < READ_QUANTUM {
                    break;
                }
                match peer.conn.read(recv_ns, &mut self.scratch[..allowed], &mut self.events) {
                    ReadStatus::Data(n) => {
                        peer.budget.spend(n);
                        self.dispatch(slot, &mut peer, recv_ns);
                    }
                    ReadStatus::WouldBlock => break,
                    ReadStatus::Gone => {
                        gone = true;
                        break;
                    }
                }
                if peer.conn.closed() {
                    break;
                }
            }
        }
        let now = self.now();
        peer.conn.tick(now, &mut self.events);
        self.dispatch(slot, &mut peer, now);
        self.settle(slot, peer, gone);
    }

    /// Hand TCP what it takes of the session's pending output, then keep
    /// the session or — if its socket or its FSM is finished — retire it.
    fn settle(&mut self, slot: usize, mut peer: Peer, mut gone: bool) {
        gone |= peer.conn.flush().is_err();
        if gone || peer.conn.closed() {
            self.retire(slot, peer);
        } else {
            self.peers[slot] = Some(peer);
        }
    }

    /// Act on what the FSM reported (its own frames are already queued).
    fn dispatch(&mut self, slot: usize, peer: &mut Peer, recv_ns: u64) {
        let mut frames = Vec::new();
        for ev in self.events.drain(..) {
            match ev {
                SessionEvent::Established { four_octet_as, .. } => {
                    let session = peer.session;
                    for core in &self.shared.cores {
                        let _ = core.send(CoreMsg::SessionUp { slot, session, four_octet_as });
                    }
                    peer.up = true;
                    self.established_now += 1;
                    self.shared.established_peak.fetch_max(self.established_now, Ordering::Relaxed);
                }
                SessionEvent::Update(frame) => frames.push(frame),
                // `Conn` queued the frame; `Conn::closed` reports the end.
                SessionEvent::Send(_) | SessionEvent::Closed(_) => {}
            }
        }
        if !frames.is_empty() {
            self.fan_out(slot, frames, recv_ns);
        }
    }

    /// Send a batch of validated UPDATE frames to the core(s) that own
    /// their prefixes, preserving per-prefix arrival order.
    fn fan_out(&self, slot: usize, frames: Vec<Vec<u8>>, recv_ns: u64) {
        let shards = self.shared.cores.len();
        if shards == 1 {
            return self.send_frames(0, slot, frames, recv_ns);
        }
        let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        for frame in &frames {
            match split_update(frame, shards) {
                Ok(parts) => {
                    for (k, part) in parts.into_iter().enumerate() {
                        if let Some(p) = part {
                            per_shard[k].push(p);
                        }
                    }
                }
                // The FSM already validated the frame; a split error here
                // would be a codec bug — drop the frame rather than poison a
                // shard with half an UPDATE.
                Err(_) => continue,
            }
        }
        for (k, frames) in per_shard.into_iter().enumerate() {
            if !frames.is_empty() {
                self.send_frames(k, slot, frames, recv_ns);
            }
        }
    }

    fn send_frames(&self, shard: usize, slot: usize, frames: Vec<Vec<u8>>, recv_ns: u64) {
        let bytes: usize = frames.iter().map(Vec::len).sum();
        self.shared.queued[shard].fetch_add(bytes, Ordering::SeqCst);
        let _ = self.shared.cores[shard].send(CoreMsg::Frames { slot, frames, recv_ns });
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, mut stream: TcpStream) {
        let Some(slot) = self.free_slots.pop() else {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            // RFC 4486: Cease / Connection Rejected, then close. A fresh
            // socket takes 21 bytes without blocking. Reading the peer's
            // OPEN first (if it is here already) keeps close() from
            // answering unread data with a reset that could overtake the
            // NOTIFICATION.
            let cease = Message::Notification(NotificationMsg::new(6, 5))
                .encode(4)
                .expect("NOTIFICATION encodes");
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.read(&mut self.scratch);
                let _ = stream.write(&cease);
            }
            return;
        };
        let cfg = SessionConfig {
            local_asn: self.shared.cfg.asn,
            router_id: self.shared.cfg.router_id,
            hold_time_secs: self.shared.cfg.hold_time_secs,
            expect_asn: Some(self.shared.cfg.peer_asn),
        };
        // Our OPEN goes out now: a passive peer waits for it.
        let now = self.now();
        let conn = Conn::start(stream, cfg, OUT_CAP, now).and_then(|mut conn| {
            conn.flush()?;
            Ok(conn)
        });
        match conn {
            Ok(conn) => {
                self.next_session += 1;
                let budget = ReadBudget::full(INGRESS_RATE, INGRESS_BURST, now);
                self.peers[slot] =
                    Some(Peer { conn, session: self.next_session, up: false, budget });
            }
            Err(_) => self.free_slots.push(slot),
        }
    }

    /// The session is over: tell the cores (which flush its routes and
    /// withdraw them from everyone else), free the slot, close the socket.
    fn retire(&mut self, slot: usize, peer: Peer) {
        if peer.up {
            self.established_now -= 1;
            for core in &self.shared.cores {
                let _ = core.send(CoreMsg::SessionDown { slot });
            }
        }
        self.free_slots.push(slot);
    }

    /// Shutdown: Cease on every open session, whatever TCP takes of it
    /// now, and the ordinary teardown.
    fn close_all(&mut self) {
        for slot in 0..self.peers.len() {
            if let Some(mut peer) = self.peers[slot].take() {
                peer.conn.shutdown();
                let _ = peer.conn.flush();
                self.retire(slot, peer);
            }
        }
    }
}
