//! `serve_tcp`: the real runtime over loopback TCP.
//!
//! An in-process `xbgp_serve::Server` and the benchmark's own load
//! generator: **one thread, two nonblocking connections**. Connection A
//! sends, connection B only receives what the daemon exports. The
//! generator is built on `xbgp_wire::Session`, not on
//! `xbgp_serve::client::run`, which paces itself to 32 frames per 1 ms
//! read timeout and would measure the client.
//!
//! Loopback, not a real link: no propagation delay, no loss, no MTU.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use netsim::{LinkId, NodeDriver};
use xbgp_driver::{DaemonSpec, Dut, DutNode};
use xbgp_serve::daemon_core::slot_addr;
use xbgp_serve::{ServeConfig, Server};
use xbgp_wire::msg::deframe;
use xbgp_wire::{Ipv4Prefix, PathAttr, Session, SessionConfig, SessionEvent, UpdateMsg};

use crate::gen::{Reannounce, ServeInputs};
use crate::inproc::establish;
use crate::trace::Spans;

/// An export that has not reached B this long after its phase ended is
/// counted as failed.
pub const EXPORT_DEADLINE: Duration = Duration::from_secs(10);

/// Pause between phases, so exports of one phase cannot land in the next.
const SETTLE: Duration = Duration::from_millis(100);

/// How long the generator sleeps when neither socket had anything to do.
/// It bounds the resolution of every latency below; busy-polling instead
/// would take one of the host's two hardware threads from the server.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// One client connection: socket, FSM, and bytes not yet accepted by TCP.
struct Conn {
    stream: TcpStream,
    fsm: Session,
    established: bool,
    closed: bool,
    pending: Vec<u8>,
    written: usize,
    /// Bytes ever queued and bytes ever taken by TCP: a frame has been
    /// sent once `sent_bytes` reaches what `queued_bytes` was right after
    /// it was queued.
    queued_bytes: u64,
    sent_bytes: u64,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr, asn: u32, router_id: u32, now_ns: u64) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Conn {
            stream,
            fsm: Session::new(SessionConfig {
                local_asn: asn,
                router_id,
                hold_time_secs: 90,
                expect_asn: None,
            }),
            established: false,
            closed: false,
            pending: Vec::new(),
            written: 0,
            queued_bytes: 0,
            sent_bytes: 0,
            buf: vec![0u8; 64 * 1024],
        };
        for ev in conn.fsm.start(now_ns) {
            if let SessionEvent::Send(bytes) = ev {
                conn.queue(&bytes);
            }
        }
        Ok(conn)
    }

    fn queue(&mut self, bytes: &[u8]) {
        if self.written == self.pending.len() {
            self.pending.clear();
            self.written = 0;
        }
        self.pending.extend_from_slice(bytes);
        self.queued_bytes += bytes.len() as u64;
    }

    fn backlog(&self) -> usize {
        self.pending.len() - self.written
    }

    /// Write what TCP accepts. Returns whether any byte moved.
    fn pump_write(&mut self, spans: Option<&mut Spans>) -> bool {
        if self.backlog() == 0 || self.closed {
            return false;
        }
        let start = spans.as_ref().map(|s| s.begin());
        let mut moved = false;
        while self.written < self.pending.len() {
            match self.stream.write(&self.pending[self.written..]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    self.sent_bytes += n as u64;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if let (Some(spans), Some(start)) = (spans, start) {
            spans.end(start, "socket_write", self.written as u64);
        }
        moved
    }

    /// Read what is there, run it through the FSM, hand UPDATE frames to
    /// `on_update`. Returns whether any byte moved.
    fn pump_read(
        &mut self,
        now_ns: u64,
        spans: Option<&mut Spans>,
        mut on_update: impl FnMut(Vec<u8>),
    ) -> bool {
        if self.closed {
            return false;
        }
        let start = spans.as_ref().map(|s| s.begin());
        let mut moved = 0usize;
        let mut events = Vec::new();
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    moved += n;
                    events.extend(self.fsm.on_bytes(now_ns, &self.buf[..n]));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if let (Some(spans), Some(start)) = (spans, start) {
            if moved > 0 {
                spans.end(start, "socket_read", moved as u64);
            }
        }
        events.extend(self.fsm.tick(now_ns));
        for ev in events {
            match ev {
                SessionEvent::Send(bytes) => self.queue(&bytes),
                SessionEvent::Established { .. } => self.established = true,
                SessionEvent::Update(frame) => on_update(frame),
                SessionEvent::Closed(_) => self.closed = true,
            }
        }
        moved > 0
    }
}

/// Outcome of one open-loop phase.
pub struct PhaseOutcome {
    /// Due → arrival at B, ms, one per update that arrived.
    pub latency_ms: Vec<f64>,
    /// Due → taken by TCP on A, µs, one per update sent.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    /// Updates whose export never reached B.
    pub missing: u64,
}

/// Everything `serve_tcp` measured.
pub struct ServeOutcome {
    pub handshake_ms: f64,
    /// Routes exported to B per wall second of the blast.
    pub blast_routes_per_s: f64,
    pub blast_missing: u64,
    /// UPDATE frames B received during the blast.
    pub blast_frames_rx: u64,
    pub low: PhaseOutcome,
    pub high: PhaseOutcome,
    pub loc_rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    pub oracle_loc_rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    /// `Server::latency()` as `(sum ns, count)`.
    pub sock2rib: (u64, u64),
    pub session_closed: bool,
}

/// The two client connections and the clock they share.
struct Generator {
    epoch: Instant,
    a: Conn,
    b: Conn,
}

/// `(prefix, marker)` pairs an UPDATE exported to B carries: every NLRI
/// with every ASN of the path (the marker sits behind the ASN the daemon
/// prepended, so position is not assumed).
fn exports_of(frame: &[u8]) -> (Vec<Ipv4Prefix>, Vec<u32>) {
    let Ok((_, body)) = deframe(frame) else {
        return (Vec::new(), Vec::new());
    };
    let Ok(update) = UpdateMsg::decode_body(body, 4) else {
        return (Vec::new(), Vec::new());
    };
    let asns = update
        .attrs
        .iter()
        .find_map(|a| match a {
            PathAttr::AsPath(p) => Some(p.asns().collect()),
            _ => None,
        })
        .unwrap_or_default();
    (update.nlri, asns)
}

impl Generator {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One turn of the loop: read both sockets, write both. Returns
    /// whether anything moved; `on_export` sees every UPDATE B received.
    fn turn(&mut self, mut spans: Option<&mut Spans>, on_export: impl FnMut(Vec<u8>)) -> bool {
        let now = self.now_ns();
        let mut moved = self.b.pump_read(now, spans.as_deref_mut(), on_export);
        moved |= self.a.pump_read(now, spans.as_deref_mut(), |_| {});
        moved |= self.a.pump_write(spans.as_deref_mut());
        moved |= self.b.pump_write(spans);
        moved
    }

    fn closed(&self) -> bool {
        self.a.closed || self.b.closed
    }

    /// Closed loop: write the whole table to A as fast as TCP takes it;
    /// the clock stops when B has every prefix. Returns
    /// `(seconds, prefixes missing, frames B received)`.
    fn blast(&mut self, inputs: &ServeInputs, mut spans: Option<&mut Spans>) -> (f64, u64, u64) {
        let mut missing: std::collections::HashSet<Ipv4Prefix> =
            inputs.expected.iter().copied().collect();
        let mut frames_rx = 0u64;
        let start = Instant::now();
        for frame in &inputs.blast {
            self.a.queue(frame);
        }
        let mut last_progress = Instant::now();
        let mut done_at = None;
        while !self.closed() {
            let moved = self.turn(spans.as_deref_mut(), |frame| {
                frames_rx += 1;
                for p in exports_of(&frame).0 {
                    missing.remove(&p);
                }
            });
            if missing.is_empty() {
                done_at = Some(start.elapsed());
                break;
            }
            if moved {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > EXPORT_DEADLINE {
                break;
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        let secs = done_at.unwrap_or_else(|| start.elapsed()).as_secs_f64();
        (secs, missing.len() as u64, frames_rx)
    }

    /// Open loop: each update is written when it is due, whatever the
    /// server is doing; latency runs from the due time. The phase ends
    /// when every export has arrived or [`EXPORT_DEADLINE`] has passed
    /// since the last update was due.
    fn open_loop(&mut self, plan: &[Reannounce], mut spans: Option<&mut Spans>) -> PhaseOutcome {
        let mut waiting: HashMap<(Ipv4Prefix, u32), u64> = HashMap::with_capacity(plan.len());
        let mut latency_ms = Vec::with_capacity(plan.len());
        let mut late_us = Vec::with_capacity(plan.len());
        // Updates queued on A that TCP has not taken whole yet, as
        // `(queued_bytes after the frame, due)`. Under back-pressure a
        // frame leaves in a later turn, and that is when its lateness is
        // known.
        let mut unsent: VecDeque<(u64, u64)> = VecDeque::new();
        let start = self.now_ns();
        let last_due = plan.last().map_or(0, |r| r.due_ns);
        let mut next = 0usize;
        while !self.closed() {
            let now = self.now_ns() - start;
            while next < plan.len() && plan[next].due_ns <= now {
                let r = &plan[next];
                waiting.insert((r.prefix, r.marker), r.due_ns);
                self.a.queue(&r.frame);
                unsent.push_back((self.a.queued_bytes, r.due_ns));
                self.a.pump_write(spans.as_deref_mut());
                self.book_sent(start, &mut unsent, &mut late_us);
                next += 1;
            }
            let epoch = self.epoch;
            let moved = self.turn(spans.as_deref_mut(), |frame| {
                let arrived = epoch.elapsed().as_nanos() as u64 - start;
                let (nlri, asns) = exports_of(&frame);
                for p in nlri {
                    for &asn in &asns {
                        if let Some(due) = waiting.remove(&(p, asn)) {
                            latency_ms.push(arrived.saturating_sub(due) as f64 / 1e6);
                        }
                    }
                }
            });
            self.book_sent(start, &mut unsent, &mut late_us);
            let now = self.now_ns() - start;
            if next == plan.len() && waiting.is_empty() {
                break;
            }
            if now > last_due + EXPORT_DEADLINE.as_nanos() as u64 {
                break;
            }
            if !moved {
                // Sleep to the next due time, but never longer than the
                // idle quantum: B may have something to read before.
                let until_due = plan.get(next).map_or(u64::MAX, |r| r.due_ns.saturating_sub(now));
                std::thread::sleep(IDLE_SLEEP.min(Duration::from_nanos(until_due)));
            }
        }
        PhaseOutcome {
            latency_ms,
            late_us,
            attempted: plan.len() as u64,
            missing: (plan.len() - next) as u64 + waiting.len() as u64,
        }
    }

    /// Book how late every update ran that TCP has taken whole by now.
    fn book_sent(&self, start: u64, unsent: &mut VecDeque<(u64, u64)>, late_us: &mut Vec<f64>) {
        let now = self.now_ns() - start;
        while let Some(&(end, due)) = unsent.front() {
            if end > self.a.sent_bytes {
                break;
            }
            late_us.push(now.saturating_sub(due) as f64 / 1e3);
            unsent.pop_front();
        }
    }

    /// Let in-flight exports of the previous phase settle.
    fn idle(&mut self, d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until && !self.closed() {
            if !self.turn(None, |_| {}) {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

/// A running server with both client sessions established.
pub struct Leg {
    server: Server,
    gen: Generator,
    handshake_ms: f64,
}

impl ServeOutcome {
    /// How late the generator ran, per update of both open-loop phases.
    pub fn late_us(&self) -> Vec<f64> {
        [&self.low.late_us[..], &self.high.late_us[..]].concat()
    }
}

impl Leg {
    /// Start the server, connect A then B, and wait until the daemon sees
    /// both sessions. `counters` switches on the daemon's own metrics
    /// through `ServeConfig::metrics`.
    pub fn start(counters: bool) -> std::io::Result<Leg> {
        let mut cfg = ServeConfig::new(Dut::Fir, 2);
        cfg.metrics = counters;
        let peer_asn = cfg.peer_asn;
        let server = Server::start(cfg)?;

        let epoch = Instant::now();
        // A connects first, so it gets session slot 0, which is link 0 of
        // the in-process replay the Loc-RIB is compared with.
        let a = Conn::connect(server.addr(), peer_asn, 101, 0)?;
        let b = Conn::connect(server.addr(), peer_asn, 102, 0)?;
        let mut gen = Generator { epoch, a, b };
        let mut handshake_ms = None;
        while epoch.elapsed() < EXPORT_DEADLINE && !gen.closed() {
            if !gen.turn(None, |_| {}) {
                std::thread::sleep(IDLE_SLEEP);
            }
            if gen.a.established && gen.b.established {
                handshake_ms.get_or_insert(epoch.elapsed().as_secs_f64() * 1e3);
                if server.established_sessions() == 2 {
                    break;
                }
            }
        }
        match handshake_ms {
            Some(handshake_ms) if !gen.closed() => Ok(Leg { server, gen, handshake_ms }),
            _ => {
                drop(gen);
                server.shutdown();
                Err(std::io::Error::new(ErrorKind::TimedOut, "BGP sessions did not establish"))
            }
        }
    }

    /// Blast, then the low and the high open-loop phase.
    pub fn run(mut self, inputs: &ServeInputs, mut spans: Option<&mut Spans>) -> ServeOutcome {
        let gen = &mut self.gen;
        let (blast_secs, blast_missing, blast_frames_rx) = gen.blast(inputs, spans.as_deref_mut());
        gen.idle(SETTLE);
        let low = gen.open_loop(&inputs.low, spans.as_deref_mut());
        gen.idle(SETTLE);
        let high = gen.open_loop(&inputs.high, spans);
        gen.idle(SETTLE);

        let loc_rib = self.server.loc_rib();
        let oracle_loc_rib = self.server.oracle_loc_rib();
        let lat = self.server.latency();
        let session_closed = self.gen.closed();
        let handshake_ms = self.handshake_ms;
        self.finish();
        ServeOutcome {
            handshake_ms,
            blast_routes_per_s: (inputs.expected.len() as u64 - blast_missing) as f64 / blast_secs,
            blast_missing,
            blast_frames_rx,
            low,
            high,
            loc_rib,
            oracle_loc_rib,
            sock2rib: (lat.sum, lat.count),
            session_closed,
        }
    }

    /// Close both connections, then stop the server and join its threads.
    pub fn finish(self) {
        // Dropping the sockets ends both session threads; only then can
        // the server join everything it started.
        drop(self.gen);
        self.server.shutdown();
    }
}

/// The Loc-RIB the same stream leaves in a daemon configured the way
/// `xbgp_serve::daemon_core` configures it, hosted in-process: what the
/// server's Loc-RIB has to equal.
pub fn replay_loc_rib(inputs: &ServeInputs) -> Vec<(Ipv4Prefix, Vec<u8>)> {
    let cfg = ServeConfig::new(Dut::Fir, 2);
    let mut spec = DaemonSpec::new(cfg.asn, cfg.router_id);
    spec.hold_time_secs = 0;
    for slot in 0..2 {
        spec = spec.neighbor(LinkId(slot), slot_addr(slot), cfg.peer_asn);
    }
    let mut driver = NodeDriver::new(Box::new(xbgp_harness::dut::build(cfg.dut, spec)), 2);
    driver.start(0);
    for slot in 0..2 {
        establish(&mut driver, LinkId(slot), cfg.peer_asn, slot_addr(slot));
    }
    for (i, frame) in inputs.frames().enumerate() {
        driver.deliver(1 + i as u64, LinkId(0), frame);
        driver.drain_outbound();
    }
    driver.node_mut::<DutNode>().0.loc_rib_dump()
}
