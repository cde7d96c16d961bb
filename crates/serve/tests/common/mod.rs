//! A hand-driven BGP test peer on the runtime's own nonblocking pump
//! ([`xbgp_serve::io::Conn`]). A peer does what the test calls for and
//! nothing in between — it does not read, write or tick unless pumped —
//! so "a peer that stops reading" is a peer the test stops pumping, and
//! any number of peers run on the one test thread.
#![allow(dead_code)]

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xbgp_serve::io::{wait, Conn, PollFd, ReadStatus, READ_CHUNK};
use xbgp_wire::attr::Origin;
use xbgp_wire::msg::deframe;
use xbgp_wire::{
    AsPath, CloseReason, Ipv4Prefix, Message, PathAttr, SessionConfig, SessionEvent, UpdateMsg,
};

/// How long any wait in a test may take before it is a failure.
pub const PATIENCE: Duration = Duration::from_secs(60);

pub struct Peer {
    conn: Conn,
    epoch: Instant,
    scratch: Vec<u8>,
    pub established: bool,
    /// Prefixes the server has announced to this peer and not withdrawn.
    pub rib: std::collections::BTreeSet<Ipv4Prefix>,
    /// UPDATE frames received.
    pub updates_rx: usize,
    /// Why the FSM closed, if it did.
    pub closed: Option<CloseReason>,
    /// End of stream or a socket error.
    pub gone: bool,
}

impl Peer {
    /// Connect as AS 65001 (what `ServeConfig::new` expects of peers) and
    /// queue the OPEN.
    pub fn connect(addr: SocketAddr, router_id: u32) -> Peer {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        let cfg = SessionConfig {
            local_asn: 65001,
            router_id,
            hold_time_secs: 90,
            expect_asn: None,
        };
        let epoch = Instant::now();
        let conn = Conn::start(stream, cfg, usize::MAX, 0).expect("start the session");
        Peer {
            conn,
            epoch,
            scratch: vec![0u8; READ_CHUNK],
            established: false,
            rib: Default::default(),
            updates_rx: 0,
            closed: None,
            gone: false,
        }
    }

    /// Queue raw bytes (a frame, or part of one) and hand TCP what it takes.
    pub fn send(&mut self, bytes: &[u8]) {
        self.conn.queue(bytes).expect("uncapped buffer");
        self.gone |= self.conn.flush().is_err();
    }

    /// Bytes queued that TCP has not taken.
    pub fn backlog(&self) -> usize {
        self.conn.backlog()
    }

    fn service(&mut self, fd: PollFd) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if fd.writable() {
            self.gone |= self.conn.writable().is_err();
        }
        let mut events = Vec::new();
        while fd.readable() && !self.gone {
            match self.conn.read(now, &mut self.scratch, &mut events) {
                ReadStatus::Data(_) => {}
                ReadStatus::WouldBlock => break,
                ReadStatus::Gone => self.gone = true,
            }
        }
        self.conn.tick(now, &mut events);
        for ev in events {
            match ev {
                SessionEvent::Established { .. } => self.established = true,
                SessionEvent::Update(frame) => {
                    self.updates_rx += 1;
                    let (_, body) = deframe(&frame).expect("the FSM validated the frame");
                    let update = UpdateMsg::decode_body(body, 4).expect("validated UPDATE");
                    for p in update.withdrawn {
                        self.rib.remove(&p);
                    }
                    self.rib.extend(update.nlri);
                }
                SessionEvent::Closed(reason) => self.closed = Some(reason),
                SessionEvent::Send(_) => {}
            }
        }
        self.gone |= self.conn.flush().is_err();
    }
}

/// One turn for every peer given: sleep in `poll` until one of their
/// sockets is ready or `timeout` passes, then read, tick and write each.
pub fn pump(peers: &mut [&mut Peer], timeout: Duration) {
    let mut fds: Vec<PollFd> = peers.iter().map(|p| p.conn.pollfd(!p.gone)).collect();
    wait(&mut fds, Some(timeout)).expect("poll");
    for (peer, fd) in peers.iter_mut().zip(fds) {
        peer.service(fd);
    }
}

/// Pump until `done` says so; panic with `what` after [`PATIENCE`].
pub fn pump_until(peers: &mut [&mut Peer], what: &str, mut done: impl FnMut(&[&mut Peer]) -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done(peers) {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        pump(peers, Duration::from_millis(5));
    }
}

/// The `i`-th test prefix: distinct /24s under 10.0.0.0/8.
pub fn prefix(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(0x0a00_0000 + (i << 8), 24)
}

/// One UPDATE frame announcing [`prefix`]`(i)` with an attribute set no
/// other `i` shares (so exports cannot be packed together), carrying
/// `communities` extra 4-byte communities to give the frame bulk.
pub fn announce(i: u32, communities: usize) -> Vec<u8> {
    let mut attrs = vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(vec![65001, 100_000 + i])),
        PathAttr::NextHop(1),
    ];
    if communities > 0 {
        attrs.push(PathAttr::Communities((0..communities as u32).map(|c| (i << 12) | c).collect()));
    }
    Message::Update(UpdateMsg::announce(attrs, vec![prefix(i)]))
        .encode(4)
        .expect("UPDATE encodes")
}
