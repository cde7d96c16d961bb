//! A loopback BGP peer driven by hand on the runtime's own nonblocking
//! pump ([`crate::io::Conn`]: socket, its own [`xbgp_wire::Session`] FSM
//! — the handshake is symmetric, so edge-vs-edge works — and outbound
//! buffer). A peer does what its caller asks and nothing in between — it
//! does not read, write or tick unless pumped — so "a peer that stops
//! reading" is a peer the caller stops pumping, and any number of peers
//! run on the one calling thread.
//!
//! Every peer keeps the table the server has exported to it, so a caller
//! can check exports as well as the server's own Loc-RIB.

use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xbgp_wire::msg::{deframe, update_sections};
use xbgp_wire::{CloseReason, Ipv4Prefix, SessionConfig, SessionEvent};

use crate::io::{wait, Conn, PollFd, ReadStatus, READ_CHUNK};

/// The longest one [`pump_until`] turn sleeps before it asks its
/// condition again.
const TURN: Duration = Duration::from_millis(1);

/// One loopback BGP session and the table it has been sent.
pub struct Peer {
    conn: Conn,
    epoch: Instant,
    scratch: Vec<u8>,
    events: Vec<SessionEvent>,
    pub established: bool,
    /// Prefixes the server has announced to this peer and not withdrawn.
    pub rib: BTreeSet<Ipv4Prefix>,
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
    pub fn connect(addr: SocketAddr, router_id: u32) -> io::Result<Peer> {
        let cfg = SessionConfig {
            local_asn: 65001,
            router_id,
            hold_time_secs: 90,
            expect_asn: None,
        };
        // No cap: callers queue what they mean to send.
        let conn = Conn::start(TcpStream::connect(addr)?, cfg, usize::MAX, 0)?;
        Ok(Peer {
            conn,
            epoch: Instant::now(),
            scratch: vec![0u8; READ_CHUNK],
            events: Vec::new(),
            established: false,
            rib: BTreeSet::new(),
            updates_rx: 0,
            closed: None,
            gone: false,
        })
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

    /// Read what `poll` reported, run the FSM's timers, write what is
    /// queued. Each UPDATE's withdrawn routes and NLRI — not its
    /// attributes — are decoded once more here, for [`Peer::rib`].
    fn service(&mut self, fd: PollFd) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if fd.writable() {
            self.gone |= self.conn.writable().is_err();
        }
        while fd.readable() && !self.gone {
            match self.conn.read(now, &mut self.scratch, &mut self.events) {
                ReadStatus::Data(_) => {}
                ReadStatus::WouldBlock => break,
                ReadStatus::Gone => self.gone = true,
            }
        }
        self.conn.tick(now, &mut self.events);
        for ev in self.events.drain(..) {
            match ev {
                SessionEvent::Established { .. } => self.established = true,
                SessionEvent::Update(frame) => {
                    self.updates_rx += 1;
                    // The FSM validated the frame: its section lengths hold.
                    let (_, body) = deframe(&frame).expect("a whole frame");
                    let (wd, _, nlri) = update_sections(body).expect("UPDATE sections");
                    for p in Ipv4Prefix::decode_run(wd).expect("withdrawn routes") {
                        self.rib.remove(&p);
                    }
                    self.rib.extend(Ipv4Prefix::decode_run(nlri).expect("NLRI"));
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
/// Panics if `poll` itself fails.
pub fn pump(peers: &mut [&mut Peer], timeout: Duration) {
    let mut fds: Vec<PollFd> = peers.iter().map(|p| p.conn.pollfd(!p.gone)).collect();
    wait(&mut fds, Some(timeout)).expect("poll");
    for (peer, fd) in peers.iter_mut().zip(fds) {
        peer.service(fd);
    }
}

/// Pump until `done` says so, asking it again after every turn. Returns
/// whether it did within `patience`.
pub fn pump_until(
    peers: &mut [&mut Peer],
    patience: Duration,
    mut done: impl FnMut(&mut [&mut Peer]) -> bool,
) -> bool {
    let deadline = Instant::now() + patience;
    while !done(peers) {
        if Instant::now() >= deadline {
            return false;
        }
        pump(peers, TURN);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_until_reports_whether_the_condition_held_in_time() {
        assert!(pump_until(&mut [], Duration::ZERO, |_| true));
        let start = Instant::now();
        assert!(!pump_until(&mut [], Duration::from_millis(5), |_| false));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
