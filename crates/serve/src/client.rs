//! Loopback BGP client used by the selftest and the peer-scaling bench.
//!
//! Each client owns one TCP connection, run on the same nonblocking pump
//! as the server's sessions ([`crate::io::Conn`]: socket, its own
//! [`xbgp_wire::Session`] FSM — the handshake is symmetric, so
//! edge-vs-edge works — and outbound buffer) and sleeps only in `poll`.
//! After Established it pushes its assigned UPDATE frames as fast as TCP
//! takes them, round by round — optionally paced — and then **stays
//! connected** until told to stop: disconnecting early would make the
//! daemon tear the slot down and flush the routes this client announced,
//! destroying Loc-RIB parity.
//!
//! Neither side can deadlock the other: nobody blocks in `write`, so a
//! client busy sending still finds its inbound drained the next time
//! `poll` reports it, and the server buffers what a client has not read.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xbgp_wire::{SessionConfig, SessionEvent};

use crate::io::{wait, Conn, ReadStatus, READ_CHUNK};

/// The plan is copied into the connection's buffer this much at a time.
const LOW_WATER: usize = 64 * 1024;

/// Reads per turn, so a client drowning in exports still sends.
const READ_BURST: usize = 16;

/// The longest `poll` sleeps: `stop` is a flag the caller flips, not a
/// descriptor, so it is looked at this often. Not on the data path —
/// socket readiness and the next round's due time end the sleep sooner.
const STOP_CHECK: Duration = Duration::from_millis(5);

/// What one client pushes after establishing.
pub struct ClientPlan {
    /// UPDATE frames carrying the initial table slice.
    pub initial: Vec<Vec<u8>>,
    /// Per-round UPDATE frames (the churn storm), sent in order.
    pub rounds: Vec<Vec<Vec<u8>>>,
    /// Wall-clock pause between rounds; `None` = blast as fast as TCP
    /// accepts.
    pub round_gap: Option<Duration>,
}

/// Outcome of one client's run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientOutcome {
    pub established: bool,
    pub frames_sent: u64,
    /// UPDATE frames received back from the server (its Adj-RIB-Out fan).
    pub frames_rx: u64,
    /// The session closed before `stop` was raised.
    pub closed_early: bool,
}

/// Connect, handshake, push the plan, then hold the session open until
/// `stop` flips. Returns what happened for assertions upstream.
pub fn run(
    addr: SocketAddr,
    asn: u32,
    router_id: u32,
    plan: ClientPlan,
    stop: &AtomicBool,
) -> std::io::Result<ClientOutcome> {
    let stream = connect_with_retry(addr, Duration::from_secs(10))?;
    let epoch = Instant::now();
    let now = move || epoch.elapsed().as_nanos() as u64;
    let cfg = SessionConfig {
        local_asn: asn,
        router_id,
        hold_time_secs: 90,
        expect_asn: None,
    };
    // No cap: the buffer never holds more than LOW_WATER plus one frame.
    let mut conn = Conn::start(stream, cfg, usize::MAX, now())?;
    let mut out = ClientOutcome::default();

    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events = Vec::new();
    // Frames of the current round not yet handed to the connection.
    let mut pending: VecDeque<Vec<u8>> = VecDeque::new();
    let mut initial = Some(plan.initial);
    let mut rounds = plan.rounds.into_iter();
    // When the next round may start, on the `now` clock.
    let mut next_round_at = 0u64;

    loop {
        if stop.load(Ordering::Relaxed) {
            conn.shutdown();
            let _ = conn.flush();
            break;
        }

        if out.established && pending.is_empty() {
            if let Some(frames) = initial.take() {
                pending.extend(frames);
                next_round_at = now();
            } else if now() >= next_round_at {
                if let Some(round) = rounds.next() {
                    pending.extend(round);
                    if let Some(gap) = plan.round_gap {
                        next_round_at = now() + gap.as_nanos() as u64;
                    }
                }
            }
        }
        while conn.backlog() < LOW_WATER {
            let Some(frame) = pending.pop_front() else {
                break;
            };
            conn.queue(&frame).expect("uncapped buffer");
            out.frames_sent += 1;
        }
        conn.flush()?;

        // Sleep until the socket is ready, the next round is due, the
        // FSM's next timer, or the next look at `stop`.
        let timeout = if !pending.is_empty() && conn.backlog() == 0 {
            Duration::ZERO
        } else {
            let round_due = (pending.is_empty() && initial.is_none() && rounds.len() > 0)
                .then_some(next_round_at);
            let due = [round_due, conn.next_deadline()].into_iter().flatten().min();
            due.map_or(STOP_CHECK, |d| {
                Duration::from_nanos(d.saturating_sub(now())).min(STOP_CHECK)
            })
        };
        let mut fds = [conn.pollfd(true)];
        wait(&mut fds, Some(timeout))?;

        if fds[0].writable() {
            conn.writable()?;
        }
        let mut gone = false;
        if fds[0].readable() {
            for _ in 0..READ_BURST {
                match conn.read(now(), &mut scratch, &mut events) {
                    ReadStatus::Data(_) => {}
                    ReadStatus::WouldBlock => break,
                    ReadStatus::Gone => {
                        gone = true;
                        break;
                    }
                }
            }
        }
        conn.tick(now(), &mut events);
        for ev in events.drain(..) {
            match ev {
                SessionEvent::Established { .. } => out.established = true,
                SessionEvent::Update(_) => out.frames_rx += 1,
                SessionEvent::Send(_) | SessionEvent::Closed(_) => {}
            }
        }
        if gone || conn.closed() {
            let _ = conn.flush();
            out.closed_early = !stop.load(Ordering::Relaxed);
            break;
        }
    }
    Ok(out)
}

fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
