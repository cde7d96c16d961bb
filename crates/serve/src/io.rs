//! Readiness primitives shared by the server's I/O loop and the test
//! client: the `poll(2)` shim, the cross-thread [`Waker`], the capped
//! outbound [`OutBuf`], the inbound [`ReadBudget`], and [`Conn`] — one
//! nonblocking TCP connection with its [`xbgp_wire::Session`] FSM and its
//! outbound bytes.
//!
//! Nothing in here sleeps except [`wait`], and nothing blocks in `read`
//! or `write`: every socket is nonblocking, a short write leaves the rest
//! in the [`OutBuf`], and the caller asks `poll` for `POLLOUT` until it
//! drains.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use xbgp_wire::{Session, SessionConfig, SessionEvent, SessionState};

/// Size of the scratch buffer a [`Conn`] is read through.
pub const READ_CHUNK: usize = 64 * 1024;

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` (`POLLIN | POLLOUT`, or 0 for errors and
    /// hang-ups only, which `poll` always reports) on `fd`.
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// `poll` reported anything at all for this entry.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Data to read, or the peer hung up or the socket failed — a `read`
    /// will report which.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

extern "C" {
    // std links libc on every unix target, so the symbol resolves without
    // a `libc` crate. `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Sleep in `poll(2)` until one of `fds` is ready or `timeout` passes
/// (`None` = no timeout). Returns how many entries have `revents` set. The
/// timeout is rounded **up** to whole milliseconds, so a caller waiting
/// for a deadline never wakes before it and spins.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(d) => c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `PollFd`s laid out as `struct pollfd`, and the count passed is
        // the slice's own length, so the kernel reads and writes only
        // inside it, and only for the duration of the call. `poll` keeps
        // no pointer and does not touch the descriptors themselves: a
        // stale or closed fd yields POLLNVAL in `revents`, not undefined
        // behaviour.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Wakes a thread sleeping in [`wait`]: a nonblocking socket pair whose
/// read end sits in that thread's poll set. Clones share the pair, so both
/// ends stay open for as long as anyone can still write to it.
#[derive(Clone)]
pub struct Waker(Arc<WakerPair>);

struct WakerPair {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker(Arc::new(WakerPair { tx, rx })))
    }

    /// Make the read end readable. A full pipe means wake-ups are already
    /// pending, which is all this needs.
    pub fn wake(&self) {
        let _ = (&self.0.tx).write(&[1]);
    }

    /// The entry the sleeping thread puts in its poll set.
    pub fn pollfd(&self) -> PollFd {
        PollFd::new(self.0.rx.as_raw_fd(), POLLIN)
    }

    /// Swallow pending wake-ups. Call **before** looking at whatever the
    /// wakers published, so a wake-up that races the look is kept.
    pub fn drain(&self) {
        let mut sink = [0u8; 256];
        while matches!((&self.0.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

/// A push would take an [`OutBuf`] past its cap.
#[derive(Debug, PartialEq, Eq)]
pub struct Overflow;

/// Outbound bytes of one connection: what TCP has not taken yet, with the
/// partial-write offset. Holds whole BGP frames only, so anything appended
/// stays frame-aligned on the wire.
pub struct OutBuf {
    buf: Vec<u8>,
    /// `buf[..written]` has been taken by TCP.
    written: usize,
    cap: usize,
}

impl OutBuf {
    /// A buffer whose backlog [`OutBuf::push`] keeps at or under `cap`.
    pub fn with_cap(cap: usize) -> OutBuf {
        OutBuf { buf: Vec::new(), written: 0, cap }
    }

    /// Bytes queued and not yet taken by TCP.
    pub fn backlog(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Queue data frames. Refused whole — nothing is appended — when the
    /// backlog would pass the cap.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), Overflow> {
        if self.backlog().saturating_add(bytes.len()) > self.cap {
            return Err(Overflow);
        }
        self.push_control(bytes);
        Ok(())
    }

    /// Queue a session-control frame (OPEN, KEEPALIVE, NOTIFICATION) past
    /// the cap: the FSM emits a bounded handful of these, a few dozen
    /// bytes each, and the Cease that answers an overflow has to fit.
    pub fn push_control(&mut self, bytes: &[u8]) {
        // Reclaim the written prefix once it is at least half the buffer,
        // so a backlog that never fully drains cannot grow without bound.
        if self.written > 0 && self.written >= self.buf.len() / 2 {
            self.buf.drain(..self.written);
            self.written = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Write until the backlog is empty (`Ok(true)`) or `w` would block
    /// (`Ok(false)`).
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.written < self.buf.len() {
            match w.write(&self.buf[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.written = 0;
        Ok(true)
    }
}

/// How fast one connection may be read: a token bucket over bytes on the
/// caller's clock. Credit accrues with the clock, not per wake-up, so a
/// sender faster than `rate` is read at `rate` however late or unevenly
/// the reader is scheduled — as long as it is never away for longer than
/// `burst` takes to accrue.
pub struct ReadBudget {
    /// Bytes per second.
    rate: u64,
    burst: usize,
    tokens: usize,
    /// The clock up to which `tokens` is credited.
    stamp_ns: u64,
}

impl ReadBudget {
    /// A full bucket: `burst` bytes may be read at once, `rate` bytes a
    /// second from then on.
    pub fn full(rate: u64, burst: usize, now_ns: u64) -> ReadBudget {
        ReadBudget { rate, burst, tokens: burst, stamp_ns: now_ns }
    }

    /// Bytes that may be read at `now_ns`.
    pub fn available(&mut self, now_ns: u64) -> usize {
        let elapsed = now_ns.saturating_sub(self.stamp_ns);
        let earned = (elapsed as u128 * self.rate as u128 / 1_000_000_000) as usize;
        if self.tokens.saturating_add(earned) >= self.burst {
            self.tokens = self.burst;
            self.stamp_ns = now_ns;
        } else {
            self.tokens += earned;
            // Only the time the whole bytes took: the rest stays on the
            // clock, so rounding never loses credit.
            self.stamp_ns += (earned as u128 * 1_000_000_000 / self.rate as u128) as u64;
        }
        self.tokens
    }

    /// `n` bytes were read.
    pub fn spend(&mut self, n: usize) {
        self.tokens = self.tokens.saturating_sub(n);
    }

    /// When `want` bytes (at most `burst`) will be available; `None` if
    /// they were at the last [`ReadBudget::available`].
    pub fn ready_at(&self, want: usize) -> Option<u64> {
        let short = want.min(self.burst).checked_sub(self.tokens).filter(|&s| s > 0)?;
        let wait = (short as u128 * 1_000_000_000).div_ceil(self.rate as u128);
        Some(self.stamp_ns + wait as u64)
    }
}

/// What one [`Conn::read`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// This many bytes were read and run through the FSM.
    Data(usize),
    /// Nothing to read right now.
    WouldBlock,
    /// End of stream or a socket error: the connection is gone.
    Gone,
}

/// One nonblocking BGP connection: socket, edge FSM, outbound bytes.
pub struct Conn {
    stream: TcpStream,
    fsm: Session,
    out: OutBuf,
    /// The last flush stopped at `WouldBlock`; wait for `POLLOUT`.
    blocked: bool,
}

impl Conn {
    /// Take over a connected stream: make it nonblocking, start the FSM
    /// and queue our OPEN. `out_cap` bounds the data backlog.
    pub fn start(
        stream: TcpStream,
        cfg: SessionConfig,
        out_cap: usize,
        now_ns: u64,
    ) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            fsm: Session::new(cfg),
            out: OutBuf::with_cap(out_cap),
            blocked: false,
        };
        let events = conn.fsm.start(now_ns);
        conn.absorb(events, &mut Vec::new());
        Ok(conn)
    }

    /// This connection's poll-set entry: `POLLIN` when the caller wants
    /// to `read`, `POLLOUT` only while a flush is waiting for TCP.
    pub fn pollfd(&self, read: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if self.blocked {
            events |= POLLOUT;
        }
        PollFd::new(self.stream.as_raw_fd(), events)
    }

    /// One nonblocking `read` of at most `scratch.len()` bytes run through
    /// the FSM at clock `now_ns`. The FSM's own frames are queued here;
    /// everything else it reports is appended to `events`.
    pub fn read(
        &mut self,
        now_ns: u64,
        scratch: &mut [u8],
        events: &mut Vec<SessionEvent>,
    ) -> ReadStatus {
        loop {
            return match self.stream.read(scratch) {
                Ok(0) => ReadStatus::Gone,
                Ok(n) => {
                    let batch = self.fsm.on_bytes(now_ns, &scratch[..n]);
                    self.absorb(batch, events);
                    ReadStatus::Data(n)
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => ReadStatus::WouldBlock,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => ReadStatus::Gone,
            };
        }
    }

    /// Drive the FSM's timers (hold expiry, KEEPALIVE cadence).
    pub fn tick(&mut self, now_ns: u64, events: &mut Vec<SessionEvent>) {
        let batch = self.fsm.tick(now_ns);
        self.absorb(batch, events);
    }

    /// When [`Conn::tick`] next has work, on the clock `read` is fed.
    pub fn next_deadline(&self) -> Option<u64> {
        self.fsm.next_deadline()
    }

    /// Administrative close: queue Cease (if the session ever started)
    /// and move the FSM to Closed.
    pub fn shutdown(&mut self) {
        let events = self.fsm.shutdown();
        self.absorb(events, &mut Vec::new());
    }

    /// Whoever is behind this connection ended the session and its
    /// NOTIFICATION is queued: close the FSM without a Cease of our own.
    pub fn finish(&mut self) {
        self.fsm.shutdown();
    }

    /// The FSM reached Closed; flush what TCP takes and drop the socket.
    pub fn closed(&self) -> bool {
        self.fsm.state() == SessionState::Closed
    }

    /// Queue data frames, subject to the cap.
    pub fn queue(&mut self, bytes: &[u8]) -> Result<(), Overflow> {
        self.out.push(bytes)
    }

    pub fn backlog(&self) -> usize {
        self.out.backlog()
    }

    /// Hand TCP what it takes, unless an earlier flush is still waiting
    /// for `POLLOUT` (then the next [`Conn::writable`] does it).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.blocked && self.out.backlog() > 0 {
            self.blocked = !self.out.write_to(&mut self.stream)?;
        }
        Ok(())
    }

    /// `poll` reported `POLLOUT`.
    pub fn writable(&mut self) -> io::Result<()> {
        self.blocked = false;
        self.flush()
    }

    fn absorb(&mut self, batch: Vec<SessionEvent>, events: &mut Vec<SessionEvent>) {
        for ev in batch {
            match ev {
                SessionEvent::Send(bytes) => self.out.push_control(&bytes),
                other => events.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that takes `room` bytes and then would block.
    struct Throttle {
        taken: Vec<u8>,
        room: usize,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.taken.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn push_is_refused_whole_at_the_cap_and_accepted_again_once_drained() {
        let mut out = OutBuf::with_cap(10);
        assert_eq!(out.push(&[1; 6]), Ok(()));
        assert_eq!(out.push(&[2; 4]), Ok(()), "exactly at the cap still fits");
        assert_eq!(out.push(&[3; 1]), Err(Overflow));
        assert_eq!(out.backlog(), 10, "a refused push appends nothing");

        let mut sink = Throttle { taken: Vec::new(), room: 7 };
        assert!(!out.write_to(&mut sink).unwrap(), "partial write reports a remaining backlog");
        assert_eq!(out.backlog(), 3);
        assert_eq!(out.push(&[4; 8]), Err(Overflow), "cap counts the backlog, not the buffer");
        assert_eq!(out.push(&[4; 7]), Ok(()));

        sink.room = usize::MAX;
        assert!(out.write_to(&mut sink).unwrap());
        assert_eq!(out.backlog(), 0);
        let mut expected = vec![1; 6];
        expected.extend([2; 4]);
        expected.extend([4; 7]);
        assert_eq!(sink.taken, expected, "bytes leave in order, each exactly once");
    }

    #[test]
    fn control_frames_pass_a_full_buffer() {
        let mut out = OutBuf::with_cap(4);
        out.push(&[9; 4]).unwrap();
        assert_eq!(out.push(&[0]), Err(Overflow));
        out.push_control(&[7; 21]);
        assert_eq!(out.backlog(), 25, "the Cease after an overflow is queued behind the data");
    }

    #[test]
    fn a_backlog_that_never_drains_does_not_grow_the_buffer_without_bound() {
        let mut out = OutBuf::with_cap(64);
        let mut sink = Throttle { taken: Vec::new(), room: 0 };
        out.push(&[5; 16]).unwrap();
        for _ in 0..10_000 {
            out.push(&[5; 32]).unwrap();
            sink.room = 32;
            assert!(!out.write_to(&mut sink).unwrap(), "16 bytes always stay behind");
        }
        assert!(out.buf.capacity() <= 4 * 64, "written prefix is reclaimed");
        assert_eq!(sink.taken.len(), 10_000 * 32);
    }

    #[test]
    fn read_budget_pays_out_the_burst_then_the_rate_whatever_the_wake_ups() {
        // 1 000 bytes/s, 100-byte burst.
        let mut b = ReadBudget::full(1_000, 100, 0);
        assert_eq!(b.available(0), 100);
        assert_eq!(b.ready_at(100), None);
        b.spend(100);
        assert_eq!(b.available(0), 0);
        assert_eq!(b.ready_at(10), Some(10_000_000), "10 bytes take 10 ms");

        // Woken unevenly, and early enough that a byte is not whole yet:
        // the credit over one second is still exactly the rate.
        let mut got = 0;
        let mut now = 0;
        for step in [300_000, 1_700_000, 999_999, 1, 7_000_000].iter().cycle() {
            now += step;
            if now > 1_000_000_000 {
                break;
            }
            let n = b.available(now);
            b.spend(n);
            got += n;
        }
        let n = b.available(1_000_000_000);
        assert_eq!(got + n, 1_000);

        // Idle time refills to the burst and no further.
        b.spend(n);
        assert_eq!(b.available(60_000_000_000), 100);
        assert_eq!(b.ready_at(1_000), None, "a want is clamped to the burst");
    }

    #[test]
    fn waker_makes_the_read_end_ready_and_drain_clears_it() {
        let waker = Waker::new().unwrap();
        let mut fds = [waker.pollfd()];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        waker.clone().wake();
        waker.wake();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].readable());
        waker.drain();
        let mut fds = [waker.pollfd()];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn wait_rounds_a_sub_millisecond_timeout_up() {
        let waker = Waker::new().unwrap();
        let start = std::time::Instant::now();
        wait(&mut [waker.pollfd()], Some(Duration::from_micros(300))).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(300));
    }
}
