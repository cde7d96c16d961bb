//! The BGP session FSM: the one OPEN / KEEPALIVE / NOTIFICATION /
//! hold-timer state machine in the workspace.
//!
//! Every session the repository terminates runs through it — at the
//! socket edge of the `xbgp-serve` TCP runtime, and inside the daemon
//! host (`xbgp_driver::host`) for each configured neighbor, under netsim
//! and behind the runtime alike. It lives here, next to the codec, as a
//! pure state machine:
//!
//! * no I/O — byte chunks go in via [`Session::on_bytes`] (or
//!   [`Session::push`] + [`Session::step`], which also hands over the
//!   decoded UPDATE), frames to write come back as
//!   [`SessionEvent::Send`];
//! * no clock — every entry point takes `now_ns`, and the caller drives
//!   liveness by calling [`Session::tick`] at (or after)
//!   [`Session::next_deadline`]. Tests substitute a mock clock by just
//!   passing numbers.
//!
//! Malformed input never panics: any codec error is answered with the
//! NOTIFICATION mapped by [`WireError::notification_codes`] and the
//! session closes. Messages that are well-formed but wrong for the
//! current state close with an FSM error (code 5) whose subcode names
//! the state, per RFC 4271 §6.6.

use crate::error::WireError;
use crate::msg::{deframe, Message, MsgReader, MsgType, NotificationMsg, OpenMsg, UpdateMsg};

/// Static description of one session endpoint.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub local_asn: u32,
    /// BGP identifier sent in our OPEN.
    pub router_id: u32,
    /// Hold time proposed in OPEN (seconds); the negotiated value is the
    /// minimum of both sides. `0` proposes no liveness enforcement.
    pub hold_time_secs: u16,
    /// When set, the peer's OPEN must carry exactly this ASN; anything
    /// else closes with Bad Peer AS (2, 2).
    pub expect_asn: Option<u32>,
}

/// RFC 4271 session states (the subset a pre-established stream needs:
/// the Connect/Active dance belongs to the transport). The order is
/// relied on: the discriminants of the three states a message can be
/// misplaced in are the FSM-error subcodes of RFC 4271 §6.6, and the
/// first four index the `to=` labels of
/// `xbgp_daemon_fsm_transitions_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created, OPEN not yet sent.
    Idle,
    /// Our OPEN is out; waiting for the peer's.
    OpenSent,
    /// Peer's OPEN accepted and our KEEPALIVE sent; waiting for theirs.
    OpenConfirm,
    Established,
    /// Terminal; the transport should be torn down.
    Closed,
}

/// Why a session reached [`SessionState::Closed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// We detected an error and sent a NOTIFICATION with these codes.
    LocalError { code: u8, subcode: u8 },
    /// The peer sent us a NOTIFICATION.
    PeerNotification { code: u8, subcode: u8 },
    /// No message inside the negotiated hold time; we sent (4, 0).
    HoldTimerExpired,
    /// [`Session::shutdown`] — we sent Cease.
    AdminShutdown,
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloseReason::LocalError { code, subcode } => {
                write!(f, "closed with NOTIFICATION {code}/{subcode}")
            }
            CloseReason::PeerNotification { code, subcode } => {
                write!(f, "NOTIFICATION {code}/{subcode}")
            }
            CloseReason::HoldTimerExpired => f.write_str("hold timer expired"),
            CloseReason::AdminShutdown => f.write_str("shut down"),
        }
    }
}

/// What the FSM asks of its caller. Ordering is significant (e.g. a
/// `Send` of a NOTIFICATION precedes its `Closed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Write these bytes (one complete BGP frame) to the transport.
    Send(Vec<u8>),
    /// The session reached Established.
    Established {
        peer_asn: u32,
        peer_router_id: u32,
        hold_ns: u64,
        /// The peer confirmed the four-octet-AS capability: UPDATE bodies
        /// carry 4-byte AS numbers in both directions, else 2-byte.
        four_octet_as: bool,
    },
    /// A validated UPDATE frame (header + body, exactly as received) to
    /// forward into the daemon core.
    Update(Vec<u8>),
    /// The session is over; close the transport after flushing.
    Closed(CloseReason),
}

const SEC: u64 = 1_000_000_000;

/// One BGP session over a pre-established stream transport.
pub struct Session {
    cfg: SessionConfig,
    state: SessionState,
    reader: MsgReader,
    /// AS-number width for UPDATE bodies: 4 once the peer confirms the
    /// four-octet capability (we always offer it), else 2.
    asn_width: usize,
    /// Negotiated hold time (ns); 0 = liveness disabled.
    hold_ns: u64,
    /// Clock of the most recent well-formed inbound message.
    last_rx_ns: u64,
    /// When the next KEEPALIVE is due (hold/3 cadence); `u64::MAX` until
    /// the handshake arms it or when hold is 0.
    next_keepalive_ns: u64,
    peer_asn: u32,
    peer_router_id: u32,
    /// The `Closed` owed after the NOTIFICATION that was just handed out.
    closing: Option<CloseReason>,
}

impl Session {
    pub fn new(cfg: SessionConfig) -> Session {
        Session {
            cfg,
            state: SessionState::Idle,
            reader: MsgReader::new(),
            asn_width: 2,
            hold_ns: 0,
            last_rx_ns: 0,
            next_keepalive_ns: u64::MAX,
            peer_asn: 0,
            peer_router_id: 0,
            closing: None,
        }
    }

    /// A session that is Established from the first byte, as another
    /// `Session` negotiated it (its [`SessionEvent::Established`]): the
    /// daemon core's end of a connection whose handshake the socket edge
    /// ran. Hold time 0 — liveness stays with the session that owns the
    /// transport.
    pub fn adopted(
        cfg: SessionConfig,
        peer_asn: u32,
        peer_router_id: u32,
        four_octet_as: bool,
    ) -> Session {
        Session {
            state: SessionState::Established,
            asn_width: if four_octet_as { 4 } else { 2 },
            peer_asn,
            peer_router_id,
            ..Session::new(cfg)
        }
    }

    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Negotiated hold time in ns (0 until OPEN exchange, or when
    /// negotiated off).
    pub fn hold_ns(&self) -> u64 {
        self.hold_ns
    }

    /// Peer ASN learned from its OPEN (0 before then).
    pub fn peer_asn(&self) -> u32 {
        self.peer_asn
    }

    /// AS-number width of UPDATE bodies on this session (2 until the
    /// peer's OPEN says otherwise).
    pub fn asn_width(&self) -> usize {
        self.asn_width
    }

    /// Begin the handshake: emit our OPEN. Idle → OpenSent.
    pub fn start(&mut self, now_ns: u64) -> Vec<SessionEvent> {
        if self.state != SessionState::Idle {
            return Vec::new();
        }
        self.state = SessionState::OpenSent;
        self.last_rx_ns = now_ns;
        // Until negotiation the proposed hold bounds the wait for the
        // peer's OPEN, so a silent peer cannot hold the slot forever.
        self.hold_ns = u64::from(self.cfg.hold_time_secs) * SEC;
        let open =
            OpenMsg::standard(self.cfg.local_asn, self.cfg.hold_time_secs, self.cfg.router_id);
        vec![self.send(&Message::Open(open))]
    }

    /// Feed raw bytes read from the transport.
    pub fn on_bytes(&mut self, now_ns: u64, data: &[u8]) -> Vec<SessionEvent> {
        self.push(data);
        std::iter::from_fn(|| self.step(now_ns)).map(|(event, _)| event).collect()
    }

    /// Buffer raw bytes read from the transport for [`Session::step`].
    /// A session that is not running drops them.
    pub fn push(&mut self, data: &[u8]) {
        if !matches!(self.state, SessionState::Idle | SessionState::Closed) {
            self.reader.push(data);
        }
    }

    /// The next event the buffered input produces, if any; call until
    /// `None`. An [`SessionEvent::Update`] comes with the decode that
    /// validated it, so a caller that applies the UPDATE need not decode
    /// the frame again.
    pub fn step(&mut self, now_ns: u64) -> Option<(SessionEvent, Option<UpdateMsg>)> {
        if let Some(reason) = self.closing.take() {
            return Some((SessionEvent::Closed(reason), None));
        }
        while !matches!(self.state, SessionState::Idle | SessionState::Closed) {
            let out = match self.reader.next_frame() {
                Ok(Some(frame)) => self.handle_frame(now_ns, frame),
                Ok(None) => return None,
                Err(e) => Some((self.fail(&e), None)),
            };
            if out.is_some() {
                return out;
            }
        }
        None
    }

    /// Drive timers: hold-timer enforcement and the KEEPALIVE cadence.
    /// Call at (or any time after) [`Session::next_deadline`].
    pub fn tick(&mut self, now_ns: u64) -> Vec<SessionEvent> {
        if matches!(self.state, SessionState::Idle | SessionState::Closed) || self.hold_ns == 0 {
            return Vec::new();
        }
        if now_ns.saturating_sub(self.last_rx_ns) >= self.hold_ns {
            return self.close_now(NotificationMsg::new(4, 0), CloseReason::HoldTimerExpired);
        }
        if now_ns < self.next_keepalive_ns {
            return Vec::new();
        }
        self.next_keepalive_ns = now_ns + self.hold_ns / 3;
        vec![self.send(&Message::Keepalive)]
    }

    /// The next clock value at which [`Session::tick`] has work to do,
    /// if liveness is armed.
    pub fn next_deadline(&self) -> Option<u64> {
        if matches!(self.state, SessionState::Idle | SessionState::Closed) || self.hold_ns == 0 {
            return None;
        }
        Some((self.last_rx_ns + self.hold_ns).min(self.next_keepalive_ns))
    }

    /// Administrative shutdown: send Cease and close.
    pub fn shutdown(&mut self) -> Vec<SessionEvent> {
        if matches!(self.state, SessionState::Idle | SessionState::Closed) {
            self.state = SessionState::Closed;
            return vec![SessionEvent::Closed(CloseReason::AdminShutdown)];
        }
        self.close_now(NotificationMsg::cease(), CloseReason::AdminShutdown)
    }

    /// The caller found `e` in a message the FSM let through (an UPDATE
    /// that decodes but cannot be applied): the `Send` of the mapped
    /// NOTIFICATION comes back, the session is closed, and the next
    /// [`Session::step`] reports the `Closed`.
    pub fn fail(&mut self, e: &WireError) -> SessionEvent {
        self.notify(NotificationMsg::from_error(e))
    }

    fn send(&self, msg: &Message) -> SessionEvent {
        SessionEvent::Send(msg.encode(self.asn_width).expect("session messages encode"))
    }

    /// Close on an error of ours: NOTIFICATION now, `Closed` next.
    fn notify(&mut self, n: NotificationMsg) -> SessionEvent {
        self.state = SessionState::Closed;
        self.closing = Some(CloseReason::LocalError { code: n.code, subcode: n.subcode });
        self.send(&Message::Notification(n))
    }

    /// Close outside [`Session::step`]: the NOTIFICATION and the `Closed`
    /// in one batch.
    fn close_now(&mut self, n: NotificationMsg, reason: CloseReason) -> Vec<SessionEvent> {
        self.state = SessionState::Closed;
        vec![self.send(&Message::Notification(n)), SessionEvent::Closed(reason)]
    }

    fn handle_frame(
        &mut self,
        now_ns: u64,
        frame: Vec<u8>,
    ) -> Option<(SessionEvent, Option<UpdateMsg>)> {
        let (ty, body) = match deframe(&frame) {
            Ok(x) => x,
            Err(e) => return Some((self.fail(&e), None)),
        };
        self.last_rx_ns = now_ns;
        let event = match (self.state, ty) {
            (SessionState::OpenSent, MsgType::Open) => {
                let open = match Message::decode_body(MsgType::Open, body, self.asn_width) {
                    Ok(Message::Open(o)) => o,
                    Ok(_) => unreachable!("Open type decodes to Open"),
                    Err(e) => return Some((self.fail(&e), None)),
                };
                let peer_asn = open.negotiated_asn();
                if self.cfg.expect_asn.is_some_and(|a| a != peer_asn) {
                    // Bad Peer AS (RFC 4271 §6.2).
                    return Some((self.notify(NotificationMsg::new(2, 2)), None));
                }
                self.peer_asn = peer_asn;
                self.peer_router_id = open.router_id;
                self.asn_width = if open.supports_four_octet_as() { 4 } else { 2 };
                self.hold_ns = u64::from(open.hold_time.min(self.cfg.hold_time_secs)) * SEC;
                self.next_keepalive_ns = if self.hold_ns > 0 {
                    now_ns + self.hold_ns / 3
                } else {
                    u64::MAX
                };
                self.state = SessionState::OpenConfirm;
                self.send(&Message::Keepalive)
            }
            (SessionState::OpenConfirm, MsgType::Keepalive) => {
                self.state = SessionState::Established;
                SessionEvent::Established {
                    peer_asn: self.peer_asn,
                    peer_router_id: self.peer_router_id,
                    hold_ns: self.hold_ns,
                    four_octet_as: self.asn_width == 4,
                }
            }
            (SessionState::Established, MsgType::Update) => {
                // Full-body validation: nothing behind this session sees
                // an UPDATE it could not decode.
                return Some(match UpdateMsg::decode_body(body, self.asn_width) {
                    Ok(update) => (SessionEvent::Update(frame), Some(update)),
                    Err(e) => (self.fail(&e), None),
                });
            }
            (SessionState::Established, MsgType::Keepalive) => return None, // liveness only
            (_, MsgType::Notification) => {
                self.state = SessionState::Closed;
                SessionEvent::Closed(CloseReason::PeerNotification {
                    code: body[0],
                    subcode: body[1],
                })
            }
            // Well-formed but wrong for this state: FSM error, subcode
            // naming the state (RFC 4271 §6.6).
            (state, _) => self.notify(NotificationMsg::new(5, state as u8)),
        };
        Some((event, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(asn: u32, id: u32) -> SessionConfig {
        SessionConfig {
            local_asn: asn,
            router_id: id,
            hold_time_secs: 90,
            expect_asn: None,
        }
    }

    /// Collect the `Send` payloads of an event batch into one stream.
    fn sent(events: &[SessionEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in events {
            if let SessionEvent::Send(b) = e {
                out.extend_from_slice(b);
            }
        }
        out
    }

    fn notification_codes(events: &[SessionEvent]) -> Option<(u8, u8)> {
        events.iter().find_map(|e| match e {
            SessionEvent::Closed(CloseReason::LocalError { code, subcode }) => {
                Some((*code, *subcode))
            }
            _ => None,
        })
    }

    /// Drive two sessions against each other until neither emits bytes.
    fn handshake(a: &mut Session, b: &mut Session) -> (Vec<SessionEvent>, Vec<SessionEvent>) {
        let mut ev_a = a.start(0);
        let mut ev_b = b.start(0);
        loop {
            let bytes_a: Vec<u8> = sent(&ev_a);
            let bytes_b: Vec<u8> = sent(&ev_b);
            ev_a.retain(|e| !matches!(e, SessionEvent::Send(_)));
            ev_b.retain(|e| !matches!(e, SessionEvent::Send(_)));
            if bytes_a.is_empty() && bytes_b.is_empty() {
                return (ev_a, ev_b);
            }
            let more_b = b.on_bytes(1, &bytes_a);
            let more_a = a.on_bytes(1, &bytes_b);
            ev_a.extend(more_a);
            ev_b.extend(more_b);
        }
    }

    #[test]
    fn two_sessions_reach_established() {
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        let (ev_a, ev_b) = handshake(&mut a, &mut b);
        assert_eq!(a.state(), SessionState::Established);
        assert_eq!(b.state(), SessionState::Established);
        assert!(ev_a.iter().any(|e| matches!(
            e,
            SessionEvent::Established { peer_asn: 65002, peer_router_id: 2, .. }
        )));
        assert!(ev_b
            .iter()
            .any(|e| matches!(e, SessionEvent::Established { peer_asn: 65001, .. })));
        assert_eq!(a.hold_ns(), 90 * SEC);
        assert_eq!(a.peer_asn(), 65002);
    }

    #[test]
    fn expected_asn_mismatch_closes_with_bad_peer_as() {
        let mut a = Session::new(SessionConfig { expect_asn: Some(64999), ..cfg(65001, 1) });
        let mut b = Session::new(cfg(65002, 2));
        let (ev_a, _) = handshake(&mut a, &mut b);
        assert_eq!(a.state(), SessionState::Closed);
        assert_eq!(notification_codes(&ev_a), Some((2, 2)));
    }

    #[test]
    fn open_negotiates_minimum_hold_time() {
        for (ours, theirs, agreed) in [(90, 30, 30), (30, 90, 30), (90, 0, 0), (0, 90, 0)] {
            let mut s = Session::new(SessionConfig { hold_time_secs: ours, ..cfg(65001, 1) });
            s.start(0);
            let open = Message::Open(OpenMsg::standard(65002, theirs, 2)).encode(4).unwrap();
            s.on_bytes(1, &open);
            assert_eq!(s.state(), SessionState::OpenConfirm);
            assert_eq!(s.hold_ns(), agreed * SEC, "min({ours}, {theirs})");
        }
    }

    /// AS_PATH [65001, 100, 200] announced for one prefix, encoded at
    /// `width`.
    fn announce(width: usize) -> Vec<u8> {
        use crate::attr::{AsPath, Origin, PathAttr};
        let attrs = vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![65001, 100, 200])),
            PathAttr::NextHop(1),
        ];
        Message::Update(UpdateMsg::announce(attrs, vec!["10.0.0.0/24".parse().unwrap()]))
            .encode(width)
            .unwrap()
    }

    #[test]
    fn adopted_session_is_established_at_the_adopted_width_with_no_liveness() {
        for (four_octet_as, good, bad) in [(true, 4, 2), (false, 2, 4)] {
            let adopt = || Session::adopted(cfg(65002, 2), 65001, 1, four_octet_as);
            let mut s = adopt();
            assert_eq!(s.state(), SessionState::Established);
            assert_eq!((s.peer_asn(), s.asn_width(), s.hold_ns()), (65001, good, 0));
            assert_eq!(s.next_deadline(), None, "liveness stays with the adopting edge");
            assert!(s.tick(1_000 * SEC).is_empty());

            let upd = announce(good);
            let ev = s.on_bytes(1, &upd);
            assert!(matches!(&ev[..], [SessionEvent::Update(f)] if *f == upd), "{ev:?}");
            let ev = s.on_bytes(2, &announce(bad));
            assert_eq!(
                notification_codes(&ev),
                Some((3, 11)),
                "width {bad} on a width-{good} session"
            );

            let open = Message::Open(OpenMsg::standard(65001, 90, 1)).encode(4).unwrap();
            assert_eq!(notification_codes(&adopt().on_bytes(1, &open)), Some((5, 3)));
        }
    }

    #[test]
    fn fail_sends_the_mapped_notification_and_the_next_step_closes() {
        let mut s = Session::adopted(cfg(65002, 2), 65001, 1, true);
        let sent = s.fail(&WireError::MissingWellKnown("NEXT_HOP"));
        let SessionEvent::Send(frame) = sent else {
            panic!("expected a Send, got {sent:?}");
        };
        assert_eq!(
            Message::decode(&frame, 4).unwrap(),
            Message::Notification(NotificationMsg::new(3, 3))
        );
        assert_eq!(s.state(), SessionState::Closed);
        let closed = SessionEvent::Closed(CloseReason::LocalError { code: 3, subcode: 3 });
        assert_eq!(s.step(1), Some((closed, None)));
        assert_eq!(s.step(1), None);
    }

    #[test]
    fn updates_flow_only_when_established() {
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        handshake(&mut a, &mut b);
        let upd = Message::Update(UpdateMsg::withdraw(vec!["10.0.0.0/24".parse().unwrap()]))
            .encode(4)
            .unwrap();
        let ev = b.on_bytes(2, &upd);
        assert!(matches!(&ev[..], [SessionEvent::Update(f)] if *f == upd));
    }

    #[test]
    fn update_in_open_sent_is_fsm_error_subcode_1() {
        let mut s = Session::new(cfg(65001, 1));
        s.start(0);
        let upd = Message::Update(UpdateMsg::withdraw(vec!["10.0.0.0/24".parse().unwrap()]))
            .encode(4)
            .unwrap();
        let ev = s.on_bytes(1, &upd);
        assert_eq!(s.state(), SessionState::Closed);
        assert_eq!(notification_codes(&ev), Some((5, 1)));
    }

    #[test]
    fn open_in_open_confirm_is_fsm_error_subcode_2() {
        let mut s = Session::new(cfg(65001, 1));
        s.start(0);
        let open = Message::Open(OpenMsg::standard(65002, 90, 2)).encode(4).unwrap();
        s.on_bytes(1, &open); // → OpenConfirm
        let ev = s.on_bytes(2, &open); // second OPEN is misplaced
        assert_eq!(notification_codes(&ev), Some((5, 2)));
    }

    #[test]
    fn open_in_established_is_fsm_error_subcode_3() {
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        handshake(&mut a, &mut b);
        let open = Message::Open(OpenMsg::standard(65001, 90, 1)).encode(4).unwrap();
        let ev = b.on_bytes(2, &open);
        assert_eq!(notification_codes(&ev), Some((5, 3)));
    }

    #[test]
    fn hold_timer_expiry_with_mock_clock() {
        // The clock here is just the numbers we pass in — a mock clock.
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        handshake(&mut a, &mut b);
        assert_eq!(a.hold_ns(), 90 * SEC);

        // One keepalive keeps it alive… (our own outbound keepalive may
        // fire here too; the point is the session does not close)
        let t1 = 40 * SEC;
        let ev1 = a.tick(t1);
        assert!(
            !ev1.iter().any(|e| matches!(e, SessionEvent::Closed(_))),
            "hold not yet expired"
        );
        let ka = Message::Keepalive.encode(4).unwrap();
        a.on_bytes(t1, &ka);

        // …then silence past the negotiated hold expires it exactly once.
        let t2 = t1 + 90 * SEC;
        let ev = a.tick(t2);
        assert_eq!(a.state(), SessionState::Closed);
        assert!(matches!(ev[0], SessionEvent::Send(_)));
        let SessionEvent::Send(frame) = &ev[0] else {
            unreachable!()
        };
        let Message::Notification(n) = Message::decode(frame, 4).unwrap() else {
            panic!("expected NOTIFICATION, got {frame:?}");
        };
        assert_eq!((n.code, n.subcode), (4, 0));
        assert_eq!(ev[1], SessionEvent::Closed(CloseReason::HoldTimerExpired));
        assert!(a.tick(t2 + SEC).is_empty(), "closed sessions are silent");
    }

    #[test]
    fn keepalives_emitted_at_a_third_of_hold() {
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        handshake(&mut a, &mut b);
        let deadline = a.next_deadline().expect("liveness armed");
        assert!(deadline <= 1 + 30 * SEC, "keepalive due at hold/3, got {deadline}");
        let ev = a.tick(deadline);
        assert!(
            matches!(&ev[..], [SessionEvent::Send(f)] if f.len() == crate::HEADER_LEN),
            "a bare KEEPALIVE goes out"
        );
        assert!(a.tick(deadline + 1).is_empty(), "cadence re-armed, not due again");
    }

    #[test]
    fn peer_notification_closes_without_reply() {
        let mut a = Session::new(cfg(65001, 1));
        let mut b = Session::new(cfg(65002, 2));
        handshake(&mut a, &mut b);
        let n = Message::Notification(NotificationMsg::cease()).encode(4).unwrap();
        let ev = a.on_bytes(2, &n);
        assert_eq!(
            ev,
            vec![SessionEvent::Closed(CloseReason::PeerNotification { code: 6, subcode: 2 })]
        );
        assert_eq!(a.state(), SessionState::Closed);
    }

    #[test]
    fn shutdown_sends_cease() {
        let mut a = Session::new(cfg(65001, 1));
        a.start(0);
        let ev = a.shutdown();
        assert!(matches!(ev[0], SessionEvent::Send(_)));
        assert_eq!(ev[1], SessionEvent::Closed(CloseReason::AdminShutdown));
    }

    /// A valid handshake byte stream (peer OPEN + KEEPALIVE) as one buffer.
    fn peer_handshake_bytes() -> Vec<u8> {
        let mut bytes = Message::Open(OpenMsg::standard(65002, 90, 2)).encode(4).unwrap();
        bytes.extend_from_slice(&Message::Keepalive.encode(4).unwrap());
        bytes
    }

    proptest! {
        /// Truncated inbound streams never panic and never falsely
        /// establish: the FSM either waits for more bytes or closes.
        #[test]
        fn truncated_handshake_never_panics(cut in 0usize..48) {
            let bytes = peer_handshake_bytes();
            let cut = cut.min(bytes.len());
            let mut s = Session::new(cfg(65001, 1));
            s.start(0);
            let ev = s.on_bytes(1, &bytes[..cut]);
            prop_assert!(!ev.iter().any(|e| matches!(e, SessionEvent::Update(_))));
            if cut < bytes.len() {
                // A prefix alone can at most reach OpenConfirm (the full
                // OPEN is in, the KEEPALIVE is not).
                prop_assert!(!ev
                    .iter()
                    .any(|e| matches!(e, SessionEvent::Established { .. })));
            }
            // Feeding the remainder afterwards either completes the
            // handshake or the session had already (legitimately) closed.
            let ev2 = s.on_bytes(2, &bytes[cut..]);
            let established = ev
                .iter()
                .chain(ev2.iter())
                .any(|e| matches!(e, SessionEvent::Established { .. }));
            prop_assert!(established || s.state() == SessionState::Closed
                || s.state() == SessionState::Established);
            if s.state() == SessionState::Established {
                prop_assert!(established);
            }
        }

        /// Byte-flipped handshake streams never panic; every local close
        /// carries a NOTIFICATION whose codes are in the RFC error space;
        /// and flips inside the first frame's marker close with exactly
        /// (1, 1) — connection not synchronized.
        #[test]
        fn mutated_handshake_closes_with_mapped_codes(pos in 0usize..48, flip in 1u8..=255) {
            let mut bytes = peer_handshake_bytes();
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= flip; // guaranteed to change the byte
            let mut s = Session::new(cfg(65001, 1));
            s.start(0);
            let ev = s.on_bytes(1, &bytes);
            if let Some((code, subcode)) = notification_codes(&ev) {
                prop_assert!((1..=6).contains(&code), "code {code} outside RFC space");
                // Every emitted pair must be one the codec can produce
                // (or an FSM/open-policy error the FSM itself maps).
                let known = [
                    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 6), (3, 1), (3, 3),
                    (3, 4), (3, 5), (3, 6), (3, 10), (3, 11), (5, 1), (5, 2), (5, 3),
                ];
                prop_assert!(
                    known.contains(&(code, subcode)),
                    "unexpected codes ({code}, {subcode})"
                );
            }
            if pos < 16 {
                prop_assert_eq!(
                    notification_codes(&ev),
                    Some((1, 1)),
                    "marker corruption must close as not-synchronized"
                );
            }
            // Whatever happened, a closed session stays closed and silent.
            if s.state() == SessionState::Closed {
                prop_assert!(s.on_bytes(2, &peer_handshake_bytes()).is_empty());
            }
        }

        /// `on_bytes` is `push` + `step` with the decodes dropped: on any
        /// stream the two report the same events in the same order, every
        /// `Update` — and nothing else — comes with a decode, and that
        /// decode is the frame's.
        #[test]
        fn on_bytes_and_step_agree_event_for_event(
            pos in 0usize..200,
            flip in 0u8..=255,
            cut in 0usize..200,
        ) {
            let mut bytes = peer_handshake_bytes();
            bytes.extend_from_slice(&announce(4));
            bytes.extend_from_slice(&Message::Keepalive.encode(4).unwrap());
            bytes.extend_from_slice(&announce(4));
            let pos = pos % bytes.len();
            bytes[pos] ^= flip; // flip 0: the stream as it is
            let cut = cut % bytes.len();

            let (mut a, mut b) = (Session::new(cfg(65001, 1)), Session::new(cfg(65001, 1)));
            prop_assert_eq!(a.start(0), b.start(0));
            for (now, chunk) in [(1, &bytes[..cut]), (2, &bytes[cut..])] {
                let whole = a.on_bytes(now, chunk);
                b.push(chunk);
                let mut stepped = Vec::new();
                while let Some((event, update)) = b.step(now) {
                    match &event {
                        SessionEvent::Update(frame) => {
                            let body = &frame[crate::HEADER_LEN..];
                            prop_assert_eq!(update, Some(UpdateMsg::decode_body(body, 4).unwrap()));
                        }
                        _ => prop_assert_eq!(update, None),
                    }
                    stepped.push(event);
                }
                prop_assert_eq!(whole, stepped);
                prop_assert_eq!(a.state(), b.state());
            }
            if flip == 0 {
                prop_assert_eq!(a.state(), SessionState::Established);
            }
        }

        /// Mutated single KEEPALIVEs after establishment: any corruption
        /// that surfaces an error closes the session with mapped codes —
        /// and never panics.
        #[test]
        fn mutated_keepalive_in_established_never_panics(pos in 0usize..19, flip in 1u8..=255) {
            let mut a = Session::new(cfg(65001, 1));
            let mut b = Session::new(cfg(65002, 2));
            handshake(&mut a, &mut b);
            let mut ka = Message::Keepalive.encode(4).unwrap();
            let pos = pos.min(ka.len() - 1);
            ka[pos] ^= flip;
            let ev = a.on_bytes(2, &ka);
            prop_assert!(ev.iter().all(|e| !matches!(e, SessionEvent::Update(_))));
            if let Some((code, _)) = notification_codes(&ev) {
                prop_assert!((1..=6).contains(&code));
                prop_assert_eq!(a.state(), SessionState::Closed);
            }
        }
    }
}
