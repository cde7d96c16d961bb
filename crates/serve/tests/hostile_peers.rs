//! Peers that misbehave, against the real runtime: each costs itself and
//! nobody else, and the Loc-RIB the surviving sessions leave is the
//! oracle's.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{announce, prefix, PATIENCE};
use xbgp_driver::Dut;
use xbgp_harness::churn::dump_diff;
use xbgp_serve::peer::{pump_until, Peer};
use xbgp_serve::server::{INGRESS_BURST, INGRESS_RATE};
use xbgp_serve::{ServeConfig, Server};
use xbgp_wire::attr::Origin;
use xbgp_wire::{
    AsPath, Capability, CloseReason, Ipv4Prefix, Message, MsgReader, OpenMsg, PathAttr, UpdateMsg,
};

fn assert_oracle(server: &Server, expected: impl Iterator<Item = Ipv4Prefix>) {
    let rib = server.loc_rib();
    assert_eq!(dump_diff(&rib, &server.oracle_loc_rib()), 0, "Loc-RIB ≡ full-recompute oracle");
    let mut expected: Vec<Ipv4Prefix> = expected.collect();
    expected.sort();
    assert_eq!(rib.iter().map(|(p, _)| *p).collect::<Vec<_>>(), expected);
}

/// A peer establishes and then never reads, while another blasts a table
/// far larger than the kernel buffers a mute peer leaves (the sender's
/// grow to 4 MB, the non-reader's window stays at its initial ~64 KB). A
/// third peer keeps receiving, and shutdown does not wait for the mute
/// one.
#[test]
fn a_peer_that_never_reads_stalls_nobody_and_does_not_outlive_shutdown() {
    const UPDATES: u32 = 2400;
    // ~3.3 KB per UPDATE: ~8 MB of exports owed to each peer.
    const COMMUNITIES: usize = 800;

    let server = Server::start(ServeConfig::new(Dut::Fir, 3)).expect("bind loopback server");
    let mut mute = Peer::connect(server.addr(), 101).unwrap();
    let mut blaster = Peer::connect(server.addr(), 102).unwrap();
    let mut reader = Peer::connect(server.addr(), 103).unwrap();
    assert!(pump_until(&mut [&mut mute, &mut blaster, &mut reader], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 3
    }));

    // From here on `mute` is never pumped again.
    for i in 0..UPDATES {
        blaster.send(&announce(i, COMMUNITIES));
    }
    // Until the reader holds the whole table.
    assert!(pump_until(&mut [&mut blaster, &mut reader], PATIENCE, |p| {
        p[1].rib.len() == UPDATES as usize
    }));
    assert!(!reader.gone && reader.closed.is_none());
    assert_eq!(server.established_sessions(), 3, "the mute peer is slow, not dead");
    assert_oracle(&server, (0..UPDATES).map(prefix));

    let asked = Instant::now();
    server.shutdown();
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "shutdown waited {:?} with a peer that does not read",
        asked.elapsed()
    );
}

/// A peer that dumps faster than [`INGRESS_RATE`] is read at that rate —
/// the rest waits in its kernel — so the one update of a peer that sends
/// next does not queue behind the dump in the core: it is exported while
/// the dump is still coming in. (Both bounds hold on any host: the first
/// is an order of arrival, the second a minimum duration.)
#[test]
fn a_table_dump_is_read_at_the_ingress_rate_and_a_bystander_passes_it() {
    const UPDATES: u32 = 100;
    const COMMUNITIES: usize = 800;
    const BYSTANDER: u32 = 5000;

    let server = Server::start(ServeConfig::new(Dut::Fir, 3)).expect("bind loopback server");
    let mut dumper = Peer::connect(server.addr(), 101).unwrap();
    let mut bystander = Peer::connect(server.addr(), 102).unwrap();
    let mut observer = Peer::connect(server.addr(), 103).unwrap();
    assert!(pump_until(&mut [&mut dumper, &mut bystander, &mut observer], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 3
    }));

    let started = Instant::now();
    let mut dumped = 0;
    for i in 0..UPDATES {
        let frame = announce(i, COMMUNITIES);
        dumped += frame.len();
        dumper.send(&frame);
    }
    bystander.send(&announce(BYSTANDER, 0));

    let peers = &mut [&mut dumper, &mut bystander, &mut observer];
    // Until the observer holds the bystander's route.
    assert!(pump_until(peers, PATIENCE, |p| p[2].rib.contains(&prefix(BYSTANDER))));
    assert!(
        observer.rib.len() < UPDATES as usize,
        "the bystander's update waited for the whole dump"
    );

    let peers = &mut [&mut dumper, &mut bystander, &mut observer];
    // Until the observer holds the whole dump.
    assert!(pump_until(peers, PATIENCE, |p| p[2].rib.len() == UPDATES as usize + 1));
    let paced = (dumped - INGRESS_BURST) as f64 / INGRESS_RATE as f64;
    assert!(
        started.elapsed().as_secs_f64() >= paced,
        "{dumped} bytes were read in {:?}, faster than the ingress rate allows ({paced:.3} s)",
        started.elapsed()
    );
    assert_oracle(&server, (0..UPDATES).chain([BYSTANDER]).map(prefix));
    drop((dumper, bystander, observer));
    server.shutdown();
}

/// A connection reset halfway through an UPDATE frame withdraws exactly
/// that peer's routes.
#[test]
fn a_reset_after_half_an_update_withdraws_exactly_that_peers_routes() {
    let server = Server::start(ServeConfig::new(Dut::Fir, 3)).expect("bind loopback server");
    let mut doomed = Peer::connect(server.addr(), 101).unwrap();
    let mut steady = Peer::connect(server.addr(), 102).unwrap();
    let mut observer = Peer::connect(server.addr(), 103).unwrap();
    assert!(pump_until(&mut [&mut doomed, &mut steady, &mut observer], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 3
    }));

    for i in 0..50 {
        doomed.send(&announce(i, 0));
        steady.send(&announce(1000 + i, 0));
    }
    // `doomed` is pumped for its writes only as far as needed: its frames
    // are small enough that `send` flushed them. It is not read again, so
    // the exports waiting in its receive queue turn its close into a
    // reset.
    assert_eq!(doomed.backlog(), 0);
    // Until the observer holds both peers' routes.
    assert!(pump_until(&mut [&mut steady, &mut observer], PATIENCE, |p| p[1].rib.len() == 100));

    let half = announce(77, 0);
    doomed.send(&half[..half.len() / 2]);
    drop(doomed);

    // Until the doomed peer's routes are withdrawn.
    assert!(pump_until(&mut [&mut steady, &mut observer], PATIENCE, |p| p[1].rib.len() == 50));
    assert!((0..50).all(|i| observer.rib.contains(&prefix(1000 + i))));
    // Until the daemon sees two sessions.
    assert!(pump_until(&mut [&mut steady, &mut observer], PATIENCE, |_| {
        server.established_sessions() == 2
    }));
    assert!(steady.closed.is_none() && !steady.gone);
    assert_oracle(&server, (0..50).map(|i| prefix(1000 + i)));
    drop((steady, observer));
    server.shutdown();
}

/// A peer that goes silent is timed out by the loop's own sleep — `poll`'s
/// timeout is the nearest FSM deadline, there is no periodic tick — and
/// only its routes go.
#[test]
fn a_silent_peers_hold_timer_fires_and_withdraws_its_routes() {
    let mut cfg = ServeConfig::new(Dut::Fir, 2);
    cfg.hold_time_secs = 3;
    let server = Server::start(cfg).expect("bind loopback server");
    let mut silent = Peer::connect(server.addr(), 101).unwrap();
    let mut observer = Peer::connect(server.addr(), 102).unwrap();
    assert!(pump_until(&mut [&mut silent, &mut observer], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 2
    }));
    for i in 0..10 {
        silent.send(&announce(i, 0));
        observer.send(&announce(1000 + i, 0));
    }
    // Until the observer holds the silent peer's routes.
    assert!(pump_until(&mut [&mut observer], PATIENCE, |p| p[0].rib.len() == 10));

    // `silent` is not pumped: no KEEPALIVE leaves it. The observer keeps
    // answering the server's.
    let quiet_since = Instant::now();
    // Until the silent peer's routes are withdrawn.
    assert!(pump_until(&mut [&mut observer], PATIENCE, |p| p[0].rib.is_empty()));
    assert!(quiet_since.elapsed() >= Duration::from_secs(2), "not before the hold time");
    // Until the silent peer reads why.
    assert!(pump_until(&mut [&mut silent], PATIENCE, |p| p[0].closed.is_some()));
    assert_eq!(silent.closed, Some(CloseReason::PeerNotification { code: 4, subcode: 0 }));
    assert!(observer.closed.is_none() && !observer.gone);
    assert_oracle(&server, (0..10).map(|i| prefix(1000 + i)));
    drop((silent, observer));
    server.shutdown();
}

/// Connection number `max_sessions + 1` is told why it is refused.
#[test]
fn a_connection_beyond_max_sessions_gets_cease_connection_rejected() {
    let server = Server::start(ServeConfig::new(Dut::Fir, 2)).expect("bind loopback server");
    let mut first = Peer::connect(server.addr(), 101).unwrap();
    let mut second = Peer::connect(server.addr(), 102).unwrap();
    let mut extra = Peer::connect(server.addr(), 103).unwrap();
    // Until the third connection is over.
    assert!(pump_until(&mut [&mut first, &mut second, &mut extra], PATIENCE, |p| {
        p[2].closed.is_some() || p[2].gone
    }));
    assert_eq!(
        extra.closed,
        Some(CloseReason::PeerNotification { code: 6, subcode: 5 }),
        "refused with NOTIFICATION Cease / Connection Rejected, not a bare close"
    );
    assert_eq!(server.rejected(), 1);

    assert!(pump_until(&mut [&mut first, &mut second], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 2
    }));
    for i in 0..10 {
        first.send(&announce(i, 0));
    }
    // Until the second peer holds the first's routes.
    assert!(pump_until(&mut [&mut first, &mut second], PATIENCE, |p| p[1].rib.len() == 10));
    assert_oracle(&server, (0..10).map(prefix));
    drop((first, second));
    server.shutdown();
}

/// One UPDATE announcing [`prefix`]`(i)` with `attrs`, AS numbers `width`
/// bytes wide.
fn update(attrs: Vec<PathAttr>, i: u32, width: usize) -> Vec<u8> {
    Message::Update(UpdateMsg::announce(attrs, vec![prefix(i)]))
        .encode(width)
        .expect("UPDATE encodes")
}

fn path(asns: &[u32]) -> Vec<PathAttr> {
    vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(asns.to_vec())),
        PathAttr::NextHop(1),
    ]
}

/// A peer that does not speak RFC 6793: its OPEN has no four-octet-AS
/// capability, so every AS number on its session is two bytes wide. On a
/// blocking socket — [`Peer`]'s FSM always offers the capability.
struct TwoOctetPeer {
    stream: TcpStream,
    reader: MsgReader,
}

impl TwoOctetPeer {
    /// Connect as AS 65001 and run the handshake to Established.
    fn establish(server: &Server, router_id: u32) -> TwoOctetPeer {
        let stream = TcpStream::connect(server.addr()).expect("connect to the server");
        stream.set_read_timeout(Some(PATIENCE)).expect("set a read timeout");
        let mut peer = TwoOctetPeer { stream, reader: MsgReader::new() };
        let mut open = OpenMsg::standard(65001, 90, router_id);
        open.capabilities.retain(|c| !matches!(c, Capability::FourOctetAs(_)));
        peer.send(&Message::Open(open).encode(4).expect("OPEN encodes"));
        assert!(matches!(peer.next(), Message::Open(_)));
        peer.send(&Message::Keepalive.encode(4).expect("KEEPALIVE encodes"));
        assert_eq!(peer.next(), Message::Keepalive);
        peer
    }

    fn send(&mut self, frame: &[u8]) {
        self.stream.write_all(frame).expect("write to the server");
    }

    /// The next message from the server, AS numbers decoded two bytes wide.
    fn next(&mut self) -> Message {
        loop {
            if let Some(frame) = self.reader.next_frame().expect("the server frames correctly") {
                return Message::decode(&frame, 2).expect("decodes with two-byte AS numbers");
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read from the server");
            assert!(n > 0, "the server closed the connection");
            self.reader.push(&chunk[..n]);
        }
    }
}

/// A session negotiated without the four-octet-AS capability is a
/// two-octet session all the way: the daemon decodes the peer's UPDATEs —
/// which the edge accepted at that width — two bytes per AS number, and
/// encodes its exports to it the same way.
#[test]
fn a_two_octet_peers_updates_are_decoded_and_its_exports_encoded_two_octets_wide() {
    for dut in [Dut::Fir, Dut::Wren] {
        let server = Server::start(ServeConfig::new(dut, 2)).expect("bind loopback server");
        let mut old = TwoOctetPeer::establish(&server, 101);
        let mut bystander = Peer::connect(server.addr(), 102).unwrap();
        assert!(pump_until(&mut [&mut bystander], PATIENCE, |p| {
            p[0].established && server.established_sessions() == 2
        }));

        old.send(&update(path(&[65001, 100, 200]), 1, 2));
        // Until the bystander holds the two-octet peer's route.
        assert!(pump_until(&mut [&mut bystander], PATIENCE, |p| {
            p[0].rib.contains(&prefix(1))
        }));
        assert_oracle(&server, [prefix(1)].into_iter());
        let attrs = xbgp_wire::attr::decode_attrs(&server.loc_rib()[0].1, 4).unwrap();
        assert!(attrs.contains(&PathAttr::AsPath(AsPath::sequence(vec![65001, 100, 200]))));

        bystander.send(&update(path(&[65001, 300]), 2, 4));
        let exported = loop {
            match old.next() {
                Message::Update(u) => break u,
                Message::Keepalive => {}
                other => panic!("{dut:?}: the two-octet peer was sent {other:?}"),
            }
        };
        assert_eq!(exported.nlri, vec![prefix(2)]);
        let expected = PathAttr::AsPath(AsPath::sequence(vec![65002, 65001, 300]));
        assert!(exported.attrs.contains(&expected), "{dut:?}: {:?}", exported.attrs);
        assert_oracle(&server, [prefix(1), prefix(2)].into_iter());
        drop((old, bystander));
        server.shutdown();
    }
}

/// A session the *daemon* ends is over at the socket too: the peer reads
/// the NOTIFICATION and then end-of-stream, the slot is free, and the
/// connection that takes it is served — no slot on which the daemon is
/// Idle while the socket stays open and its UPDATEs are dropped.
#[test]
fn a_session_the_daemon_ends_is_closed_at_the_socket_and_its_slot_reused() {
    for dut in [Dut::Fir, Dut::Wren] {
        let server = Server::start(ServeConfig::new(dut, 2)).expect("bind loopback server");
        let mut faulty = Peer::connect(server.addr(), 101).unwrap();
        let mut observer = Peer::connect(server.addr(), 102).unwrap();
        assert!(pump_until(&mut [&mut faulty, &mut observer], PATIENCE, |p| {
            p.iter().all(|p| p.established) && server.established_sessions() == 2
        }));
        faulty.send(&announce(1, 0));
        // Until the observer holds the route.
        assert!(pump_until(&mut [&mut faulty, &mut observer], PATIENCE, |p| {
            p[1].rib.contains(&prefix(1))
        }));

        // Decodes — the edge lets it through — but cannot be applied.
        let mut no_next_hop = path(&[65001]);
        no_next_hop.retain(|a| !matches!(a, PathAttr::NextHop(_)));
        faulty.send(&update(no_next_hop, 2, 4));
        // Until the connection is closed.
        assert!(pump_until(&mut [&mut faulty, &mut observer], PATIENCE, |p| p[0].gone));
        assert_eq!(
            faulty.closed,
            Some(CloseReason::PeerNotification { code: 3, subcode: 3 }),
            "{dut:?}: NOTIFICATION missing well-known attribute, then end of stream"
        );
        // Until the faulty peer's route is withdrawn.
        assert!(pump_until(&mut [&mut observer], PATIENCE, |p| {
            p[0].rib.is_empty() && server.established_sessions() == 1
        }));

        // Both slots were taken: were the slot not freed, this connection
        // would be refused.
        let mut next = Peer::connect(server.addr(), 103).unwrap();
        // Until the freed slot is taken.
        assert!(pump_until(&mut [&mut next, &mut observer], PATIENCE, |p| {
            p[0].established && server.established_sessions() == 2
        }));
        next.send(&announce(3, 0));
        // Until the observer holds the new route.
        assert!(pump_until(&mut [&mut next, &mut observer], PATIENCE, |p| {
            p[1].rib.contains(&prefix(3))
        }));
        assert!(next.closed.is_none() && observer.closed.is_none());
        assert_oracle(&server, [prefix(3)].into_iter());
        assert_eq!(server.rejected(), 0);
        drop((faulty, observer, next));
        server.shutdown();
    }
}

/// `Server::counters` merges every field across shard cores: traffic adds
/// up, and a session every core adopted is one session.
#[test]
fn counters_of_two_shards_merge_every_field() {
    let mut cfg = ServeConfig::new(Dut::Fir, 2);
    cfg.shards = 2;
    let server = Server::start(cfg).expect("bind loopback server");
    let mut sender = Peer::connect(server.addr(), 101).unwrap();
    let mut receiver = Peer::connect(server.addr(), 102).unwrap();
    assert!(pump_until(&mut [&mut sender, &mut receiver], PATIENCE, |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 2
    }));
    for i in 0..40 {
        sender.send(&announce(i, 0));
    }
    // Until the receiver holds all 40.
    assert!(pump_until(&mut [&mut sender, &mut receiver], PATIENCE, |p| {
        p[1].rib.len() == 40
    }));
    let c = server.counters();
    assert_eq!(c.sessions_established, 2, "not once per shard");
    assert_eq!((c.prefixes_rx, c.prefixes_tx), (40, 40));
    assert_eq!(c.updates_encoded, 40, "one frame per route, to the one other peer");
    assert_eq!(c.updates_tx, receiver.updates_rx as u64);
    assert!(c.first_update_rx.is_some() && c.first_update_rx <= c.last_route_change);
    drop((sender, receiver));
    server.shutdown();
}
