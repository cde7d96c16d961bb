//! A stream that never pauses must not starve exports: the runtime acts
//! on socket readiness, not on a read timing out. No wall-clock
//! threshold — only an order of events.

mod common;

use std::time::{Duration, Instant};

use common::{announce, pump, pump_until, Peer};
use xbgp_driver::Dut;
use xbgp_harness::churn::dump_diff;
use xbgp_serve::{ServeConfig, Server};

#[test]
fn exports_flow_while_a_peer_streams_an_update_every_millisecond() {
    const UPDATES: u32 = 300;
    let server = Server::start(ServeConfig::new(Dut::Fir, 2)).expect("bind loopback server");
    let mut a = Peer::connect(server.addr(), 101);
    let mut b = Peer::connect(server.addr(), 102);
    pump_until(&mut [&mut a, &mut b], "both sessions are established", |p| {
        p.iter().all(|p| p.established) && server.established_sessions() == 2
    });

    // A sends one single-prefix UPDATE per millisecond; between sends the
    // test thread sleeps in poll over both sockets, reading B's as soon as
    // something arrives.
    let start = Instant::now();
    let mut first_export_before_update = None;
    for i in 0..UPDATES {
        let due = start + Duration::from_millis(u64::from(i));
        loop {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            pump(&mut [&mut a, &mut b], left);
        }
        if b.updates_rx > 0 {
            first_export_before_update.get_or_insert(i);
        }
        a.send(&announce(i, 0));
    }
    let seen = first_export_before_update
        .expect("B received an export before A sent its last update, not only after the stream");
    assert!(seen < UPDATES - 1);

    pump_until(&mut [&mut a, &mut b], "B holds every prefix A announced", |p| {
        p[1].rib.len() == UPDATES as usize
    });
    assert_eq!(server.loc_rib().len(), UPDATES as usize);
    assert_eq!(dump_diff(&server.loc_rib(), &server.oracle_loc_rib()), 0);
    drop((a, b));
    server.shutdown();
}
