//! The server runs `1 + shards` threads whatever the session count, and
//! the selftest's peers add none. Alone in its test binary: `Threads:`
//! counts the whole process, and sibling tests starting servers of their
//! own would move it.

mod common;

use std::time::Duration;

use common::PATIENCE;
use xbgp_driver::Dut;
use xbgp_serve::peer::{pump_until, Peer};
use xbgp_serve::selftest::{self, SelftestSpec};
use xbgp_serve::{ServeConfig, Server};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

#[test]
fn thread_count_is_one_plus_shards_with_0_and_with_32_sessions() {
    let before = threads();
    let mut cfg = ServeConfig::new(Dut::Fir, 32);
    cfg.shards = 2;
    let server = Server::start(cfg).expect("bind loopback server");
    let idle = threads();
    assert_eq!(idle, before + 1 + 2, "one I/O thread and one core per shard");

    let mut peers: Vec<Peer> =
        (0..32).map(|k| Peer::connect(server.addr(), 1000 + k).unwrap()).collect();
    let mut refs: Vec<&mut Peer> = peers.iter_mut().collect();
    // 32 sessions are established
    assert!(pump_until(&mut refs, PATIENCE, |peers| {
        peers.iter().all(|p| p.established) && server.established_sessions() == 32
    }));
    assert_eq!(server.established_peak(), 32);
    assert_eq!(threads(), idle, "sessions cost no threads");

    drop(peers);
    server.shutdown();

    // The selftest's 32 peers, on the thread that runs it: sampled from
    // here while it runs on one more.
    let before = threads();
    let mut spec = SelftestSpec::new(Dut::Fir, 32);
    spec.routes = 400;
    spec.rounds = 3;
    spec.shards = 2;
    let run = std::thread::spawn(move || selftest::run(&spec));
    let mut peak = 0;
    while !run.is_finished() {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = run.join().expect("selftest thread");
    assert!(out.passed(&spec), "{out:?}");
    assert_eq!(
        peak,
        before + 1 + 1 + 2,
        "the selftest thread, one I/O thread, one core per shard"
    );
}
