//! The server runs `1 + shards` threads whatever the session count. Alone
//! in its test binary: `Threads:` counts the whole process, and sibling
//! tests starting servers of their own would move it.

mod common;

use common::{pump_until, Peer};
use xbgp_driver::Dut;
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

    let mut peers: Vec<Peer> = (0..32).map(|k| Peer::connect(server.addr(), 1000 + k)).collect();
    let mut refs: Vec<&mut Peer> = peers.iter_mut().collect();
    pump_until(&mut refs, "32 sessions are established", |peers| {
        peers.iter().all(|p| p.established) && server.established_sessions() == 32
    });
    assert_eq!(server.established_peak(), 32);
    assert_eq!(threads(), idle, "sessions cost no threads");

    drop(peers);
    server.shutdown();
}
