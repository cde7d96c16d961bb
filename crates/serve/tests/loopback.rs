//! Tier-1 loopback integration tests: small enough for CI, end-to-end
//! enough to pin the whole runtime — real TCP handshakes, the mpsc fan-in,
//! byte-identical Loc-RIB parity against the netsim replay, and every
//! export arriving.

use xbgp_driver::Dut;
use xbgp_serve::selftest::{run, SelftestSpec};

fn small(dut: Dut, sessions: usize, shards: usize) -> SelftestSpec {
    let mut spec = SelftestSpec::new(dut, sessions);
    spec.routes = 400;
    spec.rounds = 3;
    spec.seed = 7;
    spec.shards = shards;
    spec
}

#[test]
fn eight_sessions_match_netsim_replay_fir() {
    let spec = small(Dut::Fir, 8, 1);
    let out = run(&spec);
    assert_eq!(out.established, 8, "all edge sessions reach Established in the daemon");
    assert_eq!(out.updates_applied, out.expected_updates);
    assert_eq!(out.parity_mismatches, 0, "TCP Loc-RIB ≡ netsim-replay Loc-RIB");
    assert_eq!(out.oracle_mismatches, 0, "incremental ≡ full-recompute oracle");
    assert_eq!(out.export_mismatches, 0, "every peer holds the Loc-RIB minus its own slice");
    assert!(out.best_changes > 0);
    assert!(out.loc_rib_len > 0);
    assert!(out.latency.count > 0, "every UPDATE frame lands in the latency histogram");
}

#[test]
fn eight_sessions_match_netsim_replay_wren() {
    let spec = small(Dut::Wren, 8, 1);
    let out = run(&spec);
    assert_eq!(out.established, 8);
    assert_eq!(out.parity_mismatches, 0);
    assert_eq!(out.oracle_mismatches, 0);
    assert_eq!(out.export_mismatches, 0);
    assert!(out.best_changes > 0);
}

#[test]
fn sharded_cores_preserve_parity() {
    let spec = small(Dut::Fir, 6, 2);
    let out = run(&spec);
    assert_eq!(out.established, 6);
    assert_eq!(out.parity_mismatches, 0, "prefix-split UPDATEs reassemble the same Loc-RIB");
    assert_eq!(out.oracle_mismatches, 0);
    assert_eq!(out.export_mismatches, 0, "each core exports its slice to every other peer");
}

#[test]
fn paced_rounds_preserve_parity() {
    let mut spec = small(Dut::Wren, 4, 1);
    spec.round_gap = Some(std::time::Duration::from_millis(20));
    let out = run(&spec);
    assert_eq!(out.established, 4);
    assert_eq!(out.parity_mismatches, 0);
    assert_eq!(out.export_mismatches, 0);
}
