//! The `xbgp-serve` binary's argument checks: a session or core count of
//! zero is a usage error (exit 2) that names the flag, not a panic and
//! not a run that records a count it did not use.

use std::process::Command;

#[test]
fn zero_sessions_or_shards_is_a_usage_error() {
    for (cmd, flag) in
        [("selftest", "--sessions"), ("selftest", "--shards"), ("bench", "--sessions")]
    {
        // Somewhere harmless for `bench` to write, should it run at all.
        let json = format!("{}/cli_{cmd}.json", env!("CARGO_TARGET_TMPDIR"));
        let out = Command::new(env!("CARGO_BIN_EXE_xbgp-serve"))
            .args([cmd, "--dut", "fir", "--routes", "10", "--rounds", "0", flag, "0"])
            .args(["--json", &json, "--out", &json])
            .output()
            .expect("xbgp-serve starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag} 0: {stderr}");
        assert!(stderr.contains(flag), "the message names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd} {flag} 0: {stderr}");
    }
}
