//! The `fig4` binary's argument checks: a value that would leave a cell
//! with no sample is a usage error (exit 2), not a panic.

use std::process::Command;

#[test]
fn zero_runs_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .args(["--runs", "0", "--routes", "10"])
        .output()
        .expect("fig4 starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--runs"), "the message names the flag: {stderr}");
}
