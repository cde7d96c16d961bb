//! Every workload at tiny scale, both run kinds, correctness gate on and no
//! timing assertions: the benchmark must keep building against the
//! workspace's public items and keep passing its own gates.

use xbgp_benchmark::gen::Scale;
use xbgp_benchmark::report::{Report, WORKLOADS};
use xbgp_benchmark::workload::{run_traced, run_untraced};

fn assert_complete(report: &Report) {
    assert!(report.correct(), "{}", report.human());
    assert_eq!(report.missing(), Vec::<&str>::new(), "{}", report.human());
    assert!(report.attempted > 0);
    // The result line must be one JSON object.
    xbgp_obs::json::Value::parse(&report.json_line()).expect("result line parses");
}

fn untraced(workload: &str) {
    let report = run_untraced(workload, &Scale::tiny(), 7).expect("runs");
    assert_complete(&report);
}

fn traced(workload: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{workload}.trace.jsonl"));
    let report = run_traced(workload, &Scale::tiny(), 7, &path).expect("runs");
    assert_complete(&report);
    let spans = std::fs::read_to_string(&path).expect("span file written");
    for name in ["deliver", "drain_outbound", "socket_write", "socket_read", "wire.decode_ns"] {
        assert!(spans.contains(&format!("\"name\":\"{name}\"")), "no {name} span");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn table_rr() {
    untraced("table_rr");
    traced("table_rr");
}

#[test]
fn table_ov() {
    untraced("table_ov");
    traced("table_ov");
}

#[test]
fn churn_ov() {
    untraced("churn_ov");
    traced("churn_ov");
}

#[test]
fn fanout_rr() {
    untraced("fanout_rr");
    traced("fanout_rr");
}

#[test]
fn serve_tcp() {
    untraced("serve_tcp");
    traced("serve_tcp");
}

#[test]
fn every_listed_workload_has_a_test_and_a_plan() {
    let tested = ["table_rr", "table_ov", "churn_ov", "fanout_rr", "serve_tcp"];
    assert_eq!(WORKLOADS.map(|w| w.name), tested);
    for w in &WORKLOADS {
        assert!(xbgp_benchmark::workload::plan(w.name, &Scale::tiny(), 1).is_some());
    }
    assert!(xbgp_benchmark::workload::plan("nope", &Scale::tiny(), 1).is_none());
}
