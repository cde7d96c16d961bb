//! Run-to-run determinism, end to end: the same scenario under the same
//! options must produce the same observable routing twice in one process
//! — final tables, the full (wall-clock-masked) trace timeline, and the
//! quarantine postmortems. Each run builds fresh daemons, hence fresh
//! `HashMap` hash seeds, so any iteration-order leak into the wire or the
//! trace shows up as a diff here.

use xbgp_harness::scenario::{parse, run_with_options, RunOptions, ScenarioReport};
use xbgp_obs::trace::TraceKind;

/// Every trace event, with the one wall-clock payload (`HelperCall`
/// latency) masked; everything else — route scopes, pcs, error codes,
/// staged-op counts, decision outcomes — is deterministic and must match.
fn event_log(report: &ScenarioReport) -> Vec<(u64, TraceKind, u8, u16, u64, u64)> {
    report
        .trace
        .as_ref()
        .expect("tracing enabled")
        .events
        .iter()
        .map(|e| {
            let b = if e.kind == TraceKind::HelperCall { 0 } else { e.b };
            (e.trace_id, e.kind, e.point, e.ext, e.a, b)
        })
        .collect()
}

#[test]
fn fault_smoke_at_full_rate_is_identical_across_two_runs() {
    // fault_smoke.json with every inbound run trapping: the probe stages
    // two host mutations and dereferences an unmapped address, so each
    // route produces a MemFault with a specific slot pc. Both runs must
    // fault at the same pcs with the same error codes, roll back the
    // same staged-op counts, and quarantine with the same postmortems.
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fault_smoke.json"
    ))
    .expect("fixture present");
    let mut scenario = parse(&json).expect("parses");
    scenario.fault_rate = 1.0;

    let opts = RunOptions { trace_sample: 1, ..RunOptions::default() };
    let run = || run_with_options(&scenario, &opts).expect("scenario runs");
    let first = run();
    let second = run();
    assert!(first.all_passed(), "{:?}", first.checks);
    assert!(second.all_passed(), "{:?}", second.checks);
    assert_eq!(first.tables, second.tables, "final tables must match");

    let ev_1 = event_log(&first);
    let ev_2 = event_log(&second);
    let faults = ev_1.iter().filter(|e| e.1 == TraceKind::Fault).count();
    assert!(faults > 0, "rate 1.0 must produce faults");
    assert_eq!(ev_1, ev_2, "trace timelines (fault pcs, kinds, rollbacks) must match");

    let postmortems = |r: &ScenarioReport| -> Vec<(String, Option<u64>, bool)> {
        r.trace
            .as_ref()
            .unwrap()
            .postmortems
            .iter()
            .map(|pm| (pm.extension.clone(), pm.pc, pm.quarantined))
            .collect()
    };
    let pm_1 = postmortems(&first);
    assert!(!pm_1.is_empty(), "rate 1.0 trips the breaker");
    assert_eq!(pm_1, postmortems(&second), "postmortem pcs must match");
}
