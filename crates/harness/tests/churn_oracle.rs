//! The churn engine's correctness contract, end to end: after a full
//! storm (withdraw waves, flaps, ROA sweeps, path hunting, restore
//! round) the incremental Loc-RIB must be byte-identical to a
//! from-scratch decision pass — on both daemons, native and extension,
//! and with the fault-injection probe trapping mid-chain.

use routegen::churn::ChurnSpec;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};
use xbgp_harness::scenario::{parse, run as run_scenario};

const ROUTES: usize = 300;
const SEED: u64 = 11;

fn spec(dut: Dut, extension: bool) -> Fig3Spec {
    Fig3Spec {
        extension,
        churn: Some(ChurnSpec::new(SEED, 6)),
        ..Fig3Spec::new(dut, UseCase::OriginValidation, ROUTES, SEED)
    }
}

#[test]
fn every_cell_matches_the_oracle_and_absorbs_the_same_stream() {
    // {fir, wren} × {native, ext}.
    let mut first = None;
    for dut in [Dut::Fir, Dut::Wren] {
        for extension in [false, true] {
            let ctx = format!("{} / ext={extension}", dut.name());
            let out = run(&spec(dut, extension));
            assert_eq!(out.oracle_mismatches, 0, "{ctx}: oracle diverged");
            assert!(out.best_changes > 0, "{ctx}: the storm moved no best path");
            let rib = out.loc_rib.expect("a churn run returns its Loc-RIB");
            assert_eq!(rib.len(), ROUTES, "{ctx}: the restore round rebuilds the table");
            // Every cell replays the same logical stream.
            match first {
                None => first = Some(out.updates_applied),
                Some(n) => assert_eq!(out.updates_applied, n, "{ctx}: stream differs"),
            }
        }
    }
}

#[test]
fn fault_injection_churn_stays_oracle_clean() {
    // The committed fixture keeps `fault_rate` non-zero, so extension
    // chains trap and roll back mid-storm; the oracle checks the
    // scenario layer appends must still all pass.
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/churn_storm.json"
    ))
    .expect("fixture present");
    let mut scenario = parse(&json).expect("parses");
    assert!(scenario.fault_rate > 0.0, "fixture must keep fault injection live");
    let churn = scenario.churn.as_mut().unwrap();
    churn.routes = 400;
    churn.spec.rounds = 5;
    let report = run_scenario(&scenario).expect("scenario runs");
    assert!(report.all_passed(), "{:?}", report.checks);
    let oracle_checks = report.checks.iter().filter(|(d, _)| d.starts_with("churn oracle")).count();
    assert_eq!(oracle_checks, 2, "one oracle verdict per router");
    assert!(report.metrics.counter_sum("xbgp_rib_best_changes_total") > 0);
}
