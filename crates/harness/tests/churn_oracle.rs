//! The churn engine's correctness contract, end to end: after a full
//! storm (withdraw waves, flaps, ROA sweeps, path hunting, restore
//! round) the incremental Loc-RIB must be byte-identical to a
//! from-scratch decision pass — on both daemons, sequential and sharded,
//! native and extension, and with the fault-injection probe trapping
//! mid-chain — and a sharded storm must leave the same Loc-RIB, byte for
//! byte, as the sequential one.

use routegen::churn::ChurnSpec;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};
use xbgp_harness::scenario::{parse, run_sharded};

const ROUTES: usize = 300;
const SEED: u64 = 11;

fn spec(dut: Dut, extension: bool, shards: usize) -> Fig3Spec {
    Fig3Spec {
        extension,
        shards,
        churn: Some(ChurnSpec::new(SEED, 6)),
        ..Fig3Spec::new(dut, UseCase::OriginValidation, ROUTES, SEED)
    }
}

#[test]
fn every_cell_matches_the_oracle_and_absorbs_the_same_stream() {
    // {fir, wren} × {native, ext} × {1, 4 shards}.
    for dut in [Dut::Fir, Dut::Wren] {
        for extension in [false, true] {
            let mut sequential = None;
            for shards in [1, 4] {
                let ctx = format!("{} / ext={extension} / shards={shards}", dut.name());
                let out = run(&spec(dut, extension, shards));
                assert_eq!(out.oracle_mismatches, 0, "{ctx}: oracle diverged");
                assert!(out.best_changes > 0, "{ctx}: the storm moved no best path");
                let rib = out.loc_rib.expect("a churn run returns its Loc-RIB");
                assert_eq!(rib.len(), ROUTES, "{ctx}: the restore round rebuilds the table");
                // Shard counts see the same logical stream, so the
                // absorbed-update count and the final Loc-RIB bytes are
                // invariant.
                match &sequential {
                    None => sequential = Some((out.updates_applied, rib)),
                    Some((n, seq_rib)) => {
                        assert_eq!(out.updates_applied, *n, "{ctx}: stream differs");
                        assert!(rib == *seq_rib, "{ctx}: Loc-RIB differs from shards=1");
                    }
                }
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
    churn.rounds = 5;
    for shards in [1, 4] {
        let report = run_sharded(&scenario, shards).expect("scenario runs");
        assert!(report.all_passed(), "shards={shards}: {:?}", report.checks);
        let oracle_checks =
            report.checks.iter().filter(|(d, _)| d.starts_with("churn oracle")).count();
        assert_eq!(oracle_checks, 2, "one oracle verdict per router");
        assert!(report.metrics.counter_sum("xbgp_rib_best_changes_total") > 0);
    }
}
