//! Sharding must not change results: a `--shards 4` run produces the
//! same Loc-RIB, byte for byte, as the sequential `--shards 1` path —
//! for both daemons, native and extension variants, and both use cases
//! (origin validation exercises the shard-local ROA tables).

use std::sync::Mutex;
use xbgp_core::vmm;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};

/// The verify-load counter is process-global; both tests take this lock
/// so one test's extension runs never pollute the other's deltas.
static VMM_COUNTER: Mutex<()> = Mutex::new(());

const ROUTES: usize = 300;
const SEED: u64 = 42;

fn spec(dut: Dut, use_case: UseCase, extension: bool, shards: usize) -> Fig3Spec {
    Fig3Spec {
        extension,
        shards,
        rib_dump: true,
        ..Fig3Spec::new(dut, use_case, ROUTES, SEED)
    }
}

#[test]
fn sharded_loc_rib_matches_sequential_for_every_configuration() {
    let _guard = VMM_COUNTER.lock().unwrap();
    for dut in [Dut::Fir, Dut::Wren] {
        for use_case in [UseCase::RouteReflection, UseCase::OriginValidation] {
            for extension in [false, true] {
                let sequential = run(&spec(dut, use_case, extension, 1));
                let sharded = run(&spec(dut, use_case, extension, 4));
                let ctx = format!("{} / {} / ext={extension}", dut.name(), use_case.name());
                assert_eq!(sequential.prefixes_delivered, ROUTES, "{ctx}");
                assert_eq!(sharded.prefixes_delivered, ROUTES, "{ctx}");
                let a = sequential.loc_rib.expect("rib_dump requested");
                let b = sharded.loc_rib.expect("rib_dump requested");
                assert_eq!(a.len(), ROUTES, "{ctx}: full table in Loc-RIB");
                assert_eq!(a, b, "{ctx}: shards=4 must reproduce shards=1 exactly");
            }
        }
    }
}

#[test]
fn each_shard_verifies_and_loads_bytecode_exactly_once() {
    // One sequential extension run loads the manifest's programs once;
    // a 4-shard run builds one Vmm per shard, so it loads 4× that —
    // never once per UPDATE batch.
    let _guard = VMM_COUNTER.lock().unwrap();
    let before = vmm::verify_load_count();
    run(&spec(Dut::Fir, UseCase::OriginValidation, true, 1));
    let per_vmm = vmm::verify_load_count() - before;
    assert!(per_vmm > 0, "extension run verifies at least one program");

    let before = vmm::verify_load_count();
    run(&spec(Dut::Fir, UseCase::OriginValidation, true, 4));
    let sharded = vmm::verify_load_count() - before;
    assert_eq!(sharded, 4 * per_vmm, "one verify+pre-decode per shard VMM");
}
