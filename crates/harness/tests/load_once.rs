//! An extension program is verified and loaded once per run, never once
//! per UPDATE batch. The verify-load counter is process-global, so this
//! binary holds this one test and nothing else moves the counter.

use xbgp_core::vmm;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};
use xbgp_progs::origin_validation;

#[test]
fn an_extension_run_loads_each_program_exactly_once() {
    let programs = origin_validation::manifest().extensions.len() as u64;
    assert!(programs > 0, "the OV manifest carries a program");
    let before = vmm::verify_load_count();
    let out = run(&Fig3Spec {
        extension: true,
        ..Fig3Spec::new(Dut::Fir, UseCase::OriginValidation, 300, 42)
    });
    assert_eq!(out.prefixes_delivered, 300);
    assert_eq!(vmm::verify_load_count() - before, programs, "one verify+pre-decode per program");
}
