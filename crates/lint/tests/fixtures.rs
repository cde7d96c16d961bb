//! The seeded-defect fixtures must fail the lint, and the shipped
//! programs must pass it — the same invariants the CI step asserts with
//! the `xbgp-lint` binary.

use xbgp_core::api::{helper, InsertionPoint};
use xbgp_lint::{lint, LintTarget};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn uninit_read_fixture_is_rejected() {
    let report = lint(&LintTarget::bare("uninit_read.s", fixture("uninit_read.s")));
    assert!(!report.clean());
    assert!(report.errors[0].contains("reads r7 before any write"), "{:?}", report.errors);
}

#[test]
fn oob_stack_fixture_is_rejected() {
    let report = lint(&LintTarget::bare("oob_stack.s", fixture("oob_stack.s")));
    assert!(!report.clean());
    assert!(report.errors[0].contains("outside [r10-512, r10)"), "{:?}", report.errors);
}

/// The last line of the report for an outbound-filter fixture granted
/// `helpers`: the update-group verdict.
fn grouping_line(name: &str, helpers: &[&str]) -> String {
    let report = lint(&LintTarget {
        point: InsertionPoint::BgpOutboundFilter,
        helpers: Some(helpers.iter().map(|h| helper::id_of(h).expect("API helper")).collect()),
        ..LintTarget::bare(name, fixture(name))
    });
    assert!(report.clean(), "{name}: {:?}", report.errors);
    report.to_string().lines().last().expect("a verdict line").to_string()
}

#[test]
fn grouping_fixtures_say_why() {
    assert_eq!(
        grouping_line("groupable_flags.s", &["get_peer_info", "next"]),
        "groupable_flags.s: groupable: reads {type, flags}"
    );
    assert_eq!(
        grouping_line("per_peer_escape.s", &["get_peer_info", "ebpf_memcpy", "next"]),
        "per_peer_escape.s: per-peer: get_peer_info pointer escapes at pc 5"
    );
    assert_eq!(
        grouping_line("per_peer_shared.s", &["get_peer_info", "ctx_shared_get", "next"]),
        "per_peer_shared.s: per-peer: declares ctx_shared_get"
    );
    // Not an outbound point: no verdict.
    let inbound = lint(&LintTarget::bare("groupable_flags.s", fixture("groupable_flags.s")));
    assert!(inbound.grouping.is_none());
}

#[test]
fn shipped_asm_directory_is_clean() {
    let dir = format!("{}/../progs/asm", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("progs/asm exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("s") {
            continue;
        }
        seen += 1;
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf8 stem");
        let ctx = xbgp_lint::shipped_context(stem)
            .unwrap_or_else(|| panic!("no shipped context for {stem} — update the registry"));
        let report = lint(&LintTarget {
            name: format!("{stem}.s"),
            source: std::fs::read_to_string(&path).expect("readable source"),
            point: ctx.point,
            helpers: Some(ctx.helpers),
            defines: ctx.defines,
        });
        assert!(report.clean(), "{stem}.s: {:?}", report.errors);
    }
    assert!(seen >= 11, "expected the bundled programs, found {seen}");
}
