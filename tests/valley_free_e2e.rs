//! §3.3 / Fig. 5 — BGP in the datacenter.
//!
//! Reproduces the paper's argument end-to-end on a 2-level Clos fabric,
//! described by the three `scenarios/fig5_*.json` documents (two spines
//! S1/S2, four leaves L10–L13, every leaf wired to both spines; L13
//! originates the internal 10.13.0.0/16, S1 the external 192.0.2.0/24):
//!
//! * With the classic **same-AS-number trick** (spines share one ASN,
//!   leaf pairs share ASNs), the double link failure L10–S1 and L13–S2
//!   *partitions* the fabric: the only remaining path is a valley and BGP
//!   loop detection kills it.
//! * With **distinct ASNs + the xBGP valley-free filter**, normal
//!   operation still forbids valleys for external prefixes, but the
//!   surviving valley path to an *internal* prefix is accepted, so the
//!   fabric stays connected after the double failure.
//!
//! Each test runs one document and pins the `expect_route` rows that
//! carry its part of the argument, by their report line.

use xbgp_harness::scenario::{self, ScenarioReport};

fn run(file: &str) -> ScenarioReport {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = scenario::parse(&json).unwrap_or_else(|e| panic!("{path}: {e}"));
    scenario::run(&doc).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The check reported as `line` exists and passed.
fn assert_check(report: &ScenarioReport, line: &str, why: &str) {
    match report.checks.iter().find(|(d, _)| d == line) {
        Some((_, ok)) => assert!(ok, "{why}: `{line}` failed"),
        None => panic!("no check `{line}` in {:?}", report.checks),
    }
}

#[test]
fn same_asn_trick_partitions_after_double_failure() {
    // Paper config: S1 = S2 = AS 65200; L10 = L11 = AS 65100;
    // L12 = L13 = AS 65110.
    let r = run("fig5_same_asn.json");
    assert_check(
        &r,
        "t=20s: l10 has 10.13.0.0/16",
        "healthy fabric: L10 reaches the prefix below L13",
    );
    // After L10–S1 and L13–S2 fail (the paper's double failure):
    assert_check(
        &r,
        "t=120s: l10 does not have 10.13.0.0/16",
        "same-ASN loop detection kills the surviving valley path: partition",
    );
    assert!(r.all_passed(), "{:?}", r.checks);
}

#[test]
fn xbgp_filter_keeps_connectivity_after_double_failure() {
    // Distinct ASNs everywhere + the valley-free extension.
    let r = run("fig5_valley_free.json");
    assert_check(&r, "t=20s: l10 has 10.13.0.0/16", "healthy fabric");
    // The valley path survives for an internal destination, and it really
    // is a valley L10 → S2 → L11 → S1 → L13: the router-id tiebreak picks
    // L11 as S2's best among the two equal leaf paths.
    assert_check(
        &r,
        "t=120s: l10 has 10.13.0.0/16 via AS path [65202, 65102, 65201, 65104]",
        "the valley path survives for an internal destination",
    );
    assert!(r.all_passed(), "{:?}", r.checks);
}

#[test]
fn xbgp_filter_blocks_valleys_for_external_prefixes() {
    // Healthy fabric, distinct ASNs + filter: the external prefix
    // originated at S1 must reach the leaves directly (down move), but no
    // leaf-transited valley copy may reach S2 — its only sources are the
    // leaves, all valleys.
    let r = run("fig5_valley_free.json");
    for leaf in ["l10", "l11", "l12", "l13"] {
        assert_check(
            &r,
            &format!("t=20s: {leaf} has 192.0.2.0/24"),
            "a leaf receives the external prefix from above",
        );
    }
    assert_check(
        &r,
        "t=20s: s2 does not have 192.0.2.0/24",
        "S2 must not accept the external prefix through a leaf valley",
    );
    // The internal prefix, by contrast, does reach S2 through the fabric.
    assert_check(&r, "t=20s: s2 has 10.13.0.0/16", "internal prefix reaches S2");
}

#[test]
fn without_filter_distinct_asns_leak_valleys() {
    // Control experiment: distinct ASNs but no xBGP filter → the external
    // prefix leaks to S2 through a leaf (a valley), which is exactly what
    // operators must prevent.
    let r = run("fig5_no_filter.json");
    assert_check(
        &r,
        "t=20s: s2 has 192.0.2.0/24",
        "no filter, no same-ASN trick: the valley is accepted",
    );
    assert!(r.all_passed(), "{:?}", r.checks);
}
