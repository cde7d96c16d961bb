//! Ablation: churn-scale update engine — steady-state updates/sec and
//! convergence time of the incremental prefix-trie RIBs under a
//! [`routegen::churn`] storm, against the full-recompute decision
//! baseline.
//!
//! All quantities are virtual (DUT-CPU-accounted) measurements from the
//! Fig. 3 chain's churn phase ([`xbgp_harness::churn`]), with shards run
//! back-to-back ([`ExecMode::Inline`]) so each shard's CPU accounting
//! stays uncontended and the figures are meaningful on a single-core
//! build host: updates/sec divides churn-phase routing updates by
//! churn-phase DUT CPU-seconds, and convergence is virtual ns from the
//! last churn round leaving the feeder to the DUT's last best-path
//! change. Every run self-checks against the full-recompute oracle
//! (incremental Loc-RIB byte-identical to a from-scratch decision pass);
//! a mismatch aborts the bench.
//!
//! Cells:
//!
//! * `{fir, wren} × native × shards {1, 4}`.
//! * `{fir, wren} × ext × shards {1, 4}` — the use-case feature as
//!   extension bytecode.
//! * `{fir, wren} × full_recompute × shards 1` — the ablation baseline:
//!   the same storm with per-batch full decision recomputation instead
//!   of dirty-prefix delta recomputation. The headline ratio is
//!   incremental updates/sec over this.
//!
//! Scale knobs for CI: `CHURN_BENCH_ROUTES` (default 50_000),
//! `CHURN_BENCH_SHARDS` (comma list, default `1,4`) and
//! `CHURN_BENCH_ROUNDS` (default 12).

use criterion::{criterion_group, criterion_main, Criterion};
use routegen::churn::ChurnSpec;
use std::io::Write;
use xbgp_harness::fig3::{Dut, Fig3Spec, UseCase};
use xbgp_harness::shard::{run_fig3_sharded, ExecMode};

fn routes() -> usize {
    std::env::var("CHURN_BENCH_ROUTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000)
}

fn shard_counts() -> Vec<usize> {
    std::env::var("CHURN_BENCH_SHARDS")
        .ok()
        .map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).filter(|&n| n > 0).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4])
}

fn rounds() -> usize {
    std::env::var("CHURN_BENCH_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(12)
}

fn dut_slug(dut: Dut) -> &'static str {
    match dut {
        Dut::Fir => "fir",
        Dut::Wren => "wren",
    }
}

/// Append a measurement line to `CRITERION_JSON_OUT` in the criterion-shim
/// JSONL shape so the virtual figures land in the artifact.
fn emit_json_line(name: &str, value: f64) {
    let Ok(path) = std::env::var("CRITERION_JSON_OUT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"name\":\"{name}\",\"mean_ns\":{value:.3},\"stddev_ns\":0.000,\
         \"min_ns\":{value:.3},\"samples\":1,\"iters_per_sample\":1}}\n"
    );
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = f.write_all(line.as_bytes());
    }
}

fn spec(dut: Dut, extension: bool, shards: usize) -> Fig3Spec {
    Fig3Spec {
        extension,
        shards,
        churn: Some(ChurnSpec::new(1, rounds())),
        ..Fig3Spec::new(dut, UseCase::OriginValidation, routes(), 1)
    }
}

/// Run one cell, print+emit its figures, return updates/sec.
fn cell(label: &str, s: &Fig3Spec) -> f64 {
    let out = run_fig3_sharded(s, ExecMode::Inline).merged;
    assert_eq!(
        out.oracle_mismatches, 0,
        "{label}: incremental Loc-RIB diverged from the full-recompute oracle"
    );
    println!(
        "churn/{label:<42} {:>12.0} updates/s  (cpu {:>9.3} ms, convergence {:>9.3} ms, \
         {} updates, {} best changes)",
        out.updates_per_sec(),
        out.churn_cpu_ns as f64 / 1e6,
        out.convergence_ns as f64 / 1e6,
        out.updates_applied,
        out.best_changes,
    );
    emit_json_line(&format!("churn/updates_per_sec/{label}"), out.updates_per_sec());
    emit_json_line(&format!("churn/cpu_ns/{label}"), out.churn_cpu_ns as f64);
    emit_json_line(&format!("churn/convergence_ns/{label}"), out.convergence_ns as f64);
    out.updates_per_sec()
}

fn bench(_c: &mut Criterion) {
    let counts = shard_counts();
    println!(
        "# churn storm: {} routes, {} rounds, OV workload, seed 1 (virtual, CPU-accounted)",
        routes(),
        rounds()
    );

    for dut in [Dut::Fir, Dut::Wren] {
        let d = dut_slug(dut);
        for &n in &counts {
            cell(&format!("{d}_native/shards_{n}"), &spec(dut, false, n));
        }
        for &n in &counts {
            cell(&format!("{d}_ext/shards_{n}"), &spec(dut, true, n));
        }
    }

    // Ablation baseline: full decision recomputation per churn batch.
    println!("# full-recompute baseline (the ablation the speedup ratio is against)");
    for dut in [Dut::Fir, Dut::Wren] {
        let d = dut_slug(dut);
        let incremental = cell(&format!("{d}_native/shards_1_again"), &spec(dut, false, 1));
        let base = Fig3Spec { full_recompute: true, ..spec(dut, false, 1) };
        let full = cell(&format!("{d}_full_recompute/shards_1"), &base);
        let ratio = incremental / full.max(1e-9);
        println!("churn/speedup/{d}: incremental {ratio:.2}x full-recompute updates/s");
        emit_json_line(&format!("churn/speedup_x/{d}"), ratio);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
