//! Ablation: sharded table-load scaling — how the Fig. 3 table-load
//! completion time falls as the workload splits across per-shard
//! workers, each owning its own daemon and `Vmm`.
//!
//! Two quantities per (daemon × variant × shard count) cell:
//!
//! * **virtual completion** — `merged.elapsed_ns` of an
//!   [`ExecMode::Inline`] run: the max per-shard virtual table-load
//!   time, i.e. when the load completes with one core per shard. Inline
//!   execution keeps each shard's `Instant`-sampled CPU accounting
//!   uncontended, so the numbers are meaningful even on hosts with
//!   fewer hardware threads than shards (this container has one).
//! * **host wall-clock** — criterion-timed [`ExecMode::Threads`] runs,
//!   reported honestly: on a single-core host the threaded path cannot
//!   beat sequential, and the samples show exactly that.
//!
//! Scale knobs for CI: `SHARD_BENCH_ROUTES` (default 50_000) and
//! `SHARD_BENCH_SHARDS` (comma list, default `1,2,4`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Write;
use xbgp_harness::fig3::{Dut, Fig3Spec, UseCase};
use xbgp_harness::shard::{run_fig3_sharded, ExecMode};

fn routes() -> usize {
    std::env::var("SHARD_BENCH_ROUTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000)
}

fn shard_counts() -> Vec<usize> {
    std::env::var("SHARD_BENCH_SHARDS")
        .ok()
        .map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).filter(|&n| n > 0).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

fn spec(dut: Dut, extension: bool, routes: usize, shards: usize) -> Fig3Spec {
    Fig3Spec {
        dut,
        use_case: UseCase::OriginValidation,
        extension,
        routes,
        seed: 1,
        metrics: false,
        shards,
        rib_dump: false,
        trace_sample: 0,
        profile: false,
    }
}

fn cell_label(dut: Dut, extension: bool) -> String {
    format!(
        "{}_{}",
        match dut {
            Dut::Fir => "fir",
            Dut::Wren => "wren",
        },
        if extension { "ext" } else { "native" }
    )
}

/// Append a measurement line to `CRITERION_JSON_OUT` in the same JSONL
/// shape the criterion shim emits, so the virtual-time numbers land in
/// the same artifact as the wall-clock samples.
fn emit_json_line(name: &str, value_ns: f64) {
    let Ok(path) = std::env::var("CRITERION_JSON_OUT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"name\":\"{name}\",\"mean_ns\":{value_ns:.3},\"stddev_ns\":0.000,\
         \"min_ns\":{value_ns:.3},\"samples\":1,\"iters_per_sample\":1}}\n"
    );
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = f.write_all(line.as_bytes());
    }
}

fn bench(c: &mut Criterion) {
    let routes = routes();
    let counts = shard_counts();

    // Virtual table-load completion, every daemon × variant × shard count.
    println!("# virtual table-load completion ({routes} routes, OV workload)");
    for dut in [Dut::Fir, Dut::Wren] {
        for extension in [false, true] {
            let label = cell_label(dut, extension);
            let mut base_ns = 0u64;
            for &n in &counts {
                let run = run_fig3_sharded(&spec(dut, extension, routes, n), ExecMode::Inline);
                assert_eq!(run.merged.prefixes_delivered, routes);
                let elapsed = run.merged.elapsed_ns;
                let sum: u64 = run.shards.iter().map(|s| s.outcome.elapsed_ns).sum();
                if n == counts[0] {
                    base_ns = elapsed;
                }
                let speedup = base_ns as f64 / elapsed.max(1) as f64;
                println!(
                    "shard_scaling/virtual/{label}/shards_{n:<2} \
                     completion {:>10.3} ms (sum {:>10.3} ms, {:.2}x vs {} shard)",
                    elapsed as f64 / 1e6,
                    sum as f64 / 1e6,
                    speedup,
                    counts[0],
                );
                emit_json_line(
                    &format!("shard_scaling/virtual/{label}/shards_{n}"),
                    elapsed as f64,
                );
                emit_json_line(
                    &format!("shard_scaling/virtual_sum/{label}/shards_{n}"),
                    sum as f64,
                );
            }
        }
    }

    // Host wall-clock of the threaded runtime path. Extension variant
    // only (the native loop above already covers virtual scaling; wall
    // sampling at full table size is expensive).
    let mut g = c.benchmark_group("shard_scaling/wall");
    g.sample_size(2);
    for dut in [Dut::Fir, Dut::Wren] {
        let label = cell_label(dut, true);
        for &n in &counts {
            g.bench_with_input(BenchmarkId::new(&label, n), &n, |b, &n| {
                b.iter(|| {
                    let run = run_fig3_sharded(&spec(dut, true, routes, n), ExecMode::Threads);
                    black_box(run.merged.prefixes_delivered)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
