//! Fig. 4, blue series: route reflection native vs extension on both
//! implementations.
//!
//! Each iteration runs the whole Fig. 3 chain (feeder → DUT → sink) over
//! a scaled table. Compare `native` and `extension` times per DUT; the
//! paper's result is extension ≲ +20%. The full-size version (15 paired
//! runs, big tables, boxplots) is `cargo run --release -p xbgp-harness
//! --bin fig4 -- --use-case rr`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};

const ROUTES: usize = 2_000;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_route_reflection");
    g.sample_size(10);
    for dut in [Dut::Fir, Dut::Wren] {
        for (label, extension) in [("native", false), ("extension", true)] {
            g.bench_with_input(BenchmarkId::new(dut.name(), label), &extension, |b, &extension| {
                b.iter(|| {
                    let out = run(&Fig3Spec {
                        dut,
                        use_case: UseCase::RouteReflection,
                        extension,
                        routes: ROUTES,
                        seed: 99,
                        metrics: false,
                        shards: 1,
                        rib_dump: false,
                        trace_sample: 0,
                        profile: false,
                    });
                    assert_eq!(out.prefixes_delivered, ROUTES);
                    black_box(out.elapsed_ns)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
