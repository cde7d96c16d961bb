//! Fig. 4, orange series: origin validation native vs extension on both
//! implementations. The paper's surprise — the extension beating
//! FRRouting's native trie — should reproduce as `xFIR/extension` ≲
//! `xFIR/native` while `xWREN` shows parity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};

const ROUTES: usize = 2_000;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_origin_validation");
    g.sample_size(10);
    for dut in [Dut::Fir, Dut::Wren] {
        for (label, extension) in [("native", false), ("extension", true)] {
            g.bench_with_input(BenchmarkId::new(dut.name(), label), &extension, |b, &extension| {
                b.iter(|| {
                    let out = run(&Fig3Spec {
                        extension,
                        ..Fig3Spec::new(dut, UseCase::OriginValidation, ROUTES, 99)
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
