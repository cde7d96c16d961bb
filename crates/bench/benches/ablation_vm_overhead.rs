//! Ablation: what one VM invocation costs at an insertion point.
//!
//! The paper's "within 20%" number is the macro consequence of this
//! micro cost: VMM sandbox setup + interpretation + helper dispatch per
//! insertion-point call, against a native Rust function call doing the
//! same work.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::{abi_symbols, InsertionPoint, NextHopInfo};
use xbgp_core::host::MockHost;
use xbgp_core::{ExtensionSpec, Manifest, Vmm, VmmOutcome};

fn vmm_with(src: &str, helpers: &[&str]) -> Vmm {
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("assembles");
    let mut m = Manifest::new();
    m.push(ExtensionSpec::from_program(
        "bench",
        "bench",
        InsertionPoint::BgpOutboundFilter,
        helpers,
        &prog,
    ));
    Vmm::from_manifest(&m).expect("loads")
}

fn bench(c: &mut Criterion) {
    let mut host = MockHost {
        nexthop: Some(NextHopInfo { addr: 1, igp_metric: 10, reachable: true }),
        ..Default::default()
    };

    // Baseline: the same logic as Listing 1, natively.
    c.bench_function("vm_overhead/native_filter_logic", |b| {
        b.iter(|| {
            let peer_ebgp = black_box(true);
            let metric = black_box(10u32);
            black_box(peer_ebgp && metric <= 1000)
        })
    });

    // Minimal program: mov + exit (pure VMM + interpreter entry cost).
    let mut minimal = vmm_with("mov r0, 1\nexit", &[]);
    c.bench_function("vm_overhead/minimal_program", |b| {
        b.iter(|| black_box(minimal.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });

    // Listing 1: two helper calls with struct marshalling.
    let mut listing1 =
        vmm_with(xbgp_progs::igp_filter::SOURCE, &["get_peer_info", "get_nexthop", "next"]);
    c.bench_function("vm_overhead/listing1_filter", |b| {
        b.iter(|| {
            let out = listing1.run(InsertionPoint::BgpOutboundFilter, &mut host);
            assert_eq!(out, VmmOutcome::Fallback); // metric 10 → accepted
            black_box(out)
        })
    });

    // Compute-heavy program: a 1000-iteration loop, isolating pure
    // interpretation throughput.
    let loop_src = r"
        mov r0, 0
        mov r1, 1000
    l:  add r0, r1
        sub r1, 1
        jne r1, 0, l
        exit
    ";
    let mut looper = vmm_with(loop_src, &[]);
    c.bench_function("vm_overhead/3000_instruction_loop", |b| {
        b.iter(|| black_box(looper.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });
    looper.set_check_elision(false);
    c.bench_function("vm_overhead/3000_instruction_loop/no_elide", |b| {
        b.iter(|| black_box(looper.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });

    // Memory-bound loop: a cursor/end-pointer walk over 256 bytes of
    // frame. The abstract interpreter proves every `ldxb`/`stxb` in
    // bounds (DESIGN.md §4i), so the elision-on runs take the fast
    // region-indexed path instead of the full address-range check.
    let walk_src = r"
        mov r0, 0
        mov r1, r10
        sub r1, 256
        mov r2, r10
    b:  ldxb r3, [r1]
        add r3, 1
        stxb [r1], r3
        add r0, r3
        add r1, 1
    t:  jlt r1, r2, b
        exit
    ";
    let mut walker = vmm_with(walk_src, &[]);
    c.bench_function("vm_overhead/stack_walk_loop", |b| {
        b.iter(|| black_box(walker.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });
    walker.set_check_elision(false);
    c.bench_function("vm_overhead/stack_walk_loop/no_elide", |b| {
        b.iter(|| black_box(walker.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });

    // The same walk over a `ctx_malloc`'d heap buffer — the shape real
    // use cases have (attribute bytes live in heap windows, not on the
    // frame). The heap region sits behind the stack in the checked
    // path's scan order, so this is where proof-carrying elision pays.
    let heap_walk_src = r"
        mov r6, 0
        mov r1, 256
        call ctx_malloc
        jeq r0, 0, out
        mov r1, r0
        mov r2, r0
        add r2, 256
    b:  ldxb r3, [r1]
        add r3, 1
        stxb [r1], r3
        add r6, r3
        add r1, 1
        jlt r1, r2, b
    out:
        mov r0, r6
        exit
    ";
    let mut hwalker = vmm_with(heap_walk_src, &["ctx_malloc"]);
    c.bench_function("vm_overhead/heap_walk_loop", |b| {
        b.iter(|| black_box(hwalker.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });
    hwalker.set_check_elision(false);
    c.bench_function("vm_overhead/heap_walk_loop/no_elide", |b| {
        b.iter(|| black_box(hwalker.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });

    // Memory-op-dense variant: an unrolled 8-byte read-modify-write pass
    // over the heap buffer, the shape attribute-rewrite extensions have
    // (rr_encode, geoloc_encode move bytes between heap windows). Half
    // the retired instructions are proven loads/stores, so this cell
    // isolates what elision is worth when memory traffic, not dispatch,
    // is the bottleneck.
    // The outer repeat loop amortizes the fixed invocation cost
    // (sandbox entry + ctx_malloc) so the cell measures the steady
    // walk, not the setup.
    let heap_rewrite_src = r"
        mov r6, 0
        mov r7, 8
        mov r1, 1024
        call ctx_malloc
        jeq r0, 0, out
    o:  mov r1, r0
        mov r2, r0
        add r2, 1009
    b:  ldxdw r3, [r1]
        add r3, 1
        stxdw [r1], r3
        ldxdw r4, [r1+8]
        add r4, 1
        stxdw [r1+8], r4
        add r6, r3
        add r1, 16
        jlt r1, r2, b
        sub r7, 1
        jne r7, 0, o
    out:
        mov r0, r6
        exit
    ";
    let mut rewriter = vmm_with(heap_rewrite_src, &["ctx_malloc"]);
    c.bench_function("vm_overhead/heap_rewrite_loop", |b| {
        b.iter(|| black_box(rewriter.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });
    rewriter.set_check_elision(false);
    c.bench_function("vm_overhead/heap_rewrite_loop/no_elide", |b| {
        b.iter(|| black_box(rewriter.run(InsertionPoint::BgpOutboundFilter, &mut host)))
    });

    // Load-time side of the split: verify + pre-decode + sandbox build for
    // the real §3.4 program. Pre-decoding moved per-step opcode parsing
    // here, out of the per-route run path measured below.
    let rov_manifest = xbgp_progs::origin_validation::manifest();
    c.bench_function("vm_overhead/rov_check_load_and_verify", |b| {
        b.iter(|| black_box(Vmm::from_manifest(&rov_manifest).unwrap()))
    });

    // The real §3.4 program, per-route cost (Fig. 4's extension-side
    // increment on the OV use case).
    let mut rov = Vmm::from_manifest(&rov_manifest).unwrap();
    let mut rov_host = MockHost {
        prefix: Some("10.1.2.0/24".parse().unwrap()),
        ..Default::default()
    };
    let mut path = Vec::new();
    xbgp_wire::AsPath::sequence(vec![65001, 65002, 65003, 65004]).encode_body(&mut path, 4);
    rov_host.attrs.push((2, 0x40, path));
    c.bench_function("vm_overhead/rov_check_per_route", |b| {
        b.iter(|| black_box(rov.run(xbgp_core::InsertionPoint::BgpInboundFilter, &mut rov_host)))
    });
    rov.set_check_elision(false);
    c.bench_function("vm_overhead/rov_check_per_route/no_elide", |b| {
        b.iter(|| black_box(rov.run(xbgp_core::InsertionPoint::BgpInboundFilter, &mut rov_host)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
