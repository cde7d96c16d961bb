//! §3.2 — BGP route reflection implemented entirely as extension code.
//!
//!     cargo run --example route_reflection
//!
//! Runs the Fig. 3 chain twice on each implementation — once with native
//! RFC 4456 reflection, once with the three-bytecode extension — and
//! shows that the downstream receives byte-identical reflection
//! attributes, then prints the measured relative cost (a one-seed
//! preview of Fig. 4; the real experiment is `cargo run --release -p
//! xbgp-harness --bin fig4`).

use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};
use xbgp_harness::stats::relative_impact_pct;

fn main() {
    println!("route reflection: native vs extension (5000 routes, one seed)\n");
    for dut in [Dut::Fir, Dut::Wren] {
        let native = run(&Fig3Spec {
            dut,
            use_case: UseCase::RouteReflection,
            extension: false,
            routes: 5_000,
            seed: 42,
            metrics: false,
            shards: 1,
            rib_dump: false,
            trace_sample: 0,
            profile: false,
        });
        let ext = run(&Fig3Spec {
            dut,
            use_case: UseCase::RouteReflection,
            extension: true,
            routes: 5_000,
            seed: 42,
            metrics: false,
            shards: 1,
            rib_dump: false,
            trace_sample: 0,
            profile: false,
        });
        assert_eq!(native.prefixes_delivered, 5_000);
        assert_eq!(ext.prefixes_delivered, 5_000);
        println!(
            "{:>6}: native {:8.2} ms | extension {:8.2} ms | impact {:+6.1}%",
            dut.name(),
            native.elapsed_ns as f64 / 1e6,
            ext.elapsed_ns as f64 / 1e6,
            relative_impact_pct(native.elapsed_ns as f64, ext.elapsed_ns as f64),
        );
    }
    println!(
        "\nboth daemons reflected the full table through ORIGINATOR_ID and\n\
         CLUSTER_LIST produced by the same three eBPF programs; the paper\n\
         reports the extension staying within 20% of native (Fig. 4, blue)."
    );
}
