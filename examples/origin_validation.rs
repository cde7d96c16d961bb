//! §3.4 — validating BGP prefix origins.
//!
//!     cargo run --example origin_validation
//!
//! Feeds a synthetic table (75% of prefixes covered by a matching ROA,
//! per the paper) through a device under test and compares native
//! validation with the xBGP extension. On FIR the native path walks a
//! trie per lookup while the extension uses the xBGP layer's hash table —
//! the structural reason the paper's extension beat FRRouting's native
//! code by ~10%.

use xbgp_harness::fig3::{run, Dut, Fig3Spec, UseCase};
use xbgp_harness::stats::relative_impact_pct;

fn main() {
    println!("origin validation: native vs extension (5000 routes, 75% valid, one seed)\n");
    for dut in [Dut::Fir, Dut::Wren] {
        let spec = Fig3Spec::new(dut, UseCase::OriginValidation, 5_000, 42);
        let native = run(&spec);
        let ext = run(&Fig3Spec { extension: true, ..spec });
        assert_eq!(native.prefixes_delivered, 5_000, "validation never discards");
        assert_eq!(ext.prefixes_delivered, 5_000);
        println!(
            "{:>6}: native {:8.2} ms | extension {:8.2} ms | impact {:+6.1}%   \
             (native store: {})",
            dut.name(),
            native.elapsed_ns as f64 / 1e6,
            ext.elapsed_ns as f64 / 1e6,
            relative_impact_pct(native.elapsed_ns as f64, ext.elapsed_ns as f64),
            match dut {
                Dut::Fir => "trie",
                Dut::Wren => "hash",
            },
        );
    }
    println!(
        "\nevery route was validated and none discarded (§3.4). The paper's\n\
         Fig. 4 (orange) shows the extension at parity with BIRD's native\n\
         hash-based validation and *faster* than FRRouting's trie walk —\n\
         run `cargo run --release -p xbgp-harness --bin fig4 -- --use-case ov`\n\
         for the full 15-run distribution."
    );
}
