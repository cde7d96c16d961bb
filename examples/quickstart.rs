//! Quickstart: write an xBGP extension in eBPF assembly, load it into a
//! running BGP daemon, and watch it change routing behaviour.
//!
//!     cargo run --example quickstart
//!
//! The extension rejects every route carrying the community 65000:666 —
//! a blackhole import filter an operator could deploy today, without
//! waiting for the IETF or a vendor.

use bgp_fir::FirDaemon;
use netsim::{Sim, SimConfig};
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::abi_symbols;
use xbgp_core::{ExtensionSpec, InsertionPoint, Manifest};
use xbgp_driver::DaemonSpec;
use xbgp_harness::Feeder;
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, PathAttr, UpdateMsg};

/// An import filter in xBGP assembly: fetch COMMUNITIES, scan for
/// 65000:666, reject on match, otherwise delegate with next().
const BLACKHOLE_FILTER: &str = r"
    .equ BLACKHOLE, 0xFDE8029A      ; 65000:666
        mov r1, 512
        call ctx_malloc
        jeq r0, 0, pass
        mov r6, r0
        mov r1, ATTR_COMMUNITIES
        mov r2, r6
        mov r3, 512
        call get_attr
        jeq r0, -1, pass            ; no communities at all
        mov r7, r0
        add r7, r6                  ; end of list
    scan:
        jge r6, r7, pass
        ldxw r1, [r6]
        be32 r1
        jeq32 r1, BLACKHOLE, reject ; jeq32: the immediate is a u32
                                    ; (64-bit jeq would sign-extend it)
        add r6, 4
        ja scan
    pass:
        call next
        exit
    reject:
        mov r0, FILTER_REJECT
        exit
";

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

struct Ph;
impl netsim::Node for Ph {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn main() {
    // 1. Assemble the extension against the xBGP ABI symbol table.
    let prog =
        assemble_with_symbols(BLACKHOLE_FILTER, &abi_symbols()).expect("the filter assembles");
    println!("assembled blackhole filter: {} eBPF instructions\n", prog.len());

    // 2. Package it in a manifest: name, insertion point, allowed helpers.
    //    The verifier rejects any helper call outside this list.
    let mut manifest = Manifest::new();
    manifest.push(ExtensionSpec::from_program(
        "blackhole_filter",
        "quickstart",
        InsertionPoint::BgpInboundFilter,
        &["ctx_malloc", "get_attr", "next"],
        &prog,
    ));
    println!(
        "manifest JSON (shippable to any xBGP-compliant router):\n{}\n",
        manifest.to_json()
    );

    // 3. A feeder announces two routes — one clean, one tagged with the
    //    blackhole community — to a FIR daemon that loaded the manifest.
    let mut sim = Sim::new(SimConfig::default());
    let feeder = sim.add_node(Box::new(Ph));
    let router = sim.add_node(Box::new(Ph));
    let link = sim.connect(feeder, router, 1_000_000);

    let base_attrs = |communities: Vec<u32>| {
        let mut attrs = vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![65001])),
            PathAttr::NextHop(1),
        ];
        if !communities.is_empty() {
            attrs.push(PathAttr::Communities(communities));
        }
        attrs
    };
    let frames = vec![
        Message::Update(UpdateMsg::announce(
            base_attrs(vec![(65000 << 16) | 666]),
            vec![p("10.66.0.0/16")],
        ))
        .encode(4)
        .unwrap(),
        Message::Update(UpdateMsg::announce(base_attrs(vec![]), vec![p("10.1.0.0/16")]))
            .encode(4)
            .unwrap(),
    ];
    sim.replace_node(feeder, Box::new(Feeder::new(65001, 1, frames)));

    let mut cfg = DaemonSpec::new(65002, 2).neighbor(link, 1, 65001);
    cfg.xbgp = Some(manifest);
    sim.replace_node(router, Box::new(FirDaemon::new(cfg)));

    sim.run_until(5_000_000_000);

    let d: &FirDaemon = sim.node_ref(router);
    println!(
        "announced: 10.66.0.0/16 (tagged 65000:666) and 10.1.0.0/16 (clean)\n\
         accepted prefixes: {:?}\n\
         routes rejected by the extension: {}",
        d.engine.loc_rib_prefixes(),
        d.host.stats.xbgp_rejected
    );
    assert_eq!(d.engine.loc_rib_prefixes(), vec![p("10.1.0.0/16")]);
    assert_eq!(d.host.stats.xbgp_rejected, 1);
    println!("\nthe tagged route was dropped by ~25 lines of assembly — no vendor involved.");
}
