//! §3.3 / Fig. 5 — BGP in the datacenter: the same-ASN trick versus the
//! xBGP valley-free filter.
//!
//!     cargo run --example datacenter_valley_free
//!
//! Builds the paper's 2-level Clos (spines S1/S2, leaves L10..L13),
//! originates a prefix below L13 and an external prefix at S1, fails the
//! links L10–S1 and L13–S2, and shows:
//!
//! * same-ASN trick → the fabric partitions (L10 loses the prefix),
//! * distinct ASNs + the xBGP filter → the surviving valley path keeps
//!   the fabric connected for internal destinations while external
//!   valleys stay blocked.

use bgp_fir::FirDaemon;
use netsim::{LinkId, NodeId, Sim, SimConfig};
use xbgp_driver::DaemonSpec;
use xbgp_progs::valley_free;
use xbgp_wire::Ipv4Prefix;

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;
const S1: usize = 0;
const S2: usize = 1;
const L10: usize = 2;
const L13: usize = 5;
const LEAVES: [usize; 4] = [2, 3, 4, 5];

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

struct Ph;
impl netsim::Node for Ph {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn build(asns: [u32; 6], xbgp: bool) -> (Sim, Vec<NodeId>, LinkId, LinkId) {
    let mut sim = Sim::new(SimConfig::default());
    let nodes: Vec<NodeId> = (0..6).map(|_| sim.add_node(Box::new(Ph))).collect();
    let ids: [u32; 6] = [201, 202, 110, 111, 112, 113];
    let mut links = vec![];
    for leaf in LEAVES {
        for spine in [S1, S2] {
            links.push(((leaf, spine), sim.connect(nodes[leaf], nodes[spine], MS)));
        }
    }
    let link = |a: usize, b: usize| -> LinkId {
        links
            .iter()
            .find(|((l, s), _)| (*l == a && *s == b) || (*l == b && *s == a))
            .expect("link exists")
            .1
    };
    let pairs: Vec<(u32, u32)> = LEAVES
        .iter()
        .flat_map(|&l| [(asns[l], asns[S1]), (asns[l], asns[S2])])
        .collect();
    let manifest = valley_free::manifest(&pairs, p("10.0.0.0/8"));
    for i in 0..6 {
        let mut cfg = DaemonSpec::new(asns[i], ids[i]);
        let nbs: Vec<usize> = if i < 2 { LEAVES.to_vec() } else { vec![S1, S2] };
        for nb in nbs {
            cfg = cfg.neighbor(link(i, nb), ids[nb], asns[nb]);
        }
        if i == L13 {
            cfg.originate = vec![(p("10.13.0.0/16"), ids[L13])];
        }
        if i == S1 {
            cfg.originate = vec![(p("192.0.2.0/24"), ids[S1])];
        }
        if xbgp {
            cfg.xbgp = Some(manifest.clone());
        }
        sim.replace_node(nodes[i], Box::new(FirDaemon::new(cfg)));
    }
    (sim, nodes, link(L10, S1), link(L13, S2))
}

fn l10_reaches_l13(sim: &mut Sim, nodes: &[NodeId]) -> bool {
    sim.node_ref::<FirDaemon>(nodes[L10])
        .engine
        .best_route(&p("10.13.0.0/16"))
        .is_some()
}

fn main() {
    println!("Fig. 5 Clos fabric: spines S1/S2, leaves L10..L13.");
    println!("prefix below L13: 10.13.0.0/16; failures: L10–S1 and L13–S2.\n");

    // Scenario 1: the same-ASN trick.
    let (mut sim, nodes, la, lb) = build([65200, 65200, 65100, 65100, 65110, 65110], false);
    sim.run_until(20 * SEC);
    println!(
        "same-ASN trick, healthy fabric: L10 reaches 10.13/16: {}",
        l10_reaches_l13(&mut sim, &nodes)
    );
    sim.set_link_up(la, false);
    sim.set_link_up(lb, false);
    sim.run_until(90 * SEC);
    let partitioned = !l10_reaches_l13(&mut sim, &nodes);
    println!("same-ASN trick, after double failure: PARTITIONED = {partitioned}");
    assert!(partitioned);

    // Scenario 2: distinct ASNs + the xBGP valley-free filter.
    let (mut sim, nodes, la, lb) = build([65201, 65202, 65101, 65102, 65103, 65104], true);
    sim.run_until(20 * SEC);
    let ext_leak = sim
        .node_ref::<FirDaemon>(nodes[S2])
        .engine
        .best_route(&p("192.0.2.0/24"))
        .is_some();
    println!(
        "\nxBGP filter, healthy fabric: external prefix leaks to S2 via a leaf valley: {ext_leak}"
    );
    assert!(!ext_leak, "valleys blocked for external prefixes");
    sim.set_link_up(la, false);
    sim.set_link_up(lb, false);
    sim.run_until(90 * SEC);
    let connected = l10_reaches_l13(&mut sim, &nodes);
    println!("xBGP filter, after double failure: L10 still reaches 10.13/16: {connected}");
    assert!(connected);
    let path: Vec<u32> = sim
        .node_ref::<FirDaemon>(nodes[L10])
        .engine
        .best_route(&p("10.13.0.0/16"))
        .unwrap()
        .attrs
        .as_path
        .asns()
        .collect();
    println!("surviving (valley) AS path at L10: {path:?}");
    println!(
        "\nsame policy intent, but the extension understands *why* valleys are\n\
         forbidden and can make the exception the same-ASN trick cannot —\n\
         and operators keep distinct ASNs for troubleshooting."
    );
}
