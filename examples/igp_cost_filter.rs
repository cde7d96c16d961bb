//! §3.1 — Filtering routes based on IGP costs (Listing 1).
//!
//!     cargo run --example igp_cost_filter
//!
//! The paper's worldwide ISP: two transatlantic links (IGP metric 1000)
//! terminate in London and Amsterdam; Europe is richly connected with
//! cheap links. The export filter refuses to announce routes whose
//! nexthop costs more than 1000 — so when the UK's continental links
//! fail and London becomes reachable from Berlin only via New York, the
//! Berlin border router stops advertising London-learned routes to its
//! European peer.

use bgp_fir::FirDaemon;
use igp::IgpNetwork;
use netsim::{Sim, SimConfig};
use xbgp_driver::DaemonSpec;
use xbgp_progs::igp_filter;
use xbgp_wire::Ipv4Prefix;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

struct Ph;
impl netsim::Node for Ph {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

// Router addresses double as IGP node ids.
const LONDON: u32 = 1;
const AMSTERDAM: u32 = 2;
const BERLIN: u32 = 3;
const NEWYORK: u32 = 4;

fn main() {
    // The AS 65000 backbone IGP (paper's Fig-less scenario):
    //   london—amsterdam 10, berlin—london 10, berlin—amsterdam 10,
    //   newyork—london 1000, newyork—amsterdam 1000.
    let mut backbone = IgpNetwork::new();
    backbone.add_link(LONDON, AMSTERDAM, 10);
    backbone.add_link(BERLIN, LONDON, 10);
    backbone.add_link(BERLIN, AMSTERDAM, 10);
    backbone.add_link(NEWYORK, LONDON, 1000);
    backbone.add_link(NEWYORK, AMSTERDAM, 1000);
    let shared = igp::shared(backbone);

    // BGP topology: london originates a customer route (as if learned in
    // the UK); london --iBGP-- berlin --eBGP-- a European peer AS.
    let mut sim = Sim::new(SimConfig::default());
    let london = sim.add_node(Box::new(Ph));
    let berlin = sim.add_node(Box::new(Ph));
    let peer = sim.add_node(Box::new(Ph));
    let l_ibgp = sim.connect(london, berlin, MS);
    let l_ebgp = sim.connect(berlin, peer, MS);

    let mut cfg_london = DaemonSpec::new(65000, LONDON).neighbor(l_ibgp, BERLIN, 65000);
    cfg_london.originate = vec![(p("203.0.113.0/24"), LONDON)];
    sim.replace_node(london, Box::new(FirDaemon::new(cfg_london)));

    let mut cfg_berlin = DaemonSpec::new(65000, BERLIN)
        .neighbor(l_ibgp, LONDON, 65000)
        .neighbor(l_ebgp, 9, 65009);
    cfg_berlin.igp = Some(shared.clone());
    cfg_berlin.xbgp = Some(igp_filter::manifest());
    sim.replace_node(berlin, Box::new(FirDaemon::new(cfg_berlin)));

    let cfg_peer = DaemonSpec::new(65009, 9).neighbor(l_ebgp, BERLIN, 65000);
    sim.replace_node(peer, Box::new(FirDaemon::new(cfg_peer)));

    sim.run_until(5 * SEC);
    {
        let metric = shared.borrow().metric(BERLIN, LONDON);
        let d: &FirDaemon = sim.node_ref(peer);
        println!(
            "healthy: berlin→london IGP metric = {metric}; peer sees {:?}",
            d.engine.loc_rib_prefixes()
        );
        assert_eq!(d.engine.loc_rib_prefixes(), vec![p("203.0.113.0/24")]);
    }

    // The UK's continental links fail; London is now only reachable via
    // the transatlantic detour (metric 2010 > 1000).
    shared.borrow_mut().set_link_up(LONDON, AMSTERDAM, false);
    shared.borrow_mut().set_link_up(BERLIN, LONDON, false);
    // BGP itself was untouched by the IGP failure; flap the iBGP session
    // so the route re-enters the export pipeline with the post-failure
    // metrics (a real deployment would hook IGP events into re-export).
    sim.set_link_up(l_ibgp, false);
    sim.run_until(6 * SEC);
    sim.set_link_up(l_ibgp, true);
    sim.run_until(20 * SEC);

    let metric = shared.borrow().metric(BERLIN, LONDON);
    let peer_sees = {
        let d: &FirDaemon = sim.node_ref(peer);
        d.engine.loc_rib_prefixes()
    };
    println!(
        "after UK link failures: berlin→london IGP metric = {metric}; peer sees {peer_sees:?}"
    );
    let b: &FirDaemon = sim.node_ref(berlin);
    println!("berlin's extension rejected {} export(s)", b.host.stats.xbgp_rejected);
    assert!(
        peer_sees.is_empty(),
        "routes with transatlantic-detour nexthops are no longer exported"
    );
    println!(
        "\nwith BGP communities this policy is impossible to express — the\n\
         tags don't change when the IGP does. With Listing 1's 12-line xBGP\n\
         filter, the export decision tracks the live IGP metric."
    );
}
