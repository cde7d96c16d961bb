//! The paper's running example (§2, Fig. 2): the GeoLoc attribute.
//!
//!     cargo run --example geoloc
//!
//! Four bytecodes — receive, inbound filter, outbound filter, encode —
//! cooperate to stamp eBGP-learned routes with the learning router's
//! coordinates, carry the attribute across iBGP, and drop routes learned
//! too far away. The same bytecode runs on FIR here and on WREN in the
//! integration tests.

use bgp_fir::FirDaemon;
use netsim::{Sim, SimConfig};
use xbgp_driver::DaemonSpec;
use xbgp_progs::{geoloc, GEOLOC_ATTR};
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

fn main() {
    // Topology: an external AS feeds a border router in London; London
    // speaks iBGP to a router in Tokyo that only wants nearby routes.
    //
    //   external(65009) --eBGP-- london(65000) --iBGP-- tokyo(65000)
    //
    // Coordinates in milli-degrees: London ~ (51507, -128), Tokyo ~
    // (35676, 139650). Tokyo's radius only admits routes learned within
    // ~60 degrees of itself.
    let mut sim = Sim::new(SimConfig::default());
    let external = sim.add_node(Box::new(Ph));
    let london = sim.add_node(Box::new(Ph));
    let tokyo = sim.add_node(Box::new(Ph));
    let l_ext = sim.connect(external, london, 1_000_000);
    let l_ibgp = sim.connect(london, tokyo, 1_000_000);

    let mut cfg_ext = DaemonSpec::new(65009, 9).neighbor(l_ext, 1, 65000);
    cfg_ext.originate = vec![(p("198.51.100.0/24"), 9)];
    sim.replace_node(external, Box::new(FirDaemon::new(cfg_ext)));

    let mut cfg_london =
        DaemonSpec::new(65000, 1).neighbor(l_ext, 9, 65009).neighbor(l_ibgp, 2, 65000);
    cfg_london.xbgp = Some(geoloc::manifest(None));
    cfg_london.xtra = vec![("geo".into(), geoloc::coords_bytes(51_507, -128))];
    sim.replace_node(london, Box::new(FirDaemon::new(cfg_london)));

    // Tokyo enforces a radius: 60 000 milli-degrees squared distance.
    let radius: u64 = 60_000;
    let mut cfg_tokyo = DaemonSpec::new(65000, 2).neighbor(l_ibgp, 1, 65000);
    cfg_tokyo.xbgp = Some(geoloc::manifest(Some(radius * radius)));
    cfg_tokyo.xtra = vec![("geo".into(), geoloc::coords_bytes(35_676, 139_650))];
    sim.replace_node(tokyo, Box::new(FirDaemon::new(cfg_tokyo)));

    sim.run_until(5 * SEC);

    {
        let d: &FirDaemon = sim.node_ref(london);
        let best = d.engine.best_route(&p("198.51.100.0/24")).expect("learned");
        let stamp = best
            .attrs
            .extra
            .iter()
            .find(|(c, _, _)| *c == GEOLOC_ATTR)
            .expect("bytecode ① stamped the route");
        let lat = i32::from_be_bytes(stamp.2[0..4].try_into().unwrap());
        let lon = i32::from_be_bytes(stamp.2[4..8].try_into().unwrap());
        println!(
            "london learned 198.51.100.0/24 over eBGP; GeoLoc stamped: ({:.3}°, {:.3}°)",
            lat as f64 / 1000.0,
            lon as f64 / 1000.0
        );
    }

    let d: &FirDaemon = sim.node_ref(tokyo);
    println!(
        "tokyo (radius {radius} milli-degrees): prefixes accepted = {:?}, \
         rejected by the distance filter = {}",
        d.engine.loc_rib_prefixes(),
        d.host.stats.xbgp_rejected
    );
    assert!(d.engine.loc_rib_prefixes().is_empty(), "London is too far from Tokyo");
    assert_eq!(d.host.stats.xbgp_rejected, 1);

    println!(
        "\nthe route crossed the iBGP hop carrying GeoLoc (bytecode ④ wrote it\n\
         on the wire) and Tokyo's inbound bytecode ② rejected it as too far —\n\
         the policy the IETF discussed but never standardized, in four small\n\
         eBPF programs."
    );
}
