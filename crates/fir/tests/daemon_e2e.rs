//! End-to-end tests: FIR daemons talking BGP to each other over netsim.

use bgp_fir::FirDaemon;
use netsim::{Sim, SimConfig};
use rpki::Roa;
use xbgp_driver::{Daemon, DaemonSpec};
use xbgp_wire::Ipv4Prefix;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

/// Two routers, one eBGP session, one originated prefix.
fn two_router_setup(
    a_cfg: impl FnOnce(DaemonSpec) -> DaemonSpec,
    b_cfg: impl FnOnce(DaemonSpec) -> DaemonSpec,
) -> (Sim, netsim::NodeId, netsim::NodeId) {
    let mut sim = Sim::new(SimConfig::default());
    // Reserve node ids first so link ids are known before configs.
    let a = sim.add_node(Box::new(Placeholder));
    let b = sim.add_node(Box::new(Placeholder));
    let link = sim.connect(a, b, MS);
    let cfg_a = a_cfg(DaemonSpec::new(65001, 1).neighbor(link, 2, 65002));
    let cfg_b = b_cfg(DaemonSpec::new(65002, 2).neighbor(link, 1, 65001));
    sim.replace_node(a, Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(b, Box::new(FirDaemon::new(cfg_b)));
    (sim, a, b)
}

/// Stand-in node used while wiring topologies (replaced before start).
struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn ebgp_session_establishes_and_propagates_a_route() {
    let (mut sim, a, b) = two_router_setup(
        |cfg| {
            let mut cfg = cfg;
            cfg.originate = vec![(p("10.1.0.0/16"), 1)];
            cfg
        },
        |cfg| cfg,
    );
    sim.run_until(5 * SEC);

    let db: &FirDaemon = sim.node_ref(b);
    assert!(db.session_established(1));
    assert_eq!(db.engine.loc_rib_prefixes(), vec![p("10.1.0.0/16")]);
    let best = db.engine.best_route(&p("10.1.0.0/16")).unwrap();
    // eBGP export prepended the sender's ASN and rewrote the nexthop.
    assert_eq!(best.attrs.as_path.asns().collect::<Vec<_>>(), vec![65001]);
    assert_eq!(best.attrs.next_hop, 1);
    assert!(best.attrs.local_pref.is_none(), "LOCAL_PREF stripped on eBGP");

    let da: &FirDaemon = sim.node_ref(a);
    assert!(da.session_established(2));
}

#[test]
fn withdrawal_propagates_on_link_failure_between_three_routers() {
    // a —— dut —— c : a originates; link a—dut dies; c must lose the route.
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.add_node(Box::new(Placeholder));
    let dut = sim.add_node(Box::new(Placeholder));
    let c = sim.add_node(Box::new(Placeholder));
    let l1 = sim.connect(a, dut, MS);
    let l2 = sim.connect(dut, c, MS);
    let mut cfg_a = DaemonSpec::new(65001, 1).neighbor(l1, 2, 65002);
    cfg_a.originate = vec![(p("192.0.2.0/24"), 1)];
    let cfg_dut = DaemonSpec::new(65002, 2).neighbor(l1, 1, 65001).neighbor(l2, 3, 65003);
    let cfg_c = DaemonSpec::new(65003, 3).neighbor(l2, 2, 65002);
    sim.replace_node(a, Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg_dut)));
    sim.replace_node(c, Box::new(FirDaemon::new(cfg_c)));

    sim.run_until(5 * SEC);
    {
        let dc: &FirDaemon = sim.node_ref(c);
        assert_eq!(dc.engine.loc_rib_prefixes(), vec![p("192.0.2.0/24")]);
        let path: Vec<u32> =
            dc.engine.best_route(&p("192.0.2.0/24")).unwrap().attrs.as_path.asns().collect();
        assert_eq!(path, vec![65002, 65001], "two eBGP hops prepended");
    }

    sim.set_link_up(l1, false);
    sim.run_until(10 * SEC);
    let dc: &FirDaemon = sim.node_ref(c);
    assert!(
        dc.engine.loc_rib_prefixes().is_empty(),
        "route must be withdrawn after the upstream link failed"
    );
}

#[test]
fn ibgp_routes_are_not_reflected_without_rr() {
    // up --eBGP-- dut --iBGP-- x --iBGP-- y : y must NOT get the route
    // (x does not reflect iBGP-learned routes), while x does get it.
    let mut sim = Sim::new(SimConfig::default());
    let up = sim.add_node(Box::new(Placeholder));
    let x = sim.add_node(Box::new(Placeholder));
    let dut = sim.add_node(Box::new(Placeholder));
    let y = sim.add_node(Box::new(Placeholder));
    let l_up = sim.connect(up, dut, MS);
    let l_x = sim.connect(dut, x, MS);
    let l_y = sim.connect(x, y, MS);

    let mut cfg_up = DaemonSpec::new(65009, 9).neighbor(l_up, 2, 65000);
    cfg_up.originate = vec![(p("203.0.113.0/24"), 9)];
    let cfg_dut = DaemonSpec::new(65000, 2).neighbor(l_up, 9, 65009).neighbor(l_x, 3, 65000);
    let cfg_x = DaemonSpec::new(65000, 3).neighbor(l_x, 2, 65000).neighbor(l_y, 4, 65000);
    let cfg_y = DaemonSpec::new(65000, 4).neighbor(l_y, 3, 65000);
    sim.replace_node(up, Box::new(FirDaemon::new(cfg_up)));
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg_dut)));
    sim.replace_node(x, Box::new(FirDaemon::new(cfg_x)));
    sim.replace_node(y, Box::new(FirDaemon::new(cfg_y)));

    sim.run_until(5 * SEC);
    assert_eq!(
        sim.node_ref::<FirDaemon>(x).engine.loc_rib_prefixes(),
        vec![p("203.0.113.0/24")],
        "eBGP-learned route goes to iBGP peer x"
    );
    // x learned it over iBGP → not re-advertised to y.
    assert!(sim.node_ref::<FirDaemon>(y).engine.loc_rib_prefixes().is_empty());
}

#[test]
fn native_route_reflection_reflects_with_originator_and_cluster_list() {
    // up --iBGP(client)-- rr --iBGP(client)-- down, native RR on the rr.
    let mut sim = Sim::new(SimConfig::default());
    let up = sim.add_node(Box::new(Placeholder));
    let rr = sim.add_node(Box::new(Placeholder));
    let down = sim.add_node(Box::new(Placeholder));
    let l_up = sim.connect(up, rr, MS);
    let l_down = sim.connect(rr, down, MS);

    let mut cfg_up = DaemonSpec::new(65000, 1).neighbor(l_up, 2, 65000);
    cfg_up.originate = vec![(p("198.51.100.0/24"), 1)];
    let mut cfg_rr =
        DaemonSpec::new(65000, 2).rr_client(l_up, 1, 65000).rr_client(l_down, 3, 65000);
    cfg_rr.native_rr = true;
    let cfg_down = DaemonSpec::new(65000, 3).neighbor(l_down, 2, 65000);
    sim.replace_node(up, Box::new(FirDaemon::new(cfg_up)));
    sim.replace_node(rr, Box::new(FirDaemon::new(cfg_rr)));
    sim.replace_node(down, Box::new(FirDaemon::new(cfg_down)));

    sim.run_until(5 * SEC);
    let dd: &FirDaemon = sim.node_ref(down);
    assert_eq!(dd.engine.loc_rib_prefixes(), vec![p("198.51.100.0/24")]);
    let best = dd.engine.best_route(&p("198.51.100.0/24")).unwrap();
    assert_eq!(best.attrs.originator_id, Some(1), "ORIGINATOR_ID = learner's id");
    assert_eq!(best.attrs.cluster_list, vec![2], "reflector prepended its cluster id");
    assert_eq!(best.attrs.local_pref, Some(100));
    assert!(best.attrs.as_path.asns().next().is_none(), "AS path untouched on iBGP");
}

#[test]
fn reflection_loop_prevention_by_originator_id() {
    // Two reflectors in a triangle with the client would loop without
    // ORIGINATOR_ID/CLUSTER_LIST checks; assert the route converges and
    // the client does not reimport its own route.
    let mut sim = Sim::new(SimConfig::default());
    let client = sim.add_node(Box::new(Placeholder));
    let rr1 = sim.add_node(Box::new(Placeholder));
    let rr2 = sim.add_node(Box::new(Placeholder));
    let l1 = sim.connect(client, rr1, MS);
    let l2 = sim.connect(rr1, rr2, MS);
    let l3 = sim.connect(rr2, client, MS);

    let mut cfg_client = DaemonSpec::new(65000, 1).neighbor(l1, 2, 65000).neighbor(l3, 3, 65000);
    cfg_client.originate = vec![(p("10.9.9.0/24"), 1)];
    let mut cfg_rr1 = DaemonSpec::new(65000, 2).rr_client(l1, 1, 65000).neighbor(l2, 3, 65000);
    cfg_rr1.native_rr = true;
    let mut cfg_rr2 = DaemonSpec::new(65000, 3).rr_client(l3, 1, 65000).neighbor(l2, 2, 65000);
    cfg_rr2.native_rr = true;
    sim.replace_node(client, Box::new(FirDaemon::new(cfg_client)));
    sim.replace_node(rr1, Box::new(FirDaemon::new(cfg_rr1)));
    sim.replace_node(rr2, Box::new(FirDaemon::new(cfg_rr2)));

    sim.run_until(10 * SEC);
    for node in [rr1, rr2] {
        let d: &FirDaemon = sim.node_ref(node);
        assert_eq!(d.engine.loc_rib_prefixes(), vec![p("10.9.9.0/24")]);
    }
    // The client's best route for its own prefix stays the local one.
    let dc: &FirDaemon = sim.node_ref(client);
    assert!(dc.engine.best_route(&p("10.9.9.0/24")).unwrap().source.local);
}

#[test]
fn native_origin_validation_tags_routes_with_the_trie() {
    let roas = vec![
        Roa::new(p("10.1.0.0/16"), 16, 65001), // matches the origin → Valid
        Roa::new(p("10.2.0.0/16"), 16, 64999), // wrong origin → Invalid
    ];
    let (mut sim, _a, b) = two_router_setup(
        |cfg| {
            let mut cfg = cfg;
            cfg.originate = vec![
                (p("10.1.0.0/16"), 1),
                (p("10.2.0.0/16"), 1),
                (p("10.3.0.0/16"), 1), // no ROA → NotFound
            ];
            cfg
        },
        |cfg| {
            let mut cfg = cfg;
            cfg.native_rov = Some(roas.clone());
            cfg
        },
    );
    sim.run_until(5 * SEC);
    let db: &FirDaemon = sim.node_ref(b);
    assert_eq!(db.host.stats.rov_valid, 1);
    assert_eq!(db.host.stats.rov_invalid, 1);
    assert_eq!(db.host.stats.rov_not_found, 1);
    // §3.4: validation never discards.
    assert_eq!(db.loc_rib_len(), 3);
    use rpki::RovState;
    assert_eq!(db.engine.best_route(&p("10.1.0.0/16")).unwrap().rov, Some(RovState::Valid));
    assert_eq!(db.engine.best_route(&p("10.2.0.0/16")).unwrap().rov, Some(RovState::Invalid));
    assert_eq!(db.engine.best_route(&p("10.3.0.0/16")).unwrap().rov, Some(RovState::NotFound));
}

#[test]
fn ebgp_loop_detection_drops_looping_paths() {
    // a(65001) → dut(65002) → c(65001): c sees its own ASN and drops.
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.add_node(Box::new(Placeholder));
    let dut = sim.add_node(Box::new(Placeholder));
    let c = sim.add_node(Box::new(Placeholder));
    let l1 = sim.connect(a, dut, MS);
    let l2 = sim.connect(dut, c, MS);
    let mut cfg_a = DaemonSpec::new(65001, 1).neighbor(l1, 2, 65002);
    cfg_a.originate = vec![(p("10.0.0.0/8"), 1)];
    let cfg_dut = DaemonSpec::new(65002, 2).neighbor(l1, 1, 65001).neighbor(l2, 3, 65001);
    let cfg_c = DaemonSpec::new(65001, 3).neighbor(l2, 2, 65002);
    sim.replace_node(a, Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg_dut)));
    sim.replace_node(c, Box::new(FirDaemon::new(cfg_c)));
    sim.run_until(5 * SEC);
    assert!(sim.node_ref::<FirDaemon>(c).engine.loc_rib_prefixes().is_empty());
}

#[test]
fn best_path_selection_prefers_shorter_as_path_across_peers() {
    // dut hears 10.0.0.0/8 from two eBGP peers; peer a's path is shorter
    // after a re-advertisement chain (b's path goes through one extra AS).
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.add_node(Box::new(Placeholder));
    let b = sim.add_node(Box::new(Placeholder));
    let mid = sim.add_node(Box::new(Placeholder));
    let dut = sim.add_node(Box::new(Placeholder));
    let l_a_dut = sim.connect(a, dut, MS);
    let l_a_mid = sim.connect(a, mid, MS);
    let l_mid_b = sim.connect(mid, b, MS);
    let l_b_dut = sim.connect(b, dut, MS);

    let mut cfg_a = DaemonSpec::new(65001, 1)
        .neighbor(l_a_dut, 4, 65004)
        .neighbor(l_a_mid, 2, 65002);
    cfg_a.originate = vec![(p("10.0.0.0/8"), 1)];
    let cfg_mid = DaemonSpec::new(65002, 2)
        .neighbor(l_a_mid, 1, 65001)
        .neighbor(l_mid_b, 3, 65003);
    let cfg_b = DaemonSpec::new(65003, 3)
        .neighbor(l_mid_b, 2, 65002)
        .neighbor(l_b_dut, 4, 65004);
    let cfg_dut = DaemonSpec::new(65004, 4)
        .neighbor(l_a_dut, 1, 65001)
        .neighbor(l_b_dut, 3, 65003);
    sim.replace_node(a, Box::new(FirDaemon::new(cfg_a)));
    sim.replace_node(mid, Box::new(FirDaemon::new(cfg_mid)));
    sim.replace_node(b, Box::new(FirDaemon::new(cfg_b)));
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg_dut)));

    sim.run_until(10 * SEC);
    let dd: &FirDaemon = sim.node_ref(dut);
    let best = dd.engine.best_route(&p("10.0.0.0/8")).unwrap();
    assert_eq!(
        best.attrs.as_path.asns().collect::<Vec<_>>(),
        vec![65001],
        "direct one-hop path beats the three-hop path"
    );
    assert_eq!(best.source.peer_addr, 1);
}

#[test]
fn attribute_interning_shares_sets_across_prefixes() {
    let (mut sim, _a, b) = two_router_setup(
        |cfg| {
            let mut cfg = cfg;
            // Many prefixes, one origin: identical attribute sets.
            cfg.originate =
                (0..50).map(|i| (Ipv4Prefix::new(0x0a00_0000 + (i << 8), 24), 1)).collect();
            cfg
        },
        |cfg| cfg,
    );
    sim.run_until(5 * SEC);
    let db: &FirDaemon = sim.node_ref(b);
    assert_eq!(db.loc_rib_len(), 50);
    assert!(
        db.engine.interned_attr_sets() <= 3,
        "one shared attribute set expected, got {}",
        db.engine.interned_attr_sets()
    );
}

#[test]
fn hold_timer_expiry_tears_down_a_silent_session() {
    // A peer that handshakes and then goes silent must be dropped when the
    // hold timer (negotiated 9s here) expires, and its routes withdrawn.
    struct Mute {
        reader: xbgp_wire::MsgReader,
        sent_keepalive: bool,
    }
    impl netsim::Node for Mute {
        fn on_data(&mut self, ctx: &mut netsim::NodeCtx<'_>, link: netsim::LinkId, data: &[u8]) {
            use xbgp_wire::attr::Origin;
            use xbgp_wire::{AsPath, Message, MsgType, OpenMsg, PathAttr, UpdateMsg};
            self.reader.push(data);
            while let Ok(Some(frame)) = self.reader.next_frame() {
                if let Ok((MsgType::Open, _)) = xbgp_wire::msg::deframe(&frame) {
                    // Finish the handshake with a tiny hold time, announce
                    // one route, then never speak again.
                    let open = OpenMsg::standard(65009, 9, 9);
                    ctx.send(link, &Message::Open(open).encode(4).unwrap());
                    ctx.send(link, &Message::Keepalive.encode(4).unwrap());
                }
                if let Ok((MsgType::Keepalive, _)) = xbgp_wire::msg::deframe(&frame) {
                    if !self.sent_keepalive {
                        self.sent_keepalive = true;
                        let upd = UpdateMsg::announce(
                            vec![
                                PathAttr::Origin(Origin::Igp),
                                PathAttr::AsPath(AsPath::sequence(vec![65009])),
                                PathAttr::NextHop(9),
                            ],
                            vec![p("198.18.0.0/16")],
                        );
                        ctx.send(link, &Message::Update(upd).encode(4).unwrap());
                    }
                }
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let mut sim = Sim::new(SimConfig::default());
    let mute =
        sim.add_node(Box::new(Mute { reader: xbgp_wire::MsgReader::new(), sent_keepalive: false }));
    let dut = sim.add_node(Box::new(Placeholder));
    let link = sim.connect(mute, dut, MS);
    let cfg = DaemonSpec::new(65001, 1).neighbor(link, 9, 65009);
    sim.replace_node(dut, Box::new(FirDaemon::new(cfg)));

    // Session up + route learned well before the hold timer can fire.
    sim.run_until(2 * SEC);
    {
        let d: &FirDaemon = sim.node_ref(dut);
        assert!(d.session_established(9));
        assert_eq!(d.engine.loc_rib_prefixes(), vec![p("198.18.0.0/16")]);
    }
    // 9s hold + checks every 3s: by t=15s the session must be gone and the
    // route flushed.
    sim.run_until(15 * SEC);
    let d: &FirDaemon = sim.node_ref(dut);
    assert!(!d.session_established(9), "silent peer dropped on hold expiry");
    assert!(d.engine.loc_rib_prefixes().is_empty(), "its routes withdrawn");
    assert!(d.host.logs.iter().any(|l| l.contains("hold timer expired")));
}
