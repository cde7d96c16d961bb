//! Update-groups against a knob-free oracle: the same daemon with one
//! more ④ program loaded, which reads the destination's router id and
//! then calls `next()`. The read puts every byte of `PeerInfo` that
//! separates two neighbors into the group key, so every group has one
//! member, and `next()` leaves every verdict to the code that would have
//! run anyway. Whatever a peer is sent by the grouped daemon must be,
//! byte for byte and frame for frame, what the forced-singleton daemon
//! sends it — on both engines, natively and with the §3.2 reflection
//! programs loaded.
//!
//! The reflection programs are also held against native reflection the
//! way `tests/rr_extension.rs` does it: what each peer ends up holding is
//! equal per prefix as a set of attributes, and the Loc-RIB byte for byte.
//!
//! The per-route work counters live here too: a route costs one descent
//! of the engine's trie and a group transforms an UPDATE's attributes
//! once. The forced-singleton daemon shares that code, so the memo's
//! edge cases are also held against what the peers must end up holding.
//!
//! A second knob-free oracle holds the filter points' shared verdicts:
//! the same daemon with one more program first at ② and at ④, which only
//! calls `next()` but is granted `get_prefix`, so both chains run once per
//! route again. Memoised ≡ forced-per-route, byte for byte, on both
//! engines and under both policies.

use std::collections::{BTreeMap, BTreeSet};

use igp::IgpNetwork;
use netsim::{LinkId, NodeDriver};
use routegen::churn::{churn_rounds, ChurnSpec};
use routegen::{generate, to_updates, Route, TableSpec};
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::abi_symbols;
use xbgp_core::{ExtensionSpec, InsertionPoint, Manifest};
use xbgp_harness::dut::{build, DaemonSpec, Dut, DutNode};
use xbgp_obs::Snapshot;
use xbgp_progs::{igp_filter, origin_validation, route_reflect, valley_free};
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Capability, Ipv4Prefix, Message, OpenMsg, PathAttr, UpdateMsg};

const DUT_AS: u32 = 65000;
const DUT_ID: u32 = 100;

#[derive(Clone, Copy)]
struct Peer {
    addr: u32,
    asn: u32,
    client: bool,
    /// Advertises the 4-octet-AS capability.
    four_octet: bool,
}

impl Peer {
    fn ibgp(addr: u32, client: bool) -> Peer {
        Peer { addr, asn: DUT_AS, client, four_octet: true }
    }

    fn ebgp(addr: u32, asn: u32) -> Peer {
        Peer { addr, asn, client: false, four_octet: true }
    }

    fn width(&self) -> usize {
        if self.four_octet {
            4
        } else {
            2
        }
    }
}

/// One stimulus; peers are named by their index, which is their link.
enum Step {
    Up(usize),
    Down(usize),
    Send(usize, UpdateMsg),
    /// The IGP metric from the DUT to the router with this address becomes
    /// this. A run with such a step has an IGP, which links the DUT to
    /// every router named in one at metric 1 until then.
    Metric(u32, u32),
}

fn send_all(from: usize, updates: Vec<UpdateMsg>) -> impl Iterator<Item = Step> {
    updates.into_iter().map(move |u| Step::Send(from, u))
}

/// How the DUT exports.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Policy {
    /// Native RFC 4456 reflection.
    Native,
    /// The §3.2 reflection programs, native reflection off.
    RrExtension,
}

/// A program of its own group, assembled from `src`.
fn program(name: &str, point: InsertionPoint, helpers: &[&str], src: &str) -> ExtensionSpec {
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("test program assembles");
    ExtensionSpec::from_program(name, name, point, helpers, &prog)
}

/// The program that forces groups of one without changing a verdict.
fn router_id_probe() -> ExtensionSpec {
    let src = "call get_peer_info\nldxw r1, [r0+PEER_INFO_OFF_ROUTER_ID]\ncall next\nexit";
    let helpers = ["get_peer_info", "next"];
    program("router_id_probe", InsertionPoint::BgpOutboundFilter, &helpers, src)
}

/// The program that forces a filter point back to one run per route
/// without changing a verdict: it only calls `next()`, but it is granted
/// `get_prefix`, so the chain it joins is not prefix-free.
fn per_route_probe(point: InsertionPoint) -> ExtensionSpec {
    let name = format!("per_route_probe_{}", point.name());
    program(&name, point, &["get_prefix", "next"], "call next\nexit")
}

fn spec(peers: &[Peer], policy: Policy, singletons: bool, extra: &[ExtensionSpec]) -> DaemonSpec {
    let mut spec = DaemonSpec::new(DUT_AS, DUT_ID);
    spec.hold_time_secs = 0;
    spec.metrics = true;
    for (i, p) in peers.iter().enumerate() {
        spec = match p.client {
            true => spec.rr_client(LinkId(i), p.addr, p.asn),
            false => spec.neighbor(LinkId(i), p.addr, p.asn),
        };
    }
    let mut manifest = Manifest::new();
    // First in the ④ chain, so it runs whatever the programs behind it
    // decide.
    if singletons {
        manifest.push(router_id_probe());
    }
    for e in extra {
        manifest.push(e.clone());
    }
    match policy {
        Policy::Native => spec.native_rr = true,
        Policy::RrExtension => {
            for e in route_reflect::manifest().extensions {
                manifest.push(e);
            }
        }
    }
    spec.xbgp = (!manifest.extensions.is_empty()).then_some(manifest);
    spec
}

/// What one run leaves behind.
struct Outcome {
    /// Every frame sent on each link, in order.
    streams: Vec<Vec<Vec<u8>>>,
    loc_rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    snapshot: Snapshot,
}

impl Outcome {
    fn gauge(&self, name: &str) -> i64 {
        self.snapshot
            .gauge_value(name, &[])
            .unwrap_or_else(|| panic!("no gauge {name}"))
    }

    fn runs(&self, point: InsertionPoint) -> u64 {
        self.snapshot
            .counter_value("xbgp_vmm_runs_total", &[("point", point.name())])
            .expect("per-point run counter")
    }

    /// Routes a filter point answered with a verdict shared from a run.
    fn shared(&self, point: InsertionPoint) -> u64 {
        self.snapshot
            .counter_value("xbgp_daemon_shared_verdicts_total", &[("point", point.name())])
            .expect("per-point shared-verdict counter")
    }
}

fn run(dut: Dut, peers: &[Peer], policy: Policy, singletons: bool, steps: &[Step]) -> Outcome {
    run_with(dut, peers, policy, singletons, steps, &[])
}

/// [`run`] with `extra` programs loaded ahead of the policy's own.
fn run_with(
    dut: Dut,
    peers: &[Peer],
    policy: Policy,
    singletons: bool,
    steps: &[Step],
    extra: &[ExtensionSpec],
) -> Outcome {
    let mut spec = spec(peers, policy, singletons, extra);
    let linked: BTreeSet<u32> = steps
        .iter()
        .filter_map(|s| match s {
            Step::Metric(to, _) => Some(*to),
            _ => None,
        })
        .collect();
    let igp = (!linked.is_empty()).then(|| {
        let mut net = IgpNetwork::new();
        for to in linked {
            net.add_link(DUT_ID, to, 1);
        }
        igp::shared(net)
    });
    spec.igp = igp.clone();
    let mut drv = NodeDriver::new(Box::new(build(dut, spec)), peers.len());
    drv.start(0);
    let mut now = 1_000;
    for step in steps {
        now += 1_000;
        match step {
            Step::Up(i) => {
                let p = &peers[*i];
                // A no-op for a link that never went down; after `Down` it
                // makes the DUT send its OPEN again.
                drv.link_event(now, LinkId(*i), true);
                let mut open = OpenMsg::standard(p.asn, 0, p.addr);
                if !p.four_octet {
                    open.capabilities.retain(|c| !matches!(c, Capability::FourOctetAs(_)));
                }
                for m in [Message::Open(open), Message::Keepalive] {
                    drv.deliver(now, LinkId(*i), &m.encode(4).expect("handshake encodes"));
                }
            }
            Step::Down(i) => drv.link_event(now, LinkId(*i), false),
            Step::Send(i, update) => {
                let frame = Message::Update(update.clone())
                    .encode(peers[*i].width())
                    .expect("stimulus encodes");
                drv.deliver(now, LinkId(*i), &frame);
            }
            Step::Metric(to, metric) => {
                let igp = igp.as_ref().expect("a run with a metric step has an IGP");
                igp.borrow_mut().set_metric(DUT_ID, *to, *metric);
            }
        }
    }
    let mut streams = vec![Vec::new(); peers.len()];
    for (link, frame) in drv.drain_outbound() {
        streams[link.0].push(frame);
    }
    let daemon = &mut drv.node_mut::<DutNode>().0;
    let snapshot = daemon.metrics_snapshot();
    let loc_rib = daemon.loc_rib_dump();
    assert_eq!(loc_rib, daemon.oracle_loc_rib_dump(), "{dut:?}: incremental ≡ full");
    Outcome { streams, loc_rib, snapshot }
}

/// What the peer on a link holds after its stream: prefix → attributes,
/// each encoded, sorted — a set, because an extension appends its
/// attributes after the native ones.
fn held(frames: &[Vec<u8>], width: usize) -> BTreeMap<Ipv4Prefix, Vec<Vec<u8>>> {
    let mut held = BTreeMap::new();
    for frame in frames {
        match Message::decode(frame, width).expect("DUT output decodes") {
            // The session restarted: what the peer held is gone.
            Message::Open(_) => held.clear(),
            Message::Update(u) => {
                for p in &u.withdrawn {
                    held.remove(p);
                }
                let mut attrs: Vec<Vec<u8>> = u
                    .attrs
                    .iter()
                    .map(|a| {
                        let mut bytes = Vec::new();
                        a.encode(&mut bytes, width);
                        bytes
                    })
                    .collect();
                attrs.sort();
                for p in u.nlri {
                    held.insert(p, attrs.clone());
                }
            }
            _ => {}
        }
    }
    held
}

/// Two runs sent every peer the same frames, in the same order, and ended
/// with the same Loc-RIB.
fn same_output(what: &str, a: &Outcome, b: &Outcome) {
    for (link, (fa, fb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(fa.len(), fb.len(), "{what}: frames to peer {link}");
        for (k, (x, y)) in fa.iter().zip(fb).enumerate() {
            assert_eq!(x, y, "{what}: frame {k} to peer {link}");
        }
    }
    assert_eq!(a.loc_rib, b.loc_rib, "{what}: Loc-RIB");
}

/// The whole oracle for one scenario: grouped ≡ forced-singleton per
/// byte under both policies and on both engines, reflection programs ≡
/// native reflection per prefix, fir ≡ wren per byte. Hands back the
/// grouped native fir run for scenario-specific assertions.
fn check(name: &str, peers: &[Peer], steps: &[Step], native_groups: i64) -> Outcome {
    check_with(name, peers, steps, native_groups, &[])
}

/// [`check`] with `extra` programs loaded in all four daemons.
fn check_with(
    name: &str,
    peers: &[Peer],
    steps: &[Step],
    native_groups: i64,
    extra: &[ExtensionSpec],
) -> Outcome {
    let up = steps.iter().fold(vec![false; peers.len()], |mut up, s| {
        match s {
            Step::Up(i) => up[*i] = true,
            Step::Down(i) => up[*i] = false,
            Step::Send(..) | Step::Metric(..) => {}
        }
        up
    });
    let established = up.iter().filter(|u| **u).count() as i64;

    let mut per_dut = Vec::new();
    for dut in [Dut::Fir, Dut::Wren] {
        let mut per_policy = Vec::new();
        for policy in [Policy::Native, Policy::RrExtension] {
            let grouped = run_with(dut, peers, policy, false, steps, extra);
            let single = run_with(dut, peers, policy, true, steps, extra);
            let what = format!("{name} {dut:?} {policy:?}");
            assert_eq!(
                single.gauge("xbgp_daemon_update_groups"),
                established,
                "{what}: the probe forces one group per established peer"
            );
            same_output(&what, &grouped, &single);
            assert_eq!(
                grouped.gauge("xbgp_daemon_adj_rib_out_size"),
                single.gauge("xbgp_daemon_adj_rib_out_size"),
                "{what}: routes advertised, summed over peers"
            );
            per_policy.push(grouped);
        }
        let ext = per_policy.pop().expect("two policies");
        let native = per_policy.pop().expect("two policies");
        assert_eq!(native.gauge("xbgp_daemon_update_groups"), native_groups, "{name} {dut:?}");
        assert_eq!(ext.loc_rib, native.loc_rib, "{name} {dut:?}: extension ≡ native Loc-RIB");
        for (link, p) in peers.iter().enumerate() {
            assert_eq!(
                held(&ext.streams[link], p.width()),
                held(&native.streams[link], p.width()),
                "{name} {dut:?}: what peer {link} holds, extension vs native reflection"
            );
        }
        per_dut.push(native);
    }
    let wren = per_dut.pop().expect("two engines");
    let fir = per_dut.pop().expect("two engines");
    assert_eq!(fir.streams, wren.streams, "{name}: fir ≡ wren on the wire");
    assert_eq!(fir.loc_rib, wren.loc_rib, "{name}: fir ≡ wren Loc-RIB");
    fir
}

fn table(routes: usize, seed: u64) -> Vec<Route> {
    generate(&TableSpec::new(routes, seed))
}

fn announce(path: Vec<u32>, next_hop: u32, nlri: &[&str]) -> UpdateMsg {
    UpdateMsg::announce(
        vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(path)),
            PathAttr::NextHop(next_hop),
        ],
        nlri.iter().map(|s| s.parse().unwrap()).collect(),
    )
}

fn withdraw(nlri: &[&str]) -> UpdateMsg {
    UpdateMsg::withdraw(nlri.iter().map(|s| s.parse().unwrap()).collect())
}

/// The decoded UPDATEs of one stream.
fn updates(frames: &[Vec<u8>]) -> Vec<UpdateMsg> {
    frames
        .iter()
        .filter_map(|f| match Message::decode(f, 4).expect("decodes") {
            Message::Update(u) => Some(u),
            _ => None,
        })
        .collect()
}

/// A non-client iBGP feeder and eight reflection clients: two groups
/// natively (the feeder's own, and the clients').
#[test]
fn one_feeder_eight_clients() {
    let mut peers = vec![Peer::ibgp(1, false)];
    peers.extend((0..8).map(|i| Peer::ibgp(10 + i, true)));
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, to_updates(&table(300, 7), 1, Some(100))));
    let fir = check("feeder+8", &peers, &steps, 2);
    // Eight clients, one frame each per encoded frame.
    let c = fir.snapshot.counter_sum("xbgp_daemon_updates_tx_total");
    assert_eq!(c, 8 * fir.snapshot.counter_sum("xbgp_daemon_updates_encoded_total"));
    assert_eq!(fir.gauge("xbgp_daemon_adj_rib_out_size"), 8 * 300);
}

/// Every kind of neighbor on one router, routes arriving from three of
/// them: an eBGP peer, a client, a non-client, and a peer without the
/// 4-octet-AS capability (a group of its own: its frames differ).
#[test]
fn mixed_router() {
    let peers = [
        Peer::ebgp(1, 65010),
        Peer::ebgp(2, 65020),
        Peer::ibgp(3, true),
        Peer::ibgp(4, true),
        Peer::ibgp(5, false),
        Peer::ibgp(6, false),
        Peer { four_octet: false, ..Peer::ebgp(7, 65030) },
    ];
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    let t = table(240, 11);
    steps.extend(send_all(0, to_updates(&t[..80], 1, None)));
    steps.extend(send_all(2, to_updates(&t[80..160], 3, Some(100))));
    steps.extend(send_all(4, to_updates(&t[160..], 5, Some(100))));
    // The same prefixes again from the second eBGP peer, so best paths
    // compete across session types.
    steps.extend(send_all(1, to_updates(&t[40..120], 2, None)));
    // Natively: eBGP 4-octet, clients, non-clients, eBGP 2-octet.
    check("mixed", &peers, &steps, 4);
}

/// A withdraw storm with path hunting from the feeder while one client
/// flaps and another joins late.
#[test]
fn churn_storm_with_flaps() {
    let mut peers = vec![Peer::ibgp(1, true)];
    peers.extend((0..5).map(|i| Peer::ibgp(10 + i, true)));
    let t = table(400, 3);
    let rounds = churn_rounds(&t, &ChurnSpec::new(5, 6));
    let mut steps: Vec<Step> = (0..5).map(Step::Up).collect();
    steps.extend(send_all(0, to_updates(&t, 1, Some(100))));
    for (k, round) in rounds.iter().enumerate() {
        match k {
            1 => steps.push(Step::Down(2)),
            3 => steps.push(Step::Up(2)),
            4 => steps.push(Step::Up(5)),
            _ => {}
        }
        steps.extend(send_all(0, round.to_updates(1, Some(100))));
    }
    check("churn", &peers, &steps, 1);
}

/// The best source of a prefix moves between two members of one group.
/// Everybody else is owed nothing when the attributes stay the same; the
/// old source is owed an announcement and the new one an implicit
/// withdraw.
#[test]
fn best_source_moves_between_two_members() {
    // Three eBGP peers: natively one group, whatever their AS numbers.
    let peers = [Peer::ebgp(1, 65010), Peer::ebgp(2, 65020), Peer::ebgp(3, 65030)];
    let mut steps: Vec<Step> = (0..3).map(Step::Up).collect();
    // P1: equal attributes from peers 0 and 1, the lower address wins.
    // P3: peer 0's shorter path wins; peer 1's route carries P1's
    // attributes.
    steps.push(Step::Send(0, announce(vec![64900], 9, &["10.1.0.0/16"])));
    steps.push(Step::Send(0, announce(vec![64901], 9, &["10.3.0.0/16"])));
    steps.push(Step::Send(1, announce(vec![64900], 9, &["10.1.0.0/16", "10.3.0.0/16"])));
    // One UPDATE moves both to peer 1.
    steps.push(Step::Send(0, withdraw(&["10.1.0.0/16", "10.3.0.0/16"])));
    // And back: peer 0 announces better routes for both, plus a new one.
    steps.push(Step::Send(
        0,
        announce(vec![], 9, &["10.1.0.0/16", "10.3.0.0/16", "10.4.0.0/16"]),
    ));
    let fir = check("source-move", &peers, &steps, 1);

    let last = |link: usize, n: usize| {
        let u = updates(&fir.streams[link]);
        u[u.len() - n..].to_vec()
    };
    let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    // After the withdrawal (second-to-last event): the old source got
    // one frame with both prefixes, the new source one withdrawal with
    // both, the bystander one frame with P3 only (P1 kept its
    // attributes). After the move back: the mirror image.
    let to_old = last(0, 2);
    assert_eq!(to_old[0].nlri, vec![p("10.1.0.0/16"), p("10.3.0.0/16")]);
    assert_eq!(to_old[1].withdrawn, vec![p("10.1.0.0/16"), p("10.3.0.0/16")]);
    let to_new = last(1, 2);
    assert_eq!(to_new[0].withdrawn, vec![p("10.1.0.0/16"), p("10.3.0.0/16")]);
    assert_eq!(to_new[1].nlri, vec![p("10.1.0.0/16"), p("10.3.0.0/16"), p("10.4.0.0/16")]);
    let to_bystander = last(2, 2);
    assert_eq!(to_bystander[0].nlri, vec![p("10.3.0.0/16")]);
    assert_eq!(to_bystander[1].nlri, to_new[1].nlri);
}

/// A member that joins after 1 000 routes is served from the group's
/// Adj-RIB-Out: its dump is what a group of one would have computed, and
/// no ④ chain runs for it.
#[test]
fn late_joiner_is_served_from_the_group() {
    let mut peers = vec![Peer::ibgp(1, false)];
    peers.extend((0..5).map(|i| Peer::ibgp(10 + i, true)));
    let mut steps: Vec<Step> = (0..5).map(Step::Up).collect();
    steps.extend(send_all(0, to_updates(&table(1000, 21), 1, Some(100))));
    let before = steps.len();
    steps.push(Step::Up(5));
    let fir = check("late-joiner", &peers, &steps, 2);
    assert_eq!(held(&fir.streams[5], 4).len(), 1000);
    assert_eq!(held(&fir.streams[5], 4), held(&fir.streams[4], 4));

    for dut in [Dut::Fir, Dut::Wren] {
        let joined = run(dut, &peers, Policy::RrExtension, false, &steps);
        let without = run(dut, &peers, Policy::RrExtension, false, &steps[..before]);
        let point = InsertionPoint::BgpOutboundFilter;
        assert_eq!(joined.runs(point), without.runs(point), "{dut:?}: the join ran no ④ chain");
        assert!(joined.runs(point) > 0);
    }
}

/// A member flaps in the middle of the feeder's table: it misses part of
/// the stream and must be brought level by its dump.
#[test]
fn member_flaps_mid_stream() {
    let mut peers = vec![Peer::ibgp(1, true)];
    peers.extend((0..4).map(|i| Peer::ibgp(10 + i, true)));
    let all = to_updates(&table(600, 13), 1, Some(100));
    let third = all.len() / 3;
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, all[..third].to_vec()));
    steps.push(Step::Down(3));
    steps.extend(send_all(0, all[third..2 * third].to_vec()));
    steps.push(Step::Up(3));
    steps.extend(send_all(0, all[2 * third..].to_vec()));
    // The feeder itself flaps at the end: everything it sent is withdrawn
    // from the clients, and the feeder comes back to an empty table.
    steps.push(Step::Down(0));
    steps.push(Step::Up(0));
    let fir = check("flap", &peers, &steps, 1);
    assert!(fir.loc_rib.is_empty());
    for link in 1..peers.len() {
        assert!(held(&fir.streams[link], 4).is_empty(), "peer {link} was sent every withdrawal");
    }
}

/// Exact work counters at tiny scale — the CI gate on "no × peers
/// anywhere": one feeder and four clients in one group, 200 routes.
#[test]
fn work_counters_do_not_scale_with_peers() {
    let peers: Vec<Peer> = (0..5).map(|i| Peer::ibgp(1 + i, true)).collect();
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    let updates = to_updates(&table(200, 5), 1, Some(100));
    let f = updates.len() as u64;
    steps.extend(send_all(0, updates));
    for dut in [Dut::Fir, Dut::Wren] {
        for policy in [Policy::Native, Policy::RrExtension] {
            let out = run(dut, &peers, policy, false, &steps);
            let what = format!("{dut:?} {policy:?}");
            let counter = |name: &str| out.snapshot.counter_sum(name);
            let encoded = counter("xbgp_daemon_updates_encoded_total");
            assert!(encoded > 0);
            assert_eq!(out.gauge("xbgp_daemon_update_groups"), 1, "{what}");
            assert_eq!(counter("xbgp_daemon_updates_tx_total"), 4 * encoded, "{what}");
            assert_eq!(counter("xbgp_daemon_prefixes_tx_total"), 4 * 200, "{what}");
            assert_eq!(out.gauge("xbgp_daemon_adj_rib_out_size"), 4 * 200, "{what}");
            let members =
                out.snapshot.gauge_value("xbgp_daemon_update_group_members", &[("group", "0")]);
            assert_eq!(members, Some(5), "{what}");
            if policy == Policy::RrExtension {
                assert_eq!(counter("xbgp_rib_best_changes_total"), 200, "{what}");
                // One group, and ④ runs once per (attributes, source) in
                // it: once per UPDATE of the table.
                assert_eq!(out.runs(InsertionPoint::BgpOutboundFilter), f, "{what}");
                assert_eq!(out.runs(InsertionPoint::BgpEncodeMessage), encoded, "{what}");
            }
        }
    }
}

/// The other half of the work gate: what a route costs *inside* a group.
/// A table transfer of N NLRI in F UPDATEs is N descents of the engine's
/// trie — announce, decide and commit share one — and F attribute
/// transforms per group that is owed the routes, because the NLRI of one
/// UPDATE share an attribute handle and a source. For the same reason the
/// reflection programs cost F ② runs and F ④ runs per such group.
#[test]
fn a_route_is_one_descent_and_an_update_one_transform_per_group() {
    // The feeder's own group has nobody else in it (no verdict, no
    // transform); the clients and the eBGP peers are owed every route.
    let mut peers = vec![Peer::ibgp(1, false)];
    peers.extend((0..4).map(|i| Peer::ibgp(10 + i, true)));
    peers.extend((0..2).map(|i| Peer::ebgp(30 + i, 65010 + i)));
    let updates = to_updates(&table(300, 17), 1, Some(100));
    assert!(
        updates.windows(2).all(|w| w[0].attrs != w[1].attrs),
        "no two UPDATEs in a row share attributes, so none is answered by the memo of the last"
    );
    let (n, f) = (300, updates.len() as u64);
    assert!(f < n, "UPDATEs carry several NLRI each");
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, updates));
    for dut in [Dut::Fir, Dut::Wren] {
        for policy in [Policy::Native, Policy::RrExtension] {
            let out = run(dut, &peers, policy, false, &steps);
            let what = format!("{dut:?} {policy:?}");
            let counter = |name: &str| out.snapshot.counter_sum(name);
            assert_eq!(out.gauge("xbgp_daemon_update_groups"), 3, "{what}");
            assert_eq!(counter("xbgp_rib_best_changes_total"), n, "{what}");
            assert_eq!(counter("xbgp_rib_descents_total"), n, "{what}: descents");
            assert_eq!(counter("xbgp_daemon_export_transforms_total"), 2 * f, "{what}: transforms");
            if policy == Policy::RrExtension {
                // Both reflection filters are prefix-free: ② runs once per
                // UPDATE, ④ once per UPDATE per group that is owed it, and
                // every other route is answered by a shared verdict.
                let inbound = InsertionPoint::BgpInboundFilter;
                let outbound = InsertionPoint::BgpOutboundFilter;
                assert_eq!(out.runs(inbound), f, "{what}: ② runs");
                assert_eq!(out.runs(outbound), 2 * f, "{what}: ④ runs");
                assert_eq!(out.runs(inbound) + out.shared(inbound), n, "{what}: ② answers");
                assert_eq!(out.runs(outbound) + out.shared(outbound), 2 * n, "{what}: ④ answers");
            }
        }
    }
}

/// The shipped ② filters that are granted `get_prefix` still run once per
/// route on the same multi-NLRI table, alone and in front of the
/// reflection chain: no verdict is shared, whatever path a run takes
/// (`valley_free` without its tables never reaches its `get_prefix` call,
/// and still runs N times).
#[test]
fn prefix_reading_filters_run_once_per_route() {
    let mut peers = vec![Peer::ibgp(1, false)];
    peers.extend((0..4).map(|i| Peer::ibgp(10 + i, true)));
    peers.extend((0..2).map(|i| Peer::ebgp(30 + i, 65010 + i)));
    let updates = to_updates(&table(300, 17), 1, Some(100));
    let (n, f) = (300, updates.len() as u64);
    assert!(f < n, "UPDATEs carry several NLRI each");
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, updates));
    let dc: Ipv4Prefix = "10.255.0.0/16".parse().unwrap();
    let filters = [
        ("rov_check", origin_validation::extension()),
        ("valley_free", valley_free::manifest(&[], dc).extensions.remove(0)),
    ];
    let inbound = InsertionPoint::BgpInboundFilter;
    for (name, filter) in filters {
        for dut in [Dut::Fir, Dut::Wren] {
            for policy in [Policy::Native, Policy::RrExtension] {
                let out =
                    run_with(dut, &peers, policy, false, &steps, std::slice::from_ref(&filter));
                let what = format!("{name} {dut:?} {policy:?}");
                let ext_runs = out.snapshot.counter_value(
                    "xbgp_vmm_extension_runs_total",
                    &[("extension", name), ("point", inbound.name())],
                );
                assert_eq!(ext_runs, Some(n), "{what}: {name} runs");
                assert_eq!(out.runs(inbound), n, "{what}: ② runs");
                assert_eq!(out.shared(inbound), 0, "{what}: ② shared");
            }
        }
    }
}

/// A ② program that tags every prefix with an odd third octet with the
/// community 65000:1 and leaves the verdict to whatever runs next.
fn odd_prefix_tagger() -> ExtensionSpec {
    let src = r"
        call get_prefix
        jeq r0, 0, pass
        ldxw r6, [r0+PREFIX_OFF_ADDR]
        rsh r6, 8
        and r6, 1
        jeq r6, 0, pass
        stb [r10-8], 0xfd
        stb [r10-7], 0xe8
        stb [r10-6], 0
        stb [r10-5], 1
        mov r1, ATTR_COMMUNITIES
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        mov r4, 4
        call set_attr
    pass:
        call next
        exit";
    let helpers = ["get_prefix", "set_attr", "next"];
    program("odd_prefix_tagger", InsertionPoint::BgpInboundFilter, &helpers, src)
}

/// What the peer on a link holds after its stream, attributes decoded.
fn advertised(frames: &[Vec<u8>]) -> BTreeMap<Ipv4Prefix, Vec<PathAttr>> {
    let mut held = BTreeMap::new();
    for u in updates(frames) {
        for p in &u.withdrawn {
            held.remove(p);
        }
        for p in u.nlri {
            held.insert(p, u.attrs.clone());
        }
    }
    held
}

/// Where the transform memo could go wrong. The forced-singleton daemon
/// runs the same memo, so beside the oracle every case states what the
/// peers must hold.
#[test]
fn transform_memo_edge_cases() {
    let peers = [
        Peer::ibgp(1, true),  // 0: source A
        Peer::ibgp(2, true),  // 1: source B
        Peer::ibgp(3, true),  // 2: source C, best at first
        Peer::ibgp(10, true), // 3: a client that only listens
        Peer::ibgp(20, false),
        Peer::ebgp(30, 65010),
        Peer::ebgp(31, 65020),
    ];
    let (client, non_client, ebgp) = (3, 4, 5);
    let quad = ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16"];
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    // Equal attributes from A and B behind C's better routes; C's one
    // withdrawal then re-decides the four prefixes in one flush, A, B, A,
    // B: one attribute set (one handle, in fir), two sources.
    steps.push(Step::Send(2, announce(vec![64900], 9, &quad)));
    steps.push(Step::Send(0, announce(vec![64901, 64902], 9, &[quad[0], quad[2]])));
    steps.push(Step::Send(1, announce(vec![64901, 64902], 9, &[quad[1], quad[3]])));
    steps.push(Step::Send(2, withdraw(&quad)));
    // ② rewrites the second and fourth NLRI of one UPDATE: the handle
    // changes mid-frame and back.
    let tagged = ["10.20.0.0/24", "10.20.1.0/24", "10.20.2.0/24", "10.20.3.0/24"];
    steps.push(Step::Send(0, announce(vec![64903], 9, &tagged)));
    // A route comes and goes, and the next UPDATE's attributes are new
    // and of the same size: in wren the first handle would be free for
    // reuse by the second if the memo did not hold it.
    steps.push(Step::Send(0, announce(vec![64910, 1], 9, &["10.30.0.0/24"])));
    steps.push(Step::Send(0, withdraw(&["10.30.0.0/24"])));
    steps.push(Step::Send(0, announce(vec![64910, 2], 9, &["10.30.2.0/24"])));
    // Clients, the non-client, the eBGP peers: iBGP and eBGP transforms
    // of the same routes side by side.
    let fir = check_with("memo", &peers, &steps, 3, &[odd_prefix_tagger()]);

    let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    let path = |attrs: &[PathAttr]| {
        attrs.iter().find_map(|a| match a {
            PathAttr::AsPath(path) => Some(path.clone()),
            _ => None,
        })
    };
    for link in [client, non_client] {
        let held = advertised(&fir.streams[link]);
        assert_eq!(held.len(), 9, "peer {link}");
        for (i, prefix) in quad.iter().enumerate() {
            let from = if i % 2 == 0 { 1 } else { 2 };
            assert!(
                held[&p(prefix)].contains(&PathAttr::OriginatorId(from)),
                "peer {link}: {prefix} was reflected from {from}: the source is part of the key"
            );
        }
        for (i, prefix) in tagged.iter().enumerate() {
            let has = held[&p(prefix)].contains(&PathAttr::Communities(vec![0xfde8_0001]));
            assert_eq!(has, i % 2 == 1, "peer {link}: {prefix} tagged by ②");
        }
        assert_eq!(path(&held[&p("10.30.2.0/24")]), Some(AsPath::sequence(vec![64910, 2])));
    }
    let held = advertised(&fir.streams[ebgp]);
    assert_eq!(held.len(), 9);
    for prefix in quad {
        let attrs = &held[&p(prefix)];
        assert_eq!(path(attrs), Some(AsPath::sequence(vec![DUT_AS, 64901, 64902])));
        assert!(!attrs.iter().any(|a| matches!(a, PathAttr::OriginatorId(_))));
    }
    assert_eq!(path(&held[&p("10.30.2.0/24")]), Some(AsPath::sequence(vec![DUT_AS, 64910, 2])));
}

/// Memoised ≡ forced-per-route for one scenario, under both policies and
/// on both engines: the daemon with `extra` loaded sends every peer the
/// same frames and ends with the same Loc-RIB as the same daemon with a
/// [`per_route_probe`] first at ② and ④. Where the memoised daemon has a
/// chain at a filter point, its runs and shared verdicts there add up to
/// the forced daemon's runs, which shares none. `also` gets each pair,
/// memoised first, for the scenario's own checks.
fn check_memo(
    name: &str,
    peers: &[Peer],
    steps: &[Step],
    extra: &[ExtensionSpec],
    also: impl Fn(&str, Dut, Policy, &Outcome, &Outcome),
) {
    let points = [InsertionPoint::BgpInboundFilter, InsertionPoint::BgpOutboundFilter];
    let mut forcing: Vec<ExtensionSpec> = points.into_iter().map(per_route_probe).collect();
    forcing.extend_from_slice(extra);
    for dut in [Dut::Fir, Dut::Wren] {
        for policy in [Policy::Native, Policy::RrExtension] {
            let memo = run_with(dut, peers, policy, false, steps, extra);
            let forced = run_with(dut, peers, policy, false, steps, &forcing);
            let what = format!("{name} {dut:?} {policy:?}");
            same_output(&what, &memo, &forced);
            for p in points {
                let at = format!("{what}: {}", p.name());
                assert_eq!(forced.shared(p), 0, "{at}: the probe makes every route run");
                if memo.runs(p) > 0 {
                    assert_eq!(memo.runs(p) + memo.shared(p), forced.runs(p), "{at}: answers");
                }
            }
            also(&what, dut, policy, &memo, &forced);
        }
    }
}

/// The reflection chain (②, ④ and ⑤) over a table, a second source, a
/// reflection loop that ② rejects whole, one attribute set from a client
/// and a non-client decided alternately in one flush (the source decides
/// ④'s verdict towards non-clients), and churn.
#[test]
fn memoised_reflection_chain_is_per_route_on_the_wire() {
    let mut peers = vec![Peer::ibgp(1, false), Peer::ibgp(2, true)];
    peers.extend((0..3).map(|i| Peer::ibgp(10 + i, true)));
    peers.push(Peer::ibgp(20, false));
    peers.push(Peer::ebgp(30, 65010));
    let t = table(300, 31);
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, to_updates(&t, 1, Some(100))));
    steps.extend(send_all(1, to_updates(&t[100..200], 2, Some(100))));
    let mut looped = announce(vec![64950], 2, &["10.40.0.0/24", "10.40.1.0/24", "10.40.2.0/24"]);
    looped.attrs.push(PathAttr::OriginatorId(DUT_ID));
    steps.push(Step::Send(1, looped));
    let quad = ["10.50.0.0/16", "10.51.0.0/16", "10.52.0.0/16", "10.53.0.0/16"];
    steps.push(Step::Send(2, announce(vec![64960], 9, &quad)));
    steps.push(Step::Send(0, announce(vec![64961, 64962], 9, &[quad[0], quad[2]])));
    steps.push(Step::Send(1, announce(vec![64961, 64962], 9, &[quad[1], quad[3]])));
    steps.push(Step::Send(2, withdraw(&quad)));
    for round in churn_rounds(&t, &ChurnSpec::new(9, 4)) {
        steps.extend(send_all(0, round.to_updates(1, Some(100))));
    }
    check_memo("rr", &peers, &steps, &[], |what, _, policy, memo, _| {
        if policy == Policy::RrExtension {
            assert!(memo.shared(InsertionPoint::BgpInboundFilter) > 0, "{what}: ② shared");
            assert!(memo.shared(InsertionPoint::BgpOutboundFilter) > 0, "{what}: ④ shared");
        }
    });
}

/// A prefix-free ② that rewrites every route: the UPDATE's rewritten set
/// is made once and its one handle shared by every NLRI, so a group
/// transforms it once per UPDATE — per route when every route runs ②
/// and wren allocates each rewrite on its own — and the frames do not
/// change.
#[test]
fn memoised_rewrite_is_one_handle_per_update() {
    let src = r"
        stb [r10-8], 0xfd
        stb [r10-7], 0xe8
        stb [r10-6], 0
        stb [r10-5], 1
        mov r1, ATTR_COMMUNITIES
        mov r2, ATTR_FLAGS_OPT_TRANS
        mov r3, r10
        sub r3, 8
        mov r4, 4
        call set_attr
        call next
        exit";
    let tagger = program("tagger", InsertionPoint::BgpInboundFilter, &["set_attr", "next"], src);
    let mut peers: Vec<Peer> = (0..4).map(|i| Peer::ibgp(1 + i, true)).collect();
    peers.push(Peer::ebgp(30, 65010));
    let updates = to_updates(&table(300, 41), 1, Some(100));
    let (n, f) = (300, updates.len() as u64);
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(0, updates));
    check_memo("rewrite", &peers, &steps, &[tagger], |what, dut, _, memo, forced| {
        let transforms =
            |o: &Outcome| o.snapshot.counter_sum("xbgp_daemon_export_transforms_total");
        // The clients' group and the eBGP group are owed every route.
        assert_eq!(transforms(memo), 2 * f, "{what}");
        let per_route = if dut == Dut::Wren { 2 * n } else { 2 * f };
        assert_eq!(transforms(forced), per_route, "{what}");
        let held = advertised(&memo.streams[4]);
        assert_eq!(held.len(), 300, "{what}");
        let tag = PathAttr::Communities(vec![0xfde8_0001]);
        assert!(held.values().all(|attrs| attrs.contains(&tag)), "{what}: every route tagged");
    });
}

/// A prefix-free ② that rejects every route with an INCOMPLETE origin,
/// over two sources and churn: a shared reject withdraws what each NLRI
/// had installed, as a run per route does.
#[test]
fn memoised_reject_is_per_route_on_the_wire() {
    let src = r"
        mov r1, ATTR_ORIGIN
        mov r2, r10
        sub r2, 8
        mov r3, 1
        call get_attr
        jeq r0, -1, pass
        ldxb r6, [r10-8]
        jne r6, 2, pass
        mov r0, FILTER_REJECT
        exit
    pass:
        call next
        exit";
    let rejecter =
        program("incomplete", InsertionPoint::BgpInboundFilter, &["get_attr", "next"], src);
    let mut peers = vec![Peer::ibgp(1, true), Peer::ibgp(2, true)];
    peers.extend((0..2).map(|i| Peer::ibgp(10 + i, true)));
    peers.push(Peer::ebgp(30, 65010));
    let t = table(300, 43);
    assert!(t.iter().any(|r| r.origin == Origin::Incomplete), "something to reject");
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.extend(send_all(1, to_updates(&t[..150], 2, Some(100))));
    steps.extend(send_all(0, to_updates(&t, 1, Some(100))));
    for round in churn_rounds(&t, &ChurnSpec::new(11, 4)) {
        steps.extend(send_all(0, round.to_updates(1, Some(100))));
    }
    check_memo("reject", &peers, &steps, &[rejecter], |what, _, _, memo, _| {
        let rejects = memo.snapshot.counter_sum("xbgp_daemon_filter_rejects_total");
        assert!(rejects > 0, "{what}: ② rejected");
        assert!(memo.shared(InsertionPoint::BgpInboundFilter) > 0, "{what}: ② shared");
    });
}

/// §3.1's IGP-cost filter at ④ reads the nexthop's metric, which changes
/// between events. Three UPDATEs with one attribute set (one handle in
/// fir) from one source: the metric rises past the filter's bound after
/// the first and falls back after the second. A ④ verdict kept past its
/// flush would let the second through to the eBGP peers.
#[test]
fn memoised_outbound_verdict_does_not_outlive_its_flush() {
    let peers = [
        Peer::ibgp(1, false),
        Peer::ibgp(10, true),
        Peer::ebgp(30, 65010),
        Peer::ebgp(31, 65020),
    ];
    let mut steps: Vec<Step> = (0..peers.len()).map(Step::Up).collect();
    steps.push(Step::Send(0, announce(vec![64900], 9, &["10.1.0.0/16", "10.2.0.0/16"])));
    steps.push(Step::Metric(9, 2000));
    steps.push(Step::Send(0, announce(vec![64900], 9, &["10.3.0.0/16"])));
    steps.push(Step::Metric(9, 5));
    steps.push(Step::Send(0, announce(vec![64900], 9, &["10.4.0.0/16"])));
    let filter = igp_filter::extension();
    check_memo("igp", &peers, &steps, &[filter], |what, _, policy, memo, _| {
        let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
        if policy == Policy::Native {
            assert_eq!(advertised(&memo.streams[1]).len(), 4, "{what}: iBGP is not filtered");
            let held: Vec<Ipv4Prefix> = advertised(&memo.streams[2]).into_keys().collect();
            assert_eq!(held, [p("10.1.0.0/16"), p("10.2.0.0/16"), p("10.4.0.0/16")], "{what}");
        }
        assert!(memo.shared(InsertionPoint::BgpOutboundFilter) > 0, "{what}: ④ shared");
    });
}
