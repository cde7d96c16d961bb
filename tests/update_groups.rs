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

use std::collections::BTreeMap;

use netsim::{LinkId, NodeDriver};
use routegen::churn::{churn_rounds, ChurnSpec};
use routegen::{generate, to_updates, Route, TableSpec};
use xbgp_asm::assemble_with_symbols;
use xbgp_core::api::abi_symbols;
use xbgp_core::{ExtensionSpec, InsertionPoint, Manifest};
use xbgp_harness::dut::{build, DaemonSpec, Dut, DutNode};
use xbgp_obs::Snapshot;
use xbgp_progs::route_reflect;
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

/// The program that forces groups of one without changing a verdict.
fn router_id_probe() -> ExtensionSpec {
    let src = "call get_peer_info\nldxw r1, [r0+PEER_INFO_OFF_ROUTER_ID]\ncall next\nexit";
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("probe assembles");
    ExtensionSpec::from_program(
        "router_id_probe",
        "router_id_probe",
        InsertionPoint::BgpOutboundFilter,
        &["get_peer_info", "next"],
        &prog,
    )
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
    let spec = spec(peers, policy, singletons, extra);
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
            Step::Send(..) => {}
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
            for (link, (g, s)) in grouped.streams.iter().zip(&single.streams).enumerate() {
                assert_eq!(g.len(), s.len(), "{what}: frames to peer {link}");
                for (k, (gf, sf)) in g.iter().zip(s).enumerate() {
                    assert_eq!(gf, sf, "{what}: frame {k} to peer {link}");
                }
            }
            assert_eq!(grouped.loc_rib, single.loc_rib, "{what}: Loc-RIB");
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
    steps.extend(send_all(0, to_updates(&table(200, 5), 1, Some(100))));
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
                let best_changes = counter("xbgp_rib_best_changes_total");
                assert_eq!(best_changes, 200, "{what}");
                assert_eq!(out.runs(InsertionPoint::BgpOutboundFilter), best_changes, "{what}");
                assert_eq!(out.runs(InsertionPoint::BgpEncodeMessage), encoded, "{what}");
            }
        }
    }
}

/// The other half of the work gate: what a route costs *inside* a group.
/// A table transfer of N NLRI in F UPDATEs is N descents of the engine's
/// trie — announce, decide and commit share one — and F attribute
/// transforms per group that is owed the routes, because the NLRI of one
/// UPDATE share an attribute handle and a source.
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
                // ④ is not memoised: it still sees every route, per group.
                assert_eq!(out.runs(InsertionPoint::BgpOutboundFilter), 2 * n, "{what}");
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
    let prog = assemble_with_symbols(src, &abi_symbols()).expect("tagger assembles");
    ExtensionSpec::from_program(
        "odd_prefix_tagger",
        "odd_prefix_tagger",
        InsertionPoint::BgpInboundFilter,
        &["get_prefix", "set_attr", "next"],
        &prog,
    )
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
