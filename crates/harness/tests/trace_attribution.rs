//! Route-scope attribution under faults: a faulting route and the clean
//! route after it must carry *different* trace ids, and the fault events
//! (Fault, TxnRollback, the postmortem) must stay attributed to the route
//! that actually faulted. Guards the `begin_route`/`end_route` pairing in
//! both daemons' UPDATE loops — a leaked scope on the abort path would let
//! the next route inherit the previous trace id.

use netsim::{Sim, SimConfig};
use xbgp_harness::dut::{build, DaemonSpec, Dut, DutNode};
use xbgp_obs::trace::{pack_prefix, TraceConfig, TraceDump, TraceKind};
use xbgp_progs::fault_inject;
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, MsgType, PathAttr, UpdateMsg};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// The three routes, sent as three separate UPDATEs so each gets its own
/// ingest scope. The probe's shared invocation counter makes the second
/// inbound-filter run fault (period 2), so the sequence is
/// clean → faulting → clean.
fn routes() -> [Ipv4Prefix; 3] {
    [p("10.1.0.0/16"), p("10.2.0.0/16"), p("10.3.0.0/16")]
}

/// Minimal BGP speaker: finishes the handshake, then announces each route
/// in its own UPDATE message.
struct Origin3 {
    reader: xbgp_wire::MsgReader,
    sent: bool,
}

impl netsim::Node for Origin3 {
    fn on_data(&mut self, ctx: &mut netsim::NodeCtx<'_>, link: netsim::LinkId, data: &[u8]) {
        self.reader.push(data);
        while let Ok(Some(frame)) = self.reader.next_frame() {
            match xbgp_wire::msg::deframe(&frame) {
                Ok((MsgType::Open, _)) => {
                    let open = xbgp_wire::OpenMsg::standard(65009, 9, 90);
                    ctx.send(link, &Message::Open(open).encode(4).unwrap());
                    ctx.send(link, &Message::Keepalive.encode(4).unwrap());
                }
                Ok((MsgType::Keepalive, _)) if !self.sent => {
                    self.sent = true;
                    for net in routes() {
                        let upd = UpdateMsg::announce(
                            vec![
                                PathAttr::Origin(Origin::Igp),
                                PathAttr::AsPath(AsPath::sequence(vec![65009])),
                                PathAttr::NextHop(9),
                            ],
                            vec![net],
                        );
                        ctx.send(link, &Message::Update(upd).encode(4).unwrap());
                    }
                }
                _ => {}
            }
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run one DUT behind `Origin3` with the period-2 fault probe and full
/// route sampling; return its trace dump.
fn run_dut(dut_kind: Dut) -> TraceDump {
    let mut sim = Sim::new(SimConfig::default());
    let origin =
        sim.add_node(Box::new(Origin3 { reader: xbgp_wire::MsgReader::new(), sent: false }));
    let dut = sim.add_node(Box::new(Placeholder));
    let link = sim.connect(origin, dut, MS);
    let mut cfg = DaemonSpec::new(65001, 1).neighbor(link, 9, 65009);
    cfg.trace = Some(TraceConfig { sample_every: 1, ..TraceConfig::default() });
    cfg.xbgp = Some(fault_inject::manifest(2));
    sim.replace_node(dut, Box::new(build(dut_kind, cfg)));
    sim.run_until(5 * SEC);
    sim.node_mut::<DutNode>(dut).0.take_trace().expect("tracing enabled")
}

#[test]
fn faulting_route_and_next_clean_route_do_not_share_a_trace_id() {
    for dut in [Dut::Fir, Dut::Wren] {
        let name = dut.slug();
        let dump = run_dut(dut);
        let [r1, r2, r3] = routes();

        // One decode event per route, each under its own ingest scope.
        let scope_of = |net: Ipv4Prefix| -> u64 {
            let packed = pack_prefix(net.addr(), net.len());
            let decodes: Vec<u64> = dump
                .events
                .iter()
                .filter(|e| e.kind == TraceKind::Decode && e.a == packed)
                .map(|e| e.trace_id)
                .collect();
            assert_eq!(decodes.len(), 1, "{name}: exactly one decode of {net}");
            decodes[0]
        };
        let (t1, t2, t3) = (scope_of(r1), scope_of(r2), scope_of(r3));
        assert_ne!(t1, t2, "{name}: distinct ingest scopes");
        assert_ne!(t2, t3, "{name}: the clean route after a fault gets a fresh scope");

        // The period-2 probe faults on exactly the second route; the fault
        // and its rollback must be attributed to that route's scope, and
        // nothing recorded under the clean routes' scopes may be a fault.
        let faults: Vec<&xbgp_obs::trace::TraceEvent> =
            dump.events.iter().filter(|e| e.kind == TraceKind::Fault).collect();
        assert_eq!(faults.len(), 1, "{name}: exactly one fault");
        assert_eq!(faults[0].trace_id, t2, "{name}: fault attributed to the faulting route");
        for e in &dump.events {
            if e.trace_id == t3 {
                assert!(
                    !matches!(e.kind, TraceKind::Fault | TraceKind::TxnRollback),
                    "{name}: clean route's scope must not inherit fault events"
                );
            }
        }

        // The postmortem snapshot names the faulting route's scope too.
        assert_eq!(dump.postmortems.len(), 1, "{name}: one postmortem");
        assert_eq!(dump.postmortems[0].trace_id, t2, "{name}: postmortem scope");
    }
}
