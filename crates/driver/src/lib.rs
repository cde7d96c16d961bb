//! # xbgp-driver — the daemon driver seam and the one BGP host
//!
//! Both BGP implementations in this workspace (`bgp-fir` and `bgp-wren`)
//! are single-threaded [`netsim::Node`]s: wire frames in, wire frames
//! out, plus timers. Historically every front-end that drove them — the
//! Fig. 3 harness, the shard workers, the scenario runner, the churn
//! bench — carried its own pair of fir-vs-wren match arms, and the two
//! daemons themselves each carried a copy of everything that does not
//! depend on how routes are stored: a config struct, a neighbor FSM,
//! timers, stats, hook timing, UPDATE framing, a `Node` impl and a
//! `Daemon` impl. This crate is where all of that exists once, so the
//! deterministic sim feeder and the `xbgp-serve` socket runtime are two
//! transports over one API and the two daemons are two route engines
//! under one host:
//!
//! * [`Dut`] — which implementation sits behind the seam.
//! * [`DaemonSpec`] — *the* daemon configuration, with one
//!   neighbor-declaration vocabulary ([`DaemonSpec::neighbor`] /
//!   [`DaemonSpec::rr_client`]); both daemons are constructed from it
//!   directly.
//! * [`Daemon`] — the driver trait: everything a front-end needs from a
//!   running daemon (Loc-RIB dumps, the full-recompute oracle, metrics,
//!   traces, session state, counters) without knowing which one it is.
//!   Frames are delivered and drained through the [`netsim::Node`]
//!   supertrait — over a [`netsim::Sim`] link in the harness, or a
//!   [`netsim::NodeDriver`] under a TCP session fan-in.
//! * [`host`] — the shared BGP host: [`host::BgpDaemon<E>`] is the one
//!   `Node` and the one `Daemon`, generic over the small
//!   [`host::RouteEngine`] trait `bgp-fir` and `bgp-wren` implement.
//! * [`export`] — update-groups: the Adj-RIB-Out, the ④/⑤ runs and the
//!   UPDATE batching, shared by every peer the export path cannot tell
//!   apart ([`export::UpdateGroups`], over the [`export::Exporter`] hooks
//!   an engine implements for its attribute type).
//! * [`xbgp_glue`] — the xBGP execution context, its one `HostApi`
//!   implementation and one [`host::Host`] method per insertion point,
//!   over the [`xbgp_glue::AttrStore`] view an engine gives of its
//!   attribute representation.
//! * [`DutNode`] — a newtype that lets a `Box<dyn Daemon>` live in the
//!   simulator's node table (which downcasts to concrete types) while
//!   still being reachable as a trait object.

pub mod export;
pub mod host;
pub mod xbgp_glue;

use netsim::{LinkId, Node, NodeCtx};
use xbgp_obs::trace::{TraceConfig, TraceDump};
use xbgp_obs::Snapshot;
use xbgp_wire::Ipv4Prefix;

/// Which BGP implementation sits behind the driver seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dut {
    Fir,
    Wren,
}

impl Dut {
    pub fn name(self) -> &'static str {
        match self {
            Dut::Fir => "xFIR",
            Dut::Wren => "xWREN",
        }
    }

    /// Machine-friendly name, used in CLI flags and metric labels.
    pub fn slug(self) -> &'static str {
        match self {
            Dut::Fir => "fir",
            Dut::Wren => "wren",
        }
    }
}

impl std::str::FromStr for Dut {
    type Err = String;

    fn from_str(s: &str) -> Result<Dut, String> {
        match s {
            "fir" | "xfir" | "xFIR" => Ok(Dut::Fir),
            "wren" | "xwren" | "xWREN" => Ok(Dut::Wren),
            other => Err(format!("unknown implementation `{other}` (fir|wren)")),
        }
    }
}

/// One declared BGP neighbor.
#[derive(Debug, Clone, Copy)]
pub struct NeighborDecl {
    /// The link this neighbor is reached over: a simulator link in the
    /// harness, a session slot index under `xbgp-serve`.
    pub link: LinkId,
    /// Neighbor address (doubles as its expected BGP identifier).
    pub addr: u32,
    /// Neighbor AS number; equal to ours ⇒ iBGP session.
    pub asn: u32,
    /// Treat this iBGP neighbor as a route-reflection client.
    pub rr_client: bool,
}

/// The daemon configuration. Front-ends build one of these and hand it
/// to `FirDaemon::new` / `WrenDaemon::new` (or, not caring which, to
/// `xbgp_harness::dut::build`).
#[derive(Clone)]
pub struct DaemonSpec {
    pub asn: u32,
    /// BGP identifier; also this router's address on its links.
    pub router_id: u32,
    /// Hold time proposed in OPEN (seconds); keepalives at a third of
    /// the negotiated value. `0` disables liveness timers entirely —
    /// what the socket runtime sets for its shard cores, whose sessions
    /// are adopted from the per-connection FSMs in front of them
    /// ([`Daemon::adopt_session`]).
    pub hold_time_secs: u16,
    pub neighbors: Vec<NeighborDecl>,
    /// Native RFC 4456 route reflection (ORIGINATOR_ID and CLUSTER_LIST
    /// handling). Off when the §3.2 extension provides reflection.
    pub native_rr: bool,
    /// Cluster id for reflection; defaults to the router id.
    pub cluster_id: Option<u32>,
    /// ROAs for the daemon's native origin validation (fir's trie, wren's
    /// hash table). Validation tags routes; it does not discard them.
    pub native_rov: Option<Vec<rpki::Roa>>,
    /// xBGP manifest to load into the VMM.
    pub xbgp: Option<xbgp_core::Manifest>,
    /// ROAs backing the xBGP `rpki_check_origin` helper.
    pub xbgp_roas: Option<Vec<rpki::Roa>>,
    /// Link-state IGP this router participates in.
    pub igp: Option<igp::SharedIgp>,
    /// Routes to originate locally at startup: `(prefix, nexthop)`.
    pub originate: Vec<(Ipv4Prefix, u32)>,
    /// LOCAL_PREF assigned to routes learned over eBGP.
    pub default_local_pref: u32,
    /// Static key → value data exposed to extensions via `get_xtra`.
    pub xtra: Vec<(String, Vec<u8>)>,
    /// Enable the VMM's instrumentation: outcome, instruction and helper
    /// counters, fuel histograms, and one clock per layer of a run (the
    /// chain, each extension, each helper call). The daemon's own
    /// counters are collected regardless.
    pub metrics: bool,
    /// Route-scoped tracing configuration.
    pub trace: Option<TraceConfig>,
}

impl DaemonSpec {
    /// A minimal spec with mandatory fields; everything else off.
    pub fn new(asn: u32, router_id: u32) -> DaemonSpec {
        DaemonSpec {
            asn,
            router_id,
            hold_time_secs: 90,
            neighbors: Vec::new(),
            native_rr: false,
            cluster_id: None,
            native_rov: None,
            xbgp: None,
            xbgp_roas: None,
            igp: None,
            originate: Vec::new(),
            default_local_pref: 100,
            xtra: Vec::new(),
            metrics: false,
            trace: None,
        }
    }

    /// Declare a neighbor.
    pub fn neighbor(mut self, link: LinkId, addr: u32, asn: u32) -> Self {
        self.neighbors.push(NeighborDecl { link, addr, asn, rr_client: false });
        self
    }

    /// Declare a route-reflection client neighbor (iBGP).
    pub fn rr_client(mut self, link: LinkId, addr: u32, asn: u32) -> Self {
        self.neighbors.push(NeighborDecl { link, addr, asn, rr_client: true });
        self
    }
}

/// The cross-implementation counter set front-ends read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    pub updates_rx: u64,
    /// Announced NLRI received.
    pub prefixes_rx: u64,
    pub withdrawals_rx: u64,
    /// UPDATE frames written to peers; a frame sent to *n* members of an
    /// update-group counts *n* times.
    pub updates_tx: u64,
    /// UPDATE frames encoded. `updates_tx / updates_encoded` is how many
    /// peers the average encoded frame went to.
    pub updates_encoded: u64,
    pub prefixes_tx: u64,
    pub withdrawals_tx: u64,
    pub sessions_established: u64,
    /// Virtual time of the first received UPDATE.
    pub first_update_rx: Option<u64>,
    /// Virtual time of the most recent Loc-RIB change.
    pub last_route_change: Option<u64>,
}

impl DaemonCounters {
    /// Routing updates absorbed: announced NLRI plus withdrawn prefixes —
    /// the unit of the churn and peer-scaling benchmarks.
    pub fn routing_updates_rx(&self) -> u64 {
        self.prefixes_rx + self.withdrawals_rx
    }

    /// The counters of two shards of one daemon as one: traffic adds up
    /// (shards own disjoint prefixes), sessions do not (every shard sees
    /// every session), the first UPDATE is the earliest and the last
    /// route change the latest.
    pub fn merge(self, shard: DaemonCounters) -> DaemonCounters {
        // Destructured in full, so a new field is merged here or does not
        // compile.
        let DaemonCounters {
            updates_rx,
            prefixes_rx,
            withdrawals_rx,
            updates_tx,
            updates_encoded,
            prefixes_tx,
            withdrawals_tx,
            sessions_established,
            first_update_rx,
            last_route_change,
        } = shard;
        DaemonCounters {
            updates_rx: self.updates_rx + updates_rx,
            prefixes_rx: self.prefixes_rx + prefixes_rx,
            withdrawals_rx: self.withdrawals_rx + withdrawals_rx,
            updates_tx: self.updates_tx + updates_tx,
            updates_encoded: self.updates_encoded + updates_encoded,
            prefixes_tx: self.prefixes_tx + prefixes_tx,
            withdrawals_tx: self.withdrawals_tx + withdrawals_tx,
            sessions_established: self.sessions_established.max(sessions_established),
            first_update_rx: [self.first_update_rx, first_update_rx].into_iter().flatten().min(),
            last_route_change: self.last_route_change.max(last_route_change),
        }
    }
}

/// The driver seam: what every front-end needs from a running daemon,
/// independent of which implementation it is. Wire frames are delivered
/// and drained through the [`Node`] supertrait; this trait adds the
/// inspection surface.
///
/// Object safety is deliberate — front-ends hold `Box<dyn Daemon>` (see
/// [`DutNode`]) so adding a third implementation touches only the one
/// construction site.
pub trait Daemon: Node {
    /// Which implementation this is.
    fn kind(&self) -> Dut;

    /// Number of nets with a selected best route.
    fn loc_rib_len(&self) -> usize;

    /// Does the Loc-RIB hold a best route for `prefix`?
    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool;

    /// The committed Loc-RIB as `(prefix, wire-encoded attributes)`,
    /// sorted by prefix — the byte-identical comparison currency of every
    /// determinism check in the workspace.
    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)>;

    /// A from-scratch decision pass over the Adj-RIB-In, in the same
    /// dump format — the incremental-RIB correctness oracle.
    fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)>;

    /// Current metrics snapshot (labelled with the daemon's identity).
    fn metrics_snapshot(&self) -> Snapshot;

    /// Take the flight-recorder dump, if tracing was configured.
    fn take_trace(&mut self) -> Option<TraceDump>;

    /// Is the session to the neighbor at `addr` established?
    fn session_established(&self, addr: u32) -> bool;

    /// The cross-implementation counter set.
    fn counters(&self) -> DaemonCounters;

    /// The transport behind `link` ran the BGP handshake itself (the
    /// `xbgp-serve` socket edge, with its own [`xbgp_wire::Session`]):
    /// take the neighbor on `link` to Established as that session
    /// negotiated it — `four_octet_as` from its
    /// [`xbgp_wire::SessionEvent::Established`] — without a second
    /// handshake. Liveness stays with the transport: the adopted session
    /// has hold time 0. Whatever session the neighbor had is torn down
    /// first.
    fn adopt_session(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, four_octet_as: bool);
}

/// Adapter that lets a `Box<dyn Daemon>` live in the simulator's node
/// table. [`netsim::Sim`] stores `Box<dyn Node>` and hands nodes back by
/// downcasting to a concrete type — so harnesses store a `DutNode` and
/// reach the daemon through `.0` as a trait object:
///
/// ```ignore
/// sim.replace_node(d, Box::new(build(dut, spec)));
/// // ... later ...
/// let rib = sim.node_ref::<DutNode>(d).0.loc_rib_dump();
/// ```
pub struct DutNode(pub Box<dyn Daemon>);

impl Node for DutNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_start(ctx);
    }
    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
        self.0.on_data(ctx, link, data);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.0.on_timer(ctx, token);
    }
    fn on_link_event(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
        self.0.on_link_event(ctx, link, up);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dut_parses_and_names() {
        assert_eq!("fir".parse::<Dut>().unwrap(), Dut::Fir);
        assert_eq!("wren".parse::<Dut>().unwrap(), Dut::Wren);
        assert!("bird".parse::<Dut>().is_err());
        assert_eq!(Dut::Fir.name(), "xFIR");
        assert_eq!(Dut::Wren.slug(), "wren");
    }

    #[test]
    fn spec_builder_collects_neighbors() {
        let s =
            DaemonSpec::new(65000, 2)
                .rr_client(LinkId(0), 1, 65000)
                .neighbor(LinkId(1), 3, 65001);
        assert_eq!(s.neighbors.len(), 2);
        assert!(s.neighbors[0].rr_client);
        assert!(!s.neighbors[1].rr_client);
        assert_eq!(s.neighbors[1].asn, 65001);
        assert_eq!(s.hold_time_secs, 90);
    }

    #[test]
    fn merged_shard_counters_add_traffic_but_not_sessions() {
        let a = DaemonCounters {
            updates_rx: 3,
            updates_encoded: 2,
            sessions_established: 4,
            first_update_rx: Some(50),
            last_route_change: Some(70),
            ..Default::default()
        };
        let b = DaemonCounters {
            updates_rx: 5,
            updates_encoded: 1,
            sessions_established: 4,
            first_update_rx: Some(40),
            last_route_change: None,
            ..Default::default()
        };
        let m = DaemonCounters::default().merge(a).merge(b);
        assert_eq!((m.updates_rx, m.updates_encoded, m.sessions_established), (8, 3, 4));
        assert_eq!((m.first_update_rx, m.last_route_change), (Some(40), Some(70)));
    }

    #[test]
    fn counters_sum_routing_updates() {
        let c = DaemonCounters { prefixes_rx: 7, withdrawals_rx: 5, ..Default::default() };
        assert_eq!(c.routing_updates_rx(), 12);
    }
}
