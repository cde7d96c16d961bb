//! One BGP host, two route engines.
//!
//! Everything a BGP speaker does that does not depend on how it stores
//! routes lives here, once: a [`Neighbor`] per declared peer, each
//! driving an [`xbgp_wire::Session`] (the one RFC 4271 handshake,
//! liveness and framing state machine) and acting on its events, the
//! counters and the metrics snapshot ([`HostStats`]), the insertion-point runner
//! with its filter-verdict mapping ([`Hooks`]), the marshalled peer /
//! source / nexthop views extensions read, and the UPDATE framer; export
//! (Adj-RIB-Out, outbound batching) is [`crate::export`], the xBGP
//! execution context and the five insertion-point calls are
//! [`crate::xbgp_glue`]. What differs between `bgp-fir` and `bgp-wren` —
//! attribute representation, RIB organisation, ROA backend — sits behind
//! [`RouteEngine`] and [`crate::xbgp_glue::AttrStore`], and
//! [`BgpDaemon<E>`] is the one [`netsim::Node`] and the one [`Daemon`]
//! for both.
//!
//! The host calls the engine and then [`RouteEngine::flush`] after
//! *every* event (start, session up, session down, UPDATE), so an engine
//! can queue output wherever it is convenient and nothing it queued can
//! stay unsent until some unrelated event.

use crate::{Daemon, DaemonCounters, DaemonSpec, Dut, NeighborDecl};
use netsim::{LinkId, Node, NodeCtx};
use rpki::{RoaHashTable, RoaTable};
use std::any::Any;
use xbgp_core::api::{self, InsertionPoint, NextHopInfo, PeerInfo, PeerType};
use xbgp_core::vmm::ExtensionStats;
use xbgp_core::{HostApi, Vmm, VmmOutcome};
use xbgp_obs::trace::{pack_prefix, TraceDump, TraceKind, NO_EXT, NO_POINT};
use xbgp_obs::Snapshot;
use xbgp_wire::msg::{encode_update_into, UpdateLayout, UpdateView};
use xbgp_wire::{
    Ipv4Prefix, Session, SessionConfig, SessionEvent, SessionState, WireError, HEADER_LEN,
};

/// `to=` label values of `xbgp_daemon_fsm_transitions_total`, indexed by
/// `SessionState as usize`. `Closed` has no label: a closed session is
/// torn down on the spot and counted as the idle it becomes.
const STATE_NAMES: [&str; 4] = ["idle", "open_sent", "open_confirm", "established"];

/// One configured neighbor and its session.
pub struct Neighbor {
    pub decl: NeighborDecl,
    /// Handshake, liveness, framing and UPDATE validation. Idle while the
    /// link is down or the session halted.
    pub(crate) session: Session,
    /// Neighbor AS == local AS; fixed by configuration.
    pub ibgp: bool,
    /// The [`Session::next_deadline`] this neighbor's timer is set for.
    armed: Option<u64>,
}

impl Neighbor {
    pub fn new(decl: NeighborDecl, spec: &DaemonSpec) -> Neighbor {
        let cfg = SessionConfig {
            local_asn: spec.asn,
            router_id: spec.router_id,
            hold_time_secs: spec.hold_time_secs,
            expect_asn: Some(decl.asn),
        };
        Neighbor {
            decl,
            session: Session::new(cfg),
            ibgp: decl.asn == spec.asn,
            armed: None,
        }
    }

    pub fn is_established(&self) -> bool {
        self.session.state() == SessionState::Established
    }

    pub fn peer_type(&self) -> PeerType {
        if self.ibgp {
            PeerType::Ibgp
        } else {
            PeerType::Ebgp
        }
    }

    /// ASN width of the UPDATE codec on this session.
    pub fn asn_width(&self) -> usize {
        self.session.asn_width()
    }
}

/// Where a route was learned, in the vocabulary the host marshals for
/// extensions and evaluates the native export policy over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSource {
    /// Neighbor address / BGP identifier, or the router's own id for
    /// locally originated routes.
    pub peer_addr: u32,
    pub peer_asn: u32,
    pub peer_type: PeerType,
    /// The source peer is a route-reflection client.
    pub rr_client: bool,
    /// True for locally originated routes.
    pub local: bool,
}

impl RouteSource {
    pub fn local(router_id: u32, asn: u32) -> RouteSource {
        RouteSource {
            peer_addr: router_id,
            peer_asn: asn,
            peer_type: PeerType::Ibgp,
            rr_client: false,
            local: true,
        }
    }
}

/// Counters and timestamps front-ends and tests read off a daemon.
#[derive(Debug, Default, Clone)]
pub struct HostStats {
    /// The cross-implementation set [`Daemon::counters`] returns.
    pub counters: DaemonCounters,
    pub rov_valid: u64,
    pub rov_invalid: u64,
    pub rov_not_found: u64,
    /// Filter-point runs that rejected (a reject verdict or an aborted
    /// filter).
    pub xbgp_rejected: u64,
    /// Filter-point runs where an extension accepted the route (a
    /// `Value` other than reject).
    pub xbgp_accepted: u64,
    /// NLRI answered by a ② verdict shared from an earlier run on the same
    /// UPDATE ([`crate::xbgp_glue::InboundFilter`]) instead of a run.
    pub shared_inbound: u64,
    /// Routes answered by a ④ verdict shared from an earlier run on the
    /// same `(attribute handle, source)` in the same group and flush
    /// instead of a run.
    pub shared_outbound: u64,
    /// Decision-point runs resolved by an extension instead of the
    /// native RFC 4271 comparison.
    pub xbgp_decisions: u64,
    /// [`crate::export::Exporter::transform`] runs: one per `(attribute
    /// handle, source)` an update-group had not just transformed.
    pub export_transforms: u64,
    /// Session FSM transitions, indexed by target `SessionState`.
    pub fsm_transitions: [u64; 4],
}

impl HostStats {
    /// Count one native origin-validation verdict.
    pub fn count_rov(&mut self, state: rpki::RovState) {
        match state {
            rpki::RovState::Valid => self.rov_valid += 1,
            rpki::RovState::Invalid => self.rov_invalid += 1,
            rpki::RovState::NotFound => self.rov_not_found += 1,
        }
    }
}

/// A filter point's answer on one route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub accept: bool,
    /// The answer holds for every route that differs from this one only
    /// in its prefix: a chain ran, every program in it is prefix-free
    /// ([`Vmm::prefix_free`]), and no program faulted.
    pub shareable: bool,
}

/// The insertion-point runner: the VMM and the mapping of its outcomes
/// to filter and decision answers. A field of its own inside [`Host`] so
/// a point ([`crate::xbgp_glue`]) can run while its execution context
/// borrows the host's other fields (`logs`, `ext_rib_adds`, `xbgp_rov`,
/// `spec.xtra`).
pub struct Hooks {
    pub vmm: Vmm,
}

impl Hooks {
    /// Run a filter point and map its outcome to accept/reject: an
    /// extension's verdict is final, no verdict defers to `native`, and a
    /// filter that aborted fails closed rather than widen policy. A run in
    /// which a program faulted is never shareable, whatever it returned:
    /// the fault and the circuit breaker count runs, and those happen
    /// per route until the breaker trips.
    pub fn run_filter(
        &mut self,
        point: InsertionPoint,
        hctx: &mut dyn HostApi,
        stats: &mut HostStats,
        native: impl FnOnce() -> bool,
    ) -> Verdict {
        let faults = self.vmm.faults(point);
        let accept = match self.vmm.run(point, hctx) {
            VmmOutcome::Value(v) if v != api::FILTER_REJECT => {
                stats.xbgp_accepted += 1;
                true
            }
            VmmOutcome::Value(_) | VmmOutcome::Aborted => {
                stats.xbgp_rejected += 1;
                false
            }
            VmmOutcome::Fallback => native(),
        };
        let shareable = self.vmm.prefix_free(point) && self.vmm.faults(point) == faults;
        Verdict { accept, shareable }
    }

    /// Trace one decision on `prefix` and whether it changed the best route.
    pub fn trace_decision(&mut self, prefix: Ipv4Prefix, changed: bool) {
        if let Some(t) = self.vmm.tracer_mut() {
            let key = pack_prefix(prefix.addr(), prefix.len());
            t.record(TraceKind::Decision, NO_POINT, NO_EXT, key, u64::from(changed));
        }
    }

    /// Trace `prefix` being queued for neighbor `q`.
    pub fn trace_propagate(&mut self, prefix: Ipv4Prefix, q: usize) {
        if let Some(t) = self.vmm.tracer_mut() {
            let key = pack_prefix(prefix.addr(), prefix.len());
            t.record(TraceKind::Propagate, NO_POINT, NO_EXT, key, q as u64);
        }
    }

    /// Run ③ `BGP_DECISION`: `Some(prefer_new)` when an extension decided.
    /// The point has a sound native answer, so fallback and abort both
    /// return `None` and the caller runs the RFC 4271 comparison.
    pub fn run_decision(&mut self, hctx: &mut dyn HostApi, stats: &mut HostStats) -> Option<bool> {
        match self.vmm.run(InsertionPoint::BgpDecision, hctx) {
            VmmOutcome::Value(v) => {
                stats.xbgp_decisions += 1;
                Some(v == api::DECISION_PREFER_NEW)
            }
            VmmOutcome::Fallback | VmmOutcome::Aborted => None,
        }
    }
}

/// Everything a daemon owns except its routes.
pub struct Host {
    pub spec: DaemonSpec,
    pub neighbors: Vec<Neighbor>,
    pub hooks: Hooks,
    /// The xBGP-layer ROA store (hash) behind `rpki_check_origin` —
    /// distinct from either engine's native validation backend (§3.4).
    pub xbgp_rov: Option<RoaHashTable>,
    /// Routes added by extensions via `rib_add_route`, drained by the
    /// engine at the end of each UPDATE.
    pub ext_rib_adds: Vec<(Ipv4Prefix, u32)>,
    pub stats: HostStats,
    pub logs: Vec<String>,
    /// Virtual time of the event being handled.
    pub now: u64,
    /// The UPDATE frame being written: every outgoing UPDATE is encoded
    /// here, copied to its neighbors, and the buffer kept for the next.
    frame: Vec<u8>,
}

impl Host {
    /// Panics on a malformed xBGP manifest — configuration errors are
    /// fatal at startup, like a daemon refusing a bad config file.
    fn new(spec: DaemonSpec) -> Host {
        let mut vmm = match &spec.xbgp {
            Some(m) => Vmm::from_manifest(m).expect("invalid xBGP manifest"),
            None => Vmm::empty(),
        };
        if spec.metrics {
            vmm.enable_metrics();
        }
        if let Some(tc) = spec.trace {
            vmm.enable_trace(tc);
        }
        let xbgp_rov = spec.xbgp_roas.as_deref().map(roa_hash_table);
        let neighbors: Vec<Neighbor> =
            spec.neighbors.iter().map(|d| Neighbor::new(*d, &spec)).collect();
        Host {
            spec,
            neighbors,
            hooks: Hooks { vmm },
            xbgp_rov,
            ext_rib_adds: Vec::new(),
            stats: HostStats::default(),
            logs: Vec::new(),
            now: 0,
            frame: Vec::new(),
        }
    }

    pub fn cluster_id(&self) -> u32 {
        self.spec.cluster_id.unwrap_or(self.spec.router_id)
    }

    /// The neighbor configured on `link`. Hosts that number links by
    /// neighbor (`xbgp-serve`'s slots) are answered by the first test; a
    /// simulation's global link ids by the search.
    fn neighbor_on(&self, link: LinkId) -> Option<usize> {
        match self.neighbors.get(link.0) {
            Some(n) if n.decl.link == link => Some(link.0),
            _ => self.neighbors.iter().position(|n| n.decl.link == link),
        }
    }

    /// The neighbor at `idx` as extensions see it.
    pub fn peer_info(&self, idx: usize) -> PeerInfo {
        let n = &self.neighbors[idx];
        PeerInfo {
            router_id: n.decl.addr,
            asn: n.decl.asn,
            peer_type: n.peer_type(),
            local_router_id: self.spec.router_id,
            local_asn: self.spec.asn,
            flags: if n.decl.rr_client { api::PEER_FLAG_RR_CLIENT } else { 0 },
        }
    }

    /// A route's *source* as a [`PeerInfo`] (the decision point's peer;
    /// marshalled as argument 0 of the outbound-filter and encode points).
    pub fn source_info(&self, src: &RouteSource) -> PeerInfo {
        let mut flags = 0;
        if src.rr_client {
            flags |= api::PEER_FLAG_RR_CLIENT;
        }
        if src.local {
            flags |= api::PEER_FLAG_LOCAL;
        }
        PeerInfo {
            router_id: src.peer_addr,
            asn: src.peer_asn,
            peer_type: src.peer_type,
            local_router_id: self.spec.router_id,
            local_asn: self.spec.asn,
            flags,
        }
    }

    pub fn igp_metric(&self, nexthop: u32) -> u32 {
        match &self.spec.igp {
            Some(igp) => igp.borrow().metric(self.spec.router_id, nexthop),
            None => 0,
        }
    }

    pub fn nexthop_info(&self, nexthop: u32) -> NextHopInfo {
        let metric = self.igp_metric(nexthop);
        NextHopInfo {
            addr: nexthop,
            igp_metric: metric,
            reachable: metric != u32::MAX,
        }
    }

    /// Encode one UPDATE into the host's frame buffer and send it to every
    /// neighbor in `to`, which share one ASN width (they are members of
    /// one update-group); `attrs` writes the attribute TLVs at that width.
    /// A frame that does not encode is logged per neighbor, not sent and
    /// not counted.
    fn send_update(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: &[usize],
        withdrawn: &[Ipv4Prefix],
        attrs: impl FnOnce(&mut Vec<u8>, usize),
        extra: &[u8],
        nlri: &[Ipv4Prefix],
    ) {
        let width = self.neighbors[to[0]].asn_width();
        let attrs = |out: &mut Vec<u8>| attrs(out, width);
        match encode_update_into(&mut self.frame, withdrawn, attrs, extra, nlri) {
            Ok(()) => {
                let c = &mut self.stats.counters;
                c.updates_encoded += 1;
                c.updates_tx += to.len() as u64;
                c.withdrawals_tx += (withdrawn.len() * to.len()) as u64;
                c.prefixes_tx += (nlri.len() * to.len()) as u64;
                for &q in to {
                    ctx.send(self.neighbors[q].decl.link, &self.frame);
                }
            }
            Err(e) => {
                for q in to {
                    self.logs.push(format!("encode to neighbor {q} failed: {e}"));
                }
            }
        }
    }

    /// Frame and send withdrawals to the neighbors `to`, at most 800
    /// prefixes per UPDATE.
    pub fn send_withdrawals(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: &[usize],
        prefixes: &[Ipv4Prefix],
    ) {
        for chunk in prefixes.chunks(800) {
            self.send_update(ctx, to, chunk, |_, _| {}, &[], &[]);
        }
    }

    /// Frame and send one attribute set's announcements to the neighbors
    /// `to`, at most 700 NLRI per UPDATE (under the 4096-byte frame).
    /// `attrs` writes the set's TLVs for a session of the width it is
    /// given (an engine's [`crate::xbgp_glue::AttrStore::write_attrs`]);
    /// `extra` is the raw attribute TLVs the ⑤ `BGP_ENCODE_MESSAGE`
    /// extensions appended.
    pub fn send_announce(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: &[usize],
        attrs: impl Fn(&mut Vec<u8>, usize),
        extra: &[u8],
        prefixes: &[Ipv4Prefix],
    ) {
        for chunk in prefixes.chunks(700) {
            self.send_update(ctx, to, &[], &attrs, extra, chunk);
        }
    }

    /// Run `f` on neighbor `idx`'s session and count the state it moved
    /// to, if it moved.
    fn with_session<R>(&mut self, idx: usize, f: impl FnOnce(&mut Session) -> R) -> R {
        let session = &mut self.neighbors[idx].session;
        let before = session.state();
        let r = f(session);
        let to = session.state();
        if to != before && to != SessionState::Closed {
            self.stats.fsm_transitions[to as usize] += 1;
        }
        r
    }
}

/// Load ROAs into the hash-table backend.
pub fn roa_hash_table(roas: &[rpki::Roa]) -> RoaHashTable {
    let mut t = RoaHashTable::new();
    for r in roas {
        t.insert(*r);
    }
    t
}

/// What differs between the two BGP implementations: how routes and
/// attributes are stored and decided. An engine owns its neighbors'
/// export state as a [`crate::export::UpdateGroups`] over its attribute
/// type. Every method
/// that takes the [`Host`] is called by [`BgpDaemon`] with
/// [`Host::now`] current and followed by [`RouteEngine::flush`].
pub trait RouteEngine: Sized + 'static {
    const KIND: Dut;

    fn new(host: &Host) -> Self;

    /// Install `host.spec.originate`. No session is up yet.
    fn originate(&mut self, host: &mut Host);

    /// Neighbor `idx` reached Established: queue the full table for it
    /// ([`crate::export::UpdateGroups::join`]).
    fn session_up(&mut self, host: &mut Host, idx: usize);

    /// Neighbor `idx` left Established (or never got there): drop its
    /// routes and export state, re-decide what it contributed to.
    fn session_down(&mut self, host: &mut Host, idx: usize);

    /// Apply one UPDATE from neighbor `idx`, as the session validated it:
    /// the engine parses its stored attributes from `upd.attr_section()`,
    /// and `upd.body()` is the message body as received (argument 0 of ①
    /// `BGP_RECEIVE_MESSAGE`). An `Err` makes the host send the matching
    /// NOTIFICATION and tear the session down; whatever the engine queued
    /// first is still flushed.
    fn update(&mut self, host: &mut Host, idx: usize, upd: UpdateView<'_>)
        -> Result<(), WireError>;

    /// Send everything queued
    /// ([`crate::export::UpdateGroups::flush`]).
    fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>);

    fn loc_rib_len(&self) -> usize;
    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool;
    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)>;
    fn oracle_loc_rib_dump(&mut self, host: &mut Host) -> Vec<(Ipv4Prefix, Vec<u8>)>;

    /// The engine's RIB series: `xbgp_rib_*`, the update-group gauges
    /// and any engine-specific gauge.
    fn push_gauges(&self, s: &mut Snapshot);
}

/// A BGP daemon: the shared [`Host`] driving one [`RouteEngine`].
pub struct BgpDaemon<E> {
    pub host: Host,
    pub engine: E,
}

impl<E: RouteEngine> BgpDaemon<E> {
    pub fn new(spec: DaemonSpec) -> BgpDaemon<E> {
        let host = Host::new(spec);
        let engine = E::new(&host);
        BgpDaemon { host, engine }
    }

    /// xBGP per-extension statistics.
    pub fn xbgp_stats(&self) -> Vec<ExtensionStats> {
        self.host.hooks.vmm.stats()
    }

    /// Read a block from an extension program's persistent memory.
    pub fn xbgp_shared_read(&self, group: &str, key: u64) -> Option<Vec<u8>> {
        self.host.hooks.vmm.shared_read(group, key)
    }

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        self.engine.flush(&mut self.host, ctx);
    }

    /// Start neighbor `idx`'s handshake: our OPEN goes out. A no-op on a
    /// session that is already running.
    fn open(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let now = ctx.now();
        let events = self.host.with_session(idx, |s| s.start(now));
        self.run_session(ctx, idx, events);
    }

    /// Act on `events`, then on everything neighbor `idx`'s buffered input
    /// yields, and leave a timer set for the session's next deadline.
    fn run_session(&mut self, ctx: &mut NodeCtx<'_>, idx: usize, events: Vec<SessionEvent>) {
        for event in events {
            self.on_event(ctx, idx, event, None);
        }
        let now = ctx.now();
        while let Some((event, layout)) = self.host.with_session(idx, |s| s.step(now)) {
            self.on_event(ctx, idx, event, layout);
        }
        let n = &mut self.host.neighbors[idx];
        if let Some(due) = n.session.next_deadline() {
            // Only an earlier deadline needs a new timer: one that moved
            // later is found again here when the timer set for it fires
            // with nothing due.
            if n.armed.is_none_or(|armed| due < armed) {
                ctx.set_timer(due.saturating_sub(now), idx as u64);
                n.armed = Some(due);
            }
        }
    }

    fn on_event(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        idx: usize,
        event: SessionEvent,
        layout: Option<UpdateLayout>,
    ) {
        match event {
            SessionEvent::Send(frame) => ctx.send(self.host.neighbors[idx].decl.link, &frame),
            SessionEvent::Established { .. } => self.establish(ctx, idx),
            SessionEvent::Update(frame) => {
                let layout = layout.expect("a stepped UPDATE comes with its layout");
                self.handle_update(ctx, idx, layout.view(&frame[HEADER_LEN..]));
                self.host.neighbors[idx].session.recycle(frame);
            }
            SessionEvent::Closed(reason) => {
                self.host.logs.push(format!("neighbor {idx}: {reason}"));
                self.teardown(ctx, idx);
            }
        }
    }

    fn establish(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        self.host.stats.counters.sessions_established += 1;
        self.engine.session_up(&mut self.host, idx);
        self.flush(ctx);
    }

    /// Back to a fresh Idle session — whatever the old one had buffered
    /// goes with it — and the engine drops the neighbor's routes.
    fn teardown(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let session = &mut self.host.neighbors[idx].session;
        if session.state() == SessionState::Idle {
            return;
        }
        *session = Session::new(session.config().clone());
        self.host.stats.fsm_transitions[SessionState::Idle as usize] += 1;
        self.engine.session_down(&mut self.host, idx);
        self.flush(ctx);
    }

    fn handle_update(&mut self, ctx: &mut NodeCtx<'_>, idx: usize, upd: UpdateView<'_>) {
        let host = &mut self.host;
        host.stats.counters.updates_rx += 1;
        host.stats.counters.first_update_rx.get_or_insert(host.now);
        host.stats.counters.withdrawals_rx += upd.withdrawn().len() as u64;
        // Trace-id allocation happens at UPDATE ingest, before any route
        // is parsed, so every downstream event carries the same scope.
        if let Some(t) = host.hooks.vmm.tracer_mut() {
            t.set_now(host.now);
            t.on_ingest(idx as u64, upd.nlri().len() as u64);
        }
        match self.engine.update(&mut self.host, idx, upd) {
            Ok(()) => self.flush(ctx),
            // The session decoded it, the engine cannot apply it: the
            // NOTIFICATION goes out now, and the session's next step is
            // the `Closed` whose teardown flushes what the engine queued
            // first.
            Err(e) => {
                self.host.logs.push(format!("neighbor {idx}: malformed UPDATE: {e}"));
                let notification = self.host.neighbors[idx].session.fail(&e);
                self.on_event(ctx, idx, notification, None);
            }
        }
    }
}

impl<E: RouteEngine> Node for BgpDaemon<E> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.host.now = ctx.now();
        self.engine.originate(&mut self.host);
        self.flush(ctx);
        for idx in 0..self.host.neighbors.len() {
            self.open(ctx, idx);
        }
    }

    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
        let Some(idx) = self.host.neighbor_on(link) else {
            return; // Data on an unconfigured link.
        };
        self.host.now = ctx.now();
        self.host.neighbors[idx].session.push(data);
        self.run_session(ctx, idx, Vec::new());
    }

    /// Token = neighbor index: each neighbor has one timer, set for its
    /// session's next deadline (hold expiry or KEEPALIVE cadence).
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let (idx, now) = (token as usize, ctx.now());
        // A timer that an earlier deadline superseded fires late, before
        // the one set since: not this neighbor's timer any more.
        let Some(n) =
            self.host.neighbors.get_mut(idx).filter(|n| n.armed.is_some_and(|a| now >= a))
        else {
            return;
        };
        n.armed = None;
        let events = n.session.tick(now);
        self.host.now = now;
        self.run_session(ctx, idx, events);
    }

    fn on_link_event(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
        let Some(idx) = self.host.neighbor_on(link) else {
            return;
        };
        self.host.now = ctx.now();
        if up {
            self.open(ctx, idx);
        } else {
            self.teardown(ctx, idx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<E: RouteEngine> Daemon for BgpDaemon<E> {
    fn kind(&self) -> Dut {
        E::KIND
    }

    fn loc_rib_len(&self) -> usize {
        self.engine.loc_rib_len()
    }

    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.engine.has_best_route(prefix)
    }

    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.engine.loc_rib_dump()
    }

    /// Runs the same ③ `BGP_DECISION` extensions as the live path, so
    /// collect metrics snapshots *before* calling this (it advances the
    /// decision counters).
    fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.engine.oracle_loc_rib_dump(&mut self.host)
    }

    /// Daemon counters and gauges, hook-site latency histograms (when
    /// instrumentation is on), the engine's RIB series and the VMM's
    /// per-point / per-extension metrics, all labelled
    /// `daemon="bgp-<slug>"`.
    fn metrics_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        let st = &self.host.stats;
        let c = &st.counters;
        s.push_counter("xbgp_daemon_updates_rx_total", &[], c.updates_rx);
        s.push_counter("xbgp_daemon_updates_tx_total", &[], c.updates_tx);
        s.push_counter("xbgp_daemon_updates_encoded_total", &[], c.updates_encoded);
        s.push_counter("xbgp_daemon_prefixes_rx_total", &[], c.prefixes_rx);
        s.push_counter("xbgp_daemon_prefixes_tx_total", &[], c.prefixes_tx);
        s.push_counter("xbgp_daemon_withdrawals_rx_total", &[], c.withdrawals_rx);
        s.push_counter("xbgp_daemon_withdrawals_tx_total", &[], c.withdrawals_tx);
        s.push_counter("xbgp_daemon_sessions_established_total", &[], c.sessions_established);
        for (state, n) in [
            ("valid", st.rov_valid),
            ("invalid", st.rov_invalid),
            ("not_found", st.rov_not_found),
        ] {
            s.push_counter("xbgp_daemon_rov_total", &[("state", state)], n);
        }
        s.push_counter("xbgp_daemon_filter_rejects_total", &[], st.xbgp_rejected);
        s.push_counter("xbgp_daemon_filter_accepts_total", &[], st.xbgp_accepted);
        s.push_counter("xbgp_daemon_decision_overrides_total", &[], st.xbgp_decisions);
        s.push_counter("xbgp_daemon_export_transforms_total", &[], st.export_transforms);
        for (point, n) in [
            (InsertionPoint::BgpInboundFilter, st.shared_inbound),
            (InsertionPoint::BgpOutboundFilter, st.shared_outbound),
        ] {
            s.push_counter("xbgp_daemon_shared_verdicts_total", &[("point", point.name())], n);
        }
        for (to, n) in STATE_NAMES.iter().zip(st.fsm_transitions) {
            s.push_counter("xbgp_daemon_fsm_transitions_total", &[("to", to)], n);
        }
        let up = self.host.neighbors.iter().filter(|n| n.is_established()).count();
        s.push_gauge("xbgp_daemon_sessions_up", &[], up as i64);
        self.engine.push_gauges(&mut s);
        s.merge(self.host.hooks.vmm.metrics_snapshot())
            .expect("daemon and VMM share the bucket layout");
        s.with_labels(&[("daemon", &format!("bgp-{}", E::KIND.slug()))])
    }

    fn take_trace(&mut self) -> Option<TraceDump> {
        self.host.hooks.vmm.take_trace()
    }

    fn session_established(&self, addr: u32) -> bool {
        self.host.neighbors.iter().any(|n| n.decl.addr == addr && n.is_established())
    }

    fn counters(&self) -> DaemonCounters {
        self.host.stats.counters
    }

    fn adopt_session(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, four_octet_as: bool) {
        let Some(idx) = self.host.neighbor_on(link) else {
            return;
        };
        self.host.now = ctx.now();
        self.teardown(ctx, idx);
        let decl = self.host.neighbors[idx].decl;
        self.host.with_session(idx, |s| {
            *s = Session::adopted(s.config().clone(), decl.asn, decl.addr, four_octet_as);
        });
        self.establish(ctx, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeDriver;
    use xbgp_asm::assemble_with_symbols;
    use xbgp_core::host::MockHost;
    use xbgp_core::{ExtensionSpec, Manifest, OnFault};
    use xbgp_wire::{Message, NotificationMsg, OpenMsg, PathAttr, UpdateMsg};

    fn neighbor(asn: u32) -> Neighbor {
        let decl = NeighborDecl { link: LinkId(0), addr: 9, asn, rr_client: false };
        Neighbor::new(decl, &DaemonSpec::new(65001, 1))
    }

    #[test]
    fn session_type_from_asns() {
        assert_eq!(neighbor(65002).peer_type(), PeerType::Ebgp);
        assert!(neighbor(65001).ibgp);
        assert_eq!(neighbor(65001).peer_type(), PeerType::Ibgp);
    }

    /// An engine with no routes: whatever the test put in its queues goes
    /// to neighbor 0 at the next flush.
    #[derive(Default)]
    struct QueueEngine {
        withdrawals: Vec<Ipv4Prefix>,
        announcements: Vec<Ipv4Prefix>,
        extra: Vec<u8>,
    }

    impl RouteEngine for QueueEngine {
        const KIND: Dut = Dut::Fir;
        fn new(_: &Host) -> Self {
            QueueEngine::default()
        }
        fn originate(&mut self, _: &mut Host) {}
        fn session_up(&mut self, _: &mut Host, _: usize) {}
        fn session_down(&mut self, _: &mut Host, _: usize) {}
        fn update(&mut self, _: &mut Host, _: usize, _: UpdateView<'_>) -> Result<(), WireError> {
            Ok(())
        }
        fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>) {
            host.send_withdrawals(ctx, &[0], &std::mem::take(&mut self.withdrawals));
            let nlri = std::mem::take(&mut self.announcements);
            let next_hop = |out: &mut Vec<u8>, width| PathAttr::NextHop(1).encode(out, width);
            host.send_announce(ctx, &[0], next_hop, &self.extra, &nlri);
        }
        fn loc_rib_len(&self) -> usize {
            0
        }
        fn has_best_route(&self, _: &Ipv4Prefix) -> bool {
            false
        }
        fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
            Vec::new()
        }
        fn oracle_loc_rib_dump(&mut self, _: &mut Host) -> Vec<(Ipv4Prefix, Vec<u8>)> {
            Vec::new()
        }
        fn push_gauges(&self, _: &mut Snapshot) {}
    }

    fn frame(msg: Message) -> Vec<u8> {
        msg.encode(4).unwrap()
    }

    /// A started daemon (hold time `hold`) with one declared neighbor,
    /// AS 65002 at address 9 on link 0.
    fn started(hold: u16) -> NodeDriver {
        let mut spec = DaemonSpec::new(65001, 1).neighbor(LinkId(0), 9, 65002);
        spec.hold_time_secs = hold;
        let mut drv = NodeDriver::new(Box::new(BgpDaemon::<QueueEngine>::new(spec)), 1);
        drv.start(0);
        drv
    }

    /// A daemon with one established neighbor, handshake frames drained.
    fn established() -> NodeDriver {
        let mut drv = started(90);
        drv.deliver(1, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 90, 9))));
        drv.deliver(1, LinkId(0), &frame(Message::Keepalive));
        drv.drain_outbound();
        drv
    }

    fn session(drv: &mut NodeDriver) -> &Session {
        &drv.node_ref::<BgpDaemon<QueueEngine>>().host.neighbors[0].session
    }

    /// What the daemon sent, decoded.
    fn sent(drv: &mut NodeDriver) -> Vec<Message> {
        let out = drv.drain_outbound();
        out.iter().map(|(_, f)| Message::decode(f, 4).unwrap()).collect()
    }

    /// The frames a host emits during a standard handshake: its OPEN at
    /// start, one KEEPALIVE for the peer's OPEN, nothing for the peer's
    /// KEEPALIVE.
    #[test]
    fn handshake_frames_are_open_then_keepalive() {
        let mut drv = started(90);
        let open = frame(Message::Open(OpenMsg::standard(65001, 90, 1)));
        assert_eq!(drv.drain_outbound(), vec![(LinkId(0), open)]);
        drv.deliver(1, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 90, 9))));
        assert_eq!(drv.drain_outbound(), vec![(LinkId(0), frame(Message::Keepalive))]);
        drv.deliver(1, LinkId(0), &frame(Message::Keepalive));
        assert!(drv.drain_outbound().is_empty());
        assert_eq!(session(&mut drv).state(), SessionState::Established);
        let d = drv.node_ref::<BgpDaemon<QueueEngine>>();
        assert_eq!(d.counters().sessions_established, 1);
        assert_eq!(d.host.stats.fsm_transitions, [0, 1, 1, 1]);
    }

    /// The host hands its hold time to the session, which negotiates the
    /// minimum (`session::tests::open_negotiates_minimum_hold_time`).
    #[test]
    fn open_negotiates_minimum_hold_time() {
        let mut drv = started(90);
        drv.deliver(1, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 30, 9))));
        assert_eq!(session(&mut drv).state(), SessionState::OpenConfirm);
        assert_eq!(session(&mut drv).hold_ns(), 30_000_000_000);
    }

    /// The host expects the declared ASN of its neighbor
    /// (`session::tests::expected_asn_mismatch_closes_with_bad_peer_as`).
    #[test]
    fn open_with_wrong_asn_rejected() {
        let mut drv = started(90);
        drv.drain_outbound();
        drv.deliver(1, LinkId(0), &frame(Message::Open(OpenMsg::standard(65099, 90, 9))));
        assert_eq!(sent(&mut drv), [Message::Notification(NotificationMsg::new(2, 2))]);
        assert_eq!(session(&mut drv).state(), SessionState::Idle);
        let d = drv.node_ref::<BgpDaemon<QueueEngine>>();
        assert!(d.host.logs.iter().any(|l| l == "neighbor 0: closed with NOTIFICATION 2/2"));
    }

    /// A torn-down neighbor starts over with a fresh session: half a frame
    /// the old one had buffered does not reach the next handshake.
    #[test]
    fn reset_clears_reader_and_state() {
        let mut drv = established();
        drv.deliver(2, LinkId(0), &[0xff; 10]);
        drv.link_event(3, LinkId(0), false);
        assert_eq!(session(&mut drv).state(), SessionState::Idle);
        drv.link_event(4, LinkId(0), true);
        assert!(matches!(sent(&mut drv)[..], [Message::Open(_)]));
        drv.deliver(5, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 90, 9))));
        drv.deliver(5, LinkId(0), &frame(Message::Keepalive));
        assert_eq!(session(&mut drv).state(), SessionState::Established);
    }

    /// A message that is wrong for the state closes with the FSM error
    /// naming the state — 5/3 in Established.
    #[test]
    fn misplaced_message_closes_with_the_fsm_error_of_the_state() {
        let mut drv = established();
        drv.deliver(2, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 90, 9))));
        assert_eq!(sent(&mut drv), [Message::Notification(NotificationMsg::new(5, 3))]);
        assert_eq!(session(&mut drv).state(), SessionState::Idle);
    }

    /// An adopted session is Established without a handshake, at the
    /// width the edge negotiated, counted like any other, and arms no
    /// timer.
    #[test]
    fn adopted_session_is_established_without_a_handshake() {
        let mut drv = started(90);
        drv.drain_outbound();
        drv.with_node(1, |d: &mut BgpDaemon<QueueEngine>, ctx| {
            d.adopt_session(ctx, LinkId(0), false);
        });
        assert!(drv.drain_outbound().is_empty(), "no OPEN, no KEEPALIVE");
        let d = drv.node_ref::<BgpDaemon<QueueEngine>>();
        assert!(d.host.neighbors[0].is_established());
        assert_eq!(d.host.neighbors[0].asn_width(), 2);
        assert_eq!(d.host.neighbors[0].session.next_deadline(), None);
        assert_eq!(d.counters().sessions_established, 1);
        assert_eq!(d.host.stats.fsm_transitions, [1, 1, 0, 1], "the OpenSent session was dropped");
    }

    /// Hold time and keepalive cadence under a driver clock: KEEPALIVEs go
    /// out at a third of the negotiated hold while the peer keeps talking,
    /// and silence past it closes with 4/0.
    #[test]
    fn one_timer_per_neighbor_drives_keepalives_and_hold_expiry() {
        const SEC: u64 = 1_000_000_000;
        let mut drv = started(9);
        drv.deliver(0, LinkId(0), &frame(Message::Open(OpenMsg::standard(65002, 9, 9))));
        drv.deliver(0, LinkId(0), &frame(Message::Keepalive));
        drv.drain_outbound();
        for t in [3, 6] {
            drv.deliver(t * SEC, LinkId(0), &frame(Message::Keepalive));
            assert_eq!(sent(&mut drv), [Message::Keepalive], "at {t} s");
        }
        drv.advance_to(15 * SEC);
        assert_eq!(
            sent(&mut drv),
            [
                Message::Keepalive,
                Message::Keepalive,
                Message::Notification(NotificationMsg::new(4, 0))
            ],
            "9 s and 12 s, then 15 s without a word since 6 s"
        );
    }

    /// Queue `wd` withdrawals and `ann` announcements, trigger a flush
    /// with an empty UPDATE, and return the decoded UPDATEs sent plus the
    /// tx counters.
    fn flush_counts(wd: u32, ann: u32) -> (Vec<UpdateMsg>, DaemonCounters) {
        let prefixes = |n: u32| (0..n).map(|i| Ipv4Prefix::new(i << 8, 24)).collect();
        let mut drv = established();
        let d = drv.node_mut::<BgpDaemon<QueueEngine>>();
        d.engine.withdrawals = prefixes(wd);
        d.engine.announcements = prefixes(ann);
        let empty = frame(Message::Update(UpdateMsg::default()));
        drv.deliver(2, LinkId(0), &empty);
        let sent = drv
            .drain_outbound()
            .iter()
            .map(|(_, frame)| match Message::decode(frame, 4).unwrap() {
                Message::Update(u) => u,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        (sent, drv.node_ref::<BgpDaemon<QueueEngine>>().counters())
    }

    #[test]
    fn framer_chunks_withdrawals_at_800() {
        let (sent, c) = flush_counts(800, 0);
        assert_eq!(sent.len(), 1);
        assert_eq!((c.updates_tx, c.withdrawals_tx, c.prefixes_tx), (1, 800, 0));

        let (sent, c) = flush_counts(801, 0);
        let sizes: Vec<usize> = sent.iter().map(|u| u.withdrawn.len()).collect();
        assert_eq!(sizes, [800, 1]);
        assert_eq!((c.updates_tx, c.withdrawals_tx, c.prefixes_tx), (2, 801, 0));
    }

    #[test]
    fn framer_chunks_announcements_at_700() {
        let (sent, c) = flush_counts(0, 700);
        assert_eq!(sent.len(), 1);
        assert_eq!((c.updates_tx, c.prefixes_tx, c.withdrawals_tx), (1, 700, 0));

        let (sent, c) = flush_counts(0, 701);
        let sizes: Vec<usize> = sent.iter().map(|u| u.nlri.len()).collect();
        assert_eq!(sizes, [700, 1]);
        assert_eq!((c.updates_tx, c.prefixes_tx, c.withdrawals_tx), (2, 701, 0));
    }

    #[test]
    fn encode_error_is_logged_not_sent_or_counted() {
        let mut drv = established();
        let d = drv.node_mut::<BgpDaemon<QueueEngine>>();
        d.engine.announcements = vec![Ipv4Prefix::new(0, 24)];
        d.engine.extra = vec![0; 5000]; // pushes the frame past 4096 bytes
        let empty = frame(Message::Update(UpdateMsg::default()));
        drv.deliver(2, LinkId(0), &empty);
        assert!(drv.drain_outbound().is_empty());
        let d = drv.node_ref::<BgpDaemon<QueueEngine>>();
        assert_eq!(d.counters().updates_tx, 0);
        assert!(
            d.host.logs.iter().any(|l| l.contains("encode to neighbor 0 failed")),
            "{:?}",
            d.host.logs
        );
    }

    /// Hooks over one inbound-filter extension assembled from `src`.
    fn filter_hooks(src: &str, on_fault: OnFault) -> Hooks {
        let prog = assemble_with_symbols(src, &api::abi_symbols()).expect("assembles");
        let point = InsertionPoint::BgpInboundFilter;
        let mut ext = ExtensionSpec::from_program("f", "f", point, &["next"], &prog);
        ext.on_fault = on_fault;
        let mut manifest = Manifest::new();
        manifest.push(ext);
        Hooks { vmm: Vmm::from_manifest(&manifest).unwrap() }
    }

    /// `(verdict, native policy consultations, stats)` of one filter run.
    fn filter_verdict(src: &str, on_fault: OnFault) -> (Verdict, u32, HostStats) {
        let mut hooks = filter_hooks(src, on_fault);
        let mut stats = HostStats::default();
        let mut consulted = 0;
        let verdict = hooks.run_filter(
            InsertionPoint::BgpInboundFilter,
            &mut MockHost::default(),
            &mut stats,
            || {
                consulted += 1;
                true
            },
        );
        (verdict, consulted, stats)
    }

    #[test]
    fn extension_verdicts_are_final_and_counted() {
        let (v, consulted, st) = filter_verdict("mov r0, FILTER_REJECT\nexit", OnFault::Fallback);
        assert_eq!(v, Verdict { accept: false, shareable: true });
        assert_eq!((consulted, st.xbgp_rejected, st.xbgp_accepted), (0, 1, 0));

        let (v, consulted, st) = filter_verdict("mov r0, FILTER_ACCEPT\nexit", OnFault::Fallback);
        assert_eq!(v, Verdict { accept: true, shareable: true });
        assert_eq!((consulted, st.xbgp_rejected, st.xbgp_accepted), (0, 0, 1));
    }

    #[test]
    fn fallback_consults_the_native_policy_exactly_once() {
        let (v, consulted, st) = filter_verdict("call next\nexit", OnFault::Fallback);
        assert_eq!(v, Verdict { accept: true, shareable: true }, "the native policy's answer");
        assert_eq!((consulted, st.xbgp_rejected, st.xbgp_accepted), (1, 0, 0));
    }

    /// A fault is never shared, whether it fails closed or falls back to
    /// the same answer a clean delegation gives.
    #[test]
    fn aborted_filter_fails_closed() {
        let wild = "lddw r1, 0x7777777777\nldxb r0, [r1]\nexit";
        let (v, consulted, st) = filter_verdict(wild, OnFault::Abort);
        assert_eq!(v, Verdict { accept: false, shareable: false });
        assert_eq!((consulted, st.xbgp_rejected, st.xbgp_accepted), (0, 1, 0));
        let (v, consulted, _) = filter_verdict(wild, OnFault::Fallback);
        assert_eq!(v, Verdict { accept: true, shareable: false });
        assert_eq!(consulted, 1);
    }
}
