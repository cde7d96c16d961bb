//! The FIR daemon: netsim node, FSM driver, RIB pipeline, xBGP points.

use crate::attrs::{AttrInternTable, FirAttrs};
use crate::config::FirConfig;
use crate::rib::{peer_slot, AdjRibOut, DecisionCtx, RibEntry, RibStore, RouteSource, LOCAL_SLOT};
use crate::session::{FsmState, Session};
use crate::xbgp_glue::{AttrAccess, FirXbgpCtx};
use netsim::{LinkId, Node, NodeCtx};
use rpki::{RoaHashTable, RoaTable, RoaTrie, RovState};
use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use xbgp_core::api::{self, InsertionPoint, PeerInfo, PeerType};
use xbgp_core::{Manifest, Vmm, VmmOutcome};
use xbgp_obs::trace::{pack_prefix, TraceConfig, TraceDump, TraceKind, NO_EXT, NO_POINT};
use xbgp_obs::{Histogram, Snapshot};
use xbgp_rib::{push_rib_gauges, DirtySet, RibCounters};
use xbgp_wire::attr::encode_attrs;
use xbgp_wire::{Ipv4Prefix, Message, NotificationMsg, OpenMsg, UpdateMsg};

/// Counters and timestamps the harness reads off a daemon.
#[derive(Debug, Default, Clone)]
pub struct DaemonStats {
    pub updates_rx: u64,
    pub prefixes_rx: u64,
    pub withdrawals_rx: u64,
    pub updates_tx: u64,
    pub prefixes_tx: u64,
    pub withdrawals_tx: u64,
    /// Virtual time of the first received UPDATE.
    pub first_update_rx: Option<u64>,
    /// Virtual time of the most recent Loc-RIB change.
    pub last_route_change: Option<u64>,
    pub sessions_established: u64,
    pub rov_valid: u64,
    pub rov_invalid: u64,
    pub rov_not_found: u64,
    /// Routes rejected by xBGP filters.
    pub xbgp_rejected: u64,
    /// Filter-point runs where an extension accepted the route (a
    /// `Value` other than reject).
    pub xbgp_accepted: u64,
    /// Decision-point runs resolved by an extension instead of the
    /// native RFC 4271 comparison.
    pub xbgp_decisions: u64,
    /// Session FSM transitions, indexed by target state
    /// ([`FSM_TO_OPEN_SENT`] …).
    pub fsm_transitions: [u64; 4],
}

/// Indices into [`DaemonStats::fsm_transitions`], one per target state.
pub const FSM_TO_OPEN_SENT: usize = 0;
pub const FSM_TO_OPEN_CONFIRM: usize = 1;
pub const FSM_TO_ESTABLISHED: usize = 2;
pub const FSM_TO_IDLE: usize = 3;

/// Label values for the transition counters, matching the indices above.
const FSM_STATE_NAMES: [&str; 4] = ["open_sent", "open_confirm", "established", "idle"];

/// Dense index of an insertion point into the hook-latency table.
fn pindex(p: InsertionPoint) -> usize {
    InsertionPoint::ALL.iter().position(|q| *q == p).expect("point in ALL")
}

/// Timer token layout: `peer_index * 2 + kind`.
const TIMER_KEEPALIVE: u64 = 0;
const TIMER_HOLD: u64 = 1;

/// The FIR BGP daemon. See the crate documentation.
pub struct FirDaemon {
    cfg: FirConfig,
    sessions: Vec<Session>,
    link_to_peer: HashMap<LinkId, usize>,
    intern: AttrInternTable,
    /// Merged Adj-RIB-In + Loc-RIB: one trie node per net holds every
    /// source's candidate (slot 0 = locally originated, slot `i+1` =
    /// peer `i`) and the committed best route.
    rib: RibStore,
    /// Prefixes touched by the current UPDATE batch and awaiting delta
    /// re-decision (drained in prefix order before each flush).
    dirty: DirtySet,
    /// Shared `xbgp_rib_*` churn counters.
    rib_counters: RibCounters,
    adj_out: Vec<AdjRibOut>,
    vmm: Vmm,
    /// FIR's native origin validation: the trie (§3.4).
    rov_trie: Option<RoaTrie>,
    /// The xBGP-layer ROA store (hash) for `rpki_check_origin`.
    xbgp_rov: Option<RoaHashTable>,
    pub stats: DaemonStats,
    pub logs: Vec<String>,
    /// Routes added by extensions via `rib_add_route`.
    ext_rib_adds: Vec<(Ipv4Prefix, u32)>,
    /// Timing instrumentation on? (mirrors `FirConfig::metrics`).
    metrics: bool,
    /// Wall-clock nanoseconds spent around each insertion-point hook,
    /// including context marshalling — a superset of the VMM's own chain
    /// timing. Indexed by [`pindex`]; filled only when `metrics` is set.
    hook_ns: [Histogram; 5],
}

impl FirDaemon {
    /// Build a daemon from its configuration. Panics on a malformed xBGP
    /// manifest — configuration errors are fatal at startup, like a daemon
    /// refusing to start on a bad config file.
    pub fn new(cfg: FirConfig) -> FirDaemon {
        let mut vmm = match &cfg.xbgp {
            Some(m) => Vmm::from_manifest(m).expect("invalid xBGP manifest"),
            None => Vmm::from_manifest(&Manifest::new()).expect("empty manifest"),
        };
        if cfg.metrics {
            vmm.enable_metrics();
        }
        if let Some(tc) = cfg.trace {
            vmm.enable_trace(tc);
        }
        if cfg.profile {
            vmm.enable_profile();
        }
        let rov_trie = cfg.native_rov.as_ref().map(|roas| {
            let mut t = RoaTrie::new();
            for r in roas {
                t.insert(*r);
            }
            t
        });
        let xbgp_rov = cfg.xbgp_roas.as_ref().map(|roas| {
            let mut t = RoaHashTable::new();
            for r in roas {
                t.insert(*r);
            }
            t
        });
        let sessions: Vec<Session> =
            cfg.peers.iter().map(|p| Session::new(p.clone(), cfg.asn)).collect();
        let link_to_peer = cfg.peers.iter().enumerate().map(|(i, p)| (p.link, i)).collect();
        let n = sessions.len();
        let metrics = cfg.metrics;
        FirDaemon {
            cfg,
            sessions,
            link_to_peer,
            intern: AttrInternTable::new(),
            rib: RibStore::new(n + 1),
            dirty: DirtySet::new(),
            rib_counters: RibCounters::new(),
            adj_out: (0..n).map(|_| AdjRibOut::default()).collect(),
            vmm,
            rov_trie,
            xbgp_rov,
            stats: DaemonStats::default(),
            logs: Vec::new(),
            ext_rib_adds: Vec::new(),
            metrics,
            hook_ns: Default::default(),
        }
    }

    /// Turn on timing instrumentation at runtime (same effect as
    /// [`FirConfig::metrics`](crate::config::FirConfig)).
    pub fn enable_metrics(&mut self) {
        self.metrics = true;
        self.vmm.enable_metrics();
    }

    /// Attach a route-scoped flight recorder at runtime (same effect as
    /// [`FirConfig::trace`](crate::config::FirConfig)).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.vmm.enable_trace(cfg);
    }

    /// Turn on the VM execution profiler at runtime.
    pub fn enable_profile(&mut self) {
        self.vmm.enable_profile();
    }

    /// Drain the flight recorder into a mergeable dump (`None` when
    /// tracing is off).
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        self.vmm.take_trace()
    }

    /// Start a hook timer when instrumentation is on.
    fn hook_start(&self) -> Option<Instant> {
        self.metrics.then(Instant::now)
    }

    /// Record the elapsed time of one insertion-point hook.
    fn hook_end(&self, point: InsertionPoint, start: Option<Instant>) {
        if let Some(t0) = start {
            self.hook_ns[pindex(point)].observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Full observability snapshot: daemon counters and gauges, hook-site
    /// latency histograms (when instrumentation is on) and the VMM's
    /// per-point / per-extension metrics, all labelled `daemon="bgp-fir"`.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        let st = &self.stats;
        s.push_counter("xbgp_daemon_updates_rx_total", &[], st.updates_rx);
        s.push_counter("xbgp_daemon_updates_tx_total", &[], st.updates_tx);
        s.push_counter("xbgp_daemon_prefixes_rx_total", &[], st.prefixes_rx);
        s.push_counter("xbgp_daemon_prefixes_tx_total", &[], st.prefixes_tx);
        s.push_counter("xbgp_daemon_withdrawals_rx_total", &[], st.withdrawals_rx);
        s.push_counter("xbgp_daemon_withdrawals_tx_total", &[], st.withdrawals_tx);
        s.push_counter("xbgp_daemon_sessions_established_total", &[], st.sessions_established);
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
        for (i, to) in FSM_STATE_NAMES.iter().enumerate() {
            s.push_counter(
                "xbgp_daemon_fsm_transitions_total",
                &[("to", to)],
                st.fsm_transitions[i],
            );
        }
        s.push_gauge("xbgp_daemon_loc_rib_size", &[], self.rib.loc_len() as i64);
        s.push_gauge("xbgp_daemon_adj_rib_in_size", &[], self.rib.adj_in_len() as i64);
        self.rib_counters.push(&mut s);
        push_rib_gauges(&mut s, self.rib.adj_in_len(), self.rib.loc_len(), self.dirty.len());
        s.push_gauge(
            "xbgp_daemon_adj_rib_out_size",
            &[],
            self.adj_out.iter().map(AdjRibOut::len).sum::<usize>() as i64,
        );
        s.push_gauge(
            "xbgp_daemon_sessions_up",
            &[],
            self.sessions.iter().filter(|s| s.is_established()).count() as i64,
        );
        s.push_gauge("xbgp_daemon_interned_attr_sets", &[], self.intern.len() as i64);
        if self.metrics {
            for p in InsertionPoint::ALL {
                s.push_histogram(
                    "xbgp_daemon_hook_ns",
                    &[("point", p.name())],
                    self.hook_ns[pindex(p)].snapshot(),
                );
            }
        }
        s.merge(self.vmm.metrics_snapshot())
            .expect("daemon and VMM share the bucket layout");
        s.with_labels(&[("daemon", "bgp-fir")])
    }

    /// The daemon's Loc-RIB size (for tests and the harness).
    pub fn loc_rib_len(&self) -> usize {
        self.rib.loc_len()
    }

    /// Best route for a prefix, if any.
    pub fn best_route(&self, prefix: &Ipv4Prefix) -> Option<&RibEntry> {
        self.rib.best(prefix)
    }

    /// All Loc-RIB prefixes, in prefix order (trie pre-order *is*
    /// `(addr, len)` order, so no sort is needed).
    pub fn loc_rib_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.rib.iter_best().map(|(p, _)| p).collect()
    }

    /// Full Loc-RIB contents as `(prefix, wire-encoded best-route
    /// attributes)`, in prefix order straight off the trie. The wire form
    /// is `Send` and implementation-neutral, so per-shard dumps can cross
    /// threads and be compared byte-for-byte against a sequential run's
    /// dump.
    pub fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.rib
            .iter_best()
            .map(|(p, e)| (p, encode_attrs(&e.attrs.to_wire(), 4)))
            .collect()
    }

    /// Full-recompute oracle: re-derive every net's best route from the
    /// live candidates alone — ignoring the committed best the
    /// incremental engine maintains — and format the result exactly like
    /// [`loc_rib_dump`](Self::loc_rib_dump). At any quiescent point the
    /// two must be byte-identical; that invariant pins the incremental
    /// engine's correctness. Runs the same ③ `BGP_DECISION` extensions as
    /// the live path, so collect metrics snapshots *before* calling this
    /// (it advances the decision counters).
    pub fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        let mut out = Vec::new();
        for prefix in self.rib.net_prefixes() {
            let mut best: Option<RibEntry> = None;
            for (_, entry) in self.rib.candidates_cloned(&prefix) {
                if !self.eligible(&entry) {
                    continue;
                }
                best = match best {
                    None => Some(entry),
                    Some(cur) => {
                        if self.better(&entry, &cur) {
                            Some(entry)
                        } else {
                            Some(cur)
                        }
                    }
                };
            }
            if let Some(e) = best {
                out.push((prefix, encode_attrs(&e.attrs.to_wire(), 4)));
            }
        }
        out
    }

    /// Is the session with `peer_addr` established?
    pub fn session_established(&self, peer_addr: u32) -> bool {
        self.sessions.iter().any(|s| s.cfg.peer_addr == peer_addr && s.is_established())
    }

    /// Distinct interned attribute sets (exposes the attrhash behaviour).
    pub fn interned_attr_sets(&self) -> usize {
        self.intern.len()
    }

    /// xBGP per-extension statistics.
    pub fn xbgp_stats(&self) -> Vec<xbgp_core::vmm::ExtensionStats> {
        self.vmm.stats()
    }

    /// Read a block from an extension program's persistent memory.
    pub fn xbgp_shared_read(&self, group: &str, key: u64) -> Option<Vec<u8>> {
        self.vmm.shared_read(group, key)
    }

    /// The most recent extension fault, formatted, if any.
    pub fn xbgp_last_error(&self) -> Option<String> {
        self.vmm.last_error().map(|(n, e)| format!("{n}: {e}"))
    }

    fn cluster_id(&self) -> u32 {
        self.cfg.cluster_id.unwrap_or(self.cfg.router_id)
    }

    fn peer_info_for(&self, idx: usize) -> PeerInfo {
        let s = &self.sessions[idx];
        PeerInfo {
            router_id: s.cfg.peer_addr,
            asn: s.cfg.peer_asn,
            peer_type: s.peer_type,
            local_router_id: self.cfg.router_id,
            local_asn: self.cfg.asn,
            flags: if s.cfg.rr_client { api::PEER_FLAG_RR_CLIENT } else { 0 },
        }
    }

    /// Marshal a [`PeerInfo`]-shaped blob describing a route's *source*
    /// (passed as argument 0 to the outbound-filter and encode points).
    fn source_info_bytes(&self, src: &RouteSource) -> Vec<u8> {
        let mut flags = 0;
        if src.rr_client {
            flags |= api::PEER_FLAG_RR_CLIENT;
        }
        if src.local {
            flags |= api::PEER_FLAG_LOCAL;
        }
        let pi = PeerInfo {
            router_id: src.peer_addr,
            asn: src.peer_asn,
            peer_type: src.peer_type,
            local_router_id: self.cfg.router_id,
            local_asn: self.cfg.asn,
            flags,
        };
        pi.to_bytes().to_vec()
    }

    fn igp_metric_to(&self, nexthop: u32) -> u32 {
        match &self.cfg.igp {
            Some(igp) => igp.borrow().metric(self.cfg.router_id, nexthop),
            None => 0,
        }
    }

    fn nexthop_info(&self, attrs: &FirAttrs) -> api::NextHopInfo {
        let metric = self.igp_metric_to(attrs.next_hop);
        api::NextHopInfo {
            addr: attrs.next_hop,
            igp_metric: metric,
            reachable: metric != u32::MAX,
        }
    }

    // -----------------------------------------------------------------
    // Session machinery
    // -----------------------------------------------------------------

    fn send_open(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let open = OpenMsg::standard(self.cfg.asn, self.cfg.hold_time_secs, self.cfg.router_id);
        let frame = Message::Open(open).encode(4).expect("OPEN encodes");
        ctx.send(self.sessions[idx].cfg.link, &frame);
        self.sessions[idx].state = FsmState::OpenSent;
        self.stats.fsm_transitions[FSM_TO_OPEN_SENT] += 1;
    }

    fn send_msg(&mut self, ctx: &mut NodeCtx<'_>, idx: usize, msg: &Message) {
        let width = self.sessions[idx].asn_width();
        match msg.encode(width) {
            Ok(frame) => ctx.send(self.sessions[idx].cfg.link, &frame),
            Err(e) => self.logs.push(format!("encode error to peer {idx}: {e}")),
        }
    }

    fn establish(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        self.sessions[idx].state = FsmState::Established;
        self.stats.fsm_transitions[FSM_TO_ESTABLISHED] += 1;
        self.sessions[idx].last_recv = ctx.now();
        self.stats.sessions_established += 1;
        let hold = self.sessions[idx].hold_time_ns;
        if hold > 0 {
            ctx.set_timer(hold / 3, (idx as u64) * 2 + TIMER_KEEPALIVE);
            ctx.set_timer(hold / 3, (idx as u64) * 2 + TIMER_HOLD);
        }
        // Initial route dump: advertise the whole Loc-RIB to this peer.
        // Trie iteration is already prefix-ordered, so the wire order (and
        // with it UPDATE batching and trace timelines) is deterministic
        // without a sort.
        let routes: Vec<(Ipv4Prefix, RibEntry)> =
            self.rib.iter_best().map(|(p, e)| (p, e.clone())).collect();
        let mut pending = OutboundBatches::default();
        for (prefix, entry) in routes {
            self.export_one(idx, prefix, &entry, &mut pending);
        }
        self.flush_outbound(ctx, idx, pending);
    }

    fn teardown(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        if self.sessions[idx].state == FsmState::Idle {
            return;
        }
        self.sessions[idx].reset();
        self.stats.fsm_transitions[FSM_TO_IDLE] += 1;
        self.adj_out[idx] = AdjRibOut::default();
        let slot = peer_slot(idx);
        self.rib_counters.withdrawals += self.rib.slot_len(slot) as u64;
        // Without the delta guarantees only best-affected nets need a
        // re-decision; with an IGP or a decision extension every net the
        // peer contributed to must be rescanned (see `delta_safe`).
        let lost = self.rib.flush_slot(slot, !self.delta_safe());
        for prefix in lost {
            self.dirty.mark(prefix);
        }
        let mut pending_per_peer: Vec<OutboundBatches> =
            (0..self.sessions.len()).map(|_| OutboundBatches::default()).collect();
        self.drain_dirty(ctx, &mut pending_per_peer);
        self.flush_all(ctx, pending_per_peer);
    }

    // -----------------------------------------------------------------
    // Inbound pipeline
    // -----------------------------------------------------------------

    fn handle_update(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        idx: usize,
        upd: UpdateMsg,
        raw_body: Vec<u8>,
    ) {
        self.stats.updates_rx += 1;
        if self.stats.first_update_rx.is_none() {
            self.stats.first_update_rx = Some(ctx.now());
        }
        // Trace-id allocation happens at UPDATE ingest, before any route
        // is parsed, so every downstream event carries the same scope.
        if let Some(t) = self.vmm.tracer_mut() {
            t.set_now(ctx.now());
            t.on_ingest(idx as u64, upd.nlri.len() as u64);
        }

        let mut pending_per_peer: Vec<OutboundBatches> =
            (0..self.sessions.len()).map(|_| OutboundBatches::default()).collect();

        // Withdrawals first (RFC 4271 §3.1 ordering within an UPDATE).
        // Each removal only *marks* its prefix; the batched re-decision
        // happens once, in `drain_dirty`, before the flush. A removal
        // that provably cannot change the best route (the committed best
        // came from another source, and the comparison order is stable —
        // see `delta_safe`) is not marked at all.
        let slot = peer_slot(idx);
        let delta_safe = self.delta_safe();
        for prefix in &upd.withdrawn {
            self.stats.withdrawals_rx += 1;
            if self.rib.remove(prefix, slot).is_some() {
                self.rib_counters.withdrawals += 1;
                let best_slot = self.rib.best_slot(prefix);
                if !delta_safe || best_slot.is_none() || best_slot == Some(slot) {
                    self.dirty.mark(*prefix);
                }
            }
        }

        if !upd.nlri.is_empty() {
            match FirAttrs::from_wire(&upd.attrs) {
                Ok(attrs) => {
                    self.install_routes(ctx, idx, attrs, &upd.nlri, raw_body, &mut pending_per_peer)
                }
                Err(e) => {
                    self.logs.push(format!("malformed UPDATE from peer {idx}: {e}"));
                    // Commit the deferred withdrawal decisions before the
                    // teardown below flushes its own state; the pending
                    // batches themselves are dropped, as they always were
                    // on this path.
                    self.drain_dirty(ctx, &mut pending_per_peer);
                    self.send_msg(
                        ctx,
                        idx,
                        &Message::Notification(NotificationMsg::from_error(&e)),
                    );
                    self.teardown(ctx, idx);
                    return;
                }
            }
        }
        self.drain_dirty(ctx, &mut pending_per_peer);
        self.flush_all(ctx, pending_per_peer);
    }

    fn install_routes(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        idx: usize,
        mut attrs: FirAttrs,
        nlri: &[Ipv4Prefix],
        raw_body: Vec<u8>,
        pending_per_peer: &mut [OutboundBatches],
    ) {
        let peer_info = self.peer_info_for(idx);
        let peer_type = self.sessions[idx].peer_type;

        // ① BGP_RECEIVE_MESSAGE: the extension sees the raw message and
        // may attach attributes to the routes being parsed.
        if self.vmm.has_extensions(InsertionPoint::BgpReceiveMessage) {
            let t0 = self.hook_start();
            let hook_args = [raw_body.as_slice()];
            let mut hctx = FirXbgpCtx {
                peer: peer_info,
                args: &hook_args,
                attrs: AttrAccess::Mut(&mut attrs),
                prefix: None,
                nexthop: None,
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let _ = self.vmm.run(InsertionPoint::BgpReceiveMessage, &mut hctx);
            self.hook_end(InsertionPoint::BgpReceiveMessage, t0);
        }

        // Sender-side loop detection.
        if peer_type == PeerType::Ebgp && attrs.as_path.contains(self.cfg.asn) {
            return; // AS loop: drop silently (RFC 4271 §9.1.2).
        }
        if peer_type == PeerType::Ibgp && self.cfg.native_rr {
            if attrs.originator_id == Some(self.cfg.router_id) {
                return;
            }
            if attrs.cluster_list.contains(&self.cluster_id()) {
                return;
            }
        }

        let source = RouteSource {
            peer_addr: self.sessions[idx].cfg.peer_addr,
            peer_asn: self.sessions[idx].cfg.peer_asn,
            peer_type,
            rr_client: self.sessions[idx].cfg.rr_client,
            local: false,
        };
        let shared = self.intern.intern(attrs);
        let inbound_ext = self.vmm.has_extensions(InsertionPoint::BgpInboundFilter);
        let nexthop = self.nexthop_info(&shared);

        for prefix in nlri {
            self.stats.prefixes_rx += 1;
            // One sampling decision per route; a sampled route records
            // its whole decode → decision → propagate path.
            if let Some(t) = self.vmm.tracer_mut() {
                t.begin_route(pack_prefix(prefix.addr(), prefix.len()));
            }
            let mut entry_attrs = Rc::clone(&shared);

            // ② BGP_INBOUND_FILTER (per route, copy-on-write attributes).
            if inbound_ext {
                let t0 = self.hook_start();
                let mut modified = None;
                let mut hctx = FirXbgpCtx {
                    peer: peer_info,
                    args: &[],
                    attrs: AttrAccess::Cow { base: &shared, modified: &mut modified },
                    prefix: Some(*prefix),
                    nexthop: Some(nexthop),
                    xtra: &self.cfg.xtra,
                    out_buf: None,
                    rov: self.xbgp_rov.as_ref(),
                    rib_adds: &mut self.ext_rib_adds,
                    logs: &mut self.logs,
                };
                let outcome = self.vmm.run(InsertionPoint::BgpInboundFilter, &mut hctx);
                self.hook_end(InsertionPoint::BgpInboundFilter, t0);
                match outcome {
                    VmmOutcome::Value(v) if v == api::FILTER_REJECT => {
                        self.stats.xbgp_rejected += 1;
                        self.remove_candidate_and_decide(
                            ctx,
                            *prefix,
                            peer_slot(idx),
                            pending_per_peer,
                        );
                        // Close the route scope on the early-reject path
                        // too: a leaked scope would let the next route's
                        // events inherit this route's attribution.
                        if let Some(t) = self.vmm.tracer_mut() {
                            t.end_route();
                        }
                        continue;
                    }
                    VmmOutcome::Value(_) => self.stats.xbgp_accepted += 1,
                    VmmOutcome::Fallback => {}
                    // `on_fault = abort`: the filter failed, so fail
                    // closed — reject the route rather than widen policy.
                    VmmOutcome::Aborted => {
                        self.stats.xbgp_rejected += 1;
                        self.remove_candidate_and_decide(
                            ctx,
                            *prefix,
                            peer_slot(idx),
                            pending_per_peer,
                        );
                        if let Some(t) = self.vmm.tracer_mut() {
                            t.end_route();
                        }
                        continue;
                    }
                }
                if let Some(m) = modified {
                    entry_attrs = self.intern.intern(m);
                }
            }

            // Native import policy: origin validation tags (never drops).
            let rov = self.rov_trie.as_ref().map(|trie| {
                let state = match entry_attrs.as_path.origin_asn() {
                    Some(origin) => trie.validate(*prefix, origin),
                    None => RovState::NotFound,
                };
                match state {
                    RovState::Valid => self.stats.rov_valid += 1,
                    RovState::Invalid => self.stats.rov_invalid += 1,
                    RovState::NotFound => self.stats.rov_not_found += 1,
                }
                state
            });

            self.rib
                .insert(*prefix, peer_slot(idx), RibEntry { attrs: entry_attrs, source, rov });
            self.rib_counters.updates_applied += 1;
            self.decide_after_announce(ctx, *prefix, peer_slot(idx), pending_per_peer);
            // Every `begin_route` above is matched here or on the reject/
            // abort `continue`s, so no scope outlives its route.
            if let Some(t) = self.vmm.tracer_mut() {
                t.end_route();
            }
        }

        // Routes installed by extensions through `rib_add_route`.
        let adds: Vec<(Ipv4Prefix, u32)> = self.ext_rib_adds.drain(..).collect();
        for (prefix, nexthop) in adds {
            let attrs = self.intern.intern(FirAttrs { next_hop: nexthop, ..FirAttrs::default() });
            self.rib.insert(
                prefix,
                LOCAL_SLOT,
                RibEntry {
                    attrs,
                    source: RouteSource::local(self.cfg.router_id, self.cfg.asn),
                    rov: None,
                },
            );
            self.rib_counters.updates_applied += 1;
            self.decide_after_announce(ctx, prefix, LOCAL_SLOT, pending_per_peer);
        }
    }

    // -----------------------------------------------------------------
    // Decision process
    // -----------------------------------------------------------------

    /// Is `candidate` preferred over `best`? Consults the ③ BGP_DECISION
    /// insertion point before the native RFC 4271 comparison.
    fn better(&mut self, candidate: &RibEntry, best: &RibEntry) -> bool {
        if self.vmm.has_extensions(InsertionPoint::BgpDecision) {
            let best_wire = encode_attrs(&best.attrs.to_wire(), 4);
            let peer = PeerInfo {
                router_id: candidate.source.peer_addr,
                asn: candidate.source.peer_asn,
                peer_type: candidate.source.peer_type,
                local_router_id: self.cfg.router_id,
                local_asn: self.cfg.asn,
                flags: 0,
            };
            let nexthop = self.nexthop_info(&candidate.attrs);
            let t0 = self.hook_start();
            let hook_args = [best_wire.as_slice()];
            let mut hctx = FirXbgpCtx {
                peer,
                args: &hook_args,
                attrs: AttrAccess::Read(&candidate.attrs),
                prefix: None,
                nexthop: Some(nexthop),
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let outcome = self.vmm.run(InsertionPoint::BgpDecision, &mut hctx);
            self.hook_end(InsertionPoint::BgpDecision, t0);
            match outcome {
                VmmOutcome::Value(v) => {
                    self.stats.xbgp_decisions += 1;
                    return v == api::DECISION_PREFER_NEW;
                }
                // The decision point has a sound native answer, so both
                // fallback and abort degrade to the RFC 4271 comparison.
                VmmOutcome::Fallback | VmmOutcome::Aborted => {}
            }
        }
        let igp = &|nh: u32| self.igp_metric_to(nh);
        let dctx = DecisionCtx {
            igp_metric: igp,
            default_local_pref: self.cfg.default_local_pref,
        };
        crate::rib::native_better(candidate, best, &dctx)
    }

    /// Can the incremental engine trust pairwise comparisons against the
    /// committed best? The native RFC 4271 comparison is a strict total
    /// order on distinct sources *as long as the per-entry keys are
    /// stable between touches* — an attached IGP can re-cost nexthops
    /// (the metric tier) mid-run, and a ③ `BGP_DECISION` extension may
    /// fold over the candidate list in an order-dependent way. In either
    /// case every touched prefix falls back to a full per-prefix scan,
    /// the pre-incremental behaviour.
    fn delta_safe(&self) -> bool {
        self.cfg.igp.is_none() && !self.vmm.has_extensions(InsertionPoint::BgpDecision)
    }

    /// Is `entry` a usable candidate? iBGP-learned routes need a
    /// reachable nexthop in the IGP; local routes always qualify.
    fn eligible(&self, entry: &RibEntry) -> bool {
        entry.source.local
            || !(self.cfg.igp.is_some()
                && entry.source.peer_type == PeerType::Ibgp
                && self.igp_metric_to(entry.attrs.next_hop) == u32::MAX)
    }

    /// Decide `prefix` after its candidate at `slot` was just announced
    /// or replaced. The fast path — the common case under churn — is a
    /// single pairwise comparison against the committed best; anything
    /// that invalidates it (the prefix is already dirty, the announce
    /// replaced the best's own route, there is no committed best yet, or
    /// `delta_safe` is off) falls back to a full scan.
    fn decide_after_announce(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        prefix: Ipv4Prefix,
        slot: usize,
        pending_per_peer: &mut [OutboundBatches],
    ) {
        // An inline decision supersedes a pending deferred one: a
        // withdraw + re-announce of the same prefix within one batch is
        // decided exactly once, here.
        let was_dirty = self.dirty.unmark(&prefix);
        if was_dirty || !self.delta_safe() {
            self.run_decision(ctx, prefix, pending_per_peer);
            return;
        }
        let Some((best_slot, incumbent)) = self.rib.best_pair_cloned(&prefix) else {
            self.run_decision(ctx, prefix, pending_per_peer);
            return;
        };
        if best_slot == slot {
            // The best route's own source re-announced: the replacement
            // may be worse, so the whole list competes again.
            self.run_decision(ctx, prefix, pending_per_peer);
            return;
        }
        let cand = self.rib.candidate(&prefix, slot).expect("candidate just inserted").clone();
        let wins = {
            let igp = &|nh: u32| self.igp_metric_to(nh);
            let dctx = DecisionCtx {
                igp_metric: igp,
                default_local_pref: self.cfg.default_local_pref,
            };
            crate::rib::native_better(&cand, &incumbent, &dctx)
        };
        if wins {
            self.commit(ctx, prefix, Some((slot, cand)), pending_per_peer);
        } else if let Some(t) = self.vmm.tracer_mut() {
            // The candidate lost to the incumbent: no state change, but
            // the decision still happened for trace purposes.
            t.record(
                TraceKind::Decision,
                NO_POINT,
                NO_EXT,
                pack_prefix(prefix.addr(), prefix.len()),
                0,
            );
        }
    }

    /// Remove the candidate at `slot` (inbound-filter reject/abort) and
    /// re-decide if the removal could have mattered.
    fn remove_candidate_and_decide(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        prefix: Ipv4Prefix,
        slot: usize,
        pending_per_peer: &mut [OutboundBatches],
    ) {
        if self.rib.remove(&prefix, slot).is_none() {
            return;
        }
        self.rib_counters.withdrawals += 1;
        let best_slot = self.rib.best_slot(&prefix);
        if self.dirty.contains(&prefix)
            || !self.delta_safe()
            || best_slot.is_none()
            || best_slot == Some(slot)
        {
            // Decide inline (not deferred): this runs inside the route's
            // trace scope, where the pre-incremental engine recorded its
            // decision too.
            self.dirty.unmark(&prefix);
            self.run_decision(ctx, prefix, pending_per_peer);
        } else if let Some(t) = self.vmm.tracer_mut() {
            t.record(
                TraceKind::Decision,
                NO_POINT,
                NO_EXT,
                pack_prefix(prefix.addr(), prefix.len()),
                0,
            );
        }
    }

    /// Re-decide every prefix the current batch touched, in prefix
    /// order. Under `full_recompute` (the ablation baseline) every net
    /// in the store is re-decided instead.
    fn drain_dirty(&mut self, ctx: &mut NodeCtx<'_>, pending_per_peer: &mut [OutboundBatches]) {
        if self.cfg.full_recompute {
            for prefix in self.rib.net_prefixes() {
                self.dirty.mark(prefix);
            }
        }
        if self.dirty.is_empty() {
            return;
        }
        let batch = self.dirty.drain_ordered();
        self.rib_counters.delta_batch_size.observe(batch.len() as u64);
        for prefix in batch {
            self.run_decision(ctx, prefix, pending_per_peer);
        }
    }

    /// Recompute the best route for `prefix` from the full candidate
    /// list and commit the outcome.
    fn run_decision(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        prefix: Ipv4Prefix,
        pending_per_peer: &mut [OutboundBatches],
    ) {
        // Scan candidates in slot order: the local route first, then each
        // peer — the same order the pre-incremental engine used.
        let mut best: Option<(usize, RibEntry)> = None;
        for (slot, entry) in self.rib.candidates_cloned(&prefix) {
            if !self.eligible(&entry) {
                continue;
            }
            best = match best {
                None => Some((slot, entry)),
                Some((bs, cur)) => {
                    if self.better(&entry, &cur) {
                        Some((slot, entry))
                    } else {
                        Some((bs, cur))
                    }
                }
            };
        }
        self.commit(ctx, prefix, best, pending_per_peer);
    }

    /// Compare a decision outcome against the committed best; when it
    /// changed, store the new best and queue the resulting
    /// advertisements/withdrawals.
    fn commit(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        prefix: Ipv4Prefix,
        winner: Option<(usize, RibEntry)>,
        pending_per_peer: &mut [OutboundBatches],
    ) {
        let changed = match (self.rib.best(&prefix), &winner) {
            (None, None) => false,
            (Some(o), Some((_, n))) => !Rc::ptr_eq(&o.attrs, &n.attrs) || o.source != n.source,
            _ => true,
        };
        if let Some(t) = self.vmm.tracer_mut() {
            t.record(
                TraceKind::Decision,
                NO_POINT,
                NO_EXT,
                pack_prefix(prefix.addr(), prefix.len()),
                u64::from(changed),
            );
        }
        if !changed {
            return;
        }
        self.stats.last_route_change = Some(ctx.now());
        self.rib_counters.best_changes += 1;
        match winner {
            Some((slot, entry)) => {
                self.rib.commit_best(prefix, Some((slot, entry.clone())));
                for (q, pending) in pending_per_peer.iter_mut().enumerate() {
                    self.export_one(q, prefix, &entry, pending);
                }
            }
            None => {
                self.rib.commit_best(prefix, None);
                for (q, pending) in pending_per_peer.iter_mut().enumerate() {
                    if self.sessions[q].is_established() && self.adj_out[q].withdraw(&prefix) {
                        pending.withdrawals.push(prefix);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Outbound pipeline
    // -----------------------------------------------------------------

    /// Export `entry` to peer `q` if policy allows, queueing into `out`.
    fn export_one(
        &mut self,
        q: usize,
        prefix: Ipv4Prefix,
        entry: &RibEntry,
        out: &mut OutboundBatches,
    ) {
        if !self.sessions[q].is_established() {
            return;
        }
        // Split horizon: never advertise back to the route's source — and
        // implicitly withdraw anything previously advertised there (the
        // peer must not keep a stale copy once it became our best source).
        if !entry.source.local && entry.source.peer_addr == self.sessions[q].cfg.peer_addr {
            if self.adj_out[q].withdraw(&prefix) {
                out.withdrawals.push(prefix);
            }
            return;
        }

        let dest_type = self.sessions[q].peer_type;
        let src = &entry.source;

        // ④ BGP_OUTBOUND_FILTER: policy. Value forces, Fallback → native.
        let allowed = if self.vmm.has_extensions(InsertionPoint::BgpOutboundFilter) {
            let peer_info = self.peer_info_for(q);
            let nexthop = self.nexthop_info(&entry.attrs);
            let src_bytes = self.source_info_bytes(src);
            let t0 = self.hook_start();
            let hook_args = [src_bytes.as_slice()];
            let mut hctx = FirXbgpCtx {
                peer: peer_info,
                args: &hook_args,
                attrs: AttrAccess::Read(&entry.attrs),
                prefix: Some(prefix),
                nexthop: Some(nexthop),
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let outcome = self.vmm.run(InsertionPoint::BgpOutboundFilter, &mut hctx);
            self.hook_end(InsertionPoint::BgpOutboundFilter, t0);
            match outcome {
                VmmOutcome::Value(v) if v == api::FILTER_REJECT => {
                    self.stats.xbgp_rejected += 1;
                    false
                }
                VmmOutcome::Value(_) => {
                    self.stats.xbgp_accepted += 1;
                    true
                }
                VmmOutcome::Fallback => self.native_export_policy(q, entry),
                // Fail closed: a broken `abort` filter exports nothing.
                VmmOutcome::Aborted => {
                    self.stats.xbgp_rejected += 1;
                    false
                }
            }
        } else {
            self.native_export_policy(q, entry)
        };
        if !allowed {
            // If previously advertised, it must now be withdrawn.
            if self.adj_out[q].withdraw(&prefix) {
                out.withdrawals.push(prefix);
            }
            return;
        }

        // Mechanism: transform attributes for the session type.
        let mut a = (*entry.attrs).clone();
        match dest_type {
            PeerType::Ebgp => {
                a.as_path = a.as_path.prepend(self.cfg.asn);
                a.next_hop = self.cfg.router_id;
                a.local_pref = None;
                a.med = None;
                a.originator_id = None;
                a.cluster_list.clear();
            }
            PeerType::Ibgp => {
                if a.local_pref.is_none() {
                    a.local_pref = Some(self.cfg.default_local_pref);
                }
                // Native reflection bookkeeping (RFC 4456 §7): only when
                // native RR owns the feature.
                if self.cfg.native_rr && !src.local && src.peer_type == PeerType::Ibgp {
                    if a.originator_id.is_none() {
                        a.originator_id = Some(src.peer_addr);
                    }
                    a.cluster_list.insert(0, self.cluster_id());
                }
            }
        }
        let transformed = self.intern.intern(a);
        if self.adj_out[q].advertise(prefix, Rc::clone(&transformed)) {
            if let Some(t) = self.vmm.tracer_mut() {
                t.record(
                    TraceKind::Propagate,
                    NO_POINT,
                    NO_EXT,
                    pack_prefix(prefix.addr(), prefix.len()),
                    q as u64,
                );
            }
            out.push(prefix, transformed, *src);
        }
    }

    /// Native (no-extension) export policy decision.
    fn native_export_policy(&self, q: usize, entry: &RibEntry) -> bool {
        let dest_type = self.sessions[q].peer_type;
        let src = &entry.source;
        match dest_type {
            PeerType::Ebgp => true,
            PeerType::Ibgp => {
                if src.local || src.peer_type == PeerType::Ebgp {
                    true
                } else {
                    // iBGP → iBGP needs reflection.
                    self.cfg.native_rr && (src.rr_client || self.sessions[q].cfg.rr_client)
                }
            }
        }
    }

    /// Send the queued batches for peer `q`.
    fn flush_outbound(&mut self, ctx: &mut NodeCtx<'_>, q: usize, pending: OutboundBatches) {
        if !self.sessions[q].is_established() {
            return;
        }
        // Withdrawals: batches of up to ~800 prefixes.
        for chunk in pending.withdrawals.chunks(800) {
            let upd = UpdateMsg::withdraw(chunk.to_vec());
            self.stats.updates_tx += 1;
            self.stats.withdrawals_tx += chunk.len() as u64;
            self.send_msg(ctx, q, &Message::Update(upd));
        }
        let encode_ext = self.vmm.has_extensions(InsertionPoint::BgpEncodeMessage);
        for batch in pending.batches {
            let wire_attrs = batch.attrs.to_wire();
            // ⑤ BGP_ENCODE_MESSAGE: extensions append raw attribute TLVs.
            let mut extra = Vec::new();
            if encode_ext {
                let peer_info = self.peer_info_for(q);
                let src_bytes = self.source_info_bytes(&batch.source);
                let t0 = self.hook_start();
                let hook_args = [src_bytes.as_slice()];
                let mut hctx = FirXbgpCtx {
                    peer: peer_info,
                    args: &hook_args,
                    attrs: AttrAccess::Read(&batch.attrs),
                    prefix: batch.prefixes.first().copied(),
                    nexthop: None,
                    xtra: &self.cfg.xtra,
                    out_buf: Some(&mut extra),
                    rov: self.xbgp_rov.as_ref(),
                    rib_adds: &mut self.ext_rib_adds,
                    logs: &mut self.logs,
                };
                let _ = self.vmm.run(InsertionPoint::BgpEncodeMessage, &mut hctx);
                self.hook_end(InsertionPoint::BgpEncodeMessage, t0);
            }
            let width = self.sessions[q].asn_width();
            // NLRI chunks sized to stay under the 4096-byte frame.
            for chunk in batch.prefixes.chunks(700) {
                let upd = UpdateMsg::announce(wire_attrs.clone(), chunk.to_vec());
                match upd.encode_with_extra(&extra, width) {
                    Ok(frame) => {
                        self.stats.updates_tx += 1;
                        self.stats.prefixes_tx += chunk.len() as u64;
                        ctx.send(self.sessions[q].cfg.link, &frame);
                    }
                    Err(e) => self.logs.push(format!("encode to peer {q} failed: {e}")),
                }
            }
        }
    }

    fn flush_all(&mut self, ctx: &mut NodeCtx<'_>, pending: Vec<OutboundBatches>) {
        for (q, batches) in pending.into_iter().enumerate() {
            if !batches.is_empty() {
                self.flush_outbound(ctx, q, batches);
            }
        }
    }

    // -----------------------------------------------------------------
    // Message dispatch
    // -----------------------------------------------------------------

    fn handle_message(&mut self, ctx: &mut NodeCtx<'_>, idx: usize, frame: Vec<u8>) {
        self.sessions[idx].last_recv = ctx.now();
        let width = self.sessions[idx].asn_width();
        let decoded = match xbgp_wire::msg::deframe(&frame) {
            Ok((ty, body)) => Message::decode_body(ty, body, width).map(|m| (m, body.to_vec())),
            Err(e) => Err(e),
        };
        let (msg, body) = match decoded {
            Ok(v) => v,
            Err(e) => {
                self.logs.push(format!("bad message from peer {idx}: {e}"));
                self.send_msg(ctx, idx, &Message::Notification(NotificationMsg::from_error(&e)));
                self.teardown(ctx, idx);
                return;
            }
        };
        let state = self.sessions[idx].state;
        match (state, msg) {
            (FsmState::OpenSent, Message::Open(open)) => {
                match self.sessions[idx].handle_open(&open, self.cfg.hold_time_secs) {
                    Ok(()) => {
                        self.stats.fsm_transitions[FSM_TO_OPEN_CONFIRM] += 1;
                        self.send_msg(ctx, idx, &Message::Keepalive)
                    }
                    Err(reason) => {
                        self.logs.push(format!("OPEN rejected from peer {idx}: {reason}"));
                        self.send_msg(ctx, idx, &Message::Notification(NotificationMsg::new(2, 2)));
                        self.teardown(ctx, idx);
                    }
                }
            }
            (FsmState::OpenConfirm, Message::Keepalive) => self.establish(ctx, idx),
            (FsmState::Established, Message::Update(upd)) => {
                self.handle_update(ctx, idx, upd, body)
            }
            (FsmState::Established, Message::Keepalive) => {}
            (_, Message::Notification(n)) => {
                self.logs.push(format!("NOTIFICATION {}/{} from peer {idx}", n.code, n.subcode));
                self.teardown(ctx, idx);
            }
            (state, msg) => {
                self.logs.push(format!(
                    "unexpected {:?} in state {state:?} from peer {idx}",
                    msg.msg_type()
                ));
                self.send_msg(ctx, idx, &Message::Notification(NotificationMsg::new(5, 0)));
                self.teardown(ctx, idx);
            }
        }
    }
}

/// Outgoing routes grouped by (attribute set, route source) so each group
/// becomes one UPDATE (modulo NLRI chunking).
#[derive(Default)]
struct OutboundBatches {
    batches: Vec<Batch>,
    index: HashMap<(usize, u32), usize>,
    withdrawals: Vec<Ipv4Prefix>,
}

struct Batch {
    attrs: Rc<FirAttrs>,
    source: RouteSource,
    prefixes: Vec<Ipv4Prefix>,
}

impl OutboundBatches {
    fn push(&mut self, prefix: Ipv4Prefix, attrs: Rc<FirAttrs>, source: RouteSource) {
        let key = (Rc::as_ptr(&attrs) as usize, source.peer_addr);
        match self.index.get(&key) {
            Some(&i) => self.batches[i].prefixes.push(prefix),
            None => {
                self.index.insert(key, self.batches.len());
                self.batches.push(Batch { attrs, source, prefixes: vec![prefix] });
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.batches.is_empty() && self.withdrawals.is_empty()
    }
}

impl Node for FirDaemon {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Originate local routes.
        let originate = self.cfg.originate.clone();
        for (prefix, nexthop) in originate {
            let attrs = self.intern.intern(FirAttrs { next_hop: nexthop, ..FirAttrs::default() });
            let entry = RibEntry {
                attrs,
                source: RouteSource::local(self.cfg.router_id, self.cfg.asn),
                rov: None,
            };
            self.rib.insert(prefix, LOCAL_SLOT, entry.clone());
            // Committed directly: no sessions are up yet, so there is
            // nothing to export and no competition to decide against.
            self.rib.commit_best(prefix, Some((LOCAL_SLOT, entry)));
        }
        // Open every configured session.
        for idx in 0..self.sessions.len() {
            self.send_open(ctx, idx);
        }
    }

    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
        let Some(&idx) = self.link_to_peer.get(&link) else {
            return; // Data on an unconfigured link.
        };
        if self.sessions[idx].state == FsmState::Idle {
            return;
        }
        self.sessions[idx].reader.push(data);
        loop {
            // The reader is polled through a temporary to satisfy borrow
            // rules (handle_message needs &mut self).
            let next = self.sessions[idx].reader.next_frame();
            match next {
                Ok(Some(frame)) => self.handle_message(ctx, idx, frame),
                Ok(None) => break,
                Err(e) => {
                    self.logs.push(format!("framing error from peer {idx}: {e}"));
                    self.send_msg(
                        ctx,
                        idx,
                        &Message::Notification(NotificationMsg::from_error(&e)),
                    );
                    self.teardown(ctx, idx);
                    break;
                }
            }
            if self.sessions[idx].state == FsmState::Idle {
                break;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let idx = (token / 2) as usize;
        let kind = token % 2;
        if idx >= self.sessions.len() || !self.sessions[idx].is_established() {
            return;
        }
        let hold = self.sessions[idx].hold_time_ns;
        match kind {
            TIMER_KEEPALIVE => {
                self.send_msg(ctx, idx, &Message::Keepalive);
                ctx.set_timer(hold / 3, token);
            }
            _ => {
                if ctx.now().saturating_sub(self.sessions[idx].last_recv) >= hold {
                    self.logs.push(format!("hold timer expired for peer {idx}"));
                    self.send_msg(ctx, idx, &Message::Notification(NotificationMsg::new(4, 0)));
                    self.teardown(ctx, idx);
                } else {
                    ctx.set_timer(hold / 3, token);
                }
            }
        }
    }

    fn on_link_event(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
        let Some(&idx) = self.link_to_peer.get(&link) else {
            return;
        };
        if up {
            if self.sessions[idx].state == FsmState::Idle {
                self.send_open(ctx, idx);
            }
        } else {
            self.teardown(ctx, idx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl xbgp_driver::Daemon for FirDaemon {
    fn kind(&self) -> xbgp_driver::Dut {
        xbgp_driver::Dut::Fir
    }

    fn loc_rib_len(&self) -> usize {
        FirDaemon::loc_rib_len(self)
    }

    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.best_route(prefix).is_some()
    }

    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        FirDaemon::loc_rib_dump(self)
    }

    fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        FirDaemon::oracle_loc_rib_dump(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        FirDaemon::metrics_snapshot(self)
    }

    fn take_trace(&mut self) -> Option<TraceDump> {
        FirDaemon::take_trace(self)
    }

    fn session_established(&self, addr: u32) -> bool {
        FirDaemon::session_established(self, addr)
    }

    fn counters(&self) -> xbgp_driver::DaemonCounters {
        let st = &self.stats;
        xbgp_driver::DaemonCounters {
            updates_rx: st.updates_rx,
            prefixes_rx: st.prefixes_rx,
            withdrawals_rx: st.withdrawals_rx,
            updates_tx: st.updates_tx,
            prefixes_tx: st.prefixes_tx,
            withdrawals_tx: st.withdrawals_tx,
            sessions_established: st.sessions_established,
            first_update_rx: st.first_update_rx,
            last_route_change: st.last_route_change,
        }
    }
}

// Unit tests for the daemon live in `tests/` (integration level) and in
// the sibling modules; FSM-level tests that need a simulator are in
// `crates/fir/tests/daemon_e2e.rs`.
