//! The FIR route engine: interned host-order attributes, slot-indexed
//! RIB store and delta decision process. Sessions, timers, stats, hook
//! timing and UPDATE framing are the shared host's
//! ([`xbgp_driver::host`]); the Adj-RIB-Out and outbound batching are its
//! update-groups ([`xbgp_driver::export`]); each of the five xBGP
//! insertion points is one call into it ([`xbgp_driver::xbgp_glue`]).

use crate::attrs::{AttrInternTable, FirAttrs};
use crate::rib::{peer_slot, DecisionCtx, NetEntry, RibEntry, RibStore, RouteSource, LOCAL_SLOT};
use netsim::NodeCtx;
use rpki::{RoaTable, RoaTrie, RovState};
use std::rc::Rc;
use xbgp_core::api::{InsertionPoint, NextHopInfo, PeerInfo, PeerType};
use xbgp_driver::export::{Dest, Exporter, UpdateGroups};
use xbgp_driver::host::{BgpDaemon, Host, RouteEngine};
use xbgp_driver::xbgp_glue::Rejected;
use xbgp_obs::trace::pack_prefix;
use xbgp_obs::Snapshot;
use xbgp_rib::{push_rib_gauges, DirtySet, NodeId, RibCounters};
use xbgp_wire::attr::encode_attrs;
use xbgp_wire::{Ipv4Prefix, PathAttr, UpdateMsg, WireError};

/// The FIR BGP daemon. See the crate documentation.
pub type FirDaemon = BgpDaemon<FirEngine>;

/// FIR's routes: everything [`FirDaemon`] owns beyond the shared host.
pub struct FirEngine {
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
    /// Every neighbor's export state.
    out: UpdateGroups<Rc<FirAttrs>>,
    /// FIR's native origin validation: the trie (§3.4).
    rov_trie: Option<RoaTrie>,
}

impl FirEngine {
    /// Best route for a prefix, if any.
    pub fn best_route(&self, prefix: &Ipv4Prefix) -> Option<&RibEntry> {
        self.rib.best(prefix)
    }

    /// All Loc-RIB prefixes, in prefix order (trie pre-order *is*
    /// `(addr, len)` order, so no sort is needed).
    pub fn loc_rib_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.rib.iter_best().map(|(p, _)| p).collect()
    }

    /// Distinct interned attribute sets (exposes the attrhash behaviour).
    pub fn interned_attr_sets(&self) -> usize {
        self.intern.len()
    }

    fn local_entry(&mut self, host: &Host, nexthop: u32) -> RibEntry {
        RibEntry {
            attrs: self.intern.intern(FirAttrs { next_hop: nexthop, ..FirAttrs::default() }),
            source: RouteSource::local(host.spec.router_id, host.spec.asn),
            rov: None,
        }
    }

    // -----------------------------------------------------------------
    // Inbound pipeline
    // -----------------------------------------------------------------

    fn install_routes(
        &mut self,
        host: &mut Host,
        idx: usize,
        mut attrs: FirAttrs,
        nlri: &[Ipv4Prefix],
        raw_body: &[u8],
    ) {
        host.receive_message(idx, raw_body, &mut attrs); // ①
        let peer_type = host.neighbors[idx].peer_type();

        // Sender-side loop detection: drop silently (RFC 4271 §9.1.2,
        // RFC 4456 §8).
        if peer_type == PeerType::Ebgp && attrs.as_path.contains(host.spec.asn) {
            return;
        }
        if peer_type == PeerType::Ibgp
            && host.spec.native_rr
            && (attrs.originator_id == Some(host.spec.router_id)
                || attrs.cluster_list.contains(&host.cluster_id()))
        {
            return;
        }

        let n = &host.neighbors[idx].decl;
        let source = RouteSource {
            peer_addr: n.addr,
            peer_asn: n.asn,
            peer_type,
            rr_client: n.rr_client,
            local: false,
        };
        let shared = self.intern.intern(attrs);
        let filter = host.inbound_views(idx, &*shared);
        let slot = peer_slot(idx);

        for prefix in nlri {
            host.stats.counters.prefixes_rx += 1;
            // One sampling decision per route; a sampled route records
            // its whole decode → decision → propagate path.
            if let Some(t) = host.hooks.vmm.tracer_mut() {
                t.begin_route(pack_prefix(prefix.addr(), prefix.len()));
            }
            self.install_one(host, slot, *prefix, &shared, source, filter);
            // Every `begin_route` is matched here, whichever way the
            // route left `install_one`: a leaked scope would let the next
            // route's events inherit this route's attribution.
            if let Some(t) = host.hooks.vmm.tracer_mut() {
                t.end_route();
            }
        }

        // Routes installed by extensions through `rib_add_route`.
        let adds: Vec<(Ipv4Prefix, u32)> = host.ext_rib_adds.drain(..).collect();
        for (prefix, nexthop) in adds {
            let entry = self.local_entry(host, nexthop);
            let (net, _) = self.rib.insert(prefix, LOCAL_SLOT, entry);
            self.rib_counters.updates_applied += 1;
            self.decide_after_announce(host, prefix, net, LOCAL_SLOT);
        }
    }

    /// One NLRI into `slot` through ② `BGP_INBOUND_FILTER` (when `filter`
    /// carries the peer and nexthop views, i.e. an extension is attached),
    /// native origin validation, the RIB and the decision process.
    fn install_one(
        &mut self,
        host: &mut Host,
        slot: usize,
        prefix: Ipv4Prefix,
        shared: &Rc<FirAttrs>,
        source: RouteSource,
        filter: Option<(PeerInfo, NextHopInfo)>,
    ) {
        let mut entry_attrs = Rc::clone(shared);
        if let Some(views) = filter {
            match host.inbound_filter(views, prefix, &**shared) {
                Ok(Some(modified)) => entry_attrs = self.intern.intern(modified),
                Ok(None) => {}
                Err(Rejected) => return self.remove_candidate_and_decide(host, prefix, slot),
            }
        }

        // Native import policy: origin validation tags (never drops).
        let rov = self.rov_trie.as_ref().map(|trie| {
            let state = match entry_attrs.as_path.origin_asn() {
                Some(origin) => trie.validate(prefix, origin),
                None => RovState::NotFound,
            };
            host.stats.count_rov(state);
            state
        });

        let (net, _) = self.rib.insert(prefix, slot, RibEntry { attrs: entry_attrs, source, rov });
        self.rib_counters.updates_applied += 1;
        self.decide_after_announce(host, prefix, net, slot);
    }

    // -----------------------------------------------------------------
    // Decision process
    // -----------------------------------------------------------------

    fn native_better(host: &Host, candidate: &RibEntry, best: &RibEntry) -> bool {
        let dctx = DecisionCtx {
            igp_metric: &|nh: u32| host.igp_metric(nh),
            default_local_pref: host.spec.default_local_pref,
        };
        crate::rib::native_better(candidate, best, &dctx)
    }

    /// Is `candidate` preferred over `best`? Consults the ③ BGP_DECISION
    /// insertion point before the native RFC 4271 comparison.
    fn better(host: &mut Host, candidate: &RibEntry, best: &RibEntry) -> bool {
        host.decision(&*candidate.attrs, &candidate.source, || best.attrs.to_wire())
            .unwrap_or_else(|| Self::native_better(host, candidate, best))
    }

    /// Can the incremental engine trust pairwise comparisons against the
    /// committed best? The native RFC 4271 comparison is a strict total
    /// order on distinct sources *as long as the per-entry keys are
    /// stable between touches* — an attached IGP can re-cost nexthops
    /// (the metric tier) mid-run, and a ③ `BGP_DECISION` extension may
    /// fold over the candidate list in an order-dependent way. In either
    /// case every touched prefix falls back to a full per-prefix scan,
    /// the pre-incremental behaviour.
    fn delta_safe(host: &Host) -> bool {
        host.spec.igp.is_none() && !host.hooks.vmm.has_extensions(InsertionPoint::BgpDecision)
    }

    /// Is `entry` a usable candidate? iBGP-learned routes need a
    /// reachable nexthop in the IGP; local routes always qualify.
    fn eligible(host: &Host, entry: &RibEntry) -> bool {
        entry.source.local
            || !(host.spec.igp.is_some()
                && entry.source.peer_type == PeerType::Ibgp
                && host.igp_metric(entry.attrs.next_hop) == u32::MAX)
    }

    /// The best eligible candidate of `net` — its index in
    /// [`NetEntry::candidates`] — scanned in slot order: the local route
    /// first, then each peer.
    fn scan_best(host: &mut Host, net: &NetEntry) -> Option<usize> {
        let cands = net.candidates();
        let mut best: Option<usize> = None;
        for (i, (_, cand)) in cands.iter().enumerate() {
            if !Self::eligible(host, cand) {
                continue;
            }
            if best.is_none_or(|cur| Self::better(host, cand, &cands[cur].1)) {
                best = Some(i);
            }
        }
        best
    }

    /// Decide `prefix`, whose net is at `net`, after its candidate at
    /// `slot` was just announced or replaced. The fast path — the common
    /// case under churn — is a single pairwise comparison against the
    /// committed best; anything that invalidates it (the prefix is
    /// already dirty, the announce replaced the best's own route, there is
    /// no committed best yet, or `delta_safe` is off) falls back to a full
    /// scan.
    fn decide_after_announce(
        &mut self,
        host: &mut Host,
        prefix: Ipv4Prefix,
        net: NodeId,
        slot: usize,
    ) {
        // An inline decision supersedes a pending deferred one: a
        // withdraw + re-announce of the same prefix within one batch is
        // decided exactly once, here.
        let was_dirty = self.dirty.unmark(&prefix);
        let entry = self.rib.net(net);
        let incumbent = match entry.best() {
            _ if was_dirty || !Self::delta_safe(host) => None,
            // The best route's own source re-announced: the replacement
            // may be worse, so the whole list competes again.
            pair => pair.filter(|(best_slot, _)| *best_slot != slot),
        };
        let Some((_, incumbent)) = incumbent else {
            return self.run_decision(host, prefix, net);
        };
        let cands = entry.candidates();
        let at = cands.iter().position(|(s, _)| *s == slot).expect("candidate just inserted");
        if Self::native_better(host, &cands[at].1, incumbent) {
            self.commit(host, prefix, net, Some(at));
        } else {
            // The candidate lost to the incumbent: no state change, but
            // the decision still happened for trace purposes.
            host.hooks.trace_decision(prefix, false);
        }
    }

    /// Remove the candidate at `slot` (inbound-filter reject/abort) and
    /// re-decide if the removal could have mattered.
    fn remove_candidate_and_decide(&mut self, host: &mut Host, prefix: Ipv4Prefix, slot: usize) {
        let Some((_, best_slot)) = self.rib.remove(&prefix, slot) else {
            return;
        };
        self.rib_counters.withdrawals += 1;
        if self.dirty.contains(&prefix)
            || !Self::delta_safe(host)
            || best_slot.is_none()
            || best_slot == Some(slot)
        {
            // Decide inline (not deferred): this runs inside the route's
            // trace scope, where the pre-incremental engine recorded its
            // decision too.
            self.dirty.unmark(&prefix);
            self.decide(host, prefix);
        } else {
            host.hooks.trace_decision(prefix, false);
        }
    }

    /// Re-decide every prefix the current batch touched, in prefix
    /// order. Under `full_recompute` (the ablation baseline) every net
    /// in the store is re-decided instead.
    fn drain_dirty(&mut self, host: &mut Host) {
        if host.spec.full_recompute {
            for (prefix, _) in self.rib.iter_nets() {
                self.dirty.mark(prefix);
            }
        }
        if self.dirty.is_empty() {
            return;
        }
        let batch = self.dirty.drain_ordered();
        self.rib_counters.delta_batch_size.observe(batch.len() as u64);
        for prefix in batch {
            self.decide(host, prefix);
        }
    }

    /// Re-decide a prefix known by name only. One whose net is gone (its
    /// last candidate was withdrawn and it had no best) has nothing to
    /// change.
    fn decide(&mut self, host: &mut Host, prefix: Ipv4Prefix) {
        match self.rib.find(&prefix) {
            Some(net) => self.run_decision(host, prefix, net),
            None => host.hooks.trace_decision(prefix, false),
        }
    }

    /// Recompute the best route for `prefix` from the full candidate
    /// list and commit the outcome.
    fn run_decision(&mut self, host: &mut Host, prefix: Ipv4Prefix, net: NodeId) {
        let best = Self::scan_best(host, self.rib.net(net));
        self.commit(host, prefix, net, best);
    }

    /// Compare a decision outcome — the candidate at index `winner`, or
    /// no route — against the committed best; when it changed, store the
    /// new best and queue the resulting advertisements/withdrawals.
    fn commit(&mut self, host: &mut Host, prefix: Ipv4Prefix, net: NodeId, winner: Option<usize>) {
        let entry = self.rib.net(net);
        let new = winner.map(|i| &entry.candidates()[i].1);
        let changed = match (entry.best(), new) {
            (None, None) => false,
            (Some((_, o)), Some(n)) => !Rc::ptr_eq(&o.attrs, &n.attrs) || o.source != n.source,
            _ => true,
        };
        host.hooks.trace_decision(prefix, changed);
        if !changed {
            return;
        }
        host.stats.counters.last_route_change = Some(host.now);
        self.rib_counters.best_changes += 1;
        let best = self.rib.commit_best(prefix, net, winner).map(|e| (&e.attrs, &e.source));
        let mut x = FirExport { intern: &mut self.intern };
        self.out.route_changed(host, &mut x, prefix, best);
    }
}

// ---------------------------------------------------------------------
// Outbound pipeline
// ---------------------------------------------------------------------

/// FIR's half of export: attributes are rewritten on a copy and
/// interned again.
struct FirExport<'a> {
    intern: &'a mut AttrInternTable,
}

impl Exporter for FirExport<'_> {
    type Attrs = Rc<FirAttrs>;

    /// Mechanism: transform attributes for the session type.
    fn transform(
        &mut self,
        host: &Host,
        dest: &Dest,
        attrs: &Rc<FirAttrs>,
        src: &RouteSource,
    ) -> Rc<FirAttrs> {
        let mut a = (**attrs).clone();
        if dest.ibgp {
            if a.local_pref.is_none() {
                a.local_pref = Some(host.spec.default_local_pref);
            }
            // Native reflection bookkeeping (RFC 4456 §7): only when
            // native RR owns the feature.
            if host.spec.native_rr && !src.local && src.peer_type == PeerType::Ibgp {
                if a.originator_id.is_none() {
                    a.originator_id = Some(src.peer_addr);
                }
                a.cluster_list.insert(0, host.cluster_id());
            }
        } else {
            a.as_path = a.as_path.prepend(host.spec.asn);
            a.next_hop = host.spec.router_id;
            a.local_pref = None;
            a.med = None;
            a.originator_id = None;
            a.cluster_list.clear();
        }
        self.intern.intern(a)
    }

    fn to_wire(attrs: &Rc<FirAttrs>) -> Vec<PathAttr> {
        attrs.to_wire()
    }
}

impl RouteEngine for FirEngine {
    const KIND: xbgp_driver::Dut = xbgp_driver::Dut::Fir;

    fn new(host: &Host) -> FirEngine {
        let rov_trie = host.spec.native_rov.as_ref().map(|roas| {
            let mut t = RoaTrie::new();
            for r in roas {
                t.insert(*r);
            }
            t
        });
        FirEngine {
            intern: AttrInternTable::new(),
            rib: RibStore::new(host.neighbors.len() + 1),
            dirty: DirtySet::new(),
            rib_counters: RibCounters::new(),
            out: UpdateGroups::new(host),
            rov_trie,
        }
    }

    fn originate(&mut self, host: &mut Host) {
        for (prefix, nexthop) in host.spec.originate.clone() {
            let entry = self.local_entry(host, nexthop);
            let (net, _) = self.rib.insert(prefix, LOCAL_SLOT, entry);
            // Committed directly: no sessions are up yet, so there is
            // nothing to export and no competition to decide against
            // (the local slot sorts first).
            self.rib.commit_best(prefix, net, Some(0));
        }
    }

    /// Initial route dump: the peer's update-group advertises it the
    /// whole Loc-RIB (trie iteration is already prefix-ordered).
    fn session_up(&mut self, host: &mut Host, idx: usize) {
        let rib = &self.rib;
        let mut x = FirExport { intern: &mut self.intern };
        self.out.join(host, &mut x, idx, |_| {
            rib.iter_best().map(|(p, e)| (p, Rc::clone(&e.attrs), e.source)).collect()
        });
    }

    fn session_down(&mut self, host: &mut Host, idx: usize) {
        self.out.leave(idx);
        let slot = peer_slot(idx);
        self.rib_counters.withdrawals += self.rib.slot_len(slot) as u64;
        // Without the delta guarantees only best-affected nets need a
        // re-decision; with an IGP or a decision extension every net the
        // peer contributed to must be rescanned (see `delta_safe`).
        for prefix in self.rib.flush_slot(slot, !Self::delta_safe(host)) {
            self.dirty.mark(prefix);
        }
        self.drain_dirty(host);
    }

    fn update(
        &mut self,
        host: &mut Host,
        idx: usize,
        upd: UpdateMsg,
        raw_body: &[u8],
    ) -> Result<(), WireError> {
        // Withdrawals first (RFC 4271 §3.1 ordering within an UPDATE).
        // Each removal only *marks* its prefix; the batched re-decision
        // happens once, in `drain_dirty`, before the flush. A removal
        // that provably cannot change the best route (the committed best
        // came from another source, and the comparison order is stable —
        // see `delta_safe`) is not marked at all.
        let slot = peer_slot(idx);
        let delta_safe = Self::delta_safe(host);
        for prefix in &upd.withdrawn {
            if let Some((_, best_slot)) = self.rib.remove(prefix, slot) {
                self.rib_counters.withdrawals += 1;
                if !delta_safe || best_slot.is_none() || best_slot == Some(slot) {
                    self.dirty.mark(*prefix);
                }
            }
        }
        let parsed = if upd.nlri.is_empty() {
            Ok(())
        } else {
            FirAttrs::from_wire(&upd.attrs)
                .map(|attrs| self.install_routes(host, idx, attrs, &upd.nlri, raw_body))
        };
        // The deferred withdrawal decisions are committed even when the
        // attributes were malformed and the session is about to go down.
        self.drain_dirty(host);
        parsed
    }

    fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>) {
        self.out.flush::<FirExport>(host, ctx);
    }

    fn loc_rib_len(&self) -> usize {
        self.rib.loc_len()
    }

    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.best_route(prefix).is_some()
    }

    /// `(prefix, wire-encoded best-route attributes)` in prefix order
    /// straight off the trie. The wire form is `Send` and
    /// implementation-neutral, so per-shard dumps can cross threads and
    /// be compared byte-for-byte against a sequential run's dump.
    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.rib
            .iter_best()
            .map(|(p, e)| (p, encode_attrs(&e.attrs.to_wire(), 4)))
            .collect()
    }

    /// Full-recompute oracle: re-derive every net's best route from the
    /// live candidates alone — ignoring the committed best the
    /// incremental engine maintains — in the `loc_rib_dump` format. At
    /// any quiescent point the two must be byte-identical; that invariant
    /// pins the incremental engine's correctness.
    fn oracle_loc_rib_dump(&mut self, host: &mut Host) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        let mut out = Vec::new();
        for (prefix, net) in self.rib.iter_nets() {
            if let Some(i) = Self::scan_best(host, net) {
                let (_, e) = &net.candidates()[i];
                out.push((prefix, encode_attrs(&e.attrs.to_wire(), 4)));
            }
        }
        out
    }

    fn push_gauges(&self, s: &mut Snapshot) {
        self.rib_counters.push(s, self.rib.descents());
        push_rib_gauges(s, self.rib.adj_in_len(), self.rib.loc_len(), self.dirty.len());
        self.out.push_gauges(s);
        s.push_gauge("xbgp_daemon_interned_attr_sets", &[], self.intern.len() as i64);
    }
}
