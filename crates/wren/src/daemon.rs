//! The WREN route engine: wire-order `ea_list` attributes, one routing
//! table of per-net sorted route lists. Sessions, timers, stats, hook
//! timing and UPDATE framing are the shared host's
//! ([`xbgp_driver::host`]); what each channel has been sent and its tx
//! queue are its update-groups ([`xbgp_driver::export`]); each of the
//! five xBGP insertion points is one call into it
//! ([`xbgp_driver::xbgp_glue`]).

use crate::ealist::EaList;
use crate::rtable::{RTable, Rte, SrcId, TableChange};
use netsim::NodeCtx;
use rpki::{RoaHashTable, RoaTable, RovState};
use std::rc::Rc;
use xbgp_core::api::{NextHopInfo, PeerInfo, PeerType};
use xbgp_driver::export::{Dest, Exporter, UpdateGroups};
use xbgp_driver::host::{roa_hash_table, BgpDaemon, Host, RouteEngine, RouteSource};
use xbgp_driver::xbgp_glue::Rejected;
use xbgp_obs::trace::pack_prefix;
use xbgp_obs::Snapshot;
use xbgp_rib::{push_rib_gauges, DirtySet, NodeId, RibCounters};
use xbgp_wire::attr::encode_attrs;
use xbgp_wire::{Ipv4Prefix, PathAttr, UpdateMsg, WireError};

/// The WREN BGP daemon. See the crate documentation.
pub type WrenDaemon = BgpDaemon<WrenEngine>;

/// WREN's routes: everything [`WrenDaemon`] owns beyond the shared host.
pub struct WrenEngine {
    table: RTable,
    /// Nets whose best route was changed by the withdraw path of the
    /// current UPDATE batch and not yet re-exported. Drained (in prefix
    /// order) at the end of the batch, so a storm touching one net many
    /// times propagates it once.
    dirty: DirtySet,
    /// Shared `xbgp_rib_*` churn accounting (same block as FIR).
    rib_counters: RibCounters,
    /// Every channel's export state. Announcements are batched into
    /// shared UPDATEs at flush points (BIRD's tx event queue), so the
    /// encode insertion point and message framing amortize over routes
    /// sharing attributes.
    out: UpdateGroups<Rc<EaList>>,
    /// WREN's native origin validation: the hash table (§3.4).
    roa: Option<RoaHashTable>,
}

/// Is this route usable as best (nexthop reachable for iBGP routes)?
fn eligible(host: &Host, rte: &Rte) -> bool {
    host.spec.igp.is_none()
        || !rte.src_ibgp
        || rte.src == SrcId::Local
        || host.igp_metric(rte.eattrs.next_hop().unwrap_or(0)) != u32::MAX
}

/// What a net exports: the first eligible route of its
/// preference-ordered list.
fn best_eligible<'a>(host: &Host, routes: &'a [Rte]) -> Option<(&'a Rc<EaList>, RouteSource)> {
    let rte = routes.iter().find(|r| eligible(host, r))?;
    Some((&rte.eattrs, rte.source()))
}

fn local_rte(host: &Host, nexthop: u32) -> Rte {
    let eattrs = EaList::from_wire(&[
        xbgp_wire::PathAttr::Origin(xbgp_wire::attr::Origin::Igp),
        xbgp_wire::PathAttr::AsPath(xbgp_wire::AsPath::empty()),
        xbgp_wire::PathAttr::NextHop(nexthop),
    ])
    .expect("local attrs well-formed");
    Rte {
        src: SrcId::Local,
        src_addr: host.spec.router_id,
        src_asn: host.spec.asn,
        src_ibgp: true,
        src_rr_client: false,
        eattrs: Rc::new(eattrs),
        rov: None,
    }
}

/// Preference with the ③ BGP_DECISION point consulted first.
fn rte_better(host: &mut Host, a: &Rte, b: &Rte) -> bool {
    host.decision(&*a.eattrs, &a.source(), || b.eattrs.to_wire())
        .unwrap_or_else(|| {
            rte_better_native(a, b, host.spec.default_local_pref, &|nh| host.igp_metric(nh))
        })
}

impl WrenEngine {
    /// Number of nets in the table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Best route for a net.
    pub fn best_route(&self, net: &Ipv4Prefix) -> Option<&Rte> {
        self.table.best(net)
    }

    /// Nets in prefix order. The table trie's pre-order iteration *is*
    /// `(addr, len)` order, so no sort is needed for determinism.
    pub fn nets(&self) -> Vec<Ipv4Prefix> {
        self.table.iter_best().map(|(n, _)| n).collect()
    }

    /// Put a local route into its net's list by the native comparator
    /// (③ is only asked about routes learned from a channel); the net's
    /// handle comes back with the outcome.
    fn update_local(
        &mut self,
        host: &Host,
        net: Ipv4Prefix,
        nexthop: u32,
    ) -> (NodeId, TableChange) {
        let dlp = host.spec.default_local_pref;
        let metric = |nh: u32| host.igp_metric(nh);
        self.table.update(net, local_rte(host, nexthop), &mut |a, b| {
            rte_better_native(a, b, dlp, &metric)
        })
    }

    // -----------------------------------------------------------------
    // Inbound
    // -----------------------------------------------------------------

    /// The NLRI half of an UPDATE.
    fn install_routes(
        &mut self,
        host: &mut Host,
        ch: usize,
        upd: &UpdateMsg,
        raw_body: &[u8],
    ) -> Result<(), WireError> {
        let mut eattrs = EaList::from_wire(&upd.attrs)?;
        host.receive_message(ch, raw_body, &mut eattrs); // ①

        // Loop prevention: drop silently.
        let ibgp = host.neighbors[ch].ibgp;
        if !ibgp && eattrs.as_path_contains(host.spec.asn) {
            return Ok(());
        }
        if ibgp
            && host.spec.native_rr
            && (eattrs.originator_id() == Some(host.spec.router_id)
                || eattrs.cluster_list_contains(host.cluster_id()))
        {
            return Ok(());
        }

        let shared = Rc::new(eattrs);
        let filter = host.inbound_views(ch, &*shared);
        for net in &upd.nlri {
            host.stats.counters.prefixes_rx += 1;
            if let Some(t) = host.hooks.vmm.tracer_mut() {
                t.begin_route(pack_prefix(net.addr(), net.len()));
            }
            self.install_one(host, ch, *net, &shared, filter);
            // Every `begin_route` is matched here, whichever way the
            // route left `install_one`: a leaked scope would let the next
            // route's events inherit this route's attribution.
            if let Some(t) = host.hooks.vmm.tracer_mut() {
                t.end_route();
            }
        }

        // Extension-installed routes.
        let adds: Vec<(Ipv4Prefix, u32)> = host.ext_rib_adds.drain(..).collect();
        for (net, nexthop) in adds {
            let (at, change) = self.update_local(host, net, nexthop);
            self.rib_counters.updates_applied += 1;
            self.propagate_inline(host, net, Some(at), change);
        }
        Ok(())
    }

    /// One NLRI through ② `BGP_INBOUND_FILTER` (when `filter` carries the
    /// peer and nexthop views, i.e. an extension is attached), native
    /// origin validation, the table and propagation.
    fn install_one(
        &mut self,
        host: &mut Host,
        ch: usize,
        net: Ipv4Prefix,
        shared: &Rc<EaList>,
        filter: Option<(PeerInfo, NextHopInfo)>,
    ) {
        let mut route_attrs = Rc::clone(shared);
        if let Some(views) = filter {
            match host.inbound_filter(views, net, &**shared) {
                Ok(Some(modified)) => route_attrs = Rc::new(modified),
                Ok(None) => {}
                Err(Rejected) => {
                    // Drop any previously accepted route from this channel
                    // and re-export inline (inside the route's trace scope,
                    // so the decision is attributed).
                    let (change, removed) = self.table.withdraw(net, SrcId::Channel(ch));
                    self.rib_counters.withdrawals += u64::from(removed);
                    let at = self.changed_at(&net, change);
                    return self.propagate_inline(host, net, at, change);
                }
            }
        }

        // Native origin validation (hash table; tags, never drops).
        let rov = self.roa.as_ref().map(|table| {
            let state = match route_attrs.origin_asn() {
                Some(origin) => table.validate(net, origin),
                None => RovState::NotFound,
            };
            host.stats.count_rov(state);
            state
        });

        let n = &host.neighbors[ch];
        let rte = Rte {
            src: SrcId::Channel(ch),
            src_addr: n.decl.addr,
            src_asn: n.decl.asn,
            src_ibgp: n.ibgp,
            src_rr_client: n.decl.rr_client,
            eattrs: route_attrs,
            rov,
        };
        // The comparator asks ③ first; it borrows the host, not the table.
        let (at, change) = self.table.update(net, rte, &mut |a, b| rte_better(host, a, b));
        self.rib_counters.updates_applied += 1;
        self.propagate_inline(host, net, Some(at), change);
    }

    /// Propagate a change made while processing NLRI. It re-exports the
    /// net from its current best, which already reflects any earlier
    /// withdraw-loop removal — the deferred propagation is subsumed.
    fn propagate_inline(
        &mut self,
        host: &mut Host,
        net: Ipv4Prefix,
        at: Option<NodeId>,
        change: TableChange,
    ) {
        if change != TableChange::NoBestChange {
            self.dirty.unmark(&net);
        }
        self.propagate(host, net, at, change);
    }

    /// Propagate the deferred withdraw-path changes: every net still
    /// marked dirty is re-exported from its current best route (or
    /// withdrawn when gone), in prefix order. Inline NLRI processing
    /// unmarks nets it already re-exported, so each net is propagated at
    /// most once per batch. Under `full_recompute` this additionally
    /// degrades to the ablation baseline: resort and re-propagate every
    /// net in the table.
    fn drain_dirty(&mut self, host: &mut Host) {
        if !self.dirty.is_empty() {
            let batch = self.dirty.drain_ordered();
            self.rib_counters.delta_batch_size.observe(batch.len() as u64);
            for net in batch {
                // The mark means the net's head changed; whether it is a
                // re-announce or a withdrawal falls out of the current
                // table state (propagation reads only the current best,
                // so `BestChanged` vs `NetGone` steer the same arm).
                let at = self.table.find(&net);
                let change = match at {
                    None => TableChange::NetGone,
                    Some(_) => TableChange::BestChanged,
                };
                self.propagate(host, net, at, change);
            }
        }
        if host.spec.full_recompute {
            self.full_resort_sweep(host);
        }
    }

    /// The full-recompute ablation baseline: re-run the comparator over
    /// every net in the table and propagate any head changes. With the
    /// strict total preference order and the stable resort this is
    /// byte-identical to the incremental path — it exists only to
    /// measure what the delta engine saves.
    fn full_resort_sweep(&mut self, host: &mut Host) {
        for net in self.table.net_keys() {
            let change = self.table.resort(&net, &mut |a, b| rte_better(host, a, b));
            self.propagate(host, net, self.changed_at(&net, change), change);
        }
    }

    // -----------------------------------------------------------------
    // Outbound
    // -----------------------------------------------------------------

    /// The handle [`WrenEngine::propagate`] wants for a net known by name
    /// only: looked up when there is something to re-export.
    fn changed_at(&self, net: &Ipv4Prefix, change: TableChange) -> Option<NodeId> {
        (change != TableChange::NoBestChange).then(|| self.table.find(net)).flatten()
    }

    /// React to a table change on `net`, whose route list is at `at`
    /// (`None`: the net is gone): re-announce or withdraw on every
    /// channel.
    fn propagate(
        &mut self,
        host: &mut Host,
        net: Ipv4Prefix,
        at: Option<NodeId>,
        change: TableChange,
    ) {
        let best_changed = change != TableChange::NoBestChange;
        host.hooks.trace_decision(net, best_changed);
        if !best_changed {
            return;
        }
        host.stats.counters.last_route_change = Some(host.now);
        self.rib_counters.best_changes += 1;
        let best = at.and_then(|at| best_eligible(host, self.table.routes_at(at)));
        let best = best.as_ref().map(|(eattrs, src)| (*eattrs, src));
        self.out.route_changed(host, &mut WrenExport, net, best);
    }
}

/// WREN's half of export: attributes are rewritten in place on a copy
/// of the raw list.
struct WrenExport;

impl Exporter for WrenExport {
    type Attrs = Rc<EaList>;

    /// Transform for the session type (in-place on a copy of the raw
    /// list — BIRD's export path copies the ea_list too).
    fn transform(
        &mut self,
        host: &Host,
        dest: &Dest,
        eattrs: &Rc<EaList>,
        src: &RouteSource,
    ) -> Rc<EaList> {
        let mut out = (**eattrs).clone();
        if dest.ibgp {
            if out.local_pref().is_none() {
                out.set_local_pref(host.spec.default_local_pref);
            }
            if host.spec.native_rr && !src.local && src.peer_type == PeerType::Ibgp {
                if out.originator_id().is_none() {
                    out.set(9, 0x80, src.peer_addr.to_be_bytes().to_vec());
                }
                out.cluster_list_prepend(host.cluster_id());
            }
        } else {
            out.as_path_prepend(host.spec.asn);
            out.set_next_hop(host.spec.router_id);
            out.unset(5);
            out.unset(4);
            out.unset(9);
            out.unset(10);
        }
        Rc::new(out)
    }

    fn to_wire(eattrs: &Rc<EaList>) -> Vec<PathAttr> {
        eattrs.to_wire()
    }
}

impl RouteEngine for WrenEngine {
    const KIND: xbgp_driver::Dut = xbgp_driver::Dut::Wren;

    fn new(host: &Host) -> WrenEngine {
        WrenEngine {
            table: RTable::new(),
            dirty: DirtySet::new(),
            rib_counters: RibCounters::new(),
            out: UpdateGroups::new(host),
            roa: host.spec.native_rov.as_deref().map(roa_hash_table),
        }
    }

    fn originate(&mut self, host: &mut Host) {
        for (net, nexthop) in host.spec.originate.clone() {
            let (at, change) = self.update_local(host, net, nexthop);
            self.propagate(host, net, Some(at), change);
        }
    }

    /// Full-table dump when a channel comes up: its update-group
    /// advertises it every net's best eligible route (prefix order
    /// straight off the trie).
    fn session_up(&mut self, host: &mut Host, ch: usize) {
        let table = &self.table;
        self.out.join(host, &mut WrenExport, ch, |host| {
            table
                .iter_nets()
                .filter_map(|(net, routes)| {
                    best_eligible(host, routes).map(|(e, src)| (net, Rc::clone(e), src))
                })
                .collect()
        });
    }

    fn session_down(&mut self, host: &mut Host, ch: usize) {
        self.out.leave(ch);
        let before = self.table.route_len();
        let changes = self.table.flush_src(SrcId::Channel(ch));
        self.rib_counters.withdrawals += (before - self.table.route_len()) as u64;
        for (net, change) in changes {
            self.propagate(host, net, self.changed_at(&net, change), change);
        }
    }

    fn update(
        &mut self,
        host: &mut Host,
        ch: usize,
        upd: UpdateMsg,
        raw_body: &[u8],
    ) -> Result<(), WireError> {
        for net in &upd.withdrawn {
            let (change, removed) = self.table.withdraw(*net, SrcId::Channel(ch));
            self.rib_counters.withdrawals += u64::from(removed);
            // Defer the re-export: mark the net and propagate once per
            // batch at drain time. Propagation only reads the *current*
            // best route, so a storm touching the same net many times in
            // one batch collapses to a single export decision. Non-best
            // removals need nothing at all.
            if change != TableChange::NoBestChange {
                self.dirty.mark(*net);
            }
        }
        let parsed = if upd.nlri.is_empty() {
            Ok(())
        } else {
            self.install_routes(host, ch, &upd, raw_body)
        };
        // However the NLRI half ended — installed, dropped by loop
        // detection or malformed — the withdraw loop is owed its
        // deferred propagations.
        self.drain_dirty(host);
        parsed
    }

    fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>) {
        self.out.flush::<WrenExport>(host, ctx);
    }

    fn loc_rib_len(&self) -> usize {
        self.table.len()
    }

    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.best_route(prefix).is_some()
    }

    /// `(net, wire-encoded best-route attributes)` in prefix order
    /// straight off the trie. The wire form is `Send` and
    /// implementation-neutral, so per-shard dumps can cross threads and
    /// be compared byte-for-byte against a sequential run's dump.
    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.table
            .iter_best()
            .map(|(n, r)| (n, encode_attrs(&r.eattrs.to_wire(), 4)))
            .collect()
    }

    /// From-scratch Loc-RIB recomputation — the churn oracle. For every
    /// net, re-derive the best route by folding the full route list
    /// through the live comparator, ignoring the incrementally-maintained
    /// list head. Byte-identical to `loc_rib_dump` whenever the
    /// incremental engine is correct.
    fn oracle_loc_rib_dump(&mut self, host: &mut Host) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        let mut out = Vec::new();
        for (net, routes) in self.table.iter_nets() {
            let mut best: Option<&Rte> = None;
            for rte in routes {
                // Folding in list order keeps ties on the earlier entry,
                // matching the stable insertion order the head reflects.
                if best.is_none_or(|b| rte_better(host, rte, b)) {
                    best = Some(rte);
                }
            }
            if let Some(b) = best {
                out.push((net, encode_attrs(&b.eattrs.to_wire(), 4)));
            }
        }
        out
    }

    fn push_gauges(&self, s: &mut Snapshot) {
        self.rib_counters.push(s, self.table.descents());
        push_rib_gauges(s, self.table.route_len(), self.table.len(), self.dirty.len());
        self.out.push_gauges(s);
    }
}

/// WREN's native RFC 4271 §9.1 preference, written over the lazy
/// `ea_list` accessors. A free function so the fast-path table update can
/// borrow the table mutably while comparing.
fn rte_better_native(
    a: &Rte,
    b: &Rte,
    default_local_pref: u32,
    igp_metric: &dyn Fn(u32) -> u32,
) -> bool {
    let lp = |r: &Rte| r.eattrs.local_pref().unwrap_or(default_local_pref);
    if lp(a) != lp(b) {
        return lp(a) > lp(b);
    }
    let hops = |r: &Rte| r.eattrs.as_path_hops();
    if hops(a) != hops(b) {
        return hops(a) < hops(b);
    }
    let origin = |r: &Rte| r.eattrs.origin().map(|o| o as u8).unwrap_or(2);
    if origin(a) != origin(b) {
        return origin(a) < origin(b);
    }
    let med = |r: &Rte| r.eattrs.med().unwrap_or(0);
    if med(a) != med(b) {
        return med(a) < med(b);
    }
    let ebgp = |r: &Rte| !r.src_ibgp && r.src != SrcId::Local;
    if ebgp(a) != ebgp(b) {
        return ebgp(a);
    }
    let metric = |r: &Rte| igp_metric(r.eattrs.next_hop().unwrap_or(0));
    if metric(a) != metric(b) {
        return metric(a) < metric(b);
    }
    let orig_id = |r: &Rte| r.eattrs.originator_id().unwrap_or(r.src_addr);
    if orig_id(a) != orig_id(b) {
        return orig_id(a) < orig_id(b);
    }
    a.src_addr < b.src_addr
}
