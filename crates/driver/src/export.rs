//! Update-groups: export once per group of like peers, not once per peer.
//!
//! Established neighbors with the same *export view* form a group that
//! shares one Adj-RIB-Out and one pending change log. A best-path change
//! costs at most one ④ `BGP_OUTBOUND_FILTER` run and one attribute
//! transform (the routes of one UPDATE share both, see [`Group::evaluate`])
//! and one Adj-RIB-Out operation per group; a flush costs one ⑤
//! `BGP_ENCODE_MESSAGE` run and one frame encode per batch, and the
//! finished frame is copied to every member that is owed it.
//!
//! # The group key
//!
//! Two neighbors may share a group when nothing the export path does can
//! tell them apart: the UPDATE codec's ASN width, the session type and
//! the reflection-client flag (which the native policy and the attribute
//! transform read), and — with extensions loaded — the bytes of the
//! marshalled `PeerInfo` that the programs attached at ④ and ⑤ can
//! observe. That last set comes from the verifier
//! ([`xbgp_core::Vmm::peer_read_mask`]): the abstract interpreter bounds
//! every load through `get_peer_info`'s pointer. It degrades to *every*
//! byte — groups of one, through this same code — when a program has an
//! access the verifier could not bound, lets the pointer escape (helper
//! argument, store to memory, merge into an anonymous pointer), or is
//! granted a helper with effects outside the run (`ctx_shared_*`,
//! `ebpf_print`, `rib_add_route`). The key is computed when a session
//! comes up from the mask read at load; quarantine only removes programs,
//! so it stays sound. Neighbor addresses identify neighbors (split
//! horizon already relies on that), so the full mask separates them all.
//!
//! # Split horizon is a property of a change, not of a peer
//!
//! The shared Adj-RIB-Out maps a prefix to `(attributes, source)`. A
//! member *holds* an entry unless it is the entry's source. Each change
//! to the map is logged with the old and the new source, and at flush
//! time the log is projected once per *class* of members: each member
//! named as a source in the log gets its own projection, everybody else
//! shares one. The projection is the per-peer export rule itself
//! (withdraw what the member held and no longer holds, announce what it
//! now holds with different attributes or did not hold before), so every
//! member's byte stream — frames, their order, 800/700 chunking, the
//! prefix ⑤ sees first — is what a group of one would have sent it.

use crate::host::{Host, RouteSource};
use crate::xbgp_glue::AttrStore;
use crate::DaemonSpec;
use netsim::NodeCtx;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Deref;
use xbgp_core::api::{
    InsertionPoint, PeerInfo, PeerType, PEER_INFO_OFF_FLAGS, PEER_INFO_OFF_TYPE, PEER_INFO_SIZE,
};
use xbgp_obs::Snapshot;
use xbgp_wire::Ipv4Prefix;

/// What the members of one group have in common, as the export path
/// sees a destination.
pub struct Dest {
    /// The view ④ and ⑤ run against: the `PeerInfo` of the member that
    /// founded the group. Every member agrees with it on each byte a
    /// loaded program can read.
    pub peer: PeerInfo,
    pub ibgp: bool,
    pub rr_client: bool,
}

/// Native (no-extension) export policy: everything goes to eBGP
/// neighbors; iBGP neighbors get local and eBGP-learned routes, and
/// iBGP-learned ones only by reflection (RFC 4456). A free function over
/// the one `Host` field it reads, so it can be the fallback closure of ④
/// ([`Host::outbound_filter`]) while an execution context borrows the
/// others.
pub fn native_export(spec: &DaemonSpec, dest: &Dest, src: &RouteSource) -> bool {
    !dest.ibgp
        || src.local
        || src.peer_type == PeerType::Ebgp
        || (spec.native_rr && (src.rr_client || dest.rr_client))
}

/// The representation-specific half of export: how an engine rewrites
/// its attributes for a session type. The two outbound insertion points
/// run over [`AttrStore`], in the host, and the rewritten attributes go
/// into the frame through [`AttrStore::write_attrs`].
pub trait Exporter {
    /// The engine's shared attribute handle. Equality decides whether an
    /// advertisement changed; equality and hash group a flush's
    /// announcements into UPDATEs.
    type Attrs: Clone + Eq + Hash + Deref<Target: AttrStore>;

    /// The attributes to advertise to `dest` for a route with `attrs`
    /// learned from `src`.
    fn transform(
        &mut self,
        host: &Host,
        dest: &Dest,
        attrs: &Self::Attrs,
        src: &RouteSource,
    ) -> Self::Attrs;
}

/// The neighbor address split horizon keeps a route from, if any.
fn horizon(src: &RouteSource) -> Option<u32> {
    (!src.local).then_some(src.peer_addr)
}

/// What native code reads of a destination's `PeerInfo`: the session
/// type and the flags (the reflection-client bit). Always part of the key.
const NATIVE_READS: u32 = 0xf << PEER_INFO_OFF_TYPE | 0xf << PEER_INFO_OFF_FLAGS;

#[derive(PartialEq, Eq)]
struct GroupKey {
    asn_width: usize,
    /// The marshalled `PeerInfo`, zeroed outside the read mask.
    view: [u8; PEER_INFO_SIZE],
}

impl GroupKey {
    fn new(asn_width: usize, peer: &PeerInfo, mask: u32) -> GroupKey {
        let mut view = peer.to_bytes();
        for (i, b) in view.iter_mut().enumerate() {
            if (mask | NATIVE_READS) >> i & 1 == 0 {
                *b = 0;
            }
        }
        GroupKey { asn_width, view }
    }
}

struct Member {
    /// Index into [`Host::neighbors`].
    idx: usize,
    addr: u32,
}

/// One change to a group's Adj-RIB-Out.
struct Change<A> {
    prefix: Ipv4Prefix,
    /// Source of the entry this change replaced or removed.
    old: Option<RouteSource>,
    /// Both entries exist and carry equal attributes.
    same_attrs: bool,
    new: Option<(A, RouteSource)>,
}

/// What one change owes one member.
enum Owed {
    Nothing,
    Withdraw,
    Announce,
}

impl<A> Change<A> {
    /// What this change owes the member at `who` — or, with `None`, any
    /// member it does not name as a source. This is the per-peer export
    /// rule: a member holds an entry unless it is the entry's source;
    /// withdraw what it held and no longer holds, announce what it now
    /// holds and either did not hold before or held with other attributes.
    fn owed(&self, who: Option<u32>) -> Owed {
        let holds = |src: &RouteSource| who.is_none() || horizon(src) != who;
        let had = self.old.as_ref().is_some_and(holds);
        let has = self.new.as_ref().is_some_and(|(_, src)| holds(src));
        match (had, has) {
            (true, true) if self.same_attrs => Owed::Nothing,
            (_, true) => Owed::Announce,
            (true, false) => Owed::Withdraw,
            (false, false) => Owed::Nothing,
        }
    }
}

/// Announcements of one flush that share attributes and source: one
/// UPDATE, modulo NLRI chunking. Its NLRI are `len` prefixes of
/// [`Projection::nlri`] from `start`.
struct Batch<A> {
    attrs: A,
    source: RouteSource,
    start: usize,
    len: usize,
}

/// How many batches a projection finds by comparing before it builds a
/// hash index. The log of one UPDATE holds a batch or two; only a table
/// dump or a session flush holds thousands.
const PROBE: usize = 8;

/// What a log owes one class of members (see [`Change::owed`]), in
/// buffers every flush of every group reuses: a flush allocates nothing
/// once they have grown to its size.
struct Projection<A> {
    /// In log order.
    withdrawals: Vec<Ipv4Prefix>,
    /// In first-seen order.
    batches: Vec<Batch<A>>,
    /// The NLRI of every batch, batch after batch, each in log order.
    nlri: Vec<Ipv4Prefix>,
    /// `(batch, prefix)` of every owed announcement, in log order.
    owed: Vec<(usize, Ipv4Prefix)>,
    /// Holds every batch once there are more than [`PROBE`], none before.
    index: HashMap<(A, RouteSource), usize>,
    /// The raw TLVs ⑤ appends to one batch's UPDATE.
    extra: Vec<u8>,
}

impl<A: Clone + Eq + Hash> Projection<A> {
    fn new() -> Projection<A> {
        Projection {
            withdrawals: Vec::new(),
            batches: Vec::new(),
            nlri: Vec::new(),
            owed: Vec::new(),
            index: HashMap::new(),
            extra: Vec::new(),
        }
    }

    /// Project `log` for the class of `who`: withdrawals in log order,
    /// then batches in first-seen order.
    ///
    /// An announcement finds its batch by handle equality: the NLRI of
    /// one UPDATE share a transformed handle ([`Group::evaluate`]), and
    /// `==` on a shared pointer is one pointer comparison when they do. Up
    /// to [`PROBE`] batches are searched that way; the content hash is
    /// only paid past that.
    fn project(&mut self, log: &[Change<A>], who: Option<u32>) {
        self.clear();
        for c in log {
            match (c.owed(who), &c.new) {
                (Owed::Announce, Some((attrs, src))) => {
                    let at = self.batch_of(attrs, src);
                    self.batches[at].len += 1;
                    self.owed.push((at, c.prefix));
                }
                (Owed::Withdraw, _) => self.withdrawals.push(c.prefix),
                _ => {}
            }
        }
        let mut start = 0;
        for b in &mut self.batches {
            (b.start, b.len, start) = (start, 0, start + b.len);
        }
        self.nlri.resize(start, Ipv4Prefix::DEFAULT);
        for &(at, prefix) in &self.owed {
            let b = &mut self.batches[at];
            self.nlri[b.start + b.len] = prefix;
            b.len += 1;
        }
    }

    fn batch_of(&mut self, attrs: &A, src: &RouteSource) -> usize {
        let found = if self.batches.len() <= PROBE {
            self.batches.iter().position(|b| b.source == *src && b.attrs == *attrs)
        } else {
            if self.index.is_empty() {
                let all = self.batches.iter().enumerate();
                self.index.extend(all.map(|(i, b)| ((b.attrs.clone(), b.source), i)));
            }
            self.index.get(&(attrs.clone(), *src)).copied()
        };
        found.unwrap_or_else(|| {
            if !self.index.is_empty() {
                self.index.insert((attrs.clone(), *src), self.batches.len());
            }
            self.batches
                .push(Batch { attrs: attrs.clone(), source: *src, start: 0, len: 0 });
            self.batches.len() - 1
        })
    }

    /// Empty every buffer, keeping its capacity; no attribute handle
    /// outlives the projection that took it.
    fn clear(&mut self) {
        self.withdrawals.clear();
        self.batches.clear();
        self.nlri.clear();
        self.owed.clear();
        self.index.clear();
    }
}

impl<A: Clone + Eq + Hash + Deref<Target: AttrStore>> Projection<A> {
    /// Send what `log` owes the members `to`, all in one class (see
    /// [`Projection::project`]): ⑤ runs once per batch, and each frame is
    /// written straight from the batch's stored attributes.
    fn send(
        &mut self,
        dest: &Dest,
        host: &mut Host,
        ctx: &mut NodeCtx<'_>,
        log: &[Change<A>],
        who: Option<u32>,
        to: &[usize],
    ) {
        self.project(log, who);
        host.send_withdrawals(ctx, to, &self.withdrawals);
        for b in &self.batches {
            let nlri = &self.nlri[b.start..b.start + b.len];
            self.extra.clear();
            host.encode_message(dest, &*b.attrs, &b.source, nlri[0], &mut self.extra);
            let attrs = |out: &mut Vec<u8>, width| b.attrs.write_attrs(out, width);
            host.send_announce(ctx, to, attrs, &self.extra, nlri);
        }
        self.clear();
    }
}

/// The buffers of [`UpdateGroups::flush`], kept from flush to flush.
struct Scratch<A> {
    proj: Projection<A>,
    /// Members named as a source in the log being flushed.
    named: Vec<u32>,
    /// Members the log does not name: one class, one projection.
    rest: Vec<usize>,
}

struct Group<A> {
    key: GroupKey,
    dest: Dest,
    /// Established members, ascending by neighbor index.
    members: Vec<Member>,
    /// The shared Adj-RIB-Out. An entry is current: it reflects the
    /// verdict on the prefix's present best route.
    rib: HashMap<Ipv4Prefix, (A, RouteSource)>,
    /// Some best route was never evaluated because the only member was
    /// its source, so `rib` may lack routes a second member is owed.
    partial: bool,
    /// Changes since the last flush.
    log: Vec<Change<A>>,
    /// Table dumps owed to members that joined since the last flush.
    dumps: Vec<(usize, Vec<Change<A>>)>,
    /// The last shareable ④ verdict of this flush: `(attributes, source,
    /// accept)`. Cleared at every flush. See [`Group::evaluate`].
    verdict: Option<(A, RouteSource, bool)>,
    /// The last transform run for this group: `(attributes in, source,
    /// attributes out)`. See [`Group::evaluate`].
    memo: Option<(A, RouteSource, A)>,
}

/// What `memo` holds for the attribute handle `attrs` (by identity) and
/// `src`, if it is about them.
fn recall<'m, A: Deref, T>(
    memo: &'m Option<(A, RouteSource, T)>,
    attrs: &A,
    src: &RouteSource,
) -> Option<&'m T> {
    let (a, s, held) = memo.as_ref()?;
    (std::ptr::eq::<A::Target>(&**a, &**attrs) && s == src).then_some(held)
}

impl<A: Clone + Eq + Hash + Deref<Target: AttrStore>> Group<A> {
    /// The verdict of the export policy on one best route: what to
    /// advertise, or `None`.
    ///
    /// Both halves are remembered for the last `(attribute handle,
    /// source)` they ran on, so the NLRI of one UPDATE — one handle, one
    /// source — cost one ④ run and one transform and share the result.
    /// Each memo keeps its input handle alive, so the allocator cannot
    /// hand the same address to another attribute set while the memo
    /// could still match it.
    ///
    /// * ④'s verdict is remembered only when the run says it may be
    ///   ([`crate::host::Verdict::shareable`]: every program at ④ is
    ///   prefix-free and none faulted), and only until the flush: a
    ///   prefix-free program still reads the nexthop's IGP metric and the
    ///   ROA table, which may change between events. The rest of what it
    ///   sees is the key (attributes, and the source as `get_arg`) or
    ///   fixed for the group's life (`dest`).
    /// * The transform is a function of the daemon's configuration,
    ///   `dest`, the attribute *contents* and the source, and a handle's
    ///   contents never change, so its memo outlives flushes.
    fn evaluate<X: Exporter<Attrs = A>>(
        &mut self,
        host: &mut Host,
        x: &mut X,
        prefix: Ipv4Prefix,
        attrs: &A,
        src: &RouteSource,
    ) -> Option<(A, RouteSource)> {
        // Split horizon for the whole group: nobody but the source is
        // listening, so no chain runs.
        if let [only] = &self.members[..] {
            if horizon(src) == Some(only.addr) {
                self.partial = true;
                return None;
            }
        }
        let accept = match recall(&self.verdict, attrs, src) {
            Some(&accept) => {
                host.stats.shared_outbound += 1;
                accept
            }
            None => {
                let verdict = host.outbound_filter(&self.dest, prefix, &**attrs, src);
                if verdict.shareable {
                    self.verdict = Some((attrs.clone(), *src, verdict.accept));
                }
                verdict.accept
            }
        };
        if !accept {
            return None;
        }
        let out = match recall(&self.memo, attrs, src) {
            Some(out) => out.clone(),
            None => {
                let out = x.transform(host, &self.dest, attrs, src);
                host.stats.export_transforms += 1;
                self.memo = Some((attrs.clone(), *src, out.clone()));
                out
            }
        };
        Some((out, *src))
    }

    /// Store a verdict and log what it changed.
    fn set(&mut self, host: &mut Host, prefix: Ipv4Prefix, new: Option<(A, RouteSource)>) {
        let old = match &new {
            Some(entry) => self.rib.insert(prefix, entry.clone()),
            None => self.rib.remove(&prefix),
        };
        let same_attrs = matches!((&old, &new), (Some(o), Some(n)) if o.0 == n.0);
        let old = old.map(|(_, src)| src);
        let unchanged = match (&old, &new) {
            (None, None) => true,
            (Some(o), Some((_, n))) => same_attrs && horizon(o) == horizon(n),
            _ => false,
        };
        if unchanged {
            return;
        }
        let change = Change { prefix, old, same_attrs, new };
        if host.hooks.vmm.trace_enabled() {
            for m in &self.members {
                if let Owed::Announce = change.owed(Some(m.addr)) {
                    host.hooks.trace_propagate(prefix, m.idx);
                }
            }
        }
        self.log.push(change);
    }

    fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>, scratch: &mut Scratch<A>) {
        self.verdict = None;
        let Scratch { proj, named, rest } = scratch;
        for (idx, dump) in std::mem::take(&mut self.dumps) {
            if let Some(m) = self.members.iter().find(|m| m.idx == idx) {
                proj.send(&self.dest, host, ctx, &dump, Some(m.addr), &[idx]);
            }
        }
        if self.log.is_empty() {
            return;
        }
        named.clear();
        let sources = self.log.iter().flat_map(|c| c.old.iter().chain(c.new.iter().map(|n| &n.1)));
        named.extend(sources.filter_map(horizon));
        named.sort_unstable();
        named.dedup();
        rest.clear();
        for m in &self.members {
            if named.binary_search(&m.addr).is_ok() {
                proj.send(&self.dest, host, ctx, &self.log, Some(m.addr), &[m.idx]);
            } else {
                rest.push(m.idx);
            }
        }
        if !rest.is_empty() {
            proj.send(&self.dest, host, ctx, &self.log, None, rest);
        }
        self.log.clear();
    }

    /// Routes advertised, summed over members.
    fn advertised(&self) -> usize {
        let mut addrs: Vec<u32> = self.members.iter().map(|m| m.addr).collect();
        addrs.sort_unstable();
        let own = self
            .rib
            .values()
            .filter(|(_, src)| horizon(src).is_some_and(|a| addrs.binary_search(&a).is_ok()))
            .count();
        self.rib.len() * self.members.len() - own
    }
}

/// Every neighbor's export state: the groups of established neighbors.
/// Generic over the engine's attribute handle.
///
/// The owner calls [`UpdateGroups::flush`] after every event it feeds in
/// (the host's contract with a [`crate::host::RouteEngine`]).
pub struct UpdateGroups<A> {
    /// Bit `i`: a program loaded at ④ or ⑤ may read byte `i` of the
    /// destination's marshalled `PeerInfo`.
    read_mask: u32,
    /// Live groups, in founding order. A group exists while it has
    /// members.
    groups: Vec<Group<A>>,
    scratch: Scratch<A>,
}

impl<A: Clone + Eq + Hash + Deref<Target: AttrStore>> UpdateGroups<A> {
    pub fn new(host: &Host) -> UpdateGroups<A> {
        let points = [InsertionPoint::BgpOutboundFilter, InsertionPoint::BgpEncodeMessage];
        UpdateGroups {
            read_mask: host.hooks.vmm.peer_read_mask(&points),
            groups: Vec::new(),
            scratch: Scratch { proj: Projection::new(), named: Vec::new(), rest: Vec::new() },
        }
    }

    /// Neighbor `idx` reached Established: add it to the group its export
    /// view selects and queue that group's table for it. `loc_rib` — the
    /// engine's best routes in prefix order — is only asked for when the
    /// group cannot answer from its own Adj-RIB-Out: it is new, or
    /// [`Group::partial`].
    pub fn join<X: Exporter<Attrs = A>>(
        &mut self,
        host: &mut Host,
        x: &mut X,
        idx: usize,
        loc_rib: impl FnOnce(&Host) -> Vec<(Ipv4Prefix, A, RouteSource)>,
    ) {
        let n = &host.neighbors[idx];
        let (addr, ibgp, rr_client) = (n.decl.addr, n.ibgp, n.decl.rr_client);
        let peer = host.peer_info(idx);
        let key = GroupKey::new(n.asn_width(), &peer, self.read_mask);
        let g = match self.groups.iter().position(|g| g.key == key) {
            Some(g) => g,
            None => {
                self.groups.push(Group {
                    dest: Dest { peer, ibgp, rr_client },
                    key,
                    members: Vec::new(),
                    rib: HashMap::new(),
                    partial: true,
                    log: Vec::new(),
                    dumps: Vec::new(),
                    verdict: None,
                    memo: None,
                });
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[g];
        let at = group.members.partition_point(|m| m.idx < idx);
        group.members.insert(at, Member { idx, addr });
        if group.partial {
            // Evaluate what was skipped. Entries already present are
            // current, and none of this changes what an older member
            // holds: it was the source of everything skipped.
            for (prefix, attrs, src) in loc_rib(host) {
                if !group.rib.contains_key(&prefix) {
                    if let Some(entry) = group.evaluate(host, x, prefix, &attrs, &src) {
                        group.rib.insert(prefix, entry);
                    }
                }
            }
            group.partial = false;
        }
        let mut dump: Vec<Change<A>> = group
            .rib
            .iter()
            .map(|(prefix, entry)| Change {
                prefix: *prefix,
                old: None,
                same_attrs: false,
                new: Some(entry.clone()),
            })
            .collect();
        dump.sort_unstable_by_key(|c| c.prefix);
        if host.hooks.vmm.trace_enabled() {
            for c in &dump {
                host.hooks.trace_propagate(c.prefix, idx);
            }
        }
        group.dumps.push((idx, dump));
    }

    /// Neighbor `idx` left Established (a no-op if it never got there).
    /// The last member takes the group's state with it.
    pub fn leave(&mut self, idx: usize) {
        for g in &mut self.groups {
            g.members.retain(|m| m.idx != idx);
            g.dumps.retain(|(joiner, _)| *joiner != idx);
        }
        self.groups.retain(|g| !g.members.is_empty());
    }

    /// The best route of `prefix` changed to `best` (`None`: no route
    /// left). One policy verdict and one Adj-RIB-Out operation per group.
    pub fn route_changed<X: Exporter<Attrs = A>>(
        &mut self,
        host: &mut Host,
        x: &mut X,
        prefix: Ipv4Prefix,
        best: Option<(&A, &RouteSource)>,
    ) {
        for g in &mut self.groups {
            let new = best.and_then(|(attrs, src)| g.evaluate(host, x, prefix, attrs, src));
            g.set(host, prefix, new);
        }
    }

    /// Send everything queued since the last flush.
    pub fn flush(&mut self, host: &mut Host, ctx: &mut NodeCtx<'_>) {
        for g in &mut self.groups {
            g.flush(host, ctx, &mut self.scratch);
        }
    }

    /// `xbgp_daemon_update_groups`, `xbgp_daemon_update_group_members`
    /// and `xbgp_daemon_adj_rib_out_size` (routes advertised, summed over
    /// peers — what per-peer Adj-RIBs-Out would hold).
    pub fn push_gauges(&self, s: &mut Snapshot) {
        s.push_gauge("xbgp_daemon_update_groups", &[], self.groups.len() as i64);
        for (i, g) in self.groups.iter().enumerate() {
            let labels = [("group", &*i.to_string())];
            s.push_gauge("xbgp_daemon_update_group_members", &labels, g.members.len() as i64);
        }
        let advertised = self.groups.iter().map(Group::advertised).sum::<usize>();
        s.push_gauge("xbgp_daemon_adj_rib_out_size", &[], advertised as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(router_id: u32, asn: u32, flags: u32) -> PeerInfo {
        PeerInfo {
            router_id,
            asn,
            peer_type: PeerType::Ibgp,
            local_router_id: 2,
            local_asn: 65000,
            flags,
        }
    }

    #[test]
    fn key_ignores_bytes_outside_the_read_mask() {
        let key = |width, router_id, flags, mask| {
            GroupKey::new(width, &peer(router_id, 65000, flags), mask)
        };
        let type_and_flags = 0x00f0_0f00;
        assert!(
            key(4, 7, 1, type_and_flags) == key(4, 8, 1, type_and_flags),
            "router ids differ, nobody can read them"
        );
        let all = xbgp_core::contracts::PEER_INFO_ALL;
        assert!(key(4, 7, 1, all) != key(4, 8, 1, all));
        // What native export and the codec read separates peers whatever
        // the mask says.
        assert!(key(4, 7, 1, 0) != key(4, 7, 0, 0), "reflection client or not");
        assert!(key(4, 7, 1, 0) != key(2, 7, 1, 0), "ASN width");
    }

    fn src(addr: u32) -> RouteSource {
        RouteSource {
            peer_addr: addr,
            peer_asn: 65000,
            peer_type: PeerType::Ibgp,
            rr_client: true,
            local: false,
        }
    }

    fn change(
        prefix: u32,
        old: Option<u32>,
        new: Option<(&'static str, u32)>,
        same_attrs: bool,
    ) -> Change<&'static str> {
        Change {
            prefix: Ipv4Prefix::new(prefix << 8, 24),
            old: old.map(src),
            same_attrs,
            new: new.map(|(attrs, from)| (attrs, src(from))),
        }
    }

    /// `(withdrawn, [(attrs, source, prefixes)])` with prefixes as the
    /// small integers `change` was given.
    type Owed = (Vec<u32>, Vec<(&'static str, u32, Vec<u32>)>);

    fn owed(log: &[Change<&'static str>], who: Option<u32>) -> Owed {
        let n = |p: &Ipv4Prefix| p.addr() >> 8;
        let mut proj = Projection::new();
        proj.project(log, who);
        let batches = proj
            .batches
            .iter()
            .map(|b| {
                let nlri = &proj.nlri[b.start..b.start + b.len];
                (b.attrs, b.source.peer_addr, nlri.iter().map(n).collect())
            })
            .collect();
        (proj.withdrawals.iter().map(n).collect(), batches)
    }

    #[test]
    fn adj_rib_out_suppresses_duplicates() {
        // Same attributes, source moved from peer 5 to peer 6: whoever
        // held it before and still holds it is owed nothing.
        let log = [change(1, Some(5), Some(("a", 6)), true)];
        assert_eq!(owed(&log, None), (vec![], vec![]));
        assert_eq!(owed(&log, Some(9)), (vec![], vec![]));
        // Changed attributes must be re-sent.
        let log = [change(1, Some(5), Some(("b", 5)), false)];
        assert_eq!(owed(&log, None), (vec![], vec![("b", 5, vec![1])]));
    }

    #[test]
    fn a_source_moving_between_two_members_is_two_exceptions() {
        // Prefix 1 moves 5 → 6 with equal attributes, prefix 2 is new
        // from 6, prefix 3 (from 5) goes away.
        let log = [
            change(1, Some(5), Some(("a", 6)), true),
            change(2, None, Some(("a", 6)), false),
            change(3, Some(5), None, false),
        ];
        // Everybody else: one announce, one withdrawal.
        assert_eq!(owed(&log, None), (vec![3], vec![("a", 6, vec![2])]));
        // The old source never held 1 or 3: one batch with both
        // announcements, in log order, no withdrawal.
        assert_eq!(owed(&log, Some(5)), (vec![], vec![("a", 6, vec![1, 2])]));
        // The new source loses 1 (implicit withdraw), never gets 2.
        assert_eq!(owed(&log, Some(6)), (vec![1, 3], vec![]));
    }

    #[test]
    fn batches_past_the_probe_are_found_by_content_too() {
        // Three rounds over more attribute sets than the probe covers,
        // then the first set from another source: still one batch per
        // (attributes, source), in first-seen order, prefixes in log order.
        const NAMES: [&str; 12] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        assert!(NAMES.len() > PROBE + 2);
        let mut log = Vec::new();
        for round in 0..3 {
            for (i, name) in NAMES.iter().enumerate() {
                let prefix = (round * NAMES.len() + i) as u32;
                log.push(change(prefix, None, Some((name, 5)), false));
            }
        }
        log.push(change(99, None, Some(("a", 6)), false));
        let (wd, batches) = owed(&log, None);
        assert!(wd.is_empty());
        let mut want: Vec<(&str, u32, Vec<u32>)> = NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| (*name, 5, (0..3).map(|r| (r * NAMES.len() + i) as u32).collect()))
            .collect();
        want.push(("a", 6, vec![99]));
        assert_eq!(batches, want);
    }

    #[test]
    fn batches_keep_first_seen_order_and_split_by_source() {
        let log = [
            change(1, None, Some(("a", 5)), false),
            change(2, None, Some(("b", 5)), false),
            change(3, None, Some(("a", 5)), false),
            change(4, None, Some(("a", 6)), false),
        ];
        assert_eq!(
            owed(&log, None),
            (vec![], vec![("a", 5, vec![1, 3]), ("b", 5, vec![2]), ("a", 6, vec![4])])
        );
    }
}
