//! BIRD-style routing table: one table, per-net route lists.
//!
//! Instead of materialized per-peer Adj-RIB-Ins, WREN keeps all routes for
//! a prefix in a single preference-ordered list, each route tagged with
//! its source channel (BIRD's `rte` / `net` structures). The best route is
//! simply the head of the list. Nets are keyed by a path-compressed prefix
//! trie ([`xbgp_rib::PrefixMap`]) whose pre-order iteration *is*
//! `(addr, len)` order, so dump and flush paths are deterministic without
//! sorting.

use crate::ealist::EaList;
use rpki::RovState;
use std::rc::Rc;
use xbgp_core::api::PeerType;
use xbgp_driver::host::RouteSource;
use xbgp_rib::{NodeId, PrefixMap};
use xbgp_wire::Ipv4Prefix;

/// Identifies where a route entered the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcId {
    /// Channel (peer) index.
    Channel(usize),
    /// Locally originated.
    Local,
}

/// One route (BIRD's `rte`).
#[derive(Debug, Clone)]
pub struct Rte {
    pub src: SrcId,
    /// Source peer address and ASN (0 for local routes).
    pub src_addr: u32,
    pub src_asn: u32,
    /// Source session was iBGP.
    pub src_ibgp: bool,
    /// Source peer is a reflection client.
    pub src_rr_client: bool,
    pub eattrs: Rc<EaList>,
    /// Origin-validation verdict when validation is active.
    pub rov: Option<RovState>,
}

impl Rte {
    /// The route's provenance in the shared host's vocabulary.
    pub fn source(&self) -> RouteSource {
        RouteSource {
            peer_addr: self.src_addr,
            peer_asn: self.src_asn,
            peer_type: if self.src_ibgp { PeerType::Ibgp } else { PeerType::Ebgp },
            rr_client: self.src_rr_client,
            local: self.src == SrcId::Local,
        }
    }
}

/// The routing table.
#[derive(Debug, Default)]
pub struct RTable {
    nets: PrefixMap<Vec<Rte>>,
    /// Total routes across every net's list (the Adj-RIB-In occupancy).
    route_count: usize,
}

/// Outcome of a table update, used to drive re-export.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TableChange {
    /// The best route changed (announce to peers).
    BestChanged,
    /// A non-best position changed; nothing to re-announce.
    NoBestChange,
    /// The net lost its last route (withdraw from peers).
    NetGone,
}

impl RTable {
    pub fn new() -> RTable {
        RTable::default()
    }

    /// Insert or replace the route from `src` for `net`, keeping the list
    /// preference-ordered via `better` (a strict "candidate beats
    /// incumbent" predicate). One descent; the net's handle comes back
    /// with the outcome so that re-export reads the list without another.
    pub fn update(
        &mut self,
        net: Ipv4Prefix,
        rte: Rte,
        better: &mut dyn FnMut(&Rte, &Rte) -> bool,
    ) -> (NodeId, TableChange) {
        let id = self.nets.entry(net);
        let list = self.nets.at_or_insert_with(id, Vec::new);
        let old_len = list.len();
        let old_best_was_src = list.first().map(|r| r.src == rte.src).unwrap_or(false);
        list.retain(|r| r.src != rte.src);
        // Insertion sort position: first slot whose occupant loses to us.
        let pos = list.iter().position(|incumbent| better(&rte, incumbent)).unwrap_or(list.len());
        list.insert(pos, rte);
        self.route_count += list.len() - old_len;
        let change = if pos == 0 || old_best_was_src {
            TableChange::BestChanged
        } else {
            TableChange::NoBestChange
        };
        (id, change)
    }

    /// Remove the route from `src` for `net`, if any. The second element
    /// reports whether a route was actually removed (a `NoBestChange`
    /// alone can also mean "nothing to withdraw").
    pub fn withdraw(&mut self, net: Ipv4Prefix, src: SrcId) -> (TableChange, bool) {
        let Some(list) = self.nets.get_mut(&net) else {
            return (TableChange::NoBestChange, false);
        };
        let Some(pos) = list.iter().position(|r| r.src == src) else {
            return (TableChange::NoBestChange, false);
        };
        list.remove(pos);
        self.route_count -= 1;
        if list.is_empty() {
            self.nets.remove(&net);
            (TableChange::NetGone, true)
        } else if pos == 0 {
            (TableChange::BestChanged, true)
        } else {
            (TableChange::NoBestChange, true)
        }
    }

    /// Remove every route from `src`, returning the nets whose best route
    /// was affected and whether each net is now empty. The result is in
    /// `(addr, len)` prefix order — trie iteration order — so the
    /// withdrawal storm a teardown produces is deterministic without a
    /// sort.
    pub fn flush_src(&mut self, src: SrcId) -> Vec<(Ipv4Prefix, TableChange)> {
        let mut changed = Vec::new();
        let mut empty = Vec::new();
        let mut removed = 0usize;
        self.nets.for_each_mut(|net, list| {
            if let Some(pos) = list.iter().position(|r| r.src == src) {
                list.remove(pos);
                removed += 1;
                if list.is_empty() {
                    empty.push(net);
                    changed.push((net, TableChange::NetGone));
                } else if pos == 0 {
                    changed.push((net, TableChange::BestChanged));
                }
            }
        });
        self.route_count -= removed;
        for net in empty {
            self.nets.remove(&net);
        }
        if !changed.is_empty() {
            xbgp_obs::debug!("flushed {:?}: {} nets affected", src, changed.len());
        }
        changed
    }

    /// The best (head) route for a net.
    pub fn best(&self, net: &Ipv4Prefix) -> Option<&Rte> {
        self.nets.get(net).and_then(|l| l.first())
    }

    /// The handle of a net that has routes. It lives until a
    /// [`RTable::withdraw`] or [`RTable::flush_src`] empties a net (any
    /// net: the trie removal may recycle the node).
    pub fn find(&self, net: &Ipv4Prefix) -> Option<NodeId> {
        self.nets.find(net)
    }

    /// All routes of the net at a live handle, best first.
    pub fn routes_at(&self, id: NodeId) -> &[Rte] {
        self.nets.at(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Trie descents of the table so far (`xbgp_rib_descents_total`).
    pub fn descents(&self) -> u64 {
        self.nets.descents()
    }

    /// Iterate `(net, best route)` in prefix order.
    pub fn iter_best(&self) -> impl Iterator<Item = (Ipv4Prefix, &Rte)> {
        self.nets.iter().filter_map(|(net, list)| list.first().map(|r| (net, r)))
    }

    /// Iterate `(net, routes best first)` in prefix order.
    pub fn iter_nets(&self) -> impl Iterator<Item = (Ipv4Prefix, &[Rte])> {
        self.nets.iter().map(|(net, list)| (net, list.as_slice()))
    }

    /// Number of nets with at least one route.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Total routes across all nets (Adj-RIB-In occupancy).
    pub fn route_len(&self) -> usize {
        self.route_count
    }

    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_wire::attr::Origin;
    use xbgp_wire::{AsPath, PathAttr};

    fn ea(hops: usize) -> Rc<EaList> {
        Rc::new(
            EaList::from_wire(&[
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence((0..hops as u32).map(|i| 100 + i).collect())),
                PathAttr::NextHop(1),
            ])
            .unwrap(),
        )
    }

    fn rte(ch: usize, hops: usize) -> Rte {
        Rte {
            src: SrcId::Channel(ch),
            src_addr: ch as u32,
            src_asn: 65000,
            src_ibgp: false,
            src_rr_client: false,
            eattrs: ea(hops),
            rov: None,
        }
    }

    fn shorter(a: &Rte, b: &Rte) -> bool {
        a.eattrs.as_path_hops() < b.eattrs.as_path_hops()
    }

    #[test]
    fn best_is_head_and_updates_report_changes() {
        let mut t = RTable::new();
        let net: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.update(net, rte(0, 3), &mut shorter).1, TableChange::BestChanged);
        // Worse route from another channel: no best change.
        assert_eq!(t.update(net, rte(1, 5), &mut shorter).1, TableChange::NoBestChange);
        assert_eq!(t.routes_at(t.find(&net).unwrap()).len(), 2);
        assert_eq!(t.route_len(), 2);
        // Better route: takes the head.
        assert_eq!(t.update(net, rte(2, 1), &mut shorter).1, TableChange::BestChanged);
        assert_eq!(t.best(&net).unwrap().src, SrcId::Channel(2));
        // Replacement from a known channel keeps the count stable.
        assert_eq!(t.update(net, rte(1, 4), &mut shorter).1, TableChange::NoBestChange);
        assert_eq!(t.route_len(), 3);
    }

    #[test]
    fn replacing_the_best_routes_own_entry_reports_change() {
        let mut t = RTable::new();
        let net: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        t.update(net, rte(0, 1), &mut shorter);
        t.update(net, rte(1, 5), &mut shorter);
        // Channel 0 re-announces with a worse path: best flips to ch 1...
        assert_eq!(t.update(net, rte(0, 9), &mut shorter).1, TableChange::BestChanged);
        assert_eq!(t.best(&net).unwrap().src, SrcId::Channel(1));
    }

    #[test]
    fn withdraw_semantics() {
        let mut t = RTable::new();
        let net: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        t.update(net, rte(0, 1), &mut shorter);
        t.update(net, rte(1, 2), &mut shorter);
        assert_eq!(t.withdraw(net, SrcId::Channel(1)), (TableChange::NoBestChange, true));
        assert_eq!(
            t.withdraw(net, SrcId::Channel(1)),
            (TableChange::NoBestChange, false),
            "second withdraw removes nothing"
        );
        assert_eq!(t.withdraw(net, SrcId::Channel(0)), (TableChange::NetGone, true));
        assert!(t.is_empty());
        assert_eq!(t.route_len(), 0);
    }

    #[test]
    fn withdraw_of_the_head_reports_best_changed() {
        let mut t = RTable::new();
        let net: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        t.update(net, rte(0, 1), &mut shorter);
        t.update(net, rte(1, 2), &mut shorter);
        assert_eq!(t.withdraw(net, SrcId::Channel(0)), (TableChange::BestChanged, true));
        assert_eq!(t.best(&net).unwrap().src, SrcId::Channel(1));
    }

    #[test]
    fn flush_src_reports_affected_nets_in_prefix_order() {
        let mut t = RTable::new();
        let n1: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let n2: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        let n3: Ipv4Prefix = "9.0.0.0/8".parse().unwrap();
        t.update(n1, rte(0, 1), &mut shorter);
        t.update(n1, rte(1, 2), &mut shorter);
        t.update(n2, rte(0, 1), &mut shorter);
        t.update(n3, rte(1, 1), &mut shorter);
        t.update(n3, rte(0, 2), &mut shorter);
        let changes = t.flush_src(SrcId::Channel(0));
        // n3 (9/8) lost a non-best route: absent. Others in prefix order,
        // straight off the trie — no sort in flush_src.
        assert_eq!(changes, vec![(n1, TableChange::BestChanged), (n2, TableChange::NetGone)]);
        assert_eq!(t.best(&n1).unwrap().src, SrcId::Channel(1));
        assert!(t.best(&n2).is_none());
        assert_eq!(t.route_len(), 2);
    }

    #[test]
    fn flush_src_of_sole_route_empties_the_table() {
        let mut t = RTable::new();
        let n1: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let n2: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
        t.update(n1, rte(0, 1), &mut shorter);
        t.update(n2, rte(0, 1), &mut shorter);
        let changes = t.flush_src(SrcId::Channel(0));
        assert_eq!(changes, vec![(n1, TableChange::NetGone), (n2, TableChange::NetGone)]);
        assert!(t.is_empty());
        assert_eq!(t.route_len(), 0);
        assert_eq!(t.flush_src(SrcId::Channel(0)), vec![], "flush of empty table is a no-op");
    }

    #[test]
    fn iter_best_is_prefix_ordered() {
        let mut t = RTable::new();
        for s in ["192.0.2.0/24", "10.0.0.0/8", "10.0.0.0/16", "172.16.0.0/12"] {
            t.update(s.parse().unwrap(), rte(0, 1), &mut shorter);
        }
        let got: Vec<Ipv4Prefix> = t.iter_best().map(|(n, _)| n).collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want, "trie pre-order is (addr, len) order — no sort needed");
    }
}
