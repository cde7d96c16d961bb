//! A path-compressed binary trie keyed by [`Ipv4Prefix`].
//!
//! The classic radix-trie layout used by routing-table code (BIRD's
//! `fib`, FRR's `route_node`, the `prefix_trie` crate): every node
//! carries a full prefix, an optional value, and at most two children;
//! internal branch nodes without a value are created only where two
//! stored prefixes diverge, so the depth is bounded by the number of
//! stored prefixes on the path, not by 32.
//!
//! The property everything downstream leans on: **pre-order traversal
//! (node, then 0-subtree, then 1-subtree) yields keys in `(addr, len)`
//! lexicographic order** — identical to sorting with `Ipv4Prefix`'s
//! derived `Ord`. A node's own prefix has its host bits zero, so it
//! compares before every descendant; the 0-subtree's addresses all have
//! bit `len` clear while the 1-subtree's have it set, so the 0-subtree
//! compares before the 1-subtree in full. Dump paths iterate instead of
//! collect-and-sort, and the withdrawal order after a session flush is
//! deterministic by construction.

use std::cell::Cell;
use xbgp_wire::Ipv4Prefix;

/// Sentinel child index: no child.
const NONE: u32 = u32::MAX;

/// A handle on one key's node, from [`PrefixMap::entry`] or
/// [`PrefixMap::find`]: the work of a descent, kept. It stays valid
/// across inserts and across value changes through the handle — the
/// arena never moves a live node — and until the next
/// [`PrefixMap::remove`] or [`PrefixMap::clear`], either of which may
/// free the node and hand its index to a later insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

#[derive(Debug, Clone)]
struct Node<V> {
    key: Ipv4Prefix,
    value: Option<V>,
    child: [u32; 2],
}

impl<V> Node<V> {
    fn leaf(key: Ipv4Prefix, value: Option<V>) -> Node<V> {
        Node { key, value, child: [NONE, NONE] }
    }

    fn child_count(&self) -> usize {
        usize::from(self.child[0] != NONE) + usize::from(self.child[1] != NONE)
    }
}

/// Bit `pos` (0 = most significant) of `addr`.
#[inline]
fn bit(addr: u32, pos: u8) -> usize {
    debug_assert!(pos < 32);
    ((addr >> (31 - pos)) & 1) as usize
}

/// An ordered map from [`Ipv4Prefix`] to `V` on a path-compressed trie.
///
/// Nodes live in an arena `Vec` with a free list; indices are stable
/// across unrelated inserts/removes. The root is the implicit
/// `0.0.0.0/0` node at index 0 (it holds a value only if the default
/// route itself is inserted).
#[derive(Debug, Clone)]
pub struct PrefixMap<V> {
    nodes: Vec<Node<V>>,
    free: Vec<u32>,
    len: usize,
    /// Walks from the root so far: the exact work counter behind
    /// `xbgp_rib_descents_total`. Counted here, where the loops are, so
    /// no caller can forget one; a `Cell` because lookups take `&self`.
    descents: Cell<u64>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> PrefixMap<V> {
        PrefixMap {
            nodes: vec![Node::leaf(Ipv4Prefix::DEFAULT, None)],
            free: Vec::new(),
            len: 0,
            descents: Cell::new(0),
        }
    }
}

impl<V> PrefixMap<V> {
    pub fn new() -> PrefixMap<V> {
        PrefixMap::default()
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Descents from the root since construction: one per [`entry`],
    /// [`find`] and [`remove`], and per call of the by-key methods built
    /// on them. Handle accesses ([`at`], [`at_mut`]) and iteration cost
    /// none.
    ///
    /// [`entry`]: PrefixMap::entry
    /// [`find`]: PrefixMap::find
    /// [`remove`]: PrefixMap::remove
    /// [`at`]: PrefixMap::at
    /// [`at_mut`]: PrefixMap::at_mut
    pub fn descents(&self) -> u64 {
        self.descents.get()
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::leaf(Ipv4Prefix::DEFAULT, None));
        self.free.clear();
        self.len = 0;
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// The node of `key`, created without a value if the trie has none:
    /// one descent, after which [`PrefixMap::at`], [`PrefixMap::at_mut`]
    /// and [`PrefixMap::at_or_insert_with`] reach the value directly. A
    /// node left without a value is not an entry ([`PrefixMap::len`],
    /// iteration and [`PrefixMap::find`] skip it); `remove(key)` prunes it.
    pub fn entry(&mut self, key: Ipv4Prefix) -> NodeId {
        self.descents.set(self.descents.get() + 1);
        let mut cur = 0u32;
        loop {
            let node_key = self.nodes[cur as usize].key;
            if node_key == key {
                return NodeId(cur);
            }
            debug_assert!(node_key.covers(&key));
            let b = bit(key.addr(), node_key.len());
            let c = self.nodes[cur as usize].child[b];
            if c == NONE {
                let leaf = self.alloc(Node::leaf(key, None));
                self.nodes[cur as usize].child[b] = leaf;
                return NodeId(leaf);
            }
            let child_key = self.nodes[c as usize].key;
            if child_key.covers(&key) {
                cur = c;
                continue;
            }
            if key.covers(&child_key) {
                // `key` sits between `cur` and its child: splice it in.
                let n = self.alloc(Node::leaf(key, None));
                self.nodes[n as usize].child[bit(child_key.addr(), key.len())] = c;
                self.nodes[cur as usize].child[b] = n;
                return NodeId(n);
            }
            // Diverging prefixes: branch at their longest common prefix.
            let common = ((key.addr() ^ child_key.addr()).leading_zeros() as u8)
                .min(key.len())
                .min(child_key.len());
            debug_assert!(common > node_key.len());
            let branch = self.alloc(Node::leaf(Ipv4Prefix::new(key.addr(), common), None));
            let leaf = self.alloc(Node::leaf(key, None));
            self.nodes[branch as usize].child[bit(key.addr(), common)] = leaf;
            self.nodes[branch as usize].child[bit(child_key.addr(), common)] = c;
            self.nodes[cur as usize].child[b] = branch;
            return NodeId(leaf);
        }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: Ipv4Prefix, value: V) -> Option<V> {
        let NodeId(i) = self.entry(key);
        let old = self.nodes[i as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The handle of `key`'s entry, if it has one (a node that holds a
    /// value): one descent.
    pub fn find(&self, key: &Ipv4Prefix) -> Option<NodeId> {
        self.descents.set(self.descents.get() + 1);
        let mut cur = 0u32;
        loop {
            let node = &self.nodes[cur as usize];
            if node.key == *key {
                return node.value.is_some().then_some(NodeId(cur));
            }
            if !node.key.covers(key) {
                return None;
            }
            cur = node.child[bit(key.addr(), node.key.len())];
            if cur == NONE {
                return None;
            }
        }
    }

    /// The value at a live handle; `None` for an [`PrefixMap::entry`]
    /// node nothing was stored at yet.
    pub fn at(&self, id: NodeId) -> Option<&V> {
        self.nodes[id.0 as usize].value.as_ref()
    }

    pub fn at_mut(&mut self, id: NodeId) -> Option<&mut V> {
        self.nodes[id.0 as usize].value.as_mut()
    }

    /// The value at a live handle, storing `default()` first if there is
    /// none.
    pub fn at_or_insert_with(&mut self, id: NodeId, default: impl FnOnce() -> V) -> &mut V {
        let value = &mut self.nodes[id.0 as usize].value;
        if value.is_none() {
            self.len += 1;
        }
        value.get_or_insert_with(default)
    }

    pub fn get(&self, key: &Ipv4Prefix) -> Option<&V> {
        self.find(key).and_then(|id| self.at(id))
    }

    pub fn get_mut(&mut self, key: &Ipv4Prefix) -> Option<&mut V> {
        self.find(key).and_then(|id| self.at_mut(id))
    }

    pub fn contains_key(&self, key: &Ipv4Prefix) -> bool {
        self.find(key).is_some()
    }

    /// Get the value for `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: Ipv4Prefix, default: impl FnOnce() -> V) -> &mut V {
        let id = self.entry(key);
        self.at_or_insert_with(id, default)
    }

    /// Remove `key`, returning its value. Structural nodes left without a
    /// purpose (no value, fewer than two children) are spliced out so the
    /// trie never accumulates dead branches under churn.
    pub fn remove(&mut self, key: &Ipv4Prefix) -> Option<V> {
        self.descents.set(self.descents.get() + 1);
        // Descend, remembering the path for post-removal cleanup. Key
        // lengths grow strictly along a path, so 33 nodes bound it.
        let mut path = [0u32; 33];
        let mut depth = 0;
        let mut cur = 0u32;
        loop {
            let node_key = self.nodes[cur as usize].key;
            if node_key == *key {
                break;
            }
            if !node_key.covers(key) {
                return None;
            }
            let c = self.nodes[cur as usize].child[bit(key.addr(), node_key.len())];
            if c == NONE {
                return None;
            }
            path[depth] = cur;
            depth += 1;
            cur = c;
        }
        let old = self.nodes[cur as usize].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        // Cleanup pass: at most two structural fixes (the removed node,
        // then a parent branch left with a single child).
        let mut target = cur;
        while target != 0 {
            let node = &self.nodes[target as usize];
            if node.value.is_some() || node.child_count() == 2 {
                break;
            }
            depth -= 1;
            let parent = path[depth];
            let slot = bit(node.key.addr(), self.nodes[parent as usize].key.len());
            debug_assert_eq!(self.nodes[parent as usize].child[slot], target);
            let [c0, c1] = node.child;
            let replacement = if c0 != NONE { c0 } else { c1 };
            self.nodes[parent as usize].child[slot] = replacement;
            self.free.push(target);
            if replacement != NONE {
                // Splicing kept the parent's child count: no cascade.
                break;
            }
            target = parent;
        }
        old
    }

    /// Iterate `(prefix, value)` in `(addr, len)` lexicographic order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter { map: self, stack: vec![0] }
    }

    /// Iterate prefixes in `(addr, len)` lexicographic order.
    pub fn keys(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// In-order traversal with mutable access to each value. An iterator
    /// version would need unsafe self-borrowing; a visitor is enough for
    /// the daemons (full-table resorts and feed paths).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Ipv4Prefix, &mut V)) {
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let [c0, c1] = self.nodes[i as usize].child;
            if c1 != NONE {
                stack.push(c1);
            }
            if c0 != NONE {
                stack.push(c0);
            }
            let key = self.nodes[i as usize].key;
            if let Some(v) = self.nodes[i as usize].value.as_mut() {
                f(key, v);
            }
        }
    }
}

/// Ordered iterator over a [`PrefixMap`] (pre-order trie walk).
pub struct Iter<'a, V> {
    map: &'a PrefixMap<V>,
    stack: Vec<u32>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Ipv4Prefix, &'a V);

    fn next(&mut self) -> Option<(Ipv4Prefix, &'a V)> {
        while let Some(i) = self.stack.pop() {
            let node = &self.map.nodes[i as usize];
            // Push the 1-subtree first so the 0-subtree pops first.
            if node.child[1] != NONE {
                self.stack.push(node.child[1]);
            }
            if node.child[0] != NONE {
                self.stack.push(node.child[0]);
            }
            if let Some(v) = node.value.as_ref() {
                return Some((node.key, v));
            }
        }
        None
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixMap<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: T) -> PrefixMap<V> {
        let mut map = PrefixMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_replace_remove() {
        let mut m = PrefixMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(m.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(m.remove(&p("10.0.0.0/8")), None);
        assert!(m.is_empty());
    }

    #[test]
    fn nested_and_diverging_prefixes_coexist() {
        let mut m = PrefixMap::new();
        // Parent, child, sibling, the default route, and a host route.
        for (i, k) in ["10.0.0.0/8", "10.1.0.0/16", "10.128.0.0/9", "0.0.0.0/0", "10.1.2.3/32"]
            .iter()
            .enumerate()
        {
            m.insert(p(k), i);
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&0));
        assert_eq!(m.get(&p("10.1.0.0/16")), Some(&1));
        assert_eq!(m.get(&p("10.128.0.0/9")), Some(&2));
        assert_eq!(m.get(&p("0.0.0.0/0")), Some(&3));
        assert_eq!(m.get(&p("10.1.2.3/32")), Some(&4));
        // A covering but never-inserted prefix is absent.
        assert_eq!(m.get(&p("10.1.0.0/12")), None);
        assert_eq!(m.get(&p("10.1.2.0/24")), None);
    }

    #[test]
    fn iteration_is_prefix_ordered_without_sorting() {
        let keys = [
            "203.0.113.0/24",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.0.0.0/16",
            "192.168.0.0/16",
            "10.128.0.0/9",
            "0.0.0.0/0",
            "10.1.0.0/24",
            "172.16.0.0/12",
            "10.0.255.0/24",
        ];
        let mut m = PrefixMap::new();
        for (i, k) in keys.iter().enumerate() {
            m.insert(p(k), i);
        }
        let got: Vec<Ipv4Prefix> = m.keys().collect();
        let mut want: Vec<Ipv4Prefix> = keys.iter().map(|k| p(k)).collect();
        want.sort();
        assert_eq!(got, want, "pre-order trie walk must equal the sorted key order");
    }

    #[test]
    fn remove_splices_out_dead_branches() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/16"), 1);
        m.insert(p("10.1.0.0/16"), 2);
        // The two diverge under an implicit 10.0.0.0/15 branch node.
        assert_eq!(m.remove(&p("10.0.0.0/16")), Some(1));
        assert_eq!(m.get(&p("10.1.0.0/16")), Some(&2));
        assert_eq!(m.remove(&p("10.1.0.0/16")), Some(2));
        assert!(m.is_empty());
        // Arena fully recycled: only the root survives.
        assert_eq!(m.nodes.len() - m.free.len(), 1);
    }

    #[test]
    fn get_or_insert_with_reuses_existing() {
        let mut m: PrefixMap<Vec<u32>> = PrefixMap::new();
        m.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        m.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), 1);
        m.insert(p("11.0.0.0/8"), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(p("12.0.0.0/8"), 3);
        assert_eq!(m.get(&p("12.0.0.0/8")), Some(&3));
    }

    #[test]
    fn for_each_mut_visits_in_order() {
        let mut m = PrefixMap::new();
        for k in ["10.2.0.0/16", "10.0.0.0/8", "10.1.0.0/16"] {
            m.insert(p(k), 0u32);
        }
        let mut order = Vec::new();
        m.for_each_mut(|k, v| {
            *v += 1;
            order.push(k);
        });
        assert_eq!(order, vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.2.0.0/16")]);
        assert!(m.values().all(|&v| v == 1));
    }

    #[test]
    fn entry_reaches_every_kind_of_node_in_one_descent() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        m.insert(p("10.1.0.0/16"), 1);
        let before = m.descents();
        let existing = m.entry(p("10.1.0.0/16"));
        let leaf = m.entry(p("10.1.2.0/24")); // below an entry
        let splice = m.entry(p("10.0.0.0/8")); // between the root and one
        let branch = m.entry(p("10.2.0.0/16")); // diverges from 10.1/16 at /14
        assert_eq!(m.descents() - before, 4);
        assert_eq!(m.at(existing), Some(&1));
        assert_eq!(m.len(), 1, "a node without a value is not an entry");
        for id in [leaf, splice, branch] {
            assert_eq!(m.at(id), None);
        }
        assert_eq!(m.find(&p("10.0.0.0/8")), None);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![p("10.1.0.0/16")]);
        // Values go in through the handles, in any order, after other
        // inserts moved the arena.
        for i in 0..64u32 {
            m.insert(Ipv4Prefix::new(0xc000_0000 | i << 8, 24), i);
        }
        *m.at_or_insert_with(branch, || 4) += 10;
        m.at_or_insert_with(splice, || 3);
        m.at_or_insert_with(leaf, || 2);
        assert_eq!(m.len(), 68);
        assert_eq!(m.get(&p("10.2.0.0/16")), Some(&14));
        assert_eq!(m.find(&p("10.0.0.0/8")), Some(splice));
        assert_eq!(m.get(&p("10.1.2.0/24")), Some(&2));
        assert_eq!(m.get(&p("10.0.0.0/14")), None, "the branch node itself stays structural");
        // An entry never given a value is pruned by `remove`.
        let dead = m.entry(p("172.16.0.0/12"));
        assert_eq!(m.at(dead), None);
        let live = m.nodes.len() - m.free.len();
        assert_eq!(m.remove(&p("172.16.0.0/12")), None);
        assert!(m.nodes.len() - m.free.len() < live);
        assert_eq!(m.len(), 68);
    }

    proptest! {
        /// The trie must behave exactly like a `BTreeMap<Ipv4Prefix, u32>`
        /// over any interleaving of inserts, removes and handle
        /// operations — same contents, same iteration order (BTreeMap
        /// iterates in derived-`Ord` order, which is what the pre-order
        /// walk claims to reproduce). The biased key space makes `entry`
        /// land on existing nodes, new leaves, splices and branches alike.
        #[test]
        fn prop_matches_btreemap_model(ops in proptest::collection::vec(
            (0u8..5, any::<u32>(), 0u8..=32, any::<u32>()), 1..120))
        {
            let mut m = PrefixMap::new();
            let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
            // The last handle taken, good until the next `remove`.
            let mut held: Option<(Ipv4Prefix, NodeId)> = None;
            for (op, addr, len, val) in ops {
                // Bias the key space so collisions/nesting actually occur.
                let key = Ipv4Prefix::new(addr & 0x0f0f_ffff, len);
                let before = m.descents();
                let mut defaults = 0;
                match op {
                    0 => prop_assert_eq!(m.insert(key, val), model.insert(key, val)),
                    1 => {
                        prop_assert_eq!(m.remove(&key), model.remove(&key));
                        held = None;
                    }
                    // A bare entry: a node, not a value.
                    2 => {
                        let id = m.entry(key);
                        prop_assert_eq!(m.at(id), model.get(&key));
                        held = Some((key, id));
                    }
                    3 => {
                        let absent = !model.contains_key(&key);
                        let id = m.entry(key);
                        let got = *m.at_or_insert_with(id, || {
                            defaults += 1;
                            val
                        });
                        prop_assert_eq!(got, *model.entry(key).or_insert(val));
                        prop_assert_eq!(defaults, u32::from(absent));
                        held = Some((key, id));
                    }
                    _ => {
                        let absent = !model.contains_key(&key);
                        let got = *m.get_or_insert_with(key, || {
                            defaults += 1;
                            val
                        });
                        prop_assert_eq!(got, *model.entry(key).or_insert(val));
                        prop_assert_eq!(defaults, u32::from(absent), "default runs at most once");
                    }
                }
                prop_assert_eq!(m.descents() - before, 1, "every by-key operation is one descent");
                prop_assert_eq!(m.len(), model.len(), "len counts values, not nodes");
                if let Some((k, id)) = held {
                    prop_assert_eq!(m.at(id), model.get(&k), "a handle survives inserts");
                    prop_assert_eq!(m.find(&k), model.contains_key(&k).then_some(id));
                }
            }
            let got: Vec<(Ipv4Prefix, u32)> = m.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(Ipv4Prefix, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            for (k, v) in &model {
                prop_assert_eq!(m.get(k), Some(v));
            }
        }
    }
}
