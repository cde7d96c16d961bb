//! FIR's internal attribute representation: parsed, host-order, interned.
//!
//! This mirrors FRRouting's `struct attr` + `attrhash`: a validated
//! UPDATE's attribute section is parsed once, straight from the wire,
//! into host-order fields ([`FirAttrs::parse_section`], FRR's
//! `bgp_attr_parse`), and identical attribute sets are shared through an
//! intern table so a 724k-route table stores each distinct set exactly
//! once. Going back out, the fields are written straight into the frame
//! ([`FirAttrs::write_attrs`], FRR's `bgp_packet_attribute`). Conversion
//! to and from the neutral network-byte-order form is therefore *work* on
//! every xBGP access (`neutral_payload_into` / `set_neutral`) — the
//! representational gap the paper calls out for FRRouting. The typed
//! `from_wire` / `to_wire` are adapters over the parser and the writer.

use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::rc::Rc;
use xbgp_wire::attr::{
    check_attrs, encode_attrs, encode_tlv_with, stored_attrs, stored_flags, validate_neutral,
    AttrCode, Origin, RawAttrIter,
};
use xbgp_wire::{AsPath, PathAttr, WireError};

/// One fully parsed, host-order attribute set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FirAttrs {
    pub origin: Origin,
    pub as_path: AsPath,
    /// Host byte order.
    pub next_hop: u32,
    pub med: Option<u32>,
    pub local_pref: Option<u32>,
    pub atomic_aggregate: bool,
    /// AGGREGATOR's `(asn, router id)`, boxed like FRR's old
    /// `attr_extra`: few routes carry it, and without it a set is no
    /// larger than before the field.
    pub aggregator: Option<Box<(u32, u32)>>,
    pub communities: Vec<u32>,
    pub originator_id: Option<u32>,
    pub cluster_list: Vec<u32>,
    /// Attributes FIR does not model natively: `(code, flags, raw payload
    /// in network byte order)`, kept for xBGP `get_attr` but NOT encoded
    /// on the wire natively (FRR could not add unsupported attributes
    /// until the paper's authors rewrote that part — extensions emit them
    /// at the encode-message insertion point instead).
    pub extra: Vec<(u8, u8, Vec<u8>)>,
}

impl Default for FirAttrs {
    fn default() -> Self {
        FirAttrs {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: 0,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
            originator_id: None,
            cluster_list: Vec::new(),
            extra: Vec::new(),
        }
    }
}

impl FirAttrs {
    /// Parse the attribute section of an UPDATE validated at `asn_width`
    /// into the host representation, one attribute at a time in the
    /// stored form [`stored_attrs`] defines; what a field does not model
    /// lands in `extra`. Checks the RFC 4271 mandatory attributes.
    pub fn parse_section(section: &[u8], asn_width: usize) -> Result<FirAttrs, WireError> {
        let mut a = FirAttrs::default();
        let (mut have_origin, mut have_next_hop) = (false, false);
        for raw in stored_attrs(section) {
            match PathAttr::from_valid(&raw, asn_width) {
                PathAttr::Origin(o) => {
                    a.origin = o;
                    have_origin = true;
                }
                PathAttr::AsPath(p) => a.as_path = p,
                PathAttr::NextHop(nh) => {
                    a.next_hop = nh;
                    have_next_hop = true;
                }
                PathAttr::Med(m) => a.med = Some(m),
                PathAttr::LocalPref(lp) => a.local_pref = Some(lp),
                PathAttr::AtomicAggregate => a.atomic_aggregate = true,
                PathAttr::Aggregator { asn, router_id } => {
                    a.aggregator = Some(Box::new((asn, router_id)))
                }
                PathAttr::Communities(cs) => a.communities = cs,
                PathAttr::OriginatorId(id) => a.originator_id = Some(id),
                PathAttr::ClusterList(cl) => a.cluster_list = cl,
                PathAttr::Unknown { flags, code, value } => a.extra.push((code, flags.0, value)),
            }
        }
        if !have_origin {
            return Err(WireError::MissingWellKnown("ORIGIN"));
        }
        if !have_next_hop {
            return Err(WireError::MissingWellKnown("NEXT_HOP"));
        }
        Ok(a)
    }

    /// Parse a neutral (typed) attribute vector: [`FirAttrs::parse_section`]
    /// over the attributes' 4-octet encoding.
    pub fn from_wire(attrs: &[PathAttr]) -> Result<FirAttrs, WireError> {
        let section = encode_attrs(attrs, 4);
        check_attrs(&section, 4)?;
        FirAttrs::parse_section(&section, 4)
    }

    /// Write the natively modelled attributes (codes 1–10, in code order,
    /// canonical flags) straight into an outgoing frame for a session
    /// `asn_width` octets wide. `extra` attributes are deliberately *not*
    /// written — see the field documentation.
    pub fn write_attrs(&self, out: &mut Vec<u8>, asn_width: usize) {
        for code in (1..=10).filter(|&code| self.has_neutral(code)) {
            encode_tlv_with(out, stored_flags(code, 0), code, |out| match code {
                2 => self.as_path.encode_body(out, asn_width),
                _ => {
                    self.neutral_payload_into(code, out);
                }
            });
        }
    }

    /// The natively modelled attributes in the neutral typed form:
    /// [`FirAttrs::write_attrs`] at width 4, decoded.
    pub fn to_wire(&self) -> Vec<PathAttr> {
        let mut section = Vec::new();
        self.write_attrs(&mut section, 4);
        let attrs = RawAttrIter::new(&section).map_while(Result::ok);
        attrs.map(|raw| PathAttr::from_valid(&raw, 4)).collect()
    }

    /// xBGP `get_attr`: produce the attribute payload for `code` in
    /// network byte order. For natively modelled attributes this performs
    /// the host-order → wire conversion (FRR's cost); for `extra`
    /// attributes it is a copy.
    pub fn neutral_payload(&self, code: u8) -> Option<(u8, Vec<u8>)> {
        let mut body = Vec::new();
        let flags = self.neutral_payload_into(code, &mut body)?;
        Some((flags, body))
    }

    /// Allocation-free form of [`FirAttrs::neutral_payload`]: append the
    /// network-order payload to `body` and return the flags. All
    /// absent-attribute paths bail out before appending, so `body` is
    /// untouched on `None`.
    pub fn neutral_payload_into(&self, code: u8, body: &mut Vec<u8>) -> Option<u8> {
        let Some(modelled) = AttrCode::from_u8(code) else {
            let (_, flags, value) = self.extra.iter().find(|(c, _, _)| *c == code)?;
            body.extend_from_slice(value);
            return Some(*flags);
        };
        let words = |ws: &[u32], body: &mut Vec<u8>| {
            ws.iter().for_each(|w| body.extend_from_slice(&w.to_be_bytes()));
        };
        match modelled {
            AttrCode::Origin => body.push(self.origin as u8),
            AttrCode::AsPath => self.as_path.encode_body(body, 4),
            AttrCode::NextHop => body.extend_from_slice(&self.next_hop.to_be_bytes()),
            AttrCode::Med => body.extend_from_slice(&self.med?.to_be_bytes()),
            AttrCode::LocalPref => body.extend_from_slice(&self.local_pref?.to_be_bytes()),
            AttrCode::AtomicAggregate => self.atomic_aggregate.then_some(())?,
            AttrCode::Aggregator => {
                let (asn, router_id) = *self.aggregator.as_deref()?;
                words(&[asn, router_id], body);
            }
            AttrCode::Communities if !self.communities.is_empty() => words(&self.communities, body),
            AttrCode::ClusterList if !self.cluster_list.is_empty() => {
                words(&self.cluster_list, body)
            }
            AttrCode::Communities | AttrCode::ClusterList => return None,
            AttrCode::OriginatorId => body.extend_from_slice(&self.originator_id?.to_be_bytes()),
        }
        Some(modelled.canonical_flags().0)
    }

    /// Does this attribute set carry `code`? Existence check without
    /// marshalling the payload (backs the xBGP `add_attr` helper).
    pub fn has_neutral(&self, code: u8) -> bool {
        match code {
            1..=3 => true,
            4 => self.med.is_some(),
            5 => self.local_pref.is_some(),
            6 => self.atomic_aggregate,
            7 => self.aggregator.is_some(),
            8 => !self.communities.is_empty(),
            9 => self.originator_id.is_some(),
            10 => !self.cluster_list.is_empty(),
            other => self.extra.iter().any(|(c, _, _)| *c == other),
        }
    }

    /// xBGP `set_attr`: overwrite (or insert) attribute `code` from a
    /// network-byte-order payload, converting into the host representation.
    /// A payload [`validate_neutral`] refuses changes nothing. The natively
    /// modelled codes ignore `flags` (theirs are fixed); an empty
    /// COMMUNITIES or CLUSTER_LIST is the attribute's absence.
    pub fn set_neutral(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), String> {
        validate_neutral(code, value)?;
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        match code {
            1 => self.origin = Origin::from_u8(value[0]).map_err(|e| e.to_string())?,
            2 => self.as_path = AsPath::decode_body(value, 4).map_err(|e| e.to_string())?,
            3 => self.next_hop = be32(value),
            4 => self.med = Some(be32(value)),
            5 => self.local_pref = Some(be32(value)),
            6 => self.atomic_aggregate = true,
            7 => self.aggregator = Some(Box::new((be32(value), be32(&value[4..])))),
            8 => self.communities = value.chunks_exact(4).map(be32).collect(),
            9 => self.originator_id = Some(be32(value)),
            10 => self.cluster_list = value.chunks_exact(4).map(be32).collect(),
            other => match self.extra.iter_mut().find(|(c, _, _)| *c == other) {
                Some(slot) => {
                    slot.1 = flags;
                    slot.2 = value.to_vec();
                }
                None => self.extra.push((other, flags, value.to_vec())),
            },
        }
        Ok(())
    }

    /// xBGP `remove_attr`: false when `code` was not there — or is one of
    /// the mandatory ORIGIN, AS_PATH, NEXT_HOP, which stay.
    pub fn remove_neutral(&mut self, code: u8) -> bool {
        if (1..=3).contains(&code) || !self.has_neutral(code) {
            return false;
        }
        match code {
            4 => self.med = None,
            5 => self.local_pref = None,
            6 => self.atomic_aggregate = false,
            7 => self.aggregator = None,
            8 => self.communities.clear(),
            9 => self.originator_id = None,
            10 => self.cluster_list.clear(),
            other => self.extra.retain(|(c, _, _)| *c != other),
        }
        true
    }
}

/// Hasher of the intern map's keys, which are already the keyed hash of
/// a set: it hands the `u64` through, so growing the map moves stored
/// hashes and never hashes a set again.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the intern map is keyed by u64 only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FRR-style attribute interning (hash-consing) table.
///
/// `intern` returns a shared pointer to the canonical copy of an attribute
/// set; identical sets share storage. Like FRR's `attrhash` (`lib/hash.c`
/// keeps each bucket's hash key), every set is stored beside its hash: the
/// map is keyed by that `u64`, and a set whose hash equals a different
/// stored set's goes to `collided`. The hash is SipHash keyed per table
/// (`S`, `RandomState` outside tests), because attribute bytes come from
/// peers. The table never shrinks during a session, like FRR's `attrhash`
/// between `bgp_attr_unintern` sweeps — adequate for the experiment
/// lifetimes here.
#[derive(Debug)]
pub struct AttrInternTable<S = RandomState> {
    state: S,
    table: HashMap<u64, Rc<FirAttrs>, BuildHasherDefault<PassThrough>>,
    /// Full-hash collisions: `(hash, set)` of every set whose hash was
    /// already taken in `table` by a different set.
    collided: Vec<(u64, Rc<FirAttrs>)>,
}

impl AttrInternTable {
    pub fn new() -> AttrInternTable {
        AttrInternTable::with_state(RandomState::new())
    }
}

impl Default for AttrInternTable {
    fn default() -> AttrInternTable {
        AttrInternTable::new()
    }
}

impl<S> AttrInternTable<S> {
    fn with_state(state: S) -> AttrInternTable<S> {
        AttrInternTable { state, table: HashMap::default(), collided: Vec::new() }
    }
}

impl<S: BuildHasher> AttrInternTable<S> {
    /// Intern a set, returning the canonical shared copy. The set is
    /// hashed once, hit or miss, and a hit allocates nothing.
    pub fn intern(&mut self, attrs: FirAttrs) -> Rc<FirAttrs> {
        let hash = self.state.hash_one(&attrs);
        match self.table.entry(hash) {
            Entry::Vacant(e) => Rc::clone(e.insert(Rc::new(attrs))),
            Entry::Occupied(e) if **e.get() == attrs => Rc::clone(e.get()),
            Entry::Occupied(_) => {
                if let Some((_, rc)) =
                    self.collided.iter().find(|(h, rc)| *h == hash && **rc == attrs)
                {
                    return Rc::clone(rc);
                }
                let rc = Rc::new(attrs);
                self.collided.push((hash, Rc::clone(&rc)));
                rc
            }
        }
    }

    /// Number of distinct attribute sets interned.
    pub fn len(&self) -> usize {
        self.table.len() + self.collided.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_wire::AttrFlags;

    fn sample() -> Vec<PathAttr> {
        vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![65001, 65002])),
            PathAttr::NextHop(0x0a00_0001),
            PathAttr::Med(50),
            PathAttr::LocalPref(200),
            PathAttr::Communities(vec![0xffff_0001]),
        ]
    }

    #[test]
    fn wire_round_trip() {
        let parsed = FirAttrs::from_wire(&sample()).unwrap();
        assert_eq!(parsed.next_hop, 0x0a00_0001);
        assert_eq!(parsed.local_pref, Some(200));
        let back = parsed.to_wire();
        assert_eq!(back, sample());
    }

    #[test]
    fn missing_mandatory_attributes_rejected() {
        let no_origin = vec![PathAttr::AsPath(AsPath::empty()), PathAttr::NextHop(1)];
        assert!(matches!(
            FirAttrs::from_wire(&no_origin),
            Err(WireError::MissingWellKnown("ORIGIN"))
        ));
        let no_nh = vec![PathAttr::Origin(Origin::Igp), PathAttr::AsPath(AsPath::empty())];
        assert!(matches!(
            FirAttrs::from_wire(&no_nh),
            Err(WireError::MissingWellKnown("NEXT_HOP"))
        ));
    }

    #[test]
    fn unknown_attrs_survive_in_extra_but_not_on_wire() {
        let mut attrs = sample();
        attrs.push(PathAttr::Unknown {
            flags: AttrFlags::OPT_TRANS,
            code: 66,
            value: vec![1, 2, 3],
        });
        let parsed = FirAttrs::from_wire(&attrs).unwrap();
        assert_eq!(parsed.extra, vec![(66, AttrFlags::OPT_TRANS.0, vec![1, 2, 3])]);
        // Native encoding drops them (FRR pre-modification behaviour).
        assert!(parsed.to_wire().iter().all(|a| !matches!(a, PathAttr::Unknown { .. })));
        // But `get_attr` still reads them.
        assert_eq!(parsed.neutral_payload(66), Some((AttrFlags::OPT_TRANS.0, vec![1, 2, 3])));
    }

    #[test]
    fn neutral_payload_converts_to_network_order() {
        let parsed = FirAttrs::from_wire(&sample()).unwrap();
        let (flags, nh) = parsed.neutral_payload(3).unwrap();
        assert_eq!(nh, 0x0a00_0001u32.to_be_bytes());
        assert_eq!(flags, AttrFlags::WELL_KNOWN.0);
        let (_, med) = parsed.neutral_payload(4).unwrap();
        assert_eq!(med, 50u32.to_be_bytes());
        assert_eq!(parsed.neutral_payload(9), None);
        // AS_PATH payload decodes back to the same path.
        let (_, path) = parsed.neutral_payload(2).unwrap();
        assert_eq!(AsPath::decode_body(&path, 4).unwrap(), parsed.as_path);
    }

    #[test]
    fn set_neutral_round_trips_every_native_code() {
        let mut a = FirAttrs::from_wire(&sample()).unwrap();
        a.set_neutral(5, 0x40, &300u32.to_be_bytes()).unwrap();
        assert_eq!(a.local_pref, Some(300));
        a.set_neutral(9, 0x80, &7u32.to_be_bytes()).unwrap();
        assert_eq!(a.originator_id, Some(7));
        let cl: Vec<u8> = [1u32, 2].iter().flat_map(|c| c.to_be_bytes()).collect();
        a.set_neutral(10, 0x80, &cl).unwrap();
        assert_eq!(a.cluster_list, vec![1, 2]);
        a.set_neutral(66, 0xc0, &[9, 9]).unwrap();
        assert_eq!(a.neutral_payload(66).unwrap().1, vec![9, 9]);
        // Bad sizes are rejected and change nothing.
        let before = a.clone();
        assert!(a.set_neutral(3, 0x40, &[1, 2]).is_err());
        assert!(a.set_neutral(8, 0xc0, &[1, 2, 3]).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn remove_neutral_semantics() {
        let mut a = FirAttrs::from_wire(&sample()).unwrap();
        assert!(a.remove_neutral(4));
        assert_eq!(a.med, None);
        assert!(!a.remove_neutral(4), "already gone");
        assert!(!a.remove_neutral(3), "mandatory attributes stay");
        assert_eq!(a.next_hop, 0x0a00_0001);
        assert!(!a.remove_neutral(77), "absent attribute");
        a.set_neutral(77, 0xc0, &[1]).unwrap();
        assert!(a.remove_neutral(77));
        assert_eq!(a.neutral_payload(77), None);
    }

    #[test]
    fn interning_shares_identical_sets() {
        let mut table = AttrInternTable::new();
        let a = table.intern(FirAttrs::from_wire(&sample()).unwrap());
        let b = table.intern(FirAttrs::from_wire(&sample()).unwrap());
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(table.len(), 1);

        let mut different = FirAttrs::from_wire(&sample()).unwrap();
        different.med = Some(51);
        let c = table.intern(different);
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(table.len(), 2);

        // A hit still returns the first intern after the map has grown
        // several times over.
        for lp in 0..1_000 {
            table.intern(FirAttrs { local_pref: Some(lp), ..FirAttrs::default() });
        }
        assert!(Rc::ptr_eq(&table.intern(FirAttrs::from_wire(&sample()).unwrap()), &a));
        assert_eq!(table.len(), 1_002);
    }

    /// Sends every set to hash 0.
    #[derive(Default)]
    struct Constant;

    impl Hasher for Constant {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn full_hash_collisions_keep_distinct_sets_distinct() {
        let mut table = AttrInternTable::with_state(BuildHasherDefault::<Constant>::default());
        let sets: Vec<FirAttrs> = (0..4)
            .map(|med| FirAttrs { med: Some(med), ..FirAttrs::from_wire(&sample()).unwrap() })
            .collect();
        let first: Vec<Rc<FirAttrs>> = sets.iter().map(|s| table.intern(s.clone())).collect();
        assert_eq!(table.len(), 4, "sets on the side list count");
        assert_eq!(table.collided.len(), 3);
        for (s, rc) in sets.iter().zip(&first) {
            assert_eq!(**rc, *s);
        }
        // Identical sets still share one `Rc`, in the map and on the side
        // list alike, and nothing new is stored.
        for (s, rc) in sets.iter().zip(&first) {
            assert!(Rc::ptr_eq(&table.intern(s.clone()), rc));
        }
        assert_eq!(table.len(), 4);
    }
}
