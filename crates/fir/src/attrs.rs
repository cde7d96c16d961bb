//! FIR's internal attribute representation: parsed, host-order, interned.
//!
//! This mirrors FRRouting's `struct attr` + `attrhash`: attributes are
//! decoded once into host-order fields, and identical attribute sets are
//! shared through an intern table so a 724k-route table stores each
//! distinct set exactly once. Conversion to/from the neutral
//! network-byte-order form (`to_wire` / `from_wire` / `neutral_payload`)
//! is therefore *work* — the representational gap the paper calls out for
//! FRRouting.

use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;
use xbgp_wire::attr::{encode_attr_tlv, validate_neutral, AttrCode, AttrFlags, Origin};
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
            communities: Vec::new(),
            originator_id: None,
            cluster_list: Vec::new(),
            extra: Vec::new(),
        }
    }
}

impl FirAttrs {
    /// Parse a neutral (typed) attribute vector into the host
    /// representation. Unknown attributes land in `extra`.
    pub fn from_wire(attrs: &[PathAttr]) -> Result<FirAttrs, WireError> {
        let mut a = FirAttrs::default();
        let mut have_origin = false;
        let mut have_next_hop = false;
        for attr in attrs {
            match attr {
                PathAttr::Origin(o) => {
                    a.origin = *o;
                    have_origin = true;
                }
                PathAttr::AsPath(p) => a.as_path = p.clone(),
                PathAttr::NextHop(nh) => {
                    a.next_hop = *nh;
                    have_next_hop = true;
                }
                PathAttr::Med(m) => a.med = Some(*m),
                PathAttr::LocalPref(lp) => a.local_pref = Some(*lp),
                PathAttr::AtomicAggregate | PathAttr::Aggregator { .. } => {
                    // Accepted and ignored: not relevant to any experiment.
                }
                PathAttr::Communities(cs) => a.communities = cs.clone(),
                PathAttr::OriginatorId(id) => a.originator_id = Some(*id),
                PathAttr::ClusterList(cl) => a.cluster_list = cl.clone(),
                PathAttr::Unknown { flags, code, value } => {
                    a.extra.push((*code, flags.0, value.clone()))
                }
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

    /// Serialize the natively understood attributes back to the neutral
    /// form (used when building outgoing UPDATEs). `extra` attributes are
    /// deliberately *not* included — see the field documentation.
    pub fn to_wire(&self) -> Vec<PathAttr> {
        let mut out = vec![
            PathAttr::Origin(self.origin),
            PathAttr::AsPath(self.as_path.clone()),
            PathAttr::NextHop(self.next_hop),
        ];
        if let Some(m) = self.med {
            out.push(PathAttr::Med(m));
        }
        if let Some(lp) = self.local_pref {
            out.push(PathAttr::LocalPref(lp));
        }
        if !self.communities.is_empty() {
            out.push(PathAttr::Communities(self.communities.clone()));
        }
        if let Some(id) = self.originator_id {
            out.push(PathAttr::OriginatorId(id));
        }
        if !self.cluster_list.is_empty() {
            out.push(PathAttr::ClusterList(self.cluster_list.clone()));
        }
        out
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
        let flags = match code {
            1 => {
                body.push(self.origin as u8);
                AttrFlags::WELL_KNOWN.0
            }
            2 => {
                self.as_path.encode_body(body, 4);
                AttrFlags::WELL_KNOWN.0
            }
            3 => {
                body.extend_from_slice(&self.next_hop.to_be_bytes());
                AttrFlags::WELL_KNOWN.0
            }
            4 => {
                body.extend_from_slice(&self.med?.to_be_bytes());
                AttrCode::Med.canonical_flags().0
            }
            5 => {
                body.extend_from_slice(&self.local_pref?.to_be_bytes());
                AttrFlags::WELL_KNOWN.0
            }
            8 => {
                if self.communities.is_empty() {
                    return None;
                }
                for c in &self.communities {
                    body.extend_from_slice(&c.to_be_bytes());
                }
                AttrCode::Communities.canonical_flags().0
            }
            9 => {
                body.extend_from_slice(&self.originator_id?.to_be_bytes());
                AttrCode::OriginatorId.canonical_flags().0
            }
            10 => {
                if self.cluster_list.is_empty() {
                    return None;
                }
                for c in &self.cluster_list {
                    body.extend_from_slice(&c.to_be_bytes());
                }
                AttrCode::ClusterList.canonical_flags().0
            }
            other => {
                let (_, flags, value) = self.extra.iter().find(|(c, _, _)| *c == other)?;
                body.extend_from_slice(value);
                *flags
            }
        };
        Some(flags)
    }

    /// Does this attribute set carry `code`? Existence check without
    /// marshalling the payload (backs the xBGP `add_attr` helper).
    pub fn has_neutral(&self, code: u8) -> bool {
        match code {
            1..=3 => true,
            4 => self.med.is_some(),
            5 => self.local_pref.is_some(),
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
            8 => self.communities.clear(),
            9 => self.originator_id = None,
            10 => self.cluster_list.clear(),
            other => self.extra.retain(|(c, _, _)| *c != other),
        }
        true
    }

    /// Encode the `extra` attributes as raw TLVs (what a native FRR cannot
    /// do — used only by tests comparing against extension-written output).
    pub fn encode_extra_tlvs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (code, flags, value) in &self.extra {
            encode_attr_tlv(&mut out, AttrFlags(*flags), *code, value);
        }
        out
    }
}

/// FRR-style attribute interning (hash-consing) table.
///
/// `intern` returns a shared pointer to the canonical copy of an attribute
/// set; identical sets share storage. The table never shrinks during a
/// session, like FRR's `attrhash` between `bgp_attr_unintern` sweeps —
/// adequate for the experiment lifetimes here.
#[derive(Debug, Default)]
pub struct AttrInternTable {
    table: HashMap<Rc<FirAttrs>, ()>,
}

impl AttrInternTable {
    pub fn new() -> AttrInternTable {
        AttrInternTable::default()
    }

    /// Intern a set, returning the canonical shared copy. The set is
    /// hashed once, hit or miss.
    pub fn intern(&mut self, attrs: FirAttrs) -> Rc<FirAttrs> {
        match self.table.entry(Rc::new(attrs)) {
            Entry::Occupied(e) => Rc::clone(e.key()),
            Entry::Vacant(e) => {
                let rc = Rc::clone(e.key());
                e.insert(());
                rc
            }
        }
    }

    /// Number of distinct attribute sets interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // But the raw TLV encoder (for extension comparison) has them.
        assert!(!parsed.encode_extra_tlvs().is_empty());
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
    }
}
