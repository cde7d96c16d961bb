//! BIRD-style extended attribute lists.
//!
//! An [`EaList`] has BIRD's `ea_list` layout: one block holding every
//! attribute's raw network-byte-order payload back to back, and a small
//! index of `(code, flags, end of payload)` kept sorted by code. A list
//! is made by copying a validated UPDATE's attribute section into the
//! block ([`EaList::parse_section`], over the section parser both engines
//! share, [`stored_attrs`]) and goes back out by writing the block into
//! the frame ([`EaList::write_attrs`]); typed information is decoded on
//! demand by accessors, and nothing is parsed up front beyond the TLV
//! framing. This is the representation the paper credits for BIRD's
//! cheap xBGP integration: the neutral form *is* the stored form.

use xbgp_wire::attr::{
    check_attrs, encode_attrs, encode_stored, stored_attrs, AttrCode, AttrFlags, Origin,
    RawAttrIter,
};
use xbgp_wire::{AsPath, PathAttr, WireError};

/// One attribute of a list, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ea<'a> {
    pub code: u8,
    pub flags: u8,
    /// Raw payload, network byte order.
    pub raw: &'a [u8],
}

/// An index entry: the payload of entry `i` is `block[end of i-1 .. end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Slot {
    code: u8,
    flags: u8,
    end: u32,
}

/// A code-sorted list of attributes. Payloads sit in the block in index
/// order with nothing between them, so equal lists are equal field by
/// field.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EaList {
    index: Vec<Slot>,
    block: Vec<u8>,
}

/// `(index entries, payload octets)` the export transform may add to
/// the copy it edits: a LOCAL_PREF, an ORIGINATOR_ID and a CLUSTER_LIST,
/// or one AS_PATH segment.
const EXPORT_ROOM: (usize, usize) = (3, 12);

fn be32(b: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes([*b.first()?, *b.get(1)?, *b.get(2)?, *b.get(3)?]))
}

impl EaList {
    pub fn new() -> EaList {
        EaList::default()
    }

    /// Copy the attribute section of an UPDATE validated at `asn_width`
    /// into one block, in the stored form [`stored_attrs`] defines
    /// (payloads widened to the neutral 4-octet form by
    /// [`xbgp_wire::attr::RawAttr::stored_payload_into`]). Checks the RFC 4271 mandatory
    /// attributes.
    pub fn parse_section(section: &[u8], asn_width: usize) -> Result<EaList, WireError> {
        let mut list = EaList {
            index: Vec::with_capacity(RawAttrIter::new(section).count()),
            block: Vec::with_capacity(section.len()),
        };
        for raw in stored_attrs(section) {
            list.put(raw.code, raw.flags.0, |block| raw.stored_payload_into(asn_width, block));
        }
        if list.get(1).is_none() {
            return Err(WireError::MissingWellKnown("ORIGIN"));
        }
        if list.get(3).is_none() {
            return Err(WireError::MissingWellKnown("NEXT_HOP"));
        }
        Ok(list)
    }

    /// Build from the neutral typed form: [`EaList::parse_section`] over
    /// the attributes' 4-octet encoding.
    pub fn from_wire(attrs: &[PathAttr]) -> Result<EaList, WireError> {
        let section = encode_attrs(attrs, 4);
        check_attrs(&section, 4)?;
        EaList::parse_section(&section, 4)
    }

    /// A copy with room for the attributes an export transform adds, so
    /// editing it does not reallocate.
    pub fn clone_for_export(&self) -> EaList {
        let (slots, bytes) = EXPORT_ROOM;
        let mut index = Vec::with_capacity(self.index.len() + slots);
        index.extend_from_slice(&self.index);
        let mut block = Vec::with_capacity(self.block.len() + bytes);
        block.extend_from_slice(&self.block);
        EaList { index, block }
    }

    fn find(&self, code: u8) -> Result<usize, usize> {
        self.index.binary_search_by_key(&code, |s| s.code)
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.index[prev].end as usize)
    }

    fn entry(&self, i: usize) -> Ea<'_> {
        let Slot { code, flags, end } = self.index[i];
        Ea { code, flags, raw: &self.block[self.start(i)..end as usize] }
    }

    /// Find attribute by code.
    pub fn get(&self, code: u8) -> Option<Ea<'_>> {
        self.find(code).ok().map(|i| self.entry(i))
    }

    /// Insert or replace `code` with the payload `write` appends to the
    /// block: written at the end, then rotated into its place.
    fn put(&mut self, code: u8, flags: u8, write: impl FnOnce(&mut Vec<u8>)) {
        let i = match self.find(code) {
            Ok(i) => {
                self.remove_at(i);
                i
            }
            Err(i) => i,
        };
        let (at, before) = (self.start(i), self.block.len());
        write(&mut self.block);
        let len = self.block.len() - before;
        self.block[at..].rotate_right(len);
        self.shift_ends(i, len as i64);
        self.index.insert(i, Slot { code, flags, end: (at + len) as u32 });
    }

    fn remove_at(&mut self, i: usize) {
        let (start, end) = (self.start(i), self.index[i].end as usize);
        self.block.drain(start..end);
        self.index.remove(i);
        self.shift_ends(i, -((end - start) as i64));
    }

    /// Move the payload ends of entries `i..` by `by` octets.
    fn shift_ends(&mut self, i: usize, by: i64) {
        for s in &mut self.index[i..] {
            s.end = (i64::from(s.end) + by) as u32;
        }
    }

    /// Insert `bytes` into the payload of `code`, which is present, at
    /// octet `offset`.
    fn splice(&mut self, code: u8, offset: usize, bytes: &[u8]) {
        let Ok(i) = self.find(code) else { return };
        let at = self.start(i) + offset;
        self.block.splice(at..at, bytes.iter().copied());
        self.shift_ends(i, bytes.len() as i64);
    }

    /// Insert or replace an attribute (BIRD's `ea_set_attr`).
    pub fn set(&mut self, code: u8, flags: u8, raw: &[u8]) {
        self.put(code, flags, |block| block.extend_from_slice(raw));
    }

    /// Remove an attribute; true if it was present.
    pub fn unset(&mut self, code: u8) -> bool {
        match self.find(code) {
            Ok(i) => {
                self.remove_at(i);
                true
            }
            Err(_) => false,
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = Ea<'_>> {
        (0..self.index.len()).map(|i| self.entry(i))
    }

    // ----- typed accessors (decode on demand) -----

    pub fn origin(&self) -> Option<Origin> {
        Origin::from_u8(*self.get(1)?.raw.first()?).ok()
    }

    pub fn as_path(&self) -> AsPath {
        self.get(2).and_then(|e| AsPath::decode_body(e.raw, 4).ok()).unwrap_or_default()
    }

    /// AS-path hop count without building an [`AsPath`] (scans the raw
    /// segments, BIRD's `as_path_getlen` style).
    pub fn as_path_hops(&self) -> usize {
        let Some(e) = self.get(2) else { return 0 };
        let mut buf = e.raw;
        let mut hops = 0;
        while buf.len() >= 2 {
            let ty = buf[0];
            let count = usize::from(buf[1]);
            hops += if ty == 1 { 1 } else { count }; // SET counts one
            let body = 2 + count * 4;
            if buf.len() < body {
                break;
            }
            buf = &buf[body..];
        }
        hops
    }

    /// Origin AS: last ASN of the raw path if it ends in a SEQUENCE.
    pub fn origin_asn(&self) -> Option<u32> {
        let e = self.get(2)?;
        let mut buf = e.raw;
        let mut last: Option<u32> = None;
        while buf.len() >= 2 {
            let ty = buf[0];
            let count = usize::from(buf[1]);
            let body = 2 + count * 4;
            if buf.len() < body {
                return None;
            }
            last = if ty == 2 && count > 0 {
                be32(&buf[2 + (count - 1) * 4..])
            } else {
                None
            };
            buf = &buf[body..];
        }
        last
    }

    /// Does the raw AS path contain `asn`? (loop detection)
    pub fn as_path_contains(&self, asn: u32) -> bool {
        let Some(e) = self.get(2) else { return false };
        let mut buf = e.raw;
        while buf.len() >= 2 {
            let count = usize::from(buf[1]);
            let body = 2 + count * 4;
            if buf.len() < body {
                return false;
            }
            for i in 0..count {
                if be32(&buf[2 + i * 4..]) == Some(asn) {
                    return true;
                }
            }
            buf = &buf[body..];
        }
        false
    }

    /// Prepend `asn` to the raw AS path in place (eBGP export).
    pub fn as_path_prepend(&mut self, asn: u32) {
        match self.find(2) {
            Ok(i) if matches!(self.entry(i).raw, [2, n, ..] if *n < 255) => {
                let at = self.start(i);
                self.block[at + 1] += 1;
                self.splice(2, 2, &asn.to_be_bytes());
            }
            Ok(_) => {
                let [a, b, c, d] = asn.to_be_bytes();
                self.splice(2, 0, &[2, 1, a, b, c, d]);
            }
            Err(_) => {
                let [a, b, c, d] = asn.to_be_bytes();
                self.set(2, AttrFlags::WELL_KNOWN.0, &[2, 1, a, b, c, d]);
            }
        }
    }

    pub fn next_hop(&self) -> Option<u32> {
        be32(self.get(3)?.raw)
    }

    pub fn set_next_hop(&mut self, nh: u32) {
        self.set(3, AttrFlags::WELL_KNOWN.0, &nh.to_be_bytes());
    }

    pub fn med(&self) -> Option<u32> {
        be32(self.get(4)?.raw)
    }

    pub fn local_pref(&self) -> Option<u32> {
        be32(self.get(5)?.raw)
    }

    pub fn set_local_pref(&mut self, lp: u32) {
        self.set(5, AttrFlags::WELL_KNOWN.0, &lp.to_be_bytes());
    }

    pub fn originator_id(&self) -> Option<u32> {
        be32(self.get(9)?.raw)
    }

    pub fn cluster_list(&self) -> Vec<u32> {
        self.get(10)
            .map(|e| e.raw.chunks_exact(4).filter_map(be32).collect())
            .unwrap_or_default()
    }

    pub fn cluster_list_contains(&self, id: u32) -> bool {
        self.get(10).is_some_and(|e| e.raw.chunks_exact(4).any(|c| be32(c) == Some(id)))
    }

    /// Prepend a cluster id to the raw CLUSTER_LIST.
    pub fn cluster_list_prepend(&mut self, id: u32) {
        if self.get(10).is_some() {
            self.splice(10, 0, &id.to_be_bytes());
        } else {
            self.set(10, AttrFlags::OPT_NON_TRANS.0, &id.to_be_bytes());
        }
    }

    /// Write the attributes WREN advertises natively — the modelled codes
    /// 1–10, in code order — straight from the block as TLVs for a
    /// session `asn_width` octets wide ([`encode_stored`]). Every other
    /// code is extension territory, emitted only by the encode-message
    /// insertion point, as FIR does.
    pub fn write_attrs(&self, out: &mut Vec<u8>, asn_width: usize) {
        for ea in self.iter().filter(|ea| AttrCode::from_u8(ea.code).is_some()) {
            encode_stored(out, ea.code, ea.flags, ea.raw, asn_width);
        }
    }

    /// The natively advertised attributes in the neutral typed form:
    /// [`EaList::write_attrs`] at width 4, decoded.
    pub fn to_wire(&self) -> Vec<PathAttr> {
        let mut section = Vec::new();
        self.write_attrs(&mut section, 4);
        let attrs = RawAttrIter::new(&section).map_while(Result::ok);
        attrs.map(|raw| PathAttr::from_valid(&raw, 4)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_wire::AsPath;

    fn sample() -> EaList {
        EaList::from_wire(&[
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![65001, 65002])),
            PathAttr::NextHop(0x0a00_0001),
            PathAttr::Med(50),
        ])
        .unwrap()
    }

    #[test]
    fn list_is_sorted_and_searchable() {
        let l = sample();
        let codes: Vec<u8> = l.iter().map(|e| e.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        assert!(l.get(2).is_some());
        assert!(l.get(5).is_none());
    }

    #[test]
    fn mandatory_attrs_enforced() {
        assert!(EaList::from_wire(&[PathAttr::NextHop(1)]).is_err());
        assert!(EaList::from_wire(&[PathAttr::Origin(Origin::Igp)]).is_err());
    }

    #[test]
    fn typed_accessors_decode_lazily() {
        let l = sample();
        assert_eq!(l.origin(), Some(Origin::Igp));
        assert_eq!(l.next_hop(), Some(0x0a00_0001));
        assert_eq!(l.med(), Some(50));
        assert_eq!(l.local_pref(), None);
        assert_eq!(l.as_path_hops(), 2);
        assert_eq!(l.origin_asn(), Some(65002));
        assert!(l.as_path_contains(65001));
        assert!(!l.as_path_contains(7));
    }

    #[test]
    fn raw_prepend_matches_typed_prepend() {
        let mut l = sample();
        l.as_path_prepend(65000);
        assert_eq!(l.as_path_hops(), 3);
        assert_eq!(
            l.as_path(),
            AsPath::sequence(vec![65000, 65001, 65002]),
            "raw in-place prepend must equal the typed operation"
        );
        // Prepending onto an empty path creates a fresh segment.
        let mut empty = EaList::new();
        empty.as_path_prepend(7);
        assert_eq!(empty.as_path(), AsPath::sequence(vec![7]));
    }

    #[test]
    fn set_and_unset() {
        let mut l = sample();
        l.set_local_pref(300);
        assert_eq!(l.local_pref(), Some(300));
        l.set(66, 0xc0, &[1, 2, 3]);
        assert_eq!(l.get(66).unwrap().raw, [1, 2, 3]);
        assert!(l.unset(66));
        assert!(!l.unset(66));
    }

    /// Edits keep the block packed in index order: a list edited into
    /// some contents equals the list built with those contents, so
    /// equality and hashing (the export path groups by them) see
    /// contents only.
    #[test]
    fn edits_keep_the_block_packed() {
        let mut edited = sample();
        edited.set(4, 0x80, &[9, 9, 9, 9, 9, 9]);
        edited.set(66, 0xc0, &[7]);
        edited.set(4, 0x80, &77u32.to_be_bytes());
        edited.cluster_list_prepend(5);
        edited.as_path_prepend(64512);
        assert!(edited.unset(66));
        let mut built = EaList::from_wire(&[
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![64512, 65001, 65002])),
            PathAttr::NextHop(0x0a00_0001),
            PathAttr::Med(77),
            PathAttr::ClusterList(vec![5]),
        ])
        .unwrap();
        assert_eq!(edited, built);
        built.set(9, 0x80, &[1, 2, 3, 4]);
        assert_ne!(edited, built);
    }

    #[test]
    fn cluster_list_operations_on_raw_bytes() {
        let mut l = sample();
        assert!(l.cluster_list().is_empty());
        l.cluster_list_prepend(7);
        l.cluster_list_prepend(9);
        assert_eq!(l.cluster_list(), vec![9, 7]);
        assert!(l.cluster_list_contains(7));
        assert!(!l.cluster_list_contains(8));
    }

    #[test]
    fn to_wire_round_trips_known_attrs_and_hides_extensions() {
        let mut l = sample();
        l.set(66, 0xc0, &[9, 9]);
        let wire = l.to_wire();
        assert_eq!(wire.len(), 4, "codes 1-4 emitted, 66 withheld");
        let back = EaList::from_wire(&wire).unwrap();
        assert_eq!(back.next_hop(), l.next_hop());
        assert_eq!(back.as_path(), l.as_path());
        // Extension attrs stay readable for the encode point.
        assert_eq!(l.get(66), Some(Ea { code: 66, flags: 0xc0, raw: &[9, 9] }));
    }

    #[test]
    fn malformed_as_path_in_from_wire_rejected() {
        // Typed attributes cannot carry a malformed AS_PATH; verify
        // accessor robustness on a corrupt raw path instead.
        let mut l = sample();
        l.set(2, 0x40, &[2, 200, 1, 2, 3]); // claims 200 ASNs, has 1
        assert_eq!(l.origin_asn(), None);
        assert!(!l.as_path_contains(1));
    }
}
