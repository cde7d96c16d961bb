//! BGP path attributes: typed representation, raw views, and wire codec.
//!
//! Two levels of access are provided, matching how xBGP programs and host
//! implementations see attributes:
//!
//! * [`PathAttr`] — fully decoded, typed attributes used by the daemons'
//!   neutral boundary.
//! * [`RawAttr`] / [`RawAttrIter`] — zero-copy views over the wire bytes,
//!   used by the xBGP `get_attr` helper so extension code can read
//!   attributes in network byte order without the host parsing them first.

use crate::error::WireError;
use std::fmt;

/// Attribute flag octet bits (RFC 4271 §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrFlags(pub u8);

impl AttrFlags {
    /// Optional (bit 0 set) vs well-known.
    pub const OPTIONAL: u8 = 0x80;
    /// Transitive.
    pub const TRANSITIVE: u8 = 0x40;
    /// Partial (set when an unrecognised optional transitive passed through).
    pub const PARTIAL: u8 = 0x20;
    /// Extended (two-octet) length field.
    pub const EXT_LEN: u8 = 0x10;

    /// Flags for a well-known mandatory attribute.
    pub const WELL_KNOWN: AttrFlags = AttrFlags(Self::TRANSITIVE);
    /// Flags for an optional transitive attribute.
    pub const OPT_TRANS: AttrFlags = AttrFlags(Self::OPTIONAL | Self::TRANSITIVE);
    /// Flags for an optional non-transitive attribute.
    pub const OPT_NON_TRANS: AttrFlags = AttrFlags(Self::OPTIONAL);

    pub fn is_optional(self) -> bool {
        self.0 & Self::OPTIONAL != 0
    }
    pub fn is_transitive(self) -> bool {
        self.0 & Self::TRANSITIVE != 0
    }
    pub fn is_partial(self) -> bool {
        self.0 & Self::PARTIAL != 0
    }
    pub fn has_ext_len(self) -> bool {
        self.0 & Self::EXT_LEN != 0
    }

    /// Return a copy with the PARTIAL bit set.
    pub fn with_partial(self) -> AttrFlags {
        AttrFlags(self.0 | Self::PARTIAL)
    }
}

/// Well-known attribute type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AttrCode {
    Origin = 1,
    AsPath = 2,
    NextHop = 3,
    Med = 4,
    LocalPref = 5,
    AtomicAggregate = 6,
    Aggregator = 7,
    Communities = 8,
    OriginatorId = 9,
    ClusterList = 10,
}

impl AttrCode {
    /// Canonical flag octet for this attribute type (without EXT_LEN).
    pub fn canonical_flags(self) -> AttrFlags {
        match self {
            AttrCode::Origin
            | AttrCode::AsPath
            | AttrCode::NextHop
            | AttrCode::LocalPref
            | AttrCode::AtomicAggregate => AttrFlags::WELL_KNOWN,
            AttrCode::Med | AttrCode::OriginatorId | AttrCode::ClusterList => {
                AttrFlags::OPT_NON_TRANS
            }
            AttrCode::Aggregator | AttrCode::Communities => AttrFlags::OPT_TRANS,
        }
    }
}

/// ORIGIN attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Origin {
    /// Learned from an IGP (best).
    Igp = 0,
    /// Learned from EGP.
    Egp = 1,
    /// Incomplete (worst).
    Incomplete = 2,
}

impl Origin {
    pub fn from_u8(v: u8) -> Result<Origin, WireError> {
        match v {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(WireError::InvalidOrigin(v)),
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsSegment {
    /// Ordered sequence of ASNs.
    Sequence(Vec<u32>),
    /// Unordered set of ASNs (from aggregation).
    Set(Vec<u32>),
}

impl AsSegment {
    /// ASNs in the segment regardless of kind.
    pub fn asns(&self) -> &[u32] {
        match self {
            AsSegment::Sequence(v) | AsSegment::Set(v) => v,
        }
    }

    /// RFC 4271 path-length contribution: a SET counts as 1, a SEQUENCE as
    /// its number of elements.
    pub fn hop_count(&self) -> usize {
        match self {
            AsSegment::Sequence(v) => v.len(),
            AsSegment::Set(_) => 1,
        }
    }
}

/// The AS_PATH attribute: an ordered list of segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    pub segments: Vec<AsSegment>,
}

impl AsPath {
    /// Empty path (locally originated route).
    pub fn empty() -> AsPath {
        AsPath { segments: Vec::new() }
    }

    /// A single-sequence path.
    pub fn sequence(asns: Vec<u32>) -> AsPath {
        if asns.is_empty() {
            AsPath::empty()
        } else {
            AsPath { segments: vec![AsSegment::Sequence(asns)] }
        }
    }

    /// RFC 4271 §9.1.2.2 path length used by the decision process.
    pub fn hop_count(&self) -> usize {
        self.segments.iter().map(AsSegment::hop_count).sum()
    }

    /// All ASNs in traversal order (sets flattened).
    pub fn asns(&self) -> impl Iterator<Item = u32> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// Does the path contain `asn` anywhere? Used for loop detection.
    pub fn contains(&self, asn: u32) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// First (most recently prepended) ASN, i.e. the neighbouring AS.
    pub fn first_asn(&self) -> Option<u32> {
        self.segments.first().and_then(|s| match s {
            AsSegment::Sequence(v) => v.first().copied(),
            AsSegment::Set(v) => v.first().copied(),
        })
    }

    /// Last ASN: the origin AS of the route (None for AS_SET-terminated or
    /// empty paths, matching RPKI origin-validation rules).
    pub fn origin_asn(&self) -> Option<u32> {
        match self.segments.last() {
            Some(AsSegment::Sequence(v)) => v.last().copied(),
            _ => None,
        }
    }

    /// Return a copy with `asn` prepended (as done when advertising over
    /// an eBGP session).
    pub fn prepend(&self, asn: u32) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(AsSegment::Sequence(v)) if v.len() < 255 => v.insert(0, asn),
            _ => segments.insert(0, AsSegment::Sequence(vec![asn])),
        }
        AsPath { segments }
    }

    /// Iterate over consecutive (a, b) pairs of the flattened path; the
    /// valley-free data-centre filter (paper §3.3) checks these pairs.
    pub fn consecutive_pairs(&self) -> Vec<(u32, u32)> {
        let flat: Vec<u32> = self.asns().collect();
        flat.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Encode the attribute body with the given ASN width (2 or 4 octets).
    pub fn encode_body(&self, out: &mut Vec<u8>, asn_width: usize) {
        debug_assert!(asn_width == 2 || asn_width == 4);
        for seg in &self.segments {
            let (ty, asns) = match seg {
                AsSegment::Set(v) => (1u8, v),
                AsSegment::Sequence(v) => (2u8, v),
            };
            out.push(ty);
            out.push(asns.len() as u8);
            for &a in asns {
                if asn_width == 4 {
                    out.extend_from_slice(&a.to_be_bytes());
                } else {
                    out.extend_from_slice(&(a.min(u32::from(u16::MAX)) as u16).to_be_bytes());
                }
            }
        }
    }

    /// Decode the attribute body with the given ASN width.
    pub fn decode_body(mut buf: &[u8], asn_width: usize) -> Result<AsPath, WireError> {
        // A hard check, not a debug_assert: with any other width the octet
        // arithmetic below would index out of bounds on untrusted input.
        if asn_width != 2 && asn_width != 4 {
            return Err(WireError::MalformedAsPath);
        }
        let mut segments = Vec::new();
        while !buf.is_empty() {
            if buf.len() < 2 {
                return Err(WireError::MalformedAsPath);
            }
            let ty = buf[0];
            let count = usize::from(buf[1]);
            let body_len = count * asn_width;
            if buf.len() < 2 + body_len {
                return Err(WireError::MalformedAsPath);
            }
            let mut asns = Vec::with_capacity(count);
            for i in 0..count {
                let off = 2 + i * asn_width;
                let a = if asn_width == 4 {
                    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
                } else {
                    u32::from(u16::from_be_bytes([buf[off], buf[off + 1]]))
                };
                asns.push(a);
            }
            segments.push(match ty {
                1 => AsSegment::Set(asns),
                2 => AsSegment::Sequence(asns),
                _ => return Err(WireError::MalformedAsPath),
            });
            buf = &buf[2 + body_len..];
        }
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(u32::to_string).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(u32::to_string).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// A fully decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathAttr {
    Origin(Origin),
    AsPath(AsPath),
    /// Next hop address in host byte order.
    NextHop(u32),
    Med(u32),
    LocalPref(u32),
    AtomicAggregate,
    /// Aggregating AS and router id.
    Aggregator {
        asn: u32,
        router_id: u32,
    },
    Communities(Vec<u32>),
    OriginatorId(u32),
    ClusterList(Vec<u32>),
    /// Any attribute this codec does not model natively — preserved verbatim
    /// so optional transitive attributes (like xBGP's GeoLoc) survive a hop
    /// through a daemon that does not understand them.
    Unknown {
        flags: AttrFlags,
        code: u8,
        value: Vec<u8>,
    },
}

impl PathAttr {
    /// The wire type code of this attribute.
    pub fn code(&self) -> u8 {
        match self {
            PathAttr::Origin(_) => AttrCode::Origin as u8,
            PathAttr::AsPath(_) => AttrCode::AsPath as u8,
            PathAttr::NextHop(_) => AttrCode::NextHop as u8,
            PathAttr::Med(_) => AttrCode::Med as u8,
            PathAttr::LocalPref(_) => AttrCode::LocalPref as u8,
            PathAttr::AtomicAggregate => AttrCode::AtomicAggregate as u8,
            PathAttr::Aggregator { .. } => AttrCode::Aggregator as u8,
            PathAttr::Communities(_) => AttrCode::Communities as u8,
            PathAttr::OriginatorId(_) => AttrCode::OriginatorId as u8,
            PathAttr::ClusterList(_) => AttrCode::ClusterList as u8,
            PathAttr::Unknown { code, .. } => *code,
        }
    }

    /// The flag octet this attribute is encoded with.
    pub fn flags(&self) -> AttrFlags {
        match self {
            PathAttr::Unknown { flags, .. } => *flags,
            PathAttr::Origin(_) => AttrCode::Origin.canonical_flags(),
            PathAttr::AsPath(_) => AttrCode::AsPath.canonical_flags(),
            PathAttr::NextHop(_) => AttrCode::NextHop.canonical_flags(),
            PathAttr::Med(_) => AttrCode::Med.canonical_flags(),
            PathAttr::LocalPref(_) => AttrCode::LocalPref.canonical_flags(),
            PathAttr::AtomicAggregate => AttrCode::AtomicAggregate.canonical_flags(),
            PathAttr::Aggregator { .. } => AttrCode::Aggregator.canonical_flags(),
            PathAttr::Communities(_) => AttrCode::Communities.canonical_flags(),
            PathAttr::OriginatorId(_) => AttrCode::OriginatorId.canonical_flags(),
            PathAttr::ClusterList(_) => AttrCode::ClusterList.canonical_flags(),
        }
    }

    /// Encode the attribute body only (no flags/code/length header).
    pub fn encode_body(&self, out: &mut Vec<u8>, asn_width: usize) {
        match self {
            PathAttr::Origin(o) => out.push(*o as u8),
            PathAttr::AsPath(p) => p.encode_body(out, asn_width),
            PathAttr::NextHop(nh) => out.extend_from_slice(&nh.to_be_bytes()),
            PathAttr::Med(v) | PathAttr::LocalPref(v) | PathAttr::OriginatorId(v) => {
                out.extend_from_slice(&v.to_be_bytes())
            }
            PathAttr::AtomicAggregate => {}
            PathAttr::Aggregator { asn, router_id } => {
                out.extend_from_slice(&asn.to_be_bytes());
                out.extend_from_slice(&router_id.to_be_bytes());
            }
            PathAttr::Communities(cs) => {
                for c in cs {
                    out.extend_from_slice(&c.to_be_bytes());
                }
            }
            PathAttr::ClusterList(cl) => {
                for c in cl {
                    out.extend_from_slice(&c.to_be_bytes());
                }
            }
            PathAttr::Unknown { value, .. } => out.extend_from_slice(value),
        }
    }

    /// Encode the full TLV (flags, code, length, body).
    pub fn encode(&self, out: &mut Vec<u8>, asn_width: usize) {
        let mut body = Vec::new();
        self.encode_body(&mut body, asn_width);
        encode_attr_tlv(out, self.flags(), self.code(), &body);
    }

    /// Decode one attribute from a raw view.
    pub fn decode(raw: &RawAttr<'_>, asn_width: usize) -> Result<PathAttr, WireError> {
        let code = raw.code;
        let v = raw.value;
        let fixed = |want: usize| -> Result<(), WireError> {
            if v.len() == want {
                Ok(())
            } else {
                Err(WireError::AttributeLength { code, len: v.len() })
            }
        };
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        Ok(match code {
            1 => {
                fixed(1)?;
                PathAttr::Origin(Origin::from_u8(v[0])?)
            }
            2 => PathAttr::AsPath(AsPath::decode_body(v, asn_width)?),
            3 => {
                fixed(4)?;
                PathAttr::NextHop(be32(v))
            }
            4 => {
                fixed(4)?;
                PathAttr::Med(be32(v))
            }
            5 => {
                fixed(4)?;
                PathAttr::LocalPref(be32(v))
            }
            6 => {
                fixed(0)?;
                PathAttr::AtomicAggregate
            }
            7 => {
                // 4-octet-AS form: 4 + 4; legacy form: 2 + 4.
                match v.len() {
                    8 => PathAttr::Aggregator { asn: be32(&v[0..4]), router_id: be32(&v[4..8]) },
                    6 => PathAttr::Aggregator {
                        asn: u32::from(u16::from_be_bytes([v[0], v[1]])),
                        router_id: be32(&v[2..6]),
                    },
                    len => return Err(WireError::AttributeLength { code, len }),
                }
            }
            8 => {
                if !v.len().is_multiple_of(4) {
                    return Err(WireError::AttributeLength { code, len: v.len() });
                }
                PathAttr::Communities(v.chunks_exact(4).map(be32).collect())
            }
            9 => {
                fixed(4)?;
                PathAttr::OriginatorId(be32(v))
            }
            10 => {
                if !v.len().is_multiple_of(4) {
                    return Err(WireError::AttributeLength { code, len: v.len() });
                }
                PathAttr::ClusterList(v.chunks_exact(4).map(be32).collect())
            }
            _ => PathAttr::Unknown {
                // EXT_LEN is a property of the encoding, not of the
                // attribute; strip it so round-tripping is stable.
                flags: AttrFlags(raw.flags.0 & !AttrFlags::EXT_LEN),
                code,
                value: v.to_vec(),
            },
        })
    }
}

/// Append one attribute TLV with the given flag octet, picking the extended
/// length form automatically when the body exceeds 255 octets.
pub fn encode_attr_tlv(out: &mut Vec<u8>, flags: AttrFlags, code: u8, body: &[u8]) {
    let mut fl = flags.0 & !AttrFlags::EXT_LEN;
    if body.len() > 255 {
        fl |= AttrFlags::EXT_LEN;
    }
    out.push(fl);
    out.push(code);
    if body.len() > 255 {
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    } else {
        out.push(body.len() as u8);
    }
    out.extend_from_slice(body);
}

/// A zero-copy view of one attribute TLV on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAttr<'a> {
    pub flags: AttrFlags,
    pub code: u8,
    pub value: &'a [u8],
}

impl<'a> RawAttr<'a> {
    /// Decode one TLV from the front of `buf`, returning the view and the
    /// total octets consumed (header + body).
    pub fn decode(buf: &'a [u8]) -> Result<(RawAttr<'a>, usize), WireError> {
        if buf.len() < 3 {
            return Err(WireError::Truncated { what: "attribute header" });
        }
        let flags = AttrFlags(buf[0]);
        let code = buf[1];
        let (len, hdr) = if flags.has_ext_len() {
            if buf.len() < 4 {
                return Err(WireError::Truncated { what: "attribute ext length" });
            }
            (usize::from(u16::from_be_bytes([buf[2], buf[3]])), 4)
        } else {
            (usize::from(buf[2]), 3)
        };
        if buf.len() < hdr + len {
            return Err(WireError::Truncated { what: "attribute body" });
        }
        Ok((RawAttr { flags, code, value: &buf[hdr..hdr + len] }, hdr + len))
    }
}

/// Iterator over the attribute TLVs packed in an UPDATE's path-attribute
/// section. Yields `Err` once (and then stops) if the section is malformed.
pub struct RawAttrIter<'a> {
    buf: &'a [u8],
    failed: bool,
}

impl<'a> RawAttrIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        RawAttrIter { buf, failed: false }
    }
}

impl<'a> Iterator for RawAttrIter<'a> {
    type Item = Result<RawAttr<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.buf.is_empty() {
            return None;
        }
        match RawAttr::decode(self.buf) {
            Ok((attr, used)) => {
                self.buf = &self.buf[used..];
                Some(Ok(attr))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Decode a packed attribute section into typed attributes.
pub fn decode_attrs(buf: &[u8], asn_width: usize) -> Result<Vec<PathAttr>, WireError> {
    let mut out = Vec::new();
    for raw in RawAttrIter::new(buf) {
        out.push(PathAttr::decode(&raw?, asn_width)?);
    }
    Ok(out)
}

/// Encode typed attributes into a packed attribute section.
pub fn encode_attrs(attrs: &[PathAttr], asn_width: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for a in attrs {
        a.encode(&mut out, asn_width);
    }
    out
}

/// Would `value`, a network-byte-order payload, convert into attribute
/// `code`? The stage-time check behind xBGP `set_attr`: the VMM's host
/// context calls it before buffering the write, and every attribute store
/// refuses what it refuses, so a later commit cannot fail on a malformed
/// payload and no two hosts disagree on what they accept. Codes the
/// daemons do not model natively carry any payload. Reasons have no
/// `attribute {code}:` prefix; the caller wraps them in a typed error.
pub fn validate_neutral(code: u8, value: &[u8]) -> Result<(), String> {
    let need = |n: usize| -> Result<(), String> {
        if value.len() == n {
            Ok(())
        } else {
            Err(format!("expected {n} bytes, got {}", value.len()))
        }
    };
    match code {
        1 => {
            need(1)?;
            Origin::from_u8(value[0]).map_err(|e| e.to_string())?;
        }
        2 => {
            AsPath::decode_body(value, 4).map_err(|e| e.to_string())?;
        }
        3..=5 | 9 => need(4)?,
        8 | 10 if !value.len().is_multiple_of(4) => {
            return Err("payload not a multiple of 4".into());
        }
        _ => {}
    }
    Ok(())
}

/// The flag octet a route keeps for `code` when a caller hands it
/// `flags`: RFC 4271 and RFC 1997/4456 fix the flags of the attributes
/// both daemons model (1–5, 8–10), so those are canonical whatever was
/// passed; any other code keeps `flags`.
pub fn stored_flags(code: u8, flags: u8) -> u8 {
    let code = match code {
        1 => AttrCode::Origin,
        2 => AttrCode::AsPath,
        3 => AttrCode::NextHop,
        4 => AttrCode::Med,
        5 => AttrCode::LocalPref,
        8 => AttrCode::Communities,
        9 => AttrCode::OriginatorId,
        10 => AttrCode::ClusterList,
        _ => return flags,
    };
    code.canonical_flags().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(attr: PathAttr) -> PathAttr {
        let mut buf = Vec::new();
        attr.encode(&mut buf, 4);
        let (raw, used) = RawAttr::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        PathAttr::decode(&raw, 4).unwrap()
    }

    #[test]
    fn origin_round_trip_and_validation() {
        assert_eq!(round_trip(PathAttr::Origin(Origin::Igp)), PathAttr::Origin(Origin::Igp));
        assert!(matches!(Origin::from_u8(3), Err(WireError::InvalidOrigin(3))));
    }

    #[test]
    fn as_path_round_trip_both_widths() {
        let p = AsPath {
            segments: vec![
                AsSegment::Sequence(vec![65001, 65002]),
                AsSegment::Set(vec![64512, 64513]),
            ],
        };
        for width in [2usize, 4] {
            let mut body = Vec::new();
            p.encode_body(&mut body, width);
            assert_eq!(AsPath::decode_body(&body, width).unwrap(), p);
        }
    }

    #[test]
    fn as_path_four_octet_asn_needs_width_4() {
        let p = AsPath::sequence(vec![4_200_000_001]);
        let mut body = Vec::new();
        p.encode_body(&mut body, 4);
        assert_eq!(AsPath::decode_body(&body, 4).unwrap(), p);
    }

    #[test]
    fn as_path_semantics() {
        let p = AsPath::sequence(vec![10, 20, 30]);
        assert_eq!(p.hop_count(), 3);
        assert_eq!(p.first_asn(), Some(10));
        assert_eq!(p.origin_asn(), Some(30));
        assert!(p.contains(20));
        assert!(!p.contains(40));
        assert_eq!(p.consecutive_pairs(), vec![(10, 20), (20, 30)]);

        let q = p.prepend(5);
        assert_eq!(q.first_asn(), Some(5));
        assert_eq!(q.hop_count(), 4);
        // Original is untouched.
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn as_set_counts_as_one_hop() {
        let p = AsPath {
            segments: vec![AsSegment::Sequence(vec![1, 2]), AsSegment::Set(vec![3, 4, 5])],
        };
        assert_eq!(p.hop_count(), 3);
        // Origin is undefined when the path ends in a SET.
        assert_eq!(p.origin_asn(), None);
    }

    #[test]
    fn prepend_to_full_segment_starts_new_one() {
        let p = AsPath::sequence(vec![7; 255]);
        let q = p.prepend(9);
        assert_eq!(q.segments.len(), 2);
        assert_eq!(q.first_asn(), Some(9));
    }

    #[test]
    fn empty_as_path_displays_and_counts() {
        let p = AsPath::empty();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.to_string(), "");
        assert_eq!(p.first_asn(), None);
        assert_eq!(p.origin_asn(), None);
    }

    #[test]
    fn display_as_path() {
        let p = AsPath {
            segments: vec![AsSegment::Sequence(vec![65001, 65002]), AsSegment::Set(vec![1, 2])],
        };
        assert_eq!(p.to_string(), "65001 65002 {1,2}");
    }

    #[test]
    fn all_typed_attrs_round_trip() {
        let attrs = vec![
            PathAttr::Origin(Origin::Incomplete),
            PathAttr::AsPath(AsPath::sequence(vec![1, 2, 3])),
            PathAttr::NextHop(0x0a00_0001),
            PathAttr::Med(77),
            PathAttr::LocalPref(200),
            PathAttr::AtomicAggregate,
            PathAttr::Aggregator { asn: 65000, router_id: 0x0101_0101 },
            PathAttr::Communities(vec![0xffff_ff01, 0x0001_0002]),
            PathAttr::OriginatorId(0x0a0a_0a0a),
            PathAttr::ClusterList(vec![1, 2, 3]),
        ];
        for a in attrs {
            assert_eq!(round_trip(a.clone()), a);
        }
    }

    #[test]
    fn unknown_attr_preserved_verbatim() {
        let a = PathAttr::Unknown {
            flags: AttrFlags::OPT_TRANS,
            code: 66,
            value: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        assert_eq!(round_trip(a.clone()), a);
    }

    #[test]
    fn legacy_two_octet_aggregator_decodes() {
        let mut buf = Vec::new();
        let mut body = Vec::new();
        body.extend_from_slice(&65000u16.to_be_bytes());
        body.extend_from_slice(&0x0101_0101u32.to_be_bytes());
        encode_attr_tlv(&mut buf, AttrFlags::OPT_TRANS, 7, &body);
        let (raw, _) = RawAttr::decode(&buf).unwrap();
        assert_eq!(
            PathAttr::decode(&raw, 4).unwrap(),
            PathAttr::Aggregator { asn: 65000, router_id: 0x0101_0101 }
        );
    }

    #[test]
    fn extended_length_auto_selected() {
        let a = PathAttr::Unknown {
            flags: AttrFlags::OPT_TRANS,
            code: 99,
            value: vec![0xab; 300],
        };
        let mut buf = Vec::new();
        a.encode(&mut buf, 4);
        assert!(AttrFlags(buf[0]).has_ext_len());
        let (raw, used) = RawAttr::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(raw.value.len(), 300);
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut buf = Vec::new();
        encode_attr_tlv(&mut buf, AttrFlags::WELL_KNOWN, 3, &[1, 2, 3]); // NEXT_HOP needs 4
        let (raw, _) = RawAttr::decode(&buf).unwrap();
        assert!(matches!(
            PathAttr::decode(&raw, 4),
            Err(WireError::AttributeLength { code: 3, len: 3 })
        ));

        let mut buf = Vec::new();
        encode_attr_tlv(&mut buf, AttrFlags::OPT_TRANS, 8, &[1, 2, 3, 4, 5]); // not %4
        let (raw, _) = RawAttr::decode(&buf).unwrap();
        assert!(PathAttr::decode(&raw, 4).is_err());
    }

    #[test]
    fn truncated_tlv_rejected() {
        assert!(matches!(RawAttr::decode(&[0x40]), Err(WireError::Truncated { .. })));
        assert!(matches!(RawAttr::decode(&[0x40, 1, 5, 0, 0]), Err(WireError::Truncated { .. })));
        // Extended length header cut short.
        assert!(matches!(RawAttr::decode(&[0x50, 1, 0]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn iter_stops_after_error() {
        let mut buf = Vec::new();
        encode_attr_tlv(&mut buf, AttrFlags::WELL_KNOWN, 1, &[0]);
        buf.push(0x40); // dangling header
        let results: Vec<_> = RawAttrIter::new(&buf).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn attrs_section_round_trip() {
        let attrs = vec![
            PathAttr::Origin(Origin::Igp),
            PathAttr::AsPath(AsPath::sequence(vec![65001])),
            PathAttr::NextHop(0x0a00_0001),
        ];
        let buf = encode_attrs(&attrs, 4);
        assert_eq!(decode_attrs(&buf, 4).unwrap(), attrs);
    }

    fn arb_as_path() -> impl Strategy<Value = AsPath> {
        proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(any::<u32>(), 1..8).prop_map(AsSegment::Sequence),
                proptest::collection::vec(any::<u32>(), 1..8).prop_map(AsSegment::Set),
            ],
            0..4,
        )
        .prop_map(|segments| AsPath { segments })
    }

    fn arb_attr() -> impl Strategy<Value = PathAttr> {
        prop_oneof![
            prop_oneof![Just(Origin::Igp), Just(Origin::Egp), Just(Origin::Incomplete)]
                .prop_map(PathAttr::Origin),
            arb_as_path().prop_map(PathAttr::AsPath),
            any::<u32>().prop_map(PathAttr::NextHop),
            any::<u32>().prop_map(PathAttr::Med),
            any::<u32>().prop_map(PathAttr::LocalPref),
            Just(PathAttr::AtomicAggregate),
            (any::<u32>(), any::<u32>())
                .prop_map(|(asn, router_id)| PathAttr::Aggregator { asn, router_id }),
            proptest::collection::vec(any::<u32>(), 0..16).prop_map(PathAttr::Communities),
            any::<u32>().prop_map(PathAttr::OriginatorId),
            proptest::collection::vec(any::<u32>(), 0..8).prop_map(PathAttr::ClusterList),
            (11u8..=255, proptest::collection::vec(any::<u8>(), 0..300)).prop_map(
                |(code, value)| PathAttr::Unknown { flags: AttrFlags::OPT_TRANS, code, value }
            ),
        ]
    }

    proptest! {
        #[test]
        fn prop_attr_round_trip(attr in arb_attr()) {
            prop_assert_eq!(round_trip(attr.clone()), attr);
        }

        #[test]
        fn prop_attr_section_round_trip(attrs in proptest::collection::vec(arb_attr(), 0..10)) {
            let buf = encode_attrs(&attrs, 4);
            prop_assert_eq!(decode_attrs(&buf, 4).unwrap(), attrs);
        }

        #[test]
        fn prop_as_path_prepend_increases_hops(p in arb_as_path(), asn: u32) {
            let q = p.prepend(asn);
            prop_assert_eq!(q.hop_count(), p.hop_count() + 1);
            prop_assert_eq!(q.first_asn(), Some(asn));
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Whatever the bytes, decoding must return Ok or Err, not panic.
            let _ = decode_attrs(&data, 4);
            let _ = decode_attrs(&data, 2);
            let _ = RawAttr::decode(&data);
            for raw in RawAttrIter::new(&data).flatten() {
                let _ = PathAttr::decode(&raw, 4);
                let _ = PathAttr::decode(&raw, 2);
            }
            // Any width other than 2/4 must be a clean error, not an
            // out-of-bounds read.
            for width in [0usize, 1, 3, 8] {
                prop_assert!(
                    data.is_empty() || AsPath::decode_body(&data, width).is_err()
                );
            }
            let _ = AsPath::decode_body(&data, 2);
            let _ = AsPath::decode_body(&data, 4);
            let _ = crate::capability::Capability::decode(&data);
        }
    }
}
