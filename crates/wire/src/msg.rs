//! BGP message framing and the four RFC 4271 message types.

use crate::attr::{decode_attrs, encode_attrs, PathAttr};
use crate::capability::Capability;
use crate::error::WireError;
use crate::prefix::Ipv4Prefix;
use crate::{BGP_VERSION, HEADER_LEN, MAX_MSG_LEN};

/// Transitional 2-octet ASN used in the OPEN "My Autonomous System" field
/// by 4-octet-AS speakers (RFC 6793).
pub const AS_TRANS: u16 = 23456;

/// BGP message type octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    Open = 1,
    Update = 2,
    Notification = 3,
    Keepalive = 4,
}

impl MsgType {
    pub fn from_u8(v: u8) -> Result<MsgType, WireError> {
        match v {
            1 => Ok(MsgType::Open),
            2 => Ok(MsgType::Update),
            3 => Ok(MsgType::Notification),
            4 => Ok(MsgType::Keepalive),
            other => Err(WireError::BadType(other)),
        }
    }
}

/// An OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    pub version: u8,
    /// The speaker's real ASN. Encoded as `AS_TRANS` in the 2-octet field
    /// when it does not fit; the true value always travels in the
    /// four-octet-AS capability.
    pub asn: u32,
    pub hold_time: u16,
    /// BGP identifier (router id) in host byte order.
    pub router_id: u32,
    pub capabilities: Vec<Capability>,
}

impl OpenMsg {
    /// Build a standard OPEN for the daemons in this workspace: version 4,
    /// IPv4-unicast + route-refresh + 4-octet-AS capabilities.
    pub fn standard(asn: u32, hold_time: u16, router_id: u32) -> OpenMsg {
        OpenMsg {
            version: BGP_VERSION,
            asn,
            hold_time,
            router_id,
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::RouteRefresh,
                Capability::FourOctetAs(asn),
            ],
        }
    }

    /// The ASN negotiated from this OPEN: the four-octet capability value if
    /// present, else the 2-octet field.
    pub fn negotiated_asn(&self) -> u32 {
        self.capabilities
            .iter()
            .find_map(|c| match c {
                Capability::FourOctetAs(a) => Some(*a),
                _ => None,
            })
            .unwrap_or(self.asn)
    }

    /// Did the speaker advertise 4-octet AS support?
    pub fn supports_four_octet_as(&self) -> bool {
        self.capabilities.iter().any(|c| matches!(c, Capability::FourOctetAs(_)))
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(self.version);
        let my_as = if self.asn <= u32::from(u16::MAX) {
            self.asn as u16
        } else {
            AS_TRANS
        };
        out.extend_from_slice(&my_as.to_be_bytes());
        out.extend_from_slice(&self.hold_time.to_be_bytes());
        out.extend_from_slice(&self.router_id.to_be_bytes());
        // Optional parameters: a single RFC 5492 capabilities parameter.
        let mut caps = Vec::new();
        for c in &self.capabilities {
            c.encode(&mut caps);
        }
        if caps.is_empty() {
            out.push(0);
        } else {
            out.push((caps.len() + 2) as u8); // opt params total length
            out.push(2); // param type: capabilities
            out.push(caps.len() as u8);
            out.extend_from_slice(&caps);
        }
    }

    fn decode_body(buf: &[u8]) -> Result<OpenMsg, WireError> {
        if buf.len() < 10 {
            return Err(WireError::Truncated { what: "OPEN body" });
        }
        let version = buf[0];
        if version != BGP_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let asn2 = u16::from_be_bytes([buf[1], buf[2]]);
        let hold_time = u16::from_be_bytes([buf[3], buf[4]]);
        if hold_time == 1 || hold_time == 2 {
            return Err(WireError::BadHoldTime(hold_time));
        }
        let router_id = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]);
        let opt_len = usize::from(buf[9]);
        if buf.len() < 10 + opt_len {
            return Err(WireError::Truncated { what: "OPEN optional parameters" });
        }
        let mut caps = Vec::new();
        let mut params = &buf[10..10 + opt_len];
        while !params.is_empty() {
            if params.len() < 2 {
                return Err(WireError::Truncated { what: "OPEN parameter header" });
            }
            let ptype = params[0];
            let plen = usize::from(params[1]);
            if params.len() < 2 + plen {
                return Err(WireError::Truncated { what: "OPEN parameter body" });
            }
            if ptype == 2 {
                let mut body = &params[2..2 + plen];
                while !body.is_empty() {
                    let (cap, used) = Capability::decode(body)?;
                    caps.push(cap);
                    body = &body[used..];
                }
            }
            params = &params[2 + plen..];
        }
        Ok(OpenMsg {
            version,
            asn: u32::from(asn2),
            hold_time,
            router_id,
            capabilities: caps,
        })
    }
}

/// An UPDATE message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    pub withdrawn: Vec<Ipv4Prefix>,
    pub attrs: Vec<PathAttr>,
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMsg {
    /// An UPDATE announcing `nlri` with the given attributes.
    pub fn announce(attrs: Vec<PathAttr>, nlri: Vec<Ipv4Prefix>) -> UpdateMsg {
        UpdateMsg { withdrawn: Vec::new(), attrs, nlri }
    }

    /// An UPDATE withdrawing the given prefixes.
    pub fn withdraw(withdrawn: Vec<Ipv4Prefix>) -> UpdateMsg {
        UpdateMsg { withdrawn, attrs: Vec::new(), nlri: Vec::new() }
    }

    fn encode_body(&self, out: &mut Vec<u8>, asn_width: usize) {
        let mut wd = Vec::new();
        for p in &self.withdrawn {
            p.encode(&mut wd);
        }
        out.extend_from_slice(&(wd.len() as u16).to_be_bytes());
        out.extend_from_slice(&wd);
        let attrs = encode_attrs(&self.attrs, asn_width);
        out.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        out.extend_from_slice(&attrs);
        for p in &self.nlri {
            p.encode(out);
        }
    }

    /// Decode an UPDATE body. `asn_width` reflects the session's 4-octet-AS
    /// negotiation.
    pub fn decode_body(buf: &[u8], asn_width: usize) -> Result<UpdateMsg, WireError> {
        if buf.len() < 2 {
            return Err(WireError::Truncated { what: "UPDATE withdrawn length" });
        }
        let wd_len = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
        if buf.len() < 2 + wd_len + 2 {
            return Err(WireError::Truncated { what: "UPDATE withdrawn routes" });
        }
        let withdrawn = Ipv4Prefix::decode_run(&buf[2..2 + wd_len])?;
        let at = 2 + wd_len;
        let attr_len = usize::from(u16::from_be_bytes([buf[at], buf[at + 1]]));
        if buf.len() < at + 2 + attr_len {
            return Err(WireError::Truncated { what: "UPDATE path attributes" });
        }
        let attrs = decode_attrs(&buf[at + 2..at + 2 + attr_len], asn_width)?;
        let nlri = Ipv4Prefix::decode_run(&buf[at + 2 + attr_len..])?;
        Ok(UpdateMsg { withdrawn, attrs, nlri })
    }

    /// Encode a complete UPDATE frame whose attribute section additionally
    /// carries `extra_attr_tlvs` — pre-encoded raw attribute TLVs written
    /// by xBGP extensions at the encode-message insertion point.
    pub fn encode_with_extra(
        &self,
        extra_attr_tlvs: &[u8],
        asn_width: usize,
    ) -> Result<Vec<u8>, WireError> {
        let mut body = Vec::new();
        let mut wd = Vec::new();
        for p in &self.withdrawn {
            p.encode(&mut wd);
        }
        body.extend_from_slice(&(wd.len() as u16).to_be_bytes());
        body.extend_from_slice(&wd);
        let mut attrs = encode_attrs(&self.attrs, asn_width);
        attrs.extend_from_slice(extra_attr_tlvs);
        body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        body.extend_from_slice(&attrs);
        for p in &self.nlri {
            p.encode(&mut body);
        }
        frame(MsgType::Update, &body)
    }

    /// Raw byte range of the path-attribute section inside an UPDATE body,
    /// used by the xBGP neutral message view.
    pub fn attr_section(body: &[u8]) -> Result<&[u8], WireError> {
        if body.len() < 2 {
            return Err(WireError::Truncated { what: "UPDATE withdrawn length" });
        }
        let wd_len = usize::from(u16::from_be_bytes([body[0], body[1]]));
        let at = 2 + wd_len;
        if body.len() < at + 2 {
            return Err(WireError::Truncated { what: "UPDATE attribute length" });
        }
        let attr_len = usize::from(u16::from_be_bytes([body[at], body[at + 1]]));
        if body.len() < at + 2 + attr_len {
            return Err(WireError::Truncated { what: "UPDATE path attributes" });
        }
        Ok(&body[at + 2..at + 2 + attr_len])
    }
}

/// Encode a complete UPDATE frame from borrowed parts into one buffer:
/// the header and the two section lengths are written as placeholders
/// and patched once the bytes behind them are known, so nothing is
/// staged in a temporary. Byte-identical to building an [`UpdateMsg`]
/// and calling [`UpdateMsg::encode_with_extra`], the same
/// [`WireError::TooLong`] included; this is the export path's encoder,
/// which frames one attribute set for many chunks of NLRI.
pub fn encode_update(
    withdrawn: &[Ipv4Prefix],
    attrs: &[PathAttr],
    extra_attr_tlvs: &[u8],
    nlri: &[Ipv4Prefix],
    asn_width: usize,
) -> Result<Vec<u8>, WireError> {
    fn patch_len(out: &mut [u8], at: usize) {
        let len = (out.len() - at - 2) as u16;
        out[at..at + 2].copy_from_slice(&len.to_be_bytes());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + 64 + extra_attr_tlvs.len() + 5 * nlri.len());
    out.extend_from_slice(&[0xff; 16]);
    out.extend_from_slice(&[0, 0, MsgType::Update as u8]);
    let wd_at = out.len();
    out.extend_from_slice(&[0, 0]);
    for p in withdrawn {
        p.encode(&mut out);
    }
    patch_len(&mut out, wd_at);
    let attrs_at = out.len();
    out.extend_from_slice(&[0, 0]);
    for a in attrs {
        a.encode(&mut out, asn_width);
    }
    out.extend_from_slice(extra_attr_tlvs);
    patch_len(&mut out, attrs_at);
    for p in nlri {
        p.encode(&mut out);
    }
    // A frame within the limit has sections well under 64 KiB, so the
    // patched lengths above cannot have truncated.
    if out.len() > MAX_MSG_LEN {
        return Err(WireError::TooLong(out.len()));
    }
    let total = out.len() as u16;
    out[16..18].copy_from_slice(&total.to_be_bytes());
    Ok(out)
}

/// A NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    pub code: u8,
    pub subcode: u8,
    pub data: Vec<u8>,
}

impl NotificationMsg {
    pub fn new(code: u8, subcode: u8) -> NotificationMsg {
        NotificationMsg { code, subcode, data: Vec::new() }
    }

    /// Cease notification (administrative shutdown).
    pub fn cease() -> NotificationMsg {
        NotificationMsg::new(6, 2)
    }

    /// Build the NOTIFICATION that answers a codec error.
    pub fn from_error(e: &WireError) -> NotificationMsg {
        let (code, subcode) = e.notification_codes();
        NotificationMsg::new(code, subcode)
    }
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    Open(OpenMsg),
    Update(UpdateMsg),
    Notification(NotificationMsg),
    Keepalive,
}

impl Message {
    pub fn msg_type(&self) -> MsgType {
        match self {
            Message::Open(_) => MsgType::Open,
            Message::Update(_) => MsgType::Update,
            Message::Notification(_) => MsgType::Notification,
            Message::Keepalive => MsgType::Keepalive,
        }
    }

    /// Encode the full message including the 19-octet header.
    pub fn encode(&self, asn_width: usize) -> Result<Vec<u8>, WireError> {
        let mut body = Vec::new();
        match self {
            Message::Open(o) => o.encode_body(&mut body),
            Message::Update(u) => u.encode_body(&mut body, asn_width),
            Message::Notification(n) => {
                body.push(n.code);
                body.push(n.subcode);
                body.extend_from_slice(&n.data);
            }
            Message::Keepalive => {}
        }
        frame(self.msg_type(), &body)
    }

    /// Decode a message from a complete frame (header + body).
    pub fn decode(frame: &[u8], asn_width: usize) -> Result<Message, WireError> {
        let (ty, body) = deframe(frame)?;
        Message::decode_body(ty, body, asn_width)
    }

    /// Decode a message body whose type is already known.
    pub fn decode_body(ty: MsgType, body: &[u8], asn_width: usize) -> Result<Message, WireError> {
        Ok(match ty {
            MsgType::Open => Message::Open(OpenMsg::decode_body(body)?),
            MsgType::Update => Message::Update(UpdateMsg::decode_body(body, asn_width)?),
            MsgType::Notification => {
                if body.len() < 2 {
                    return Err(WireError::Truncated { what: "NOTIFICATION body" });
                }
                Message::Notification(NotificationMsg {
                    code: body[0],
                    subcode: body[1],
                    data: body[2..].to_vec(),
                })
            }
            MsgType::Keepalive => {
                if !body.is_empty() {
                    return Err(WireError::BadLength((HEADER_LEN + body.len()) as u16));
                }
                Message::Keepalive
            }
        })
    }
}

/// Prepend the BGP header (all-ones marker, length, type) to a body.
pub fn frame(ty: MsgType, body: &[u8]) -> Result<Vec<u8>, WireError> {
    let total = HEADER_LEN + body.len();
    if total > MAX_MSG_LEN {
        return Err(WireError::TooLong(total));
    }
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&[0xff; 16]);
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.push(ty as u8);
    out.extend_from_slice(body);
    Ok(out)
}

/// Validate the header of a complete frame and return `(type, body)`.
pub fn deframe(frame: &[u8]) -> Result<(MsgType, &[u8]), WireError> {
    if frame.len() < HEADER_LEN {
        return Err(WireError::Truncated { what: "message header" });
    }
    if frame[..16] != [0xff; 16] {
        return Err(WireError::BadMarker);
    }
    let len = u16::from_be_bytes([frame[16], frame[17]]);
    if usize::from(len) != frame.len() || usize::from(len) < HEADER_LEN {
        return Err(WireError::BadLength(len));
    }
    let ty = MsgType::from_u8(frame[18])?;
    let min = match ty {
        MsgType::Open => HEADER_LEN + 10,
        MsgType::Update => HEADER_LEN + 4,
        MsgType::Notification => HEADER_LEN + 2,
        MsgType::Keepalive => HEADER_LEN,
    };
    if usize::from(len) < min {
        return Err(WireError::BadLength(len));
    }
    Ok((ty, &frame[HEADER_LEN..]))
}

/// Incremental reassembler of BGP frames from a byte stream.
///
/// Feed arbitrary chunks with [`MsgReader::push`], then drain complete
/// frames with [`MsgReader::next_frame`]. The reader only validates the
/// header enough to find frame boundaries; message-level validation happens
/// in [`Message::decode`].
#[derive(Debug, Default)]
pub struct MsgReader {
    buf: Vec<u8>,
    cursor: usize,
}

impl MsgReader {
    pub fn new() -> MsgReader {
        MsgReader::default()
    }

    /// Append freshly received bytes.
    pub fn push(&mut self, data: &[u8]) {
        // Compact lazily so the buffer does not grow without bound.
        if self.cursor > 0 && self.cursor == self.buf.len() {
            self.buf.clear();
            self.cursor = 0;
        } else if self.cursor > 64 * 1024 {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed octets.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.cursor
    }

    /// Pop the next complete frame, if one is buffered.
    ///
    /// Returns `Ok(Some(frame))` with a full header+body frame,
    /// `Ok(None)` if more bytes are needed, or `Err` if the stream is
    /// unsynchronized (bad marker / absurd length) and must be reset.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.cursor..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[..16] != [0xff; 16] {
            return Err(WireError::BadMarker);
        }
        let len = usize::from(u16::from_be_bytes([avail[16], avail[17]]));
        if !(HEADER_LEN..=MAX_MSG_LEN).contains(&len) {
            return Err(WireError::BadLength(len as u16));
        }
        if avail.len() < len {
            return Ok(None);
        }
        let frame = avail[..len].to_vec();
        self.cursor += len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AsPath, Origin};
    use proptest::prelude::*;

    fn round_trip(m: Message) -> Message {
        let buf = m.encode(4).unwrap();
        Message::decode(&buf, 4).unwrap()
    }

    #[test]
    fn keepalive_round_trip() {
        assert_eq!(round_trip(Message::Keepalive), Message::Keepalive);
        let buf = Message::Keepalive.encode(4).unwrap();
        assert_eq!(buf.len(), HEADER_LEN);
    }

    #[test]
    fn open_round_trip_preserves_capabilities() {
        let o = OpenMsg::standard(65001, 90, 0x0101_0101);
        let m = round_trip(Message::Open(o.clone()));
        assert_eq!(m, Message::Open(o));
    }

    #[test]
    fn open_with_big_asn_uses_as_trans() {
        let o = OpenMsg::standard(4_200_000_000, 90, 1);
        let buf = Message::Open(o).encode(4).unwrap();
        let body = &buf[HEADER_LEN..];
        assert_eq!(u16::from_be_bytes([body[1], body[2]]), AS_TRANS);
        if let Message::Open(d) = Message::decode(&buf, 4).unwrap() {
            assert_eq!(d.negotiated_asn(), 4_200_000_000);
            assert!(d.supports_four_octet_as());
        } else {
            panic!("expected OPEN");
        }
    }

    #[test]
    fn open_rejects_bad_version_and_hold_time() {
        let o = OpenMsg::standard(1, 90, 1);
        let mut buf = Message::Open(o).encode(4).unwrap();
        buf[HEADER_LEN] = 3; // version
        assert!(matches!(Message::decode(&buf, 4), Err(WireError::UnsupportedVersion(3))));

        let o = OpenMsg { hold_time: 2, ..OpenMsg::standard(1, 90, 1) };
        let buf = Message::Open(o).encode(4).unwrap();
        assert!(matches!(Message::decode(&buf, 4), Err(WireError::BadHoldTime(2))));
    }

    #[test]
    fn update_round_trip() {
        let u = UpdateMsg {
            withdrawn: vec!["10.9.0.0/16".parse().unwrap()],
            attrs: vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence(vec![65001, 65002])),
                PathAttr::NextHop(0x0a00_0001),
                PathAttr::LocalPref(100),
            ],
            nlri: vec!["192.0.2.0/24".parse().unwrap(), "198.51.100.0/24".parse().unwrap()],
        };
        assert_eq!(round_trip(Message::Update(u.clone())), Message::Update(u));
    }

    #[test]
    fn attr_section_finds_attribute_bytes() {
        let u = UpdateMsg::announce(
            vec![PathAttr::Origin(Origin::Egp)],
            vec!["203.0.113.0/24".parse().unwrap()],
        );
        let buf = Message::Update(u).encode(4).unwrap();
        let body = &buf[HEADER_LEN..];
        let attrs = UpdateMsg::attr_section(body).unwrap();
        assert_eq!(attrs, &[0x40, 1, 1, 1][..]); // ORIGIN=EGP TLV
    }

    #[test]
    fn encode_with_extra_appends_raw_tlvs() {
        // The encode-message insertion point appends extension-written
        // attribute TLVs; the receiver must decode them as ordinary
        // attributes alongside the typed ones.
        let u = UpdateMsg::announce(
            vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence(vec![65001])),
                PathAttr::NextHop(7),
            ],
            vec!["203.0.113.0/24".parse().unwrap()],
        );
        let extra = {
            let mut t = Vec::new();
            crate::attr::encode_attr_tlv(
                &mut t,
                crate::attr::AttrFlags::OPT_TRANS,
                66,
                &[1, 2, 3, 4],
            );
            t
        };
        let frame = u.encode_with_extra(&extra, 4).unwrap();
        match Message::decode(&frame, 4).unwrap() {
            Message::Update(got) => {
                assert_eq!(got.nlri, u.nlri);
                assert_eq!(got.attrs.len(), 4);
                assert_eq!(
                    got.attrs[3],
                    PathAttr::Unknown {
                        flags: crate::attr::AttrFlags::OPT_TRANS,
                        code: 66,
                        value: vec![1, 2, 3, 4],
                    }
                );
            }
            other => panic!("expected UPDATE, got {other:?}"),
        }
        // No extra bytes: identical to the plain encoder.
        assert_eq!(u.encode_with_extra(&[], 4).unwrap(), Message::Update(u).encode(4).unwrap());
    }

    #[test]
    fn notification_round_trip() {
        let n = NotificationMsg { code: 6, subcode: 2, data: vec![1, 2, 3] };
        assert_eq!(round_trip(Message::Notification(n.clone())), Message::Notification(n));
    }

    #[test]
    fn deframe_rejects_bad_marker_length_type() {
        let mut good = Message::Keepalive.encode(4).unwrap();
        good[0] = 0xfe;
        assert!(matches!(deframe(&good), Err(WireError::BadMarker)));

        let mut good = Message::Keepalive.encode(4).unwrap();
        good[17] = 18; // < HEADER_LEN
        assert!(matches!(deframe(&good), Err(WireError::BadLength(_))));

        let mut good = Message::Keepalive.encode(4).unwrap();
        good[18] = 9;
        assert!(matches!(deframe(&good), Err(WireError::BadType(9))));
    }

    #[test]
    fn keepalive_with_body_rejected() {
        let buf = frame(MsgType::Keepalive, &[0]).unwrap();
        assert!(Message::decode(&buf, 4).is_err());
    }

    #[test]
    fn too_long_message_rejected_at_encode() {
        let u = UpdateMsg::announce(
            vec![PathAttr::Unknown {
                flags: crate::attr::AttrFlags::OPT_TRANS,
                code: 99,
                value: vec![0; MAX_MSG_LEN],
            }],
            vec![],
        );
        assert!(matches!(Message::Update(u).encode(4), Err(WireError::TooLong(_))));
    }

    #[test]
    fn reader_reassembles_split_frames() {
        let m1 = Message::Keepalive.encode(4).unwrap();
        let m2 = Message::Open(OpenMsg::standard(65001, 90, 7)).encode(4).unwrap();
        let mut all = m1.clone();
        all.extend_from_slice(&m2);

        let mut r = MsgReader::new();
        // Feed one byte at a time: frames must still come out whole.
        for b in &all {
            r.push(&[*b]);
        }
        assert_eq!(r.next_frame().unwrap().unwrap(), m1);
        assert_eq!(r.next_frame().unwrap().unwrap(), m2);
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_detects_desync() {
        let mut r = MsgReader::new();
        r.push(&[0u8; 32]);
        assert!(matches!(r.next_frame(), Err(WireError::BadMarker)));
    }

    proptest! {
        #[test]
        fn prop_reader_equals_whole_frames(
            msgs in proptest::collection::vec(0u8..3, 1..8),
            chunk in 1usize..40,
        ) {
            // Build a stream of random known messages and feed it in fixed
            // size chunks; the reader must reproduce the frame sequence.
            let frames: Vec<Vec<u8>> = msgs.iter().map(|k| match k {
                0 => Message::Keepalive.encode(4).unwrap(),
                1 => Message::Open(OpenMsg::standard(65000, 180, 42)).encode(4).unwrap(),
                _ => Message::Notification(NotificationMsg::cease()).encode(4).unwrap(),
            }).collect();
            let stream: Vec<u8> = frames.concat();
            let mut r = MsgReader::new();
            let mut got = Vec::new();
            for c in stream.chunks(chunk) {
                r.push(c);
                while let Some(f) = r.next_frame().unwrap() {
                    got.push(f);
                }
            }
            prop_assert_eq!(got, frames);
        }

        #[test]
        fn prop_encode_update_equals_encode_with_extra(
            wd in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..900),
            nlri in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..900),
            path in proptest::collection::vec(any::<u32>(), 0..40),
            med in proptest::option::of(any::<u32>()),
            communities in proptest::collection::vec(any::<u32>(), 0..80),
            extra in proptest::collection::vec(any::<u8>(), 0..600),
            four_octet in any::<bool>(),
        ) {
            // Sizes straddle the 4096-byte limit, so both the frame and
            // the `TooLong` arm (with the same length in it) are compared.
            let prefixes = |v: &[(u32, u8)]| -> Vec<Ipv4Prefix> {
                v.iter().map(|(a, l)| Ipv4Prefix::new(*a, *l)).collect()
            };
            let mut attrs = vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence(path)),
                PathAttr::NextHop(7),
            ];
            attrs.extend(med.map(PathAttr::Med));
            if !communities.is_empty() {
                attrs.push(PathAttr::Communities(communities));
            }
            let u = UpdateMsg { withdrawn: prefixes(&wd), attrs, nlri: prefixes(&nlri) };
            let width = if four_octet { 4 } else { 2 };
            prop_assert_eq!(
                encode_update(&u.withdrawn, &u.attrs, &extra, &u.nlri, width),
                u.encode_with_extra(&extra, width)
            );
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::decode(&data, 4);
            let _ = UpdateMsg::decode_body(&data, 4);
            let _ = UpdateMsg::decode_body(&data, 2);
            let _ = UpdateMsg::attr_section(&data);
            let _ = OpenMsg::decode_body(&data);
            let _ = deframe(&data);
            let mut r = MsgReader::new();
            r.push(&data);
            while let Ok(Some(_)) = r.next_frame() {}
        }

        #[test]
        fn prop_mutated_valid_update_never_panics(
            flip in proptest::collection::vec((0usize..512, any::<u8>()), 1..8),
        ) {
            // Start from a well-formed UPDATE frame and corrupt arbitrary
            // bytes: every decode path must fail cleanly, never panic.
            let u = UpdateMsg {
                withdrawn: vec!["10.9.0.0/16".parse().unwrap()],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(AsPath::sequence(vec![65001, 65002])),
                    PathAttr::NextHop(0x0a00_0001),
                    PathAttr::Communities(vec![0x0001_0002]),
                ],
                nlri: vec!["192.0.2.0/24".parse().unwrap()],
            };
            let mut buf = Message::Update(u).encode(4).unwrap();
            for (pos, val) in flip {
                let n = buf.len();
                buf[pos % n] = val;
            }
            let _ = Message::decode(&buf, 4);
            let _ = Message::decode(&buf, 2);
            if buf.len() > HEADER_LEN {
                let body = &buf[HEADER_LEN..];
                let _ = UpdateMsg::decode_body(body, 4);
                let _ = UpdateMsg::attr_section(body);
            }
        }
    }
}
