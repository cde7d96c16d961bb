//! The xBGP execution context and the five insertion points, once.
//!
//! Making a BGP implementation xBGP-compliant takes a context the VMM's
//! helpers reach the host through ([`xbgp_core::HostApi`]) and a call at
//! each insertion point. Neither depends on how routes are stored, so
//! both live here: [`XbgpCtx`] is the one `HostApi` implementation for a
//! daemon, and [`Host`] has one method per point — ①
//! [`Host::receive_message`], ② [`Host::inbound_filter`], ③
//! [`Host::decision`], ④ [`Host::outbound_filter`], ⑤
//! [`Host::encode_message`] — that builds the context from the host's own
//! fields and maps the chain's outcome to what the caller does next.
//!
//! What an engine brings is [`AttrStore`]: one route's attributes as the
//! neutral API sees them, network-byte-order payloads keyed by attribute
//! code. That is the whole of the per-vendor work the paper describes —
//! FRRouting converts on every access, BIRD "simply extends" the API it
//! already had — and it is the only xBGP code left in `bgp-fir` and
//! `bgp-wren`.
//!
//! Attribute mutation at per-route points is copy-on-write
//! ([`Access::Cow`]): routes share attribute sets, so a set is cloned
//! only when an extension actually writes.

use crate::export::{native_export, Dest};
use crate::host::{Hooks, Host, HostStats, RouteSource};
use crate::DaemonSpec;
use rpki::{RoaHashTable, RoaTable};
use xbgp_core::api::{self, InsertionPoint, NextHopInfo, PeerInfo};
use xbgp_core::{HostApi, HostError, HostOp};
use xbgp_wire::attr::{encode_attrs, validate_neutral};
use xbgp_wire::{Ipv4Prefix, PathAttr};

/// One route's attributes as the xBGP API sees them. Payloads are in
/// network byte order. The contract both engines keep (and
/// `tests/repr_parity.rs` checks one against the other):
///
/// * the natively modelled codes (1–5, 8–10) carry their canonical flags
///   (`AttrCode::canonical_flags`) whatever flags they were stored with;
///   any other code keeps the flags it was given;
/// * a payload [`validate_neutral`] refuses is not stored, and the
///   attributes are as they were;
/// * an empty COMMUNITIES or CLUSTER_LIST is the attribute's absence.
pub trait AttrStore: Clone {
    /// Append the payload of `code` to `out` and return its flags; `None`
    /// (and `out` untouched) when the route does not carry it.
    fn attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8>;

    fn has_attr(&self, code: u8) -> bool;

    /// Insert or replace `code`.
    fn store_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), String>;

    /// Remove `code`; false when it was not there. Never called for the
    /// mandatory ORIGIN, AS_PATH and NEXT_HOP: the context refuses those.
    fn drop_attr(&mut self, code: u8) -> bool;

    /// NEXT_HOP, host byte order (0 when malformed).
    fn nexthop(&self) -> u32;
}

/// How an insertion point exposes the route's attributes.
pub enum Access<'a, A> {
    /// No route in scope.
    None,
    /// Read-only (③, ④, ⑤).
    Read(&'a A),
    /// Copy-on-write (②): reads come from `modified` if an extension has
    /// written, else from `base`; the first write clones `base`.
    Cow {
        base: &'a A,
        modified: &'a mut Option<A>,
    },
    /// Direct mutation (①: the attributes of every route of the UPDATE
    /// being parsed).
    Mut(&'a mut A),
}

impl<A: AttrStore> Access<'_, A> {
    /// Non-mutating probe for `check_op`: can this point write attributes
    /// at all? (A `write()` call would clone on a Cow point.)
    fn writable(&self) -> bool {
        !matches!(self, Access::None | Access::Read(_))
    }

    fn read(&self) -> Option<&A> {
        match self {
            Access::None => None,
            Access::Read(a) => Some(a),
            Access::Cow { base, modified } => Some(modified.as_ref().unwrap_or(base)),
            Access::Mut(a) => Some(a),
        }
    }

    fn write(&mut self) -> Option<&mut A> {
        match self {
            Access::None | Access::Read(_) => None,
            Access::Cow { base, modified } => Some(modified.get_or_insert_with(|| (*base).clone())),
            Access::Mut(a) => Some(a),
        }
    }
}

/// The execution context of one insertion-point call.
pub struct XbgpCtx<'a, A> {
    pub peer: PeerInfo,
    /// Insertion-point arguments (raw message body, source peer info, …),
    /// borrowed from the caller — building a context copies nothing.
    pub args: &'a [&'a [u8]],
    pub attrs: Access<'a, A>,
    pub prefix: Option<Ipv4Prefix>,
    pub nexthop: Option<NextHopInfo>,
    /// Router configuration for `get_xtra` (manifest data is layered in by
    /// the VMM itself).
    pub xtra: &'a [(String, Vec<u8>)],
    /// Output buffer (⑤): raw attribute TLVs appended to the outgoing
    /// UPDATE.
    pub out_buf: Option<&'a mut Vec<u8>>,
    /// The xBGP-layer ROA store backing `rpki_check_origin` (hash table,
    /// per §3.4 — not an engine's native backend).
    pub rov: Option<&'a RoaHashTable>,
    /// Routes installed by `rib_add_route` via hidden context arguments.
    pub rib_adds: &'a mut Vec<(Ipv4Prefix, u32)>,
    /// Debug output sink.
    pub logs: &'a mut Vec<String>,
}

impl<A: AttrStore> HostApi for XbgpCtx<'_, A> {
    fn peer_info(&self) -> PeerInfo {
        self.peer
    }

    fn nexthop_info(&self) -> Option<NextHopInfo> {
        self.nexthop
    }

    fn prefix(&self) -> Option<Ipv4Prefix> {
        self.prefix
    }

    fn arg(&self, idx: u32) -> Option<&[u8]> {
        self.args.get(idx as usize).copied()
    }

    fn get_attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
        self.attrs.read()?.attr_into(code, out)
    }

    fn has_attr(&self, code: u8) -> bool {
        self.attrs.read().is_some_and(|a| a.has_attr(code))
    }

    fn check_op(&self, op: &HostOp<'_>) -> Result<(), HostError> {
        match op {
            HostOp::SetAttr { .. } if !self.attrs.writable() => {
                Err(HostError::ReadOnlyPoint { op: "set_attr" })
            }
            HostOp::SetAttr { code, value, .. } => validate_neutral(*code, value)
                .map_err(|reason| HostError::BadAttrValue { code: *code, reason }),
            HostOp::RemoveAttr { .. } if !self.attrs.writable() => {
                Err(HostError::ReadOnlyPoint { op: "remove_attr" })
            }
            HostOp::RemoveAttr { code } if (1..=3).contains(code) => {
                Err(HostError::MandatoryAttr { code: *code })
            }
            HostOp::WriteBuf { .. } if self.out_buf.is_none() => Err(HostError::NoOutputBuffer),
            _ => Ok(()),
        }
    }

    fn set_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), HostError> {
        self.attrs
            .write()
            .ok_or(HostError::ReadOnlyPoint { op: "set_attr" })?
            .store_attr(code, flags, value)
            .map_err(|reason| HostError::BadAttrValue { code, reason })
    }

    fn remove_attr(&mut self, code: u8) -> Result<(), HostError> {
        self.check_op(&HostOp::RemoveAttr { code })?;
        if self.attrs.write().is_some_and(|attrs| attrs.drop_attr(code)) {
            Ok(())
        } else {
            Err(HostError::AttrNotPresent { code })
        }
    }

    fn get_xtra(&self, key: &str) -> Option<Vec<u8>> {
        self.xtra.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    fn write_buf(&mut self, data: &[u8]) -> Result<(), HostError> {
        self.out_buf
            .as_deref_mut()
            .ok_or(HostError::NoOutputBuffer)?
            .extend_from_slice(data);
        Ok(())
    }

    fn check_origin(&self, prefix: Ipv4Prefix, origin_asn: u32) -> u64 {
        match self.rov {
            Some(table) => table.validate(prefix, origin_asn) as u8 as u64,
            None => api::ROV_NOT_FOUND,
        }
    }

    fn rib_add_route(&mut self, prefix: Ipv4Prefix, nexthop: u32) -> Result<(), HostError> {
        self.rib_adds.push((prefix, nexthop));
        Ok(())
    }

    fn log(&mut self, msg: &str) {
        self.logs.push(msg.to_string());
    }
}

/// ② refused the route (a reject verdict, or a filter that aborted).
#[derive(Debug)]
pub struct Rejected;

impl Host {
    /// A context for `peer` with no route in scope, over this host's
    /// configuration, ROA store and sinks — each point overrides what it
    /// exposes — beside the host fields a run needs while the context
    /// borrows those.
    fn enter<A>(
        &mut self,
        peer: PeerInfo,
    ) -> (XbgpCtx<'_, A>, &mut Hooks, &mut HostStats, &DaemonSpec) {
        let hctx = XbgpCtx {
            peer,
            args: &[],
            attrs: Access::None,
            prefix: None,
            nexthop: None,
            xtra: &self.spec.xtra,
            out_buf: None,
            rov: self.xbgp_rov.as_ref(),
            rib_adds: &mut self.ext_rib_adds,
            logs: &mut self.logs,
        };
        (hctx, &mut self.hooks, &mut self.stats, &self.spec)
    }

    fn attached(&self, point: InsertionPoint) -> bool {
        self.hooks.vmm.has_extensions(point)
    }

    /// ① `BGP_RECEIVE_MESSAGE`: the extensions see the raw UPDATE body
    /// from neighbor `idx` and may attach attributes to the routes being
    /// parsed.
    pub fn receive_message<A: AttrStore>(&mut self, idx: usize, raw_body: &[u8], attrs: &mut A) {
        let point = InsertionPoint::BgpReceiveMessage;
        if !self.attached(point) {
            return;
        }
        let (base, hooks, ..) = self.enter(self.peer_info(idx));
        let mut hctx = XbgpCtx { args: &[raw_body], attrs: Access::Mut(attrs), ..base };
        let _ = hooks.run(point, &mut hctx);
    }

    /// What ② sees of an UPDATE from neighbor `idx` carrying `attrs` —
    /// the same for every NLRI of it, so taken once — or `None` when no
    /// extension is attached there.
    pub fn inbound_views<A: AttrStore>(
        &self,
        idx: usize,
        attrs: &A,
    ) -> Option<(PeerInfo, NextHopInfo)> {
        self.attached(InsertionPoint::BgpInboundFilter)
            .then(|| (self.peer_info(idx), self.nexthop_info(attrs.nexthop())))
    }

    /// ② `BGP_INBOUND_FILTER` for one route, over copy-on-write
    /// attributes: `Ok(Some(attrs))` when an extension rewrote them.
    pub fn inbound_filter<A: AttrStore>(
        &mut self,
        (peer, nexthop): (PeerInfo, NextHopInfo),
        prefix: Ipv4Prefix,
        attrs: &A,
    ) -> Result<Option<A>, Rejected> {
        let mut modified = None;
        let (base, hooks, stats, _) = self.enter(peer);
        let mut hctx = XbgpCtx {
            attrs: Access::Cow { base: attrs, modified: &mut modified },
            prefix: Some(prefix),
            nexthop: Some(nexthop),
            ..base
        };
        if hooks.run_filter(InsertionPoint::BgpInboundFilter, &mut hctx, stats, || true) {
            Ok(modified)
        } else {
            Err(Rejected)
        }
    }

    /// ③ `BGP_DECISION`: `Some(prefer_new)` when an extension chose
    /// between the candidate (`new`, learned from `src`) and the current
    /// best, whose wire attributes are argument 0 (`best` is only asked
    /// for with an extension attached). `None`: run the native RFC 4271
    /// comparison.
    pub fn decision<A: AttrStore>(
        &mut self,
        new: &A,
        src: &RouteSource,
        best: impl FnOnce() -> Vec<PathAttr>,
    ) -> Option<bool> {
        if !self.attached(InsertionPoint::BgpDecision) {
            return None;
        }
        let best_wire = encode_attrs(&best(), 4);
        let nexthop = Some(self.nexthop_info(new.nexthop()));
        let peer = PeerInfo { flags: 0, ..self.source_info(src) };
        let (base, hooks, stats, _) = self.enter(peer);
        let mut hctx = XbgpCtx {
            args: &[&best_wire],
            attrs: Access::Read(new),
            nexthop,
            ..base
        };
        hooks.run_decision(&mut hctx, stats)
    }

    /// ④ `BGP_OUTBOUND_FILTER` for one route towards `dest`: an
    /// extension's verdict is final, no verdict (or no extension) is
    /// [`native_export`].
    pub fn outbound_filter<A: AttrStore>(
        &mut self,
        dest: &Dest,
        prefix: Ipv4Prefix,
        attrs: &A,
        src: &RouteSource,
    ) -> bool {
        let point = InsertionPoint::BgpOutboundFilter;
        if !self.attached(point) {
            return native_export(&self.spec, dest, src);
        }
        let src_bytes = self.source_info(src).to_bytes();
        let nexthop = Some(self.nexthop_info(attrs.nexthop()));
        let (base, hooks, stats, spec) = self.enter(dest.peer);
        let mut hctx = XbgpCtx {
            args: &[&src_bytes],
            attrs: Access::Read(attrs),
            prefix: Some(prefix),
            nexthop,
            ..base
        };
        hooks.run_filter(point, &mut hctx, stats, || native_export(spec, dest, src))
    }

    /// ⑤ `BGP_ENCODE_MESSAGE` for one batch of announcements towards
    /// `dest` (`first` is its first prefix): extensions append raw
    /// attribute TLVs to `extra`.
    pub fn encode_message<A: AttrStore>(
        &mut self,
        dest: &Dest,
        attrs: &A,
        src: &RouteSource,
        first: Ipv4Prefix,
        extra: &mut Vec<u8>,
    ) {
        let point = InsertionPoint::BgpEncodeMessage;
        if !self.attached(point) {
            return;
        }
        let src_bytes = self.source_info(src).to_bytes();
        let (base, hooks, ..) = self.enter(dest.peer);
        let mut hctx = XbgpCtx {
            args: &[&src_bytes],
            attrs: Access::Read(attrs),
            prefix: Some(first),
            out_buf: Some(extra),
            ..base
        };
        let _ = hooks.run(point, &mut hctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_core::api::PeerType;

    /// The smallest store: `(code, flags, payload)` as given.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct Tlvs(Vec<(u8, u8, Vec<u8>)>);

    impl AttrStore for Tlvs {
        fn attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
            let (_, flags, value) = self.0.iter().find(|t| t.0 == code)?;
            out.extend_from_slice(value);
            Some(*flags)
        }
        fn has_attr(&self, code: u8) -> bool {
            self.0.iter().any(|t| t.0 == code)
        }
        fn store_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), String> {
            self.drop_attr(code);
            self.0.push((code, flags, value.to_vec()));
            Ok(())
        }
        fn drop_attr(&mut self, code: u8) -> bool {
            let before = self.0.len();
            self.0.retain(|t| t.0 != code);
            self.0.len() < before
        }
        fn nexthop(&self) -> u32 {
            0
        }
    }

    /// Owners of what a context borrows.
    #[derive(Default)]
    struct Sinks {
        rib_adds: Vec<(Ipv4Prefix, u32)>,
        logs: Vec<String>,
    }

    fn ctx<'a>(sinks: &'a mut Sinks, attrs: Access<'a, Tlvs>) -> XbgpCtx<'a, Tlvs> {
        let peer = PeerInfo {
            router_id: 1,
            asn: 65002,
            peer_type: PeerType::Ebgp,
            local_router_id: 2,
            local_asn: 65001,
            flags: 0,
        };
        XbgpCtx {
            peer,
            args: &[],
            attrs,
            prefix: None,
            nexthop: None,
            xtra: &[],
            out_buf: None,
            rov: None,
            rib_adds: &mut sinks.rib_adds,
            logs: &mut sinks.logs,
        }
    }

    fn med(v: u32) -> Tlvs {
        Tlvs(vec![(4, 0x80, v.to_be_bytes().to_vec())])
    }

    #[test]
    fn get_attr_is_a_straight_copy_of_stored_bytes() {
        let (mut sinks, base) = (Sinks::default(), med(5));
        let ctx = ctx(&mut sinks, Access::Read(&base));
        assert_eq!(ctx.get_attr(4), Some((0x80, 5u32.to_be_bytes().to_vec())));
        assert!(ctx.has_attr(4) && !ctx.has_attr(5));
        assert_eq!(ctx.get_attr(5), None);
    }

    #[test]
    fn cow_clones_only_on_write() {
        let (mut sinks, base, mut modified) = (Sinks::default(), med(5), None);
        let mut ctx = ctx(&mut sinks, Access::Cow { base: &base, modified: &mut modified });
        // Neither reads nor stage-time checks clone.
        assert_eq!(ctx.get_attr(4).unwrap().1, 5u32.to_be_bytes());
        ctx.check_op(&HostOp::SetAttr { code: 4, flags: 0x80, value: &[0; 4] }).unwrap();
        assert!(matches!(&ctx.attrs, Access::Cow { modified, .. } if modified.is_none()));
        ctx.set_attr(4, 0x80, &7u32.to_be_bytes()).unwrap();
        assert!(matches!(&ctx.attrs, Access::Cow { modified, .. } if modified.is_some()));
    }

    #[test]
    fn cow_preserves_shared_base() {
        let (mut sinks, base, mut modified) = (Sinks::default(), med(5), None);
        let mut ctx = ctx(&mut sinks, Access::Cow { base: &base, modified: &mut modified });
        ctx.set_attr(4, 0x80, &7u32.to_be_bytes()).unwrap();
        ctx.remove_attr(4).unwrap();
        ctx.set_attr(4, 0x80, &9u32.to_be_bytes()).unwrap();
        assert_eq!(ctx.get_attr(4).unwrap().1, 9u32.to_be_bytes(), "reads see the copy");
        assert_eq!(base, med(5), "base untouched");
        assert_eq!(modified, Some(med(9)));
    }

    #[test]
    fn read_only_contexts_reject_writes() {
        let (mut sinks, base) = (Sinks::default(), med(5));
        for attrs in [Access::Read(&base), Access::None] {
            let mut ctx = ctx(&mut sinks, attrs);
            let read_only = |op| Err(HostError::ReadOnlyPoint { op });
            let set = HostOp::SetAttr { code: 4, flags: 0x80, value: &[0; 4] };
            assert_eq!(ctx.check_op(&set), read_only("set_attr"));
            assert_eq!(ctx.check_op(&HostOp::RemoveAttr { code: 4 }), read_only("remove_attr"));
            assert_eq!(ctx.set_attr(4, 0x80, &[0; 4]), read_only("set_attr"));
            assert_eq!(ctx.remove_attr(4), read_only("remove_attr"));
        }
    }

    /// What `check_op` lets through, `set_attr` / `remove_attr` accept:
    /// payloads are validated and mandatory attributes kept before
    /// anything is staged.
    #[test]
    fn malformed_payloads_and_mandatory_attributes_are_refused_at_stage_time() {
        let (mut sinks, mut attrs) = (Sinks::default(), med(5));
        let mut ctx = ctx(&mut sinks, Access::Mut(&mut attrs));
        let short_med = HostOp::SetAttr { code: 4, flags: 0x80, value: &[1, 2, 3] };
        assert!(matches!(ctx.check_op(&short_med), Err(HostError::BadAttrValue { code: 4, .. })));
        for code in 1..=3 {
            let mandatory = Err(HostError::MandatoryAttr { code });
            assert_eq!(ctx.check_op(&HostOp::RemoveAttr { code }), mandatory);
            assert_eq!(ctx.remove_attr(code), mandatory);
        }
        assert_eq!(ctx.remove_attr(9), Err(HostError::AttrNotPresent { code: 9 }));
    }

    #[test]
    fn write_buf_requires_encode_context() {
        let (mut sinks, mut out) = (Sinks::default(), Vec::new());
        let mut ctx = ctx(&mut sinks, Access::None);
        assert_eq!(ctx.check_op(&HostOp::WriteBuf { len: 1 }), Err(HostError::NoOutputBuffer));
        assert_eq!(ctx.write_buf(&[1]), Err(HostError::NoOutputBuffer));
        ctx.out_buf = Some(&mut out);
        ctx.check_op(&HostOp::WriteBuf { len: 2 }).unwrap();
        ctx.write_buf(&[1, 2]).unwrap();
        ctx.write_buf(&[3]).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn rov_helper_uses_hash_table() {
        let mut table = RoaHashTable::new();
        table.insert(rpki::Roa::new("10.0.0.0/8".parse().unwrap(), 24, 65001));
        let mut sinks = Sinks::default();
        let mut ctx = ctx(&mut sinks, Access::None);
        let net = "10.1.0.0/16".parse().unwrap();
        assert_eq!(ctx.check_origin(net, 65001), api::ROV_NOT_FOUND, "no table, no verdict");
        ctx.rov = Some(&table);
        assert_eq!(ctx.check_origin(net, 65001), api::ROV_VALID);
        assert_eq!(ctx.check_origin(net, 65002), api::ROV_INVALID);
    }
}
