//! xBGP execution contexts for WREN.
//!
//! BIRD already stores attributes as wire-order `ea_list`s with a generic
//! attribute API, so the paper reports the xBGP integration was almost
//! free ("BIRD includes a flexible API to manage BGP attributes. xBGP
//! simply extends this API"). WREN reproduces that: `get_attr` returns the
//! stored payload bytes, `set_attr` stores them — no representation
//! conversion, unlike FIR.

use crate::ealist::EaList;
use rpki::{RoaHashTable, RoaTable};
use xbgp_core::api::{NextHopInfo, PeerInfo};
use xbgp_core::{HostApi, HostError, HostOp};
use xbgp_wire::Ipv4Prefix;

/// How the current insertion point exposes the route's `ea_list`.
pub enum EaAccess<'a> {
    None,
    Read(&'a EaList),
    /// Copy-on-write over a shared list.
    Cow {
        base: &'a EaList,
        modified: &'a mut Option<EaList>,
    },
    Mut(&'a mut EaList),
}

impl EaAccess<'_> {
    /// Non-mutating probe used by `check_op`: can this point write
    /// attributes at all? (A `write()` call would clone on a Cow point.)
    fn writable(&self) -> bool {
        !matches!(self, EaAccess::None | EaAccess::Read(_))
    }

    fn read(&self) -> Option<&EaList> {
        match self {
            EaAccess::None => None,
            EaAccess::Read(l) => Some(l),
            EaAccess::Cow { base, modified } => Some(modified.as_ref().unwrap_or(base)),
            EaAccess::Mut(l) => Some(l),
        }
    }

    fn write(&mut self) -> Option<&mut EaList> {
        match self {
            EaAccess::None | EaAccess::Read(_) => None,
            EaAccess::Cow { base, modified } => {
                if modified.is_none() {
                    **modified = Some((*base).clone());
                }
                modified.as_mut()
            }
            EaAccess::Mut(l) => Some(l),
        }
    }
}

/// Execution context for one WREN insertion-point call.
pub struct WrenXbgpCtx<'a> {
    pub peer: PeerInfo,
    /// Insertion-point arguments, borrowed from the daemon.
    pub args: &'a [&'a [u8]],
    pub eattrs: EaAccess<'a>,
    pub net: Option<Ipv4Prefix>,
    pub nexthop: Option<NextHopInfo>,
    pub xtra: &'a [(String, Vec<u8>)],
    pub out_buf: Option<&'a mut Vec<u8>>,
    pub rov: Option<&'a RoaHashTable>,
    pub rib_adds: &'a mut Vec<(Ipv4Prefix, u32)>,
    pub logs: &'a mut Vec<String>,
}

impl HostApi for WrenXbgpCtx<'_> {
    fn peer_info(&self) -> PeerInfo {
        self.peer
    }

    fn nexthop_info(&self) -> Option<NextHopInfo> {
        self.nexthop
    }

    fn prefix(&self) -> Option<Ipv4Prefix> {
        self.net
    }

    fn arg(&self, idx: u32) -> Option<&[u8]> {
        self.args.get(idx as usize).copied()
    }

    fn get_attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
        // The stored form is already the neutral form: a straight copy.
        let ea = self.eattrs.read()?.get(code)?;
        out.extend_from_slice(&ea.raw);
        Some(ea.flags)
    }

    fn has_attr(&self, code: u8) -> bool {
        self.eattrs.read().is_some_and(|l| l.get(code).is_some())
    }

    fn check_op(&self, op: &HostOp<'_>) -> Result<(), HostError> {
        // An `ea_list` stores any payload verbatim, so the only stage-time
        // conditions are point writability, buffer availability and the
        // mandatory attributes (ORIGIN, AS_PATH, NEXT_HOP) staying put.
        match op {
            HostOp::SetAttr { .. } if !self.eattrs.writable() => {
                Err(HostError::ReadOnlyPoint { op: "set_attr" })
            }
            HostOp::RemoveAttr { .. } if !self.eattrs.writable() => {
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
        let list = self.eattrs.write().ok_or(HostError::ReadOnlyPoint { op: "set_attr" })?;
        list.set(code, flags, value.to_vec());
        Ok(())
    }

    fn remove_attr(&mut self, code: u8) -> Result<(), HostError> {
        let list = self.eattrs.write().ok_or(HostError::ReadOnlyPoint { op: "remove_attr" })?;
        if (1..=3).contains(&code) {
            Err(HostError::MandatoryAttr { code })
        } else if list.unset(code) {
            Ok(())
        } else {
            Err(HostError::AttrNotPresent { code })
        }
    }

    fn get_xtra(&self, key: &str) -> Option<Vec<u8>> {
        self.xtra.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    fn write_buf(&mut self, data: &[u8]) -> Result<(), HostError> {
        match self.out_buf.as_deref_mut() {
            Some(buf) => {
                buf.extend_from_slice(data);
                Ok(())
            }
            None => Err(HostError::NoOutputBuffer),
        }
    }

    fn check_origin(&self, prefix: Ipv4Prefix, origin_asn: u32) -> u64 {
        match self.rov {
            Some(table) => table.validate(prefix, origin_asn) as u8 as u64,
            None => xbgp_core::api::ROV_NOT_FOUND,
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

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_core::api::PeerType;

    fn peer() -> PeerInfo {
        PeerInfo {
            router_id: 1,
            asn: 65002,
            peer_type: PeerType::Ebgp,
            local_router_id: 2,
            local_asn: 65001,
            flags: 0,
        }
    }

    #[test]
    fn get_attr_is_a_straight_copy_of_stored_bytes() {
        let mut list = EaList::new();
        list.set(5, 0x40, 100u32.to_be_bytes().to_vec());
        let mut rib_adds = Vec::new();
        let mut logs = Vec::new();
        let ctx = WrenXbgpCtx {
            peer: peer(),
            args: &[],
            eattrs: EaAccess::Read(&list),
            net: None,
            nexthop: None,
            xtra: &[],
            out_buf: None,
            rov: None,
            rib_adds: &mut rib_adds,
            logs: &mut logs,
        };
        let (flags, payload) = ctx.get_attr(5).unwrap();
        assert_eq!(flags, 0x40);
        assert_eq!(payload, 100u32.to_be_bytes());
    }

    #[test]
    fn cow_preserves_shared_base() {
        let mut base = EaList::new();
        base.set(4, 0x80, 1u32.to_be_bytes().to_vec());
        let mut modified = None;
        let mut rib_adds = Vec::new();
        let mut logs = Vec::new();
        let mut ctx = WrenXbgpCtx {
            peer: peer(),
            args: &[],
            eattrs: EaAccess::Cow { base: &base, modified: &mut modified },
            net: None,
            nexthop: None,
            xtra: &[],
            out_buf: None,
            rov: None,
            rib_adds: &mut rib_adds,
            logs: &mut logs,
        };
        ctx.set_attr(4, 0x80, &9u32.to_be_bytes()).unwrap();
        assert_eq!(ctx.get_attr(4).unwrap().1, 9u32.to_be_bytes());
        assert_eq!(base.med(), Some(1));
        assert_eq!(modified.unwrap().med(), Some(9));
    }
}
