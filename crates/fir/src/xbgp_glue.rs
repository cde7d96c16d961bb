//! FIR's side of xBGP: the attribute store.
//!
//! The execution context, its `HostApi` implementation and the five
//! insertion-point calls are the shared host's
//! ([`xbgp_driver::xbgp_glue`]); what FIR adds is how one route's
//! attributes answer the neutral API. Because FIR stores attributes
//! parsed and host-ordered, every access runs a conversion in
//! [`crate::attrs`] (`neutral_payload_into` / `set_neutral` /
//! `remove_neutral`) — FIR pays a representation tax on every `get_attr`
//! and `set_attr`, exactly like FRRouting in the paper.

use crate::attrs::FirAttrs;
use xbgp_driver::xbgp_glue::AttrStore;

impl AttrStore for FirAttrs {
    fn attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
        self.neutral_payload_into(code, out)
    }

    fn has_attr(&self, code: u8) -> bool {
        self.has_neutral(code)
    }

    fn store_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), String> {
        self.set_neutral(code, flags, value)
    }

    fn drop_attr(&mut self, code: u8) -> bool {
        self.remove_neutral(code)
    }

    fn nexthop(&self) -> u32 {
        self.next_hop
    }
}
