//! WREN's side of xBGP: the attribute store.
//!
//! The execution context, its `HostApi` implementation and the five
//! insertion-point calls are the shared host's
//! ([`xbgp_driver::xbgp_glue`]); what WREN adds is how one route's
//! attributes answer the neutral API. BIRD already stores attributes as
//! wire-order `ea_list`s with a generic attribute API, so the paper
//! reports the xBGP integration was almost free ("BIRD includes a
//! flexible API to manage BGP attributes. xBGP simply extends this
//! API"). WREN reproduces that: `get_attr` copies the stored payload
//! bytes out, `set_attr` copies them in, and export writes them into the
//! frame — no representation conversion, unlike FIR. All that is added is what keeps the two stores
//! indistinguishable to a program: the shared payload check, canonical
//! flags, and no empty COMMUNITIES / CLUSTER_LIST.

use crate::ealist::EaList;
use xbgp_driver::xbgp_glue::AttrStore;
use xbgp_wire::attr::{stored_flags, validate_neutral};

impl AttrStore for EaList {
    fn attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
        let ea = self.get(code)?;
        out.extend_from_slice(ea.raw);
        Some(ea.flags)
    }

    fn has_attr(&self, code: u8) -> bool {
        self.get(code).is_some()
    }

    fn store_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), String> {
        validate_neutral(code, value)?;
        if matches!(code, 8 | 10) && value.is_empty() {
            self.unset(code);
        } else {
            self.set(code, stored_flags(code, flags), value);
        }
        Ok(())
    }

    fn drop_attr(&mut self, code: u8) -> bool {
        self.unset(code)
    }

    fn nexthop(&self) -> u32 {
        self.next_hop().unwrap_or(0)
    }

    fn write_attrs(&self, out: &mut Vec<u8>, asn_width: usize) {
        EaList::write_attrs(self, out, asn_width)
    }
}
