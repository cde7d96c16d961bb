//! # bgp-fir — the FIR BGP daemon (FRRouting analogue)
//!
//! FIR is one of the two independent BGP implementations in this workspace
//! (the other is `bgp-wren`). It is deliberately structured like FRRouting
//! where that structure matters to xBGP (DESIGN.md §1):
//!
//! * **Host-order, fully parsed attributes** ([`attrs::FirAttrs`]): every
//!   received attribute is decoded into typed host-order fields and the
//!   resulting attribute sets are **interned** in a hash-consing table
//!   (FRR's `attrhash`). The xBGP glue must therefore *convert* between
//!   this representation and the neutral network-byte-order form on every
//!   `get_attr`/`set_attr` — the conversion cost the paper measured on
//!   FRRouting.
//! * **Trie-based native origin validation** ([`rpki::RoaTrie`]): FIR's
//!   native route-origin validation walks a bit trie per lookup, which is
//!   why the hash-based xBGP extension outperforms it (§3.4, Fig. 4).
//! * **Peer-group export**: export policy is evaluated per group of peers
//!   sharing an outbound configuration, and the current peer must be
//!   threaded into the xBGP insertion point explicitly (the "5 extra lines
//!   of code" item of §2.1).
//!
//! [`FirEngine`] implements the three RIBs, the decision process and
//! native route reflection (RFC 4456), and calls the host at each of the
//! five xBGP insertion points; the RFC 4271 session FSM, timers, stats,
//! UPDATE framing and the xBGP execution context around it are the shared
//! host's (`xbgp_driver::{host, xbgp_glue}`), and [`FirDaemon`] is that
//! host driving this engine.

pub mod attrs;
pub mod daemon;
pub mod rib;
pub mod xbgp_glue;

pub use daemon::{FirDaemon, FirEngine};
