//! # bgp-wren — the WREN BGP daemon (BIRD analogue)
//!
//! WREN is the second independent BGP implementation of this workspace
//! (its sibling is `bgp-fir`). Where FIR parses everything into host-order
//! structs, WREN follows BIRD's design choices (DESIGN.md §1):
//!
//! * **Wire-order `ea_list` attributes** ([`ealist::EaList`]): attributes
//!   are stored as a flat, code-sorted list of raw network-byte-order
//!   payloads, decoded lazily by typed accessors. The xBGP glue is
//!   therefore almost free — `get_attr` hands out the stored bytes, and
//!   BIRD's "flexible API to manage BGP attributes" maps directly onto
//!   `set_attr`/`add_attr` (the paper: "xBGP simply extends this API").
//! * **Hash-based native origin validation** ([`rpki::RoaHashTable`]):
//!   BIRD's ROA table is a hash structure, which is why its native origin
//!   validation performs like the xBGP extension in Fig. 4.
//! * **One routing table with per-net route lists** ([`rtable::RTable`]):
//!   like BIRD's `rtable`, all routes for a prefix live in one
//!   preference-ordered list tagged with their source channel; there is no
//!   materialized per-peer Adj-RIB-In.
//!
//! The session FSM, timers, stats, UPDATE framing and the xBGP execution
//! context are not WREN's at all: [`WrenDaemon`] is the shared host
//! (`xbgp_driver::{host, xbgp_glue}`) driving [`WrenEngine`]. Protocol behaviour (decision outcomes, reflection rules) is
//! RFC-equivalent to FIR — the integration tests in the workspace root
//! assert the two daemons compute identical Loc-RIBs on identical
//! topologies — while the internals differ the way BIRD differs from
//! FRRouting.

pub mod daemon;
pub mod ealist;
pub mod rtable;
pub mod xbgp_glue;

pub use daemon::{WrenDaemon, WrenEngine};
