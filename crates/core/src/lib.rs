//! # xbgp-core — libxbgp: the vendor-neutral xBGP layer
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! contains the three core elements of xBGP (§2):
//!
//! 1. **The xBGP API** ([`api`]): a set of helper functions exposing the key
//!    features and data structures that any BGP implementation maintains
//!    (RFC 4271's Adj-RIB-In, Loc-RIB, Adj-RIB-Out, peer table, attributes),
//!    plus the neutral ABI the helpers speak — fixed-layout structs such as
//!    [`api::PeerInfo`], network-byte-order attribute payloads, and the
//!    numeric constants shared between host implementations and extension
//!    bytecode.
//! 2. **Insertion points** ([`api::InsertionPoint`]): the five locations in
//!    a BGP implementation where extension code can attach (Fig. 2's green
//!    circles).
//! 3. **The Virtual Machine Manager** ([`vmm::Vmm`]): loads a
//!    [`manifest::Manifest`], verifies each bytecode against the helpers it
//!    declares, attaches it to its insertion point, and at runtime
//!    multiplexes execution — ordered chains, `next()` delegation, fallback
//!    to the host's native behaviour, monitored execution with error
//!    containment, and isolated ephemeral/persistent extension memory.
//!
//! A BGP implementation becomes xBGP-compliant by implementing the
//! [`host::HostApi`] trait and calling [`vmm::Vmm::run`] at each insertion
//! point. The two daemons in this workspace (`bgp-fir`, `bgp-wren`) do
//! exactly that, with internal representations as different as FRRouting's
//! and BIRD's — the same bytecode runs unmodified on both.

pub mod api;
pub mod contracts;
pub mod host;
pub mod manifest;
pub mod policy;
pub mod vmm;

pub use api::{helper, InsertionPoint, NextHopInfo, PeerInfo, PeerType};
pub use contracts::analysis_options;
pub use host::{HostApi, HostError, HostOp};
pub use manifest::{ExtensionSpec, Manifest};
pub use policy::OnFault;
pub use vmm::{Vmm, VmmError, VmmOutcome};
