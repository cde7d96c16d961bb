//! # xbgp — facade crate for the xBGP reproduction
//!
//! Re-exports the workspace crates under one roof. See the README for the
//! architecture and DESIGN.md for the paper-to-code map.
//!
//! ```
//! use xbgp::core::{InsertionPoint, Vmm, VmmOutcome};
//! use xbgp::progs;
//!
//! // Load the paper's §3.1 IGP-cost filter into a VMM.
//! let mut vmm = Vmm::from_manifest(&progs::igp_filter::manifest()).unwrap();
//! assert!(vmm.has_extensions(InsertionPoint::BgpOutboundFilter));
//! ```

pub use bgp_fir as fir;
pub use bgp_wren as wren;
pub use igp;
pub use netsim;
pub use routegen;
pub use rpki;
pub use xbgp_asm as asm;
pub use xbgp_core as core;
pub use xbgp_driver as driver;
pub use xbgp_harness as harness;
pub use xbgp_progs as progs;
pub use xbgp_vm as vm;
pub use xbgp_wire as wire;
