//! # xbgp-harness — experiment driver
//!
//! Regenerates every quantitative artifact of the paper:
//!
//! * [`fig1`] — the CDF of IETF standardization delays (Fig. 1),
//! * [`fig3`] — the measurement testbed (Fig. 3): a [`feeder`], a device
//!   under test ([`dut`]) and a [`sink`] on a simulated chain, with CPU
//!   accounting turned on so extension-vs-native compute differences
//!   surface as virtual-time deltas. The one chain runs table loads and,
//!   given a churn stream, steady-state churn ([`churn`]),
//! * [`fig4`] — the relative-performance experiment (Fig. 4) over both
//!   daemons and both use cases,
//! * [`scenario`] — declarative multi-router networks, the one topology
//!   format: the Fig. 5 Clos configurations, churn storms and fault
//!   injection are documents under `scenarios/`,
//! * [`stats`] — run statistics (boxplot summaries) shared by the
//!   binaries and examples.
//!
//! Binaries: `fig1`, `fig4`, `loc_table`, `xbgp-sim`.

pub mod churn;
pub mod dut;
pub mod feeder;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod scenario;
pub mod sink;
pub mod stats;

pub use dut::{build, Daemon, DaemonSpec, DutNode};
pub use feeder::Feeder;
pub use fig3::{Dut, Fig3Outcome, Fig3Spec, UseCase};
pub use fig4::Fig4Config;
pub use sink::Sink;

/// Insertion-point names for trace export, indexed by `TraceEvent::point`
/// — what [`xbgp_obs::trace::TraceDump::to_jsonl`] and `to_chrome` expect
/// as their name table.
pub fn trace_point_names() -> Vec<&'static str> {
    xbgp_core::api::InsertionPoint::ALL.iter().map(|p| p.name()).collect()
}
