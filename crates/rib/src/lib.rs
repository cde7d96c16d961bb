//! # xbgp-rib — the shared incremental RIB engine
//!
//! Both daemons key their RIBs on the same store so that a fix or an
//! optimisation lands once:
//!
//! * [`PrefixMap`] — a path-compressed binary trie keyed by
//!   [`Ipv4Prefix`]. Iteration is pre-order over the trie, which is
//!   *exactly* `(addr, len)`-lexicographic order — the same order a
//!   collect-and-sort over `Ipv4Prefix`'s derived `Ord` produces. Dump
//!   paths therefore never sort; determinism comes from the structure.
//!   A descent can be kept as a [`NodeId`], so an engine reaches a net
//!   once per route and works at the handle from there.
//! * [`DirtySet`] — an ordered set of prefixes touched by an UPDATE
//!   batch, drained in prefix order for batched *delta* best-path
//!   recomputation: only prefixes actually touched get re-decided.
//! * [`RibCounters`] / [`push_rib_gauges`] — the churn observability
//!   bundle (`xbgp_rib_*` series) shared by FIR and WREN so their
//!   `--metrics-out` snapshots line up row for row.

pub mod dirty;
pub mod map;
pub mod metrics;

pub use dirty::DirtySet;
pub use map::{NodeId, PrefixMap};
pub use metrics::{push_rib_gauges, RibCounters};
