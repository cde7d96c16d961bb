//! Shared topology helpers for the integration tests.

use netsim::{NodeId, Sim, SimConfig};
use xbgp_wire::Ipv4Prefix;

pub const MS: u64 = 1_000_000;
pub const SEC: u64 = 1_000_000_000;

pub fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// A simulator plus `n` reserved node slots, each to be filled with
/// `replace_node` before the simulation starts.
pub fn sim_with_nodes(n: usize) -> (Sim, Vec<NodeId>) {
    let mut sim = Sim::new(SimConfig::default());
    let nodes = (0..n).map(|_| sim.reserve_node()).collect();
    (sim, nodes)
}
