//! The single fir-vs-wren construction site.
//!
//! Every front-end in the workspace — the Fig. 3 chain, the shard
//! workers, the scenario runner, the churn bench, and the `xbgp-serve`
//! socket runtime — describes the daemon it wants as an
//! [`xbgp_driver::DaemonSpec`] and calls [`build`]. Both daemons are the
//! shared host `xbgp_driver::host::BgpDaemon<E>` around their own route
//! engine and take the spec as it is, so the match below only picks `E`:
//! it is the one place that names a concrete daemon type, and a third
//! implementation means one more arm here and one more
//! `xbgp_driver::host::RouteEngine` in its crate.

use bgp_fir::FirDaemon;
use bgp_wren::WrenDaemon;

pub use xbgp_driver::{Daemon, DaemonCounters, DaemonSpec, Dut, DutNode, NeighborDecl};

/// Instantiate the requested implementation behind the driver seam.
pub fn build(dut: Dut, spec: DaemonSpec) -> DutNode {
    match dut {
        Dut::Fir => DutNode(Box::new(FirDaemon::new(spec))),
        Dut::Wren => DutNode(Box::new(WrenDaemon::new(spec))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkId;

    #[test]
    fn build_produces_the_requested_kind() {
        for dut in [Dut::Fir, Dut::Wren] {
            let spec = DaemonSpec::new(65000, 2).neighbor(LinkId(0), 1, 65001);
            let node = build(dut, spec);
            assert_eq!(node.0.kind(), dut);
            assert_eq!(node.0.loc_rib_len(), 0);
            assert!(!node.0.session_established(1));
            assert_eq!(node.0.counters(), DaemonCounters::default());
        }
    }
}
