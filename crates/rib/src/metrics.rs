//! The shared `xbgp_rib_*` observability bundle.
//!
//! Both daemons account RIB churn through the same counter block and
//! gauge pusher so a merged `--metrics-out` snapshot compares FIR and
//! WREN row for row:
//!
//! * gauges — `xbgp_rib_adj_in` (candidate routes across all peers),
//!   `xbgp_rib_loc` (nets with a best route), `xbgp_rib_dirty_pending`
//!   (prefixes awaiting delta re-decision at snapshot time; 0 at any
//!   quiescent point);
//! * counters — `xbgp_rib_updates_applied_total`,
//!   `xbgp_rib_withdrawals_total`, `xbgp_rib_best_changes_total`,
//!   `xbgp_rib_descents_total` (walks from the root of the engine's route
//!   table — the exact count behind "one descent per route");
//! * histogram — `xbgp_rib_delta_batch_size`, one observation per
//!   drained dirty batch (how many prefixes each UPDATE batch actually
//!   re-decided — the quantity the incremental engine keeps small).

use xbgp_obs::{Histogram, Snapshot};

/// Per-daemon RIB churn accounting. Plain integers: the daemons are
/// single-threaded event handlers, so the hot path pays an increment,
/// not an atomic RMW (the histogram's relaxed atomics are the
/// exception, reused from `xbgp-obs` for its bucket layout).
#[derive(Debug, Default)]
pub struct RibCounters {
    /// Routes applied to the candidate store (announcements accepted).
    pub updates_applied: u64,
    /// Routes removed from the candidate store (explicit withdraws,
    /// replaced announcements are not counted).
    pub withdrawals: u64,
    /// Best-path changes committed to the Loc-RIB view.
    pub best_changes: u64,
    /// Size of each drained delta batch (prefixes re-decided per batch).
    pub delta_batch_size: Histogram,
}

impl RibCounters {
    pub fn new() -> RibCounters {
        RibCounters::default()
    }

    /// Append the counter block to a snapshot (gauges are pushed
    /// separately via [`push_rib_gauges`] — they read live sizes the
    /// counters don't know). `descents` is the route table's
    /// [`crate::PrefixMap::descents`]: the trie counts its own walks, so
    /// no call site can miss one.
    pub fn push(&self, snap: &mut Snapshot, descents: u64) {
        snap.push_counter("xbgp_rib_updates_applied_total", &[], self.updates_applied);
        snap.push_counter("xbgp_rib_withdrawals_total", &[], self.withdrawals);
        snap.push_counter("xbgp_rib_best_changes_total", &[], self.best_changes);
        snap.push_counter("xbgp_rib_descents_total", &[], descents);
        snap.push_histogram("xbgp_rib_delta_batch_size", &[], self.delta_batch_size.snapshot());
    }
}

/// Append the RIB occupancy gauges to a snapshot.
pub fn push_rib_gauges(snap: &mut Snapshot, adj_in: usize, loc: usize, dirty_pending: usize) {
    snap.push_gauge("xbgp_rib_adj_in", &[], adj_in as i64);
    snap.push_gauge("xbgp_rib_loc", &[], loc as i64);
    snap.push_gauge("xbgp_rib_dirty_pending", &[], dirty_pending as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_land_in_snapshots() {
        let mut c = RibCounters::new();
        c.updates_applied += 10;
        c.withdrawals += 3;
        c.best_changes += 7;
        c.delta_batch_size.observe(3);
        c.delta_batch_size.observe(5);

        let mut snap = Snapshot::new();
        c.push(&mut snap, 12);
        push_rib_gauges(&mut snap, 42, 40, 0);

        assert_eq!(snap.counter_value("xbgp_rib_updates_applied_total", &[]), Some(10));
        assert_eq!(snap.counter_value("xbgp_rib_withdrawals_total", &[]), Some(3));
        assert_eq!(snap.counter_value("xbgp_rib_best_changes_total", &[]), Some(7));
        assert_eq!(snap.counter_value("xbgp_rib_descents_total", &[]), Some(12));
        assert_eq!(snap.histogram_value("xbgp_rib_delta_batch_size", &[]).unwrap().count, 2);
        assert_eq!(snap.gauge_value("xbgp_rib_adj_in", &[]), Some(42));
        assert_eq!(snap.gauge_value("xbgp_rib_loc", &[]), Some(40));
        assert_eq!(snap.gauge_value("xbgp_rib_dirty_pending", &[]), Some(0));

        // Shard merge must combine, not duplicate, these keys.
        let mut other = Snapshot::new();
        c.push(&mut other, 12);
        push_rib_gauges(&mut other, 1, 1, 1);
        snap.merge(other).unwrap();
        assert_eq!(snap.counter_value("xbgp_rib_updates_applied_total", &[]), Some(20));
        assert_eq!(snap.gauge_value("xbgp_rib_adj_in", &[]), Some(43));
        assert_eq!(snap.histogram_value("xbgp_rib_delta_batch_size", &[]).unwrap().count, 4);
    }
}
