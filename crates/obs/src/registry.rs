//! Point-in-time metric snapshots.
//!
//! Components keep plain integer counters and [`Histogram`]s of their
//! own and materialise metrics on demand with [`Snapshot::push_counter`]
//! and friends — the VMM does this so its hot path pays a `u64`
//! increment, not a map lookup.
//!
//! [`Histogram`]: crate::Histogram

use crate::metrics::{HistogramSnapshot, MergeError};

/// Label set: ordered `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

/// One exported metric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub labels: Labels,
    pub value: MetricValue,
}

#[derive(Debug, Clone, PartialEq)]
// Histogram carries its full bucket array inline; snapshots are few and
// short-lived, so the per-variant size gap is not worth a Box indirection.
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// A point-in-time collection of metrics, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            labels: labels_of(labels),
            value: MetricValue::Counter(value),
        });
    }

    pub fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            labels: labels_of(labels),
            value: MetricValue::Gauge(value),
        });
    }

    pub fn push_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramSnapshot) {
        self.metrics.push(Metric {
            name: name.to_string(),
            labels: labels_of(labels),
            value: MetricValue::Histogram(h),
        });
    }

    /// Merge `other` into this snapshot, summing same-kind metrics.
    ///
    /// A metric in `other` whose `(name, labels)` pair already exists here
    /// with the same value kind is *combined*: counters and gauges add,
    /// histograms merge bucket-wise. Anything else is appended. This is
    /// what makes per-shard snapshots aggregate into the totals a
    /// single-threaded run over the whole workload would report; callers
    /// that tag snapshots with distinct labels first (`with_labels`) get
    /// the old append behaviour because no keys collide.
    ///
    /// Histogram merges are layout-checked: a bucket-count mismatch (or a
    /// malformed histogram claiming observations without buckets) aborts
    /// with [`MergeError`] naming the metric, leaving `self` with every
    /// metric merged up to the offending one.
    pub fn merge(&mut self, other: Snapshot) -> Result<(), MergeError> {
        for m in other.metrics {
            let slot = self.metrics.iter().position(|e| e.name == m.name && e.labels == m.labels);
            match slot {
                Some(i) => match (&mut self.metrics[i].value, m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        a.merge(&b).map_err(|e| e.with_metric(&m.name))?
                    }
                    // Same key, different kind: keep both rather than guess.
                    (_, value) => {
                        self.metrics.push(Metric { name: m.name, labels: m.labels, value })
                    }
                },
                None => self.metrics.push(m),
            }
        }
        Ok(())
    }

    /// Prefix every metric's label set with `extra` — how a harness tags a
    /// daemon-local snapshot with `daemon="bgp-fir"` before merging.
    pub fn with_labels(mut self, extra: &[(&str, &str)]) -> Snapshot {
        for m in &mut self.metrics {
            let mut labels = labels_of(extra);
            labels.append(&mut m.labels);
            m.labels = labels;
        }
        self
    }

    /// Sort by name then labels, for deterministic export output.
    pub fn sorted(mut self) -> Snapshot {
        self.metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self
    }

    /// Look up a counter by name and a subset of its labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).and_then(|m| match &m.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
    }

    /// Sum a counter across *all* of its label sets — e.g. total
    /// rollbacks regardless of insertion point or daemon. Returns 0 when
    /// the counter is absent, so callers asserting "no rollbacks" don't
    /// have to distinguish missing from zero.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Look up a gauge by name and a subset of its labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.find(name, labels).and_then(|m| match &m.value {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        })
    }

    /// Look up a histogram by name and a subset of its labels.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        self.find(name, labels).and_then(|m| match &m.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// First metric matching `name` whose labels contain every pair in
    /// `labels`.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.iter().find(|m| {
            m.name == name
                && labels.iter().all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sum_totals_across_label_sets() {
        let mut s = Snapshot::new();
        s.push_counter("rollbacks", &[("point", "inbound_filter")], 3);
        s.push_counter("rollbacks", &[("point", "decision")], 2);
        s.push_gauge("rollbacks", &[("point", "bogus")], 100); // wrong kind: ignored
        assert_eq!(s.counter_sum("rollbacks"), 5);
        assert_eq!(s.counter_sum("never_registered"), 0);
    }

    #[test]
    fn with_labels_prefixes_and_merge_appends() {
        let mut a = Snapshot::new();
        a.push_counter("runs", &[("point", "decision")], 5);
        let a = a.with_labels(&[("daemon", "bgp-fir")]);
        assert_eq!(
            a.counter_value("runs", &[("daemon", "bgp-fir"), ("point", "decision")]),
            Some(5)
        );

        let mut b = Snapshot::new();
        b.push_gauge("rib", &[], 9);
        let mut merged = a;
        merged.merge(b).unwrap();
        assert_eq!(merged.metrics.len(), 2);
    }

    #[test]
    fn merge_sums_matching_counters_gauges_and_histograms() {
        // Two "shards" each observe part of a workload; merging their
        // snapshots must equal one snapshot of the whole workload.
        let shard = |values: &[u64]| {
            let h = crate::Histogram::new();
            values.iter().for_each(|&v| h.observe(v));
            let mut s = Snapshot::new();
            s.push_counter("updates_total", &[("point", "inbound")], values.iter().sum());
            s.push_gauge("rib_size", &[], values.iter().sum::<u64>() as i64);
            s.push_histogram("latency_ns", &[], h.snapshot());
            s
        };
        let mut merged = shard(&[10]);
        merged.merge(shard(&[20])).unwrap();
        let expect = shard(&[10, 20]);
        assert_eq!(
            merged.counter_value("updates_total", &[("point", "inbound")]),
            expect.counter_value("updates_total", &[("point", "inbound")]),
        );
        assert_eq!(merged.gauge_value("rib_size", &[]), expect.gauge_value("rib_size", &[]));
        let (mh, eh) = (
            merged.histogram_value("latency_ns", &[]).unwrap(),
            expect.histogram_value("latency_ns", &[]).unwrap(),
        );
        assert_eq!(mh.count, eh.count);
        assert_eq!(mh.sum, eh.sum);
        assert_eq!(mh.buckets, eh.buckets);
        assert_eq!(merged.metrics.len(), 3, "matching keys combined, not appended");
    }

    #[test]
    fn merge_keeps_distinct_keys_and_kind_conflicts_separate() {
        let mut a = Snapshot::new();
        a.push_counter("x", &[("shard", "0")], 1);
        a.push_counter("y", &[], 2);
        let mut b = Snapshot::new();
        b.push_counter("x", &[("shard", "1")], 3); // different labels
        b.push_gauge("y", &[], 4); // same key, different kind
        a.merge(b).unwrap();
        assert_eq!(a.metrics.len(), 4);
        assert_eq!(a.counter_value("x", &[("shard", "0")]), Some(1));
        assert_eq!(a.counter_value("x", &[("shard", "1")]), Some(3));
        assert_eq!(a.counter_value("y", &[]), Some(2));
        assert!(a
            .metrics
            .iter()
            .any(|m| m.name == "y" && matches!(m.value, MetricValue::Gauge(4))));
    }

    #[test]
    fn merge_surfaces_bucket_mismatch_with_metric_name() {
        let mut a = Snapshot::new();
        a.push_histogram(
            "run_ns",
            &[],
            HistogramSnapshot { buckets: vec![1; 64], count: 64, sum: 64 },
        );
        let mut b = Snapshot::new();
        b.push_histogram(
            "run_ns",
            &[],
            HistogramSnapshot { buckets: vec![1; 8], count: 8, sum: 8 },
        );
        let err = a.merge(b).unwrap_err();
        assert_eq!(
            err,
            MergeError::BucketCountMismatch { metric: "run_ns".into(), left: 64, right: 8 }
        );
    }
}
