//! Lock-free log2-bucket histograms.
//!
//! A [`Histogram`] is updated through `&self` with relaxed atomics — safe
//! to share via `Arc` across threads, free of locks on the hot path.
//! Relaxed ordering is deliberate: metrics need eventual visibility, not
//! synchronisation edges. Counters and gauges are plain integers kept by
//! each component and pushed into a [`crate::Snapshot`] on demand.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket `i` (for `i ≥ 1`) counts values
/// needing exactly `i` significant bits, i.e. `v ∈ [2^(i-1), 2^i)`;
/// bucket 0 counts zeros; the last bucket absorbs everything ≥ 2^62.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Log2-bucket histogram for latency-style values (typically nanoseconds).
///
/// One atomic `fetch_add` per observation; `count` and `sum` are tracked so
/// exporters can derive averages exactly while quantiles come from the
/// bucket boundaries (within 2× of the true value, which is what a log2
/// layout buys).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket `value` lands in: the number of significant
    /// bits, capped to the last bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i`; the last bucket is unbounded
    /// (`u64::MAX` stands in for +Inf).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Why two snapshots refused to merge. Carries the metric name when the
/// snapshot layer knows it (bare histogram merges leave it empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The two histograms have different bucket layouts; summing them
    /// pairwise would silently truncate to the shorter one.
    BucketCountMismatch {
        metric: String,
        left: usize,
        right: usize,
    },
    /// A histogram claims observations but carries no buckets to hold
    /// them — a malformed (e.g. mis-parsed) snapshot.
    EmptyHistogram { metric: String },
}

impl MergeError {
    /// Attach the metric name ([`crate::Snapshot::merge`] knows it;
    /// callers of the bare histogram merge usually don't).
    pub fn with_metric(mut self, name: &str) -> MergeError {
        match &mut self {
            MergeError::BucketCountMismatch { metric, .. }
            | MergeError::EmptyHistogram { metric } => {
                if metric.is_empty() {
                    *metric = name.to_string();
                }
            }
        }
        self
    }

    fn metric(&self) -> &str {
        match self {
            MergeError::BucketCountMismatch { metric, .. }
            | MergeError::EmptyHistogram { metric } => metric,
        }
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = if self.metric().is_empty() {
            "<histogram>"
        } else {
            self.metric()
        };
        match self {
            MergeError::BucketCountMismatch { left, right, .. } => {
                write!(f, "cannot merge `{name}`: bucket count mismatch ({left} vs {right})")
            }
            MergeError::EmptyHistogram { .. } => {
                write!(f, "cannot merge `{name}`: non-empty histogram has no buckets")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Point-in-time copy of a [`Histogram`].
///
/// `buckets` is a `Vec` rather than a fixed array so snapshots from other
/// layouts (or parsed from an export) are representable — which is exactly
/// why [`HistogramSnapshot::merge`] must check layouts instead of zipping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the q-quantile observation
    /// (`0.0 ≤ q ≤ 1.0`). Approximate by construction: within one log2
    /// bucket of the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// An empty shell: no buckets, no observations. Merging adopts the
    /// other side's layout; claiming observations without buckets is the
    /// malformed state [`MergeError::EmptyHistogram`] rejects.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.count == 0 && self.sum == 0
    }

    /// Merge another snapshot into this one (used when aggregating the
    /// same metric across label sets or shards). Bucket layouts must
    /// match — a mismatch is an error, never a silent zip-truncation. An
    /// all-empty side (no buckets, no observations) merges as a no-op /
    /// layout adoption.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), MergeError> {
        let malformed = |s: &HistogramSnapshot| s.buckets.is_empty() && (s.count > 0 || s.sum > 0);
        if malformed(self) || malformed(other) {
            return Err(MergeError::EmptyHistogram { metric: String::new() });
        }
        if other.is_empty() {
            return Ok(());
        }
        if self.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        if self.buckets.len() != other.buckets.len() {
            return Err(MergeError::BucketCountMismatch {
                metric: String::new(),
                left: self.buckets.len(),
                right: other.buckets.len(),
            });
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_indices() {
        // Every value must fall in a bucket whose upper bound contains it.
        for v in [0u64, 1, 2, 3, 15, 16, 1000, 1 << 20, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > Histogram::bucket_upper_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_observe_and_snapshot() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 3, 100, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 5107);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 3, 3
        assert_eq!(s.buckets[7], 1); // 100 ∈ [64,128)
        assert_eq!(s.buckets[13], 1); // 5000 ∈ [4096,8192)
        assert!((s.mean() - 5107.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_tracks_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(10); // bucket 4, upper bound 15
        }
        for _ in 0..10 {
            h.observe(1000); // bucket 10, upper bound 1023
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 15);
        assert_eq!(s.quantile(0.99), 1023);
        assert_eq!(s.quantile(0.0), 15);
    }

    #[test]
    fn snapshot_merge_adds_fields() {
        let a = Histogram::new();
        a.observe(5);
        let b = Histogram::new();
        b.observe(100);
        b.observe(7);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot()).unwrap();
        assert_eq!(sa.count, 3);
        assert_eq!(sa.sum, 112);
    }

    #[test]
    fn merge_rejects_mismatched_bucket_counts() {
        let mut a = HistogramSnapshot { buckets: vec![1; 64], count: 64, sum: 64 };
        let b = HistogramSnapshot { buckets: vec![1; 32], count: 32, sum: 32 };
        let err = a.merge(&b).unwrap_err();
        assert_eq!(
            err,
            MergeError::BucketCountMismatch { metric: String::new(), left: 64, right: 32 }
        );
        // Nothing was truncated-into: the receiver is untouched.
        assert_eq!(a.count, 64);
        let named = err.with_metric("xbgp_run_ns");
        assert!(named.to_string().contains("xbgp_run_ns"));
    }

    #[test]
    fn merge_rejects_malformed_empty_histograms() {
        let mut a = HistogramSnapshot::default();
        let claims_without_buckets = HistogramSnapshot { buckets: vec![], count: 5, sum: 10 };
        assert_eq!(
            a.merge(&claims_without_buckets).unwrap_err(),
            MergeError::EmptyHistogram { metric: String::new() }
        );
    }

    #[test]
    fn merge_adopts_layout_from_a_truly_empty_side() {
        let mut empty = HistogramSnapshot { buckets: vec![], count: 0, sum: 0 };
        let h = Histogram::new();
        h.observe(9);
        empty.merge(&h.snapshot()).unwrap();
        assert_eq!(empty.count, 1);
        assert_eq!(empty.buckets.len(), HISTOGRAM_BUCKETS);
        // And the mirror image: merging empty into populated is a no-op.
        let mut populated = h.snapshot();
        populated
            .merge(&HistogramSnapshot { buckets: vec![], count: 0, sum: 0 })
            .unwrap();
        assert_eq!(populated.count, 1);
    }
}
