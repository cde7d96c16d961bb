//! Exact statistics for every number the benchmark reports. Nothing here
//! goes through `xbgp_obs::Histogram`, whose quantiles are log2 bucket
//! bounds (every value a `2^k - 1`).

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them, so they are the quartiles the driver computes from the same
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `None` for an empty sample. A single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(Summary { n, min: v[0], q1: v[0], median: v[0], q3: v[0] });
    }
    // Exclusive method: the i-th of m cut points sits at rank i*(n+1)/m
    // (1-based), interpolated linearly and clamped to the sample.
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some(Summary { n, min: v[0], q1: cut(1), median: cut(2), q3: cut(3) })
}

pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PercentileError {
    /// Fewer than ten samples lie beyond the requested percentile, so the
    /// value would be set by a handful of outliers.
    TooFewBeyond {
        beyond: usize,
    },
    OutOfRange,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`0 < p < 100`): the smallest sample with at
/// least `p`% of the sample at or below it. An order statistic of the
/// sample itself, never an interpolation or a bucket bound.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, PercentileError> {
    if !(p > 0.0 && p < 100.0) {
        return Err(PercentileError::OutOfRange);
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let beyond = v.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { beyond });
    }
    Ok(v[rank.max(1) - 1])
}

/// How late an open-loop generator ran: per update, the time from when it
/// was due to when TCP had taken it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    pub n: usize,
    pub median_us: f64,
    pub max_us: f64,
}

pub fn lateness(late_us: &[f64]) -> Option<Lateness> {
    let s = summarize(late_us)?;
    let max_us = late_us.iter().copied().fold(f64::MIN, f64::max);
    Some(Lateness { n: s.n, median_us: s.median, max_us })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        // Only one sample lies beyond the 99th of a hundred.
        assert_eq!(percentile(&v, 99.0), Err(PercentileError::TooFewBeyond { beyond: 1 }));
        assert_eq!(percentile(&v, 100.0), Err(PercentileError::OutOfRange));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), Err(PercentileError::TooFewBeyond { beyond: 9 }));
        // A p99 needs a thousand samples, a p90 a hundred.
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Ok(990.0));
        assert!(percentile(&v[..999], 99.0).is_err());
    }

    #[test]
    fn lateness_reports_median_and_max() {
        let l = lateness(&[10.0, 30.0, 20.0]).unwrap();
        assert_eq!((l.n, l.median_us, l.max_us), (3, 20.0, 30.0));
        assert_eq!(lateness(&[]), None);
    }
}
