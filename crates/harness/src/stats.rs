//! Run statistics: the five-number summaries behind Fig. 4's boxplots.

use std::fmt;

/// Five-number summary plus the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
}

/// An empty sample has no quantiles. Surfaced as an explicit error
/// instead of a silent all-zero summary: a figure cell with zero completed runs is a harness
/// bug the caller must attribute, not a boxplot collapsed onto zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySample;

impl fmt::Display for EmptySample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot summarize an empty sample")
    }
}

impl std::error::Error for EmptySample {}

/// Linear-interpolation quantile of a sorted slice (type-7, the common
/// default of numpy/matplotlib, which the paper's boxplots use). A
/// single-element slice is its own quantile at every `q`; an empty slice
/// is an [`EmptySample`] error.
pub fn quantile(sorted: &[f64], q: f64) -> Result<f64, EmptySample> {
    if sorted.is_empty() {
        return Err(EmptySample);
    }
    if sorted.len() == 1 {
        return Ok(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Summarize a sample. An empty slice is an [`EmptySample`] error; a
/// single-element sample is a legal (degenerate) boxplot with every
/// statistic equal to that element.
pub fn summarize(values: &[f64]) -> Result<Summary, EmptySample> {
    if values.is_empty() {
        return Err(EmptySample);
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in measurements"));
    Ok(Summary {
        min: sorted[0],
        q1: quantile(&sorted, 0.25).expect("non-empty"),
        median: quantile(&sorted, 0.5).expect("non-empty"),
        q3: quantile(&sorted, 0.75).expect("non-empty"),
        max: *sorted.last().expect("non-empty"),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    })
}

/// Relative impact in percent: `(ext - native) / native * 100` (Fig. 4's
/// y-axis). A zero (or non-finite) native baseline yields 0 instead of
/// dividing by it.
pub fn relative_impact_pct(native: f64, extension: f64) -> f64 {
    if native == 0.0 || !native.is_finite() || !extension.is_finite() {
        return 0.0;
    }
    (extension - native) / native * 100.0
}

/// Render a summary as a one-line text boxplot.
pub fn render(s: &Summary) -> String {
    format!(
        "min {:+7.2}%  q1 {:+7.2}%  median {:+7.2}%  q3 {:+7.2}%  max {:+7.2}%  (mean {:+7.2}%)",
        s.min, s.q1, s.median, s.q3, s.max, s.mean
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary_of_known_sample() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = summarize(&[0.0, 10.0]).unwrap();
        assert_eq!(s.q1, 2.5);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q3, 7.5);
    }

    #[test]
    fn single_sample_is_a_degenerate_boxplot_not_an_error() {
        let s = summarize(&[42.0]).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.q1, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.q3, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!(quantile(&[42.0], 0.99), Ok(42.0));
    }

    #[test]
    fn relative_impact() {
        assert_eq!(relative_impact_pct(100.0, 120.0), 20.0);
        assert_eq!(relative_impact_pct(100.0, 90.0), -10.0);
    }

    #[test]
    fn empty_sample_is_a_typed_error_not_a_zeroed_summary() {
        let err = summarize(&[]).unwrap_err();
        assert_eq!(err, EmptySample);
        assert!(err.to_string().contains("empty sample"), "{err}");
        assert_eq!(quantile(&[], 0.5), Err(EmptySample));
    }

    #[test]
    fn zero_or_nonfinite_baseline_yields_zero_impact() {
        assert_eq!(relative_impact_pct(0.0, 120.0), 0.0);
        assert_eq!(relative_impact_pct(f64::NAN, 120.0), 0.0);
        assert_eq!(relative_impact_pct(100.0, f64::INFINITY), 0.0);
    }
}
