//! Statistics and experiment-output helpers.
//!
//! The experiment drivers record per-client time series (bitrate traces for
//! Fig. 7, stall/framerate metrics for Fig. 8/10) and distributions (the
//! controller call-interval CDF of Fig. 12). These helpers keep that code
//! small and uniform.

use crate::time::SimTime;

/// A collected sample set supporting percentiles and CDF export.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The `p`-th percentile (0–100) by nearest-rank on the sorted samples.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Empirical CDF as `(value, cumulative_fraction)` points.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        sorted.iter().enumerate().map(|(i, &v)| (v, (i + 1) as f64 / n)).collect()
    }

    /// Borrow the raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A `(time, value)` series recorder, e.g. the per-second send-rate trace of
/// the transient-response experiment (Fig. 7).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Times are expected (but not required) to be monotone.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of values with `t` in `[from, to)`, or `None` if that window is
    /// empty.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut acc = 0.0;
        let mut n = 0u64;
        for &(t, v) in &self.points {
            if t >= from && t < to {
                acc += v;
                n += 1;
            }
        }
        (n > 0).then(|| acc / n as f64)
    }
}

/// Normalize a slice so that its maximum maps to 1.0 (as the paper does for
/// all confidential production metrics). An all-zero slice is returned as-is.
pub fn normalize_to_max(values: &[f64]) -> Vec<f64> {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() || max <= 0.0 {
        return values.to_vec();
    }
    values.iter().map(|v| v / max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.percentile(50.0) - 50.0).abs() <= 1.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0, 2.0] {
            s.push(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 4);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_window_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 1.0);
        ts.push(SimTime::from_secs(1), 2.0);
        ts.push(SimTime::from_secs(2), 4.0);
        assert_eq!(ts.window_mean(SimTime::from_secs(0), SimTime::from_secs(2)), Some(1.5));
        assert_eq!(ts.window_mean(SimTime::from_secs(10), SimTime::from_secs(11)), None);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize_to_max(&[1.0, 2.0, 4.0]), vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize_to_max(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
