//! Exponentially-weighted moving average.

/// A simple EWMA: `y ← (1-α)·y + α·x`.
///
/// Used by the delay-gradient filter and rate smoothers in `gso-bwe`, and by
/// QoE trackers in the harness.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Feed a sample; the first sample initializes the average.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(y) => (1.0 - self.alpha) * y + self.alpha * x,
        });
    }

    /// Current average, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before the first sample.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Discard state, as if freshly constructed.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn converges_toward_constant_input() {
        let mut e = Ewma::new(0.5);
        e.push(0.0);
        for _ in 0..50 {
            e.push(100.0);
        }
        assert!((e.value().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.push(1.0);
        e.push(7.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.2);
        e.push(5.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(3.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
