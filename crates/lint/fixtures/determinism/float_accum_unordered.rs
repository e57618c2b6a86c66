//! Known-bad fixture: float accumulation over a hash container, whose
//! iteration order changes the rounding of the sum.

pub fn total_kbps(rates: &std::collections::HashMap<u32, f64>) -> f64 { rates.values().sum::<f64>() }
