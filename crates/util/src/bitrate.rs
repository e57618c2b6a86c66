//! Strongly-typed bitrates.
//!
//! The control algorithm, the network simulator and the media pipeline all
//! trade in bits per second. Using a newtype rather than bare `u64` keeps
//! bits/bytes and per-second/per-interval confusions out of the codebase.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bitrate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bitrate(u64);

impl Bitrate {
    /// The zero bitrate, used to encode "stream disabled" (cf. TMMBR with a
    /// zero mantissa in §4.3 of the paper).
    pub const ZERO: Bitrate = Bitrate(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bitrate(bps)
    }

    /// Construct from kilobits per second (SI: 1 kbps = 1000 bps).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bitrate(kbps * 1_000)
    }

    /// Construct from megabits per second (SI: 1 Mbps = 1e6 bps).
    pub const fn from_mbps(mbps: u64) -> Self {
        Bitrate(mbps * 1_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Kilobits per second (truncating).
    pub const fn as_kbps(self) -> u64 {
        self.0 / 1_000
    }

    /// True if this is the disabled/zero bitrate.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Bitrate) -> Bitrate {
        Bitrate(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest bps.
    pub fn mul_f64(self, k: f64) -> Bitrate {
        Bitrate((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// How long it takes to serialize `bytes` at this rate.
    ///
    /// Returns `None` for the zero bitrate, where the transmission never
    /// completes.
    pub fn serialization_time(self, bytes: usize) -> Option<SimDuration> {
        if self.0 == 0 {
            return None;
        }
        let bits = bytes as u64 * 8;
        // Round up: a partially transmitted microsecond still occupies the link.
        Some(SimDuration::from_micros((bits * 1_000_000).div_ceil(self.0)))
    }

    /// How many bytes this rate delivers in `dur` (truncating).
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        self.0 * dur.as_micros() / 8 / 1_000_000
    }
}

impl Add for Bitrate {
    type Output = Bitrate;
    fn add(self, rhs: Bitrate) -> Bitrate {
        Bitrate(self.0 + rhs.0)
    }
}

impl AddAssign for Bitrate {
    fn add_assign(&mut self, rhs: Bitrate) {
        self.0 += rhs.0;
    }
}

impl Sub for Bitrate {
    type Output = Bitrate;
    fn sub(self, rhs: Bitrate) -> Bitrate {
        Bitrate(self.0 - rhs.0)
    }
}

impl SubAssign for Bitrate {
    fn sub_assign(&mut self, rhs: Bitrate) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bitrate {
    fn sum<I: Iterator<Item = Bitrate>>(iter: I) -> Bitrate {
        iter.fold(Bitrate::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bitrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            let mbps = self.0 as f64 / 1e6;
            if (mbps - mbps.round()).abs() < 1e-9 {
                write!(f, "{}Mbps", mbps.round() as u64)
            } else {
                write!(f, "{mbps:.2}Mbps")
            }
        } else if self.0 >= 1_000 {
            write!(f, "{}Kbps", self.as_kbps())
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bitrate::from_kbps(600).as_bps(), 600_000);
        assert_eq!(Bitrate::from_mbps(2).as_kbps(), 2_000);
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1200 bytes at 1 Mbps = 9600 bits / 1e6 bps = 9.6 ms.
        let t = Bitrate::from_mbps(1).serialization_time(1200).unwrap();
        assert_eq!(t.as_micros(), 9_600);
        // Zero rate never completes.
        assert!(Bitrate::ZERO.serialization_time(100).is_none());
        // Non-divisible case rounds up.
        let t = Bitrate::from_bps(3).serialization_time(1).unwrap();
        assert_eq!(t.as_micros(), 2_666_667);
    }

    #[test]
    fn bytes_in_interval() {
        assert_eq!(Bitrate::from_mbps(8).bytes_in(SimDuration::from_secs(1)), 1_000_000);
        assert_eq!(Bitrate::from_kbps(8).bytes_in(SimDuration::from_millis(500)), 500);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bitrate::from_kbps(600).to_string(), "600Kbps");
        assert_eq!(Bitrate::from_mbps(2).to_string(), "2Mbps");
        assert_eq!(Bitrate::from_kbps(1_500).to_string(), "1.50Mbps");
        assert_eq!(Bitrate::from_bps(900).to_string(), "900bps");
    }

    #[test]
    fn sum_and_saturating() {
        let total: Bitrate = [Bitrate::from_kbps(100), Bitrate::from_kbps(200)].into_iter().sum();
        assert_eq!(total, Bitrate::from_kbps(300));
        assert_eq!(Bitrate::from_kbps(100).saturating_sub(Bitrate::from_kbps(200)), Bitrate::ZERO);
    }
}
