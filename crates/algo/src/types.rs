//! Stream specifications and bitrate ladders.
//!
//! A publisher's *feasible stream set* `S_i` (§4.1 of the paper) is modelled
//! as a [`Ladder`]: a list of [`StreamSpec`]s, each associating a bitrate
//! with a unique resolution and QoE-utility weight. GSO-Simulcast's key
//! enabler is a *fine-grained* ladder (up to 15 bitrate levels in the
//! production deployment) versus the coarse 2–3 level ladders of traditional
//! Simulcast.

use gso_util::Bitrate;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A video resolution, identified by its vertical line count (180, 360, 720…).
///
/// Ordering follows line count, so `R180 < R360 < R720`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Resolution(pub u16);

impl Resolution {
    /// 320×180 thumbnail.
    pub const R180: Resolution = Resolution(180);
    /// 640×360 standard.
    pub const R360: Resolution = Resolution(360);
    /// 1280×720 high definition.
    pub const R720: Resolution = Resolution(720);
    /// 1920×1080 full high definition.
    pub const R1080: Resolution = Resolution(1080);

    /// Approximate pixel count assuming 16:9 aspect.
    pub fn pixels(self) -> u64 {
        let h = u64::from(self.0);
        let w = h * 16 / 9;
        w * h
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}P", self.0)
    }
}

/// One entry of a publisher's feasible stream set: a bitrate together with
/// its resolution (`Res_i`) and QoE utility weight (`QoE_i`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Resolution this bitrate encodes.
    pub resolution: Resolution,
    /// Target media bitrate.
    pub bitrate: Bitrate,
    /// QoE utility weight used by the controller's objective.
    pub qoe: f64,
}

impl StreamSpec {
    /// Convenience constructor.
    pub fn new(resolution: Resolution, bitrate: Bitrate, qoe: f64) -> Self {
        StreamSpec { resolution, bitrate, qoe }
    }
}

impl fmt::Display for StreamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.resolution, self.bitrate)
    }
}

/// Errors detected when validating a [`Ladder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderError {
    /// Two entries share the same bitrate; the paper requires each bitrate to
    /// map to a unique resolution and QoE weight.
    DuplicateBitrate(Bitrate),
    /// A QoE weight is not finite or is negative.
    InvalidQoe,
    /// Within a resolution, a higher bitrate has lower (or equal) QoE; the
    /// objective would then never use the higher bitrate.
    NonMonotoneQoe(Resolution),
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::DuplicateBitrate(b) => write!(f, "duplicate bitrate {b} in ladder"),
            LadderError::InvalidQoe => write!(f, "QoE weight must be finite and non-negative"),
            LadderError::NonMonotoneQoe(r) => {
                write!(f, "QoE must increase with bitrate within resolution {r}")
            }
        }
    }
}

impl std::error::Error for LadderError {}

/// A publisher's feasible stream set `S_i`: the bitrates it is able to
/// encode, each tagged with resolution and QoE weight.
///
/// Entries are kept sorted by ascending bitrate; this ordering is also the
/// item order used by the multiple-choice knapsack DP, which makes its
/// tie-breaking deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Ladder {
    specs: Vec<StreamSpec>,
}

impl Ladder {
    /// Build a ladder from specs, sorting by bitrate and validating:
    /// bitrates must be unique (and non-zero), QoE weights finite and
    /// non-negative, and QoE strictly increasing with bitrate within each
    /// resolution.
    pub fn new(mut specs: Vec<StreamSpec>) -> Result<Self, LadderError> {
        specs.sort_by_key(|s| s.bitrate);
        for w in specs.windows(2) {
            if w[0].bitrate == w[1].bitrate {
                return Err(LadderError::DuplicateBitrate(w[0].bitrate));
            }
        }
        for s in &specs {
            if !s.qoe.is_finite() || s.qoe < 0.0 || s.bitrate.is_zero() {
                return Err(LadderError::InvalidQoe);
            }
        }
        let mut by_res: Vec<(Resolution, f64)> = Vec::new();
        for s in &specs {
            // Specs are sorted by bitrate, so within a resolution we see
            // ascending bitrates; QoE must ascend along with them.
            if let Some(&mut (_, ref mut last)) =
                by_res.iter_mut().find(|(r, _)| *r == s.resolution)
            {
                if s.qoe <= *last {
                    return Err(LadderError::NonMonotoneQoe(s.resolution));
                }
                *last = s.qoe;
            } else {
                by_res.push((s.resolution, s.qoe));
            }
        }
        Ok(Ladder { specs })
    }

    /// The empty ladder (publisher cannot send video).
    pub fn empty() -> Self {
        Ladder { specs: Vec::new() }
    }

    /// All specs, ascending by bitrate.
    pub fn specs(&self) -> &[StreamSpec] {
        &self.specs
    }

    /// Number of bitrate levels.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if the ladder has no entries.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Distinct resolutions present, ascending.
    pub fn resolutions(&self) -> Vec<Resolution> {
        // lint: allow(hot-alloc, reason = "owned-snapshot ladder API; warm-path callers hoist the result out of the per-round loop")
        let mut rs: Vec<Resolution> = self.specs.iter().map(|s| s.resolution).collect();
        rs.sort();
        rs.dedup();
        rs
    }

    /// Number of distinct resolutions, without materializing them (the
    /// solver's convergence bound sums this per source on every solve).
    pub fn distinct_resolutions(&self) -> usize {
        self.specs
            .iter()
            .enumerate()
            .filter(|&(i, s)| !self.specs.iter().take(i).any(|t| t.resolution == s.resolution))
            .count()
    }

    /// Specs at exactly the given resolution (`S_i^R` in the paper),
    /// ascending by bitrate.
    pub fn at_resolution(&self, r: Resolution) -> Vec<StreamSpec> {
        // lint: allow(hot-alloc, reason = "owned-snapshot ladder API; warm-path callers hoist the result out of the per-round loop")
        self.specs.iter().copied().filter(|s| s.resolution == r).collect()
    }

    /// Specs with resolution `<= max_res` (`S_ii'`, the feasible set under a
    /// subscription's resolution cap), ascending by bitrate.
    pub fn capped(&self, max_res: Resolution) -> Vec<StreamSpec> {
        self.specs.iter().copied().filter(|s| s.resolution <= max_res).collect()
    }

    /// The smallest bitrate at the given resolution, if any
    /// (`min_{s in S_i^R} s`, used by the Step-3 fixability test, Eq. 17).
    pub fn min_bitrate_at(&self, r: Resolution) -> Option<Bitrate> {
        // Specs are ascending by bitrate, so the first match is the minimum;
        // scanning in place keeps the Step-3 fixability test allocation-free.
        self.specs.iter().find(|s| s.resolution == r).map(|s| s.bitrate)
    }

    /// Look up the spec with this exact bitrate.
    pub fn spec_for_bitrate(&self, b: Bitrate) -> Option<StreamSpec> {
        self.specs.iter().copied().find(|s| s.bitrate == b)
    }

    /// A copy of this ladder with every spec at resolution `r` removed
    /// (`S_i^update = S_i \ S_i^R̃`, Eq. 19 — the Reduction step).
    pub fn without_resolution(&self, r: Resolution) -> Ladder {
        // lint: allow(hot-alloc, reason = "owned-snapshot ladder API; warm-path callers hoist the result out of the per-round loop")
        Ladder { specs: self.specs.iter().copied().filter(|s| s.resolution != r).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(res: u16, kbps: u64, qoe: f64) -> StreamSpec {
        StreamSpec::new(Resolution(res), Bitrate::from_kbps(kbps), qoe)
    }

    #[test]
    fn ladder_sorts_and_queries() {
        let l = Ladder::new(vec![
            spec(720, 1500, 1200.0),
            spec(180, 100, 100.0),
            spec(360, 600, 530.0),
        ])
        .unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.specs()[0].bitrate, Bitrate::from_kbps(100));
        assert_eq!(l.resolutions(), vec![Resolution::R180, Resolution::R360, Resolution::R720]);
        assert_eq!(l.capped(Resolution::R360).len(), 2);
        assert_eq!(l.min_bitrate_at(Resolution::R720), Some(Bitrate::from_kbps(1500)));
        assert_eq!(l.min_bitrate_at(Resolution::R1080), None);
    }

    #[test]
    fn ladder_rejects_duplicate_bitrate() {
        let err = Ladder::new(vec![spec(720, 600, 700.0), spec(360, 600, 500.0)]).unwrap_err();
        assert_eq!(err, LadderError::DuplicateBitrate(Bitrate::from_kbps(600)));
    }

    #[test]
    fn ladder_rejects_non_monotone_qoe() {
        let err = Ladder::new(vec![spec(360, 400, 500.0), spec(360, 600, 400.0)]).unwrap_err();
        assert_eq!(err, LadderError::NonMonotoneQoe(Resolution::R360));
    }

    #[test]
    fn ladder_rejects_zero_bitrate_and_bad_qoe() {
        assert_eq!(
            Ladder::new(vec![StreamSpec::new(Resolution::R180, Bitrate::ZERO, 1.0)]).unwrap_err(),
            LadderError::InvalidQoe
        );
        assert_eq!(
            Ladder::new(vec![spec(180, 100, f64::NAN)]).unwrap_err(),
            LadderError::InvalidQoe
        );
    }

    #[test]
    fn without_resolution_removes_all_entries() {
        let l = Ladder::new(vec![
            spec(720, 1500, 1200.0),
            spec(720, 1000, 750.0),
            spec(180, 100, 100.0),
        ])
        .unwrap();
        let r = l.without_resolution(Resolution::R720);
        assert_eq!(r.len(), 1);
        assert_eq!(r.resolutions(), vec![Resolution::R180]);
    }

    #[test]
    fn resolution_ordering_and_pixels() {
        assert!(Resolution::R180 < Resolution::R720);
        assert_eq!(Resolution::R180.pixels(), 320 * 180);
        assert_eq!(Resolution::R720.to_string(), "720P");
    }
}
