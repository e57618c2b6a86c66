//! Bandwidth hysteresis (§7 "Avoiding video quality oscillations").
//!
//! Raw estimates fluctuate, and feeding every wiggle into the solver makes
//! video quality oscillate. The deployed fix: downgrades apply immediately
//! (safety first), but after a downgrade the link is *marked*, and an
//! upgrade is only accepted once the measured bandwidth exceeds the value in
//! effect by a confidence threshold — filtering measurement noise while
//! still tracking real recoveries.

use gso_util::{Bitrate, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Fractional increase over the in-effect value required to upgrade after
/// a downgrade.
const UPGRADE_THRESHOLD: f64 = 0.15;
/// A marked (downgraded) link un-marks after this long without further
/// downgrades, restoring immediate upgrades.
const MARK_TIMEOUT: SimDuration = SimDuration::from_secs(30);

#[derive(Debug, Clone, Copy)]
struct LinkState {
    effective: Bitrate,
    marked_at: Option<SimTime>,
}

/// Per-link bandwidth gate. `K` identifies a link, e.g. `(ClientId, Dir)`.
#[derive(Debug)]
pub struct BandwidthHysteresis<K: Ord + Copy> {
    links: BTreeMap<K, LinkState>,
}

impl<K: Ord + Copy> Default for BandwidthHysteresis<K> {
    fn default() -> Self {
        BandwidthHysteresis { links: BTreeMap::new() }
    }
}

impl<K: Ord + Copy> BandwidthHysteresis<K> {
    /// New gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed a raw measurement; returns the effective bandwidth to hand the
    /// controller.
    pub fn filter(&mut self, key: K, now: SimTime, measured: Bitrate) -> Bitrate {
        let state =
            self.links.entry(key).or_insert(LinkState { effective: measured, marked_at: None });
        if measured < state.effective {
            // Downgrade: apply immediately and mark the link.
            state.effective = measured;
            state.marked_at = Some(now);
        } else if measured > state.effective {
            let marked = match state.marked_at {
                Some(at) => now.saturating_since(at) < MARK_TIMEOUT,
                None => false,
            };
            let threshold = if marked {
                state.effective.mul_f64(1.0 + UPGRADE_THRESHOLD)
            } else {
                state.effective
            };
            if measured > threshold {
                state.effective = measured;
                if !marked {
                    state.marked_at = None;
                }
            }
        }
        state.effective
    }

    /// Drop a link's state: its next measurement passes through unmarked,
    /// as on a link never seen before.
    pub fn forget(&mut self, key: K) {
        self.links.remove(&key);
    }

    /// Current effective value for a link, if any measurement was seen.
    pub fn effective(&self, key: K) -> Option<Bitrate> {
        self.links.get(&key).map(|s| s.effective)
    }

    /// Links with state.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn first_measurement_passes_through() {
        let mut h = BandwidthHysteresis::new();
        assert_eq!(h.filter(1u32, t(0), k(1_000)), k(1_000));
    }

    #[test]
    fn downgrades_apply_immediately() {
        let mut h = BandwidthHysteresis::new();
        h.filter(1u32, t(0), k(1_000));
        assert_eq!(h.filter(1, t(1), k(400)), k(400));
    }

    #[test]
    fn post_downgrade_upgrades_need_confidence() {
        let mut h = BandwidthHysteresis::new();
        h.filter(1u32, t(0), k(1_000));
        h.filter(1, t(1), k(400)); // downgrade marks the link
                                   // +10% wiggle: suppressed (threshold is +15%).
        assert_eq!(h.filter(1, t(2), k(440)), k(400));
        // +20%: accepted.
        assert_eq!(h.filter(1, t(3), k(480)), k(480));
    }

    #[test]
    fn oscillating_measurements_produce_stable_output() {
        let mut h = BandwidthHysteresis::new();
        h.filter(1u32, t(0), k(600));
        h.filter(1, t(1), k(500)); // downgrade, mark
        let mut changes = 0;
        let mut last = k(500);
        // ±8% noise around 520 for 20 s: output must not flap.
        for i in 0..20 {
            let v = if i % 2 == 0 { k(560) } else { k(490) };
            let out = h.filter(1, t(2 + i), v);
            if out != last {
                changes += 1;
                last = out;
            }
        }
        assert!(changes <= 2, "output flapped {changes} times");
    }

    #[test]
    fn mark_expires_after_timeout() {
        let mut h = BandwidthHysteresis::new();
        h.filter(1u32, t(0), k(1_000));
        h.filter(1, t(1), k(400));
        // Within the 30 s mark window small upgrades are suppressed…
        assert_eq!(h.filter(1, t(30), k(430)), k(400));
        // …after it expires they pass again.
        assert_eq!(h.filter(1, t(31), k(430)), k(430));
    }

    #[test]
    fn links_are_independent() {
        let mut h = BandwidthHysteresis::new();
        h.filter(1u32, t(0), k(1_000));
        h.filter(2u32, t(0), k(200));
        h.filter(1, t(1), k(300));
        assert_eq!(h.effective(1), Some(k(300)));
        assert_eq!(h.effective(2), Some(k(200)));
        assert_eq!(h.effective(3), None);
    }
}
