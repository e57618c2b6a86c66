//! Per-subscriber stream selection — the "local view" policies.
//!
//! In traditional Simulcast the SFU picks which simulcast layer to forward
//! to each subscriber using only its local estimate of that subscriber's
//! downlink (§2.3). These selectors implement that behaviour and the two
//! competitor baselines of Fig. 8; the GSO path bypasses them entirely,
//! because the controller has already decided exactly which stream each
//! subscriber gets.

use gso_util::{Bitrate, Ssrc};

/// One simulcast layer a publisher currently offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferedLayer {
    /// Layer SSRC.
    pub ssrc: Ssrc,
    /// Vertical resolution.
    pub resolution_lines: u16,
    /// The layer's current send bitrate.
    pub bitrate: Bitrate,
}

/// A policy choosing which layer (if any) to forward to a subscriber.
pub trait StreamSelector: Send {
    /// Pick a layer given the subscriber's available downlink budget for
    /// this publisher. Layers are sorted ascending by bitrate.
    fn select(&self, layers: &[OfferedLayer], budget: Bitrate) -> Option<Ssrc>;
}

/// Debug-build trust-boundary check for forwarding decisions: a selected
/// SSRC must identify an offered, currently-active layer, and — when the
/// policy promises one — sit within the margin-adjusted budget. Compiles to
/// nothing in release builds.
#[inline]
fn debug_check_selection(layers: &[OfferedLayer], cap: Option<Bitrate>, pick: Option<Ssrc>) {
    let Some(ssrc) = pick else { return };
    let layer = layers.iter().find(|l| l.ssrc == ssrc);
    debug_assert!(
        layer.is_some_and(|l| !l.bitrate.is_zero()),
        "selector picked {ssrc:?}, which is not an active offered layer"
    );
    if let (Some(layer), Some(cap)) = (layer, cap) {
        debug_assert!(
            layer.bitrate <= cap,
            "selector picked {:?} over the budget cap {cap}",
            layer.bitrate
        );
    }
}

/// Fraction of the budget a [`LargestFitSelector`] stream may occupy
/// (headroom for audio, retransmissions, estimate error).
const LARGEST_FIT_MARGIN: f64 = 0.9;

/// The traditional local policy: forward the largest layer whose bitrate
/// fits within `LARGEST_FIT_MARGIN × budget`. The safety margin is what
/// produces the video/network mismatch of Fig. 3b — a 1.45 Mbps downlink
/// cannot take a 1.5 Mbps stream, so the subscriber falls all the way to
/// the next coarse level.
#[derive(Debug, Clone, Default)]
pub struct LargestFitSelector;

impl StreamSelector for LargestFitSelector {
    fn select(&self, layers: &[OfferedLayer], budget: Bitrate) -> Option<Ssrc> {
        let cap = budget.mul_f64(LARGEST_FIT_MARGIN);
        let pick = layers
            .iter()
            .filter(|l| !l.bitrate.is_zero() && l.bitrate <= cap)
            .max_by_key(|l| l.bitrate)
            .map(|l| l.ssrc);
        debug_check_selection(layers, Some(cap), pick);
        pick
    }
}

/// "Competitor 1": a Chime-like two-level template (§1 footnote 2). The
/// medium (360P/600 Kbps) stream is used when the downlink clears a fixed
/// 750 Kbps threshold; otherwise the small stream; below 200 Kbps, nothing.
#[derive(Debug, Clone, Default)]
pub struct TwoLevelSelector;

impl StreamSelector for TwoLevelSelector {
    fn select(&self, layers: &[OfferedLayer], budget: Bitrate) -> Option<Ssrc> {
        let active: Vec<&OfferedLayer> = layers.iter().filter(|l| !l.bitrate.is_zero()).collect();
        if active.is_empty() || budget < Bitrate::from_kbps(200) {
            return None;
        }
        let pick = if budget > Bitrate::from_kbps(750) {
            active.iter().max_by_key(|l| l.bitrate).map(|l| l.ssrc)
        } else {
            active.iter().min_by_key(|l| l.bitrate).map(|l| l.ssrc)
        };
        debug_check_selection(layers, None, pick);
        pick
    }
}

/// "Competitor 2": a single-stream system — whatever the publisher sends is
/// forwarded to everyone, regardless of the subscriber's downlink (the
/// slow-link problem of Fig. 2a in its rawest form).
#[derive(Debug, Clone, Default)]
pub struct PassthroughSelector;

impl StreamSelector for PassthroughSelector {
    fn select(&self, layers: &[OfferedLayer], _budget: Bitrate) -> Option<Ssrc> {
        let pick = layers
            .iter()
            .filter(|l| !l.bitrate.is_zero())
            .max_by_key(|l| l.bitrate)
            .map(|l| l.ssrc);
        debug_check_selection(layers, None, pick);
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Vec<OfferedLayer> {
        vec![
            OfferedLayer { ssrc: Ssrc(1), resolution_lines: 180, bitrate: Bitrate::from_kbps(300) },
            OfferedLayer { ssrc: Ssrc(2), resolution_lines: 360, bitrate: Bitrate::from_kbps(600) },
            OfferedLayer {
                ssrc: Ssrc(3),
                resolution_lines: 720,
                bitrate: Bitrate::from_kbps(1500),
            },
        ]
    }

    #[test]
    fn largest_fit_uses_margin() {
        let s = LargestFitSelector;
        // Fig. 3b: a 1.45 Mbps downlink with a 0.9 margin caps at 1.305 Mbps,
        // so the 1.5 Mbps layer is rejected and 600 Kbps wins — the mismatch.
        assert_eq!(s.select(&layers(), Bitrate::from_kbps(1_450)), Some(Ssrc(2)));
        assert_eq!(s.select(&layers(), Bitrate::from_mbps(2)), Some(Ssrc(3)));
        assert_eq!(s.select(&layers(), Bitrate::from_kbps(400)), Some(Ssrc(1)));
        assert_eq!(s.select(&layers(), Bitrate::from_kbps(100)), None);
    }

    #[test]
    fn largest_fit_skips_disabled_layers() {
        let s = LargestFitSelector;
        let mut ls = layers();
        ls[2].bitrate = Bitrate::ZERO;
        assert_eq!(s.select(&ls, Bitrate::from_mbps(5)), Some(Ssrc(2)));
    }

    #[test]
    fn two_level_thresholds() {
        let s = TwoLevelSelector;
        let ls = vec![
            OfferedLayer { ssrc: Ssrc(1), resolution_lines: 180, bitrate: Bitrate::from_kbps(150) },
            OfferedLayer { ssrc: Ssrc(2), resolution_lines: 360, bitrate: Bitrate::from_kbps(600) },
        ];
        assert_eq!(s.select(&ls, Bitrate::from_mbps(2)), Some(Ssrc(2)));
        assert_eq!(s.select(&ls, Bitrate::from_kbps(700)), Some(Ssrc(1)));
        assert_eq!(s.select(&ls, Bitrate::from_kbps(100)), None);
    }

    #[test]
    fn passthrough_ignores_budget() {
        let s = PassthroughSelector;
        assert_eq!(s.select(&layers(), Bitrate::from_kbps(1)), Some(Ssrc(3)));
        assert_eq!(s.select(&[], Bitrate::from_mbps(5)), None);
    }
}
