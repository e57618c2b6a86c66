//! Keyframe-aligned stream switching.
//!
//! When the SFU changes which simulcast layer a subscriber receives, it must
//! not splice mid-GoP: the subscriber's decoder needs a keyframe on the new
//! layer. The [`LayerSwitcher`] forwards the current layer until the target
//! layer produces a frame-starting keyframe packet, then switches atomically.

use gso_util::{SimDuration, SimTime, Ssrc};

/// Per-(subscriber, publisher-source) switching state.
#[derive(Debug, Clone, Default)]
pub struct LayerSwitcher {
    current: Option<Ssrc>,
    pending: Option<Ssrc>,
    /// When the pending switch was requested (for latency metrics).
    pending_since: Option<SimTime>,
    /// Request→keyframe-landing latency of the most recent completed
    /// switch, until drained by [`LayerSwitcher::take_switch_latency`].
    completed_latency: Option<SimDuration>,
}

impl LayerSwitcher {
    /// New switcher with no layer selected.
    pub fn new() -> Self {
        Self::default()
    }

    /// The layer currently forwarded.
    pub fn current(&self) -> Option<Ssrc> {
        self.current
    }

    /// The layer we are trying to switch to, if any.
    pub fn pending(&self) -> Option<Ssrc> {
        self.pending
    }

    /// Request at `now` that the subscriber receive `target` (or nothing);
    /// the request time lets the eventual keyframe landing report its
    /// latency.
    ///
    /// Switching down to `None` (unsubscribe) is immediate. A first-ever
    /// selection waits for a keyframe like any other switch.
    pub fn request_at(&mut self, target: Option<Ssrc>, now: SimTime) {
        match target {
            None => {
                self.current = None;
                self.pending = None;
                self.pending_since = None;
            }
            Some(t) if Some(t) == self.current => {
                self.pending = None;
                self.pending_since = None;
            }
            Some(t) => {
                // A re-request of the same pending target keeps the original
                // request time: the subscriber has been waiting since then.
                if self.pending != Some(t) {
                    self.pending_since = Some(now);
                }
                self.pending = Some(t);
            }
        }
    }

    /// Should a packet from `ssrc` arriving at `now` be forwarded?
    /// `keyframe_start` must be true for the first packet of a keyframe. A
    /// switch landing on this packet records its request→landing latency.
    // lint: hot_path(sfu-packet-switch)
    pub fn should_forward_at(&mut self, ssrc: Ssrc, keyframe_start: bool, now: SimTime) -> bool {
        let previous = self.current;
        if self.pending == Some(ssrc) && keyframe_start {
            self.current = Some(ssrc);
            self.pending = None;
            if let Some(since) = self.pending_since.take() {
                self.completed_latency = Some(now.saturating_since(since));
            }
        }
        // Trust boundary: a layer switch must land exactly on the first
        // packet of a keyframe of the target layer — never mid-GoP.
        debug_assert!(
            self.current == previous || (keyframe_start && self.current == Some(ssrc)),
            "layer switch landed mid-GoP: {previous:?} -> {:?}",
            self.current
        );
        self.current == Some(ssrc)
    }

    /// Drain the latency of the most recently completed switch, if one
    /// landed since the last drain.
    pub fn take_switch_latency(&mut self) -> Option<SimDuration> {
        self.completed_latency.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_selection_waits_for_keyframe() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO);
        assert!(!sw.should_forward_at(Ssrc(1), false, SimTime::ZERO), "no splice mid-GoP");
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::ZERO));
        assert!(sw.should_forward_at(Ssrc(1), false, SimTime::ZERO), "forwarding continues");
        assert_eq!(sw.current(), Some(Ssrc(1)));
    }

    #[test]
    fn switch_keeps_old_layer_until_new_keyframe() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO);
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::ZERO));
        sw.request_at(Some(Ssrc(2)), SimTime::ZERO);
        // Old layer still flows; new layer's delta frames don't.
        assert!(sw.should_forward_at(Ssrc(1), false, SimTime::ZERO));
        assert!(!sw.should_forward_at(Ssrc(2), false, SimTime::ZERO));
        // New keyframe: atomic switch.
        assert!(sw.should_forward_at(Ssrc(2), true, SimTime::ZERO));
        assert!(!sw.should_forward_at(Ssrc(1), false, SimTime::ZERO), "old layer cut after switch");
        assert_eq!(sw.current(), Some(Ssrc(2)));
        assert_eq!(sw.pending(), None);
    }

    #[test]
    fn unsubscribe_is_immediate() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO);
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::ZERO));
        sw.request_at(None, SimTime::ZERO);
        assert!(!sw.should_forward_at(Ssrc(1), false, SimTime::ZERO));
        assert!(!sw.should_forward_at(Ssrc(1), true, SimTime::ZERO));
    }

    #[test]
    fn rerequesting_current_cancels_pending_switch() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO);
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::ZERO));
        sw.request_at(Some(Ssrc(2)), SimTime::ZERO);
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO); // controller changed its mind
        assert!(
            !sw.should_forward_at(Ssrc(2), true, SimTime::ZERO),
            "cancelled switch must not land"
        );
        assert!(sw.should_forward_at(Ssrc(1), false, SimTime::ZERO));
    }

    #[test]
    fn unrelated_ssrc_never_forwarded() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::ZERO);
        assert!(!sw.should_forward_at(Ssrc(9), true, SimTime::ZERO));
    }

    #[test]
    fn switch_latency_measured_from_request_to_keyframe_landing() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::from_millis(100));
        assert_eq!(sw.take_switch_latency(), None, "nothing landed yet");
        assert!(!sw.should_forward_at(Ssrc(1), false, SimTime::from_millis(150)));
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::from_millis(400)));
        assert_eq!(sw.take_switch_latency(), Some(SimDuration::from_millis(300)));
        assert_eq!(sw.take_switch_latency(), None, "latency drains once");

        // A re-request of the same pending target keeps the original clock.
        sw.request_at(Some(Ssrc(2)), SimTime::from_secs(1));
        sw.request_at(Some(Ssrc(2)), SimTime::from_secs(2));
        assert!(sw.should_forward_at(Ssrc(2), true, SimTime::from_secs(3)));
        assert_eq!(sw.take_switch_latency(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn cancelled_switch_reports_no_latency() {
        let mut sw = LayerSwitcher::new();
        sw.request_at(Some(Ssrc(1)), SimTime::from_millis(10));
        assert!(sw.should_forward_at(Ssrc(1), true, SimTime::from_millis(20)));
        let _ = sw.take_switch_latency();
        sw.request_at(Some(Ssrc(2)), SimTime::from_millis(30));
        sw.request_at(Some(Ssrc(1)), SimTime::from_millis(40)); // cancelled
        assert!(!sw.should_forward_at(Ssrc(2), true, SimTime::from_millis(50)));
        assert_eq!(sw.take_switch_latency(), None);
    }
}
