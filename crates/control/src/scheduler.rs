//! Controller invocation scheduling (Fig. 12).
//!
//! "A proper control frequency is key" (§6): in the deployment the control
//! algorithm runs every 1.8 s on average, never more often than every 1 s
//! (avoiding useless churn) and never less often than every 3 s (keeping the
//! configuration fresh). The scheduler combines that time trigger with event
//! triggers — significant bandwidth changes or membership changes request an
//! earlier run, clamped by the minimum interval.

use gso_util::{SimDuration, SimTime};

/// Hard minimum between runs.
const MIN_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Hard maximum between runs (the time trigger).
const MAX_INTERVAL: SimDuration = SimDuration::from_secs(3);

/// Decides when the control algorithm runs; records the call intervals the
/// Fig. 12 CDF is built from.
#[derive(Debug, Default)]
pub struct ControlScheduler {
    last_run: Option<SimTime>,
    event_pending: bool,
    intervals: Vec<SimDuration>,
}

impl ControlScheduler {
    /// New scheduler; the first poll runs immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note an event that warrants re-orchestration (bandwidth shift,
    /// join/leave, subscription change, speaker change).
    pub fn trigger_event(&mut self) {
        self.event_pending = true;
    }

    /// Should the controller run now? Records the interval when it fires.
    pub fn poll(&mut self, now: SimTime) -> bool {
        let due = match self.last_run {
            None => true,
            Some(last) => {
                let elapsed = now.saturating_since(last);
                if elapsed < MIN_INTERVAL {
                    false
                } else {
                    self.event_pending || elapsed >= MAX_INTERVAL
                }
            }
        };
        if due {
            if let Some(last) = self.last_run {
                // lint: allow(hot-alloc, reason = "call-interval series backing the Fig. 12 CDF; grows one entry per orchestration round")
                self.intervals.push(now.saturating_since(last));
            }
            self.last_run = Some(now);
            self.event_pending = false;
        }
        due
    }

    /// When the next run could happen at the earliest / will happen at the
    /// latest, for timer programming.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        match self.last_run {
            None => now,
            Some(last) => {
                if self.event_pending {
                    last + MIN_INTERVAL
                } else {
                    last + MAX_INTERVAL
                }
            }
        }
    }

    /// The recorded inter-call intervals (Fig. 12's data).
    pub fn intervals(&self) -> &[SimDuration] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn first_poll_runs() {
        let mut s = ControlScheduler::new();
        assert!(s.poll(t(0)));
        assert!(!s.poll(t(1)));
    }

    #[test]
    fn max_interval_forces_a_run() {
        let mut s = ControlScheduler::new();
        s.poll(t(0));
        assert!(!s.poll(t(2_900)));
        assert!(s.poll(t(3_000)));
        assert_eq!(s.intervals(), &[SimDuration::from_secs(3)]);
    }

    #[test]
    fn event_runs_early_but_respects_min_interval() {
        let mut s = ControlScheduler::new();
        s.poll(t(0));
        s.trigger_event();
        // 0.5 s after the last run: too soon even for an event.
        assert!(!s.poll(t(500)));
        // 1.2 s: the event fires.
        assert!(s.poll(t(1_200)));
        assert_eq!(s.intervals(), &[SimDuration::from_millis(1_200)]);
    }

    #[test]
    fn event_flag_clears_after_run() {
        let mut s = ControlScheduler::new();
        s.poll(t(0));
        s.trigger_event();
        assert!(s.poll(t(1_000)));
        // No new event: next run only at the max interval.
        assert!(!s.poll(t(2_500)));
        assert!(s.poll(t(4_000)));
    }

    #[test]
    fn intervals_respect_bounds() {
        let mut s = ControlScheduler::new();
        // Poll every 100 ms with random-ish events.
        for i in 0..300 {
            if i % 7 == 0 {
                s.trigger_event();
            }
            s.poll(t(i * 100));
        }
        assert!(!s.intervals().is_empty());
        for &d in s.intervals() {
            assert!(d >= SimDuration::from_secs(1), "interval {d} below min");
            assert!(d <= SimDuration::from_secs(3) + SimDuration::from_millis(100));
        }
    }

    #[test]
    fn next_deadline_reflects_pending_event() {
        let mut s = ControlScheduler::new();
        s.poll(t(0));
        assert_eq!(s.next_deadline(t(100)), t(3_000));
        s.trigger_event();
        assert_eq!(s.next_deadline(t(100)), t(1_000));
    }
}
