//! QoE metric trackers, matching the paper's definitions.
//!
//! * **Video stall** (footnote 9): the percentage of playback intervals in
//!   which the maximum delay between two consecutive frames exceeds 200 ms.
//! * **Voice stall** (footnote 10): the percentage of audio playback
//!   intervals whose packet loss exceeds 10 %.
//! * **Framerate**: rendered frames per second of session time.

use gso_util::{SimDuration, SimTime};

/// Interval length over which stalls are assessed (1 s playback intervals).
pub const PLAYBACK_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Inter-frame gap that constitutes a video stall.
pub const VIDEO_STALL_GAP: SimDuration = SimDuration::from_millis(200);

/// Packet-loss fraction that constitutes a voice stall in an interval.
pub const VOICE_STALL_LOSS: f64 = 0.10;

/// Tracks video stalls and framerate from frame render times.
#[derive(Debug, Clone)]
pub struct VideoPlayback {
    start: SimTime,
    last_render: Option<SimTime>,
    frames: u64,
    /// Max inter-frame gap observed per playback interval, indexed by
    /// interval number.
    interval_max_gap: Vec<SimDuration>,
}

impl VideoPlayback {
    /// Begin tracking at session start.
    pub fn new(start: SimTime) -> Self {
        VideoPlayback { start, last_render: None, frames: 0, interval_max_gap: Vec::new() }
    }

    fn interval_index(&self, t: SimTime) -> usize {
        (t.saturating_since(self.start).as_micros() / PLAYBACK_INTERVAL.as_micros()) as usize
    }

    fn bump_gap(&mut self, idx: usize, gap: SimDuration) {
        if self.interval_max_gap.len() <= idx {
            self.interval_max_gap.resize(idx + 1, SimDuration::ZERO);
        }
        if gap > self.interval_max_gap[idx] {
            self.interval_max_gap[idx] = gap;
        }
    }

    /// Record a rendered frame.
    pub fn on_frame(&mut self, rendered_at: SimTime) {
        self.frames += 1;
        let reference = self.last_render.unwrap_or(self.start);
        let gap = rendered_at.saturating_since(reference);
        // Attribute the gap to the interval where it *ends* (where the
        // stall is perceived).
        let idx = self.interval_index(rendered_at);
        self.bump_gap(idx, gap);
        self.last_render = Some(rendered_at);
    }

    /// Close the session at `end`, extending a trailing freeze to the end.
    fn finalize_gaps(&self, end: SimTime) -> Vec<SimDuration> {
        let mut gaps = self.interval_max_gap.clone();
        let last = self.last_render.unwrap_or(self.start);
        let tail_gap = end.saturating_since(last);
        let end_idx = self.interval_index(end).max(1) - 1;
        if gaps.len() <= end_idx {
            gaps.resize(end_idx + 1, SimDuration::ZERO);
        }
        // A trailing freeze stalls every interval it spans.
        if tail_gap > VIDEO_STALL_GAP {
            let from = self.interval_index(last);
            for g in gaps.iter_mut().skip(from) {
                if tail_gap > *g {
                    *g = tail_gap;
                }
            }
        }
        gaps
    }

    /// Fraction of playback intervals containing a stall, in [0, 1].
    pub fn stall_rate(&self, end: SimTime) -> f64 {
        let gaps = self.finalize_gaps(end);
        if gaps.is_empty() {
            return 0.0;
        }
        let stalled = gaps.iter().filter(|&&g| g > VIDEO_STALL_GAP).count();
        stalled as f64 / gaps.len() as f64
    }

    /// Average rendered framerate over the session.
    pub fn framerate(&self, end: SimTime) -> f64 {
        let secs = end.saturating_since(self.start).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }

    /// Total frames rendered.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// Tracks voice stalls from per-packet sequence numbers.
#[derive(Debug, Clone)]
pub struct VoicePlayback {
    start: SimTime,
    /// (received, expected-est) per interval.
    intervals: Vec<(u64, u64)>,
    highest_seq: Option<u16>,
}

impl VoicePlayback {
    /// Begin tracking at session start.
    pub fn new(start: SimTime) -> Self {
        VoicePlayback { start, intervals: Vec::new(), highest_seq: None }
    }

    fn interval_index(&self, t: SimTime) -> usize {
        (t.saturating_since(self.start).as_micros() / PLAYBACK_INTERVAL.as_micros()) as usize
    }

    /// Record an arriving audio packet with its RTP sequence number.
    pub fn on_packet(&mut self, now: SimTime, seq: u16) {
        let idx = self.interval_index(now);
        if self.intervals.len() <= idx {
            self.intervals.resize(idx + 1, (0, 0));
        }
        self.intervals[idx].0 += 1;
        // Expected packets derived from sequence advancement: a jump of k
        // means k packets should have landed in this interval region.
        let advance = match self.highest_seq {
            None => 1,
            Some(h) => {
                let d = seq.wrapping_sub(h);
                if d == 0 || d >= 0x8000 {
                    0 // duplicate or reordered; already counted
                } else {
                    u64::from(d)
                }
            }
        };
        if advance > 0 {
            self.highest_seq = Some(seq);
            self.intervals[idx].1 += advance;
        }
    }

    /// Fraction of intervals whose loss exceeded [`VOICE_STALL_LOSS`].
    pub fn stall_rate(&self, end: SimTime) -> f64 {
        let n_intervals = self.interval_index(end).max(1);
        let mut stalled = 0usize;
        for i in 0..n_intervals {
            let (recv, expect) = self.intervals.get(i).copied().unwrap_or((0, 0));
            // An interval with no packets at all while the session ran is a
            // total outage — count it as stalled.
            if expect == 0 && recv == 0 {
                stalled += 1;
                continue;
            }
            let expect = expect.max(recv);
            let loss = 1.0 - recv as f64 / expect.max(1) as f64;
            if loss > VOICE_STALL_LOSS {
                stalled += 1;
            }
        }
        stalled as f64 / n_intervals as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn smooth_video_has_no_stalls() {
        let mut v = VideoPlayback::new(SimTime::ZERO);
        for i in 0..150 {
            v.on_frame(t(i * 66)); // ~15 fps for ~10 s
        }
        let end = t(10_000);
        assert_eq!(v.stall_rate(end), 0.0);
        assert!((v.framerate(end) - 15.0).abs() < 0.5);
    }

    #[test]
    fn single_long_gap_stalls_one_interval() {
        let mut v = VideoPlayback::new(SimTime::ZERO);
        for i in 0..15 {
            v.on_frame(t(i * 66));
        }
        // 400 ms freeze inside interval 1.
        v.on_frame(t(1_400));
        for i in 0..54 {
            v.on_frame(t(1_466 + i * 66));
        }
        let end = t(5_000);
        let rate = v.stall_rate(end);
        assert!((rate - 0.2).abs() < 1e-9, "1 of 5 intervals stalled, got {rate}");
    }

    #[test]
    fn trailing_freeze_counts_to_end() {
        let mut v = VideoPlayback::new(SimTime::ZERO);
        v.on_frame(t(100));
        // Nothing more until the 5 s mark: intervals 0..5 all stalled.
        let rate = v.stall_rate(t(5_000));
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn no_frames_at_all_is_fully_stalled() {
        let v = VideoPlayback::new(SimTime::ZERO);
        assert_eq!(v.stall_rate(t(3_000)), 1.0);
        assert_eq!(v.framerate(t(3_000)), 0.0);
    }

    #[test]
    fn voice_clean_stream_no_stalls() {
        let mut a = VoicePlayback::new(SimTime::ZERO);
        for i in 0..500u64 {
            a.on_packet(t(i * 20), i as u16); // 50 pkt/s for 10 s
        }
        assert_eq!(a.stall_rate(t(10_000)), 0.0);
    }

    #[test]
    fn voice_loss_above_threshold_stalls_interval() {
        let mut a = VoicePlayback::new(SimTime::ZERO);
        let mut seq = 0u16;
        for i in 0..500u64 {
            let in_second_interval = (1_000..2_000).contains(&(i * 20));
            seq = seq.wrapping_add(1);
            // Drop 20 % of packets in interval 1 only.
            if in_second_interval && i % 5 == 0 {
                continue;
            }
            a.on_packet(t(i * 20), seq);
        }
        let rate = a.stall_rate(t(10_000));
        assert!((rate - 0.1).abs() < 1e-9, "1 of 10 intervals stalled, got {rate}");
    }

    #[test]
    fn voice_total_outage_interval_counts() {
        let mut a = VoicePlayback::new(SimTime::ZERO);
        a.on_packet(t(100), 1);
        // Session runs 3 s but audio dies after the first interval.
        let rate = a.stall_rate(t(3_000));
        assert!(rate >= 2.0 / 3.0 - 1e-9, "dead intervals must stall, got {rate}");
    }
}
