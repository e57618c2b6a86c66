//! Receive-side transport feedback generation.
//!
//! The receiving end of a path (a client for its downlink, an accessing
//! node for each client's uplink) records packet arrivals per SSRC and
//! periodically emits [`TransportFeedback`] messages covering the sequence
//! span since the last report, with `None` entries for packets that never
//! arrived. A packet older than the last report's end (a retransmission, or
//! a late arrival already reported lost) is not re-reported, so each report
//! covers only new sequences and its cost scales with what arrived.

use gso_rtp::TransportFeedback;
use gso_util::{SimTime, Ssrc};
use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct StreamState {
    /// Arrival µs of sequence `next_base + i` at index `i`, pending report.
    /// The last entry is always an arrival (the highest sequence seen).
    pending: Vec<Option<u64>>,
    /// First sequence not yet covered by a report.
    next_base: Option<u16>,
    feedback_seq: u32,
}

/// Generates transport-wide feedback for every stream arriving on a path.
#[derive(Debug, Default)]
pub struct TwccGenerator {
    streams: BTreeMap<Ssrc, StreamState>,
}

impl TwccGenerator {
    /// Empty generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a packet arrival. A sequence before the first unreported one
    /// (up to half the sequence space back) is ignored: its span was
    /// already reported, as lost if it had not arrived.
    pub fn on_packet(&mut self, now: SimTime, ssrc: Ssrc, sequence: u16) {
        let s = self.streams.entry(ssrc).or_default();
        let base = *s.next_base.get_or_insert(sequence);
        let offset = sequence.wrapping_sub(base);
        if offset >= 0x8000 {
            return;
        }
        let offset = usize::from(offset);
        if offset >= s.pending.len() {
            s.pending.resize(offset + 1, None);
        }
        s.pending[offset] = Some(now.as_micros());
    }

    /// Emit one feedback message per stream covering everything since the
    /// previous report, up to [`TransportFeedback::MAX_ARRIVALS`] sequences
    /// (the rest waits for the next poll). Streams with nothing new produce
    /// nothing.
    pub fn poll(&mut self) -> Vec<(Ssrc, TransportFeedback)> {
        let mut out = Vec::new();
        for (&ssrc, s) in self.streams.iter_mut() {
            let Some(base) = s.next_base else { continue };
            if s.pending.is_empty() {
                continue;
            }
            let span = s.pending.len().min(TransportFeedback::MAX_ARRIVALS);
            let arrivals: Vec<Option<u64>> = s.pending.drain(..span).collect();
            s.next_base = Some(base.wrapping_add(span as u16));
            s.feedback_seq += 1;
            out.push((
                ssrc,
                TransportFeedback {
                    sender_ssrc: ssrc,
                    feedback_seq: s.feedback_seq,
                    base_seq: base,
                    arrivals,
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reports_cover_span_with_losses() {
        let mut g = TwccGenerator::new();
        g.on_packet(SimTime::from_millis(10), Ssrc(1), 100);
        g.on_packet(SimTime::from_millis(20), Ssrc(1), 101);
        // 102 lost.
        g.on_packet(SimTime::from_millis(40), Ssrc(1), 103);
        let fbs = g.poll();
        assert_eq!(fbs.len(), 1);
        let fb = &fbs[0].1;
        assert_eq!(fb.base_seq, 100);
        assert_eq!(fb.arrivals, vec![Some(10_000), Some(20_000), None, Some(40_000)]);
    }

    #[test]
    fn subsequent_polls_continue_from_last_base() {
        let mut g = TwccGenerator::new();
        g.on_packet(SimTime::from_millis(1), Ssrc(1), 0);
        let first = g.poll();
        assert_eq!(first[0].1.arrivals.len(), 1);
        g.on_packet(SimTime::from_millis(2), Ssrc(1), 1);
        g.on_packet(SimTime::from_millis(3), Ssrc(1), 2);
        let second = g.poll();
        assert_eq!(second[0].1.base_seq, 1);
        assert_eq!(second[0].1.arrivals.len(), 2);
        assert_eq!(second[0].1.feedback_seq, 2);
    }

    #[test]
    fn empty_poll_produces_nothing() {
        let mut g = TwccGenerator::new();
        assert!(g.poll().is_empty());
        g.on_packet(SimTime::ZERO, Ssrc(1), 0);
        let _ = g.poll();
        assert!(g.poll().is_empty(), "no new packets, no report");
    }

    #[test]
    fn streams_are_independent() {
        let mut g = TwccGenerator::new();
        g.on_packet(SimTime::from_millis(1), Ssrc(1), 50);
        g.on_packet(SimTime::from_millis(2), Ssrc(2), 900);
        let fbs = g.poll();
        assert_eq!(fbs.len(), 2);
        assert_eq!(fbs[0].0, Ssrc(1));
        assert_eq!(fbs[1].0, Ssrc(2));
        assert_eq!(fbs[1].1.base_seq, 900);
    }

    #[test]
    fn late_packet_from_reported_span_is_not_rereported() {
        let mut g = TwccGenerator::new();
        g.on_packet(SimTime::from_millis(1), Ssrc(1), 10);
        g.on_packet(SimTime::from_millis(2), Ssrc(1), 12);
        // Reports 10..=12 with 11 missing.
        let _ = g.poll();
        // 11 arrives late: it sits below the next report's base and is
        // dropped, not re-covered.
        g.on_packet(SimTime::from_millis(9), Ssrc(1), 11);
        g.on_packet(SimTime::from_millis(10), Ssrc(1), 13);
        let fbs = g.poll();
        let fb = &fbs[0].1;
        assert_eq!(fb.base_seq, 13);
        assert_eq!(fb.arrivals, vec![Some(10_000)]);
        assert!(g.poll().is_empty(), "the late arrival must not produce a report");
    }

    #[test]
    fn long_gap_is_split_at_the_message_limit() {
        let max = TransportFeedback::MAX_ARRIVALS;
        let mut g = TwccGenerator::new();
        g.on_packet(SimTime::from_millis(1), Ssrc(1), 65_000);
        // The window reaches half the sequence space, two past the limit.
        let last = 65_000u16.wrapping_add(0x7fff);
        g.on_packet(SimTime::from_millis(2), Ssrc(1), last);
        let first = g.poll();
        assert_eq!(first[0].1.base_seq, 65_000);
        assert_eq!(first[0].1.arrivals.len(), max);
        assert_eq!(first[0].1.arrivals[0], Some(1_000));
        let second = g.poll();
        assert_eq!(second[0].1.base_seq, 65_000u16.wrapping_add(max as u16));
        assert_eq!(second[0].1.arrivals, vec![None, Some(2_000)]);
        assert!(g.poll().is_empty());
    }

    /// One step of a receive schedule. Sequences are absolute (`u64`) in the
    /// model and truncated to `u16` on the wire, so schedules wrap.
    #[derive(Debug, Clone)]
    enum Step {
        /// The sender skips `lost` sequences, then the next one arrives.
        Next {
            lost: u64,
        },
        /// The sequence `back` behind the newest sent arrives again: a
        /// duplicate or late packet inside the window, or one below it.
        Resend {
            back: u64,
        },
        /// A long outage: the sender jumps ahead by `gap` sequences.
        Jump {
            gap: u64,
        },
        Poll,
    }

    /// Weighted 6:2:2:3 over `Next`, `Resend`, `Jump` and `Poll`; half the
    /// jumps go to the edge of the window, past the message limit.
    fn step() -> impl Strategy<Value = Step> {
        (0u8..13, 0u64..0x8000).prop_map(|(kind, x)| match kind {
            0..=5 => Step::Next { lost: x % 3 },
            6..=7 => Step::Resend { back: x % 300 },
            8 => Step::Jump { gap: x },
            9 => Step::Jump { gap: u64::MAX },
            _ => Step::Poll,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each report starts where the previous one ended, stays within
        /// the message limit, and carries exactly the latest arrival time
        /// of every distinct sequence that arrived in its span since the
        /// last poll; packets outside the window are never reported.
        #[test]
        fn reports_tile_the_sequence_space(
            start in 0u64..=0xffff,
            steps in prop::collection::vec(step(), 1..80),
        ) {
            let max = TransportFeedback::MAX_ARRIVALS as u64;
            let mut g = TwccGenerator::new();
            // Model: first unreported sequence, newest sent, and the
            // pending in-window arrivals (sequence -> latest arrival µs).
            let mut base: Option<u64> = None;
            let mut newest: Option<u64> = None;
            let mut pending: BTreeMap<u64, u64> = BTreeMap::new();
            let mut reports = 0u32;
            for (i, step) in steps.into_iter().enumerate() {
                let now = i as u64 * 1_000;
                let seq = match step {
                    Step::Poll => {
                        let fbs = g.poll();
                        let Some(&last) = pending.keys().next_back() else {
                            prop_assert!(fbs.is_empty());
                            continue;
                        };
                        prop_assert_eq!(fbs.len(), 1);
                        let fb = &fbs[0].1;
                        let b = base.expect("arrivals imply a base");
                        let len = (last - b + 1).min(max);
                        reports += 1;
                        prop_assert_eq!(fb.feedback_seq, reports);
                        prop_assert_eq!(fb.base_seq, b as u16);
                        let want: Vec<Option<u64>> =
                            (b..b + len).map(|s| pending.remove(&s)).collect();
                        prop_assert_eq!(&fb.arrivals, &want);
                        base = Some(b + len);
                        continue;
                    }
                    Step::Next { lost } => newest.map_or(start, |n| n + 1 + lost),
                    Step::Resend { back } => match newest {
                        Some(n) if n >= back => n - back,
                        _ => continue,
                    },
                    Step::Jump { gap } => {
                        // Land inside the window: at most half the sequence
                        // space past the last report's end.
                        let next = newest.map_or(start, |n| n + 1);
                        let used = base.map_or(0, |b| next - b);
                        next + gap.min(0x7fffu64.saturating_sub(used))
                    }
                };
                // The window is the half of the sequence space from the
                // first unreported sequence on; anything else is ignored.
                let b = *base.get_or_insert(seq);
                if (b..b + 0x8000).contains(&seq) {
                    pending.insert(seq, now);
                }
                newest = Some(newest.map_or(seq, |n| n.max(seq)));
                g.on_packet(SimTime::from_micros(now), Ssrc(1), seq as u16);
            }
        }
    }
}
