//! Receive-side video pipeline: reassembly, loss recovery, playout.
//!
//! One [`StreamReceiver`] exists per subscribed video stream. It reassembles
//! frames from RTP fragments, requests retransmission of missing packets via
//! NACK, and renders frames in decode order: a delta frame is only decodable
//! if its predecessor was decoded, otherwise the receiver freezes until the
//! next keyframe — which is what turns packet loss into the video stalls the
//! paper measures.

use crate::frame::FragmentHeader;
use gso_rtp::{seq_newer, RtpPacket};
use gso_util::{SimDuration, SimTime, Ssrc};
use std::collections::BTreeMap;

/// A frame delivered to the renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderedFrame {
    /// Frame counter within the stream.
    pub frame_id: u64,
    /// Render (delivery) time.
    pub rendered_at: SimTime,
    /// Resolution in lines.
    pub resolution_lines: u16,
    /// Total encoded bytes of the frame.
    pub size: usize,
    /// Whether this was a keyframe.
    pub keyframe: bool,
}

/// Running aggregates over the frames a receiver has rendered.
///
/// This replaces the old unbounded `rendered_log`: an hours-long
/// deployment-sim run used to hold every [`RenderedFrame`] ever rendered.
/// Individual frames are delivered exactly once through
/// [`ReceiverOutput::rendered`]; the receiver itself only keeps these
/// constant-size aggregates, which feed the `gso-telemetry` metrics layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Frames rendered.
    pub frames: u64,
    /// Encoded bytes across rendered frames.
    pub bytes: u64,
    /// Keyframes among them.
    pub keyframes: u64,
    /// Sum of `resolution_lines` over rendered frames (mean resolution =
    /// `resolution_line_sum / frames`).
    pub resolution_line_sum: u64,
    /// Time of the first rendered frame.
    pub first_render: Option<SimTime>,
    /// Time of the most recent rendered frame.
    pub last_render: Option<SimTime>,
}

impl RenderStats {
    fn record(&mut self, frame: &RenderedFrame) {
        self.frames += 1;
        self.bytes += frame.size as u64;
        if frame.keyframe {
            self.keyframes += 1;
        }
        self.resolution_line_sum += u64::from(frame.resolution_lines);
        if self.first_render.is_none() {
            self.first_render = Some(frame.rendered_at);
        }
        self.last_render = Some(frame.rendered_at);
    }

    /// Merge another aggregate into this one (for per-source rollups).
    pub fn merge(&mut self, other: &RenderStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.keyframes += other.keyframes;
        self.resolution_line_sum += other.resolution_line_sum;
        self.first_render = match (self.first_render, other.first_render) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_render = match (self.last_render, other.last_render) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Output of feeding a packet into the receiver.
#[derive(Debug, Default)]
pub struct ReceiverOutput {
    /// Frames that became renderable, in order.
    pub rendered: Vec<RenderedFrame>,
    /// Sequence numbers that should be NACKed now.
    pub nacks: Vec<u16>,
    /// True if the receiver is stuck waiting for a keyframe (the publisher
    /// should be asked for one if this persists).
    pub needs_keyframe: bool,
}

#[derive(Debug)]
struct PartialFrame {
    header: FragmentHeader,
    received: Vec<bool>,
    bytes: usize,
    first_seen: SimTime,
}

/// Per-stream receive state.
#[derive(Debug)]
pub struct StreamReceiver {
    ssrc: Ssrc,
    /// Highest sequence seen (for gap detection).
    highest_seq: Option<u16>,
    /// Sequence numbers detected missing and not yet received, with the
    /// time each was first missed and how many times it was NACKed.
    missing: BTreeMap<u16, (SimTime, u8)>,
    /// Frames being assembled.
    partial: BTreeMap<u64, PartialFrame>,
    /// Next frame we are allowed to decode (`None` = wait for any keyframe).
    next_decodable: Option<u64>,
    /// Completed frames waiting on decode order.
    ready: BTreeMap<u64, RenderedFrame>,
    /// Constant-size render aggregates (for metrics).
    stats: RenderStats,
    /// Retransmit a NACK if the packet is still missing after this long.
    nack_retry: SimDuration,
    /// Give up on a packet after this many NACKs and wait for a keyframe.
    max_nacks: u8,
    /// Accumulated decode/render work units.
    work_units: f64,
    /// Total packets received (including retransmissions).
    pub packets_received: u64,
}

impl StreamReceiver {
    /// Create a receiver for one stream.
    pub fn new(ssrc: Ssrc) -> Self {
        StreamReceiver {
            ssrc,
            highest_seq: None,
            missing: BTreeMap::new(),
            partial: BTreeMap::new(),
            next_decodable: None,
            ready: BTreeMap::new(),
            stats: RenderStats::default(),
            nack_retry: SimDuration::from_millis(100),
            max_nacks: 3,
            work_units: 0.0,
            packets_received: 0,
        }
    }

    /// The stream this receiver tracks.
    pub fn ssrc(&self) -> Ssrc {
        self.ssrc
    }

    /// Feed an arriving RTP packet.
    pub fn on_packet(&mut self, now: SimTime, packet: &RtpPacket) -> ReceiverOutput {
        let mut out = ReceiverOutput::default();
        if packet.ssrc != self.ssrc {
            return out;
        }
        self.packets_received += 1;
        self.work_units += crate::cost::PACKET_COST;

        // Gap detection against the highest sequence seen.
        match self.highest_seq {
            None => self.highest_seq = Some(packet.sequence),
            Some(h) if seq_newer(packet.sequence, h) => {
                let mut s = h.wrapping_add(1);
                while s != packet.sequence {
                    self.missing.insert(s, (now, 0));
                    s = s.wrapping_add(1);
                }
                self.highest_seq = Some(packet.sequence);
            }
            Some(_) => {
                // A retransmission or reordering fills a hole.
                self.missing.remove(&packet.sequence);
            }
        }

        let Some(header) = FragmentHeader::parse(&packet.payload) else {
            return out;
        };

        // Assemble the frame.
        let entry = self.partial.entry(header.frame_id).or_insert_with(|| PartialFrame {
            header,
            received: vec![false; header.frag_count as usize],
            bytes: 0,
            first_seen: now,
        });
        let idx = header.frag_index as usize;
        if idx < entry.received.len() && !entry.received[idx] {
            entry.received[idx] = true;
            entry.bytes += packet.payload.len() - crate::frame::FRAG_HEADER_LEN;
        }
        if entry.received.iter().all(|&r| r) {
            let frame = RenderedFrame {
                frame_id: header.frame_id,
                rendered_at: now,
                resolution_lines: entry.header.resolution_lines,
                size: entry.bytes,
                keyframe: entry.header.keyframe,
            };
            self.partial.remove(&header.frame_id);
            self.ready.insert(frame.frame_id, frame);
            self.drain_ready(now, &mut out);
        }

        // Emit NACKs for fresh or stale-enough gaps.
        self.collect_nacks(now, &mut out);
        out
    }

    /// Periodic poll: retries NACKs, expires stale state, reports keyframe
    /// need. Call every few tens of milliseconds.
    pub fn poll(&mut self, now: SimTime) -> ReceiverOutput {
        let mut out = ReceiverOutput::default();
        self.collect_nacks(now, &mut out);

        // Drop partial frames that can never complete (their packets were
        // abandoned) and frames that predate the decode horizon.
        let abandoned: Vec<u64> = self
            .partial
            .iter()
            .filter(|(_, p)| now.saturating_since(p.first_seen) > SimDuration::from_secs(2))
            .map(|(&id, _)| id)
            .collect();
        for id in abandoned {
            self.partial.remove(&id);
            // We lost a frame for good: freeze until the next keyframe.
            self.next_decodable = None;
            out.needs_keyframe = true;
        }
        self.drain_ready(now, &mut out);
        out
    }

    fn collect_nacks(&mut self, now: SimTime, out: &mut ReceiverOutput) {
        let mut gave_up = false;
        let retry = self.nack_retry;
        let max = self.max_nacks;
        let mut to_remove = Vec::new();
        for (&seq, entry) in self.missing.iter_mut() {
            let (since, count) = *entry;
            if count == 0 || now.saturating_since(since) >= retry {
                if count >= max {
                    to_remove.push(seq);
                    gave_up = true;
                } else {
                    out.nacks.push(seq);
                    *entry = (now, count + 1);
                }
            }
        }
        for seq in to_remove {
            self.missing.remove(&seq);
        }
        if gave_up {
            self.next_decodable = None;
            out.needs_keyframe = true;
        }
    }

    fn drain_ready(&mut self, _now: SimTime, out: &mut ReceiverOutput) {
        loop {
            // When frozen (no decodable successor), resume at the earliest
            // complete keyframe, discarding anything older.
            if self.next_decodable.is_none() {
                let Some(kid) = self.ready.iter().find(|(_, f)| f.keyframe).map(|(&id, _)| id)
                else {
                    break;
                };
                let stale: Vec<u64> = self.ready.range(..kid).map(|(&id, _)| id).collect();
                for id in stale {
                    self.ready.remove(&id);
                }
                self.next_decodable = Some(kid);
            }
            let next = self.next_decodable.expect("set above");
            // Frames older than the decode horizon can never render.
            let stale: Vec<u64> = self.ready.range(..next).map(|(&id, _)| id).collect();
            for id in stale {
                self.ready.remove(&id);
            }
            // Render strictly in decode order; a delayed predecessor (e.g.
            // awaiting retransmission) blocks its successors.
            let Some(frame) = self.ready.remove(&next) else { break };
            self.next_decodable = Some(next + 1);
            self.work_units += crate::cost::decode_cost(frame.resolution_lines)
                + crate::cost::RENDER_COST_PER_FRAME;
            self.stats.record(&frame);
            out.rendered.push(frame);
        }
    }

    /// Running aggregates over everything rendered so far. The frames
    /// themselves are handed out exactly once via
    /// [`ReceiverOutput::rendered`]; only these aggregates persist.
    pub fn render_stats(&self) -> RenderStats {
        self.stats
    }

    /// Accumulated decode/render work units.
    pub fn work_units(&self) -> f64 {
        self.work_units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{LayerConfig, SimulcastEncoder};
    use crate::frame::packetize;
    use gso_util::{Bitrate, DetRng};

    fn make_stream(seconds: u64, kbps: u64) -> Vec<RtpPacket> {
        let mut enc = SimulcastEncoder::new(
            15.0,
            vec![LayerConfig {
                ssrc: Ssrc(1),
                resolution_lines: 360,
                target: Bitrate::from_kbps(kbps),
            }],
            DetRng::derive(3, "recv-test"),
        );
        let mut seq = 0u16;
        let mut packets = Vec::new();
        let dt = enc.frame_interval();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(seconds) {
            for f in enc.tick(t) {
                packets.extend(packetize(&f, &mut seq, 96));
            }
            t += dt;
        }
        packets
    }

    #[test]
    fn clean_stream_renders_every_frame() {
        let packets = make_stream(2, 600);
        let mut rx = StreamReceiver::new(Ssrc(1));
        let mut rendered = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            let out = rx.on_packet(SimTime::from_millis(i as u64 * 5), p);
            rendered.extend(out.rendered);
            assert!(out.nacks.is_empty());
        }
        assert_eq!(rendered.len(), 30, "2 s at 15 fps");
        // Frames render in order.
        let ids: Vec<u64> = rendered.iter().map(|f| f.frame_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        // The aggregates agree with the drained frames.
        let stats = rx.render_stats();
        assert_eq!(stats.frames, 30);
        assert_eq!(stats.bytes, rendered.iter().map(|f| f.size as u64).sum::<u64>());
        assert_eq!(stats.keyframes, rendered.iter().filter(|f| f.keyframe).count() as u64);
        assert_eq!(stats.first_render, Some(rendered[0].rendered_at));
        assert_eq!(stats.last_render, Some(rendered[29].rendered_at));
    }

    #[test]
    fn missing_packet_triggers_nack_and_blocks_decode() {
        let packets = make_stream(1, 1500);
        // Find a multi-fragment frame and drop its middle packet.
        let victim = packets
            .iter()
            .position(|p| {
                let h = FragmentHeader::parse(&p.payload).unwrap();
                h.frag_count > 1 && h.frag_index == 1 && h.frame_id > 0
            })
            .expect("stream has multi-fragment frames");
        let mut rx = StreamReceiver::new(Ssrc(1));
        let mut nacked = Vec::new();
        let mut rendered = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            if i == victim {
                continue;
            }
            let out = rx.on_packet(SimTime::from_millis(i as u64), p);
            nacked.extend(out.nacks);
            rendered.extend(out.rendered);
        }
        assert!(nacked.contains(&packets[victim].sequence));
        // The victim frame and everything after it is stuck.
        let victim_frame = FragmentHeader::parse(&packets[victim].payload).unwrap().frame_id;
        assert!(rendered.iter().all(|f| f.frame_id < victim_frame));
        // Retransmission unblocks the pipeline.
        let out = rx.on_packet(SimTime::from_secs(2), &packets[victim]);
        assert!(out.rendered.iter().any(|f| f.frame_id == victim_frame));
        assert!(out.rendered.len() > 1, "queued frames drain after repair");
    }

    #[test]
    fn keyframe_recovers_from_unrepaired_loss() {
        let packets = make_stream(5, 400); // single-fragment frames mostly
        let mut rx = StreamReceiver::new(Ssrc(1));
        let mut rendered = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            // Drop everything in "frame 10..15" region once.
            let h = FragmentHeader::parse(&p.payload).unwrap();
            if (10..15).contains(&h.frame_id) {
                continue;
            }
            let t = SimTime::from_millis(66 * i as u64);
            rendered.extend(rx.on_packet(t, p).rendered);
            // Poll occasionally to expire NACKs.
            rendered.extend(rx.poll(t).rendered);
        }
        assert!(rendered.iter().any(|f| f.frame_id >= 15), "a later keyframe must resume playback");
        // Frames 10..15 never rendered.
        assert!(rendered.iter().all(|f| !(10..15).contains(&f.frame_id)));
    }

    #[test]
    fn nack_retries_then_gives_up() {
        let packets = make_stream(1, 300);
        let mut rx = StreamReceiver::new(Ssrc(1));
        // Deliver first and third packets, skipping the second.
        rx.on_packet(SimTime::ZERO, &packets[0]);
        let out = rx.on_packet(SimTime::from_millis(10), &packets[2]);
        assert_eq!(out.nacks, vec![packets[1].sequence]);
        // Polls beyond the retry interval re-NACK up to the limit.
        let mut total_nacks = 1;
        let mut needs_key = false;
        for ms in (200..2000).step_by(150) {
            let out = rx.poll(SimTime::from_millis(ms));
            total_nacks += out.nacks.len();
            needs_key |= out.needs_keyframe;
        }
        assert_eq!(total_nacks, 3, "initial NACK + retries up to max_nacks");
        assert!(needs_key, "after giving up, a keyframe is requested");
    }

    #[test]
    fn wrong_ssrc_ignored() {
        let packets = make_stream(1, 300);
        let mut rx = StreamReceiver::new(Ssrc(2));
        let out = rx.on_packet(SimTime::ZERO, &packets[0]);
        assert!(out.rendered.is_empty());
        assert_eq!(rx.packets_received, 0);
    }

    #[test]
    fn duplicate_packets_are_idempotent() {
        let packets = make_stream(1, 300);
        let mut rx = StreamReceiver::new(Ssrc(1));
        rx.on_packet(SimTime::ZERO, &packets[0]);
        let n = rx.render_stats().frames;
        rx.on_packet(SimTime::from_millis(1), &packets[0]);
        assert_eq!(rx.render_stats().frames, n, "duplicate must not double-render");
    }

    #[test]
    fn render_stats_merge_sums_counts_and_spans_render_times() {
        let early = RenderStats {
            frames: 3,
            bytes: 900,
            keyframes: 1,
            resolution_line_sum: 1_080,
            first_render: Some(SimTime::from_millis(10)),
            last_render: Some(SimTime::from_millis(80)),
        };
        let late = RenderStats {
            frames: 2,
            bytes: 400,
            keyframes: 0,
            resolution_line_sum: 720,
            first_render: Some(SimTime::from_millis(50)),
            last_render: Some(SimTime::from_millis(120)),
        };
        let mut merged = late;
        merged.merge(&early);
        assert_eq!((merged.frames, merged.bytes, merged.keyframes), (5, 1_300, 1));
        assert_eq!(merged.resolution_line_sum, 1_800);
        assert_eq!(merged.first_render, early.first_render);
        assert_eq!(merged.last_render, late.last_render);
        // An empty side leaves the other's times as they are.
        let mut empty = RenderStats::default();
        empty.merge(&early);
        assert_eq!(empty, early);
    }
}
