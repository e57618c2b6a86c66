//! Encoded frames and their packetization into RTP.
//!
//! The simulator does not encode pixels; an [`EncodedFrame`] carries only
//! the attributes that matter to transport and QoE — size, keyframe flag,
//! resolution, capture time. Frames are fragmented into MTU-sized RTP
//! packets whose payloads begin with a small fragment header so the receiver
//! can reassemble without codec knowledge.

use bytes::{Buf, BufMut, BytesMut};
use gso_rtp::RtpPacket;
use gso_util::{SimTime, Ssrc};

/// Payload bytes available per RTP packet (1200-byte MTU minus RTP header).
pub const MTU_PAYLOAD: usize = 1188;

/// Size of the fragment header at the start of every payload.
pub const FRAG_HEADER_LEN: usize = 16;

/// RTP clock rate used for video timestamps (90 kHz, the RTP convention).
pub const VIDEO_CLOCK_HZ: u64 = 90_000;

/// One encoded video frame, pre-packetization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedFrame {
    /// The simulcast layer that produced it.
    pub ssrc: Ssrc,
    /// Monotone per-layer frame counter.
    pub frame_id: u64,
    /// True for intra (key) frames, which decode without a predecessor.
    pub keyframe: bool,
    /// Encoded size in bytes.
    pub size: usize,
    /// Vertical resolution in lines.
    pub resolution_lines: u16,
    /// Capture timestamp.
    pub captured_at: SimTime,
}

/// The fragment header carried at the start of each payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Frame the fragment belongs to.
    pub frame_id: u64,
    /// Index of this fragment within the frame.
    pub frag_index: u16,
    /// Total fragments in the frame.
    pub frag_count: u16,
    /// Keyframe flag.
    pub keyframe: bool,
    /// Resolution in lines (carried so receivers can track quality).
    pub resolution_lines: u16,
}

impl FragmentHeader {
    /// Serialize into the first [`FRAG_HEADER_LEN`] bytes of a payload.
    pub fn write(&self, b: &mut BytesMut) {
        b.put_u64(self.frame_id);
        b.put_u16(self.frag_index);
        b.put_u16(self.frag_count);
        b.put_u8(u8::from(self.keyframe));
        b.put_u16(self.resolution_lines);
        b.put_u8(0); // reserved
    }

    /// Parse from the front of a payload; `None` if too short.
    pub fn parse(payload: &[u8]) -> Option<FragmentHeader> {
        if payload.len() < FRAG_HEADER_LEN {
            return None;
        }
        let mut b = payload;
        let frame_id = b.get_u64();
        let frag_index = b.get_u16();
        let frag_count = b.get_u16();
        let keyframe = b.get_u8() != 0;
        let resolution_lines = b.get_u16();
        Some(FragmentHeader { frame_id, frag_index, frag_count, keyframe, resolution_lines })
    }
}

/// Fragment an encoded frame into RTP packets.
///
/// `next_seq` is the per-SSRC sequence counter, advanced by the number of
/// packets produced. The RTP marker bit is set on the final fragment, per
/// video RTP convention.
pub fn packetize(frame: &EncodedFrame, next_seq: &mut u16, payload_type: u8) -> Vec<RtpPacket> {
    let data_per_packet = MTU_PAYLOAD - FRAG_HEADER_LEN;
    let frag_count = frame.size.div_ceil(data_per_packet).max(1) as u16;
    let timestamp = ((frame.captured_at.as_micros() * VIDEO_CLOCK_HZ) / 1_000_000) as u32;
    let mut packets = Vec::with_capacity(frag_count as usize);
    let mut remaining = frame.size;
    for i in 0..frag_count {
        let chunk = remaining.min(data_per_packet);
        remaining -= chunk;
        let mut payload = BytesMut::with_capacity(FRAG_HEADER_LEN + chunk);
        FragmentHeader {
            frame_id: frame.frame_id,
            frag_index: i,
            frag_count,
            keyframe: frame.keyframe,
            resolution_lines: frame.resolution_lines,
        }
        .write(&mut payload);
        payload.resize(FRAG_HEADER_LEN + chunk, 0);
        packets.push(RtpPacket {
            marker: i + 1 == frag_count,
            payload_type,
            sequence: *next_seq,
            timestamp,
            ssrc: frame.ssrc,
            payload: payload.freeze(),
        });
        *next_seq = next_seq.wrapping_add(1);
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(size: usize) -> EncodedFrame {
        EncodedFrame {
            ssrc: Ssrc(7),
            frame_id: 3,
            keyframe: true,
            size,
            resolution_lines: 720,
            captured_at: SimTime::from_millis(500),
        }
    }

    #[test]
    fn small_frame_single_packet() {
        let mut seq = 100;
        let pkts = packetize(&frame(500), &mut seq, 96);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].marker);
        assert_eq!(pkts[0].sequence, 100);
        assert_eq!(seq, 101);
        let h = FragmentHeader::parse(&pkts[0].payload).unwrap();
        assert_eq!(h.frag_count, 1);
        assert!(h.keyframe);
        assert_eq!(h.resolution_lines, 720);
        assert_eq!(pkts[0].payload.len(), FRAG_HEADER_LEN + 500);
    }

    #[test]
    fn large_frame_fragments_with_marker_on_last() {
        let size = 5000;
        let mut seq = 0;
        let pkts = packetize(&frame(size), &mut seq, 96);
        let per = MTU_PAYLOAD - FRAG_HEADER_LEN;
        assert_eq!(pkts.len(), size.div_ceil(per));
        assert!(pkts.iter().rev().skip(1).all(|p| !p.marker));
        assert!(pkts.last().unwrap().marker);
        // Sequence numbers are consecutive.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.sequence as usize, i);
        }
        // Total payload data (minus headers) equals the frame size.
        let data: usize = pkts.iter().map(|p| p.payload.len() - FRAG_HEADER_LEN).sum();
        assert_eq!(data, size);
    }

    #[test]
    fn header_roundtrip() {
        let h = FragmentHeader {
            frame_id: u64::MAX - 1,
            frag_index: 9,
            frag_count: 10,
            keyframe: false,
            resolution_lines: 360,
        };
        let mut b = BytesMut::new();
        h.write(&mut b);
        assert_eq!(b.len(), FRAG_HEADER_LEN);
        assert_eq!(FragmentHeader::parse(&b).unwrap(), h);
        assert!(FragmentHeader::parse(&b[..10]).is_none());
    }

    #[test]
    fn timestamps_use_90khz_clock() {
        let mut seq = 0;
        let pkts = packetize(&frame(10), &mut seq, 96);
        // 500 ms at 90 kHz = 45 000 ticks.
        assert_eq!(pkts[0].timestamp, 45_000);
    }

    #[test]
    fn zero_size_frame_still_emits_one_packet() {
        let mut seq = 0;
        let pkts = packetize(&frame(0), &mut seq, 96);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload.len(), FRAG_HEADER_LEN);
    }

    #[test]
    fn seq_wraps_across_frames() {
        let mut seq = u16::MAX;
        let pkts = packetize(&frame(3000), &mut seq, 96);
        assert_eq!(pkts[0].sequence, u16::MAX);
        assert_eq!(pkts[1].sequence, 0);
    }
}
