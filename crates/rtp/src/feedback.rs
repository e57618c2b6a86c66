//! RTCP transport-layer and payload-specific feedback.
//!
//! * [`TmmbrEntry`] — the RFC 5104 TMMBR (SSRC, bitrate, overhead) tuple.
//!   The paper notes that sending plain TMMBR for stream orchestration
//!   would be ambiguous with congestion control (RFC 8888), so GSO carries
//!   these entries inside its own APP packets (see [`crate::app`]); the
//!   plain TMMBR/TMMBN messages are not part of this stack.
//! * Generic NACK (RFC 4585, PT 205 FMT 1) — retransmission requests used
//!   by the loss-recovery path in the media simulator.
//! * Transport-wide feedback (PT 205 FMT 15) — per-packet arrival times for
//!   the sender-side bandwidth estimator (§4.2: "we rely on sender-side
//!   bandwidth estimation"). The body layout is a simplified fixed-width
//!   variant of draft-holmer-rmcat-transport-wide-cc: explicit 64-bit µs
//!   arrival times instead of delta compression. Semantics are identical;
//!   only the packing differs (documented simulator substitution).

use crate::error::ParseError;
use crate::mantissa;
use bytes::{Buf, BufMut, BytesMut};
use gso_util::{Bitrate, Ssrc};

/// One (SSRC, bitrate, overhead) tuple in the RFC 5104 TMMBR layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmmbrEntry {
    /// The stream being limited; GSO assigns one SSRC per simulcast layer,
    /// so this field selects the layer to configure (§4.3).
    pub ssrc: Ssrc,
    /// Maximum total media bitrate. Zero disables the stream.
    pub bitrate: Bitrate,
    /// Per-packet overhead in bytes (9 bits on the wire).
    pub overhead: u16,
}

impl TmmbrEntry {
    pub(crate) const WIRE_LEN: usize = 8;

    pub(crate) fn write(&self, b: &mut BytesMut) {
        b.put_u32(self.ssrc.0);
        let (exp, mantissa) = mantissa::encode(self.bitrate, mantissa::TMMBR_MANTISSA_BITS);
        let word: u32 =
            (u32::from(exp) << 26) | (mantissa << 9) | (u32::from(self.overhead) & 0x1ff);
        b.put_u32(word);
    }

    pub(crate) fn read(b: &mut impl Buf) -> TmmbrEntry {
        let ssrc = Ssrc(b.get_u32());
        let word = b.get_u32();
        let exp = (word >> 26) as u8;
        let m = (word >> 9) & 0x1ffff;
        let overhead = (word & 0x1ff) as u16;
        TmmbrEntry { ssrc, bitrate: mantissa::decode(exp, m), overhead }
    }
}

/// Generic NACK (PT 205, FMT 1): lost-packet sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// The requesting receiver.
    pub sender_ssrc: Ssrc,
    /// The stream the losses belong to.
    pub media_ssrc: Ssrc,
    /// Lost sequence numbers (encoded as PID+BLP pairs on the wire).
    pub lost: Vec<u16>,
}

impl Nack {
    /// Encode the lost list into PID+BLP items.
    fn items(&self) -> Vec<(u16, u16)> {
        let mut sorted = self.lost.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut items: Vec<(u16, u16)> = Vec::new();
        for seq in sorted {
            if let Some(last) = items.last_mut() {
                let delta = seq.wrapping_sub(last.0);
                if (1..=16).contains(&delta) {
                    last.1 |= 1 << (delta - 1);
                    continue;
                }
            }
            items.push((seq, 0));
        }
        items
    }

    pub(crate) fn write_body(&self, b: &mut BytesMut) {
        b.put_u32(self.sender_ssrc.0);
        b.put_u32(self.media_ssrc.0);
        for (pid, blp) in self.items() {
            b.put_u16(pid);
            b.put_u16(blp);
        }
    }

    pub(crate) fn read_body(b: &mut impl Buf) -> Result<Nack, ParseError> {
        if b.remaining() < 8 {
            return Err(ParseError::Truncated { needed: 8, got: b.remaining() });
        }
        let sender_ssrc = Ssrc(b.get_u32());
        let media_ssrc = Ssrc(b.get_u32());
        if !b.remaining().is_multiple_of(4) {
            return Err(ParseError::BadLength);
        }
        let mut lost = Vec::new();
        while b.remaining() >= 4 {
            let pid = b.get_u16();
            let blp = b.get_u16();
            lost.push(pid);
            for i in 0..16 {
                if blp & (1 << i) != 0 {
                    lost.push(pid.wrapping_add(i + 1));
                }
            }
        }
        Ok(Nack { sender_ssrc, media_ssrc, lost })
    }
}

/// Transport-wide feedback (PT 205, FMT 15): per-packet arrival times for
/// the sender-side estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportFeedback {
    /// The reporting receiver (or accessing node, for downlink estimation).
    pub sender_ssrc: Ssrc,
    /// Feedback message counter, wraps.
    pub feedback_seq: u32,
    /// Transport-wide sequence number of the first reported packet.
    pub base_seq: u16,
    /// Arrival time in µs for each packet from `base_seq` on; `None` = lost.
    pub arrivals: Vec<Option<u64>>,
}

impl TransportFeedback {
    const LOST: u64 = u64::MAX;

    /// Most arrivals one message can carry: the RTCP length field counts
    /// body words in 16 bits, and the body is 12 bytes plus 8 per arrival,
    /// so (65,535 · 4 − 12) / 8.
    pub const MAX_ARRIVALS: usize = 32_766;

    pub(crate) fn write_body(&self, b: &mut BytesMut) {
        b.put_u32(self.sender_ssrc.0);
        b.put_u32(self.feedback_seq);
        b.put_u16(self.base_seq);
        b.put_u16(self.arrivals.len() as u16);
        for a in &self.arrivals {
            b.put_u64(a.unwrap_or(Self::LOST));
        }
    }

    pub(crate) fn read_body(b: &mut impl Buf) -> Result<TransportFeedback, ParseError> {
        if b.remaining() < 12 {
            return Err(ParseError::Truncated { needed: 12, got: b.remaining() });
        }
        let sender_ssrc = Ssrc(b.get_u32());
        let feedback_seq = b.get_u32();
        let base_seq = b.get_u16();
        let n = b.get_u16() as usize;
        if b.remaining() < n * 8 {
            return Err(ParseError::Truncated { needed: n * 8, got: b.remaining() });
        }
        let arrivals = (0..n)
            .map(|_| {
                let v = b.get_u64();
                (v != Self::LOST).then_some(v)
            })
            .collect();
        Ok(TransportFeedback { sender_ssrc, feedback_seq, base_seq, arrivals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmmbr_entry_roundtrip() {
        let e = TmmbrEntry { ssrc: Ssrc(42), bitrate: Bitrate::from_kbps(1400), overhead: 40 };
        let mut b = BytesMut::new();
        e.write(&mut b);
        assert_eq!(b.len(), TmmbrEntry::WIRE_LEN);
        let back = TmmbrEntry::read(&mut b.freeze());
        assert_eq!(back.ssrc, e.ssrc);
        assert_eq!(back.overhead, 40);
        // 1.4 Mbps fits a 17-bit mantissa only approximately.
        let rel = (back.bitrate.as_bps() as f64 - e.bitrate.as_bps() as f64).abs()
            / e.bitrate.as_bps() as f64;
        assert!(rel < 1e-4);
    }

    #[test]
    fn tmmbr_zero_bitrate_disables() {
        let e = TmmbrEntry { ssrc: Ssrc(1), bitrate: Bitrate::ZERO, overhead: 0 };
        let mut b = BytesMut::new();
        e.write(&mut b);
        let back = TmmbrEntry::read(&mut b.freeze());
        assert!(back.bitrate.is_zero());
    }

    #[test]
    fn nack_blp_compression() {
        let n = Nack {
            sender_ssrc: Ssrc(1),
            media_ssrc: Ssrc(2),
            lost: vec![100, 101, 105, 116, 117, 200],
        };
        // 100 carries 101,105,116 in its BLP (offsets 1,5,16); 117 starts a
        // new item carrying nothing; 200 a third.
        let items = n.items();
        assert_eq!(items.len(), 3);
        let mut b = BytesMut::new();
        n.write_body(&mut b);
        let back = Nack::read_body(&mut b.freeze()).unwrap();
        let mut lost = back.lost.clone();
        lost.sort_unstable();
        assert_eq!(lost, vec![100, 101, 105, 116, 117, 200]);
    }

    #[test]
    fn nack_wraparound_sequences() {
        let n = Nack { sender_ssrc: Ssrc(1), media_ssrc: Ssrc(2), lost: vec![0xffff, 0, 1] };
        let mut b = BytesMut::new();
        n.write_body(&mut b);
        let back = Nack::read_body(&mut b.freeze()).unwrap();
        let mut lost = back.lost.clone();
        lost.sort_unstable();
        assert_eq!(lost, vec![0, 1, 0xffff]);
    }

    #[test]
    fn transport_feedback_roundtrip_with_losses() {
        let tf = TransportFeedback {
            sender_ssrc: Ssrc(5),
            feedback_seq: 77,
            base_seq: 1000,
            arrivals: vec![Some(1_000_000), None, Some(1_020_000), None, None, Some(1_100_123)],
        };
        let mut b = BytesMut::new();
        tf.write_body(&mut b);
        let back = TransportFeedback::read_body(&mut b.freeze()).unwrap();
        assert_eq!(back, tf);
    }
}
