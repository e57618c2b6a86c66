//! RTCP packet framing and compound packets (RFC 3550 §6.1).
//!
//! Every RTCP packet starts with the common header
//! `V(2)|P(1)|RC/FMT(5)|PT(8)|length(16)`, where `length` counts 32-bit
//! words minus one. Packets whose body is not word-aligned are padded with
//! zeros (the simulator keeps packet bodies aligned by construction, so the
//! padding bit itself is unused).

use crate::app::{GsoTmmbn, GsoTmmbr, Semb};
use crate::error::ParseError;
use crate::feedback::{Nack, TransportFeedback};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gso_util::Ssrc;

/// RTCP packet types used in this stack.
mod pt {
    pub const APP: u8 = 204;
    pub const RTPFB: u8 = 205;
}

/// FMT values for PT 205 (transport feedback).
mod fmt {
    pub const NACK: u8 = 1;
    pub const TRANSPORT_CC: u8 = 15;
}

/// APP subtypes for our three messages.
mod subtype {
    pub const SEMB: u8 = 0;
    pub const GTMB: u8 = 1;
    pub const GTBN: u8 = 2;
}

/// Any RTCP packet this stack understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RtcpPacket {
    /// Generic NACK (PT 205 FMT 1).
    Nack(Nack),
    /// Transport-wide feedback (PT 205 FMT 15).
    TransportFeedback(TransportFeedback),
    /// GSO uplink bandwidth report (APP "SEMB").
    Semb(Semb),
    /// GSO orchestration feedback (APP "GTMB").
    GsoTmmbr(GsoTmmbr),
    /// GSO orchestration acknowledgement (APP "GTBN").
    GsoTmmbn(GsoTmmbn),
}

impl RtcpPacket {
    /// Serialize one packet including its RTCP header.
    pub fn serialize(&self) -> Bytes {
        let mut body = BytesMut::new();
        let (count_or_fmt, packet_type) = match self {
            RtcpPacket::Nack(p) => {
                p.write_body(&mut body);
                (fmt::NACK, pt::RTPFB)
            }
            RtcpPacket::TransportFeedback(p) => {
                p.write_body(&mut body);
                (fmt::TRANSPORT_CC, pt::RTPFB)
            }
            RtcpPacket::Semb(p) => {
                body.put_u32(p.sender_ssrc.0);
                body.extend_from_slice(Semb::NAME);
                p.write_body(&mut body);
                (subtype::SEMB, pt::APP)
            }
            RtcpPacket::GsoTmmbr(p) => {
                body.put_u32(p.sender_ssrc.0);
                body.extend_from_slice(GsoTmmbr::NAME);
                p.write_body(&mut body);
                (subtype::GTMB, pt::APP)
            }
            RtcpPacket::GsoTmmbn(p) => {
                body.put_u32(p.sender_ssrc.0);
                body.extend_from_slice(GsoTmmbn::NAME);
                p.write_body(&mut body);
                (subtype::GTBN, pt::APP)
            }
        };
        // Pad the body to a 32-bit boundary.
        while !body.len().is_multiple_of(4) {
            body.put_u8(0);
        }
        let words = body.len() / 4; // header adds one word; length = words
        debug_assert!(
            words <= usize::from(u16::MAX),
            "RTCP body of {words} words overflows length"
        );
        let mut out = BytesMut::with_capacity(4 + body.len());
        out.put_u8(0b1000_0000 | (count_or_fmt & 0x1f));
        out.put_u8(packet_type);
        out.put_u16(words as u16);
        out.extend_from_slice(&body);
        out.freeze()
    }

    /// Parse exactly one packet from the front of `data`, returning it and
    /// the remaining bytes.
    pub fn parse(mut data: Bytes) -> Result<(RtcpPacket, Bytes), ParseError> {
        if data.len() < 4 {
            return Err(ParseError::Truncated { needed: 4, got: data.len() });
        }
        let b0 = data.get_u8();
        let version = b0 >> 6;
        if version != 2 {
            return Err(ParseError::BadVersion(version));
        }
        let count_or_fmt = b0 & 0x1f;
        let packet_type = data.get_u8();
        let words = data.get_u16() as usize;
        let body_len = words * 4;
        if data.len() < body_len {
            return Err(ParseError::Truncated { needed: body_len, got: data.len() });
        }
        let rest = data.split_off(body_len);
        let mut body = data;

        let packet = match packet_type {
            pt::RTPFB => match count_or_fmt {
                fmt::NACK => RtcpPacket::Nack(Nack::read_body(&mut body)?),
                fmt::TRANSPORT_CC => {
                    RtcpPacket::TransportFeedback(TransportFeedback::read_body(&mut body)?)
                }
                other => {
                    return Err(ParseError::UnknownFormat { packet_type, fmt: other });
                }
            },
            pt::APP => {
                if body.remaining() < 8 {
                    return Err(ParseError::Truncated { needed: 8, got: body.remaining() });
                }
                let sender = Ssrc(body.get_u32());
                let mut name = [0u8; 4];
                body.copy_to_slice(&mut name);
                match &name {
                    n if n == Semb::NAME => RtcpPacket::Semb(Semb::read_body(sender, &mut body)?),
                    n if n == GsoTmmbr::NAME => {
                        RtcpPacket::GsoTmmbr(GsoTmmbr::read_body(sender, &mut body)?)
                    }
                    n if n == GsoTmmbn::NAME => {
                        RtcpPacket::GsoTmmbn(GsoTmmbn::read_body(sender, &mut body)?)
                    }
                    _ => return Err(ParseError::UnknownAppName(name)),
                }
            }
            other => return Err(ParseError::UnknownPacketType(other)),
        };
        Ok((packet, rest))
    }

    /// Serialize a compound packet (several RTCP packets back to back).
    pub fn serialize_compound(packets: &[RtcpPacket]) -> Bytes {
        let mut out = BytesMut::new();
        for p in packets {
            out.extend_from_slice(&p.serialize());
        }
        out.freeze()
    }

    /// Parse a full compound packet into its parts.
    pub fn parse_compound(mut data: Bytes) -> Result<Vec<RtcpPacket>, ParseError> {
        let mut packets = Vec::new();
        while !data.is_empty() {
            let (p, rest) = RtcpPacket::parse(data)?;
            packets.push(p);
            data = rest;
        }
        Ok(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::TmmbrEntry;
    use gso_util::Bitrate;

    fn sample_nack() -> RtcpPacket {
        RtcpPacket::Nack(Nack { sender_ssrc: Ssrc(1), media_ssrc: Ssrc(2), lost: vec![5, 6, 40] })
    }

    fn sample_semb() -> RtcpPacket {
        RtcpPacket::Semb(Semb {
            sender_ssrc: Ssrc(3),
            bitrate: Bitrate::from_kbps(2048),
            ssrcs: vec![Ssrc(7), Ssrc(8)],
        })
    }

    fn sample_gtmb() -> RtcpPacket {
        RtcpPacket::GsoTmmbr(GsoTmmbr {
            sender_ssrc: Ssrc(4),
            epoch: 0,
            request_seq: 9,
            entries: vec![TmmbrEntry {
                ssrc: Ssrc(100),
                bitrate: Bitrate::from_kbps(512),
                overhead: 40,
            }],
        })
    }

    #[test]
    fn single_packet_roundtrips() {
        for p in [sample_nack(), sample_semb(), sample_gtmb()] {
            let wire = p.serialize();
            let (back, rest) = RtcpPacket::parse(wire).unwrap();
            assert!(rest.is_empty());
            assert_eq!(back, p);
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        let packets = vec![
            sample_nack(),
            RtcpPacket::TransportFeedback(TransportFeedback {
                sender_ssrc: Ssrc(1),
                feedback_seq: 3,
                base_seq: 100,
                arrivals: vec![Some(10), None],
            }),
            sample_semb(),
            sample_gtmb(),
            RtcpPacket::GsoTmmbn(GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 0,
                request_seq: 9,
                entries: vec![],
            }),
        ];
        let wire = RtcpPacket::serialize_compound(&packets);
        let back = RtcpPacket::parse_compound(wire).unwrap();
        assert_eq!(back, packets);
    }

    #[test]
    fn compound_parse_stops_at_garbage() {
        let mut wire = BytesMut::from(&sample_nack().serialize()[..]);
        wire.extend_from_slice(&[0x80, 199, 0, 0]); // unknown PT 199
        let err = RtcpPacket::parse_compound(wire.freeze()).unwrap_err();
        assert_eq!(err, ParseError::UnknownPacketType(199));
    }

    #[test]
    fn length_field_counts_words() {
        let wire = sample_semb().serialize();
        let words = u16::from_be_bytes([wire[2], wire[3]]) as usize;
        assert_eq!(wire.len(), 4 + words * 4);
    }

    #[test]
    fn largest_transport_feedback_roundtrips() {
        let max = TransportFeedback::MAX_ARRIVALS;
        let p = RtcpPacket::TransportFeedback(TransportFeedback {
            sender_ssrc: Ssrc(1),
            feedback_seq: 1,
            base_seq: 65_000,
            arrivals: (0..max as u64).map(|i| (i % 3 != 1).then_some(i)).collect(),
        });
        let wire = p.serialize();
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]), u16::MAX);
        let (back, rest) = RtcpPacket::parse(wire).unwrap();
        assert!(rest.is_empty());
        assert_eq!(back, p);
    }

    #[test]
    fn truncated_header_rejected() {
        let err = RtcpPacket::parse(Bytes::from_static(&[0x80, 200])).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { .. }));
    }
}
