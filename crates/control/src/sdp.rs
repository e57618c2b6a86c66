//! SDP negotiation with `simulcastInfo` (§4.2).
//!
//! "The codec capability information is collected through the SDP
//! negotiation process … We also send a customized simulcastInfo message
//! together with the SDP offer … so that the conference node is not only
//! able to collect the video codec type and the number of streams supported,
//! but also the stream resolutions and the maximum bitrates with respect to
//! each resolution. In the negotiation, we assign a different SSRC for each
//! stream resolution."
//!
//! This module implements a textual session description sufficient for that
//! exchange: a minimal RFC 4566 subset (`v=`, `o=`, `s=`, `m=`, `a=rtpmap`,
//! `a=ssrc`) plus the custom `a=simulcast-info` attribute carrying, per
//! stream kind, the `(resolution, max bitrate, qoe)` ladder. The conference
//! node answers by echoing the accepted ladders with their assigned SSRCs.

use crate::state::CodecCapability;
use gso_algo::{Ladder, LadderError, Resolution, StreamSpec};
use gso_rtp::ssrc_for;
use gso_util::{Bitrate, ClientId, StreamKind};
use std::fmt;

/// An SDP offer carrying the client's simulcast capabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct SdpOffer {
    /// The offering client.
    pub client: ClientId,
    /// Video codec name for `a=rtpmap` (e.g. "H264").
    pub codec: String,
    /// Per-kind feasible stream sets.
    pub ladders: Vec<(StreamKind, Ladder)>,
}

/// One accepted source in an [`SdpAnswer`]: its kind, its ladder, and the
/// SSRC assigned to each resolution layer (§4.2).
pub type AcceptedSource = (StreamKind, Ladder, Vec<(Resolution, gso_util::Ssrc)>);

/// The answer: accepted ladders with per-resolution SSRC assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct SdpAnswer {
    /// The client the answer addresses.
    pub client: ClientId,
    /// Accepted sources (one per layer, per §4.2).
    pub accepted: Vec<AcceptedSource>,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SdpError {
    /// A mandatory line (`v=`, `o=`, `m=`) is missing.
    MissingLine(&'static str),
    /// A line failed to parse.
    Malformed(String),
    /// The simulcast-info ladder violated ladder invariants.
    BadLadder(LadderError),
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdpError::MissingLine(l) => write!(f, "missing mandatory SDP line {l}"),
            SdpError::Malformed(l) => write!(f, "malformed SDP line: {l}"),
            SdpError::BadLadder(e) => write!(f, "invalid simulcast-info ladder: {e}"),
        }
    }
}

impl std::error::Error for SdpError {}

fn kind_token(kind: StreamKind) -> &'static str {
    match kind {
        StreamKind::Audio => "audio",
        StreamKind::Video => "video",
        StreamKind::Screen => "screen",
    }
}

fn kind_from_token(tok: &str) -> Option<StreamKind> {
    match tok {
        "audio" => Some(StreamKind::Audio),
        "video" => Some(StreamKind::Video),
        "screen" => Some(StreamKind::Screen),
        _ => None,
    }
}

impl SdpOffer {
    /// Serialize to SDP text.
    ///
    /// The `simulcast-info` attribute packs one ladder per line:
    /// `a=simulcast-info:<kind> <res>:<kbps>:<qoe>;...`
    pub fn to_sdp(&self) -> String {
        let mut out = String::new();
        out.push_str("v=0\r\n");
        out.push_str(&format!("o=client{} 0 0 IN IP4 0.0.0.0\r\n", self.client.0));
        out.push_str("s=gso-simulcast\r\n");
        out.push_str("t=0 0\r\n");
        out.push_str("m=video 9 UDP/RTP/AVPF 96\r\n");
        out.push_str(&format!("a=rtpmap:96 {}/90000\r\n", self.codec));
        for (kind, ladder) in &self.ladders {
            let specs: Vec<String> = ladder
                .specs()
                .iter()
                .map(|s| format!("{}:{}:{}", s.resolution.0, s.bitrate.as_kbps(), s.qoe))
                .collect();
            out.push_str(&format!(
                "a=simulcast-info:{} {}\r\n",
                kind_token(*kind),
                specs.join(";")
            ));
        }
        out
    }

    /// Parse from SDP text.
    pub fn parse(text: &str) -> Result<SdpOffer, SdpError> {
        let mut client = None;
        let mut codec = None;
        let mut ladders = Vec::new();
        let mut saw_v = false;
        let mut saw_m = false;
        for line in text.lines().map(str::trim_end) {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("o=") {
                let name = rest.split_whitespace().next().unwrap_or("");
                let id = name
                    .strip_prefix("client")
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or_else(|| SdpError::Malformed(line.to_string()))?;
                client = Some(ClientId(id));
            } else if line == "v=0" {
                saw_v = true;
            } else if line.starts_with("m=video") {
                saw_m = true;
            } else if let Some(rest) = line.strip_prefix("a=rtpmap:") {
                // "96 H264/90000"
                let codec_part = rest
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.split('/').next())
                    .ok_or_else(|| SdpError::Malformed(line.to_string()))?;
                codec = Some(codec_part.to_string());
            } else if let Some(rest) = line.strip_prefix("a=simulcast-info:") {
                let mut parts = rest.splitn(2, ' ');
                let kind = parts
                    .next()
                    .and_then(kind_from_token)
                    .ok_or_else(|| SdpError::Malformed(line.to_string()))?;
                let body = parts.next().unwrap_or("");
                let mut specs = Vec::new();
                for item in body.split(';').filter(|s| !s.is_empty()) {
                    let mut f = item.split(':');
                    let (res, kbps, qoe) = (f.next(), f.next(), f.next());
                    let (Some(res), Some(kbps), Some(qoe)) = (res, kbps, qoe) else {
                        return Err(SdpError::Malformed(line.to_string()));
                    };
                    let res: u16 =
                        res.parse().map_err(|_| SdpError::Malformed(line.to_string()))?;
                    // lint: allow(unit-hygiene, reason = "SDP wire-format parse; the raw kbps becomes a Bitrate when the spec is built below")
                    let kbps: u64 =
                        kbps.parse().map_err(|_| SdpError::Malformed(line.to_string()))?;
                    let qoe: f64 =
                        qoe.parse().map_err(|_| SdpError::Malformed(line.to_string()))?;
                    specs.push(StreamSpec::new(Resolution(res), Bitrate::from_kbps(kbps), qoe));
                }
                let ladder = Ladder::new(specs).map_err(SdpError::BadLadder)?;
                ladders.push((kind, ladder));
            }
        }
        if !saw_v {
            return Err(SdpError::MissingLine("v="));
        }
        if !saw_m {
            return Err(SdpError::MissingLine("m="));
        }
        let client = client.ok_or(SdpError::MissingLine("o="))?;
        Ok(SdpOffer { client, codec: codec.unwrap_or_else(|| "H264".to_string()), ladders })
    }

    /// The conference node's side of the negotiation: accept the offer,
    /// assign one SSRC per (kind, resolution) layer, and produce both the
    /// answer and the [`CodecCapability`] to store in the global picture.
    pub fn negotiate(&self) -> (SdpAnswer, CodecCapability) {
        let accepted: Vec<AcceptedSource> = self
            .ladders
            .iter()
            .map(|(kind, ladder)| {
                let ssrcs = ladder
                    .resolutions()
                    .into_iter()
                    .map(|r| (r, ssrc_for(self.client, *kind, r.0)))
                    .collect();
                (*kind, ladder.clone(), ssrcs)
            })
            .collect();
        let caps = CodecCapability { ladders: self.ladders.clone() };
        (SdpAnswer { client: self.client, accepted }, caps)
    }
}

impl SdpAnswer {
    /// Serialize the answer, with `a=ssrc:<id> layer:<kind>/<res>` lines.
    pub fn to_sdp(&self) -> String {
        let mut out = String::new();
        out.push_str("v=0\r\n");
        out.push_str("o=conference 0 0 IN IP4 0.0.0.0\r\n");
        out.push_str("s=gso-simulcast\r\n");
        out.push_str("t=0 0\r\n");
        out.push_str("m=video 9 UDP/RTP/AVPF 96\r\n");
        for (kind, _ladder, ssrcs) in &self.accepted {
            for (res, ssrc) in ssrcs {
                out.push_str(&format!(
                    "a=ssrc:{} layer:{}/{}\r\n",
                    ssrc.0,
                    kind_token(*kind),
                    res.0
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::ladders;

    fn offer() -> SdpOffer {
        SdpOffer {
            client: ClientId(7),
            codec: "H264".into(),
            ladders: vec![
                (StreamKind::Video, ladders::paper_table1()),
                (StreamKind::Screen, ladders::coarse3()),
            ],
        }
    }

    #[test]
    fn offer_roundtrips_through_text() {
        let o = offer();
        let text = o.to_sdp();
        let back = SdpOffer::parse(&text).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn negotiation_assigns_one_ssrc_per_layer() {
        let (answer, caps) = offer().negotiate();
        assert_eq!(caps.ladders.len(), 2);
        let video = answer.accepted.iter().find(|(k, _, _)| *k == StreamKind::Video).unwrap();
        // paper ladder has 3 resolutions → 3 SSRCs, all distinct.
        assert_eq!(video.2.len(), 3);
        let mut ssrcs: Vec<u32> = video.2.iter().map(|(_, s)| s.0).collect();
        ssrcs.sort_unstable();
        ssrcs.dedup();
        assert_eq!(ssrcs.len(), 3);
        // SSRCs decode back to the right layer.
        for (res, ssrc) in &video.2 {
            assert_eq!(gso_rtp::decode_ssrc(*ssrc), Some((ClientId(7), StreamKind::Video, res.0)));
        }
    }

    #[test]
    fn answer_text_lists_layers() {
        let (answer, _) = offer().negotiate();
        let text = answer.to_sdp();
        assert!(text.contains("a=ssrc:"));
        assert!(text.contains("layer:video/720"));
        assert!(text.contains("layer:screen/180"));
    }

    #[test]
    fn rejects_missing_mandatory_lines() {
        assert_eq!(
            SdpOffer::parse("o=client1 0 0 IN IP4 0.0.0.0\r\nm=video 9\r\n"),
            Err(SdpError::MissingLine("v="))
        );
        assert_eq!(
            SdpOffer::parse("v=0\r\no=client1 0 0 IN IP4 0.0.0.0\r\n"),
            Err(SdpError::MissingLine("m="))
        );
        assert_eq!(SdpOffer::parse("v=0\r\nm=video 9\r\n"), Err(SdpError::MissingLine("o=")));
    }

    #[test]
    fn rejects_malformed_simulcast_info() {
        let text = "v=0\r\no=client1 0 0 IN IP4 0.0.0.0\r\nm=video 9\r\na=simulcast-info:video 720:abc:1\r\n";
        assert!(matches!(SdpOffer::parse(text), Err(SdpError::Malformed(_))));
    }

    #[test]
    fn rejects_invalid_ladder_in_offer() {
        // Duplicate bitrates violate ladder invariants.
        let text = "v=0\r\no=client1 0 0 IN IP4 0.0.0.0\r\nm=video 9\r\na=simulcast-info:video 720:600:700;360:600:500\r\n";
        assert!(matches!(SdpOffer::parse(text), Err(SdpError::BadLadder(_))));
    }

    #[test]
    fn codec_defaults_when_absent() {
        let text = "v=0\r\no=client3 0 0 IN IP4 0.0.0.0\r\nm=video 9\r\n";
        let o = SdpOffer::parse(text).unwrap();
        assert_eq!(o.codec, "H264");
        assert_eq!(o.client, ClientId(3));
        assert!(o.ladders.is_empty());
    }
}
