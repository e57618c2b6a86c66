//! Control-channel wire format (accessing node ↔ conference node).
//!
//! Client-facing control rides in-band as RTCP APP messages (`gso-rtp`).
//! Between infrastructure nodes the paper uses internal RPC; here that
//! channel is a simple length-checked binary format carried over the same
//! packet simulator, so control traffic experiences the (clean, fast)
//! backbone links rather than being teleported.
//!
//! Control packets start with the magic byte `0xCC`, which cannot collide
//! with RTP/RTCP (whose first byte always has version bits `10`, i.e.
//! `0x80..=0xBF`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gso_algo::{Ladder, Resolution, SourceId, StreamSpec};
use gso_control::{ForwardingRule, SubscribeIntent};
use gso_util::{Bitrate, ClientId, Ssrc, StreamKind};

/// Magic first byte of every control packet.
pub const CTRL_MAGIC: u8 = 0xCC;

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMessage {
    /// Client left.
    Leave {
        /// The departing client.
        client: ClientId,
    },
    /// Client's subscription intents (full replacement).
    Subscribe {
        /// The subscribing client.
        client: ClientId,
        /// The full new set of intents.
        intents: Vec<SubscribeIntent>,
    },
    /// Uplink bandwidth report relayed from a client's SEMB.
    UplinkReport {
        /// The reporting client.
        client: ClientId,
        /// Measured uplink bandwidth.
        bitrate: Bitrate,
    },
    /// Downlink bandwidth measured at the accessing node for a client.
    DownlinkReport {
        /// The client whose downlink was measured.
        client: ClientId,
        /// Measured downlink bandwidth.
        bitrate: Bitrate,
    },
    /// Speaker change (None clears).
    Speaker {
        /// The new active speaker.
        client: Option<ClientId>,
    },
    /// CN → AN: forward this serialized RTCP compound to a client in-band.
    ConfigPush {
        /// Controller epoch of the sender (for split-brain fencing).
        epoch: u32,
        /// The destination client.
        client: ClientId,
        /// The serialized RTCP compound.
        rtcp: Bytes,
    },
    /// AN → CN: a client's GTBN acknowledgement (serialized RTCP).
    AckRelay {
        /// The acknowledging client.
        client: ClientId,
        /// The serialized RTCP compound.
        rtcp: Bytes,
    },
    /// CN → AN: the current forwarding rules (full replacement).
    Rules {
        /// Controller epoch of the sender (for split-brain fencing).
        epoch: u32,
        /// The full new rule set.
        rules: Vec<ForwardingRule>,
    },
    /// Subscriber needs a keyframe from a publisher source.
    KeyframeRequest {
        /// The source that must produce the keyframe.
        source: SourceId,
    },
    /// Client → CN: an SDP offer with simulcastInfo (§4.2), as text.
    SdpOffer {
        /// The offering client.
        client: ClientId,
        /// The offer text.
        sdp: String,
    },
    /// CN → client: the SDP answer with per-layer SSRC assignments.
    SdpAnswer {
        /// The answered client.
        client: ClientId,
        /// The answer text.
        sdp: String,
    },
    /// CN → AN: a restarted controller asks for the node's view of its
    /// attached clients (§7: recovery without interruption). Carries the
    /// sender's epoch so accessing nodes re-home to a promoted standby
    /// (and fence a stale one).
    ResyncRequest {
        /// Controller epoch of the sender.
        epoch: u32,
    },
    /// AN → CN: the node's cached client state, from which a restarted
    /// controller reconstructs its global picture.
    ResyncState {
        /// One snapshot per locally-attached client.
        clients: Vec<ClientSnapshot>,
    },
    /// Active shard → standby: "I am alive at (epoch, seq)". Renews the
    /// standby's lease on the shard.
    ShardHeartbeat {
        /// Controller epoch of the sender.
        epoch: u32,
        /// Monotone heartbeat sequence within the epoch.
        seq: u64,
    },
    /// AN → CN: "your epoch is stale; a controller at `epoch` owns this
    /// conference now". The receiving zombie shard steps down instead of
    /// fighting the fence.
    Fence {
        /// The live epoch the accessing node is following.
        epoch: u32,
    },
}

pub use gso_control::ClientSnapshot;

fn put_kind(b: &mut BytesMut, k: StreamKind) {
    b.put_u8(match k {
        StreamKind::Audio => 0,
        StreamKind::Video => 1,
        StreamKind::Screen => 2,
    });
}

fn get_kind(b: &mut impl Buf) -> Option<StreamKind> {
    match b.get_u8() {
        0 => Some(StreamKind::Audio),
        1 => Some(StreamKind::Video),
        2 => Some(StreamKind::Screen),
        _ => None,
    }
}

/// Encode one [`ClientSnapshot`] of a `ResyncState`.
fn put_snapshot(b: &mut BytesMut, c: &ClientSnapshot) {
    b.put_u32(c.client.0);
    b.put_u8(c.ladders.len() as u8);
    for (kind, ladder) in &c.ladders {
        put_kind(b, *kind);
        b.put_u16(ladder.len() as u16);
        for s in ladder.specs() {
            b.put_u16(s.resolution.0);
            b.put_u64(s.bitrate.as_bps());
            b.put_f64(s.qoe);
        }
    }
    b.put_u16(c.intents.len() as u16);
    for i in &c.intents {
        b.put_u32(i.source.client.0);
        put_kind(b, i.source.kind);
        b.put_u16(i.max_resolution.0);
        b.put_u8(i.tag);
    }
    b.put_u64(c.uplink.as_bps());
    b.put_u64(c.downlink.as_bps());
}

/// Decode one [`ClientSnapshot`]; `None` on truncation or invalid data.
fn get_snapshot(b: &mut Bytes) -> Option<ClientSnapshot> {
    fn need(b: &impl Buf, n: usize) -> Option<()> {
        (b.remaining() >= n).then_some(())
    }
    need(b, 5)?;
    let client = ClientId(b.get_u32());
    let nl = b.get_u8() as usize;
    let mut ladders = Vec::with_capacity(nl);
    for _ in 0..nl {
        need(b, 3)?;
        let kind = get_kind(b)?;
        let m = b.get_u16() as usize;
        need(b, m.checked_mul(18)?)?;
        let mut specs = Vec::with_capacity(m);
        for _ in 0..m {
            let res = Resolution(b.get_u16());
            let rate = Bitrate::from_bps(b.get_u64());
            let qoe = b.get_f64();
            specs.push(StreamSpec::new(res, rate, qoe));
        }
        ladders.push((kind, Ladder::new(specs).ok()?));
    }
    need(b, 2)?;
    let ni = b.get_u16() as usize;
    need(b, ni.checked_mul(8)?)?;
    let mut intents = Vec::with_capacity(ni);
    for _ in 0..ni {
        let pub_client = ClientId(b.get_u32());
        let kind = get_kind(b)?;
        let max_resolution = Resolution(b.get_u16());
        let tag = b.get_u8();
        intents.push(SubscribeIntent {
            source: SourceId { client: pub_client, kind },
            max_resolution,
            tag,
        });
    }
    need(b, 16)?;
    let uplink = Bitrate::from_bps(b.get_u64());
    let downlink = Bitrate::from_bps(b.get_u64());
    Some(ClientSnapshot { client, ladders, intents, uplink, downlink })
}

impl CtrlMessage {
    /// Serialize with the leading magic byte.
    pub fn serialize(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u8(CTRL_MAGIC);
        match self {
            CtrlMessage::Leave { client } => {
                b.put_u8(2);
                b.put_u32(client.0);
            }
            CtrlMessage::Subscribe { client, intents } => {
                b.put_u8(3);
                b.put_u32(client.0);
                b.put_u16(intents.len() as u16);
                for i in intents {
                    b.put_u32(i.source.client.0);
                    put_kind(&mut b, i.source.kind);
                    b.put_u16(i.max_resolution.0);
                    b.put_u8(i.tag);
                }
            }
            CtrlMessage::UplinkReport { client, bitrate } => {
                b.put_u8(4);
                b.put_u32(client.0);
                b.put_u64(bitrate.as_bps());
            }
            CtrlMessage::DownlinkReport { client, bitrate } => {
                b.put_u8(5);
                b.put_u32(client.0);
                b.put_u64(bitrate.as_bps());
            }
            CtrlMessage::Speaker { client } => {
                b.put_u8(6);
                b.put_u32(client.map_or(0, |c| c.0 + 1));
            }
            CtrlMessage::ConfigPush { epoch, client, rtcp } => {
                b.put_u8(7);
                b.put_u32(*epoch);
                b.put_u32(client.0);
                b.put_u32(rtcp.len() as u32);
                b.extend_from_slice(rtcp);
            }
            CtrlMessage::AckRelay { client, rtcp } => {
                b.put_u8(8);
                b.put_u32(client.0);
                b.put_u32(rtcp.len() as u32);
                b.extend_from_slice(rtcp);
            }
            CtrlMessage::Rules { epoch, rules } => {
                b.put_u8(9);
                b.put_u32(*epoch);
                b.put_u32(rules.len() as u32);
                for r in rules {
                    b.put_u32(r.subscriber.0);
                    b.put_u32(r.source.client.0);
                    put_kind(&mut b, r.source.kind);
                    b.put_u8(r.tag);
                    b.put_u32(r.ssrc.0);
                    b.put_u64(r.bitrate.as_bps());
                }
            }
            CtrlMessage::KeyframeRequest { source } => {
                b.put_u8(10);
                b.put_u32(source.client.0);
                put_kind(&mut b, source.kind);
            }
            CtrlMessage::SdpOffer { client, sdp } => {
                b.put_u8(11);
                b.put_u32(client.0);
                b.put_u32(sdp.len() as u32);
                b.extend_from_slice(sdp.as_bytes());
            }
            CtrlMessage::SdpAnswer { client, sdp } => {
                b.put_u8(12);
                b.put_u32(client.0);
                b.put_u32(sdp.len() as u32);
                b.extend_from_slice(sdp.as_bytes());
            }
            CtrlMessage::ResyncRequest { epoch } => {
                b.put_u8(13);
                b.put_u32(*epoch);
            }
            CtrlMessage::ResyncState { clients } => {
                b.put_u8(14);
                b.put_u16(clients.len() as u16);
                for c in clients {
                    put_snapshot(&mut b, c);
                }
            }
            CtrlMessage::ShardHeartbeat { epoch, seq } => {
                b.put_u8(15);
                b.put_u32(*epoch);
                b.put_u64(*seq);
            }
            CtrlMessage::Fence { epoch } => {
                b.put_u8(18);
                b.put_u32(*epoch);
            }
        }
        b.freeze()
    }

    /// Parse; `None` for anything malformed, truncated or non-control.
    pub fn parse(mut data: Bytes) -> Option<CtrlMessage> {
        if data.len() < 2 || data.get_u8() != CTRL_MAGIC {
            return None;
        }
        let tag = data.get_u8();
        let b = &mut data;
        // Truncation guard: every fixed-size read is preceded by a check so
        // arbitrary bytes can never panic the parser.
        fn need(b: &impl Buf, n: usize) -> Option<()> {
            (b.remaining() >= n).then_some(())
        }
        // Retired tags stay unassigned: 1 (a join carrying ladders; clients
        // join with `SdpOffer`) and 16–17 (standby replication).
        Some(match tag {
            2 => {
                need(b, 4)?;
                CtrlMessage::Leave { client: ClientId(b.get_u32()) }
            }
            3 => {
                need(b, 6)?;
                let client = ClientId(b.get_u32());
                let n = b.get_u16() as usize;
                need(b, n.checked_mul(8)?)?;
                let mut intents = Vec::with_capacity(n);
                for _ in 0..n {
                    let pub_client = ClientId(b.get_u32());
                    let kind = get_kind(b)?;
                    let max_resolution = Resolution(b.get_u16());
                    let tag = b.get_u8();
                    intents.push(SubscribeIntent {
                        source: SourceId { client: pub_client, kind },
                        max_resolution,
                        tag,
                    });
                }
                CtrlMessage::Subscribe { client, intents }
            }
            4 | 5 => {
                need(b, 12)?;
                let client = ClientId(b.get_u32());
                let bitrate = Bitrate::from_bps(b.get_u64());
                if tag == 4 {
                    CtrlMessage::UplinkReport { client, bitrate }
                } else {
                    CtrlMessage::DownlinkReport { client, bitrate }
                }
            }
            6 => {
                need(b, 4)?;
                let raw = b.get_u32();
                CtrlMessage::Speaker { client: (raw > 0).then(|| ClientId(raw - 1)) }
            }
            7 => {
                need(b, 12)?;
                let epoch = b.get_u32();
                let client = ClientId(b.get_u32());
                let len = b.get_u32() as usize;
                need(b, len)?;
                let rtcp = b.copy_to_bytes(len);
                CtrlMessage::ConfigPush { epoch, client, rtcp }
            }
            8 => {
                need(b, 8)?;
                let client = ClientId(b.get_u32());
                let len = b.get_u32() as usize;
                need(b, len)?;
                let rtcp = b.copy_to_bytes(len);
                CtrlMessage::AckRelay { client, rtcp }
            }
            9 => {
                need(b, 8)?;
                let epoch = b.get_u32();
                let n = b.get_u32() as usize;
                need(b, n.checked_mul(22)?)?;
                let mut rules = Vec::with_capacity(n);
                for _ in 0..n {
                    let subscriber = ClientId(b.get_u32());
                    let pub_client = ClientId(b.get_u32());
                    let kind = get_kind(b)?;
                    let tag = b.get_u8();
                    let ssrc = Ssrc(b.get_u32());
                    let bitrate = Bitrate::from_bps(b.get_u64());
                    rules.push(ForwardingRule {
                        subscriber,
                        source: SourceId { client: pub_client, kind },
                        tag,
                        ssrc,
                        bitrate,
                    });
                }
                CtrlMessage::Rules { epoch, rules }
            }
            10 => {
                need(b, 5)?;
                let client = ClientId(b.get_u32());
                let kind = get_kind(b)?;
                CtrlMessage::KeyframeRequest { source: SourceId { client, kind } }
            }
            11 | 12 => {
                need(b, 8)?;
                let client = ClientId(b.get_u32());
                let len = b.get_u32() as usize;
                need(b, len)?;
                let sdp = String::from_utf8(b.copy_to_bytes(len).to_vec()).ok()?;
                if tag == 11 {
                    CtrlMessage::SdpOffer { client, sdp }
                } else {
                    CtrlMessage::SdpAnswer { client, sdp }
                }
            }
            13 => {
                need(b, 4)?;
                CtrlMessage::ResyncRequest { epoch: b.get_u32() }
            }
            14 => {
                need(b, 2)?;
                let n = b.get_u16() as usize;
                let mut clients = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    clients.push(get_snapshot(b)?);
                }
                CtrlMessage::ResyncState { clients }
            }
            15 => {
                need(b, 12)?;
                let epoch = b.get_u32();
                let seq = b.get_u64();
                CtrlMessage::ShardHeartbeat { epoch, seq }
            }
            18 => {
                need(b, 4)?;
                CtrlMessage::Fence { epoch: b.get_u32() }
            }
            _ => return None,
        })
    }

    /// Is a raw packet a control packet (vs RTP/RTCP)?
    pub fn is_ctrl(data: &[u8]) -> bool {
        data.first() == Some(&CTRL_MAGIC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::ladders;

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            CtrlMessage::Leave { client: ClientId(3) },
            CtrlMessage::Subscribe {
                client: ClientId(2),
                intents: vec![SubscribeIntent {
                    source: SourceId::video(ClientId(1)),
                    max_resolution: Resolution::R360,
                    tag: 1,
                }],
            },
            CtrlMessage::UplinkReport { client: ClientId(1), bitrate: Bitrate::from_kbps(1_234) },
            CtrlMessage::DownlinkReport { client: ClientId(1), bitrate: Bitrate::from_kbps(999) },
            CtrlMessage::Speaker { client: Some(ClientId(0)) },
            CtrlMessage::Speaker { client: None },
            CtrlMessage::ConfigPush {
                epoch: 3,
                client: ClientId(4),
                rtcp: Bytes::from_static(b"abc"),
            },
            CtrlMessage::AckRelay { client: ClientId(4), rtcp: Bytes::from_static(b"xyz0") },
            CtrlMessage::Rules {
                epoch: u32::MAX,
                rules: vec![ForwardingRule {
                    subscriber: ClientId(2),
                    source: SourceId::video(ClientId(1)),
                    tag: 0,
                    ssrc: Ssrc(0x10001),
                    bitrate: Bitrate::from_kbps(800),
                }],
            },
            CtrlMessage::KeyframeRequest { source: SourceId::screen(ClientId(5)) },
            CtrlMessage::SdpOffer { client: ClientId(6), sdp: "v=0\r\n".into() },
            CtrlMessage::SdpAnswer { client: ClientId(6), sdp: "v=0\r\na=ssrc:1\r\n".into() },
            CtrlMessage::ResyncRequest { epoch: 2 },
            CtrlMessage::ResyncState {
                clients: vec![
                    ClientSnapshot {
                        client: ClientId(1),
                        ladders: vec![(StreamKind::Video, ladders::paper_table1())],
                        intents: vec![SubscribeIntent {
                            source: SourceId::video(ClientId(2)),
                            max_resolution: Resolution::R720,
                            tag: 0,
                        }],
                        uplink: Bitrate::from_kbps(3_000),
                        downlink: Bitrate::from_kbps(2_500),
                    },
                    ClientSnapshot {
                        client: ClientId(2),
                        ladders: vec![],
                        intents: vec![],
                        uplink: Bitrate::ZERO,
                        downlink: Bitrate::ZERO,
                    },
                ],
            },
            CtrlMessage::ShardHeartbeat { epoch: 9, seq: u64::MAX - 1 },
            CtrlMessage::Fence { epoch: 5 },
        ];
        for m in msgs {
            let wire = m.serialize();
            assert!(CtrlMessage::is_ctrl(&wire));
            let back = CtrlMessage::parse(wire).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn rejects_rtp_and_garbage() {
        assert!(CtrlMessage::parse(Bytes::from_static(&[0x80, 0x60, 0, 0])).is_none());
        assert!(CtrlMessage::parse(Bytes::new()).is_none());
        assert!(CtrlMessage::parse(Bytes::from_static(&[0xCC, 99, 0, 0, 0, 0])).is_none());
        // Retired tags (the ladder-carrying join, the old standby
        // replication messages) stay unused.
        for tag in [1, 16, 17] {
            let wire = Bytes::copy_from_slice(&[0xCC, tag, 0, 0, 0, 0, 0, 0, 0, 0]);
            assert!(CtrlMessage::parse(wire).is_none(), "tag {tag}");
        }
        assert!(!CtrlMessage::is_ctrl(&[0x80]));
    }

    #[test]
    fn truncated_embedded_rtcp_rejected() {
        let m = CtrlMessage::ConfigPush {
            epoch: 0,
            client: ClientId(1),
            rtcp: Bytes::from_static(b"hello"),
        };
        let wire = m.serialize();
        let cut = wire.slice(0..wire.len() - 2);
        assert!(CtrlMessage::parse(cut).is_none());
    }

    #[test]
    fn truncated_resync_state_rejected() {
        let m = CtrlMessage::ResyncState {
            clients: vec![
                ClientSnapshot {
                    client: ClientId(3),
                    ladders: vec![
                        (StreamKind::Video, ladders::paper_table1()),
                        (StreamKind::Screen, ladders::coarse3()),
                    ],
                    intents: vec![SubscribeIntent {
                        source: SourceId::video(ClientId(4)),
                        max_resolution: Resolution::R720,
                        tag: 1,
                    }],
                    uplink: Bitrate::from_kbps(700),
                    downlink: Bitrate::from_kbps(1_900),
                },
                ClientSnapshot {
                    client: ClientId(4),
                    ladders: vec![(StreamKind::Video, ladders::coarse3())],
                    intents: vec![
                        SubscribeIntent {
                            source: SourceId::video(ClientId(3)),
                            max_resolution: Resolution::R360,
                            tag: 0,
                        },
                        SubscribeIntent {
                            source: SourceId::screen(ClientId(3)),
                            max_resolution: Resolution::R1080,
                            tag: 2,
                        },
                    ],
                    uplink: Bitrate::from_kbps(2_500),
                    downlink: Bitrate::from_kbps(3_000),
                },
            ],
        };
        let wire = m.serialize();
        assert_eq!(CtrlMessage::parse(wire.clone()), Some(m));
        for cut in 2..wire.len() {
            assert!(CtrlMessage::parse(wire.slice(0..cut)).is_none(), "cut at {cut}");
        }
    }
}
