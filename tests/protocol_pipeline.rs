//! Cross-crate protocol pipeline: controller decision → GTMB wire bytes →
//! parse at the client → encoder reconfiguration → GTBN acknowledgement →
//! executor bookkeeping — the full §4.3 feedback loop, without the network
//! simulator in between.

use gso_simulcast::algo::{
    ladders, solver, ClientSpec, Problem, Resolution, SourceId, Subscription,
};
use gso_simulcast::control::FeedbackExecutor;
use gso_simulcast::media::{LayerConfig, SimulcastEncoder};
use gso_simulcast::rtp::{ssrc_for, GsoTmmbn, RtcpPacket};
use gso_simulcast::util::{Bitrate, ClientId, DetRng, SimTime, StreamKind};
use std::collections::BTreeMap;

#[test]
fn solution_to_wire_to_encoder_roundtrip() {
    // 1. A two-party problem and its GSO solution.
    let ladder = ladders::paper_table1();
    let a = ClientId(1);
    let b = ClientId(2);
    let problem = Problem::new(
        vec![
            ClientSpec::new(a, Bitrate::from_mbps(5), Bitrate::from_mbps(5), ladder.clone()),
            ClientSpec::new(b, Bitrate::from_mbps(5), Bitrate::from_kbps(900), ladder.clone()),
        ],
        vec![Subscription::new(b, SourceId::video(a), Resolution::R720)],
    )
    .unwrap();
    let solution = solver::solve(&problem, &Default::default());

    // 2. The executor turns it into per-client GTMB messages.
    let mut executor = FeedbackExecutor::new(gso_simulcast::util::Ssrc(7));
    let mut layers = BTreeMap::new();
    layers.insert(SourceId::video(a), vec![180u16, 360, 720]);
    layers.insert(SourceId::video(b), vec![180u16, 360, 720]);
    let (configs, rules) = executor.execute(SimTime::ZERO, &solution, &layers);
    let (_, gtmb) = configs.iter().find(|(c, _)| *c == a).expect("A gets a config");

    // 3. Serialize to RTCP wire bytes and parse back.
    let wire = RtcpPacket::serialize_compound(&[RtcpPacket::GsoTmmbr(gtmb.clone())]);
    let parsed = RtcpPacket::parse_compound(wire).unwrap();
    let RtcpPacket::GsoTmmbr(received) = &parsed[0] else { panic!("expected GTMB") };
    assert_eq!(received.request_seq, gtmb.request_seq);

    // 4. A's encoder bank applies the configuration.
    let mut encoder = SimulcastEncoder::new(
        15.0,
        [180u16, 360, 720]
            .iter()
            .map(|&lines| LayerConfig {
                ssrc: ssrc_for(a, StreamKind::Video, lines),
                resolution_lines: lines,
                target: Bitrate::ZERO,
            })
            .collect(),
        DetRng::derive(1, "pipeline"),
    );
    for e in &received.entries {
        assert!(encoder.set_layer_rate(e.ssrc, e.bitrate), "unknown ssrc {}", e.ssrc);
    }
    // B's 900 Kbps downlink admits the 800 Kbps 360P stream; only that
    // layer is active.
    assert_eq!(
        encoder.layer_rate(ssrc_for(a, StreamKind::Video, 360)),
        Some(Bitrate::from_kbps(800))
    );
    assert_eq!(encoder.layer_rate(ssrc_for(a, StreamKind::Video, 720)), Some(Bitrate::ZERO));
    assert_eq!(encoder.total_target(), Bitrate::from_kbps(800));

    // 5. The forwarding rules target the same SSRC.
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].ssrc, ssrc_for(a, StreamKind::Video, 360));

    // 6. The GTBN acknowledgement clears the executor's retransmission state.
    assert!(executor.pending(a));
    let ack = GsoTmmbn {
        sender_ssrc: ssrc_for(a, StreamKind::Video, 0),
        epoch: received.epoch,
        request_seq: received.request_seq,
        entries: received.entries.clone(),
    };
    let ack_wire = RtcpPacket::serialize_compound(&[RtcpPacket::GsoTmmbn(ack)]);
    let ack_parsed = RtcpPacket::parse_compound(ack_wire).unwrap();
    let RtcpPacket::GsoTmmbn(ack) = &ack_parsed[0] else { panic!("expected GTBN") };
    executor.on_ack(a, ack);
    assert!(!executor.pending(a));
}

#[test]
fn semb_report_survives_the_wire_with_encoding_tolerance() {
    use gso_simulcast::rtp::Semb;
    // 3.7 Mbps does not fit an 18-bit mantissa exactly; the decoded value
    // must be within the documented relative error and never above the
    // original (conservative truncation).
    let original = Bitrate::from_bps(3_700_001);
    let semb = RtcpPacket::Semb(Semb {
        sender_ssrc: gso_simulcast::util::Ssrc(1),
        bitrate: original,
        ssrcs: vec![],
    });
    let parsed = RtcpPacket::parse_compound(semb.serialize()).unwrap();
    let RtcpPacket::Semb(back) = &parsed[0] else { panic!("expected SEMB") };
    assert!(back.bitrate <= original);
    let rel = (original.as_bps() - back.bitrate.as_bps()) as f64 / original.as_bps() as f64;
    assert!(rel < 1.0 / f64::from(1 << 18) + 1e-9, "relative error {rel}");
}
