//! Property-based tests over the core invariants.
//!
//! * Any randomly generated conference yields a GSO solution that passes
//!   the full constraint validator (bandwidths, codec, subscriptions).
//! * The MCKP DP matches exhaustive enumeration on small random instances.
//! * RTP and RTCP wire formats round-trip arbitrary field values.
//! * The bandwidth hysteresis gate's output never exceeds the largest
//!   measurement seen and applies downgrades immediately.

use gso_simulcast::algo::{
    ladders, mckp, solver, ClientSpec, Problem, Resolution, SolverConfig, SourceId, Subscription,
};
use gso_simulcast::util::{Bitrate, ClientId, SimTime};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = Problem> {
    // 2–6 clients, random bandwidths, random subscription matrix with
    // random resolution caps.
    (2usize..=6).prop_flat_map(|n| {
        let bw = prop::collection::vec((50u64..6_000, 50u64..6_000), n);
        let subs = prop::collection::vec(prop::bool::ANY, n * n);
        let caps = prop::collection::vec(0usize..3, n * n);
        (Just(n), bw, subs, caps).prop_map(|(n, bw, subs, caps)| {
            let ladder = ladders::paper_table1();
            let clients: Vec<ClientSpec> = bw
                .iter()
                .enumerate()
                .map(|(i, &(up, down))| {
                    ClientSpec::new(
                        ClientId(i as u32 + 1),
                        Bitrate::from_kbps(up),
                        Bitrate::from_kbps(down),
                        ladder.clone(),
                    )
                })
                .collect();
            let resolutions = [Resolution::R180, Resolution::R360, Resolution::R720];
            let mut subscriptions = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && subs[i * n + j] {
                        subscriptions.push(Subscription::new(
                            ClientId(i as u32 + 1),
                            SourceId::video(ClientId(j as u32 + 1)),
                            resolutions[caps[i * n + j]],
                        ));
                    }
                }
            }
            Problem::new(clients, subscriptions).expect("generated problem is valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_output_always_satisfies_all_constraints(problem in arb_problem()) {
        let solution = solver::solve(&problem, &SolverConfig::default());
        prop_assert!(solution.validate(&problem).is_ok(),
            "violation: {:?}", solution.validate(&problem));
    }

    #[test]
    fn solver_never_exceeds_iteration_bound(problem in arb_problem()) {
        let solution = solver::solve(&problem, &SolverConfig::default());
        let bound = 1 + problem.sources().len() * 3; // 3 resolutions each
        prop_assert!(solution.iterations <= bound);
    }

    #[test]
    fn mckp_matches_exhaustive_enumeration(
        // 1–3 classes of 1–4 items, small weights so enumeration is cheap.
        classes in prop::collection::vec(
            prop::collection::vec((1u64..40, 0.0f64..100.0), 1..4), 1..4),
        capacity in 1u64..80,
    ) {
        let as_bitrates: Vec<Vec<(Bitrate, f64)>> = classes
            .iter()
            .map(|c| c.iter().map(|&(w, v)| (Bitrate::from_kbps(w * 10), v)).collect())
            .collect();
        let dp = mckp::solve_bitrates(
            &as_bitrates,
            Bitrate::from_kbps(capacity * 10),
            Bitrate::from_kbps(10),
        );
        // Exhaustive: iterate all choice vectors.
        let mut best = 0.0f64;
        let counts: Vec<usize> = classes.iter().map(|c| c.len() + 1).collect();
        let total: usize = counts.iter().product();
        for mut idx in 0..total {
            let mut weight = 0u64;
            let mut value = 0.0;
            for (c, &count) in classes.iter().zip(&counts) {
                let pick = idx % count;
                idx /= count;
                if pick > 0 {
                    weight += c[pick - 1].0;
                    value += c[pick - 1].1;
                }
            }
            if weight <= capacity && value > best {
                best = value;
            }
        }
        prop_assert!((dp.value - best).abs() < 1e-9,
            "dp {} vs exhaustive {}", dp.value, best);
    }

    #[test]
    fn rtp_packets_roundtrip(
        marker in prop::bool::ANY,
        pt in 0u8..128,
        seq in prop::num::u16::ANY,
        ts in prop::num::u32::ANY,
        ssrc in prop::num::u32::ANY,
        payload in prop::collection::vec(prop::num::u8::ANY, 0..256),
    ) {
        use gso_simulcast::rtp::RtpPacket;
        let p = RtpPacket {
            marker,
            payload_type: pt,
            sequence: seq,
            timestamp: ts,
            ssrc: gso_simulcast::util::Ssrc(ssrc),
            payload: bytes::Bytes::from(payload),
        };
        let back = RtpPacket::parse(p.serialize()).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn tmmbr_entries_roundtrip_conservatively(
        ssrc in prop::num::u32::ANY,
        kbps in 0u64..1_000_000,
        overhead in 0u16..512,
    ) {
        use gso_simulcast::rtp::{RtcpPacket, GsoTmmbr, TmmbrEntry};
        let entry = TmmbrEntry {
            ssrc: gso_simulcast::util::Ssrc(ssrc),
            bitrate: Bitrate::from_kbps(kbps),
            overhead,
        };
        let msg = RtcpPacket::GsoTmmbr(GsoTmmbr {
            sender_ssrc: gso_simulcast::util::Ssrc(1),
            epoch: 0,
            request_seq: 1,
            entries: vec![entry],
        });
        let parsed = RtcpPacket::parse_compound(msg.serialize()).unwrap();
        let RtcpPacket::GsoTmmbr(back) = &parsed[0] else { panic!() };
        // Mantissa truncation is conservative: never report more than asked.
        prop_assert!(back.entries[0].bitrate <= entry.bitrate);
        // With a 17-bit mantissa the post-shift mantissa is ≥ 2^16, so the
        // truncation error is below bitrate / 2^16.
        let err = (entry.bitrate.as_bps() - back.entries[0].bitrate.as_bps()) as f64;
        prop_assert!(err <= entry.bitrate.as_bps() as f64 / f64::from(1 << 16) + 1.0);
        prop_assert_eq!(back.entries[0].overhead, overhead & 0x1ff);
    }

    #[test]
    fn hysteresis_gate_is_bounded_and_downgrades_fast(
        measurements in prop::collection::vec(50u64..5_000, 1..40),
    ) {
        use gso_simulcast::control::BandwidthHysteresis;
        let mut gate = BandwidthHysteresis::new();
        let max_seen = *measurements.iter().max().unwrap();
        let mut prev: Option<Bitrate> = None;
        for (i, &kbps) in measurements.iter().enumerate() {
            let m = Bitrate::from_kbps(kbps);
            let out = gate.filter(0u32, SimTime::from_secs(i as u64), m);
            // Never invents bandwidth beyond the largest measurement.
            prop_assert!(out <= Bitrate::from_kbps(max_seen));
            match prev {
                // First sample passes through.
                None => prop_assert_eq!(out, m),
                // Downgrades apply immediately…
                Some(p) if m < p => prop_assert_eq!(out, m),
                // …upgrades may be gated, but never above the measurement.
                Some(p) => {
                    prop_assert!(out >= p);
                    prop_assert!(out <= m.max(p));
                }
            }
            prev = Some(out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The exact optimum never loses to the heuristic, and the heuristic
    /// stays near-optimal (Fig. 6a/6b's optimality ≈ 1) on small random
    /// instances.
    #[test]
    fn brute_force_dominates_gso_but_not_by_much(
        bw in prop::collection::vec((200u64..3_000, 200u64..3_000), 2..4),
    ) {
        use gso_simulcast::algo::brute;
        let ladder = ladders::fine(4);
        let n = bw.len();
        let clients: Vec<ClientSpec> = bw
            .iter()
            .enumerate()
            .map(|(i, &(up, down))| {
                ClientSpec::new(
                    ClientId(i as u32 + 1),
                    Bitrate::from_kbps(up),
                    Bitrate::from_kbps(down),
                    ladder.clone(),
                )
            })
            .collect();
        let mut subs = Vec::new();
        for i in 1..=n as u32 {
            for j in 1..=n as u32 {
                if i != j {
                    subs.push(Subscription::new(
                        ClientId(i),
                        SourceId::video(ClientId(j)),
                        Resolution::R720,
                    ));
                }
            }
        }
        let problem = Problem::new(clients, subs).unwrap();
        let cfg = SolverConfig::default();
        let gso = solver::solve(&problem, &cfg);
        let exact = brute::solve_brute(&problem, &cfg, Some(500_000));
        prop_assume!(exact.exact);
        exact.solution.validate(&problem).unwrap();
        prop_assert!(exact.solution.total_qoe >= gso.total_qoe - 1e-6);
        if exact.solution.total_qoe > 0.0 {
            let ratio = gso.total_qoe / exact.solution.total_qoe;
            prop_assert!(ratio > 0.8, "optimality {ratio}");
        }
    }

    /// The control-channel parser never panics and never mis-accepts
    /// arbitrary bytes as RTP/RTCP (magic byte discipline). The generator
    /// forces the magic prefix and a valid tag on most inputs so the deep
    /// field parsers actually get fuzzed.
    #[test]
    fn ctrl_parser_handles_arbitrary_bytes(
        tag in 0u8..12,
        body in prop::collection::vec(prop::num::u8::ANY, 0..120),
    ) {
        use gso_simulcast::sim::ctrl::CtrlMessage;
        let mut data = vec![0xCCu8, tag];
        data.extend_from_slice(&body);
        let parsed = CtrlMessage::parse(bytes::Bytes::from(data));
        // Whatever parses must re-serialize and re-parse identically.
        if let Some(msg) = parsed {
            let re = CtrlMessage::parse(msg.serialize());
            prop_assert_eq!(re, Some(msg));
        }
    }

    /// RTCP compound parsing never panics on arbitrary input.
    #[test]
    fn rtcp_parser_never_panics(
        data in prop::collection::vec(prop::num::u8::ANY, 0..200),
    ) {
        use gso_simulcast::rtp::RtcpPacket;
        let _ = RtcpPacket::parse_compound(bytes::Bytes::from(data));
    }

    /// RTP parsing never panics on arbitrary input.
    #[test]
    fn rtp_parser_never_panics(
        data in prop::collection::vec(prop::num::u8::ANY, 0..200),
    ) {
        use gso_simulcast::rtp::RtpPacket;
        let _ = RtpPacket::parse(bytes::Bytes::from(data));
    }
}
