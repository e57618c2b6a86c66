//! Property test for the §7 fallback builder: for *arbitrary* problems —
//! ragged ladders, tiny downlinks, resolution caps, watch-only clients,
//! boosts and tagged virtual publishers — `fallback_solution` must always
//! produce an auditor-clean configuration.
//!
//! The fallback is what the controller serves while everything else is on
//! fire, so it must never itself violate the constraint families: no
//! downlink budget overruns (Eq. 1–4), no codec violations (one stream per
//! resolution per source), and no subscription-relation violations
//! (streams only for real subscriptions, at most one per subscription,
//! resolution caps respected). Uplink budgets (Eq. 14) are the one family
//! the §7 fallback deliberately ignores — the paper's single-stream
//! degradation keeps publishers sending their smallest stream even when an
//! (possibly stale) uplink estimate says otherwise — so `UplinkExceeded`
//! findings are the only ones tolerated here.

use gso_algo::audit::report;
use gso_algo::{
    ClientSpec, ConstraintViolation, Ladder, Problem, Resolution, StreamSpec, Subscription,
};
use gso_control::failure::fallback_solution;
use gso_util::{Bitrate, ClientId};
use proptest::prelude::*;

const LINES: [u16; 4] = [180, 360, 720, 1080];

/// Arbitrary valid ladders: 1–6 rungs at random resolutions with strictly
/// increasing bitrates. QoE is tied to the bitrate so the per-resolution
/// monotonicity rule holds by construction.
fn arb_ladder() -> impl Strategy<Value = Ladder> {
    let rung = ((0usize..LINES.len()).prop_map(|i| LINES[i]), 50u64..4_000);
    prop::collection::vec(rung, 1..=6).prop_map(|rungs| {
        let mut specs: Vec<StreamSpec> = Vec::new();
        let mut kbps_used = std::collections::BTreeSet::new();
        for (lines, kbps) in rungs {
            if !kbps_used.insert(kbps) {
                continue; // ladder bitrates must be unique
            }
            specs.push(StreamSpec::new(
                Resolution(lines),
                Bitrate::from_kbps(kbps),
                kbps as f64, // strictly increasing with bitrate
            ));
        }
        Ladder::new(specs).expect("constructed ladder is valid")
    })
}

/// Arbitrary problems: 1–5 clients (some watch-only), bandwidths from
/// starved to comfortable, subscriptions with random caps, boosts and
/// tags.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (1usize..=5).prop_flat_map(|n| {
        let client = (arb_ladder(), 50u64..6_000, 50u64..6_000, prop::bool::ANY);
        let clients = prop::collection::vec(client, n);
        let sub = (0..n, 0..n, (0usize..LINES.len()).prop_map(|i| LINES[i]), 0u8..2, 1.0f64..3.0);
        let subs = prop::collection::vec(sub, 0..=n * 2);
        (clients, subs).prop_map(|(clients, subs)| {
            let specs: Vec<ClientSpec> = clients
                .iter()
                .enumerate()
                .map(|(i, (ladder, up, down, watch_only))| {
                    let mut c = ClientSpec::new(
                        ClientId(i as u32 + 1),
                        Bitrate::from_kbps(*up),
                        Bitrate::from_kbps(*down),
                        ladder.clone(),
                    );
                    if *watch_only {
                        c.sources.clear();
                    }
                    c
                })
                .collect();
            let mut seen = std::collections::BTreeSet::new();
            let mut subscriptions = Vec::new();
            for (i, j, cap, tag, boost) in subs {
                if i == j {
                    continue; // no self-subscriptions
                }
                let (sub_id, src_id) = (ClientId(i as u32 + 1), ClientId(j as u32 + 1));
                let Some(source) = specs[j].sources.first().map(|s| s.id) else { continue };
                if !seen.insert((sub_id, src_id, tag)) {
                    continue; // no duplicate (subscriber, source, tag)
                }
                subscriptions.push(
                    Subscription::new(sub_id, source, Resolution(cap))
                        .with_boost(boost)
                        .with_tag(tag),
                );
            }
            Problem::new(specs, subscriptions).expect("generated problem is valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fallback_solution_is_always_auditor_clean(problem in arb_problem()) {
        let solution = fallback_solution(&problem);
        let mut findings = solution.violations(&problem);
        findings.retain(|v| !matches!(v, ConstraintViolation::UplinkExceeded { .. }));
        prop_assert!(
            findings.is_empty(),
            "fallback configuration violates constraints:\n{}",
            report(&findings)
        );
        // The solution's own invariant checker agrees on the receive side.
        for c in problem.clients() {
            let rate: u64 = solution
                .received
                .get(&c.id)
                .map_or(0, |rs| rs.iter().map(|r| r.bitrate.as_bps()).sum());
            prop_assert!(
                rate <= c.downlink.as_bps(),
                "client {} receives {rate} bps over its {} downlink",
                c.id,
                c.downlink
            );
        }
    }
}
