//! Cross-check the Knapsack–Merge–Reduction solver against the exact
//! branch-and-bound baseline on small random instances, with the auditor
//! passing judgement on both.
//!
//! Instances are kept tiny (≤ 3 clients, ≤ 2 publisher sources, ≤ 3-rung
//! ladders) so the exhaustive search is instant and exact.

use gso_algo::audit::{audit, audit_traced, report};
use gso_algo::{
    brute, ladders, solver, ClientSpec, Ladder, Problem, Resolution, SolverConfig, SourceId,
    Subscription,
};
use gso_util::{Bitrate, ClientId};
use proptest::prelude::*;

/// Small monotone ladders with at most three rungs.
fn arb_ladder() -> impl Strategy<Value = Ladder> {
    (0usize..3).prop_map(|pick| match pick {
        0 => ladders::coarse3(),
        1 => ladders::uniform(&[Resolution::R180, Resolution::R360], 1),
        _ => ladders::uniform(&[Resolution::R180], 2),
    })
}

fn arb_problem() -> impl Strategy<Value = Problem> {
    (2usize..=3).prop_flat_map(|n| {
        let bw = prop::collection::vec((100u64..4_000, 100u64..4_000), n);
        let subs = prop::collection::vec(prop::bool::ANY, n * n);
        let caps = prop::collection::vec(0usize..3, n * n);
        let ladder = arb_ladder();
        (Just(n), bw, subs, caps, ladder).prop_map(|(n, bw, subs, caps, ladder)| {
            let resolutions = [Resolution::R180, Resolution::R360, Resolution::R720];
            let clients: Vec<ClientSpec> = bw
                .iter()
                .enumerate()
                .map(|(i, &(up, down))| {
                    let mut c = ClientSpec::new(
                        ClientId(i as u32 + 1),
                        Bitrate::from_kbps(up),
                        Bitrate::from_kbps(down),
                        ladder.clone(),
                    );
                    // At most two publisher sources: the third client (when
                    // present) only watches.
                    if i >= 2 {
                        c.sources.clear();
                    }
                    c
                })
                .collect();
            let mut subscriptions = Vec::new();
            for i in 0..n {
                for j in 0..n.min(2) {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gso_matches_exact_optimum_and_both_audit_clean(problem in arb_problem()) {
        let cfg = SolverConfig::default();

        let (gso, trace) = solver::solve_traced(&problem, &cfg);
        let findings = audit_traced(&problem, &gso, &trace);
        prop_assert!(
            findings.is_empty(),
            "GSO solution not auditor-clean:\n{}",
            report(&findings)
        );

        let exact = brute::solve_brute(&problem, &cfg, None);
        prop_assert!(exact.exact, "exhaustive search must complete on tiny instances");
        let findings = audit(&problem, &exact.solution);
        prop_assert!(
            findings.is_empty(),
            "brute-force solution not auditor-clean:\n{}",
            report(&findings)
        );

        // The exhaustive optimum can never be beaten…
        prop_assert!(
            gso.total_qoe <= exact.solution.total_qoe + 1e-6,
            "GSO ({}) above the exact optimum ({})",
            gso.total_qoe,
            exact.solution.total_qoe
        );
        // …and on these tiny instances GSO should attain it.
        prop_assert!(
            gso.total_qoe >= exact.solution.total_qoe - 1e-6,
            "GSO ({}) below the exact optimum ({})",
            gso.total_qoe,
            exact.solution.total_qoe
        );
    }
}
