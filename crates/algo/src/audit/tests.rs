//! Corruption tests: break a correct solution along one dimension and
//! assert the audit reports exactly the corresponding violation kind.

use super::*;
use crate::solver::{self, SolverConfig};
use crate::{ladders, ClientSpec, PublishPolicy, StreamSpec, Subscription};

fn spec_at(problem: &Problem, src: SourceId, res: Resolution, kbps: u64) -> StreamSpec {
    problem
        .source(src)
        .expect("invariant: test source exists")
        .ladder
        .specs()
        .iter()
        .copied()
        .find(|s| s.resolution == res && s.bitrate == Bitrate::from_kbps(kbps))
        .expect("invariant: test ladder has the requested rung")
}

/// Re-point one source's only stream at `spec`, updating every receiver's
/// entry and the QoE bookkeeping so that *only* the intended constraint is
/// violated afterwards.
fn set_stream(problem: &Problem, solution: &mut Solution, src: SourceId, spec: StreamSpec) {
    let policies = solution.publish.get_mut(&src).expect("invariant: source publishes");
    assert_eq!(policies.len(), 1, "corruption helper expects a single-stream policy");
    policies[0].resolution = spec.resolution;
    policies[0].bitrate = spec.bitrate;
    for streams in solution.received.values_mut() {
        for r in streams.iter_mut().filter(|r| r.source == src) {
            r.resolution = spec.resolution;
            r.bitrate = spec.bitrate;
        }
    }
    recompute_qoe(problem, solution);
}

/// Recompute every stream's QoE (and the total) from the problem data, so
/// corruptions stay consistent with the Eq. 1 accounting.
fn recompute_qoe(problem: &Problem, solution: &mut Solution) {
    let mut total = 0.0;
    for (&sub, streams) in &mut solution.received {
        for r in streams {
            let spec = problem
                .source(r.source)
                .and_then(|s| s.ladder.spec_for_bitrate(r.bitrate))
                .expect("invariant: corrupted bitrate still on the ladder");
            let s = problem
                .subscriptions_of(sub)
                .into_iter()
                .find(|s| s.source == r.source && s.tag == r.tag)
                .expect("invariant: received stream has a subscription");
            r.qoe = spec.qoe * s.qoe_boost + s.presence_bonus;
            total += r.qoe;
        }
    }
    solution.total_qoe = total;
}

fn one_publisher(uplink_kbps: u64, downlink_kbps: u64, cap: Resolution) -> Problem {
    let ladder = ladders::paper_table1();
    let p = ClientId(1);
    let w = ClientId(2);
    Problem::new(
        vec![
            ClientSpec::new(
                p,
                Bitrate::from_kbps(uplink_kbps),
                Bitrate::from_mbps(10),
                ladder.clone(),
            ),
            ClientSpec::new(w, Bitrate::from_mbps(10), Bitrate::from_kbps(downlink_kbps), ladder),
        ],
        vec![Subscription::new(w, SourceId::video(p), cap)],
    )
    .expect("invariant: fixture is a valid conference")
}

#[test]
fn corrupt_uplink_yields_uplink_exceeded() {
    // P's uplink admits 360P@500K at most; push the stream one rung up.
    let problem = one_publisher(500, 5_000, Resolution::R720);
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    let src = SourceId::video(ClientId(1));
    set_stream(&problem, &mut solution, src, spec_at(&problem, src, Resolution::R360, 600));

    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(
        matches!(
            violations[0],
            Violation::Constraint(ConstraintViolation::UplinkExceeded { client: ClientId(1), .. })
        ),
        "got {:?}",
        violations[0]
    );
    assert_eq!(violations[0].equation(), "Eq. 14");
}

#[test]
fn corrupt_downlink_yields_downlink_exceeded() {
    // W's downlink fits 360P@400K at most; deliver the 500K rung instead.
    let problem = one_publisher(5_000, 450, Resolution::R720);
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    let src = SourceId::video(ClientId(1));
    set_stream(&problem, &mut solution, src, spec_at(&problem, src, Resolution::R360, 500));

    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(
        matches!(
            violations[0],
            Violation::Constraint(ConstraintViolation::DownlinkExceeded {
                client: ClientId(2),
                ..
            })
        ),
        "got {:?}",
        violations[0]
    );
    assert_eq!(violations[0].equation(), "Eq. 1–4");
}

#[test]
fn corrupt_codec_yields_duplicate_resolution() {
    // Two watchers merged onto one 360P stream; split them into two
    // same-resolution streams — everything else stays consistent.
    let ladder = ladders::paper_table1();
    let p = ClientId(1);
    let w1 = ClientId(2);
    let w2 = ClientId(3);
    let problem = Problem::new(
        vec![
            ClientSpec::new(p, Bitrate::from_mbps(5), Bitrate::from_mbps(10), ladder.clone()),
            ClientSpec::new(w1, Bitrate::from_mbps(10), Bitrate::from_kbps(650), ladder.clone()),
            ClientSpec::new(w2, Bitrate::from_mbps(10), Bitrate::from_kbps(650), ladder),
        ],
        vec![
            Subscription::new(w1, SourceId::video(p), Resolution::R360),
            Subscription::new(w2, SourceId::video(p), Resolution::R360),
        ],
    )
    .expect("invariant: fixture is a valid conference");
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    let src = SourceId::video(p);

    let policies = solution.publish.get_mut(&src).expect("invariant: source publishes");
    assert_eq!(policies.len(), 1);
    let merged = policies[0].clone();
    assert_eq!(merged.audience.len(), 2);
    let lower = spec_at(&problem, src, Resolution::R360, 500);
    policies[0].audience = vec![(w1, 0)];
    policies.push(PublishPolicy {
        resolution: lower.resolution,
        bitrate: lower.bitrate,
        audience: vec![(w2, 0)],
    });
    for r in solution.received.get_mut(&w2).expect("invariant: w2 receives").iter_mut() {
        r.resolution = lower.resolution;
        r.bitrate = lower.bitrate;
    }
    recompute_qoe(&problem, &mut solution);

    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(
        matches!(
            violations[0],
            Violation::Constraint(ConstraintViolation::DuplicateResolution {
                resolution: Resolution::R360,
                ..
            })
        ),
        "got {:?}",
        violations[0]
    );
}

#[test]
fn corrupt_subscription_cap_yields_resolution_cap_exceeded() {
    // The subscription caps at 360P; deliver 720P anyway.
    let problem = one_publisher(5_000, 5_000, Resolution::R360);
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    let src = SourceId::video(ClientId(1));
    set_stream(&problem, &mut solution, src, spec_at(&problem, src, Resolution::R720, 1_000));

    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(
        matches!(
            violations[0],
            Violation::Constraint(ConstraintViolation::ResolutionCapExceeded {
                subscriber: ClientId(2),
                actual: Resolution::R720,
                budgeted: Resolution::R360,
                ..
            })
        ),
        "got {:?}",
        violations[0]
    );
}

#[test]
fn corrupt_merge_minimum_yields_merge_not_minimum() {
    // W1 requests 360P@600K, W2 requests 360P@500K: the merge must publish
    // 500K (Eq. 12). Quietly publishing 400K is invisible to the static
    // audit but caught by the trace-backed check.
    let ladder = ladders::paper_table1();
    let p = ClientId(1);
    let w1 = ClientId(2);
    let w2 = ClientId(3);
    let problem = Problem::new(
        vec![
            ClientSpec::new(p, Bitrate::from_mbps(5), Bitrate::from_mbps(10), ladder.clone()),
            ClientSpec::new(w1, Bitrate::from_mbps(10), Bitrate::from_kbps(650), ladder.clone()),
            ClientSpec::new(w2, Bitrate::from_mbps(10), Bitrate::from_kbps(550), ladder),
        ],
        vec![
            Subscription::new(w1, SourceId::video(p), Resolution::R360),
            Subscription::new(w2, SourceId::video(p), Resolution::R360),
        ],
    )
    .expect("invariant: fixture is a valid conference");
    let (mut solution, trace) = solver::solve_traced(&problem, &SolverConfig::default());
    let src = SourceId::video(p);
    assert_eq!(
        solution.policies(src),
        &[PublishPolicy {
            resolution: Resolution::R360,
            bitrate: Bitrate::from_kbps(500),
            audience: vec![(w1, 0), (w2, 0)],
        }]
    );
    set_stream(&problem, &mut solution, src, spec_at(&problem, src, Resolution::R360, 400));

    // The plain audit cannot see it…
    assert!(audit(&problem, &solution).is_empty());
    // …the traced audit can.
    let violations = audit_traced(&problem, &solution, &trace);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(
        matches!(
            violations[0],
            Violation::MergeNotMinimum {
                resolution: Resolution::R360,
                actual,
                budgeted,
                ..
            } if actual == Bitrate::from_kbps(400) && budgeted == Bitrate::from_kbps(500)
        ),
        "got {:?}",
        violations[0]
    );
    assert_eq!(violations[0].equation(), "Eq. 12");
}

#[test]
fn qoe_mismatch_detected() {
    let problem = one_publisher(5_000, 5_000, Resolution::R720);
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    solution.total_qoe += 10.0;
    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1);
    assert!(matches!(violations[0], Violation::QoeMismatch { .. }));
}

#[test]
fn empty_solution_falls_below_baseline() {
    let problem = one_publisher(5_000, 5_000, Resolution::R720);
    let solution = Solution::default();
    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1, "unexpected findings:\n{}", report(&violations));
    assert!(matches!(violations[0], Violation::QoeBelowBaseline { .. }));
}

#[test]
fn iteration_bound_is_enforced() {
    let problem = one_publisher(5_000, 5_000, Resolution::R720);
    let mut solution = solver::solve(&problem, &SolverConfig::default());
    solution.iterations = 100;
    let violations = audit(&problem, &solution);
    assert_eq!(violations.len(), 1);
    assert!(matches!(
        violations[0],
        Violation::IterationBoundExceeded { actual: 100, budgeted: 7 }
    ));
}

#[test]
fn baseline_respects_budgets() {
    // Publisher uplink below the smallest rung: the baseline publishes
    // nothing and scores zero.
    let problem = one_publisher(50, 5_000, Resolution::R720);
    assert_eq!(baseline_qoe(&problem), 0.0);
    // A feasible conference scores positive.
    let problem = one_publisher(5_000, 5_000, Resolution::R720);
    assert!(baseline_qoe(&problem) > 0.0);
}
