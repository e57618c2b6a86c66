//! Fig. 6 — control algorithm performance vs. brute force.
//!
//! * Fig. 6a: vary the number of participants (2–8) at a fixed ladder;
//!   measure GSO and brute-force compute time (normalized) plus GSO's QoE
//!   optimality (GSO QoE / exact optimum QoE).
//! * Fig. 6b: vary the number of bitrate levels (2–8) at 3 participants.
//! * Fig. 6c: large meetings (up to 400 subscribers, 18 levels); GSO only —
//!   brute force is intractable there, exactly as in the paper.
//!
//! Instances are built with *tight uplinks and downlinks* so the exact
//! search cannot shortcut through an unconstrained optimum; the brute-force
//! solver is branch-and-bound (admissible bound + GSO warm start), so its
//! node count still explodes combinatorially with size, while GSO's DP time
//! stays flat.

use gso_algo::{
    brute, ladders, solver, ClientSpec, Problem, Resolution, SolverConfig, SourceId, Subscription,
};

use gso_util::{Bitrate, ClientId};
#[expect(
    clippy::disallowed_types,
    reason = "Fig. 6 measures host solve latency; wall-clock timing is the experiment's output, not simulation state"
)]
use std::time::Instant;

/// One row of the Fig. 6a/6b output.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// The swept value (participants or bitrate levels).
    pub x: usize,
    /// GSO solve time, seconds.
    pub gso_secs: f64,
    /// Naive exhaustive-search time, seconds. Extrapolated from the leaf
    /// count when running it would be impractical (`extrapolated`).
    pub brute_secs: f64,
    /// Search nodes the measured run visited.
    pub brute_nodes: u64,
    /// Naive leaf count (the exponential driver).
    pub leaves: f64,
    /// True if `brute_secs` was projected from leaf counts rather than run.
    pub extrapolated: bool,
    /// Whether the (B&B) exact search completed.
    pub exact: bool,
    /// QoE optimality: GSO / exact optimum (from the B&B search).
    pub optimality: f64,
}

/// One row of the Fig. 6c output.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// (publishers, subscribers, bitrate levels).
    pub shape: (usize, usize, usize),
    /// GSO solve time, seconds.
    pub gso_secs: f64,
    /// Solution QoE (sanity).
    pub qoe: f64,
}

/// A symmetric meeting with constrained links: every client publishes and
/// subscribes to everyone else.
pub fn symmetric_meeting(n: usize, ladder: gso_algo::Ladder) -> Problem {
    // Constrained budgets: the downlink cannot hold everyone at max, and
    // serving every resolution at once presses the uplink — enough to make
    // the exact search do real work without making the decomposition lossy.
    let uplink = Bitrate::from_kbps(1_600);
    let downlink = Bitrate::from_kbps(500 * n as u64);
    let clients: Vec<ClientSpec> = (1..=n as u32)
        .map(|i| ClientSpec::new(ClientId(i), uplink, downlink, ladder.clone()))
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
    Problem::new(clients, subs).expect("valid meeting")
}

fn time_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_types,
        reason = "host-time stopwatch for the Fig. 6 solve-latency benchmark; never feeds back into simulated behaviour"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Fig. 6a: participants 2–8.
pub fn fig6a(node_budget: Option<u64>) -> Vec<ComparisonRow> {
    let ladder = ladders::uniform(&[Resolution::R180, Resolution::R360, Resolution::R720], 2);
    (2..=8)
        .map(|n| {
            let problem = symmetric_meeting(n, ladder.clone());
            compare(n, &problem, node_budget)
        })
        .collect()
}

/// Fig. 6b: bitrate levels 2–8 at 3 participants.
pub fn fig6b(node_budget: Option<u64>) -> Vec<ComparisonRow> {
    (2..=8)
        .map(|levels| {
            let ladder = ladders::fine(levels);
            let problem = symmetric_meeting(3, ladder);
            compare(levels, &problem, node_budget)
        })
        .collect()
}

/// Above this naive leaf count the naive run is extrapolated instead of
/// executed (the paper likewise notes brute force "becomes intractable").
const NAIVE_LEAF_LIMIT: f64 = 3.0e5;

fn compare(x: usize, problem: &Problem, node_budget: Option<u64>) -> ComparisonRow {
    let cfg = SolverConfig::default();
    let (gso, gso_secs) = time_of(|| solver::solve(problem, &cfg));
    gso.validate(problem).expect("GSO solution valid");

    // Exact optimum from the branch-and-bound search (cheap): the
    // optimality denominator.
    let (bb, _) = time_of(|| brute::solve_brute(problem, &cfg, node_budget));
    bb.solution.validate(problem).expect("exact solution valid");
    let optimality =
        if bb.solution.total_qoe > 0.0 { gso.total_qoe / bb.solution.total_qoe } else { 1.0 };

    // The naive exhaustive search's cost: measured where practical,
    // projected from its leaf count otherwise.
    let leaves = brute::naive_leaf_count(problem);
    let (brute_secs, brute_nodes, extrapolated) = if leaves <= NAIVE_LEAF_LIMIT {
        let (naive, secs) = time_of(|| brute::solve_brute_naive(problem, &cfg, None));
        (secs, naive.nodes, false)
    } else {
        // Per-leaf cost from a trimmed run on the same instance.
        let budget = 50_000u64;
        let (naive, secs) = time_of(|| brute::solve_brute_naive(problem, &cfg, Some(budget)));
        let per_node = secs / naive.nodes.max(1) as f64;
        (per_node * leaves, naive.nodes, true)
    };

    ComparisonRow {
        x,
        gso_secs,
        brute_secs,
        brute_nodes,
        leaves,
        extrapolated,
        exact: bb.exact,
        optimality,
    }
}

/// Fig. 6c: the paper's six large shapes.
pub fn fig6c() -> Vec<ScaleRow> {
    let shapes = [
        (10usize, 50usize, 9usize),
        (10, 50, 18),
        (10, 100, 18),
        (20, 100, 18),
        (10, 200, 18),
        (10, 400, 18),
    ];
    shapes
        .iter()
        .map(|&(pubs, subs, levels)| {
            let problem = asymmetric_meeting(pubs, subs, levels);
            let cfg = SolverConfig::default();
            let (sol, gso_secs) = time_of(|| solver::solve(&problem, &cfg));
            sol.validate(&problem).expect("valid at scale");
            ScaleRow { shape: (pubs, subs, levels), gso_secs, qoe: sol.total_qoe }
        })
        .collect()
}

/// A large switched conference: `pubs` publishers, `subs` receive-only
/// subscribers each subscribing to all publishers.
pub fn asymmetric_meeting(pubs: usize, subs: usize, levels: usize) -> Problem {
    let ladder = if levels == 9 {
        ladders::paper_table1()
    } else {
        ladders::uniform(
            &[Resolution::R180, Resolution::R360, Resolution::R720],
            levels.div_ceil(3),
        )
    };
    let mut clients: Vec<ClientSpec> = (1..=pubs as u32)
        .map(|i| {
            ClientSpec::new(
                ClientId(i),
                Bitrate::from_kbps(2_500),
                Bitrate::from_mbps(10),
                ladder.clone(),
            )
        })
        .collect();
    for j in 0..subs as u32 {
        clients.push(ClientSpec::subscriber_only(
            ClientId(1_000 + j),
            // Heterogeneous downlinks: 1–8 Mbps.
            Bitrate::from_kbps(1_000 + (u64::from(j) * 739) % 7_000),
        ));
    }
    let mut subscriptions = Vec::new();
    for j in 0..subs as u32 {
        for i in 1..=pubs as u32 {
            subscriptions.push(Subscription::new(
                ClientId(1_000 + j),
                SourceId::video(ClientId(i)),
                Resolution::R720,
            ));
        }
    }
    Problem::new(clients, subscriptions).expect("valid large meeting")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_small_sizes_exact_and_near_optimal() {
        let ladder = ladders::uniform(&[Resolution::R180, Resolution::R360, Resolution::R720], 2);
        for n in 2..=4 {
            let p = symmetric_meeting(n, ladder.clone());
            let row = compare(n, &p, None);
            assert!(row.exact, "n={n} should be exactly solvable");
            assert!(
                row.optimality > 0.85 && row.optimality <= 1.0 + 1e-9,
                "n={n}: optimality {}",
                row.optimality
            );
        }
    }

    #[test]
    fn brute_nodes_grow_with_participants() {
        let ladder = ladders::uniform(&[Resolution::R180, Resolution::R360, Resolution::R720], 2);
        let small = compare(2, &symmetric_meeting(2, ladder.clone()), None);
        let large = compare(4, &symmetric_meeting(4, ladder), None);
        assert!(large.leaves > small.leaves * 10.0, "leaves {} -> {}", small.leaves, large.leaves);
        assert!(
            large.brute_secs > small.brute_secs,
            "naive time must grow: {} -> {}",
            small.brute_secs,
            large.brute_secs
        );
    }

    #[test]
    fn fig6c_solves_at_scale_quickly() {
        let p = asymmetric_meeting(10, 100, 18);
        let cfg = SolverConfig::default();
        let (sol, secs) = time_of(|| solver::solve(&p, &cfg));
        sol.validate(&p).unwrap();
        assert!(secs < 5.0, "took {secs}s");
        assert!(sol.total_qoe > 0.0);
    }

    #[test]
    fn subscribers_with_small_downlink_get_small_streams() {
        let p = asymmetric_meeting(4, 8, 9);
        let sol = solver::solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        // The 1 Mbps subscriber receives something, but not 4×720P.
        let poorest = ClientId(1_000);
        let rate = sol.receive_rate(poorest);
        assert!(rate > Bitrate::ZERO);
        assert!(rate <= Bitrate::from_kbps(1_000));
    }
}
