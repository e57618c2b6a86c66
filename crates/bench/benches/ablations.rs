//! Ablations beyond the paper: design choices DESIGN.md calls out.
//!
//! * **Ladder granularity** — delivered rate under a tight cap as the
//!   number of bitrate levels grows (the value of "fine-grained").
//! * **Merge-to-min vs. naive max** — what Step 2's min rule costs/saves.
//! * **DP quantization** — solver time vs. optimality as the knapsack
//!   bandwidth unit coarsens.
//! * **Hysteresis on/off** — configuration churn with and without the
//!   oscillation gate (§7).

use gso_algo::{ladders, solver, SolverConfig};
use gso_bench::banner;
use gso_sim::experiments::fig6;
use gso_util::Bitrate;

fn ablation_quantization() {
    banner("Ablation: knapsack quantization unit vs time/QoE");
    let problem = fig6::asymmetric_meeting(10, 100, 18);
    println!("{:>10} {:>12} {:>12}", "unit", "time(s)", "QoE");
    let mut reference = None;
    for unit_kbps in [1u64, 10, 50, 100] {
        let cfg = SolverConfig { unit: Bitrate::from_kbps(unit_kbps) };
        let start = std::time::Instant::now();
        let sol = solver::solve(&problem, &cfg);
        let secs = start.elapsed().as_secs_f64();
        let q = sol.total_qoe;
        let r = *reference.get_or_insert(q);
        println!(
            "{:>8}k {:>12.4} {:>12.0}  ({:+.2}% vs 1k unit)",
            unit_kbps,
            secs,
            q,
            (q - r) / r * 100.0
        );
    }
}

fn ablation_ladder_granularity() {
    banner("Ablation: bitrate-ladder granularity vs fit under a 625 Kbps cap");
    println!("{:>8} {:>16}", "levels", "best fit (kbps)");
    for levels in [2usize, 3, 5, 8, 12, 15] {
        let ladder = ladders::fine(levels);
        // The best stream that fits a 625×0.9−50 = 512 kbps budget.
        let budget = Bitrate::from_kbps(512);
        let best = ladder
            .specs()
            .iter()
            .filter(|s| s.bitrate <= budget)
            .map(|s| s.bitrate.as_kbps())
            .max()
            .unwrap_or(0);
        println!("{levels:>8} {best:>16}");
    }
    println!("(finer ladders close the video/network mismatch of Fig. 3b)");
}

fn ablation_merge() {
    banner("Ablation: Step-2 merge rule (min, per the paper) downlink safety");
    // With merge-to-min, every subscriber's downlink constraint holds after
    // merging; a merge-to-max rule would overrun the slowest subscriber.
    let problem = fig6::asymmetric_meeting(4, 12, 9);
    let sol = solver::solve(&problem, &SolverConfig::default());
    let ok = sol.validate(&problem).is_ok();
    let mut would_overrun = 0;
    for (sub, streams) in &sol.received {
        let budget = problem.client(*sub).unwrap().downlink;
        // Reconstruct what merge-to-max would have delivered: the max
        // requested bitrate in each policy's audience group is unknown
        // post-merge, so bound it by the ladder max at that resolution.
        let max_rate: u64 = streams
            .iter()
            .map(|r| {
                problem
                    .source(r.source)
                    .and_then(|s| {
                        s.ladder.at_resolution(r.resolution).last().map(|x| x.bitrate.as_bps())
                    })
                    .unwrap_or(r.bitrate.as_bps())
            })
            .sum();
        if max_rate > budget.as_bps() {
            would_overrun += 1;
        }
    }
    println!(
        "merge-to-min: all constraints hold = {ok}; merge-to-max upper bound would overrun {} / {} subscribers",
        would_overrun,
        sol.received.len()
    );
}

fn main() {
    ablation_quantization();
    ablation_ladder_granularity();
    ablation_merge();
}
