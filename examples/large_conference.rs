//! Large-conference orchestration: hundreds of participants, solved in
//! real time — the scaling capability Fig. 6c demonstrates — then re-solved
//! incrementally after a bandwidth report, the controller's steady state.
//!
//! Run with: `cargo run --release --example large_conference [publishers] [subscribers]`

use gso_simulcast::algo::{Problem, Resolution, SolveEngine, SolverConfig, SourceId};
use gso_simulcast::sim::experiments::fig6::asymmetric_meeting;
use gso_simulcast::util::{Bitrate, ClientId};
#[expect(
    clippy::disallowed_types,
    reason = "demo stopwatch printing host solve latency to the console; never feeds back into simulated behaviour"
)]
use std::time::Instant;

fn main() {
    let pubs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let subs: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(300);
    println!(
        "building a conference with {pubs} publishers and {subs} subscribers (18-level ladders)…"
    );
    let problem = asymmetric_meeting(pubs, subs, 18);

    let mut engine = SolveEngine::new(SolverConfig::default());
    #[expect(
        clippy::disallowed_types,
        reason = "demo stopwatch printing host solve latency to the console; never feeds back into simulated behaviour"
    )]
    let start = Instant::now();
    let solution = engine.solve(&problem);
    let elapsed = start.elapsed();
    solution.validate(&problem).expect("all constraints satisfied");

    println!(
        "solved in {elapsed:?} ({} Knapsack-Merge-Reduction iterations)\n",
        solution.iterations
    );

    // A single subscriber reports a smaller downlink: the warm re-solve
    // touches only that client's knapsack.
    let mut clients = problem.clients().to_vec();
    if let Some(victim) = clients.iter_mut().rfind(|c| c.sources.is_empty()) {
        victim.downlink = Bitrate::from_bps(victim.downlink.as_bps() * 7 / 10);
        let jittered = Problem::new(clients, problem.subscriptions().to_vec())
            .expect("perturbed problem valid");
        engine.reset_stats();
        #[expect(
            clippy::disallowed_types,
            reason = "demo stopwatch printing host solve latency to the console; never feeds back into simulated behaviour"
        )]
        let start = Instant::now();
        let resolved = engine.solve(&jittered);
        let warm = start.elapsed();
        resolved.validate(&jittered).expect("warm re-solve valid");
        let stats = engine.stats();
        println!(
            "warm re-solve after one bandwidth report: {warm:?} \
             ({} knapsack cache hits, {} capacity backtracks, {} recomputes)\n",
            stats.full_hits,
            stats.backtracks,
            stats.suffix_recomputes + stats.fresh_recomputes
        );
    }

    // Publisher-side summary.
    println!("publisher configurations:");
    for i in 1..=pubs.min(5) as u32 {
        let policies = solution.policies(SourceId::video(ClientId(i)));
        let desc: Vec<String> = policies
            .iter()
            .map(|p| format!("{}@{} ({} subs)", p.resolution, p.bitrate, p.audience.len()))
            .collect();
        println!("  client{i}: {}", desc.join(", "));
    }
    if pubs > 5 {
        println!("  … and {} more publishers", pubs - 5);
    }

    // Subscriber-side distribution: how well downlinks are filled.
    let mut res_hist = [0usize; 3];
    let mut fill = Vec::new();
    for c in problem.clients().iter().filter(|c| c.sources.is_empty()) {
        let used = solution.receive_rate(c.id);
        if c.downlink.as_bps() > 0 {
            fill.push(used.as_bps() as f64 / c.downlink.as_bps() as f64);
        }
        for r in solution.received.get(&c.id).map_or(&[] as &[_], Vec::as_slice) {
            match r.resolution {
                Resolution::R180 => res_hist[0] += 1,
                Resolution::R360 => res_hist[1] += 1,
                _ => res_hist[2] += 1,
            }
        }
    }
    fill.sort_by(f64::total_cmp);
    let pct = |p: f64| fill[((fill.len() - 1) as f64 * p) as usize];
    println!(
        "\nsubscriber downlink utilization: p10 {:.0}%  median {:.0}%  p90 {:.0}%",
        pct(0.1) * 100.0,
        pct(0.5) * 100.0,
        pct(0.9) * 100.0
    );
    println!(
        "delivered streams by resolution: 180P×{}  360P×{}  720P×{}",
        res_hist[0], res_hist[1], res_hist[2]
    );
    println!("total QoE utility: {:.0}", solution.total_qoe);
}
