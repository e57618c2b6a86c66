//! `check repro <target>`: print the paper's evaluation from the
//! reproduction — Table 1 (§4), Figs 6–12 (§5–6) and the ablations
//! DESIGN.md calls out. One function per target; [`run`] dispatches and
//! `all` runs [`Target::ALL`] in order.
//!
//! The simulated outputs are deterministic. Fig. 6a–c and the
//! quantization ablation also print host solve times, which are not.

use gso_algo::{ladders, solver, SolverConfig};
use gso_sim::deployment::{self, ImprovementFactors, Rollout};
use gso_sim::experiments::fig9::AppScenario;
use gso_sim::experiments::{fig12, fig6, fig7, fig8, fig9, table1};
use gso_sim::PolicyMode;
use gso_util::stats::normalize_to_max;
use gso_util::{Bitrate, SimTime};

/// One printable piece of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Table 1: the control algorithm's worked examples.
    Table1,
    /// Fig. 6a: GSO vs brute force over the number of participants.
    Fig6a,
    /// Fig. 6b: GSO vs brute force over the number of bitrate levels.
    Fig6b,
    /// Fig. 6c: GSO at large meeting sizes.
    Fig6c,
    /// Fig. 7: transient adaptation under abrupt downlink caps.
    Fig7,
    /// Fig. 8: the Table 2 slow-link matrix for all four systems.
    Fig8,
    /// Fig. 9: client CPU utilization.
    Fig9,
    /// Fig. 10: deployment metrics over the rollout.
    Fig10,
    /// Fig. 11: user satisfaction over the rollout.
    Fig11,
    /// Fig. 12: CDF of the controller call interval.
    Fig12,
    /// Design ablations beyond the paper.
    Ablations,
}

impl Target {
    /// Every target, in the order `check repro all` runs them.
    pub const ALL: [Target; 11] = [
        Target::Table1,
        Target::Fig6a,
        Target::Fig6b,
        Target::Fig6c,
        Target::Fig7,
        Target::Fig8,
        Target::Fig9,
        Target::Fig10,
        Target::Fig11,
        Target::Fig12,
        Target::Ablations,
    ];

    /// The target's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Target::Table1 => "table1",
            Target::Fig6a => "fig6a",
            Target::Fig6b => "fig6b",
            Target::Fig6c => "fig6c",
            Target::Fig7 => "fig7",
            Target::Fig8 => "fig8",
            Target::Fig9 => "fig9",
            Target::Fig10 => "fig10",
            Target::Fig11 => "fig11",
            Target::Fig12 => "fig12",
            Target::Ablations => "ablations",
        }
    }

    /// The target called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Print one target.
pub fn run(target: Target) {
    match target {
        Target::Table1 => table1(),
        Target::Fig6a => fig6a(),
        Target::Fig6b => fig6b(),
        Target::Fig6c => fig6c(),
        Target::Fig7 => fig7(),
        Target::Fig8 => fig8(),
        Target::Fig9 => fig9(),
        Target::Fig10 => fig10(),
        Target::Fig11 => fig11(),
        Target::Fig12 => fig12(),
        Target::Ablations => ablations(),
    }
}

/// Print a figure banner.
pub(crate) fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table 1: the reproduced final solutions for the paper's three cases.
pub fn table1() {
    banner("Table 1: examples of GSO-Simulcast's control algorithm");
    println!("{:<6} {:<8} {:>8} {:>8} {:>8}   (paper)", "case", "client", "720P", "360P", "180P");
    for case in 0..3 {
        let rows = table1::solve_case(case);
        let paper = table1::paper_rows(case);
        for (row, expect) in rows.iter().zip(&paper) {
            let fmt = |b: Option<Bitrate>| b.map_or_else(|| "-".into(), |b| b.to_string());
            println!(
                "case{:<2} {:<8} {:>8} {:>8} {:>8}   {}",
                case + 1,
                row.client,
                fmt(row.r720),
                fmt(row.r360),
                fmt(row.r180),
                if row == expect { "matches paper" } else { "MISMATCH" },
            );
        }
    }
}

/// Fig. 6a: compute time (normalized, log scale in the paper) and QoE
/// optimality vs. the number of participants.
pub fn fig6a() {
    banner("Fig. 6a: GSO vs brute force, participants 2-8");
    brute_vs_gso(&fig6::fig6a(Some(2_000_000)), "n", 4);
    println!(
        "(brute time grows exponentially; GSO stays flat; optimality ≈ 1 — the Fig. 6a shape)"
    );
}

/// Fig. 6b: compute time and QoE optimality vs. the number of bitrate
/// levels (3 participants).
pub fn fig6b() {
    banner("Fig. 6b: GSO vs brute force, bitrate levels 2-8 (3 participants)");
    brute_vs_gso(&fig6::fig6b(Some(2_000_000)), "levels", 7);
    println!("(brute grows exponentially with levels; GSO scales linearly — enabling fine-grained ladders)");
}

/// The Fig. 6a/6b table, one row per swept value `x` (a column `width`
/// wide headed `x_label`): both solve times normalized to the slowest
/// brute-force solve, the raw times, and GSO's optimality.
fn brute_vs_gso(rows: &[fig6::ComparisonRow], x_label: &str, width: usize) {
    let brute_norm = normalize_to_max(&rows.iter().map(|r| r.brute_secs).collect::<Vec<_>>());
    let max_brute = rows.iter().map(|r| r.brute_secs).fold(0.0, f64::max);
    println!(
        "{x_label:>width$} {:>14} {:>14} {:>12} {:>12} {:>10} {:>6}",
        "brute(norm)", "gso(norm)", "brute(s)", "gso(s)", "optimality", "mode"
    );
    for (r, brute_norm) in rows.iter().zip(&brute_norm) {
        println!(
            "{:>width$} {:>14.3e} {:>14.3e} {:>12.4e} {:>12.4e} {:>10.4} {:>6}",
            r.x,
            brute_norm,
            r.gso_secs / max_brute,
            r.brute_secs,
            r.gso_secs,
            r.optimality,
            if r.extrapolated { "proj" } else { "meas" },
        );
    }
}

/// Fig. 6c: GSO compute time at large meeting sizes.
pub fn fig6c() {
    banner("Fig. 6c: GSO control algorithm at scale (pubs, subs, levels)");
    let rows = fig6::fig6c();
    let norm = normalize_to_max(&rows.iter().map(|r| r.gso_secs).collect::<Vec<_>>());
    println!("{:>16} {:>12} {:>12} {:>12}", "(P, S, L)", "time(norm)", "time(s)", "QoE");
    for (r, norm) in rows.iter().zip(&norm) {
        println!(
            "{:>16} {:>12.3} {:>12.4} {:>12.0}",
            format!("{:?}", r.shape),
            norm,
            r.gso_secs,
            r.qoe
        );
    }
    println!("(linear in subscribers and levels, superlinear in publishers — real-time at 100s of participants)");
}

/// Fig. 7: transient bitrate adaptation, GSO (fine ladder, 7a) vs Non-GSO
/// (coarse ladder, 7b), under abrupt downlink caps.
pub fn fig7() {
    for (mode, label) in [(PolicyMode::Gso, "a"), (PolicyMode::NonGso, "b")] {
        banner(&format!("Fig. 7{label}: transient adaptation ({mode:?})"));
        let traces = fig7::fig7(mode, 11);
        print!("{:>6}", "t(s)");
        for t in &traces {
            print!(" {:>10}", format!("cap={}", t.cap));
        }
        println!();
        for sec in (2..=80).step_by(2) {
            print!("{sec:>6}");
            for t in &traces {
                let v = t
                    .series
                    .window_mean(SimTime::from_secs(sec - 2), SimTime::from_secs(sec))
                    .unwrap_or(0.0);
                print!(" {:>10.0}", v / 1000.0);
            }
            println!();
        }
        for t in &traces {
            let capped = fig7::capped_window_mean(&t.series).unwrap_or(0.0) / 1000.0;
            let recovered = fig7::recovered_mean(&t.series).unwrap_or(0.0) / 1000.0;
            println!(
                "cap {}: capped-window mean {:.0} kbps, post-recovery {:.0} kbps",
                t.cap, capped, recovered
            );
        }
    }
}

/// Fig. 8: slow-link tests — normalized framerate, video quality and
/// video stall across the Table 2 impairment matrix, for all four systems.
pub fn fig8() {
    banner("Fig. 8: slow-link tests (Table 2 cases x 4 systems)");
    let results = fig8::fig8(17, false);
    let label = |m: PolicyMode| match m {
        PolicyMode::Gso => "GSO",
        PolicyMode::NonGso => "Non-GSO",
        PolicyMode::Competitor1 => "Comp-1",
        PolicyMode::Competitor2 => "Comp-2",
    };
    // Normalize each metric against the global best, as the paper does.
    let fr_max = results.iter().map(|r| r.framerate).fold(0.0, f64::max);
    let q_max = results.iter().map(|r| r.quality).fold(0.0, f64::max);
    println!(
        "{:<12} {:<8} {:>10} {:>10} {:>12} {:>12}",
        "case", "system", "framerate", "quality", "video-stall", "voice-stall"
    );
    for r in &results {
        println!(
            "{:<12} {:<8} {:>10.3} {:>10.3} {:>12.4} {:>12.4}",
            r.case.name,
            label(r.mode),
            r.framerate / fr_max.max(1e-9),
            r.quality / q_max.max(1e-9),
            r.video_stall,
            r.voice_stall
        );
    }
    // Summary: how often GSO wins each metric.
    let mut cases: Vec<&str> = results.iter().map(|r| r.case.name).collect();
    cases.dedup();
    let mut wins = 0;
    for case in &cases {
        let of = |m: PolicyMode| results.iter().find(|r| r.case.name == *case && r.mode == m);
        let g = of(PolicyMode::Gso).expect("every case runs GSO");
        if [PolicyMode::NonGso, PolicyMode::Competitor1, PolicyMode::Competitor2]
            .iter()
            .all(|&m| of(m).is_none_or(|o| g.video_stall <= o.video_stall + 0.02))
        {
            wins += 1;
        }
    }
    println!("GSO has (near-)lowest video stall in {wins}/{} cases", cases.len());
}

/// Fig. 9: client CPU utilization (work-unit model) across application
/// scenarios, GSO vs Non-GSO.
pub fn fig9() {
    banner("Fig. 9: client CPU utilization (video / audio / screen)");
    let results = fig9::fig9(13, false);
    println!("{:<8} {:<8} {:>14} {:>16}", "app", "system", "sender CPU", "receiver CPU");
    for r in &results {
        let app = match r.scenario {
            AppScenario::Video => "video",
            AppScenario::Audio => "audio",
            AppScenario::Screen => "screen",
        };
        let sys = if r.mode == PolicyMode::Gso { "GSO" } else { "Non-GSO" };
        println!("{:<8} {:<8} {:>13.1}% {:>15.1}%", app, sys, r.sender * 100.0, r.receiver * 100.0);
    }
    println!("(audio unaffected by GSO; video/screen overhead stays within a few percent)");
}

/// Fig. 10: deployment time series of video stall, voice stall and
/// framerate (normalized) over the rollout.
pub fn fig10() {
    banner("Fig. 10: deployment metrics by date (population model)");
    // Improvement factors measured from the simulator itself.
    let measured = deployment::measure_improvements(29, 3);
    println!(
        "simulator-measured improvements: video stall -{:.0}%, voice stall -{:.0}%, framerate +{:.1}%",
        measured.video_stall_reduction * 100.0,
        measured.voice_stall_reduction * 100.0,
        measured.framerate_gain * 100.0
    );
    println!("paper: video stall -35%, voice stall -50%, framerate +6%  (production)");
    let days = deployment::simulate_deployment(Rollout::paper(), measured, 29);
    let vs_max = days.iter().map(|d| d.video_stall).fold(0.0, f64::max);
    let as_max = days.iter().map(|d| d.voice_stall).fold(0.0, f64::max);
    let fr_max = days.iter().map(|d| d.framerate).fold(0.0, f64::max);
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>11}",
        "date", "coverage", "video-stall", "voice-stall", "framerate"
    );
    for d in days.iter().step_by(3) {
        println!(
            "{:<12} {:>9.2} {:>12.3} {:>12.3} {:>11.3}",
            d.date,
            d.coverage,
            d.video_stall / vs_max,
            d.voice_stall / as_max,
            d.framerate / fr_max
        );
    }
    let before = deployment::window_mean(&days, 0..50, |d| d.video_stall);
    let after = deployment::window_mean(&days, 80..106, |d| d.video_stall);
    println!(
        "video stall: pre-rollout {:.4} -> full-deployment {:.4} ({:.0}% reduction)",
        before,
        after,
        (before - after) / before * 100.0
    );
}

/// Fig. 11: user satisfaction score (normalized) over the rollout.
pub fn fig11() {
    banner("Fig. 11: user satisfaction score by date (population model)");
    let days = deployment::simulate_deployment(Rollout::paper(), ImprovementFactors::paper(), 31);
    let max = days.iter().map(|d| d.satisfaction).fold(0.0, f64::max);
    println!("{:<12} {:>9} {:>14}", "date", "coverage", "satisfaction");
    // The paper's Fig. 11 spans Nov 12 – Dec 24 (days 42..85).
    for d in days.iter().skip(42).take(43).step_by(2) {
        println!("{:<12} {:>9.2} {:>14.4}", d.date, d.coverage, d.satisfaction / max);
    }
    let before = deployment::window_mean(&days, 42..50, |d| d.satisfaction);
    let after = deployment::window_mean(&days, 80..85, |d| d.satisfaction);
    println!(
        "satisfaction gain across rollout: +{:.1}% (paper: +7.2%)",
        (after - before) / before * 100.0
    );
}

/// Fig. 12: CDF of the controller call interval under network churn.
pub fn fig12() {
    banner("Fig. 12: CDF of GSO control algorithm call interval");
    let samples = fig12::fig12(21, 240);
    println!("samples: {}", samples.len());
    println!(
        "min {:.2}s  mean {:.2}s  max {:.2}s   (paper: min 1s, mean 1.8s, max 3s)",
        samples.min(),
        samples.mean(),
        samples.max()
    );
    println!("{:>10} {:>8}", "interval", "CDF");
    let cdf = samples.cdf();
    // Print ~20 evenly spaced CDF points.
    let step = (cdf.len() / 20).max(1);
    for (v, p) in cdf.iter().step_by(step) {
        println!("{v:>9.2}s {p:>8.3}");
    }
}

/// Ablations beyond the paper, on design choices DESIGN.md calls out:
/// knapsack quantization, ladder granularity and the Step-2 merge rule.
pub fn ablations() {
    ablation_quantization();
    ablation_ladder_granularity();
    ablation_merge();
}

/// Solver time vs. optimality as the knapsack bandwidth unit coarsens.
fn ablation_quantization() {
    banner("Ablation: knapsack quantization unit vs time/QoE");
    let problem = fig6::asymmetric_meeting(10, 100, 18);
    println!("{:>10} {:>12} {:>12}", "unit", "time(s)", "QoE");
    let mut reference = None;
    for unit in [1, 10, 50, 100].map(Bitrate::from_kbps) {
        let cfg = SolverConfig { unit };
        // lint: allow(wall-clock, reason = "host-time stopwatch for the quantization ablation; the solve time is the printed output, never simulation state")
        let start = std::time::Instant::now();
        let sol = solver::solve(&problem, &cfg);
        let secs = start.elapsed().as_secs_f64();
        let q = sol.total_qoe;
        let r = *reference.get_or_insert(q);
        println!(
            "{:>8}k {:>12.4} {:>12.0}  ({:+.2}% vs 1k unit)",
            unit.as_kbps(),
            secs,
            q,
            (q - r) / r * 100.0
        );
    }
}

/// Delivered rate under a tight cap as the number of bitrate levels grows
/// (the value of "fine-grained").
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

/// What Step 2's min rule costs/saves against a naive merge-to-max.
fn ablation_merge() {
    banner("Ablation: Step-2 merge rule (min, per the paper) downlink safety");
    // With merge-to-min, every subscriber's downlink constraint holds after
    // merging; a merge-to-max rule would overrun the slowest subscriber.
    let problem = fig6::asymmetric_meeting(4, 12, 9);
    let sol = solver::solve(&problem, &SolverConfig::default());
    let ok = sol.validate(&problem).is_ok();
    let mut would_overrun = 0;
    for (sub, streams) in &sol.received {
        let budget = problem.client(*sub).expect("every receiver is a client").downlink;
        // Reconstruct what merge-to-max would have delivered: the max
        // requested bitrate in each policy's audience group is unknown
        // post-merge, so bound it by the ladder max at that resolution.
        let max_rate: Bitrate = streams
            .iter()
            .map(|r| {
                problem
                    .source(r.source)
                    .and_then(|s| s.ladder.at_resolution(r.resolution).last().map(|x| x.bitrate))
                    .unwrap_or(r.bitrate)
            })
            .sum();
        if max_rate > budget {
            would_overrun += 1;
        }
    }
    println!(
        "merge-to-min: all constraints hold = {ok}; merge-to-max upper bound would overrun {} / {} subscribers",
        would_overrun,
        sol.received.len()
    );
}
