//! Fig. 8 — slow-link tests: normalized framerate, video quality and video
//! stall across the Table 2 impairment matrix, for all four systems.

use gso_bench::banner;
use gso_sim::experiments::fig8;
use gso_sim::PolicyMode;

fn print_figure() {
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
    let cases: Vec<&str> = {
        let mut v: Vec<&str> = results.iter().map(|r| r.case.name).collect();
        v.dedup();
        v
    };
    let mut wins = 0;
    for case in &cases {
        let of = |m: PolicyMode| results.iter().find(|r| r.case.name == *case && r.mode == m);
        let g = of(PolicyMode::Gso).unwrap();
        if [PolicyMode::NonGso, PolicyMode::Competitor1, PolicyMode::Competitor2]
            .iter()
            .all(|&m| of(m).is_none_or(|o| g.video_stall <= o.video_stall + 0.02))
        {
            wins += 1;
        }
    }
    println!("GSO has (near-)lowest video stall in {wins}/{} cases", cases.len());
}

fn main() {
    print_figure();
}
