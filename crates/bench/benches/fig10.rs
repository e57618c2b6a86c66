//! Fig. 10 — deployment time series of video stall, voice stall and
//! framerate (normalized) over the rollout.

use gso_bench::banner;
use gso_sim::deployment::{self, Rollout};

fn print_figure() {
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

fn main() {
    print_figure();
}
