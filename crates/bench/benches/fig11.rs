//! Fig. 11 — user satisfaction score (normalized) over the rollout.

use gso_bench::banner;
use gso_sim::deployment::{self, ImprovementFactors, Rollout};

fn print_figure() {
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

fn main() {
    print_figure();
}
