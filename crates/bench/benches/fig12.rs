//! Fig. 12 — CDF of the controller call interval under network churn.

use gso_bench::banner;
use gso_sim::experiments::fig12;

fn print_figure() {
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

fn main() {
    print_figure();
}
