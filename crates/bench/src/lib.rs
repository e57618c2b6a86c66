//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation. Each figure target prints the
//! reproduced rows/series; `solver_scale` times the solver at scale.

/// Normalize values so the maximum maps to 1.0, like the paper's plots.
pub fn normalized(values: &[f64]) -> Vec<f64> {
    gso_util::stats::normalize_to_max(values)
}

/// Print a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}
