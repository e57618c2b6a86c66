//! Fig. 6a — compute time (normalized, log scale in the paper) and QoE
//! optimality vs. the number of participants.

use gso_bench::{banner, normalized};
use gso_sim::experiments::fig6;

fn print_figure() {
    banner("Fig. 6a: GSO vs brute force, participants 2-8");
    let rows = fig6::fig6a(Some(2_000_000));
    let brute_norm = normalized(&rows.iter().map(|r| r.brute_secs).collect::<Vec<_>>());
    let gso_norm: Vec<f64> = {
        let max_brute = rows.iter().map(|r| r.brute_secs).fold(0.0, f64::max);
        rows.iter().map(|r| r.gso_secs / max_brute).collect()
    };
    println!(
        "{:>4} {:>14} {:>14} {:>12} {:>12} {:>10} {:>6}",
        "n", "brute(norm)", "gso(norm)", "brute(s)", "gso(s)", "optimality", "mode"
    );
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>4} {:>14.3e} {:>14.3e} {:>12.4e} {:>12.4e} {:>10.4} {:>6}",
            r.x,
            brute_norm[i],
            gso_norm[i],
            r.brute_secs,
            r.gso_secs,
            r.optimality,
            if r.extrapolated { "proj" } else { "meas" },
        );
    }
    println!(
        "(brute time grows exponentially; GSO stays flat; optimality ≈ 1 — the Fig. 6a shape)"
    );
}

fn main() {
    print_figure();
}
