//! Fig. 6b — compute time and QoE optimality vs. the number of bitrate
//! levels (3 participants).

use gso_bench::{banner, normalized};
use gso_sim::experiments::fig6;

fn print_figure() {
    banner("Fig. 6b: GSO vs brute force, bitrate levels 2-8 (3 participants)");
    let rows = fig6::fig6b(Some(2_000_000));
    let brute_norm = normalized(&rows.iter().map(|r| r.brute_secs).collect::<Vec<_>>());
    let max_brute = rows.iter().map(|r| r.brute_secs).fold(0.0, f64::max);
    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>12} {:>10} {:>6}",
        "levels", "brute(norm)", "gso(norm)", "brute(s)", "gso(s)", "optimality", "mode"
    );
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>7} {:>14.3e} {:>14.3e} {:>12.4e} {:>12.4e} {:>10.4} {:>6}",
            r.x,
            brute_norm[i],
            r.gso_secs / max_brute,
            r.brute_secs,
            r.gso_secs,
            r.optimality,
            if r.extrapolated { "proj" } else { "meas" },
        );
    }
    println!("(brute grows exponentially with levels; GSO scales linearly — enabling fine-grained ladders)");
}

fn main() {
    print_figure();
}
