//! Fig. 6c — GSO compute time at large meeting sizes.

use gso_bench::{banner, normalized};
use gso_sim::experiments::fig6;

fn print_figure() {
    banner("Fig. 6c: GSO control algorithm at scale (pubs, subs, levels)");
    let rows = fig6::fig6c();
    let norm = normalized(&rows.iter().map(|r| r.gso_secs).collect::<Vec<_>>());
    println!("{:>16} {:>12} {:>12} {:>12}", "(P, S, L)", "time(norm)", "time(s)", "QoE");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>16} {:>12.3} {:>12.4} {:>12.0}",
            format!("{:?}", r.shape),
            norm[i],
            r.gso_secs,
            r.qoe
        );
    }
    println!("(linear in subscribers and levels, superlinear in publishers — real-time at 100s of participants)");
}

fn main() {
    print_figure();
}
