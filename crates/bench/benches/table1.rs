//! Table 1 — worked examples of the control algorithm.
//!
//! Prints the reproduced final solutions for the paper's three cases.

use gso_bench::banner;
use gso_sim::experiments::table1;

fn print_table() {
    banner("Table 1: examples of GSO-Simulcast's control algorithm");
    println!("{:<6} {:<8} {:>8} {:>8} {:>8}   (paper)", "case", "client", "720P", "360P", "180P");
    for case in 0..3 {
        let rows = table1::solve_case(case);
        let paper = table1::paper_rows(case);
        for (row, expect) in rows.iter().zip(&paper) {
            let fmt =
                |b: Option<gso_util::Bitrate>| b.map_or_else(|| "-".into(), |b| b.to_string());
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

fn main() {
    print_table();
}
