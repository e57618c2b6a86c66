//! Fig. 7 — transient bitrate adaptation: GSO (fine ladder) vs Non-GSO
//! (coarse ladder) under abrupt downlink caps.

use gso_bench::banner;
use gso_sim::experiments::fig7;
use gso_sim::PolicyMode;
use gso_util::SimTime;

fn print_mode(mode: PolicyMode, label: &str) {
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

fn main() {
    print_mode(PolicyMode::Gso, "a");
    print_mode(PolicyMode::NonGso, "b");
}
