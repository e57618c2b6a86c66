//! Fig. 9 — client CPU utilization (work-unit model) across application
//! scenarios, GSO vs Non-GSO.

use gso_bench::banner;
use gso_sim::experiments::fig9::{self, AppScenario};
use gso_sim::PolicyMode;

fn print_figure() {
    banner("Fig. 9: client CPU utilization (video / audio / screen)");
    let results = fig9::fig9(13, false);
    println!("{:<8} {:<8} {:>14} {:>16}", "app", "system", "sender CPU", "receiver CPU");
    for r in &results {
        let app = match r.scenario {
            AppScenario::Video => "video",
            AppScenario::Audio => "audio",
            AppScenario::Screen => "screen",
        };
        let sys = if r.mode == PolicyMode::Gso { "GSO" } else { "Non-GSO" };
        println!("{:<8} {:<8} {:>13.1}% {:>15.1}%", app, sys, r.sender * 100.0, r.receiver * 100.0);
    }
    println!("(audio unaffected by GSO; video/screen overhead stays within a few percent)");
}

fn main() {
    print_figure();
}
