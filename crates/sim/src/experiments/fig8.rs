//! Fig. 8 — slow-link tests across the Table 2 impairment matrix.
//!
//! For each of the 15 cases (normal + 14 impairments) and each of the four
//! systems (GSO, Non-GSO, Competitor 1, Competitor 2), a 3-client meeting
//! runs with the impairment on client 1's link; the figure reports
//! normalized framerate, video quality and video stall averaged over the
//! conference.

use crate::client::PolicyMode;
use crate::workloads::{slow_link_cases, slow_link_scenario, SlowLinkCase};

/// The four systems of the figure, in its legend order.
pub const SYSTEMS: [PolicyMode; 4] =
    [PolicyMode::Gso, PolicyMode::NonGso, PolicyMode::Competitor1, PolicyMode::Competitor2];

/// One (case, system) measurement.
#[derive(Debug, Clone)]
pub struct SlowLinkResult {
    /// The impairment case.
    pub case: SlowLinkCase,
    /// The system under test.
    pub mode: PolicyMode,
    /// Mean rendered framerate.
    pub framerate: f64,
    /// Mean VMAF-proxy quality.
    pub quality: f64,
    /// Mean video stall rate.
    pub video_stall: f64,
    /// Mean voice stall rate.
    pub voice_stall: f64,
}

/// Run the full matrix (15 cases × 4 systems). With `quick`, sessions are
/// shortened (used by tests); `check repro fig8` uses full-length runs.
pub fn fig8(seed: u64, quick: bool) -> Vec<SlowLinkResult> {
    let mut out = Vec::new();
    for case in slow_link_cases() {
        for mode in SYSTEMS {
            out.push(run_case(mode, case, seed, quick));
        }
    }
    out
}

/// Run one (mode, case) cell.
pub fn run_case(mode: PolicyMode, case: SlowLinkCase, seed: u64, quick: bool) -> SlowLinkResult {
    let mut scenario = slow_link_scenario(mode, case, seed);
    if quick {
        scenario.duration = gso_util::SimDuration::from_secs(30);
    }
    let r = scenario.run();
    SlowLinkResult {
        case,
        mode,
        framerate: r.mean_framerate(),
        quality: r.mean_quality(),
        video_stall: r.mean_video_stall(),
        voice_stall: r.mean_voice_stall(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Direction, Impairment};
    use gso_util::Bitrate;

    fn case(name: &str) -> SlowLinkCase {
        slow_link_cases().into_iter().find(|c| c.name == name).expect("case exists")
    }

    #[test]
    fn normal_case_is_healthy_for_gso() {
        let r = run_case(PolicyMode::Gso, case("normal"), 5, true);
        assert!(r.framerate > 12.0, "framerate {}", r.framerate);
        assert!(r.video_stall < 0.1, "stall {}", r.video_stall);
        assert!(r.quality > 30.0, "quality {}", r.quality);
    }

    #[test]
    fn gso_beats_non_gso_under_downlink_cap() {
        let c = case("down-0.5M");
        let gso = run_case(PolicyMode::Gso, c, 6, true);
        let non = run_case(PolicyMode::NonGso, c, 6, true);
        // GSO's fine ladder fits the capped link; the coarse baseline
        // oscillates/starves.
        assert!(
            gso.video_stall <= non.video_stall + 1e-9,
            "gso stall {} vs non {}",
            gso.video_stall,
            non.video_stall
        );
        assert!(
            gso.quality >= non.quality * 0.95,
            "gso q {} vs non q {}",
            gso.quality,
            non.quality
        );
    }

    #[test]
    fn competitor2_suffers_on_slow_downlink() {
        // The single-stream passthrough ignores the subscriber's downlink —
        // the raw slow-link problem.
        let c = SlowLinkCase {
            name: "down-0.5M",
            direction: Direction::Downlink,
            impairment: Impairment::BandwidthLimit(Bitrate::from_kbps(500)),
        };
        let gso = run_case(PolicyMode::Gso, c, 7, true);
        let comp = run_case(PolicyMode::Competitor2, c, 7, true);
        assert!(
            comp.video_stall > gso.video_stall,
            "competitor2 stall {} should exceed gso {}",
            comp.video_stall,
            gso.video_stall
        );
    }
}
