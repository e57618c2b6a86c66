//! Standard bitrate ladders.
//!
//! * [`paper_table1`] — the exact 9-level ladder of Table 1 in the paper,
//!   used by the worked examples and the Fig. 6 experiments; the worked
//!   examples themselves are [`table1_case`] (bandwidths in
//!   [`TABLE1_CASES`]) on the meeting [`table1_meeting`].
//! * [`fine`] — a production-style fine-grained ladder with up to 15 levels
//!   (what GSO-Simulcast deploys, §6).
//! * [`coarse3`] — a traditional 3-level Simulcast ladder (large/medium/
//!   small), the non-GSO baseline of Fig. 7b.
//! * [`uniform`] — a parametric ladder generator for the scaling experiments
//!   of Fig. 6 (vary resolutions × levels-per-resolution).

use crate::problem::{ClientSpec, Problem, SourceId, Subscription};
use crate::qoe::default_utility;
use crate::types::{Ladder, Resolution, StreamSpec};
use gso_util::{Bitrate, ClientId};

/// The 9-level ladder of Table 1:
/// 720P {1.5M/1200, 1.3M/1050, 1M/750}, 360P {800K/700, 600K/530, 500K/440,
/// 400K/360}, 180P {300K/300, 100K/100}.
pub fn paper_table1() -> Ladder {
    let k = Bitrate::from_kbps;
    Ladder::new(vec![
        StreamSpec::new(Resolution::R720, k(1500), 1200.0),
        StreamSpec::new(Resolution::R720, k(1300), 1050.0),
        StreamSpec::new(Resolution::R720, k(1000), 750.0),
        StreamSpec::new(Resolution::R360, k(800), 700.0),
        StreamSpec::new(Resolution::R360, k(600), 530.0),
        StreamSpec::new(Resolution::R360, k(500), 440.0),
        StreamSpec::new(Resolution::R360, k(400), 360.0),
        StreamSpec::new(Resolution::R180, k(300), 300.0),
        StreamSpec::new(Resolution::R180, k(100), 100.0),
    ])
    .expect("paper ladder is valid")
}

/// The bandwidths of the paper's Table 1 cases: (uplink, downlink) in Kbps
/// for clients A, B, C. Case 1 limits C's downlink, case 2 B's uplink, and
/// case 3 both of B's links.
pub const TABLE1_CASES: [[(u64, u64); 3]; 3] = [
    [(5_000, 1_400), (5_000, 3_000), (5_000, 500)],
    [(5_000, 5_000), (600, 5_000), (5_000, 5_000)],
    [(5_000, 5_000), (600, 700), (5_000, 5_000)],
];

/// The three-client meeting of Table 1: clients A, B, C (ids 1–3) on the
/// [`paper_table1`] ladder with the given (uplink, downlink) Kbps, every
/// client subscribed to the other two.
///
/// Subscription caps from the table: A→B at 360P, A→C at 180P,
/// B→A at 720P, B→C at 360P, C→B at 360P, C→A at 720P.
pub fn table1_meeting(bw: [(u64, u64); 3]) -> Problem {
    let ladder = paper_table1();
    let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
    let clients = [a, b, c]
        .into_iter()
        .zip(bw)
        .map(|(id, (up, down))| {
            ClientSpec::new(id, Bitrate::from_kbps(up), Bitrate::from_kbps(down), ladder.clone())
        })
        .collect();
    let subs = vec![
        Subscription::new(a, SourceId::video(b), Resolution::R360),
        Subscription::new(a, SourceId::video(c), Resolution::R180),
        Subscription::new(b, SourceId::video(a), Resolution::R720),
        Subscription::new(b, SourceId::video(c), Resolution::R360),
        Subscription::new(c, SourceId::video(b), Resolution::R360),
        Subscription::new(c, SourceId::video(a), Resolution::R720),
    ];
    Problem::new(clients, subs).expect("invariant: the Table 1 meeting is a valid conference")
}

/// One of the paper's Table 1 worked examples (`case` in `0..3`).
pub fn table1_case(case: usize) -> Problem {
    table1_meeting(TABLE1_CASES[case])
}

/// A fine-grained 15-level production-style ladder spanning 100 Kbps–1.5 Mbps
/// across 180P/360P/720P, with QoE weights from the default utility curve.
///
/// 180P: 100–300 Kbps (3 levels); 360P: 350–800 Kbps (6 levels);
/// 720P: 900 Kbps–1.5 Mbps (6 levels). The dense spacing is what lets GSO
/// fit the video bitrate "just right under the bandwidth limit" (Fig. 7a).
pub fn fine15() -> Ladder {
    let mut specs = Vec::new();
    for kbps in [100u64, 200, 300] {
        specs.push(spec(Resolution::R180, kbps));
    }
    for kbps in [350u64, 450, 550, 650, 700, 800] {
        specs.push(spec(Resolution::R360, kbps));
    }
    for kbps in [900u64, 1000, 1100, 1200, 1350, 1500] {
        specs.push(spec(Resolution::R720, kbps));
    }
    Ladder::new(specs).expect("fine ladder is valid")
}

/// A fine ladder with a chosen number of levels (2–15), distributed across
/// resolutions roughly as in [`fine15`]. Level counts below 4 degenerate to a
/// coarse ladder; this is used by the bitrate-granularity ablation.
pub fn fine(levels: usize) -> Ladder {
    let all = fine15();
    let n = levels.clamp(1, all.len());
    // Pick `n` levels spread evenly over the full ladder, always keeping the
    // smallest and the largest.
    let specs = all.specs();
    let mut picked = Vec::with_capacity(n);
    for i in 0..n {
        let idx = if n == 1 { 0 } else { i * (specs.len() - 1) / (n - 1) };
        picked.push(specs[idx]);
    }
    picked.dedup_by_key(|s| s.bitrate);
    Ladder::new(picked).expect("subset of a valid ladder is valid")
}

/// The traditional coarse 3-level Simulcast ladder: 1.5 Mbps (720P),
/// 600 Kbps (360P), 300 Kbps (180P). Adjacent-level ratios of 2.5–5× are
/// typical of template-based stream policies (§1 cites ratios up to 5).
pub fn coarse3() -> Ladder {
    Ladder::new(vec![
        spec(Resolution::R720, 1500),
        spec(Resolution::R360, 600),
        spec(Resolution::R180, 300),
    ])
    .expect("coarse ladder is valid")
}

/// A parametric ladder: `levels_per_res` bitrates at each of the given
/// resolutions, spaced geometrically inside per-resolution bands.
///
/// Used by the Fig. 6 scaling experiments, where the number of bitrate
/// options per publisher is the swept variable. The bands are
/// 180P ∈ [100K, 300K], 360P ∈ [350K, 800K], 720P ∈ [900K, 1.5M], and
/// 1080P ∈ [1.8M, 3M] when requested.
pub fn uniform(resolutions: &[Resolution], levels_per_res: usize) -> Ladder {
    let mut specs = Vec::new();
    for &res in resolutions {
        let (lo, hi) = band(res);
        for i in 0..levels_per_res {
            let f = if levels_per_res == 1 { 1.0 } else { i as f64 / (levels_per_res - 1) as f64 };
            // Geometric interpolation inside the band, rounded to 10 kbps so
            // the solver's quantization is exact.
            let kbps = (lo as f64 * (hi as f64 / lo as f64).powf(f) / 10.0).round() as u64 * 10;
            specs.push(spec(res, kbps));
        }
    }
    // Rounding can collide adjacent levels; nudge duplicates upward.
    specs.sort_by_key(|s| s.bitrate);
    let mut prev = Bitrate::ZERO;
    for s in &mut specs {
        if s.bitrate <= prev {
            s.bitrate = prev + Bitrate::from_kbps(10);
            s.qoe = default_utility(s.bitrate);
        }
        prev = s.bitrate;
    }
    Ladder::new(specs).expect("uniform ladder is valid")
}

/// Per-resolution bitrate bands used by [`uniform`].
fn band(res: Resolution) -> (u64, u64) {
    match res {
        r if r <= Resolution::R180 => (100, 300),
        r if r <= Resolution::R360 => (350, 800),
        r if r <= Resolution::R720 => (900, 1500),
        _ => (1800, 3000),
    }
}

// lint: allow(unit-hygiene, reason = "ladder-builder helper; the raw kbps literal becomes a Bitrate on the next line")
fn spec(res: Resolution, kbps: u64) -> StreamSpec {
    let b = Bitrate::from_kbps(kbps);
    StreamSpec::new(res, b, default_utility(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::protects_small_streams;

    #[test]
    fn paper_ladder_shape() {
        let l = paper_table1();
        assert_eq!(l.len(), 9);
        assert_eq!(l.at_resolution(Resolution::R720).len(), 3);
        assert_eq!(l.at_resolution(Resolution::R360).len(), 4);
        assert_eq!(l.at_resolution(Resolution::R180).len(), 2);
        assert_eq!(l.min_bitrate_at(Resolution::R360), Some(Bitrate::from_kbps(400)));
    }

    #[test]
    fn fine15_has_15_protective_levels() {
        let l = fine15();
        assert_eq!(l.len(), 15);
        let pairs: Vec<(Bitrate, f64)> = l.specs().iter().map(|s| (s.bitrate, s.qoe)).collect();
        assert!(protects_small_streams(&pairs));
    }

    #[test]
    fn fine_subsetting_keeps_extremes() {
        for n in 2..=15 {
            let l = fine(n);
            assert!(l.len() <= n);
            assert!(l.len() >= 2);
            assert_eq!(l.specs().first().unwrap().bitrate, Bitrate::from_kbps(100));
            assert_eq!(l.specs().last().unwrap().bitrate, Bitrate::from_kbps(1500));
        }
    }

    #[test]
    fn coarse3_matches_template_levels() {
        let l = coarse3();
        assert_eq!(l.len(), 3);
        assert_eq!(l.min_bitrate_at(Resolution::R720), Some(Bitrate::from_kbps(1500)));
    }

    #[test]
    fn uniform_ladder_counts_and_uniqueness() {
        for levels in 1..=8 {
            let l = uniform(&[Resolution::R180, Resolution::R360, Resolution::R720], levels);
            assert_eq!(l.len(), 3 * levels, "levels={levels}");
            // Ladder::new enforces bitrate uniqueness; reaching here is the test.
        }
    }

    #[test]
    fn uniform_respects_bands() {
        let l = uniform(&[Resolution::R360], 4);
        for s in l.specs() {
            assert!(s.bitrate >= Bitrate::from_kbps(350));
            assert!(s.bitrate <= Bitrate::from_kbps(800));
        }
    }
}
