//! Fig. 7 — transient bitrate adaptation under abrupt bandwidth changes.
//!
//! One publisher streams to one subscriber through an accessing node. At
//! t = 20 s the subscriber's downlink is capped to 750/625/500/375 Kbps; at
//! t = 57 s the cap is lifted. GSO (fine 15-level ladder, global control)
//! fits the video just under the cap; Non-GSO (coarse 3-level template)
//! has to fall to the next coarse level, wasting bandwidth (§5).

use crate::client::PolicyMode;
use crate::workloads::clean_mesh;
use gso_net::{LinkConfig, Schedule};
use gso_telemetry::keys;
use gso_util::stats::TimeSeries;
use gso_util::{Bitrate, ClientId, SimDuration, SimTime};

/// The caps applied in the experiment.
pub const CAPS_KBPS: [u64; 4] = [750, 625, 500, 375];

/// When the cap is applied and lifted.
pub const CAP_AT: SimTime = SimTime::from_secs(20);
/// When the cap is lifted.
pub const RECOVER_AT: SimTime = SimTime::from_secs(57);
/// Total run length.
pub const RUN_FOR: SimDuration = SimDuration::from_secs(80);

/// The received-video-rate trace for one (mode, cap) run.
#[derive(Debug)]
pub struct TransientTrace {
    /// The applied cap.
    pub cap: Bitrate,
    /// Receive rate at the subscriber over time.
    pub series: TimeSeries,
    /// Controller-side observability for the run (zeroed in baseline modes,
    /// which run no controller).
    pub controller: ControllerMetrics,
}

/// Controller metrics harvested from the telemetry registry after a run.
///
/// "Solve latency" is deterministic work, not wall-clock: iterations of the
/// layer-selection search and incremental-engine rows recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerMetrics {
    /// Controller rounds executed.
    pub solves: u64,
    /// Rounds forced into the §7 fallback template.
    pub fallback_rounds: u64,
    /// Total solver iterations across rounds.
    pub solve_iterations: u64,
    /// Total incremental-engine rows recomputed across rounds.
    pub solve_rows: u64,
    /// Per-subscription layer changes pushed (churn).
    pub churn_layers: u64,
    /// GTMB configuration messages first-sent.
    pub gtmb_sent: u64,
    /// GTMB retransmissions.
    pub gtmb_retransmits: u64,
    /// GTMB deliveries that exhausted their budget.
    pub gtmb_failed: u64,
}

impl ControllerMetrics {
    /// Harvest from a finished scenario's registry.
    pub fn from_telemetry(t: &gso_telemetry::Telemetry) -> Self {
        let (_, solve_iterations) = t.histogram_total(keys::CTRL_SOLVE_ITERATIONS);
        let (_, solve_rows) = t.histogram_total(keys::CTRL_SOLVE_ROWS);
        ControllerMetrics {
            solves: t.counter_total(keys::CTRL_SOLVES),
            fallback_rounds: t.counter_total(keys::CTRL_FALLBACK_ROUNDS),
            solve_iterations,
            solve_rows,
            churn_layers: t.counter_total(keys::CTRL_CHURN_LAYERS),
            gtmb_sent: t.counter_total(keys::GTMB_SENT),
            gtmb_retransmits: t.counter_total(keys::GTMB_RETRANSMITS),
            gtmb_failed: t.counter_total(keys::GTMB_FAILED),
        }
    }
}

/// Run the transient experiment for one mode across all four caps.
pub fn fig7(mode: PolicyMode, seed: u64) -> Vec<TransientTrace> {
    CAPS_KBPS
        .iter()
        .map(|&kbps| {
            let cap = Bitrate::from_kbps(kbps);
            run_one_traced(mode, cap, seed)
        })
        .collect()
}

/// Run a single (mode, cap) scenario and return the subscriber's receive
/// rate series.
pub fn run_one(mode: PolicyMode, cap: Bitrate, seed: u64) -> TimeSeries {
    run_one_traced(mode, cap, seed).series
}

/// [`run_one`] plus the controller metrics harvested from telemetry.
pub fn run_one_traced(mode: PolicyMode, cap: Bitrate, seed: u64) -> TransientTrace {
    let base = Bitrate::from_mbps(4);
    let subscriber = ClientId(2);

    let mut s = clean_mesh(mode, 2, base, base, RUN_FOR, seed);
    s.clients[1].downlink =
        LinkConfig::clean(base, SimDuration::from_millis(20)).with_rate_schedule(Schedule::steps(
            vec![(SimTime::ZERO, base), (CAP_AT, cap), (RECOVER_AT, base)],
        ));
    // Only the subscriber watches the publisher (at 720P, as `clean_mesh`
    // set it); the publisher receives nothing (the paper's one-way setup).
    s.clients[0].subscriptions.clear();
    let result = s.run();
    TransientTrace {
        cap,
        series: result.recv_series[&subscriber].clone(),
        controller: ControllerMetrics::from_telemetry(&result.telemetry),
    }
}

/// Mean received rate inside the capped window (for shape checks).
pub fn capped_window_mean(series: &TimeSeries) -> Option<f64> {
    series.window_mean(SimTime::from_secs(35), SimTime::from_secs(55))
}

/// Mean received rate after recovery.
pub fn recovered_mean(series: &TimeSeries) -> Option<f64> {
    series.window_mean(SimTime::from_secs(70), SimTime::from_secs(80))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gso_fits_just_under_625k_cap_while_non_gso_drops_to_300k() {
        // The paper's headline example: at a 625 Kbps limit GSO sends
        // ~600 Kbps while coarse Non-GSO falls to 300 Kbps.
        let cap = Bitrate::from_kbps(625);
        let gso = run_one(PolicyMode::Gso, cap, 11);
        let non = run_one(PolicyMode::NonGso, cap, 11);
        let g = capped_window_mean(&gso).expect("gso trace");
        let n = capped_window_mean(&non).expect("non-gso trace");
        // Our conservative GCC implementation plus the controller's
        // allocation headroom fill ~65-80% of the cap (the paper's
        // production estimator tracks tighter); the coarse baseline is
        // pinned at its 300 Kbps rung. The figure's shape — a fine rung
        // just under the budget vs a coarse cliff — is what must hold.
        assert!(g > 380_000.0, "GSO should fill most of the cap, got {g}");
        assert!(g < 640_000.0, "GSO must stay under the cap, got {g}");
        assert!(n < 420_000.0, "Non-GSO coarse ladder should drop low, got {n}");
        assert!(g > n * 1.25, "GSO {g} vs non-GSO {n}: utilization gap expected");
    }

    #[test]
    fn gso_run_reports_controller_metrics() {
        let t = run_one_traced(PolicyMode::Gso, Bitrate::from_kbps(625), 11);
        let m = t.controller;
        assert!(m.solves > 0, "controller ran: {m:?}");
        assert!(m.solve_iterations > 0, "solver iterated: {m:?}");
        assert!(m.gtmb_sent > 0, "configs delivered: {m:?}");
        assert_eq!(m.gtmb_failed, 0, "clean links deliver everything: {m:?}");
        assert!(m.churn_layers > 0, "cap change forces layer churn: {m:?}");
        // Baselines run no controller at all.
        let base = run_one_traced(PolicyMode::NonGso, Bitrate::from_kbps(625), 11);
        assert_eq!(base.controller, ControllerMetrics::default());
    }

    #[test]
    fn rates_recover_after_cap_lifts() {
        let cap = Bitrate::from_kbps(500);
        let gso = run_one(PolicyMode::Gso, cap, 12);
        let during = capped_window_mean(&gso).unwrap();
        let after = recovered_mean(&gso).unwrap();
        assert!(after > during * 1.5, "recovery expected: {during} -> {after}");
    }
}
