//! Bandwidth probing (§7 "Addressing bandwidth over-estimation").
//!
//! GCC-like estimators cap their estimate near the observed throughput, so a
//! client sending only small streams never learns how much uplink it really
//! has — and GSO needs that number to decide whether higher layers are
//! feasible. The fix deployed in the paper: "send probing packets in short
//! bursts controlled by a pacer to probe the bandwidth upper bound", with
//! carefully limited redundancy.
//!
//! The [`ProbeController`] decides when to emit a probe cluster and at what
//! rate; the client (and the access node, for downlinks) sends a cluster as
//! one bounded burst of 5–15 padding packets flagged `is_probe` in the send
//! history. There is no pacer: the burst bound limits the redundancy.

use gso_util::{Bitrate, SimDuration, SimTime};

/// A probe cluster: the rate and duration that size one padding burst
/// (`target_rate × duration` bytes, sent back to back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCluster {
    /// Rate the burst is sized for.
    pub target_rate: Bitrate,
    /// Burst duration.
    pub duration: SimDuration,
}

/// Probe scheduling policy.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Multipliers for the initial exponential probes after startup.
    pub initial_multipliers: Vec<f64>,
    /// Multiplier for periodic re-probes when application-limited.
    pub periodic_multiplier: f64,
    /// Interval between periodic probes.
    pub periodic_interval: SimDuration,
    /// Burst length; short, to bound the traffic overhead.
    pub burst: SimDuration,
    /// Never probe above this rate.
    pub max_rate: Bitrate,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            initial_multipliers: vec![3.0, 6.0],
            periodic_multiplier: 2.0,
            periodic_interval: SimDuration::from_millis(2_500),
            burst: SimDuration::from_millis(200),
            max_rate: Bitrate::from_mbps(20),
        }
    }
}

/// Decides when to probe.
#[derive(Debug)]
pub struct ProbeController {
    cfg: ProbeConfig,
    initial_sent: usize,
    last_probe: Option<SimTime>,
}

impl ProbeController {
    /// New controller; the first polls emit the initial exponential probes.
    pub fn new(cfg: ProbeConfig) -> Self {
        ProbeController { cfg, initial_sent: 0, last_probe: None }
    }

    /// Ask whether to probe now.
    ///
    /// `estimate` is the current bandwidth estimate; `app_limited` is true
    /// when the application's send rate is well below the estimate (the
    /// regime where the estimate is capped and must be refreshed by probing).
    pub fn poll(
        &mut self,
        now: SimTime,
        estimate: Bitrate,
        app_limited: bool,
    ) -> Option<ProbeCluster> {
        // Initial probes: run through the multiplier sequence back-to-back
        // (each waits for the previous burst to finish).
        if self.initial_sent < self.cfg.initial_multipliers.len() {
            if let Some(last) = self.last_probe {
                if now.saturating_since(last) < self.cfg.burst * 2 {
                    return None;
                }
            }
            let m = self.cfg.initial_multipliers[self.initial_sent];
            self.initial_sent += 1;
            self.last_probe = Some(now);
            return Some(ProbeCluster {
                target_rate: estimate.mul_f64(m).min(self.cfg.max_rate),
                duration: self.cfg.burst,
            });
        }
        // Periodic probes only when application-limited.
        if !app_limited {
            return None;
        }
        let due = match self.last_probe {
            None => true,
            Some(last) => now.saturating_since(last) >= self.cfg.periodic_interval,
        };
        if !due {
            return None;
        }
        self.last_probe = Some(now);
        Some(ProbeCluster {
            target_rate: estimate.mul_f64(self.cfg.periodic_multiplier).min(self.cfg.max_rate),
            duration: self.cfg.burst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_probes_run_the_multiplier_ladder() {
        let mut pc = ProbeController::new(ProbeConfig::default());
        let est = Bitrate::from_kbps(300);
        let p1 = pc.poll(SimTime::ZERO, est, false).unwrap();
        assert_eq!(p1.target_rate, Bitrate::from_kbps(900));
        // Too soon for the second.
        assert!(pc.poll(SimTime::from_millis(100), est, false).is_none());
        let p2 = pc.poll(SimTime::from_millis(500), est, false).unwrap();
        assert_eq!(p2.target_rate, Bitrate::from_kbps(1_800));
        // Ladder exhausted; not app-limited → no more probes.
        assert!(pc.poll(SimTime::from_secs(60), est, false).is_none());
    }

    #[test]
    fn periodic_probe_only_when_app_limited() {
        let mut pc = ProbeController::new(ProbeConfig::default());
        let est = Bitrate::from_kbps(500);
        // Drain the initial ladder.
        let _ = pc.poll(SimTime::ZERO, est, false);
        let _ = pc.poll(SimTime::from_secs(1), est, false);
        assert!(pc.poll(SimTime::from_secs(10), est, false).is_none());
        let p = pc.poll(SimTime::from_secs(10), est, true).unwrap();
        assert_eq!(p.target_rate, Bitrate::from_kbps(1_000));
        // Respects the periodic interval.
        assert!(pc.poll(SimTime::from_secs(12), est, true).is_none());
        assert!(pc.poll(SimTime::from_secs(15), est, true).is_some());
    }

    #[test]
    fn probe_rate_clamped_to_max() {
        let cfg = ProbeConfig { max_rate: Bitrate::from_kbps(800), ..ProbeConfig::default() };
        let mut pc = ProbeController::new(cfg);
        let p = pc.poll(SimTime::ZERO, Bitrate::from_kbps(500), false).unwrap();
        assert_eq!(p.target_rate, Bitrate::from_kbps(800));
    }

    #[test]
    fn burst_is_short_to_bound_overhead() {
        // §7: probing redundancy "needs to be carefully adjusted to reduce
        // the traffic overhead" — a default burst costs at most
        // rate × 200 ms of extra traffic.
        let cfg = ProbeConfig::default();
        assert!(cfg.burst <= SimDuration::from_millis(250));
    }
}
