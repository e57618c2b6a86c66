//! Lease-based failure detection on the deterministic sim clock.
//!
//! An active shard emits heartbeats at its tick cadence; the standby's
//! [`FailureDetector`] renews a lease on each accepted heartbeat and
//! declares the shard dead when the lease expires without renewal. The
//! lease interval carries seeded [`DetRng`] jitter so colocated standbys
//! never stampede their promotions onto the same instant, and the jitter
//! stream is derived from `(seed, label)` so every run replays
//! bit-identically.

use gso_rtp::epoch_newer;
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::{DetRng, SimDuration, SimTime};

/// Failure-detector policy.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// How long a heartbeat keeps the shard's lease alive. Must cover
    /// several heartbeat intervals so a single lost heartbeat (or a short
    /// loss window) does not trigger a spurious promotion.
    pub lease: SimDuration,
    /// Up to this fraction of the lease is added as deterministic jitter
    /// on every renewal, drawn from a [`DetRng`] stream keyed by
    /// `(seed, label)`.
    pub jitter_frac: f64,
    /// Seed for the jitter stream (derive from the scenario seed).
    pub seed: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        // Heartbeats ride the 100 ms controller tick; a 700 ms lease
        // tolerates six consecutive losses before declaring death, and
        // expiry + resync + first solve stays well inside the 5 s §7
        // recovery bound.
        LeaseConfig { lease: SimDuration::from_millis(700), jitter_frac: 0.2, seed: 0 }
    }
}

/// Standby-side lease bookkeeping for one watched shard.
#[derive(Debug)]
pub struct FailureDetector {
    cfg: LeaseConfig,
    label: String,
    rng: DetRng,
    /// Lease deadline; no accepted heartbeat by this instant = dead.
    deadline: SimTime,
    /// `(epoch, seq)` of the newest accepted heartbeat; `None` until the
    /// first one arrives (any epoch is acceptable then — the standby must
    /// not fence a shard it has never heard from).
    last: Option<(u32, u64)>,
    /// Latched once the lease expires; late heartbeats from the declared
    /// shard are ignored from then on (the standby has moved on).
    expired: bool,
    telemetry: Telemetry,
}

impl FailureDetector {
    /// A detector for the shard named `label` (also the telemetry label
    /// and the jitter-stream derivation key).
    pub fn new(cfg: LeaseConfig, label: impl Into<String>) -> Self {
        let label = label.into();
        // The derivation key keeps its original name: renaming it would
        // reshuffle every scenario's lease jitter.
        let rng = DetRng::derive(cfg.seed, &format!("cluster-lease-{label}"));
        FailureDetector {
            cfg,
            label,
            rng,
            deadline: SimTime::ZERO,
            last: None,
            expired: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry (lease grant/expiry counters).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Arm the initial lease at boot: the shard gets one full (jittered)
    /// lease interval to produce its first heartbeat.
    pub fn arm(&mut self, now: SimTime) {
        self.deadline = now + self.jittered_lease();
    }

    fn jittered_lease(&mut self) -> SimDuration {
        if self.cfg.jitter_frac <= 0.0 {
            return self.cfg.lease;
        }
        self.cfg.lease + self.cfg.lease.mul_f64(self.cfg.jitter_frac * self.rng.f64())
    }

    /// Process a heartbeat from the watched shard. Returns `true` when the
    /// heartbeat renewed the lease; stale heartbeats (older epoch, or a
    /// replayed/reordered sequence within the same epoch) and heartbeats
    /// arriving after the lease already expired are ignored.
    pub fn heartbeat(&mut self, now: SimTime, epoch: u32, seq: u64) -> bool {
        if self.expired {
            return false;
        }
        if let Some((last_epoch, last_seq)) = self.last {
            if epoch_newer(last_epoch, epoch) {
                return false; // stale epoch: a fenced predecessor's heartbeat
            }
            if epoch == last_epoch && seq <= last_seq {
                return false; // duplicate or reordered within the epoch
            }
        }
        self.last = Some((epoch, seq));
        self.deadline = now + self.jittered_lease();
        self.telemetry.incr(keys::CLUSTER_LEASE_GRANTED, &self.label);
        true
    }

    /// Poll for expiry. Returns `true` exactly once, on the first poll at
    /// or past the (jittered) deadline — the caller promotes the standby
    /// then. Further polls return `false` (the latch stays set).
    pub fn check_expired(&mut self, now: SimTime) -> bool {
        if self.expired || now < self.deadline {
            return false;
        }
        self.expired = true;
        self.telemetry.incr(keys::CLUSTER_LEASE_EXPIRED, &self.label);
        true
    }

    /// Has the lease expired (latched)?
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// Highest epoch seen in an accepted heartbeat (0 before the first) —
    /// the promotion bumps past this with RFC 1982 serial arithmetic.
    pub fn last_epoch(&self) -> u32 {
        self.last.map_or(0, |(e, _)| e)
    }

    /// Current lease deadline (for tests / digests).
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl StateDigest for FailureDetector {
    fn digest(&self, h: &mut StableHasher) {
        self.deadline.digest(h);
        self.last.digest(h);
        self.expired.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> LeaseConfig {
        LeaseConfig { lease: SimDuration::from_millis(700), jitter_frac: 0.2, seed }
    }

    #[test]
    fn heartbeats_renew_until_silence_expires_the_lease() {
        let mut d = FailureDetector::new(cfg(7), "s0");
        d.arm(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for seq in 1..=20u64 {
            t += SimDuration::from_millis(100);
            assert!(!d.check_expired(t), "lease must hold while heartbeats flow");
            assert!(d.heartbeat(t, 0, seq));
        }
        // Silence: the lease (700–840 ms) expires within one second.
        let expiry_poll = t + SimDuration::from_secs(1);
        assert!(d.check_expired(expiry_poll), "silence must expire the lease");
        assert!(!d.check_expired(expiry_poll), "expiry fires exactly once");
        assert!(d.expired());
        // A late heartbeat from the declared-dead shard is ignored.
        assert!(!d.heartbeat(expiry_poll, 0, 21));
    }

    #[test]
    fn short_loss_window_does_not_expire() {
        let mut d = FailureDetector::new(cfg(7), "s0");
        d.arm(SimTime::ZERO);
        d.heartbeat(SimTime::from_millis(100), 0, 1);
        // 300 ms of silence (3 lost heartbeats) then resume: under the
        // 700 ms lease, never expires.
        for ms in [200u64, 300, 400] {
            assert!(!d.check_expired(SimTime::from_millis(ms)));
        }
        assert!(d.heartbeat(SimTime::from_millis(500), 0, 5));
        assert!(!d.check_expired(SimTime::from_millis(1_100)));
    }

    #[test]
    fn stale_epoch_and_replayed_seq_rejected() {
        let mut d = FailureDetector::new(cfg(7), "s0");
        d.arm(SimTime::ZERO);
        assert!(d.heartbeat(SimTime::from_millis(100), 5, 3));
        assert!(!d.heartbeat(SimTime::from_millis(200), 4, 9), "older epoch");
        assert!(!d.heartbeat(SimTime::from_millis(200), 5, 3), "replayed seq");
        assert!(!d.heartbeat(SimTime::from_millis(200), 5, 2), "reordered seq");
        assert!(d.heartbeat(SimTime::from_millis(200), 5, 4));
        // A *newer* epoch (post-wrap) is accepted even though numerically
        // smaller.
        let mut d = FailureDetector::new(cfg(7), "s0");
        d.arm(SimTime::ZERO);
        assert!(d.heartbeat(SimTime::from_millis(100), u32::MAX, 1));
        assert!(d.heartbeat(SimTime::from_millis(200), 0, 1), "wrapped epoch is newer");
        assert_eq!(d.last_epoch(), 0);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let deadlines = |seed| {
            let mut d = FailureDetector::new(cfg(seed), "s0");
            d.arm(SimTime::ZERO);
            let mut out = Vec::new();
            for seq in 1..=8u64 {
                d.heartbeat(SimTime::from_millis(100 * seq), 0, seq);
                out.push(d.deadline());
            }
            out
        };
        let a = deadlines(1);
        assert_eq!(a, deadlines(1), "same seed, same deadlines");
        assert_ne!(a, deadlines(2), "different seed perturbs the schedule");
        for (i, deadline) in a.iter().enumerate() {
            let hb = SimTime::from_millis(100 * (i as u64 + 1));
            let lo = hb + SimDuration::from_millis(700);
            let hi = hb + SimDuration::from_millis(840);
            assert!((lo..=hi).contains(deadline), "deadline within jitter bounds");
        }
    }
}
