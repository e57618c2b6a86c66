//! Simulated links: rate limiting, propagation delay, jitter, random loss
//! and a drop-tail byte queue.
//!
//! Each direction between two nodes is an independent [`Link`]. Impairments
//! are *schedules* — step functions over simulated time — so experiments like
//! Fig. 7 ("limit the downlink to 625 Kbps at t = 20 s, restore at 57 s") and
//! the slow-link matrix of Table 2 are declared up front and applied
//! deterministically.

use crate::node::Packet;
use gso_util::{Bitrate, DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// A right-continuous step function of simulated time.
#[derive(Debug, Clone)]
pub struct Schedule<T: Copy> {
    /// `(from_time, value)` steps, sorted ascending by time; the first entry
    /// should be at time zero.
    steps: Vec<(SimTime, T)>,
}

impl<T: Copy> Schedule<T> {
    /// A constant schedule.
    pub fn constant(value: T) -> Self {
        Schedule { steps: vec![(SimTime::ZERO, value)] }
    }

    /// Build from explicit steps; they are sorted by time.
    pub fn steps(mut steps: Vec<(SimTime, T)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        steps.sort_by_key(|&(t, _)| t);
        Schedule { steps }
    }

    /// Value in effect at time `t` (the last step at or before `t`; before
    /// the first step, the first step's value).
    pub fn at(&self, t: SimTime) -> T {
        let mut value = self.steps[0].1;
        for &(start, v) in &self.steps {
            if start <= t {
                value = v;
            } else {
                break;
            }
        }
        value
    }

    /// Append a step.
    pub fn push(&mut self, at: SimTime, value: T) {
        self.steps.push((at, value));
        self.steps.sort_by_key(|&(t, _)| t);
    }
}

/// Configuration of one directed link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bottleneck rate over time.
    pub rate: Schedule<Bitrate>,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Mean of an exponential random extra delay ("jitter"); zero disables.
    pub jitter: Schedule<SimDuration>,
    /// Independent per-packet loss probability in [0, 1].
    pub loss: Schedule<f64>,
    /// Independent per-packet duplication probability in [0, 1]: the far
    /// end receives a second copy of the packet (after the first). Models
    /// last-hop retransmission artefacts; control-plane endpoints must
    /// re-apply idempotently.
    pub duplicate: Schedule<f64>,
    /// Allow jitter to reorder deliveries. A single FIFO path never
    /// reorders, so this is off for realistic links; chaos schedules turn
    /// it on to exercise out-of-order control-plane delivery.
    pub allow_reorder: bool,
    /// Drop-tail queue capacity in bytes (including wire overhead).
    pub queue_bytes: usize,
    /// Additional bound on queueing *delay*: the effective queue limit is
    /// `min(queue_bytes, rate(now) × max_queue_delay)`. Real shapers bound
    /// sojourn time; without this, capping a fast link's rate would leave a
    /// multi-second bufferbloat queue behind.
    pub max_queue_delay: SimDuration,
    /// Partitioned: every offered packet is dropped at enqueue, consuming
    /// no bandwidth and leaving the queue untouched. Chaos harnesses toggle
    /// this mid-run (via `Simulator::link_config_mut`) to model network
    /// partitions that heal with the queue state intact.
    pub blocked: bool,
}

impl LinkConfig {
    /// A clean link at a constant rate with the given propagation delay and
    /// a queue sized for ~250 ms at that rate (a typical last-mile buffer).
    pub fn clean(rate: Bitrate, delay: SimDuration) -> Self {
        let queue_bytes = (rate.bytes_in(SimDuration::from_millis(250)) as usize).max(40_000);
        LinkConfig {
            rate: Schedule::constant(rate),
            delay,
            jitter: Schedule::constant(SimDuration::ZERO),
            loss: Schedule::constant(0.0),
            duplicate: Schedule::constant(0.0),
            allow_reorder: false,
            queue_bytes,
            max_queue_delay: SimDuration::from_millis(400),
            blocked: false,
        }
    }

    /// Set a constant loss rate.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = Schedule::constant(p);
        self
    }

    /// Set a constant jitter mean.
    pub fn with_jitter(mut self, mean: SimDuration) -> Self {
        self.jitter = Schedule::constant(mean);
        self
    }

    /// Set a constant duplication rate.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = Schedule::constant(p);
        self
    }

    /// Let jitter reorder deliveries (for chaos schedules).
    pub fn with_reorder(mut self) -> Self {
        self.allow_reorder = true;
        self
    }

    /// Replace the rate schedule.
    pub fn with_rate_schedule(mut self, s: Schedule<Bitrate>) -> Self {
        self.rate = s;
        self
    }
}

/// Counters a link accumulates; used by tests and experiment reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets accepted onto the queue.
    pub enqueued: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by random loss.
    pub dropped_loss: u64,
    /// Payload+overhead bytes delivered.
    pub delivered_bytes: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Extra copies delivered by random duplication.
    pub duplicated: u64,
    /// High-watermark of queued bytes (queue depth) over the run.
    pub peak_queued_bytes: u64,
}

impl gso_util::digest::StateDigest for LinkStats {
    fn digest(&self, h: &mut gso_util::digest::StableHasher) {
        h.write_u64(self.enqueued);
        h.write_u64(self.dropped_queue);
        h.write_u64(self.dropped_loss);
        h.write_u64(self.delivered_bytes);
        h.write_u64(self.delivered);
        h.write_u64(self.duplicated);
        h.write_u64(self.peak_queued_bytes);
    }
}

/// Runtime state of one directed link.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    rng: DetRng,
    /// Completion times of queued/in-flight transmissions (FIFO).
    tx_ends: VecDeque<(SimTime, usize)>,
    /// When the transmitter becomes free.
    busy_until: SimTime,
    /// Latest delivery time handed out; jitter must not reorder a FIFO path.
    last_arrival: SimTime,
    /// Accumulated counters.
    pub stats: LinkStats,
}

/// What happened to a packet offered to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// Will arrive at the far end at this time.
    Deliver(SimTime),
    /// Will arrive twice: the original and a duplicated copy.
    DeliverDup(SimTime, SimTime),
    /// Dropped: queue overflow.
    DropQueue,
    /// Dropped: random loss (bandwidth was still consumed).
    DropLoss,
}

impl Link {
    /// Create a link with its own deterministic RNG stream.
    pub fn new(config: LinkConfig, rng: DetRng) -> Self {
        Link {
            config,
            rng,
            tx_ends: VecDeque::new(),
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Mutable access to the impairment schedules (for mid-run changes
    /// between simulator steps).
    pub fn config_mut(&mut self) -> &mut LinkConfig {
        &mut self.config
    }

    /// Current queue occupancy in bytes (transmissions not yet completed).
    pub fn queued_bytes(&mut self, now: SimTime) -> usize {
        while matches!(self.tx_ends.front(), Some(&(end, _)) if end <= now) {
            self.tx_ends.pop_front();
        }
        self.tx_ends.iter().map(|&(_, sz)| sz).sum()
    }

    /// Offer a packet at time `now`; returns the delivery decision.
    pub fn offer(&mut self, now: SimTime, packet: &Packet) -> Transmit {
        if self.config.blocked {
            // Partitioned: the packet never reaches the bottleneck.
            self.stats.dropped_loss += 1;
            return Transmit::DropLoss;
        }
        let size = packet.wire_size();
        let delay_bound = self.config.rate.at(now).bytes_in(self.config.max_queue_delay) as usize;
        let limit = self.config.queue_bytes.min(delay_bound.max(2 * 1500));
        let queued = self.queued_bytes(now);
        if queued + size > limit {
            self.stats.dropped_queue += 1;
            return Transmit::DropQueue;
        }
        self.stats.peak_queued_bytes = self.stats.peak_queued_bytes.max((queued + size) as u64);

        let start = self.busy_until.max(now);
        let rate = self.config.rate.at(start);
        let Some(ser) = rate.serialization_time(size) else {
            // Zero-rate link: the packet would never finish; treat as a
            // queue drop so callers observe a dead link, not a hang.
            self.stats.dropped_queue += 1;
            return Transmit::DropQueue;
        };
        let tx_end = start + ser;
        self.busy_until = tx_end;
        self.tx_ends.push_back((tx_end, size));
        self.stats.enqueued += 1;

        // Random loss is applied after transmission: the bits crossed the
        // bottleneck (consuming bandwidth) and died on the last hop.
        if self.rng.chance(self.config.loss.at(now)) {
            self.stats.dropped_loss += 1;
            return Transmit::DropLoss;
        }

        // Jitter models variable queueing further along the path; a single
        // FIFO path never reorders, so deliveries are monotone unless a
        // chaos schedule explicitly allows reordering.
        let arrival = self.jittered(now, tx_end + self.config.delay);
        self.stats.delivered += 1;
        self.stats.delivered_bytes += size as u64;

        if self.rng.chance(self.config.duplicate.at(now)) {
            let dup_at = self.jittered(now, arrival);
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            self.stats.delivered_bytes += size as u64;
            return Transmit::DeliverDup(arrival, dup_at);
        }
        Transmit::Deliver(arrival)
    }

    /// Add a jitter sample to `base`, clamping to keep deliveries monotone
    /// unless the link is configured to reorder.
    fn jittered(&mut self, now: SimTime, base: SimTime) -> SimTime {
        let jitter_mean = self.config.jitter.at(now);
        let jitter = if jitter_mean.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(self.rng.exponential(jitter_mean.as_secs_f64()))
        };
        let arrival = base + jitter;
        if self.config.allow_reorder {
            return arrival;
        }
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn packet(payload: usize) -> Packet {
        Packet::new(Bytes::from(vec![0u8; payload]))
    }

    fn mk_link(cfg: LinkConfig) -> Link {
        Link::new(cfg, DetRng::derive(1, "test-link"))
    }

    #[test]
    fn serialization_plus_propagation() {
        // 1 Mbps, 10 ms delay; 972-byte payload = 1000 wire bytes = 8 ms.
        let mut l = mk_link(LinkConfig::clean(Bitrate::from_mbps(1), SimDuration::from_millis(10)));
        let t = l.offer(SimTime::ZERO, &packet(972));
        assert_eq!(t, Transmit::Deliver(SimTime::from_millis(18)));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = mk_link(LinkConfig::clean(Bitrate::from_mbps(1), SimDuration::ZERO));
        let a = l.offer(SimTime::ZERO, &packet(972));
        let b = l.offer(SimTime::ZERO, &packet(972));
        assert_eq!(a, Transmit::Deliver(SimTime::from_millis(8)));
        // Second packet waits for the first to serialize.
        assert_eq!(b, Transmit::Deliver(SimTime::from_millis(16)));
    }

    #[test]
    fn queue_overflows_drop_tail() {
        let mut cfg = LinkConfig::clean(Bitrate::from_kbps(100), SimDuration::ZERO);
        cfg.queue_bytes = 2_500;
        let mut l = mk_link(cfg);
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.offer(SimTime::ZERO, &packet(972)) {
                Transmit::Deliver(_) | Transmit::DeliverDup(..) => delivered += 1,
                Transmit::DropQueue => dropped += 1,
                Transmit::DropLoss => {}
            }
        }
        assert_eq!(delivered, 2, "only two 1000B packets fit a 2500B queue");
        assert_eq!(dropped, 8);
        assert_eq!(l.stats.dropped_queue, 8);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut cfg = LinkConfig::clean(Bitrate::from_mbps(1), SimDuration::ZERO);
        cfg.queue_bytes = 2_000;
        let mut l = mk_link(cfg);
        assert!(matches!(l.offer(SimTime::ZERO, &packet(972)), Transmit::Deliver(_)));
        assert!(matches!(l.offer(SimTime::ZERO, &packet(972)), Transmit::Deliver(_)));
        // Queue full now.
        assert_eq!(l.offer(SimTime::ZERO, &packet(972)), Transmit::DropQueue);
        // After 8 ms the first packet finished; room again.
        assert!(matches!(l.offer(SimTime::from_millis(8), &packet(972)), Transmit::Deliver(_)));
    }

    #[test]
    fn full_loss_drops_everything() {
        let cfg = LinkConfig::clean(Bitrate::from_mbps(10), SimDuration::ZERO).with_loss(1.0);
        let mut l = mk_link(cfg);
        assert_eq!(l.offer(SimTime::ZERO, &packet(100)), Transmit::DropLoss);
        assert_eq!(l.stats.dropped_loss, 1);
    }

    #[test]
    fn statistical_loss_rate() {
        let cfg = LinkConfig::clean(Bitrate::from_mbps(100), SimDuration::ZERO).with_loss(0.3);
        let mut l = mk_link(cfg);
        let mut lost = 0;
        let n = 10_000;
        for i in 0..n {
            if l.offer(SimTime::from_millis(i), &packet(100)) == Transmit::DropLoss {
                lost += 1;
            }
        }
        let rate = f64::from(lost) / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn rate_schedule_step_change() {
        // 2 Mbps until t=1s, then 500 Kbps.
        let rate = Schedule::steps(vec![
            (SimTime::ZERO, Bitrate::from_mbps(2)),
            (SimTime::from_secs(1), Bitrate::from_kbps(500)),
        ]);
        let cfg =
            LinkConfig::clean(Bitrate::from_mbps(2), SimDuration::ZERO).with_rate_schedule(rate);
        let mut l = mk_link(cfg);
        // 1000 wire bytes at 2 Mbps = 4 ms.
        assert_eq!(
            l.offer(SimTime::ZERO, &packet(972)),
            Transmit::Deliver(SimTime::from_millis(4))
        );
        // Same packet after the step: 16 ms at 500 Kbps.
        assert_eq!(
            l.offer(SimTime::from_secs(2), &packet(972)),
            Transmit::Deliver(SimTime::from_secs(2) + SimDuration::from_millis(16))
        );
    }

    #[test]
    fn jitter_adds_nonnegative_delay() {
        let cfg = LinkConfig::clean(Bitrate::from_mbps(10), SimDuration::from_millis(20))
            .with_jitter(SimDuration::from_millis(50));
        let mut l = mk_link(cfg);
        let base = SimTime::from_millis(20); // delay + ~0 serialization
        let mut total_extra = 0.0;
        let n = 2_000;
        for i in 0..n {
            let now = SimTime::from_secs(i);
            match l.offer(now, &packet(10)) {
                Transmit::Deliver(at) => {
                    let extra = at.saturating_since(now + (base - SimTime::ZERO));
                    total_extra += extra.as_secs_f64();
                }
                _ => panic!("clean link must deliver"),
            }
        }
        let mean_extra = total_extra / n as f64;
        // Mean extra delay ≈ serialization (~30 µs) + 50 ms jitter.
        assert!((mean_extra - 0.050).abs() < 0.01, "mean extra {mean_extra}");
    }

    #[test]
    fn schedule_lookup() {
        let s = Schedule::steps(vec![
            (SimTime::from_secs(10), 2u32),
            (SimTime::ZERO, 1u32),
            (SimTime::from_secs(20), 3u32),
        ]);
        assert_eq!(s.at(SimTime::ZERO), 1);
        assert_eq!(s.at(SimTime::from_secs(9)), 1);
        assert_eq!(s.at(SimTime::from_secs(10)), 2);
        assert_eq!(s.at(SimTime::from_secs(100)), 3);
    }

    #[test]
    fn full_duplication_delivers_two_copies() {
        let cfg = LinkConfig::clean(Bitrate::from_mbps(10), SimDuration::from_millis(5))
            .with_duplicate(1.0);
        let mut l = mk_link(cfg);
        match l.offer(SimTime::ZERO, &packet(100)) {
            Transmit::DeliverDup(first, second) => assert!(second >= first),
            other => panic!("expected a duplicated delivery, got {other:?}"),
        }
        assert_eq!(l.stats.duplicated, 1);
        assert_eq!(l.stats.delivered, 2);
    }

    #[test]
    fn statistical_duplication_rate() {
        let cfg =
            LinkConfig::clean(Bitrate::from_mbps(100), SimDuration::ZERO).with_duplicate(0.25);
        let mut l = mk_link(cfg);
        let n = 10_000u64;
        for i in 0..n {
            l.offer(SimTime::from_millis(i), &packet(100));
        }
        let rate = l.stats.duplicated as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed duplication {rate}");
    }

    #[test]
    fn reordering_requires_opt_in() {
        let jittery = LinkConfig::clean(Bitrate::from_mbps(100), SimDuration::from_millis(10))
            .with_jitter(SimDuration::from_millis(30));
        let arrivals = |cfg: LinkConfig| {
            let mut l = mk_link(cfg);
            (0..500u64)
                .map(|i| match l.offer(SimTime::from_millis(i), &packet(100)) {
                    Transmit::Deliver(at) => at,
                    other => panic!("clean link must deliver, got {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let fifo = arrivals(jittery.clone());
        assert!(fifo.windows(2).all(|w| w[0] <= w[1]), "FIFO link must stay monotone");
        let reordered = arrivals(jittery.with_reorder());
        assert!(
            reordered.windows(2).any(|w| w[0] > w[1]),
            "reorder-enabled jittery link should produce at least one inversion"
        );
    }

    #[test]
    fn blocked_link_drops_everything_and_heals() {
        let mut l = mk_link(LinkConfig::clean(Bitrate::from_mbps(10), SimDuration::from_millis(5)));
        assert!(matches!(l.offer(SimTime::ZERO, &packet(100)), Transmit::Deliver(_)));
        l.config_mut().blocked = true;
        assert_eq!(l.offer(SimTime::from_millis(1), &packet(100)), Transmit::DropLoss);
        assert_eq!(l.offer(SimTime::from_millis(2), &packet(100)), Transmit::DropLoss);
        assert_eq!(l.stats.dropped_loss, 2);
        assert_eq!(l.stats.enqueued, 1, "blocked packets never reach the queue");
        // Healing the partition restores delivery.
        l.config_mut().blocked = false;
        assert!(matches!(l.offer(SimTime::from_millis(3), &packet(100)), Transmit::Deliver(_)));
    }

    #[test]
    fn zero_rate_link_is_dead_not_hung() {
        let cfg = LinkConfig::clean(Bitrate::from_mbps(1), SimDuration::ZERO)
            .with_rate_schedule(Schedule::constant(Bitrate::ZERO));
        let mut l = mk_link(cfg);
        assert_eq!(l.offer(SimTime::ZERO, &packet(100)), Transmit::DropQueue);
    }
}
