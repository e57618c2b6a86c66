//! The discrete-event simulation driver.
//!
//! The [`Simulator`] owns all nodes and directed links, and advances
//! simulated time by draining a time-ordered event queue. Events are packet
//! deliveries and node timers; node callbacks emit new sends/timers through
//! [`crate::node::Actions`]. Ties in time are broken by insertion
//! order, so runs are fully deterministic.

use crate::link::{Link, LinkConfig, LinkStats, Transmit};
use crate::node::{Actions, Node, NodeId, Packet};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::{DetRng, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

enum EventKind {
    Deliver { from: NodeId, to: NodeId, packet: Packet },
    Timer { node: NodeId, token: u64 },
}

/// A queued event, ordered on `(at, seq)` only: `seq` is unique, so the
/// payload never takes part in a comparison.
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event-driven network simulator.
pub struct Simulator {
    now: SimTime,
    seed: u64,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// A `BTreeMap` on principle (lint rule `hash-collection`): it is
    /// iterated for exports and digests.
    links: BTreeMap<(NodeId, NodeId), Link>,
    /// Packets whose destination had no link/node; counted, not fatal.
    pub undeliverable: u64,
    /// The one action buffer every dispatch fills and
    /// [`Simulator::apply_actions`] drains, so a dispatch allocates nothing
    /// once it has grown to the largest burst.
    actions: Actions,
}

impl Simulator {
    /// Create a simulator; `seed` drives every random element (link loss,
    /// jitter) through per-link derived streams.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seed,
            next_seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            links: BTreeMap::new(),
            undeliverable: 0,
            actions: Actions::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attach a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        id
    }

    /// Create the directed link `from → to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) {
        let rng = DetRng::derive(self.seed, &format!("link-{}-{}", from.0, to.0));
        self.links.insert((from, to), Link::new(config, rng));
    }

    /// Create a symmetric pair of links with the same configuration.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link(a, b, config.clone());
        self.add_link(b, a, config);
    }

    /// Mutate a link's configuration (e.g. push an impairment step).
    pub fn link_config_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkConfig> {
        self.links.get_mut(&(from, to)).map(super::link::Link::config_mut)
    }

    /// A link's accumulated statistics.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.links.get(&(from, to)).map(|l| l.stats)
    }

    /// Statistics of every link, in `(from, to)` order. The backing map is a
    /// `BTreeMap`, so iteration order is deterministic by construction.
    pub fn all_link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        self.links.iter().map(|(&k, l)| (k, l.stats)).collect()
    }

    /// Schedule a timer for a node from outside (e.g. to bootstrap it).
    pub fn schedule_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        self.push_event(at, EventKind::Timer { node, token });
    }

    /// Inject a packet as if `from` had sent it toward `to` at the current
    /// time (used by tests and harness bootstrap).
    pub fn inject(&mut self, from: NodeId, to: NodeId, packet: Packet) {
        let now = self.now;
        self.route(now, from, to, packet);
    }

    /// Borrow a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes
            .get(id.0 as usize)
            .and_then(|n| n.as_ref())
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutably borrow a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id.0 as usize)
            .and_then(|n| n.as_mut())
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    /// Invoke a node callback directly and process its actions (used to
    /// bootstrap components before the clock starts).
    pub fn with_node_actions<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, SimTime, &mut Actions),
    {
        let Some(mut node) = self.nodes.get_mut(id.0 as usize).and_then(Option::take) else {
            return;
        };
        let mut out = std::mem::take(&mut self.actions);
        let now = self.now;
        f(node.as_mut(), now, &mut out);
        self.nodes[id.0 as usize] = Some(node);
        self.apply_actions(id, out);
    }

    /// Run until the queue is empty or `deadline` is reached. Events at
    /// exactly `deadline` are processed. Returns the number of events run.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            let Some(next) = self.queue.peek_mut() else { break };
            if next.0.at > deadline {
                break;
            }
            let Reverse(event) = PeekMut::pop(next);
            self.now = event.at;
            processed += 1;
            match event.kind {
                EventKind::Deliver { from, to, packet } => {
                    self.dispatch_packet(from, to, packet);
                }
                EventKind::Timer { node, token } => {
                    self.dispatch_timer(node, token);
                }
            }
        }
        // Even with no events left, time advances to the deadline.
        self.now = self.now.max(deadline);
        processed
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn dispatch_packet(&mut self, from: NodeId, to: NodeId, packet: Packet) {
        let Some(mut node) = self.nodes.get_mut(to.0 as usize).and_then(Option::take) else {
            self.undeliverable += 1;
            return;
        };
        let mut out = std::mem::take(&mut self.actions);
        node.on_packet(self.now, from, packet, &mut out);
        self.nodes[to.0 as usize] = Some(node);
        self.apply_actions(to, out);
    }

    fn dispatch_timer(&mut self, id: NodeId, token: u64) {
        let Some(mut node) = self.nodes.get_mut(id.0 as usize).and_then(Option::take) else {
            self.undeliverable += 1;
            return;
        };
        let mut out = std::mem::take(&mut self.actions);
        node.on_timer(self.now, token, &mut out);
        self.nodes[id.0 as usize] = Some(node);
        self.apply_actions(id, out);
    }

    /// Route the sends and queue the timers of one dispatch, in the order
    /// the node emitted them, then keep the emptied buffer for the next.
    fn apply_actions(&mut self, source: NodeId, mut out: Actions) {
        let now = self.now;
        for (dest, packet) in out.sends.drain(..) {
            self.route(now, source, dest, packet);
        }
        for (at, token) in out.timers.drain(..) {
            self.push_event(at.max(now), EventKind::Timer { node: source, token });
        }
        self.actions = out;
    }

    /// Stable digest of the simulator's observable state: the clock, the
    /// event-sequence counter, the undeliverable count, the pending event
    /// queue (as `(time, seq)` pairs in queue order), and every link's
    /// accumulated statistics. Two runs whose digests match at every tick
    /// processed the same events in the same order with the same outcomes.
    pub fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        self.now.digest(&mut h);
        h.write_u64(self.next_seq);
        h.write_u64(self.undeliverable);
        // BinaryHeap iteration order is unspecified; sort the snapshot.
        let mut pending: Vec<(SimTime, u64)> =
            self.queue.iter().map(|Reverse(e)| (e.at, e.seq)).collect();
        pending.sort_unstable();
        pending.digest(&mut h);
        h.write_len(self.links.len());
        for (&(from, to), link) in &self.links {
            from.digest(&mut h);
            to.digest(&mut h);
            link.stats.digest(&mut h);
        }
        h.finish()
    }

    fn route(&mut self, now: SimTime, from: NodeId, to: NodeId, packet: Packet) {
        let Some(link) = self.links.get_mut(&(from, to)) else {
            self.undeliverable += 1;
            return;
        };
        match link.offer(now, &packet) {
            Transmit::Deliver(at) => self.push_event(at, EventKind::Deliver { from, to, packet }),
            Transmit::DeliverDup(at, dup_at) => {
                self.push_event(at, EventKind::Deliver { from, to, packet: packet.clone() });
                self.push_event(dup_at, EventKind::Deliver { from, to, packet });
            }
            Transmit::DropQueue | Transmit::DropLoss => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gso_util::{Bitrate, SimDuration};
    use std::any::Any;

    /// Echoes every packet back to its sender and counts arrivals.
    struct Echo {
        received: Vec<(SimTime, usize)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl Echo {
        fn new() -> Self {
            Echo { received: Vec::new(), timers: Vec::new() }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions) {
            self.received.push((now, packet.data.len()));
            out.send(from, packet);
        }
        fn on_timer(&mut self, now: SimTime, token: u64, _out: &mut Actions) {
            self.timers.push((now, token));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `count` packets on a timer cadence and records echoes.
    struct Pinger {
        peer: NodeId,
        remaining: u32,
        echoes: Vec<SimTime>,
    }

    impl Node for Pinger {
        fn on_packet(&mut self, now: SimTime, _from: NodeId, _p: Packet, _out: &mut Actions) {
            self.echoes.push(now);
        }
        fn on_timer(&mut self, now: SimTime, _token: u64, out: &mut Actions) {
            if self.remaining > 0 {
                self.remaining -= 1;
                out.send(self.peer, Packet::new(Bytes::from(vec![0u8; 72])));
                out.timer_in(now, SimDuration::from_millis(20), 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn duplex(sim: &mut Simulator, a: NodeId, b: NodeId) {
        sim.add_duplex_link(
            a,
            b,
            LinkConfig::clean(Bitrate::from_mbps(10), SimDuration::from_millis(5)),
        );
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo::new()));
        let pinger = sim.add_node(Box::new(Pinger { peer: echo, remaining: 3, echoes: vec![] }));
        duplex(&mut sim, pinger, echo);
        sim.schedule_timer(pinger, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs(1));

        let p: &Pinger = sim.node(pinger).unwrap();
        assert_eq!(p.echoes.len(), 3);
        // 100 wire bytes at 10 Mbps = 80 µs each way + 2×5 ms propagation.
        assert_eq!(p.echoes[0], SimTime::from_micros(10_160));
        let e: &Echo = sim.node(echo).unwrap();
        assert_eq!(e.received.len(), 3);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo::new()));
        sim.schedule_timer(echo, SimTime::from_millis(10), 2);
        sim.schedule_timer(echo, SimTime::from_millis(5), 1);
        sim.schedule_timer(echo, SimTime::from_millis(10), 3);
        sim.run_until(SimTime::from_secs(1));
        let e: &Echo = sim.node(echo).unwrap();
        let tokens: Vec<u64> = e.timers.iter().map(|&(_, t)| t).collect();
        assert_eq!(tokens, vec![1, 2, 3], "ties break by insertion order");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo::new()));
        sim.schedule_timer(echo, SimTime::from_millis(5), 1);
        sim.schedule_timer(echo, SimTime::from_millis(50), 2);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        let fired = sim.node::<Echo>(echo).unwrap().timers.len();
        assert_eq!(fired, 1);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.node::<Echo>(echo).unwrap().timers.len(), 2);
    }

    #[test]
    fn dispatches_reuse_one_drained_action_buffer() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo::new()));
        let pinger = sim.add_node(Box::new(Pinger { peer: echo, remaining: 3, echoes: vec![] }));
        duplex(&mut sim, pinger, echo);
        sim.schedule_timer(pinger, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().echoes.len(), 3);
        assert!(sim.actions.is_empty(), "every dispatch's actions were applied");
        assert!(
            sim.actions.sends.capacity() > 0 && sim.actions.timers.capacity() > 0,
            "the buffer kept its capacity for the next dispatch"
        );
    }

    #[test]
    fn unlinked_destination_counts_undeliverable() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new()));
        let b = sim.add_node(Box::new(Echo::new()));
        sim.inject(a, b, Packet::new(Bytes::new()));
        assert_eq!(sim.undeliverable, 1);
    }

    #[test]
    fn state_digest_replays_and_detects_divergence() {
        let run = |extra_inject: bool| {
            let mut sim = Simulator::new(7);
            let echo = sim.add_node(Box::new(Echo::new()));
            let pinger =
                sim.add_node(Box::new(Pinger { peer: echo, remaining: 10, echoes: vec![] }));
            duplex(&mut sim, pinger, echo);
            sim.schedule_timer(pinger, SimTime::ZERO, 0);
            sim.run_until(SimTime::from_millis(500));
            if extra_inject {
                // Packet to an unlinked destination bumps `undeliverable`.
                sim.inject(echo, NodeId(99), Packet::new(Bytes::new()));
            }
            sim.run_until(SimTime::from_secs(1));
            sim.state_digest()
        };
        assert_eq!(run(false), run(false), "same run must digest identically");
        assert_ne!(run(false), run(true), "a diverging run must digest differently");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = Simulator::new(99);
            let echo = sim.add_node(Box::new(Echo::new()));
            let pinger =
                sim.add_node(Box::new(Pinger { peer: echo, remaining: 50, echoes: vec![] }));
            sim.add_duplex_link(
                pinger,
                echo,
                LinkConfig::clean(Bitrate::from_kbps(500), SimDuration::from_millis(30))
                    .with_loss(0.2)
                    .with_jitter(SimDuration::from_millis(10)),
            );
            sim.schedule_timer(pinger, SimTime::ZERO, 0);
            sim.run_until(SimTime::from_secs(10));
            sim.node::<Pinger>(pinger).unwrap().echoes.clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
