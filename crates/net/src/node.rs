//! Simulation nodes and the actions they emit.
//!
//! Components (clients, accessing nodes, the conference node) implement
//! [`Node`] in an event-driven, poll-free style: the simulator calls
//! `on_packet` / `on_timer`, and the node responds by pushing sends and
//! timer requests into an [`Actions`] sink. Nothing blocks; all state lives
//! in the node.

use bytes::Bytes;
use gso_util::{SimDuration, SimTime};
use std::any::Any;
use std::fmt;

/// Identifies a node attached to the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl gso_util::digest::StateDigest for NodeId {
    fn digest(&self, h: &mut gso_util::digest::StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

/// Per-packet UDP/IPv4 overhead in bytes, added to every payload when
/// computing link occupancy.
pub const UDP_IP_OVERHEAD: usize = 28;

/// A datagram in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Serialized payload (RTP or RTCP wire bytes).
    pub data: Bytes,
}

impl Packet {
    /// Wrap payload bytes.
    pub fn new(data: Bytes) -> Self {
        Packet { data }
    }

    /// Bytes this packet occupies on a link, including UDP/IP overhead.
    pub fn wire_size(&self) -> usize {
        self.data.len() + UDP_IP_OVERHEAD
    }
}

/// Side effects a node requests from the simulator.
#[derive(Debug, Default)]
pub struct Actions {
    pub(crate) sends: Vec<(NodeId, Packet)>,
    pub(crate) timers: Vec<(SimTime, u64)>,
}

impl Actions {
    /// The queued sends (exposed so node implementations can be unit-tested
    /// without a simulator).
    pub fn sends(&self) -> &[(NodeId, Packet)] {
        &self.sends
    }

    /// The queued timers.
    pub fn timers(&self) -> &[(SimTime, u64)] {
        &self.timers
    }
}

impl Actions {
    /// Queue a packet toward `dest` over the configured link.
    pub fn send(&mut self, dest: NodeId, packet: Packet) {
        self.sends.push((dest, packet));
    }

    /// Request a timer callback at absolute time `at` with an opaque token.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }

    /// Request a timer callback after `delay`.
    pub fn timer_in(&mut self, now: SimTime, delay: SimDuration, token: u64) {
        self.timers.push((now + delay, token));
    }

    /// True if no actions were emitted.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty()
    }
}

/// A component attached to the simulated network.
pub trait Node: Any {
    /// Called when a packet addressed to this node arrives.
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions);

    /// Called when a timer requested by this node fires.
    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions);

    /// Downcast support so harnesses can read node state after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_overhead() {
        let p = Packet::new(Bytes::from_static(&[0u8; 100]));
        assert_eq!(p.wire_size(), 128);
    }

    #[test]
    fn actions_accumulate() {
        let mut a = Actions::default();
        assert!(a.is_empty());
        a.send(NodeId(1), Packet::new(Bytes::new()));
        a.timer_in(SimTime::ZERO, SimDuration::from_millis(5), 7);
        assert_eq!(a.sends.len(), 1);
        assert_eq!(a.timers, vec![(SimTime::from_millis(5), 7)]);
    }
}
