//! Deterministic discrete-event packet network simulator.
//!
//! Stands in for the real Internet paths of the paper's evaluation: directed
//! links with configurable rate (time-varying), propagation delay,
//! exponential jitter, i.i.d. loss, and drop-tail byte queues — the exact
//! impairment knobs of the slow-link test matrix (Table 2) and the
//! transient-response experiment (Fig. 7).
//!
//! * [`node`] — the [`node::Node`] trait, packets, and action sinks.
//! * [`link`] — link model and impairment [`link::Schedule`]s.
//! * [`sim`] — the [`sim::Simulator`] event loop.
//!
//! Everything is seeded and deterministic: the same scenario and seed yield
//! the same packet trace, byte for byte.

pub mod link;
pub mod node;
pub mod sim;

pub use link::{Link, LinkConfig, LinkStats, Schedule, Transmit};
pub use node::{Actions, Node, NodeId, Packet, UDP_IP_OVERHEAD};
pub use sim::Simulator;
