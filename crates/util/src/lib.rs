//! Foundation types shared by every GSO-Simulcast crate.
//!
//! All simulation components in this workspace are deterministic and
//! event-driven. This crate provides the primitives that make that possible:
//!
//! * [`time`] — microsecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]); there is no wall-clock anywhere in the simulator.
//! * [`bitrate`] — a strongly-typed [`Bitrate`] in bits per second, used for
//!   stream configurations, link capacities and estimator outputs alike.
//! * [`ids`] — newtype identifiers for clients, SSRCs and media streams.
//! * [`rng`] — seed-derived deterministic random number generation so that
//!   every experiment is exactly reproducible from a scenario seed.
//! * [`stats`] — sample sets (percentiles, CDFs) and time-series recorders
//!   used by the metric pipeline.
//! * [`digest`] — the [`StateDigest`](digest::StateDigest) trait with a
//!   portable, seed-free 64-bit [`StableHasher`](digest::StableHasher), so
//!   every layer (solver solutions and traces, controller state, simulator
//!   event queue, telemetry export) can be fingerprinted per tick, and
//!   [`first_divergence`](digest::first_divergence), which walks two
//!   recorded runs to the first tick where they disagree.

pub mod bitrate;
pub mod digest;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use bitrate::Bitrate;
pub use ids::{ClientId, Ssrc, StreamKind};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
