//! The GSO-Simulcast control plane.
//!
//! Implements the conference node and GSO controller of §3–4: assembling
//! the global picture from signaling and in-band reports, scheduling the
//! control algorithm at the production cadence, gating noisy bandwidth
//! measurements, executing solutions as reliable GTMB feedback, and
//! degrading gracefully on failure.
//!
//! * [`state`] — the global picture (codec caps, subscriptions, bandwidths).
//! * [`hysteresis`] — oscillation-avoidance bandwidth gate (§7).
//! * [`scheduler`] — 1–3 s control cadence with event triggers (Fig. 12).
//! * [`feedback`] — solution → GTMB/forwarding rules, with retransmission.
//! * [`failure`] — single-stream fallback (§7).
//! * [`sdp`] — SDP offer/answer with the custom `simulcastInfo` attribute
//!   and per-layer SSRC assignment (§4.2).
//! * [`controller`] — the composed [`controller::GsoController`].
//! * [`fleet`] — many controllers ticked as one batch on a shared
//!   persistent scheduler.

pub mod controller;
pub mod failure;
pub mod feedback;
pub mod fleet;
pub mod hysteresis;
pub mod scheduler;
pub mod sdp;
pub mod state;

pub use controller::{
    ControlOutput, ControllerConfig, Direction, GsoController, RoundContext, SolveOutcome, TickPrep,
};
pub use failure::fallback_solution;
pub use feedback::{FeedbackConfig, FeedbackExecutor, ForwardingRule};
pub use fleet::{ControllerFleet, FleetTick};
pub use hysteresis::{BandwidthHysteresis, HysteresisConfig};
pub use scheduler::{ControlScheduler, SchedulerConfig};
pub use sdp::{SdpAnswer, SdpError, SdpOffer};
pub use state::{ClientSnapshot, CodecCapability, GlobalPicture, SubscribeIntent};
