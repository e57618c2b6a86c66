//! Full-system conference simulation harness.
//!
//! Assembles the whole GSO-Simulcast stack — clients with simulcast
//! encoders and BWE, accessing nodes (SFUs), the conference node with the
//! GSO controller — on top of the deterministic packet simulator, and
//! provides the experiment drivers that regenerate every table and figure
//! of the paper's evaluation (see `experiments`).
//!
//! * [`client`] — the user-plane endpoint.
//! * [`access`] — the media-plane accessing node.
//! * [`conference`] — the control-plane conference node + controller.
//! * [`ctrl`] — the AN↔CN control-channel wire format.
//! * [`scenario`] — declarative scenario construction and execution.
//! * [`workloads`] — the slow-link impairment matrix (Table 2) and ladders.
//! * [`experiments`] — one driver per table/figure.
//! * [`deployment`] — the population model behind Fig. 10/11.

pub mod access;
pub mod client;
pub mod conference;
pub mod ctrl;
pub mod deployment;
pub mod experiments;
pub mod scenario;
pub mod workloads;

/// Telemetry label for the (single) conference shard in the simulation:
/// the conference nodes' failover counters and the access nodes' fence
/// record under it.
pub(crate) const SHARD_LABEL: &str = "s0";

pub use client::{ClientConfig, ClientNode, PolicyMode, SessionMetrics};
pub use scenario::{ClientScenario, Scenario, ScenarioResult, WiredConference};
