//! GSO-Simulcast — a from-scratch Rust reproduction of
//! *"GSO-Simulcast: Global Stream Orchestration in Simulcast Video
//! Conferencing Systems"* (SIGCOMM '22).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`algo`] — the Knapsack–Merge–Reduction control algorithm (the paper's
//!   core contribution), exact brute-force baseline, ladders and QoE model,
//!   and the solver postconditions ([`algo::audit`]) that debug builds check
//!   at the controller's trust boundary.
//! * [`rtp`] — RTP/RTCP wire formats including the paper's SEMB and
//!   orchestration TMMBR/TMMBN (GTMB/GTBN) messages.
//! * [`net`] — deterministic discrete-event packet network simulator.
//! * [`media`] — simulcast encoders, packetization, receive pipeline, and
//!   the paper's stall/framerate/quality metrics.
//! * [`bwe`] — GCC-style sender-side bandwidth estimation with probing.
//! * [`sfu`] — selective-forwarding building blocks and baseline policies.
//! * [`control`] — conference node, GSO controller, feedback execution.
//! * [`sim`] — the full-system harness and the per-figure experiment
//!   drivers.
//! * [`telemetry`] — deterministic per-conference metrics/event registry
//!   with stable JSON export.
//! * [`util`] — simulated time, bitrates, deterministic RNG, statistics,
//!   and the stable state digests behind the double-run determinism gates.
//!
//! See `examples/quickstart.rs` for a three-line tour. The CI gates
//! (`check audit`, `metrics`, `digest` and `chaos`) and the regeneration
//! of every table and figure in the paper's evaluation (`check repro`,
//! `check solver-scale`) are the `gso-check` crate's binary, which this
//! facade does not re-export.

pub use gso_algo as algo;
pub use gso_bwe as bwe;
pub use gso_control as control;
pub use gso_media as media;
pub use gso_net as net;
pub use gso_rtp as rtp;
pub use gso_sfu as sfu;
pub use gso_sim as sim;
pub use gso_telemetry as telemetry;
pub use gso_util as util;
