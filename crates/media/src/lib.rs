//! Simulated media pipeline: simulcast encoding, packetization, receive-side
//! reassembly/playout, and QoE metric models.
//!
//! This crate is the stand-in for real codecs and player pipelines
//! (documented substitution — the experiments measure which *bitrates* flow
//! and what stalls result, not pixel fidelity):
//!
//! * [`encoder`] — per-layer simulcast encoders with rate control, keyframe
//!   cadence, and GTMB-driven reconfiguration (including layer disable).
//! * [`frame`] — encoded frames and RTP packetization/fragmentation.
//! * [`receiver`] — reassembly, NACK-based loss recovery, keyframe
//!   resynchronization, in-order playout.
//! * [`audio`] — constant-bitrate audio source and the audio protection
//!   headroom (§7).
//! * [`metrics`] — the paper's stall and framerate definitions (footnotes
//!   9–10).
//! * [`quality`] — a parametric VMAF-like quality score.
//! * [`cost`] — the client CPU work-unit model behind Fig. 9.

pub mod audio;
pub mod cost;
pub mod encoder;
pub mod frame;
pub mod metrics;
pub mod quality;
pub mod receiver;

pub use audio::{AudioSource, AUDIO_BITRATE, AUDIO_PROTECTION};
pub use encoder::{LayerConfig, SimulcastEncoder};
pub use frame::{packetize, EncodedFrame, FragmentHeader, MTU_PAYLOAD};
pub use metrics::{VideoPlayback, VoicePlayback};
pub use quality::vmaf_proxy;
pub use receiver::{ReceiverOutput, RenderStats, RenderedFrame, StreamReceiver};
