//! Selective-forwarding-unit building blocks (the media-plane "accessing
//! node" logic, §3) plus the non-GSO baseline policies.
//!
//! * [`selector`] — per-subscriber layer selection from a local downlink
//!   view: the traditional largest-fit policy and the two competitor
//!   baselines of Fig. 8.
//! * [`template`] — publisher-side template policies (what to push given
//!   only the local uplink estimate) for the same baselines.
//! * [`switcher`] — keyframe-aligned layer switching.
//!
//! The full accessing-node network entity is assembled in `gso-sim`, where
//! these pieces are wired to the packet simulator, the bandwidth estimator
//! and the control plane, and where the inter-node relay routes (which peer
//! access nodes need each locally published stream) are kept.

pub mod selector;
pub mod switcher;
pub mod template;

pub use selector::{
    LargestFitSelector, OfferedLayer, PassthroughSelector, StreamSelector, TwoLevelSelector,
};
pub use switcher::LayerSwitcher;
pub use template::{layers_for, TemplateKind, TemplateLayer, NON_GSO_LAYERS};
