//! Determinism guard for the GSO-Simulcast workspace.
//!
//! The centralized controller's whole value proposition — replayable
//! re-solves, bit-identical incremental solving, byte-stable telemetry
//! exports — rests on determinism. [`lint`] is a source-level
//! nondeterminism lint (the `detguard` binary) that walks the hot-path
//! crates and flags hazards: hash-ordered collections, wall-clock reads,
//! ambient randomness, float accumulation over unordered containers, and
//! unordered cross-thread merges. Every exemption needs an inline
//! `// detguard: allow(rule, reason = "…")` pragma carrying a justification.
//!
//! The lint is the static prong. The runtime prong — per-tick state digests
//! and double-run divergence bisection — lives in `gso_util::digest`, so
//! the runtime crates never link this analyzer. CI runs both.

pub mod lint;
