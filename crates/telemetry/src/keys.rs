//! Static metric keys and histogram bound sets.
//!
//! Every metric name in the workspace lives here so the inventory is
//! greppable in one place and names cannot drift between recording sites
//! and experiment drivers. Dynamic cardinality (client ids, link
//! endpoints, scenario names) goes in the *label* dimension, never the
//! name. The full inventory with semantics is documented in DESIGN.md
//! ("Observability").

// ---------------------------------------------------------------------
// Controller (gso-control): orchestration rounds and §4.3 delivery.
// ---------------------------------------------------------------------

/// Counter — completed orchestration rounds (one per controller solve).
pub const CTRL_SOLVES: &str = "ctrl.solves";
/// Counter — rounds served by the §7 fallback policy instead of the solver.
pub const CTRL_FALLBACK_ROUNDS: &str = "ctrl.fallback_rounds";
/// Histogram — Knapsack–Merge–Reduction iterations per round
/// (bounds: [`ITERATION_BOUNDS`]).
pub const CTRL_SOLVE_ITERATIONS: &str = "ctrl.solve.iterations";
/// Histogram — DP class-rows recomputed per round: the deterministic
/// work/latency proxy for a solve (bounds: [`WORK_BOUNDS`]). The sim has
/// no wall clock, so solve "latency" is measured in the solver's dominant
/// cost unit (see DESIGN.md).
pub const CTRL_SOLVE_ROWS: &str = "ctrl.solve.rows_recomputed";
/// Counter — per-round layer-configuration changes (from `SolutionDiff`).
pub const CTRL_CHURN_LAYERS: &str = "ctrl.churn.layer_changes";
/// Counter — per-round subscriber switch changes (from `SolutionDiff`).
pub const CTRL_CHURN_SWITCHES: &str = "ctrl.churn.switch_changes";
/// Gauge — total QoE of the most recent solution.
pub const CTRL_QOE: &str = "ctrl.qoe_total";

/// Counter — transitions into §7 fallback (any cause).
pub const CTRL_FALLBACK_ENTERED: &str = "fallback.entered";
/// Counter — transitions out of §7 fallback back to full solving.
pub const CTRL_FALLBACK_EXITED: &str = "fallback.exited";
/// Histogram — controller-restart → first full (non-fallback) solution,
/// in milliseconds (bounds: [`RECOVERY_MS_BOUNDS`]).
pub const CTRL_RECOVERY_TIME_MS: &str = "recovery.time_ms";
/// Counter — solve rounds skipped by the deadline watchdog because the
/// engine's work proxy overran its budget (served by fallback instead).
pub const CTRL_DEADLINE_OVERRUNS: &str = "ctrl.deadline_overruns";
/// Counter — GTMB messages rejected by a client because they carried a
/// stale controller epoch (label: client).
pub const EPOCH_STALE_REJECTED: &str = "epoch.stale_rejected";
/// Counter — duplicate GTMB deliveries re-acked idempotently without
/// re-applying the configuration (label: client).
pub const EPOCH_DUP_REACKED: &str = "epoch.dup_reacked";

/// Counter — fresh GTMB configuration messages sent (label: client).
pub const GTMB_SENT: &str = "gtmb.sent";
/// Counter — GTMB retransmissions (label: client).
pub const GTMB_RETRANSMITS: &str = "gtmb.retransmits";
/// Counter — GTBN acknowledgements accepted (label: client).
pub const GTMB_ACKED: &str = "gtmb.acked";
/// Counter — clients handed to the failure path after exhausting the
/// retransmission budget (label: client).
pub const GTMB_FAILED: &str = "gtmb.failed";

// ---------------------------------------------------------------------
// Bandwidth estimation (gso-bwe). Label: path ("up:<client>"/"down:<client>").
// ---------------------------------------------------------------------

/// Gauge — current bandwidth estimate in bps.
pub const BWE_ESTIMATE_BPS: &str = "bwe.estimate_bps";
/// Counter — transitions into the overuse state.
pub const BWE_OVERUSE: &str = "bwe.overuse_transitions";
/// Counter — multiplicative decreases applied.
pub const BWE_DECREASES: &str = "bwe.decreases";
/// Counter — probe-validated capacity lifts.
pub const BWE_PROBE_LIFTS: &str = "bwe.probe_lifts";

// ---------------------------------------------------------------------
// SFU forwarding plane (gso-sfu / access nodes). Label: subscriber.
// ---------------------------------------------------------------------

/// Histogram — layer-switch request → keyframe-landing latency in µs
/// (bounds: [`LATENCY_US_BOUNDS`]).
pub const SFU_SWITCH_LATENCY_US: &str = "sfu.switch_latency_us";
/// Counter — media bytes forwarded to a subscriber.
pub const SFU_FORWARDED_BYTES: &str = "sfu.forwarded_bytes";
/// Counter — media bytes withheld from a subscriber (no selection, or
/// waiting for a keyframe to land a pending switch).
pub const SFU_DROPPED_BYTES: &str = "sfu.dropped_bytes";

// ---------------------------------------------------------------------
// Network (gso-net). Label: "n<from>->n<to>". Snapshotted from LinkStats.
// ---------------------------------------------------------------------

/// Counter — packets enqueued on a link.
pub const NET_ENQUEUED: &str = "net.link.enqueued";
/// Counter — packets dropped at the queue limit.
pub const NET_DROPPED_QUEUE: &str = "net.link.dropped_queue";
/// Counter — packets dropped by random loss.
pub const NET_DROPPED_LOSS: &str = "net.link.dropped_loss";
/// Counter — payload bytes delivered.
pub const NET_DELIVERED_BYTES: &str = "net.link.delivered_bytes";
/// Gauge — high-watermark of queued bytes over the run.
pub const NET_PEAK_QUEUE_BYTES: &str = "net.link.peak_queue_bytes";

// ---------------------------------------------------------------------
// Media rendering (gso-media aggregates, snapshotted per client).
// ---------------------------------------------------------------------

/// Counter — frames rendered at a receiving client (label: client).
pub const MEDIA_FRAMES_RENDERED: &str = "media.frames_rendered";
/// Counter — media bytes rendered at a receiving client (label: client).
pub const MEDIA_BYTES_RENDERED: &str = "media.bytes_rendered";
/// Counter — keyframes rendered at a receiving client (label: client).
pub const MEDIA_KEYFRAMES_RENDERED: &str = "media.keyframes_rendered";

// ---------------------------------------------------------------------
// Solver replay (`check metrics`). Label: scenario name.
// ---------------------------------------------------------------------

/// Counter — scenarios replayed through the solver.
pub const AUDIT_SCENARIOS: &str = "audit.scenarios";
/// Histogram — iterations per scenario solve (bounds: [`ITERATION_BOUNDS`]).
pub const AUDIT_SOLVE_ITERATIONS: &str = "audit.solve.iterations";
/// Histogram — DP rows recomputed per scenario solve
/// (bounds: [`WORK_BOUNDS`]).
pub const AUDIT_SOLVE_ROWS: &str = "audit.solve.rows_recomputed";
/// Gauge — total QoE of a scenario's solution (label: scenario).
pub const AUDIT_QOE: &str = "audit.qoe_total";

// ---------------------------------------------------------------------
// Event kinds.
// ---------------------------------------------------------------------

/// Event — the controller entered or left §7 fallback mode.
pub const EV_FALLBACK: &str = "fallback";
/// Event — a client exhausted its GTMB retransmission budget.
pub const EV_GTMB_FAILED: &str = "gtmb_failed";
/// Event — a bandwidth estimator transitioned into overuse.
pub const EV_BWE_OVERUSE: &str = "bwe_overuse";
/// Event — a probe validated extra capacity.
pub const EV_BWE_PROBE: &str = "bwe_probe";
/// Event — a pending layer switch landed on a keyframe.
pub const EV_SWITCH_LANDED: &str = "switch_landed";
/// Event — the conference node's controller crashed (chaos injection).
pub const EV_CTRL_CRASH: &str = "ctrl_crash";
/// Event — the conference node's controller restarted and began resync.
pub const EV_CTRL_RESTART: &str = "ctrl_restart";

// ---------------------------------------------------------------------
// Histogram bound sets (inclusive upper bounds, strictly increasing).
// ---------------------------------------------------------------------

/// Bounds for latency histograms in microseconds: 1 ms … 10 s.
pub const LATENCY_US_BOUNDS: &[u64] =
    &[1_000, 5_000, 10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000];

/// Bounds for solver iteration counts (the paper's Fig. 6b tops out in
/// the low tens).
pub const ITERATION_BOUNDS: &[u64] = &[1, 2, 3, 5, 8, 13, 21, 34];

/// Bounds for solver work units (DP class-rows recomputed per solve).
pub const WORK_BOUNDS: &[u64] = &[0, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Bounds for recovery-time histograms in milliseconds: one controller
/// scheduling interval up to well past the 3 s maximum solve gap.
pub const RECOVERY_MS_BOUNDS: &[u64] = &[100, 250, 500, 1_000, 2_000, 3_000, 5_000, 10_000, 30_000];
