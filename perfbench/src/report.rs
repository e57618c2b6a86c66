//! Metric catalogue, result assembly and the final JSON line.
//!
//! Every run prints the same metric set whatever the workload: all
//! end-to-end metrics when untraced, all per-layer metrics when traced. A
//! per-layer metric a workload does not exercise (node dispatch in the
//! packet-free fleet, fleet phases in the packet simulator) reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ms_per_client_s", "ms"),
    ("peak_rss_mb", "MB"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("solves_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit, what it should move)`. Measured by the
/// traced run, which wraps calls into each layer's public functions.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // gso-net event loop.
    ("net.events", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("net.events_per_s", "1/s", "wall_ms_per_client_s on impaired_adapt"),
    ("net.loop_self_ms", "ms", "wall_ms_per_client_s on impaired_adapt"),
    ("net.allocs_per_event", "count", "wall_ms_per_client_s on impaired_adapt"),
    // gso-net links.
    ("net.link.offers", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("net.link.offer_ns", "ns", "wall_ms_per_client_s on impaired_adapt"),
    ("net.link.dropped_queue", "count", "video_stall and adapt_ms on impaired_adapt"),
    ("net.link.dropped_loss", "count", "video_stall and adapt_ms on impaired_adapt"),
    ("net.link.peak_queue_bytes", "bytes", "video_stall and adapt_ms on impaired_adapt"),
    // gso-sim node dispatch.
    ("sim.client.calls", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.client.self_ms", "ms", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.client.ns_per_call", "ns", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.client.allocs_per_call", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.access.calls", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.access.self_ms", "ms", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.access.ns_per_call", "ns", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.access.allocs_per_call", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("sim.conf.calls", "count", "little: the controller is under 1% of impaired_adapt wall time"),
    ("sim.conf.self_ms", "ms", "little: the controller is under 1% of impaired_adapt wall time"),
    (
        "sim.conf.ns_per_call",
        "ns",
        "little: the controller is under 1% of impaired_adapt wall time",
    ),
    (
        "sim.conf.allocs_per_call",
        "count",
        "little: the controller is under 1% of impaired_adapt wall time",
    ),
    // gso-rtp.
    ("rtp.packets", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("rtp.parse_ns", "ns", "wall_ms_per_client_s on impaired_adapt"),
    ("rtcp.packets", "count", "wall_ms_per_client_s on impaired_adapt"),
    ("rtcp.parse_ns", "ns", "wall_ms_per_client_s on impaired_adapt"),
    // gso-bwe.
    ("bwe.overuse_transitions", "count", "adapt_ms and video_stall on impaired_adapt"),
    ("bwe.decreases", "count", "adapt_ms and video_stall on impaired_adapt"),
    ("bwe.probe_lifts", "count", "adapt_ms and video_stall on impaired_adapt"),
    // gso-sfu.
    ("sfu.switch_latency_us.count", "count", "adapt_ms and goodput_kbps on impaired_adapt"),
    ("sfu.switch_latency_us.p50", "us", "adapt_ms and goodput_kbps on impaired_adapt"),
    ("sfu.dropped_bytes", "bytes", "adapt_ms and goodput_kbps on impaired_adapt"),
    // gso-control in the simulator, and per fleet round.
    ("ctrl.solves", "count", "adapt_ms and fail_ratio on impaired_adapt"),
    ("gtmb.sent", "count", "adapt_ms and fail_ratio on impaired_adapt"),
    ("gtmb.retransmits", "count", "adapt_ms and fail_ratio on impaired_adapt"),
    ("ctrl.fallback_rounds", "count", "adapt_ms and fail_ratio on impaired_adapt"),
    // gso-control and gso-algo in the fleet (phases per warm tick).
    ("ctrl.prepare_ms", "ms", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("ctrl.prepare_allocs", "count", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("algo.solve_ms", "ms", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("algo.solve_allocs", "count", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("ctrl.commit_ms", "ms", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("ctrl.commit_allocs", "count", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("algo.batch_overhead_ms", "ms", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    // gso-algo engine work counters (fleet, or the simulator's controller).
    ("algo.knapsacks", "count", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("algo.full_hits", "count", "tick_p50_ms on fleet_churn"),
    ("algo.fresh_recomputes", "count", "tick_p95_ms on fleet_churn"),
    ("algo.rows_recomputed", "count", "tick_p50_ms and tick_p95_ms on fleet_churn"),
    ("algo.rows_reused", "count", "tick_p50_ms on fleet_churn"),
    ("algo.row_reuse_ratio", "ratio", "tick_p50_ms on fleet_churn"),
    // Quality the user sees: deterministic in simulated time for a seed.
    ("video_stall", "ratio", "quality on impaired_adapt"),
    ("framerate_fps", "fps", "quality on impaired_adapt"),
    ("goodput_kbps", "kbps", "quality on impaired_adapt"),
    ("adapt_ms", "ms", "control-loop reaction on impaired_adapt"),
    ("fail_ratio", "ratio", "failed operations on every workload"),
    // The trace itself.
    ("trace.wall_ms", "ms", "traced wall time of one run"),
    ("trace.self_sum_ms", "ms", "sum of the per-layer self times of one run"),
    ("trace.shim_ms", "ms", "tracing bookkeeping inside one run"),
    ("trace.overhead_pct", "%", "traced against untraced wall time"),
];

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (GTMB deliveries or controller rounds).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record the result of one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Print the notes, then the result object as the last stdout line.
    /// A failed check makes the whole run count as failed.
    pub fn emit(mut self, traced: bool) {
        let correct = self.failures.is_empty();
        if !correct {
            self.failed = self.attempted.max(1);
            self.attempted = self.failed;
        }
        for line in &self.notes {
            println!("{line}");
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let mut json = String::new();
        let mut first = true;
        let mut push = |name: &str, unit: &str, value: f64| {
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        };
        if traced {
            for &(name, unit, moves) in PER_LAYER {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                println!("  {name:<30} {value:>16.4} {unit:<6} -> {moves}");
                push(name, unit, value);
            }
        } else {
            for &(name, unit) in END_TO_END {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                println!("  {name:<30} {value:>16.4} {unit}");
                push(name, unit, value);
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Median of the samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) and the number of samples
/// strictly beyond it.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let idx = rank.min(v.len()) - 1;
    (v[idx], v.len() - idx - 1)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
