//! gso-perfbench — one full-stack benchmark of gso-simulcast.
//!
//! ```text
//! gso-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (closed loop: each simulated event or fleet tick starts when
//! the previous one finishes; one process, at most two busy threads):
//!
//! * `impaired_adapt` — 6-party conference over two regions with a
//!   scripted capacity schedule on one downlink, loss on one uplink, jitter
//!   on another and a rotating speaker: the packet path (event loop,
//!   `Link::offer`, SFU fan-out and inter-region relay, RTP/RTCP) plus
//!   queue drops, BWE back-off, GTMB round trips, SFU layer switches and
//!   the control loop's reaction time.
//! * `fleet_churn` — 64 conferences × 20 parties driven through
//!   `ControllerFleet::tick_all` at 2 workers with no packet simulator:
//!   warm single-client deltas plus periodic join/leave churn.
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the instrumented variant that times each layer from
//! outside and prints the per-layer metrics. The last stdout line is the
//! JSON result; see `report.rs` for the metric catalogue.

mod alloc;
mod fleet;
mod report;
mod sim;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gso-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "gso-perfbench workload={} seed={} seconds={} trace={} host_parallelism={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let outcome = match args.workload.as_str() {
        "impaired_adapt" => sim::run(args.seed, args.seconds, args.traced),
        "fleet_churn" => fleet::run(args.seed, args.seconds, args.traced),
        other => {
            eprintln!("gso-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.emit(args.traced);
    ExitCode::SUCCESS
}
