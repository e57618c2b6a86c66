//! Replay the chaos fault-plan matrix against the reference conference.
//!
//! Each plan is run twice (digest-identical double runs) and judged
//! against the §7 acceptance criteria: steady-state QoE within 1% of the
//! no-fault baseline, every controller restart recovered within the
//! documented bound, and an auditor-clean final configuration. Exits
//! non-zero if any plan fails.
//!
//! ```text
//! chaos [--smoke] [--seed N]
//! ```
//!
//! `--smoke` runs the reduced CI subset: controller outage + deadline
//! overrun on the standard conference, plus the failover subset
//! (`FaultPlan::failover_smoke`: shard crash + split brain) on the
//! standby-paired one — the only end-to-end gate on standby takeover and
//! zombie fencing. The default replays the full five-plan matrix plus all
//! four failover plans.

use gso_chaos::{check_plan, failover_scenario, run_plan};
use gso_chaos::{standard_clients, standard_scenario};
use gso_chaos::{Baseline, ChaosBounds, FaultPlan};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => {
                println!("usage: chaos [--smoke] [--seed N]");
                return ExitCode::SUCCESS;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let scenario = standard_scenario(seed);
    let clients = standard_clients();
    let bounds = ChaosBounds::default();
    let plans =
        if smoke { FaultPlan::smoke_matrix(seed) } else { FaultPlan::matrix(seed, &clients) };

    println!(
        "chaos matrix: seed {seed}, {} plan(s), qoe tolerance {:.1}%, recovery bound {} ms",
        plans.len(),
        bounds.qoe_tolerance * 100.0,
        bounds.recovery_ms
    );
    let baseline = run_plan(&scenario, &FaultPlan::baseline());
    let baseline = Baseline::from_outcome(&baseline, bounds.tail_window);
    println!(
        "baseline: orchestrated qoe {:.0}, tail media {:.0} bps",
        baseline.qoe, baseline.media_bps
    );

    let mut failed = 0;
    for plan in &plans {
        let verdict = check_plan(&scenario, baseline, plan, &bounds);
        println!("{}", verdict.row());
        if let Some(report) = &verdict.divergence {
            println!("{report}");
        }
        if !verdict.passed() {
            failed += 1;
        }
    }

    // Failover plans run against the standby-paired conference and are
    // judged against its own no-fault baseline (the heartbeats change the
    // wire mix, so the standard baseline is not the right reference).
    let failover = failover_scenario(seed);
    let failover_plans = if smoke {
        FaultPlan::failover_smoke(seed)
    } else {
        FaultPlan::failover_matrix(seed, &clients)
    };
    let fo_baseline = run_plan(&failover, &FaultPlan::baseline());
    let fo_baseline = Baseline::from_outcome(&fo_baseline, bounds.tail_window);
    println!(
        "failover baseline: orchestrated qoe {:.0}, tail media {:.0} bps",
        fo_baseline.qoe, fo_baseline.media_bps
    );
    for plan in &failover_plans {
        let verdict = check_plan(&failover, fo_baseline, plan, &bounds);
        println!("{}", verdict.row());
        if let Some(report) = &verdict.divergence {
            println!("{report}");
        }
        if !verdict.passed() {
            failed += 1;
        }
    }
    if failed > 0 {
        println!("{failed} plan(s) FAILED");
        ExitCode::FAILURE
    } else {
        println!("all plans passed");
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("chaos: {msg}\nusage: chaos [--smoke] [--seed N]");
    std::process::exit(2);
}
