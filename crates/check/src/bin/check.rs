//! The CI front-end: one subcommand per gate.
//!
//! ```text
//! check audit                       # solve + audit every replay scenario
//! check metrics                     # the same replay, telemetry JSON only
//! check digest                      # double-run solver/batch digests
//! check chaos [--smoke] [--seed N]  # the §7 fault-plan matrix
//! check repro <target|all>          # print Table 1, a Fig. 6–12 or the ablations
//! check solver-scale [--smoke]      # time the solve engine at Fig. 6c shapes
//! ```
//!
//! Each gate exits nonzero when it fails; an unknown subcommand, flag or
//! `repro` target exits 2 with the usage line.

use gso_check::cli::{self, Command, USAGE};
use gso_check::repro::{self, Target};
use gso_check::{chaos, replay, solver_scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Audit) => replay::audit(),
        Ok(Command::Metrics) => replay::metrics(),
        Ok(Command::Digest) => replay::digest(),
        Ok(Command::Chaos { smoke, seed }) => chaos::run_matrix(smoke, seed),
        Ok(Command::Repro(target)) => {
            match target {
                Some(target) => repro::run(target),
                None => Target::ALL.into_iter().for_each(repro::run),
            }
            ExitCode::SUCCESS
        }
        Ok(Command::SolverScale { smoke }) => {
            solver_scale::run(smoke);
            ExitCode::SUCCESS
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
