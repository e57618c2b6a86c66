//! The CI front-end: one subcommand per gate.
//!
//! ```text
//! check audit                       # solve + audit every replay scenario
//! check metrics                     # the same replay, telemetry JSON only
//! check digest                      # double-run solver/batch digests
//! check chaos [--smoke] [--seed N]  # the §7 fault-plan matrix
//! ```
//!
//! Each gate exits nonzero when it fails; an unknown subcommand or flag
//! exits 2 with the usage line.

use gso_check::cli::{self, Command, USAGE};
use gso_check::{chaos, replay};
use std::process::ExitCode;

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Audit) => replay::audit(),
        Ok(Command::Metrics) => replay::metrics(),
        Ok(Command::Digest) => replay::digest(),
        Ok(Command::Chaos { smoke, seed }) => chaos::run_matrix(smoke, seed),
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
