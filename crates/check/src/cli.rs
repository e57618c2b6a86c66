//! The `check` binary's argument parser: one subcommand per gate, plus the
//! paper's evaluation printers.

use crate::repro::Target;

/// The usage line printed by `--help` and on a parse error.
pub const USAGE: &str = "usage: check audit | check metrics | check digest \
                         | check chaos [--smoke] [--seed N] \
                         | check repro <table1|fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|fig11|fig12|ablations|all> \
                         | check solver-scale [--smoke]";

/// One parsed `check` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Solve and audit every replay scenario.
    Audit,
    /// The same replay, printing only the telemetry JSON export.
    Metrics,
    /// Double-run digest comparison of the solver and batch schedulers.
    Digest,
    /// The §7 fault-plan matrix.
    Chaos {
        /// Run the CI subset instead of the full matrix.
        smoke: bool,
        /// Seed of the fault plans and the simulated conference.
        seed: u64,
    },
    /// Print one piece of the paper's evaluation; `None` prints every
    /// target in [`Target::ALL`] order.
    Repro(Option<Target>),
    /// Time the solve engine at the Fig. 6c shapes.
    SolverScale {
        /// Run the CI shape and write the smoke report.
        smoke: bool,
    },
    /// Print the usage line.
    Help,
}

/// Parse the arguments after the program name. An unknown subcommand,
/// flag or `repro` target, a missing subcommand or target, or a `--seed`
/// without an integer is an error carrying the reason.
///
/// # Errors
/// Returns the reason the arguments do not form a command.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let Some(sub) = args.next() else {
        return Err("missing subcommand".into());
    };
    let mut command = match sub.as_str() {
        "audit" => Command::Audit,
        "metrics" => Command::Metrics,
        "digest" => Command::Digest,
        "chaos" => Command::Chaos { smoke: false, seed: 7 },
        "repro" => match args.next().as_deref() {
            Some("all") => Command::Repro(None),
            Some("--help" | "-h") => return Ok(Command::Help),
            Some(name) => match Target::from_name(name) {
                Some(target) => Command::Repro(Some(target)),
                None => return Err(format!("unknown repro target {name}")),
            },
            None => return Err("repro needs a target".into()),
        },
        "solver-scale" => Command::SolverScale { smoke: false },
        "--help" | "-h" => return Ok(Command::Help),
        other => return Err(format!("unknown subcommand {other}")),
    };
    while let Some(arg) = args.next() {
        match (&mut command, arg.as_str()) {
            (_, "--help" | "-h") => return Ok(Command::Help),
            (Command::Chaos { smoke, .. } | Command::SolverScale { smoke }, "--smoke") => {
                *smoke = true;
            }
            (Command::Chaos { seed, .. }, "--seed") => {
                *seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--seed needs an integer".to_string())?;
            }
            (_, other) => return Err(format!("unknown argument {other} for {sub}")),
        }
    }
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::{parse, Command, Target, USAGE};

    fn run(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn each_subcommand_parses() {
        assert_eq!(run(&["audit"]), Ok(Command::Audit));
        assert_eq!(run(&["metrics"]), Ok(Command::Metrics));
        assert_eq!(run(&["digest"]), Ok(Command::Digest));
        assert_eq!(run(&["chaos"]), Ok(Command::Chaos { smoke: false, seed: 7 }));
        assert_eq!(run(&["chaos", "--smoke"]), Ok(Command::Chaos { smoke: true, seed: 7 }));
        assert_eq!(
            run(&["chaos", "--seed", "42", "--smoke"]),
            Ok(Command::Chaos { smoke: true, seed: 42 })
        );
        assert_eq!(run(&["--help"]), Ok(Command::Help));
        assert_eq!(run(&["chaos", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn each_repro_target_parses() {
        for target in Target::ALL {
            assert_eq!(run(&["repro", target.name()]), Ok(Command::Repro(Some(target))));
            assert!(USAGE.contains(target.name()), "the usage line lists {}", target.name());
        }
        assert_eq!(run(&["repro", "all"]), Ok(Command::Repro(None)));
        assert_eq!(run(&["solver-scale"]), Ok(Command::SolverScale { smoke: false }));
        assert_eq!(run(&["solver-scale", "--smoke"]), Ok(Command::SolverScale { smoke: true }));
    }

    #[test]
    fn repro_needs_a_known_target() {
        assert_eq!(run(&["repro"]), Err("repro needs a target".into()));
        assert_eq!(run(&["repro", "fig13"]), Err("unknown repro target fig13".into()));
        assert!(run(&["repro", "fig8", "extra"]).is_err());
    }

    #[test]
    fn flags_belong_to_their_own_subcommand() {
        assert!(run(&["repro", "fig8", "--smoke"]).is_err(), "repro takes no flags");
        assert!(run(&["solver-scale", "--seed", "1"]).is_err(), "--seed belongs to chaos");
    }

    #[test]
    fn seed_needs_an_integer() {
        assert_eq!(run(&["chaos", "--seed"]), Err("--seed needs an integer".into()));
        assert_eq!(run(&["chaos", "--seed", "x"]), Err("--seed needs an integer".into()));
    }

    #[test]
    fn unknown_input_is_rejected() {
        assert!(run(&[]).is_err());
        assert!(run(&["--metrics"]).is_err(), "a flag is not a subcommand");
        assert!(run(&["audit", "--digst"]).is_err());
        assert!(run(&["metrics", "--smoke"]).is_err(), "chaos flags belong to chaos only");
        assert!(run(&["chaos", "--smok"]).is_err());
    }
}
