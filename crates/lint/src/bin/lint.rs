//! `lint` — the workspace static analysis CLI.
//!
//! ```text
//! lint [--root <dir>] [--fixtures <dir>] [--json]
//! ```
//!
//! Scans the workspace at `--root` (default: the current directory) with
//! the hot-path rules and checks the ratchet in its `LINT_BASELINE.txt`.
//! `--fixtures <dir>` scans a seeded-bug corpus instead, which CI requires
//! to fail.
//! `--json` prints the machine-readable report instead of the human
//! summary. Exits 1 on any violation, 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lint [--root <dir>] [--fixtures <dir>] [--json]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut fixtures: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            flag @ ("--root" | "--fixtures") => {
                let Some(v) = args.next() else {
                    eprintln!("lint: {flag} requires a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                if flag == "--root" {
                    root = PathBuf::from(v);
                } else {
                    fixtures = Some(PathBuf::from(v));
                }
            }
            other => {
                eprintln!("lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match &fixtures {
        Some(dir) => gso_lint::scan_fixtures(dir),
        None => gso_lint::scan_workspace(&root),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        println!("lint: {} file(s) scanned", report.files_scanned);
        for r in &report.roots {
            println!(
                "  root {} [{}]: {} reachable fn(s), {} panic site(s), {} documented invariant(s), {} alloc site(s)",
                r.root, r.label, r.reachable_fns, r.panic_sites, r.documented_invariants, r.alloc_sites
            );
        }
        for f in report.findings.iter().filter(|f| f.allowed) {
            let reason = f.reason.as_deref().unwrap_or("<none>");
            println!(
                "  allowed  {}:{} [{}] {} — reason: {reason}",
                f.file, f.line, f.rule, f.trigger
            );
        }
        for f in report.unallowed() {
            let in_fn =
                if f.function.is_empty() { String::new() } else { format!(" in {}", f.function) };
            println!(
                "  VIOLATION {}:{} [{}] {}{in_fn}\n    {}",
                f.file, f.line, f.rule, f.trigger, f.snippet
            );
        }
        for e in &report.pragma_errors {
            println!("  VIOLATION {}:{} [directive] {}", e.file, e.line, e.message);
        }
        for p in &report.ratchet {
            println!("  VIOLATION [ratchet] {p}");
        }
        for s in &report.slack {
            println!("  slack    {s}");
        }
        println!(
            "lint: {} finding(s), {} allowed, {} violation(s)",
            report.findings.len(),
            report.findings.iter().filter(|f| f.allowed).count(),
            report.violation_count()
        );
    }

    if report.violation_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
