//! The ratchet: per-root and per-crate ceilings from `LINT_BASELINE.txt`.
//!
//! One entry per line, `#` starts a comment:
//!
//! ```text
//! root <hot-path label> <max alloc sites>
//! crate <crate> <max concurrency findings>
//! ```
//!
//! A root entry fails when the root's cone has more allocation sites than
//! its ceiling, or when the root is missing from the scan. A crate entry
//! counts concurrency findings, allowed ones included, so pragma'd debt
//! cannot grow silently; crates without an entry have a ceiling of 0, and
//! an entry naming a crate the concurrency pass never scanned is stale.
//! Entries whose ceiling is above the current count are reported as slack
//! so the ceiling can be lowered.

use crate::report::Report;
use std::collections::BTreeSet;

/// The baseline's file name at the workspace root.
pub const BASELINE_FILE: &str = "LINT_BASELINE.txt";

/// Check `report` against the baseline `text`, recording problems in
/// `report.ratchet` and slack in `report.slack`. `crates` are the crates
/// the concurrency pass scanned.
pub fn check(text: &str, crates: &BTreeSet<&str>, report: &mut Report) {
    let mut listed: BTreeSet<&str> = BTreeSet::new();
    let mut entries = 0usize;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let entry = match parts[..] {
            [kind @ ("root" | "crate"), name, max] => {
                max.parse::<usize>().ok().map(|m| (kind, name, m))
            }
            _ => None,
        };
        let Some((kind, name, max)) = entry else {
            report.ratchet.push(format!(
                "{BASELINE_FILE}:{}: expected `root <label> <max>` or `crate <name> <max>`, got `{line}`",
                n + 1
            ));
            continue;
        };
        entries += 1;
        let (count, what) = if kind == "root" {
            let Some(root) = report.roots.iter().find(|r| r.label == name) else {
                report.ratchet.push(format!(
                    "root `{name}` is missing from the scan — was its hot_path marker removed?"
                ));
                continue;
            };
            (root.alloc_sites, "alloc site(s)")
        } else {
            if !crates.contains(name) {
                report.ratchet.push(format!(
                    "crate `{name}` is not in the concurrency scan — remove its stale entry"
                ));
                continue;
            }
            listed.insert(name);
            (report.per_crate.get(name).copied().unwrap_or(0), "finding(s)")
        };
        if count > max {
            report.ratchet.push(format!(
                "{kind} `{name}` has {count} {what}, above its ratchet ceiling of {max}"
            ));
        } else if count < max {
            report.slack.push(format!(
                "{kind} `{name}` has {count} {what}, below its ceiling of {max} — lower it"
            ));
        }
    }
    if entries == 0 {
        report.ratchet.push(format!("{BASELINE_FILE}: no ratchet entries found"));
    }
    for (krate, count) in &report.per_crate {
        if !listed.contains(krate.as_str()) && *count > 0 {
            report.ratchet.push(format!(
                "crate `{krate}` has {count} finding(s), above its ratchet ceiling of 0"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RootReport;

    fn report() -> Report {
        let mut r = Report::default();
        r.roots.push(RootReport {
            root: "a::tick".to_string(),
            label: "tick".to_string(),
            reachable_fns: 1,
            panic_sites: 0,
            documented_invariants: 0,
            alloc_sites: 2,
        });
        r.per_crate.insert("bench".to_string(), 3);
        r
    }

    fn run(text: &str) -> Report {
        let mut r = report();
        check(text, &BTreeSet::from(["bench", "cluster"]), &mut r);
        r
    }

    #[test]
    fn exact_ceilings_hold_without_slack() {
        let r = run("# comment\nroot tick 2\ncrate bench 3 # trailing\ncrate cluster 0\n");
        assert!(r.ratchet.is_empty(), "{:?}", r.ratchet);
        assert!(r.slack.is_empty(), "{:?}", r.slack);
    }

    #[test]
    fn exceeded_and_implicit_zero_ceilings_fail() {
        let r = run("root tick 1\n");
        assert_eq!(r.ratchet.len(), 2, "{:?}", r.ratchet);
        assert!(r.ratchet[0].contains("root `tick` has 2 alloc site(s)"));
        assert!(r.ratchet[1].contains("crate `bench` has 3 finding(s)"));
    }

    #[test]
    fn missing_root_and_stale_crate_are_errors() {
        let r = run("root gone 5\ncrate bench 3\ncrate retired 0\nroot tick 2\n");
        assert_eq!(r.ratchet.len(), 2, "{:?}", r.ratchet);
        assert!(r.ratchet[0].contains("root `gone` is missing"));
        assert!(r.ratchet[1].contains("crate `retired` is not in the concurrency scan"));
    }

    #[test]
    fn ceilings_above_the_count_are_listed_as_slack() {
        let r = run("root tick 5\ncrate bench 4\ncrate cluster 0\n");
        assert!(r.ratchet.is_empty(), "{:?}", r.ratchet);
        assert_eq!(r.slack.len(), 2, "{:?}", r.slack);
        assert!(r.slack[0].contains("root `tick` has 2 alloc site(s), below its ceiling of 5"));
        assert!(r.slack[1].contains("crate `bench` has 3 finding(s), below its ceiling of 4"));
    }

    #[test]
    fn malformed_lines_are_errors() {
        let r = run("root tick 2\ncrate bench\nbench 3\nroot tick many\n");
        let malformed: Vec<&String> =
            r.ratchet.iter().filter(|p| p.starts_with("LINT_BASELINE.txt:")).collect();
        assert_eq!(malformed.len(), 3, "{:?}", r.ratchet);
        assert!(malformed[0].starts_with("LINT_BASELINE.txt:2:"));
        assert!(malformed[1].contains("got `bench 3`"));
    }

    #[test]
    fn an_empty_baseline_is_an_error() {
        let r = run("# nothing but comments\n");
        assert!(r.ratchet.iter().any(|p| p.contains("no ratchet entries")));
    }
}
