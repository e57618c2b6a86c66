//! The ratchet: per-root allocation-site ceilings from `LINT_BASELINE.txt`.
//!
//! One entry per line, `#` starts a comment:
//!
//! ```text
//! root <hot-path label> <max alloc sites>
//! ```
//!
//! An entry fails when the root's cone has more allocation sites than its
//! ceiling, or when the root is missing from the scan. Entries whose
//! ceiling is above the current count are reported as slack so the ceiling
//! can be lowered.

use crate::report::Report;

/// The baseline's file name at the workspace root.
pub const BASELINE_FILE: &str = "LINT_BASELINE.txt";

/// Check `report` against the baseline `text`, recording problems in
/// `report.ratchet` and slack in `report.slack`.
pub fn check(text: &str, report: &mut Report) {
    let mut entries = 0usize;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let entry = match parts[..] {
            ["root", name, max] => max.parse::<usize>().ok().map(|m| (name, m)),
            _ => None,
        };
        let Some((name, max)) = entry else {
            report.ratchet.push(format!(
                "{BASELINE_FILE}:{}: expected `root <label> <max>`, got `{line}`",
                n + 1
            ));
            continue;
        };
        entries += 1;
        let Some(root) = report.roots.iter().find(|r| r.label == name) else {
            report.ratchet.push(format!(
                "root `{name}` is missing from the scan — was its hot_path marker removed?"
            ));
            continue;
        };
        let count = root.alloc_sites;
        if count > max {
            report.ratchet.push(format!(
                "root `{name}` has {count} alloc site(s), above its ratchet ceiling of {max}"
            ));
        } else if count < max {
            report.slack.push(format!(
                "root `{name}` has {count} alloc site(s), below its ceiling of {max} — lower it"
            ));
        }
    }
    if entries == 0 {
        report.ratchet.push(format!("{BASELINE_FILE}: no ratchet entries found"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RootReport;

    fn run(text: &str) -> Report {
        let mut r = Report::default();
        r.roots.push(RootReport {
            root: "a::tick".to_string(),
            label: "tick".to_string(),
            reachable_fns: 1,
            panic_sites: 0,
            documented_invariants: 0,
            alloc_sites: 2,
        });
        check(text, &mut r);
        r
    }

    #[test]
    fn exact_ceilings_hold_without_slack() {
        let r = run("# comment\nroot tick 2 # trailing\n");
        assert!(r.ratchet.is_empty(), "{:?}", r.ratchet);
        assert!(r.slack.is_empty(), "{:?}", r.slack);
    }

    #[test]
    fn exceeded_ceilings_fail() {
        let r = run("root tick 1\n");
        assert_eq!(r.ratchet.len(), 1, "{:?}", r.ratchet);
        assert!(r.ratchet[0].contains("root `tick` has 2 alloc site(s)"));
    }

    #[test]
    fn missing_root_is_an_error() {
        let r = run("root gone 5\nroot tick 2\n");
        assert_eq!(r.ratchet.len(), 1, "{:?}", r.ratchet);
        assert!(r.ratchet[0].contains("root `gone` is missing"));
    }

    #[test]
    fn ceilings_above_the_count_are_listed_as_slack() {
        let r = run("root tick 5\n");
        assert!(r.ratchet.is_empty(), "{:?}", r.ratchet);
        assert_eq!(r.slack.len(), 1, "{:?}", r.slack);
        assert!(r.slack[0].contains("root `tick` has 2 alloc site(s), below its ceiling of 5"));
    }

    #[test]
    fn malformed_lines_are_errors() {
        let r = run("root tick 2\ncrate bench 0\nroot tick\nroot tick many\n");
        let malformed: Vec<&String> =
            r.ratchet.iter().filter(|p| p.starts_with("LINT_BASELINE.txt:")).collect();
        assert_eq!(malformed.len(), 3, "{:?}", r.ratchet);
        assert!(malformed[0].starts_with("LINT_BASELINE.txt:2:"));
        assert!(malformed[1].contains("got `root tick`"));
    }

    #[test]
    fn an_empty_baseline_is_an_error() {
        let r = run("# nothing but comments\n");
        assert!(r.ratchet.iter().any(|p| p.contains("no ratchet entries")));
    }
}
