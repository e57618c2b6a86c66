//! The analyzer's own acceptance gate: scanning the real workspace must
//! come back clean — zero unallowlisted findings in every pass, zero
//! pragma errors, the ratchet holding — and the allowlisted debt stays an
//! enumerable, reviewed set. CI enforces the same through the `lint`
//! binary; these tests keep it local.

use gso_lint::{Pass, Report};
use std::path::Path;
use std::sync::OnceLock;

fn workspace_report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        gso_lint::scan_workspace(&root).expect("workspace scans")
    })
}

/// Findings of `pass`, allowed or not.
fn findings_of(pass: Pass) -> Vec<&'static gso_lint::Finding> {
    let r = workspace_report();
    r.findings.iter().filter(|f| Pass::of_rule(&f.rule) == Some(pass)).collect()
}

#[test]
fn every_pass_scans_files_and_has_zero_violations() {
    let r = workspace_report();
    for pass in Pass::ALL {
        assert!(
            r.files_scanned.get(pass.name()).is_some_and(|&n| n > 0),
            "{} must actually cover the workspace",
            pass.name()
        );
        let unallowed: Vec<String> = findings_of(pass)
            .iter()
            .filter(|f| !f.allowed)
            .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.trigger))
            .collect();
        assert!(unallowed.is_empty(), "{} violations: {unallowed:#?}", pass.name());
    }
    assert!(r.pragma_errors.is_empty(), "pragma errors: {:#?}", r.pragma_errors);
    assert!(r.ratchet.is_empty(), "ratchet broken: {:#?}", r.ratchet);
    assert_eq!(r.violation_count(), 0);
}

#[test]
fn every_allowlisted_finding_carries_a_reason() {
    for f in workspace_report().findings.iter().filter(|f| f.allowed) {
        let reason = f.reason.as_deref().unwrap_or("");
        assert!(
            !reason.trim().is_empty(),
            "{}:{} rule {} is allowlisted without a justification",
            f.file,
            f.line,
            f.rule
        );
    }
}

#[test]
fn known_sanctioned_nondeterminism_sites_are_present_and_allowlisted() {
    // The workspace has exactly two sanctioned hazard classes in runtime
    // code: the batch scheduler's work-stealing plumbing and the Fig. 6
    // host-time stopwatch. If either disappears this test goes stale on
    // purpose — update it alongside the pragma so the allowlist stays a
    // reviewed, enumerable set.
    let allowed: Vec<(&str, &str)> = findings_of(Pass::Determinism)
        .iter()
        .filter(|f| f.allowed)
        .map(|f| (f.file.as_str(), f.rule.as_str()))
        .collect();
    assert!(
        allowed.iter().any(|(file, rule)| file.ends_with("batch.rs") && *rule == "unordered-merge"),
        "expected the batch-scheduler work-stealing pragma, got {allowed:?}"
    );
    assert!(
        allowed.iter().any(|(file, rule)| file.ends_with("fig6.rs") && *rule == "wall-clock"),
        "expected the Fig. 6 stopwatch pragma, got {allowed:?}"
    );
}

#[test]
fn allowed_concurrency_debt_matches_baseline() {
    let r = workspace_report();
    // The workspace has no concurrency findings, pragma'd or not: every
    // `crate` ceiling in LINT_BASELINE.txt is 0.
    assert!(r.per_crate.is_empty(), "{:?}", r.per_crate);
    assert_eq!(
        findings_of(Pass::Concurrency).len(),
        0,
        "new findings must be added to the baseline"
    );
    // No code path nests two locks: the batch pool keeps its deques and
    // shutdown flag behind one lock, and the batch sink and telemetry
    // registries lock alone.
    assert!(r.lock_edges.is_empty(), "nested locks: {:?}", r.lock_edges);
}
