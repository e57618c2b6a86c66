//! The analyzer's own acceptance gate: scanning the real workspace must
//! come back clean — zero unallowlisted findings, zero pragma errors, the
//! ratchet holding — and every exemption carries its reason. CI enforces
//! the same through the `lint` binary; these tests keep it local.

use gso_lint::Report;
use std::path::Path;
use std::sync::OnceLock;

fn workspace_report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        gso_lint::scan_workspace(&root).expect("workspace scans")
    })
}

#[test]
fn workspace_scan_covers_files_and_has_zero_violations() {
    let r = workspace_report();
    assert!(r.files_scanned > 0, "the scan must actually cover the workspace");
    let unallowed: Vec<String> = r
        .unallowed()
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.trigger))
        .collect();
    assert!(unallowed.is_empty(), "violations: {unallowed:#?}");
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
