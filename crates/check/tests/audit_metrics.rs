//! Golden check of the `check metrics` export: the replay's telemetry JSON
//! must equal `data/audit_metrics.json` byte for byte, so any change to a
//! replay scenario, the solver's work counts or its QoE shows up here.
//!
//! After an intended change, regenerate the file with
//! `cargo run -p gso-check --bin check -- metrics > crates/check/tests/data/audit_metrics.json`
//! and review the diff.

use gso_check::replay::metrics_export;

#[test]
fn metrics_export_matches_the_golden_file() {
    let (json, (failed, total)) = metrics_export();
    assert_eq!(failed, 0, "{failed} of {total} replay scenarios failed the audit");
    let golden = include_str!("data/audit_metrics.json");
    assert!(format!("{json}\n") == golden, "metrics export differs from the golden file:\n{json}");
}
