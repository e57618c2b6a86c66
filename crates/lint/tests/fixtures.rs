//! Fixture-corpus self-tests: each known-bad file must produce exactly the
//! findings it was written to produce — rule, file AND line — so a parser
//! or rule regression that silently stops firing fails CI here even though
//! the workspace scan (which gates on zero violations) would still pass.

use gso_lint::Report;
use std::path::Path;
use std::sync::OnceLock;

fn fixture_report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/hot-path");
        gso_lint::scan_fixtures(&dir).expect("fixture corpus scans")
    })
}

/// Assert an unallowed finding exists at this exact (file, line, rule).
fn assert_finding(file: &str, line: usize, rule: &str) {
    let r = fixture_report();
    assert!(
        r.findings.iter().any(|f| f.file == file && f.line == line && f.rule == rule && !f.allowed),
        "expected unallowed `{rule}` finding at {file}:{line}; got: {:#?}",
        r.findings
    );
}

/// Findings of one corpus file.
fn findings_in(file: &str) -> Vec<&'static gso_lint::Finding> {
    fixture_report().findings.iter().filter(|f| f.file == file).collect()
}

/// Pragma-error messages of one corpus file, in line order.
fn pragma_errors_in(file: &str) -> Vec<(usize, &'static str)> {
    let errors = fixture_report().pragma_errors.iter().filter(|e| e.file == file);
    errors.map(|e| (e.line, e.message.as_str())).collect()
}

/// Unallowed findings plus pragma errors in the corpus.
fn corpus_violations() -> usize {
    let r = fixture_report();
    r.unallowed().len() + r.pragma_errors.len()
}

#[test]
fn corpus_is_scanned_without_a_ratchet() {
    let r = fixture_report();
    assert_eq!(r.files_scanned, 6);
    assert!(r.ratchet.is_empty(), "fixture scans have no ratchet");
}

#[test]
fn hot_panic_fixture_flags_unwrap_index_and_panic_macro() {
    assert_finding("hot_panic.rs", 5, "hot-panic"); // .unwrap()
    assert_finding("hot_panic.rs", 6, "hot-panic"); // xs[1]
    assert_finding("hot_panic.rs", 8, "hot-panic"); // panic!()
}

#[test]
fn hot_alloc_fixture_flags_ctor_and_push() {
    assert_finding("hot_alloc.rs", 7, "hot-alloc"); // out.push(x)
    assert_finding("hot_alloc.rs", 9, "hot-alloc"); // Arc::new(out)
                                                    // An empty `Vec::new()` never allocates; its growth is the push.
    assert!(
        !findings_in("hot_alloc.rs").iter().any(|f| f.line == 5),
        "Vec::new() was wrongly flagged"
    );
}

#[test]
fn metric_key_fixture_flags_literal_name_only() {
    assert_finding("metric_key.rs", 7, "metric-key");
    // The `keys::GOOD_METRIC` call on line 6 must NOT fire.
    assert!(
        !findings_in("metric_key.rs").iter().any(|f| f.line == 6),
        "keys:: const call was wrongly flagged"
    );
}

#[test]
fn unit_hygiene_fixture_flags_field_param_and_let() {
    assert_finding("unit_hygiene.rs", 6, "unit-hygiene"); // field
    assert_finding("unit_hygiene.rs", 10, "unit-hygiene"); // param
    assert_finding("unit_hygiene.rs", 11, "unit-hygiene"); // let
}

#[test]
fn call_graph_reaches_panic_two_calls_below_root() {
    // `leaf` has no marker of its own; the finding exists only because
    // the BFS walked root -> middle -> leaf.
    assert_finding("two_deep.rs", 14, "hot-panic");
    let f = findings_in("two_deep.rs");
    let f = f.iter().find(|f| f.line == 14).expect("two-deep finding present");
    assert_eq!(f.function, "two_deep::leaf");
    let r = fixture_report();
    let root = r.roots.iter().find(|root| root.label == "fx-deep").expect("fx-deep root");
    assert_eq!(root.reachable_fns, 3, "root + middle + leaf");
    assert_eq!(root.panic_sites, 1);
}

#[test]
fn pragma_errors_cover_unknown_rule_missing_reason_and_unused() {
    let errors = pragma_errors_in("pragma_bad.rs");
    let err_at = |line: usize, needle: &str| {
        assert!(
            errors.iter().any(|(l, m)| *l == line && m.contains(needle)),
            "expected pragma error at pragma_bad.rs:{line} containing {needle:?}; got {errors:#?}"
        );
    };
    err_at(4, "unknown rule");
    err_at(7, "reason");
    err_at(10, "unused pragma");
}

#[test]
fn fixture_corpus_is_a_nonzero_exit_for_the_binary() {
    // 10 rule findings + 3 pragma errors; the binary exits nonzero
    // whenever this count is nonzero, so the corpus guards the CI gate.
    assert_eq!(corpus_violations(), 13);
    assert!(fixture_report().findings.iter().all(|f| !f.allowed));
}

#[test]
fn per_root_alloc_counts_are_reported() {
    let r = fixture_report();
    let root = r.roots.iter().find(|root| root.label == "fx-alloc").expect("fx-alloc root");
    assert_eq!(root.alloc_sites, 2);
    assert_eq!(root.panic_sites, 0);
}
