//! Fixture-corpus self-tests: each known-bad file must produce exactly the
//! findings it was written to produce — rule, file AND line — so a parser
//! or pass regression that silently stops firing fails CI here even though
//! the workspace scan (which gates on zero violations) would still pass.
//! Each pass has its own corpus directory and sees only that one.

use gso_lint::{Pass, Report};
use std::path::Path;
use std::sync::OnceLock;

fn fixture_report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        gso_lint::scan_fixtures(&dir).expect("fixture corpus scans")
    })
}

/// Assert an unallowed finding exists at this exact (file, line, rule) of
/// `pass`'s corpus.
fn assert_finding(pass: Pass, file: &str, line: usize, rule: &str) {
    let file = format!("{}/{file}", pass.name());
    let r = fixture_report();
    assert!(
        r.findings.iter().any(|f| f.file == file && f.line == line && f.rule == rule && !f.allowed),
        "expected unallowed `{rule}` finding at {file}:{line}; got: {:#?}",
        r.findings
    );
}

/// Findings of one corpus file.
fn findings_in(pass: Pass, file: &str) -> Vec<&'static gso_lint::Finding> {
    let file = format!("{}/{file}", pass.name());
    fixture_report().findings.iter().filter(|f| f.file == file).collect()
}

/// Pragma-error messages of one corpus file, in line order.
fn pragma_errors_in(pass: Pass, file: &str) -> Vec<(usize, &'static str)> {
    let file = format!("{}/{file}", pass.name());
    let errors = fixture_report().pragma_errors.iter().filter(|e| e.file == file);
    errors.map(|e| (e.line, e.message.as_str())).collect()
}

/// Unallowed findings plus pragma errors in one pass's corpus.
fn corpus_violations(pass: Pass) -> usize {
    let dir = format!("{}/", pass.name());
    let r = fixture_report();
    r.unallowed().iter().filter(|f| f.file.starts_with(&dir)).count()
        + r.pragma_errors.iter().filter(|e| e.file.starts_with(&dir)).count()
}

#[test]
fn each_pass_sees_only_its_own_corpus() {
    let r = fixture_report();
    for pass in Pass::ALL {
        let dir = format!("{}/", pass.name());
        assert!(
            r.findings
                .iter()
                .all(|f| Pass::of_rule(&f.rule) != Some(pass) || f.file.starts_with(&dir)),
            "{pass:?} fired outside {dir}"
        );
    }
    assert_eq!(r.files_scanned.get("determinism"), Some(&6));
    assert_eq!(r.files_scanned.get("hot-path"), Some(&6));
    assert!(r.ratchet.is_empty(), "fixture scans have no ratchet");
}

mod determinism {
    use super::*;
    const P: Pass = Pass::Determinism;

    #[test]
    fn every_rule_fires_at_its_seeded_line() {
        assert_finding(P, "hash_collection.rs", 4, "hash-collection"); // use
        assert_finding(P, "hash_collection.rs", 7, "hash-collection"); // HashMap::new
        assert_finding(P, "wall_clock.rs", 4, "wall-clock");
        assert_finding(P, "ambient_rand.rs", 4, "ambient-rand");
        assert_finding(P, "float_accum_unordered.rs", 4, "float-accum-unordered");
        assert_finding(P, "unordered_merge.rs", 6, "unordered-merge");
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let lines: Vec<usize> = findings_in(P, "wall_clock.rs").iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4], "the #[cfg(test)] stopwatch must not fire");
    }

    #[test]
    fn malformed_pragma_exempts_nothing_and_unused_pragma_is_an_error() {
        let errors = pragma_errors_in(P, "pragma_bad.rs");
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].0, 5);
        assert!(errors[0].1.contains("reason"));
        assert_eq!(errors[1].0, 10);
        assert!(errors[1].1.contains("unused pragma"));
        assert_finding(P, "pragma_bad.rs", 6, "wall-clock");
    }

    #[test]
    fn corpus_totals_are_pinned() {
        assert_eq!(corpus_violations(P), 11, "9 unallowed findings + 2 pragma errors");
        for rule in P.rules() {
            assert!(
                fixture_report().findings.iter().any(|f| f.rule == *rule),
                "rule `{rule}` never fired on the fixture corpus"
            );
        }
    }
}

mod hot_path {
    use super::*;
    const P: Pass = Pass::HotPath;

    #[test]
    fn hot_panic_fixture_flags_unwrap_index_and_panic_macro() {
        assert_finding(P, "hot_panic.rs", 5, "hot-panic"); // .unwrap()
        assert_finding(P, "hot_panic.rs", 6, "hot-panic"); // xs[1]
        assert_finding(P, "hot_panic.rs", 8, "hot-panic"); // panic!()
    }

    #[test]
    fn hot_alloc_fixture_flags_ctor_and_push() {
        assert_finding(P, "hot_alloc.rs", 7, "hot-alloc"); // out.push(x)
        assert_finding(P, "hot_alloc.rs", 9, "hot-alloc"); // Arc::new(out)
                                                           // An empty `Vec::new()` never allocates; its growth is the push.
        assert!(
            !findings_in(P, "hot_alloc.rs").iter().any(|f| f.line == 5),
            "Vec::new() was wrongly flagged"
        );
    }

    #[test]
    fn metric_key_fixture_flags_literal_name_only() {
        assert_finding(P, "metric_key.rs", 7, "metric-key");
        // The `keys::GOOD_METRIC` call on line 6 must NOT fire.
        assert!(
            !findings_in(P, "metric_key.rs").iter().any(|f| f.line == 6),
            "keys:: const call was wrongly flagged"
        );
    }

    #[test]
    fn unit_hygiene_fixture_flags_field_param_and_let() {
        assert_finding(P, "unit_hygiene.rs", 6, "unit-hygiene"); // field
        assert_finding(P, "unit_hygiene.rs", 10, "unit-hygiene"); // param
        assert_finding(P, "unit_hygiene.rs", 11, "unit-hygiene"); // let
    }

    #[test]
    fn call_graph_reaches_panic_two_calls_below_root() {
        // `leaf` has no marker of its own; the finding exists only because
        // the BFS walked root -> middle -> leaf.
        assert_finding(P, "two_deep.rs", 14, "hot-panic");
        let f = findings_in(P, "two_deep.rs");
        let f = f.iter().find(|f| f.line == 14).expect("two-deep finding present");
        assert_eq!(f.function, "two_deep::leaf");
        let r = fixture_report();
        let root = r.roots.iter().find(|root| root.label == "fx-deep").expect("fx-deep root");
        assert_eq!(root.reachable_fns, 3, "root + middle + leaf");
        assert_eq!(root.panic_sites, 1);
    }

    #[test]
    fn pragma_errors_cover_unknown_rule_missing_reason_and_unused() {
        let errors = pragma_errors_in(P, "pragma_bad.rs");
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
        assert_eq!(corpus_violations(P), 13);
        assert!(fixture_report().findings.iter().all(|f| !f.allowed));
    }

    #[test]
    fn per_root_alloc_counts_are_reported() {
        let r = fixture_report();
        let root = r.roots.iter().find(|root| root.label == "fx-alloc").expect("fx-alloc root");
        assert_eq!(root.alloc_sites, 2);
        assert_eq!(root.panic_sites, 0);
    }
}

mod concurrency {
    use super::*;
    const P: Pass = Pass::Concurrency;

    #[test]
    fn lock_inversion_flags_both_sides_of_the_cycle() {
        // Direct: `forward` acquires beta while holding alpha.
        assert_finding(P, "lock_inversion.rs", 15, "lock-order");
        // Transitive: `backward` holds beta and reaches alpha two calls
        // deep, so the witness is the `middle(p)` call site.
        assert_finding(P, "lock_inversion.rs", 21, "lock-order");
        let cyclic: Vec<(&str, &str)> = fixture_report()
            .lock_edges
            .iter()
            .filter(|e| e.cyclic)
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        assert_eq!(cyclic, vec![("alpha", "beta"), ("beta", "alpha")]);
    }

    #[test]
    fn hold_and_block_fires_direct_and_through_callee() {
        // Direct: channel recv under the state lock.
        assert_finding(P, "hold_and_block.rs", 16, "hold-and-block");
        // Indirect: `relock` holds state and calls `backoff`, which sleeps.
        assert_finding(P, "hold_and_block.rs", 23, "hold-and-block");
        assert!(
            findings_in(P, "hold_and_block.rs")
                .iter()
                .any(|f| f.line == 23 && f.trigger.contains("backoff")),
            "the callee that blocks must be named in the trigger"
        );
    }

    #[test]
    fn condvar_wait_holding_second_lock_is_hold_and_block() {
        // The wait releases its own guard (`st`) but keeps `aux` locked.
        assert_finding(P, "wait_second_lock.rs", 22, "hold-and-block");
        // The waited-on guard itself is exempt and the wait is in a
        // `while`, so this is the file's only finding.
        assert_eq!(
            findings_in(P, "wait_second_lock.rs").len(),
            1,
            "own-guard wait in a while loop must not add findings"
        );
        // aux -> state is a legal (acyclic) order edge, recorded but not
        // flagged.
        let edges = &fixture_report().lock_edges;
        assert!(edges.iter().any(|e| e.from == "aux" && e.to == "state" && !e.cyclic));
    }

    #[test]
    fn if_guarded_condvar_wait_is_flagged() {
        assert_finding(P, "condvar_if.rs", 20, "condvar-predicate");
        assert_eq!(
            findings_in(P, "condvar_if.rs").len(),
            1,
            "waiting on your own guard is not hold-and-block"
        );
    }

    #[test]
    fn atomics_policy_flags_relaxed_and_wrong_direction() {
        // Bare Relaxed always needs a pragma.
        assert_finding(P, "atomics_relaxed.rs", 12, "atomics-policy");
        // Acquire on a store is the wrong direction.
        assert_finding(P, "atomics_relaxed.rs", 16, "atomics-policy");
        // Acquire on a load is fine.
        assert!(!findings_in(P, "atomics_relaxed.rs").iter().any(|f| f.line == 20));
        // The census sees every ordering use, violating or not.
        assert_eq!(fixture_report().atomics.get("Acquire"), Some(&2));
    }

    #[test]
    fn guard_across_await_is_flagged() {
        assert_finding(P, "guard_across_await.rs", 25, "guard-across-yield");
    }

    #[test]
    fn pragma_abuse_is_three_distinct_errors() {
        let msgs: Vec<&str> =
            pragma_errors_in(P, "pragma_bad.rs").into_iter().map(|e| e.1).collect();
        assert_eq!(msgs.len(), 3, "unknown rule, missing reason, unused: {msgs:?}");
        assert!(msgs[0].contains("unknown rule `atomic-sloppiness`"));
        assert!(msgs[1].contains("reason"));
        assert!(msgs[2].contains("unused pragma"));
        // A malformed pragma never exempts: both staged findings stay
        // violations.
        assert_finding(P, "pragma_bad.rs", 11, "atomics-policy");
        assert_finding(P, "pragma_bad.rs", 16, "atomics-policy");
    }

    #[test]
    fn corpus_totals_are_pinned() {
        assert_eq!(fixture_report().files_scanned.get("concurrency"), Some(&7));
        assert_eq!(
            corpus_violations(P),
            14,
            "11 unallowed findings + 3 pragma errors; update deliberately when the corpus changes"
        );
        // Every rule fires somewhere in the corpus.
        for rule in P.rules() {
            assert!(
                fixture_report().findings.iter().any(|f| f.rule == *rule),
                "rule `{rule}` never fired on the fixture corpus"
            );
        }
    }
}
