//! gso-lint — the workspace's static analyzer.
//!
//! The workspace builds offline with no `syn`, so this is a hand-rolled
//! token-level tool. It parses the workspace once into a shared source
//! model (masked source, functions with call expressions, panic/alloc
//! sites, synchronization events, an approximate call graph) and runs
//! three passes over it, each on its own file scope:
//!
//! 1. **determinism** — nondeterminism sources the replayable re-solves
//!    must not touch;
//! 2. **hot-path** — panic freedom and allocation discipline on everything
//!    reachable from declared roots, plus metric-key and bitrate-unit
//!    hygiene;
//! 3. **concurrency** — lock order, blocking under a guard, condvar
//!    predicate loops, atomics policy, guards across await.
//!
//! Exemptions use one grammar: `// lint: allow(rule, reason = "…")`, plus
//! the hot-path pass's `// lint: hot_path(label)` and `// lint:
//! cold_path(reason = "…")` markers. Every workspace scan also checks the
//! per-root and per-crate ceilings in [`BASELINE_FILE`]. The `lint` binary exits
//! nonzero on any violation; CI gates on it and archives the JSON report
//! (see DESIGN.md "Static analysis").

mod baseline;
mod concurrency;
mod determinism;
mod hot_path;
mod pragma;
mod report;
mod srcmodel;

pub use baseline::BASELINE_FILE;
pub use report::{Finding, LockEdge, PragmaError, Report, RootReport};

use pragma::{Directive, Marker};
use srcmodel::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The three passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Nondeterminism sources.
    Determinism,
    /// Hot-path panics and allocations, metric-key and unit hygiene.
    HotPath,
    /// Concurrency discipline.
    Concurrency,
}

impl Pass {
    /// Every pass, in report order.
    pub const ALL: [Pass; 3] = [Pass::Determinism, Pass::HotPath, Pass::Concurrency];

    /// The pass name: its `files_scanned` key and its fixture directory.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Determinism => "determinism",
            Pass::HotPath => "hot-path",
            Pass::Concurrency => "concurrency",
        }
    }

    /// The pass's rule identifiers (disjoint across passes).
    #[must_use]
    pub fn rules(self) -> &'static [&'static str] {
        match self {
            Pass::Determinism => determinism::RULES,
            Pass::HotPath => hot_path::RULES,
            Pass::Concurrency => concurrency::RULES,
        }
    }

    /// Whether the pass scans the workspace file at root-relative `path`.
    #[must_use]
    pub fn scans(self, path: &str) -> bool {
        match self {
            Pass::Determinism => determinism::scans(path),
            Pass::HotPath => hot_path::scans(path),
            Pass::Concurrency => concurrency::scans(path),
        }
    }

    /// The pass owning `rule`, if any.
    #[must_use]
    pub fn of_rule(rule: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.rules().contains(&rule))
    }
}

/// `(crate, tree)` of a `crates/<crate>/<tree>/…` path.
fn crate_tree(path: &str) -> Option<(&str, &str)> {
    let mut parts = path.strip_prefix("crates/")?.splitn(3, '/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(krate), Some(tree), Some(_)) => Some((krate, tree)),
        _ => None,
    }
}

/// Scan the workspace at `root`: every pass over its scope, then the
/// ratchet in [`BASELINE_FILE`].
///
/// # Errors
/// Propagates I/O failures reading the source tree, the manifests or the
/// baseline.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = srcmodel::parse_workspace(root, |f| Pass::ALL.iter().any(|p| p.scans(f)))?;
    let deps = srcmodel::workspace_deps(root)?;
    let mut report = analyze(&files, &deps, Pass::scans);
    let path = root.join(BASELINE_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let crates: BTreeSet<&str> = files
        .iter()
        .filter(|f| Pass::Concurrency.scans(&f.file))
        .map(|f| f.krate.as_str())
        .collect();
    baseline::check(&text, &crates, &mut report);
    Ok(report)
}

/// Scan a fixture corpus: each pass sees only the files under the
/// subdirectory named after it, so no pass sees another's seeded bugs.
/// Each file is its own crate, and there is no ratchet.
///
/// # Errors
/// Propagates I/O failures reading the directory.
pub fn scan_fixtures(dir: &Path) -> std::io::Result<Report> {
    let files = srcmodel::parse_fixtures(dir)?;
    let in_dir = |pass: Pass, file: &str| {
        file.strip_prefix(pass.name()).is_some_and(|rest| rest.starts_with('/'))
    };
    Ok(analyze(&files, &BTreeMap::new(), in_dir))
}

/// A parsed `allow` pragma and whether a finding used it.
struct Pragma<'a> {
    file: &'a str,
    line: usize,
    allow: pragma::Allow,
    used: bool,
}

/// Run every pass over the files `scope` assigns it and apply the pragmas.
fn analyze(
    files: &[ParsedFile],
    deps: &BTreeMap<String, Vec<String>>,
    scope: impl Fn(Pass, &str) -> bool,
) -> Report {
    let mut report = Report::default();
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut markers: Vec<(&ParsedFile, usize, Marker)> = Vec::new();
    for pf in files {
        for (line, text) in &pf.comments {
            let error =
                |message: String| PragmaError { file: pf.file.clone(), line: *line, message };
            match pragma::parse_comment(text) {
                None => {}
                Some(Err(message)) => report.pragma_errors.push(error(message)),
                Some(Ok(Directive::Allow(allow))) => {
                    pragmas.push(Pragma { file: &pf.file, line: *line, allow, used: false });
                }
                Some(Ok(Directive::Marker(marker))) if scope(Pass::HotPath, &pf.file) => {
                    markers.push((pf, *line, marker));
                }
                Some(Ok(Directive::Marker(_))) => report.pragma_errors.push(error(
                    "lint marker in a file the hot-path pass does not scan".to_string(),
                )),
            }
        }
    }

    for pass in Pass::ALL {
        let scanned: Vec<&ParsedFile> = files.iter().filter(|f| scope(pass, &f.file)).collect();
        report.files_scanned.insert(pass.name(), scanned.len());
        match pass {
            Pass::Determinism => determinism::run(&scanned, &mut report),
            Pass::HotPath => hot_path::run(&scanned, deps, &markers, &mut report),
            Pass::Concurrency => concurrency::run(&scanned, deps, &mut report),
        }
    }

    report.findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.trigger == b.trigger
    });
    for f in &mut report.findings {
        let pragma = pragmas.iter_mut().find(|p| {
            p.allow.malformed.is_none()
                && p.file == f.file
                && p.allow.rule == f.rule
                && (p.line == f.line || p.line + 1 == f.line)
        });
        if let Some(p) = pragma {
            p.used = true;
            f.allowed = true;
            f.reason.clone_from(&p.allow.reason);
        }
        if Pass::of_rule(&f.rule) == Some(Pass::Concurrency) {
            *report.per_crate.entry(f.krate.clone()).or_insert(0) += 1;
        }
    }
    for p in pragmas {
        let message = match (p.allow.malformed, Pass::of_rule(&p.allow.rule)) {
            (Some(msg), _) => msg,
            (None, Some(pass)) if !scope(pass, p.file) => format!(
                "pragma for `{}` in a file the {} pass does not scan — remove it",
                p.allow.rule,
                pass.name()
            ),
            (None, _) if !p.used => format!(
                "unused pragma: no `{}` finding on this or the next line — remove it",
                p.allow.rule
            ),
            _ => continue,
        };
        report.pragma_errors.push(PragmaError { file: p.file.to_string(), line: p.line, message });
    }
    report.pragma_errors.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Run one pass over a single in-memory file, as `test.rs`.
#[cfg(test)]
fn analyze_source(pass: Pass, src: &str) -> Report {
    let files = [srcmodel::parse::parse_file("test.rs", "test", &[], src)];
    analyze(&files, &BTreeMap::new(), |p, _| p == pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_on_preceding_line_allows_with_reason() {
        let src =
            "// lint: allow(wall-clock, reason = \"host benchmark\")\nuse std::time::Instant;\n";
        let r = analyze_source(Pass::Determinism, src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].allowed);
        assert_eq!(r.findings[0].reason.as_deref(), Some("host benchmark"));
        assert_eq!(r.violation_count(), 0);
    }

    #[test]
    fn pragma_on_same_line_allows() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock, reason = \"bench\")\n";
        let r = analyze_source(Pass::Determinism, src);
        assert_eq!(r.violation_count(), 0);
        assert!(r.findings[0].allowed);
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let src = "// lint: allow(wall-clock)\nuse std::time::Instant;\n";
        let r = analyze_source(Pass::Determinism, src);
        // A malformed pragma never exempts, so the finding stays unallowed
        // AND the pragma itself is an error.
        assert_eq!(r.unallowed().len(), 1);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("reason"));
    }

    #[test]
    fn unknown_rule_and_unused_pragmas_are_violations() {
        let r = analyze_source(Pass::Determinism, "// lint: allow(bogus-rule, reason = \"x\")\n");
        assert!(r.pragma_errors[0].message.contains("unknown rule"));
        let r = analyze_source(Pass::Determinism, "// lint: allow(wall-clock, reason = \"x\")\n");
        assert!(r.pragma_errors[0].message.contains("unused"));
    }

    #[test]
    fn pragma_for_a_pass_that_skips_the_file_is_a_violation() {
        let src = "// lint: allow(hot-alloc, reason = \"x\")\nfn f() { let v = Vec::new(); }\n";
        let r = analyze_source(Pass::Determinism, src);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("the hot-path pass does not scan"));
        let r = analyze_source(Pass::Concurrency, "// lint: hot_path(x)\nfn f() {}\n");
        assert!(r.pragma_errors[0].message.contains("the hot-path pass does not scan"));
    }

    #[test]
    fn doc_comments_and_path_mentions_never_register() {
        let src = "/// // lint: allow(bogus, reason = \"doc example\")\n\
                   //! lint: allow(wall-clock, reason = \"inner doc\")\n\
                   /// lint: hot_path(doc)\n\
                   // see gso_lint::pragma and lint::scan_workspace\n\
                   // lint::pragma is the grammar module\n\
                   fn f() {}\n";
        for pass in Pass::ALL {
            let r = analyze_source(pass, src);
            assert_eq!(r.violation_count(), 0, "{pass:?}: {:?}", r.pragma_errors);
            assert!(r.roots.is_empty());
        }
    }

    #[test]
    fn unrecognized_directive_is_a_violation() {
        let r = analyze_source(Pass::HotPath, "// lint: deny(hot-alloc)\nfn f() {}\n");
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("unrecognized lint directive"));
    }

    #[test]
    fn scopes_match_the_pass_contracts() {
        let cases = [
            ("crates/algo/src/mckp.rs", [true, true, true]),
            ("crates/lint/src/lib.rs", [false, true, true]),
            ("crates/x/benches/y.rs", [false, false, true]),
            ("crates/algo/tests/merge_model.rs", [false, false, false]),
            ("src/lib.rs", [false, true, true]),
            ("tests/table1_reproduction.rs", [true, false, false]),
            ("examples/quickstart.rs", [true, false, true]),
        ];
        for (path, want) in cases {
            let got = Pass::ALL.map(|p| p.scans(path));
            assert_eq!(got, want, "{path}");
        }
    }

    #[test]
    fn json_report_shape() {
        let r = analyze_source(Pass::Determinism, "use std::time::Instant;\n");
        let json = r.to_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"rule\": \"wall-clock\""));
        assert!(json.contains("\"files_scanned\": {\n    \"concurrency\": 0,"));
        assert!(json.ends_with("  \"ratchet\": [\n  ]\n}\n"));
    }
}
