//! gso-lint — the workspace's hot-path analyzer.
//!
//! The workspace builds offline with no `syn`, so this is a hand-rolled
//! token-level tool. It parses every crate's `src/` tree and the root
//! facade's `src/` once into a shared source model (masked source,
//! functions with call expressions, panic/alloc sites, an approximate call
//! graph) and checks the four rules no other check in the build enforces:
//!
//! * `hot-panic` and `hot-alloc` — panic freedom and allocation discipline
//!   on everything reachable from declared hot-path roots;
//! * `metric-key` — every telemetry recording call names a `keys::` const;
//! * `unit-hygiene` — no bare-primitive bitrate declarations.
//!
//! The determinism bans (hash-ordered collections, host clocks, locks,
//! threads and channels) are `disallowed-types` and `disallowed-methods`
//! entries in the workspace `clippy.toml`, exempted per item by a reasoned
//! `#[expect]`.
//!
//! Exemptions here use one grammar: `// lint: allow(rule, reason = "…")`,
//! plus the `// lint: hot_path(label)` and `// lint: cold_path(reason =
//! "…")` markers. Every workspace scan also checks the per-root ceilings in
//! [`BASELINE_FILE`]. The `lint` binary exits nonzero on any violation; CI
//! gates on it and archives the JSON report (see DESIGN.md "Static
//! analysis").

mod baseline;
mod hot_path;
mod pragma;
mod report;
mod srcmodel;

pub use baseline::BASELINE_FILE;
pub use hot_path::RULES;
pub use report::{Finding, PragmaError, Report, RootReport};

use pragma::Directive;
use srcmodel::ParsedFile;
use std::collections::BTreeMap;
use std::path::Path;

/// Scan the workspace at `root`, then check the ratchet in
/// [`BASELINE_FILE`].
///
/// # Errors
/// Propagates I/O failures reading the source tree, the manifests or the
/// baseline.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = srcmodel::parse_workspace(root)?;
    let deps = srcmodel::workspace_deps(root)?;
    let mut report = analyze(&files, &deps);
    let path = root.join(BASELINE_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    baseline::check(&text, &mut report);
    Ok(report)
}

/// Scan a fixture corpus: every `.rs` file under `dir`, each its own
/// crate, with no ratchet.
///
/// # Errors
/// Propagates I/O failures reading the directory.
pub fn scan_fixtures(dir: &Path) -> std::io::Result<Report> {
    let files = srcmodel::parse_fixtures(dir)?;
    Ok(analyze(&files, &BTreeMap::new()))
}

/// A parsed `allow` pragma and whether a finding used it.
struct Pragma<'a> {
    file: &'a str,
    line: usize,
    allow: pragma::Allow,
    used: bool,
}

/// Run the rules over `files` and apply the pragmas.
fn analyze(files: &[ParsedFile], deps: &BTreeMap<String, Vec<String>>) -> Report {
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut markers = Vec::new();
    for pf in files {
        for (line, text) in &pf.comments {
            match pragma::parse_comment(text) {
                None => {}
                Some(Err(message)) => report.pragma_errors.push(PragmaError {
                    file: pf.file.clone(),
                    line: *line,
                    message,
                }),
                Some(Ok(Directive::Allow(allow))) => {
                    pragmas.push(Pragma { file: &pf.file, line: *line, allow, used: false });
                }
                Some(Ok(Directive::Marker(marker))) => markers.push((pf, *line, marker)),
            }
        }
    }

    hot_path::run(files, deps, &markers, &mut report);

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
    }
    for p in pragmas {
        let message = match p.allow.malformed {
            Some(msg) => msg,
            None if !p.used => format!(
                "unused pragma: no `{}` finding on this or the next line — remove it",
                p.allow.rule
            ),
            None => continue,
        };
        report.pragma_errors.push(PragmaError { file: p.file.to_string(), line: p.line, message });
    }
    report.pragma_errors.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Analyze a single in-memory file, as `test.rs`.
#[cfg(test)]
fn analyze_source(src: &str) -> Report {
    let files = [srcmodel::parse::parse_file("test.rs", "test", &[], src)];
    analyze(&files, &BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hot root whose one allocation sits under `pragma` (a whole line,
    /// or empty) and ends its line with `trailing`.
    fn rooted_push(pragma: &str, trailing: &str) -> String {
        format!("// lint: hot_path(t)\nfn f(v: &mut Vec<u32>) {{\n{pragma}\n    v.push(1);{trailing}\n}}\n")
    }

    #[test]
    fn pragma_on_preceding_line_allows_with_reason() {
        let src = rooted_push("    // lint: allow(hot-alloc, reason = \"reused buffer\")", "");
        let r = analyze_source(&src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].allowed);
        assert_eq!(r.findings[0].reason.as_deref(), Some("reused buffer"));
        assert_eq!(r.violation_count(), 0);
    }

    #[test]
    fn pragma_on_same_line_allows() {
        let src = rooted_push("", " // lint: allow(hot-alloc, reason = \"bench\")");
        let r = analyze_source(&src);
        assert_eq!(r.violation_count(), 0);
        assert!(r.findings[0].allowed);
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let r = analyze_source(&rooted_push("    // lint: allow(hot-alloc)", ""));
        // A malformed pragma never exempts, so the finding stays unallowed
        // AND the pragma itself is an error.
        assert_eq!(r.unallowed().len(), 1);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("reason"));
    }

    #[test]
    fn unknown_rule_and_unused_pragmas_are_violations() {
        let r = analyze_source("// lint: allow(bogus-rule, reason = \"x\")\n");
        assert!(r.pragma_errors[0].message.contains("unknown rule"));
        let r = analyze_source("// lint: allow(hot-alloc, reason = \"x\")\nfn f() {}\n");
        assert!(r.pragma_errors[0].message.contains("unused"));
    }

    #[test]
    fn doc_comments_and_path_mentions_never_register() {
        let src = "/// // lint: allow(bogus, reason = \"doc example\")\n\
                   //! lint: allow(hot-alloc, reason = \"inner doc\")\n\
                   /// lint: hot_path(doc)\n\
                   // see gso_lint::pragma and lint::scan_workspace\n\
                   // lint::pragma is the grammar module\n\
                   fn f() {}\n";
        let r = analyze_source(src);
        assert_eq!(r.violation_count(), 0, "{:?}", r.pragma_errors);
        assert!(r.roots.is_empty());
    }

    #[test]
    fn unrecognized_directive_is_a_violation() {
        let r = analyze_source("// lint: deny(hot-alloc)\nfn f() {}\n");
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("unrecognized lint directive"));
    }

    #[test]
    fn json_report_shape() {
        let r = analyze_source(&rooted_push("", ""));
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"files_scanned\": 1,\n  \"violations\": 1,"));
        assert!(json.contains("\"rule\": \"hot-alloc\""));
        assert!(json.ends_with("  \"ratchet\": [\n  ]\n}\n"));
    }
}
