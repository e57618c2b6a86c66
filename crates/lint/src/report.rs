//! Findings, per-root summaries, and the one JSON report.
//!
//! The JSON is hand-rolled with stable key order (no serde in the offline
//! build) so CI can diff reports across runs, matching the telemetry
//! export conventions.

use crate::srcmodel::ParsedFile;
use std::fmt::Write as _;

/// One rule hit, exempted or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Scan-root-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, one of [`crate::RULES`].
    pub rule: String,
    /// What fired (e.g. `unwrap`, `collect`, `index`).
    pub trigger: String,
    /// Qualified function the site sits in (empty for line- and
    /// declaration-scope rules).
    pub function: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Whether a pragma exempts this finding.
    pub allowed: bool,
    /// The pragma's justification, when allowed.
    pub reason: Option<String>,
}

impl Finding {
    /// An unallowed finding at `line` of `pf`.
    pub(crate) fn new(
        pf: &ParsedFile,
        line: usize,
        rule: &str,
        trigger: String,
        function: String,
    ) -> Self {
        Finding {
            file: pf.file.clone(),
            line,
            rule: rule.to_string(),
            trigger,
            function,
            snippet: pf.src_lines.get(line - 1).map_or("", |l| l.trim()).to_string(),
            allowed: false,
            reason: None,
        }
    }
}

/// A malformed or unused pragma, or a dangling marker — always a violation.
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// Scan-root-relative path.
    pub file: String,
    /// 1-based line of the pragma/marker.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Hot-path summary for one declared root.
#[derive(Debug, Clone)]
pub struct RootReport {
    /// Qualified name of the root function.
    pub root: String,
    /// Marker label (defaults to the function name).
    pub label: String,
    /// Functions reachable from this root (including itself).
    pub reachable_fns: usize,
    /// Panic-capable sites in the cone (allowed or not).
    pub panic_sites: usize,
    /// `.expect("invariant: …")` sites in the cone.
    pub documented_invariants: usize,
    /// Allocation sites in the cone (allowed or not) — the number the
    /// per-root ratchet ceilings bound.
    pub alloc_sites: usize,
}

/// Aggregate result of a scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Per-root hot-path summaries.
    pub roots: Vec<RootReport>,
    /// Every rule hit, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Malformed/unused pragmas and dangling markers.
    pub pragma_errors: Vec<PragmaError>,
    /// Broken or malformed baseline entries (workspace scans only).
    pub ratchet: Vec<String>,
    /// Baseline entries whose ceiling is above the current count.
    pub slack: Vec<String>,
}

impl Report {
    /// Findings not covered by a valid pragma.
    #[must_use]
    pub fn unallowed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.allowed).collect()
    }

    /// Total violations: unallowed findings, pragma/marker errors and
    /// ratchet problems.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.unallowed().len() + self.pragma_errors.len() + self.ratchet.len()
    }

    /// Machine-readable JSON report (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations\": {},", self.violation_count());
        let roots = self.roots.iter().map(|r| {
            format!(
                "{{\"root\": {}, \"label\": {}, \"reachable_fns\": {}, \"panic_sites\": {}, \"documented_invariants\": {}, \"alloc_sites\": {}}}",
                json_str(&r.root),
                json_str(&r.label),
                r.reachable_fns,
                r.panic_sites,
                r.documented_invariants,
                r.alloc_sites,
            )
        });
        block(&mut out, "roots", roots);
        let findings = self.findings.iter().map(|f| {
            format!(
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"trigger\": {}, \"function\": {}, \"allowed\": {}, \"reason\": {}, \"snippet\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.rule),
                json_str(&f.trigger),
                json_str(&f.function),
                f.allowed,
                f.reason.as_deref().map_or_else(|| "null".to_string(), json_str),
                json_str(&f.snippet),
            )
        });
        block(&mut out, "findings", findings);
        let errors = self.pragma_errors.iter().map(|e| {
            format!(
                "{{\"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&e.file),
                e.line,
                json_str(&e.message),
            )
        });
        block(&mut out, "pragma_errors", errors);
        block(&mut out, "ratchet", self.ratchet.iter().map(|p| json_str(p)));
        out.truncate(out.len() - 2); // the last block's trailing ",\n"
        out.push_str("\n}\n");
        out
    }
}

/// Append `"key": [entries…],` with one entry per line.
fn block(out: &mut String, key: &str, entries: impl Iterator<Item = String>) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, e) in entries.enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str(&e);
    }
    let _ = writeln!(out, "\n  ],");
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
