//! Source-level nondeterminism lint.
//!
//! The scanner is deliberately token-level rather than AST-based: the
//! workspace builds offline with no proc-macro parser available, and the
//! hazards this lint hunts (hash-ordered collections, wall-clock reads,
//! ambient randomness, unordered cross-thread merges) are all visible as
//! identifier patterns. The scanner first *masks* the source — comments,
//! string literals, char literals, and raw strings are blanked to spaces,
//! preserving line structure — so a `"HashMap"` inside a log message or a
//! doc comment never fires. `#[cfg(test)]` item spans are skipped via brace
//! matching: test code may use wall clocks and scratch maps freely.
//!
//! Exemptions are line-scoped pragmas:
//!
//! ```text
//! // detguard: allow(wall-clock, reason = "host benchmark, not sim time")
//! ```
//!
//! A pragma applies to its own line and the line directly below it. A pragma
//! with no reason, an unknown rule name, or no matching finding is itself a
//! violation — allowlists must never rot silently.

use gso_srcmodel::lex::{is_ident_byte, mask_source};
use gso_srcmodel::pragma;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees are scanned. These are the hot paths whose
/// behaviour must replay bit-identically, plus the observer crates whose
/// *judgements* must themselves be deterministic (`audit` verdicts,
/// `bench` baselines, and `lockwatch` findings feed CI gates). `util` holds
/// the state digests and the seeded RNG, `telemetry` the byte-stable
/// export and `rtp` the wire codecs, so all three are scanned too; only
/// `detguard` itself stays exempt.
pub const HOT_PATH_CRATES: &[&str] = &[
    "util",
    "telemetry",
    "rtp",
    "algo",
    "audit",
    "bench",
    "control",
    "net",
    "sim",
    "sfu",
    "bwe",
    "media",
    "chaos",
    "lockwatch",
    "cluster",
];

/// Workspace-root source trees scanned in addition to the crate list:
/// integration tests and examples drive the replay scenarios, so ambient
/// nondeterminism there corrupts the fixtures the digests are checked
/// against.
pub const ROOT_TREES: &[&str] = &["tests", "examples"];

/// Lint rule identifiers.
pub const RULE_IDS: &[&str] =
    &["hash-collection", "wall-clock", "ambient-rand", "float-accum-unordered", "unordered-merge"];

/// Bare identifiers that trigger a rule wherever they appear in code.
const IDENT_TRIGGERS: &[(&str, &str)] = &[
    ("hash-collection", "HashMap"),
    ("hash-collection", "HashSet"),
    ("hash-collection", "RandomState"),
    ("hash-collection", "DefaultHasher"),
    ("wall-clock", "Instant"),
    ("wall-clock", "SystemTime"),
    ("ambient-rand", "thread_rng"),
    ("ambient-rand", "from_entropy"),
    ("ambient-rand", "OsRng"),
    ("unordered-merge", "Mutex"),
    ("unordered-merge", "RwLock"),
    ("unordered-merge", "mpsc"),
    ("unordered-merge", "rayon"),
];

/// Qualified paths that trigger a rule (matched with whitespace collapsed,
/// so `thread :: spawn` still fires).
const PATH_TRIGGERS: &[(&str, &str)] = &[
    ("ambient-rand", "rand::random"),
    ("unordered-merge", "thread::spawn"),
    ("unordered-merge", "thread::scope"),
];

/// One lint hit, allowed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, relative to the scan root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier from [`RULE_IDS`].
    pub rule: String,
    /// The trigger token that fired.
    pub trigger: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Whether a pragma exempts this finding.
    pub allowed: bool,
    /// The pragma's justification, when allowed.
    pub reason: Option<String>,
}

/// A malformed or unused pragma — always a violation.
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// Path of the file, relative to the scan root.
    pub file: String,
    /// 1-based line of the pragma.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Aggregate result of a scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Every rule hit, exempted or not.
    pub findings: Vec<Finding>,
    /// Malformed/unused pragmas.
    pub pragma_errors: Vec<PragmaError>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a valid pragma.
    #[must_use]
    pub fn unallowed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.allowed).collect()
    }

    /// Total violations: unallowed findings plus pragma errors.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.unallowed().len() + self.pragma_errors.len()
    }

    /// Machine-readable JSON report (hand-rolled; stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations\": {},", self.violation_count());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"trigger\": {}, \"allowed\": {}, \"reason\": {}, \"snippet\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.rule),
                json_str(&f.trigger),
                f.allowed,
                f.reason.as_deref().map_or_else(|| "null".to_string(), json_str),
                json_str(&f.snippet),
            );
        }
        out.push_str("\n  ],\n  \"pragma_errors\": [");
        for (i, e) in self.pragma_errors.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&e.file),
                e.line,
                json_str(&e.message),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
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

// Source masking (comments/strings/chars blanked, line structure kept)
// lives in the shared source model: `gso_srcmodel::lex::mask_source`.

// ---------------------------------------------------------------------------
// cfg(test) span skipping
// ---------------------------------------------------------------------------

/// Mark lines covered by `#[cfg(test)]`-gated items (attribute through the
/// matching close brace or terminating semicolon).
fn test_spans(code: &str) -> Vec<bool> {
    let line_count = code.lines().count() + 1;
    let mut skipped = vec![false; line_count + 1];
    let bytes = code.as_bytes();
    let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    if !compact.contains("#[cfg(test)]") {
        return skipped;
    }

    // Walk the masked code looking for `#` `[` cfg ( test ) `]` sequences,
    // tolerating interior whitespace.
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'#' {
            if let Some(end) = match_cfg_test(bytes, i) {
                // Find the item's extent: first `{` (brace-match) or `;`
                // before any `{`.
                let mut depth = 0i32;
                let mut j = end;
                let mut item_end = bytes.len();
                while j < bytes.len() {
                    match bytes[j] {
                        b'{' => {
                            depth += 1;
                        }
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                item_end = j + 1;
                                break;
                            }
                        }
                        b';' if depth == 0 => {
                            item_end = j + 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let start_line = 1 + bytes[..i].iter().filter(|&&b| b == b'\n').count();
                let end_line =
                    1 + bytes[..item_end.min(bytes.len())].iter().filter(|&&b| b == b'\n').count();
                for s in skipped.iter_mut().take(end_line + 1).skip(start_line) {
                    *s = true;
                }
                i = item_end;
                continue;
            }
        }
        i += 1;
    }
    skipped
}

/// If `bytes[i..]` starts a `#[cfg(test)]` attribute (whitespace tolerated),
/// return the index just past the closing `]`.
fn match_cfg_test(bytes: &[u8], i: usize) -> Option<usize> {
    let expect = [b'#', b'[', b'c', b'f', b'g', b'(', b't', b'e', b's', b't', b')', b']'];
    let mut j = i;
    for &want in &expect {
        while j < bytes.len() && bytes[j].is_ascii_whitespace() && want != b'#' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != want {
            return None;
        }
        j += 1;
    }
    Some(j)
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Pragma {
    line: usize,
    rule: String,
    reason: Option<String>,
    used: bool,
    malformed: Option<String>,
}

/// Parse `detguard:` pragmas out of the collected line comments.
fn parse_pragmas(comments: &[(usize, String)]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (line, text) in comments {
        let Some(pos) = text.find("detguard:") else {
            continue;
        };
        // Require an identifier boundary so prose mentioning paths like
        // `gso_detguard::lint::scan_workspace` is not mistaken for a pragma.
        if pos > 0
            && text[..pos].chars().next_back().is_some_and(|c| c == '_' || c.is_alphanumeric())
        {
            continue;
        }
        let body = text[pos + "detguard:".len()..].trim();
        if body.starts_with(':') {
            continue; // a `detguard::` path reference, not a pragma
        }
        let Some(rest) = body.strip_prefix("allow(") else {
            out.push(Pragma {
                line: *line,
                rule: String::new(),
                reason: None,
                used: false,
                malformed: Some(format!("unrecognized pragma form: `{body}`")),
            });
            continue;
        };
        let allow = pragma::parse_allow(rest, RULE_IDS);
        out.push(Pragma {
            line: *line,
            rule: allow.rule,
            reason: allow.reason,
            used: false,
            malformed: allow.malformed,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

fn ident_positions(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(p) = line[from..].find(word) {
        let start = from + p;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn path_match(compact: &str, pat: &str) -> bool {
    let bytes = compact.as_bytes();
    let mut from = 0;
    while let Some(p) = compact[from..].find(pat) {
        let start = from + p;
        let end = start + pat.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Scan one already-loaded source file. Exposed for unit tests; [`scan_workspace`]
/// is the directory-walking entry point.
pub fn scan_source(file_label: &str, src: &str, report: &mut Report) {
    let masked = mask_source(src);
    let skipped = test_spans(&masked.code);
    let mut pragmas = parse_pragmas(&masked.comments);
    let src_lines: Vec<&str> = src.lines().collect();

    for (idx, code_line) in masked.code.lines().enumerate() {
        let line_no = idx + 1;
        if *skipped.get(line_no).unwrap_or(&false) {
            continue;
        }
        let compact: String = code_line.chars().filter(|c| !c.is_whitespace()).collect();
        let mut hits: Vec<(&str, &str)> = Vec::new();
        for (rule, word) in IDENT_TRIGGERS {
            if ident_positions(code_line, word) {
                hits.push((rule, word));
            }
        }
        for (rule, pat) in PATH_TRIGGERS {
            if path_match(&compact, pat) {
                hits.push((rule, pat));
            }
        }
        // float-accum-unordered: a fold/sum over a hash container touching
        // floats on one statement line.
        let has_hash =
            ident_positions(code_line, "HashMap") || ident_positions(code_line, "HashSet");
        let has_accum =
            compact.contains(".sum::") || compact.contains(".sum()") || compact.contains(".fold(");
        let has_float = ident_positions(code_line, "f64") || ident_positions(code_line, "f32");
        if has_hash && has_accum && has_float {
            hits.push(("float-accum-unordered", "sum/fold over hash container"));
        }

        for (rule, trigger) in hits {
            let pragma = pragmas.iter_mut().find(|p| {
                p.malformed.is_none()
                    && p.rule == *rule
                    && (p.line == line_no || p.line + 1 == line_no)
            });
            let (allowed, reason) = match pragma {
                Some(p) => {
                    p.used = true;
                    (true, p.reason.clone())
                }
                None => (false, None),
            };
            report.findings.push(Finding {
                file: file_label.to_string(),
                line: line_no,
                rule: (*rule).to_string(),
                trigger: (*trigger).to_string(),
                snippet: src_lines.get(idx).map_or("", |l| l.trim()).to_string(),
                allowed,
                reason,
            });
        }
    }

    for p in &pragmas {
        if let Some(msg) = &p.malformed {
            report.pragma_errors.push(PragmaError {
                file: file_label.to_string(),
                line: p.line,
                message: msg.clone(),
            });
        } else if !p.used {
            report.pragma_errors.push(PragmaError {
                file: file_label.to_string(),
                line: p.line,
                message: format!(
                    "unused pragma: no `{}` finding on this or the next line — remove it",
                    p.rule
                ),
            });
        }
    }
    report.files_scanned += 1;
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// report order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every hot-path crate's `src/` tree under a workspace root.
///
/// # Errors
/// Propagates I/O failures reading the source tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for krate in HOT_PATH_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files)?;
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let label = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
            scan_source(&label, &src, &mut report);
        }
    }
    for tree in ROOT_TREES {
        let dir = root.join(tree);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let label = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
            scan_source(&label, &src, &mut report);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Report {
        let mut r = Report::default();
        scan_source("test.rs", src, &mut r);
        r
    }

    #[test]
    fn flags_hashmap_in_code() {
        let r = scan("use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        assert_eq!(r.unallowed().len(), 2);
        assert!(r.findings.iter().all(|f| f.rule == "hash-collection"));
    }

    #[test]
    fn ignores_hashmap_in_comments_and_strings() {
        let r =
            scan("// HashMap is not used here\nfn f() { let _ = \"HashMap\"; }\n/* HashMap */\n");
        assert_eq!(r.findings.len(), 0);
    }

    #[test]
    fn ignores_cfg_test_modules() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    #[test]\n    fn t() { let _ = Instant::now(); }\n}\n";
        let r = scan(src);
        assert_eq!(r.findings.len(), 0, "test-only code must be exempt");
    }

    #[test]
    fn pragma_on_preceding_line_allows_with_reason() {
        let src = "// detguard: allow(wall-clock, reason = \"host benchmark\")\nuse std::time::Instant;\n";
        let r = scan(src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].allowed);
        assert_eq!(r.findings[0].reason.as_deref(), Some("host benchmark"));
        assert_eq!(r.violation_count(), 0);
    }

    #[test]
    fn pragma_on_same_line_allows() {
        let src = "let t = Instant::now(); // detguard: allow(wall-clock, reason = \"bench\")\n";
        let r = scan(src);
        assert_eq!(r.violation_count(), 0);
        assert!(r.findings[0].allowed);
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let src = "// detguard: allow(wall-clock)\nuse std::time::Instant;\n";
        let r = scan(src);
        // Malformed pragma never exempts, so the finding stays unallowed AND
        // the pragma itself is an error.
        assert_eq!(r.unallowed().len(), 1);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("reason"));
    }

    #[test]
    fn unknown_rule_pragma_is_a_violation() {
        let src = "// detguard: allow(bogus-rule, reason = \"x\")\nfn f() {}\n";
        let r = scan(src);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_pragma_is_a_violation() {
        let src = "// detguard: allow(wall-clock, reason = \"nothing here\")\nfn f() {}\n";
        let r = scan(src);
        assert_eq!(r.pragma_errors.len(), 1);
        assert!(r.pragma_errors[0].message.contains("unused"));
    }

    #[test]
    fn thread_scope_fires_unordered_merge() {
        let r = scan("fn f() { std::thread::scope(|s| {}); }\n");
        assert_eq!(r.unallowed().len(), 1);
        assert_eq!(r.findings[0].rule, "unordered-merge");
    }

    #[test]
    fn ambient_rand_fires() {
        let r = scan("fn f() { let x: u32 = rand::random(); let r = thread_rng(); }\n");
        assert_eq!(r.unallowed().len(), 2);
        assert!(r.findings.iter().all(|f| f.rule == "ambient-rand"));
    }

    #[test]
    fn float_accum_over_hash_fires() {
        let r = scan("fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n");
        assert!(r.findings.iter().any(|f| f.rule == "float-accum-unordered"));
    }

    #[test]
    fn identifier_boundaries_respected() {
        // `MyHashMapLike` and `instant_var` must not fire.
        let r = scan("struct MyHashMapLike; fn f(instant_var: u32) {}\n");
        assert_eq!(r.findings.len(), 0);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If the masker ate `'a` as a char literal it would swallow `>` and
        // corrupt the rest of the line, hiding the HashMap.
        let r = scan("fn f<'a>(m: &'a HashMap<u32, u32>) {}\n");
        assert_eq!(r.unallowed().len(), 1);
    }

    #[test]
    fn raw_strings_are_masked() {
        let r = scan("fn f() { let _ = r#\"HashMap Instant\"#; }\n");
        assert_eq!(r.findings.len(), 0);
    }

    #[test]
    fn json_report_shape() {
        let r = scan("use std::time::Instant;\n");
        let json = r.to_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"rule\": \"wall-clock\""));
    }
}
