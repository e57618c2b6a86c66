//! Determinism pass: source-level nondeterminism hazards.
//!
//! The centralized controller's value — replayable re-solves,
//! bit-identical incremental solving, byte-stable telemetry exports — rests
//! on determinism. This pass flags the hazards that break it: hash-ordered
//! collections, wall-clock reads, ambient randomness, float accumulation
//! over unordered containers, and unordered cross-thread merges. The
//! runtime prong (per-tick state digests and double-run divergence
//! bisection) lives in `gso_util::digest`.
//!
//! The hazards are all visible as identifier patterns, so the pass works on
//! the masked source line by line: a `"HashMap"` inside a log message or a
//! doc comment never fires. `#[cfg(test)]` item spans are skipped via brace
//! matching — test code may use wall clocks and scratch maps freely.

use crate::crate_tree;
use crate::report::{Finding, Report};
use crate::srcmodel::lex::is_ident_byte;
use crate::srcmodel::ParsedFile;

/// Rule identifiers.
pub const RULES: &[&str] =
    &["hash-collection", "wall-clock", "ambient-rand", "float-accum-unordered", "unordered-merge"];

/// Scope: every crate's `src/` except this analyzer's own, plus the root
/// `tests/` and `examples/` trees — integration tests and examples drive
/// the replay scenarios, so ambient nondeterminism there corrupts the
/// fixtures the digests are checked against. Not `benches/` (the solver
/// scale bench times itself with `Instant`) and not the root facade `src/`.
#[must_use]
pub fn scans(path: &str) -> bool {
    match crate_tree(path) {
        Some((krate, tree)) => tree == "src" && krate != "lint",
        None => path.starts_with("tests/") || path.starts_with("examples/"),
    }
}

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

/// True when `needle` occurs in `hay` on identifier boundaries.
fn has_token(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let start = from + p;
        let end = start + needle.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Scan the in-scope files, pushing one finding per (line, trigger).
pub fn run(files: &[&ParsedFile], report: &mut Report) {
    for pf in files {
        let skipped = test_spans(&pf.code);
        for (idx, code_line) in pf.code.lines().enumerate() {
            let line = idx + 1;
            if *skipped.get(line).unwrap_or(&false) {
                continue;
            }
            let compact: String = code_line.chars().filter(|c| !c.is_whitespace()).collect();
            let mut hits: Vec<(&str, &str)> = Vec::new();
            for (rule, word) in IDENT_TRIGGERS {
                if has_token(code_line, word) {
                    hits.push((rule, word));
                }
            }
            for (rule, pat) in PATH_TRIGGERS {
                if has_token(&compact, pat) {
                    hits.push((rule, pat));
                }
            }
            // float-accum-unordered: a fold/sum over a hash container
            // touching floats on one statement line.
            let has_hash = has_token(code_line, "HashMap") || has_token(code_line, "HashSet");
            let has_accum = compact.contains(".sum::")
                || compact.contains(".sum()")
                || compact.contains(".fold(");
            let has_float = has_token(code_line, "f64") || has_token(code_line, "f32");
            if has_hash && has_accum && has_float {
                hits.push(("float-accum-unordered", "sum/fold over hash container"));
            }
            for (rule, trigger) in hits {
                report.findings.push(Finding::new(
                    pf,
                    line,
                    rule,
                    trigger.to_string(),
                    String::new(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_source, Pass, Report};

    fn scan(src: &str) -> Report {
        analyze_source(Pass::Determinism, src)
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
}
