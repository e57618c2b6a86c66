//! Token-level item parser.
//!
//! Walks the masked token stream of one file and recovers the structure
//! the passes need: functions (with module path, impl type, test-ness and
//! body events), metric recording call sites, and bare-primitive unit
//! declarations. The grammar subset is deliberately approximate — it must
//! never panic or loop on any input, and over-approximation (an extra call
//! edge, a spurious site that a pragma then documents) is acceptable where
//! exactness would need full type information.

use super::lex::{self, Tok, TokKind};
use super::model::{
    BindKind, CallRef, FnInfo, MetricSite, ParsedFile, Site, SiteKind, SyncEvent, SyncOp, UnitCtx,
    UnitSite,
};

/// Primitive types the unit-hygiene pass considers "bare".
const PRIMS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Telemetry recording methods whose first argument must be a `keys::`
/// const. `add` is ambiguous (`Add::add`), so it only counts when the
/// receiver chain visibly ends in `telemetry`.
const METRIC_METHODS: &[&str] = &[
    "incr",
    "gauge",
    "observe",
    "counter",
    "counter_total",
    "gauge_value",
    "histogram",
    "histogram_total",
];

/// Macro names that unconditionally panic.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Macro names that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Method names that (may) hit the allocator. Also consulted by the call
/// graph: these verbs are counted as allocation sites where they occur and
/// are exempt from name-based method resolution (see [`super::graph`]).
pub const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "collect",
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
    "extend",
    "extend_from_slice",
    "resize",
    "reserve",
    "insert",
];

/// `Type::ctor` paths that allocate (matched on the last two segments).
/// Empty collections (`Vec::new()`, `BTreeMap::new()`, …) allocate
/// nothing until they grow, and growth is counted at the
/// [`ALLOC_METHODS`] call that does it.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "with_capacity"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Condvar wait methods (all release their guard for the wait's duration).
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Accessor verbs skipped when reducing a receiver chain to a lock
/// identity: `self.queues.get(qi).expect(…).lock()` locks `queues`.
const ACCESSOR_VERBS: &[&str] = &[
    "get",
    "get_mut",
    "expect",
    "unwrap",
    "as_ref",
    "as_mut",
    "as_deref",
    "borrow",
    "borrow_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "first",
    "last",
    "entry",
    "clone",
    "deref",
    "deref_mut",
];

/// Qualified paths that block the calling thread, matched on the last two
/// segments: `(qualifier, name, category)`.
const BLOCKING_PATHS: &[(&str, &str, &str)] = &[
    ("thread", "sleep", "thread-sleep"),
    ("thread", "park", "thread-park"),
    ("fs", "read", "file-io"),
    ("fs", "read_to_string", "file-io"),
    ("fs", "write", "file-io"),
    ("fs", "read_dir", "file-io"),
    ("fs", "copy", "file-io"),
    ("File", "open", "file-io"),
    ("File", "create", "file-io"),
    ("TcpStream", "connect", "socket-io"),
    ("TcpListener", "bind", "socket-io"),
    ("UdpSocket", "bind", "socket-io"),
];

/// `std::sync::atomic::Ordering` variants. The variant names disambiguate
/// from `cmp::Ordering` (`Less`/`Equal`/`Greater`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "in", "as", "move", "else", "let", "fn",
    "unsafe", "ref", "mut", "box", "await", "yield", "break", "continue", "where", "impl", "dyn",
];

/// True when `ident` names a bitrate quantity that must use the `Bitrate`
/// newtype instead of a bare primitive.
#[must_use]
pub fn is_unit_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower == "bps"
        || lower == "kbps"
        || lower == "mbps"
        || lower.ends_with("_bps")
        || lower.ends_with("_kbps")
        || lower.ends_with("_mbps")
        || lower.contains("bitrate")
}

struct Parser<'a> {
    toks: &'a [Tok],
    code: &'a str,
    raw: &'a str,
    i: usize,
    out: ParsedFile,
    /// Brace depth inside the current function body (entered at 1).
    body_depth: usize,
    /// Depths at which `while`/`loop` bodies opened, innermost last.
    loop_stack: Vec<usize>,
    /// A `while`/`loop` keyword was seen; the next `{` opens its body.
    pending_loop: bool,
    /// `(var, cond)` of the current statement's `let` binding, when the
    /// statement started with one (`cond` = `if let` / `while let`).
    cur_let: Option<(String, bool)>,
    /// Name and line of the most recent method call, for tying an
    /// `Ordering::` argument to its atomic operation.
    last_method: Option<(String, usize)>,
}

/// Parse one file. `module_prefix` is the module path implied by the file's
/// location under `src/` (empty for `lib.rs` / binaries).
///
/// A file named `tests.rs` or living under a `tests/` directory is a test
/// module pulled in via `#[cfg(test)] mod tests;` (or an integration-test
/// tree): the gating attribute sits in the *parent* file, so it is
/// detected here from the path instead.
#[must_use]
pub fn parse_file(
    file_label: &str,
    krate: &str,
    module_prefix: &[String],
    src: &str,
) -> ParsedFile {
    let test_file = file_label.ends_with("/tests.rs")
        || file_label == "tests.rs"
        || file_label.split('/').any(|seg| seg == "tests");
    let masked = lex::mask_source(src);
    let toks = lex::tokenize(&masked.code);
    let mut p = Parser {
        toks: &toks,
        code: &masked.code,
        raw: src,
        i: 0,
        body_depth: 0,
        loop_stack: Vec::new(),
        pending_loop: false,
        cur_let: None,
        last_method: None,
        out: ParsedFile {
            file: file_label.to_string(),
            krate: krate.to_string(),
            comments: masked.comments,
            src_lines: src.lines().map(str::to_string).collect(),
            ..ParsedFile::default()
        },
    };
    let mut module = module_prefix.to_vec();
    p.parse_items(&mut module, None, test_file);
    let mut out = p.out;
    out.code = masked.code;
    out
}

impl Parser<'_> {
    fn peek(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.i + n)
    }

    fn text(&self, t: &Tok) -> &str {
        t.text(self.code)
    }

    fn raw_line(&self, line: usize) -> &str {
        self.out.src_lines.get(line - 1).map_or("", String::as_str)
    }

    /// Skip a balanced delimiter pair starting at the current token (which
    /// must be the opener). Leaves `i` just past the closer.
    fn skip_balanced(&mut self, open: u8, close: u8) {
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip a balanced `<…>` generic list, treating `->` as a unit so the
    /// `>` of a nested fn-pointer return type does not close the list.
    fn skip_generics(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct(b'-') && self.peek(1).is_some_and(|n| n.is_punct(b'>')) {
                self.i += 2;
                continue;
            }
            if t.is_punct(b'<') {
                depth += 1;
            } else if t.is_punct(b'>') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consume an attribute starting at `#` (or `#!`). Returns
    /// `(is_cfg_test, is_cfg_debug)` — whether it gates on `test` or
    /// `debug_assertions`.
    fn consume_attr(&mut self) -> (bool, bool) {
        self.i += 1; // '#'
        if self.peek(0).is_some_and(|t| t.is_punct(b'!')) {
            self.i += 1;
        }
        let start = self.i;
        if self.peek(0).is_some_and(|t| t.is_punct(b'[')) {
            self.skip_balanced(b'[', b']');
        }
        let attr_toks = &self.toks[start..self.i];
        let words: Vec<&str> = attr_toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(self.code))
            .collect();
        let is_cfg = words.first() == Some(&"cfg");
        // `cfg(not(test))` / `cfg(not(debug_assertions))` gate code that IS
        // live in release — the negation must not trigger the skip.
        let negated = words.contains(&"not");
        let test =
            (is_cfg && !negated && words.contains(&"test")) || words.first() == Some(&"test");
        let debug = is_cfg && !negated && words.contains(&"debug_assertions");
        (test, debug)
    }

    /// Item-level parse loop. Returns at the `}` closing the enclosing
    /// item body (or at end of file).
    #[allow(clippy::too_many_lines)]
    fn parse_items(&mut self, module: &mut Vec<String>, type_ctx: Option<&str>, in_test: bool) {
        let mut pending_test = false;
        let mut pending_attr_line: Option<usize> = None;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokKind::Punct(b'#') => {
                    let line = t.line;
                    let (is_test, _) = self.consume_attr();
                    pending_test |= is_test;
                    pending_attr_line.get_or_insert(line);
                }
                TokKind::Punct(b'}') => {
                    // Closer of the enclosing item body.
                    self.i += 1;
                    return;
                }
                TokKind::Punct(b'{') => {
                    // Unexpected brace at item level: skip it wholesale.
                    self.skip_balanced(b'{', b'}');
                    (pending_test, pending_attr_line) = (false, None);
                }
                TokKind::Ident => {
                    let word = self.text(t).to_string();
                    match word.as_str() {
                        "mod" => {
                            let name =
                                self.peek(1).map(|n| self.text(n).to_string()).unwrap_or_default();
                            self.i += 2;
                            match self.peek(0) {
                                Some(n) if n.is_punct(b'{') => {
                                    self.i += 1;
                                    module.push(name);
                                    self.parse_items(module, None, in_test || pending_test);
                                    module.pop();
                                }
                                _ => {
                                    // `mod x;` — skip to `;`.
                                    while self.peek(0).is_some_and(|n| !n.is_punct(b';')) {
                                        self.i += 1;
                                    }
                                    self.i += 1;
                                }
                            }
                            (pending_test, pending_attr_line) = (false, None);
                        }
                        "use" => {
                            while self.peek(0).is_some_and(|n| !n.is_punct(b';')) {
                                self.i += 1;
                            }
                            self.i += 1;
                            (pending_test, pending_attr_line) = (false, None);
                        }
                        "impl" | "trait" => {
                            let ty = self.parse_impl_header(&word);
                            if self.peek(0).is_some_and(|n| n.is_punct(b'{')) {
                                self.i += 1;
                                self.parse_items(module, ty.as_deref(), in_test || pending_test);
                            }
                            (pending_test, pending_attr_line) = (false, None);
                        }
                        "fn" => {
                            let attr_line = pending_attr_line.take().unwrap_or(t.line);
                            self.parse_fn(module, type_ctx, in_test || pending_test, attr_line);
                            pending_test = false;
                        }
                        "struct" | "enum" | "union" => {
                            self.parse_adt(in_test || pending_test);
                            (pending_test, pending_attr_line) = (false, None);
                        }
                        "const" | "static" => {
                            // `const NAME: TYPE = …;` (but `const fn` is a
                            // function — leave `fn` for the next loop turn).
                            if self.peek(1).is_some_and(|n| self.text(n) == "fn") {
                                self.i += 1;
                            } else {
                                self.parse_const_item(in_test || pending_test);
                                (pending_test, pending_attr_line) = (false, None);
                            }
                        }
                        _ => {
                            self.i += 1;
                        }
                    }
                }
                _ => {
                    self.i += 1;
                }
            }
        }
    }

    /// Parse the header of an `impl`/`trait` item, returning the self-type
    /// (or trait) name. Leaves `i` at the body `{` (or past `;`).
    fn parse_impl_header(&mut self, kw: &str) -> Option<String> {
        self.i += 1; // 'impl' / 'trait'
        let mut last_seg: Option<String> = None;
        let mut after_for = false;
        let mut for_seg: Option<String> = None;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokKind::Punct(b'{') | TokKind::Punct(b';') => break,
                TokKind::Punct(b'<') => self.skip_generics(),
                TokKind::Ident => {
                    let w = self.text(t).to_string();
                    match w.as_str() {
                        "for" if kw == "impl" => {
                            after_for = true;
                            self.i += 1;
                        }
                        "where" => {
                            // Bounds until the body brace.
                            while self
                                .peek(0)
                                .is_some_and(|n| !n.is_punct(b'{') && !n.is_punct(b';'))
                            {
                                if self.peek(0).is_some_and(|n| n.is_punct(b'<')) {
                                    self.skip_generics();
                                } else {
                                    self.i += 1;
                                }
                            }
                        }
                        _ => {
                            if after_for {
                                for_seg = Some(w);
                            } else {
                                last_seg = Some(w);
                            }
                            self.i += 1;
                        }
                    }
                }
                _ => self.i += 1,
            }
        }
        for_seg.or(last_seg)
    }

    /// Scan a struct/enum/union body for `ident: Prim` field declarations.
    fn parse_adt(&mut self, in_test: bool) {
        self.i += 1; // keyword
                     // Skip name + generics + where clause until `{`, `(` or `;`.
        loop {
            match self.peek(0) {
                None => return,
                Some(t) if t.is_punct(b'<') => self.skip_generics(),
                Some(t) if t.is_punct(b'(') => {
                    // Tuple struct: unnamed fields, nothing to check.
                    self.skip_balanced(b'(', b')');
                }
                Some(t) if t.is_punct(b';') => {
                    self.i += 1;
                    return;
                }
                Some(t) if t.is_punct(b'{') => break,
                _ => self.i += 1,
            }
        }
        let start = self.i;
        self.skip_balanced(b'{', b'}');
        let body = &self.toks[start..self.i];
        let mut j = 0usize;
        while j + 2 < body.len() {
            if body[j].kind == TokKind::Ident
                && body[j + 1].is_punct(b':')
                && body[j + 2].kind == TokKind::Ident
            {
                let ident = body[j].text(self.code);
                let prim = body[j + 2].text(self.code);
                if is_unit_ident(ident) && PRIMS.contains(&prim) {
                    self.out.unit_sites.push(UnitSite {
                        line: body[j].line,
                        ident: ident.to_string(),
                        prim: prim.to_string(),
                        ctx: UnitCtx::Field,
                        is_test: in_test,
                    });
                }
            }
            j += 1;
        }
    }

    /// `const NAME: TYPE = …;` — unit-hygiene check on the item name.
    fn parse_const_item(&mut self, in_test: bool) {
        self.i += 1; // 'const' / 'static'
                     // Optional `mut` on statics.
        if self.peek(0).is_some_and(|t| self.text(t) == "mut") {
            self.i += 1;
        }
        let (name, line) = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => (self.text(t).to_string(), t.line),
            _ => (String::new(), 0),
        };
        self.i += 1;
        if self.peek(0).is_some_and(|t| t.is_punct(b':')) {
            self.i += 1;
            if let Some(t) = self.peek(0) {
                if t.kind == TokKind::Ident {
                    let prim = self.text(t).to_string();
                    if is_unit_ident(&name) && PRIMS.contains(&prim.as_str()) {
                        self.out.unit_sites.push(UnitSite {
                            line,
                            ident: name.clone(),
                            prim,
                            ctx: UnitCtx::Const,
                            is_test: in_test,
                        });
                    }
                }
            }
        }
        while self.peek(0).is_some_and(|t| !t.is_punct(b';')) {
            if self.peek(0).is_some_and(|t| t.is_punct(b'{')) {
                self.skip_balanced(b'{', b'}');
            } else {
                self.i += 1;
            }
        }
        self.i += 1;
    }

    /// Parse `fn name(params) -> ret { body }` starting at the `fn` token.
    fn parse_fn(
        &mut self,
        module: &[String],
        type_ctx: Option<&str>,
        in_test: bool,
        start_line: usize,
    ) {
        let fn_line = self.peek(0).map_or(0, |t| t.line);
        self.i += 1; // 'fn'
        let name = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => self.text(t).to_string(),
            _ => return,
        };
        self.i += 1;
        if self.peek(0).is_some_and(|t| t.is_punct(b'<')) {
            self.skip_generics();
        }
        // Parameter list.
        let params_start = self.i;
        if self.peek(0).is_some_and(|t| t.is_punct(b'(')) {
            self.skip_balanced(b'(', b')');
        }
        let params = &self.toks[params_start..self.i];
        if !in_test {
            let mut j = 0usize;
            while j + 2 < params.len() {
                if params[j].kind == TokKind::Ident && params[j + 1].is_punct(b':') {
                    // Find the first type ident after ':', skipping
                    // `&`, `mut`, lifetimes.
                    let mut k = j + 2;
                    while k < params.len()
                        && (params[k].is_punct(b'&')
                            || params[k].is_punct(b'\'')
                            || (params[k].kind == TokKind::Ident
                                && params[k].text(self.code) == "mut"))
                    {
                        k += 1;
                    }
                    if k < params.len() && params[k].kind == TokKind::Ident {
                        let ident = params[j].text(self.code);
                        let prim = params[k].text(self.code);
                        if is_unit_ident(ident) && PRIMS.contains(&prim) {
                            self.out.unit_sites.push(UnitSite {
                                line: params[j].line,
                                ident: ident.to_string(),
                                prim: prim.to_string(),
                                ctx: UnitCtx::Param,
                                is_test: in_test,
                            });
                        }
                    }
                }
                j += 1;
            }
        }
        // Return type.
        if self.peek(0).is_some_and(|t| t.is_punct(b'-'))
            && self.peek(1).is_some_and(|t| t.is_punct(b'>'))
        {
            self.i += 2;
            // First ident of the return type.
            let mut k = self.i;
            while let Some(t) = self.toks.get(k) {
                if t.kind == TokKind::Ident && self.text(t) != "mut" {
                    if !in_test && is_unit_ident(&name) && PRIMS.contains(&self.text(t)) {
                        self.out.unit_sites.push(UnitSite {
                            line: fn_line,
                            ident: name.clone(),
                            prim: self.text(t).to_string(),
                            ctx: UnitCtx::Return,
                            is_test: in_test,
                        });
                    }
                    break;
                }
                if t.is_punct(b'{') || t.is_punct(b';') {
                    break;
                }
                k += 1;
            }
        }
        // Skip to body `{` or declaration `;` (through any where clause).
        loop {
            match self.peek(0) {
                None => return,
                Some(t) if t.is_punct(b';') => {
                    self.i += 1;
                    // Trait method declaration without body.
                    self.out.fns.push(FnInfo {
                        file: self.out.file.clone(),
                        krate: self.out.krate.clone(),
                        module: module.to_vec(),
                        type_ctx: type_ctx.map(str::to_string),
                        name,
                        line: fn_line,
                        start_line,
                        is_test: in_test,
                        calls: Vec::new(),
                        sites: Vec::new(),
                        sync: Vec::new(),
                    });
                    return;
                }
                Some(t) if t.is_punct(b'{') => break,
                Some(t) if t.is_punct(b'<') => self.skip_generics(),
                _ => self.i += 1,
            }
        }
        let mut info = FnInfo {
            file: self.out.file.clone(),
            krate: self.out.krate.clone(),
            module: module.to_vec(),
            type_ctx: type_ctx.map(str::to_string),
            name,
            line: fn_line,
            start_line,
            is_test: in_test,
            calls: Vec::new(),
            sites: Vec::new(),
            sync: Vec::new(),
        };
        self.i += 1; // '{'
        self.parse_body(&mut info, 1);
        self.out.fns.push(info);
    }

    /// Walk a function body collecting calls, panic/alloc sites, and
    /// synchronization events. `depth` is the brace depth (entered at 1).
    #[allow(clippy::too_many_lines)]
    fn parse_body(&mut self, info: &mut FnInfo, depth: usize) {
        self.body_depth = depth;
        self.loop_stack.clear();
        self.pending_loop = false;
        self.cur_let = None;
        self.last_method = None;
        while let Some(t) = self.peek(0) {
            let line = t.line;
            match t.kind {
                TokKind::Punct(b'{') => {
                    self.body_depth += 1;
                    if self.pending_loop {
                        self.loop_stack.push(self.body_depth);
                        self.pending_loop = false;
                    }
                    self.cur_let = None;
                    self.i += 1;
                }
                TokKind::Punct(b'}') => {
                    self.body_depth -= 1;
                    while self.loop_stack.last().is_some_and(|&d| d > self.body_depth) {
                        self.loop_stack.pop();
                    }
                    self.i += 1;
                    if self.body_depth == 0 {
                        return;
                    }
                    info.sync.push(SyncEvent {
                        line,
                        depth: self.body_depth,
                        op: SyncOp::ScopeEnd,
                    });
                }
                TokKind::Punct(b';') => {
                    info.sync.push(SyncEvent { line, depth: self.body_depth, op: SyncOp::Semi });
                    self.cur_let = None;
                    self.i += 1;
                }
                TokKind::Punct(b'#') => {
                    let (_, is_debug) = self.consume_attr();
                    if is_debug {
                        // Skip the debug-only statement/block: the release
                        // hot path never executes it.
                        self.skip_debug_statement();
                    }
                }
                TokKind::Punct(b'[') => {
                    // Indexing when preceded by a value-producing token.
                    let prev = self.i.checked_sub(1).and_then(|p| self.toks.get(p));
                    let is_index = match prev {
                        Some(p) => match p.kind {
                            TokKind::Ident => !NON_CALL_KEYWORDS.contains(&p.text(self.code)),
                            TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                            _ => false,
                        },
                        None => false,
                    };
                    if is_index && !info.is_test {
                        info.sites.push(Site { line, kind: SiteKind::Panic, what: "index" });
                    }
                    self.i += 1;
                }
                TokKind::Punct(b'/') | TokKind::Punct(b'%') => {
                    self.maybe_division_site(info);
                }
                TokKind::Punct(b'.') => {
                    self.method_or_field(info);
                }
                TokKind::Ident => {
                    self.ident_in_body(info);
                }
                _ => {
                    self.i += 1;
                }
            }
        }
    }

    /// After a `#[cfg(debug_assertions)]` attribute inside a body: skip the
    /// gated statement — through the first balanced block and a trailing
    /// `;`, or to a bare `;` for block-less statements.
    fn skip_debug_statement(&mut self) {
        while let Some(t) = self.peek(0) {
            if t.is_punct(b'{') {
                self.skip_balanced(b'{', b'}');
                if self.peek(0).is_some_and(|n| n.is_punct(b';')) {
                    self.i += 1;
                }
                return;
            }
            if t.is_punct(b';') {
                self.i += 1;
                return;
            }
            if t.is_punct(b'}') {
                return; // malformed gate at block end — don't escape the body
            }
            self.i += 1;
        }
    }

    /// `/` or `%` in binary position with a non-literal divisor.
    fn maybe_division_site(&mut self, info: &mut FnInfo) {
        let t = &self.toks[self.i];
        let line = t.line;
        let prev = self.i.checked_sub(1).and_then(|p| self.toks.get(p));
        let binary = matches!(
            prev.map(|p| p.kind),
            Some(TokKind::Ident | TokKind::Int | TokKind::Float)
                | Some(TokKind::Punct(b')'))
                | Some(TokKind::Punct(b']'))
        );
        self.i += 1;
        if !binary || info.is_test {
            return;
        }
        let mut next = self.peek(0);
        // `a /= b` — divisor is one token further.
        if next.is_some_and(|n| n.is_punct(b'=')) {
            self.i += 1;
            next = self.peek(0);
        }
        let divisor_runtime = match next.map(|n| n.kind) {
            Some(TokKind::Ident) => !matches!(next.map(|n| n.text(self.code)), Some("self")),
            Some(TokKind::Punct(b'(')) => true,
            _ => false,
        };
        // Best-effort float exclusion: f64/f32 division cannot panic. The
        // raw line text is checked because tokens carry no type info.
        let float_ctx = {
            let raw = self.raw_line(line);
            raw.contains("f64")
                || raw.contains("f32")
                || prev.is_some_and(|p| p.kind == TokKind::Float)
        };
        if divisor_runtime && !float_ctx {
            info.sites.push(Site { line, kind: SiteKind::Panic, what: "div" });
        }
    }

    /// `.name` — method call or field access.
    fn method_or_field(&mut self, info: &mut FnInfo) {
        let dot = self.i;
        self.i += 1; // '.'
        let Some(t) = self.peek(0) else { return };
        if t.kind != TokKind::Ident {
            return; // tuple index `.0`, `..` range, etc.
        }
        let name = self.text(t).to_string();
        let line = t.line;
        let name_off = t.off;
        self.i += 1;
        if name == "await" && !self.peek(0).is_some_and(|n| n.is_punct(b'(')) {
            // Postfix `.await` — a yield point, not a field access.
            info.sync.push(SyncEvent { line, depth: self.body_depth, op: SyncOp::Await });
            return;
        }
        // Optional turbofish.
        if self.peek(0).is_some_and(|n| n.is_punct(b':'))
            && self.peek(1).is_some_and(|n| n.is_punct(b':'))
            && self.peek(2).is_some_and(|n| n.is_punct(b'<'))
        {
            self.i += 2;
            self.skip_generics();
        }
        if !self.peek(0).is_some_and(|n| n.is_punct(b'(')) {
            return; // field access
        }
        // It's a method call. Record the edge and classify the site.
        info.calls.push((line, CallRef::Method(name.clone())));
        info.sync.push(SyncEvent {
            line,
            depth: self.body_depth,
            op: SyncOp::Call { index: info.calls.len() - 1 },
        });
        self.last_method = Some((name.clone(), line));
        self.sync_method_event(info, &name, line, dot);
        match name.as_str() {
            "unwrap" if !info.is_test => {
                info.sites.push(Site { line, kind: SiteKind::Panic, what: "unwrap" });
            }
            "expect" if !info.is_test => {
                // The sanctioned form documents the invariant in the
                // message: `.expect("invariant: …")`. The argument is
                // masked, so check the raw source after the call token.
                let rest = &self.raw[name_off..];
                let documented = rest
                    .split_once('(')
                    .is_some_and(|(_, after)| after.trim_start().starts_with("\"invariant:"));
                let kind = if documented { SiteKind::DocumentedInvariant } else { SiteKind::Panic };
                info.sites.push(Site { line, kind, what: "expect" });
            }
            m if ALLOC_METHODS.contains(&m) && !info.is_test => {
                info.sites.push(Site {
                    line,
                    kind: SiteKind::Alloc,
                    what: ALLOC_METHODS.iter().find(|a| **a == m).copied().unwrap_or("alloc"),
                });
            }
            m if METRIC_METHODS.contains(&m) => {
                self.record_metric_site(&name, line);
            }
            "add" => {
                // Only a metric when the receiver chain visibly ends in
                // `telemetry` (e.g. `self.telemetry.add(…)`).
                let recv =
                    self.i.checked_sub(3).and_then(|p| self.toks.get(p)).map(|t| t.text(self.code));
                if recv == Some("telemetry") {
                    self.record_metric_site(&name, line);
                }
            }
            _ => {}
        }
        self.i += 1; // move past '(' — arguments are scanned as normal tokens
    }

    /// Classify a method call as a synchronization event (guard
    /// acquisition, condvar wait, blocking receive/join). `i` sits on the
    /// call's opening `(`; `dot` is the token index of the receiver `.`.
    fn sync_method_event(&mut self, info: &mut FnInfo, name: &str, line: usize, dot: usize) {
        let zero_arg = self.peek(1).is_some_and(|n| n.is_punct(b')'));
        let op = match name {
            // `read`/`write` only acquire when zero-argument (the
            // `RwLock` signature); `lock` has no common non-lock overload.
            "lock" => Some(self.acquire_op(name, dot)),
            "read" | "write" if zero_arg => Some(self.acquire_op(name, dot)),
            w if WAIT_METHODS.contains(&w) => {
                let guard_arg = self
                    .peek(1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text(self.code).to_string());
                Some(SyncOp::Wait {
                    method: name.to_string(),
                    guard_arg,
                    in_loop: !self.loop_stack.is_empty(),
                })
            }
            "recv" | "recv_timeout" | "recv_deadline" => {
                Some(SyncOp::Block { what: "channel-recv" })
            }
            "join" if zero_arg => Some(SyncOp::Block { what: "thread-join" }),
            _ => None,
        };
        if let Some(op) = op {
            info.sync.push(SyncEvent { line, depth: self.body_depth, op });
        }
    }

    /// Build an [`SyncOp::Acquire`] for the lock method whose receiver `.`
    /// sits at token index `dot`.
    fn acquire_op(&self, method: &str, dot: usize) -> SyncOp {
        let segs = self.receiver_chain(dot);
        let lock = segs
            .iter()
            .rev()
            .find(|s| !ACCESSOR_VERBS.contains(&s.as_str()))
            .cloned()
            .unwrap_or_else(|| "<expr>".to_string());
        let chain = segs.join(".");
        let (bind, var) = match self.cur_let.clone() {
            Some((v, true)) => (BindKind::CondLet, Some(v)),
            Some((v, false)) => (BindKind::Let, Some(v)),
            None => (BindKind::Temp, None),
        };
        SyncOp::Acquire { method: method.to_string(), lock, chain, bind, var }
    }

    /// Walk backwards from the `.` at token index `dot`, collecting the
    /// receiver chain's identifier segments in source order. Balanced
    /// `(…)`/`[…]` groups (call arguments, indexing) are skipped; the walk
    /// stops at anything that is not part of a field/method/path chain.
    fn receiver_chain(&self, dot: usize) -> Vec<String> {
        let mut segs: Vec<String> = Vec::new();
        let mut k = dot;
        while k > 0 {
            let p = &self.toks[k - 1];
            match p.kind {
                TokKind::Ident => {
                    let w = p.text(self.code);
                    if NON_CALL_KEYWORDS.contains(&w) {
                        break;
                    }
                    segs.push(w.to_string());
                    k -= 1;
                    if k == 0 {
                        break;
                    }
                    let q = &self.toks[k - 1];
                    if q.is_punct(b'.') {
                        k -= 1;
                    } else if q.is_punct(b':') && k >= 2 && self.toks[k - 2].is_punct(b':') {
                        k -= 2;
                    } else {
                        break;
                    }
                }
                TokKind::Punct(b')') | TokKind::Punct(b']') => {
                    let (open, close) = if p.is_punct(b')') { (b'(', b')') } else { (b'[', b']') };
                    let mut depth = 0usize;
                    let mut m = k;
                    let mut matched = false;
                    while m > 0 {
                        m -= 1;
                        let t = &self.toks[m];
                        if t.is_punct(close) {
                            depth += 1;
                        } else if t.is_punct(open) {
                            depth -= 1;
                            if depth == 0 {
                                matched = true;
                                break;
                            }
                        }
                    }
                    if !matched {
                        break;
                    }
                    k = m;
                }
                TokKind::Punct(b'?') => k -= 1,
                _ => break,
            }
        }
        segs.reverse();
        segs
    }

    /// Classify the first argument of a metric recording call. `i` sits on
    /// the opening `(`.
    fn record_metric_site(&mut self, method: &str, line: usize) {
        let mut j = self.i + 1;
        // A masked string literal leaves no tokens, so the next token after
        // `(` would be `,` or `)` — that is the literal-name violation.
        let keyed = match self.toks.get(j) {
            Some(t) if t.kind == TokKind::Ident => {
                // Walk the path: `keys::X`, `gso_telemetry::keys::X`, or a
                // bare variable. Any segment named `keys` qualifies.
                let mut segs = vec![t.text(self.code)];
                j += 1;
                while self.toks.get(j).is_some_and(|n| n.is_punct(b':'))
                    && self.toks.get(j + 1).is_some_and(|n| n.is_punct(b':'))
                {
                    j += 2;
                    if let Some(n) = self.toks.get(j) {
                        if n.kind == TokKind::Ident {
                            segs.push(n.text(self.code));
                            j += 1;
                        }
                    }
                }
                segs.len() >= 2 && segs[..segs.len() - 1].contains(&"keys")
            }
            _ => false,
        };
        let raw = self.raw_line(line);
        let arg = raw
            .split_once('(')
            .map_or("", |(_, after)| after.split(',').next().unwrap_or(after).trim())
            .to_string();
        self.out.metric_sites.push(MetricSite { line, method: method.to_string(), keyed, arg });
    }

    /// Identifier in expression position: macro, path call, bare call, or
    /// `let` binding (unit-hygiene).
    fn ident_in_body(&mut self, info: &mut FnInfo) {
        let t = &self.toks[self.i];
        let word = self.text(t).to_string();
        let line = t.line;

        // `let ident: Prim` — unit-hygiene on annotated bindings.
        if word == "let" {
            if let (Some(n1), Some(n2), Some(n3)) = (self.peek(1), self.peek(2), self.peek(3)) {
                if n1.kind == TokKind::Ident && n2.is_punct(b':') && n3.kind == TokKind::Ident {
                    let ident = self.text(n1);
                    let prim = self.text(n3);
                    if is_unit_ident(ident) && PRIMS.contains(&prim) && !info.is_test {
                        self.out.unit_sites.push(UnitSite {
                            line: n1.line,
                            ident: ident.to_string(),
                            prim: prim.to_string(),
                            ctx: UnitCtx::Let,
                            is_test: info.is_test,
                        });
                    }
                }
            }
            // Capture the bound variable so a `.lock()` in this statement's
            // initializer is tied to a named guard. The last pattern ident
            // before `=` (skipping `mut`/`ref`, stopping at a type
            // annotation) is the binding: `let Ok(mut sig) = …` → `sig`.
            let cond = self
                .i
                .checked_sub(1)
                .and_then(|p| self.toks.get(p))
                .is_some_and(|p| matches!(p.text(self.code), "if" | "while"));
            let mut var = None;
            let mut k = self.i + 1;
            while let Some(n) = self.toks.get(k) {
                if n.is_punct(b'=') || n.is_punct(b';') || n.is_punct(b'{') || n.is_punct(b':') {
                    break;
                }
                if n.kind == TokKind::Ident {
                    let w = n.text(self.code);
                    if !matches!(w, "mut" | "ref") {
                        var = Some(w.to_string());
                    }
                }
                if k - self.i > 24 {
                    break;
                }
                k += 1;
            }
            self.cur_let = var.map(|v| (v, cond));
            self.i += 1;
            return;
        }

        // `while`/`loop` — the next `{` opens a loop body (condvar
        // predicate-loop discipline needs to know).
        if word == "while" || word == "loop" {
            self.pending_loop = true;
            self.i += 1;
            return;
        }

        // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
        if self.peek(1).is_some_and(|n| n.is_punct(b'!'))
            && self
                .peek(2)
                .is_some_and(|n| n.is_punct(b'(') || n.is_punct(b'[') || n.is_punct(b'{'))
        {
            if !info.is_test {
                if PANIC_MACROS.contains(&word.as_str()) {
                    info.sites.push(Site { line, kind: SiteKind::Panic, what: "panic-macro" });
                } else if ALLOC_MACROS.contains(&word.as_str()) {
                    let what = if word == "format" { "format!" } else { "vec!" };
                    info.sites.push(Site { line, kind: SiteKind::Alloc, what });
                }
            }
            self.i += 2;
            if word.starts_with("debug_assert") {
                // Debug-only arguments: skip them entirely.
                let (open, close) = match self.peek(0) {
                    Some(n) if n.is_punct(b'[') => (b'[', b']'),
                    Some(n) if n.is_punct(b'{') => (b'{', b'}'),
                    _ => (b'(', b')'),
                };
                self.skip_balanced(open, close);
            }
            return;
        }

        // Nested `fn` definition inside a body: parse its name so the `(`
        // is not mistaken for a call, then continue scanning its body as
        // part of this function (conservative).
        if word == "fn" {
            self.i += 1;
            if self.peek(0).is_some_and(|n| n.kind == TokKind::Ident) {
                self.i += 1;
            }
            return;
        }

        if NON_CALL_KEYWORDS.contains(&word.as_str()) {
            self.i += 1;
            return;
        }

        // Collect a `::`-separated path.
        let mut segs = vec![word];
        let mut j = self.i + 1;
        loop {
            if self.toks.get(j).is_some_and(|n| n.is_punct(b':'))
                && self.toks.get(j + 1).is_some_and(|n| n.is_punct(b':'))
            {
                match self.toks.get(j + 2) {
                    Some(n) if n.kind == TokKind::Ident => {
                        segs.push(self.text(n).to_string());
                        j += 3;
                    }
                    Some(n) if n.is_punct(b'<') => {
                        // Turbofish: skip to matching '>' from there.
                        self.i = j + 2;
                        self.skip_generics();
                        j = self.i;
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        let is_call = self.toks.get(j).is_some_and(|n| n.is_punct(b'('));
        self.i = j;
        if !is_call {
            // Non-call path: an `Ordering::` variant in argument position
            // is an atomics-discipline event.
            if segs.len() >= 2
                && segs[segs.len() - 2] == "Ordering"
                && ATOMIC_ORDERINGS.contains(&segs[segs.len() - 1].as_str())
            {
                let op =
                    self.last_method.as_ref().filter(|(_, l)| *l == line).map(|(m, _)| m.clone());
                info.sync.push(SyncEvent {
                    line,
                    depth: self.body_depth,
                    op: SyncOp::AtomicOrdering { ordering: segs[segs.len() - 1].clone(), op },
                });
            }
            return;
        }
        self.i += 1; // past '('

        // Resolve `Self::` against the impl type.
        if segs.first().map(String::as_str) == Some("Self") {
            if let Some(ty) = &info.type_ctx {
                segs[0] = ty.clone();
            }
        }
        if segs.len() >= 2 {
            let a = segs[segs.len() - 2].as_str();
            let b = segs[segs.len() - 1].as_str();
            if !info.is_test && ALLOC_PATHS.iter().any(|(x, y)| *x == a && *y == b) {
                let what: &'static str = match (a, b) {
                    (_, "with_capacity") => "with_capacity",
                    ("Box", _) => "Box::new",
                    ("Arc", _) => "Arc::new",
                    ("Rc", _) => "Rc::new",
                    ("String", _) => "String::from",
                    _ => "ctor",
                };
                info.sites.push(Site { line, kind: SiteKind::Alloc, what });
            }
            let blocking =
                BLOCKING_PATHS.iter().find(|(x, y, _)| *x == a && *y == b).map(|(_, _, w)| *w);
            let is_drop = b == "drop" && (a == "mem" || a == "std");
            if let Some(what) = blocking {
                info.sync.push(SyncEvent {
                    line,
                    depth: self.body_depth,
                    op: SyncOp::Block { what },
                });
            }
            if is_drop {
                self.sync_drop_event(info, line);
            }
            info.calls.push((line, CallRef::Path(segs)));
            if blocking.is_none() && !is_drop {
                info.sync.push(SyncEvent {
                    line,
                    depth: self.body_depth,
                    op: SyncOp::Call { index: info.calls.len() - 1 },
                });
            }
        } else {
            let name = segs.pop().unwrap_or_default();
            // Tuple-struct constructors look identical to calls; CamelCase
            // names are overwhelmingly types, so skip them to keep the
            // graph clean (a CamelCase free fn would violate the workspace
            // naming lints anyway).
            if name.chars().next().is_some_and(char::is_lowercase) {
                if name == "drop" {
                    // `drop(x)` ends a guard; resolving it by name would
                    // blame every workspace `Drop` impl, so it gets a
                    // DropVar event instead of a Call event (the raw call
                    // edge is still recorded for the call graph).
                    self.sync_drop_event(info, line);
                    info.calls.push((line, CallRef::Bare(name)));
                } else {
                    info.calls.push((line, CallRef::Bare(name)));
                    info.sync.push(SyncEvent {
                        line,
                        depth: self.body_depth,
                        op: SyncOp::Call { index: info.calls.len() - 1 },
                    });
                }
            }
        }
    }

    /// Emit a [`SyncOp::DropVar`] for the `drop(var)` whose argument list
    /// `i` has just entered.
    fn sync_drop_event(&mut self, info: &mut FnInfo, line: usize) {
        let var = self
            .peek(0)
            .filter(|n| n.kind == TokKind::Ident)
            .map(|n| n.text(self.code).to_string());
        if let Some(var) = var {
            info.sync.push(SyncEvent { line, depth: self.body_depth, op: SyncOp::DropVar { var } });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("test.rs", "test", &[], src)
    }

    #[test]
    fn finds_free_fn_and_method() {
        let p = parse("fn alpha() {}\nimpl Foo { fn beta(&self) { alpha(); } }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qualified(), "test::alpha");
        assert_eq!(p.fns[1].qualified(), "test::Foo::beta");
        assert_eq!(p.fns[1].calls, vec![(2, CallRef::Bare("alpha".into()))]);
    }

    #[test]
    fn classifies_panic_sites() {
        let p = parse(
            "fn f(v: &[u32], i: usize) -> u32 {\n    let a = v[i];\n    let b = v.get(0).unwrap();\n    panic!(\"no\");\n}\n",
        );
        let whats: Vec<&str> = p.fns[0].sites.iter().map(|s| s.what).collect();
        assert!(whats.contains(&"index"));
        assert!(whats.contains(&"unwrap"));
        assert!(whats.contains(&"panic-macro"));
    }

    #[test]
    fn documented_expect_is_not_a_panic() {
        let p = parse("fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: set by caller\") }\n");
        assert_eq!(p.fns[0].sites.len(), 1);
        assert_eq!(p.fns[0].sites[0].kind, SiteKind::DocumentedInvariant);
        let p = parse("fn f(x: Option<u32>) -> u32 { x.expect(\"whatever\") }\n");
        assert_eq!(p.fns[0].sites[0].kind, SiteKind::Panic);
    }

    #[test]
    fn classifies_alloc_sites() {
        let p = parse(
            "fn f() { let mut v = Vec::new(); v.push(1); let s = format!(\"x\"); let w: Vec<u32> = v.iter().cloned().collect(); let a = Arc::new(w); }\n",
        );
        let whats: Vec<&str> = p.fns[0].sites.iter().map(|s| s.what).collect();
        // `Vec::new()` is empty: the `push` is the allocation.
        assert_eq!(whats, ["push", "format!", "cloned", "collect", "Arc::new"]);
    }

    #[test]
    fn vec_macro_bracket_is_not_indexing() {
        let p = parse("fn f() { let v = vec![1, 2, 3]; }\n");
        assert!(p.fns[0].sites.iter().all(|s| s.what != "index"));
        assert!(p.fns[0].sites.iter().any(|s| s.what == "vec!"));
    }

    #[test]
    fn test_fns_are_exempt_from_sites() {
        let p = parse("#[cfg(test)]\nmod t {\n    #[test]\n    fn f() { let v: Vec<u32> = Vec::new(); v[0]; }\n}\n");
        assert!(p.fns[0].is_test);
        assert!(p.fns[0].sites.is_empty());
    }

    #[test]
    fn debug_assertions_block_is_skipped() {
        let p = parse(
            "fn f(x: &[u32]) {\n    #[cfg(debug_assertions)]\n    {\n        let _ = x[0];\n    }\n    let _ = x.len();\n}\n",
        );
        assert!(p.fns[0].sites.iter().all(|s| s.what != "index"));
    }

    #[test]
    fn negated_debug_assertions_statement_is_scanned() {
        // `cfg(not(debug_assertions))` is the RELEASE path — its calls and
        // sites must stay visible (regression: the controller's release
        // `engine.solve(…)` was invisible to the call graph).
        let p = parse(
            "fn f(x: &[u32]) {\n    #[cfg(not(debug_assertions))]\n    let y = solve(x[0]);\n}\n",
        );
        assert!(p.fns[0].sites.iter().any(|s| s.what == "index"));
        assert!(p.fns[0].calls.iter().any(|(_, c)| matches!(c, CallRef::Bare(n) if n == "solve")));
    }

    #[test]
    fn negated_cfg_test_fn_is_not_a_test() {
        let p = parse("#[cfg(not(test))]\nfn f(x: &[u32]) -> u32 { x[0] }\n");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[0].sites.iter().any(|s| s.what == "index"));
    }

    #[test]
    fn debug_assert_args_are_skipped() {
        let p = parse("fn f(x: &[u32]) { debug_assert!(x[0] > 0); }\n");
        assert!(p.fns[0].sites.is_empty());
    }

    #[test]
    fn metric_sites_keyed_and_literal() {
        let p = parse(
            "fn f(t: &T) {\n    t.incr(keys::CTRL_SOLVES, \"\");\n    t.incr(\"raw.name\", \"\");\n    t.gauge(gso_telemetry::keys::CTRL_QOE, \"\", 1.0);\n}\n",
        );
        assert_eq!(p.metric_sites.len(), 3);
        assert!(p.metric_sites[0].keyed);
        assert!(!p.metric_sites[1].keyed);
        assert!(p.metric_sites[2].keyed);
    }

    #[test]
    fn unit_sites_params_fields_lets() {
        let p = parse(
            "struct S { uplink_kbps: u64, name: String }\nfn f(target_bps: u64, ok: u32) { let cap_kbps: u32 = 5; }\n",
        );
        let idents: Vec<&str> = p.unit_sites.iter().map(|u| u.ident.as_str()).collect();
        assert_eq!(idents, vec!["uplink_kbps", "target_bps", "cap_kbps"]);
    }

    #[test]
    fn division_by_variable_flagged_by_float_skipped() {
        let p = parse("fn f(a: u64, b: u64) -> u64 { a / b }\n");
        assert!(p.fns[0].sites.iter().any(|s| s.what == "div"));
        let p = parse("fn f(a: f64, b: f64) -> f64 { a / b }\n");
        assert!(p.fns[0].sites.is_empty(), "float division cannot panic");
        let p = parse("fn f(a: u64) -> u64 { a / 2 }\n");
        assert!(p.fns[0].sites.is_empty(), "literal divisor cannot be zero");
    }

    #[test]
    fn self_path_resolves_to_impl_type() {
        let p = parse("impl Foo { fn a(&self) { Self::b(); } fn b() {} }\n");
        assert_eq!(p.fns[0].calls, vec![(1, CallRef::Path(vec!["Foo".into(), "b".into()]))]);
    }

    #[test]
    fn camelcase_tuple_ctor_is_not_a_call() {
        let p = parse("fn f() -> Ssrc { Ssrc(1) }\n");
        assert!(p.fns[0].calls.is_empty());
    }

    #[test]
    fn const_item_unit_site() {
        let p = parse("const DEFAULT_KBPS: u64 = 500;\n");
        assert_eq!(p.unit_sites.len(), 1);
        assert_eq!(p.unit_sites[0].ctx, UnitCtx::Const);
    }

    fn sync_ops(src: &str) -> Vec<SyncOp> {
        let p = parse(src);
        p.fns[0].sync.iter().map(|e| e.op.clone()).collect()
    }

    #[test]
    fn lock_acquire_records_identity_and_binding() {
        let ops = sync_ops("fn f(&self) { let mut g = self.shared.signal.lock().unwrap(); }\n");
        let acq = ops.iter().find_map(|o| match o {
            SyncOp::Acquire { lock, chain, bind, var, .. } => {
                Some((lock.clone(), chain.clone(), *bind, var.clone()))
            }
            _ => None,
        });
        let (lock, chain, bind, var) = acq.expect("acquire event");
        assert_eq!(lock, "signal");
        assert_eq!(chain, "self.shared.signal");
        assert_eq!(bind, BindKind::Let);
        assert_eq!(var.as_deref(), Some("g"));
    }

    #[test]
    fn accessor_verbs_are_skipped_for_lock_identity() {
        let ops = sync_ops(
            "fn f(&self) { let g = self.queues.get(qi).expect(\"x\").lock().unwrap(); }\n",
        );
        let lock = ops.iter().find_map(|o| match o {
            SyncOp::Acquire { lock, .. } => Some(lock.clone()),
            _ => None,
        });
        assert_eq!(lock.as_deref(), Some("queues"));
    }

    #[test]
    fn if_let_guard_is_cond_bound() {
        let ops =
            sync_ops("fn f(&self) { if let Ok(mut sig) = self.signal.lock() { sig.x = 1; } }\n");
        let acq = ops.iter().find_map(|o| match o {
            SyncOp::Acquire { bind, var, .. } => Some((*bind, var.clone())),
            _ => None,
        });
        assert_eq!(acq, Some((BindKind::CondLet, Some("sig".to_string()))));
    }

    #[test]
    fn temp_guard_has_no_binding() {
        let ops = sync_ops("fn f(&self) { self.state.lock().unwrap().count += 1; }\n");
        let acq = ops.iter().find_map(|o| match o {
            SyncOp::Acquire { bind, var, .. } => Some((*bind, var.clone())),
            _ => None,
        });
        assert_eq!(acq, Some((BindKind::Temp, None)));
    }

    #[test]
    fn wait_in_while_loop_and_guard_arg() {
        let ops = sync_ops(
            "fn f(&self) { let mut st = self.state.lock().unwrap(); while st.n > 0 { st = self.cv.wait(st).unwrap(); } }\n",
        );
        let wait = ops.iter().find_map(|o| match o {
            SyncOp::Wait { guard_arg, in_loop, .. } => Some((guard_arg.clone(), *in_loop)),
            _ => None,
        });
        assert_eq!(wait, Some((Some("st".to_string()), true)));
    }

    #[test]
    fn wait_outside_loop_detected() {
        let ops = sync_ops(
            "fn f(&self) { let g = self.m.lock().unwrap(); let g = self.cv.wait(g).unwrap(); }\n",
        );
        let wait = ops.iter().find_map(|o| match o {
            SyncOp::Wait { in_loop, .. } => Some(*in_loop),
            _ => None,
        });
        assert_eq!(wait, Some(false));
    }

    #[test]
    fn blocking_ops_and_drop_var() {
        let ops = sync_ops(
            "fn f(&self, rx: &Receiver<u32>) { let g = self.m.lock().unwrap(); let v = rx.recv().unwrap(); drop(g); std::thread::sleep(d); }\n",
        );
        assert!(ops.contains(&SyncOp::Block { what: "channel-recv" }));
        assert!(ops.contains(&SyncOp::Block { what: "thread-sleep" }));
        assert!(ops.iter().any(|o| matches!(o, SyncOp::DropVar { var } if var == "g")));
    }

    #[test]
    fn await_and_atomic_ordering_events() {
        let ops = sync_ops(
            "async fn f(&self) { self.fut.await; self.n.fetch_add(1, Ordering::Relaxed); let v = self.n.load(Ordering::Acquire); }\n",
        );
        assert!(ops.contains(&SyncOp::Await));
        let orderings: Vec<(String, Option<String>)> = ops
            .iter()
            .filter_map(|o| match o {
                SyncOp::AtomicOrdering { ordering, op } => Some((ordering.clone(), op.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            orderings,
            vec![
                ("Relaxed".to_string(), Some("fetch_add".to_string())),
                ("Acquire".to_string(), Some("load".to_string())),
            ]
        );
    }

    #[test]
    fn scope_and_semi_events_carry_depth() {
        let p = parse("fn f(&self) { { let g = self.m.lock().unwrap(); } g2(); }\n");
        let ev = &p.fns[0].sync;
        let acq_depth = ev
            .iter()
            .find(|e| matches!(e.op, SyncOp::Acquire { .. }))
            .map(|e| e.depth)
            .expect("acquire");
        assert_eq!(acq_depth, 2, "inner block is depth 2");
        assert!(
            ev.iter().any(|e| matches!(e.op, SyncOp::ScopeEnd) && e.depth == 1),
            "inner block close emits ScopeEnd back at depth 1"
        );
        assert!(ev.iter().any(|e| matches!(e.op, SyncOp::Semi) && e.depth == 2));
    }
}
