//! Data model shared by the parser, call graph, and passes.

/// How a call expression names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `recv.name(..)` — resolved by name against every workspace method
    /// (conservative: dynamic dispatch and generics make the receiver type
    /// unknowable at token level).
    Method(String),
    /// `a::b::name(..)` — resolved by path-suffix match; `Self::` is
    /// rewritten to the surrounding impl type first.
    Path(Vec<String>),
    /// `name(..)` — resolved same-module first, then same-crate, then
    /// workspace-wide.
    Bare(String),
}

/// A panic or allocation site inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Can abort the hot path: `unwrap`, undocumented `expect`, `panic!`
    /// family, raw indexing/slicing, division by a runtime value.
    Panic,
    /// `.expect("invariant: …")` — the sanctioned, documented form; counted
    /// in the report but never a violation.
    DocumentedInvariant,
    /// Allocator traffic: `push`, `collect`, `clone`, `Arc::new`, `format!`…
    Alloc,
}

/// One panic/alloc site.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    /// Site class.
    pub kind: SiteKind,
    /// The trigger (e.g. `unwrap`, `index`, `collect`, `format!`).
    pub what: &'static str,
}

/// One parsed function (free function or method) with its body events.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Scan-root-relative file path.
    pub file: String,
    /// Crate the file belongs to (directory name under `crates/`).
    pub krate: String,
    /// Module path within the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Surrounding `impl`/`trait` type name, if any.
    pub type_ctx: Option<String>,
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Line where the item starts (first attribute), for marker attachment.
    pub start_line: usize,
    /// True when under `#[cfg(test)]` or `#[test]`.
    pub is_test: bool,
    /// Calls made by the body: `(line, callee)`.
    pub calls: Vec<(usize, CallRef)>,
    /// Panic/alloc sites in the body.
    pub sites: Vec<Site>,
    /// Ordered synchronization events in the body (lock acquisitions,
    /// blocking operations, scope boundaries, …).
    pub sync: Vec<SyncEvent>,
}

impl FnInfo {
    /// Fully qualified display name, e.g. `algo::mckp::McState::solve_flat`.
    #[must_use]
    pub fn qualified(&self) -> String {
        let mut out = self.krate.clone();
        for m in &self.module {
            out.push_str("::");
            out.push_str(m);
        }
        if let Some(t) = &self.type_ctx {
            out.push_str("::");
            out.push_str(t);
        }
        out.push_str("::");
        out.push_str(&self.name);
        out
    }

    /// Path segments of the qualified name, for suffix matching.
    #[must_use]
    pub fn segments(&self) -> Vec<&str> {
        let mut segs: Vec<&str> = vec![&self.krate];
        segs.extend(self.module.iter().map(String::as_str));
        if let Some(t) = &self.type_ctx {
            segs.push(t);
        }
        segs.push(&self.name);
        segs
    }
}

/// How a lock-guard binding was introduced, which governs the
/// approximation of its lifetime during the linear event walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// `let g = m.lock()…;` — the guard lives until its block closes.
    Let,
    /// `if let Ok(g) = m.lock() { … }` / `while let …` — the guard lives
    /// only inside the condition's block.
    CondLet,
    /// Acquired as a temporary inside an expression statement — the guard
    /// dies at the end of the statement.
    Temp,
}

/// What a [`SyncEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOp {
    /// A guard acquisition: `.lock()`, or zero-argument `.read()`/`.write()`.
    Acquire {
        /// The acquiring method (`lock`, `read`, `write`).
        method: String,
        /// Approximate lock identity: the last field-like segment of the
        /// receiver chain (`self.shared.signal.lock()` → `signal`).
        lock: String,
        /// The full receiver chain, dot-joined, for diagnostics.
        chain: String,
        /// How the resulting guard was bound.
        bind: BindKind,
        /// The bound variable name, when there is one.
        var: Option<String>,
    },
    /// A condvar wait: `wait`, `wait_timeout`, `wait_while`,
    /// `wait_timeout_while`.
    Wait {
        /// The wait method name.
        method: String,
        /// First-argument identifier — the guard handed to the condvar,
        /// which is released for the duration of the wait.
        guard_arg: Option<String>,
        /// True when the wait sits inside a `while`/`loop` body (the
        /// predicate-loop discipline).
        in_loop: bool,
    },
    /// A blocking operation other than locking: channel `recv`,
    /// `thread::join`/`sleep`/`park`, file or socket I/O.
    Block {
        /// Category of the blocking operation.
        what: &'static str,
    },
    /// An explicit `drop(var)` / `mem::drop(var)` — ends the named guard.
    DropVar {
        /// The dropped variable.
        var: String,
    },
    /// A `.await` suspension point — any held guard spans a yield.
    Await,
    /// A `std::sync::atomic::Ordering::…` argument.
    AtomicOrdering {
        /// The ordering variant (`Relaxed`, `Acquire`, …).
        ordering: String,
        /// The atomic method it was passed to, when the last method call
        /// on the same line is known (`load`, `store`, `fetch_add`, …).
        op: Option<String>,
    },
    /// A workspace-resolvable call — index into [`FnInfo::calls`].
    Call {
        /// Position of the call in the function's `calls` list.
        index: usize,
    },
    /// End of an expression statement (`;`) at the event's depth.
    Semi,
    /// A block closed; the event's depth is the depth *after* closing.
    ScopeEnd,
}

/// One entry of a function body's ordered synchronization-event stream,
/// consumed by the concurrency pass. Events appear in source
/// (token) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEvent {
    /// 1-based source line.
    pub line: usize,
    /// Brace depth at the event (body entered at 1).
    pub depth: usize,
    /// What happened.
    pub op: SyncOp,
}

/// A telemetry recording call site (metric-key pass input).
#[derive(Debug, Clone)]
pub struct MetricSite {
    /// 1-based source line.
    pub line: usize,
    /// The method called (`incr`, `gauge`, `observe`, …).
    pub method: String,
    /// True when the first argument is a `keys::`-path const.
    pub keyed: bool,
    /// Raw first-argument text for the report.
    pub arg: String,
}

/// Declaration context of a unit-hygiene site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitCtx {
    /// Function parameter.
    Param,
    /// Struct/enum field.
    Field,
    /// `let` binding with an explicit primitive annotation.
    Let,
    /// Function return type (the *function name* matched the unit pattern).
    Return,
    /// `const`/`static` item.
    Const,
}

/// A bare-primitive declaration whose identifier names a bitrate unit.
#[derive(Debug, Clone)]
pub struct UnitSite {
    /// 1-based source line.
    pub line: usize,
    /// The offending identifier.
    pub ident: String,
    /// The primitive type it was declared as.
    pub prim: String,
    /// Where the declaration sits.
    pub ctx: UnitCtx,
    /// True when inside test code (exempt).
    pub is_test: bool,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Scan-root-relative path.
    pub file: String,
    /// Owning crate.
    pub krate: String,
    /// Parsed functions.
    pub fns: Vec<FnInfo>,
    /// Metric recording call sites.
    pub metric_sites: Vec<MetricSite>,
    /// Unit-hygiene declaration sites.
    pub unit_sites: Vec<UnitSite>,
    /// Line comments (for pragmas and markers).
    pub comments: Vec<(usize, String)>,
    /// Masked source: comments, strings and chars blanked, same line
    /// structure as the original (the determinism pass scans its lines).
    pub code: String,
    /// Raw source lines (for snippets).
    pub src_lines: Vec<String>,
}
