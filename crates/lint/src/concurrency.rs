//! Concurrency pass: five rules over synchronization events.
//!
//! * `lock-order` — every acquisition of lock B while lock A is held adds
//!   an order-graph edge A→B; callees reachable from the acquisition site
//!   contribute their transitive acquisitions. Any edge on a cycle
//!   (including A→A re-entry) is flagged at each witness site: two such
//!   cones interleaving is a deadlock.
//! * `hold-and-block` — a blocking operation (condvar wait on *another*
//!   lock's guard, channel `recv`, `thread::join`/`sleep`/`park`, file or
//!   socket I/O) executed, directly or through a callee, while a guard is
//!   live. Blocking under a lock turns one slow peer into a fleet-wide
//!   stall.
//! * `condvar-predicate` — `Condvar::wait`/`wait_timeout` must sit in a
//!   `while`/`loop` re-testing its predicate; condvars have spurious
//!   wakeups and an `if`-guarded wait acts on stale state.
//! * `atomics-policy` — every `Ordering::` use must match the DESIGN.md
//!   policy table (`Acquire` for loads, `Release` for stores, `AcqRel` /
//!   `SeqCst` for read-modify-write); `Relaxed` always demands a reasoned
//!   pragma because it provides no synchronization at all.
//! * `guard-across-yield` — a guard held across `.await` blocks every task
//!   on the executor thread, not just the waiting one. The workspace is
//!   sync today; the pass arms the rule for when async lands.
//!
//! Guard lifetimes are approximated from the parser's linear
//! synchronization-event stream: `let`-bound guards die when their block
//! closes, `if let`/`while let` guards when the condition's block closes,
//! temporaries at the end of their statement, and any named guard at an
//! explicit `drop(g)`. A guard dropped early inside a branch may thus be
//! over-approximated as still live — the fix is an explicit `drop` or a
//! reasoned pragma, both of which make the release point visible.

use crate::crate_tree;
use crate::report::{Finding, LockEdge, Report};
use crate::srcmodel::model::{BindKind, SyncOp};
use crate::srcmodel::{CallGraph, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifiers.
pub const RULES: &[&str] =
    &["lock-order", "hold-and-block", "condvar-predicate", "atomics-policy", "guard-across-yield"];

/// Scope: the hot-path scope plus every crate's `benches/` and the root
/// `examples/` — bench harnesses spawn real worker pools, so their locking
/// is production locking. `tests/` trees are exempt: a deadlock there
/// hangs CI loudly, and test code freely uses ad-hoc synchronization.
#[must_use]
pub fn scans(path: &str) -> bool {
    matches!(crate_tree(path), Some((_, "src" | "benches")))
        || path.starts_with("src/")
        || path.starts_with("examples/")
}

/// A guard believed live at the current point of the event walk.
#[derive(Debug, Clone)]
struct LiveGuard {
    lock: String,
    var: Option<String>,
    bind: BindKind,
    depth: usize,
}

/// Per-function direct synchronization effects, propagated transitively
/// over the call graph so a caller holding a guard is charged with what
/// its callees do.
#[derive(Debug, Default, Clone)]
struct Effects {
    acquires: BTreeSet<String>,
    blocks: BTreeSet<&'static str>,
}

/// Classify an atomic method name for the ordering policy table.
fn atomic_op_class(op: Option<&str>) -> &'static str {
    match op {
        Some("load") => "load",
        Some("store") => "store",
        Some(m) if m.starts_with("fetch_") || m == "swap" || m.starts_with("compare_exchange") => {
            "rmw"
        }
        _ => "unknown",
    }
}

/// Does `ordering` satisfy the policy table for an op of class `class`?
/// `Relaxed` never does — it always demands a pragma.
fn ordering_ok(ordering: &str, class: &str) -> bool {
    match ordering {
        "SeqCst" => true,
        "Acquire" => matches!(class, "load" | "rmw" | "unknown"),
        "Release" => matches!(class, "store" | "rmw" | "unknown"),
        "AcqRel" => matches!(class, "rmw" | "unknown"),
        _ => false, // Relaxed or unrecognized
    }
}

/// Run the five rules over the in-scope files, recording the lock-order
/// edge list and the atomics census alongside the findings.
pub fn run(files: &[&ParsedFile], deps: &BTreeMap<String, Vec<String>>, report: &mut Report) {
    let graph = CallGraph::build(files, deps);

    // ---- transitive effects ---------------------------------------------
    // Direct per-function effects, then a fixpoint over call edges so each
    // function's set covers everything reachable from it. The graph is
    // small (hundreds of nodes); the loop converges in a few rounds.
    let mut effects: Vec<Effects> = graph
        .fns
        .iter()
        .map(|f| {
            let mut e = Effects::default();
            for ev in &f.sync {
                match &ev.op {
                    SyncOp::Acquire { lock, .. } => {
                        e.acquires.insert(lock.clone());
                    }
                    SyncOp::Wait { .. } => {
                        e.blocks.insert("condvar-wait");
                    }
                    SyncOp::Block { what } => {
                        e.blocks.insert(what);
                    }
                    _ => {}
                }
            }
            e
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            for &c in &graph.edges[i] {
                if c == i {
                    continue;
                }
                let callee = effects[c].clone();
                let e = &mut effects[i];
                for l in callee.acquires {
                    changed |= e.acquires.insert(l);
                }
                for b in callee.blocks {
                    changed |= e.blocks.insert(b);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- event walk: guards, waits, atomics, edges ----------------------
    // Lock-order edges are collected first (with witness sites), then
    // cycle-checked once the whole graph is known.
    let mut edge_sites: BTreeMap<(String, String), Vec<(usize, usize)>> = BTreeMap::new();
    let push = |report: &mut Report, i: usize, line: usize, rule: &str, trigger: String| {
        let f = graph.fns[i];
        if let Some(pf) = files.iter().find(|p| p.file == f.file) {
            report.findings.push(Finding::new(pf, line, rule, trigger, f.qualified()));
        }
    };

    for (i, f) in graph.fns.iter().enumerate() {
        let mut live: Vec<LiveGuard> = Vec::new();
        for ev in &f.sync {
            match &ev.op {
                SyncOp::Acquire { lock, bind, var, .. } => {
                    // Same-identity re-acquisition records a self-edge:
                    // std mutexes are not re-entrant, so holding `a` while
                    // locking `a` self-deadlocks and the A→A edge is
                    // trivially cyclic.
                    for g in &live {
                        edge_sites
                            .entry((g.lock.clone(), lock.clone()))
                            .or_default()
                            .push((i, ev.line));
                    }
                    live.push(LiveGuard {
                        lock: lock.clone(),
                        var: var.clone(),
                        bind: *bind,
                        depth: ev.depth,
                    });
                }
                SyncOp::Wait { method, guard_arg, in_loop } => {
                    if !in_loop && matches!(method.as_str(), "wait" | "wait_timeout") {
                        push(
                            report,
                            i,
                            ev.line,
                            "condvar-predicate",
                            format!("{method} outside a while/loop predicate"),
                        );
                    }
                    // The waited-on guard is atomically released for the
                    // wait's duration; any *other* live guard stays held
                    // while this thread sleeps.
                    for g in &live {
                        let is_waited =
                            guard_arg.is_some() && g.var.as_deref() == guard_arg.as_deref();
                        if !is_waited {
                            push(
                                report,
                                i,
                                ev.line,
                                "hold-and-block",
                                format!("condvar-wait while holding `{}`", g.lock),
                            );
                        }
                    }
                }
                SyncOp::Block { what } => {
                    for g in &live {
                        push(
                            report,
                            i,
                            ev.line,
                            "hold-and-block",
                            format!("{what} while holding `{}`", g.lock),
                        );
                    }
                }
                SyncOp::DropVar { var } => {
                    live.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
                SyncOp::Await => {
                    for g in &live {
                        push(
                            report,
                            i,
                            ev.line,
                            "guard-across-yield",
                            format!("`{}` guard held across .await", g.lock),
                        );
                    }
                }
                SyncOp::AtomicOrdering { ordering, op } => {
                    *report.atomics.entry(ordering.clone()).or_insert(0) += 1;
                    let class = atomic_op_class(op.as_deref());
                    if !ordering_ok(ordering, class) {
                        let trigger = if ordering == "Relaxed" {
                            "Relaxed".to_string()
                        } else {
                            format!("{ordering} on {class}")
                        };
                        push(report, i, ev.line, "atomics-policy", trigger);
                    }
                }
                SyncOp::Call { index } => {
                    if live.is_empty() {
                        continue;
                    }
                    let Some((_, call)) = f.calls.get(*index) else { continue };
                    for c in graph.resolve(i, call) {
                        if c == i {
                            continue;
                        }
                        for g in &live {
                            for to in &effects[c].acquires {
                                if *to != g.lock {
                                    edge_sites
                                        .entry((g.lock.clone(), to.clone()))
                                        .or_default()
                                        .push((i, ev.line));
                                }
                            }
                            for what in &effects[c].blocks {
                                push(
                                    report,
                                    i,
                                    ev.line,
                                    "hold-and-block",
                                    format!(
                                        "{what} in `{}` while holding `{}`",
                                        graph.fns[c].qualified(),
                                        g.lock
                                    ),
                                );
                            }
                        }
                    }
                }
                SyncOp::Semi => {
                    live.retain(|g| !(g.bind == BindKind::Temp && ev.depth <= g.depth));
                }
                SyncOp::ScopeEnd => {
                    live.retain(|g| match g.bind {
                        BindKind::Let | BindKind::Temp => ev.depth >= g.depth,
                        BindKind::CondLet => ev.depth > g.depth,
                    });
                }
            }
        }
    }

    // ---- lock-order cycle detection -------------------------------------
    // An edge A→B is a violation when B reaches A through the order graph
    // (that includes A→A re-entry). The identity set is small, so a plain
    // BFS per edge is fine.
    let succ: BTreeMap<&str, BTreeSet<&str>> = {
        let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in edge_sites.keys() {
            m.entry(from.as_str()).or_default().insert(to.as_str());
        }
        m
    };
    let reaches = |start: &str, target: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = succ.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for ((from, to), sites) in &edge_sites {
        let cyclic = reaches(to, from);
        report.lock_edges.push(LockEdge {
            from: from.clone(),
            to: to.clone(),
            sites: sites.len(),
            cyclic,
        });
        if cyclic {
            for &(i, line) in sites {
                push(
                    report,
                    i,
                    line,
                    "lock-order",
                    format!("acquired `{to}` while holding `{from}` (order cycle)"),
                );
            }
        }
    }
}
