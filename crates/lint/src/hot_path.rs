//! The four hot-path rules over call-graph cones and declarations.
//!
//! * `hot-panic` — no `unwrap`/undocumented `expect`/`panic!` family/raw
//!   indexing/runtime division reachable from a declared hot-path root.
//! * `hot-alloc` — no allocator traffic (`push`, `collect`, `clone`,
//!   `Vec::with_capacity`, `Box::new`, `Arc::new`, `to_vec`, `format!`, …)
//!   reachable from a root.
//! * `metric-key` — every telemetry recording call outside
//!   `crates/telemetry` must pass a `keys::` const, never a literal or
//!   variable (the "every metric name lives in keys.rs" invariant).
//! * `unit-hygiene` — no bare-primitive declarations whose identifiers
//!   match `*_bps`/`*_kbps`/`*bitrate*` bypassing the `Bitrate` newtype
//!   (the newtype's own module is the one sanctioned boundary).
//!
//! Roots are declared with a `hot_path` marker directly above the function
//! (attributes included); a `cold_path` marker excludes a function (and
//! everything only reachable through it) from every cone — for slow-path
//! branches like crash recovery that share a caller with the hot loop. The
//! per-root report counts sites in each cone, allowed or not, so the
//! zero-alloc work has a tracked baseline.

use crate::pragma::Marker;
use crate::report::{Finding, PragmaError, Report, RootReport};
use crate::srcmodel::model::SiteKind;
use crate::srcmodel::{CallGraph, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifiers.
pub const RULES: &[&str] = &["hot-panic", "hot-alloc", "metric-key", "unit-hygiene"];

/// The one file allowed to declare bare-primitive bitrate quantities: the
/// `Bitrate` newtype's own conversion boundary.
const UNIT_BOUNDARY_FILE: &str = "bitrate.rs";

/// Run the four rules over `files`. `markers` are the `hot_path`/
/// `cold_path` markers found in them, as `(file, line, marker)`.
pub fn run(
    files: &[ParsedFile],
    deps: &BTreeMap<String, Vec<String>>,
    markers: &[(&ParsedFile, usize, Marker)],
    report: &mut Report,
) {
    let graph = CallGraph::build(files, deps);
    let file_of = |name: &str| files.iter().find(|p| p.file == name);

    // ---- markers ---------------------------------------------------------
    let mut roots: Vec<(usize, String)> = Vec::new();
    let mut cold: BTreeSet<usize> = BTreeSet::new();
    for (pf, line, marker) in markers {
        let line = *line;
        // A marker attaches to the function whose item (first attribute
        // included) starts on one of the next few lines, or whose `fn`
        // shares the marker's line (trailing comment).
        let target = graph.fns.iter().position(|f| {
            f.file == pf.file
                && ((f.start_line >= line && f.start_line <= line + 3) || f.line == line)
        });
        let message = match (target, marker) {
            (Some(idx), Marker::HotPath(label)) => {
                let label = label.clone().unwrap_or_else(|| graph.fns[idx].name.clone());
                roots.push((idx, label));
                continue;
            }
            (Some(idx), Marker::ColdPath) => {
                cold.insert(idx);
                continue;
            }
            (None, _)
                if pf
                    .fns
                    .iter()
                    .any(|f| f.is_test && f.start_line >= line && f.start_line <= line + 3) =>
            {
                "lint marker on a test function has no effect"
            }
            (None, _) => "lint marker is not attached to a function",
        };
        report.pragma_errors.push(PragmaError {
            file: pf.file.clone(),
            line,
            message: message.to_string(),
        });
    }
    roots.sort_by_key(|a| a.0);

    // ---- hot-panic & hot-alloc over the union of the cones ---------------
    let cones: Vec<(usize, String, BTreeSet<usize>)> = roots
        .into_iter()
        .map(|(idx, label)| (idx, label, graph.reachable(&[idx], &cold)))
        .collect();
    let hot: BTreeSet<usize> = cones.iter().flat_map(|(_, _, set)| set.iter().copied()).collect();
    for &idx in &hot {
        let f = graph.fns[idx];
        let Some(pf) = file_of(&f.file) else { continue };
        for site in &f.sites {
            let rule = match site.kind {
                SiteKind::Panic => "hot-panic",
                SiteKind::Alloc => "hot-alloc",
                SiteKind::DocumentedInvariant => continue, // counted per root only
            };
            report.findings.push(Finding::new(
                pf,
                site.line,
                rule,
                site.what.to_string(),
                f.qualified(),
            ));
        }
    }

    // ---- metric-key & unit-hygiene ---------------------------------------
    for pf in files {
        // The crate implementing the telemetry API is the metric boundary.
        if pf.krate != "telemetry" {
            for m in pf.metric_sites.iter().filter(|m| !m.keyed) {
                let trigger = format!("{}({})", m.method, m.arg);
                report.findings.push(Finding::new(
                    pf,
                    m.line,
                    "metric-key",
                    trigger,
                    String::new(),
                ));
            }
        }
        if pf.file.ends_with(UNIT_BOUNDARY_FILE) && pf.krate == "util" {
            continue;
        }
        for u in pf.unit_sites.iter().filter(|u| !u.is_test) {
            let trigger = format!("{}: {} ({:?})", u.ident, u.prim, u.ctx).to_lowercase();
            report.findings.push(Finding::new(pf, u.line, "unit-hygiene", trigger, String::new()));
        }
    }

    // ---- per-root summaries ----------------------------------------------
    for (idx, label, set) in cones {
        let mut root = RootReport {
            root: graph.fns[idx].qualified(),
            label,
            reachable_fns: set.len(),
            panic_sites: 0,
            documented_invariants: 0,
            alloc_sites: 0,
        };
        for s in set.iter().flat_map(|&i| &graph.fns[i].sites) {
            match s.kind {
                SiteKind::Panic => root.panic_sites += 1,
                SiteKind::DocumentedInvariant => root.documented_invariants += 1,
                SiteKind::Alloc => root.alloc_sites += 1,
            }
        }
        report.roots.push(root);
    }
}
