//! Approximate intra-workspace call graph and hot-path reachability.
//!
//! Nodes are every parsed function; edges come from the three call shapes
//! the parser records. Resolution over-approximates where receiver types
//! are unknowable (a missed edge could hide a panic site; an extra edge at
//! worst asks for one more reasoned pragma), but a *qualified* path names
//! its qualifier, so external paths stay external:
//!
//! * [`CallRef::Path`] — the qualifier segments must appear, in order, in
//!   a candidate's qualified segments (`Self::` was rewritten by the
//!   parser; a leading `gso_` crate prefix is normalized away). Subsequence
//!   rather than suffix matching keeps re-exports (`gso_algo::solve` for
//!   `algo::solver::solve`) resolvable. A path whose qualifier matches no
//!   workspace item (`Vec::new`, `std::mem::take`) is std/core and adds no
//!   edge — falling back to "every same-name function" would drag every
//!   workspace constructor into every cone.
//! * [`CallRef::Method`] — name match against every method (function with
//!   an impl/trait type) in the workspace: receiver types are unknowable
//!   at token level, so dynamic and generic dispatch resolve by name. The
//!   std container verbs in [`super::parse::ALLOC_METHODS`] are exempt:
//!   those calls are already counted as allocation sites where they occur,
//!   and resolving `.push(…)` by name would blame every workspace
//!   `push` impl for every `Vec::push` on a hot path.
//! * [`CallRef::Bare`] — same-module free functions first, then
//!   same-crate, then workspace-wide.
//!
//! Test functions never participate: they are neither nodes nor callees.

use super::model::{CallRef, FnInfo, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// All non-test functions, in deterministic (file, line) order.
    pub fns: Vec<&'a FnInfo>,
    /// Adjacency list: `edges[i]` lists callee indices of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
    /// All functions by name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Functions with an impl/trait type context, by name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Transitive closure of the crate dependency relation.
    closure: BTreeMap<String, BTreeSet<String>>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph over every non-test function of `files`,
    /// constrained by the workspace dependency relation: an edge from a
    /// function in crate `a` to one in crate `b` is only admitted when `b`
    /// is `a` itself or a transitive dependency of `a` per `deps` (crate →
    /// direct dependencies). A crate absent from `deps` is unconstrained,
    /// so an empty map (fixture corpora) admits every edge. This removes
    /// whole classes of name-match false edges — e.g. analysis tooling
    /// that shares a method name with runtime code can never actually be
    /// linked into it.
    pub fn build(files: &'a [ParsedFile], deps: &BTreeMap<String, Vec<String>>) -> Self {
        // Transitive closure of the dependency relation.
        let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for name in deps.keys() {
            let mut seen: BTreeSet<&str> = BTreeSet::from([name.as_str()]);
            let mut stack: Vec<&str> = vec![name.as_str()];
            while let Some(k) = stack.pop() {
                for d in deps.get(k).map(Vec::as_slice).unwrap_or_default() {
                    if seen.insert(d) {
                        stack.push(d);
                    }
                }
            }
            closure.insert(name.clone(), seen.into_iter().map(str::to_string).collect());
        }
        let mut fns: Vec<&FnInfo> =
            files.iter().flat_map(|f| f.fns.iter()).filter(|f| !f.is_test).collect();
        fns.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

        // Name indexes.
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if f.type_ctx.is_some() {
                methods_by_name.entry(f.name.clone()).or_default().push(i);
            }
        }

        let mut g = CallGraph { fns, edges: Vec::new(), by_name, methods_by_name, closure };
        let mut edges = vec![Vec::new(); g.fns.len()];
        for (i, edge_list) in edges.iter_mut().enumerate() {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for (_, call) in &g.fns[i].calls {
                out.extend(g.resolve(i, call));
            }
            out.remove(&i); // self-recursion adds nothing to reachability
            *edge_list = out.into_iter().collect();
        }
        g.edges = edges;
        g
    }

    /// Candidate callee indices of `call` made from `fns[caller]` (the
    /// caller itself may appear for a recursive call).
    fn resolve(&self, caller: usize, call: &CallRef) -> Vec<usize> {
        let f = self.fns[caller];
        let edge_ok = |from: &str, to: &str| -> bool {
            from == to || self.closure.get(from).is_none_or(|c| c.contains(to))
        };
        match call {
            CallRef::Method(name) => {
                if super::parse::ALLOC_METHODS.contains(&name.as_str()) {
                    return Vec::new(); // counted at the call site; see module docs
                }
                self.methods_by_name.get(name).map_or_else(Vec::new, |cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| edge_ok(&f.krate, &self.fns[c].krate))
                        .collect()
                })
            }
            CallRef::Path(segs) => {
                let want: Vec<&str> = segs
                    .iter()
                    .map(|s| s.as_str().strip_prefix("gso_").unwrap_or(s))
                    .filter(|s| !matches!(*s, "crate" | "self" | "super"))
                    .collect();
                let Some(name) = want.last() else { return Vec::new() };
                self.by_name.get(*name).map_or_else(Vec::new, |cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            edge_ok(&f.krate, &self.fns[c].krate)
                                && qualifier_matches(
                                    &self.fns[c].segments(),
                                    &want[..want.len() - 1],
                                )
                        })
                        .collect()
                })
            }
            CallRef::Bare(name) => {
                let Some(cands) = self.by_name.get(name) else { return Vec::new() };
                let cands: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| edge_ok(&f.krate, &self.fns[c].krate))
                    .collect();
                let free: Vec<usize> =
                    cands.iter().copied().filter(|&c| self.fns[c].type_ctx.is_none()).collect();
                let same_module: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&c| self.fns[c].krate == f.krate && self.fns[c].module == f.module)
                    .collect();
                let same_crate: Vec<usize> =
                    free.iter().copied().filter(|&c| self.fns[c].krate == f.krate).collect();
                if !same_module.is_empty() {
                    same_module
                } else if !same_crate.is_empty() {
                    same_crate
                } else if !free.is_empty() {
                    free
                } else {
                    // A bare call can also be a `use`-imported associated
                    // fn; fall back to any candidate.
                    cands
                }
            }
        }
    }

    /// Index of the function whose qualified name ends with `suffix`
    /// (path-separated), e.g. `"McState::solve_flat"`.
    #[cfg(test)]
    #[must_use]
    pub fn find(&self, suffix: &str) -> Option<usize> {
        let want: Vec<&str> = suffix.split("::").collect();
        self.fns.iter().position(|f| f.segments().ends_with(&want))
    }

    /// Breadth-first reachability from `roots`, never traversing `excluded`
    /// (cold-marked) nodes. Returns the set of reachable node indices,
    /// including the roots themselves.
    #[must_use]
    pub fn reachable(&self, roots: &[usize], excluded: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if !excluded.contains(&r) && seen.insert(r) {
                queue.push(r);
            }
        }
        while let Some(n) = queue.pop() {
            for &m in &self.edges[n] {
                if !excluded.contains(&m) && seen.insert(m) {
                    queue.push(m);
                }
            }
        }
        seen
    }
}

/// True when every qualifier segment appears, in order, within the
/// candidate's segments (excluding its final name segment). Subsequence
/// rather than suffix matching so re-exported paths still resolve.
fn qualifier_matches(segs: &[&str], qual: &[&str]) -> bool {
    let body = &segs[..segs.len() - 1];
    let mut it = body.iter();
    qual.iter().all(|q| it.any(|s| s == q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srcmodel::parse::parse_file;

    fn graph(files: &[ParsedFile]) -> CallGraph<'_> {
        CallGraph::build(files, &BTreeMap::new())
    }

    #[test]
    fn two_hop_reachability() {
        let src = "
fn root() { middle(); }
fn middle() { leaf(); }
fn leaf() { unrelated_data(); }
fn island() {}
fn unrelated_data() {}
";
        let files = vec![parse_file("a.rs", "a", &[], src)];
        let g = graph(&files);
        let root = g.find("a::root").expect("root exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        let names: Vec<&str> = reach.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert!(names.contains(&"leaf"), "two calls deep must be reachable");
        assert!(names.contains(&"unrelated_data"));
        assert!(!names.contains(&"island"));
    }

    #[test]
    fn method_calls_resolve_by_name() {
        let src = "
struct S;
impl S { fn work(&self) { helper(); } }
fn drive(s: &S) { s.work(); }
fn helper() {}
";
        let files = vec![parse_file("a.rs", "a", &[], src)];
        let g = graph(&files);
        let root = g.find("a::drive").expect("drive exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        let names: Vec<&str> = reach.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert!(names.contains(&"work"));
        assert!(names.contains(&"helper"), "method edge must chain onward");
    }

    #[test]
    fn cross_crate_path_calls_resolve() {
        let a = parse_file("a.rs", "algo", &["mckp".to_string()], "pub fn solve() {}");
        let b = parse_file("b.rs", "control", &[], "fn tick() { mckp::solve(); }");
        let files = vec![a, b];
        let g = graph(&files);
        let root = g.find("control::tick").expect("tick exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        assert!(reach.iter().any(|&i| g.fns[i].qualified() == "algo::mckp::solve"));
    }

    #[test]
    fn excluded_nodes_cut_the_cone() {
        let src = "
fn root() { cold(); }
fn cold() { leaf(); }
fn leaf() {}
";
        let files = vec![parse_file("a.rs", "a", &[], src)];
        let g = graph(&files);
        let root = g.find("a::root").expect("root");
        let cold = g.find("a::cold").expect("cold");
        let reach = g.reachable(&[root], &BTreeSet::from([cold]));
        assert!(!reach.iter().any(|&i| g.fns[i].name == "leaf"));
    }

    #[test]
    fn external_paths_add_no_edges() {
        let a = parse_file("a.rs", "a", &[], "fn tick() { let v: Vec<u8> = Vec::new(); }");
        let b = parse_file(
            "b.rs",
            "b",
            &[],
            "struct Pool; impl Pool { fn new() -> Pool { helper(); Pool } } fn helper() {}",
        );
        let files = vec![a, b];
        let g = graph(&files);
        let root = g.find("a::tick").expect("tick exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        assert!(
            !reach.iter().any(|&i| g.fns[i].name == "new"),
            "Vec::new must not resolve to an unrelated workspace constructor"
        );
    }

    #[test]
    fn reexported_paths_resolve_by_subsequence() {
        let a = parse_file("a.rs", "algo", &["solver".to_string()], "pub fn solve() {}");
        let b = parse_file("b.rs", "control", &[], "fn tick() { gso_algo::solve(); }");
        let files = vec![a, b];
        let g = graph(&files);
        let root = g.find("control::tick").expect("tick exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        assert!(reach.iter().any(|&i| g.fns[i].qualified() == "algo::solver::solve"));
    }

    #[test]
    fn container_verbs_skip_method_resolution() {
        let a = parse_file("a.rs", "a", &[], "fn tick(v: &mut Vec<u8>) { v.push(1); }");
        let b = parse_file(
            "b.rs",
            "b",
            &[],
            "struct Samples; impl Samples { fn push(&mut self) { helper(); } } fn helper() {}",
        );
        let files = vec![a, b];
        let g = graph(&files);
        let root = g.find("a::tick").expect("tick exists");
        let reach = g.reachable(&[root], &BTreeSet::new());
        assert!(
            !reach.iter().any(|&i| g.fns[i].name == "push"),
            ".push() is counted at the call site, not resolved to workspace impls"
        );
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let src = "#[cfg(test)]\nmod t { fn helper() {} }\nfn real() {}\n";
        let files = vec![parse_file("a.rs", "a", &[], src)];
        let g = graph(&files);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }
}
