//! Token-level source model shared by the rules.
//!
//! The workspace builds offline with no `syn`, so the rules run on a
//! hand-rolled model:
//!
//! * [`lex`] — source masking (comments/strings/chars blanked, offsets and
//!   line structure preserved) and tokenization;
//! * [`parse`] — the approximate item/body parser: functions with module
//!   path, impl type, test-ness, call expressions, panic/alloc sites,
//!   metric and unit-hygiene sites;
//! * [`graph`] — the approximate intra-workspace call graph with
//!   dependency-constrained edge resolution and reachability;
//! * file walking — one sorted recursive walk per source tree, and the
//!   Cargo-manifest dependency map that constrains cross-crate call edges.

pub mod graph;
pub mod lex;
pub mod model;
pub mod parse;

pub use graph::CallGraph;
pub use model::ParsedFile;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir` (none when it does not
/// exist), sorted for deterministic report order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
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

/// Module path implied by a file's location under its source tree:
/// `src/lib.rs` → `[]`, `src/mckp.rs` → `["mckp"]`, `src/bin/x.rs` → `[]`,
/// `src/a/mod.rs` → `["a"]`.
fn module_prefix(rel: &Path) -> Vec<String> {
    let mut parts: Vec<String> = rel
        .with_extension("")
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if parts.first().is_some_and(|p| p == "bin") {
        return Vec::new();
    }
    if parts.last().is_some_and(|l| l == "lib" || l == "main" || l == "mod") {
        parts.pop();
    }
    parts
}

/// Scan-root-relative label of `path`.
fn label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned()
}

/// Parse every `.rs` file of each crate's `src/` and of the root facade
/// crate's `src/`.
///
/// # Errors
/// Propagates I/O failures reading the source tree.
pub fn parse_workspace(root: &Path) -> std::io::Result<Vec<ParsedFile>> {
    let mut trees: Vec<(PathBuf, String)> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let krate = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        trees.push((dir.join("src"), krate));
    }
    trees.push((root.join("src"), "gso_simulcast".to_string()));
    let mut out = Vec::new();
    for (tree, krate) in trees {
        let mut files = Vec::new();
        rust_files(&tree, &mut files)?;
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(&tree).unwrap_or(&path);
            out.push(parse::parse_file(&label(root, &path), &krate, &module_prefix(rel), &src));
        }
    }
    Ok(out)
}

/// Parse every `.rs` file under a fixture corpus root. Each file is its
/// own crate (named after the file stem) so fixtures stay self-contained;
/// labels are relative to `dir`.
///
/// # Errors
/// Propagates I/O failures reading the directory.
pub fn parse_fixtures(dir: &Path) -> std::io::Result<Vec<ParsedFile>> {
    let mut files = Vec::new();
    rust_files(dir, &mut files)?;
    let mut parsed = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        parsed.push(parse::parse_file(&label(dir, &path), &stem, &[], &src));
    }
    Ok(parsed)
}

/// Intra-workspace dependencies of one crate, read from its `Cargo.toml`
/// `[dependencies]` section: every `gso-x` entry maps to crate directory
/// name `x`. Dev-dependencies are ignored — they only link into tests,
/// which are never call-graph nodes.
fn manifest_deps(manifest: &Path) -> std::io::Result<Vec<String>> {
    let text = std::fs::read_to_string(manifest)?;
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps {
            if let Some(rest) = line.strip_prefix("gso-") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                deps.push(name.replace('-', "_"));
            }
        }
    }
    Ok(deps)
}

/// The workspace crate-dependency map: crate directory name → direct
/// intra-workspace dependencies, plus the root facade crate.
///
/// # Errors
/// Propagates I/O failures reading the manifests.
pub fn workspace_deps(root: &Path) -> std::io::Result<BTreeMap<String, Vec<String>>> {
    let mut deps = BTreeMap::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.filter_map(Result::ok) {
            let dir = entry.path();
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let krate =
                    dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                deps.insert(krate, manifest_deps(&manifest)?);
            }
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        deps.insert("gso_simulcast".to_string(), manifest_deps(&root_manifest)?);
    }
    Ok(deps)
}
