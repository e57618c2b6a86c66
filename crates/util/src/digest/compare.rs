//! Double-run digest comparison.
//!
//! Each deterministic run produces a [`DigestTrace`]: an ordered sequence of
//! [`DigestEntry`] ticks, each carrying the tick label, a combined digest,
//! and per-component digests plus a state dump for forensics. Comparing two
//! traces with [`first_divergence`] walks them forward to the first tick
//! whose combined digests differ, `O(n)` comparisons for an `n`-tick run.

use crate::digest::StableHasher;

/// One recorded tick of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// Tick label (usually the sim-time in microseconds).
    pub tick: u64,
    /// Combined digest over every component at this tick.
    pub combined: u64,
    /// Per-component `(name, digest)` pairs, in a fixed recording order.
    pub components: Vec<(String, u64)>,
    /// Human-readable state dump captured at recording time (may be empty
    /// when the recorder runs with dumps disabled).
    pub dump: String,
}

impl DigestEntry {
    /// Build an entry from component digests, deriving the combined digest.
    #[must_use]
    pub fn new(tick: u64, components: Vec<(String, u64)>, dump: String) -> Self {
        let mut h = StableHasher::new();
        h.write_u64(tick);
        h.write_len(components.len());
        for (name, digest) in &components {
            h.write_str(name);
            h.write_u64(*digest);
        }
        DigestEntry { tick, combined: h.finish(), components, dump }
    }
}

/// An ordered per-tick digest sequence from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestTrace {
    /// Recorded ticks, in execution order.
    pub entries: Vec<DigestEntry>,
}

impl DigestTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        DigestTrace::default()
    }

    /// Append one tick.
    pub fn record(&mut self, entry: DigestEntry) {
        self.entries.push(entry);
    }
}

/// The first point where two runs disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into `entries` of the first divergent tick.
    pub index: usize,
    /// The divergent entry from run A (`None` if run A ended first).
    pub a: Option<DigestEntry>,
    /// The divergent entry from run B (`None` if run B ended first).
    pub b: Option<DigestEntry>,
    /// Component names whose digests differ at the divergent tick (empty when
    /// the divergence is a length mismatch).
    pub divergent_components: Vec<String>,
}

impl Divergence {
    /// Multi-line forensic report: which tick diverged, which components, and
    /// both state dumps.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        match (&self.a, &self.b) {
            (Some(a), Some(b)) => {
                out.push_str(&format!(
                    "first divergence at index {} (tick {}):\n",
                    self.index, a.tick
                ));
                if a.tick != b.tick {
                    out.push_str(&format!(
                        "  tick label mismatch: run A tick {} vs run B tick {}\n",
                        a.tick, b.tick
                    ));
                }
                for name in &self.divergent_components {
                    let da = a.components.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
                    let db = b.components.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
                    out.push_str(&format!(
                        "  component {name}: A={} B={}\n",
                        da.map_or_else(|| "<absent>".to_string(), |d| format!("{d:#018x}")),
                        db.map_or_else(|| "<absent>".to_string(), |d| format!("{d:#018x}")),
                    ));
                }
                if !a.dump.is_empty() || !b.dump.is_empty() {
                    out.push_str("  --- run A state ---\n");
                    out.push_str(&indent(&a.dump));
                    out.push_str("  --- run B state ---\n");
                    out.push_str(&indent(&b.dump));
                }
            }
            (Some(a), None) => {
                out.push_str(&format!(
                    "run B ended at index {} but run A continues (tick {})\n",
                    self.index, a.tick
                ));
            }
            (None, Some(b)) => {
                out.push_str(&format!(
                    "run A ended at index {} but run B continues (tick {})\n",
                    self.index, b.tick
                ));
            }
            (None, None) => out.push_str("traces are identical\n"),
        }
        out
    }
}

fn indent(s: &str) -> String {
    let mut out = String::new();
    for line in s.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Walk two traces to the first divergent tick.
///
/// Returns `None` when the traces are identical. On a length mismatch with an
/// identical common prefix, the divergence index is the shorter trace's
/// length and the missing side is `None`.
#[must_use]
pub fn first_divergence(a: &DigestTrace, b: &DigestTrace) -> Option<Divergence> {
    let common = a.entries.len().min(b.entries.len());
    let Some(idx) =
        a.entries.iter().zip(&b.entries).position(|(ea, eb)| ea.combined != eb.combined)
    else {
        if a.entries.len() == b.entries.len() {
            return None;
        }
        // Identical common prefix, one run simply stopped recording earlier.
        return Some(Divergence {
            index: common,
            a: a.entries.get(common).cloned(),
            b: b.entries.get(common).cloned(),
            divergent_components: Vec::new(),
        });
    };
    let ea = &a.entries[idx];
    let eb = &b.entries[idx];
    let mut names: Vec<String> = Vec::new();
    for (name, da) in &ea.components {
        match eb.components.iter().find(|(n, _)| n == name) {
            Some((_, db)) if db == da => {}
            _ => names.push(name.clone()),
        }
    }
    for (name, _) in &eb.components {
        if !ea.components.iter().any(|(n, _)| n == name) {
            names.push(name.clone());
        }
    }
    Some(Divergence {
        index: idx,
        a: Some(ea.clone()),
        b: Some(eb.clone()),
        divergent_components: names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tick: u64, comps: &[(&str, u64)]) -> DigestEntry {
        DigestEntry::new(
            tick,
            comps.iter().map(|(n, d)| ((*n).to_string(), *d)).collect(),
            format!("dump@{tick}"),
        )
    }

    fn trace(entries: Vec<DigestEntry>) -> DigestTrace {
        DigestTrace { entries }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = trace((0..50).map(|i| entry(i, &[("x", i * 7)])).collect());
        assert!(first_divergence(&t, &t.clone()).is_none());
    }

    #[test]
    fn finds_the_first_divergent_tick() {
        let a = trace((0..100).map(|i| entry(i, &[("x", i)])).collect());
        let mut b = a.clone();
        // Diverge at index 37 and (as a real fault would) at every tick after.
        for i in 37..100 {
            b.entries[i] = entry(i as u64, &[("x", i as u64 + 1000)]);
        }
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 37);
        assert_eq!(d.divergent_components, vec!["x".to_string()]);
        assert!(d.report().contains("index 37"));
    }

    #[test]
    fn single_tick_divergence_is_found() {
        let a = trace((0..64).map(|i| entry(i, &[("q", i * 3)])).collect());
        let mut b = a.clone();
        b.entries[0] = entry(0, &[("q", 999)]);
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 0);
    }

    #[test]
    fn divergence_at_last_tick_is_found() {
        let a = trace((0..9).map(|i| entry(i, &[("q", i)])).collect());
        let mut b = a.clone();
        b.entries[8] = entry(8, &[("q", 77)]);
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 8);
    }

    #[test]
    fn length_mismatch_reports_shorter_end() {
        let a = trace((0..10).map(|i| entry(i, &[("x", i)])).collect());
        let b = trace((0..7).map(|i| entry(i, &[("x", i)])).collect());
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 7);
        assert!(d.a.is_some());
        assert!(d.b.is_none());
        assert!(d.report().contains("run B ended"));
    }

    #[test]
    fn component_set_mismatch_names_both_sides() {
        let a = trace(vec![entry(0, &[("x", 1), ("y", 2)])]);
        let b = trace(vec![entry(0, &[("x", 1), ("z", 3)])]);
        let d = first_divergence(&a, &b).expect("must diverge");
        assert!(d.divergent_components.contains(&"y".to_string()));
        assert!(d.divergent_components.contains(&"z".to_string()));
    }
}
