//! Deterministic, sim-time-stamped observability for a GSO conference.
//!
//! The paper's evaluation (Figs. 7–12) is built from *measurements* of a
//! running conference: bitrate traces, controller reaction times, stall
//! counts. This crate gives every layer of the reproduction one uniform way
//! to record those measurements:
//!
//! * **Counters** — monotone event tallies (GTMB sends, link drops).
//! * **Gauges** — last-value samples (current bandwidth estimate, QoE).
//! * **Histograms** — fixed-bucket distributions with static bounds
//!   (solve work per orchestration round, layer-switch latency).
//! * **Events** — a bounded ring of sim-time-stamped structured events
//!   (fallback entries, overuse transitions, GTMB delivery failures).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Two runs of the same scenario must serialize
//!    byte-identical exports. All state lives in [`BTreeMap`]s keyed by
//!    static name, then label; timestamps are [`SimTime`] (never wall
//!    clock), and the JSON writer emits keys in sorted order. There is no
//!    floating-point accumulation anywhere on the counter/histogram path.
//! 2. **Near-zero cost when disabled.** Every recording site holds a
//!    [`Telemetry`] handle; the disabled handle is a `None` and each
//!    operation is a single branch — labels are not even formatted. An
//!    enabled handle formats the label into a reused buffer, so only the
//!    first record of a (name, label) pair allocates. That first record
//!    resolves the pair into a dense [`Slot`]; a per-packet site caches
//!    the slot ([`Telemetry::add_cached`]), and its later hits neither
//!    format a label nor probe a map.
//! 3. **Static metric keys.** Metric names are `&'static str` constants in
//!    [`keys`]; dynamic cardinality goes in the label dimension only.
//!
//! The export format is hand-rolled JSON in the same spirit as
//! `BENCH_solver.json` (the workspace has no serialization dependency):
//! one object with a sorted `metrics` array and a bounded `events` ring.

pub mod keys;

use gso_util::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Display, Write as _};
use std::sync::{Arc, MutexGuard};

/// Capacity of the bounded event ring.
pub const EVENT_CAPACITY: usize = 4096;

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Last-value gauge (finite values only; non-finite samples are dropped).
    Gauge(f64),
    /// Fixed-bucket histogram. `counts[i]` tallies samples `<= bounds[i]`;
    /// the final slot (`counts[bounds.len()]`) is the overflow (+inf) bucket.
    Histogram { bounds: &'static [u64], counts: Vec<u64>, total: u64, sum: u64 },
}

/// A sim-time-stamped structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Registry-assigned arrival sequence number. Multiple sources (the
    /// controller, per-client SFU handles, BWE estimators) can record at the
    /// same sim-time; `seq` is the deterministic tie-breaker that makes the
    /// export order `(at, seq)` a total order independent of which source's
    /// recording call happened to land in the ring first.
    pub seq: u64,
    /// Static event kind (e.g. `"gtmb_failed"`).
    pub kind: &'static str,
    /// Free-form detail string (client id, value, …).
    pub detail: String,
}

/// Snapshot of one histogram, as returned by [`Telemetry::histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Static upper bounds of the finite buckets.
    pub bounds: &'static [u64],
    /// Bucket tallies; one longer than `bounds` (last slot = overflow).
    pub counts: Vec<u64>,
    /// Number of recorded samples.
    pub total: u64,
    /// Sum of recorded samples.
    pub sum: u64,
}

/// A `(name, label)` metric resolved to its dense index in one registry.
///
/// [`Telemetry::add_cached`] fills a cached slot at the pair's first
/// record and writes through it afterwards. A slot belongs to the registry
/// that resolved it: a holder that switches handles drops its cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// The per-conference metric registry behind an enabled [`Telemetry`]
/// handle. Not used directly — all access goes through the handle.
#[derive(Debug, Default)]
struct Registry {
    conference: String,
    /// Every recorded metric, in first-record order; a [`Slot`] indexes it.
    values: Vec<MetricValue>,
    /// Slot of each metric by name, then label: the export order. A
    /// first record looks the label up by `&str`.
    slots: BTreeMap<&'static str, BTreeMap<String, Slot>>,
    /// Scratch buffer each record formats its label into.
    label: String,
    events: VecDeque<Event>,
    events_dropped: u64,
    /// Next event sequence id; monotone over the registry's lifetime (keeps
    /// counting across ring evictions).
    next_event_seq: u64,
}

impl Registry {
    fn new(conference: String) -> Self {
        Registry { conference, ..Registry::default() }
    }

    /// The slot of `(name, label)`, created with the value `init` gives
    /// on the pair's first record.
    fn resolve_slot(
        &mut self,
        name: &'static str,
        label: impl Display,
        init: impl FnOnce() -> MetricValue,
    ) -> Slot {
        self.label.clear();
        let _ = write!(self.label, "{label}");
        let labels = self.slots.entry(name).or_default();
        if let Some(&slot) = labels.get(self.label.as_str()) {
            return slot;
        }
        let slot = Slot(self.values.len() as u32);
        // The index takes the formatted label itself; the scratch buffer
        // grows again at the next record.
        // lint: allow(hot-alloc, reason = "the first record of a (name, label) pair indexes its label; every later hit finds the slot through the scratch buffer or a cached slot")
        labels.insert(std::mem::take(&mut self.label), slot);
        // lint: allow(hot-alloc, reason = "one value per (name, label) pair, pushed at its first record")
        self.values.push(init());
        slot
    }

    fn slot_value(&mut self, slot: Slot) -> &mut MetricValue {
        self.values
            .get_mut(slot.0 as usize)
            .expect("invariant: a slot indexes the registry that resolved it")
    }

    /// The recorded metric `(name, label)`, if any.
    fn recorded(&self, name: &'static str, label: impl Display) -> Option<&MetricValue> {
        let slot = self.slots.get(name)?.get(label.to_string().as_str())?;
        self.values.get(slot.0 as usize)
    }

    /// Every metric recorded under `name`, in label order.
    fn recorded_under(&self, name: &'static str) -> impl Iterator<Item = &MetricValue> {
        self.slots
            .get(name)
            .into_iter()
            .flat_map(BTreeMap::values)
            .map(|s| &self.values[s.0 as usize])
    }

    /// Every metric in export order: by name, then label.
    fn in_export_order(&self) -> impl Iterator<Item = (&'static str, &str, &MetricValue)> {
        self.slots.iter().flat_map(move |(name, labels)| {
            labels
                .iter()
                .map(move |(label, slot)| (*name, label.as_str(), &self.values[slot.0 as usize]))
        })
    }

    fn push_event(&mut self, at: SimTime, kind: &'static str, detail: String) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        if self.events.len() == EVENT_CAPACITY {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        // lint: allow(hot-alloc, reason = "bounded event ring; push_back pairs with the pop_front cap below")
        self.events.push_back(Event { at, seq, kind, detail });
    }

    /// Events in export order: ascending `(at, seq)`. The ring holds arrival
    /// order, which equals seq order; sorting by time with the seq
    /// tie-break makes the export order provably stable even when a source
    /// records an event carrying an earlier timestamp after a later one was
    /// already ringed.
    fn ordered_events(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self.events.iter().cloned().collect();
        evs.sort_by_key(|e| (e.at, e.seq));
        evs
    }
}

/// Cloneable handle to a conference metric registry.
///
/// Cloning is cheap and every clone records into the same registry. The
/// handle is `Send`, so a controller can tick on a batch worker: its
/// registry sits behind a mutex that only one thread uses at a time,
/// because each owner (a conference, a node) records into its own
/// registry and the owners take turns. [`Telemetry::disabled`] (also the
/// [`Default`]) carries no registry: every operation is one branch and no
/// label is formatted, which keeps instrumented hot paths free for unit
/// tests and library consumers that do not observe.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    #[expect(
        clippy::disallowed_types,
        reason = "one owner records at a time (a fleet conference ticks on one worker), so the lock never orders concurrent records"
    )]
    inner: Option<Arc<std::sync::Mutex<Registry>>>,
}

impl Telemetry {
    /// An enabled registry for the named conference.
    #[must_use]
    pub fn new(conference: impl Into<String>) -> Self {
        Telemetry { inner: Some(Arc::new(Registry::new(conference.into()).into())) }
    }

    /// The registry, when enabled.
    fn registry(&self) -> Option<MutexGuard<'_, Registry>> {
        let inner = self.inner.as_ref()?;
        Some(inner.lock().expect("invariant: a recording panicked while holding the registry"))
    }

    /// Do both handles record into one enabled registry?
    #[must_use]
    pub fn shares_registry(&self, other: &Telemetry) -> bool {
        matches!((&self.inner, &other.inner), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// A handle that records nothing (the default at every call site).
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Does this handle record into a registry?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the counter `(name, label)`.
    pub fn add(&self, name: &'static str, label: impl Display, delta: u64) {
        self.add_cached(&mut None, name, label, delta);
    }

    /// Add `delta` to the counter `(name, label)` through `slot`, a cache
    /// of its resolved [`Slot`]: an empty cache is filled at this record,
    /// and a filled one is written through without formatting `label` or
    /// probing a map. The cache must come from this handle's registry.
    pub fn add_cached(
        &self,
        slot: &mut Option<Slot>,
        name: &'static str,
        label: impl Display,
        delta: u64,
    ) {
        let Some(mut reg) = self.registry() else { return };
        let slot =
            *slot.get_or_insert_with(|| reg.resolve_slot(name, label, || MetricValue::Counter(0)));
        if let MetricValue::Counter(v) = reg.slot_value(slot) {
            *v += delta;
        } else {
            debug_assert!(false, "metric {name} recorded with mixed kinds");
        }
    }

    /// Increment the counter `(name, label)` by one.
    pub fn incr(&self, name: &'static str, label: impl Display) {
        self.add(name, label, 1);
    }

    /// Set the gauge `(name, label)` to `value`. Non-finite samples are
    /// dropped (they would poison the deterministic export).
    pub fn gauge(&self, name: &'static str, label: impl Display, value: f64) {
        if self.inner.is_none() {
            return;
        }
        if !value.is_finite() {
            debug_assert!(false, "gauge {name} sampled with a non-finite value");
            return;
        }
        let Some(mut reg) = self.registry() else { return };
        let slot = reg.resolve_slot(name, label, || MetricValue::Gauge(value));
        *reg.slot_value(slot) = MetricValue::Gauge(value);
    }

    /// Record `value` into the fixed-bucket histogram `(name, label)`.
    ///
    /// `bounds` must be a static, strictly increasing slice of inclusive
    /// upper bounds; the same metric name must always be recorded with the
    /// same bounds (see [`keys`] for the shipped bound sets).
    pub fn observe(
        &self,
        name: &'static str,
        label: impl Display,
        value: u64,
        bounds: &'static [u64],
    ) {
        let Some(mut reg) = self.registry() else { return };
        let slot = reg.resolve_slot(name, label, || {
            // lint: allow(hot-alloc, reason = "a histogram lazily allocates its buckets once per (name, label) pair")
            MetricValue::Histogram { bounds, counts: vec![0; bounds.len() + 1], total: 0, sum: 0 }
        });
        if let MetricValue::Histogram { bounds, counts, total, sum } = reg.slot_value(slot) {
            let idx = bounds.partition_point(|&b| b < value);
            *counts
                .get_mut(idx)
                .expect("invariant: counts holds bounds.len()+1 buckets and partition_point <= bounds.len()") += 1;
            *total += 1;
            *sum += value;
        } else {
            debug_assert!(false, "metric {name} recorded with mixed kinds");
        }
    }

    /// Append a structured event to the bounded ring (drop-oldest). The
    /// registry stamps each event with a monotone sequence id, so events
    /// recorded at the same sim-time keep a deterministic total order.
    pub fn event(&self, at: SimTime, kind: &'static str, detail: impl Display) {
        let Some(mut reg) = self.registry() else { return };
        // lint: allow(hot-alloc, reason = "the bounded ring owns each event's detail; events mark rare transitions (fallback, overuse, delivery failure)")
        reg.push_event(at, kind, detail.to_string());
    }

    // ------------------------------------------------------------------
    // Queries (used by experiment drivers to summarize a run).
    // ------------------------------------------------------------------

    /// Value of the counter `(name, label)`; 0 when absent or disabled.
    #[must_use]
    pub fn counter(&self, name: &'static str, label: impl Display) -> u64 {
        let Some(reg) = self.registry() else { return 0 };
        match reg.recorded(name, label) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of the counter `name` across all labels.
    #[must_use]
    pub fn counter_total(&self, name: &'static str) -> u64 {
        let Some(reg) = self.registry() else { return 0 };
        reg.recorded_under(name)
            .map(|m| match m {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Last value of the gauge `(name, label)`.
    #[must_use]
    pub fn gauge_value(&self, name: &'static str, label: impl Display) -> Option<f64> {
        let reg = self.registry()?;
        match reg.recorded(name, label) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Snapshot of the histogram `(name, label)`.
    #[must_use]
    pub fn histogram(&self, name: &'static str, label: impl Display) -> Option<HistogramSnapshot> {
        let reg = self.registry()?;
        match reg.recorded(name, label) {
            Some(MetricValue::Histogram { bounds, counts, total, sum }) => {
                Some(HistogramSnapshot { bounds, counts: counts.clone(), total: *total, sum: *sum })
            }
            _ => None,
        }
    }

    /// `(sample count, sample sum)` of the histogram `name` across all
    /// labels.
    #[must_use]
    pub fn histogram_total(&self, name: &'static str) -> (u64, u64) {
        let Some(reg) = self.registry() else { return (0, 0) };
        reg.recorded_under(name).fold((0, 0), |(c, s), m| match m {
            MetricValue::Histogram { total, sum, .. } => (c + total, s + sum),
            _ => (c, s),
        })
    }

    /// All recorded events in export order: ascending sim-time, ties broken
    /// by the deterministic per-registry sequence id.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.registry().map_or_else(Vec::new, |reg| reg.ordered_events())
    }

    /// Serialize the registry as stable machine-readable JSON.
    ///
    /// The writer is deterministic by construction: metrics are emitted in
    /// `BTreeMap` order of `(name, label)`, events in ring (arrival) order,
    /// all integers in decimal and gauges through Rust's shortest-roundtrip
    /// `f64` formatter. Two runs that record the same sequence produce
    /// byte-identical strings. A disabled handle exports `"{}"`.
    #[must_use]
    pub fn export_json(&self) -> String {
        let Some(reg) = self.registry() else { return "{}".to_string() };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(out, "  \"conference\": {},\n  \"metrics\": [", json_str(&reg.conference));
        let mut first = true;
        for (name, label, metric) in reg.in_export_order() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"label\": {}, ",
                json_str(name),
                json_str(label)
            );
            match metric {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"type\": \"counter\", \"value\": {v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"type\": \"gauge\", \"value\": {v}}}");
                }
                MetricValue::Histogram { bounds, counts, total, sum } => {
                    let _ = write!(
                        out,
                        "\"type\": \"histogram\", \"count\": {total}, \"sum\": {sum}, \"buckets\": ["
                    );
                    for (i, n) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        match bounds.get(i) {
                            Some(le) => {
                                let _ = write!(out, "{{\"le\": {le}, \"n\": {n}}}");
                            }
                            None => {
                                let _ = write!(out, "{{\"le\": \"inf\", \"n\": {n}}}");
                            }
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        if !first {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"events\": {{\"capacity\": {}, \"dropped\": {}, \"entries\": [",
            EVENT_CAPACITY, reg.events_dropped
        );
        let mut first = true;
        for ev in reg.ordered_events() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"t_us\": {}, \"seq\": {}, \"kind\": {}, \"detail\": {}}}",
                ev.at.as_micros(),
                ev.seq,
                json_str(ev.kind),
                json_str(&ev.detail)
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]}\n}\n");
        out
    }

    /// Stable 64-bit digest of the registry's exportable state: the
    /// conference name, every metric in `(name, label)` order, and the event
    /// ring in `(at, seq)` export order. Two registries export byte-identical
    /// JSON iff their digests match, at a fraction of the serialization cost
    /// — this is what the per-tick divergence recorder hashes.
    #[must_use]
    pub fn export_digest(&self) -> u64 {
        use gso_util::digest::{StableHasher, StateDigest};
        let mut h = StableHasher::new();
        let Some(reg) = self.registry() else { return h.finish() };
        h.write_str(&reg.conference);
        h.write_len(reg.in_export_order().count());
        for (name, label, metric) in reg.in_export_order() {
            h.write_str(name);
            h.write_str(label);
            match metric {
                MetricValue::Counter(v) => {
                    h.write_u8(0);
                    h.write_u64(*v);
                }
                MetricValue::Gauge(v) => {
                    h.write_u8(1);
                    h.write_f64(*v);
                }
                MetricValue::Histogram { bounds, counts, total, sum } => {
                    h.write_u8(2);
                    bounds.digest(&mut h);
                    counts.digest(&mut h);
                    h.write_u64(*total);
                    h.write_u64(*sum);
                }
            }
        }
        h.write_u64(reg.events_dropped);
        let evs = reg.ordered_events();
        h.write_len(evs.len());
        for ev in evs {
            ev.at.digest(&mut h);
            h.write_u64(ev.seq);
            h.write_str(ev.kind);
            h.write_str(&ev.detail);
        }
        h.finish()
    }
}

/// Quote and escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.kind, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr("x", 1);
        t.gauge("g", "", 3.5);
        t.observe("h", "", 10, &[1, 100]);
        t.event(SimTime::ZERO, "e", "detail");
        assert!(!t.enabled());
        assert_eq!(t.counter("x", 1), 0);
        assert_eq!(t.export_json(), "{}");
        assert!(t.events().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let t = Telemetry::new("conf");
        t.incr("c", "a");
        t.add("c", "a", 4);
        t.incr("c", "b");
        assert_eq!(t.counter("c", "a"), 5);
        assert_eq!(t.counter("c", "b"), 1);
        assert_eq!(t.counter_total("c"), 6);

        t.gauge("g", "", 1.0);
        t.gauge("g", "", 2.5);
        assert_eq!(t.gauge_value("g", ""), Some(2.5));

        const BOUNDS: &[u64] = &[10, 100];
        t.observe("h", "", 5, BOUNDS);
        t.observe("h", "", 10, BOUNDS); // inclusive upper bound
        t.observe("h", "", 50, BOUNDS);
        t.observe("h", "", 1000, BOUNDS); // overflow bucket
        let snap = t.histogram("h", "").unwrap();
        assert_eq!(snap.counts, vec![2, 1, 1]);
        assert_eq!(snap.total, 4);
        assert_eq!(snap.sum, 1065);
        assert_eq!(t.histogram_total("h"), (4, 1065));
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::new("conf");
        let u = t.clone();
        t.incr("c", "");
        u.incr("c", "");
        assert_eq!(t.counter("c", ""), 2);
    }

    #[test]
    fn cached_slots_record_exactly_what_the_string_api_records() {
        let by_string = Telemetry::new("conf");
        let by_slot = Telemetry::new("conf");
        let (mut a, mut b) = (None, None);
        assert_eq!(by_slot.export_json(), by_string.export_json(), "nothing before a record");
        for delta in [3, 5, 7] {
            by_string.add("c", "a", delta);
            by_string.add("c", 2, delta);
            by_slot.add_cached(&mut a, "c", "a", delta);
            by_slot.add_cached(&mut b, "c", 2, delta);
        }
        assert!(a.is_some() && b.is_some() && a != b, "one slot per (name, label)");
        assert_eq!(by_slot.counter("c", "a"), 15);
        assert_eq!(by_slot.export_json(), by_string.export_json());
        assert_eq!(by_slot.export_digest(), by_string.export_digest());
        // The string API writes through the same slot a cache holds.
        by_slot.add("c", "a", 1);
        by_slot.add_cached(&mut a, "c", "a", 1);
        assert_eq!(by_slot.counter("c", "a"), 17);
        // A disabled handle leaves the cache empty.
        let mut none = None;
        Telemetry::disabled().add_cached(&mut none, "c", "a", 1);
        assert_eq!(none, None);
    }

    #[test]
    fn shares_registry_only_between_clones_of_one_enabled_registry() {
        let t = Telemetry::new("conf");
        assert!(t.shares_registry(&t.clone()));
        assert!(!t.shares_registry(&Telemetry::new("conf")));
        assert!(!Telemetry::disabled().shares_registry(&Telemetry::disabled()));
    }

    #[test]
    fn event_ring_drops_oldest() {
        let t = Telemetry::new("conf");
        let n = EVENT_CAPACITY as u64;
        for i in 0..=n {
            t.event(SimTime::from_millis(i), "e", i);
        }
        let evs = t.events();
        assert_eq!(evs.len(), EVENT_CAPACITY);
        assert_eq!(evs[0].detail, "1");
        assert_eq!(evs[EVENT_CAPACITY - 1].detail, n.to_string());
        assert!(t.export_json().contains("\"dropped\": 1"));
    }

    #[test]
    fn identical_recordings_export_byte_identical_json() {
        let record = || {
            let t = Telemetry::new("conf-0");
            t.incr("gtmb.sent", 7);
            t.add("net.link.delivered_bytes", "n1->n2", 1500);
            t.gauge("bwe.estimate_bps", "up:3", 2_500_000.0);
            t.observe("ctrl.solve.iterations", "", 3, &[1, 2, 4, 8]);
            t.event(SimTime::from_millis(200), "fallback", "client 7");
            t.export_json()
        };
        let a = record();
        let b = record();
        assert_eq!(a, b, "same recording sequence must serialize identically");
        assert!(a.contains("\"conference\": \"conf-0\""));
    }

    #[test]
    fn export_is_sorted_by_name_then_label() {
        let t = Telemetry::new("conf");
        t.incr("z.metric", "b");
        t.incr("a.metric", "z");
        t.incr("z.metric", "a");
        let json = t.export_json();
        let a = json.find("a.metric").unwrap();
        let za = json.find("\"name\": \"z.metric\", \"label\": \"a\"").unwrap();
        let zb = json.find("\"name\": \"z.metric\", \"label\": \"b\"").unwrap();
        assert!(a < za && za < zb);
    }

    #[test]
    fn equal_time_events_keep_deterministic_seq_order() {
        // Simulate two concurrent sources recording at the same sim-time
        // through separate handle clones: the (at, seq) order must reflect
        // arrival order, and the export must carry the tie-breaking seq.
        let t = Telemetry::new("conf");
        let source_a = t.clone();
        let source_b = t.clone();
        let now = SimTime::from_millis(100);
        source_a.event(now, "bwe_overuse", "client 1");
        source_b.event(now, "fallback", "client 2");
        source_a.event(now, "bwe_overuse", "client 3");
        let evs = t.events();
        assert_eq!(
            evs.iter().map(|e| (e.seq, e.kind)).collect::<Vec<_>>(),
            vec![(0, "bwe_overuse"), (1, "fallback"), (2, "bwe_overuse")]
        );
        let json = t.export_json();
        let a = json.find("\"seq\": 0").unwrap();
        let b = json.find("\"seq\": 1").unwrap();
        let c = json.find("\"seq\": 2").unwrap();
        assert!(a < b && b < c, "export must emit equal-time events in seq order");
    }

    #[test]
    fn out_of_order_timestamps_export_in_time_order() {
        // A source may record an event carrying an earlier sim-time after a
        // later one is already in the ring (e.g. a summary flushed at tick
        // end). Export order is (at, seq), not arrival order.
        let t = Telemetry::new("conf");
        t.event(SimTime::from_millis(200), "late", "");
        t.event(SimTime::from_millis(100), "early", "");
        let evs = t.events();
        assert_eq!(evs[0].kind, "early");
        assert_eq!(evs[1].kind, "late");
        // Digest must agree with the export ordering (replayable).
        assert_eq!(t.export_digest(), t.export_digest());
    }

    #[test]
    fn export_digest_tracks_export_json() {
        let record = |flip: bool| {
            let t = Telemetry::new("conf");
            t.incr("c", "x");
            t.observe("h", "", 5, &[10, 100]);
            let (k1, k2) = if flip { ("b", "a") } else { ("a", "b") };
            t.event(SimTime::from_millis(5), k1, "1");
            t.event(SimTime::from_millis(5), k2, "2");
            (t.export_json(), t.export_digest())
        };
        let (json1, d1) = record(false);
        let (json2, d2) = record(false);
        assert_eq!(json1, json2);
        assert_eq!(d1, d2);
        let (json3, d3) = record(true);
        assert_ne!(json1, json3, "different equal-time event order must change the export");
        assert_ne!(d1, d3, "…and the digest must see it too");
    }

    #[test]
    fn seq_keeps_counting_across_ring_eviction() {
        let t = Telemetry::new("conf");
        let n = EVENT_CAPACITY as u64 + 3;
        for i in 0..n {
            t.event(SimTime::from_millis(i), "e", i);
        }
        let evs = t.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), (3..n).collect::<Vec<_>>());
    }

    #[test]
    fn json_strings_are_escaped() {
        let t = Telemetry::new("c\"onf\\");
        t.event(SimTime::ZERO, "kind", "line\nbreak\ttab");
        let json = t.export_json();
        assert!(json.contains("\"c\\\"onf\\\\\""));
        assert!(json.contains("line\\nbreak\\ttab"));
    }
}
