//! Multiple-choice knapsack (MCKP) solver — Step 1 of the control algorithm.
//!
//! For a given subscriber `i'`, the downlink is a knapsack of capacity
//! `B_d(i')`; each subscription is a *class*, and each feasible stream of the
//! subscribed source is an *item* with weight = bitrate and value = QoE
//! utility (Eq. 1–4 of the paper). At most one item per class may be chosen.
//!
//! The problem is NP-hard but solvable by dynamic programming in
//! pseudo-polynomial time `O(Σ_classes |items| · W)`, where `W` is the
//! quantized capacity. Bandwidths are quantized to a configurable unit
//! (10 kbps by default): item weights are rounded **up** and the capacity
//! **down**, so a DP solution can never violate the real constraint.
//!
//! ## Determinism
//!
//! Tie-breaking is fully deterministic and matches the worked examples of
//! Table 1 in the paper: classes are processed in the caller's order
//! (publisher id ascending), items within a class in ascending bitrate, and a
//! candidate replaces the incumbent only when *strictly* better. The
//! consequence is that among equal-value solutions, earlier-ordered
//! publishers receive the higher-bitrate allocations.
//!
//! ## Incrementality
//!
//! [`McState`] keeps the DP checkpoint row *after every class* (a flat
//! `(K+1) × stride` table). Because row `r` depends only on the first `r`
//! classes — never on the capacity, which merely selects the backtrack start
//! column — three cheap re-solve paths fall out:
//!
//! * identical classes and capacity → return the cached selection;
//! * identical classes, different capacity within the stored width → re-run
//!   only the backtrack;
//! * classes changed from index `m` on (e.g. one source's ladder was
//!   Reduced) → recompute only rows `m..K`.
//!
//! Rows are computed at the stored width (`stride`), which may exceed the
//! current capacity column; columns `≤ w` of every row are bit-identical to
//! a table built at exactly width `w`, because an item only ever writes
//! columns `≥ weight` and cell updates scan items in the same order
//! regardless of width. Growth rebuilds therefore add slack (25 %, rounded
//! to a 64-unit boundary, capped at the joint item weight): an oscillating
//! bandwidth estimate cannot force a full rebuild every tick, and the extra
//! columns never change results. The free functions [`solve_units`] /
//! [`solve_bitrates`] remain the one-shot entry points and are wrappers over
//! a fresh [`McState`].
//!
//! ## Memory layout & discipline
//!
//! All state lives in four flat struct-of-arrays slabs: the checkpoint rows
//! (`(K+1) × stride` `f64`s), the item memo (`key_items` + per-class
//! `key_ranges`, replacing a `Vec<Vec<_>>` per class), and the cached
//! selection. There is **no choice table**: the backtrack reconstructs each
//! class's pick by re-running that single cell's item scan against the
//! checkpoint row above it — the same comparison sequence the DP executed,
//! so the reconstructed pick is bit-identical to what a stored table would
//! say, at `O(Σ |items|)` total cost and half the memory traffic. The DP
//! inner loop is a branch-light elementwise `max` over two contiguous `f64`
//! slices ([`relax_row`]).
//!
//! [`McState::clear`] keeps capacity, so the engine recycles a departed
//! client's state into a joining one and the recycled state re-solves
//! without touching the allocator.

use gso_util::Bitrate;

/// An item of a knapsack class: one candidate stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McItem {
    /// Quantized weight (bitrate in capacity units), rounded up.
    pub weight: u64,
    /// Value (QoE utility × subscription boost).
    pub value: f64,
}

/// The DP result: per class, the index of the chosen item (or `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct McSolution {
    /// `choices[c] = Some(i)` selects `classes[c][i]`; `None` skips class `c`.
    pub choices: Vec<Option<usize>>,
    /// Total value of the selection.
    pub value: f64,
}

/// How much of the memoized DP state a [`McState::solve_flat`] call reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McReuse {
    /// Classes and capacity identical to the previous solve: the cached
    /// selection was returned without touching the table.
    Full,
    /// Classes identical, capacity changed within the stored table width:
    /// only the `O(K)` backtrack re-ran.
    Backtrack,
    /// Classes `first_recomputed..` differ from the memo: their DP rows were
    /// recomputed, earlier rows were reused.
    Suffix {
        /// Index of the first class whose DP row had to be rebuilt.
        first_recomputed: usize,
    },
    /// Nothing reusable: first solve, the capacity outgrew the stored table,
    /// or the very first class changed.
    Fresh,
}

/// Per-call statistics returned by [`McState::solve_flat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOutcome {
    /// Which reuse path the call took.
    pub reuse: McReuse,
    /// Number of classes in this call.
    pub classes: usize,
}

/// Reusable, incremental MCKP solver state for one knapsack (one subscriber).
///
/// Owns the flat DP checkpoint rows and the flat per-class item memo used to
/// detect which suffix of the class list changed between calls. All buffers
/// are reused across calls; a fresh `McState::default()` behaves exactly
/// like [`solve_units`].
#[derive(Debug, Clone, Default)]
pub struct McState {
    /// Flat item memo: the concatenated class item lists of the last solve
    /// whose DP rows are still stored (struct-of-arrays; one slab, not one
    /// `Vec` per class).
    key_items: Vec<McItem>,
    /// `key_ranges[c]` delimits class `c` inside `key_items`; its length is
    /// the number of memoized classes.
    key_ranges: Vec<(u32, u32)>,
    /// Row length of `rows` (stored capacity + 1; 0 = no table).
    stride: usize,
    /// `(key_ranges.len() + 1) × stride` DP checkpoints; row `r` is the
    /// best-value profile after the first `r` classes (row 0 is all zeros).
    rows: Vec<f64>,
    /// Backtrack start column of the cached selection.
    w_used: usize,
    /// Cached selection of the last solve.
    choices: Vec<Option<usize>>,
    /// Cached total value of the last solve.
    value: f64,
}

impl McState {
    /// Create an empty state (no memo, no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selection of the most recent [`Self::solve_flat`] call.
    #[must_use]
    pub fn choices(&self) -> &[Option<usize>] {
        &self.choices
    }

    /// Total value of the most recent [`Self::solve_flat`] call.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Drop all memoized state but keep the allocations for reuse.
    ///
    /// `rows` and `stride` survive on purpose: row 0 is permanently the
    /// all-zero row and every later row is fully overwritten before it is
    /// read, so the next solve can rebuild straight into the slab without a
    /// zero-fill pass over tens of kilobytes of cache-cold memory — the
    /// dominant cost of a cold re-solve against recycled states.
    pub fn clear(&mut self) {
        self.key_items.clear();
        self.key_ranges.clear();
        self.w_used = 0;
        self.choices.clear();
        self.value = 0.0;
    }

    /// Solve the MCKP over quantized units, reusing whatever part of the
    /// previous call's DP table is still valid.
    ///
    /// `ranges[c] = (lo, hi)` delimits class `c`'s items inside the flat
    /// `items` slice — callers keep one growable scratch buffer instead of a
    /// `Vec<Vec<_>>` per solve. Ordering rules match [`solve_units`]. The
    /// selection is read back via [`Self::choices`] / [`Self::value`]; the
    /// result is bit-identical to a fresh [`solve_units`] call on the same
    /// input, whatever state the memo was in.
    // lint: hot_path(mckp-dp-rows)
    pub fn solve_flat(
        &mut self,
        items: &[McItem],
        ranges: &[(usize, usize)],
        capacity: u64,
    ) -> McOutcome {
        let k = ranges.len();
        if k == 0 {
            self.key_items.clear();
            self.key_ranges.clear();
            self.choices.clear();
            self.value = 0.0;
            self.w_used = 0;
            return McOutcome { reuse: McReuse::Fresh, classes: 0 };
        }
        // The DP never needs more capacity than what all classes could
        // jointly use; trimming keeps the table small for huge downlinks.
        let max_useful: u64 = ranges
            .iter()
            .map(|&(lo, hi)| {
                let class = items.get(lo..hi).expect("invariant: ranges index into items");
                class.iter().map(|i| i.weight).max().unwrap_or(0)
            })
            .sum();
        let w_max = capacity.min(max_useful) as usize;

        // Longest memoized class prefix matching this call's classes.
        let mut first_dirty = 0;
        for (&(lo, hi), &(klo, khi)) in ranges.iter().zip(self.key_ranges.iter()) {
            let class = items.get(lo..hi).expect("invariant: ranges index into items");
            let key = self
                .key_items
                .get(klo as usize..khi as usize)
                .expect("invariant: key ranges index into the key memo");
            if key != class {
                break;
            }
            first_dirty += 1;
        }

        // A stored table is only usable when at least as wide as the new
        // backtrack column; otherwise rebuild at a wider stride. Every build
        // (including the first) adds 25 % headroom, rounded up to a 64-unit
        // boundary and capped at the joint item weight, so a jittering
        // capacity estimate lands inside the stored table instead of forcing
        // a full rebuild every tick. A slab more than 4× the target (a state
        // recycled from a much bigger knapsack) also rebuilds: the DP row
        // update runs over the full stride, so a grossly oversized slab
        // would tax every future solve. Columns `≤ w` are bit-identical at
        // any stride, so neither the slack nor the hysteresis changes
        // results.
        let needed = w_max + 1;
        let cap_units = (max_useful as usize).saturating_add(1).max(needed);
        let target = (needed + needed / 4).next_multiple_of(64).clamp(needed, cap_units);
        if needed > self.stride || self.stride > target.saturating_mul(4) {
            let shrinking = self.stride > target.saturating_mul(4);
            self.stride = target;
            self.rows.clear();
            self.key_items.clear();
            self.key_ranges.clear();
            if shrinking {
                // The point of the shrink rebuild is to stop paying for a
                // slab sized by a much bigger knapsack — return the memory,
                // don't just stop reading it. `clear` alone keeps capacity,
                // so without this a recycled state adopted from a huge
                // conference would pin its worst-case slab forever. Grow
                // rebuilds skip this: they reallocate upward right away.
                self.rows.shrink_to((k + 1) * target);
                self.key_items.shrink_to(items.len());
                self.key_ranges.shrink_to(k);
            }
            first_dirty = 0;
        }
        let stride = self.stride;

        if first_dirty == k {
            // Every row the backtrack reads is already valid; rows past `k`
            // (from a previously longer class list) are simply abandoned.
            if self.key_ranges.len() == k && w_max == self.w_used {
                return McOutcome { reuse: McReuse::Full, classes: k };
            }
            let keep = self.key_ranges.get(k - 1).map_or(0, |&(_, hi)| hi as usize);
            self.key_items.truncate(keep);
            self.key_ranges.truncate(k);
            self.backtrack(items, ranges, w_max);
            return McOutcome { reuse: McReuse::Backtrack, classes: k };
        }

        // Recompute rows `first_dirty..k` in place; earlier rows are reused.
        // Grow-only: zero-filling matters solely for row 0 (and only right
        // after a stride rebuild emptied the slab); rows past a previously
        // longer class list are abandoned in place, not truncated, so a
        // class count oscillation never re-pays the memset.
        if self.rows.len() < (k + 1) * stride {
            // lint: allow(hot-alloc, reason = "memo growth is amortized: steady-state re-solves reuse the buffers without reallocating")
            self.rows.resize((k + 1) * stride, 0.0);
        }
        // Trim the memo to the clean prefix; dirty classes are re-appended
        // below as their rows recompute.
        let keep = if first_dirty == 0 {
            0
        } else {
            self.key_ranges.get(first_dirty - 1).map_or(0, |&(_, hi)| hi as usize)
        };
        self.key_items.truncate(keep);
        self.key_ranges.truncate(first_dirty);
        for (c, &(lo, hi)) in ranges.iter().enumerate().skip(first_dirty) {
            let class = items.get(lo..hi).expect("invariant: ranges index into items");
            let (prev_rows, next_rows) = self.rows.split_at_mut((c + 1) * stride);
            let prev =
                prev_rows.get(c * stride..).expect("invariant: rows hold k+1 rows of width stride");
            let next =
                next_rows.get_mut(..stride).expect("invariant: rows hold k+1 rows of width stride");
            // Skipping the class is always allowed.
            next.copy_from_slice(prev);
            for item in class {
                let wi = item.weight as usize;
                if wi >= stride {
                    continue;
                }
                // `next[w] = max(next[w], prev[w - wi] + value)` for
                // `w ∈ wi..stride`: two contiguous slices, no choice-table
                // traffic, no branches — the loop autovectorizes.
                let dst = next.get_mut(wi..).expect("invariant: wi < stride");
                let src = prev.get(..stride - wi).expect("invariant: wi < stride");
                relax_row(dst, src, item.value);
            }
            let klo = self.key_items.len() as u32;
            // lint: allow(hot-alloc, reason = "memo refresh into one flat slab; steady-state re-solves reuse its capacity")
            self.key_items.extend_from_slice(class);
            // lint: allow(hot-alloc, reason = "memo refresh into one flat slab; steady-state re-solves reuse its capacity")
            self.key_ranges.push((klo, self.key_items.len() as u32));
        }
        self.backtrack(items, ranges, w_max);
        let reuse = if first_dirty == 0 {
            McReuse::Fresh
        } else {
            McReuse::Suffix { first_recomputed: first_dirty }
        };
        McOutcome { reuse, classes: k }
    }

    /// Walk the checkpoint rows from `w_max` down, refreshing the cached
    /// selection. Rows for all `ranges.len()` classes must be valid.
    ///
    /// There is no stored choice table: each class's pick is reconstructed
    /// by re-running that one cell's item scan against the checkpoint row
    /// above it. The scan repeats the exact comparison sequence the DP
    /// executed for the cell (same item order, same strict-`>` rule, same
    /// additions), so the reconstructed pick — the *last* strict improver —
    /// is bit-identical to what a stored table would hold, at
    /// `O(Σ |items|)` total cost instead of `K × stride` extra memory.
    fn backtrack(&mut self, items: &[McItem], ranges: &[(usize, usize)], w_max: usize) {
        let k = ranges.len();
        let stride = self.stride;
        // dp is monotone in w, so the optimum sits at the capacity column.
        self.value = *self
            .rows
            .get(k * stride + w_max)
            .expect("invariant: rows hold k+1 rows of width stride > w_max");
        self.choices.clear();
        // lint: allow(hot-alloc, reason = "selection buffer is reused across solves; grows only when the class count grows")
        self.choices.resize(k, None);
        let mut w = w_max;
        for (c, (slot, &(lo, hi))) in self.choices.iter_mut().zip(ranges.iter()).enumerate().rev() {
            let prev = self
                .rows
                .get(c * stride..c * stride + stride)
                .expect("invariant: rows hold k+1 rows of width stride");
            let class = items.get(lo..hi).expect("invariant: ranges index into items");
            let mut best = *prev.get(w).expect("invariant: w <= w_max < stride");
            let mut pick = None;
            for (i, item) in class.iter().enumerate() {
                let wi = item.weight as usize;
                if wi <= w {
                    let cand =
                        *prev.get(w - wi).expect("invariant: w - wi <= w < stride") + item.value;
                    if cand > best {
                        best = cand;
                        pick = Some(i);
                    }
                }
            }
            if let Some(i) = pick {
                *slot = Some(i);
                w -= class.get(i).expect("invariant: pick indexes the scanned class").weight
                    as usize;
            }
        }
        self.w_used = w_max;
    }
}

/// The DP cell update over one item: `dst[j] = max(dst[j], src[j] + value)`
/// for every lane. Strict `>` keeps the documented tie-breaking (an equal
/// candidate never replaces the incumbent), and the unconditional select
/// store keeps the loop branch-free so it autovectorizes.
#[inline]
fn relax_row(dst: &mut [f64], src: &[f64], value: f64) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        let cand = s + value;
        *d = if cand > *d { cand } else { *d };
    }
}

/// Solve the MCKP over quantized units.
///
/// `classes[c]` lists the candidate items of class `c`; callers must order
/// items ascending by weight for the documented tie-breaking (the solver
/// itself is correct for any order). `capacity` is in the same units as the
/// item weights.
pub fn solve_units(classes: &[Vec<McItem>], capacity: u64) -> McSolution {
    let mut items = Vec::new();
    let mut ranges = Vec::with_capacity(classes.len());
    for class in classes {
        let lo = items.len();
        items.extend_from_slice(class);
        ranges.push((lo, items.len()));
    }
    let mut state = McState::default();
    state.solve_flat(&items, &ranges, capacity);
    McSolution { choices: state.choices().to_vec(), value: state.value() }
}

/// Quantize a bitrate-weighted class list and solve.
///
/// `classes[c]` holds `(bitrate, value)` candidates; `unit` is the
/// quantization granularity. Weights round up and capacity rounds down, so
/// the returned selection satisfies `Σ bitrate ≤ capacity` exactly.
pub fn solve_bitrates(
    classes: &[Vec<(Bitrate, f64)>],
    capacity: Bitrate,
    unit: Bitrate,
) -> McSolution {
    assert!(!unit.is_zero(), "quantization unit must be non-zero");
    let u = unit.as_bps();
    // Quantize straight into the flat item layout `solve_flat` consumes;
    // no intermediate per-class vectors.
    let items: Vec<McItem> = classes
        .iter()
        .flatten()
        .map(|&(b, v)| McItem { weight: b.as_bps().div_ceil(u), value: v })
        // lint: allow(hot-alloc, reason = "one-shot convenience entry; incremental callers quantize into reused flat buffers")
        .collect();
    let mut lo = 0;
    let ranges: Vec<(usize, usize)> = classes
        .iter()
        .map(|c| {
            let r = (lo, lo + c.len());
            lo += c.len();
            r
        })
        // lint: allow(hot-alloc, reason = "one-shot convenience entry; incremental callers quantize into reused flat buffers")
        .collect();
    let units = capacity.as_bps().checked_div(u).expect("invariant: unit checked non-zero above");
    let mut state = McState::default();
    state.solve_flat(&items, &ranges, units);
    // lint: allow(hot-alloc, reason = "one-shot convenience entry returns an owned selection by API contract")
    McSolution { choices: state.choices().to_vec(), value: state.value() }
}

/// Quantize one bitrate to capacity units (round **up**), exactly as
/// [`solve_bitrates`] does. Exposed so incremental callers building flat
/// [`McItem`] buffers themselves stay bit-identical to the one-shot path.
#[must_use]
pub fn quantize_weight(bitrate: Bitrate, unit: Bitrate) -> u64 {
    debug_assert!(!unit.is_zero(), "quantization unit must be non-zero");
    bitrate.as_bps().div_ceil(unit.as_bps())
}

/// Quantize a capacity to units (round **down**), exactly as
/// [`solve_bitrates`] does.
#[must_use]
pub fn quantize_capacity(capacity: Bitrate, unit: Bitrate) -> u64 {
    debug_assert!(!unit.is_zero(), "quantization unit must be non-zero");
    capacity.as_bps().checked_div(unit.as_bps()).expect("invariant: quantization unit is non-zero")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kbps(k: u64) -> Bitrate {
        Bitrate::from_kbps(k)
    }

    const UNIT: Bitrate = Bitrate::from_kbps(10);

    #[test]
    fn empty_problem() {
        let s = solve_units(&[], 100);
        assert_eq!(s.value, 0.0);
        assert!(s.choices.is_empty());
    }

    #[test]
    fn single_class_picks_best_fitting() {
        let classes = vec![vec![(kbps(100), 100.0), (kbps(300), 300.0), (kbps(400), 360.0)]];
        let s = solve_bitrates(&classes, kbps(350), UNIT);
        assert_eq!(s.choices, vec![Some(1)]);
        assert_eq!(s.value, 300.0);
    }

    #[test]
    fn class_skipped_when_nothing_fits() {
        let classes = vec![vec![(kbps(500), 440.0)], vec![(kbps(100), 100.0)]];
        let s = solve_bitrates(&classes, kbps(200), UNIT);
        assert_eq!(s.choices, vec![None, Some(0)]);
        assert_eq!(s.value, 100.0);
    }

    #[test]
    fn at_most_one_item_per_class() {
        // One class with two small items that would both fit: only one may
        // be selected.
        let classes = vec![vec![(kbps(100), 100.0), (kbps(200), 150.0)]];
        let s = solve_bitrates(&classes, kbps(1000), UNIT);
        assert_eq!(s.choices, vec![Some(1)]);
        assert_eq!(s.value, 150.0);
    }

    #[test]
    fn capacity_exactly_consumed() {
        let classes = vec![vec![(kbps(400), 360.0)], vec![(kbps(100), 100.0)]];
        let s = solve_bitrates(&classes, kbps(500), UNIT);
        assert_eq!(s.choices, vec![Some(0), Some(0)]);
        assert_eq!(s.value, 460.0);
    }

    /// The tie from Table 1 case 1 (subscriber C): {A@400K, B@100K} and
    /// {A@100K, B@400K} both score 460 under a 500 Kbps downlink; the paper's
    /// solution gives the earlier publisher (A) the larger stream.
    #[test]
    fn tie_breaks_toward_earlier_class() {
        let ladder: Vec<(Bitrate, f64)> = vec![
            (kbps(100), 100.0),
            (kbps(300), 300.0),
            (kbps(400), 360.0),
            (kbps(500), 440.0),
            (kbps(600), 530.0),
            (kbps(800), 700.0),
        ];
        let classes = vec![ladder.clone(), ladder];
        let s = solve_bitrates(&classes, kbps(500), UNIT);
        assert_eq!(s.value, 460.0);
        // Class 0 (publisher A) gets 400K, class 1 (publisher B) gets 100K.
        assert_eq!(s.choices, vec![Some(2), Some(0)]);
    }

    #[test]
    fn weight_rounds_up_capacity_rounds_down() {
        // 105 kbps item with a 10 kbps unit weighs 11 units; a 109 kbps
        // capacity has 10 units — so the item must not fit.
        let classes = vec![vec![(kbps(105), 1.0)]];
        let s = solve_bitrates(&classes, kbps(109), UNIT);
        assert_eq!(s.choices, vec![None]);
        // With 110 kbps capacity it fits.
        let s = solve_bitrates(&classes, kbps(110), UNIT);
        assert_eq!(s.choices, vec![Some(0)]);
    }

    #[test]
    fn non_multiple_bitrates_round_up_per_item() {
        // Two 105 kbps items under a 210 kbps capacity. Their true sum fits
        // exactly, but quantization is per-item and conservative: each item
        // weighs ⌈105/10⌉ = 11 units against a 21-unit capacity, so only one
        // is admitted. Rounding weights down (or to nearest) would instead
        // admit both and rely on exact arithmetic never drifting — the
        // guarantee `Σ bitrate ≤ capacity` must come from the DP itself.
        let classes = vec![vec![(kbps(105), 1.0)], vec![(kbps(105), 1.0)]];
        let s = solve_bitrates(&classes, kbps(210), UNIT);
        assert_eq!(s.choices.iter().flatten().count(), 1);
        // A capacity covering both rounded weights admits both.
        let s = solve_bitrates(&classes, kbps(220), UNIT);
        assert_eq!(s.choices.iter().flatten().count(), 2);
    }

    #[test]
    fn many_classes_optimal_vs_exhaustive() {
        // Cross-check the DP against exhaustive enumeration on a small
        // random-ish instance.
        let classes: Vec<Vec<(Bitrate, f64)>> = vec![
            vec![(kbps(100), 90.0), (kbps(250), 200.0), (kbps(700), 520.0)],
            vec![(kbps(150), 140.0), (kbps(300), 260.0)],
            vec![(kbps(50), 60.0), (kbps(450), 400.0), (kbps(900), 640.0)],
        ];
        let cap = kbps(1000);
        let dp = solve_bitrates(&classes, cap, UNIT);

        let mut best = 0.0f64;
        for a in [None, Some(0), Some(1), Some(2)] {
            for b in [None, Some(0), Some(1)] {
                for c in [None, Some(0), Some(1), Some(2)] {
                    let picks = [(0usize, a), (1, b), (2, c)];
                    let (mut w, mut v) = (0u64, 0.0f64);
                    for (cls, pick) in picks {
                        if let Some(i) = pick {
                            w += classes[cls][i].0.as_bps();
                            v += classes[cls][i].1;
                        }
                    }
                    if w <= cap.as_bps() && v > best {
                        best = v;
                    }
                }
            }
        }
        assert_eq!(dp.value, best);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let classes = vec![vec![(kbps(100), 100.0)]];
        let s = solve_bitrates(&classes, Bitrate::ZERO, UNIT);
        assert_eq!(s.choices, vec![None]);
        assert_eq!(s.value, 0.0);
    }

    // ---- incremental McState paths -------------------------------------

    fn flatten(classes: &[Vec<McItem>]) -> (Vec<McItem>, Vec<(usize, usize)>) {
        let mut items = Vec::new();
        let mut ranges = Vec::new();
        for class in classes {
            let lo = items.len();
            items.extend_from_slice(class);
            ranges.push((lo, items.len()));
        }
        (items, ranges)
    }

    fn assert_matches_fresh(state: &McState, classes: &[Vec<McItem>], capacity: u64) {
        let fresh = solve_units(classes, capacity);
        assert_eq!(state.choices(), fresh.choices.as_slice());
        assert_eq!(state.value().to_bits(), fresh.value.to_bits());
    }

    fn item(weight: u64, value: f64) -> McItem {
        McItem { weight, value }
    }

    fn sample_classes() -> Vec<Vec<McItem>> {
        vec![
            vec![item(10, 90.0), item(25, 200.0), item(70, 520.0)],
            vec![item(15, 140.0), item(30, 260.0)],
            vec![item(5, 60.0), item(45, 400.0), item(90, 640.0)],
        ]
    }

    #[test]
    fn state_full_hit_on_identical_call() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        let first = st.solve_flat(&items, &ranges, 100);
        assert_eq!(first.reuse, McReuse::Fresh);
        let second = st.solve_flat(&items, &ranges, 100);
        assert_eq!(second.reuse, McReuse::Full);
        assert_matches_fresh(&st, &classes, 100);
    }

    #[test]
    fn state_backtracks_on_capacity_decrease() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100);
        let out = st.solve_flat(&items, &ranges, 60);
        assert_eq!(out.reuse, McReuse::Backtrack);
        assert_matches_fresh(&st, &classes, 60);
        // Growing back within the stored width is also backtrack-only.
        let out = st.solve_flat(&items, &ranges, 95);
        assert_eq!(out.reuse, McReuse::Backtrack);
        assert_matches_fresh(&st, &classes, 95);
    }

    #[test]
    fn state_recomputes_suffix_on_class_change() {
        let mut classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100);
        // Shrink the middle class (a Reduction on that source's ladder).
        classes[1].pop();
        let (items, ranges) = flatten(&classes);
        let out = st.solve_flat(&items, &ranges, 100);
        assert_eq!(out.reuse, McReuse::Suffix { first_recomputed: 1 });
        assert_matches_fresh(&st, &classes, 100);
    }

    #[test]
    fn state_resets_when_capacity_outgrows_table() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 40);
        // max_useful is 70+30+90 = 190, so capacity 150 widens the table.
        let out = st.solve_flat(&items, &ranges, 150);
        assert_eq!(out.reuse, McReuse::Fresh);
        assert_matches_fresh(&st, &classes, 150);
    }

    #[test]
    fn growth_rebuild_leaves_headroom_for_the_next_wobble() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 40);
        // First growth rebuilds with 25 % slack rounded to a 64 boundary…
        let out = st.solve_flat(&items, &ranges, 100);
        assert_eq!(out.reuse, McReuse::Fresh);
        assert_matches_fresh(&st, &classes, 100);
        // …so a further bump within the headroom (needed 126 → stride 128)
        // reuses the stored rows instead of rebuilding again.
        let out = st.solve_flat(&items, &ranges, 120);
        assert_eq!(out.reuse, McReuse::Backtrack);
        assert_matches_fresh(&st, &classes, 120);
        // Shrinking back down never rebuilds either.
        let out = st.solve_flat(&items, &ranges, 40);
        assert_eq!(out.reuse, McReuse::Backtrack);
        assert_matches_fresh(&st, &classes, 40);
    }

    #[test]
    fn slack_stride_is_capped_at_joint_item_weight() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 40);
        // max_useful is 190; growth to capacity 300 clamps w_max to 190 and
        // the slack to 191 columns — no table wider than ever useful.
        let out = st.solve_flat(&items, &ranges, 300);
        assert_eq!(out.reuse, McReuse::Fresh);
        assert_matches_fresh(&st, &classes, 300);
        assert_eq!(st.stride, 191);
    }

    #[test]
    fn cleared_state_keeps_slab_capacity() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100);
        let rows_cap = st.rows.capacity();
        assert!(rows_cap > 0);

        // The recycled state starts cleared but keeps its slabs.
        st.clear();
        assert!(st.choices().is_empty());
        assert_eq!(st.rows.capacity(), rows_cap);
        let out = st.solve_flat(&items, &ranges, 100);
        assert_eq!(out.reuse, McReuse::Fresh);
        assert_matches_fresh(&st, &classes, 100);
    }

    #[test]
    fn state_reuses_prefix_when_class_list_shrinks_and_grows() {
        let classes = sample_classes();
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100);
        // Drop the last class entirely: prefix rows stay valid.
        let short: Vec<Vec<McItem>> = classes[..2].to_vec();
        let (items2, ranges2) = flatten(&short);
        let out = st.solve_flat(&items2, &ranges2, 100);
        assert_eq!(out.reuse, McReuse::Backtrack);
        assert_matches_fresh(&st, &short, 100);
        // Grow back to three classes: only the last row recomputes.
        let out = st.solve_flat(&items, &ranges, 100);
        assert_eq!(out.reuse, McReuse::Suffix { first_recomputed: 2 });
        assert_matches_fresh(&st, &classes, 100);
    }

    #[test]
    fn state_matches_fresh_across_random_mutation_sequence() {
        // Deterministic LCG so the test is reproducible without a rand dep.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        let mut classes = sample_classes();
        let mut capacity = 80u64;
        let mut st = McState::new();
        for _ in 0..200 {
            match next() % 4 {
                0 => capacity = 20 + next() % 160,
                1 => {
                    // Mutate one item's weight.
                    let c = (next() as usize) % classes.len();
                    let i = (next() as usize) % classes[c].len();
                    classes[c][i].weight = 1 + next() % 95;
                }
                2 => {
                    // Shrink a class (keep at least one item).
                    let c = (next() as usize) % classes.len();
                    if classes[c].len() > 1 {
                        classes[c].pop();
                    }
                }
                _ => {
                    // Grow a class.
                    let c = (next() as usize) % classes.len();
                    classes[c].push(item(1 + next() % 95, (next() % 700) as f64));
                }
            }
            let (items, ranges) = flatten(&classes);
            st.solve_flat(&items, &ranges, capacity);
            assert_matches_fresh(&st, &classes, capacity);
        }
    }

    /// Classes sized so the solve needs roughly `w` units of DP width.
    fn sized_classes(w: u64) -> Vec<Vec<McItem>> {
        vec![vec![item(w / 2, 100.0), item(w, 300.0)], vec![item(w / 2, 90.0), item(w, 250.0)]]
    }

    #[test]
    fn shrink_hysteresis_releases_slab_after_sustained_small_problems() {
        // A state shaped by a huge knapsack (e.g. recycled by the engine
        // after serving a high-capacity client) must not pin its worst-case
        // slab forever once it settles onto small problems.
        let big = sized_classes(50_000);
        let (items, ranges) = flatten(&big);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100_000);
        let big_cap = st.rows.capacity();
        assert!(big_cap > 100_000, "big solve must build a wide slab");

        let small = sized_classes(100);
        let (items, ranges) = flatten(&small);
        for _ in 0..8 {
            st.solve_flat(&items, &ranges, 200);
            assert_matches_fresh(&st, &small, 200);
        }
        assert!(
            st.rows.capacity() < big_cap / 10,
            "4x shrink hysteresis must release the oversized slab \
             (still holding {} of {} f64s)",
            st.rows.capacity(),
            big_cap,
        );
    }

    #[test]
    fn cleared_state_adopted_for_small_problems_releases_memory() {
        // Same scenario through recycling: clear a state shaped by a big
        // conference, as the engine does on a leave, and reuse it for a
        // small one.
        let big = sized_classes(50_000);
        let (items, ranges) = flatten(&big);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 100_000);
        let big_cap = st.rows.capacity();

        st.clear();
        assert_eq!(st.rows.capacity(), big_cap, "clear keeps slabs");

        let small = sized_classes(100);
        let (items, ranges) = flatten(&small);
        st.solve_flat(&items, &ranges, 200);
        assert_matches_fresh(&st, &small, 200);
        assert!(st.rows.capacity() < big_cap / 10, "adopted slab must be released, not hoarded");
    }

    #[test]
    fn alternating_sizes_within_hysteresis_never_thrash() {
        // Two capacities within the 4x hysteresis band: after the first
        // build at the larger size, neither direction may rebuild or touch
        // the allocator — the 25% headroom absorbs the jitter upward and
        // the 4x band absorbs it downward.
        let classes = sized_classes(1_500);
        let (items, ranges) = flatten(&classes);
        let mut st = McState::new();
        st.solve_flat(&items, &ranges, 1_500);
        let stride = st.stride;
        let cap = st.rows.capacity();
        for round in 0..10 {
            let capacity = if round % 2 == 0 { 1_000 } else { 1_500 };
            let out = st.solve_flat(&items, &ranges, capacity);
            assert_ne!(
                out.reuse,
                McReuse::Fresh,
                "alternating within the band must reuse, not rebuild (round {round})"
            );
            assert_eq!(st.stride, stride, "stride must be stable across alternation");
            assert_eq!(st.rows.capacity(), cap, "no allocator traffic across alternation");
            assert_matches_fresh(&st, &classes, capacity);
        }
    }

    #[test]
    fn quantize_helpers_match_solve_bitrates() {
        assert_eq!(quantize_weight(kbps(105), UNIT), 11);
        assert_eq!(quantize_weight(kbps(100), UNIT), 10);
        assert_eq!(quantize_capacity(kbps(109), UNIT), 10);
        assert_eq!(quantize_capacity(kbps(110), UNIT), 11);
    }
}
