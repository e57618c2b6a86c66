//! Solver-deadline-aware admission control for a multi-tenant fleet.
//!
//! A fleet host has a fixed per-tick solve budget: the deadline watchdog
//! demotes any round whose DP work overruns
//! [`crate::ControllerConfig::solve_deadline_rows`], and the same row
//! currency bounds how many conferences one host can solve per tick
//! without the watchdog firing fleet-wide. The [`AdmissionController`]
//! spends that budget at the front door: a join whose estimated row cost
//! still fits is admitted; when the budget is exhausted, high- and
//! normal-priority joins park in a bounded FIFO queue until capacity
//! frees (conference teardown), and best-effort joins are rejected
//! outright. Per-tenant quotas stop one tenant from monopolizing the
//! host regardless of budget.
//!
//! Everything here is integer state updated by explicit calls — no
//! clocks, no randomness — so the same request sequence always produces
//! the same decisions and [`AdmissionController::state_digest`] is
//! replayable across runs and hosts.

use gso_algo::{PriorityClass, Tenancy, TenantId};
use gso_util::digest::{StableHasher, StateDigest};
use std::collections::{BTreeMap, VecDeque};

/// Admission policy knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Total estimated DP rows per tick this host will commit to (0 =
    /// unlimited). Sized against the fleet's measured solve throughput in
    /// the same row currency as the deadline watchdog.
    pub row_budget: u64,
    /// Fraction of the budget reserved for [`PriorityClass::High`] joins;
    /// normal/low joins only spend up to `(1 - high_reserve) × budget`.
    pub high_reserve: f64,
    /// Maximum parked joins; further non-rejected joins bounce with
    /// [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum concurrently admitted conferences per tenant (0 =
    /// unlimited), counted across every priority class.
    pub tenant_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { row_budget: 0, high_reserve: 0.2, queue_capacity: 16, tenant_quota: 0 }
    }
}

/// Why a join was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The row budget (after the high-priority reserve) is spent and this
    /// class does not queue.
    BudgetExhausted,
    /// The wait queue is at capacity.
    QueueFull,
    /// The tenant is at its conference quota.
    TenantQuota,
}

/// Outcome of [`AdmissionController::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted immediately; the caller may start the conference.
    Admitted,
    /// Parked; [`AdmissionController::drain_ready`] will release it (FIFO)
    /// once capacity frees. `position` is the 0-based queue slot.
    Queued {
        /// 0-based position in the wait queue at enqueue time.
        position: usize,
    },
    /// Turned away.
    Rejected(RejectReason),
}

/// A join parked in the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJoin {
    /// Who asked.
    pub tenancy: Tenancy,
    /// Estimated per-tick row cost it will commit once admitted.
    pub estimated_rows: u64,
}

/// Deterministic admission state: committed rows, per-tenant counts, and
/// the wait queue.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Σ of committed row costs of every admitted conference. Estimates at
    /// admit time, corrected to measured peaks by [`Self::correct_cost`].
    committed_rows: u64,
    /// Admitted conference count per tenant.
    tenants: BTreeMap<TenantId, u32>,
    queue: VecDeque<QueuedJoin>,
    admitted_total: u64,
    rejected_total: u64,
}

impl AdmissionController {
    /// A controller with the given policy and an empty ledger.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            committed_rows: 0,
            tenants: BTreeMap::new(),
            queue: VecDeque::new(),
            admitted_total: 0,
            rejected_total: 0,
        }
    }

    /// Budget available to the given class, after the high-priority
    /// reserve. Unlimited (`u64::MAX`) when no budget is configured.
    fn class_budget(&self, priority: PriorityClass) -> u64 {
        if self.cfg.row_budget == 0 {
            return u64::MAX;
        }
        match priority {
            PriorityClass::High => self.cfg.row_budget,
            PriorityClass::Normal | PriorityClass::Low => {
                let reserve = (self.cfg.row_budget as f64 * self.cfg.high_reserve) as u64;
                self.cfg.row_budget.saturating_sub(reserve)
            }
        }
    }

    fn fits(&self, tenancy: Tenancy, estimated_rows: u64) -> bool {
        self.committed_rows.saturating_add(estimated_rows) <= self.class_budget(tenancy.priority)
    }

    fn over_quota(&self, tenant: TenantId) -> bool {
        self.cfg.tenant_quota > 0
            && self.tenants.get(&tenant).is_some_and(|&n| n as usize >= self.cfg.tenant_quota)
    }

    fn commit(&mut self, tenancy: Tenancy, estimated_rows: u64) {
        self.committed_rows = self.committed_rows.saturating_add(estimated_rows);
        *self.tenants.entry(tenancy.tenant).or_insert(0) += 1;
        self.admitted_total += 1;
    }

    /// Decide a join request for a conference expected to cost
    /// `estimated_rows` DP rows per solving tick.
    ///
    /// Order of checks: tenant quota (always a hard reject), then budget.
    /// High/normal joins queue behind an exhausted budget; low-priority
    /// joins are rejected so the queue never fills with best-effort work
    /// that would outrank nobody.
    pub fn request(&mut self, tenancy: Tenancy, estimated_rows: u64) -> AdmissionDecision {
        if self.over_quota(tenancy.tenant) {
            self.rejected_total += 1;
            return AdmissionDecision::Rejected(RejectReason::TenantQuota);
        }
        // Joins already waiting keep their place: a budget that fits this
        // request but not the queue head must not let it jump the line.
        // Only a *better* class may pass a queued head — it spends reserve
        // budget the head cannot touch, so nobody is overtaken unfairly.
        let blocked_by_queue = self
            .queue
            .iter()
            .any(|q| q.tenancy.priority.shed_rank() <= tenancy.priority.shed_rank());
        if !blocked_by_queue && self.fits(tenancy, estimated_rows) {
            self.commit(tenancy, estimated_rows);
            return AdmissionDecision::Admitted;
        }
        if tenancy.priority == PriorityClass::Low {
            self.rejected_total += 1;
            return AdmissionDecision::Rejected(RejectReason::BudgetExhausted);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.rejected_total += 1;
            return AdmissionDecision::Rejected(RejectReason::QueueFull);
        }
        self.queue.push_back(QueuedJoin { tenancy, estimated_rows });
        AdmissionDecision::Queued { position: self.queue.len() - 1 }
    }

    /// An admitted conference tore down: return its committed rows and
    /// decrement its tenant's count. `committed_rows` must be whatever the
    /// ledger currently carries for it (the original estimate, or the
    /// corrected figure after [`Self::correct_cost`]).
    pub fn release(&mut self, tenancy: Tenancy, committed_rows: u64) {
        self.committed_rows = self.committed_rows.saturating_sub(committed_rows);
        if let Some(n) = self.tenants.get_mut(&tenancy.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.tenants.remove(&tenancy.tenant);
            }
        }
    }

    /// Replace one admitted conference's committed cost with its measured
    /// cost (the fleet reports the peak observed rows per solve, keeping
    /// the ledger honest when estimates were off in either direction).
    pub fn correct_cost(&mut self, old_rows: u64, measured_rows: u64) {
        self.committed_rows =
            self.committed_rows.saturating_sub(old_rows).saturating_add(measured_rows);
    }

    /// Release every queued join that now fits, in FIFO order, committing
    /// each. Stops at the first that still does not fit — later queue
    /// entries never overtake it, so queue order is also admission order.
    pub fn drain_ready(&mut self) -> Vec<QueuedJoin> {
        let mut ready = Vec::new();
        while let Some(&head) = self.queue.front() {
            if self.over_quota(head.tenancy.tenant) || !self.fits(head.tenancy, head.estimated_rows)
            {
                break;
            }
            self.commit(head.tenancy, head.estimated_rows);
            ready.push(head);
            self.queue.pop_front();
        }
        ready
    }

    /// Rows currently committed against the budget.
    #[must_use]
    pub fn committed_rows(&self) -> u64 {
        self.committed_rows
    }

    /// Joins currently parked.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Admitted conferences for one tenant.
    #[must_use]
    pub fn tenant_count(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |&n| n as usize)
    }

    /// Total joins admitted (including drained queue entries) and total
    /// rejected, since construction.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (self.admitted_total, self.rejected_total)
    }

    /// Stable digest of the full admission ledger; identical across runs
    /// fed the same request sequence.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.committed_rows);
        h.write_u64(self.admitted_total);
        h.write_u64(self.rejected_total);
        h.write_u64(self.tenants.len() as u64);
        for (t, n) in &self.tenants {
            t.digest(&mut h);
            h.write_u64(u64::from(*n));
        }
        h.write_u64(self.queue.len() as u64);
        for q in &self.queue {
            q.tenancy.digest(&mut h);
            h.write_u64(q.estimated_rows);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32, p: PriorityClass) -> Tenancy {
        Tenancy::new(TenantId(id), p)
    }

    fn budgeted(row_budget: u64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            row_budget,
            high_reserve: 0.2,
            queue_capacity: 2,
            tenant_quota: 0,
        })
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let mut a = AdmissionController::new(AdmissionConfig::default());
        for i in 0..100 {
            assert_eq!(a.request(t(i, PriorityClass::Low), 1_000_000), AdmissionDecision::Admitted);
        }
    }

    #[test]
    fn budget_exhaustion_queues_normal_rejects_low() {
        let mut a = budgeted(1_000);
        // Normal-class budget is 800 (20% high reserve).
        assert_eq!(a.request(t(1, PriorityClass::Normal), 600), AdmissionDecision::Admitted);
        assert_eq!(
            a.request(t(2, PriorityClass::Low), 300),
            AdmissionDecision::Rejected(RejectReason::BudgetExhausted)
        );
        assert_eq!(
            a.request(t(2, PriorityClass::Normal), 300),
            AdmissionDecision::Queued { position: 0 }
        );
        // The high reserve still admits a premium join over the 800 line.
        assert_eq!(a.request(t(3, PriorityClass::High), 300), AdmissionDecision::Admitted);
        assert_eq!(a.committed_rows(), 900);
    }

    #[test]
    fn queue_is_fifo_and_bounded() {
        let mut a = budgeted(1_000);
        assert_eq!(a.request(t(1, PriorityClass::Normal), 800), AdmissionDecision::Admitted);
        assert_eq!(
            a.request(t(2, PriorityClass::Normal), 500),
            AdmissionDecision::Queued { position: 0 }
        );
        assert_eq!(
            a.request(t(3, PriorityClass::High), 2_000),
            AdmissionDecision::Queued { position: 1 }
        );
        assert_eq!(
            a.request(t(4, PriorityClass::Normal), 100),
            AdmissionDecision::Rejected(RejectReason::QueueFull)
        );
        // Teardown frees the budget; the queue drains in order and stops
        // at the entry that still does not fit.
        a.release(t(1, PriorityClass::Normal), 800);
        let ready = a.drain_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].tenancy, t(2, PriorityClass::Normal));
        assert_eq!(a.queue_len(), 1, "the oversized high join stays parked");
    }

    #[test]
    fn later_joins_do_not_jump_a_nonempty_queue() {
        let mut a = budgeted(1_000);
        assert_eq!(a.request(t(1, PriorityClass::Normal), 700), AdmissionDecision::Admitted);
        assert_eq!(
            a.request(t(2, PriorityClass::Normal), 500),
            AdmissionDecision::Queued { position: 0 }
        );
        // 100 rows would fit, but the queue head asked first.
        assert_eq!(
            a.request(t(3, PriorityClass::Normal), 100),
            AdmissionDecision::Queued { position: 1 }
        );
    }

    #[test]
    fn tenant_quota_is_a_hard_reject() {
        let mut a = AdmissionController::new(AdmissionConfig {
            tenant_quota: 2,
            ..AdmissionConfig::default()
        });
        assert_eq!(a.request(t(7, PriorityClass::High), 10), AdmissionDecision::Admitted);
        assert_eq!(a.request(t(7, PriorityClass::High), 10), AdmissionDecision::Admitted);
        assert_eq!(
            a.request(t(7, PriorityClass::High), 10),
            AdmissionDecision::Rejected(RejectReason::TenantQuota)
        );
        assert_eq!(a.request(t(8, PriorityClass::Normal), 10), AdmissionDecision::Admitted);
        a.release(t(7, PriorityClass::High), 10);
        assert_eq!(a.request(t(7, PriorityClass::High), 10), AdmissionDecision::Admitted);
    }

    #[test]
    fn correct_cost_updates_the_ledger() {
        let mut a = budgeted(1_000);
        assert_eq!(a.request(t(1, PriorityClass::Normal), 100), AdmissionDecision::Admitted);
        // Measured cost came in far above the estimate: the next join of
        // the same shape no longer fits.
        a.correct_cost(100, 750);
        assert_eq!(a.committed_rows(), 750);
        assert_eq!(
            a.request(t(2, PriorityClass::Normal), 100),
            AdmissionDecision::Queued { position: 0 }
        );
    }

    #[test]
    fn digest_replays_and_tracks_state() {
        let run = || {
            let mut a = budgeted(1_000);
            let _ = a.request(t(1, PriorityClass::Normal), 600);
            let _ = a.request(t(2, PriorityClass::Normal), 500);
            let _ = a.request(t(3, PriorityClass::Low), 100);
            a.release(t(1, PriorityClass::Normal), 600);
            let _ = a.drain_ready();
            a.state_digest()
        };
        assert_eq!(run(), run());
        let mut a = budgeted(1_000);
        let d0 = a.state_digest();
        let _ = a.request(t(1, PriorityClass::Normal), 600);
        assert_ne!(d0, a.state_digest());
    }
}
