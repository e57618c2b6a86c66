//! Tenant identity and priority classes for multi-tenant fleets.
//!
//! A production GSO deployment hosts many conferences from many customers
//! ("tenants") on one controller fleet. The solver itself is
//! tenant-agnostic — a [`crate::Problem`] is one conference regardless of
//! who owns it — but the control plane above it needs to know *whose*
//! conference each problem is and *how important* it is, so that admission
//! control and overload shedding degrade the cheap tenants first and the
//! premium tenants last. This module is that label: plain data, totally
//! ordered, and digestable so every admission/shedding decision derived
//! from it is deterministic and replayable.

use gso_util::digest::{StableHasher, StateDigest};
use std::fmt;

/// Identifies the customer/account a conference belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Service tier of a conference; decides shedding order under overload.
///
/// Ordered best-first: `High < Normal < Low`, so sorting a slice of
/// priorities puts the most-protected class first and
/// [`PriorityClass::shed_rank`] (higher = shed sooner) is just the enum
/// discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Premium tier: never load-shed; admission-reserved headroom.
    High,
    /// Standard tier: shed only after every `Low` conference is already on
    /// the template baseline.
    #[default]
    Normal,
    /// Best-effort tier: first demoted to the template baseline under
    /// overload, first rejected by admission when the budget is gone.
    Low,
}

impl PriorityClass {
    /// Shedding order, higher sheds sooner (`Low`=2, `Normal`=1, `High`=0).
    pub fn shed_rank(self) -> u8 {
        match self {
            PriorityClass::High => 0,
            PriorityClass::Normal => 1,
            PriorityClass::Low => 2,
        }
    }

    /// Stable lower-case label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::High => "high",
            PriorityClass::Normal => "normal",
            PriorityClass::Low => "low",
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The tenancy label of one conference: who owns it and at which tier.
///
/// [`Default`] is tenant 0 at [`PriorityClass::Normal`] — the
/// single-tenant behavior every pre-tenancy call site keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tenancy {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Service tier.
    pub priority: PriorityClass,
}

impl Tenancy {
    /// A tenancy label.
    pub fn new(tenant: TenantId, priority: PriorityClass) -> Self {
        Tenancy { tenant, priority }
    }
}

impl fmt::Display for Tenancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.tenant, self.priority)
    }
}

impl StateDigest for TenantId {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StateDigest for PriorityClass {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u8(self.shed_rank());
    }
}

impl StateDigest for Tenancy {
    fn digest(&self, h: &mut StableHasher) {
        self.tenant.digest(h);
        self.priority.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_best_first() {
        let mut v = vec![PriorityClass::Low, PriorityClass::High, PriorityClass::Normal];
        v.sort();
        assert_eq!(v, vec![PriorityClass::High, PriorityClass::Normal, PriorityClass::Low]);
        assert!(PriorityClass::Low.shed_rank() > PriorityClass::Normal.shed_rank());
        assert!(PriorityClass::Normal.shed_rank() > PriorityClass::High.shed_rank());
    }

    #[test]
    fn default_is_single_tenant_normal() {
        let t = Tenancy::default();
        assert_eq!(t.tenant, TenantId(0));
        assert_eq!(t.priority, PriorityClass::Normal);
        assert_eq!(t.to_string(), "tenant-0/normal");
    }

    #[test]
    fn digest_distinguishes_tenants_and_tiers() {
        let a = Tenancy::new(TenantId(1), PriorityClass::High);
        let b = Tenancy::new(TenantId(2), PriorityClass::High);
        let c = Tenancy::new(TenantId(1), PriorityClass::Low);
        assert_ne!(a.state_digest(), b.state_digest());
        assert_ne!(a.state_digest(), c.state_digest());
        assert_eq!(a.state_digest(), Tenancy::new(TenantId(1), PriorityClass::High).state_digest());
    }
}
