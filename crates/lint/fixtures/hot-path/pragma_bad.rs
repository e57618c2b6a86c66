//! Known-bad fixture: malformed and unused pragmas — the allowlist is
//! itself checked, so each of these is a violation.

// lint: allow(not-a-rule, reason = "unknown rule id")
pub fn a() {}

// lint: allow(hot-panic)
pub fn b() {}

// lint: allow(hot-alloc, reason = "nothing on the next line allocates")
pub fn c() {}
