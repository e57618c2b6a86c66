//! Known-bad fixture: a malformed and an unused pragma — the allowlist is
//! itself checked, so each is a violation, and a malformed pragma never
//! exempts its finding.

// lint: allow(wall-clock, reason = "")
pub fn started() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

// lint: allow(hash-collection, reason = "nothing on the next line hashes")
pub fn ordered() -> std::collections::BTreeMap<u32, u32> {
    std::collections::BTreeMap::new()
}
