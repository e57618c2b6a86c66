//! Known-bad fixture: hash-ordered collections, whose iteration order
//! changes from run to run.

use std::collections::HashMap;

pub fn tally(ids: &[u32]) -> Vec<u32> {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    for &id in ids {
        *seen.entry(id).or_insert(0) += 1;
    }
    seen.into_keys().collect()
}
