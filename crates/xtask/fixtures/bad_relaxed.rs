// Fixture: uses `Ordering::Relaxed` outside any allowlisted file. Must
// trip the `relaxed-ordering` rule unless its path is allowlisted. Not
// compiled by cargo.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}
