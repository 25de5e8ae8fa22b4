//! Reusable scratch for CPI construction.
//!
//! Every build step (candidate generation, row construction, refinement,
//! freeze remapping) needs the same few `O(|V(G)|)` working buffers. They
//! used to be allocated per build — and the nested row representation
//! allocated per *vertex* — which put the allocator on the hot path. This
//! module keeps a small process-wide free list of [`BuildScratch`] blocks:
//! a step checks one out, uses it, restores it to the clean state and puts
//! it back, so steady-state construction performs no `O(|V(G)|)`
//! allocations at all. The list is shared because `cfl serve` workers
//! build CPIs concurrently, and two builds must never share a buffer.

use std::sync::{Mutex, PoisonError};

use cfl_graph::FixedBitSet;

/// Cap on pooled blocks. A build holds one block at a time, so this
/// covers one per concurrently building serve worker with room to spare;
/// beyond that, returned blocks are simply dropped.
const MAX_POOLED: usize = 16;

/// Working memory for one build step. Invariant between checkouts: both
/// bitsets empty, `pos_of` all `u32::MAX`, `list` empty — callers restore
/// this (cheaply, via the keys they touched) instead of paying a full
/// clear on checkout.
pub(crate) struct BuildScratch {
    /// General membership mask over data vertices (candidate sets,
    /// neighborhood unions).
    pub mask: FixedBitSet,
    /// Dedup mask for seed-list generation.
    pub seen: FixedBitSet,
    /// Data vertex → position lookup (`u32::MAX` = absent).
    pub pos_of: Vec<u32>,
    /// General `u32` list buffer.
    pub list: Vec<u32>,
}

impl BuildScratch {
    fn new() -> Self {
        BuildScratch {
            mask: FixedBitSet::new(0),
            seen: FixedBitSet::new(0),
            pos_of: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Grows every buffer to cover keys `0..n`, preserving the clean-state
    /// invariant.
    fn ensure(&mut self, n: usize) {
        if self.mask.capacity() < n {
            self.mask = FixedBitSet::new(n);
            self.seen = FixedBitSet::new(n);
        }
        if self.pos_of.len() < n {
            self.pos_of.resize(n, u32::MAX);
        }
    }

    /// Whether the clean-state invariant holds (debug checks only — the
    /// scan is `O(|V(G)|)`).
    fn is_clean(&self) -> bool {
        self.mask.is_empty()
            && self.seen.is_empty()
            && self.list.is_empty()
            && self.pos_of.iter().all(|&p| p == u32::MAX)
    }
}

static FREE: Mutex<Vec<BuildScratch>> = Mutex::new(Vec::new());

/// Checks out a scratch block sized for `n` data vertices, runs `f`, and
/// returns the block to the pool. `f` must leave the block clean (asserted
/// in debug builds); a panicking `f` simply drops the block.
pub(crate) fn with_scratch<R>(n: usize, f: impl FnOnce(&mut BuildScratch) -> R) -> R {
    let mut s = FREE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop()
        .unwrap_or_else(BuildScratch::new);
    s.ensure(n);
    debug_assert!(s.is_clean(), "scratch checked out dirty");
    let r = f(&mut s);
    debug_assert!(s.is_clean(), "scratch returned dirty");
    let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
    if free.len() < MAX_POOLED {
        free.push(s);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_grows_and_recycles() {
        with_scratch(100, |s| {
            assert!(s.mask.capacity() >= 100);
            assert!(s.pos_of.len() >= 100);
            s.mask.insert(42);
            s.pos_of[7] = 3;
            s.list.push(9);
            // Restore the invariant the way real callers do.
            s.mask.remove(42);
            s.pos_of[7] = u32::MAX;
            s.list.clear();
        });
        // A recycled block serves a larger request.
        with_scratch(500, |s| {
            assert!(s.mask.capacity() >= 500);
            assert!(!s.mask.contains(42));
        });
    }

    #[test]
    #[should_panic(expected = "scratch returned dirty")]
    #[cfg(debug_assertions)]
    fn dirty_return_is_caught() {
        with_scratch(10, |s| s.mask.insert(1));
    }
}
