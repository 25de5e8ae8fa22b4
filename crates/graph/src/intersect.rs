//! Bitset intersection kernels.
//!
//! CPI construction (§5, Algorithm 3) and the leaf phase only ever ask
//! whether each vertex of a list lies in a candidate set, so the one
//! primitive is membership against a pre-built [`FixedBitSet`]:
//!
//! * [`intersect_with_set`] — `keys ∩ set`, appended to an output;
//! * [`retain_in_set`] — the same, in place;
//! * [`retain_unset_into`] — `keys ∖ set`, the leaf phase's difference.
//!
//! All three work a 64-bit word at a time: one word load answers a whole
//! run of same-word keys, and all-zero (or, for the difference, all-one)
//! words skip their runs outright. Value-sparse key lists (under one key
//! per word on average, see `dense_runs`) sidestep the run grouping with
//! a plain per-key bit test. The set side is reused across many calls —
//! the CPI build probes the same candidate mask once per parent candidate
//! — so its `O(|C|)` setup amortizes to nothing.
//!
//! Keys may come in any order (the CPI build's in-place retain passes
//! unordered lists); outputs keep the input order. Everything here is
//! safe code.

use crate::bitset::FixedBitSet;

/// Whether `keys` averages at least one element per 64-key word of its
/// value span. The word-run kernels pay two extra branches per key to
/// group same-word runs; on value-sparse keys (runs of length 1 — e.g.
/// one label's vertices spread over all of `V(G)`) that grouping is pure
/// overhead and a straight per-key bit test wins. Keys may be unordered,
/// so the span estimate must not assume `first <= last`: when the
/// endpoints run backwards the run structure is unknown, and the per-key
/// path is the safe choice between two equally correct ones
/// (`checked_sub`, not a raw subtraction that would underflow).
#[inline]
fn dense_runs(keys: &[u32]) -> bool {
    match (keys.first(), keys.last()) {
        (Some(&first), Some(&last)) => match (last >> 6).checked_sub(first >> 6) {
            Some(word_gap) => keys.len() as u64 > u64::from(word_gap),
            None => false,
        },
        _ => false,
    }
}

/// Appends every element of `keys` contained in `set`, in `keys` order.
/// A run of keys falling in the same 64-key word shares a single word
/// load, and an all-zero word skips its whole run without per-key bit
/// tests; value-sparse keys take a plain load-and-test per key instead.
#[inline]
pub fn intersect_with_set(keys: &[u32], set: &FixedBitSet, out: &mut Vec<u32>) {
    let words = set.words();
    if !dense_runs(keys) {
        out.extend(
            keys.iter()
                .filter(|&&k| words[(k >> 6) as usize] >> (k & 63) & 1 != 0),
        );
        return;
    }
    let mut i = 0usize;
    while i < keys.len() {
        let w = (keys[i] >> 6) as usize;
        let word = words[w];
        if word == 0 {
            while i < keys.len() && (keys[i] >> 6) as usize == w {
                i += 1;
            }
            continue;
        }
        while i < keys.len() && (keys[i] >> 6) as usize == w {
            let k = keys[i];
            if word >> (k & 63) & 1 != 0 {
                out.push(k);
            }
            i += 1;
        }
    }
}

/// Retains the elements of `list` contained in `set`, preserving order —
/// the in-place form of [`intersect_with_set`], used by the CPI build to
/// narrow a candidate list against each successive neighbor mask.
/// Two-cursor compaction over the same run grouping, with the same
/// per-key path for value-sparse lists.
#[inline]
pub fn retain_in_set(list: &mut Vec<u32>, set: &FixedBitSet) {
    let words = set.words();
    if !dense_runs(list) {
        list.retain(|&k| words[(k >> 6) as usize] >> (k & 63) & 1 != 0);
        return;
    }
    let (mut read, mut write) = (0usize, 0usize);
    while read < list.len() {
        let w = (list[read] >> 6) as usize;
        let word = words[w];
        if word == 0 {
            while read < list.len() && (list[read] >> 6) as usize == w {
                read += 1;
            }
            continue;
        }
        while read < list.len() && (list[read] >> 6) as usize == w {
            let k = list[read];
            if word >> (k & 63) & 1 != 0 {
                list[write] = k;
                write += 1;
            }
            read += 1;
        }
    }
    list.truncate(write);
}

/// Appends the elements of `keys` *not* contained in `set` — the set
/// difference the leaf phase computes (`N_u^{u.p}(v) ∖ visited`). The
/// fast-skip word here is the all-ones word (every key in the run is a
/// member, so none survives the difference); the value-sparse path
/// mirrors [`intersect_with_set`].
#[inline]
pub fn retain_unset_into(keys: &[u32], set: &FixedBitSet, out: &mut Vec<u32>) {
    let words = set.words();
    if !dense_runs(keys) {
        out.extend(
            keys.iter()
                .filter(|&&k| words[(k >> 6) as usize] >> (k & 63) & 1 == 0),
        );
        return;
    }
    let mut i = 0usize;
    while i < keys.len() {
        let w = (keys[i] >> 6) as usize;
        let word = words[w];
        if word == !0u64 {
            while i < keys.len() && (keys[i] >> 6) as usize == w {
                i += 1;
            }
            continue;
        }
        while i < keys.len() && (keys[i] >> 6) as usize == w {
            let k = keys[i];
            if word >> (k & 63) & 1 == 0 {
                out.push(k);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `O(n · m)` reference oracle.
    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    /// Runs all three kernels on `keys` against the set holding `members`
    /// and checks each against the oracle: both intersection forms yield
    /// `keys ∩ members` and the difference yields the rest, all in `keys`
    /// order.
    fn assert_all_match(keys: &[u32], members: &[u32]) {
        let span = keys
            .iter()
            .chain(members)
            .max()
            .map_or(0, |&m| m as usize + 1);
        let mut set = FixedBitSet::new(span);
        set.insert_all(members);
        let inside = naive(keys, members);
        let outside: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|k| !members.contains(k))
            .collect();
        let mut hit = Vec::new();
        intersect_with_set(keys, &set, &mut hit);
        assert_eq!(hit, inside, "intersect {keys:?} ∩ {members:?}");
        let mut list = keys.to_vec();
        retain_in_set(&mut list, &set);
        assert_eq!(list, inside, "retain {keys:?} ∩ {members:?}");
        let mut miss = Vec::new();
        retain_unset_into(keys, &set, &mut miss);
        assert_eq!(miss, outside, "difference {keys:?} ∖ {members:?}");
    }

    #[test]
    fn adversarial_fixed_cases() {
        // (keys, members, expected) over the adversarial shapes: empty,
        // disjoint, nested, identical and skewed sets, plus word edges.
        let big: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let cases: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![], vec![]),
            (vec![], vec![1, 2, 3], vec![]),
            (vec![1, 2, 3], vec![], vec![]),
            // Fully disjoint, interleaved values.
            (vec![0, 2, 4, 6], vec![1, 3, 5, 7], vec![]),
            // Disjoint ranges.
            (vec![1, 2, 3], vec![10, 20, 30], vec![]),
            // Nested: keys ⊂ members.
            (
                vec![5, 50, 500],
                vec![5, 6, 7, 50, 51, 499, 500],
                vec![5, 50, 500],
            ),
            // Identical.
            (vec![2, 4, 8], vec![2, 4, 8], vec![2, 4, 8]),
            // Heavily skewed: 3 keys against 1000 members.
            (vec![0, 1500, 2997], big.clone(), vec![0, 1500, 2997]),
            // Skewed with no hits past the first key.
            (vec![1, 2, 4], big.clone(), vec![]),
            // Keys on both sides of every word edge.
            (
                vec![0, 63, 64, 127, 128, 191],
                vec![63, 64, 191],
                vec![63, 64, 191],
            ),
        ];
        for (keys, members, expect) in cases {
            assert_eq!(
                naive(&keys, &members),
                expect,
                "oracle {keys:?} ∩ {members:?}"
            );
            assert_all_match(&keys, &members);
        }
    }

    #[test]
    fn bitset_kernels_match_oracle() {
        let keys = [1u32, 3, 64, 65, 120];
        let mut set = FixedBitSet::new(130);
        set.insert_all(&[3, 64, 121]);
        let mut hit = Vec::new();
        intersect_with_set(&keys, &set, &mut hit);
        assert_eq!(hit, vec![3, 64]);
        let mut miss = Vec::new();
        retain_unset_into(&keys, &set, &mut miss);
        assert_eq!(miss, vec![1, 65, 120]);
        let mut list = keys.to_vec();
        retain_in_set(&mut list, &set);
        assert_eq!(list, hit);
    }

    #[test]
    fn word_at_a_time_boundaries() {
        // All-zero word (fast-skip in intersect/retain), all-one word
        // (fast-skip in the difference), and keys straddling word edges.
        let mut set = FixedBitSet::new(256);
        let full_word: Vec<u32> = (64..128).collect();
        set.insert_all(&full_word);
        set.insert_all(&[1, 255]);
        let keys = [0u32, 1, 63, 64, 65, 126, 127, 128, 200, 254, 255];
        let members: Vec<u32> = keys.iter().copied().filter(|&k| set.contains(k)).collect();
        let outsiders: Vec<u32> = keys.iter().copied().filter(|&k| !set.contains(k)).collect();
        let mut hit = Vec::new();
        intersect_with_set(&keys, &set, &mut hit);
        assert_eq!(hit, members);
        let mut miss = Vec::new();
        retain_unset_into(&keys, &set, &mut miss);
        assert_eq!(miss, outsiders);
        let mut list = keys.to_vec();
        retain_in_set(&mut list, &set);
        assert_eq!(list, members);
    }

    #[test]
    fn value_sparse_keys_take_the_per_key_path() {
        // Keys ≥ 64 apart never share a word, so the density heuristic
        // routes all three kernels onto the per-key bit tests; results
        // must match the dense word-run path bit for bit.
        let keys: Vec<u32> = (0..100u32).map(|i| i * 97).collect();
        let mut set = FixedBitSet::new(100 * 97);
        let members: Vec<u32> = keys.iter().copied().step_by(3).collect();
        set.insert_all(&members);
        let outsiders: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|k| !members.contains(k))
            .collect();
        let mut hit = Vec::new();
        intersect_with_set(&keys, &set, &mut hit);
        assert_eq!(hit, members);
        let mut miss = Vec::new();
        retain_unset_into(&keys, &set, &mut miss);
        assert_eq!(miss, outsiders);
        let mut list = keys.clone();
        retain_in_set(&mut list, &set);
        assert_eq!(list, members);
    }

    #[test]
    fn bitset_kernels_accept_unordered_keys() {
        // Regression: the CPI build retains *unordered* candidate lists, and
        // the density heuristic's span estimate used to underflow (debug
        // panic) whenever `last < first`. Descending and shuffled inputs
        // must classify without panicking and preserve input order.
        let mut set = FixedBitSet::new(1 << 12);
        set.insert_all(&[5, 64, 70, 4000]);
        let keys = [4000u32, 3999, 70, 5, 64];
        let mut hit = Vec::new();
        intersect_with_set(&keys, &set, &mut hit);
        assert_eq!(hit, vec![4000, 70, 5, 64]);
        let mut miss = Vec::new();
        retain_unset_into(&keys, &set, &mut miss);
        assert_eq!(miss, vec![3999]);
        let mut list = keys.to_vec();
        retain_in_set(&mut list, &set);
        assert_eq!(list, hit);
    }

    /// Strictly ascending duplicate-free vector strategy.
    fn sorted_set(max_len: usize, max_val: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0..max_val, 0..max_len).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        /// Similar-sized inputs over a narrow span: the word-run path.
        #[test]
        fn kernels_match_oracle(
            keys in sorted_set(40, 120),
            members in sorted_set(40, 120),
        ) {
            assert_all_match(&keys, &members);
        }

        /// A few keys against many members over a wide span: the
        /// per-key path.
        #[test]
        fn skewed_kernels_match_oracle(
            keys in sorted_set(5, 5000),
            members in sorted_set(400, 5000),
        ) {
            assert_all_match(&keys, &members);
        }

        /// The bitset kernels partition `keys` by membership.
        #[test]
        fn bitset_partition(
            keys in sorted_set(50, 300),
            members in sorted_set(50, 300),
        ) {
            let mut set = FixedBitSet::new(300);
            set.insert_all(&members);
            let mut inside = Vec::new();
            let mut outside = Vec::new();
            intersect_with_set(&keys, &set, &mut inside);
            retain_unset_into(&keys, &set, &mut outside);
            prop_assert_eq!(&inside, &naive(&keys, &members));
            let mut retained = keys.clone();
            retain_in_set(&mut retained, &set);
            prop_assert_eq!(&retained, &inside);
            let mut merged = [inside, outside].concat();
            merged.sort_unstable();
            prop_assert_eq!(merged, keys);
        }

        /// Unordered, possibly repeated keys over value spans up to 2^16:
        /// the drawn length against the drawn span decides between the
        /// word-run and the per-key path of `dense_runs`, and either way
        /// every kernel must keep the input order.
        #[test]
        fn unordered_keys_match_oracle(
            span_bits in 1u32..17,
            raw_keys in proptest::collection::vec(0u32..(1 << 16), 0..300),
            raw_members in proptest::collection::vec(0u32..(1 << 16), 0..300),
        ) {
            let span = 1u32 << span_bits;
            let keys: Vec<u32> = raw_keys.iter().map(|&k| k % span).collect();
            let members: Vec<u32> = raw_members.iter().map(|&k| k % span).collect();
            assert_all_match(&keys, &members);
        }
    }
}
