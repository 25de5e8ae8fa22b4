//! The compact path-index (CPI), §4.1 and §A.2.
//!
//! The CPI mirrors a BFS tree `q_T` of the query: every query vertex `u`
//! (a CPI *node*) carries a candidate set `u.C ⊆ V(G)`, and for every tree
//! edge `(u.p, u)` the data edges between `u.p.C` and `u.C` are stored as
//! per-candidate adjacency lists `N_u^{u.p}(v)`.
//!
//! Following §A.2, adjacency lists store *positions* (offsets into the
//! child's candidate array) instead of raw vertex ids, so enumeration walks
//! the structure with no hashing. Total size is `O(|E(G)| · |V(q)|)`
//! (Section 4.1) — the paper's replacement for TurboISO's worst-case
//! exponential materialized path embeddings.
//!
//! # Memory layout
//!
//! The finalized index is four flat arenas in CSR style — no nested `Vec`s,
//! no per-row allocations, no pointer chasing on the enumeration hot path:
//!
//! ```text
//! cand_data:    [ u0.C … | u1.C … | u2.C … ]          candidate arena
//! cand_offsets: [ 0, |u0.C|, |u0.C|+|u1.C|, … ]        n+1 entries
//! row_data:     [ rows of u1 … | rows of u2 … ]        adjacency arena
//! row_offsets:  [ block(u1) | block(u2) | … ]          absolute offsets
//! row_starts:   [ start of each vertex's block ]       n+1 entries
//! ```
//!
//! For a non-root `u` with parent `p`, `u`'s *offset block* is
//! `row_offsets[row_starts[u] .. row_starts[u+1]]` and has `|p.C| + 1`
//! entries; consecutive entries delimit `row_data` slices holding
//! `N_u^{u.p}(v)` for each parent candidate `v` in order. The root's block
//! is empty. All five arrays are built once in `CpiBuilder::freeze`, each
//! with a single allocation and no spare capacity.
//!
//! # Ordering invariants
//!
//! Two orderings are guaranteed by construction and asserted directly by
//! `cfl-verify`:
//!
//! * every candidate slice `u.C` is in strictly ascending vertex order;
//! * every adjacency row is in strictly ascending *position* order — rows
//!   are produced by filtering an ascending CSR neighbor slice against the
//!   ascending candidate array, so positions inherit the order and carry
//!   no duplicates.

mod naive;
pub(crate) mod refine;
pub(crate) mod scratch;
pub(crate) mod topdown;

pub use naive::build_naive;

use cfl_graph::{BfsTree, FixedBitSet, Graph, VertexId};

use crate::config::CpiMode;
use crate::filters::FilterContext;
use scratch::with_scratch;

/// The finalized, immutable compact path-index (flat arena layout; see the
/// module docs for the exact shape).
pub struct Cpi {
    /// The BFS tree of the query the index mirrors.
    pub tree: BfsTree,
    /// Candidate arena: `u.C` slices back to back, ascending vertex order
    /// within each slice.
    cand_data: Vec<VertexId>,
    /// `cand_data` CSR offsets, one entry per query vertex plus a sentinel.
    cand_offsets: Vec<u32>,
    /// Adjacency arena: positions into the owning child's candidate slice.
    row_data: Vec<u32>,
    /// Concatenated per-vertex offset blocks; entries are absolute offsets
    /// into `row_data`.
    row_offsets: Vec<u32>,
    /// `row_offsets[row_starts[u]..row_starts[u+1]]` is `u`'s offset block
    /// (`|p.C| + 1` entries for non-root `u`, empty for the root).
    row_starts: Vec<u32>,
}

impl Cpi {
    /// Builds the CPI for `ctx.q` over `ctx.g` with BFS tree rooted at
    /// `root`, under the requested construction mode.
    pub fn build(ctx: &FilterContext<'_>, root: VertexId, mode: CpiMode) -> Cpi {
        Cpi::build_inner(ctx, root, None, mode)
    }

    /// Like [`Cpi::build`], but seeds the root's candidate set with a
    /// pre-verified, strictly ascending list — typically the one root
    /// selection already refined
    /// ([`crate::root::select_root_with_candidates`]), which saves
    /// re-filtering the label index for the root. The result is identical
    /// to [`Cpi::build`] whenever the seed equals the root's verified
    /// candidate set (debug-asserted). The naive measurement baseline
    /// ignores the seed and recomputes from scratch.
    ///
    /// `_threads` is ignored: the build is serial. The argument is removed
    /// with the next change to the benchmark package, which calls this.
    pub fn build_seeded(
        ctx: &FilterContext<'_>,
        root: VertexId,
        root_cands: Vec<VertexId>,
        mode: CpiMode,
        _threads: usize,
    ) -> Cpi {
        Cpi::build_inner(ctx, root, Some(root_cands), mode)
    }

    fn build_inner(
        ctx: &FilterContext<'_>,
        root: VertexId,
        seed: Option<Vec<VertexId>>,
        mode: CpiMode,
    ) -> Cpi {
        let top_down = |seed: Option<Vec<VertexId>>| match seed {
            Some(cands) => topdown::top_down_seeded(ctx, root, cands),
            None => topdown::top_down(ctx, root),
        };
        // Sub-phase wall clocks only exist under the trace feature; the
        // default build keeps the exact straight-line phase sequence.
        macro_rules! timed {
            ($counter:ident, $e:expr) => {{
                #[cfg(feature = "trace")]
                let t = std::time::Instant::now();
                let r = $e;
                ctx.rec(cfl_trace::BuildCounter::$counter, {
                    #[cfg(feature = "trace")]
                    {
                        t.elapsed().as_nanos() as u64
                    }
                    #[cfg(not(feature = "trace"))]
                    {
                        0
                    }
                });
                r
            }};
        }
        match mode {
            CpiMode::Naive => naive::build_naive(ctx, root),
            CpiMode::TopDown => {
                let mut builder = timed!(TopDownNs, top_down(seed));
                let orphans = timed!(PruneNs, builder.prune_unreachable());
                ctx.rec(cfl_trace::BuildCounter::UnreachableKills, orphans);
                timed!(FreezeNs, builder.freeze(ctx.q, ctx.g))
            }
            CpiMode::TopDownRefined => {
                let mut builder = timed!(TopDownNs, top_down(seed));
                let kills = timed!(RefineNs, refine::bottom_up(ctx, &mut builder));
                ctx.rec(cfl_trace::BuildCounter::RefineKills, kills);
                let orphans = timed!(PruneNs, builder.prune_unreachable());
                ctx.rec(cfl_trace::BuildCounter::UnreachableKills, orphans);
                timed!(FreezeNs, builder.freeze(ctx.q, ctx.g))
            }
        }
    }

    /// Candidate set of query vertex `u`.
    #[inline]
    pub fn candidates(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        let lo = self.cand_offsets[u] as usize;
        let hi = self.cand_offsets[u + 1] as usize;
        &self.cand_data[lo..hi]
    }

    /// Adjacency list `N_u^{u.p}(v)` where `v` is the parent candidate at
    /// `parent_pos`; entries are positions into `candidates(u)`.
    ///
    /// The offset block of `u` is contiguous in `row_offsets`, so the two
    /// bounds come from one cache line in the common case and the arena
    /// slice needs no per-row indirection.
    #[inline]
    pub fn row(&self, u: VertexId, parent_pos: usize) -> &[u32] {
        let base = self.row_starts[u as usize] as usize + parent_pos;
        let lo = self.row_offsets[base] as usize;
        let hi = self.row_offsets[base + 1] as usize;
        &self.row_data[lo..hi]
    }

    /// CPI tree parent of `u` (`None` for the root).
    #[inline]
    pub fn parent(&self, u: VertexId) -> Option<VertexId> {
        self.tree.parent(u)
    }

    /// The root query vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.tree.root()
    }

    /// Whether some query vertex ended up with an empty candidate set
    /// (which proves zero embeddings by soundness).
    pub fn has_empty_candidate_set(&self) -> bool {
        self.cand_offsets.windows(2).any(|w| w[0] == w[1])
    }

    /// Total number of candidate entries over all query vertices.
    pub fn total_candidates(&self) -> u64 {
        self.cand_data.len() as u64
    }

    /// Total number of adjacency-list entries.
    pub fn total_edges(&self) -> u64 {
        self.row_data.len() as u64
    }

    /// Arena lengths `(candidates, row entries)` straight from the flat
    /// storage — cross-checked by `cfl-verify` against the per-vertex views.
    pub fn arena_totals(&self) -> (u64, u64) {
        (self.cand_data.len() as u64, self.row_data.len() as u64)
    }

    /// `|u.C|` for every query vertex, indexed by vertex id (the
    /// per-vertex CPI size metric the trace layer reports).
    pub fn candidate_counts(&self) -> Vec<u32> {
        self.cand_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Order-sensitive FNV-1a digest over all five arenas (lengths
    /// included). Two CPIs have equal checksums iff their flat storage is
    /// byte-identical — the property the identity tests use to pin the
    /// built index to recorded golden values.
    pub fn checksum(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mix = |h: &mut u64, words: &[u32]| {
            *h = (*h ^ words.len() as u64).wrapping_mul(PRIME);
            for &w in words {
                *h = (*h ^ u64::from(w)).wrapping_mul(PRIME);
            }
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        mix(&mut h, &self.cand_data);
        mix(&mut h, &self.cand_offsets);
        mix(&mut h, &self.row_data);
        mix(&mut h, &self.row_offsets);
        mix(&mut h, &self.row_starts);
        h
    }

    /// Heap footprint in bytes (the index-size metric of Figure 16(d)):
    /// the bytes the five arenas hold. `freeze` leaves no spare capacity
    /// in any arena, so their lengths are their allocations.
    pub fn memory_bytes(&self) -> u64 {
        ((self.cand_data.len() * std::mem::size_of::<VertexId>())
            + (self.cand_offsets.len() + self.row_data.len() + self.row_offsets.len())
                * std::mem::size_of::<u32>()
            + self.row_starts.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// Test-only corruption hooks, compiled only with the `validate` feature.
///
/// Each mutator plants one precise structural defect while keeping the
/// index mechanically navigable, so tests can assert that the `cfl-verify`
/// checkers detect exactly the planted violation. The mutators operate
/// directly on the flat arenas, shifting offsets to keep every other slice
/// intact.
#[cfg(feature = "validate")]
impl Cpi {
    /// Injects `v` into `u.C` (keeping sort order) without linking it to
    /// any adjacency row. Detected as `cand-orphan`, plus a filter
    /// violation when `v` fails the candidate filters. Children's offset
    /// blocks gain an empty row so the structure stays navigable.
    pub fn corrupt_inject_candidate(&mut self, u: VertexId, v: VertexId) {
        let Err(pos) = self.candidates(u).binary_search(&v) else {
            return; // already a candidate; nothing to inject
        };
        let ui = u as usize;
        // Re-point u's own rows at the soon-to-be-shifted positions. Non-root
        // blocks end one entry before the next block starts, so the data span
        // is delimited by the block's first and last offsets.
        let block_lo = self.row_starts[ui] as usize;
        let block_hi = self.row_starts[ui + 1] as usize;
        if block_lo < block_hi {
            let lo = self.row_offsets[block_lo] as usize;
            let hi = self.row_offsets[block_hi - 1] as usize;
            for p in &mut self.row_data[lo..hi] {
                if *p as usize >= pos {
                    *p += 1;
                }
            }
        }
        let at = self.cand_offsets[ui] as usize + pos;
        self.cand_data.insert(at, v);
        for o in &mut self.cand_offsets[ui + 1..] {
            *o += 1;
        }
        // Each child's offset block grows by one empty row at `pos + 1`.
        let children: Vec<VertexId> = self.tree.children(u).to_vec();
        for c in children {
            let ci = c as usize;
            let block = self.row_starts[ci] as usize;
            let dup = self.row_offsets[block + pos];
            self.row_offsets.insert(block + pos + 1, dup);
            for s in &mut self.row_starts[ci + 1..] {
                *s += 1;
            }
        }
    }

    /// Overwrites the first entry of `u`'s adjacency row for `parent_pos`
    /// with an out-of-range position. Detected as `row-position`.
    ///
    /// # Panics
    /// When the targeted row is empty.
    pub fn corrupt_row_position(&mut self, u: VertexId, parent_pos: usize) {
        let base = self.row_starts[u as usize] as usize + parent_pos;
        let (start, end) = (
            self.row_offsets[base] as usize,
            self.row_offsets[base + 1] as usize,
        );
        assert!(start < end, "row must be non-empty to corrupt");
        let bad = self.candidates(u).len() as u32;
        self.row_data[start] = bad;
    }

    /// Deletes the last entry of `u`'s adjacency row for `parent_pos`,
    /// silently dropping one CPI edge. Detected as `row-complete`, plus
    /// `cand-orphan` when no other row references the candidate.
    ///
    /// # Panics
    /// When the targeted row is empty.
    pub fn corrupt_drop_row_entry(&mut self, u: VertexId, parent_pos: usize) {
        let base = self.row_starts[u as usize] as usize + parent_pos;
        let (start, end) = (
            self.row_offsets[base] as usize,
            self.row_offsets[base + 1] as usize,
        );
        assert!(start < end, "row must be non-empty to corrupt");
        self.row_data.remove(end - 1);
        // Offsets are absolute into the shared arena: every offset past the
        // removed entry shifts down by one, across all blocks.
        for o in &mut self.row_offsets {
            if *o as usize >= end {
                *o -= 1;
            }
        }
    }

    /// Swaps the first two entries of `u`'s adjacency row for `parent_pos`,
    /// breaking the documented strictly-ascending row ordering while
    /// keeping the entry set intact. Detected as `row-order`.
    ///
    /// # Panics
    /// When the targeted row has fewer than two entries.
    pub fn corrupt_swap_row_entries(&mut self, u: VertexId, parent_pos: usize) {
        let base = self.row_starts[u as usize] as usize + parent_pos;
        let (start, end) = (
            self.row_offsets[base] as usize,
            self.row_offsets[base + 1] as usize,
        );
        assert!(end - start >= 2, "row must have ≥ 2 entries to swap");
        self.row_data.swap(start, start + 1);
    }
}

/// Per-vertex adjacency rows in flat form: `data` holds the concatenated
/// rows (raw data-vertex ids during construction) and `ends[i]` is the
/// exclusive end of row `i`, which belongs to the parent's `i`-th
/// candidate in construction order. Two allocations per query vertex
/// instead of one `Vec` per parent candidate — the nested representation
/// put `O(Σ|u.p.C|)` allocations on the build hot path.
#[derive(Clone, Default)]
pub(crate) struct FlatRows {
    pub data: Vec<VertexId>,
    pub ends: Vec<u32>,
}

impl FlatRows {
    /// Row `i` (data-vertex ids, ascending).
    #[inline]
    pub fn row(&self, i: usize) -> &[VertexId] {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[lo..self.ends[i] as usize]
    }

    /// Seals the current row: everything appended to `data` since the last
    /// call becomes row `num_rows()`.
    #[inline]
    pub fn close_row(&mut self) {
        self.ends.push(self.data.len() as u32);
    }

    /// Number of sealed rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.ends.len()
    }
}

/// Mutable CPI under construction: candidates carry alive flags and
/// adjacency rows store raw vertex ids. [`CpiBuilder::freeze`] compacts
/// everything into the flat arena representation, dropping pruned
/// candidates and dangling adjacency entries.
pub(crate) struct CpiBuilder {
    pub tree: BfsTree,
    /// Per query vertex: candidate vertex ids in strictly ascending order
    /// (established at generation time and preserved by every pruning
    /// pass).
    pub candidates: Vec<Vec<VertexId>>,
    /// Parallel alive flags (bottom-up refinement prunes by flipping these).
    pub alive: Vec<Vec<bool>>,
    /// For non-root `u`: flat adjacency rows, one row per parent candidate.
    pub rows: Vec<FlatRows>,
    /// Query vertices whose candidate set lost members *after* their
    /// adjacency rows and children were generated — i.e. bottom-up
    /// refinement kills and cascaded unreachable-pruning kills. The clean
    /// complement lets [`CpiBuilder::prune_unreachable`] skip whole
    /// subtrees (see there).
    pub dirty: FixedBitSet,
}

impl CpiBuilder {
    pub(crate) fn new(tree: BfsTree, n: usize) -> Self {
        CpiBuilder {
            tree,
            candidates: vec![Vec::new(); n],
            alive: vec![Vec::new(); n],
            rows: vec![FlatRows::default(); n],
            dirty: FixedBitSet::new(n),
        }
    }

    /// Iterator over the alive candidates of `u`.
    pub(crate) fn alive_candidates<'a>(
        &'a self,
        u: VertexId,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.candidates[u as usize]
            .iter()
            .zip(&self.alive[u as usize])
            .filter_map(|(&v, &a)| a.then_some(v))
    }

    /// Algorithm 4's top-down adjacency-list pruning (lines 8–11): kills
    /// every non-root candidate that no surviving parent candidate links
    /// to. A single bottom-up pass can leave such *orphans* behind — a
    /// candidate's referencing parent candidates may all die for reasons in
    /// sibling subtrees after the candidate itself was processed. Orphans
    /// are unreachable during enumeration (candidates are only ever entered
    /// through parent adjacency rows), so removing them shrinks the index
    /// without changing results. Processing in BFS order cascades the
    /// pruning down the tree.
    ///
    /// The dirty set makes the sweep proportional to what refinement
    /// actually touched: top-down construction only admits a candidate
    /// adjacent to a then-alive parent candidate, and a parent level is
    /// fully finalized before its children's rows are built — so after a
    /// pure top-down build *no* orphan exists, and orphans can only appear
    /// under a vertex that lost candidates afterwards. A clean parent
    /// therefore proves every candidate of `u` is still referenced, and
    /// `u` is skipped without touching its rows. Kills performed here mark
    /// `u` dirty so the cascade stays sound.
    ///
    /// Safety of the sweep: a candidate kept here is referenced by an alive
    /// parent candidate, so removing orphans never deletes the downward
    /// support (Lemma 5.1) of any surviving candidate along tree edges.
    /// Returns the number of orphans killed (cold path; the count is two
    /// adds per kill, so it is maintained unconditionally and reported by
    /// the trace layer when enabled).
    pub(crate) fn prune_unreachable(&mut self) -> u64 {
        let mut total: u64 = 0;
        let order: Vec<VertexId> = self.tree.order().collect();
        for &u in &order {
            let Some(p) = self.tree.parent(u) else {
                continue;
            };
            if !self.dirty.contains(p) {
                continue;
            }
            let ui = u as usize;
            // Data vertices referenced by some alive parent candidate's row.
            let mut referenced: Vec<VertexId> = Vec::new();
            let rows = &self.rows[ui];
            for (i, &alive) in self.alive[p as usize].iter().enumerate() {
                if alive && i < rows.num_rows() {
                    referenced.extend_from_slice(rows.row(i));
                }
            }
            referenced.sort_unstable();
            referenced.dedup();
            let cands = &self.candidates[ui];
            let alive_u = &mut self.alive[ui];
            let mut killed = false;
            for (j, &v) in cands.iter().enumerate() {
                if alive_u[j] && referenced.binary_search(&v).is_err() {
                    alive_u[j] = false;
                    killed = true;
                    total += 1;
                }
            }
            if killed {
                self.dirty.insert(u);
            }
        }
        total
    }

    /// Freezes the builder into the final flat-arena [`Cpi`].
    ///
    /// Two passes, both in vertex order: (A) each vertex's final candidate
    /// slice (alive-only, sorted) is appended to the candidate arena; (B)
    /// each non-root vertex's adjacency rows are remapped from data-vertex
    /// ids to final positions through a pooled `|V(G)|`-sized lookup,
    /// dropping entries that point at dead candidates, and appended to the
    /// row arena with absolute offsets.
    ///
    /// Each arena is allocated once, never grown by doubling: the offset
    /// arenas are sized exactly, and the two data arenas are reserved at
    /// their upper bounds (every built candidate, every built row entry)
    /// and shrunk to fit once filled. A plan cache keeps many CPIs alive,
    /// and doubling slack plus the freed smaller buffers left the
    /// allocator holding far more than the arenas themselves.
    pub(crate) fn freeze(self, q: &Graph, g: &Graph) -> Cpi {
        let n = q.num_vertices();
        let mut cand_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut cand_data: Vec<VertexId> =
            Vec::with_capacity(self.candidates.iter().map(Vec::len).sum());
        cand_offsets.push(0);
        for u in 0..n {
            let lo = cand_data.len();
            cand_data.extend(
                self.candidates[u]
                    .iter()
                    .zip(&self.alive[u])
                    .filter_map(|(&v, &a)| a.then_some(v)),
            );
            cand_data[lo..].sort_unstable();
            cand_offsets.push(cand_data.len() as u32);
        }
        cand_data.shrink_to_fit();
        let final_cands =
            |u: usize| &cand_data[cand_offsets[u] as usize..cand_offsets[u + 1] as usize];

        // A non-root vertex's offset block has one entry per final parent
        // candidate plus a leading one.
        let offsets_len: usize = (0..n as VertexId)
            .filter_map(|u| self.tree.parent(u))
            .map(|p| final_cands(p as usize).len() + 1)
            .sum();
        let mut row_starts: Vec<u32> = Vec::with_capacity(n + 1);
        let mut row_offsets: Vec<u32> = Vec::with_capacity(offsets_len);
        let mut row_data: Vec<u32> =
            Vec::with_capacity(self.rows.iter().map(|r| r.data.len()).sum());
        row_starts.push(0);
        with_scratch(g.num_vertices(), |scr| {
            for ui in 0..n {
                if let Some(parent) = self.tree.parent(ui as VertexId) {
                    let parent = parent as usize;
                    let child_c = final_cands(ui);
                    for (pos, &v) in child_c.iter().enumerate() {
                        scr.pos_of[v as usize] = pos as u32;
                    }

                    // Rows are indexed by the *original* parent candidate
                    // order; emit them in the final (sorted, alive-only)
                    // parent order.
                    let orig_parent = &self.candidates[parent];
                    let parent_alive = &self.alive[parent];
                    let order = &mut scr.list;
                    order.extend(
                        (0..orig_parent.len() as u32).filter(|&i| parent_alive[i as usize]),
                    );
                    order.sort_unstable_by_key(|&i| orig_parent[i as usize]);
                    debug_assert_eq!(order.len(), final_cands(parent).len());

                    row_offsets.push(row_data.len() as u32);
                    let rows = &self.rows[ui];
                    for &i in order.iter() {
                        if (i as usize) < rows.num_rows() {
                            for &v in rows.row(i as usize) {
                                let pos = scr.pos_of[v as usize];
                                if pos != u32::MAX {
                                    row_data.push(pos);
                                }
                            }
                        }
                        row_offsets.push(row_data.len() as u32);
                    }

                    for &v in child_c {
                        scr.pos_of[v as usize] = u32::MAX;
                    }
                    order.clear();
                }
                row_starts.push(row_offsets.len() as u32);
            }
        });
        debug_assert_eq!(row_offsets.len(), offsets_len);
        row_data.shrink_to_fit();

        Cpi {
            tree: self.tree,
            cand_data,
            cand_offsets,
            row_data,
            row_offsets,
            row_starts,
        }
    }

    /// Reference freeze producing the pre-arena nested representation:
    /// per-vertex candidate vectors, per-vertex offset vectors (relative to
    /// that vertex's own row data), and per-vertex row-data vectors.
    ///
    /// Kept as the differential oracle for the flat layout: tests assert
    /// [`CpiBuilder::freeze`] output is element-for-element equal, and the
    /// `oracle` feature exposes it to the `cfl-fuzz` differential targets
    /// (via [`crate::oracle`]).
    #[cfg(any(test, feature = "oracle"))]
    #[allow(clippy::type_complexity)]
    pub(crate) fn freeze_nested(
        &self,
        q: &Graph,
    ) -> (Vec<Vec<VertexId>>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let n = q.num_vertices();
        let mut final_cands: Vec<Vec<VertexId>> = Vec::with_capacity(n);
        for u in 0..n {
            let mut c: Vec<VertexId> = self.candidates[u]
                .iter()
                .zip(&self.alive[u])
                .filter_map(|(&v, &a)| a.then_some(v))
                .collect();
            c.sort_unstable();
            final_cands.push(c);
        }

        let mut row_offsets: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut row_data: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n as VertexId {
            let Some(parent) = self.tree.parent(u) else {
                continue;
            };
            let parent = parent as usize;
            let child_c = &final_cands[u as usize];
            let orig_parent = &self.candidates[parent];
            let parent_alive = &self.alive[parent];
            let mut order: Vec<usize> = (0..orig_parent.len())
                .filter(|&i| parent_alive[i])
                .collect();
            order.sort_unstable_by_key(|&i| orig_parent[i]);

            let mut offsets = Vec::with_capacity(order.len() + 1);
            let mut data: Vec<u32> = Vec::new();
            offsets.push(0u32);
            for &i in &order {
                let row = if i < self.rows[u as usize].num_rows() {
                    self.rows[u as usize].row(i)
                } else {
                    &[]
                };
                for &v in row {
                    if let Ok(pos) = child_c.binary_search(&v) {
                        data.push(pos as u32);
                    }
                }
                offsets.push(data.len() as u32);
            }
            row_offsets[u as usize] = offsets;
            row_data[u as usize] = data;
        }

        (final_cands, row_offsets, row_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpiMode;
    use crate::filters::{FilterContext, GraphStats};
    use cfl_graph::graph_from_edges;
    use proptest::prelude::*;

    /// Paper Figure 7: query 0(A)-1(B), 0-2(C), 1-2, 1-3(D), 2-3 over the
    /// Figure 7(c) data graph.
    fn figure7() -> (Graph, Graph) {
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        // Data graph of Figure 7(c): labels A=0,B=1,C=2,D=3.
        // v1,v2: A. v3,v5,v7,v9: B. v4,v6,v8,v10: C. v11..v15: D (v13,v15 D too).
        // Edges per the figure:
        // v1-v3, v1-v5, v1-v7, v2-v7, v2-v9,
        // v3-v4, v5-v6, v7-v8, v9-v10 (B-C pairs), v1-v4?, ...
        // The exact figure edges are reproduced in the doc tests of the
        // engine; here a faithful subset suffices to exercise construction.
        let labels = [0, 0, 1, 2, 1, 2, 1, 2, 1, 2, 9, 3, 3, 3, 3, 3];
        //            v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 pad v11..v15 (0-indexed shift)
        let _ = labels;
        let g = graph_from_edges(
            &[0, 0, 1, 2, 1, 2, 1, 2, 1, 2, 2, 3, 3, 3],
            &[
                (0, 2), // v1-B
                (0, 4),
                (0, 6),
                (1, 6),
                (1, 8),
                (2, 3), // B-C
                (4, 5),
                (6, 7),
                (8, 9),
                (0, 3), // A-C links so u2 candidates connect to u0
                (1, 9),
                (3, 11), // C-D
                (5, 12),
                (7, 13),
                (2, 11), // B-D
                (4, 12),
                (6, 13),
            ],
        )
        .unwrap();
        (q, g)
    }

    fn build(q: &Graph, g: &Graph, mode: CpiMode) -> Cpi {
        let qs = GraphStats::build(q);
        let gs = GraphStats::build(g);
        let ctx = FilterContext::new(q, g, &qs, &gs);
        Cpi::build(&ctx, 0, mode)
    }

    #[test]
    fn refined_cpi_is_subset_of_topdown_which_is_subset_of_naive() {
        let (q, g) = figure7();
        let naive = build(&q, &g, CpiMode::Naive);
        let td = build(&q, &g, CpiMode::TopDown);
        let full = build(&q, &g, CpiMode::TopDownRefined);
        for u in q.vertices() {
            let nv = naive.candidates(u);
            let tv = td.candidates(u);
            let fv = full.candidates(u);
            assert!(tv.iter().all(|v| nv.contains(v)), "u{u}: td ⊄ naive");
            assert!(fv.iter().all(|v| tv.contains(v)), "u{u}: full ⊄ td");
        }
        assert!(full.total_candidates() <= td.total_candidates());
        assert!(td.total_candidates() <= naive.total_candidates());
    }

    #[test]
    fn rows_reference_valid_positions() {
        let (q, g) = figure7();
        for mode in [CpiMode::Naive, CpiMode::TopDown, CpiMode::TopDownRefined] {
            let cpi = build(&q, &g, mode);
            for u in q.vertices() {
                if cpi.parent(u).is_none() {
                    continue;
                }
                let p = cpi.parent(u).unwrap();
                for i in 0..cpi.candidates(p).len() {
                    for &pos in cpi.row(u, i) {
                        assert!((pos as usize) < cpi.candidates(u).len());
                        // Row entries must be real data edges.
                        let vp = cpi.candidates(p)[i];
                        let vc = cpi.candidates(u)[pos as usize];
                        assert!(g.has_edge(vp, vc), "mode {mode:?}: ({vp},{vc})");
                    }
                }
            }
        }
    }

    #[test]
    fn rows_are_strictly_ascending() {
        let (q, g) = figure7();
        for mode in [CpiMode::Naive, CpiMode::TopDown, CpiMode::TopDownRefined] {
            let cpi = build(&q, &g, mode);
            for u in q.vertices() {
                let Some(p) = cpi.parent(u) else { continue };
                for i in 0..cpi.candidates(p).len() {
                    let row = cpi.row(u, i);
                    assert!(
                        row.windows(2).all(|w| w[0] < w[1]),
                        "mode {mode:?}: u{u} row {i} not strictly ascending: {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn size_metrics_are_consistent() {
        let (q, g) = figure7();
        let cpi = build(&q, &g, CpiMode::TopDownRefined);
        assert!(cpi.total_candidates() > 0);
        assert!(cpi.memory_bytes() >= cpi.total_candidates() * 4);
        assert!(!cpi.has_empty_candidate_set());
        let (cands, edges) = cpi.arena_totals();
        assert_eq!(cands, cpi.total_candidates());
        assert_eq!(edges, cpi.total_edges());
    }

    /// The golden-value workload's queries (2,000-vertex synthetic graph,
    /// dense and sparse sets), built from the engine's root in every mode:
    /// no arena keeps spare capacity, so `memory_bytes` is exactly the heap
    /// the index holds.
    #[test]
    fn arenas_hold_no_slack() {
        let g = cfl_graph::synthetic_graph(&cfl_graph::SyntheticConfig {
            num_vertices: 2_000,
            avg_degree: 8.0,
            num_labels: 12,
            label_exponent: 1.0,
            twin_fraction: 0.1,
            seed: 4242,
        });
        let dense = cfl_graph::query_set(&g, 10, cfl_graph::QueryDensity::NonSparse, 2, 7);
        let sparse = cfl_graph::query_set(&g, 12, cfl_graph::QueryDensity::Sparse, 2, 11);
        assert_eq!(dense.len() + sparse.len(), 4);
        let gs = GraphStats::build(&g);
        for q in dense.iter().chain(&sparse) {
            let qs = GraphStats::build(q);
            let ctx = FilterContext::new(q, &g, &qs, &gs);
            let core = cfl_graph::two_core(q);
            let has_core = core.contains(&true);
            let eligible: Vec<VertexId> = (0..q.num_vertices() as VertexId)
                .filter(|&v| !has_core || core[v as usize])
                .collect();
            let (root, root_cands) = crate::root::select_root_with_candidates(&ctx, &eligible);
            for mode in [CpiMode::Naive, CpiMode::TopDown, CpiMode::TopDownRefined] {
                let cpi = Cpi::build_seeded(&ctx, root, root_cands.clone(), mode, 1);
                let arenas = [
                    (cpi.cand_data.len(), cpi.cand_data.capacity()),
                    (cpi.cand_offsets.len(), cpi.cand_offsets.capacity()),
                    (cpi.row_data.len(), cpi.row_data.capacity()),
                    (cpi.row_offsets.len(), cpi.row_offsets.capacity()),
                    (cpi.row_starts.len(), cpi.row_starts.capacity()),
                ];
                for (i, (len, cap)) in arenas.into_iter().enumerate() {
                    assert_eq!(cap, len, "arena {i} keeps slack ({mode:?})");
                }
                let held: usize = arenas.iter().map(|&(_, cap)| cap * 4).sum();
                assert_eq!(cpi.memory_bytes(), held as u64);
            }
        }
    }

    #[test]
    fn impossible_query_yields_empty_candidates() {
        // Query label 7 does not exist in the data graph.
        let q = graph_from_edges(&[7, 1], &[(0, 1)]).unwrap();
        let g = graph_from_edges(&[0, 1], &[(0, 1)]).unwrap();
        let cpi = build(&q, &g, CpiMode::TopDownRefined);
        assert!(cpi.has_empty_candidate_set());
    }

    #[test]
    fn checksum_distinguishes_arena_changes() {
        let (q, g) = figure7();
        let a = build(&q, &g, CpiMode::TopDownRefined);
        let b = build(&q, &g, CpiMode::TopDownRefined);
        assert_eq!(a.checksum(), b.checksum(), "deterministic rebuild");
        let naive = build(&q, &g, CpiMode::Naive);
        assert_ne!(a.checksum(), naive.checksum(), "different arenas");
    }

    /// Nested reference representation: per-vertex candidates, offsets, rows.
    type Nested = (Vec<Vec<VertexId>>, Vec<Vec<u32>>, Vec<Vec<u32>>);

    /// Asserts that `cpi` (flat arenas) is element-for-element equal to the
    /// nested reference output `(cands, offsets, rows)`.
    fn assert_matches_nested(q: &Graph, cpi: &Cpi, nested: &Nested) {
        let (cands, offsets, rows) = nested;
        for u in q.vertices() {
            assert_eq!(cpi.candidates(u), cands[u as usize].as_slice(), "u{u}.C");
            let Some(p) = cpi.parent(u) else {
                continue;
            };
            let offs = &offsets[u as usize];
            let data = &rows[u as usize];
            assert_eq!(offs.len(), cands[p as usize].len() + 1, "u{u} block len");
            for i in 0..cands[p as usize].len() {
                let expect = &data[offs[i] as usize..offs[i + 1] as usize];
                assert_eq!(cpi.row(u, i), expect, "u{u} row {i}");
            }
        }
    }

    /// Random connected labeled graph strategy (spanning tree + extras).
    fn connected_graph(
        n_range: std::ops::Range<usize>,
        num_labels: u32,
        extra_edges: usize,
    ) -> impl Strategy<Value = Graph> {
        n_range.prop_flat_map(move |n| {
            let labels = proptest::collection::vec(0..num_labels, n);
            let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
            let extras = proptest::collection::vec((0..n as u32, 0..n as u32), 0..=extra_edges);
            (labels, parents, extras).prop_map(move |(labels, parents, extras)| {
                let mut edges: Vec<(VertexId, VertexId)> = parents
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (p, (i + 1) as u32))
                    .collect();
                for (a, b) in extras {
                    if a != b {
                        edges.push((a, b));
                    }
                }
                graph_from_edges(&labels, &edges).expect("valid endpoints")
            })
        })
    }

    proptest! {
        /// The flat arena freeze is element-for-element equal to the naive
        /// nested reference freeze, across modes and random graph pairs.
        #[test]
        fn flat_freeze_equals_nested_reference(
            q in connected_graph(2..7, 3, 4),
            g in connected_graph(7..20, 3, 14),
        ) {
            let qs = GraphStats::build(&q);
            let gs = GraphStats::build(&g);
            let ctx = FilterContext::new(&q, &g, &qs, &gs);
            for refined in [false, true] {
                let mut builder = topdown::top_down(&ctx, 0);
                if refined {
                    refine::bottom_up(&ctx, &mut builder);
                }
                builder.prune_unreachable();
                let nested = builder.freeze_nested(&q);
                let cpi = builder.freeze(&q, &g);
                assert_matches_nested(&q, &cpi, &nested);
                let (cands, edges) = cpi.arena_totals();
                prop_assert_eq!(cands, cpi.total_candidates());
                prop_assert_eq!(edges, cpi.total_edges());
            }
        }
    }
}
