//! Top-down CPI construction — Algorithm 3, level by level.
//!
//! Query vertices are processed level by level down the BFS tree, each
//! level in three phases:
//!
//! 1. **Forward candidate generation** (lines 5–17): `C(u)` is the set of
//!    data vertices passing the label/degree and CandVerify filters that
//!    have a neighbor in `C(w)` for *every* upper-level query neighbor `w`
//!    (the BFS parent and upward C-NTE endpoints). Upper-level sets were
//!    finalized by the previous level iteration. Lemma 5.1's per-vertex
//!    counter array is replaced by neighborhood bitset masks: the initial
//!    list comes from the smallest upper set's neighborhood, and every
//!    further constraint is one bit-test per surviving entry.
//! 2. **Same-level S-NTE pruning** (the interleaving of lines 5–17 with
//!    the backward pass of lines 18–23): a forward sweep prunes each
//!    vertex against its *earlier* same-level neighbors and a reverse
//!    sweep against its *later* ones. Sweeping in index order reproduces
//!    exactly the candidate-set states the sequential algorithm observes —
//!    the forward sweep sees each earlier set with its own earlier-neighbor
//!    constraints already applied, and the reverse sweep sees each later
//!    set fully pruned — so the resulting sets are identical to the
//!    interleaved original's. The sweep is skipped outright for levels
//!    without same-level edges, the common case. (CandVerify commutes with
//!    all of this: it is a pure per-`(v, u)` predicate.)
//! 3. **Adjacency-list construction** (lines 24–28): one membership bitset
//!    over `C(u)`, then each parent candidate's row is its CSR neighbor
//!    slice filtered through the shared intersection kernel
//!    ([`cfl_graph::intersect`]) into a per-vertex flat row block — two
//!    allocations per query vertex instead of one per parent candidate.
//!
//! Candidate sets are kept in strictly ascending vertex order from the
//! start (the ordering invariant the frozen arenas document), and total
//! work remains `O(|E(G)| · |E(q)|)` (Theorem 5.1).

use cfl_graph::intersect::{intersect_with_set, retain_in_set};
use cfl_graph::{BfsTree, FixedBitSet, VertexId};

use super::scratch::with_scratch;
use super::{CpiBuilder, FlatRows};
use crate::filters::FilterContext;

/// Runs Algorithm 3, computing the root candidate set itself (lines 1–2).
pub(crate) fn top_down(ctx: &FilterContext<'_>, root: VertexId) -> CpiBuilder {
    let mut root_cands: Vec<VertexId> = ctx.light_candidates(root).collect();
    // When tracing, the root's light candidates count as seeded and
    // CandVerify kills are attributed per stage; `top_down_seeded` below
    // must then *not* seed-count the already-filtered list again.
    ctx.rec(cfl_trace::BuildCounter::Seeded, root_cands.len() as u64);
    ctx.retain_verified(&mut root_cands, root);
    root_cands.sort_unstable();
    top_down_seeded_inner(ctx, root, root_cands, false)
}

/// Runs Algorithm 3 from a pre-verified root candidate set (strictly
/// ascending — typically the list root selection already refined, see
/// [`crate::root::select_root_with_candidates`]).
pub(crate) fn top_down_seeded(
    ctx: &FilterContext<'_>,
    root: VertexId,
    root_cands: Vec<VertexId>,
) -> CpiBuilder {
    top_down_seeded_inner(ctx, root, root_cands, true)
}

/// `count_root_seed` distinguishes the externally-seeded entry point
/// (the pre-verified root list counts as seeded with zero kills — its
/// filtering happened during root selection) from [`top_down`], which
/// already recorded the root's seed count and kills itself.
fn top_down_seeded_inner(
    ctx: &FilterContext<'_>,
    root: VertexId,
    root_cands: Vec<VertexId>,
    count_root_seed: bool,
) -> CpiBuilder {
    if count_root_seed {
        ctx.rec(cfl_trace::BuildCounter::Seeded, root_cands.len() as u64);
    }
    let q = ctx.q;
    let n = q.num_vertices();
    let tree = BfsTree::new(q, root);
    debug_assert_eq!(tree.num_reached(), n, "query must be connected");
    let mut s = CpiBuilder::new(tree, n);

    debug_assert!(root_cands.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(root_cands.iter().all(|&v| ctx.is_candidate(v, root)));
    s.candidates[root as usize] = root_cands;

    let num_levels = s.tree.num_levels();
    for lev in 2..=num_levels {
        let vlev: Vec<VertexId> = s.tree.level_vertices(lev).to_vec();

        // Phase 1: forward generation against upper-level sets only, so
        // writing each set straight into the builder cannot affect the
        // rest of the level.
        for &u in &vlev {
            s.candidates[u as usize] = generate_candidates(ctx, &s, u);
        }

        // Phase 2: same-level S-NTE constraints, both directions.
        same_level_prune(ctx, &mut s, &vlev);

        // Phase 3: adjacency rows along the tree edge from the parent.
        for &u in &vlev {
            s.rows[u as usize] = build_rows(ctx, &s, u);
        }
    }

    for u in 0..n {
        s.alive[u] = vec![true; s.candidates[u].len()];
    }
    // Every surviving candidate passes the full local filter battery
    // (label, degree, MND, NLF) and every candidate list is strictly
    // ascending — the cheap halves of the checks cfl-verify replays in
    // full.
    debug_assert!((0..n).all(|u| s.candidates[u]
        .iter()
        .all(|&v| ctx.is_candidate(v, u as VertexId))));
    debug_assert!((0..n).all(|u| s.candidates[u].windows(2).all(|w| w[0] < w[1])));
    s
}

/// Phase 1: the candidate set of `u` constrained by every
/// *upper-level* query neighbor (finalized in earlier level iterations),
/// the label/degree filter, and CandVerify. Returns a strictly ascending
/// list.
fn generate_candidates(ctx: &FilterContext<'_>, s: &CpiBuilder, u: VertexId) -> Vec<VertexId> {
    let q = ctx.q;
    let g = ctx.g;
    let lev = s.tree.level(u);
    // The upper-level neighbors (BFS parent and upward C-NTE endpoints)
    // come straight off the CSR slice — no collection — and the one with
    // the smallest finalized candidate set seeds the list.
    let mut seed_w: Option<VertexId> = None;
    for &w in q.neighbors(u) {
        if s.tree.level(w) < lev
            && seed_w
                .is_none_or(|sw| s.candidates[w as usize].len() < s.candidates[sw as usize].len())
        {
            seed_w = Some(w);
        }
    }
    let Some(seed_w) = seed_w else {
        unreachable!("every non-root vertex has a visited BFS parent");
    };

    let adj = &ctx.g_stats.label_adj;
    let lu = q.label(u);
    let du = q.degree(u);
    let mut list: Vec<VertexId> = Vec::new();
    with_scratch(g.num_vertices(), |scr| {
        // Seed list: distinct degree-qualified neighbors of the smallest
        // upper candidate set — every further constraint can only shrink
        // it, so seeding from the smallest bounds the whole task. The
        // label-grouped adjacency serves only the `l_q(u)`-labeled
        // neighbors, so the label filter costs nothing and the scan skips
        // the (vast majority of) wrong-label neighbors outright. Only
        // qualifying vertices enter the dedup mask; its set bits then
        // equal `list` exactly, making the restore O(|list|).
        for &vp in &s.candidates[seed_w as usize] {
            for &v in adj.neighbors_with_label(vp, lu) {
                if !scr.seen.contains(v) && g.degree(v) >= du {
                    scr.seen.insert(v);
                    list.push(v);
                }
            }
        }
        scr.seen.remove_all(&list);
        ctx.rec(cfl_trace::BuildCounter::Seeded, list.len() as u64);

        for &w in q.neighbors(u) {
            if w == seed_w || s.tree.level(w) >= lev || list.is_empty() {
                continue;
            }
            neighborhood_mask(adj, &s.candidates[w as usize], lu, &mut scr.mask);
            let before = list.len();
            retain_in_set(&mut list, &scr.mask);
            ctx.rec(
                cfl_trace::BuildCounter::AdjacencyKills,
                (before - list.len()) as u64,
            );
            scr.mask.clear();
        }
    });

    // CandVerify last: MND + NLF are the expensive filters, so they only
    // run on vertices that already satisfy every adjacency constraint.
    ctx.retain_verified(&mut list, u);
    list.sort_unstable();
    list
}

/// Phase 2: applies same-level (S-NTE) constraints — a forward
/// sweep pruning each vertex against its earlier same-level neighbors,
/// then a reverse sweep against its later ones (Algorithm 3's backward
/// pass). No-op for levels without same-level edges.
fn same_level_prune(ctx: &FilterContext<'_>, s: &mut CpiBuilder, vlev: &[VertexId]) {
    let q = ctx.q;
    let Some(&first) = vlev.first() else {
        return;
    };
    let lev = s.tree.level(first);
    let has_snte = vlev
        .iter()
        .any(|&u| q.neighbors(u).iter().any(|&w| s.tree.level(w) == lev));
    if !has_snte {
        return;
    }
    let adj = &ctx.g_stats.label_adj;
    with_scratch(ctx.g.num_vertices(), |scr| {
        // Pass 0 walks forward constraining against earlier same-level
        // neighbors; pass 1 walks backward constraining against later ones.
        for pass in 0..2 {
            for step in 0..vlev.len() {
                let idx = if pass == 0 {
                    step
                } else {
                    vlev.len() - 1 - step
                };
                let u = vlev[idx];
                for ni in 0..q.neighbors(u).len() {
                    let w = q.neighbors(u)[ni];
                    if s.tree.level(w) != lev {
                        continue;
                    }
                    let Some(widx) = vlev.iter().position(|&x| x == w) else {
                        continue;
                    };
                    if (pass == 0) != (widx < idx) {
                        continue;
                    }
                    neighborhood_mask(adj, &s.candidates[w as usize], q.label(u), &mut scr.mask);
                    let before = s.candidates[u as usize].len();
                    retain_in_set(&mut s.candidates[u as usize], &scr.mask);
                    ctx.rec(
                        cfl_trace::BuildCounter::SnteKills,
                        (before - s.candidates[u as usize].len()) as u64,
                    );
                    scr.mask.clear();
                }
            }
        }
    });
}

/// Phase 3: the adjacency rows of `u` along its tree edge — for each
/// parent candidate `v_p` (in candidate order), `N(v_p) ∩ C(u)`. The
/// membership bitset over `C(u)` is built once and probed per parent
/// candidate, so each row costs one bit-test per CSR neighbor; the label
/// test of the nested builder is subsumed because `C(u)` only contains
/// vertices labeled `l_q(u)`. Rows inherit the CSR slices' ascending
/// order.
fn build_rows(ctx: &FilterContext<'_>, s: &CpiBuilder, u: VertexId) -> FlatRows {
    let g = ctx.g;
    let ui = u as usize;
    let Some(p) = s.tree.parent(u) else {
        unreachable!("level ≥ 2 vertices are never the root");
    };
    let adj = &ctx.g_stats.label_adj;
    let lu = ctx.q.label(u);
    let parent_cands = &s.candidates[p as usize];
    let mut rows = FlatRows::default();
    rows.ends.reserve(parent_cands.len());
    with_scratch(g.num_vertices(), |scr| {
        scr.mask.insert_all(&s.candidates[ui]);
        for &vp in parent_cands {
            // C(u) holds only `l_q(u)`-labeled vertices, so intersecting
            // the label-restricted slice is exact and touches a fraction
            // of the CSR row.
            intersect_with_set(adj.neighbors_with_label(vp, lu), &scr.mask, &mut rows.data);
            rows.close_row();
        }
        // The mask holds exactly C(u): restore it by key, not by memset.
        scr.mask.remove_all(&s.candidates[ui]);
    });
    rows
}

/// Unions the `label`-restricted neighborhoods of `cands` into `mask` —
/// the `N(C(w))` membership structure every adjacency constraint tests
/// against. The mask only ever gates vertices carrying `label` (the
/// candidate label of the query vertex under construction), so the
/// wrong-label neighbors the full CSR slices would contribute are dead
/// weight the grouped adjacency never loads.
#[inline]
fn neighborhood_mask(
    adj: &cfl_graph::LabelAdjacency,
    cands: &[VertexId],
    label: cfl_graph::Label,
    mask: &mut FixedBitSet,
) {
    for &vp in cands {
        mask.insert_all(adj.neighbors_with_label(vp, label));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpiMode;
    use crate::cpi::Cpi;
    use crate::filters::GraphStats;
    use cfl_graph::{graph_from_edges, Graph};

    fn build_td(q: &Graph, g: &Graph, root: u32) -> Cpi {
        let qs = GraphStats::build(q);
        let gs = GraphStats::build(g);
        let ctx = FilterContext::new(q, g, &qs, &gs);
        Cpi::build(&ctx, root, CpiMode::TopDown)
    }

    /// Example 5.1 (Figure 7). Query: u0(A)–u1(B), u0–u2(C), u1–u2 (S-NTE),
    /// u1–u3(D), u2–u3 (C-NTE). Data graph of Figure 7(c), re-indexed from 0:
    /// v1..v15 → 0..14.
    fn figure7_graphs() -> (Graph, Graph) {
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        // Labels: A=0 B=1 C=2 D=3.
        // v1(0):A v2(1):A v3(2):B v4(3):C v5(4):B v6(5):C v7(6):B v8(7):C
        // v9(8):B v10(9):B v11(10):C v12(11):D v13(12):D v14(13):D v15(14):D
        // Edges chosen to realize Example 5.1's candidate sets:
        //   u0.C = {v1, v2}
        //   u1.C forward = {v3, v5, v7, v9}; v9 pruned backward (no nbr in u2.C)
        //   u2.C forward = {v4, v6, v8}; v10 fails CandVerify (no D neighbor)
        //   u3.C = {v11, v12} (=ids 11,12? no — v11 is C) … u3.C = {v12, v13}
        let g = graph_from_edges(
            &[0, 0, 1, 2, 1, 2, 1, 2, 1, 1, 2, 3, 3, 3, 3],
            &[
                // A–B edges: v1–v3, v1–v5, v1–v7, v2–v7, v2–v9
                (0, 2),
                (0, 4),
                (0, 6),
                (1, 6),
                (1, 8),
                // A–C edges: v1–v4, v1–v6, v2–v8, v2–v10(label B? no v10=9 is B)
                (0, 3),
                (0, 5),
                (1, 7),
                // B–C edges (u1–u2 S-NTE support): v3–v4, v5–v6, v7–v8
                (2, 3),
                (4, 5),
                (6, 7),
                // B–D edges (u1–u3): v3–v12, v5–v12, v7–v13
                (2, 11),
                (4, 11),
                (6, 12),
                // C–D edges (u2–u3): v4–v12, v6–v12, v8–v13
                (3, 11),
                (5, 11),
                (7, 12),
                // v10(9, label B) attached to v2 and to a C (v11=10) that has
                // no D neighbor, so v10 survives label/degree but its C
                // partner v11 never helps; v9(8) attached only to v2 with a
                // C? give v9 a C neighbor with no D: v9–v11.
                (1, 9),
                (8, 10),
                (9, 10),
            ],
        )
        .unwrap();
        (q, g)
    }

    #[test]
    fn example51_candidate_sets() {
        let (q, g) = figure7_graphs();
        let cpi = build_td(&q, &g, 0);
        assert_eq!(cpi.candidates(0), &[0, 1]); // u0.C = {v1, v2}
                                                // u1.C: forward gives B-neighbors of {v1,v2} = {v3,v5,v7,v9,v10};
                                                // NLF (CandVerify) requires a C and a D neighbor: v9(8) has C nbr
                                                // v11(10) but no D ⇒ NLF on D fails; v10(9) likewise.
        assert_eq!(cpi.candidates(1), &[2, 4, 6]);
        // u2.C: C-neighbors of u0.C ∩ C-neighbors of u1.C with D nbr.
        assert_eq!(cpi.candidates(2), &[3, 5, 7]);
        // u3.C: D vertices adjacent to a u1 candidate and a u2 candidate.
        assert_eq!(cpi.candidates(3), &[11, 12]);
    }

    #[test]
    fn rows_follow_tree_edges() {
        let (q, g) = figure7_graphs();
        let cpi = build_td(&q, &g, 0);
        // Parent of u1 is u0. Row of v1 (pos 0 in u0.C) must list u1
        // candidates adjacent to v1: v3(2), v5(4), v7(6) → positions 0,1,2.
        let row = cpi.row(1, 0);
        let verts: Vec<u32> = row.iter().map(|&p| cpi.candidates(1)[p as usize]).collect();
        assert_eq!(verts, vec![2, 4, 6]);
        // Row of v2 (pos 1): only v7(6).
        let row = cpi.row(1, 1);
        let verts: Vec<u32> = row.iter().map(|&p| cpi.candidates(1)[p as usize]).collect();
        assert_eq!(verts, vec![6]);
    }

    #[test]
    fn soundness_on_small_graph() {
        // Build a query that embeds at a known place and check every mapped
        // vertex is a candidate (Lemma 5.2).
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let g = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap();
        let cpi = build_td(&q, &g, 0);
        // Embeddings: (0,1,2) and (3,4,5).
        assert!(cpi.candidates(0).contains(&0) && cpi.candidates(0).contains(&3));
        assert!(cpi.candidates(1).contains(&1) && cpi.candidates(1).contains(&4));
        assert!(cpi.candidates(2).contains(&2) && cpi.candidates(2).contains(&5));
    }
}
