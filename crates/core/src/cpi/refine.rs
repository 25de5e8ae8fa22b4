//! Bottom-up CPI refinement — Algorithm 4, level by level.
//!
//! The top-down pass only exploits ancestors, so a candidate may lack any
//! neighbor among the candidates of its children (downward tree edges and
//! downward C-NTEs, Table 2). This pass walks the BFS tree bottom-up and
//! prunes such candidates; adjacency-list pruning (lines 8–11) is realized
//! by [`CpiBuilder::prune_unreachable`](super::CpiBuilder::prune_unreachable)
//! plus [`CpiBuilder::freeze`](super::CpiBuilder::freeze), which drops every
//! entry touching a dead candidate.
//!
//! A vertex's pruning decision reads only its own alive flags and those of
//! strictly *deeper* vertices, finalized by earlier level iterations, so
//! kills are applied the moment they are found. Vertices that lose
//! candidates are recorded in the builder's dirty set, which is what lets
//! `prune_unreachable` skip untouched subtrees afterwards.

use cfl_graph::VertexId;

use super::scratch::with_scratch;
use super::CpiBuilder;
use crate::filters::FilterContext;

/// Runs Algorithm 4 over a top-down builder, flipping alive flags. Returns
/// the number of candidates killed (the refinement-effectiveness counter
/// the trace layer reports; computing it is one integer add per kill, so
/// it is returned unconditionally rather than feature-gated).
pub(crate) fn bottom_up(ctx: &FilterContext<'_>, s: &mut CpiBuilder) -> u64 {
    // The alive bitmaps must stay parallel to the candidate arrays — the
    // flips below index both by the same position.
    debug_assert!(s
        .alive
        .iter()
        .zip(&s.candidates)
        .all(|(a, c)| a.len() == c.len()));

    let mut killed: u64 = 0;
    for lev in (1..=s.tree.num_levels()).rev() {
        let vlev: Vec<VertexId> = s.tree.level_vertices(lev).to_vec();
        for &u in &vlev {
            let dead = kill_unsupported(ctx, s, u);
            if dead > 0 {
                killed += dead;
                // Candidates died after u's rows and children were built:
                // orphans may now exist below u (see `prune_unreachable`).
                s.dirty.insert(u);
            }
        }
    }
    killed
}

/// Kills every alive candidate of `u` that lacks a neighbor among the
/// alive candidates of some lower-level query neighbor (tree child or
/// downward C-NTE) and returns how many died. The label/degree gate of
/// Lemma 5.1's counter pass is already implied — every candidate of `u`
/// passed it during generation.
fn kill_unsupported(ctx: &FilterContext<'_>, s: &mut CpiBuilder, u: VertexId) -> u64 {
    let q = ctx.q;
    let g = ctx.g;
    let lev = s.tree.level(u);
    let lower: Vec<VertexId> = q
        .neighbors(u)
        .iter()
        .copied()
        .filter(|&w| s.tree.level(w) > lev)
        .collect();
    if lower.is_empty() {
        return 0;
    }

    let ui = u as usize;
    let adj = &ctx.g_stats.label_adj;
    let lu = q.label(u);
    let mut dead: u64 = 0;
    with_scratch(g.num_vertices(), |scr| {
        let mut live = std::mem::take(&mut scr.list);
        live.extend((0..s.candidates[ui].len() as u32).filter(|&i| s.alive[ui][i as usize]));
        for &w in &lower {
            if live.is_empty() {
                // Everything already condemned; further constraints can
                // only agree.
                break;
            }
            // The mask gates candidates of `u` — all labeled `l_q(u)` —
            // so only the label-matching neighbor groups matter.
            for vw in s.alive_candidates(w) {
                scr.mask.insert_all(adj.neighbors_with_label(vw, lu));
            }
            let (cands, alive) = (&s.candidates[ui], &mut s.alive[ui]);
            live.retain(|&i| {
                let keep = scr.mask.contains(cands[i as usize]);
                if !keep {
                    alive[i as usize] = false;
                    dead += 1;
                }
                keep
            });
            scr.mask.clear();
        }
        live.clear();
        scr.list = live;
    });
    dead
}

#[cfg(test)]
mod tests {
    use crate::config::CpiMode;
    use crate::cpi::Cpi;
    use crate::filters::{FilterContext, GraphStats};
    use cfl_graph::{graph_from_edges, Graph};

    fn build(q: &Graph, g: &Graph, root: u32, mode: CpiMode) -> Cpi {
        let qs = GraphStats::build(q);
        let gs = GraphStats::build(g);
        let ctx = FilterContext::new(q, g, &qs, &gs);
        Cpi::build(&ctx, root, mode)
    }

    #[test]
    fn refinement_prunes_candidates_without_child_support() {
        // Query path: u0(A) – u1(B) – u2(C) – u3(D). The failure must sit
        // two hops below the candidate, because the 1-hop NLF filter of the
        // top-down pass already removes direct neighborhood mismatches.
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Data: A(0)–B(1)–C(2)–D(3) chain plus B(4)–C(5) hanging off A(0),
        // where C(5) has no D neighbor. B(4) passes every local filter (it
        // has A and C neighbors, degree 2, MND 2) so top-down keeps it;
        // bottom-up prunes it because its only C neighbor is not in u2.C.
        let g = graph_from_edges(
            &[0, 1, 2, 3, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)],
        )
        .unwrap();
        let td = build(&q, &g, 0, CpiMode::TopDown);
        assert_eq!(td.candidates(1), &[1, 4], "top-down keeps the impostor B");
        let refined = build(&q, &g, 0, CpiMode::TopDownRefined);
        assert_eq!(refined.candidates(1), &[1]);
        assert_eq!(refined.candidates(0), &[0]);
        assert_eq!(refined.candidates(2), &[2]);
        assert_eq!(refined.candidates(3), &[3]);
    }

    #[test]
    fn refinement_prunes_dangling_adjacency_entries() {
        // Same shape, but A(0) also neighbors the doomed B(4): the row of
        // A(0) initially lists both B(1) and B(4); after refinement it must
        // list only B(1).
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let g = graph_from_edges(&[0, 1, 2, 1], &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let refined = build(&q, &g, 0, CpiMode::TopDownRefined);
        assert_eq!(refined.candidates(0), &[0]);
        assert_eq!(refined.candidates(1), &[1]);
        let row = refined.row(1, 0);
        let verts: Vec<u32> = row
            .iter()
            .map(|&p| refined.candidates(1)[p as usize])
            .collect();
        assert_eq!(verts, vec![1]);
    }

    #[test]
    fn refinement_preserves_soundness() {
        // Two disjoint triangles in G, both must survive refinement.
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let g = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        )
        .unwrap();
        let cpi = build(&q, &g, 0, CpiMode::TopDownRefined);
        assert_eq!(cpi.candidates(0), &[0, 3]);
        assert_eq!(cpi.candidates(1), &[1, 4]);
        assert_eq!(cpi.candidates(2), &[2, 5]);
    }

    #[test]
    fn downward_cntes_prune() {
        // Query: u0(A) with children u1(B), and u1 child u2(C); plus C-NTE
        // u0–u2. Data has an A–B–C path where A lacks the direct A–C edge:
        // top-down already handles upward C-NTE for u2 (u0 visited), so make
        // the failure on the *downward* side: A(3)'s chain B(4)-C(5) exists
        // but A(3)–C(5) edge missing → u2 candidate C(5) pruned top-down
        // (C-NTE up), then B(4) pruned bottom-up, then A(3).
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)],
        )
        .unwrap();
        let cpi = build(&q, &g, 0, CpiMode::TopDownRefined);
        assert_eq!(cpi.candidates(0), &[0]);
        assert_eq!(cpi.candidates(1), &[1]);
        assert_eq!(cpi.candidates(2), &[2]);
    }
}
