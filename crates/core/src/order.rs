//! CPI-based matching order selection (§4.2.1, Algorithm 2).
//!
//! The matching order is *path-based*: the root-to-leaf paths of the CPI's
//! BFS tree (restricted to the structure being matched) are ordered
//! greedily, then concatenated with shared prefixes removed. The first path
//! minimizes `c(π)/|NT(π)|` — embedding count discounted by non-tree-edge
//! pruning opportunities — and each next path minimizes `c(π^u)/|u.C|`
//! where `u = π.p` is the connection vertex of `π` to the sequence chosen
//! so far. `c(π)` is estimated exactly over the CPI by dynamic programming
//! in time linear in the adjacency lists along the path.
//!
//! Forest trees are ordered among themselves by their estimated CPI
//! embedding counts, ascending (§4.3), before their paths are ordered the
//! same way.

use cfl_graph::{classify_edge, core_numbers, EdgeKind, Graph, VertexId};

use crate::config::{DecompositionMode, OrderStrategy};
use crate::cpi::Cpi;
use crate::decompose::{CflDecomposition, Role};

/// One position of the matching order.
#[derive(Clone, Debug)]
pub struct OrderedVertex {
    /// The query vertex.
    pub vertex: VertexId,
    /// Its CPI (BFS tree) parent — candidates are drawn from the parent's
    /// adjacency row. `None` only for the root (position 0).
    pub parent: Option<VertexId>,
    /// Earlier-ordered query neighbors other than `parent`: the non-tree
    /// edges validated against `G` during enumeration (`ValidateNT`).
    pub checks: Vec<VertexId>,
}

/// The full matching plan: core and forest orders plus the leaf set.
#[derive(Clone, Debug)]
pub struct OrderPlan {
    /// Core then forest vertices, in matching order.
    pub vertices: Vec<OrderedVertex>,
    /// How many leading entries of `vertices` are core vertices.
    pub core_len: usize,
    /// Leaf query vertices, matched last by leaf-match (empty unless the
    /// decomposition mode is [`DecompositionMode::CoreForestLeaf`]).
    pub leaves: Vec<VertexId>,
}

impl OrderPlan {
    /// The matching order as plain query-vertex ids (core + forest + leaves).
    pub fn sequence(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .map(|ov| ov.vertex)
            .chain(self.leaves.iter().copied())
            .collect()
    }
}

/// Computes the matching order for `q` over the given CPI and
/// decomposition, using the paper's greedy path rule.
pub fn compute_order(q: &Graph, cpi: &Cpi, decomp: &CflDecomposition) -> OrderPlan {
    compute_order_with(q, cpi, decomp, OrderStrategy::Greedy)
}

/// [`compute_order`] with an explicit path-ordering strategy.
pub fn compute_order_with(
    q: &Graph,
    cpi: &Cpi,
    decomp: &CflDecomposition,
    strategy: OrderStrategy,
) -> OrderPlan {
    let n = q.num_vertices();
    let mut in_seq = vec![false; n];
    let mut seq: Vec<VertexId> = Vec::with_capacity(n);

    // Hierarchical strategy (§7 future work): rank the first core path by
    // the deepest core number it reaches.
    let coreness: Option<Vec<u32>> = match strategy {
        OrderStrategy::Greedy | OrderStrategy::Arbitrary | OrderStrategy::Adaptive => None,
        OrderStrategy::CoreHierarchy => Some(core_numbers(q)),
    };
    let arbitrary = strategy == OrderStrategy::Arbitrary;

    // --- Core order ---
    let in_core: Vec<bool> = (0..n as VertexId).map(|v| decomp.is_core(v)).collect();
    let core_paths = paths_in_subset(cpi, cpi.root(), &in_core);
    if arbitrary {
        append_paths_arbitrary(core_paths, &mut seq, &mut in_seq);
    } else {
        order_paths_with(
            q,
            cpi,
            core_paths,
            true,
            coreness.as_deref(),
            &mut seq,
            &mut in_seq,
        );
    }
    let core_len = seq.len();
    debug_assert_eq!(core_len, decomp.core.len());

    // --- Forest order: trees ascending by estimated embedding count ---
    let in_forest_part: Vec<bool> = (0..n as VertexId)
        .map(|v| decomp.roles[v as usize] == Role::Forest)
        .collect();
    let mut trees: Vec<(f64, usize)> = Vec::new();
    for (i, t) in decomp.trees.iter().enumerate() {
        // Restrict to forest-role members (leaves excluded in CFL mode).
        let mut subset = vec![false; n];
        subset[t.connection as usize] = true;
        let mut any = false;
        for &m in &t.members {
            if in_forest_part[m as usize] {
                subset[m as usize] = true;
                any = true;
            }
        }
        if !any {
            continue; // tree is all leaves
        }
        let est = tree_embedding_estimate(cpi, t.connection, &subset);
        trees.push((est, i));
    }
    trees.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, ti) in trees {
        let t = &decomp.trees[ti];
        let mut subset = vec![false; n];
        subset[t.connection as usize] = true;
        for &m in &t.members {
            if in_forest_part[m as usize] {
                subset[m as usize] = true;
            }
        }
        let paths = paths_in_subset(cpi, t.connection, &subset);
        if arbitrary {
            append_paths_arbitrary(paths, &mut seq, &mut in_seq);
        } else {
            order_paths(q, cpi, paths, false, &mut seq, &mut in_seq);
        }
        // (The hierarchy heuristic only affects the core: forest trees have
        // uniform core number 1.)
    }

    // --- Assemble ordered vertices with their validation checks ---
    let mut vertices = Vec::with_capacity(seq.len());
    let mut pos_in_seq = vec![usize::MAX; n];
    for (i, &v) in seq.iter().enumerate() {
        pos_in_seq[v as usize] = i;
    }
    for (i, &u) in seq.iter().enumerate() {
        let parent = cpi.parent(u);
        if let Some(p) = parent {
            debug_assert!(
                pos_in_seq[p as usize] < i,
                "CPI parent of u{u} must precede it in the order"
            );
        }
        let checks: Vec<VertexId> = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&w| pos_in_seq[w as usize] < i && Some(w) != parent)
            .collect();
        vertices.push(OrderedVertex {
            vertex: u,
            parent,
            checks,
        });
    }

    // Plan steps plus leaves partition V(q) — checked in full (duplicates,
    // ranges, phases) by cfl-verify's order checks.
    debug_assert_eq!(vertices.len() + decomp.leaves.len(), n);

    OrderPlan {
        vertices,
        core_len,
        leaves: decomp.leaves.clone(),
    }
}

/// Appends paths in discovery order without any ranking — the
/// [`OrderStrategy::Arbitrary`] ablation baseline.
fn append_paths_arbitrary(paths: Vec<Vec<VertexId>>, seq: &mut Vec<VertexId>, in_seq: &mut [bool]) {
    for path in paths {
        for v in path {
            if !in_seq[v as usize] {
                in_seq[v as usize] = true;
                seq.push(v);
            }
        }
    }
}

/// Root-to-leaf paths of the CPI tree restricted to `subset` (which must be
/// closed under tree parents within the structure and contain `root`).
fn paths_in_subset(cpi: &Cpi, root: VertexId, subset: &[bool]) -> Vec<Vec<VertexId>> {
    debug_assert!(subset[root as usize]);
    let mut paths = Vec::new();
    let mut stack: Vec<(VertexId, Vec<VertexId>)> = vec![(root, vec![root])];
    while let Some((v, path)) = stack.pop() {
        let kids: Vec<VertexId> = cpi
            .tree
            .children(v)
            .iter()
            .copied()
            .filter(|&c| subset[c as usize])
            .collect();
        if kids.is_empty() {
            paths.push(path);
        } else {
            for c in kids {
                let mut p = path.clone();
                p.push(c);
                stack.push((c, p));
            }
        }
    }
    paths
}

/// Per-path suffix embedding counts `c(π^{w_j})` via the DP of §4.2.1.
fn path_suffix_counts(cpi: &Cpi, path: &[VertexId]) -> Vec<f64> {
    let k = path.len();
    // counts[j][i] = embeddings of the suffix starting at path[j] when
    // path[j] maps to its i-th candidate.
    let last = path[k - 1];
    let mut counts: Vec<f64> = vec![1.0; cpi.candidates(last).len()];
    let mut suffix = vec![0.0f64; k];
    suffix[k - 1] = counts.iter().sum();
    for j in (0..k - 1).rev() {
        let u = path[j];
        let child = path[j + 1];
        let mut up: Vec<f64> = Vec::with_capacity(cpi.candidates(u).len());
        for i in 0..cpi.candidates(u).len() {
            let s: f64 = cpi.row(child, i).iter().map(|&p| counts[p as usize]).sum();
            up.push(s);
        }
        counts = up;
        suffix[j] = counts.iter().sum();
    }
    suffix
}

/// Number of non-tree edges (w.r.t. the CPI's BFS tree) incident to at
/// least one vertex of `path` — `|NT(π)|` of Algorithm 2.
fn non_tree_edges_of_path(q: &Graph, cpi: &Cpi, path: &[VertexId]) -> usize {
    let mut on_path = vec![false; q.num_vertices()];
    for &v in path {
        on_path[v as usize] = true;
    }
    let mut count = 0;
    for &u in path {
        for &w in q.neighbors(u) {
            if classify_edge(&cpi.tree, u, w) != EdgeKind::Tree {
                // Count each edge once: internal edges when u < w, external
                // edges from the path endpoint only.
                if !on_path[w as usize] || u < w {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Algorithm 2: greedily orders `paths` and appends their unseen suffixes
/// to `seq`. `use_nt_discount` applies the first-path `c(π)/|NT(π)|`
/// discount (core matching); forest paths have no non-tree edges.
fn order_paths(
    q: &Graph,
    cpi: &Cpi,
    paths: Vec<Vec<VertexId>>,
    use_nt_discount: bool,
    seq: &mut Vec<VertexId>,
    in_seq: &mut [bool],
) {
    order_paths_with(q, cpi, paths, use_nt_discount, None, seq, in_seq);
}

fn order_paths_with(
    q: &Graph,
    cpi: &Cpi,
    paths: Vec<Vec<VertexId>>,
    use_nt_discount: bool,
    coreness: Option<&[u32]>,
    seq: &mut Vec<VertexId>,
    in_seq: &mut [bool],
) {
    if paths.is_empty() {
        return;
    }
    let suffix_counts: Vec<Vec<f64>> = paths.iter().map(|p| path_suffix_counts(cpi, p)).collect();
    let mut remaining: Vec<usize> = (0..paths.len()).collect();

    // First path (only when the sequence is empty; otherwise every path
    // already connects to the sequence).
    if seq.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(ri, &pi)| {
                let c = suffix_counts[pi][0];
                let nt = if use_nt_discount {
                    non_tree_edges_of_path(q, cpi, &paths[pi]).max(1) as f64
                } else {
                    1.0
                };
                // Hierarchical tiebreak: deeper-core paths first. Depth is
                // negated so the min-selection prefers larger core numbers.
                let depth = coreness.map_or(0, |cn| {
                    paths[pi].iter().map(|&v| cn[v as usize]).max().unwrap_or(0)
                }) as f64;
                (ri, (-depth, c / nt))
            })
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.total_cmp(&b.1 .1)))
            .unwrap_or_else(|| unreachable!("paths is non-empty"));
        let pi = remaining.swap_remove(best_idx);
        for &v in &paths[pi] {
            if !in_seq[v as usize] {
                in_seq[v as usize] = true;
                seq.push(v);
            }
        }
    }

    while !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None;
        for (ri, &pi) in remaining.iter().enumerate() {
            let path = &paths[pi];
            // Connection vertex: last path vertex already in the sequence
            // (paths share a prefix with it). Position j.
            let Some(j) = path.iter().rposition(|&v| in_seq[v as usize]) else {
                unreachable!("paths share at least the subtree root with seq");
            };
            if j == path.len() - 1 {
                // Entire path already placed (can happen when paths overlap).
                if best.as_ref().is_none_or(|&(_, s)| 0.0 < s) {
                    best = Some((ri, 0.0));
                }
                continue;
            }
            let u = path[j];
            let score = suffix_counts[pi][j] / (cpi.candidates(u).len().max(1)) as f64;
            if best.as_ref().is_none_or(|&(_, s)| score < s) {
                best = Some((ri, score));
            }
        }
        let Some((ri, _)) = best else {
            unreachable!("remaining is non-empty");
        };
        let pi = remaining.swap_remove(ri);
        for &v in &paths[pi] {
            if !in_seq[v as usize] {
                in_seq[v as usize] = true;
                seq.push(v);
            }
        }
    }
}

/// Estimated number of CPI embeddings of the subtree rooted at `root`
/// restricted to `subset` (product-form DP over children; §4.3).
pub fn tree_embedding_estimate(cpi: &Cpi, root: VertexId, subset: &[bool]) -> f64 {
    fn rec(cpi: &Cpi, u: VertexId, subset: &[bool]) -> Vec<f64> {
        let kids: Vec<VertexId> = cpi
            .tree
            .children(u)
            .iter()
            .copied()
            .filter(|&c| subset[c as usize])
            .collect();
        let m = cpi.candidates(u).len();
        let mut counts = vec![1.0f64; m];
        for c in kids {
            let child_counts = rec(cpi, c, subset);
            for (i, cnt) in counts.iter_mut().enumerate() {
                let s: f64 = cpi
                    .row(c, i)
                    .iter()
                    .map(|&p| child_counts[p as usize])
                    .sum();
                *cnt *= s;
            }
        }
        counts
    }
    rec(cpi, root, subset).iter().sum()
}

/// Computes an order for an arbitrary decomposition mode: convenience
/// wrapper used by the engine.
pub fn plan_for_mode(
    q: &Graph,
    cpi: &Cpi,
    decomp: &CflDecomposition,
    _mode: DecompositionMode,
) -> OrderPlan {
    compute_order(q, cpi, decomp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpiMode, DecompositionMode};
    use crate::filters::{FilterContext, GraphStats};
    use cfl_graph::graph_from_edges;

    fn setup(
        q_labels: &[u32],
        q_edges: &[(u32, u32)],
        g_labels: &[u32],
        g_edges: &[(u32, u32)],
        root: u32,
        mode: DecompositionMode,
    ) -> (Graph, Cpi, CflDecomposition) {
        let q = graph_from_edges(q_labels, q_edges).unwrap();
        let g = graph_from_edges(g_labels, g_edges).unwrap();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        let cpi = Cpi::build(&ctx, root, CpiMode::TopDownRefined);
        let decomp = CflDecomposition::compute(&q, root, mode);
        (q, cpi, decomp)
    }

    #[test]
    fn order_is_connected_and_complete() {
        // Figure 1(a)-style query.
        let (q, cpi, decomp) = setup(
            &[0, 1, 2, 3, 4, 5],
            &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 4)],
            &[0, 1, 2, 3, 4, 5, 4],
            &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 4), (0, 6)],
            0,
            DecompositionMode::CoreForestLeaf,
        );
        let plan = compute_order(&q, &cpi, &decomp);
        let seq = plan.sequence();
        assert_eq!(seq.len(), q.num_vertices());
        let mut seen = std::collections::HashSet::new();
        for ov in &plan.vertices {
            if let Some(p) = ov.parent {
                assert!(seen.contains(&p), "parent of {} not yet matched", ov.vertex);
            }
            for &c in &ov.checks {
                assert!(seen.contains(&c));
            }
            seen.insert(ov.vertex);
        }
        // Core = {0, 1, 4} must come first.
        let core_set: Vec<_> = seq[..plan.core_len].to_vec();
        let mut sorted = core_set.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 4]);
        // Leaves {3, 5} last.
        let mut leaves = plan.leaves.clone();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![3, 5]);
    }

    #[test]
    fn nt_checks_present_for_core_cycle() {
        // 4-cycle: whichever order, the last core vertex has a non-tree check.
        let (q, cpi, decomp) = setup(
            &[0, 1, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            &[0, 1, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            0,
            DecompositionMode::CoreForestLeaf,
        );
        let plan = compute_order(&q, &cpi, &decomp);
        let total_checks: usize = plan.vertices.iter().map(|ov| ov.checks.len()).sum();
        assert_eq!(total_checks, 1, "exactly one non-tree edge in a 4-cycle");
    }

    #[test]
    fn match_mode_orders_everything_as_core() {
        let (q, cpi, decomp) = setup(
            &[0, 1, 2, 3],
            &[(0, 1), (1, 2), (1, 3)],
            &[0, 1, 2, 3],
            &[(0, 1), (1, 2), (1, 3)],
            0,
            DecompositionMode::None,
        );
        let plan = compute_order(&q, &cpi, &decomp);
        assert_eq!(plan.core_len, 4);
        assert!(plan.leaves.is_empty());
    }

    #[test]
    fn tree_estimate_counts_simple_star() {
        // Query star: center 0 (label 0), spokes 1, 2 (label 1): matched on
        // data star with 3 spokes → CPI tree embeddings = 3 * 3 = 9
        // (tree DP does not enforce injectivity).
        let (_, cpi, _) = setup(
            &[0, 1, 1],
            &[(0, 1), (0, 2)],
            &[0, 1, 1, 1],
            &[(0, 1), (0, 2), (0, 3)],
            0,
            DecompositionMode::CoreForestLeaf,
        );
        let subset = vec![true, true, true];
        let est = tree_embedding_estimate(&cpi, 0, &subset);
        assert!((est - 9.0).abs() < 1e-9, "estimate {est}");
    }

    #[test]
    fn greedy_prefers_selective_path_first() {
        // Challenge-1 shape: root 0 with a highly selective branch (few
        // candidates) and an unselective branch (many candidates).
        // Query: 0(A) - 1(B) - 2(C), and 0 - 3(D); no cycles → tree query,
        // with root forced at 0 the core = {0}. Use DecompositionMode::None
        // to exercise path ordering over the whole tree.
        let mut g_labels = vec![0u32, 1, 2, 3];
        let mut g_edges = vec![(0u32, 1u32), (1, 2), (0, 3)];
        // 50 extra D-labeled vertices on 0 → D path has many embeddings.
        for i in 0..50u32 {
            g_labels.push(3);
            g_edges.push((0, 4 + i));
        }
        let (q, cpi, decomp) = setup(
            &[0, 1, 2, 3],
            &[(0, 1), (1, 2), (0, 3)],
            &g_labels,
            &g_edges,
            0,
            DecompositionMode::None,
        );
        let plan = compute_order(&q, &cpi, &decomp);
        let seq = plan.sequence();
        // The selective B-C path should be ordered before the D leaf.
        let pos = |v: u32| seq.iter().position(|&x| x == v).unwrap();
        assert!(pos(1) < pos(3), "seq = {seq:?}");
        assert!(pos(2) < pos(3), "seq = {seq:?}");
    }
}
