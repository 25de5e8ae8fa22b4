//! Pluggable enumeration strategies.
//!
//! The enumerator (`super::enumerate::Enumerator`) is generic over two
//! traits so the search loop is monomorphized per strategy combination —
//! the default pair ([`StaticOrder`], [`PlainBacktrack`]) compiles to the
//! paper's Algorithm 5 exactly (every hook is an inlined no-op), while the
//! opt-in pair adds DAF-style behavior (Han et al., SIGMOD 2019; arXiv
//! 1905.11561) on top of the frozen CPI arenas:
//!
//! - [`AdaptiveOrder`] re-picks, at every depth, the *extendable* query
//!   vertex (unmatched, CPI-tree parent mapped) whose candidate row for
//!   the current prefix is smallest. The CPI tree-parent discipline is
//!   preserved — only the interleaving of branches changes — so candidates
//!   still come from `cpi.row(u, pos[parent])` and no data-graph scan is
//!   ever needed.
//! - [`FailingSet`] tracks, per search-tree node, the set of query
//!   vertices responsible for the subtree's failure. When a child subtree
//!   fails with a set that does not contain the current vertex, the
//!   failure is independent of the current vertex's mapping: the remaining
//!   sibling candidates provably reproduce it and are skipped (a
//!   *backjump*).
//!
//! Every strategy combination enumerates the identical embedding set —
//! enforced by differential tests (`tests/strategies.rs`), the
//! `strategy-identity` fuzz target, and the CI checksum matrix.

use cfl_graph::{FixedBitSet, Graph, VertexId};

use super::enumerate::UNMAPPED;
use crate::cpi::Cpi;
use crate::order::{OrderPlan, OrderedVertex};

/// Selects which query vertex the search extends at each depth.
///
/// Implementations must respect the CPI tree-parent discipline: the vertex
/// selected at a depth must have its CPI parent already mapped (the root,
/// plan slot 0, is always selected at depth 0). Under that constraint any
/// selection rule yields the same embedding set.
pub trait OrderingStrategy {
    /// Whether selection depends on the runtime prefix. When `false`, the
    /// enumerator skips the is-it-mapped test on validation endpoints
    /// (static constraint lists only name earlier-ordered vertices).
    const DYNAMIC: bool;

    /// Builds the strategy for one enumeration run.
    fn new(q: &Graph, cpi: &Cpi, plan: &OrderPlan) -> Self;

    /// The plan slot (index into `plan.vertices`) to extend at `depth`,
    /// given the current partial embedding. Must return `0` at depth 0.
    fn select(
        &self,
        depth: usize,
        cpi: &Cpi,
        plan: &OrderPlan,
        mapping: &[VertexId],
        pos: &[u32],
    ) -> usize;

    /// Query vertices whose mapped data-neighborhood bitset must be
    /// maintained for `ValidateNT` probes.
    fn check_sources(&self, q: &Graph, plan: &OrderPlan) -> Vec<bool>;

    /// The non-tree endpoints to validate when mapping `ov.vertex`. With a
    /// dynamic order the list may contain not-yet-mapped vertices; the
    /// enumerator skips those (the edge is validated when they are mapped,
    /// from the other side).
    fn constraints<'t>(&'t self, ov: &'t OrderedVertex) -> &'t [VertexId];
}

/// The default ordering: follow the static path-based plan (§4.2.1).
pub struct StaticOrder;

impl OrderingStrategy for StaticOrder {
    const DYNAMIC: bool = false;

    #[inline]
    fn new(_q: &Graph, _cpi: &Cpi, _plan: &OrderPlan) -> Self {
        StaticOrder
    }

    #[inline(always)]
    fn select(
        &self,
        depth: usize,
        _cpi: &Cpi,
        _plan: &OrderPlan,
        _mapping: &[VertexId],
        _pos: &[u32],
    ) -> usize {
        depth
    }

    fn check_sources(&self, q: &Graph, plan: &OrderPlan) -> Vec<bool> {
        let mut sources = vec![false; q.num_vertices()];
        for ov in &plan.vertices {
            for &w in &ov.checks {
                sources[w as usize] = true;
            }
        }
        sources
    }

    #[inline(always)]
    fn constraints<'t>(&'t self, ov: &'t OrderedVertex) -> &'t [VertexId] {
        &ov.checks
    }
}

/// Adaptive (extendable-vertex, min-candidate-row) ordering.
pub struct AdaptiveOrder {
    /// `nt_neighbors[u]`: plan-resident query neighbors of `u` joined by a
    /// non-tree edge (neither endpoint is the other's CPI parent). Static
    /// over the run; the mapped subset varies per prefix.
    nt_neighbors: Vec<Vec<VertexId>>,
}

impl OrderingStrategy for AdaptiveOrder {
    const DYNAMIC: bool = true;

    fn new(q: &Graph, cpi: &Cpi, plan: &OrderPlan) -> Self {
        let mut in_plan = vec![false; q.num_vertices()];
        for ov in &plan.vertices {
            in_plan[ov.vertex as usize] = true;
        }
        let nt_neighbors = (0..q.num_vertices() as VertexId)
            .map(|u| {
                if !in_plan[u as usize] {
                    return Vec::new();
                }
                q.neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&w| {
                        in_plan[w as usize] && cpi.parent(u) != Some(w) && cpi.parent(w) != Some(u)
                    })
                    .collect()
            })
            .collect();
        AdaptiveOrder { nt_neighbors }
    }

    fn select(
        &self,
        depth: usize,
        cpi: &Cpi,
        plan: &OrderPlan,
        mapping: &[VertexId],
        pos: &[u32],
    ) -> usize {
        if depth == 0 {
            return 0;
        }
        let mut best: Option<(usize, usize)> = None; // (row_len, slot)
        for (slot, ov) in plan.vertices.iter().enumerate() {
            let u = ov.vertex;
            if mapping[u as usize] != UNMAPPED {
                continue;
            }
            let Some(p) = cpi.parent(u) else {
                continue; // the root, mapped at depth 0
            };
            if mapping[p as usize] == UNMAPPED {
                continue; // not extendable yet
            }
            let row_len = cpi.row(u, pos[p as usize] as usize).len();
            if best.is_none_or(|(len, _)| row_len < len) {
                best = Some((row_len, slot));
            }
        }
        let Some((_, slot)) = best else {
            unreachable!("a mapped, connected prefix always has an extendable vertex");
        };
        slot
    }

    fn check_sources(&self, q: &Graph, _plan: &OrderPlan) -> Vec<bool> {
        // The non-tree relation is symmetric, so exactly the vertices with
        // a non-empty list can be probed after they are mapped.
        (0..q.num_vertices())
            .map(|u| !self.nt_neighbors[u].is_empty())
            .collect()
    }

    #[inline]
    fn constraints<'t>(&'t self, ov: &'t OrderedVertex) -> &'t [VertexId] {
        &self.nt_neighbors[ov.vertex as usize]
    }
}

/// Decides which sibling candidates can be skipped when a subtree fails.
///
/// Hooks are invoked by the enumerator at fixed points of the search;
/// [`PlainBacktrack`] makes every one an empty inline so the default build
/// keeps Algorithm 5's exact instruction stream.
pub trait PruningStrategy {
    /// Builds the strategy for one enumeration run.
    fn new(q: &Graph, g: &Graph, plan: &OrderPlan) -> Self;

    /// Entering the search node that extends `u` at `depth`: `parent` is
    /// `u`'s CPI parent and `constraints` its non-tree endpoints (only the
    /// mapped ones constrain `u`'s candidates).
    fn enter(
        &mut self,
        depth: usize,
        u: VertexId,
        parent: Option<VertexId>,
        constraints: &[VertexId],
        mapping: &[VertexId],
    );

    /// Candidate `v` for `u` was rejected because `v` is already used by
    /// the partial embedding.
    fn on_conflict(&mut self, depth: usize, u: VertexId, v: VertexId);

    /// Candidate for `u` was rejected by the `ValidateNT` probe against
    /// the mapped vertex `w`.
    fn on_check_fail(&mut self, depth: usize, u: VertexId, w: VertexId);

    /// `u` was mapped to data vertex `v` (before recursing).
    fn on_mapped(&mut self, u: VertexId, v: VertexId);

    /// All plan vertices are mapped (the leaf phase / emission runs under
    /// this node, at `depth == plan.vertices.len()`).
    fn on_complete(&mut self, depth: usize);

    /// A child subtree (rooted at one candidate of `u`) returned.
    /// `matched` is whether it emitted at least one embedding. Returns
    /// `true` when the remaining sibling candidates of `u` are provably
    /// futile and must be skipped.
    fn after_child(&mut self, depth: usize, u: VertexId, matched: bool) -> bool;

    /// Leaving the node for `u` at `depth` (all candidates tried or
    /// skipped).
    fn exit(&mut self, depth: usize, u: VertexId);

    /// Number of sibling-skipping backjumps taken so far.
    fn backjumps(&self) -> u64;
}

/// The default pruning: plain chronological backtracking.
pub struct PlainBacktrack;

impl PruningStrategy for PlainBacktrack {
    #[inline]
    fn new(_q: &Graph, _g: &Graph, _plan: &OrderPlan) -> Self {
        PlainBacktrack
    }

    #[inline(always)]
    fn enter(
        &mut self,
        _: usize,
        _: VertexId,
        _: Option<VertexId>,
        _: &[VertexId],
        _: &[VertexId],
    ) {
    }

    #[inline(always)]
    fn on_conflict(&mut self, _: usize, _: VertexId, _: VertexId) {}

    #[inline(always)]
    fn on_check_fail(&mut self, _: usize, _: VertexId, _: VertexId) {}

    #[inline(always)]
    fn on_mapped(&mut self, _: VertexId, _: VertexId) {}

    #[inline(always)]
    fn on_complete(&mut self, _: usize) {}

    #[inline(always)]
    fn after_child(&mut self, _: usize, _: VertexId, _: bool) -> bool {
        false
    }

    #[inline(always)]
    fn exit(&mut self, _: usize, _: VertexId) {}

    #[inline(always)]
    fn backjumps(&self) -> u64 {
        0
    }
}

/// DAF-style failing-set backtracking.
///
/// For the node extending `u` at some depth, the failing set `F` is built
/// from three contribution classes over `u`'s candidates:
///
/// - **conflict**: candidate `v` is owned by mapped `w` →
///   `anc(u) ∪ anc(w) ∪ {u, w}`;
/// - **edge failure**: candidate fails `ValidateNT` against `w` → the same
///   union;
/// - **child failure**: the recursed subtree returns its own failing set
///   `F_c`. If `F_c` does not contain `u`, the failure was independent of
///   `u`'s mapping — remaining siblings are skipped and `F_c` replaces the
///   accumulation (unless an earlier sibling matched, which pins `F` to
///   `V(q)`); otherwise `F ∪= F_c`.
///
/// An exhausted node with an empty `F` (empty candidate row) takes the
/// emptyset class `anc(u) ∪ {u}`. A node whose subtree reaches the leaf
/// phase is conservatively assigned `F = V(q)` (leaf feasibility depends
/// on every mapped vertex through the shared visited set), which contains
/// every vertex and therefore never prunes — soundness over aggression.
///
/// `anc(u)` — the query vertices whose mappings determine `u`'s candidate
/// set — is computed on entry from the CPI parent and the *mapped*
/// constraint endpoints, so it is correct for both static and adaptive
/// orders. All state is per-worker; nothing is shared.
pub struct FailingSet {
    /// `anc[u]`: ancestor set of `u`, valid while `u`'s node is open.
    anc: Vec<FixedBitSet>,
    /// `fs[d]`: failing set accumulated for the node open at depth `d`.
    fs: Vec<FixedBitSet>,
    /// Whether the node open at depth `d` has a matched child subtree
    /// (pins `fs[d]` to the full set).
    matched_at: Vec<bool>,
    /// `owner[v]`: the query vertex currently mapped to data vertex `v`
    /// (valid only while `v` is in the visited set).
    owner: Vec<VertexId>,
    backjumps: u64,
}

impl FailingSet {
    /// `fs[depth] ∪= anc(u) ∪ anc(w) ∪ {u, w}` — the conflict and
    /// edge-failure classes share this shape.
    #[inline]
    fn add_pair_class(&mut self, depth: usize, u: VertexId, w: VertexId) {
        let fs = &mut self.fs[depth];
        fs.union_with(&self.anc[u as usize]);
        fs.union_with(&self.anc[w as usize]);
        fs.insert(u);
        fs.insert(w);
    }
}

impl PruningStrategy for FailingSet {
    fn new(q: &Graph, g: &Graph, plan: &OrderPlan) -> Self {
        let nq = q.num_vertices();
        FailingSet {
            anc: (0..nq).map(|_| FixedBitSet::new(nq)).collect(),
            fs: (0..=plan.vertices.len())
                .map(|_| FixedBitSet::new(nq))
                .collect(),
            matched_at: vec![false; plan.vertices.len() + 1],
            owner: vec![UNMAPPED; g.num_vertices()],
            backjumps: 0,
        }
    }

    fn enter(
        &mut self,
        depth: usize,
        u: VertexId,
        parent: Option<VertexId>,
        constraints: &[VertexId],
        mapping: &[VertexId],
    ) {
        self.fs[depth].clear();
        self.matched_at[depth] = false;
        // anc(u) = anc(p) ∪ {p} ∪ ⋃_{mapped w} (anc(w) ∪ {w}).
        let (head, tail) = self.anc.split_at_mut(u as usize);
        let (anc_u, tail) = tail.split_first_mut().unwrap_or_else(|| unreachable!());
        let other = |w: VertexId| -> &FixedBitSet {
            if (w as usize) < head.len() {
                &head[w as usize]
            } else {
                &tail[w as usize - head.len() - 1]
            }
        };
        anc_u.clear();
        if let Some(p) = parent {
            debug_assert_ne!(p, u);
            anc_u.union_with(other(p));
            anc_u.insert(p);
        }
        for &w in constraints {
            if mapping[w as usize] == UNMAPPED {
                continue;
            }
            debug_assert_ne!(w, u);
            anc_u.union_with(other(w));
            anc_u.insert(w);
        }
    }

    #[inline]
    fn on_conflict(&mut self, depth: usize, u: VertexId, v: VertexId) {
        let w = self.owner[v as usize];
        debug_assert_ne!(w, UNMAPPED, "conflicting data vertex must have an owner");
        self.add_pair_class(depth, u, w);
    }

    #[inline]
    fn on_check_fail(&mut self, depth: usize, u: VertexId, w: VertexId) {
        self.add_pair_class(depth, u, w);
    }

    #[inline]
    fn on_mapped(&mut self, u: VertexId, v: VertexId) {
        self.owner[v as usize] = u;
    }

    #[inline]
    fn on_complete(&mut self, depth: usize) {
        self.fs[depth].fill_all();
    }

    fn after_child(&mut self, depth: usize, u: VertexId, matched: bool) -> bool {
        if matched {
            self.matched_at[depth] = true;
            self.fs[depth].fill_all();
        }
        let (below, above) = self.fs.split_at_mut(depth + 1);
        let (node, child) = (&mut below[depth], &above[0]);
        if !child.contains(u) {
            // The child's failure is independent of u's mapping: siblings
            // reproduce it. Skip them, and propagate the child's set alone
            // — unless this node already holds an embedding, in which case
            // its set stays pinned at V(q).
            if !self.matched_at[depth] {
                node.assign_from(child);
            }
            self.backjumps += 1;
            return true;
        }
        if !self.matched_at[depth] {
            node.union_with(child);
        }
        false
    }

    fn exit(&mut self, depth: usize, u: VertexId) {
        if self.fs[depth].is_empty() {
            // No candidate contributed a class: the candidate row itself
            // was empty — the emptyset class.
            self.fs[depth].assign_from(&self.anc[u as usize]);
            self.fs[depth].insert(u);
        }
    }

    #[inline]
    fn backjumps(&self) -> u64 {
        self.backjumps
    }
}

/// Monomorphizes `$body` for the strategy combination selected by a
/// [`crate::config::OrderStrategy`] and a [`crate::config::PruningKind`],
/// binding `$o`/`$p` as type aliases for the chosen
/// [`OrderingStrategy`]/[`PruningStrategy`] implementations. Every order
/// but `Adaptive` follows its static plan. Generic closures do not exist,
/// so the four-way match is spelled once here and reused by every
/// enumeration entry point.
macro_rules! dispatch_strategies {
    ($order:expr, $pruning:expr, $o:ident, $p:ident, $body:block) => {{
        use $crate::config::{OrderStrategy, PruningKind};
        use $crate::exec::strategy::{AdaptiveOrder, FailingSet, PlainBacktrack, StaticOrder};
        match ($order, $pruning) {
            (OrderStrategy::Adaptive, PruningKind::Plain) => {
                type $o = AdaptiveOrder;
                type $p = PlainBacktrack;
                $body
            }
            (OrderStrategy::Adaptive, PruningKind::FailingSet) => {
                type $o = AdaptiveOrder;
                type $p = FailingSet;
                $body
            }
            (_, PruningKind::Plain) => {
                type $o = StaticOrder;
                type $p = PlainBacktrack;
                $body
            }
            (_, PruningKind::FailingSet) => {
                type $o = StaticOrder;
                type $p = FailingSet;
                $body
            }
        }
    }};
}
pub(crate) use dispatch_strategies;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpiMode, DecompositionMode};
    use crate::decompose::CflDecomposition;
    use crate::filters::{FilterContext, GraphStats};
    use crate::order::compute_order;
    use cfl_graph::graph_from_edges;

    fn prepared_square() -> (Graph, Graph, Cpi, OrderPlan) {
        // 4-cycle query on a 4-cycle data graph: one non-tree edge.
        let q = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let g = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        let cpi = Cpi::build(&ctx, 0, CpiMode::TopDownRefined);
        let decomp = CflDecomposition::compute(&q, 0, DecompositionMode::CoreForestLeaf);
        let plan = compute_order(&q, &cpi, &decomp);
        (q, g, cpi, plan)
    }

    #[test]
    fn static_order_is_identity_and_adaptive_covers_nt_edges() {
        let (q, _g, cpi, plan) = prepared_square();
        let s = StaticOrder::new(&q, &cpi, &plan);
        for d in 0..plan.vertices.len() {
            assert_eq!(s.select(d, &cpi, &plan, &[], &[]), d);
        }
        let a = AdaptiveOrder::new(&q, &cpi, &plan);
        // Exactly one non-tree edge in a 4-cycle ⇒ exactly two vertices
        // carry it in their symmetric lists.
        let total: usize = (0..q.num_vertices()).map(|u| a.nt_neighbors[u].len()).sum();
        assert_eq!(total, 2);
        let static_checks: usize = plan.vertices.iter().map(|ov| ov.checks.len()).sum();
        assert_eq!(static_checks, 1);
    }

    #[test]
    fn adaptive_select_respects_parent_discipline() {
        let (q, _g, cpi, plan) = prepared_square();
        let a = AdaptiveOrder::new(&q, &cpi, &plan);
        let mut mapping = vec![UNMAPPED; q.num_vertices()];
        let pos = vec![0u32; q.num_vertices()];
        assert_eq!(a.select(0, &cpi, &plan, &mapping, &pos), 0);
        let root = plan.vertices[0].vertex;
        mapping[root as usize] = 0;
        let slot = a.select(1, &cpi, &plan, &mapping, &pos);
        let u = plan.vertices[slot].vertex;
        assert_ne!(u, root);
        let p = cpi.parent(u).unwrap_or_else(|| unreachable!());
        assert_ne!(mapping[p as usize], UNMAPPED, "parent must be mapped");
    }

    #[test]
    fn failing_set_backjumps_when_child_excludes_u() {
        let (q, g, _cpi, plan) = prepared_square();
        let nq = q.num_vertices();
        let mut fs = FailingSet::new(&q, &g, &plan);
        let mapping = vec![0; nq]; // every vertex "mapped" for enter()
                                   // Open nodes: depth 0 extends u=0, depth 1 extends u=1 (parent 0).
        fs.enter(0, 0, None, &[], &mapping);
        fs.enter(1, 1, Some(0), &[], &mapping);
        // Child at depth 2 failed with {0, 2}: independent of u=1 ⇒ skip.
        fs.fs[2].clear();
        fs.fs[2].insert(0);
        fs.fs[2].insert(2);
        assert!(fs.after_child(1, 1, false));
        assert_eq!(fs.backjumps(), 1);
        assert!(fs.fs[1].contains(0) && fs.fs[1].contains(2) && !fs.fs[1].contains(1));
        // Child failed with a set containing u ⇒ accumulate, no skip.
        fs.fs[2].insert(1);
        assert!(!fs.after_child(1, 1, false));
        // A matched child pins the node at V(q): no later replacement.
        assert!(!fs.after_child(1, 1, true));
        assert!((0..nq as u32).all(|x| fs.fs[1].contains(x)));
        fs.fs[2].clear();
        fs.fs[2].insert(0);
        assert!(fs.after_child(1, 1, false), "skip is still sound");
        assert!(
            (0..nq as u32).all(|x| fs.fs[1].contains(x)),
            "matched node keeps the full set"
        );
    }

    #[test]
    fn exit_applies_emptyset_class() {
        let (q, g, _cpi, plan) = prepared_square();
        let mut fs = FailingSet::new(&q, &g, &plan);
        let mapping = vec![0; q.num_vertices()];
        fs.enter(1, 2, Some(1), &[], &mapping);
        fs.exit(1, 2);
        assert!(fs.fs[1].contains(2) && fs.fs[1].contains(1));
        assert!(!fs.fs[1].contains(3));
    }
}
