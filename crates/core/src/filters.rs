//! Candidate filtering (paper §A.6, Algorithm 6).
//!
//! A data vertex `v` can be a candidate of query vertex `u` only if
//!
//! 1. `l_G(v) = l_q(u)` (label filter, Ullmann),
//! 2. `d_G(v) ≥ d_q(u)` (degree filter, Ullmann),
//! 3. `mnd_G(v) ≥ mnd_q(u)` (maximum-neighbor-degree filter — the paper's
//!    new constant-time filter, Lemma A.1),
//! 4. for every label `l`, `d(v, l) ≥ d(u, l)` (NLF filter, SAPPER \[24\]).
//!
//! `CandVerify` checks the cheap MND filter before the `O(|L_N(u)|)` NLF
//! filter.

use std::sync::Arc;

use cfl_graph::{Graph, Label, NlfIndex, StatTables, VertexId};

/// Precomputed filter statistics for one graph (query or data side): a
/// shared handle to the graph's memoized [`StatTables`] (label index, NLF
/// signatures, MND). Derefs to the tables, so `stats.mnd[v]`,
/// `stats.nlf.packed(v)` etc. read straight from the cached arrays.
pub struct GraphStats {
    tables: Arc<StatTables>,
}

impl GraphStats {
    /// Fetches (building on first use) the graph's statistics tables.
    ///
    /// `prepare` calls this per query for both sides; because the tables
    /// are memoized on the graph, repeated matching against the same data
    /// graph pays the `O(|V| + |E|)` build once, which removes the
    /// dominant per-query cost on large data graphs.
    pub fn build(g: &Graph) -> Self {
        GraphStats {
            tables: g.stat_tables(),
        }
    }
}

impl std::ops::Deref for GraphStats {
    type Target = StatTables;

    #[inline]
    fn deref(&self) -> &StatTables {
        &self.tables
    }
}

/// Which optional candidate filters `CandVerify` applies (the §A.6
/// design-choice knobs; the label and degree filters are always on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterOptions {
    /// Apply the maximum-neighbor-degree filter (Lemma A.1).
    pub use_mnd: bool,
    /// Apply the neighborhood-label-frequency filter (SAPPER \[24\]).
    pub use_nlf: bool,
    /// Apply the 2-hop label-ball / label-pair bloom filter (l2Match's
    /// neighboring-label index). Off by default: it pays off on workloads
    /// with diverse label pairs and is a no-op on label-sparse graphs.
    pub use_label_pair: bool,
}

impl Default for FilterOptions {
    /// MND + NLF on — the paper's configuration; label-pair off.
    fn default() -> Self {
        FilterOptions {
            use_mnd: true,
            use_nlf: true,
            use_label_pair: false,
        }
    }
}

/// A CandVerify verdict with the stage that decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Whether `(v, u)` passed CandVerify.
    pub(crate) passed: bool,
    /// When `!passed`: whether the MND stage rejected it.
    pub(crate) failed_at_mnd: bool,
    /// When `!passed`: whether the label-pair stage (rather than NLF)
    /// rejected it.
    pub(crate) failed_at_lp: bool,
}

/// CandVerify (Algorithm 6) evaluated purely from stat tables — no graph
/// access. This is the single implementation behind
/// [`FilterContext::cand_verify`]; it is exposed separately so
/// [`PlanCache::refresh`](crate::PlanCache::refresh) can evaluate a pair's
/// verdict under the statistics of the graph *before* a delta, including
/// pairs the cached build never consulted. Assumes the label pre-filter
/// passed.
pub(crate) fn cand_verify_stats(
    q_stats: &GraphStats,
    g_stats: &GraphStats,
    options: FilterOptions,
    v: VertexId,
    u: VertexId,
) -> Verdict {
    if options.use_mnd && g_stats.mnd[v as usize] < q_stats.mnd[u as usize] {
        return Verdict {
            passed: false,
            failed_at_mnd: true,
            failed_at_lp: false,
        };
    }
    // Label-pair blooms between the constant-time MND probe and the NLF
    // merge scan: two AND-compares against the 2-hop masks.
    if options.use_label_pair && !g_stats.label_pairs.dominates(v, &q_stats.label_pairs, u) {
        return Verdict {
            passed: false,
            failed_at_mnd: false,
            failed_at_lp: true,
        };
    }
    let passed = if !options.use_nlf {
        true
    } else {
        let q_nlf = &q_stats.nlf;
        NlfIndex::packed_dominates(g_stats.nlf.packed(v), q_nlf.packed(u))
            && (q_nlf.packed_exact(u)
                || NlfIndex::dominates(g_stats.nlf.signature(v), q_nlf.signature(u)))
    };
    Verdict {
        passed,
        failed_at_mnd: false,
        failed_at_lp: false,
    }
}

/// Candidate verification context binding a query to a data graph.
pub struct FilterContext<'a> {
    /// The query graph.
    pub q: &'a Graph,
    /// The data graph.
    pub g: &'a Graph,
    /// Query-side statistics.
    pub q_stats: &'a GraphStats,
    /// Data-side statistics.
    pub g_stats: &'a GraphStats,
    /// Enabled optional filters.
    pub options: FilterOptions,
    /// Shared sink for construction-time pruning counters; attached by
    /// `prepare`, `None` for contexts built outside it.
    pub(crate) build_trace: Option<&'a cfl_trace::BuildCounters>,
}

impl<'a> FilterContext<'a> {
    /// Binds the four pieces together with the default (full) filters.
    pub fn new(
        q: &'a Graph,
        g: &'a Graph,
        q_stats: &'a GraphStats,
        g_stats: &'a GraphStats,
    ) -> Self {
        Self::with_options(q, g, q_stats, g_stats, FilterOptions::default())
    }

    /// Binds with explicit filter options (for ablations).
    pub fn with_options(
        q: &'a Graph,
        g: &'a Graph,
        q_stats: &'a GraphStats,
        g_stats: &'a GraphStats,
        options: FilterOptions,
    ) -> Self {
        FilterContext {
            q,
            g,
            q_stats,
            g_stats,
            options,
            build_trace: None,
        }
    }

    /// Attaches a construction-counter sink: every kill the CPI build
    /// performs through this context is recorded into `counters`.
    #[must_use]
    pub(crate) fn with_trace(mut self, counters: &'a cfl_trace::BuildCounters) -> Self {
        self.build_trace = Some(counters);
        self
    }

    /// Records `v` into build counter `c` when a trace sink is attached.
    #[inline]
    pub(crate) fn rec(&self, c: cfl_trace::BuildCounter, v: u64) {
        if let Some(t) = self.build_trace {
            t.add(c, v);
        }
    }

    /// The label + degree pre-filter the construction loops apply inline
    /// (Algorithm 3, lines 1 and 12). The label test runs first: it
    /// rejects most probes against the smaller (hotter) label array
    /// without touching the CSR offsets the degree test reads.
    #[inline]
    pub fn label_degree_ok(&self, v: VertexId, u: VertexId) -> bool {
        self.g.label(v) == self.q.label(u) && self.g.degree(v) >= self.q.degree(u)
    }

    /// `CandVerify` (Algorithm 6): MND filter then NLF filter. Assumes the
    /// label + degree pre-filter already passed.
    ///
    /// The NLF test goes through the packed 64-bit summaries first: one
    /// AND+compare rejects most non-candidates, and when the query vertex's
    /// summary is exact (neighbor labels < 16, per-label counts ≤ 4 — the common
    /// case for the paper's workloads) it also *accepts* without ever
    /// touching the `(label, count)` merge scan.
    #[inline]
    pub fn cand_verify(&self, v: VertexId, u: VertexId) -> bool {
        cand_verify_stats(self.q_stats, self.g_stats, self.options, v, u).passed
    }

    /// `list.retain(|&v| self.cand_verify(v, u))`, attributing each kill
    /// to the CandVerify stage whose [`Verdict`] rejected it (MND,
    /// label-pair or NLF) and recording the three counts once per list.
    /// The keep decision is the verdict's `passed`, so counting never
    /// changes which candidates survive.
    pub(crate) fn retain_verified(&self, list: &mut Vec<VertexId>, u: VertexId) {
        let (mut mnd, mut lp, mut nlf) = (0u64, 0u64, 0u64);
        list.retain(|&v| {
            let verdict = cand_verify_stats(self.q_stats, self.g_stats, self.options, v, u);
            if !verdict.passed {
                if verdict.failed_at_mnd {
                    mnd += 1;
                } else if verdict.failed_at_lp {
                    lp += 1;
                } else {
                    nlf += 1;
                }
            }
            verdict.passed
        });
        self.rec(cfl_trace::BuildCounter::MndKills, mnd);
        self.rec(cfl_trace::BuildCounter::LabelPairKills, lp);
        self.rec(cfl_trace::BuildCounter::NlfKills, nlf);
    }

    /// Full candidate test: label, degree, MND, NLF.
    pub fn is_candidate(&self, v: VertexId, u: VertexId) -> bool {
        self.label_degree_ok(v, u) && self.cand_verify(v, u)
    }

    /// The light candidates of `u`: vertices of `G` with label `l_q(u)`
    /// and degree at least `d_q(u)`, yielded in `(degree desc, id asc)`
    /// order — the matching prefix of the label index's degree-sorted
    /// span, so iteration costs the result size, not the label frequency.
    /// Callers needing ascending vertex order must sort.
    pub fn light_candidates(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.g_stats
            .label_index
            .vertices_with_min_degree(self.q.label(u), self.q.degree(u) as u32)
            .iter()
            .copied()
    }

    /// Exact size of [`light_candidates`](Self::light_candidates) without
    /// iterating it: one binary search over the label index's degree-sorted
    /// span (root selection ranks every eligible vertex by this count, so
    /// the scan-free form keeps selection sublinear in label frequency).
    #[inline]
    pub fn light_candidate_count(&self, u: VertexId) -> usize {
        self.g_stats
            .label_index
            .count_with_min_degree(self.q.label(u), self.q.degree(u) as u32)
    }

    /// Label frequency of `l` in the data graph.
    pub fn label_frequency(&self, l: Label) -> usize {
        self.g_stats.label_index.frequency(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_graph::graph_from_edges;

    fn ctx_graphs() -> (Graph, Graph) {
        // Query: triangle A-B-C (0,1,2 labels 0,1,2).
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        // Data: triangle A-B-C (0,1,2) plus a pendant A (3) attached to 1,
        // and an isolated-ish A (4) attached only to a B (5) of degree 1.
        let g = graph_from_edges(
            &[0, 1, 2, 0, 0, 1],
            &[(0, 1), (1, 2), (2, 0), (1, 3), (4, 5)],
        )
        .unwrap();
        (q, g)
    }

    #[test]
    fn filter_options_disable_pruning() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let off = FilterOptions {
            use_mnd: false,
            use_nlf: false,
            use_label_pair: false,
        };
        let ctx = FilterContext::with_options(&q, &g, &qs, &gs, off);
        // With both optional filters off, CandVerify accepts anything that
        // passed label+degree.
        for v in g.vertices() {
            for u in q.vertices() {
                assert!(ctx.cand_verify(v, u));
            }
        }
    }

    #[test]
    fn filters_accept_true_candidate() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        assert!(ctx.is_candidate(0, 0)); // data A in triangle maps query A
        assert!(ctx.is_candidate(1, 1));
        assert!(ctx.is_candidate(2, 2));
    }

    #[test]
    fn degree_filter_rejects() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        // Data vertex 3 (label A) has degree 1 < d_q(0)=2.
        assert!(!ctx.is_candidate(3, 0));
    }

    #[test]
    fn nlf_filter_rejects() {
        // Query A with neighbors {B, C}; data A (vertex 4) with neighbor {B}
        // of sufficient degree would pass label/degree if degrees matched,
        // but NLF requires a C neighbor.
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (0, 2)]).unwrap();
        let g = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        assert!(ctx.label_degree_ok(0, 0));
        assert!(!ctx.cand_verify(0, 0)); // no C-labeled neighbor
    }

    #[test]
    fn mnd_filter_rejects() {
        // Query: path B(1)-A(0)-B(2), plus B(1) has 2 more neighbors → query
        // A has a neighbor of degree 3, mnd_q(A) = 3.
        let q = graph_from_edges(&[0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap();
        // Data: A whose B-neighbors have degree ≤ 2 → MND too small.
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 3)]).unwrap();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        assert!(gs.mnd[0] < qs.mnd[0]);
        assert!(!ctx.cand_verify(0, 0));
    }

    #[test]
    fn label_pair_filter_rejects_missing_pair() {
        // Query: triangle with labels 0,1,2. Data: the same triangle plus a
        // label-2 pendant on vertex 0. The pendant's 1-hop edge set lacks
        // the (1,2) label pair the query's label-2 vertex requires.
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = graph_from_edges(&[0, 1, 2, 2], &[(0, 1), (1, 2), (0, 2), (3, 0)]).unwrap();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let lp_only = FilterOptions {
            use_mnd: false,
            use_nlf: false,
            use_label_pair: true,
        };
        let ctx = FilterContext::with_options(&q, &g, &qs, &gs, lp_only);
        let v = cand_verify_stats(&qs, &gs, lp_only, 3, 2);
        assert!(!v.passed && v.failed_at_lp && !v.failed_at_mnd);
        assert!(ctx.cand_verify(2, 2), "true image must survive");
        // With the filter off the pendant sails through.
        let off = FilterOptions {
            use_label_pair: false,
            ..lp_only
        };
        assert!(cand_verify_stats(&qs, &gs, off, 3, 2).passed);
    }

    #[test]
    fn light_candidates_filter_by_label_and_degree() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        let c: Vec<_> = ctx.light_candidates(0).collect();
        // Label-A vertices: {0, 3, 4}; degree ≥ 2 keeps only 0.
        assert_eq!(c, vec![0]);
        assert_eq!(ctx.label_frequency(Label(0)), 3);
    }

    #[test]
    fn retain_verified_matches_cand_verify_and_counts_kills() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let counters = cfl_trace::BuildCounters::default();
        let traced = FilterContext::new(&q, &g, &qs, &gs).with_trace(&counters);
        let plain = FilterContext::new(&q, &g, &qs, &gs);
        for u in q.vertices() {
            let all: Vec<_> = g
                .vertices()
                .filter(|&v| plain.label_degree_ok(v, u))
                .collect();
            let mut kept = all.clone();
            traced.retain_verified(&mut kept, u);
            let expect: Vec<_> = all
                .iter()
                .copied()
                .filter(|&v| plain.cand_verify(v, u))
                .collect();
            assert_eq!(kept, expect, "u{u}");
        }
        let snap = counters.snapshot();
        // Every kill was attributed to exactly one stage, and counts are
        // bounded by the number of probes.
        let probes: u64 = q
            .vertices()
            .map(|u| {
                g.vertices()
                    .filter(|&v| plain.label_degree_ok(v, u))
                    .count() as u64
            })
            .sum();
        assert!(snap.mnd_kills + snap.nlf_kills <= probes);
    }

    #[test]
    fn light_candidate_count_matches_iterator() {
        let (q, g) = ctx_graphs();
        let qs = GraphStats::build(&q);
        let gs = GraphStats::build(&g);
        let ctx = FilterContext::new(&q, &g, &qs, &gs);
        for u in q.vertices() {
            assert_eq!(
                ctx.light_candidate_count(u),
                ctx.light_candidates(u).count(),
                "u{u}"
            );
        }
    }
}
