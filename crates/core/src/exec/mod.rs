//! The CFL-Match engine (Algorithm 1).
//!
//! `CFL-Match(q, G)`: decompose the query (§3), build the CPI (§5), compute
//! the matching order (§4.2.1), then enumerate embeddings core-first,
//! forest-second, leaves-last (§4.2.2–§4.4).
//!
//! The free functions here are one-shot shorthands for a throwaway
//! [`DataGraph`] session, which is the only code that runs a query.

mod enumerate;
mod leaf;
pub mod strategy;

use std::time::Instant;

use cfl_graph::{is_connected, Graph, VertexId};

use crate::config::{DecompositionMode, MatchConfig};
use crate::cpi::Cpi;
use crate::decompose::CflDecomposition;
use crate::error::Error;
use crate::filters::{FilterContext, GraphStats};
use crate::order::{compute_order_with, OrderPlan};
use crate::result::{Embedding, MatchReport, MatchStats};
use crate::root::select_root_with_candidates;
use crate::session::DataGraph;
use std::sync::Arc;

use enumerate::Enumerator;
use strategy::dispatch_strategies;

pub use enumerate::CANCEL_QUANTUM;

/// A borrowed embedding sink: receives each mapping (indexed by query
/// vertex) and returns `false` to stop the search.
pub type SinkRef<'s> = Option<&'s mut dyn FnMut(&[VertexId]) -> bool>;

/// Enumerates embeddings of `q` in `G`, feeding each to `sink` as a slice
/// indexed by query vertex. Return `false` from the sink to stop early
/// (the run is then reported as [`MatchOutcome::LimitReached`](crate::MatchOutcome::LimitReached)).
pub fn find_embeddings(
    q: &Graph,
    g: &Graph,
    config: &MatchConfig,
    sink: impl FnMut(&[VertexId]) -> bool,
) -> Result<MatchReport, Error> {
    DataGraph::new(g).find_embeddings(q, config, sink)
}

/// Counts embeddings of `q` in `G` without materializing them. Leaf-match
/// counts label-class assignments combinatorially (combinations × NEC
/// permutations) instead of expanding each embedding, per §4.4.
pub fn count_embeddings(q: &Graph, g: &Graph, config: &MatchConfig) -> Result<MatchReport, Error> {
    DataGraph::new(g).count_embeddings(q, config)
}

/// Convenience: collects up to the budget's embeddings into a `Vec`.
pub fn collect_embeddings(
    q: &Graph,
    g: &Graph,
    config: &MatchConfig,
) -> Result<(Vec<Embedding>, MatchReport), Error> {
    DataGraph::new(g).collect_embeddings(q, config)
}

/// Everything the engine prepared before enumeration; exposed so that the
/// benchmark harness can time and inspect the phases separately.
pub struct Prepared {
    /// The decomposition of the query.
    pub decomposition: CflDecomposition,
    /// The constructed CPI, shared so the plan cache can hand the same
    /// arenas to many logically-distinct preparations.
    pub cpi: Arc<Cpi>,
    /// The matching order.
    pub plan: OrderPlan,
    /// Phase timings and CPI size counters filled so far.
    pub stats: MatchStats,
}

impl Prepared {
    /// Whether emptiness was proven during CPI construction (some query
    /// vertex has no candidates), so enumeration can be skipped.
    pub fn provably_empty(&self) -> bool {
        self.cpi.has_empty_candidate_set()
    }
}

/// Runs validation, root selection, decomposition, CPI construction and
/// ordering — the paper's "query vertex ordering" phase.
pub fn prepare(q: &Graph, g: &Graph, config: &MatchConfig) -> Result<Prepared, Error> {
    DataGraph::new(g).prepare(q, config)
}

/// The root-selection candidate pool (§A.6): the query's 2-core when it is
/// nonempty and decomposition is enabled, every vertex otherwise. Factored
/// out so [`PlanCache::refresh`](crate::PlanCache::refresh) replays root
/// selection over exactly the pool `prepare` would use.
pub(crate) fn root_eligible(q: &Graph, mode: DecompositionMode) -> Vec<VertexId> {
    let core_bitmap = cfl_graph::two_core(q);
    if core_bitmap.iter().any(|&b| b) && mode != DecompositionMode::None {
        (0..q.num_vertices() as VertexId)
            .filter(|&v| core_bitmap[v as usize])
            .collect()
    } else {
        (0..q.num_vertices() as VertexId).collect()
    }
}

/// [`prepare`] against prebuilt data-side statistics — the single
/// preparation pipeline, called only by [`DataGraph::prepare`] (so
/// instrumentation and validation hooks exist exactly once).
pub(crate) fn prepare_with(
    q: &Graph,
    g: &Graph,
    g_stats: &GraphStats,
    config: &MatchConfig,
) -> Result<Prepared, Error> {
    if q.num_vertices() == 0 {
        return Err(Error::EmptyQuery);
    }
    if !is_connected(q) {
        return Err(Error::DisconnectedQuery);
    }
    if q.num_vertices() > g.num_vertices() {
        return Err(Error::QueryLargerThanData {
            query_vertices: q.num_vertices(),
            data_vertices: g.num_vertices(),
        });
    }

    let build_start = Instant::now();
    let build_counters = cfl_trace::BuildCounters::default();
    let q_stats = GraphStats::build(q);
    let ctx = FilterContext::with_options(q, g, &q_stats, g_stats, config.filters)
        .with_trace(&build_counters);

    // Root selection (§A.6): from the core when it exists, else anywhere.
    let eligible = root_eligible(q, config.decomposition);
    let (root, root_cands) = select_root_with_candidates(&ctx, &eligible);

    let decomposition = CflDecomposition::compute(q, root, config.decomposition);
    let cpi = Arc::new(Cpi::build_seeded(&ctx, root, root_cands, config.cpi, 1));
    let build_time = build_start.elapsed();

    let mut build = build_counters.snapshot();
    build.final_candidates = cpi.total_candidates();
    // The top-down modes account every candidate exactly (final =
    // seeded − Σ kills); the naive baseline records nothing.
    build.accounting_exact = config.cpi != crate::config::CpiMode::Naive;
    let trace = cfl_trace::TraceReport {
        build,
        cpi: cfl_trace::CpiMetrics {
            arena_bytes: cpi.memory_bytes(),
            total_candidates: cpi.total_candidates(),
            total_edges: cpi.total_edges(),
            candidates_per_vertex: cpi.candidate_counts(),
        },
        ..Default::default()
    };
    let mut stats = MatchStats {
        build_time,
        cpi_candidates: cpi.total_candidates(),
        cpi_edges: cpi.total_edges(),
        cpi_bytes: cpi.memory_bytes(),
        trace: Some(Box::new(trace)),
        ..Default::default()
    };

    if cpi.has_empty_candidate_set() {
        let prepared = Prepared {
            decomposition,
            cpi,
            plan: OrderPlan {
                vertices: Vec::new(),
                core_len: 0,
                leaves: Vec::new(),
            },
            stats,
        };
        #[cfg(feature = "validate")]
        crate::validate::assert_valid(q, g, &prepared, config);
        return Ok(prepared);
    }

    let order_start = Instant::now();
    let plan = compute_order_with(q, &cpi, &decomposition, config.order);
    stats.ordering_time = order_start.elapsed();

    let prepared = Prepared {
        decomposition,
        cpi,
        plan,
        stats,
    };
    #[cfg(feature = "validate")]
    crate::validate::assert_valid(q, g, &prepared, config);
    Ok(prepared)
}

/// Runs the enumeration phase over a prepared CPI and order; called only
/// by [`DataGraph`] sessions. Takes the CPI and order by reference, so a
/// plan-cache hit enumerates the cached ones in place, and `stats` (the
/// preparation's) by value: the report carries them on. Only `config`'s
/// enumeration-side knobs (budget, ordering, pruning) are consulted: a
/// preparation is strategy-independent, so the same CPI and order can be
/// raced under every strategy combination.
pub(crate) fn enumerate_prepared(
    q: &Graph,
    g: &Graph,
    cpi: &Cpi,
    plan: &OrderPlan,
    mut stats: MatchStats,
    config: &MatchConfig,
    sink: SinkRef<'_>,
) -> MatchReport {
    if cpi.has_empty_candidate_set() {
        // Some candidate set is empty: zero embeddings, proven sound.
        return MatchReport::empty(stats);
    }

    let enum_start = Instant::now();
    dispatch_strategies!(config.order, config.pruning, O, P, {
        let mut enumerator = Enumerator::<O, P>::new(q, g, cpi, plan, config.budget.clone(), sink);
        let outcome = enumerator.run();
        stats.enumeration_time = enum_start.elapsed();
        stats.search_nodes = enumerator.nodes;
        stats.nt_checks = enumerator.nt_checks;
        if let Some(tr) = stats.trace.as_mut() {
            tr.enumeration = enumerator.take_trace();
        }

        MatchReport {
            outcome,
            embeddings: enumerator.emitted,
            stats,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Budget;
    use crate::result::MatchOutcome;
    use cfl_graph::graph_from_edges;

    fn figure3() -> (Graph, Graph) {
        // Paper Figure 3: query q (A,B,C,D,E = 0..4) and data graph G.
        // q: u1(A)-u2(B), u1-u3(C), u2-u4(D), u3-u5(E), u2-u3.
        let q =
            graph_from_edges(&[0, 1, 2, 3, 4], &[(0, 1), (0, 2), (1, 3), (2, 4), (1, 2)]).unwrap();
        // G (v0..v6): v0(A); v1(C),v2(B),v3(C); v4(E),v5(D),v6(E);
        // edges: v0-v1, v0-v2, v0-v3, v2-v1, v2-v3, v1-v4, v1-v5? ...
        // Use the paper's stated embeddings: (v0,v2,v1,v5,v4), (v0,v2,v1,v5,v6),
        // (v0,v2,v3,v5,v6).
        let g = graph_from_edges(
            &[0, 2, 1, 2, 4, 3, 4],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (2, 1),
                (2, 3),
                (1, 4),
                (2, 5),
                (1, 6),
                (3, 6),
                (5, 4),
            ],
        )
        .unwrap();
        (q, g)
    }

    #[test]
    fn figure3_has_three_embeddings() {
        let (q, g) = figure3();
        let (embs, report) = collect_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
        assert_eq!(report.outcome, MatchOutcome::Complete);
        let mut maps: Vec<Vec<u32>> = embs.into_iter().map(|e| e.mapping).collect();
        maps.sort();
        assert_eq!(
            maps,
            vec![
                vec![0, 2, 1, 5, 4],
                vec![0, 2, 1, 5, 6],
                vec![0, 2, 3, 5, 6],
            ]
        );
    }

    #[test]
    fn count_matches_enumeration() {
        let (q, g) = figure3();
        let count = count_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
        assert_eq!(count.embeddings, 3);
        assert!(count.outcome.is_complete());
    }

    #[test]
    fn all_variants_agree_on_figure3() {
        let (q, g) = figure3();
        for cfg in [
            MatchConfig::exhaustive(),
            MatchConfig::variant_match().with_budget(Budget::UNLIMITED),
            MatchConfig::variant_cf_match().with_budget(Budget::UNLIMITED),
            MatchConfig::variant_naive_cpi().with_budget(Budget::UNLIMITED),
            MatchConfig::variant_topdown_cpi().with_budget(Budget::UNLIMITED),
        ] {
            let (embs, _) = collect_embeddings(&q, &g, &cfg).unwrap();
            assert_eq!(embs.len(), 3, "config {cfg:?}");
        }
    }

    #[test]
    fn all_strategy_combinations_agree_on_figure3() {
        use crate::config::{OrderStrategy, PruningKind};
        let (q, g) = figure3();
        for order in [OrderStrategy::Greedy, OrderStrategy::Adaptive] {
            for pruning in [PruningKind::Plain, PruningKind::FailingSet] {
                let cfg = MatchConfig {
                    order,
                    ..MatchConfig::exhaustive()
                }
                .with_pruning(pruning);
                let (embs, report) = collect_embeddings(&q, &g, &cfg).unwrap();
                let mut maps: Vec<Vec<u32>> = embs.into_iter().map(|e| e.mapping).collect();
                maps.sort();
                assert_eq!(
                    maps,
                    vec![
                        vec![0, 2, 1, 5, 4],
                        vec![0, 2, 1, 5, 6],
                        vec![0, 2, 3, 5, 6],
                    ],
                    "order {order:?} pruning {pruning:?}"
                );
                assert!(report.outcome.is_complete());
                let count = count_embeddings(&q, &g, &cfg).unwrap();
                assert_eq!(count.embeddings, 3, "{order:?}/{pruning:?}");
            }
        }
    }

    #[test]
    fn budget_limits_results() {
        let (q, g) = figure3();
        let cfg = MatchConfig::default().with_budget(Budget::first(2));
        let (embs, report) = collect_embeddings(&q, &g, &cfg).unwrap();
        assert_eq!(embs.len(), 2);
        assert_eq!(report.outcome, MatchOutcome::LimitReached);
    }

    #[test]
    fn sink_can_stop_early() {
        let (q, g) = figure3();
        let mut n = 0;
        let report = find_embeddings(&q, &g, &MatchConfig::exhaustive(), |_| {
            n += 1;
            false
        })
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(report.embeddings, 1);
        assert_eq!(report.outcome, MatchOutcome::LimitReached);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let (q, g) = figure3();
        let empty = graph_from_edges(&[], &[]).unwrap();
        assert!(matches!(
            find_embeddings(&empty, &g, &MatchConfig::default(), |_| true),
            Err(Error::EmptyQuery)
        ));
        let disconnected = graph_from_edges(&[0, 1, 2], &[(0, 1)]).unwrap();
        assert!(matches!(
            find_embeddings(&disconnected, &g, &MatchConfig::default(), |_| true),
            Err(Error::DisconnectedQuery)
        ));
        let big_q = graph_from_edges(
            &[0; 9],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        )
        .unwrap();
        let tiny_g = graph_from_edges(&[0, 0], &[(0, 1)]).unwrap();
        assert!(matches!(
            find_embeddings(&big_q, &tiny_g, &MatchConfig::default(), |_| true),
            Err(Error::QueryLargerThanData { .. })
        ));
        let _ = q;
    }

    #[test]
    fn no_match_when_label_absent() {
        let q = graph_from_edges(&[0, 9], &[(0, 1)]).unwrap();
        let g = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let (embs, report) = collect_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
        assert!(embs.is_empty());
        assert!(report.outcome.is_complete());
    }
}
