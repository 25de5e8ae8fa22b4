//! The one way to run a query: a [`DataGraph`] session.
//!
//! Every entry point that runs a query goes through a session: the
//! one-shot functions ([`find_embeddings`](crate::find_embeddings),
//! [`count_embeddings`](crate::count_embeddings),
//! [`collect_embeddings`](crate::collect_embeddings),
//! [`prepare`](crate::prepare)) open a throwaway `DataGraph`, and every
//! `cfl serve` query opens one over its graph snapshot, attaching a plan
//! cache that outlives the query under `--plan-cache`. A session is the
//! only caller of the preparation pipeline (validation, root selection,
//! decomposition, CPI, ordering) and of the single-threaded enumerator,
//! so instrumentation, validation and the plan-cache remap exist exactly
//! once. Opening a session is cheap: the data-side statistics (label
//! index, NLF signatures, MND) are memoized on the graph, so only the
//! first query against a graph pays their `O(|V(G)| + |E(G)|)` build.

use std::time::Instant;

use cfl_graph::{Graph, VertexId};

use crate::cache::{cacheable_plan, CachedPlan, PlanCache};
use crate::config::MatchConfig;
use crate::error::Error;
use crate::exec::{Prepared, SinkRef};
use crate::filters::GraphStats;
use crate::result::{Embedding, MatchReport};
use std::sync::Arc;

/// A data graph with its matching statistics prebuilt.
pub struct DataGraph<'g> {
    graph: &'g Graph,
    stats: GraphStats,
    cache: Option<Arc<PlanCache>>,
}

/// How one query's preparation was obtained under a session.
enum Planned {
    /// Cold preparation in the caller's vertex numbering (boxed: a
    /// `Prepared` is an order of magnitude larger than the hit variant).
    Cold(Box<Prepared>),
    /// Plan-cache hit: a frozen preparation in the *cached* query's
    /// numbering plus the embedding remap into the caller's, and the time
    /// the lookup took (reported as the run's build time).
    Hit {
        plan: Arc<CachedPlan>,
        remap: Vec<u32>,
        lookup_time: std::time::Duration,
    },
}

impl<'g> DataGraph<'g> {
    /// Indexes `g` (label index, NLF signatures, MND) in
    /// `O(|V(G)| + |E(G)|)` on the first session over `g`; later sessions
    /// reuse the tables memoized on the graph.
    pub fn new(g: &'g Graph) -> Self {
        DataGraph {
            graph: g,
            stats: GraphStats::build(g),
            cache: None,
        }
    }

    /// [`new`](Self::new) plus a fresh default-capacity [`PlanCache`]:
    /// repeat queries that are label-preserving isomorphic to an earlier
    /// one skip CPI construction entirely.
    pub fn with_cache(g: &'g Graph) -> Self {
        Self::new(g).with_plan_cache(Arc::new(PlanCache::with_default_capacity()))
    }

    /// Attaches a (possibly shared) plan cache. Sharing is sound only
    /// across sessions over versions of the *same* data-graph lineage —
    /// entries are keyed by graph epoch, not graph identity.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached plan cache, if any (e.g. to read its counters).
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The prebuilt statistics (shared with the filter machinery).
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Runs the preparation phase (validation, root selection,
    /// decomposition, CPI, ordering) for one query against this session.
    /// Bypasses the plan cache; the one-shot [`prepare`](crate::prepare)
    /// is this method on a fresh session.
    pub fn prepare(&self, q: &Graph, config: &MatchConfig) -> Result<Prepared, Error> {
        crate::exec::prepare_with(q, self.graph, &self.stats, config)
    }

    /// Preparation through the plan cache: consult it (counting the
    /// lookup), fall back to a cold [`prepare`](Self::prepare) on a miss
    /// and store the result for the next isomorphic query.
    fn plan(&self, q: &Graph, config: &MatchConfig) -> Result<Planned, Error> {
        let Some(cache) = &self.cache else {
            return Ok(Planned::Cold(Box::new(self.prepare(q, config)?)));
        };
        let start = Instant::now();
        let epoch = self.graph.epoch();
        let (canon, hit) = cache.lookup(q, epoch, config);
        if let (Some(canon), Some(plan)) = (&canon, hit) {
            let remap = plan.remap_for(canon);
            return Ok(Planned::Hit {
                plan,
                remap,
                lookup_time: start.elapsed(),
            });
        }
        let prepared = self.prepare(q, config)?;
        if let Some(canon) = canon {
            let plan = Arc::new(cacheable_plan(q, &prepared, &canon));
            cache.insert(epoch, config, canon, plan);
        }
        Ok(Planned::Cold(Box::new(prepared)))
    }

    /// Runs a query end to end through the cache-aware path. On a hit the
    /// enumeration walks the cached CPI in the cached query's numbering
    /// and each embedding is remapped into the caller's before it reaches
    /// the sink, so results are indistinguishable from a cold run. When
    /// the `trace` feature is on and a plan cache is attached, the cache's
    /// counter snapshot is copied into the report's trace so
    /// `--stats`/`--stats-json` surface it.
    fn run(
        &self,
        q: &Graph,
        config: &MatchConfig,
        sink: SinkRef<'_>,
    ) -> Result<MatchReport, Error> {
        #[allow(unused_mut)]
        let mut report = self.run_inner(q, config, sink)?;
        #[cfg(feature = "trace")]
        if let (Some(cache), Some(trace)) = (&self.cache, report.stats.trace.as_deref_mut()) {
            trace.cache = cache.snapshot().into();
        }
        Ok(report)
    }

    fn run_inner(
        &self,
        q: &Graph,
        config: &MatchConfig,
        sink: SinkRef<'_>,
    ) -> Result<MatchReport, Error> {
        match self.plan(q, config)? {
            Planned::Cold(prepared) => Ok(crate::exec::enumerate_prepared(
                q, self.graph, &prepared, config, sink,
            )),
            Planned::Hit {
                plan,
                remap,
                lookup_time,
            } => {
                let mut prepared = Prepared {
                    decomposition: plan.decomposition.clone(),
                    cpi: Arc::clone(&plan.cpi),
                    plan: plan.plan.clone(),
                    stats: plan.stats.clone(),
                };
                // The run's "build" cost is the lookup, not the original
                // construction the cached stats remember.
                prepared.stats.build_time = lookup_time;
                Ok(match sink {
                    None => crate::exec::enumerate_prepared(
                        &plan.q, self.graph, &prepared, config, None,
                    ),
                    Some(s) => {
                        let mut buf = vec![0 as VertexId; remap.len()];
                        let mut remapped = |emb: &[VertexId]| {
                            for (slot, &c) in buf.iter_mut().zip(remap.iter()) {
                                *slot = emb[c as usize];
                            }
                            s(&buf)
                        };
                        crate::exec::enumerate_prepared(
                            &plan.q,
                            self.graph,
                            &prepared,
                            config,
                            Some(&mut remapped),
                        )
                    }
                })
            }
        }
    }

    /// Enumerates embeddings of `q`, streaming each mapping to `sink`.
    pub fn find_embeddings(
        &self,
        q: &Graph,
        config: &MatchConfig,
        mut sink: impl FnMut(&[VertexId]) -> bool,
    ) -> Result<MatchReport, Error> {
        self.run(q, config, Some(&mut sink))
    }

    /// Counts embeddings of `q` without materializing them.
    pub fn count_embeddings(&self, q: &Graph, config: &MatchConfig) -> Result<MatchReport, Error> {
        self.run(q, config, None)
    }

    /// Collects up to the budget's embeddings.
    pub fn collect_embeddings(
        &self,
        q: &Graph,
        config: &MatchConfig,
    ) -> Result<(Vec<Embedding>, MatchReport), Error> {
        let mut out = Vec::new();
        let report = self.find_embeddings(q, config, |m| {
            out.push(Embedding {
                mapping: m.to_vec(),
            });
            true
        })?;
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use cfl_graph::graph_from_edges;

    #[test]
    fn session_matches_one_shot_api() {
        let g = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 4)],
        )
        .unwrap();
        let session = DataGraph::new(&g);
        let queries = [
            graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            graph_from_edges(&[0, 1], &[(0, 1)]).unwrap(),
            graph_from_edges(&[1, 2], &[(0, 1)]).unwrap(),
        ];
        for q in &queries {
            let (via_session, _) = session
                .collect_embeddings(q, &MatchConfig::exhaustive())
                .unwrap();
            let (one_shot, _) =
                crate::exec::collect_embeddings(q, &g, &MatchConfig::exhaustive()).unwrap();
            let mut a: Vec<_> = via_session.into_iter().map(|e| e.mapping).collect();
            let mut b: Vec<_> = one_shot.into_iter().map(|e| e.mapping).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn session_count_matches_enumeration() {
        let g = graph_from_edges(&[0, 1, 1, 1, 0], &[(0, 1), (0, 2), (0, 3), (4, 1)]).unwrap();
        let session = DataGraph::new(&g);
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
        let count = session
            .count_embeddings(&q, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        let (embs, _) = session
            .collect_embeddings(&q, &MatchConfig::exhaustive())
            .unwrap();
        assert_eq!(count, embs.len() as u64);
    }

    #[test]
    fn cached_session_matches_uncached_across_isomorphic_repeats() {
        let g = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 4)],
        )
        .unwrap();
        let cold = DataGraph::new(&g);
        let cached = DataGraph::with_cache(&g);
        // The second and third queries are vertex permutations of the
        // first: the cache serves them from the stored plan and must
        // remap embeddings back into each caller's numbering.
        let queries = [
            graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            graph_from_edges(&[2, 0, 1], &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            graph_from_edges(&[1, 2, 0], &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            graph_from_edges(&[0, 1], &[(0, 1)]).unwrap(),
            graph_from_edges(&[1, 0], &[(0, 1)]).unwrap(),
        ];
        for q in &queries {
            let (mut a, ra) = cached
                .collect_embeddings(q, &MatchConfig::exhaustive())
                .unwrap();
            let (mut b, rb) = cold
                .collect_embeddings(q, &MatchConfig::exhaustive())
                .unwrap();
            a.sort_by(|x, y| x.mapping.cmp(&y.mapping));
            b.sort_by(|x, y| x.mapping.cmp(&y.mapping));
            assert_eq!(
                a.iter().map(|e| &e.mapping).collect::<Vec<_>>(),
                b.iter().map(|e| &e.mapping).collect::<Vec<_>>()
            );
            assert_eq!(ra.embeddings, rb.embeddings);
            assert_eq!(ra.outcome, rb.outcome);
        }
        let snap = cached.plan_cache().unwrap().snapshot();
        assert_eq!(snap.lookups, 5);
        assert_eq!(snap.hits, 3, "isomorphic repeats must hit");
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.lookups, snap.hits + snap.misses);
    }

    #[test]
    fn cached_session_respects_budget_and_count() {
        let g = graph_from_edges(
            &[0, 1, 1, 1, 0],
            &[(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)],
        )
        .unwrap();
        let session = DataGraph::with_cache(&g);
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]).unwrap();
        let full = session
            .count_embeddings(&q, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        // Second run hits the cache; the enumeration budget still applies.
        let budget = MatchConfig::exhaustive().with_budget(crate::config::Budget::first(2));
        let (embs, report) = session.collect_embeddings(&q, &budget).unwrap();
        assert_eq!(embs.len(), 2);
        assert_eq!(report.outcome, crate::result::MatchOutcome::LimitReached);
        assert!(full > 2);
        assert_eq!(session.plan_cache().unwrap().snapshot().hits, 1);
    }

    #[test]
    fn session_validates_queries() {
        let g = graph_from_edges(&[0, 0], &[(0, 1)]).unwrap();
        let session = DataGraph::new(&g);
        let empty = graph_from_edges(&[], &[]).unwrap();
        assert!(matches!(
            session.count_embeddings(&empty, &MatchConfig::default()),
            Err(Error::EmptyQuery)
        ));
    }
}
