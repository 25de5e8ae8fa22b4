//! Canonical query-fingerprint plan cache.
//!
//! Repeat-query workloads (the paper's evaluation issues query *sets*
//! drawn from a few templates) rebuild structurally identical CPIs over
//! and over. A [`PlanCache`] amortizes that: each prepared query is keyed
//! by `(data-graph epoch, canonical fingerprint, config signature)`, where
//! the fingerprint comes from [`cfl_graph::canonical_query`] — equal for
//! any two queries that are label-preserving isomorphic, regardless of
//! vertex numbering. A hit hands back the frozen CPI arenas (`Arc`-shared,
//! never copied), the matching order and the decomposition; the only
//! per-hit work is composing the two canonical permutations so embeddings
//! stream out indexed by the *caller's* vertex numbering.
//!
//! Safety of a hit rests on two checks layered over the 128-bit hash:
//! the stored [`CanonicalQuery`] concrete form must be equal (so neither
//! hash collisions nor label-renamed variants alias — renamed labels mean
//! different data-side candidates), and the entry's epoch and config
//! signature must match (a [`GraphDelta`](cfl_graph::GraphDelta) bumps the
//! epoch, so stale plans miss naturally; budget and thread-count knobs are
//! excluded from the signature because they don't affect preparation).
//!
//! Eviction is LRU with a bounded entry count. Counters (lookups, hits,
//! misses, evictions, refreshes) are always-on atomics surfaced through
//! [`PlanCache::snapshot`]; lookups = hits + misses is an accounting
//! identity `cfl-verify` checks.
//!
//! Plans outlive a delta only through [`PlanCache::refresh`], which keeps
//! an entry when `plan_survives_delta` proves its CPI bit-identical to a
//! cold rebuild against the successor graph and drops it otherwise.

use cfl_graph::{canonical_query, AppliedDelta, CanonicalQuery, Graph, VertexId};

use crate::config::{CpiMode, DecompositionMode, MatchConfig, OrderStrategy};
use crate::cpi::Cpi;
use crate::decompose::CflDecomposition;
use crate::exec::{root_eligible, Prepared};
use crate::filters::{cand_verify_stats, FilterContext, FilterOptions, GraphStats};
use crate::order::OrderPlan;
use crate::result::MatchStats;
use crate::root::select_root_with_candidates;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on cached plans per [`PlanCache`]. Workloads rarely use
/// more than a few dozen query templates; beyond that LRU recency keeps
/// the hot ones resident.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// The preparation-relevant slice of a [`MatchConfig`]: two configs with
/// equal signatures produce identical CPIs, orders and decompositions.
/// `budget` (enumeration-only) and the ignored `build_threads` are
/// deliberately excluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConfigSig {
    cpi: CpiMode,
    decomposition: DecompositionMode,
    order: OrderStrategy,
    filters: FilterOptions,
}

impl ConfigSig {
    fn of(config: &MatchConfig) -> Self {
        ConfigSig {
            cpi: config.cpi,
            decomposition: config.decomposition,
            // Adaptive enumerates over the Greedy plan, so the two share it.
            order: match config.order {
                OrderStrategy::Adaptive => OrderStrategy::Greedy,
                order => order,
            },
            filters: config.filters,
        }
    }
}

/// A frozen preparation in the *cached* query's vertex numbering, plus
/// everything needed to serve it to an isomorphic caller.
pub(crate) struct CachedPlan {
    /// The query the plan was built for (owned clone; queries are tiny).
    pub(crate) q: Graph,
    pub(crate) decomposition: CflDecomposition,
    pub(crate) cpi: Arc<Cpi>,
    pub(crate) plan: OrderPlan,
    pub(crate) stats: MatchStats,
    /// `order[p]` = cached-query vertex at canonical position `p`; the
    /// remap for a hit composes this with the caller's `perm`.
    pub(crate) canon_order: Vec<u32>,
}

impl CachedPlan {
    /// Embedding remap serving a caller whose canonicalization is `canon`:
    /// `remap[v]` is the cached-query vertex playing caller vertex `v`'s
    /// role, so `emb_caller[v] = emb_cached[remap[v]]`.
    pub(crate) fn remap_for(&self, canon: &CanonicalQuery) -> Vec<u32> {
        canon
            .perm
            .iter()
            .map(|&p| self.canon_order[p as usize])
            .collect()
    }
}

/// Counter snapshot; `lookups == hits + misses` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Cache consultations (one per prepare attempt through a cached
    /// session, including queries the canonicalizer gave up on).
    pub lookups: u64,
    /// Lookups served from a stored plan.
    pub hits: u64,
    /// Lookups that fell through to a cold preparation.
    pub misses: u64,
    /// Entries displaced by LRU capacity pressure.
    pub evictions: u64,
    /// Entries refreshed in place across a delta by
    /// [`PlanCache::refresh`] instead of going stale with the epoch bump.
    pub refreshes: u64,
}

struct Entry {
    epoch: u64,
    sig: ConfigSig,
    canon: CanonicalQuery,
    plan: Arc<CachedPlan>,
}

/// A bounded LRU of prepared query plans, keyed by canonical fingerprint.
///
/// Shareable (`Arc`) across [`DataGraph`](crate::session::DataGraph)
/// sessions, but only across versions of the *same* data graph lineage:
/// entries are distinguished by graph epoch, which delta application
/// bumps, not by graph identity.
pub struct PlanCache {
    capacity: usize,
    /// LRU order: front = coldest, back = hottest.
    entries: Mutex<Vec<Entry>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    refreshes: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
        }
    }

    /// A cache with the [default capacity](DEFAULT_PLAN_CACHE_CAPACITY).
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Current counter values.
    pub fn snapshot(&self) -> PlanCacheStats {
        PlanCacheStats {
            lookups: self.lookups.load(Ordering::Acquire),
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            evictions: self.evictions.load(Ordering::Acquire),
            refreshes: self.refreshes.load(Ordering::Acquire),
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident plan (counters keep accumulating).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Position of the entry serving `canon` at `epoch` under `sig`.
    fn position(
        entries: &[Entry],
        epoch: u64,
        sig: &ConfigSig,
        canon: &CanonicalQuery,
    ) -> Option<usize> {
        entries.iter().position(|e| {
            e.epoch == epoch
                && e.sig == *sig
                && e.canon.fingerprint == canon.fingerprint
                && e.canon.same_concrete_form(canon)
        })
    }

    /// Canonicalizes `q` and consults the cache. Returns the caller's
    /// canonicalization (for a later [`insert`](Self::insert)) and the
    /// stored plan on a hit. Every call counts as one lookup; a `None`
    /// canonicalization (budget bailout on a pathological query) counts
    /// as a miss with nothing to store.
    pub(crate) fn lookup(
        &self,
        q: &Graph,
        epoch: u64,
        config: &MatchConfig,
    ) -> (Option<CanonicalQuery>, Option<Arc<CachedPlan>>) {
        self.lookups.fetch_add(1, Ordering::AcqRel);
        let Some(canon) = canonical_query(q) else {
            self.misses.fetch_add(1, Ordering::AcqRel);
            return (None, None);
        };
        let sig = ConfigSig::of(config);
        let mut entries = self.lock();
        match Self::position(&entries, epoch, &sig, &canon) {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::AcqRel);
                // Refresh recency: move to the back.
                let entry = entries.remove(i);
                let plan = Arc::clone(&entry.plan);
                entries.push(entry);
                (Some(canon), Some(plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::AcqRel);
                (Some(canon), None)
            }
        }
    }

    /// Stores the plan a miss just prepared. Racing inserts of the same
    /// key keep the newest; capacity pressure evicts the coldest entry.
    pub(crate) fn insert(
        &self,
        epoch: u64,
        config: &MatchConfig,
        canon: CanonicalQuery,
        plan: Arc<CachedPlan>,
    ) {
        let sig = ConfigSig::of(config);
        let mut entries = self.lock();
        if let Some(i) = Self::position(&entries, epoch, &sig, &canon) {
            entries.remove(i);
        } else if entries.len() >= self.capacity {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::AcqRel);
        }
        entries.push(Entry {
            epoch,
            sig,
            canon,
            plan,
        });
    }

    /// Carries resident plans across a delta instead of letting the epoch
    /// bump orphan them. For each entry keyed to the pre-delta epoch the
    /// cache runs the retention proof (`plan_survives_delta`) and on
    /// success stamps the entry with the new epoch in place (`Arc`-shared
    /// arenas untouched), so the next lookup against the successor graph
    /// hits without a cold prepare. Entries the proof cannot cover are
    /// dropped (not counted as evictions); entries at other epochs are
    /// left alone. Returns the number of plans refreshed; the cumulative
    /// count is surfaced as [`PlanCacheStats::refreshes`].
    ///
    /// A dropped plan is not rebuilt here: the serving engine calls this
    /// while holding its graph registry lock, which every submission also
    /// takes, so a rebuild would run cold prepares while all admissions
    /// wait. The next lookup misses instead and prepares on a worker.
    ///
    /// `old` must be the graph the delta was applied to (the retention
    /// proof evaluates the previous epoch's statistics through it); a
    /// mismatched lineage or a vertex-set change refreshes nothing.
    pub fn refresh(&self, old: &Graph, applied: &AppliedDelta) -> usize {
        let g = &applied.graph;
        if g.epoch() != old.epoch() + 1 || g.num_vertices() != old.num_vertices() {
            return 0;
        }
        let old_epoch = old.epoch();
        let new_epoch = g.epoch();
        let mut refreshed = 0usize;
        let mut entries = self.lock();
        entries.retain_mut(|e| {
            if e.epoch != old_epoch {
                return true;
            }
            if plan_survives_delta(&e.plan, &e.sig, old, applied) {
                e.epoch = new_epoch;
                refreshed += 1;
                true
            } else {
                false
            }
        });
        drop(entries);
        self.refreshes.fetch_add(refreshed as u64, Ordering::AcqRel);
        refreshed
    }
}

/// The retention proof behind [`PlanCache::refresh`]: whether `plan`'s CPI
/// is bit-identical to a cold rebuild of its query, under `sig`, against
/// `applied.graph`.
///
/// CandVerify is a pure function of a data vertex's statistics (MND, NLF
/// signature) and a query vertex's statistics, and the dirty frontier
/// ([`AppliedDelta::dirty`]: the delta's endpoints and their neighbors)
/// is exactly the set of data vertices whose statistics a delta may
/// change. Two proofs follow from that.
///
/// **Label-disjoint frontier.** Candidates all carry query labels, so if
/// no dirty vertex does, no candidate's statistics changed *and* no edge
/// incident to a candidate changed (the delta's endpoints are in the
/// frontier). Every CPI arena is untouched, whatever the filters.
///
/// **Retention.** With the NLF filter on, a CandVerify pass implies the
/// degree pre-filter passes too (per-label neighbor counts dominate, and
/// they sum to the degree), so every candidate set is a closed-form
/// function of verdicts and candidate-adjacent edges: `C(u) = {v : label ∧
/// verify(u, v) ∧ adjacency constraints against the other C-sets}`. The
/// cached CPI then equals a rebuild when
///
/// 1. **no verdict flipped** — for every dirty vertex `v` carrying a query
///    label and every label-matching query vertex `u`, the verdict under
///    `old`'s statistics equals the verdict under the successor's (both
///    are computed from stat tables, so pairs the cached build never
///    consulted are evaluated too, not guessed at);
/// 2. **no delta edge bridges candidates** — for every inserted or deleted
///    edge `(x, y)` and every query edge `(u, w)`, not both `verify(u, x)`
///    and `verify(w, y)` hold (in either orientation). Candidate
///    membership implies verify-pass, so no changed edge can enter or
///    leave a CPI adjacency row, a same-level S-NTE test, or a seeding /
///    neighborhood-mask scan *between surviving candidates*; and
/// 3. **the root is stable** — root selection replayed over the new
///    statistics picks the same vertex. Root scoring reads label+degree
///    counts, which a delta can shift even when no verdict flips, so this
///    is checked by replay rather than implied.
///
/// Neither proof holds with the label-pair blooms on: they summarize a
/// 2-hop neighborhood, so a delta's statistics damage reaches beyond the
/// dirty frontier. Without the NLF filter only the label-disjoint proof
/// applies. The `cache` tests and the `delta-identity` fuzz target check
/// the identity end to end via [`Cpi::checksum`].
fn plan_survives_delta(
    plan: &CachedPlan,
    sig: &ConfigSig,
    old: &Graph,
    applied: &AppliedDelta,
) -> bool {
    if sig.filters.use_label_pair {
        return false;
    }
    let q = &plan.q;
    let g = &applied.graph;
    let mut q_has_label = vec![false; q.num_labels()];
    for u in q.vertices() {
        q_has_label[q.label(u).0 as usize] = true;
    }
    let carries = |v: VertexId| {
        let l = g.label(v).0 as usize;
        l < q_has_label.len() && q_has_label[l]
    };
    if !applied.dirty.iter().any(|&v| carries(v)) {
        return true;
    }
    if !sig.filters.use_nlf {
        return false;
    }
    let q_stats = GraphStats::build(q);
    let old_stats = GraphStats::build(old);
    let new_stats = GraphStats::build(g);

    // (1) No verdict may flip across the delta, over the dirty frontier.
    for &v in &applied.dirty {
        if !carries(v) {
            continue;
        }
        for u in q.vertices() {
            if q.label(u) != g.label(v) {
                continue;
            }
            let was = cand_verify_stats(&q_stats, &old_stats, sig.filters, v, u).passed;
            let now = cand_verify_stats(&q_stats, &new_stats, sig.filters, v, u).passed;
            if was != now {
                return false;
            }
        }
    }

    // (2) No delta edge may bridge verify-passing endpoints across a
    // query edge, in either orientation.
    let ctx = FilterContext::with_options(q, g, &q_stats, &new_stats, sig.filters);
    let delta = &applied.delta;
    for &(x, y) in delta.inserts().iter().chain(delta.deletes().iter()) {
        for (a, b) in [(x, y), (y, x)] {
            for u in q.vertices() {
                if q.label(u) != g.label(a) || !ctx.cand_verify(a, u) {
                    continue;
                }
                for &w in q.neighbors(u) {
                    if q.label(w) == g.label(b) && ctx.cand_verify(b, w) {
                        return false;
                    }
                }
            }
        }
    }

    // (3) Root selection replayed over the new statistics must be stable.
    let eligible = root_eligible(q, sig.decomposition);
    let (root, _) = select_root_with_candidates(&ctx, &eligible);
    root == plan.cpi.root()
}

/// The plan cached for `q` at `epoch` under `config`'s signature, without
/// counting a lookup or touching recency — how differential harnesses
/// inspect a plan carried across deltas.
#[cfg(any(test, feature = "oracle"))]
pub(crate) fn peek(
    cache: &PlanCache,
    q: &Graph,
    epoch: u64,
    config: &MatchConfig,
) -> Option<Arc<CachedPlan>> {
    let canon = canonical_query(q)?;
    let entries = cache.lock();
    PlanCache::position(&entries, epoch, &ConfigSig::of(config), &canon)
        .map(|i| Arc::clone(&entries[i].plan))
}

/// Builds the cacheable snapshot of a preparation: `Arc`-shares the CPI,
/// clones the small plan structures and the query itself.
pub(crate) fn cacheable_plan(q: &Graph, prepared: &Prepared, canon: &CanonicalQuery) -> CachedPlan {
    CachedPlan {
        q: q.clone(),
        decomposition: prepared.decomposition.clone(),
        cpi: Arc::clone(&prepared.cpi),
        plan: prepared.plan.clone(),
        stats: prepared.stats.clone(),
        canon_order: canon.order.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_graph::graph_from_edges;

    fn entry_for(q: &Graph, g: &Graph, config: &MatchConfig) -> (CanonicalQuery, Arc<CachedPlan>) {
        let prepared = crate::exec::prepare(q, g, config).unwrap();
        let canon = canonical_query(q).unwrap();
        let plan = Arc::new(cacheable_plan(q, &prepared, &canon));
        (canon, plan)
    }

    fn data_graph() -> Graph {
        graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 4)],
        )
        .unwrap()
    }

    #[test]
    fn isomorphic_queries_hit_distinct_labels_miss() {
        let g = data_graph();
        let config = MatchConfig::exhaustive();
        let cache = PlanCache::new(8);
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let (canon, plan) = entry_for(&q, &g, &config);
        cache.insert(g.epoch(), &config, canon, plan);

        // Vertex-renumbered variant of the same labeled triangle: hit.
        let iso = graph_from_edges(&[2, 0, 1], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let (_, hit) = cache.lookup(&iso, g.epoch(), &config);
        assert!(hit.is_some());

        // Same shape, different labels: the fingerprints collide (renaming
        // invariance) but the concrete-form check rejects reuse.
        let relabeled = graph_from_edges(&[0, 1, 5], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let (_, miss) = cache.lookup(&relabeled, g.epoch(), &config);
        assert!(miss.is_none());

        // Stale epoch: miss.
        let (_, stale) = cache.lookup(&q, g.epoch() + 1, &config);
        assert!(stale.is_none());

        // Different config signature: miss.
        let other = MatchConfig::variant_naive_cpi();
        let (_, other_cfg) = cache.lookup(&q, g.epoch(), &other);
        assert!(other_cfg.is_none());

        let snap = cache.snapshot();
        assert_eq!(snap.lookups, snap.hits + snap.misses);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 3);
    }

    #[test]
    fn lru_evicts_coldest_and_counts() {
        let g = data_graph();
        let config = MatchConfig::exhaustive();
        let cache = PlanCache::new(2);
        let queries = [
            graph_from_edges(&[0, 1], &[(0, 1)]).unwrap(),
            graph_from_edges(&[1, 2], &[(0, 1)]).unwrap(),
            graph_from_edges(&[0, 2], &[(0, 1)]).unwrap(),
        ];
        for q in &queries {
            let (canon, plan) = entry_for(q, &g, &config);
            cache.insert(g.epoch(), &config, canon, plan);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.snapshot().evictions, 1);
        // The first-inserted (coldest) entry is gone; the later two live.
        assert!(cache.lookup(&queries[0], g.epoch(), &config).1.is_none());
        assert!(cache.lookup(&queries[1], g.epoch(), &config).1.is_some());
        assert!(cache.lookup(&queries[2], g.epoch(), &config).1.is_some());
    }

    #[test]
    fn refresh_carries_plans_across_deltas() {
        use cfl_graph::GraphDelta;
        // Two label-{0,1,2} triangles bridged by label-3 vertices (the
        // refresh-module motif).
        let g0 = graph_from_edges(
            &[0, 1, 2, 0, 1, 2, 3, 3],
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 6),
                (6, 3),
                (2, 7),
                (7, 5),
            ],
        )
        .unwrap();
        let config = MatchConfig::exhaustive();
        let cache = PlanCache::new(8);
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let (canon, plan) = entry_for(&q, &g0, &config);
        let arenas = Arc::clone(&plan.cpi);
        cache.insert(g0.epoch(), &config, canon, plan);

        // Edge between the two label-3 bridges: the retention proof holds
        // (no verdict flips, non-query-label endpoints cannot bridge
        // candidates, root stable), so the entry is restamped in place and
        // the next lookup at the successor epoch hits the same arenas.
        let mut d = GraphDelta::new();
        d.insert(6, 7);
        let applied = g0.apply_delta(&d).unwrap();
        assert_eq!(cache.refresh(&g0, &applied), 1);
        assert_eq!(cache.snapshot().refreshes, 1);
        let (_, hit) = cache.lookup(&q, applied.graph.epoch(), &config);
        let hit = hit.expect("refreshed plan must hit at the new epoch");
        assert!(Arc::ptr_eq(&hit.cpi, &arenas));
        // The carried plan is exact: bit-identical to a cold prepare
        // against the successor graph.
        assert_eq!(
            hit.cpi.checksum(),
            crate::exec::prepare(&q, &applied.graph, &config)
                .unwrap()
                .cpi
                .checksum()
        );

        // Edge between the two triangles bridges verify-passing endpoints
        // across a query edge: the proof refuses and the entry is dropped
        // (a stale plan served here would be wrong, not just cold).
        let g1 = applied.graph;
        let mut d = GraphDelta::new();
        d.insert(1, 3);
        let applied2 = g1.apply_delta(&d).unwrap();
        assert_eq!(cache.refresh(&g1, &applied2), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.snapshot().refreshes, 1);

        // Mismatched lineage (epoch gap): nothing provable, no-op.
        let (canon, plan) = entry_for(&q, &g1, &config);
        cache.insert(g1.epoch(), &config, canon, plan);
        assert_eq!(cache.refresh(&g0, &applied2), 0);
        assert_eq!(cache.len(), 1);
    }

    /// Four copies of the 8-vertex motif — two label-{0,1,2} triangles
    /// bridged by label-3 vertices — plus an isolated label-3 path
    /// 32-33-34 whose dirty frontier never reaches a query label.
    fn motif_graph() -> Graph {
        const LABELS: [u32; 8] = [0, 1, 2, 0, 1, 2, 3, 3];
        const EDGES: [(u32, u32); 10] = [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 6),
            (6, 3),
            (2, 7),
            (7, 5),
        ];
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        for c in 0..4u32 {
            labels.extend_from_slice(&LABELS);
            edges.extend(EDGES.iter().map(|&(u, v)| (c * 8 + u, c * 8 + v)));
        }
        labels.extend_from_slice(&[3, 3, 3]);
        edges.extend_from_slice(&[(32, 33), (33, 34)]);
        graph_from_edges(&labels, &edges).unwrap()
    }

    fn triangle_query() -> Graph {
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    /// A cache holding `q`'s plan prepared against `g` under `config`,
    /// and that plan's arenas.
    fn cache_with(q: &Graph, g: &Graph, config: &MatchConfig) -> (PlanCache, Arc<Cpi>) {
        let cache = PlanCache::new(8);
        let (canon, plan) = entry_for(q, g, config);
        let arenas = Arc::clone(&plan.cpi);
        cache.insert(g.epoch(), config, canon, plan);
        (cache, arenas)
    }

    /// Applies a one-edge delta (`insert` or delete of `(a, b)`) to `g`.
    fn toggle(g: &Graph, insert: bool, a: u32, b: u32) -> AppliedDelta {
        let mut d = cfl_graph::GraphDelta::new();
        if insert {
            d.insert(a, b);
        } else {
            d.delete(a, b);
        }
        g.apply_delta(&d).unwrap()
    }

    /// The plan resident for `q` at `g`'s epoch is exact: its CPI checksum
    /// equals a cold prepare against `g`, and a cached session's
    /// embeddings equal a one-shot run.
    #[track_caller]
    fn assert_resident_and_exact(
        cache: &Arc<PlanCache>,
        q: &Graph,
        g: &Graph,
        config: &MatchConfig,
    ) {
        let plan = peek(cache, q, g.epoch(), config).expect("plan resident at the new epoch");
        assert_eq!(
            plan.cpi.checksum(),
            crate::exec::prepare(q, g, config).unwrap().cpi.checksum(),
            "retained plan diverged from a cold rebuild"
        );
        let hits = cache.snapshot().hits;
        let session = crate::session::DataGraph::new(g).with_plan_cache(Arc::clone(cache));
        let (mut a, _) = session.collect_embeddings(q, config).unwrap();
        assert_eq!(
            cache.snapshot().hits,
            hits + 1,
            "the retained plan served the run"
        );
        let (mut b, _) = crate::exec::collect_embeddings(q, g, config).unwrap();
        a.sort_by(|x, y| x.mapping.cmp(&y.mapping));
        b.sort_by(|x, y| x.mapping.cmp(&y.mapping));
        assert_eq!(
            a.iter().map(|e| &e.mapping).collect::<Vec<_>>(),
            b.iter().map(|e| &e.mapping).collect::<Vec<_>>()
        );
    }

    #[test]
    fn refresh_retains_plan_over_label_disjoint_frontier() {
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let (cache, arenas) = cache_with(&q, &g0, &config);
        let cache = Arc::new(cache);
        // The pocket 32-33-34 is all label 3 (unused by the query) and
        // isolated from the motifs, so the dirty frontier of an insert
        // inside it never reaches a query-labeled vertex.
        let applied = toggle(&g0, true, 32, 34);
        assert!(applied.dirty.iter().all(|&v| applied.graph.label(v).0 == 3));
        assert_eq!(cache.refresh(&g0, &applied), 1);
        let plan = peek(&cache, &q, applied.graph.epoch(), &config).unwrap();
        assert!(
            Arc::ptr_eq(&plan.cpi, &arenas),
            "same arenas, not a rebuild"
        );
        assert_resident_and_exact(&cache, &q, &applied.graph, &config);
    }

    #[test]
    fn refresh_retains_plan_when_proof_holds() {
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let (cache, arenas) = cache_with(&q, &g0, &config);
        let cache = Arc::new(cache);
        // An edge between the two label-3 bridges of the first motif. Its
        // frontier reaches query-labeled vertices, but no verdict can flip
        // (their neighbor sets are unchanged and MND only grows) and its
        // endpoints carry a non-query label, so it bridges no candidates.
        let applied = toggle(&g0, true, 6, 7);
        assert!(applied.dirty.iter().any(|&v| applied.graph.label(v).0 != 3));
        assert_eq!(cache.refresh(&g0, &applied), 1);
        assert_resident_and_exact(&cache, &q, &applied.graph, &config);
        // Deleting it again retains as well and round-trips exactly.
        let g1 = applied.graph;
        let applied = toggle(&g1, false, 6, 7);
        assert_eq!(cache.refresh(&g1, &applied), 1);
        let plan = peek(&cache, &q, applied.graph.epoch(), &config).unwrap();
        assert!(Arc::ptr_eq(&plan.cpi, &arenas));
        assert_eq!(
            plan.cpi.checksum(),
            crate::exec::prepare(&q, &g0, &config)
                .unwrap()
                .cpi
                .checksum()
        );
        assert_resident_and_exact(&cache, &q, &applied.graph, &config);
    }

    #[test]
    fn refresh_drops_plan_on_bridging_edge() {
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let (cache, _) = cache_with(&q, &g0, &config);
        // An edge between the two triangles joins verify-passing
        // endpoints across a query edge: the CPI's adjacency genuinely
        // changes, so the plan must go.
        let applied = toggle(&g0, true, 1, 3);
        assert_ne!(
            crate::exec::prepare(&q, &g0, &config)
                .unwrap()
                .cpi
                .checksum(),
            crate::exec::prepare(&q, &applied.graph, &config)
                .unwrap()
                .cpi
                .checksum()
        );
        assert_eq!(cache.refresh(&g0, &applied), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.snapshot().evictions, 0, "drops are not evictions");
    }

    #[test]
    fn refresh_drops_plan_on_verdict_flip() {
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let (cache, _) = cache_with(&q, &g0, &config);
        // Deleting triangle edge 0-1 costs vertex 0 its only label-1
        // neighbor: its NLF verdict for query vertex 0 flips to a fail.
        let applied = toggle(&g0, false, 0, 1);
        let g = &applied.graph;
        let (qs, old, new) = (
            GraphStats::build(&q),
            GraphStats::build(&g0),
            GraphStats::build(g),
        );
        assert!(cand_verify_stats(&qs, &old, config.filters, 0, 0).passed);
        assert!(!cand_verify_stats(&qs, &new, config.filters, 0, 0).passed);
        // Neither endpoint passes afterwards, so the edge bridges nothing:
        // the flip alone must drop the plan.
        assert!(!cand_verify_stats(&qs, &new, config.filters, 1, 1).passed);
        assert_eq!(cache.refresh(&g0, &applied), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn refresh_drops_plan_on_root_change() {
        // Star query: center 0 (label 0) with leaves of labels 1, 2, 3. It
        // has no 2-core, so every vertex is eligible as root.
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        // Data: two copies of the star (0..8), plus five label-0 decoys
        // 8..13, each tied to all three label-9 vertices 13..16. The
        // decoys have the center's degree but fail its NLF test, so they
        // inflate its light candidate count (7/3 against every leaf's
        // 2/1) and keep the center out of root selection's top three.
        let mut labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mut edges = vec![(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)];
        labels.extend_from_slice(&[0; 5]);
        labels.extend_from_slice(&[9; 3]);
        for decoy in 8..13 {
            for hub in 13..16 {
                edges.push((decoy, hub));
            }
        }
        let g0 = graph_from_edges(&labels, &edges).unwrap();
        let config = MatchConfig::exhaustive();
        let (cache, _) = cache_with(&q, &g0, &config);
        let root_before = crate::exec::prepare(&q, &g0, &config).unwrap().cpi.root();

        // Dropping one hub edge per decoy takes them below the center's
        // degree: its light count falls to 2/3, it enters the top three
        // and wins. No verdict flips (the decoys fail NLF either way) and
        // the deleted edges touch a non-query label, so only the root
        // replay can catch this.
        let mut d = cfl_graph::GraphDelta::new();
        for decoy in 8..13 {
            d.delete(decoy, 13);
        }
        let applied = g0.apply_delta(&d).unwrap();
        let root_after = crate::exec::prepare(&q, &applied.graph, &config)
            .unwrap()
            .cpi
            .root();
        assert_ne!(root_before, root_after);
        assert_eq!(cache.refresh(&g0, &applied), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn refresh_drops_plan_under_label_pair_filter() {
        // With the 2-hop label-pair blooms on, the dirty frontier no
        // longer bounds the statistics damage, so even the delta the
        // retention proof keeps (see `refresh_retains_plan_when_proof_holds`)
        // and a label-disjoint one must drop the plan.
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive().with_filters(FilterOptions {
            use_label_pair: true,
            ..Default::default()
        });
        for (a, b) in [(6, 7), (32, 34)] {
            let (cache, _) = cache_with(&q, &g0, &config);
            assert_eq!(cache.refresh(&g0, &toggle(&g0, true, a, b)), 0);
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn refresh_without_nlf_drops_unless_label_disjoint() {
        // Without the NLF filter CandVerify no longer subsumes the degree
        // pre-filter, so the retention proof is unsound and the (6, 7)
        // insert it would keep must drop the plan; the label-disjoint
        // proof needs no filter and still holds.
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive().with_filters(FilterOptions {
            use_nlf: false,
            ..Default::default()
        });
        let (cache, _) = cache_with(&q, &g0, &config);
        assert_eq!(cache.refresh(&g0, &toggle(&g0, true, 6, 7)), 0);
        assert!(cache.is_empty());

        let (cache, _) = cache_with(&q, &g0, &config);
        let cache = Arc::new(cache);
        let applied = toggle(&g0, true, 32, 34);
        assert_eq!(cache.refresh(&g0, &applied), 1);
        assert_resident_and_exact(&cache, &q, &applied.graph, &config);
    }

    #[test]
    fn refresh_is_noop_across_epoch_gap() {
        let g0 = motif_graph();
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let (cache, _) = cache_with(&q, &g0, &config);
        // Two deltas, but the cache only sees the second against the
        // original graph: the frontier no longer bounds the damage, so
        // nothing is provable and the entry is left alone.
        let a1 = toggle(&g0, true, 1, 3);
        let a2 = toggle(&a1.graph, true, 6, 7);
        assert_eq!(cache.refresh(&g0, &a2), 0);
        // The right predecessor, but the entry sits at an older epoch.
        assert_eq!(cache.refresh(&a1.graph, &a2), 0);
        assert_eq!(cache.len(), 1);
        assert!(peek(&cache, &q, g0.epoch(), &config).is_some());
        assert_eq!(cache.snapshot().refreshes, 0);
    }

    #[test]
    fn refresh_is_exact_across_configs() {
        let g0 = motif_graph();
        let q = triangle_query();
        for config in [
            MatchConfig::exhaustive(),
            MatchConfig::variant_cf_match().with_budget(crate::config::Budget::UNLIMITED),
            MatchConfig::variant_topdown_cpi().with_budget(crate::config::Budget::UNLIMITED),
        ] {
            for (insert, a, b) in [(true, 6, 7), (true, 32, 34), (true, 1, 3)] {
                let (cache, _) = cache_with(&q, &g0, &config);
                let cache = Arc::new(cache);
                let applied = toggle(&g0, insert, a, b);
                if cache.refresh(&g0, &applied) == 1 {
                    assert_resident_and_exact(&cache, &q, &applied.graph, &config);
                } else {
                    assert!(cache.is_empty());
                }
            }
        }
    }

    #[test]
    fn successive_refreshes_keep_retained_plans_exact() {
        // A walk of single-edge deltas through a cached session: after
        // each one a retained plan must be exact, and a dropped one is
        // re-prepared by the next query at the new epoch.
        let q = triangle_query();
        let config = MatchConfig::exhaustive();
        let cache = Arc::new(PlanCache::new(8));
        let mut g = motif_graph();
        let steps: &[(bool, u32, u32)] = &[
            (true, 6, 7),
            (true, 1, 3),
            (true, 0, 4),
            (false, 0, 1),
            (true, 0, 1),
            (false, 6, 7),
            (false, 1, 3),
            (true, 1, 7),
            (false, 2, 7),
            (true, 32, 34),
        ];
        let (mut retained, mut dropped) = (0, 0);
        for &(insert, a, b) in steps {
            let _ = crate::session::DataGraph::new(&g)
                .with_plan_cache(Arc::clone(&cache))
                .count_embeddings(&q, &config)
                .unwrap();
            let applied = toggle(&g, insert, a, b);
            if cache.refresh(&g, &applied) == 1 {
                retained += 1;
                assert_resident_and_exact(&cache, &q, &applied.graph, &config);
            } else {
                dropped += 1;
                assert!(peek(&cache, &q, applied.graph.epoch(), &config).is_none());
            }
            g = applied.graph;
        }
        assert!(retained > 0 && dropped > 0, "the walk takes both paths");
    }

    #[test]
    fn empty_candidate_plans_survive_refresh() {
        // Query label 9 is absent from the data graph: preparation proves
        // emptiness, every frontier is label-disjoint from the query, and
        // the carried plan stays provably empty.
        let g0 = motif_graph();
        let q = graph_from_edges(&[9, 9], &[(0, 1)]).unwrap();
        let config = MatchConfig::exhaustive();
        let (cache, arenas) = cache_with(&q, &g0, &config);
        assert!(arenas.has_empty_candidate_set());
        let cache = Arc::new(cache);
        let applied = toggle(&g0, true, 1, 3);
        assert_eq!(cache.refresh(&g0, &applied), 1);
        assert_resident_and_exact(&cache, &q, &applied.graph, &config);
    }

    #[test]
    fn remap_composes_permutations() {
        let g = data_graph();
        let config = MatchConfig::exhaustive();
        // Path A-B-C, then its reversal C-B-A: vertex v plays role 2-v.
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let rev = graph_from_edges(&[2, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let (canon_q, plan) = entry_for(&q, &g, &config);
        let canon_rev = canonical_query(&rev).unwrap();
        assert!(canon_q.same_concrete_form(&canon_rev));
        let remap = plan.remap_for(&canon_rev);
        assert_eq!(remap, vec![2, 1, 0]);
        // Self-remap is the identity.
        assert_eq!(plan.remap_for(&canon_q), vec![0, 1, 2]);
    }
}
