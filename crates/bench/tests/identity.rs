//! Golden-value identity test over one fixed workload: a 2,000-vertex
//! synthetic data graph with dense (core-heavy) and sparse (leaf-heavy)
//! query sets, the three adversarial end-to-end shapes, and the two
//! pruning-adversarial shapes.
//!
//! In one process it asserts:
//! - (a) CPI arena digests and embedding counts are equal at 1 and at 4
//!   CPI build threads;
//! - (b) counts are equal across every order × pruning combination, and
//!   runs that finish under the cap also agree on an embedding digest that
//!   does not depend on emission order;
//! - (c) [`PlanCache::refresh`] keeps the plan on every edge toggle, and
//!   the carried plans' CPI-checksum fold equals a rebuild-per-delta fold;
//! - (d) failing-set pruning visits at most half of plain backtracking's
//!   search nodes on both pruning-adversarial shapes;
//! - (e) every value equals a recorded constant.
//!
//! Because (e) is absolute, running this test with
//! `--features cfl-match/trace` also proves the instrumentation is purely
//! observational. A PR that means to change one of these values updates
//! the constant and says why.

use std::collections::BTreeSet;
use std::sync::Arc;

use cfl_graph::{
    query_set, synthetic_graph, AppliedDelta, Graph, GraphDelta, QueryDensity, SyntheticConfig,
};
use cfl_match::{
    collect_embeddings, count_embeddings, Budget, Cpi, CpiMode, DataGraph, EmbeddingChecksum,
    FilterContext, GraphStats, MatchConfig, OrderStrategy, PlanCache, PruningKind,
};

/// Per-query embedding cap.
const CAP: u64 = 20_000;

/// `Cpi::checksum` fold over every dense and sparse query.
const CPI_BUILD: u64 = 4_064_640_523_809_142_127;
/// Embeddings of the dense queries.
const CORE_MATCH: u64 = 3_188;
/// Embeddings of the sparse queries.
const LEAF_MATCH: u64 = 10_196;
/// Embeddings of every dense and sparse query.
const END_TO_END_CFL: u64 = 13_384;
/// CPI-checksum fold of one insert-then-delete toggle round, carried by
/// `PlanCache::refresh` and rebuilt from scratch alike.
const DELTA_ROUND: u64 = 972_646_393_205_835_352;
/// Embeddings of the adversarial end-to-end shapes, by suite name.
const ADVERSARIAL: [(&str, u64); 3] = [
    ("tri_fan", 2_856),
    ("power_law_wedge", 8_854),
    ("dense_circulant", 20_000),
];
/// Search nodes of plain / failing-set backtracking on the
/// pruning-adversarial shapes, by suite name.
const PRUNING_RACE: [(&str, u64, u64); 2] = [
    ("deep_chain_trap", 6_470, 35),
    ("conflict_forest", 3_178, 106),
];

const COMBOS: [(OrderStrategy, PruningKind); 4] = [
    (OrderStrategy::Greedy, PruningKind::Plain),
    (OrderStrategy::Greedy, PruningKind::FailingSet),
    (OrderStrategy::Adaptive, PruningKind::Plain),
    (OrderStrategy::Adaptive, PruningKind::FailingSet),
];

/// The data graph plus dense and sparse query sets extracted from it.
struct Workload {
    g: Graph,
    dense: Vec<Graph>,
    sparse: Vec<Graph>,
}

impl Workload {
    fn new() -> Self {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 2_000,
            avg_degree: 8.0,
            num_labels: 12,
            label_exponent: 1.0,
            twin_fraction: 0.1,
            seed: 4242,
        });
        let dense = query_set(&g, 10, QueryDensity::NonSparse, 2, 7);
        let sparse = query_set(&g, 12, QueryDensity::Sparse, 2, 11);
        Workload { g, dense, sparse }
    }
}

fn config(order: OrderStrategy, pruning: PruningKind, threads: usize) -> MatchConfig {
    MatchConfig {
        order,
        ..MatchConfig::exhaustive()
    }
    .with_budget(Budget::first(CAP))
    .with_build_threads(threads)
    .with_pruning(pruning)
}

/// Fold of `Cpi::checksum` over the refined CPI of every query, built
/// from the same root as the engine picks, on `threads` build threads.
fn cpi_build(w: &Workload, threads: usize) -> u64 {
    let g_stats = GraphStats::build(&w.g);
    let mut total = 0u64;
    for q in w.dense.iter().chain(&w.sparse) {
        let q_stats = GraphStats::build(q);
        let ctx = FilterContext::new(q, &w.g, &q_stats, &g_stats);
        let core = cfl_graph::two_core(q);
        let has_core = core.contains(&true);
        let eligible: Vec<u32> = (0..q.num_vertices() as u32)
            .filter(|&v| !has_core || core[v as usize])
            .collect();
        let (root, root_cands) = cfl_match::select_root_with_candidates(&ctx, &eligible);
        let cpi = Cpi::build_seeded(&ctx, root, root_cands, CpiMode::TopDownRefined, threads);
        total = total
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(cpi.checksum());
    }
    total
}

/// Embedding count of a set of queries, plus a digest of each query's
/// sorted embeddings when every query finished under the cap.
#[derive(Debug, PartialEq, Eq)]
struct Series {
    embeddings: u64,
    digest: Option<u64>,
}

fn series<'a>(
    queries: impl IntoIterator<Item = &'a Graph>,
    g: &Graph,
    cfg: &MatchConfig,
) -> Series {
    let mut embeddings = 0u64;
    let mut digest = Some(EmbeddingChecksum::new());
    for q in queries {
        let (mut embs, report) = collect_embeddings(q, g, cfg).unwrap();
        embeddings += report.embeddings;
        if !report.outcome.is_complete() {
            digest = None;
        }
        if let Some(d) = digest.as_mut() {
            embs.sort_by(|a, b| a.mapping.cmp(&b.mapping));
            for e in &embs {
                d.update(&e.mapping);
            }
        }
    }
    Series {
        embeddings,
        digest: digest.map(|d| d.digest()),
    }
}

/// Up to `count` non-edges of `g`, each with an endpoint whose label
/// occurs in `q`, grown greedily so that the whole batch, inserted
/// together and then deleted together, keeps `q`'s cached plan through
/// [`PlanCache::refresh`] in both directions. Retention of single toggles
/// does not imply retention of their union, so each candidate is probed
/// together with the toggles already accepted.
fn delta_edges(g: &Graph, q: &Graph, cfg: &MatchConfig, count: usize) -> Vec<(u32, u32)> {
    let q_labels: BTreeSet<u32> = q.vertices().map(|v| q.label(v).0).collect();
    let nv = g.num_vertices() as u32;
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    let mut b = nv / 2;
    for a in (0..nv).step_by(7) {
        if candidates.len() == count * 8 {
            break;
        }
        b = (b + 13) % nv;
        if a == b || g.neighbors(a).contains(&b) {
            continue;
        }
        if !q_labels.contains(&g.label(a).0) && !q_labels.contains(&g.label(b).0) {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if !candidates.contains(&key) {
            candidates.push(key);
        }
    }

    let cache = Arc::new(PlanCache::new(1));
    let mut cur = g.clone();
    let mut accepted: Vec<(u32, u32)> = Vec::new();
    for cand in candidates {
        if accepted.len() == count {
            break;
        }
        let mut trial = accepted.clone();
        trial.push(cand);
        let mut all_retained = true;
        for insert in [true, false] {
            // Re-prime a plan the previous refresh may have dropped.
            let primed = DataGraph::new(&cur)
                .with_plan_cache(Arc::clone(&cache))
                .count_embeddings(q, &cfg.clone().with_budget(Budget::first(1)));
            let applied = cur.apply_delta(&toggle(&trial, insert)).unwrap();
            if primed.is_err() || cache.refresh(&cur, &applied) != 1 {
                all_retained = false;
            }
            cur = applied.graph;
        }
        if all_retained {
            accepted.push(cand);
        }
    }
    accepted
}

/// A delta inserting (or deleting) every edge of `edges`.
fn toggle(edges: &[(u32, u32)], insert: bool) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &(a, b) in edges {
        if insert {
            delta.insert(a, b);
        } else {
            delta.delete(a, b);
        }
    }
    delta
}

/// `rounds` insert-then-delete walks of `edges` from `g`, as the
/// `2 × rounds` applied deltas in epoch order. `g`'s stat tables are
/// forced first, so every successor carries patched tables.
fn delta_chain(g: &Graph, edges: &[(u32, u32)], rounds: usize) -> Vec<AppliedDelta> {
    let _ = g.stat_tables();
    let mut chain = Vec::with_capacity(rounds * 2);
    let mut cur = g.clone();
    for _ in 0..rounds {
        for insert in [true, false] {
            let applied = cur.apply_delta(&toggle(edges, insert)).unwrap();
            cur = applied.graph.clone();
            chain.push(applied);
        }
    }
    chain
}

/// Carries `q`'s plan in `cache` from `prev` through `round` with
/// [`PlanCache::refresh`], folding the carried plan's CPI checksum after
/// each delta. Counts the refreshes that kept the plan into `retained`.
fn refresh_round(
    cache: &PlanCache,
    q: &Graph,
    cfg: &MatchConfig,
    prev: &Graph,
    round: &[AppliedDelta],
    retained: &mut usize,
) -> u64 {
    let mut acc = 0u64;
    let mut old = prev;
    for applied in round {
        *retained += cache.refresh(old, applied);
        let checksum =
            cfl_match::oracle::cached_plan_checksum(cache, q, applied.graph.epoch(), cfg)
                .expect("the refreshed plan is resident");
        acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(checksum);
        old = &applied.graph;
    }
    acc
}

/// The same fold as [`refresh_round`] from a cold prepare against each
/// successor graph.
fn rebuild_round(q: &Graph, round: &[AppliedDelta], cfg: &MatchConfig) -> u64 {
    let mut acc = 0u64;
    for applied in round {
        let prepared = cfl_match::prepare(q, &applied.graph, cfg).unwrap();
        acc = acc
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(prepared.cpi.checksum());
    }
    acc
}

/// (c) and (e) for the delta toggles on `threads` build threads.
fn check_delta_identity(w: &Workload, threads: usize) {
    const ROUNDS: usize = 2;
    let q = &w.dense[0];
    let cfg = MatchConfig::exhaustive().with_build_threads(threads);
    let toggles = delta_edges(&w.g, q, &cfg, 8);
    assert!(!toggles.is_empty(), "the toggle probe accepted no edges");
    let chain = delta_chain(&w.g, &toggles, ROUNDS);

    let cache = Arc::new(PlanCache::new(1));
    let primed = DataGraph::new(&w.g)
        .with_plan_cache(Arc::clone(&cache))
        .count_embeddings(q, &cfg.clone().with_budget(Budget::first(1)));
    assert!(primed.is_ok(), "priming the plan cache failed");
    let mut retained = 0usize;
    let mut prev = &w.g;
    for round in chain.chunks(2) {
        let refreshed = refresh_round(&cache, q, &cfg, prev, round, &mut retained);
        let rebuilt = rebuild_round(q, round, &cfg);
        assert_eq!(
            refreshed, rebuilt,
            "{threads} threads: a refreshed plan's CPI diverged from the rebuild"
        );
        assert_eq!(
            refreshed, DELTA_ROUND,
            "{threads} threads: delta round fold"
        );
        prev = &round[1].graph;
    }
    assert_eq!(
        retained,
        chain.len(),
        "{threads} threads: a refresh dropped the plan"
    );
}

#[test]
fn hot_path_values_hold_across_threads_and_strategies() {
    let w = Workload::new();

    for threads in [1, 4] {
        assert_eq!(
            cpi_build(&w, threads),
            CPI_BUILD,
            "cpi_build at {threads} threads"
        );
        check_delta_identity(&w, threads);
    }

    let adversarial = cfl_datasets::kernel_stress_suite(1);
    let reference = config(OrderStrategy::Greedy, PruningKind::Plain, 1);
    let ref_core = series(&w.dense, &w.g, &reference);
    let ref_leaf = series(&w.sparse, &w.g, &reference);
    let ref_adv: Vec<Series> = adversarial
        .iter()
        .map(|(_, q, g)| series([q], g, &reference))
        .collect();
    assert_eq!(ref_core.embeddings, CORE_MATCH, "core_match");
    assert_eq!(ref_leaf.embeddings, LEAF_MATCH, "leaf_match");
    // Both sets finish under the cap, so the strategy legs below compare
    // embedding digests, not just counts.
    assert!(ref_core.digest.is_some() && ref_leaf.digest.is_some());
    assert_eq!(adversarial.len(), ADVERSARIAL.len());
    for ((name, _, _), s) in adversarial.iter().zip(&ref_adv) {
        let expected = ADVERSARIAL.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(s.embeddings, expected, "adversarial {name}");
    }

    for threads in [1, 4] {
        for (order, pruning) in COMBOS {
            let cfg = config(order, pruning, threads);
            let leg = format!("{order:?}/{pruning:?} at {threads} threads");
            assert_eq!(series(&w.dense, &w.g, &cfg), ref_core, "core_match, {leg}");
            assert_eq!(series(&w.sparse, &w.g, &cfg), ref_leaf, "leaf_match, {leg}");
            let e2e = w
                .dense
                .iter()
                .chain(&w.sparse)
                .map(|q| count_embeddings(q, &w.g, &cfg).unwrap().embeddings)
                .sum::<u64>();
            assert_eq!(e2e, END_TO_END_CFL, "end_to_end_cfl, {leg}");
            for ((name, q, g), expected) in adversarial.iter().zip(&ref_adv) {
                assert_eq!(&series([q], g, &cfg), expected, "{name}, {leg}");
            }
        }
    }
}

#[test]
fn failing_sets_at_least_halve_the_search() {
    let nodes = |q: &Graph, g: &Graph, pruning| {
        let cfg = config(OrderStrategy::Greedy, pruning, 1);
        count_embeddings(q, g, &cfg).unwrap().stats.search_nodes
    };
    let suite = cfl_datasets::pruning_stress_suite(1);
    assert_eq!(suite.len(), PRUNING_RACE.len());
    for (name, q, g) in &suite {
        let (_, plain_expected, failset_expected) =
            *PRUNING_RACE.iter().find(|(n, _, _)| n == name).unwrap();
        let plain = nodes(q, g, PruningKind::Plain);
        let failset = nodes(q, g, PruningKind::FailingSet);
        assert!(
            plain >= 2 * failset,
            "{name}: plain {plain} vs failing-set {failset} search nodes"
        );
        assert_eq!(plain, plain_expected, "{name}: plain search nodes");
        assert_eq!(
            failset, failset_expected,
            "{name}: failing-set search nodes"
        );
    }
}
