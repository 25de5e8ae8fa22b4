//! Differential identity tests across the pluggable enumeration
//! strategies: every (ordering × pruning) combination must emit exactly
//! the same embedding set — byte-identical checksums — as the default
//! static-order / plain-backtracking pair, on a cold preparation and on a
//! plan-cache hit. Failing-set pruning and adaptive ordering change
//! *which parts of the search tree are visited*, never what is emitted;
//! these tests pin that contract on the paper's motivating instance, on
//! the pruning-adversarial shapes, and on randomized graphs.
//!
//! The efficacy tests at the bottom check the point of the machinery:
//! on the adversarial shapes, failing-set pruning must explore less than
//! half the search nodes of plain backtracking.

use cfl_datasets::{challenge1, conflict_forest, deep_chain_trap};
use cfl_graph::{
    graph_from_edges, query_set, synthetic_graph, Graph, QueryDensity, SyntheticConfig,
};
use cfl_match::{
    collect_embeddings, count_embeddings, Budget, DataGraph, Embedding, MatchConfig, OrderStrategy,
    PruningKind,
};

const COMBOS: [(OrderStrategy, PruningKind); 4] = [
    (OrderStrategy::Greedy, PruningKind::Plain),
    (OrderStrategy::Greedy, PruningKind::FailingSet),
    (OrderStrategy::Adaptive, PruningKind::Plain),
    (OrderStrategy::Adaptive, PruningKind::FailingSet),
];

/// `base` with its order and pruning strategies replaced.
fn with_strategies(base: &MatchConfig, order: OrderStrategy, pruning: PruningKind) -> MatchConfig {
    MatchConfig {
        order,
        ..base.clone()
    }
    .with_pruning(pruning)
}

/// Order-independent FNV digest of an embedding set: embeddings are
/// sorted before folding, so any two runs that emit the same *set* (in
/// any order, from any thread interleaving) produce the same bytes.
fn embedding_checksum(mut embeddings: Vec<Embedding>) -> u64 {
    embeddings.sort_by(|a, b| a.mapping.cmp(&b.mapping));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in &embeddings {
        for &v in &e.mapping {
            h ^= u64::from(v) + 1;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h.wrapping_add(embeddings.len() as u64)
}

/// `q` with its vertex ids reversed (same labels and edges): an isomorph
/// the plan cache must serve from `q`'s stored plan.
fn reversed(q: &Graph) -> Graph {
    let n = q.num_vertices() as u32;
    let labels: Vec<u32> = (0..n).rev().map(|v| q.label(v).0).collect();
    let edges: Vec<(u32, u32)> = q.edges().map(|(a, b)| (n - 1 - a, n - 1 - b)).collect();
    graph_from_edges(&labels, &edges).unwrap()
}

/// Runs every strategy combination on a cold preparation and on a
/// plan-cache hit, asserting all eight runs agree with the default pair's
/// checksum. The hit leg primes a cached session with `q`, then runs a
/// vertex-reversed copy of it: the strategies walk the cached CPI in the
/// cached query's numbering and every embedding goes through the
/// session's remap, the path `cfl serve --plan-cache` takes. Reversing
/// each hit embedding back gives `q`'s numbering, so it checksums to the
/// same reference.
fn assert_all_combos_identical(name: &str, q: &Graph, g: &Graph, base: &MatchConfig) {
    let reference = {
        let cfg = with_strategies(base, OrderStrategy::Greedy, PruningKind::Plain);
        let (embs, _) = collect_embeddings(q, g, &cfg).unwrap();
        embedding_checksum(embs)
    };
    let q_rev = reversed(q);
    for (order, pruning) in COMBOS {
        let cfg = with_strategies(base, order, pruning);
        let (cold, _) = collect_embeddings(q, g, &cfg).unwrap();
        assert_eq!(
            embedding_checksum(cold),
            reference,
            "{name}: cold {order:?}/{pruning:?} diverged from the default strategies"
        );
        let session = DataGraph::with_cache(g);
        let _ = session.count_embeddings(q, &cfg).unwrap();
        let (mut hit, _) = session.collect_embeddings(&q_rev, &cfg).unwrap();
        assert_eq!(
            session.plan_cache().unwrap().snapshot().hits,
            1,
            "{name}: the reversed query missed the plan cache"
        );
        for e in &mut hit {
            e.mapping.reverse();
        }
        assert_eq!(
            embedding_checksum(hit),
            reference,
            "{name}: plan-cache hit {order:?}/{pruning:?} diverged from the default strategies"
        );
    }
}

#[test]
fn combos_agree_on_challenge1() {
    let (q, g) = challenge1(12, 40);
    assert_all_combos_identical("challenge1", &q, &g, &MatchConfig::exhaustive());
}

#[test]
fn combos_agree_on_deep_chain_trap() {
    let (q, g) = deep_chain_trap(3, 3);
    assert_all_combos_identical("deep_chain_trap", &q, &g, &MatchConfig::exhaustive());
}

#[test]
fn combos_agree_on_conflict_forest() {
    let (q, g) = conflict_forest(2, 4);
    assert_all_combos_identical("conflict_forest", &q, &g, &MatchConfig::exhaustive());
}

#[test]
fn combos_agree_across_ablation_configs() {
    // The strategies must compose with every pipeline variant, not just
    // the full CFL configuration.
    let (q, g) = deep_chain_trap(2, 3);
    for base in [
        MatchConfig::exhaustive(),
        MatchConfig::variant_match().with_budget(Budget::UNLIMITED),
        MatchConfig::variant_naive_cpi().with_budget(Budget::UNLIMITED),
        MatchConfig::variant_topdown_cpi().with_budget(Budget::UNLIMITED),
    ] {
        assert_all_combos_identical("ablation", &q, &g, &base);
    }
}

#[test]
fn combos_agree_on_synthetic_workload() {
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 600,
        avg_degree: 6.0,
        num_labels: 8,
        label_exponent: 1.0,
        twin_fraction: 0.1,
        seed: 99,
    });
    for (i, q) in query_set(&g, 8, QueryDensity::NonSparse, 3, 17)
        .iter()
        .enumerate()
    {
        let base = MatchConfig::exhaustive().with_budget(Budget::first(5_000));
        // Budgeted runs stop early, so only the *uncapped* portion is
        // comparable; use a cap generous enough that these instances
        // finish (checked via the outcome below).
        let r = count_embeddings(q, &g, &base).unwrap();
        assert!(
            r.embeddings < 5_000,
            "query {i} saturated the cap; enlarge it to keep runs comparable"
        );
        assert_all_combos_identical("synthetic", q, &g, &base);
    }
}

#[test]
fn failing_set_halves_search_on_deep_chain_trap() {
    let (q, g) = deep_chain_trap(4, 3);
    let plain = count_embeddings(
        &q,
        &g,
        &MatchConfig::exhaustive().with_pruning(PruningKind::Plain),
    )
    .unwrap();
    let failset = count_embeddings(
        &q,
        &g,
        &MatchConfig::exhaustive().with_pruning(PruningKind::FailingSet),
    )
    .unwrap();
    assert_eq!(plain.embeddings, failset.embeddings);
    assert!(
        plain.stats.search_nodes >= 2 * failset.stats.search_nodes,
        "failing sets must at least halve the search: plain {} vs failing-set {}",
        plain.stats.search_nodes,
        failset.stats.search_nodes
    );
}

#[test]
fn failing_set_halves_search_on_conflict_forest() {
    let (q, g) = conflict_forest(3, 6);
    let plain = count_embeddings(
        &q,
        &g,
        &MatchConfig::exhaustive().with_pruning(PruningKind::Plain),
    )
    .unwrap();
    let failset = count_embeddings(
        &q,
        &g,
        &MatchConfig::exhaustive().with_pruning(PruningKind::FailingSet),
    )
    .unwrap();
    assert_eq!(plain.embeddings, failset.embeddings);
    assert!(
        plain.stats.search_nodes >= 2 * failset.stats.search_nodes,
        "failing sets must at least halve the search: plain {} vs failing-set {}",
        plain.stats.search_nodes,
        failset.stats.search_nodes
    );
}

#[test]
fn adaptive_order_stays_correct_when_static_order_is_wrong_about_sizes() {
    // On the chain trap the adaptive order may visit vertices in a
    // different sequence entirely; counts must not move.
    let (q, g) = deep_chain_trap(3, 4);
    let static_r = count_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
    let adaptive_r = count_embeddings(
        &q,
        &g,
        &with_strategies(
            &MatchConfig::exhaustive(),
            OrderStrategy::Adaptive,
            PruningKind::Plain,
        ),
    )
    .unwrap();
    assert_eq!(static_r.embeddings, adaptive_r.embeddings);
}

#[test]
fn graph_from_edges_smoke_for_strategy_dispatch() {
    // A tiny non-adversarial instance keeps the dispatch macro honest for
    // every combination even when the traps are reshaped.
    let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (1, 2), (2, 0)]).unwrap();
    let g = graph_from_edges(
        &[0, 1, 1, 1, 0],
        &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 4)],
    )
    .unwrap();
    assert_all_combos_identical("smoke", &q, &g, &MatchConfig::exhaustive());
}
