//! Cross-validation: every algorithm in the workspace must return exactly
//! the same set of embeddings on randomized inputs. Ullmann (simplest,
//! closest to the definition) serves as the oracle.

use cfl_baselines::{
    BoostedMatcher, CflMatcher, GraphQl, Matcher, QuickSi, SPath, TurboIso, Ullmann, Vf2,
};
use cfl_graph::{
    random_walk_query, synthetic_graph, Graph, QueryDensity, QueryGenConfig, SyntheticConfig,
};
use cfl_match::{Budget, MatchConfig};

fn all_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(Ullmann),
        Box::new(Vf2),
        Box::new(QuickSi),
        Box::new(GraphQl),
        Box::new(SPath),
        Box::new(TurboIso),
        Box::new(BoostedMatcher::default()),
        Box::new(CflMatcher::full()),
        Box::new(CflMatcher::with_config(
            "Match",
            MatchConfig::variant_match(),
        )),
        Box::new(CflMatcher::with_config(
            "CF-Match",
            MatchConfig::variant_cf_match(),
        )),
        Box::new(CflMatcher::with_config(
            "CFL-Match-Naive",
            MatchConfig::variant_naive_cpi(),
        )),
        Box::new(CflMatcher::with_config(
            "CFL-Match-TD",
            MatchConfig::variant_topdown_cpi(),
        )),
    ]
}

fn embeddings_of(m: &dyn Matcher, q: &Graph, g: &Graph) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    let report = m
        .find(q, g, Budget::UNLIMITED, &mut |mapping| {
            out.push(mapping.to_vec());
            true
        })
        .unwrap();
    assert!(report.outcome.is_complete());
    out.sort();
    out.dedup_by(|a, b| a == b);
    out
}

fn check_agreement(q: &Graph, g: &Graph, context: &str) {
    let oracle = embeddings_of(&Ullmann, q, g);
    // Sanity: oracle embeddings are valid.
    for m in &oracle {
        assert_eq!(m.len(), q.num_vertices());
        for u in q.vertices() {
            assert_eq!(q.label(u), g.label(m[u as usize]), "{context}: label");
        }
        for (a, b) in q.edges() {
            assert!(
                g.has_edge(m[a as usize], m[b as usize]),
                "{context}: edge ({a},{b})"
            );
        }
        let mut sorted = m.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m.len(), "{context}: injective");
    }
    for matcher in all_matchers() {
        let got = embeddings_of(matcher.as_ref(), q, g);
        assert_eq!(
            got,
            oracle,
            "{context}: {} disagrees with Ullmann ({} vs {})",
            matcher.name(),
            got.len(),
            oracle.len()
        );
    }
}

#[test]
fn agreement_on_random_sparse_graphs() {
    for seed in 0..6 {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 60,
            avg_degree: 4.0,
            num_labels: 4,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed: 1000 + seed,
        });
        let q = random_walk_query(&g, &QueryGenConfig::new(5, QueryDensity::Sparse, seed))
            .expect("query extraction");
        check_agreement(&q, &g, &format!("sparse seed {seed}"));
    }
}

#[test]
fn agreement_on_random_dense_graphs() {
    for seed in 0..4 {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 40,
            avg_degree: 8.0,
            num_labels: 3,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed: 2000 + seed,
        });
        let q = random_walk_query(&g, &QueryGenConfig::new(5, QueryDensity::NonSparse, seed))
            .expect("query extraction");
        check_agreement(&q, &g, &format!("dense seed {seed}"));
    }
}

#[test]
fn agreement_on_queries_with_leaves_and_forest() {
    // Queries engineered to have a non-trivial CFL decomposition: a cycle
    // core, a forest path, and several leaves.
    use cfl_graph::graph_from_edges;
    let q = graph_from_edges(
        &[0, 1, 2, 0, 1, 2, 0, 1],
        &[
            (0, 1),
            (1, 2),
            (2, 0), // core triangle
            (1, 3),
            (3, 4), // forest chain with leaf 4
            (2, 5),
            (2, 6), // two leaves on 2
            (3, 7), // another leaf on forest vertex 3
        ],
    )
    .unwrap();
    for seed in 0..4 {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 80,
            avg_degree: 6.0,
            num_labels: 3,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed: 3000 + seed,
        });
        check_agreement(&q, &g, &format!("cfl-shape seed {seed}"));
    }
}

#[test]
fn agreement_on_tree_queries() {
    use cfl_graph::graph_from_edges;
    // Star, path, and caterpillar tree queries (core degenerates to root).
    let queries = [
        graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]).unwrap(),
        graph_from_edges(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
        graph_from_edges(
            &[0, 1, 0, 1, 2, 2],
            &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],
        )
        .unwrap(),
    ];
    for (i, q) in queries.iter().enumerate() {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 70,
            avg_degree: 5.0,
            num_labels: 3,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed: 4000 + i as u64,
        });
        check_agreement(q, &g, &format!("tree query {i}"));
    }
}

#[test]
fn agreement_with_identical_labels() {
    // The hardest symmetry case: a single label everywhere.
    use cfl_graph::graph_from_edges;
    let q = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 25,
        avg_degree: 4.0,
        num_labels: 1,
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed: 5000,
    });
    check_agreement(&q, &g, "single label");
}

#[test]
fn counting_matches_enumeration_for_all_cfl_variants() {
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 80,
        avg_degree: 6.0,
        num_labels: 4,
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed: 6000,
    });
    let q = random_walk_query(&g, &QueryGenConfig::new(6, QueryDensity::Sparse, 11)).unwrap();
    for cfg in [
        MatchConfig::exhaustive(),
        MatchConfig::variant_match().with_budget(Budget::UNLIMITED),
        MatchConfig::variant_cf_match().with_budget(Budget::UNLIMITED),
    ] {
        let counted = cfl_match::count_embeddings(&q, &g, &cfg)
            .unwrap()
            .embeddings;
        let (embs, _) = cfl_match::collect_embeddings(&q, &g, &cfg).unwrap();
        assert_eq!(counted, embs.len() as u64, "config {cfg:?}");
    }
}

#[test]
fn core_hierarchy_variant_agrees() {
    // The §7 future-work ordering variant must return identical embedding
    // sets (it only permutes the matching order).
    use cfl_graph::graph_from_edges;
    let q = graph_from_edges(
        &[0, 1, 0, 1, 2],
        &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4)],
    )
    .unwrap();
    for seed in 0..3 {
        let g = synthetic_graph(&SyntheticConfig {
            num_vertices: 60,
            avg_degree: 6.0,
            num_labels: 3,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed: 7000 + seed,
        });
        let base = embeddings_of(&CflMatcher::full(), &q, &g);
        let hier = embeddings_of(
            &CflMatcher::with_config(
                "CFL-Hierarchy",
                MatchConfig::variant_core_hierarchy().with_budget(Budget::UNLIMITED),
            ),
            &q,
            &g,
        );
        assert_eq!(base, hier, "seed {seed}");
        for order in [
            cfl_match::OrderStrategy::Arbitrary,
            cfl_match::OrderStrategy::Adaptive,
        ] {
            let other = embeddings_of(
                &CflMatcher::with_config(
                    "CFL-Order",
                    MatchConfig {
                        order,
                        ..MatchConfig::exhaustive()
                    },
                ),
                &q,
                &g,
            );
            assert_eq!(base, other, "seed {seed} ({order:?} order)");
        }
    }
}
