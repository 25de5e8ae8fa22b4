//! Property-based tests (proptest) over randomly generated graph pairs:
//! output validity, variant agreement, budget compliance, and IO
//! round-trips.

use proptest::prelude::*;

use cfl_baselines::{Matcher, Vf2};
use cfl_graph::{graph_from_edges, Graph, VertexId};
use cfl_match::{Budget, MatchConfig};

/// Strategy: a random connected labeled graph with `n` vertices.
fn connected_graph(
    n_range: std::ops::Range<usize>,
    num_labels: u32,
    extra_edges: usize,
) -> impl Strategy<Value = Graph> {
    n_range.prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..num_labels, n);
        // Random spanning tree: parent[i] < i; plus random extra edges.
        let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        let extras = proptest::collection::vec((0..n as u32, 0..n as u32), 0..=extra_edges);
        (labels, parents, extras).prop_map(move |(labels, parents, extras)| {
            let mut edges: Vec<(VertexId, VertexId)> = parents
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, (i + 1) as u32))
                .collect();
            for (a, b) in extras {
                if a != b {
                    edges.push((a, b));
                }
            }
            graph_from_edges(&labels, &edges).expect("valid endpoints")
        })
    })
}

fn assert_valid_embedding(q: &Graph, g: &Graph, m: &[VertexId]) {
    assert_eq!(m.len(), q.num_vertices());
    for u in q.vertices() {
        assert_eq!(q.label(u), g.label(m[u as usize]), "label preserved");
    }
    for (a, b) in q.edges() {
        assert!(g.has_edge(m[a as usize], m[b as usize]), "edge preserved");
    }
    let mut s = m.to_vec();
    s.sort_unstable();
    s.dedup();
    assert_eq!(s.len(), m.len(), "injective");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every embedding CFL-Match emits satisfies Definition 2.1.
    #[test]
    fn cfl_embeddings_are_valid(
        q in connected_graph(2..6, 3, 3),
        g in connected_graph(6..20, 3, 12),
    ) {
        let (embs, _) = cfl_match::collect_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap();
        for e in &embs {
            assert_valid_embedding(&q, &g, &e.mapping);
        }
    }

    /// CFL-Match and VF2 agree on embedding sets.
    #[test]
    fn cfl_agrees_with_vf2(
        q in connected_graph(2..6, 2, 3),
        g in connected_graph(5..16, 2, 10),
    ) {
        let (embs, _) = cfl_match::collect_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap();
        let mut cfl: Vec<Vec<u32>> = embs.into_iter().map(|e| e.mapping).collect();
        cfl.sort();
        let mut vf2 = Vec::new();
        let vf2_report = Vf2
            .find(&q, &g, Budget::UNLIMITED, &mut |m| {
                vf2.push(m.to_vec());
                true
            })
            .unwrap();
        prop_assert!(vf2_report.outcome.is_complete());
        vf2.sort();
        prop_assert_eq!(cfl, vf2);
    }

    /// Counting equals enumeration for the full CFL pipeline (exercises the
    /// combinatorial leaf-count shortcut).
    #[test]
    fn count_equals_enumeration(
        q in connected_graph(2..7, 3, 2),
        g in connected_graph(6..18, 3, 10),
    ) {
        let cfg = MatchConfig::exhaustive();
        let count = cfl_match::count_embeddings(&q, &g, &cfg).unwrap().embeddings;
        let (embs, _) = cfl_match::collect_embeddings(&q, &g, &cfg).unwrap();
        prop_assert_eq!(count, embs.len() as u64);
    }

    /// A budget of k yields at most k embeddings, each still valid, and the
    /// emitted prefix matches the unbudgeted run's semantics (same set
    /// membership).
    #[test]
    fn budget_is_respected(
        q in connected_graph(2..5, 2, 2),
        g in connected_graph(5..14, 2, 8),
        k in 1u64..5,
    ) {
        let cfg = MatchConfig::exhaustive().with_budget(Budget::first(k));
        let (embs, report) = cfl_match::collect_embeddings(&q, &g, &cfg).unwrap();
        prop_assert!(embs.len() as u64 <= k);
        prop_assert_eq!(report.embeddings, embs.len() as u64);
        for e in &embs {
            assert_valid_embedding(&q, &g, &e.mapping);
        }
        let full = cfl_match::count_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        if full >= k {
            prop_assert_eq!(embs.len() as u64, k);
        } else {
            prop_assert_eq!(embs.len() as u64, full);
        }
    }

    /// Graph IO round-trips losslessly.
    #[test]
    fn graph_io_roundtrip(g in connected_graph(1..25, 5, 20)) {
        let mut buf = Vec::new();
        cfl_graph::write_graph(&g, &mut buf).unwrap();
        let g2 = cfl_graph::read_graph(buf.as_slice()).unwrap();
        prop_assert_eq!(g.labels(), g2.labels());
        prop_assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    /// 2-core peeling agrees with bucket-based core numbers.
    #[test]
    fn two_core_matches_core_numbers(g in connected_graph(1..30, 2, 25)) {
        let peel = cfl_graph::two_core(&g);
        let via_cores: Vec<bool> = cfl_graph::core_numbers(&g)
            .into_iter()
            .map(|c| c >= 2)
            .collect();
        prop_assert_eq!(peel, via_cores);
    }

    /// The boost compression round-trips: the quotient expands back to the
    /// same embedding count.
    #[test]
    fn boost_count_matches_direct(
        q in connected_graph(2..5, 2, 2),
        g in connected_graph(5..14, 2, 8),
    ) {
        use cfl_baselines::BoostedMatcher;
        let direct = cfl_match::count_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        let boosted = BoostedMatcher::default()
            .count(&q, &g, Budget::UNLIMITED)
            .unwrap()
            .embeddings;
        prop_assert_eq!(direct, boosted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The subdivision reduction is faithful: undirected matching with a
    /// constant edge label equals plain vertex-labeled matching.
    #[test]
    fn extended_reduction_is_faithful(
        q in connected_graph(2..5, 2, 2),
        g in connected_graph(5..12, 2, 6),
    ) {
        use cfl_graph::transform::{EdgeListGraph, LabeledEdge};
        use cfl_graph::Label;
        let to_elg = |gr: &Graph| EdgeListGraph {
            vertex_labels: gr.labels().to_vec(),
            edges: gr
                .edges()
                .map(|(a, b)| LabeledEdge { from: a, to: b, label: Label(0) })
                .collect(),
        };
        let (plain, _) =
            cfl_match::collect_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
        let (extended, _) = cfl_match::collect_embeddings_extended(
            &to_elg(&q),
            &to_elg(&g),
            false,
            &MatchConfig::exhaustive(),
        )
        .unwrap();
        let mut a: Vec<_> = plain.into_iter().map(|e| e.mapping).collect();
        let mut b: Vec<_> = extended.into_iter().map(|e| e.mapping).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Disabling optional filters never changes results, only work done.
    #[test]
    fn filter_options_preserve_semantics(
        q in connected_graph(2..5, 2, 2),
        g in connected_graph(5..12, 2, 6),
        use_mnd in proptest::bool::ANY,
        use_nlf in proptest::bool::ANY,
        use_label_pair in proptest::bool::ANY,
    ) {
        use cfl_match::FilterOptions;
        let base = cfl_match::count_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        let cfg = MatchConfig::exhaustive().with_filters(FilterOptions {
            use_mnd,
            use_nlf,
            use_label_pair,
        });
        let alt = cfl_match::count_embeddings(&q, &g, &cfg).unwrap().embeddings;
        prop_assert_eq!(base, alt);
    }
}
