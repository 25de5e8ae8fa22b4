//! End-to-end workload tests: dataset stand-ins, Table 3 query sets, the
//! Challenge-1 scenario from the introduction, and the bench runner.

use cfl_baselines::{CflMatcher, Matcher, QuickSi, TurboIso};
use cfl_bench::{run_query_set, RunOptions};
use cfl_datasets::{Dataset, Workload};
use cfl_graph::{GraphBuilder, Label, QueryDensity};
use cfl_match::{Budget, MatchConfig};
use std::time::Duration;

#[test]
fn default_workload_runs_on_scaled_yeast() {
    let g = Dataset::Yeast.build_scaled(12);
    let w = Workload::for_dataset(Dataset::Yeast);
    let mut specs = w.default_sets(4);
    for spec in &mut specs {
        spec.size = 8; // scaled-down query size
    }
    for spec in specs {
        let queries = spec.generate(&g);
        assert!(!queries.is_empty(), "{}", spec.name());
        let opts = RunOptions {
            max_embeddings: 1000,
            time_limit: Duration::from_secs(10),
        };
        let res = run_query_set(&CflMatcher::full(), &g, &queries, &opts);
        assert_eq!(res.queries, queries.len());
        assert_eq!(res.timeouts, 0, "{}", spec.name());
        assert!(res.avg_total_ms >= 0.0);
        assert!(res.avg_index_entries > 0.0, "CPI stats recorded");
    }
}

#[test]
fn algorithms_agree_on_scaled_dataset_queries() {
    let g = Dataset::Yeast.build_scaled(20);
    let w = Workload::for_dataset(Dataset::Yeast);
    let mut spec = w.default_sets(3).remove(0);
    spec.size = 6;
    let queries = spec.generate(&g);
    let budget = Budget::first(5000);
    for q in &queries {
        let cfl = CflMatcher::full()
            .count(q, &g, budget.clone())
            .unwrap()
            .embeddings;
        let quicksi = QuickSi.count(q, &g, budget.clone()).unwrap().embeddings;
        let turbo = TurboIso.count(q, &g, budget.clone()).unwrap().embeddings;
        assert_eq!(cfl, quicksi, "CFL vs QuickSI");
        assert_eq!(cfl, turbo, "CFL vs TurboISO");
    }
}

/// The Figure 1 "Challenge 1" construction, parameterized: verifies that
/// CFL-Match expands orders of magnitude fewer search nodes than a
/// QuickSI-style order on the adversarial instance that motivates the
/// paper.
#[test]
fn challenge1_shape_favors_cfl() {
    // Query of Figure 1(a): A-B-C-D chain + A-E-F chain + B-E non-tree edge.
    let q = cfl_graph::graph_from_edges(
        &[0, 1, 2, 3, 4, 5],
        &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 4)],
    )
    .unwrap();
    // Data graph of Figure 1(b), scaled: one A hub, one B, many C-D chains
    // off the B, many E's off the A of which only one connects back to B
    // and carries the F.
    let mut b = GraphBuilder::new();
    let va = b.add_vertex(Label(0));
    let vb = b.add_vertex(Label(1));
    b.add_edge(va, vb);
    for _ in 0..30 {
        let c = b.add_vertex(Label(2));
        let d = b.add_vertex(Label(3));
        b.add_edge(vb, c);
        b.add_edge(c, d);
    }
    for i in 0..300 {
        let e = b.add_vertex(Label(4));
        b.add_edge(va, e);
        if i == 0 {
            b.add_edge(vb, e);
            let f = b.add_vertex(Label(5));
            b.add_edge(e, f);
        }
    }
    let g = b.build().unwrap();

    let cfl = CflMatcher::full().count(&q, &g, Budget::UNLIMITED).unwrap();
    let quicksi = QuickSi.count(&q, &g, Budget::UNLIMITED).unwrap();
    assert_eq!(cfl.embeddings, 30);
    assert_eq!(quicksi.embeddings, 30);
    // The CFL order checks the B-E non-tree edge before fanning out, so its
    // search tree must be dramatically smaller.
    assert!(
        cfl.stats.search_nodes * 3 < quicksi.stats.search_nodes,
        "CFL nodes {} vs QuickSI nodes {}",
        cfl.stats.search_nodes,
        quicksi.stats.search_nodes
    );
}

#[test]
fn leaf_compression_pays_off_on_star_heavy_queries() {
    // Query: core triangle with 4 identical leaves on one core vertex; data
    // graph with large leaf fan-out. The CFL leaf-match counts without
    // expanding, so counting must touch far fewer nodes than CF-Match
    // (which enumerates leaves one by one) and than CFL's own collection.
    let q = cfl_graph::graph_from_edges(
        &[0, 1, 2, 3, 3, 3, 3],
        &[(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (0, 5), (0, 6)],
    )
    .unwrap();
    let mut b = GraphBuilder::new();
    let a = b.add_vertex(Label(0));
    let v1 = b.add_vertex(Label(1));
    let v2 = b.add_vertex(Label(2));
    b.add_edge(a, v1);
    b.add_edge(v1, v2);
    b.add_edge(v2, a);
    for _ in 0..12 {
        let l = b.add_vertex(Label(3));
        b.add_edge(a, l);
    }
    let g = b.build().unwrap();

    let cfg_cfl = MatchConfig::exhaustive();
    let cfg_cf = MatchConfig::variant_cf_match().with_budget(Budget::UNLIMITED);
    let cfl = cfl_match::count_embeddings(&q, &g, &cfg_cfl).unwrap();
    let cf = cfl_match::count_embeddings(&q, &g, &cfg_cf).unwrap();
    // 12·11·10·9 = 11880 leaf assignments.
    assert_eq!(cfl.embeddings, 11_880);
    assert_eq!(cf.embeddings, 11_880);
    assert!(
        cfl.stats.search_nodes < cf.stats.search_nodes,
        "CFL count nodes {} vs CF {}",
        cfl.stats.search_nodes,
        cf.stats.search_nodes
    );
    // Same CFL plan, full enumeration: every leaf assignment is expanded,
    // so collecting must touch more nodes than the §4.4 NEC-combination
    // shortcut that counting takes.
    let (embs, collected) = cfl_match::collect_embeddings(&q, &g, &cfg_cfl).unwrap();
    assert_eq!(embs.len(), 11_880);
    assert!(
        cfl.stats.search_nodes < collected.stats.search_nodes,
        "CFL count nodes {} vs collect {}",
        cfl.stats.search_nodes,
        collected.stats.search_nodes
    );
}

#[test]
fn dataset_registry_is_exhaustive_and_scaled_workloads_satisfiable() {
    for d in [Dataset::Hprd, Dataset::Yeast, Dataset::Human] {
        let g = d.build_scaled(25);
        assert!(cfl_graph::is_connected(&g), "{}", d.name());
        let w = Workload::for_dataset(d);
        let sizes = w.scaled_sizes(10);
        assert!(sizes.iter().all(|&s| s >= 4), "{}", d.name());
        // Smallest scaled query size must be extractable.
        let spec = cfl_datasets::QuerySetSpec {
            size: sizes[0],
            density: QueryDensity::Sparse,
            count: 2,
            seed: 1,
        };
        assert!(!spec.generate(&g).is_empty(), "{}", d.name());
    }
}

#[test]
fn turboiso_materialization_grows_exponentially_cpi_stays_linear() {
    // §A.3: on the near-clique instance the number of path embeddings
    // TurboISO materializes explodes with the chain length while the CPI
    // grows linearly.
    let mut prev_paths = 0u64;
    let mut cpi_sizes = Vec::new();
    for chain in [3u32, 5, 7] {
        let (q, g) = cfl_datasets::near_clique_pathology(24, chain, true);
        let (paths, _region) =
            cfl_baselines::turboiso::materialization_cost(&q, &g, 10_000_000).unwrap();
        assert!(paths > prev_paths, "chain {chain}: {paths} ≤ {prev_paths}");
        prev_paths = paths;
        let prep = cfl_match::prepare(&q, &g, &MatchConfig::default()).unwrap();
        cpi_sizes.push(prep.stats.cpi_candidates + prep.stats.cpi_edges);
    }
    // Path materialization grew by > 100× from chain 3 to 7; CPI must stay
    // within a small constant factor (linear in |V(q)|).
    assert!(prev_paths > 100 * 24, "paths {prev_paths}");
    assert!(
        cpi_sizes[2] < cpi_sizes[0] * 6,
        "CPI sizes {cpi_sizes:?} should grow ~linearly"
    );
}

#[test]
fn engine_times_out_gracefully() {
    // A single-label dense instance with an unreachable exhaustive count:
    // the engine must stop at the deadline and report TimedOut.
    let (q, g) = cfl_datasets::near_clique_pathology(40, 7, false);
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::UNLIMITED.with_time_limit(Duration::from_millis(50)));
    let report = cfl_match::count_embeddings(&q, &g, &cfg).unwrap();
    assert_eq!(report.outcome, cfl_match::MatchOutcome::TimedOut);
    assert!(
        report.embeddings > 0,
        "made some progress before timing out"
    );
}

#[test]
fn forest_independent_set_matches_leaf_set_on_random_queries() {
    // §A.5: the leaf-set is the maximal independent set of the forest.
    let g = Dataset::Yeast.build_scaled(15);
    for seed in 0..10 {
        let Some(q) = cfl_graph::random_walk_query(
            &g,
            &cfl_graph::QueryGenConfig::new(12, QueryDensity::Sparse, 400 + seed),
        ) else {
            continue;
        };
        let core = cfl_graph::two_core(&q);
        let root = core.iter().position(|&b| b).unwrap_or(0) as u32;
        let d = cfl_match::CflDecomposition::compute(
            &q,
            root,
            cfl_match::DecompositionMode::CoreForestLeaf,
        );
        let is = cfl_match::forest_independent_set(&q, &d);
        assert_eq!(is, d.leaves, "seed {seed}");
        assert!(cfl_match::is_independent_set(&q, &is), "seed {seed}");
    }
}
