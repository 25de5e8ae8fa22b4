//! End-to-end tests for the invariant-checking layer.
//!
//! Three families:
//! 1. acceptance — the full pipeline over a generated 8-label graph with a
//!    12-vertex query verifies clean under every engine variant;
//! 2. corruption — each test-only CPI mutator plants one defect and the
//!    checkers must report exactly the planted violation;
//! 3. differential properties — over random (data, query) pairs, CFL-Match
//!    embedding counts equal the VF2 baseline's, and every generated CPI
//!    passes the checkers.

use cfl_baselines::{Matcher, Vf2};
use cfl_graph::{query_set, synthetic_graph, Graph, QueryDensity, SyntheticConfig};
use cfl_match::{prepare, verify_prepared, Budget, MatchConfig, Prepared};
use proptest::prelude::*;

/// The acceptance scenario of the issue: an 8-label scale-8 synthetic graph
/// (100k/8 vertices) with a 12-vertex query.
fn acceptance_pair() -> (Graph, Graph) {
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 100_000 / 8,
        avg_degree: 8.0,
        num_labels: 8,
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed: 1,
    });
    let q = query_set(&g, 12, QueryDensity::Sparse, 1, 1)
        .into_iter()
        .next()
        .expect("query extraction from a connected 12.5k-vertex graph");
    (q, g)
}

/// Small deterministic pair whose CPI has candidates and non-empty rows on
/// every tree edge — the corruption tests' substrate.
fn small_pair() -> (Graph, Graph) {
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 400,
        avg_degree: 6.0,
        num_labels: 4,
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed: 11,
    });
    let q = query_set(&g, 6, QueryDensity::NonSparse, 1, 11)
        .into_iter()
        .next()
        .expect("query extraction");
    (q, g)
}

fn prepared_clean(q: &Graph, g: &Graph, config: &MatchConfig) -> Prepared {
    let prepared = prepare(q, g, config).expect("prepare");
    let report = verify_prepared(q, g, &prepared, config);
    assert!(report.is_clean(), "expected clean baseline: {report}");
    prepared
}

#[test]
fn acceptance_pipeline_verifies_clean() {
    let (q, g) = acceptance_pair();
    for config in [
        MatchConfig::default(),
        MatchConfig::variant_cf_match(),
        MatchConfig::variant_match(),
        MatchConfig::variant_naive_cpi(),
        MatchConfig::variant_topdown_cpi(),
    ] {
        prepared_clean(&q, &g, &config);
    }
}

/// Finds a non-root query vertex and parent position with a non-empty
/// adjacency row.
fn non_empty_row(q: &Graph, prepared: &Prepared) -> (u32, usize) {
    for u in q.vertices() {
        let Some(p) = prepared.cpi.parent(u) else {
            continue;
        };
        for pos in 0..prepared.cpi.candidates(p).len() {
            if !prepared.cpi.row(u, pos).is_empty() {
                return (u, pos);
            }
        }
    }
    panic!("no non-empty row in the prepared CPI");
}

/// Mutable access to the prepared CPI for corruption tests: right after
/// `prepare` the `Arc` is uniquely owned, so `get_mut` always succeeds.
fn cpi_mut(prepared: &mut Prepared) -> &mut cfl_match::Cpi {
    std::sync::Arc::get_mut(&mut prepared.cpi).expect("CPI uniquely owned after prepare")
}

#[test]
fn injected_candidate_is_reported_as_orphan() {
    let (q, g) = small_pair();
    let config = MatchConfig::default();
    let mut prepared = prepared_clean(&q, &g, &config);
    // Pick a non-root vertex and a data vertex that is not its candidate.
    let (u, _) = non_empty_row(&q, &prepared);
    let intruder = g
        .vertices()
        .find(|v| prepared.cpi.candidates(u).binary_search(v).is_err())
        .expect("some non-candidate data vertex");
    cpi_mut(&mut prepared).corrupt_inject_candidate(u, intruder);
    let report = verify_prepared(&q, &g, &prepared, &config);
    assert!(
        report.has_check("cand-orphan"),
        "expected cand-orphan: {report}"
    );
    // The planted orphan is attributed to exactly the injected pair.
    let v = report
        .violations()
        .iter()
        .find(|v| v.check == "cand-orphan")
        .unwrap();
    assert_eq!(v.query_vertex, Some(u));
    assert_eq!(v.data_vertex, Some(intruder));
}

#[test]
fn corrupted_row_position_is_reported() {
    let (q, g) = small_pair();
    let config = MatchConfig::default();
    let mut prepared = prepared_clean(&q, &g, &config);
    let (u, pos) = non_empty_row(&q, &prepared);
    cpi_mut(&mut prepared).corrupt_row_position(u, pos);
    let report = verify_prepared(&q, &g, &prepared, &config);
    assert!(
        report.has_check("row-position"),
        "expected row-position: {report}"
    );
    let v = report
        .violations()
        .iter()
        .find(|v| v.check == "row-position")
        .unwrap();
    assert_eq!(v.query_vertex, Some(u));
}

#[test]
fn dropped_row_entry_is_reported_incomplete() {
    let (q, g) = small_pair();
    let config = MatchConfig::default();
    let mut prepared = prepared_clean(&q, &g, &config);
    let (u, pos) = non_empty_row(&q, &prepared);
    cpi_mut(&mut prepared).corrupt_drop_row_entry(u, pos);
    let report = verify_prepared(&q, &g, &prepared, &config);
    assert!(
        report.has_check("row-complete"),
        "expected row-complete: {report}"
    );
    let v = report
        .violations()
        .iter()
        .find(|v| v.check == "row-complete")
        .unwrap();
    assert_eq!(v.query_vertex, Some(u));
}

/// Finds a non-root query vertex and parent position whose adjacency row
/// has at least two entries (so a swap changes the order).
fn multi_entry_row(q: &Graph, prepared: &Prepared) -> (u32, usize) {
    for u in q.vertices() {
        let Some(p) = prepared.cpi.parent(u) else {
            continue;
        };
        for pos in 0..prepared.cpi.candidates(p).len() {
            if prepared.cpi.row(u, pos).len() >= 2 {
                return (u, pos);
            }
        }
    }
    panic!("no row with >= 2 entries in the prepared CPI");
}

#[test]
fn swapped_row_entries_are_reported_out_of_order() {
    let (q, g) = small_pair();
    let config = MatchConfig::default();
    let mut prepared = prepared_clean(&q, &g, &config);
    let (u, pos) = multi_entry_row(&q, &prepared);
    cpi_mut(&mut prepared).corrupt_swap_row_entries(u, pos);
    let report = verify_prepared(&q, &g, &prepared, &config);
    assert!(
        report.has_check("row-order"),
        "expected row-order: {report}"
    );
    let v = report
        .violations()
        .iter()
        .find(|v| v.check == "row-order")
        .unwrap();
    assert_eq!(v.query_vertex, Some(u));
}

/// One random (data, query) pair from the generators in
/// `crates/graph/src/gen`, parameterized by seed / query size / density.
fn random_pair(seed: u64, size: usize, dense: bool) -> Option<(Graph, Graph)> {
    let g = synthetic_graph(&SyntheticConfig {
        num_vertices: 120,
        avg_degree: 5.0,
        num_labels: 5,
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed,
    });
    let density = if dense {
        QueryDensity::NonSparse
    } else {
        QueryDensity::Sparse
    };
    let q = query_set(&g, size, density, 1, seed).into_iter().next()?;
    Some((q, g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential: CFL-Match counts agree with the VF2 baseline on
    /// random (data, query) pairs, for every engine variant.
    #[test]
    fn cfl_count_matches_vf2(seed in 0u64..10_000, size in 3usize..8, dense in proptest::bool::ANY) {
        if let Some((q, g)) = random_pair(seed, size, dense) {
            let expected = Vf2
                .count(&q, &g, Budget::UNLIMITED)
                .expect("vf2")
                .embeddings;
            for config in [
                MatchConfig::exhaustive(),
                MatchConfig::variant_match().with_budget(Budget::UNLIMITED),
                MatchConfig::variant_cf_match().with_budget(Budget::UNLIMITED),
                MatchConfig::variant_naive_cpi().with_budget(Budget::UNLIMITED),
                MatchConfig::variant_topdown_cpi().with_budget(Budget::UNLIMITED),
            ] {
                let got = cfl_match::count_embeddings(&q, &g, &config)
                    .expect("cfl")
                    .embeddings;
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// Every generated CPI (with its decomposition and order) passes the
    /// invariant checkers, under every engine variant.
    #[test]
    fn generated_structures_verify_clean(seed in 0u64..10_000, size in 3usize..9, dense in proptest::bool::ANY) {
        if let Some((q, g)) = random_pair(seed, size, dense) {
            for config in [
                MatchConfig::default(),
                MatchConfig::variant_match(),
                MatchConfig::variant_cf_match(),
                MatchConfig::variant_naive_cpi(),
                MatchConfig::variant_topdown_cpi(),
            ] {
                let prepared = prepare(&q, &g, &config).expect("prepare");
                let report = verify_prepared(&q, &g, &prepared, &config);
                prop_assert!(report.is_clean(), "{}", report);
            }
        }
    }
}
