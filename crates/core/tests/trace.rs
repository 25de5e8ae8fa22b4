//! Integration tests for the `trace` feature (compiled only with it):
//! results must be unchanged by instrumentation, and the recorded
//! counters must satisfy their arithmetic identities — checked through
//! `cfl_verify::check_trace`, the same verifier CI runs.

#![cfg(feature = "trace")]

use cfl_graph::{graph_from_edges, query_set, synthetic_graph, QueryDensity, SyntheticConfig};
use cfl_match::{
    collect_embeddings, count_embeddings, Budget, DataGraph, MatchConfig, MatchOutcome,
};

fn data() -> cfl_graph::Graph {
    synthetic_graph(&SyntheticConfig {
        num_vertices: 600,
        avg_degree: 6.0,
        num_labels: 5,
        label_exponent: 1.0,
        twin_fraction: 0.1,
        seed: 99,
    })
}

fn queries(g: &cfl_graph::Graph) -> Vec<cfl_graph::Graph> {
    let mut qs = query_set(g, 8, QueryDensity::Sparse, 2, 5);
    qs.extend(query_set(g, 7, QueryDensity::NonSparse, 2, 6));
    qs
}

#[test]
fn trace_is_recorded_and_consistent() {
    let g = data();
    let mut seeded = 0u64;
    for q in queries(&g) {
        let r = count_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
        let trace = r.stats.trace.as_deref().expect("trace feature records");
        assert!(trace.build.accounting_exact);
        assert_eq!(trace.workers.len(), 1);
        let checked = cfl_verify::check_trace(trace, Some(r.embeddings));
        assert!(checked.is_clean(), "{checked}");
        seeded += trace.build.seeded;
    }
    // Real builds seed candidates, so the identities above were checked
    // on recorded work, not on an all-zero report.
    assert!(seeded > 0, "top-down builds recorded no seeded candidates");
}

#[test]
fn capped_runs_satisfy_the_worker_sum_identity() {
    // One enumerator runs each query and clamps its emitted count to the
    // cap, so a run stopped by its budget must reconcile exactly like a
    // complete one — in sink mode, and in count-only mode where the leaf
    // phase adds whole label-class products at once (`emit_bulk`).
    let g = data();
    let mut capped = [0u32; 2];
    for q in queries(&g) {
        let full = count_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        if full < 2 {
            continue;
        }
        let cfg = MatchConfig::exhaustive().with_budget(Budget::first(full / 2));
        let (embs, sink) = collect_embeddings(&q, &g, &cfg).unwrap();
        let count_only = count_embeddings(&q, &g, &cfg).unwrap();
        for (i, r) in [sink, count_only].into_iter().enumerate() {
            assert_eq!(r.outcome, MatchOutcome::LimitReached);
            assert_eq!(r.embeddings, full / 2);
            let trace = r.stats.trace.as_deref().expect("trace feature records");
            let checked = cfl_verify::check_trace(trace, Some(r.embeddings));
            assert!(checked.is_clean(), "{checked}");
            capped[i] += 1;
        }
        assert_eq!(embs.len() as u64, full / 2);
    }
    assert!(
        capped.iter().all(|&n| n > 0),
        "no query stopped at its cap: {capped:?}"
    );
}

#[test]
fn counts_are_unchanged_across_modes() {
    // Tracing is observational: every construction mode must report the
    // same embedding count it reports untraced (the untraced side of this
    // equality is CI's cross-build checksum gate; here we pin the traced
    // side to a mode-independent answer).
    let g = data();
    for q in queries(&g) {
        let reference = count_embeddings(&q, &g, &MatchConfig::exhaustive())
            .unwrap()
            .embeddings;
        for config in [
            MatchConfig::exhaustive(),
            MatchConfig::variant_naive_cpi().with_budget(Budget::UNLIMITED),
            MatchConfig::variant_topdown_cpi().with_budget(Budget::UNLIMITED),
        ] {
            let r = count_embeddings(&q, &g, &config).unwrap();
            assert_eq!(r.outcome, MatchOutcome::Complete);
            assert_eq!(r.embeddings, reference);
        }
    }
}

#[test]
fn naive_mode_has_inexact_accounting() {
    let g = data();
    let q = queries(&g).remove(0);
    let cfg = MatchConfig::variant_naive_cpi().with_budget(Budget::UNLIMITED);
    let r = count_embeddings(&q, &g, &cfg).unwrap();
    let trace = r.stats.trace.as_deref().expect("trace feature records");
    assert!(
        !trace.build.accounting_exact,
        "naive CPI records no filter counters, so the identity must be waived"
    );
    let checked = cfl_verify::check_trace(trace, Some(r.embeddings));
    assert!(checked.is_clean(), "{checked}");
}

#[test]
fn session_and_one_shot_traces_agree() {
    let g = graph_from_edges(
        &[0, 1, 2, 0, 1, 2, 0],
        &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 6)],
    )
    .unwrap();
    let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
    let session = DataGraph::new(&g);
    let via_session = session
        .count_embeddings(&q, &MatchConfig::exhaustive())
        .unwrap();
    let one_shot = count_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
    let a = via_session.stats.trace.as_deref().unwrap();
    let b = one_shot.stats.trace.as_deref().unwrap();
    // Timers differ run to run; every counter must not.
    assert_eq!(a.build.seeded, b.build.seeded);
    assert_eq!(a.build.total_kills(), b.build.total_kills());
    assert_eq!(a.build.final_candidates, b.build.final_candidates);
    assert_eq!(a.cpi.candidates_per_vertex, b.cpi.candidates_per_vertex);
    assert_eq!(
        a.workers[0].counters.depth_hist,
        b.workers[0].counters.depth_hist
    );
}
