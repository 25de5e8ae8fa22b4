//! # cfl-fuzz
//!
//! Differential fuzzing harness for the CFL-Match engine. The targets
//! cross-check independent computations of the same quantity:
//!
//! * **cfl-vs-vf2** — the full engine's embedding set vs the VF2 baseline
//!   (shares nothing with the CFL pipeline past the `Graph` type);
//! * **flat-vs-nested** — the production flat-arena CPI freeze vs the
//!   naive nested reference freeze (`cfl-match`'s `oracle` feature);
//! * **canon-fingerprint** — canonical-fingerprint invariance under
//!   vertex permutation and label renaming, plus plan-cache-hit vs
//!   cold-run embedding identity;
//! * **delta-identity** — plans the plan cache carries across random
//!   edge-toggle [`cfl_graph::GraphDelta`] batches vs fresh rebuilds (CPI
//!   checksum identity), and cached-session vs one-shot embedding
//!   checksums on every successor graph;
//! * **strategy-identity** — every (ordering × pruning) enumeration
//!   strategy combination vs the default static-order / plain-backtracking
//!   pair: identical embedding sets on a cold preparation and on a
//!   plan-cache hit for a permuted isomorph of the query.
//!
//! Inputs are byte strings decoded by a total, direct encoding
//! ([`spec`]); failures are minimized by a format-oblivious ddmin
//! ([`shrink`]) and persisted under `regressions/<target>/`, which the
//! test suite replays. The corpus under `corpus/` is seeded from the
//! paper's adversarial instances (`cfl-datasets::adversarial`) — see the
//! `seed-corpus` subcommand of the `cfl-fuzz` binary.
//!
//! Run locally with `cargo run -p cfl-fuzz -- run all --iters 500`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod shrink;
pub mod spec;
pub mod targets;

use std::path::PathBuf;

/// The checked-in corpus directory (adversarial seeds + interesting
/// inputs), shared by all targets since they consume the same encoding.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Per-target directories of shrunken findings, replayed as regression
/// tests. A fresh finding is written here by the fuzz binary.
pub fn regressions_dir(target: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("regressions")
        .join(target)
}

/// Reads every `.bin` input under `dir` (sorted for determinism); empty if
/// the directory does not exist.
pub fn read_inputs(dir: &PathBuf) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "bin") {
            if let Ok(bytes) = std::fs::read(&path) {
                out.push((path, bytes));
            }
        }
    }
    out.sort();
    out
}

/// Seeds for the corpus: the paper's adversarial instances re-expressed in
/// the fuzz encoding, plus a couple of tiny hand-rolled cases. Returns
/// `(name, bytes)` pairs.
pub fn corpus_seeds() -> Vec<(String, Vec<u8>)> {
    use cfl_datasets::adversarial::{challenge1, near_clique_pathology};

    let mut seeds: Vec<(String, Vec<u8>)> = Vec::new();
    let mut push = |name: &str, q: &cfl_graph::Graph, g: &cfl_graph::Graph, salt: u8| {
        if let Some(spec) = spec::CaseSpec::from_graphs(q, g, salt) {
            seeds.push((format!("{name}.bin"), spec.encode()));
        }
    };

    let (q, g) = challenge1(3, 2);
    push("adv-challenge1-3-2", &q, &g, 3);
    let (q, g) = challenge1(2, 4);
    push("adv-challenge1-2-4", &q, &g, 4);
    let (q, g) = near_clique_pathology(5, 3, true);
    push("adv-near-clique-nt", &q, &g, 2);
    let (q, g) = near_clique_pathology(6, 3, false);
    push("adv-near-clique", &q, &g, 3);

    // A triangle query over two triangles sharing a vertex (the lib.rs
    // doc example), and the smallest possible case.
    let q = cfl_graph::graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
    let g = cfl_graph::graph_from_edges(
        &[0, 1, 2, 1, 2],
        &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
    );
    if let (Ok(q), Ok(g)) = (q, g) {
        push("tiny-triangles", &q, &g, 2);
    }
    let q = cfl_graph::graph_from_edges(&[0], &[]);
    let g = cfl_graph::graph_from_edges(&[0, 0], &[(0, 1)]);
    if let (Ok(q), Ok(g)) = (q, g) {
        push("tiny-single-vertex", &q, &g, 2);
    }

    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Case, CaseSpec};
    use crate::targets::{Verdict, TARGETS};
    use arbitrary::{Arbitrary, Unstructured};

    #[test]
    fn encoding_round_trips_adversarial_instances() {
        use cfl_datasets::adversarial::{challenge1, near_clique_pathology};
        let (q, g) = challenge1(3, 2);
        let spec = CaseSpec::from_graphs(&q, &g, 3).expect("challenge1 fits the format");
        let bytes = spec.encode();
        let decoded = CaseSpec::arbitrary(&mut Unstructured::new(&bytes)).unwrap();
        assert_eq!(decoded, spec);

        let (q, g) = near_clique_pathology(5, 3, true);
        let spec = CaseSpec::from_graphs(&q, &g, 2).expect("near-clique fits the format");
        let decoded = CaseSpec::arbitrary(&mut Unstructured::new(&spec.encode())).unwrap();
        assert_eq!(decoded, spec);

        // The rebuilt data graph is the same graph (same labels and edges).
        let case = spec.build().expect("decoded spec builds");
        assert_eq!(case.g.num_vertices(), g.num_vertices());
        assert_eq!(case.g.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(case.g.label(v), g.label(v));
            assert_eq!(case.g.neighbors(v), g.neighbors(v));
        }
        // The rebuilt query is BFS-relabeled; sizes and degree multisets
        // survive relabeling.
        assert_eq!(case.q.num_vertices(), q.num_vertices());
        assert_eq!(case.q.num_edges(), q.num_edges());
    }

    #[test]
    fn every_byte_string_decodes() {
        // Totality: arbitrary byte strings — including empty and
        // truncated — always produce a buildable case.
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xff],
            vec![0; 3],
            (0..=255u8).collect(),
            vec![0xab; 500],
        ];
        for bytes in inputs {
            let case = Case::decode(&bytes).expect("decode is total");
            assert!(case.q.num_vertices() >= 1);
            assert!(case.g.num_vertices() >= case.q.num_vertices());
            assert!((2..=4).contains(&case.salt));
        }
    }

    #[test]
    fn corpus_seeds_pass_all_targets() {
        // The adversarial corpus must replay clean, and every target must
        // reach a real comparison (not just skips) on at least one seed —
        // otherwise the fuzzer is vacuously green.
        let seeds = corpus_seeds();
        assert!(seeds.len() >= 5, "expected the full seed set");
        for (name, target) in TARGETS {
            let mut checked = 0;
            for (seed_name, bytes) in &seeds {
                let case = Case::decode(bytes).expect("seed decodes");
                match target(&case) {
                    Ok(Verdict::Checked) => checked += 1,
                    Ok(Verdict::Skipped(_)) => {}
                    Err(e) => panic!("target {name} failed on seed {seed_name}: {e}"),
                }
            }
            assert!(checked > 0, "target {name} never reached a comparison");
        }
    }

    #[test]
    fn checked_in_corpus_and_regressions_replay_clean() {
        // Every persisted input — corpus and per-target shrunken
        // regressions — must pass its targets with zero findings.
        let corpus = read_inputs(&corpus_dir());
        assert!(
            !corpus.is_empty(),
            "checked-in corpus missing; run `cargo run -p cfl-fuzz -- seed-corpus`"
        );
        for (path, bytes) in &corpus {
            let case = Case::decode(bytes).expect("corpus entry decodes");
            for (name, target) in TARGETS {
                if let Err(e) = target(&case) {
                    panic!("target {name} failed on corpus entry {path:?}: {e}");
                }
            }
        }
        for (name, target) in TARGETS {
            let regs = read_inputs(&regressions_dir(name));
            assert!(
                !regs.is_empty(),
                "no shrunken regression inputs checked in for target {name}"
            );
            for (path, bytes) in &regs {
                let case = Case::decode(bytes).expect("regression entry decodes");
                if let Err(e) = target(&case) {
                    panic!("target {name} regressed on {path:?}: {e}");
                }
            }
        }
    }

    #[test]
    fn shrinker_minimizes_while_preserving_failure() {
        // Predicate: the decoded query has ≥ 3 vertices and the data graph
        // has ≥ 1 edge (stands in for "the target found a divergence").
        let mut fails = |bytes: &[u8]| {
            Case::decode(bytes).is_some_and(|c| c.q.num_vertices() >= 3 && c.g.num_edges() >= 1)
        };
        let (_, seed) = &corpus_seeds()[0];
        assert!(fails(seed), "seed must satisfy the predicate");
        let shrunk = shrink::shrink(seed, &mut fails);
        assert!(fails(&shrunk), "shrinking must preserve the failure");
        assert!(
            shrunk.len() <= seed.len() / 2,
            "expected substantial shrinkage: {} -> {}",
            seed.len(),
            shrunk.len()
        );
    }

    #[test]
    fn embedding_set_comparison_detects_divergence() {
        // The comparator itself must flag seeded divergences (guards the
        // harness against vacuous agreement).
        let a = vec![vec![0, 1], vec![2, 3]];
        let b = vec![vec![0, 1]];
        assert!(targets::compare_embedding_sets(a.clone(), b, "a", "b").is_err());
        let same = targets::compare_embedding_sets(a.clone(), a, "a", "b");
        assert!(same.is_ok());
    }
}
