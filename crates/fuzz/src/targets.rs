//! The differential targets.
//!
//! Each target takes a decoded [`Case`] and either confirms agreement
//! (`Ok(Verdict::Checked)`), declines to judge (`Ok(Verdict::Skipped)` —
//! e.g. a budget cap fired, so result sets are legitimately incomparable),
//! or reports a divergence (`Err` with a description). An `Err` is always
//! a real finding: two independent computations of the same quantity
//! disagreed.

use cfl_baselines::{Matcher, Vf2};
use cfl_graph::{canonical_query, graph_from_edges, Graph, GraphDelta, VertexId};
use cfl_match::{
    Budget, DataGraph, EmbeddingChecksum, MatchConfig, OrderStrategy, PlanCache, PruningKind,
};
use std::sync::Arc;

use crate::spec::Case;

/// Embedding budget per engine run. High enough that small cases complete
/// (comparisons are exact), low enough that a dense 46-vertex data graph
/// cannot stall the harness.
const EMB_CAP: u64 = 5_000;

/// Outcome of a target on one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The differential comparison ran to completion and agreed.
    Checked,
    /// The case was not comparable (reason attached); not a finding.
    Skipped(&'static str),
}

/// A named differential target.
pub type Target = fn(&Case) -> Result<Verdict, String>;

/// All targets, by CLI name.
pub const TARGETS: &[(&str, Target)] = &[
    ("cfl-vs-vf2", cfl_vs_vf2),
    ("flat-vs-nested", flat_vs_nested),
    ("thread-checksum", thread_checksum),
    ("canon-fingerprint", canon_fingerprint),
    ("delta-identity", delta_identity),
    ("strategy-identity", strategy_identity),
];

/// Looks up a target by name.
pub fn by_name(name: &str) -> Option<Target> {
    TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, target)| target)
}

/// Compares two embedding sets (order-insensitive). Factored out so the
/// comparison itself is unit-testable against seeded divergences.
pub(crate) fn compare_embedding_sets(
    mut a: Vec<Vec<VertexId>>,
    mut b: Vec<Vec<VertexId>>,
    a_name: &str,
    b_name: &str,
) -> Result<(), String> {
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        let only_a = a.iter().find(|m| b.binary_search(m).is_err());
        let only_b = b.iter().find(|m| a.binary_search(m).is_err());
        return Err(format!(
            "embedding sets diverge: {a_name} has {} embeddings, {b_name} has {}; \
             first only-{a_name}: {only_a:?}; first only-{b_name}: {only_b:?}",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// CFL-Match vs VF2: both enumerate the full embedding set of the case
/// (under a shared budget) and the sets must be identical. VF2 shares no
/// code with the CFL pipeline past the `Graph` type, so an agreement is
/// strong evidence the CPI/ordering/enumeration stack is sound for this
/// case.
pub fn cfl_vs_vf2(case: &Case) -> Result<Verdict, String> {
    let budget = Budget::first(EMB_CAP);
    let cfg = MatchConfig::exhaustive().with_budget(budget.clone());

    let mut cfl = Vec::new();
    let cfl_report = cfl_match::find_embeddings(&case.q, &case.g, &cfg, |m| {
        cfl.push(m.to_vec());
        true
    });
    let mut vf2 = Vec::new();
    let vf2_report = Vf2.find(&case.q, &case.g, budget, &mut |m| {
        vf2.push(m.to_vec());
        true
    });

    match (cfl_report, vf2_report) {
        (Err(a), Err(b)) => {
            if a == b {
                Ok(Verdict::Checked)
            } else {
                Err(format!("engines reject differently: cfl={a:?} vf2={b:?}"))
            }
        }
        (Err(a), Ok(_)) => Err(format!("only cfl rejects the case: {a:?}")),
        (Ok(_), Err(b)) => Err(format!("only vf2 rejects the case: {b:?}")),
        (Ok(cr), Ok(vr)) => {
            if !cr.outcome.is_complete() || !vr.outcome.is_complete() {
                return Ok(Verdict::Skipped("budget cap reached"));
            }
            if cr.embeddings != vr.embeddings {
                return Err(format!(
                    "embedding counts diverge: cfl={} vf2={}",
                    cr.embeddings, vr.embeddings
                ));
            }
            compare_embedding_sets(cfl, vf2, "cfl", "vf2")?;
            Ok(Verdict::Checked)
        }
    }
}

/// Flat-arena CPI freeze vs the naive nested reference freeze (via the
/// `oracle` feature of `cfl-match`): element-for-element equality, before
/// and after bottom-up refinement.
pub fn flat_vs_nested(case: &Case) -> Result<Verdict, String> {
    cfl_match::oracle::flat_matches_nested(&case.q, &case.g)?;
    Ok(Verdict::Checked)
}

/// One splitmix64 step: the per-case deterministic randomness source for
/// the canonicalization and delta targets. Seeded from the case content
/// (not wall-clock or a global counter), so every replay of a persisted
/// input exercises the exact same permutations and edge toggles.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv_mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a over the case's structure: the seed for [`splitmix`].
fn case_seed(case: &Case) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_mix(h, case.q.num_vertices() as u64);
    for v in case.q.vertices() {
        h = fnv_mix(h, u64::from(case.q.label(v).0));
    }
    for (a, b) in case.q.edges() {
        h = fnv_mix(h, (u64::from(a) << 32) | u64::from(b));
    }
    h = fnv_mix(h, case.g.num_vertices() as u64);
    h = fnv_mix(h, case.g.num_edges() as u64);
    h = fnv_mix(h, case.threads as u64);
    h
}

/// The seed-derived permutation of `0..n` that [`permuted_query`]
/// applies: `perm[v]` is the new id of original vertex `v`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    // Fisher-Yates.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Rebuilds `q` under a seed-derived vertex permutation (same labels and
/// edges, renumbered vertices).
fn permuted_query(q: &Graph, seed: u64) -> Result<Graph, String> {
    let n = q.num_vertices();
    let perm = permutation(n, seed);
    let mut labels = vec![0u32; n];
    for v in q.vertices() {
        labels[perm[v as usize] as usize] = q.label(v).0;
    }
    let edges: Vec<(VertexId, VertexId)> = q
        .edges()
        .map(|(a, b)| (perm[a as usize], perm[b as usize]))
        .collect();
    graph_from_edges(&labels, &edges)
        .map_err(|e| format!("permuted query failed to rebuild: {e:?}"))
}

/// Rebuilds `q` with every label shifted by one (an injective label
/// renaming that cannot be label-preserving-isomorphic to the original).
fn relabeled_query(q: &Graph) -> Result<Graph, String> {
    let labels: Vec<u32> = q.vertices().map(|v| q.label(v).0 + 1).collect();
    let edges: Vec<(VertexId, VertexId)> = q.edges().collect();
    graph_from_edges(&labels, &edges)
        .map_err(|e| format!("relabeled query failed to rebuild: {e:?}"))
}

/// Canonicalization and plan-cache identity under vertex permutation.
///
/// A seed-derived permutation of the query must produce (a) the same
/// 128-bit fingerprint, (b) the same concrete canonical form, and (c) on
/// a cache-enabled session primed with the original query, a guaranteed
/// plan-cache hit whose remapped embedding set is identical to a cold
/// uncached run. An injective *label* renaming must keep the fingerprint
/// (it hashes first-occurrence-renamed labels) while breaking
/// `same_concrete_form`, which is exactly the split the cache key relies
/// on to keep relabeled isomorphs from aliasing.
pub fn canon_fingerprint(case: &Case) -> Result<Verdict, String> {
    let qp = permuted_query(&case.q, case_seed(case))?;
    let (c0, cp) = match (canonical_query(&case.q), canonical_query(&qp)) {
        (None, None) => return Ok(Verdict::Skipped("canonicalization budget exhausted")),
        (Some(a), Some(b)) => (a, b),
        (a, b) => {
            return Err(format!(
                "canonicalization bailout is not permutation-invariant: \
                 original={} permuted={}",
                a.is_some(),
                b.is_some()
            ));
        }
    };
    if c0.fingerprint != cp.fingerprint {
        return Err(format!(
            "fingerprint diverges under vertex permutation: \
             original={:#034x} permuted={:#034x}",
            c0.fingerprint, cp.fingerprint
        ));
    }
    if !c0.same_concrete_form(&cp) {
        return Err("permuted query lost its concrete canonical form".to_owned());
    }
    for (p, &v) in c0.order.iter().enumerate() {
        if c0.perm[v as usize] != p as u32 {
            return Err(format!(
                "canonical order/perm are not inverse witnesses at position {p}"
            ));
        }
        if case.q.label(v).0 != c0.canon_labels[p] {
            return Err(format!(
                "canon_labels[{p}] does not match the witnessed vertex label"
            ));
        }
    }

    let shifted = relabeled_query(&case.q)?;
    let Some(cs) = canonical_query(&shifted) else {
        return Err("canonicalization bailout is not label-renaming-invariant".to_owned());
    };
    if cs.fingerprint != c0.fingerprint {
        return Err(format!(
            "fingerprint is not label-renaming-invariant: \
             original={:#034x} relabeled={:#034x}",
            c0.fingerprint, cs.fingerprint
        ));
    }
    if cs.same_concrete_form(&c0) {
        return Err("relabeled query aliases the original's concrete form".to_owned());
    }

    // End-to-end: prime a cache-enabled session with the original query,
    // then run the permuted isomorph (a guaranteed hit — canonicalization
    // succeeded for both) against an uncached run of the same query.
    let cfg = MatchConfig::exhaustive().with_budget(Budget::first(EMB_CAP));
    let cached = DataGraph::with_cache(&case.g);
    let uncached = DataGraph::new(&case.g);
    let prime = cached.collect_embeddings(&case.q, &cfg);
    let hit = cached.collect_embeddings(&qp, &cfg);
    let cold = uncached.collect_embeddings(&qp, &cfg);
    match (prime, hit, cold) {
        (Err(_), Err(b), Err(c)) => {
            if b == c {
                Ok(Verdict::Checked)
            } else {
                Err(format!(
                    "cached and uncached sessions reject differently: \
                     cached={b:?} uncached={c:?}"
                ))
            }
        }
        (Ok((_, prime_rep)), Ok((hit_embs, hit_rep)), Ok((cold_embs, cold_rep))) => {
            let stats = cached
                .plan_cache()
                .ok_or("cache-enabled session lost its plan cache")?
                .snapshot();
            if stats.lookups != 2 || stats.hits + stats.misses != stats.lookups {
                return Err(format!(
                    "plan-cache accounting broken: lookups={} hits={} misses={}",
                    stats.lookups, stats.hits, stats.misses
                ));
            }
            if stats.hits != 1 {
                return Err(format!(
                    "isomorphic repeat failed to hit the plan cache \
                     (hits={}, misses={})",
                    stats.hits, stats.misses
                ));
            }
            if !prime_rep.outcome.is_complete()
                || !hit_rep.outcome.is_complete()
                || !cold_rep.outcome.is_complete()
            {
                return Ok(Verdict::Skipped("budget cap reached"));
            }
            compare_embedding_sets(
                hit_embs.into_iter().map(|e| e.mapping).collect(),
                cold_embs.into_iter().map(|e| e.mapping).collect(),
                "cache-hit",
                "cold",
            )?;
            Ok(Verdict::Checked)
        }
        _ => Err("plan cache changes which queries are rejected".to_owned()),
    }
}

/// Plans carried across deltas vs cold rebuilds.
///
/// Primes a plan cache with the case's query through a cached
/// [`DataGraph`] session, then walks a seed-derived sequence of edge
/// toggles (existing edge → delete, absent pair → insert) applied as
/// [`GraphDelta`] batches, carrying the plan across each one with
/// [`PlanCache::refresh`]. After every batch a retained plan's CPI
/// checksum must equal a fresh one-shot build on the successor graph, and
/// the cached session's embedding checksum and count must equal a one-shot
/// run's. That session run also re-prepares a plan the refresh dropped, so
/// every step has a plan to carry.
pub fn delta_identity(case: &Case) -> Result<Verdict, String> {
    /// Refresh steps per case and toggle attempts per batch.
    const STEPS: usize = 4;
    const OPS_PER_STEP: usize = 3;

    let cfg = MatchConfig::exhaustive().with_budget(Budget::first(EMB_CAP));
    let cache = Arc::new(PlanCache::new(4));
    if let Err(e) = session_checksum(&case.q, &case.g, &cache, &cfg) {
        return match cfl_match::prepare(&case.q, &case.g, &cfg) {
            Err(f) if e == f => Ok(Verdict::Checked),
            Err(f) => Err(format!(
                "cached session and one-shot prepare reject differently: \
                 {e:?} vs {f:?}"
            )),
            Ok(_) => Err(format!("only the cached session rejects: {e:?}")),
        };
    }

    let nv = case.g.num_vertices() as u64;
    if nv < 2 {
        return Ok(Verdict::Skipped("data graph too small for edge toggles"));
    }
    let mut state = case_seed(case) ^ 0x0005_eedd_e17a_5eed_u64;
    let mut g = case.g.clone();
    for _ in 0..STEPS {
        let mut delta = GraphDelta::new();
        let mut used: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..OPS_PER_STEP {
            let a = (splitmix(&mut state) % nv) as VertexId;
            let b = (splitmix(&mut state) % nv) as VertexId;
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if used.contains(&key) {
                continue;
            }
            used.push(key);
            if g.neighbors(key.0).contains(&key.1) {
                delta.delete(key.0, key.1);
            } else {
                delta.insert(key.0, key.1);
            }
        }
        if delta.is_empty() {
            continue;
        }
        let applied = g
            .apply_delta(&delta)
            .map_err(|e| format!("toggle batch rejected: {e:?}"))?;
        let retained = cache.refresh(&g, &applied);
        g = applied.graph;
        if retained > 1 {
            return Err(format!(
                "refresh retained {retained} plans from a one-plan cache"
            ));
        }

        let fresh = cfl_match::prepare(&case.q, &g, &cfg)
            .map_err(|e| format!("fresh prepare fails on the successor graph: {e:?}"))?;
        if retained == 1 {
            let carried = cfl_match::oracle::cached_plan_checksum(&cache, &case.q, g.epoch(), &cfg)
                .ok_or("refresh reported a retained plan, but none is resident")?;
            let fc = fresh.cpi.checksum();
            if carried != fc {
                return Err(format!(
                    "retained plan diverges from a fresh rebuild at epoch {}: \
                     carried={carried:#018x} fresh={fc:#018x}",
                    g.epoch()
                ));
            }
        }
        let served = session_checksum(&case.q, &g, &cache, &cfg)
            .map_err(|e| format!("cached session fails where fresh prepare succeeded: {e:?}"))?;
        let mut one_shot = EmbeddingChecksum::new();
        let _ = cfl_match::find_embeddings(&case.q, &g, &cfg, |m| {
            one_shot.update(m);
            true
        })
        .map_err(|e| format!("one-shot run fails where fresh prepare succeeded: {e:?}"))?;
        if served != one_shot {
            return Err(format!(
                "cached session diverges from a one-shot run at epoch {} \
                 ({} plan retained): session {} embeddings {:#018x}, \
                 one-shot {} embeddings {:#018x}",
                g.epoch(),
                retained,
                served.count(),
                served.digest(),
                one_shot.count(),
                one_shot.digest()
            ));
        }
    }
    Ok(Verdict::Checked)
}

/// Runs `q` on `g` through a session sharing `cache`, folding its
/// embeddings into a checksum.
fn session_checksum(
    q: &Graph,
    g: &Graph,
    cache: &Arc<PlanCache>,
    cfg: &MatchConfig,
) -> Result<EmbeddingChecksum, cfl_match::Error> {
    let mut sum = EmbeddingChecksum::new();
    let _ = DataGraph::new(g)
        .with_plan_cache(Arc::clone(cache))
        .find_embeddings(q, cfg, |m| {
            sum.update(m);
            true
        })?;
    Ok(sum)
}

/// Every (ordering × pruning) strategy combination vs the default pair.
///
/// Failing-set pruning and adaptive ordering change which parts of the
/// search tree are visited, never what is emitted: each of the four
/// combinations must produce exactly the embedding set of the
/// static-order / plain-backtracking reference, on a cold preparation and
/// on a plan-cache hit (a cached session primed with the query, then run
/// on a seed-permuted isomorph whose embeddings the session remaps).
/// Budgeted runs that hit the cap are skipped — under a cap the
/// strategies legitimately emit different prefixes of the full set.
pub fn strategy_identity(case: &Case) -> Result<Verdict, String> {
    const COMBOS: [(OrderStrategy, PruningKind); 4] = [
        (OrderStrategy::Greedy, PruningKind::Plain),
        (OrderStrategy::Greedy, PruningKind::FailingSet),
        (OrderStrategy::Adaptive, PruningKind::Plain),
        (OrderStrategy::Adaptive, PruningKind::FailingSet),
    ];
    let base = MatchConfig::exhaustive().with_budget(Budget::first(EMB_CAP));

    // Reference run: the default strategies. Every other combination is
    // compared against it, including how it *rejects* malformed cases.
    let mut reference = Vec::new();
    let ref_report = cfl_match::find_embeddings(&case.q, &case.g, &base, |m| {
        reference.push(m.to_vec());
        true
    });

    for (order, pruning) in COMBOS {
        let cfg = MatchConfig {
            order,
            ..base.clone()
        }
        .with_pruning(pruning);
        let mut embs = Vec::new();
        let report = cfl_match::find_embeddings(&case.q, &case.g, &cfg, |m| {
            embs.push(m.to_vec());
            true
        });
        match (&ref_report, report) {
            (Err(a), Err(b)) => {
                if *a != b {
                    return Err(format!(
                        "strategies reject differently: default={a:?} \
                         {order:?}/{pruning:?}={b:?}"
                    ));
                }
            }
            (Err(a), Ok(_)) => {
                return Err(format!(
                    "only the default strategies reject the case: {a:?} \
                     (accepted by {order:?}/{pruning:?})"
                ));
            }
            (Ok(_), Err(b)) => {
                return Err(format!(
                    "only {order:?}/{pruning:?} rejects the case: {b:?}"
                ));
            }
            (Ok(rr), Ok(cr)) => {
                if !rr.outcome.is_complete() || !cr.outcome.is_complete() {
                    return Ok(Verdict::Skipped("budget cap reached"));
                }
                compare_embedding_sets(embs, reference.clone(), "combo", "default")
                    .map_err(|e| format!("{order:?}/{pruning:?}: {e}"))?;
                let Some(hit) = cache_hit_embeddings(case, &cfg)
                    .map_err(|e| format!("plan-cache hit {order:?}/{pruning:?}: {e}"))?
                else {
                    continue;
                };
                compare_embedding_sets(hit, reference.clone(), "cache-hit", "default")
                    .map_err(|e| format!("plan-cache hit {order:?}/{pruning:?}: {e}"))?;
            }
        }
    }
    Ok(Verdict::Checked)
}

/// Runs the case's query on a cached session primed with it, through a
/// seed-permuted isomorph, and returns the hit's embeddings mapped back
/// into the original query's numbering. `None` when the canonicalizer
/// gave up on the query, so no lookup can hit.
fn cache_hit_embeddings(
    case: &Case,
    cfg: &MatchConfig,
) -> Result<Option<Vec<Vec<VertexId>>>, String> {
    if canonical_query(&case.q).is_none() {
        return Ok(None);
    }
    let seed = case_seed(case);
    let qp = permuted_query(&case.q, seed)?;
    let session = DataGraph::with_cache(&case.g);
    let _ = session
        .count_embeddings(&case.q, cfg)
        .map_err(|e| format!("priming run fails: {e:?}"))?;
    let mut embs = Vec::new();
    let report = session
        .find_embeddings(&qp, cfg, |m| {
            embs.push(m.to_vec());
            true
        })
        .map_err(|e| format!("fails on the permuted query: {e:?}"))?;
    let stats = session
        .plan_cache()
        .ok_or("cache-enabled session lost its plan cache")?
        .snapshot();
    if stats.hits != 1 {
        return Err(format!(
            "permuted query missed the plan cache (hits={}, misses={})",
            stats.hits, stats.misses
        ));
    }
    if !report.outcome.is_complete() {
        return Err(format!(
            "hit stopped early ({:?}) where the cold run completed",
            report.outcome
        ));
    }
    // `permuted_query` gave original vertex `v` the id `perm[v]`.
    let perm = permutation(case.q.num_vertices(), seed);
    Ok(Some(
        embs.into_iter()
            .map(|m| perm.iter().map(|&p| m[p as usize]).collect())
            .collect(),
    ))
}

/// 1-thread vs N-thread identity: the CPI checksum must be byte-identical
/// across build thread counts, and so must the (budgeted) embedding count
/// enumerated over each build.
pub fn thread_checksum(case: &Case) -> Result<Verdict, String> {
    let budget = Budget::first(EMB_CAP);
    let cfg1 = MatchConfig::exhaustive()
        .with_budget(budget.clone())
        .with_build_threads(1);
    let cfg_n = MatchConfig::exhaustive()
        .with_budget(budget)
        .with_build_threads(case.threads);

    let p1 = cfl_match::prepare(&case.q, &case.g, &cfg1);
    let pn = cfl_match::prepare(&case.q, &case.g, &cfg_n);
    match (p1, pn) {
        (Err(a), Err(b)) => {
            return if a == b {
                Ok(Verdict::Checked)
            } else {
                Err(format!(
                    "prepare rejects differently: serial={a:?} parallel={b:?}"
                ))
            };
        }
        (Err(a), Ok(_)) => return Err(format!("only serial prepare rejects: {a:?}")),
        (Ok(_), Err(b)) => return Err(format!("only parallel prepare rejects: {b:?}")),
        (Ok(p1), Ok(pn)) => {
            let (c1, cn) = (p1.cpi.checksum(), pn.cpi.checksum());
            if c1 != cn {
                return Err(format!(
                    "CPI checksum diverges at {} build threads: \
                     serial={c1:#018x} parallel={cn:#018x}",
                    case.threads
                ));
            }
        }
    }

    let serial = cfl_match::count_embeddings(&case.q, &case.g, &cfg1)
        .map_err(|e| format!("serial-build count failed after prepare succeeded: {e:?}"))?;
    let parallel = cfl_match::count_embeddings(&case.q, &case.g, &cfg_n)
        .map_err(|e| format!("parallel-build count failed after prepare succeeded: {e:?}"))?;
    if !serial.outcome.is_complete() || !parallel.outcome.is_complete() {
        return Ok(Verdict::Skipped("budget cap reached"));
    }
    if serial.embeddings != parallel.embeddings {
        return Err(format!(
            "embedding counts diverge at {} build threads: serial={} parallel={}",
            case.threads, serial.embeddings, parallel.embeddings
        ));
    }
    Ok(Verdict::Checked)
}
