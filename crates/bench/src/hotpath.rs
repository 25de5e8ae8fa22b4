//! Tracked hot-path microbenchmarks.
//!
//! One fixed, cached workload (see [`HotpathWorkload::standard`]) drives
//! four measurements — CPI construction, core-heavy matching, leaf-heavy
//! matching, and end-to-end comparisons against the VF2 and TurboISO
//! baselines — that every perf-sensitive PR records into a `BENCH_*.json`
//! file at the repo root. The `hotpath` binary (and the criterion bench of
//! the same name) both run these functions, so the tracked JSON numbers and
//! the interactive bench agree by construction.
//!
//! The data graph and query sets are cached through
//! [`cfl_datasets::cached_synthetic`] keyed by generator params + seed +
//! generator version, so repeated runs skip regeneration and measure
//! against bit-identical inputs. Every run records its thread count,
//! workload seed, and [`cfl_graph::GENERATOR_VERSION`] in the JSON so two
//! `BENCH_*.json` files are comparable by inspection, and the CPI-build
//! checksum is the flat-arena FNV digest ([`cfl_match::Cpi::checksum`]) so
//! a parallel build that diverges from the serial reference by even one
//! byte fails the CI `--check-against` gate.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cfl_baselines::{Matcher, TurboIso, Vf2};
use cfl_datasets::cached_synthetic;
use cfl_graph::{query_set, Graph, GraphDelta, QueryDensity, SyntheticConfig};
use cfl_match::{
    count_embeddings, Budget, Cpi, CpiMode, DataGraph, FilterContext, GraphStats, MatchConfig,
    OrderingKind, PlanCache, PruningKind,
};
use std::sync::Arc;

/// The fixed benchmark inputs: one cached synthetic data graph plus dense
/// (core-heavy) and sparse (leaf-heavy) query sets extracted from it.
pub struct HotpathWorkload {
    /// The data graph.
    pub g: Graph,
    /// Non-sparse queries exercising core-match (non-tree-edge checks).
    pub dense: Vec<Graph>,
    /// Sparse queries exercising forest- and leaf-match.
    pub sparse: Vec<Graph>,
}

/// Where generated benchmark graphs are cached between runs.
pub fn cache_dir() -> PathBuf {
    // target/ sits next to the workspace Cargo.toml two levels up from this
    // crate; fall back to the system temp dir if the layout ever changes.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let target = manifest.join("../../target");
    if target.is_dir() {
        target.join("bench-cache")
    } else {
        std::env::temp_dir().join("cfl-bench-cache")
    }
}

/// Seed of the generated benchmark data graph, recorded in the JSON
/// alongside [`cfl_graph::GENERATOR_VERSION`] so tracked numbers name the
/// exact workload they measured.
pub const WORKLOAD_SEED: u64 = 4242;

impl HotpathWorkload {
    /// The standard tracked workload. `quick` shrinks everything (~20×) for
    /// CI smoke runs; tracked numbers always use `quick = false`.
    pub fn standard(quick: bool) -> Self {
        let cfg = if quick {
            SyntheticConfig {
                num_vertices: 2_000,
                avg_degree: 8.0,
                num_labels: 12,
                label_exponent: 1.0,
                twin_fraction: 0.1,
                seed: WORKLOAD_SEED,
            }
        } else {
            SyntheticConfig {
                num_vertices: 30_000,
                avg_degree: 8.0,
                num_labels: 24,
                label_exponent: 1.0,
                twin_fraction: 0.1,
                seed: WORKLOAD_SEED,
            }
        };
        let g = cached_synthetic(cache_dir(), &cfg).unwrap_or_else(|_| {
            // Cache directory unavailable (read-only checkout): generate.
            cfl_graph::synthetic_graph(&cfg)
        });
        let n = if quick { 2 } else { 5 };
        let dense = query_set(&g, 10, QueryDensity::NonSparse, n, 7);
        let sparse = query_set(&g, 12, QueryDensity::Sparse, n, 11);
        HotpathWorkload { g, dense, sparse }
    }
}

/// One pass of the CPI-build measurement: constructs the refined CPI for
/// every dense query on `threads` build threads and returns a digest of
/// the flat arenas ([`Cpi::checksum`]) — both an optimizer sink and the
/// byte-identity witness the CI `--check-against` gate compares across
/// thread counts.
pub fn cpi_build_once(w: &HotpathWorkload, g_stats: &GraphStats, threads: usize) -> u64 {
    let mut total = 0u64;
    for q in w.dense.iter().chain(&w.sparse) {
        let q_stats = GraphStats::build(q);
        let ctx = FilterContext::new(q, &w.g, &q_stats, g_stats);
        let core = cfl_graph::two_core(q);
        let eligible: Vec<u32> = if core.contains(&true) {
            (0..q.num_vertices() as u32)
                .filter(|&v| core[v as usize])
                .collect()
        } else {
            (0..q.num_vertices() as u32).collect()
        };
        let (root, root_cands) = cfl_match::select_root_with_candidates(&ctx, &eligible);
        let cpi = Cpi::build_seeded(&ctx, root, root_cands, CpiMode::TopDownRefined, threads);
        total = total
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(cpi.checksum());
    }
    total
}

/// One pass of the core-match measurement: counts embeddings of every dense
/// query (capped), exercising row walks, visited checks, and non-tree-edge
/// validation.
pub fn core_match_once(w: &HotpathWorkload, cap: u64) -> u64 {
    core_match_with(w, cap, OrderingKind::StaticPath, PruningKind::Plain)
}

/// The core-match pass under an explicit (ordering × pruning) strategy
/// pair. The embedding-count fold is strategy-independent, so every
/// variant of this series shares `core_match`'s checksum — `run_suite`
/// asserts it.
pub fn core_match_with(
    w: &HotpathWorkload,
    cap: u64,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> u64 {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_ordering(ordering)
        .with_pruning(pruning);
    let mut total = 0u64;
    for q in &w.dense {
        total = total.wrapping_add(count_embeddings(q, &w.g, &cfg).map_or(0, |r| r.embeddings));
    }
    total
}

/// One pass of the leaf-match measurement: counts embeddings of every
/// sparse query (capped), exercising forest-match and the combinatorial
/// leaf phase.
pub fn leaf_match_once(w: &HotpathWorkload, cap: u64) -> u64 {
    leaf_match_with(w, cap, OrderingKind::StaticPath, PruningKind::Plain)
}

/// The leaf-match pass under an explicit strategy pair.
pub fn leaf_match_with(
    w: &HotpathWorkload,
    cap: u64,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> u64 {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_ordering(ordering)
        .with_pruning(pruning);
    let mut total = 0u64;
    for q in &w.sparse {
        total = total.wrapping_add(count_embeddings(q, &w.g, &cfg).map_or(0, |r| r.embeddings));
    }
    total
}

/// One pass of the full CFL pipeline over every query (dense + sparse),
/// returning the accumulated prepare time (CPI build + ordering) and
/// enumeration time from [`cfl_match::MatchStats`] plus the embedding
/// count. Both phase timers tick inside the same run, so the tracked
/// build/match split always sums to (just under) the end-to-end number
/// instead of coming from two separately-noisy runs.
pub fn end_to_end_split_once(
    w: &HotpathWorkload,
    cap: u64,
    threads: usize,
) -> (Duration, Duration, u64) {
    end_to_end_split_with(
        w,
        cap,
        threads,
        OrderingKind::StaticPath,
        PruningKind::Plain,
    )
}

/// The phase-split end-to-end pass under an explicit strategy pair.
pub fn end_to_end_split_with(
    w: &HotpathWorkload,
    cap: u64,
    threads: usize,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> (Duration, Duration, u64) {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_build_threads(threads)
        .with_ordering(ordering)
        .with_pruning(pruning);
    let mut build = Duration::ZERO;
    let mut enumerate = Duration::ZERO;
    let mut total = 0u64;
    for q in w.dense.iter().chain(&w.sparse) {
        let Ok(r) = count_embeddings(q, &w.g, &cfg) else {
            continue;
        };
        build += r.stats.total_ordering_time();
        enumerate += r.stats.enumeration_time;
        total = total.wrapping_add(r.embeddings);
    }
    (build, enumerate, total)
}

/// One pass of an end-to-end baseline comparison (capped count over the
/// sparse queries) for a named matcher.
pub fn end_to_end_once(w: &HotpathWorkload, matcher: &dyn Matcher, cap: u64) -> u64 {
    let mut total = 0u64;
    for q in &w.sparse {
        total = total.wrapping_add(
            matcher
                .count(q, &w.g, Budget::first(cap))
                .map_or(0, |r| r.embeddings),
        );
    }
    total
}

/// One untimed, fully traced pass over the whole workload, returning the
/// accumulated trace report as JSON. Returns `None` unless the engine was
/// built with its `trace` feature (enable via this crate's `trace`
/// feature) — the hotpath binary embeds the result as the `stats` block
/// next to its checksums, and `None` renders as JSON `null`.
///
/// Build counters accumulate across queries (each query's CPI build adds
/// its kills into the same sink snapshot — the per-query reports are
/// summed field-wise), workers concatenate.
pub fn trace_sample(w: &HotpathWorkload, cap: u64, threads: usize) -> Option<String> {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_build_threads(threads);
    let mut sum: Option<cfl_match::TraceReport> = None;
    for q in w.dense.iter().chain(&w.sparse) {
        let r = count_embeddings(q, &w.g, &cfg).ok()?;
        let t = r.stats.trace?;
        match &mut sum {
            None => sum = Some(*t),
            Some(acc) => merge_trace(acc, &t),
        }
    }
    sum.map(|t| t.to_json())
}

/// Field-wise sum of two trace reports (workers concatenate). Per-vertex
/// candidate counts are only meaningful per query, so the merged report
/// clears them — `cfl_verify::check_trace` treats an empty vector as
/// "not recorded".
fn merge_trace(acc: &mut cfl_match::TraceReport, t: &cfl_match::TraceReport) {
    acc.cpi.candidates_per_vertex.clear();
    let a = &mut acc.build;
    let b = &t.build;
    a.topdown_ns += b.topdown_ns;
    a.refine_ns += b.refine_ns;
    a.prune_ns += b.prune_ns;
    a.freeze_ns += b.freeze_ns;
    a.seeded += b.seeded;
    a.adjacency_kills += b.adjacency_kills;
    a.mnd_kills += b.mnd_kills;
    a.nlf_kills += b.nlf_kills;
    a.snte_kills += b.snte_kills;
    a.refine_kills += b.refine_kills;
    a.unreachable_kills += b.unreachable_kills;
    a.final_candidates += b.final_candidates;
    a.accounting_exact &= b.accounting_exact;
    acc.cpi.arena_bytes += t.cpi.arena_bytes;
    acc.cpi.total_candidates += t.cpi.total_candidates;
    acc.cpi.total_edges += t.cpi.total_edges;
    acc.workers.extend(t.workers.iter().cloned());
}

/// Inputs for the bitset-kernel microbenchmark: every adjacency row of the
/// [`cfl_datasets::kernel_stress_suite`]'s dense circulant, probed against
/// vertex 0's neighborhood set.
pub struct KernelWorkload {
    bitset_rows: Vec<Vec<u32>>,
    set: cfl_graph::FixedBitSet,
}

impl KernelWorkload {
    /// Builds the microbenchmark inputs at the same scale the adversarial
    /// end-to-end series use (`quick` shrinks every instance).
    pub fn standard(quick: bool) -> Self {
        let suite = cfl_datasets::kernel_stress_suite(if quick { 1 } else { 4 });
        let circ = suite
            .iter()
            .find(|(n, _, _)| *n == "dense_circulant")
            .map_or_else(
                || unreachable!("suite instance dense_circulant exists"),
                |(_, _, g)| g,
            );
        let mut set = cfl_graph::FixedBitSet::new(circ.num_vertices());
        set.insert_all(circ.neighbors(0));
        let bitset_rows = circ
            .vertices()
            .map(|v| circ.neighbors(v).to_vec())
            .collect();
        KernelWorkload { bitset_rows, set }
    }
}

/// Digest of an intersection result.
fn digest(acc: u64, out: &[u32]) -> u64 {
    out.iter().fold(
        acc.wrapping_mul(0x100_0000_01b3)
            .wrapping_add(out.len() as u64),
        |h, &x| h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(x)),
    )
}

/// One pass of the word-at-a-time bitset microbenchmark (every circulant
/// row intersected with a fixed neighborhood set).
pub fn kernel_bitset_once(kw: &KernelWorkload) -> u64 {
    let mut out = Vec::new();
    let mut acc = 0u64;
    for row in &kw.bitset_rows {
        out.clear();
        cfl_graph::intersect_with_set(row, &kw.set, &mut out);
        acc = digest(acc, &out);
    }
    acc
}

/// One pass of the plan-construction latency series: a budget-1 count of
/// every workload query through `session`. With an uncached session every
/// query pays full plan construction (filters, CPI build, ordering) each
/// pass — the `cold_build` series. With a cache-enabled session the first
/// pass primes the plan cache and every later pass (including every timed
/// one — `measure` warms up first) resolves each query with a fingerprint
/// lookup plus an embedding remap — the `repeat_query_cached` series. The
/// budget of one keeps enumeration out of both measurements without
/// perturbing the cache key (the config signature excludes the budget).
pub fn session_repeat_once(w: &HotpathWorkload, session: &DataGraph) -> u64 {
    let cfg = MatchConfig::exhaustive().with_budget(Budget::first(1));
    let mut total = 0u64;
    for q in w.dense.iter().chain(&w.sparse) {
        total = total.wrapping_add(
            session
                .count_embeddings(q, &cfg)
                .map_or(0, |r| r.embeddings),
        );
    }
    total
}

/// Deterministic toggle set for the maintenance series: up to `count`
/// non-edges of `g`, each with at least one endpoint whose label occurs in
/// `q` (so the plan cache's label-disjoint shortcut never applies), grown
/// greedily so the whole batch — inserted together and deleted together —
/// keeps `q`'s cached plan through [`PlanCache::refresh`] in both
/// directions. The timed `delta_plan_refresh` walk therefore measures the
/// retention proof itself (every refresh returns 1), while
/// `delta_rebuild` pays a full prepare for the same toggles.
pub fn delta_edges(g: &Graph, q: &Graph, cfg: &MatchConfig, count: usize) -> Vec<(u32, u32)> {
    let q_labels: std::collections::BTreeSet<u32> = q.vertices().map(|v| q.label(v).0).collect();
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

    // Greedy batch probe: accept a candidate only if the accepted set plus
    // the candidate still retains as one batch (retention of individual
    // toggles does not imply retention of their union — stat changes
    // accumulate). Each probe round inserts then deletes the trial batch,
    // so the rolling graph always returns to `g`'s structure; a cached
    // session run before each delta re-primes a plan the last one dropped.
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
        for phase in 0..2u8 {
            let mut delta = GraphDelta::new();
            for &(x, y) in &trial {
                if phase == 0 {
                    delta.insert(x, y);
                } else {
                    delta.delete(x, y);
                }
            }
            let primed = DataGraph::new(&cur)
                .with_plan_cache(Arc::clone(&cache))
                .count_embeddings(q, &cfg.clone().with_budget(Budget::first(1)));
            let Ok(applied) = cur.apply_delta(&delta) else {
                all_retained = false;
                break;
            };
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

/// Pre-applies `rounds` insert-then-delete toggle walks, returning the
/// `2 × rounds` [`cfl_graph::AppliedDelta`]s in epoch order. Applying a
/// delta (CSR merge + stat patching) costs the same no matter how the CPI
/// is then brought up to date, so the maintenance series keeps it outside
/// the timed region: the chain is built once here and both the
/// `delta_plan_refresh` and `delta_rebuild` walks consume it, measuring purely
/// the per-delta maintenance strategy. The source graph's stat tables are
/// forced first so every successor carries patched tables.
pub fn delta_chain(g: &Graph, edges: &[(u32, u32)], rounds: usize) -> Vec<cfl_graph::AppliedDelta> {
    let _ = g.stat_tables();
    let mut chain = Vec::with_capacity(rounds * 2);
    let mut cur = g.clone();
    for _ in 0..rounds {
        for phase in 0..2u8 {
            let mut delta = GraphDelta::new();
            for &(a, b) in edges {
                if phase == 0 {
                    delta.insert(a, b);
                } else {
                    delta.delete(a, b);
                }
            }
            let Ok(applied) = cur.apply_delta(&delta) else {
                return chain;
            };
            cur = applied.graph.clone();
            chain.push(applied);
        }
    }
    chain
}

/// One round of the plan-refresh series: carries `q`'s plan in `cache`
/// (resident at the epoch `round` starts from) through a pre-applied
/// insert batch and its reverting delete batch with [`PlanCache::refresh`].
/// The folded CPI checksums of the carried plan are the identity witness
/// compared against the `delta_rebuild` baseline; `retained` counts
/// refreshes that kept the plan (the toggle probe guarantees all of them —
/// `run_suite` asserts it).
pub fn delta_plan_refresh_round(
    cache: &PlanCache,
    q: &Graph,
    cfg: &MatchConfig,
    prev: &Graph,
    round: &[cfl_graph::AppliedDelta],
    retained: &mut usize,
) -> u64 {
    let mut acc = 0u64;
    let mut old = prev;
    for applied in round {
        *retained += cache.refresh(old, applied);
        let Some(checksum) =
            cfl_match::oracle::cached_plan_checksum(cache, q, applied.graph.epoch(), cfg)
        else {
            return 0;
        };
        acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(checksum);
        old = &applied.graph;
    }
    acc
}

/// The rebuild baseline over the same pre-applied round: a full one-shot
/// prepare against each successor graph instead of an incremental
/// refresh. Its checksum fold must equal `delta_plan_refresh_round`'s exactly
/// — `run_suite` asserts it.
pub fn delta_rebuild_round(q: &Graph, round: &[cfl_graph::AppliedDelta], cfg: &MatchConfig) -> u64 {
    let mut acc = 0u64;
    for applied in round {
        let Ok(prepared) = cfl_match::prepare(q, &applied.graph, cfg) else {
            return 0;
        };
        acc = acc
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(prepared.cpi.checksum());
    }
    acc
}

/// One capped end-to-end count over an adversarial instance.
pub fn adversarial_once(q: &Graph, g: &Graph, cap: u64, threads: usize) -> u64 {
    adversarial_with(
        q,
        g,
        cap,
        threads,
        OrderingKind::StaticPath,
        PruningKind::Plain,
    )
}

/// The adversarial end-to-end count under an explicit strategy pair.
pub fn adversarial_with(
    q: &Graph,
    g: &Graph,
    cap: u64,
    threads: usize,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> u64 {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_build_threads(threads)
        .with_ordering(ordering)
        .with_pruning(pruning);
    count_embeddings(q, g, &cfg).map_or(0, |r| r.embeddings)
}

/// One capped count over a pruning-adversarial instance under an explicit
/// strategy pair, returning the **search-node count** rather than the
/// embedding count: the quantity the pruning race tracks is how much of
/// the search tree each backtracking strategy visits, and reporting it as
/// the measurement checksum makes the tracked JSON itself witness the
/// failing-set reduction (the node count is deterministic for a serial
/// run, so it doubles as the workload-identity guard).
pub fn strategy_race_once(
    q: &Graph,
    g: &Graph,
    cap: u64,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> u64 {
    let cfg = MatchConfig::exhaustive()
        .with_budget(Budget::first(cap))
        .with_ordering(ordering)
        .with_pruning(pruning);
    count_embeddings(q, g, &cfg).map_or(0, |r| r.stats.search_nodes)
}

/// The result of one timed measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Best (minimum) wall-clock nanoseconds per pass over `reps` passes —
    /// the noise-robust statistic tracked in `BENCH_*.json`.
    pub min_ns: u64,
    /// Mean nanoseconds per pass.
    pub mean_ns: u64,
    /// Checksum of the measured computation (guards against the workload
    /// silently changing between commits).
    pub checksum: u64,
}

/// Times `f` for `reps` passes after one warm-up pass.
pub fn measure(reps: usize, mut f: impl FnMut() -> u64) -> Measurement {
    let checksum = std::hint::black_box(f()); // warm-up
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed().as_nanos() as u64);
    }
    let min_ns = samples.iter().copied().min().unwrap_or(0);
    let mean_ns = samples.iter().copied().sum::<u64>() / samples.len() as u64;
    Measurement {
        min_ns,
        mean_ns,
        checksum,
    }
}

/// Times a phase-split pass for `reps` passes after one warm-up, returning
/// `[total, build, match]` measurements. The total is wall clock around
/// each pass; the build/match series are the phase timers that ticked
/// inside that same pass, each reduced min/mean independently.
pub fn measure_split(
    reps: usize,
    mut f: impl FnMut() -> (Duration, Duration, u64),
) -> [Measurement; 3] {
    let (_, _, checksum) = std::hint::black_box(f()); // warm-up
    let mut totals = Vec::with_capacity(reps);
    let mut builds = Vec::with_capacity(reps);
    let mut matches = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (build, enumerate, _) = std::hint::black_box(f());
        totals.push(start.elapsed().as_nanos() as u64);
        builds.push(build.as_nanos() as u64);
        matches.push(enumerate.as_nanos() as u64);
    }
    let reduce = |samples: &[u64]| Measurement {
        min_ns: samples.iter().copied().min().unwrap_or(0),
        mean_ns: samples.iter().copied().sum::<u64>() / samples.len() as u64,
        checksum,
    };
    [reduce(&totals), reduce(&builds), reduce(&matches)]
}

/// A full suite run: every tracked measurement, by name. `threads` is the
/// CPI build-thread count used by `cpi_build` and the end-to-end pipeline
/// (enumeration is always single-threaded).
pub fn run_suite(quick: bool, threads: usize) -> Vec<(&'static str, Measurement)> {
    run_suite_with(quick, threads, OrderingKind::StaticPath, PruningKind::Plain)
}

/// The full suite with the engine-driven series pinned to an explicit
/// (ordering × pruning) strategy pair — the hotpath binary's `--order` /
/// `--pruning` overrides land here. Build-side series (CPI construction,
/// kernels, plan cache, delta maintenance) are strategy-independent and
/// keep their defaults; the `core_match_adaptive` contrast series and the
/// pruning race keep their own pinned strategies. Every embedding-fold
/// checksum is strategy-independent, so a `--check-against` gate between
/// two runs of this suite under *different* strategies must still pass —
/// that is exactly the CI identity matrix.
pub fn run_suite_with(
    quick: bool,
    threads: usize,
    ordering: OrderingKind,
    pruning: PruningKind,
) -> Vec<(&'static str, Measurement)> {
    let w = HotpathWorkload::standard(quick);
    let g_stats = GraphStats::build(&w.g);
    let reps = if quick { 3 } else { 7 };
    let cap = if quick { 20_000 } else { 200_000 };
    let vf2 = Vf2;
    let turbo = TurboIso;
    let [e2e, e2e_build, e2e_match] = measure_split(reps, || {
        end_to_end_split_with(&w, cap, threads, ordering, pruning)
    });
    let mut series = vec![
        (
            "cpi_build",
            measure(reps, || cpi_build_once(&w, &g_stats, threads)),
        ),
        (
            "core_match",
            measure(reps, || core_match_with(&w, cap, ordering, pruning)),
        ),
        (
            "core_match_adaptive",
            measure(reps, || {
                core_match_with(&w, cap, OrderingKind::Adaptive, PruningKind::FailingSet)
            }),
        ),
        (
            "leaf_match",
            measure(reps, || leaf_match_with(&w, cap, ordering, pruning)),
        ),
        ("end_to_end_cfl", e2e),
        ("end_to_end_cfl_build", e2e_build),
        ("end_to_end_cfl_match", e2e_match),
        (
            "end_to_end_vf2",
            measure(reps, || end_to_end_once(&w, &vf2, cap)),
        ),
        (
            "end_to_end_turboiso",
            measure(reps, || end_to_end_once(&w, &turbo, cap)),
        ),
    ];

    // Kernel microbenchmark: many passes per sample — a single pass over
    // the rows is microseconds, far below timer noise.
    let kw = KernelWorkload::standard(quick);
    let passes = if quick { 20 } else { 100 };
    series.push((
        "kernel_bitset",
        measure(reps * 3, || {
            let mut acc = 0u64;
            for _ in 0..passes {
                acc = acc.wrapping_add(std::hint::black_box(kernel_bitset_once(&kw)));
            }
            acc
        }),
    ));

    // Plan-cache amortization: the same budget-1 sweep through an uncached
    // and a cache-enabled session. The cached series' timed passes all hit.
    let cold_session = DataGraph::new(&w.g);
    let cached_session = DataGraph::with_cache(&w.g);
    series.push((
        "cold_build",
        measure(reps, || session_repeat_once(&w, &cold_session)),
    ));
    series.push((
        "repeat_query_cached",
        measure(reps, || session_repeat_once(&w, &cached_session)),
    ));

    // Plan refresh vs rebuild-from-scratch over the same pre-applied
    // insert-then-delete toggle chain (delta application is identical work
    // for both strategies and stays untimed). Both series fold the
    // post-delta CPI checksums, so equality of their checksums *is* the
    // carried-plan-equals-rebuild identity.
    let delta_q = &w.dense[0];
    let delta_cfg = MatchConfig::exhaustive().with_build_threads(threads);
    let toggles = delta_edges(&w.g, delta_q, &delta_cfg, 8);
    assert!(
        !toggles.is_empty(),
        "delta toggle probe accepted no edges; the maintenance series would measure nothing"
    );
    // One chain round per measure() call: warm-up plus `reps` samples.
    let chain = delta_chain(&w.g, &toggles, reps + 1);
    assert_eq!(chain.len(), (reps + 1) * 2, "toggle chain failed to apply");
    let cache = Arc::new(PlanCache::new(1));
    let primed = DataGraph::new(&w.g)
        .with_plan_cache(Arc::clone(&cache))
        .count_embeddings(delta_q, &delta_cfg.clone().with_budget(Budget::first(1)));
    assert!(
        primed.is_ok(),
        "plan prepare on the tracked workload failed"
    );
    let mut round = 0usize;
    let mut retained = 0usize;
    let plan_refresh = measure(reps, || {
        // Each round starts from the graph the previous one ended on.
        let prev = if round == 0 {
            &w.g
        } else {
            &chain[round * 2 - 1].graph
        };
        let r = delta_plan_refresh_round(
            &cache,
            delta_q,
            &delta_cfg,
            prev,
            &chain[round * 2..round * 2 + 2],
            &mut retained,
        );
        round += 1;
        r
    });
    assert_eq!(retained, chain.len(), "a timed refresh dropped the plan");
    let mut round = 0usize;
    let rebuild = measure(reps, || {
        let r = delta_rebuild_round(delta_q, &chain[round * 2..round * 2 + 2], &delta_cfg);
        round += 1;
        r
    });
    assert_eq!(
        plan_refresh.checksum, rebuild.checksum,
        "the refreshed plan's CPI diverged from the full rebuild"
    );
    series.push(("delta_plan_refresh", plan_refresh));
    series.push(("delta_rebuild", rebuild));

    // Adversarial end-to-end sweep (same scale as the kernel inputs).
    let adv = cfl_datasets::kernel_stress_suite(if quick { 1 } else { 4 });
    for (name, q, g) in &adv {
        let series_name = match *name {
            "tri_fan" => "adv_tri_fan",
            "power_law_wedge" => "adv_power_law_wedge",
            "dense_circulant" => "adv_dense_circulant",
            _ => continue,
        };
        series.push((
            series_name,
            measure(reps, || {
                adversarial_with(q, g, cap, threads, ordering, pruning)
            }),
        ));
    }

    // The strategy series' embedding fold is strategy-independent, so the
    // adaptive variant must reproduce core_match's checksum exactly.
    let core = series
        .iter()
        .find(|(n, _)| *n == "core_match")
        .unwrap_or_else(|| unreachable!("core_match series exists"));
    let adaptive = series
        .iter()
        .find(|(n, _)| *n == "core_match_adaptive")
        .unwrap_or_else(|| unreachable!("core_match_adaptive series exists"));
    assert_eq!(
        core.1.checksum, adaptive.1.checksum,
        "adaptive ordering changed the core-match embedding fold"
    );

    // Pruning race: plain vs failing-set backtracking over the
    // pruning-adversarial shapes. Both series report search-node counts
    // as their checksum, so the tracked JSON directly quantifies the
    // pruning win — and the suite asserts the ≥2× reduction the shapes
    // are constructed to exhibit.
    let stress = cfl_datasets::pruning_stress_suite(if quick { 1 } else { 2 });
    for (name, q, g) in &stress {
        let (plain_name, failset_name) = match *name {
            "deep_chain_trap" => ("adv_chain_trap_plain", "adv_chain_trap_failset"),
            "conflict_forest" => ("adv_conflict_forest_plain", "adv_conflict_forest_failset"),
            _ => continue,
        };
        let plain = measure(reps, || {
            strategy_race_once(q, g, cap, OrderingKind::StaticPath, PruningKind::Plain)
        });
        let failset = measure(reps, || {
            strategy_race_once(q, g, cap, OrderingKind::StaticPath, PruningKind::FailingSet)
        });
        assert!(
            plain.checksum >= 2 * failset.checksum,
            "failing-set pruning must at least halve the search on {name}: \
             plain {} vs failing-set {} nodes",
            plain.checksum,
            failset.checksum
        );
        series.push((plain_name, plain));
        series.push((failset_name, failset));
    }
    series
}
