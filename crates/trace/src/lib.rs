//! # cfl-trace
//!
//! Observability types for the CFL-Match engine: phase timers, pruning
//! counters, enumeration statistics, and the [`TraceReport`] the engine
//! attaches to every CFL-Match run's `MatchReport`.
//!
//! The crate defines plain data types plus two renderers
//! ([`TraceReport::render_table`] and [`TraceReport::to_json`]). The
//! engine always records: clocks are read only at phase boundaries, and
//! the search pays one indexed increment per node (the depth histogram),
//! so there is no separate instrumented build.
//!
//! Counters follow the paper's pipeline (see `docs/OBSERVABILITY.md` in
//! the repository root for the full catalog with paper anchors):
//!
//! * [`BuildCounters`] / [`BuildTrace`] — CPI construction: per-phase
//!   wall time (top-down §5.2 Algorithm 3, bottom-up refinement §5.2
//!   Algorithm 4, unreachable pruning, freeze) and candidate kills per
//!   filter (adjacency/Lemma 5.1, MND/Lemma A.1, NLF, S-NTE, refinement,
//!   orphan pruning).
//! * [`EnumCounters`] / [`EnumTrace`] — enumeration (§4.2.2–§4.4):
//!   embeddings, backtracks, backjumps, core/forest/leaf node splits and
//!   a partial-match depth histogram.
//! * [`CpiMetrics`] — index size (§4.1, Figure 16(d)): arena bytes and
//!   candidates per query vertex.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};

/// Names one cell of [`BuildCounters`]. The engine records through this
/// enum so its call sites stay one-liners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildCounter {
    /// Candidates that entered a candidate list after the label/degree
    /// seed scan (Algorithm 3 lines 5–8; for the root, the pre-verified
    /// seed list).
    Seeded,
    /// Candidates removed by upper-neighbor adjacency masks (Lemma 5.1's
    /// counter test, realized as bitset retains).
    AdjacencyKills,
    /// Candidates removed by the maximum-neighbor-degree filter
    /// (Lemma A.1, first stage of CandVerify).
    MndKills,
    /// Candidates removed by the 2-hop label-ball / label-pair bloom
    /// filter (l2Match's neighboring-label index; only populated when
    /// `FilterOptions::use_label_pair` is on).
    LabelPairKills,
    /// Candidates removed by the NLF filter (SAPPER \[24\], second stage
    /// of CandVerify — packed or full signature).
    NlfKills,
    /// Candidates removed by same-level S-NTE pruning (Algorithm 3's
    /// backward-interleaved pass).
    SnteKills,
    /// Candidates killed by bottom-up refinement (Algorithm 4).
    RefineKills,
    /// Orphans killed by unreachable-candidate pruning (Algorithm 4
    /// lines 8–11 as realized by `prune_unreachable`).
    UnreachableKills,
    /// Nanoseconds in the top-down construction pass.
    TopDownNs,
    /// Nanoseconds in the bottom-up refinement pass.
    RefineNs,
    /// Nanoseconds in unreachable-candidate pruning.
    PruneNs,
    /// Nanoseconds freezing the builder into the flat arenas.
    FreezeNs,
}

/// Shared sink for CPI-construction counters. Build steps record through
/// a shared reference, so the cells are atomics; relaxed ordering
/// suffices because the values are only read after the build returns.
#[derive(Debug, Default)]
pub struct BuildCounters {
    seeded: AtomicU64,
    adjacency_kills: AtomicU64,
    mnd_kills: AtomicU64,
    lp_kills: AtomicU64,
    nlf_kills: AtomicU64,
    snte_kills: AtomicU64,
    refine_kills: AtomicU64,
    unreachable_kills: AtomicU64,
    topdown_ns: AtomicU64,
    refine_ns: AtomicU64,
    prune_ns: AtomicU64,
    freeze_ns: AtomicU64,
}

impl BuildCounters {
    /// Adds `v` to the named counter.
    #[inline]
    pub fn add(&self, c: BuildCounter, v: u64) {
        let cell = match c {
            BuildCounter::Seeded => &self.seeded,
            BuildCounter::AdjacencyKills => &self.adjacency_kills,
            BuildCounter::MndKills => &self.mnd_kills,
            BuildCounter::LabelPairKills => &self.lp_kills,
            BuildCounter::NlfKills => &self.nlf_kills,
            BuildCounter::SnteKills => &self.snte_kills,
            BuildCounter::RefineKills => &self.refine_kills,
            BuildCounter::UnreachableKills => &self.unreachable_kills,
            BuildCounter::TopDownNs => &self.topdown_ns,
            BuildCounter::RefineNs => &self.refine_ns,
            BuildCounter::PruneNs => &self.prune_ns,
            BuildCounter::FreezeNs => &self.freeze_ns,
        };
        cell.fetch_add(v, Ordering::Relaxed);
    }

    /// Reads every cell into a plain [`BuildTrace`] (done once, after the
    /// build joins; `final_candidates` and `accounting_exact` are filled
    /// by the caller, who knows the frozen index and construction mode).
    #[must_use]
    pub fn snapshot(&self) -> BuildTrace {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed);
        BuildTrace {
            topdown_ns: r(&self.topdown_ns),
            refine_ns: r(&self.refine_ns),
            prune_ns: r(&self.prune_ns),
            freeze_ns: r(&self.freeze_ns),
            seeded: r(&self.seeded),
            adjacency_kills: r(&self.adjacency_kills),
            mnd_kills: r(&self.mnd_kills),
            label_pair_kills: r(&self.lp_kills),
            nlf_kills: r(&self.nlf_kills),
            snte_kills: r(&self.snte_kills),
            refine_kills: r(&self.refine_kills),
            unreachable_kills: r(&self.unreachable_kills),
            final_candidates: 0,
            accounting_exact: false,
        }
    }
}

/// Immutable snapshot of the CPI-construction counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildTrace {
    /// Wall time of the top-down pass (Algorithm 3), nanoseconds.
    pub topdown_ns: u64,
    /// Wall time of bottom-up refinement (Algorithm 4), nanoseconds.
    pub refine_ns: u64,
    /// Wall time of unreachable-candidate pruning, nanoseconds.
    pub prune_ns: u64,
    /// Wall time of the arena freeze, nanoseconds.
    pub freeze_ns: u64,
    /// Candidates that entered a candidate list (see
    /// [`BuildCounter::Seeded`]).
    pub seeded: u64,
    /// Kills by upper-neighbor adjacency masks.
    pub adjacency_kills: u64,
    /// Kills by the MND filter.
    pub mnd_kills: u64,
    /// Kills by the label-pair bloom filter (zero unless enabled).
    pub label_pair_kills: u64,
    /// Kills by the NLF filter.
    pub nlf_kills: u64,
    /// Kills by same-level S-NTE pruning.
    pub snte_kills: u64,
    /// Kills by bottom-up refinement.
    pub refine_kills: u64,
    /// Kills by unreachable-candidate pruning.
    pub unreachable_kills: u64,
    /// Candidate entries surviving into the frozen index.
    pub final_candidates: u64,
    /// Whether the exact accounting identity
    /// `final_candidates = seeded − total_kills()` is guaranteed — true
    /// for the top-down construction modes, false for the naive baseline
    /// (which records nothing).
    pub accounting_exact: bool,
}

impl BuildTrace {
    /// Sum of all per-filter kill counters.
    #[must_use]
    pub fn total_kills(&self) -> u64 {
        self.adjacency_kills
            + self.mnd_kills
            + self.label_pair_kills
            + self.nlf_kills
            + self.snte_kills
            + self.refine_kills
            + self.unreachable_kills
    }
}

/// Plan-cache counters (kept by the cache under its mutex; a caller that
/// holds the cache copies a `PlanCache` snapshot in).
/// `plan_lookups = plan_hits + plan_misses` and
/// `plan_evictions + plan_refusals ≤ plan_misses` are accounting
/// identities `cfl_verify::check_trace` and `check_serve_trace` re-check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheTrace {
    /// Plan-cache consultations (one per prepare through a cached session).
    pub plan_lookups: u64,
    /// Lookups served from a stored plan (CPI construction skipped).
    pub plan_hits: u64,
    /// Lookups that fell through to a cold preparation.
    pub plan_misses: u64,
    /// Entries displaced to make room for a new plan (the coldest one, or
    /// first one at an epoch older than the newest the cache has seen).
    pub plan_evictions: u64,
    /// New plans the cache's frequency admission filter refused: each
    /// returned after an eviction or refusal without having been requested
    /// more often than the coldest entry.
    pub plan_refusals: u64,
    /// Cached plans restamped in place across a delta by the plan cache's
    /// retention proof (`PlanCache::refresh`) instead of going stale with
    /// the epoch bump.
    pub plan_refreshes: u64,
}

impl CacheTrace {
    /// The counters as comma-separated JSON members (no braces), shared by
    /// [`TraceReport::to_json`] and [`ServeTrace::to_json`].
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"plan_lookups\": {}, \"plan_hits\": {}, \"plan_misses\": {}, \
             \"plan_evictions\": {}, \"plan_refusals\": {}, \"plan_refreshes\": {}",
            self.plan_lookups,
            self.plan_hits,
            self.plan_misses,
            self.plan_evictions,
            self.plan_refusals,
            self.plan_refreshes
        )
    }

    /// Adds `other`'s counters into these (summing caches keeps both
    /// identities).
    pub fn accumulate(&mut self, other: &CacheTrace) {
        self.plan_lookups += other.plan_lookups;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plan_evictions += other.plan_evictions;
        self.plan_refusals += other.plan_refusals;
        self.plan_refreshes += other.plan_refreshes;
    }
}

/// Size metrics of the frozen CPI (§4.1; the Figure 16(d) axes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpiMetrics {
    /// Estimated arena heap footprint in bytes.
    pub arena_bytes: u64,
    /// Total candidate entries over all query vertices.
    pub total_candidates: u64,
    /// Total adjacency-row entries.
    pub total_edges: u64,
    /// `|u.C|` per query vertex, indexed by vertex id.
    pub candidates_per_vertex: Vec<u32>,
}

/// Enumeration counters, bumped on the search hot path. Only the depth
/// histogram is touched per ordered search node; the core/forest split is
/// summed from it once, when the enumerator's counters are drained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumCounters {
    /// Retreats from a mapped vertex (each successful mapping is unwound
    /// exactly once, so this also counts successful extensions).
    pub backtracks: u64,
    /// Sibling candidates skipped wholesale by failing-set backjumps (DAF
    /// \[2\]; zero under the plain backtracking strategy). Each unit is one
    /// *decision* to abandon the remaining candidates of a search-tree
    /// node, not one skipped candidate.
    pub backjumps: u64,
    /// Search nodes attempted at core depths (§4.2.2).
    pub core_nodes: u64,
    /// Search nodes attempted at forest depths (§4.3).
    pub forest_nodes: u64,
    /// Search nodes attempted inside the leaf phase (§4.4) — leaf
    /// assignments sit outside the matching order, so they are counted
    /// here rather than in [`EnumCounters::depth_hist`]. The three splits
    /// partition the run's total:
    /// `core_nodes + forest_nodes + leaf_nodes == nodes`.
    pub leaf_nodes: u64,
    /// `depth_hist[d]` = search nodes attempted at partial-match depth
    /// `d` (matching-order position), one slot per order position; sums
    /// to `core_nodes + forest_nodes`.
    pub depth_hist: Vec<u64>,
}

impl EnumCounters {
    /// Zeroed counters with one histogram slot per matching-order
    /// position, so [`bump_node`](Self::bump_node) never resizes.
    #[must_use]
    pub fn with_depths(depths: usize) -> Self {
        EnumCounters {
            depth_hist: vec![0; depths],
            ..Self::default()
        }
    }

    /// Counts one search node attempted at order position `depth`
    /// (`depth` must be below the size given to
    /// [`with_depths`](Self::with_depths)).
    #[inline]
    pub fn bump_node(&mut self, depth: usize) {
        self.depth_hist[depth] += 1;
    }

    /// Fills the core/forest split from the depth histogram: positions
    /// below `core_len` are core depths, the rest forest depths.
    pub fn split_depths(&mut self, core_len: usize) {
        let core = core_len.min(self.depth_hist.len());
        self.core_nodes = self.depth_hist[..core].iter().sum();
        self.forest_nodes = self.depth_hist[core..].iter().sum();
    }
}

/// The enumerator's final tally for one run. Zero throughout when a
/// provably empty preparation skips enumeration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumTrace {
    /// Embeddings the enumerator emitted.
    pub embeddings: u64,
    /// Search nodes the enumerator attempted.
    pub nodes: u64,
    /// Non-tree edge checks the enumerator probed.
    pub nt_checks: u64,
    /// Hot-path counters (backtracks, backjumps, depth histogram, …).
    pub counters: EnumCounters,
}

/// Everything the engine records for one CFL-Match run. Attached to
/// `MatchStats::trace` as `Some(Box<TraceReport>)`; baseline algorithms
/// leave it `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// CPI-construction timers and per-filter kill counters.
    pub build: BuildTrace,
    /// Frozen-index size metrics.
    pub cpi: CpiMetrics,
    /// Plan-cache counters (zero unless the caller copied a cache
    /// snapshot in).
    pub cache: CacheTrace,
    /// The enumeration record.
    pub enumeration: EnumTrace,
}

impl TraceReport {
    /// Renders the report as an aligned human-readable table (the
    /// `--stats` form of the CLI).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str("phase timers (ms)\n");
        out.push_str(&format!(
            "  top-down build      {:>10.3}\n",
            ms(self.build.topdown_ns)
        ));
        out.push_str(&format!(
            "  bottom-up refine    {:>10.3}\n",
            ms(self.build.refine_ns)
        ));
        out.push_str(&format!(
            "  unreachable prune   {:>10.3}\n",
            ms(self.build.prune_ns)
        ));
        out.push_str(&format!(
            "  arena freeze        {:>10.3}\n",
            ms(self.build.freeze_ns)
        ));
        out.push_str("candidate filtering\n");
        out.push_str(&format!(
            "  seeded              {:>10}\n",
            self.build.seeded
        ));
        out.push_str(&format!(
            "  adjacency kills     {:>10}\n",
            self.build.adjacency_kills
        ));
        out.push_str(&format!(
            "  MND kills           {:>10}\n",
            self.build.mnd_kills
        ));
        out.push_str(&format!(
            "  label-pair kills    {:>10}\n",
            self.build.label_pair_kills
        ));
        out.push_str(&format!(
            "  NLF kills           {:>10}\n",
            self.build.nlf_kills
        ));
        out.push_str(&format!(
            "  S-NTE kills         {:>10}\n",
            self.build.snte_kills
        ));
        out.push_str(&format!(
            "  refinement kills    {:>10}\n",
            self.build.refine_kills
        ));
        out.push_str(&format!(
            "  unreachable kills   {:>10}\n",
            self.build.unreachable_kills
        ));
        out.push_str("candidate accounting\n");
        out.push_str(&format!(
            "  final candidates    {:>10}{}\n",
            self.build.final_candidates,
            if self.build.accounting_exact {
                "  (= seeded − kills)"
            } else {
                ""
            }
        ));
        out.push_str("plan cache\n");
        out.push_str(&format!(
            "  plan lookups        {:>10}\n",
            self.cache.plan_lookups
        ));
        out.push_str(&format!(
            "  plan hits           {:>10}\n",
            self.cache.plan_hits
        ));
        out.push_str(&format!(
            "  plan misses         {:>10}\n",
            self.cache.plan_misses
        ));
        out.push_str(&format!(
            "  plan evictions      {:>10}\n",
            self.cache.plan_evictions
        ));
        out.push_str(&format!(
            "  plan refusals       {:>10}\n",
            self.cache.plan_refusals
        ));
        out.push_str(&format!(
            "  plan refreshes      {:>10}\n",
            self.cache.plan_refreshes
        ));
        out.push_str("cpi size\n");
        out.push_str(&format!(
            "  arena bytes         {:>10}\n",
            self.cpi.arena_bytes
        ));
        out.push_str(&format!(
            "  candidate entries   {:>10}\n",
            self.cpi.total_candidates
        ));
        out.push_str(&format!(
            "  adjacency entries   {:>10}\n",
            self.cpi.total_edges
        ));
        let e = &self.enumeration;
        out.push_str("enumeration\n");
        out.push_str(&format!(
            "  embeddings {} nodes {} backtracks {} backjumps {} core {} forest {} leaf {}\n",
            e.embeddings,
            e.nodes,
            e.counters.backtracks,
            e.counters.backjumps,
            e.counters.core_nodes,
            e.counters.forest_nodes,
            e.counters.leaf_nodes,
        ));
        out
    }

    /// Renders the report as a JSON object (the `--stats-json` form of the
    /// CLI and the `stats` block of the bench binaries). Hand-written like
    /// every other JSON producer in this workspace — the schema is small
    /// and fixed, and the repository takes no serialization dependency.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"build\": {");
        s.push_str(&format!(
            "\"topdown_ns\": {}, \"refine_ns\": {}, \"prune_ns\": {}, \"freeze_ns\": {}, ",
            self.build.topdown_ns, self.build.refine_ns, self.build.prune_ns, self.build.freeze_ns
        ));
        s.push_str(&format!(
            "\"seeded\": {}, \"adjacency_kills\": {}, \"mnd_kills\": {}, \"label_pair_kills\": {}, \"nlf_kills\": {}, \"snte_kills\": {}, \"refine_kills\": {}, \"unreachable_kills\": {}, ",
            self.build.seeded,
            self.build.adjacency_kills,
            self.build.mnd_kills,
            self.build.label_pair_kills,
            self.build.nlf_kills,
            self.build.snte_kills,
            self.build.refine_kills,
            self.build.unreachable_kills
        ));
        s.push_str(&format!(
            "\"final_candidates\": {}, \"accounting_exact\": {}}},\n",
            self.build.final_candidates, self.build.accounting_exact
        ));
        s.push_str(&format!(
            "  \"cpi\": {{\"arena_bytes\": {}, \"total_candidates\": {}, \"total_edges\": {}, \"candidates_per_vertex\": {}}},\n",
            self.cpi.arena_bytes,
            self.cpi.total_candidates,
            self.cpi.total_edges,
            json_u32_array(&self.cpi.candidates_per_vertex)
        ));
        s.push_str(&format!("  \"cache\": {{{}}},\n", self.cache.json_fields()));
        let e = &self.enumeration;
        s.push_str(&format!(
            "  \"enumeration\": {{\"embeddings\": {}, \"nodes\": {}, \"nt_checks\": {}, \"backtracks\": {}, \"backjumps\": {}, \"core_nodes\": {}, \"forest_nodes\": {}, \"leaf_nodes\": {}, \"depth_hist\": {}}}\n}}",
            e.embeddings,
            e.nodes,
            e.nt_checks,
            e.counters.backtracks,
            e.counters.backjumps,
            e.counters.core_nodes,
            e.counters.forest_nodes,
            e.counters.leaf_nodes,
            json_u64_array(&e.counters.depth_hist)
        ));
        s
    }
}

/// Lifetime counters of a serving engine (`cfl serve`), snapshotted by
/// the engine's `stats` operation. Unlike [`TraceReport`] these are not
/// per-run: they account for every query the engine has seen since it
/// started, and they obey two exact identities that
/// `cfl_verify::check_serve_trace` re-checks:
///
/// * **admission**: `submitted = admitted + rejected` — every submission
///   is either queued or refused, never dropped silently;
/// * **completion**: every admitted query is in exactly one terminal or
///   in-flight state —
///   `admitted = completed + cancelled + deadline_expired + limit_reached + failed + active + queued`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeTrace {
    /// Queries offered to the engine (admitted or rejected).
    pub submitted: u64,
    /// Queries that entered the admission queue.
    pub admitted: u64,
    /// Queries refused because the admission queue was full.
    pub rejected: u64,
    /// Queries that enumerated every embedding.
    pub completed: u64,
    /// Queries stopped by their [`CancelToken`] (client cancel or
    /// disconnect).
    ///
    /// [`CancelToken`]: https://docs.rs/cfl-match
    pub cancelled: u64,
    /// Queries stopped by their per-query deadline.
    pub deadline_expired: u64,
    /// Queries stopped by their `max_embeddings` budget.
    pub limit_reached: u64,
    /// Queries that errored before enumeration (invalid query graph,
    /// unknown data graph) or panicked on their worker.
    pub failed: u64,
    /// Queries currently executing on a worker (gauge).
    pub active: u64,
    /// Queries admitted but not yet claimed by a worker (gauge).
    pub queued: u64,
    /// Embedding batches streamed to clients.
    pub batches: u64,
    /// Embeddings streamed inside those batches.
    pub embeddings_streamed: u64,
    /// Graph deltas applied through the serving engine.
    pub deltas_applied: u64,
    /// Cached plans the plan cache restamped across those deltas.
    pub plans_refreshed: u64,
    /// The plan-cache counters, summed over the registered graphs' caches
    /// (each read under its cache's mutex, so both cache identities hold).
    pub cache: CacheTrace,
}

impl ServeTrace {
    /// Sum of the terminal states (the completion identity's fixed part).
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.completed + self.cancelled + self.deadline_expired + self.limit_reached + self.failed
    }

    /// Renders the snapshot as a JSON object (the `stats` response body
    /// of the wire protocol). Hand-written like every JSON producer in
    /// this workspace.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\": {}, \"admitted\": {}, \"rejected\": {}, \"completed\": {}, \
             \"cancelled\": {}, \"deadline_expired\": {}, \"limit_reached\": {}, \
             \"failed\": {}, \"active\": {}, \"queued\": {}, \"batches\": {}, \
             \"embeddings_streamed\": {}, \"deltas_applied\": {}, \"plans_refreshed\": {}, {}}}",
            self.submitted,
            self.admitted,
            self.rejected,
            self.completed,
            self.cancelled,
            self.deadline_expired,
            self.limit_reached,
            self.failed,
            self.active,
            self.queued,
            self.batches,
            self.embeddings_streamed,
            self.deltas_applied,
            self.plans_refreshed,
            self.cache.json_fields(),
        )
    }

    /// Renders the snapshot as an aligned table (the human form of
    /// [`ServeTrace::to_json`]).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("serving counters\n");
        let mut row = |k: &str, v: u64| out.push_str(&format!("  {k:<20}{v:>10}\n"));
        row("submitted", self.submitted);
        row("admitted", self.admitted);
        row("rejected", self.rejected);
        row("completed", self.completed);
        row("cancelled", self.cancelled);
        row("deadline expired", self.deadline_expired);
        row("limit reached", self.limit_reached);
        row("failed", self.failed);
        row("active", self.active);
        row("queued", self.queued);
        row("batches", self.batches);
        row("embeddings streamed", self.embeddings_streamed);
        row("deltas applied", self.deltas_applied);
        row("plans refreshed", self.plans_refreshed);
        row("plan lookups", self.cache.plan_lookups);
        row("plan hits", self.cache.plan_hits);
        row("plan misses", self.cache.plan_misses);
        row("plan evictions", self.cache.plan_evictions);
        row("plan refusals", self.cache.plan_refusals);
        row("plan refreshes", self.cache.plan_refreshes);
        out
    }
}

fn json_u32_array(xs: &[u32]) -> String {
    let items: Vec<String> = xs.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceReport {
        let counters = BuildCounters::default();
        counters.add(BuildCounter::Seeded, 100);
        counters.add(BuildCounter::AdjacencyKills, 10);
        counters.add(BuildCounter::MndKills, 5);
        counters.add(BuildCounter::LabelPairKills, 4);
        counters.add(BuildCounter::NlfKills, 15);
        counters.add(BuildCounter::SnteKills, 3);
        counters.add(BuildCounter::RefineKills, 6);
        counters.add(BuildCounter::UnreachableKills, 1);
        counters.add(BuildCounter::TopDownNs, 1_000_000);
        let mut build = counters.snapshot();
        build.final_candidates = 56;
        build.accounting_exact = true;
        TraceReport {
            build,
            cpi: CpiMetrics {
                arena_bytes: 4096,
                total_candidates: 60,
                total_edges: 200,
                candidates_per_vertex: vec![20, 25, 15],
            },
            cache: CacheTrace {
                plan_lookups: 12,
                plan_hits: 9,
                plan_misses: 3,
                plan_evictions: 1,
                plan_refusals: 1,
                plan_refreshes: 2,
            },
            enumeration: EnumTrace {
                embeddings: 7,
                nodes: 40,
                nt_checks: 12,
                counters: EnumCounters {
                    backtracks: 30,
                    backjumps: 2,
                    core_nodes: 25,
                    forest_nodes: 10,
                    leaf_nodes: 5,
                    depth_hist: vec![20, 10, 5],
                },
            },
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = BuildCounters::default();
        c.add(BuildCounter::Seeded, 3);
        c.add(BuildCounter::Seeded, 4);
        c.add(BuildCounter::RefineKills, 2);
        let s = c.snapshot();
        assert_eq!(s.seeded, 7);
        assert_eq!(s.refine_kills, 2);
        assert_eq!(s.total_kills(), 2);
    }

    #[test]
    fn accounting_identity_on_sample() {
        let r = sample();
        assert!(r.build.accounting_exact);
        assert_eq!(
            r.build.final_candidates,
            r.build.seeded - r.build.total_kills()
        );
    }

    #[test]
    fn depth_histogram_is_presized_and_splits_at_the_core() {
        let mut c = EnumCounters::with_depths(4);
        c.bump_node(0);
        c.bump_node(3);
        c.bump_node(3);
        assert_eq!(c.depth_hist, vec![1, 0, 0, 2]);
        c.split_depths(2);
        assert_eq!(c.core_nodes, 1);
        assert_eq!(c.forest_nodes, 2);
        // A core spanning the whole order leaves no forest nodes.
        c.split_depths(9);
        assert_eq!((c.core_nodes, c.forest_nodes), (3, 0));
    }

    #[test]
    fn json_contains_every_section() {
        let j = sample().to_json();
        for key in [
            "\"build\"",
            "\"seeded\": 100",
            "\"label_pair_kills\": 4",
            "\"final_candidates\": 56",
            "\"accounting_exact\": true",
            "\"cpi\"",
            "\"candidates_per_vertex\": [20, 25, 15]",
            "\"enumeration\": {\"embeddings\": 7",
            "\"leaf_nodes\": 5",
            "\"backjumps\": 2",
            "\"depth_hist\": [20, 10, 5]",
            "\"cache\"",
            "\"plan_lookups\": 12",
            "\"plan_hits\": 9",
            "\"plan_refusals\": 1",
            "\"plan_refreshes\": 2",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn table_renders_counters() {
        let t = sample().render_table();
        assert!(t.contains("seeded"));
        assert!(t.contains("100"));
        assert!(t.contains("(= seeded − kills)"));
        assert!(t.contains("enumeration"));
        assert!(t.contains("embeddings 7 nodes 40"));
    }

    #[test]
    fn cache_section_renders_and_accounts() {
        let r = sample();
        assert_eq!(
            r.cache.plan_lookups,
            r.cache.plan_hits + r.cache.plan_misses
        );
        let t = r.render_table();
        assert!(t.contains("plan cache"));
        assert!(t.contains("plan lookups"));
        assert!(t.contains("plan refusals"));
        assert!(t.contains("plan refreshes"));
    }

    #[test]
    fn serve_trace_identities_and_renderers() {
        let s = ServeTrace {
            submitted: 10,
            admitted: 8,
            rejected: 2,
            completed: 4,
            cancelled: 1,
            deadline_expired: 1,
            limit_reached: 1,
            failed: 0,
            active: 1,
            queued: 0,
            batches: 12,
            embeddings_streamed: 300,
            deltas_applied: 2,
            plans_refreshed: 1,
            cache: CacheTrace {
                plan_lookups: 8,
                plan_hits: 5,
                plan_misses: 3,
                plan_evictions: 1,
                plan_refusals: 1,
                plan_refreshes: 1,
            },
        };
        assert_eq!(s.submitted, s.admitted + s.rejected);
        assert_eq!(s.admitted, s.finished() + s.active + s.queued);
        let j = s.to_json();
        for key in [
            "\"submitted\": 10",
            "\"rejected\": 2",
            "\"deadline_expired\": 1",
            "\"embeddings_streamed\": 300",
            "\"plans_refreshed\": 1",
            "\"plan_lookups\": 8",
            "\"plan_refusals\": 1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        let t = s.render_table();
        assert!(t.contains("serving counters"));
        assert!(t.contains("deadline expired"));
        assert!(t.contains("300"));
    }
}
