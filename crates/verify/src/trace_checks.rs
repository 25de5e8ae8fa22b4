//! Consistency checks over an observability [`TraceReport`].
//!
//! The `trace` feature of `cfl-match` records filter-effectiveness
//! counters while the CPI is built and per-worker counters while
//! embeddings are enumerated. Those counters obey arithmetic identities
//! by construction — every candidate that reaches the final CPI was
//! seeded and never killed, every search node lands in exactly one depth
//! bucket, and worker embedding tallies partition the reported total.
//! This checker re-verifies the identities from the report alone, so a
//! bookkeeping bug in the instrumentation (a filter that kills without
//! recording, a counter bumped twice) is caught even though the engine's
//! results are unaffected by tracing.

use cfl_trace::{TraceReport, WorkerTrace};

use crate::report::Report;

/// Verifies the internal arithmetic of a [`TraceReport`].
///
/// Checks performed (stable check identifiers in brackets):
///
/// - `trace-kill-overflow`: total kills across all filter stages never
///   exceed the number of candidates seeded — a filter cannot kill a
///   candidate that was never generated.
/// - `trace-accounting`: when the report was produced by an exact
///   accounting mode (`accounting_exact`, i.e. the top-down CPI builders),
///   `final_candidates == seeded − total kills` holds exactly.
/// - `trace-cpi-candidates`: the CPI metrics' per-vertex candidate
///   counts sum to `total_candidates`.
/// - `trace-worker-embeddings`: when the caller passes the engine's
///   reported embedding total, the per-worker embedding counts sum to it.
/// - `trace-worker-nodes`: per worker, the depth histogram sums to the
///   worker's search-node count, and the core/forest split partitions it.
/// - `trace-backjump-bound`: per worker, failing-set backjump decisions
///   never exceed backtracks — a backjump is only taken after the unwind
///   of a mapped child, and each unwind records one backtrack.
/// - `trace-cache-accounting`: every plan-cache consultation resolves to
///   exactly one of hit or miss (`plan_lookups == plan_hits +
///   plan_misses`), and evictions never exceed the insertions misses can
///   have caused (`plan_evictions ≤ plan_misses`).
///
/// `total_embeddings` is the embedding count from the engine's
/// `MatchReport` when available; pass `None` for reports captured before
/// enumeration (the worker checks still run on whatever workers exist).
/// Budget-limited or timed-out runs should also pass `None`: cooperative
/// cancellation lets workers overshoot the clamped total, so the sum
/// identity only holds for complete runs.
#[must_use]
pub fn check_trace(report: &TraceReport, total_embeddings: Option<u64>) -> Report {
    let mut out = Report::new();
    let b = &report.build;

    let kills = b.total_kills();
    if kills > b.seeded {
        out.violation(
            "trace-kill-overflow",
            None,
            None,
            format!(
                "filters killed {kills} candidates but only {} were seeded",
                b.seeded
            ),
        );
    }

    if b.accounting_exact {
        let expected = b.seeded.saturating_sub(kills);
        if b.final_candidates != expected {
            out.violation(
                "trace-accounting",
                None,
                None,
                format!(
                    "final candidate count {} != seeded {} - kills {} (= {expected})",
                    b.final_candidates, b.seeded, kills
                ),
            );
        }
    }

    // An empty per-vertex vector means the counts were not recorded (e.g.
    // a multi-query aggregate), not that every vertex has zero candidates.
    let cpi_sum: u64 = report
        .cpi
        .candidates_per_vertex
        .iter()
        .map(|&c| u64::from(c))
        .sum();
    if !report.cpi.candidates_per_vertex.is_empty() && cpi_sum != report.cpi.total_candidates {
        out.violation(
            "trace-cpi-candidates",
            None,
            None,
            format!(
                "per-vertex candidate counts sum to {cpi_sum} but total_candidates is {}",
                report.cpi.total_candidates
            ),
        );
    }

    let c = &report.cache;
    if c.plan_lookups != c.plan_hits + c.plan_misses {
        out.violation(
            "trace-cache-accounting",
            None,
            None,
            format!(
                "plan-cache lookups {} != hits {} + misses {}",
                c.plan_lookups, c.plan_hits, c.plan_misses
            ),
        );
    }
    if c.plan_evictions > c.plan_misses {
        out.violation(
            "trace-cache-accounting",
            None,
            None,
            format!(
                "plan-cache evictions {} exceed misses {} (only a miss can insert, \
                 only an insert can evict)",
                c.plan_evictions, c.plan_misses
            ),
        );
    }

    if let Some(total) = total_embeddings {
        let worker_sum = report.total_worker_embeddings();
        if worker_sum != total {
            out.violation(
                "trace-worker-embeddings",
                None,
                None,
                format!("worker embedding counts sum to {worker_sum}, engine reported {total}"),
            );
        }
    }

    for (i, w) in report.workers.iter().enumerate() {
        check_worker(&mut out, i, w);
    }

    out
}

fn check_worker(out: &mut Report, index: usize, w: &WorkerTrace) {
    let ordered = w.counters.core_nodes + w.counters.forest_nodes;
    let hist_sum: u64 = w.counters.depth_hist.iter().sum();
    if hist_sum != ordered {
        out.violation(
            "trace-worker-nodes",
            None,
            None,
            format!(
                "worker {index}: depth histogram sums to {hist_sum} but \
                 core {} + forest {} nodes = {ordered}",
                w.counters.core_nodes, w.counters.forest_nodes
            ),
        );
    }
    let split = ordered + w.counters.leaf_nodes;
    if split != w.nodes {
        out.violation(
            "trace-worker-nodes",
            None,
            None,
            format!(
                "worker {index}: core {} + forest {} + leaf {} nodes != total {}",
                w.counters.core_nodes, w.counters.forest_nodes, w.counters.leaf_nodes, w.nodes
            ),
        );
    }
    if w.counters.backjumps > w.counters.backtracks {
        out.violation(
            "trace-backjump-bound",
            None,
            None,
            format!(
                "worker {index}: {} failing-set backjumps but only {} backtracks \
                 (a backjump decision follows the unwind of a mapped child)",
                w.counters.backjumps, w.counters.backtracks
            ),
        );
    }
}

/// Verifies the accounting identities of a serving-engine counter
/// snapshot ([`cfl_trace::ServeTrace`], the `stats` response of
/// `cfl serve`).
///
/// Checks performed (stable check identifiers in brackets):
///
/// - `serve-admission`: every submission is admitted or rejected, never
///   both and never neither (`submitted == admitted + rejected`).
/// - `serve-completion`: every admitted query is in exactly one state —
///   a terminal outcome, actively executing, or queued
///   (`admitted == finished + active + queued`).
/// - `serve-batch-consistency`: a non-zero streamed-embedding count
///   implies at least one batch was sent (embeddings only travel inside
///   batches).
/// - `serve-refresh-bound`: plan refreshes require deltas
///   (`deltas_applied == 0` implies `plans_refreshed == 0`).
///
/// The two gauge fields (`active`, `queued`) make the completion identity
/// exact at *any* snapshot instant, not only at quiescence: the engine
/// moves a query between states under its admission lock, so no query is
/// ever double-counted or unaccounted.
#[must_use]
pub fn check_serve_trace(s: &cfl_trace::ServeTrace) -> Report {
    let mut out = Report::new();
    if s.submitted != s.admitted + s.rejected {
        out.violation(
            "serve-admission",
            None,
            None,
            format!(
                "submitted {} != admitted {} + rejected {}",
                s.submitted, s.admitted, s.rejected
            ),
        );
    }
    let accounted = s.finished() + s.active + s.queued;
    if s.admitted != accounted {
        out.violation(
            "serve-completion",
            None,
            None,
            format!(
                "admitted {} != completed {} + cancelled {} + deadline {} + limit {} \
                 + failed {} + active {} + queued {} (= {accounted})",
                s.admitted,
                s.completed,
                s.cancelled,
                s.deadline_expired,
                s.limit_reached,
                s.failed,
                s.active,
                s.queued
            ),
        );
    }
    if s.embeddings_streamed > 0 && s.batches == 0 {
        out.violation(
            "serve-batch-consistency",
            None,
            None,
            format!(
                "{} embeddings streamed but zero batches sent",
                s.embeddings_streamed
            ),
        );
    }
    if s.deltas_applied == 0 && s.plans_refreshed > 0 {
        out.violation(
            "serve-refresh-bound",
            None,
            None,
            format!(
                "{} plans refreshed without any delta applied",
                s.plans_refreshed
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_trace::{BuildTrace, CacheTrace, CpiMetrics, EnumCounters};

    fn consistent_report() -> TraceReport {
        let mut r = TraceReport {
            build: BuildTrace {
                seeded: 100,
                adjacency_kills: 20,
                mnd_kills: 10,
                nlf_kills: 5,
                snte_kills: 3,
                refine_kills: 2,
                unreachable_kills: 0,
                final_candidates: 60,
                accounting_exact: true,
                ..BuildTrace::default()
            },
            cpi: CpiMetrics {
                arena_bytes: 640,
                total_candidates: 60,
                total_edges: 90,
                candidates_per_vertex: vec![20, 30, 10],
            },
            cache: CacheTrace {
                plan_lookups: 10,
                plan_hits: 6,
                plan_misses: 4,
                plan_evictions: 2,
                plan_refreshes: 1,
            },
            ..TraceReport::default()
        };
        r.workers.push(WorkerTrace {
            embeddings: 7,
            nodes: 12,
            nt_checks: 4,
            counters: EnumCounters {
                backtracks: 12,
                backjumps: 2,
                steals: 3,
                core_nodes: 8,
                forest_nodes: 4,
                leaf_nodes: 0,
                leaf_ns: 0,
                depth_hist: vec![5, 4, 3],
            },
        });
        r
    }

    #[test]
    fn clean_report_passes() {
        let r = consistent_report();
        let checked = check_trace(&r, Some(7));
        assert!(checked.is_clean(), "{checked}");
    }

    #[test]
    fn accounting_mismatch_detected() {
        let mut r = consistent_report();
        r.build.final_candidates = 61;
        r.cpi.total_candidates = 61;
        r.cpi.candidates_per_vertex = vec![21, 30, 10];
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-accounting"), "{checked}");
    }

    #[test]
    fn kill_overflow_detected() {
        let mut r = consistent_report();
        r.build.seeded = 30;
        let checked = check_trace(&r, None);
        assert!(checked.has_check("trace-kill-overflow"), "{checked}");
    }

    #[test]
    fn cpi_candidate_sum_checked() {
        let mut r = consistent_report();
        r.cpi.candidates_per_vertex = vec![20, 30, 11];
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-cpi-candidates"), "{checked}");
    }

    #[test]
    fn worker_embedding_sum_checked() {
        let r = consistent_report();
        let checked = check_trace(&r, Some(8));
        assert!(checked.has_check("trace-worker-embeddings"), "{checked}");
    }

    #[test]
    fn worker_histogram_checked() {
        let mut r = consistent_report();
        r.workers[0].counters.depth_hist = vec![5, 4, 2];
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-worker-nodes"), "{checked}");
    }

    #[test]
    fn backjump_bound_checked() {
        let mut r = consistent_report();
        r.workers[0].counters.backjumps = 13;
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-backjump-bound"), "{checked}");
    }

    #[test]
    fn cache_accounting_identity_checked() {
        let mut r = consistent_report();
        r.cache.plan_hits = 7;
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-cache-accounting"), "{checked}");
    }

    #[test]
    fn cache_eviction_bound_checked() {
        let mut r = consistent_report();
        r.cache.plan_evictions = 5;
        let checked = check_trace(&r, Some(7));
        assert!(checked.has_check("trace-cache-accounting"), "{checked}");
    }

    #[test]
    fn naive_mode_skips_accounting_identity() {
        let mut r = consistent_report();
        r.build.accounting_exact = false;
        r.build.final_candidates = 999;
        // Only the exact identity is waived; overflow is still checked.
        let checked = check_trace(&r, Some(7));
        assert!(!checked.has_check("trace-accounting"), "{checked}");
    }

    #[test]
    fn serve_trace_clean_snapshot_passes() {
        let s = cfl_trace::ServeTrace {
            submitted: 6,
            admitted: 5,
            rejected: 1,
            completed: 3,
            cancelled: 1,
            deadline_expired: 0,
            limit_reached: 0,
            failed: 0,
            active: 1,
            queued: 0,
            batches: 4,
            embeddings_streamed: 90,
            deltas_applied: 1,
            plans_refreshed: 1,
        };
        let r = check_serve_trace(&s);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn serve_trace_violations_are_detected() {
        let mut s = cfl_trace::ServeTrace {
            submitted: 6,
            admitted: 5,
            rejected: 1,
            completed: 5,
            ..Default::default()
        };
        assert!(check_serve_trace(&s).is_clean());
        s.rejected = 0;
        let r = check_serve_trace(&s);
        assert!(r.has_check("serve-admission"), "{r}");
        s.rejected = 1;
        s.completed = 4;
        let r = check_serve_trace(&s);
        assert!(r.has_check("serve-completion"), "{r}");
        s.completed = 5;
        s.embeddings_streamed = 10;
        let r = check_serve_trace(&s);
        assert!(r.has_check("serve-batch-consistency"), "{r}");
        s.batches = 1;
        s.plans_refreshed = 2;
        let r = check_serve_trace(&s);
        assert!(r.has_check("serve-refresh-bound"), "{r}");
    }
}
