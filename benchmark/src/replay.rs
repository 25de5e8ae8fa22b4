//! The traced replay: one workload's operations, serially and in process,
//! with a span around every call into a layer's public functions.
//!
//! `DataGraph::prepare` runs the whole preparation pipeline as one call, so
//! the replay also calls its stages one by one (root selection,
//! decomposition, CPI construction, ordering) to time each of them. Those
//! calls repeat work the request already does, which is why end-to-end
//! numbers never come from a traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfl_graph::{read_graph_file, two_core, Graph, GraphDelta};
use cfl_match::serve::json::Json;
use cfl_match::serve::proto::encode_batch;
use cfl_match::{
    compute_order_with, select_root_with_candidates, CflDecomposition, Cpi, DataGraph,
    DecompositionMode, EmbeddingChecksum, FilterContext, GraphStats, MatchConfig, PlanCache,
};

use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{Expected, Settings, Workload};

/// Stops a replay that is still inside its time budget, so a trace file
/// stays a few MB.
const MAX_OPS: u64 = 5_000;
/// Rows per encoded batch, the server's default batch size.
const BATCH: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    Query(usize),
    Delta(usize),
}

/// What the replay does with a query's embeddings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Collect them in process and checksum them (the library path).
    Collect,
    /// Encode them into batch frames, decode those, then checksum (the
    /// streamed serve path, without the socket).
    Stream,
    /// Count only.
    Count,
}

pub struct ReplayInput<'a> {
    pub workload: Workload,
    pub graph_path: &'a Path,
    pub queries: &'a [Graph],
    pub cfg: &'a MatchConfig,
    pub mode: Mode,
    /// Share one plan cache across the replay's sessions.
    pub cache: bool,
    /// Insert and delete batches toggling the graph.
    pub deltas: Option<(&'a GraphDelta, &'a GraphDelta)>,
    /// Per query: what a one-shot run produces on the base graph, and on
    /// the toggled graph when there is one.
    pub expected: &'a [Expected],
    pub expected_alt: Option<&'a [Expected]>,
}

pub struct ReplayOutcome {
    pub ops: u64,
    pub mismatches: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Per query index: milliseconds spent enumerating and checksumming,
    /// the part of a replayed query an untraced run also does.
    pub per_query_ms: Vec<(usize, Vec<f64>)>,
    pub notes: Vec<String>,
}

/// Times the preparation stages one by one under `parent`.
fn prepare_stages(
    t: &mut Tracer,
    parent: usize,
    req: u64,
    q: &Graph,
    session: &DataGraph<'_>,
    cfg: &MatchConfig,
) {
    let g = session.graph();
    let span = t.open("filters.root", Some(parent), req);
    let q_stats = GraphStats::build(q);
    let ctx = FilterContext::with_options(q, g, &q_stats, session.stats(), cfg.filters);
    // The root is chosen from the 2-core when there is one.
    let core = two_core(q);
    let use_core = core.contains(&true) && cfg.decomposition != DecompositionMode::None;
    let eligible: Vec<u32> = (0..q.num_vertices() as u32)
        .filter(|&v| !use_core || core[v as usize])
        .collect();
    let (root, cands) = select_root_with_candidates(&ctx, &eligible);
    t.close(span);
    let decomposition = t.time("decompose", Some(parent), req, || {
        CflDecomposition::compute(q, root, cfg.decomposition)
    });
    let cpi = t.time("cpi.build", Some(parent), req, || {
        Cpi::build_seeded(&ctx, root, cands, cfg.cpi, cfg.build_threads)
    });
    if !cpi.has_empty_candidate_set() {
        black_box(t.time("order", Some(parent), req, || {
            compute_order_with(q, &cpi, &decomposition, cfg.order)
        }));
    }
    black_box(
        t.time("session.prepare", Some(parent), req, || {
            session.prepare(q, cfg)
        })
        .is_ok(),
    );
}

/// Replays `input` for at most `budget`, following `sequence`.
pub fn run(
    input: &ReplayInput<'_>,
    s: &Settings,
    budget: Duration,
    sequence: &dyn Fn(usize) -> ReplayOp,
) -> Result<ReplayOutcome, String> {
    let mut t = Tracer::new();
    let load =
        |p: &Path| read_graph_file(p).map_err(|e| format!("cannot read {}: {e}", p.display()));

    let setup = t.open("setup", None, 0);
    let mut loaded = None;
    for _ in 0..3 {
        let g = t.time("graph.load", Some(setup), 0, || load(input.graph_path))?;
        t.time("graph.stats_build", Some(setup), 0, || {
            drop(DataGraph::new(&g));
        });
        loaded = Some(g);
    }
    t.close(setup);
    let mut g = loaded.ok_or("no graph loaded")?;

    // Shared by the replay's sessions, like the cache a `cfl serve
    // --plan-cache` graph owns.
    let cache = input
        .cache
        .then(|| Arc::new(PlanCache::with_default_capacity()));
    let mut notes = Vec::new();
    let mut mismatches = 0u64;
    let mut lookups_us = Vec::new();
    let mut per_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut encoded, mut decoded, mut checksummed) = (0u64, 0u64, 0u64);
    let mut flat: Vec<u32> = Vec::new();
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < budget && ops < MAX_OPS {
        let req = ops + 1;
        let op = sequence(ops as usize);
        ops += 1;
        if let ReplayOp::Delta(k) = op {
            let Some((insert, delete)) = input.deltas else {
                continue;
            };
            let root = t.open("delta", None, req);
            let delta = if k % 2 == 0 { insert } else { delete };
            let applied = t
                .time("refresh.apply_delta", Some(root), req, || {
                    g.apply_delta(delta)
                })
                .map_err(|e| format!("replayed delta {k} is invalid: {e}"))?;
            if let Some(c) = &cache {
                t.time("cache.refresh", Some(root), req, || c.refresh(&g, &applied));
            }
            t.time("delta.stats_warm", Some(root), req, || {
                drop(DataGraph::new(&applied.graph));
            });
            g = applied.graph;
            t.close(root);
            continue;
        }
        let ReplayOp::Query(i) = op else { continue };
        let q = &input.queries[i];
        let root = t.open("request", None, req);
        let session = match &cache {
            Some(c) => DataGraph::new(&g).with_plan_cache(c.clone()),
            None => DataGraph::new(&g),
        };
        if cache.is_none() {
            prepare_stages(&mut t, root, req, q, &session, input.cfg);
        }
        let before = cache.as_ref().map(|c| c.snapshot().hits);
        let mut rows: Vec<Vec<u32>> = Vec::new();
        flat.clear();
        let run = t.open("exec.run", Some(root), req);
        let report = match input.mode {
            Mode::Count => session.count_embeddings(q, input.cfg),
            Mode::Stream => session.find_embeddings(q, input.cfg, |m| {
                rows.push(m.to_vec());
                true
            }),
            Mode::Collect => session.find_embeddings(q, input.cfg, |m| {
                flat.extend_from_slice(m);
                true
            }),
        }
        .map_err(|e| format!("replayed query {i} failed: {e}"))?;
        t.close(run);
        let (run_start, run_end) = (t.spans()[run].start_ns, t.spans()[run].end_ns);
        let enum_ns = u64::try_from(report.stats.enumeration_time.as_nanos()).unwrap_or(u64::MAX);
        t.record(
            "exec.enumerate",
            Some(run),
            req,
            run_end.saturating_sub(enum_ns),
            run_end,
        );
        if let (Some(c), Some(hits)) = (&cache, before) {
            if c.snapshot().hits > hits {
                // A hit reports the lookup as its build time.
                let lookup = report.stats.build_time;
                lookups_us.push(lookup.as_secs_f64() * 1e6);
                let lookup_ns = u64::try_from(lookup.as_nanos()).unwrap_or(u64::MAX);
                t.record(
                    "cache.lookup",
                    Some(run),
                    req,
                    run_start,
                    run_start.saturating_add(lookup_ns),
                );
            } else {
                prepare_stages(&mut t, root, req, q, &session, input.cfg);
            }
        }

        let mut digest = EmbeddingChecksum::new();
        match input.mode {
            Mode::Count => {}
            Mode::Collect => {
                let ck = t.open("result.checksum", Some(root), req);
                for m in flat.chunks(q.num_vertices().max(1)) {
                    digest.update(m);
                }
                t.close(ck);
                checksummed += digest.count();
                let took = t.spans()[run].duration_ns() + t.spans()[ck].duration_ns();
                per_query.entry(i).or_default().push(took as f64 / 1e6);
            }
            Mode::Stream => {
                let frames: Vec<String> = t.time("proto.encode", Some(root), req, || {
                    rows.chunks(BATCH).map(|b| encode_batch(req, b)).collect()
                });
                encoded += rows.len() as u64;
                let back: Result<Vec<Vec<u32>>, String> =
                    t.time("json.decode", Some(root), req, || {
                        let mut out = Vec::with_capacity(rows.len());
                        for f in &frames {
                            let v = Json::parse(f).map_err(|e| e.to_string())?;
                            for row in v
                                .get("batch")
                                .and_then(Json::as_arr)
                                .ok_or("frame without batch")?
                            {
                                let ids: Option<Vec<u32>> = row
                                    .as_arr()
                                    .ok_or("row is not an array")?
                                    .iter()
                                    .map(|x| x.as_u64().and_then(|x| u32::try_from(x).ok()))
                                    .collect();
                                out.push(ids.ok_or("vertex id is not a u32")?);
                            }
                        }
                        Ok(out)
                    });
                let back = back?;
                decoded += back.len() as u64;
                t.time("result.checksum", Some(root), req, || {
                    for m in &back {
                        digest.update(m);
                    }
                });
                checksummed += digest.count();
            }
        }
        t.close(root);
        drop(session);

        let matches = |e: &Expected| {
            report.embeddings == e.count
                && (input.mode == Mode::Count
                    || (digest.count() == e.count && digest.digest() == e.digest))
        };
        if !(matches(&input.expected[i]) || input.expected_alt.is_some_and(|a| matches(&a[i]))) {
            mismatches += 1;
            notes.push(format!(
                "replayed query {i}: {} embeddings digest {:#x}, expected {:?}",
                report.embeddings,
                digest.digest(),
                input.expected[i]
            ));
        }
    }

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let p = |name: &str, q: f64| percentile(&sorted(t.durations_us(name)), q);
    v.insert("graph.load_ms", median(&t.durations_us("graph.load")) / 1e3);
    v.insert(
        "graph.stats_build_ms",
        median(&t.durations_us("graph.stats_build")) / 1e3,
    );
    v.insert("filters.root_us", p("filters.root", 50.0));
    v.insert("decompose.us", p("decompose", 50.0));
    v.insert("cpi.build_us.p50", p("cpi.build", 50.0));
    v.insert("cpi.build_us.p95", p("cpi.build", 95.0));
    v.insert("order.us", p("order", 50.0));
    v.insert("session.prepare_us.p50", p("session.prepare", 50.0));
    v.insert("session.prepare_us.p95", p("session.prepare", 95.0));
    v.insert("exec.enumerate_us.p50", p("exec.enumerate", 50.0));
    v.insert("exec.enumerate_us.p95", p("exec.enumerate", 95.0));
    if let Some(c) = &cache {
        let snap = c.snapshot();
        v.insert(
            "cache.hit_rate",
            snap.hits as f64 / snap.lookups.max(1) as f64,
        );
        v.insert("cache.evictions", snap.evictions as f64);
        v.insert("cache.lookup_us", percentile(&sorted(lookups_us), 50.0));
        notes.push(format!(
            "replay cache: {} lookups, {} hits, {} evictions, {} refreshes",
            snap.lookups, snap.hits, snap.evictions, snap.refreshes
        ));
    }
    if input.deltas.is_some() {
        v.insert("refresh.apply_delta_us", p("refresh.apply_delta", 50.0));
        v.insert("cache.refresh_us", p("cache.refresh", 50.0));
    }
    let per_emb = |name: &str, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.total_ns(name) as f64 / n as f64
        }
    };
    v.insert("proto.encode_ns_per_emb", per_emb("proto.encode", encoded));
    v.insert("json.decode_ns_per_emb", per_emb("json.decode", decoded));
    v.insert(
        "result.checksum_ns_per_emb",
        per_emb("result.checksum", checksummed),
    );

    notes.push(format!(
        "traced replay: {ops} operations in {:.2} s; layer self time:",
        start.elapsed().as_secs_f64()
    ));
    let totals = t.layer_totals();
    let replay_ns: u64 = ["request", "delta"]
        .iter()
        .map(|n| totals.get(n).map_or(0, |l| l.total_ns))
        .sum();
    for (name, l) in &totals {
        notes.push(format!(
            "  {name:<24} {:>7} calls {:>11.3} ms total {:>11.3} ms self {:>6.1}%",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            if name == &"setup" || replay_ns == 0 {
                0.0
            } else {
                100.0 * l.self_ns as f64 / replay_ns as f64
            }
        ));
    }
    let file = s
        .trace_dir
        .join(format!("{}-{}.json", input.workload.name(), s.seed));
    std::fs::create_dir_all(&s.trace_dir)
        .and_then(|()| std::fs::write(&file, t.to_json(input.workload.name(), s.seed)))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    notes.push(format!(
        "wrote {} spans to {}",
        t.spans().len(),
        file.display()
    ));

    Ok(ReplayOutcome {
        ops,
        mismatches,
        values: v,
        per_query_ms: per_query.into_iter().collect(),
        notes,
    })
}
