//! The four workloads: their inputs, their untraced runs, and the checks
//! of every result against an in-process run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cfl_datasets::{Dataset, QueryMixSpec};
use cfl_graph::{
    canonical_query, query_set, read_graph_file, write_graph_file, Graph, GraphDelta, QueryDensity,
    SyntheticConfig,
};
use cfl_match::serve::json::Json;
use cfl_match::serve::submit_payload;
use cfl_match::{Budget, DataGraph, EmbeddingChecksum, MatchConfig, DEFAULT_PLAN_CACHE_CAPACITY};

use crate::client::{closed_loop, open_loop, Failure, Op, Plan, Record, Served, Step};
use crate::replay::{self, ReplayInput, ReplayOp};
use crate::server::ServerProc;
use crate::stats::{median, percentile, sorted};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Oneshot,
    ServeStream,
    ServeOpen,
    ServeMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::Oneshot,
    Workload::ServeStream,
    Workload::ServeOpen,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::ServeStream => "serve_stream",
            Workload::ServeOpen => "serve_open",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `(name, unit)` of every end-to-end metric, each reported by every
/// workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("serve.ack_ms.p50", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p95", "ms"),
    ("serve.outside_ms.p50", "ms"),
    ("serve.outside_share", "ratio"),
    ("serve.bytes_per_embedding", "B"),
    ("serve.delta_ms.p50", "ms"),
    ("loadgen.send_late_ms.p95", "ms"),
    ("loadgen.max_rate_qps", "1/s"),
    ("engine.rejected", "count"),
    ("engine.limit_reached", "count"),
    ("graph.load_ms", "ms"),
    ("graph.stats_build_ms", "ms"),
    ("filters.root_us", "us"),
    ("decompose.us", "us"),
    ("cpi.build_us.p50", "us"),
    ("cpi.build_us.p95", "us"),
    ("order.us", "us"),
    ("session.prepare_us.p50", "us"),
    ("session.prepare_us.p95", "us"),
    ("exec.enumerate_us.p50", "us"),
    ("exec.enumerate_us.p95", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.lookup_us", "us"),
    ("refresh.apply_delta_us", "us"),
    ("cache.refresh_us", "us"),
    ("proto.encode_ns_per_emb", "ns"),
    ("json.decode_ns_per_emb", "ns"),
    ("result.checksum_ns_per_emb", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("exec.search_nodes", "count"),
    ("exec.embeddings", "count"),
    ("exec.embeddings_per_node", "ratio"),
    ("cpi.candidates", "count"),
    ("cpi.bytes", "B"),
];

/// Per-layer metrics that are exact counts: equal on every run of one
/// version of the code, whatever the machine.
pub const EXACT: [&str; 5] = [
    "exec.search_nodes",
    "exec.embeddings",
    "exec.embeddings_per_node",
    "cpi.candidates",
    "cpi.bytes",
];

/// How one run is configured.
pub struct Settings {
    pub seed: u64,
    /// Measured time of the run. A traced run spends half of it on the
    /// served (or untraced in-process) part and half on the replay.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub cfl: PathBuf,
    pub work_dir: PathBuf,
    pub trace_dir: PathBuf,
}

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and other context for the human-readable report.
    pub notes: Vec<String>,
}

/// Open-loop latency limit: a step meets it when its p95 is at most this,
/// nothing failed and nothing was dropped.
const SLO_P95_MS: f64 = 50.0;
/// Answer time after which a request counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Embedding cap of every served query.
const SERVE_LIMIT: u64 = 10_000;
/// Embedding cap of every one-shot query, the paper's report limit.
const ONESHOT_LIMIT: u64 = 100_000;
/// Seed of the one-shot data graph (the hot-path benchmark's graph).
const ONESHOT_GRAPH_SEED: u64 = 4242;
/// Set-up repetitions on each side of the measured part of a run; the
/// median of both sides' is `setup_s`.
const SETUP_REPS_PER_SIDE: usize = 12;
/// Time from one set-up repetition's start to the next one's. A shared
/// host slows each vCPU by a third or more in phases lasting from a second
/// to minutes. Set-ups run back to back would all fall into one phase and
/// make `setup_s` jump between a fast and a slow value from run to run;
/// spread out, before and after the measured part, they sample several.
const SETUP_GAP: Duration = Duration::from_millis(150);
/// Seed of every workload's query set and of `serve_mixed`'s delta edges.
/// These inputs stay fixed, like the paper's query sets, and `--seed` only
/// orders the queries. Drawn afresh per seed, 600 one-shot queries moved
/// the median latency by 16% (interquartile range over ten seeds), and the
/// delta edges decided how many plans survived each delta, which moved the
/// server's peak memory by up to 10 MB: more than any useful bound could
/// absorb.
const INPUT_SEED: u64 = 3137;

/// SplitMix64: derives sub-seeds, shuffles, and picks delta edges.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix(&mut s)
}

/// `items` in an order drawn from `seed` (Fisher-Yates).
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = sub_seed(seed, 7);
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Writes `g` to `path` unless it is already there (through a temporary
/// file, so concurrent runs never read a half-written graph).
fn ensure_graph_file(path: &Path, make: impl FnOnce() -> Graph) -> Result<(), String> {
    if path.is_file() {
        return Ok(());
    }
    let dir = path.parent().ok_or("graph path has no directory")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    write_graph_file(&make(), &tmp).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))
}

fn load(path: &Path) -> Result<Graph, String> {
    read_graph_file(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` `SETUP_REPS_PER_SIDE` times, one every `SETUP_GAP` (back
/// to back under `--quick`), and appends each repetition's time in seconds
/// to `out`.
fn paced_setups(
    s: &Settings,
    out: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<Duration, String>,
) -> Result<(), String> {
    let gap = if s.quick { Duration::ZERO } else { SETUP_GAP };
    let start = Instant::now();
    for i in 0..SETUP_REPS_PER_SIDE {
        let due = start + gap * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        out.push(setup()?.as_secs_f64());
    }
    Ok(())
}

/// Runs one workload once.
pub fn run(w: Workload, s: &Settings) -> Result<Outcome, String> {
    match w {
        Workload::Oneshot => run_oneshot(s),
        _ => run_serve(w, s),
    }
}

/// The time the measured (untraced) part of a run gets.
fn measured_time(s: &Settings) -> Duration {
    Duration::from_secs_f64(if s.traced { s.seconds / 2.0 } else { s.seconds })
}

/// The time the traced replay gets.
fn replay_time(s: &Settings) -> Duration {
    Duration::from_secs_f64(s.seconds / 2.0)
}

/// Exact work counts over one cold pass of the distinct queries.
#[derive(Default)]
struct Counts {
    search_nodes: u64,
    embeddings: u64,
    cpi_candidates: u64,
    cpi_bytes: u64,
}

impl Counts {
    fn add(&mut self, r: &cfl_match::MatchReport) {
        self.search_nodes += r.stats.search_nodes;
        self.embeddings += r.embeddings;
        self.cpi_candidates += r.stats.cpi_candidates;
        self.cpi_bytes += r.stats.cpi_bytes;
    }

    fn put(&self, v: &mut BTreeMap<&'static str, f64>) {
        v.insert("exec.search_nodes", self.search_nodes as f64);
        v.insert("exec.embeddings", self.embeddings as f64);
        v.insert(
            "exec.embeddings_per_node",
            self.embeddings as f64 / self.search_nodes.max(1) as f64,
        );
        v.insert("cpi.candidates", self.cpi_candidates as f64);
        v.insert("cpi.bytes", self.cpi_bytes as f64);
    }
}

fn self_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    crate::server::vm_hwm_mb(&status)
}

// ---------------------------------------------------------------------
// oneshot: the library API, in process and serial.
// ---------------------------------------------------------------------

/// The one-shot graph: the hot-path benchmark's synthetic graph (30k
/// vertices, average degree 8, 24 power-law labels, 10% NEC twins).
fn oneshot_graph_config(quick: bool) -> SyntheticConfig {
    SyntheticConfig {
        num_vertices: if quick { 2_000 } else { 30_000 },
        avg_degree: 8.0,
        num_labels: if quick { 12 } else { 24 },
        label_exponent: 1.0,
        twin_fraction: 0.1,
        seed: ONESHOT_GRAPH_SEED,
    }
}

/// Query sizes × both density classes, `per_class` queries each,
/// interleaved class by class.
fn oneshot_queries(g: &Graph, seed: u64, quick: bool) -> Vec<Graph> {
    let (sizes, per_class): (&[usize], usize) = if quick {
        (&[4, 8], 3)
    } else {
        (&[8, 16, 32], 100)
    };
    let mut classes = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        for (j, density) in [QueryDensity::Sparse, QueryDensity::NonSparse]
            .into_iter()
            .enumerate()
        {
            classes.push(query_set(
                g,
                size,
                density,
                per_class,
                sub_seed(seed, (i * 2 + j) as u64),
            ));
        }
    }
    let mut out = Vec::new();
    for round in 0..per_class {
        out.extend(classes.iter().filter_map(|c| c.get(round).cloned()));
    }
    out
}

fn run_oneshot(s: &Settings) -> Result<Outcome, String> {
    let cfg_graph = oneshot_graph_config(s.quick);
    let path = s
        .work_dir
        .join(format!("oneshot-{}.graph", cfg_graph.num_vertices));
    ensure_graph_file(&path, || cfl_graph::synthetic_graph(&cfg_graph))?;

    // Setup as a library user pays it: parse the graph file, then index it.
    let set_up = || -> Result<(Graph, Duration), String> {
        let t = Instant::now();
        let g = load(&path)?;
        drop(DataGraph::new(&g));
        Ok((g, t.elapsed()))
    };
    let mut setups = Vec::new();
    let mut graph = None;
    paced_setups(s, &mut setups, || {
        let (g, took) = set_up()?;
        graph = Some(g);
        Ok(took)
    })?;
    let g = graph.ok_or("no setup repetition ran")?;
    let session = DataGraph::new(&g);
    let queries = shuffled(oneshot_queries(&g, INPUT_SEED, s.quick), s.seed);
    let cfg = MatchConfig::exhaustive().with_budget(Budget::first(ONESHOT_LIMIT));

    // Reference: the counting path (leaf-match counts combinatorially
    // instead of enumerating) must agree with every enumerated count. The
    // first pass sets each digest, which every later pass must repeat.
    let mut expected = Vec::with_capacity(queries.len());
    for q in &queries {
        let r = session
            .count_embeddings(q, &cfg)
            .map_err(|e| format!("reference count failed: {e}"))?;
        expected.push(Expected {
            count: r.embeddings,
            digest: 0,
        });
    }

    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut per_query_ms: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut latencies = Vec::new();
    let mut counts = Counts::default();
    let budget = measured_time(s);
    let start = Instant::now();
    let mut passes = 0;
    // Whole passes only, so every query carries the same weight.
    while passes == 0 || start.elapsed() < budget {
        for (i, q) in queries.iter().enumerate() {
            attempted += 1;
            let mut digest = EmbeddingChecksum::new();
            let t = Instant::now();
            let r = session.find_embeddings(q, &cfg, |m| {
                digest.update(m);
                true
            });
            let took = t.elapsed();
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    failed += 1;
                    notes.push(format!("query {i} failed: {e}"));
                    continue;
                }
            };
            let want = &mut expected[i];
            if passes == 0 {
                want.digest = digest.digest();
                counts.add(&r);
            }
            if r.embeddings != want.count
                || digest.count() != want.count
                || digest.digest() != want.digest
            {
                failed += 1;
                notes.push(format!(
                    "query {i}: {} embeddings, digest {:#x}; count path and first pass: {want:?}",
                    r.embeddings,
                    digest.digest()
                ));
                continue;
            }
            latencies.push(ms(took));
            per_query_ms[i].push(ms(took));
        }
        passes += 1;
    }
    let wall = start.elapsed();
    values.insert("peak_rss_mb", self_peak_rss_mb()?);
    drop(session);
    paced_setups(s, &mut setups, || set_up().map(|(_, took)| took))?;
    let lat = sorted(latencies);
    notes.push(format!(
        "{} queries x {passes} passes = {} samples; {} of the queries reach the {ONESHOT_LIMIT}-embedding cap",
        queries.len(),
        lat.len(),
        expected.iter().filter(|e| e.count == ONESHOT_LIMIT).count()
    ));
    put_latency(&mut values, &mut notes, &lat);
    values.insert("throughput_qps", lat.len() as f64 / wall.as_secs_f64());
    put_setup(&mut values, &mut notes, &setups);
    counts.put(&mut values);

    if s.traced {
        let input = ReplayInput {
            workload: Workload::Oneshot,
            graph_path: &path,
            queries: &queries,
            cfg: &cfg,
            mode: replay::Mode::Collect,
            cache: false,
            deltas: None,
            expected: &expected,
            expected_alt: None,
        };
        let r = replay::run(&input, s, replay_time(s), &sequence(queries.len(), None))?;
        failed += r.mismatches;
        attempted += r.ops;
        notes.extend(r.notes);
        // Tracing overhead: the replay's enumerate-and-checksum time per
        // query against the untraced latency of the same queries.
        let (mut traced, mut untraced) = (0.0, 0.0);
        for (i, t) in &r.per_query_ms {
            traced += median(t);
            untraced += median(&per_query_ms[*i]);
        }
        if untraced > 0.0 {
            values.insert("trace.overhead_frac", traced / untraced - 1.0);
        }
        values.extend(r.values);
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        notes,
    })
}

/// Records `latency_p50_ms` and `latency_p95_ms`, noting the sample count
/// and the highest percentile the sample supports.
fn put_latency(values: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>, lat: &[f64]) {
    values.insert("latency_p50_ms", percentile(lat, 50.0));
    values.insert("latency_p95_ms", percentile(lat, 95.0));
    let beyond = crate::stats::beyond(lat.len(), 95.0);
    let tail = crate::stats::supported_tail(lat.len()).map_or("none".to_string(), |p| {
        format!("p{p} = {:.3} ms", percentile(lat, p))
    });
    notes.push(format!(
        "latency: n = {}, {beyond} samples beyond p95{}; highest supported tail: {tail}",
        lat.len(),
        if beyond < crate::stats::MIN_BEYOND {
            " (too few: p95 is not supported)"
        } else {
            ""
        }
    ));
}

/// Records `setup_s`, the median set-up, noting every repetition.
fn put_setup(values: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>, setups: &[f64]) {
    values.insert("setup_s", median(setups));
    let each: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    notes.push(format!("setup repetitions (ms): {}", each.join(" ")));
}

/// The op order both the served run and the replay follow: queries cycle
/// through the distinct set, and with `delta_every = Some(k)` one delta
/// follows every `k` queries.
fn sequence(distinct: usize, delta_every: Option<usize>) -> impl Fn(usize) -> ReplayOp {
    move |n| match delta_every {
        Some(k) if n % (k + 1) == k => ReplayOp::Delta(n / (k + 1)),
        Some(k) => ReplayOp::Query((n - n / (k + 1)) % distinct),
        None => ReplayOp::Query(n % distinct),
    }
}

// ---------------------------------------------------------------------
// serve_*: the deployed `cfl serve` binary, over loopback TCP.
// ---------------------------------------------------------------------

struct ServePlan {
    queries: Vec<String>,
    deltas: [String; 2],
}

impl Plan for ServePlan {
    fn query_payload(&self, i: usize) -> &str {
        &self.queries[i % self.queries.len()]
    }
    fn delta_payload(&self, i: usize) -> &str {
        &self.deltas[i % 2]
    }
}

fn edges_json(edges: &[(u32, u32)]) -> String {
    let parts: Vec<String> = edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("[{}]", parts.join(","))
}

/// `k` distinct non-edges of `g`, drawn from `seed`: inserted as one batch
/// and deleted as the next, they toggle the graph between two states.
fn delta_edges(g: &Graph, seed: u64, k: usize) -> Vec<(u32, u32)> {
    let n = g.num_vertices() as u64;
    let mut state = sub_seed(seed, 99);
    let mut out: Vec<(u32, u32)> = Vec::new();
    while out.len() < k {
        let a = (splitmix(&mut state) % n) as u32;
        let b = (splitmix(&mut state) % n) as u32;
        let e = (a.min(b), a.max(b));
        if a != b && !g.has_edge(a, b) && !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

fn run_serve(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let scale = if s.quick { 50 } else { 10 };
    let path = s.work_dir.join(format!("synthetic-{scale}.graph"));
    ensure_graph_file(&path, || Dataset::SyntheticDefault.build_scaled(scale))?;
    // Queries and references are made from the file the server parses.
    let g0 = load(&path)?;
    let count_only = w != Workload::ServeStream;
    let plan_cache = count_only;
    let mix = QueryMixSpec {
        sizes: if s.quick { vec![4, 6] } else { vec![4, 6, 8] },
        // serve_mixed: 96 distinct queries against the 64-entry plan cache.
        per_class: match (w, s.quick) {
            (Workload::ServeMixed, false) => 16,
            (Workload::ServeMixed, true) => 4,
            (_, false) => 4,
            (_, true) => 2,
        },
        seed: sub_seed(INPUT_SEED, 1),
    };
    let queries = shuffled(mix.generate(&g0), s.seed);
    if queries.is_empty() {
        return Err("query mix is empty".to_string());
    }
    let mut notes = vec![format!(
        "{} queries, {} distinct plans (the plan cache holds {DEFAULT_PLAN_CACHE_CAPACITY})",
        queries.len(),
        distinct_plans(&queries)
    )];
    let cfg = MatchConfig::exhaustive().with_budget(Budget::first(SERVE_LIMIT));

    // serve_mixed toggles one edge: with four, most deltas dropped most
    // plans, so the cache never filled and never evicted.
    let toggle = delta_edges(&g0, INPUT_SEED, 1);
    let mut insert = GraphDelta::new();
    let mut delete = GraphDelta::new();
    for &(a, b) in &toggle {
        insert.insert(a, b);
        delete.delete(a, b);
    }
    let g1 = g0
        .apply_delta(&insert)
        .map_err(|e| format!("delta toggle is invalid: {e}"))?
        .graph;
    // In-process references: the digest and count a one-shot run produces
    // for each query, on both toggle states for serve_mixed.
    let mut counts = Counts::default();
    let expected = references(&g0, &queries, &cfg, count_only, Some(&mut counts))?;
    let expected_alt = match w {
        Workload::ServeMixed => Some(references(&g1, &queries, &cfg, count_only, None)?),
        _ => None,
    };

    let plan = ServePlan {
        queries: queries
            .iter()
            .map(|q| submit_payload("default", q, Some(SERVE_LIMIT), None, count_only))
            .collect(),
        deltas: [
            format!(
                "{{\"op\":\"apply-delta\",\"insert\":{}}}",
                edges_json(&toggle)
            ),
            format!(
                "{{\"op\":\"apply-delta\",\"delete\":{}}}",
                edges_json(&toggle)
            ),
        ],
    };

    // Setup: spawn until "listening", several times before the measured
    // part (the last server serves it) and several times after it.
    let spawn = || ServerProc::spawn(&s.cfl, &path, plan_cache);
    let mut setups = Vec::new();
    let mut server = None;
    paced_setups(s, &mut setups, || {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        let (proc_, took) = spawn()?;
        server = Some(proc_);
        Ok(took)
    })?;
    let server = server.ok_or("no server started")?;
    let before = server.stats()?;

    let run_for = measured_time(s);
    let (records, throughput, base_step, tallies) = match w {
        Workload::ServeOpen => {
            let steps = open_steps(run_for);
            let (records, tallies) = open_loop(&server.addr, 2, &steps, REQUEST_TIMEOUT, &plan);
            let top = steps.len() - 1;
            let done = records
                .iter()
                .filter(|r| r.step == top && r.result.is_ok())
                .count();
            let qps = done as f64 / tallies[top].wall.as_secs_f64();
            (records, qps, Some(0), Some((steps, tallies)))
        }
        _ => {
            let every = (w == Workload::ServeMixed).then_some(8);
            let (records, wall) =
                closed_loop(&server.addr, 2, run_for, REQUEST_TIMEOUT, every, &plan);
            let done = records
                .iter()
                .filter(|r| matches!(r.op, Op::Query(_)) && r.result.is_ok())
                .count();
            (records, done as f64 / wall.as_secs_f64(), None, None)
        }
    };
    let after = server.stats()?;
    let peak = server.peak_rss_mb()?;
    server.shutdown()?;
    paced_setups(s, &mut setups, || {
        let (proc_, took) = spawn()?;
        proc_.shutdown()?;
        Ok(took)
    })?;

    // Check every served answer against the in-process references.
    let mut records = records;
    for r in &mut records {
        let Op::Query(i) = r.op else { continue };
        let i = i % queries.len();
        if let Ok(served) = &r.result {
            let want = [Some(&expected[i]), expected_alt.as_ref().map(|e| &e[i])];
            if !want
                .into_iter()
                .flatten()
                .any(|e| e.matches(served, count_only))
            {
                r.result = Err(Failure::Mismatch(format!(
                    "query {i}: served {} embeddings digest {:#x}, expected {} digest {:#x}",
                    served.embeddings, served.checksum, expected[i].count, expected[i].digest
                )));
            }
        }
    }

    let mut values = BTreeMap::new();
    let failures: Vec<&Failure> = records
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    let mismatches = failures
        .iter()
        .filter(|f| matches!(f, Failure::Mismatch(_)))
        .count();
    if let Some(f) = failures.first() {
        notes.push(format!(
            "{} failed operations; first: {f:?}",
            failures.len()
        ));
    }
    let in_base = |r: &&Record| base_step.is_none_or(|b| r.step == b);
    let ok_queries: Vec<(&Record, &Served)> = records
        .iter()
        .filter(in_base)
        .filter(|r| matches!(r.op, Op::Query(_)))
        .filter_map(|r| r.result.as_ref().ok().map(|sv| (r, sv)))
        .collect();
    let lat = sorted(ok_queries.iter().map(|(r, _)| ms(r.latency)).collect());
    put_latency(&mut values, &mut notes, &lat);
    values.insert("throughput_qps", throughput);
    put_setup(&mut values, &mut notes, &setups);
    values.insert("peak_rss_mb", peak);

    let p50 = |v: Vec<f64>| percentile(&sorted(v), 50.0);
    values.insert(
        "serve.ack_ms.p50",
        p50(ok_queries.iter().map(|(_, sv)| ms(sv.ack)).collect()),
    );
    let exec = sorted(ok_queries.iter().map(|(_, sv)| sv.exec_ms).collect());
    values.insert("serve.exec_ms.p50", percentile(&exec, 50.0));
    values.insert("serve.exec_ms.p95", percentile(&exec, 95.0));
    let outside = p50(ok_queries
        .iter()
        .map(|(r, sv)| (ms(r.latency) - sv.exec_ms).max(0.0))
        .collect());
    values.insert("serve.outside_ms.p50", outside);
    values.insert(
        "serve.outside_share",
        outside / percentile(&lat, 50.0).max(f64::MIN_POSITIVE),
    );
    let received: u64 = ok_queries.iter().map(|(_, sv)| sv.received).sum();
    if received > 0 {
        let bytes: u64 = ok_queries.iter().map(|(_, sv)| sv.bytes).sum();
        values.insert("serve.bytes_per_embedding", bytes as f64 / received as f64);
    }
    let deltas: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.op, Op::Delta(_)) && r.result.is_ok())
        .map(|r| ms(r.latency))
        .collect();
    if !deltas.is_empty() {
        notes.push(format!("{} deltas applied", deltas.len()));
        values.insert("serve.delta_ms.p50", p50(deltas));
    }
    let counter = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    values.insert(
        "engine.rejected",
        counter(&after, "rejected") - counter(&before, "rejected"),
    );
    values.insert(
        "engine.limit_reached",
        counter(&after, "limit_reached") - counter(&before, "limit_reached"),
    );
    if let Some((steps, tallies)) = &tallies {
        values.insert(
            "loadgen.send_late_ms.p95",
            percentile(
                &sorted(ok_queries.iter().map(|(r, _)| ms(r.send_late)).collect()),
                95.0,
            ),
        );
        let mut max_rate: f64 = 0.0;
        for (si, (step, tally)) in steps.iter().zip(tallies).enumerate() {
            let in_step: Vec<&Record> = records.iter().filter(|r| r.step == si).collect();
            let fails = in_step.iter().filter(|r| r.result.is_err()).count();
            let p95 = percentile(
                &sorted(in_step.iter().map(|r| ms(r.latency)).collect()),
                95.0,
            );
            let meets = fails == 0 && tally.dropped == 0 && p95 <= SLO_P95_MS;
            if meets {
                max_rate = max_rate.max(step.rate);
            }
            notes.push(format!(
                "step {:>4} qps for {:.1} s: offered {}, dropped {}, failed {fails}, p95 {p95:.3} ms, SLO {}",
                step.rate,
                step.duration.as_secs_f64(),
                tally.offered,
                tally.dropped,
                if meets { "met" } else { "missed" }
            ));
        }
        values.insert("loadgen.max_rate_qps", max_rate);
    }
    counts.put(&mut values);

    let mut attempted = records.len() as u64;
    let mut failed = failures.len() as u64;
    let mut mismatched = mismatches as u64;
    if s.traced {
        let input = ReplayInput {
            workload: w,
            graph_path: &path,
            queries: &queries,
            cfg: &cfg,
            mode: if count_only {
                replay::Mode::Count
            } else {
                replay::Mode::Stream
            },
            cache: plan_cache,
            deltas: (w == Workload::ServeMixed).then_some((&insert, &delete)),
            expected: &expected,
            expected_alt: expected_alt.as_deref(),
        };
        let every = (w == Workload::ServeMixed).then_some(8);
        let r = replay::run(&input, s, replay_time(s), &sequence(queries.len(), every))?;
        attempted += r.ops;
        failed += r.mismatches;
        mismatched += r.mismatches;
        notes.extend(r.notes);
        values.extend(r.values);
    }
    Ok(Outcome {
        correct: mismatched == 0,
        attempted,
        failed,
        values,
        notes,
    })
}

/// serve_open's offered rates: a base step long enough for 200 samples at
/// its rate, then the rate grid, each step a fixed share of the run.
fn open_steps(run_for: Duration) -> Vec<Step> {
    let base = run_for.mul_f64(0.625);
    let rest = (run_for - base) / 3;
    let mut steps = vec![Step {
        rate: 16.0,
        duration: base,
    }];
    steps.extend([40.0, 160.0, 640.0].map(|rate| Step {
        rate,
        duration: rest,
    }));
    steps
}

/// Queries that are distinct up to a label-preserving isomorphism: the
/// number of plans the plan cache would hold for them.
fn distinct_plans(queries: &[Graph]) -> usize {
    let forms: BTreeSet<_> = queries
        .iter()
        .map(|q| canonical_query(q).map(|c| (c.canon_labels, c.canon_edges)))
        .collect();
    forms.len()
}

/// What a one-shot run produced for one query.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub count: u64,
    /// Digest of the emitted embeddings (of nothing, for count-only runs).
    pub digest: u64,
}

impl Expected {
    /// Count-only answers stream nothing, so only the server's side is
    /// compared (its digest, like the reference's, covers nothing).
    fn matches(&self, served: &Served, count_only: bool) -> bool {
        served.embeddings == self.count
            && served.checksum == self.digest
            && (count_only
                || (served.received == self.count && served.received_checksum == self.digest))
    }
}

/// One in-process run per query on a fresh session, the way a worker runs
/// it: the count-only path for count-only workloads, enumeration with a
/// checksumming sink otherwise.
fn references(
    g: &Graph,
    queries: &[Graph],
    cfg: &MatchConfig,
    count_only: bool,
    mut counts: Option<&mut Counts>,
) -> Result<Vec<Expected>, String> {
    let session = DataGraph::new(g);
    let mut out = Vec::with_capacity(queries.len());
    for q in queries {
        let mut digest = EmbeddingChecksum::new();
        let r = if count_only {
            session.count_embeddings(q, cfg)
        } else {
            session.find_embeddings(q, cfg, |m| {
                digest.update(m);
                true
            })
        }
        .map_err(|e| format!("reference run failed: {e}"))?;
        if let Some(c) = counts.as_deref_mut() {
            c.add(&r);
        }
        out.push(Expected {
            count: r.embeddings,
            digest: digest.digest(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_puts_one_delta_after_every_k_queries() {
        let seq = sequence(5, Some(2));
        let ops: Vec<ReplayOp> = (0..7).map(seq).collect();
        assert_eq!(
            ops,
            [
                ReplayOp::Query(0),
                ReplayOp::Query(1),
                ReplayOp::Delta(0),
                ReplayOp::Query(2),
                ReplayOp::Query(3),
                ReplayOp::Delta(1),
                ReplayOp::Query(4),
            ]
        );
        assert_eq!(sequence(3, None)(4), ReplayOp::Query(1));
    }

    #[test]
    fn open_steps_give_the_base_rate_200_samples_in_20_seconds() {
        let steps = open_steps(Duration::from_secs(20));
        assert_eq!(steps[0].rate * steps[0].duration.as_secs_f64(), 200.0);
        let total: Duration = steps.iter().map(|s| s.duration).sum();
        assert_eq!(total, Duration::from_secs(20));
    }

    #[test]
    fn delta_edges_are_distinct_non_edges() {
        let g = Dataset::SyntheticDefault.build_scaled(200);
        let e = delta_edges(&g, 3137, 4);
        assert_eq!(e.len(), 4);
        assert!(e.iter().all(|&(a, b)| a < b && !g.has_edge(a, b)));
        assert_eq!(e, delta_edges(&g, 3137, 4), "same seed, same edges");
    }
}
