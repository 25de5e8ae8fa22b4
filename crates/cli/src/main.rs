//! `cfl` — command-line interface to the CFL-Match subgraph-matching
//! library.
//!
//! ```text
//! cfl generate --vertices N [--degree D] [--labels L] [--seed S] -o G.graph
//! cfl dataset  <hprd|yeast|human|dblp|wordnet|synthetic> [--scale N] -o G.graph
//! cfl query    <data.graph> --size N [--density sparse|dense]
//!              [--count K] [--seed S] -o PREFIX       # writes PREFIX-<i>.graph
//! cfl match    <query.graph> <data.graph> [--algorithm NAME] [--limit N]
//!              [--time-limit SECS] [--repeat N] [--plan-cache]
//!              [--order static|adaptive] [--pruning plain|failing-set]
//!              [--label-pair] [--print] [--count-only] [--checksum]
//! cfl serve    <data.graph> [--listen HOST:PORT] [--workers N]
//!              [--queue-depth N] [--batch N] [--plan-cache]
//! cfl stats    <graph>
//! ```

use std::process::exit;
use std::time::{Duration, Instant};

use cfl_baselines::{BoostedMatcher, CflMatcher, Matcher, QuickSi, TurboIso, Ullmann, Vf2};
use cfl_datasets::Dataset;
use cfl_graph::{
    query_set, read_graph_file, synthetic_graph, write_graph_file, QueryDensity, SyntheticConfig,
};
use cfl_match::Budget;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "dataset" => cmd_dataset(rest),
        "query" => cmd_query(rest),
        "match" => cmd_match(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "workload" => cmd_workload(rest),
        "verify" => cmd_verify(rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "cfl — CFL-Match subgraph matching\n\
         commands:\n  \
         generate --vertices N [--degree D] [--labels L] [--seed S] -o FILE\n  \
         dataset <hprd|yeast|human|dblp|wordnet|synthetic> [--scale N] -o FILE\n  \
         query <data> --size N [--density sparse|dense] [--count K] [--seed S] -o PREFIX\n  \
         match <query> <data> [--algorithm cfl|quicksi|turboiso|vf2|ullmann|graphql|spath|boost]\n        \
               [--limit N] [--time-limit SECS] [--repeat N] [--plan-cache]\n        \
               [--order static|adaptive] [--pruning plain|failing-set] [--label-pair]\n        \
               [--print] [--count-only] [--checksum] [--stats] [--stats-json]\n  \
         serve <data> [--listen HOST:PORT] [--name GRAPH] [--workers N] [--queue-depth N]\n        \
               [--batch N] [--default-limit N] [--default-deadline-ms N]\n        \
               [--plan-cache]\n  \
         stats <graph> [--top N]\n  \
         workload <hprd|yeast|human|dblp|wordnet|synthetic> [--scale N] [--queries N] -o DIR\n  \
         verify [<query> <data>] [--scale N] [--labels L] [--size N] [--seed S]\n        \
               [--variant cfl|cf|match|naive|topdown]"
    );
}

struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Splits `args` into positionals, `valued` flags with their values and
    /// `switches`. Any other flag is a usage error (exit 2), so a mistyped
    /// or retired flag fails loudly instead of being ignored.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Flags {
        let mut f = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if valued.contains(&name) {
                    i += 1;
                    let Some(v) = args.get(i) else {
                        eprintln!("flag --{name} needs a value");
                        exit(2);
                    };
                    f.pairs.push((name.to_string(), v.clone()));
                } else if switches.contains(&name) {
                    f.switches.push(name.to_string());
                } else {
                    eprintln!("unknown flag {a}");
                    exit(2);
                }
            } else {
                f.positional.push(a.clone());
            }
            i += 1;
        }
        f
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{name}: {v:?}");
                exit(2)
            }),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn require_output(f: &Flags) -> &str {
    f.get("o").or_else(|| f.get("output")).unwrap_or_else(|| {
        eprintln!("missing -o FILE");
        exit(2)
    })
}

fn cmd_generate(args: &[String]) {
    let f = Flags::parse(
        args,
        &["vertices", "degree", "labels", "seed", "o", "output"],
        &[],
    );
    let cfg = SyntheticConfig {
        num_vertices: f.get_parse("vertices", 10_000usize),
        avg_degree: f.get_parse("degree", 8.0f64),
        num_labels: f.get_parse("labels", 50usize),
        label_exponent: 1.0,
        twin_fraction: 0.0,
        seed: f.get_parse("seed", 1u64),
    };
    let g = synthetic_graph(&cfg);
    let out = require_output(&f);
    write_graph_file(&g, out).unwrap_or_else(die);
    println!(
        "wrote {out}: {} vertices, {} edges, {} labels",
        g.num_vertices(),
        g.num_edges(),
        g.num_labels()
    );
}

fn cmd_dataset(args: &[String]) {
    let f = Flags::parse(args, &["scale", "o", "output"], &[]);
    let Some(name) = f.positional.first() else {
        eprintln!("dataset name required");
        exit(2);
    };
    let d = match name.to_lowercase().as_str() {
        "hprd" => Dataset::Hprd,
        "yeast" => Dataset::Yeast,
        "human" => Dataset::Human,
        "dblp" => Dataset::Dblp,
        "wordnet" => Dataset::WordNet,
        "synthetic" => Dataset::SyntheticDefault,
        other => {
            eprintln!("unknown dataset {other:?}");
            exit(2);
        }
    };
    let scale = f.get_parse("scale", 1usize);
    let g = d.build_scaled(scale);
    let out = require_output(&f);
    write_graph_file(&g, out).unwrap_or_else(die);
    println!(
        "wrote {out} ({} ÷{scale}): {} vertices, {} edges",
        d.name(),
        g.num_vertices(),
        g.num_edges()
    );
}

fn cmd_query(args: &[String]) {
    let f = Flags::parse(
        args,
        &["size", "density", "count", "seed", "o", "output"],
        &[],
    );
    let Some(path) = f.positional.first() else {
        eprintln!("data graph path required");
        exit(2);
    };
    let g = read_graph_file(path).unwrap_or_else(die);
    let density = match f.get("density").unwrap_or("sparse") {
        "sparse" | "s" => QueryDensity::Sparse,
        "dense" | "nonsparse" | "n" => QueryDensity::NonSparse,
        other => {
            eprintln!("unknown density {other:?} (sparse|dense)");
            exit(2);
        }
    };
    let size = f.get_parse("size", 10usize);
    let count = f.get_parse("count", 1usize);
    let seed = f.get_parse("seed", 1u64);
    let prefix = require_output(&f);
    let queries = query_set(&g, size, density, count, seed);
    if queries.len() < count {
        eprintln!(
            "warning: only {} of {count} queries could be extracted",
            queries.len()
        );
    }
    for (i, q) in queries.iter().enumerate() {
        let path = format!("{prefix}-{i}.graph");
        write_graph_file(q, &path).unwrap_or_else(die);
        println!(
            "wrote {path}: {} vertices, {} edges",
            q.num_vertices(),
            q.num_edges()
        );
    }
}

/// Builds the engine configuration from the strategy flags: `--order`
/// picks the ordering strategy, `--pruning` the backtracking strategy,
/// and `--label-pair` turns on the optional label-pair candidate filter.
fn strategy_config(f: &Flags) -> cfl_match::MatchConfig {
    let mut cfg = cfl_match::MatchConfig::exhaustive();
    match f.get("order") {
        None | Some("static") => {}
        Some("adaptive") => cfg.order = cfl_match::OrderStrategy::Adaptive,
        Some(other) => {
            eprintln!("unknown --order {other:?} (expected static or adaptive)");
            exit(2);
        }
    }
    match f.get("pruning") {
        None | Some("plain") => {}
        Some("failing-set") => cfg = cfg.with_pruning(cfl_match::PruningKind::FailingSet),
        Some(other) => {
            eprintln!("unknown --pruning {other:?} (expected plain or failing-set)");
            exit(2);
        }
    }
    if f.has("label-pair") {
        let mut filters = cfg.filters;
        filters.use_label_pair = true;
        cfg = cfg.with_filters(filters);
    }
    cfg
}

fn cmd_match(args: &[String]) {
    let f = Flags::parse(
        args,
        &[
            "algorithm",
            "limit",
            "time-limit",
            "repeat",
            "order",
            "pruning",
        ],
        &[
            "plan-cache",
            "label-pair",
            "print",
            "count-only",
            "checksum",
            "stats",
            "stats-json",
        ],
    );
    if f.positional.len() != 2 {
        eprintln!("usage: cfl match <query.graph> <data.graph> [flags]");
        exit(2);
    }
    let q = read_graph_file(&f.positional[0]).unwrap_or_else(die);
    let g = read_graph_file(&f.positional[1]).unwrap_or_else(die);

    let algo_name = f.get("algorithm").unwrap_or("cfl");
    let repeat = f.get_parse("repeat", 1usize).max(1);
    let use_cache = f.has("plan-cache");
    if use_cache && !matches!(algo_name, "cfl" | "cfl-match") {
        eprintln!("--plan-cache requires --algorithm cfl");
        exit(2);
    }
    let strategy_flags =
        f.get("order").is_some() || f.get("pruning").is_some() || f.has("label-pair");
    if strategy_flags && !matches!(algo_name, "cfl" | "cfl-match") {
        eprintln!("--order/--pruning/--label-pair require --algorithm cfl");
        exit(2);
    }
    let engine_config = strategy_config(&f);

    let mut budget = Budget::first(f.get_parse("limit", 100_000u64));
    if let Some(tl) = f.get("time-limit") {
        let secs: u64 = tl.parse().unwrap_or_else(|_| {
            eprintln!("bad --time-limit");
            exit(2)
        });
        budget = budget.with_time_limit(Duration::from_secs(secs));
    }

    let print_embeddings = f.has("print");
    let count_only = f.has("count-only");
    let quiet = f.has("stats-json");
    // `--checksum` folds every emitted embedding into the same FNV-1a
    // digest the serving protocol reports, so scripts can compare a
    // one-shot run against `cfl serve` output byte-for-byte.
    let do_checksum = f.has("checksum");
    if do_checksum && repeat > 1 {
        eprintln!("--checksum requires --repeat 1 (the digest covers a single run)");
        exit(2);
    }
    if do_checksum && count_only {
        eprintln!("--checksum needs emitted embeddings; drop --count-only");
        exit(2);
    }
    let mut checksum = cfl_match::EmbeddingChecksum::new();
    let mut sink = |m: &[cfl_graph::VertexId]| {
        if print_embeddings {
            println!("{m:?}");
        }
        if do_checksum {
            checksum.update(m);
        }
        true
    };

    // `--plan-cache` routes repeats through a cached session: run 1 is a
    // cold build and a cache miss, runs 2..N hit the stored plan and skip
    // CPI construction (their reported build time is the cache lookup).
    // Without it every repeat pays the full cold pipeline.
    let (display_name, report, elapsed) = if use_cache {
        let config = engine_config.with_budget(budget);
        let session = cfl_match::DataGraph::with_cache(&g);
        let mut last = None;
        for i in 0..repeat {
            let start = Instant::now();
            let report = if count_only {
                session.count_embeddings(&q, &config)
            } else {
                session.find_embeddings(&q, &config, &mut sink)
            }
            .unwrap_or_else(die);
            let elapsed = start.elapsed();
            per_run_line(quiet, repeat, i, &report, elapsed);
            last = Some((report, elapsed));
        }
        let (mut report, elapsed) = last.unwrap_or_else(|| unreachable!("repeat >= 1"));
        // The session holds the cache, so its counters are read once here,
        // after the last run, rather than copied into every run's report.
        if let (Some(cache), Some(trace)) = (session.plan_cache(), report.stats.trace.as_mut()) {
            trace.cache = cache.snapshot().into();
        }
        ("CFL-Match (plan cache)", report, elapsed)
    } else {
        let algo: Box<dyn Matcher> = match algo_name {
            "cfl" | "cfl-match" => Box::new(CflMatcher::with_config("CFL-Match", engine_config)),
            "quicksi" => Box::new(QuickSi),
            "turboiso" => Box::new(TurboIso),
            "vf2" => Box::new(Vf2),
            "ullmann" => Box::new(Ullmann),
            "graphql" => Box::new(cfl_baselines::GraphQl),
            "spath" => Box::new(cfl_baselines::SPath),
            "boost" => Box::new(BoostedMatcher::default()),
            other => {
                eprintln!("unknown algorithm {other:?}");
                exit(2);
            }
        };
        let mut last = None;
        for i in 0..repeat {
            let start = Instant::now();
            let report = if count_only {
                algo.count(&q, &g, budget.clone())
            } else {
                algo.find(&q, &g, budget.clone(), &mut sink)
            }
            .unwrap_or_else(die);
            let elapsed = start.elapsed();
            per_run_line(quiet, repeat, i, &report, elapsed);
            last = Some((report, elapsed));
        }
        let (report, elapsed) = last.unwrap_or_else(|| unreachable!("repeat >= 1"));
        (algo.name(), report, elapsed)
    };

    let digest = do_checksum.then(|| checksum.digest());
    if f.has("stats-json") {
        print_stats_json(&report, elapsed, digest);
        return;
    }

    println!(
        "{}: {} embeddings ({:?}) in {:.3} ms [{} search nodes]",
        display_name,
        report.embeddings,
        report.outcome,
        elapsed.as_secs_f64() * 1e3,
        report.stats.search_nodes
    );
    if let Some(d) = digest {
        // Same format the serve protocol's `done` frame uses.
        println!("checksum: 0x{d:016x}");
    }

    if f.has("stats") {
        match report.stats.trace.as_deref() {
            Some(trace) => print!("{}", trace.render_table()),
            None => eprintln!("{NO_TRACE_HINT}"),
        }
    }
}

/// One line per repeat run (suppressed for single runs and `--stats-json`,
/// whose stdout must stay a single JSON object). Build time distinguishes
/// the cold pipeline from a plan-cache lookup at a glance.
fn per_run_line(
    quiet: bool,
    repeat: usize,
    i: usize,
    report: &cfl_match::MatchReport,
    elapsed: Duration,
) {
    if quiet || repeat <= 1 {
        return;
    }
    println!(
        "run {:>3}: {} embeddings in {:.3} ms (build {:.3} ms)",
        i + 1,
        report.embeddings,
        elapsed.as_secs_f64() * 1e3,
        report.stats.build_time.as_secs_f64() * 1e3
    );
}

/// Shown when `--stats` finds no trace data on the report: only CFL-Match
/// records one, so a baseline algorithm was selected.
const NO_TRACE_HINT: &str = "no trace data recorded: baseline algorithms record no trace; \
     use `--algorithm cfl` for pruning counters and phase timers";

/// Emits the run outcome plus the full trace report as one JSON object on
/// stdout. The `"trace"` member is `null` when no counters were recorded
/// (see [`NO_TRACE_HINT`]); the outer members are always present so
/// scripts can consume the output whatever the algorithm. A
/// `"checksum"` member is appended only under `--checksum`, in the same
/// `0x`-prefixed format the serve protocol uses.
fn print_stats_json(report: &cfl_match::MatchReport, elapsed: Duration, digest: Option<u64>) {
    let trace = report
        .stats
        .trace
        .as_deref()
        .map_or_else(|| "null".to_string(), cfl_match::TraceReport::to_json);
    let checksum = digest.map_or_else(String::new, |d| format!(",\"checksum\":\"0x{d:016x}\""));
    println!(
        "{{\"embeddings\":{},\"outcome\":\"{:?}\",\"elapsed_ms\":{:.3},\"search_nodes\":{},\"trace\":{}{}}}",
        report.embeddings,
        report.outcome,
        elapsed.as_secs_f64() * 1e3,
        report.stats.search_nodes,
        trace,
        checksum
    );
}

/// `cfl serve`: long-lived serving endpoint. Loads one data graph,
/// registers it under `--name` (default `"default"`), and speaks the
/// framed JSON protocol from `cfl_match::serve` on `--listen` until a
/// client sends the `shutdown` op (see `docs/SERVING.md`).
///
/// Mirroring `cfl match`, the plan cache is opt-in via `--plan-cache`
/// even though embedded [`cfl_match::EngineConfig`] users get it by
/// default.
fn cmd_serve(args: &[String]) {
    let f = Flags::parse(
        args,
        &[
            "listen",
            "name",
            "workers",
            "queue-depth",
            "batch",
            "default-limit",
            "default-deadline-ms",
        ],
        &["plan-cache"],
    );
    let Some(path) = f.positional.first() else {
        eprintln!("usage: cfl serve <data.graph> [--listen HOST:PORT] [flags]");
        exit(2);
    };
    let g = read_graph_file(path).unwrap_or_else(die);
    let default_deadline = f
        .get("default-deadline-ms")
        .map(|_| Duration::from_millis(f.get_parse("default-deadline-ms", 0u64)));
    let default_limit = f
        .get("default-limit")
        .map(|_| f.get_parse("default-limit", 0u64));
    let config = cfl_match::EngineConfig {
        workers: f.get_parse("workers", 2usize).max(1),
        queue_depth: f.get_parse("queue-depth", 64usize),
        batch_size: f.get_parse("batch", 64usize).max(1),
        default_limit,
        default_deadline,
        plan_cache: f.has("plan-cache"),
    };
    let name = f.get("name").unwrap_or("default").to_string();
    let workers = config.workers;
    let engine = cfl_match::Engine::new(config);
    engine.add_graph(name.clone(), g);
    let listen = f.get("listen").unwrap_or("127.0.0.1:7878");
    let server = cfl_match::Server::start(std::sync::Arc::new(engine), listen).unwrap_or_else(die);
    // One parseable line so scripts can pick up an ephemeral port
    // (`--listen 127.0.0.1:0`).
    println!(
        "listening on {} ({workers} workers, graph {name:?})",
        server.addr()
    );
    server.wait();
}

fn cmd_stats(args: &[String]) {
    let f = Flags::parse(args, &["top"], &[]);
    let Some(path) = f.positional.first() else {
        eprintln!("graph path required");
        exit(2);
    };
    let g = read_graph_file(path).unwrap_or_else(die);
    let summary = cfl_graph::GraphSummary::compute(&g);
    println!("{summary}");
    println!("connected       {}", cfl_graph::is_connected(&g));
    let compressed = cfl_baselines::compress(&g);
    println!(
        "NEC compression {:.1}%",
        compressed.compression_ratio(&g) * 100.0
    );
    let top: usize = f.get_parse("top", 5);
    if top > 0 {
        println!("degree histogram (top {top} buckets by count):");
        let mut rows = summary.degree_histogram.clone();
        rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for (d, c) in rows.into_iter().take(top) {
            println!("  degree {d:>5}: {c} vertices");
        }
    }
}

fn cmd_workload(args: &[String]) {
    let f = Flags::parse(args, &["scale", "queries", "o", "output"], &[]);
    let Some(name) = f.positional.first() else {
        eprintln!("dataset name required");
        exit(2);
    };
    let d = match name.to_lowercase().as_str() {
        "hprd" => cfl_datasets::Dataset::Hprd,
        "yeast" => cfl_datasets::Dataset::Yeast,
        "human" => cfl_datasets::Dataset::Human,
        "dblp" => cfl_datasets::Dataset::Dblp,
        "wordnet" => cfl_datasets::Dataset::WordNet,
        "synthetic" => cfl_datasets::Dataset::SyntheticDefault,
        other => {
            eprintln!("unknown dataset {other:?}");
            exit(2);
        }
    };
    let scale = f.get_parse("scale", 1usize);
    let count = f.get_parse("queries", 100usize);
    let out_dir = require_output(&f);
    let g = d.build_scaled(scale);
    write_graph_file(&g, std::path::Path::new(out_dir).join("data.graph")).unwrap_or_else(die);
    let w = cfl_datasets::Workload::for_dataset(d);
    let sizes = w.scaled_sizes(scale.max(1));
    for (i, &size) in sizes.iter().enumerate() {
        for (j, density) in [QueryDensity::Sparse, QueryDensity::NonSparse]
            .into_iter()
            .enumerate()
        {
            let spec = cfl_datasets::QuerySetSpec {
                size,
                density,
                count,
                seed: 0x9e37 + (i * 2 + j) as u64 * 104_729,
            };
            let queries = spec.generate(&g);
            save_query_set(out_dir, &spec.name(), &queries).unwrap_or_else(die);
            println!(
                "{}: {} queries -> {out_dir}/{}",
                spec.name(),
                queries.len(),
                spec.name()
            );
        }
    }
    println!("data graph -> {out_dir}/data.graph");
}

/// Writes `queries` as `<dir>/<name>/q-<i>.graph` plus a `manifest.txt`
/// listing the files in order.
fn save_query_set(
    dir: &str,
    name: &str,
    queries: &[cfl_graph::Graph],
) -> Result<(), cfl_graph::IoError> {
    use std::io::Write as _;
    let set_dir = std::path::Path::new(dir).join(name);
    std::fs::create_dir_all(&set_dir)?;
    let mut manifest = std::fs::File::create(set_dir.join("manifest.txt"))?;
    for (i, q) in queries.iter().enumerate() {
        let file = format!("q-{i}.graph");
        write_graph_file(q, set_dir.join(&file))?;
        writeln!(manifest, "{file}")?;
    }
    Ok(())
}

/// `cfl verify`: builds the full matching pipeline for a (query, data)
/// pair — read from files, or generated synthetically when no paths are
/// given — and runs every `cfl-verify` invariant checker over the prepared
/// structures, reporting violations with vertex-level diagnostics.
fn cmd_verify(args: &[String]) {
    let f = Flags::parse(
        args,
        &["scale", "labels", "size", "seed", "density", "variant"],
        &[],
    );
    let (q, g) = match f.positional.len() {
        2 => (
            read_graph_file(&f.positional[0]).unwrap_or_else(die),
            read_graph_file(&f.positional[1]).unwrap_or_else(die),
        ),
        0 => {
            // Synthetic pair: `--scale N` divides the paper's default 100k
            // vertices (mirroring `dataset --scale`).
            let scale = f.get_parse("scale", 8usize).max(1);
            let size = f.get_parse("size", 12usize);
            let seed = f.get_parse("seed", 1u64);
            let cfg = SyntheticConfig {
                num_vertices: (100_000 / scale).max(4 * size),
                avg_degree: 8.0,
                num_labels: f.get_parse("labels", 8usize),
                label_exponent: 1.0,
                twin_fraction: 0.0,
                seed,
            };
            let g = synthetic_graph(&cfg);
            let density = match f.get("density").unwrap_or("sparse") {
                "sparse" | "s" => QueryDensity::Sparse,
                "dense" | "nonsparse" | "n" => QueryDensity::NonSparse,
                other => {
                    eprintln!("unknown density {other:?} (sparse|dense)");
                    exit(2);
                }
            };
            let Some(q) = query_set(&g, size, density, 1, seed).into_iter().next() else {
                eprintln!("could not extract a {size}-vertex query from the generated graph");
                exit(1);
            };
            (q, g)
        }
        _ => {
            eprintln!("usage: cfl verify [<query.graph> <data.graph>] [flags]");
            exit(2);
        }
    };

    let config = match f.get("variant").unwrap_or("cfl") {
        "cfl" => cfl_match::MatchConfig::default(),
        "cf" => cfl_match::MatchConfig::variant_cf_match(),
        "match" => cfl_match::MatchConfig::variant_match(),
        "naive" => cfl_match::MatchConfig::variant_naive_cpi(),
        "topdown" => cfl_match::MatchConfig::variant_topdown_cpi(),
        other => {
            eprintln!("unknown variant {other:?} (cfl|cf|match|naive|topdown)");
            exit(2);
        }
    };

    println!(
        "data graph: {} vertices, {} edges, {} labels",
        g.num_vertices(),
        g.num_edges(),
        g.num_labels()
    );
    println!(
        "query:      {} vertices, {} edges",
        q.num_vertices(),
        q.num_edges()
    );

    let prepared = cfl_match::prepare(&q, &g, &config).unwrap_or_else(die);
    let d = &prepared.decomposition;
    println!(
        "decomposition: {} core, {} forest, {} leaf vertices",
        d.core.len(),
        d.forest.len(),
        d.leaves.len()
    );
    println!(
        "CPI: {} candidates, {} edges, {} bytes{}",
        prepared.cpi.total_candidates(),
        prepared.cpi.total_edges(),
        prepared.cpi.memory_bytes(),
        if prepared.provably_empty() {
            " (provably empty — zero embeddings)"
        } else {
            ""
        }
    );

    let report = cfl_match::verify_prepared(&q, &g, &prepared, &config);
    if report.is_clean() {
        println!("verify: no violations (graph, decomposition, CPI and order checks)");
    } else {
        println!("verify: {report}");
        exit(1);
    }
}

fn die<E: std::fmt::Display, T>(e: E) -> T {
    eprintln!("error: {e}");
    exit(1)
}
