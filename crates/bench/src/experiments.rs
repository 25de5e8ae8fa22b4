//! One runner per table/figure of the CFL-Match evaluation (§6, §A.8).
//!
//! Every runner regenerates the corresponding paper artifact at a
//! configurable scale: workload generation, parameter sweep, baselines, and
//! a printed table with the same rows/series the paper plots. Absolute
//! times differ from the paper (different hardware, synthetic stand-in
//! graphs); the *shape* — who wins, by what rough factor, where crossovers
//! fall — is the reproduction target, recorded in `EXPERIMENTS.md`.

use std::time::Duration;

use cfl_baselines::{compress, BoostedMatcher, CflMatcher, Matcher, QuickSi, TurboIso};
use cfl_datasets::{Dataset, QuerySetSpec, Workload};
use cfl_graph::{
    induced_subgraph, nec_partition, synthetic_graph, two_core, Graph, QueryDensity,
    SyntheticConfig,
};
use cfl_match::{Budget, MatchConfig};

use crate::runner::{run_query_set, AlgoResult, RunOptions};
use crate::table::TablePrinter;

/// Global experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divide dataset vertex/edge counts by this factor (1 = paper size).
    pub graph_factor: usize,
    /// Divide query sizes by this factor (floored at 4).
    pub query_factor: usize,
    /// Queries per set (paper: 100).
    pub queries_per_set: usize,
    /// Per-query time limit (paper: 5 h per 100-query set).
    pub time_limit: Duration,
    /// Per-query embedding cap (paper default 10^5).
    pub max_embeddings: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            graph_factor: 20,
            query_factor: 5,
            queries_per_set: 5,
            time_limit: Duration::from_secs(2),
            max_embeddings: 100_000,
        }
    }
}

impl Scale {
    fn options(&self) -> RunOptions {
        RunOptions {
            max_embeddings: self.max_embeddings,
            time_limit: self.time_limit,
        }
    }

    fn sizes_for(&self, w: &Workload) -> [usize; 4] {
        w.scaled_sizes(self.query_factor)
    }

    /// Generates the 8 query sets of Table 3 at this scale.
    fn query_sets(&self, g: &Graph, w: &Workload) -> Vec<(String, Vec<Graph>)> {
        let sizes = self.sizes_for(w);
        let mut out = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            for (j, density) in [QueryDensity::Sparse, QueryDensity::NonSparse]
                .into_iter()
                .enumerate()
            {
                let spec = QuerySetSpec {
                    size,
                    density,
                    count: self.queries_per_set,
                    seed: 0x9e37 + (i * 2 + j) as u64 * 104_729,
                };
                let name = format!("q{}{}", w.sizes[i], if j == 0 { "S" } else { "N" });
                out.push((name, spec.generate(g)));
            }
        }
        out
    }

    /// The two default sets (default size, both densities).
    fn default_sets(&self, g: &Graph, w: &Workload) -> Vec<(String, Vec<Graph>)> {
        let all = self.query_sets(g, w);
        // Default size is sizes[1] (q50 / q15), entries 2 and 3.
        all.into_iter().skip(2).take(2).collect()
    }
}

fn comparison_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(QuickSi),
        Box::new(TurboIso),
        Box::new(CflMatcher::full()),
    ]
}

fn print_series(
    title: &str,
    sets: &[(String, Vec<Graph>)],
    g: &Graph,
    matchers: &[Box<dyn Matcher>],
    opts: &RunOptions,
    metric: fn(&AlgoResult) -> String,
) {
    let mut header: Vec<&str> = vec!["query set"];
    let names: Vec<&'static str> = matchers.iter().map(|m| m.name()).collect();
    header.extend(names.iter().copied());
    let mut t = TablePrinter::new(&header);
    for (name, queries) in sets {
        let mut row = vec![name.clone()];
        for m in matchers {
            let res = run_query_set(m.as_ref(), g, queries, opts);
            row.push(if res.is_inf() {
                "INF".into()
            } else {
                metric(&res)
            });
        }
        t.row(row);
    }
    println!("## {title}");
    t.print();
    println!();
}

fn total_metric(r: &AlgoResult) -> String {
    format!("{:.2}", r.avg_total_ms)
}

fn enum_metric(r: &AlgoResult) -> String {
    format!("{:.2}", r.avg_enum_ms)
}

fn order_metric(r: &AlgoResult) -> String {
    format!("{:.3}", r.avg_order_ms)
}

/// Figure 8: total processing time vs |V(q)| on HPRD, Yeast, Human,
/// Synthetic, for QuickSI / TurboISO / CFL-Match.
pub fn fig8(scale: &Scale) {
    println!("# Figure 8 — total processing time (ms/query), vary |V(q)|\n");
    for d in [
        Dataset::Hprd,
        Dataset::Yeast,
        Dataset::Human,
        Dataset::SyntheticDefault,
    ] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        print_series(
            &format!(
                "{} (|V|={}, |E|={})",
                d.name(),
                g.num_vertices(),
                g.num_edges()
            ),
            &sets,
            &g,
            &comparison_matchers(),
            &scale.options(),
            total_metric,
        );
    }
}

/// Figure 9: embedding enumeration time on HPRD and Synthetic.
pub fn fig9(scale: &Scale) {
    println!("# Figure 9 — enumeration time (ms/query), vary |V(q)|\n");
    for d in [Dataset::Hprd, Dataset::SyntheticDefault] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &comparison_matchers(),
            &scale.options(),
            enum_metric,
        );
    }
}

/// Figure 10: query-vertex ordering time (CPI build + order vs TurboISO's
/// region exploration + path ranking).
pub fn fig10(scale: &Scale) {
    println!("# Figure 10 — ordering time (ms/query), vary |V(q)|\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![Box::new(TurboIso), Box::new(CflMatcher::full())];
    for d in [Dataset::Hprd, Dataset::SyntheticDefault] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            order_metric,
        );
    }
}

/// Figure 11: enumeration time on the *core-structures* of the queries.
pub fn fig11(scale: &Scale) {
    println!("# Figure 11 — enumeration time on core-structures (ms/query)\n");
    for d in [Dataset::Hprd, Dataset::Yeast] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        let core_sets: Vec<(String, Vec<Graph>)> = sets
            .into_iter()
            .map(|(name, queries)| {
                let cores: Vec<Graph> = queries
                    .iter()
                    .filter_map(|q| {
                        let core = two_core(q);
                        if core.iter().filter(|&&b| b).count() < 3 {
                            return None;
                        }
                        Some(induced_subgraph(q, &core).0)
                    })
                    .collect();
                (name, cores)
            })
            .filter(|(_, qs)| !qs.is_empty())
            .collect();
        print_series(
            &format!("{} (cores only)", d.name()),
            &core_sets,
            &g,
            &comparison_matchers(),
            &scale.options(),
            enum_metric,
        );
    }
}

/// Figure 12: total time vs #embeddings requested.
pub fn fig12(scale: &Scale) {
    println!("# Figure 12 — total time (ms/query), vary #embeddings\n");
    let limits = [1_000u64, 10_000, 100_000];
    for d in [Dataset::Hprd, Dataset::SyntheticDefault] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        let matchers = comparison_matchers();
        let mut header = vec!["#embeddings".to_string()];
        header.extend(matchers.iter().map(|m| m.name().to_string()));
        let mut t = TablePrinter::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for &limit in &limits {
            let opts = RunOptions {
                max_embeddings: limit,
                time_limit: scale.time_limit,
            };
            let mut row = vec![format!("{limit}")];
            for m in &matchers {
                let mut agg = AlgoResult::default();
                let mut n = 0;
                for (_, queries) in &sets {
                    let r = run_query_set(m.as_ref(), &g, queries, &opts);
                    if !r.is_inf() {
                        agg.avg_total_ms += r.avg_total_ms;
                        n += 1;
                    }
                }
                row.push(if n == 0 {
                    "INF".into()
                } else {
                    format!("{:.2}", agg.avg_total_ms / n as f64)
                });
            }
            t.row(row);
        }
        println!("## {}", d.name());
        t.print();
        println!();
    }
}

/// Figure 13: the boost (data-graph compression) technique.
pub fn fig13(scale: &Scale) {
    println!("# Figure 13 — boost technique (ms/query); compression matters\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(CflMatcher::full()),
        Box::new(BoostedMatcher::new("CFL-Match-Boost")),
    ];
    for d in [Dataset::Hprd, Dataset::Human] {
        let g = d.build_scaled(scale.graph_factor);
        let ratio = compress(&g).compression_ratio(&g);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        print_series(
            &format!("{} (compression ratio {:.1}%)", d.name(), ratio * 100.0),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Figure 14: framework ablation — Match vs CF-Match vs CFL-Match.
pub fn fig14(scale: &Scale) {
    println!("# Figure 14 — framework ablation (ms/query)\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(CflMatcher::with_config(
            "Match",
            MatchConfig::variant_match(),
        )),
        Box::new(CflMatcher::with_config(
            "CF-Match",
            MatchConfig::variant_cf_match(),
        )),
        Box::new(CflMatcher::full()),
    ];
    for d in [Dataset::Hprd, Dataset::Yeast] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Figure 15: CPI construction ablation — Naive vs TD vs TD+BU.
pub fn fig15(scale: &Scale) {
    println!("# Figure 15 — CPI construction ablation (ms/query)\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(CflMatcher::with_config(
            "CFL-Match-Naive",
            MatchConfig::variant_naive_cpi(),
        )),
        Box::new(CflMatcher::with_config(
            "CFL-Match-TD",
            MatchConfig::variant_topdown_cpi(),
        )),
        Box::new(CflMatcher::full()),
    ];
    for d in [Dataset::Hprd, Dataset::Yeast] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Figure 16: scalability of CFL-Match on synthetic graphs — vary |V(G)|,
/// d(G), |Σ|, plus CPI size vs |Σ|.
pub fn fig16(scale: &Scale) {
    println!("# Figure 16 — scalability of CFL-Match on synthetic graphs\n");
    let f = scale.graph_factor;
    let base_v = 100_000 / f;
    let opts = scale.options();
    let cfl = CflMatcher::full();

    let make = |v: usize, d: f64, labels: usize, seed: u64| {
        synthetic_graph(&SyntheticConfig {
            num_vertices: v,
            avg_degree: d,
            num_labels: labels,
            label_exponent: 1.0,
            twin_fraction: 0.0,
            seed,
        })
    };
    let queries_for = |g: &Graph, size: usize| {
        QuerySetSpec {
            size,
            density: QueryDensity::Sparse,
            count: scale.queries_per_set,
            seed: 7,
        }
        .generate(g)
    };
    let qsize = (50 / scale.query_factor).max(4);

    // (a) vary |V(G)|.
    let mut t = TablePrinter::new(&["|V(G)|", "CFL-Match (ms)"]);
    for mult in [1usize, 5, 10] {
        let g = make(base_v * mult, 8.0, 50, 11);
        let r = run_query_set(&cfl, &g, &queries_for(&g, qsize), &opts);
        t.row(vec![format!("{}", base_v * mult), r.display_total()]);
    }
    println!("## (a) vary |V(G)| (d=8, |Σ|=50)");
    t.print();
    println!();

    // (b) vary d(G).
    let mut t = TablePrinter::new(&["d(G)", "CFL-Match (ms)"]);
    for d in [4.0, 8.0, 16.0, 32.0] {
        let g = make(base_v, d, 50, 12);
        let r = run_query_set(&cfl, &g, &queries_for(&g, qsize), &opts);
        t.row(vec![format!("{d}"), r.display_total()]);
    }
    println!("## (b) vary d(G) (|V|={base_v}, |Σ|=50)");
    t.print();
    println!();

    // (c) vary |Σ| + (d) CPI size vs |Σ|.
    let mut t = TablePrinter::new(&["|Σ|", "CFL-Match (ms)", "CPI entries", "CPI KiB"]);
    for labels in [25usize, 50, 100, 200] {
        let g = make(base_v, 8.0, labels, 13);
        let r = run_query_set(&cfl, &g, &queries_for(&g, qsize), &opts);
        t.row(vec![
            format!("{labels}"),
            r.display_total(),
            format!("{:.0}", r.avg_index_entries),
            format!("{:.1}", r.avg_index_bytes / 1024.0),
        ]);
    }
    println!("## (c)+(d) vary |Σ| (|V|={base_v}, d=8)");
    t.print();
    println!();
}

/// Table 4: how little NEC compresses query core-structures.
pub fn tab4(scale: &Scale) {
    println!("# Table 4 — NEC compression of query core-structures\n");
    let mut t = TablePrinter::new(&["dataset", "query set", "avg reduced", "#compressed"]);
    for d in [
        Dataset::Hprd,
        Dataset::Yeast,
        Dataset::SyntheticDefault,
        Dataset::Human,
    ] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        for (name, queries) in scale.query_sets(&g, &w) {
            let mut reduced_total = 0usize;
            let mut compressed = 0usize;
            let mut counted = 0usize;
            for q in &queries {
                let core = two_core(q);
                if !core.iter().any(|&b| b) {
                    continue;
                }
                let (core_graph, _) = induced_subgraph(q, &core);
                let part = nec_partition(&core_graph);
                counted += 1;
                reduced_total += part.vertices_reduced();
                if part.compresses() {
                    compressed += 1;
                }
            }
            if counted == 0 {
                continue;
            }
            t.row(vec![
                d.name().into(),
                name,
                format!("{:.2}", reduced_total as f64 / counted as f64),
                format!("{compressed}/{counted}"),
            ]);
        }
    }
    t.print();
    println!();
}

/// Figure 20: enumeration/ordering time split vs #embeddings.
pub fn fig20(scale: &Scale) {
    println!("# Figure 20 — enumeration vs ordering time, vary #embeddings\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![Box::new(TurboIso), Box::new(CflMatcher::full())];
    let limits = [1_000u64, 10_000, 100_000];
    for d in [Dataset::Hprd, Dataset::SyntheticDefault] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        let mut t = TablePrinter::new(&[
            "#embeddings",
            "TurboISO enum",
            "TurboISO order",
            "CFL enum",
            "CFL order",
        ]);
        for &limit in &limits {
            let opts = RunOptions {
                max_embeddings: limit,
                time_limit: scale.time_limit,
            };
            let mut cells = vec![format!("{limit}")];
            for m in &matchers {
                let mut enum_ms = 0.0;
                let mut order_ms = 0.0;
                let mut n = 0;
                for (_, queries) in &sets {
                    let r = run_query_set(m.as_ref(), &g, queries, &opts);
                    if !r.is_inf() {
                        enum_ms += r.avg_enum_ms;
                        order_ms += r.avg_order_ms;
                        n += 1;
                    }
                }
                if n == 0 {
                    cells.push("INF".into());
                    cells.push("INF".into());
                } else {
                    cells.push(format!("{:.2}", enum_ms / n as f64));
                    cells.push(format!("{:.3}", order_ms / n as f64));
                }
            }
            t.row(cells);
        }
        println!("## {}", d.name());
        t.print();
        println!();
    }
}

/// Figure 21: DBLP and WordNet with the boost variant (§A.8).
pub fn fig21(scale: &Scale) {
    println!("# Figure 21 — DBLP / WordNet incl. boost (ms/query)\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(QuickSi),
        Box::new(TurboIso),
        Box::new(BoostedMatcher::new("TurboISO-Boost")),
        Box::new(CflMatcher::full()),
    ];
    for d in [Dataset::Dblp, Dataset::WordNet] {
        let g = d.build_scaled(scale.graph_factor * 2); // these are large
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        print_series(
            &format!("{} (|V|={})", d.name(), g.num_vertices()),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Figure 22: frequent vs infrequent queries (§A.8).
pub fn fig22(scale: &Scale) {
    println!("# Figure 22 — frequent vs infrequent queries (ms/query)\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![Box::new(TurboIso), Box::new(CflMatcher::full())];
    for d in [Dataset::Dblp, Dataset::WordNet] {
        let g = d.build_scaled(scale.graph_factor * 2);
        let w = Workload::for_dataset(d);
        // Pool all default-set queries, then bucket by embedding count.
        let pool: Vec<Graph> = scale
            .default_sets(&g, &w)
            .into_iter()
            .flat_map(|(_, qs)| qs)
            .collect();
        let threshold = 1_000u64;
        let classify_budget = Budget::first(threshold).with_time_limit(scale.time_limit);
        let cfl = CflMatcher::full();
        let mut frequent = Vec::new();
        let mut infrequent = Vec::new();
        for q in &pool {
            match cfl.count(q, &g, classify_budget.clone()) {
                Ok(r) if r.embeddings >= threshold => frequent.push(q.clone()),
                Ok(_) => infrequent.push(q.clone()),
                Err(_) => {}
            }
        }
        let buckets: Vec<(&str, Vec<Graph>)> = vec![
            ("frequent", frequent),
            ("infrequent", infrequent),
            ("random", pool.clone()),
        ];
        let mut t = TablePrinter::new(&["bucket", "#queries", "TurboISO", "CFL-Match"]);
        for (name, queries) in buckets {
            if queries.is_empty() {
                t.row(vec![name.into(), "0".into(), "-".into(), "-".into()]);
                continue;
            }
            let mut cells = vec![name.to_string(), format!("{}", queries.len())];
            for m in &matchers {
                let r = run_query_set(m.as_ref(), &g, &queries, &scale.options());
                cells.push(r.display_total());
            }
            t.row(cells);
        }
        println!("## {}", d.name());
        t.print();
        println!();
    }
}

/// §A.3 pathology: TurboISO's exponential materialized path embeddings vs
/// the polynomial CPI on the near-clique instance of Figures 17/18.
pub fn patho(scale: &Scale) {
    println!("# A.3 pathology — near-clique instance (Figures 17/18)\n");
    let n_clique = (60 / scale.graph_factor.min(6)).max(20) as u32;
    let cap = 1_000_000u64;
    let mut t = TablePrinter::new(&[
        "chain len",
        "TurboISO path embeddings",
        "TurboISO region entries",
        "CPI entries",
        "TurboISO ms",
        "CFL-Match ms",
    ]);
    for chain in [3u32, 4, 5, 6, 7] {
        let (q, g) = cfl_datasets::near_clique_pathology(n_clique, chain, true);
        let (paths, region) =
            cfl_baselines::turboiso::materialization_cost(&q, &g, cap).unwrap_or((0, 0));
        let Ok(prep) = cfl_match::prepare(&q, &g, &MatchConfig::default()) else {
            continue; // generated instance is always valid
        };
        let cpi_entries = prep.stats.cpi_candidates + prep.stats.cpi_edges;
        let opts = scale.options();
        let turbo = run_query_set(&TurboIso, &g, std::slice::from_ref(&q), &opts);
        let cfl = run_query_set(&CflMatcher::full(), &g, std::slice::from_ref(&q), &opts);
        t.row(vec![
            format!("{chain}"),
            if paths >= cap {
                format!(">{cap}")
            } else {
                format!("{paths}")
            },
            format!("{region}"),
            format!("{cpi_entries}"),
            turbo.display_total(),
            cfl.display_total(),
        ]);
    }
    println!("## near-clique with {n_clique} A-vertices");
    t.print();
    println!();
}

/// Extension ablation: candidate-filter knobs (§A.6 — MND and NLF on/off).
pub fn filters(scale: &Scale) {
    println!("# Filter ablation — CandVerify components (ms/query)\n");
    use cfl_match::FilterOptions;
    let variants: Vec<(&str, FilterOptions)> = vec![
        (
            "label+degree",
            FilterOptions {
                use_mnd: false,
                use_nlf: false,
                use_label_pair: false,
            },
        ),
        (
            "+MND",
            FilterOptions {
                use_mnd: true,
                use_nlf: false,
                use_label_pair: false,
            },
        ),
        (
            "+NLF",
            FilterOptions {
                use_mnd: false,
                use_nlf: true,
                use_label_pair: false,
            },
        ),
        ("+MND+NLF (paper)", FilterOptions::default()),
        (
            "+LabelPair (l2Match)",
            FilterOptions {
                use_mnd: true,
                use_nlf: true,
                use_label_pair: true,
            },
        ),
    ];
    let matchers: Vec<Box<dyn Matcher>> = variants
        .into_iter()
        .map(|(name, f)| {
            Box::new(CflMatcher::with_config(
                name,
                MatchConfig::default().with_filters(f),
            )) as Box<dyn Matcher>
        })
        .collect();
    for d in [Dataset::Yeast, Dataset::Human] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Extension ablation: greedy path order vs the §7 future-work
/// core-hierarchy order and the DAF-style adaptive order.
pub fn hier(scale: &Scale) {
    println!("# Ordering ablation — Algorithm 2 vs arbitrary vs core-hierarchy vs adaptive\n");
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(CflMatcher::with_config(
            "CFL-Arbitrary",
            MatchConfig {
                order: cfl_match::OrderStrategy::Arbitrary,
                ..Default::default()
            },
        )),
        Box::new(CflMatcher::full()),
        Box::new(CflMatcher::with_config(
            "CFL-Hierarchy",
            MatchConfig::variant_core_hierarchy(),
        )),
        Box::new(CflMatcher::with_config(
            "CFL-Adaptive",
            MatchConfig {
                order: cfl_match::OrderStrategy::Adaptive,
                ..Default::default()
            },
        )),
    ];
    for d in [Dataset::Human, Dataset::SyntheticDefault] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.query_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// Extension: all seven algorithms on the default sets (the full
/// related-work lineup — Ullmann, VF2, GraphQL, SPath, QuickSI, TurboISO,
/// CFL-Match).
pub fn related(scale: &Scale) {
    println!("# Related-work lineup — all algorithms (ms/query)\n");
    use cfl_baselines::{GraphQl, SPath, Ullmann, Vf2};
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(Ullmann),
        Box::new(Vf2),
        Box::new(GraphQl),
        Box::new(SPath),
        Box::new(QuickSi),
        Box::new(TurboIso),
        Box::new(CflMatcher::full()),
    ];
    for d in [Dataset::Yeast, Dataset::Human] {
        let g = d.build_scaled(scale.graph_factor);
        let w = Workload::for_dataset(d);
        let sets = scale.default_sets(&g, &w);
        print_series(
            d.name(),
            &sets,
            &g,
            &matchers,
            &scale.options(),
            total_metric,
        );
    }
}

/// All experiment ids in run order.
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab4", "fig20",
    "fig21", "fig22", "patho", "filters", "hier", "related",
];

/// Dispatches one experiment by id; returns false for unknown ids.
pub fn run_experiment(id: &str, scale: &Scale) -> bool {
    match id {
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "tab4" => tab4(scale),
        "fig20" => fig20(scale),
        "fig21" => fig21(scale),
        "fig22" => fig22(scale),
        "patho" => patho(scale),
        "filters" => filters(scale),
        "hier" => hier(scale),
        "related" => related(scale),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            graph_factor: 60,
            query_factor: 10,
            queries_per_set: 1,
            time_limit: Duration::from_secs(5),
            max_embeddings: 100,
        }
    }

    #[test]
    fn every_experiment_id_dispatches() {
        for id in ALL_EXPERIMENTS {
            assert!(
                matches!(
                    id,
                    "fig8"
                        | "fig9"
                        | "fig10"
                        | "fig11"
                        | "fig12"
                        | "fig13"
                        | "fig14"
                        | "fig15"
                        | "fig16"
                        | "tab4"
                        | "fig20"
                        | "fig21"
                        | "fig22"
                        | "patho"
                        | "filters"
                        | "hier"
                        | "related"
                ),
                "{id}"
            );
        }
        assert!(!run_experiment("nonsense", &tiny()));
    }

    #[test]
    fn smoke_fast_experiments() {
        // Run a representative subset end-to-end at a trivial scale; this
        // guards the harness against bit-rot without burning CI time.
        let s = tiny();
        for id in ["fig14", "fig15", "tab4", "filters"] {
            assert!(run_experiment(id, &s), "{id}");
        }
    }
}
