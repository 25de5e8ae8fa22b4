//! `benchmark`: end-to-end and per-layer numbers for the CFL-Match library
//! and the `cfl serve` engine, from one command. See `README.md` next to
//! this package for the workloads, the metrics and how to read them.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--reps N] [--out FILE] [--cfl PATH]
//! benchmark --compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric, each with its unit). Everything else
//! goes to standard error.

mod client;
mod compare;
mod replay;
mod server;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Outcome, Settings, Workload, END_TO_END, PER_LAYER};

/// How the two halves are built; recorded in every report.
const BUILD_SERVER: &str = "cargo build --release -p cfl-cli";
const BUILD_BENCHMARK: &str = "cargo build --release --manifest-path benchmark/Cargo.toml";

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--reps N] [--out FILE] [--cfl PATH]\n       \
benchmark --compare A.json B.json\nworkloads: oneshot serve_stream serve_open serve_mixed";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    reps: u64,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    cfl: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 3137,
        seconds: 20.0,
        traced: false,
        quick: false,
        reps: 1,
        out: None,
        compare: None,
        cfl: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads.push(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--reps" => {
                a.reps = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--reps needs a positive integer")?;
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--cfl" => a.cfl = Some(PathBuf::from(value()?)),
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = workloads::ALL.to_vec();
    }
    Ok(a)
}

/// `HEAD` of the checkout, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, ...}` for `names`, 0 for a metric
/// the run did not measure. Non-finite values are printed as 0.
fn metrics_json(
    values: &BTreeMap<&'static str, f64>,
    names: &[(&str, &str)],
    prefix: &str,
) -> String {
    let mut out = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{prefix}{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out
}

fn report_to_stderr(w: Workload, seed: u64, o: &Outcome) {
    eprintln!(
        "== {} seed {seed}: correct {}, attempted {}, failed {}",
        w.name(),
        o.correct,
        o.attempted,
        o.failed
    );
    for n in &o.notes {
        eprintln!("   {n}");
    }
    for (name, v) in &o.values {
        eprintln!("   {name:<28} {v:>16.6} {}", unit_of(name));
    }
}

struct RunRecord {
    workload: Workload,
    seed: u64,
    outcome: Outcome,
}

fn full_report(a: &Args, runs: &[RunRecord]) -> String {
    let mut s = String::from("{\n  \"meta\": {");
    let _ = write!(
        s,
        "\"commit\": \"{}\", \"seed\": {}, \"reps\": {}, \"seconds\": {}, \"traced\": {}, \"quick\": {}, \
         \"available_parallelism\": {}, \"build_server\": \"{BUILD_SERVER}\", \"build_benchmark\": \"{BUILD_BENCHMARK}\"}},\n  \"runs\": [\n",
        commit(),
        a.seed,
        a.reps,
        a.seconds,
        a.traced,
        a.quick,
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    for (i, r) in runs.iter().enumerate() {
        let measured: Vec<(&str, &str)> =
            r.outcome.values.keys().map(|k| (*k, unit_of(k))).collect();
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}{}",
            r.workload.name(),
            r.seed,
            r.outcome.correct,
            r.outcome.attempted,
            r.outcome.failed,
            metrics_json(&r.outcome.values, &measured, ""),
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"summary\": [\n");
    let mut rows = Vec::new();
    for w in &a.workloads {
        let mine: Vec<&RunRecord> = runs.iter().filter(|r| r.workload == *w).collect();
        let names: Vec<&'static str> = mine
            .first()
            .map_or(Vec::new(), |r| r.outcome.values.keys().copied().collect());
        for name in names {
            let v: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.outcome.values.get(name).copied())
                .collect();
            let (q1, q3) = stats::quartiles(&v).unwrap_or((v[0], v[0]));
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{}\", \"n\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}}}",
                w.name(),
                unit_of(name),
                v.len(),
                stats::median(&v)
            ));
        }
    }
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((x, y)) = &a.compare {
        return match compare::run(x, y, Path::new("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Everything the benchmark writes stays under the build directory.
    let target =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let cfl = a
        .cfl
        .clone()
        .unwrap_or_else(|| target.join("release").join("cfl"));
    if a.workloads.iter().any(|w| *w != Workload::Oneshot) && !cfl.is_file() {
        eprintln!(
            "no cfl binary at {} (build it with `{BUILD_SERVER}` or pass --cfl)",
            cfl.display()
        );
        return ExitCode::from(2);
    }

    let mut runs = Vec::new();
    for &w in &a.workloads {
        for rep in 0..a.reps {
            let settings = Settings {
                seed: a.seed + rep,
                seconds: if a.quick {
                    a.seconds.min(2.0)
                } else {
                    a.seconds
                },
                traced: a.traced,
                quick: a.quick,
                cfl: cfl.clone(),
                work_dir: target.join("bench-work"),
                trace_dir: target.join("bench-trace"),
            };
            match workloads::run(w, &settings) {
                Ok(outcome) => {
                    report_to_stderr(w, settings.seed, &outcome);
                    runs.push(RunRecord {
                        workload: w,
                        seed: settings.seed,
                        outcome,
                    });
                }
                Err(e) => {
                    eprintln!("{} seed {}: {e}", w.name(), settings.seed);
                    return ExitCode::from(1);
                }
            }
        }
    }

    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, full_report(&a, &runs)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("wrote {}", path.display());
    }

    // The result line: one run's metrics, or every run's with the workload
    // (and, under --reps, the seed) as prefix.
    let catalog: &[(&str, &str)] = if a.traced { &PER_LAYER } else { &END_TO_END };
    let single = runs.len() == 1;
    let metrics: Vec<String> = runs
        .iter()
        .map(|r| {
            let prefix = match (single, a.reps) {
                (true, _) => String::new(),
                (false, 1) => format!("{}.", r.workload.name()),
                (false, _) => format!("{}.{}.", r.workload.name(), r.seed),
            };
            metrics_json(&r.outcome.values, catalog, &prefix)
        })
        .collect();
    let correct = runs.iter().all(|r| r.outcome.correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.iter().map(|r| r.outcome.attempted).sum::<u64>(),
        runs.iter().map(|r| r.outcome.failed).sum::<u64>(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
