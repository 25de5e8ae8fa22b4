//! End-to-end tests of the `cfl` binary: generate → query → match → stats.

use std::path::PathBuf;
use std::process::Command;

fn cfl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfl"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfl-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline() {
    let dir = tmpdir("pipeline");
    let data = dir.join("data.graph");
    let prefix = dir.join("q");

    // Generate a data graph.
    let out = cfl()
        .args([
            "generate",
            "--vertices",
            "500",
            "--degree",
            "6",
            "--labels",
            "8",
            "--seed",
            "3",
            "-o",
        ])
        .arg(&data)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Extract two queries.
    let out = cfl()
        .args(["query"])
        .arg(&data)
        .args(["--size", "6", "--count", "2", "--seed", "5", "-o"])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let q0 = dir.join("q-0.graph");
    assert!(q0.exists());

    // Match with two algorithms and compare counts.
    let count_of = |algo: &str| -> u64 {
        let out = cfl()
            .args(["match"])
            .arg(&q0)
            .arg(&data)
            .args(["--algorithm", algo, "--count-only", "--limit", "100000"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // "<name>: N embeddings (...)"
        stdout
            .split(':')
            .nth(1)
            .and_then(|s| s.trim().split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparsable output: {stdout}"))
    };
    assert_eq!(count_of("cfl"), count_of("vf2"));
    assert_eq!(count_of("cfl"), count_of("turboiso"));

    // Stats run cleanly.
    let out = cfl().args(["stats"]).arg(&data).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vertices") && stdout.contains("2-core"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_command() {
    let dir = tmpdir("dataset");
    let path = dir.join("yeast.graph");
    let out = cfl()
        .args(["dataset", "yeast", "--scale", "20", "-o"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cfl().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = cfl().args(["match", "only-one-arg"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn workload_command_writes_sets() {
    let dir = tmpdir("workload");
    let out = cfl()
        .args(["workload", "yeast", "--scale", "25", "--queries", "2", "-o"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("data.graph").exists());
    // Sparse default set must exist with a manifest.
    let some_set = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().is_dir());
    let set_dir = some_set.expect("at least one query-set directory").path();
    assert!(set_dir.join("manifest.txt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A small data graph and one query extracted from it.
fn small_inputs(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let data = dir.join("data.graph");
    let out = cfl()
        .args(["generate", "--vertices", "200", "--labels", "4", "-o"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cfl()
        .args(["query"])
        .arg(&data)
        .args(["--size", "4", "-o"])
        .arg(dir.join("q"))
        .output()
        .unwrap();
    assert!(out.status.success());
    (dir.join("q-0.graph"), data)
}

#[test]
fn unknown_flags_are_usage_errors() {
    let dir = tmpdir("unknown-flags");
    let (q, data) = small_inputs(&dir);
    for bad in ["--bogus", "--build-threads=4"] {
        let out = cfl()
            .arg("match")
            .arg(&q)
            .arg(&data)
            .args(["--count-only", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "stderr does not name {bad}: {stderr}");
    }
    let out = cfl()
        .arg("match")
        .arg(&q)
        .arg(&data)
        .arg("--count-only")
        .output()
        .unwrap();
    assert!(out.status.success(), "the known switch alone must pass");
    std::fs::remove_dir_all(&dir).ok();
}

/// The exact command line the benchmark package starts its server with.
#[test]
fn serve_accepts_the_benchmark_command_line() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = tmpdir("serve-flags");
    let (_, data) = small_inputs(&dir);
    let mut child = cfl()
        .arg("serve")
        .arg(&data)
        .args(["--listen", "127.0.0.1:0", "--workers", "2", "--plan-cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    child.kill().ok();
    child.wait().ok();
    assert!(line.starts_with("listening on "), "banner: {line:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The unsigned integer member `key` of `--stats-json` output (its first
/// occurrence).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    json[at..]
        .trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a number in {json}"))
}

/// Generates a data graph with the `generate` flags `gen` and extracts one
/// query with the `query` flags `query`.
fn inputs(dir: &std::path::Path, gen: &str, query: &str) -> (PathBuf, PathBuf) {
    let data = dir.join("g.graph");
    let out = cfl()
        .arg("generate")
        .args(gen.split_whitespace())
        .arg("-o")
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cfl()
        .arg("query")
        .arg(&data)
        .args(query.split_whitespace())
        .args(["--count", "1", "-o"])
        .arg(dir.join("q"))
        .output()
        .unwrap();
    assert!(out.status.success());
    (dir.join("q-0.graph"), data)
}

fn stats_json(q: &PathBuf, data: &PathBuf, extra: &[&str]) -> String {
    let out = cfl()
        .arg("match")
        .arg(q)
        .arg(data)
        .args(extra)
        .arg("--stats-json")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A default build records the trace: build timers, filter kills, and a
/// core/forest/leaf node split that adds up to the search nodes.
#[test]
fn stats_json_reports_the_trace() {
    let dir = tmpdir("stats-json");
    let (q, data) = inputs(
        &dir,
        "--vertices 2000 --degree 6 --labels 6 --seed 3",
        "--size 8 --seed 2",
    );
    let json = stats_json(&q, &data, &[]);
    assert!(json.contains("\"topdown_ns\""), "{json}");
    assert!(json.contains("\"nlf_kills\""), "{json}");
    let split = json_u64(&json, "core_nodes")
        + json_u64(&json, "forest_nodes")
        + json_u64(&json, "leaf_nodes");
    assert_eq!(split, json_u64(&json, "search_nodes"), "{json}");
    assert!(split > 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--plan-cache --repeat 4`: one cold run, then three hits, no refusals.
#[test]
fn plan_cache_hits_surface_in_stats_json() {
    let dir = tmpdir("plan-cache-stats");
    let (q, data) = inputs(
        &dir,
        "--vertices 2000 --degree 6 --labels 8 --seed 7",
        "--size 6 --seed 3",
    );
    let json = stats_json(
        &q,
        &data,
        &["--plan-cache", "--repeat", "4", "--count-only"],
    );
    assert_eq!(json_u64(&json, "plan_lookups"), 4, "{json}");
    assert_eq!(json_u64(&json, "plan_hits"), 3, "{json}");
    assert_eq!(json_u64(&json, "plan_refusals"), 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Only CFL-Match records a trace: `--stats` on a baseline says so and
/// still succeeds.
#[test]
fn baseline_stats_print_the_no_trace_hint() {
    let dir = tmpdir("baseline-stats");
    let (q, data) = small_inputs(&dir);
    let out = cfl()
        .arg("match")
        .arg(&q)
        .arg(&data)
        .args(["--algorithm", "vf2", "--stats"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("baseline algorithms record no trace"),
        "{stderr}"
    );
    assert!(!stderr.contains("--features"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
