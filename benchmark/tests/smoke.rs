//! A `--quick` run of all four workloads against a freshly built `cfl`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Builds the deployed server into a target directory of this test's own,
/// so the nested build never waits on the one running the test.
fn build_cfl(repo: &Path, bench_bin: &Path) -> PathBuf {
    let target = bench_bin
        .parent()
        .and_then(Path::parent)
        .expect("benchmark binary lives in <target>/<profile>/")
        .join("smoke-cfl");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo)
        .args([
            "build",
            "--offline",
            "--release",
            "-p",
            "cfl-cli",
            "--target-dir",
        ])
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building cfl failed");
    target.join("release").join("cfl")
}

#[test]
fn quick_run_of_every_workload_is_correct_and_fast() {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_benchmark"));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cfl = build_cfl(&repo, &bench);
    let work = bench
        .parent()
        .expect("binary has a directory")
        .join("smoke-work");

    let start = Instant::now();
    let out = Command::new(&bench)
        .current_dir(&repo)
        .env("CARGO_TARGET_DIR", &work)
        .args(["--quick", "--seed", "7", "--cfl"])
        .arg(&cfl)
        .output()
        .expect("benchmark runs");
    let took = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "benchmark failed:\n{stderr}");
    assert!(took < Duration::from_secs(20), "quick run took {took:?}");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}\n{stderr}");
    for w in ["oneshot", "serve_stream", "serve_open", "serve_mixed"] {
        for m in [
            "latency_p50_ms",
            "latency_p95_ms",
            "throughput_qps",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(
                last.contains(&format!("\"{w}.{m}\": {{\"value\": ")),
                "{w}.{m} missing: {last}"
            );
        }
    }
}
