//! Embeds build provenance into the `experiments` binary.
//!
//! Recorded result files (`bench_results/*.txt`) are only comparable when
//! the producing commit is known, so the binary stamps `CFL_BUILD_COMMIT`
//! into its output header. Falls back to "unknown" outside a git checkout
//! (e.g. a source tarball) rather than failing the build.

use std::process::Command;

fn main() {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    let suffix = if dirty && commit != "unknown" {
        "-dirty"
    } else {
        ""
    };
    println!("cargo:rustc-env=CFL_BUILD_COMMIT={commit}{suffix}");
    // Re-stamp when HEAD moves (covers commits and branch switches).
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=../../.git/index");
}
