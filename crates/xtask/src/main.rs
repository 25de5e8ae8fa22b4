//! Workspace automation. One subcommand so far:
//!
//! ```text
//! cargo lint            # alias for: cargo run -p xtask -- lint
//! ```
//!
//! which runs the project-specific lint over `cfl-match` and `cfl-graph`
//! (see [`lint`] for the rule and its allowlists). Exits non-zero when
//! any violation is found; CI runs it as a blocking job.

use std::path::PathBuf;
use std::process::ExitCode;

mod lint;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = workspace_root();
            let violations = match lint::run(&root) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("lint pass could not run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if violations.is_empty() {
                println!(
                    "lint: clean ({} rules over {} crate(s))",
                    lint::RULE_COUNT,
                    lint::CRATES.len()
                );
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::FAILURE
        }
    }
}
