//! # cfl-bench
//!
//! Experiment harness regenerating every table and figure of the CFL-Match
//! evaluation (§6 and §A.8). The `experiments` binary runs scaled-down
//! versions by default (`--scale 1` reproduces the paper's sizes); each
//! experiment prints the same rows/series the paper reports and flags
//! timeouts as `INF`, mirroring the paper's plots.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod experiments;
pub mod runner;
pub mod table;

pub use experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
pub use runner::{run_query_set, AlgoResult, RunOptions};
pub use table::TablePrinter;
