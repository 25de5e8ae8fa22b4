//! # cfl-verify
//!
//! Composable invariant checkers for the CFL-Match workspace.
//!
//! The matching engine builds three auxiliary structures whose correctness
//! every downstream result depends on: the core-forest-leaf decomposition
//! (paper §3), the compact path-index (CPI, §4.1 / Algorithms 3–4), and the
//! matching order (§4.2.1 / Algorithm 2). Each checker in this crate
//! re-derives one family of invariants directly from the query and data
//! graphs — independently of the engine's own construction code — and
//! records every violation with vertex-level diagnostics in a [`Report`].
//!
//! All checkers run in time linear in the size of the structure they verify
//! (up to an adjacency-scan factor), so they are cheap enough to run on
//! every constructed index under the `validate` feature of `cfl-match`.
//!
//! The crate deliberately depends only on the leaf crates `cfl-graph` and
//! `cfl-trace`: the engine's types are mirrored through small
//! specification structs ([`PartClass`], [`TreeSpec`], [`OrderStep`]) and
//! the [`CpiView`] trait, which `cfl-match` implements for its `Cpi`
//! behind the `validate` feature. [`check_trace`] closes the loop on the
//! observability layer, re-verifying the arithmetic identities between
//! the counters that `cfl-match` records on every run.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cpi_checks;
pub mod decomp_checks;
pub mod graph_checks;
pub mod order_checks;
pub mod report;
pub mod trace_checks;

pub use cpi_checks::{check_cpi, CpiCheckOptions, CpiView};
pub use decomp_checks::{check_decomposition, DecompSpec, PartClass, TreeSpec};
pub use graph_checks::check_graph;
pub use order_checks::{check_order, OrderSpec, OrderStep};
pub use report::{Report, Violation};
pub use trace_checks::{check_serve_trace, check_trace};
