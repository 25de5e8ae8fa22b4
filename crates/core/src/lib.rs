//! # cfl-match
//!
//! A Rust implementation of **CFL-Match** — Bi, Chang, Lin, Qin, Zhang,
//! *Efficient Subgraph Matching by Postponing Cartesian Products*,
//! SIGMOD 2016.
//!
//! Given a connected vertex-labeled query graph `q` and data graph `G`, the
//! engine enumerates all subgraph-isomorphic embeddings of `q` in `G`:
//!
//! 1. **CFL decomposition** (§3) splits `q` into its 2-core, the forest
//!    hanging off it, and the degree-one leaves, so that strongly
//!    constrained structure is matched first and Cartesian products among
//!    weakly constrained parts are postponed;
//! 2. a **compact path-index (CPI)** (§4.1, §5) of size
//!    `O(|E(G)|·|V(q)|)` is built in `O(|E(G)|·|E(q)|)` time — top-down
//!    construction plus bottom-up refinement, with label / degree /
//!    maximum-neighbor-degree / NLF candidate filters;
//! 3. the **matching order** (§4.2.1) greedily orders the root-to-leaf
//!    paths of the CPI by dynamic-programming estimates of their embedding
//!    counts;
//! 4. **core-match / forest-match / leaf-match** (§4.2.2–§4.4) enumerate
//!    embeddings over the CPI, probing `G` only for non-tree edges, with
//!    leaves compressed into NEC units and label classes.
//!
//! ```
//! use cfl_graph::graph_from_edges;
//! use cfl_match::{collect_embeddings, MatchConfig};
//!
//! // Query: a labeled triangle. Data: two triangles sharing a vertex.
//! let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
//! let g = graph_from_edges(
//!     &[0, 1, 2, 1, 2],
//!     &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
//! )
//! .unwrap();
//! let (embeddings, report) = collect_embeddings(&q, &g, &MatchConfig::exhaustive()).unwrap();
//! assert_eq!(embeddings.len(), 2);
//! assert!(report.outcome.is_complete());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod cache;
pub mod config;
pub mod cost;
pub mod cpi;
pub mod decompose;
pub mod error;
pub mod exec;
pub mod extended;
pub mod filters;
#[cfg(feature = "oracle")]
pub mod oracle;
pub mod order;
pub mod result;
pub mod root;
pub mod serve;
pub mod session;
pub mod validate;

pub use cache::{PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY};
pub use config::{
    Budget, CancelToken, CpiMode, DecompositionMode, MatchConfig, OrderStrategy, PruningKind,
};
pub use cost::{evaluate_cost, CostBreakdown};
pub use cpi::Cpi;
pub use decompose::{
    forest_independent_set, is_independent_set, CflDecomposition, ForestTree, Role,
};
pub use error::Error;
pub use exec::{collect_embeddings, count_embeddings, find_embeddings, prepare, Prepared};
pub use extended::collect_embeddings_extended;
pub use filters::{FilterContext, FilterOptions, GraphStats};
pub use order::{compute_order, compute_order_with, OrderPlan, OrderedVertex};
pub use result::{Embedding, EmbeddingChecksum, MatchOutcome, MatchReport, MatchStats};
pub use serve::{Engine, EngineConfig, QueryEvent, QueryHandle, QuerySpec, Server, SubmitError};

// Observability types (`cfl-trace`) surface on `MatchStats::trace`;
// re-exported so downstream crates can consume reports without naming the
// leaf crate. Every CFL-Match run fills them.
pub use cfl_trace::{BuildTrace, CpiMetrics, EnumTrace, TraceReport};
pub use root::{select_root, select_root_with_candidates};
pub use session::DataGraph;
pub use validate::verify_prepared;
