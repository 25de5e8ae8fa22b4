//! # cfl-graph
//!
//! Graph substrate for the CFL-Match subgraph-matching workspace: compact
//! CSR vertex-labeled undirected graphs plus the structural algorithms the
//! paper (Bi et al., *Efficient Subgraph Matching by Postponing Cartesian
//! Products*, SIGMOD 2016) builds on — BFS trees, 2-core peeling,
//! neighborhood equivalence classes, per-vertex filter statistics — and the
//! synthetic data-graph / random-walk query generators used by its
//! evaluation.
//!
//! ```
//! use cfl_graph::{graph_from_edges, two_core, BfsTree};
//!
//! // A triangle with a pendant vertex.
//! let g = graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
//! assert_eq!(two_core(&g), vec![true, true, true, false]);
//! let bfs = BfsTree::new(&g, 0);
//! assert_eq!(bfs.level(3), Some(3));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod bfs;
pub mod bitset;
pub mod builder;
pub mod canon;
pub mod connect;
pub mod delta;
pub mod gen;
pub mod graph;
pub mod intersect;
pub mod io;
pub mod kcore;
pub mod label;
pub mod nec;
pub mod stats;
pub mod summary;
pub mod transform;

pub use bfs::{classify_edge, BfsTree, EdgeKind, NO_PARENT};
pub use bitset::FixedBitSet;
pub use builder::{graph_from_edges, BuildError, GraphBuilder};
pub use canon::{canonical_query, canonical_query_with_budget, CanonicalQuery};
pub use connect::{components, induced_subgraph, is_connected};
pub use delta::{AppliedDelta, DeltaError, GraphDelta};
pub use gen::query::{query_set, random_walk_query, QueryDensity, QueryGenConfig};
pub use gen::{synthetic_graph, PowerLawLabels, SyntheticConfig, GENERATOR_VERSION};
pub use graph::{Graph, VertexId};
pub use intersect::intersect_with_set;
pub use io::{read_graph, read_graph_file, write_graph, write_graph_file, IoError};
pub use kcore::{core_numbers, k_core, two_core};
pub use label::{Label, LabelMap};
pub use nec::{nec_equivalent, nec_partition, NecPartition};
pub use stats::{max_neighbor_degrees, LabelAdjacency, LabelIndex, NlfIndex, StatTables};
pub use summary::GraphSummary;
