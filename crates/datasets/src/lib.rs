//! # cfl-datasets
//!
//! Datasets and query workloads reproducing the CFL-Match evaluation (§6).
//!
//! The paper evaluates on real protein-interaction networks (HPRD, Yeast,
//! Human), two large real graphs (DBLP, WordNet, §A.8), and a parameterized
//! synthetic family. The real downloads are unavailable offline, so this
//! crate generates **synthetic stand-ins matching each dataset's published
//! summary statistics** (vertex count, edge count, average degree, label
//! count) with power-law labels — the drivers of candidate-set sizes and
//! Cartesian-product behavior that the evaluation measures. Each stand-in
//! also has a `scaled(f)` form for laptop-budget runs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod adversarial;
pub mod registry;
pub mod workloads;

pub use adversarial::{
    challenge1, conflict_forest, deep_chain_trap, dense_circulant, kernel_stress_suite,
    near_clique_pathology, power_law_wedge, pruning_stress_suite, triangle_fan,
};
pub use registry::{Dataset, DatasetSpec};
pub use workloads::{QueryMixSpec, QuerySetSpec, Workload};
