//! Query workloads (Table 3).
//!
//! For HPRD, Yeast, and Synthetic the paper uses query sets of
//! {25, 50, 100, 200} vertices; for the denser Human graph {10, 15, 20,
//! 25}; DBLP and WordNet use {10, 15, 20, 25} (Figure 21). Each size comes
//! in Sparse (`q_iS`, average degree ≤ 3) and Non-sparse (`q_iN`) flavors,
//! 100 queries per set.

use cfl_graph::{query_set, Graph, QueryDensity};

use crate::registry::Dataset;

/// Specification of one query set (`q_{size}{S|N}`).
#[derive(Clone, Copy, Debug)]
pub struct QuerySetSpec {
    /// `|V(q)|`.
    pub size: usize,
    /// Density class.
    pub density: QueryDensity,
    /// How many queries in the set (paper: 100).
    pub count: usize,
    /// Generation seed.
    pub seed: u64,
}

impl QuerySetSpec {
    /// The paper's naming: `q50S`, `q25N`, …
    pub fn name(&self) -> String {
        let d = match self.density {
            QueryDensity::Sparse => "S",
            QueryDensity::NonSparse => "N",
        };
        format!("q{}{}", self.size, d)
    }

    /// Generates the set against `g`. Fewer than `count` queries may be
    /// returned when the data graph cannot supply enough distinct walks.
    pub fn generate(&self, g: &Graph) -> Vec<Graph> {
        query_set(g, self.size, self.density, self.count, self.seed)
    }
}

/// A dataset together with its Table 3 query sizes.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The data graph.
    pub dataset: Dataset,
    /// Query sizes for this dataset.
    pub sizes: [usize; 4],
    /// Default query size (Table 3's "Default" column).
    pub default_size: usize,
}

impl Workload {
    /// The Table 3 workload for a dataset.
    pub fn for_dataset(dataset: Dataset) -> Workload {
        match dataset {
            Dataset::Human | Dataset::Dblp | Dataset::WordNet => Workload {
                dataset,
                sizes: [10, 15, 20, 25],
                default_size: 15,
            },
            _ => Workload {
                dataset,
                sizes: [25, 50, 100, 200],
                default_size: 50,
            },
        }
    }

    /// The eight query-set specs (four sizes × two densities).
    pub fn query_sets(&self, count: usize) -> Vec<QuerySetSpec> {
        let mut out = Vec::with_capacity(8);
        for (i, &size) in self.sizes.iter().enumerate() {
            for (j, density) in [QueryDensity::Sparse, QueryDensity::NonSparse]
                .into_iter()
                .enumerate()
            {
                out.push(QuerySetSpec {
                    size,
                    density,
                    count,
                    seed: 0x9e37 + (i * 2 + j) as u64 * 104_729,
                });
            }
        }
        out
    }

    /// The two default query sets (sparse + non-sparse at the default size).
    pub fn default_sets(&self, count: usize) -> Vec<QuerySetSpec> {
        self.query_sets(count)
            .into_iter()
            .filter(|s| s.size == self.default_size)
            .collect()
    }

    /// Scales query sizes down for reduced-size data graphs (sizes divided
    /// by `factor`, floored at 4) so workloads stay satisfiable.
    pub fn scaled_sizes(&self, factor: usize) -> [usize; 4] {
        let f = factor.max(1);
        self.sizes.map(|s| (s / f).max(4))
    }
}

/// A heterogeneous query mix for the serving benchmark: several
/// sizes in both density classes, interleaved deterministically so
/// consecutive requests exercise different plan shapes — and so a plan
/// cache still sees each shape recur every `sizes.len() × 2` requests.
#[derive(Clone, Debug)]
pub struct QueryMixSpec {
    /// Query sizes in the mix (each appears in both density classes).
    pub sizes: Vec<usize>,
    /// Queries generated per (size, density) class.
    pub per_class: usize,
    /// Generation seed (each class derives its own sub-seed).
    pub seed: u64,
}

impl QueryMixSpec {
    /// The serving-bench default: sizes {4, 6, 8} × {sparse, non-sparse},
    /// four queries each — 24 distinct queries, small enough that one
    /// request is dominated by round-trip and scheduling cost rather than
    /// enumeration.
    pub fn standard() -> Self {
        QueryMixSpec {
            sizes: vec![4, 6, 8],
            per_class: 4,
            seed: 0xC41,
        }
    }

    /// A human-readable tag for bench metadata, e.g. `"q{4,6,8}{S,N}x4"`.
    pub fn name(&self) -> String {
        let sizes: Vec<String> = self.sizes.iter().map(ToString::to_string).collect();
        format!("q{{{}}}{{S,N}}x{}", sizes.join(","), self.per_class)
    }

    /// Generates the mix against `g`, round-robin interleaved across the
    /// classes. Classes the data graph cannot populate contribute fewer
    /// queries; the result is empty only if every class is unsatisfiable.
    pub fn generate(&self, g: &Graph) -> Vec<Graph> {
        let mut classes: Vec<Vec<Graph>> = Vec::new();
        for (i, &size) in self.sizes.iter().enumerate() {
            for (j, density) in [QueryDensity::Sparse, QueryDensity::NonSparse]
                .into_iter()
                .enumerate()
            {
                let seed = self.seed.wrapping_add((i * 2 + j) as u64 * 104_729);
                classes.push(query_set(g, size, density, self.per_class, seed));
            }
        }
        let mut out = Vec::with_capacity(classes.iter().map(Vec::len).sum());
        for round in 0..self.per_class {
            for class in &classes {
                if let Some(q) = class.get(round) {
                    out.push(q.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_is_deterministic_and_interleaved() {
        let g = Dataset::SyntheticDefault.build_scaled(100);
        let mix = QueryMixSpec {
            sizes: vec![4, 6],
            per_class: 2,
            seed: 7,
        };
        let qs = mix.generate(&g);
        assert!(!qs.is_empty());
        assert!(qs.len() <= 8);
        // Round-robin interleaving: some adjacent pair differs in size.
        let sizes: Vec<usize> = qs.iter().map(Graph::num_vertices).collect();
        assert!(sizes.windows(2).any(|w| w[0] != w[1]));
        // Same spec, same graph, same mix.
        let again = mix.generate(&g);
        assert_eq!(sizes.len(), again.len());
        for (a, b) in qs.iter().zip(&again) {
            assert_eq!(a.labels(), b.labels());
        }
        assert_eq!(QueryMixSpec::standard().name(), "q{4,6,8}{S,N}x4");
    }

    #[test]
    fn naming_matches_paper() {
        let s = QuerySetSpec {
            size: 50,
            density: QueryDensity::Sparse,
            count: 100,
            seed: 0,
        };
        assert_eq!(s.name(), "q50S");
        let n = QuerySetSpec {
            size: 25,
            density: QueryDensity::NonSparse,
            count: 100,
            seed: 0,
        };
        assert_eq!(n.name(), "q25N");
    }

    #[test]
    fn workload_sizes_follow_table3() {
        assert_eq!(
            Workload::for_dataset(Dataset::Hprd).sizes,
            [25, 50, 100, 200]
        );
        assert_eq!(
            Workload::for_dataset(Dataset::Human).sizes,
            [10, 15, 20, 25]
        );
        assert_eq!(Workload::for_dataset(Dataset::Human).default_size, 15);
        assert_eq!(Workload::for_dataset(Dataset::Yeast).default_size, 50);
    }

    #[test]
    fn eight_query_sets_per_workload() {
        let w = Workload::for_dataset(Dataset::Yeast);
        let sets = w.query_sets(100);
        assert_eq!(sets.len(), 8);
        assert_eq!(w.default_sets(100).len(), 2);
    }

    #[test]
    fn generated_queries_are_valid() {
        let g = Dataset::Yeast.build_scaled(10);
        let w = Workload::for_dataset(Dataset::Yeast);
        let spec = QuerySetSpec {
            size: 12,
            density: QueryDensity::Sparse,
            count: 5,
            seed: 7,
        };
        let qs = spec.generate(&g);
        assert_eq!(qs.len(), 5);
        for q in &qs {
            assert_eq!(q.num_vertices(), 12);
            assert!(cfl_graph::is_connected(q));
            assert!(q.average_degree() <= 3.0 + 1e-9);
        }
        let _ = w;
    }

    #[test]
    fn scaled_sizes_floor() {
        let w = Workload::for_dataset(Dataset::Hprd);
        assert_eq!(w.scaled_sizes(10), [4, 5, 10, 20]);
    }
}
