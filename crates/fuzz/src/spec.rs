//! The fuzz input format: a direct byte encoding of a (query, data,
//! salt) case.
//!
//! Decoding is **total**: every byte string decodes to some valid case
//! (values are reduced modulo their caps, exhausted buffers read as
//! zeros), which is what lets the shrinker cut bytes freely. The encoding
//! is also **direct**: every field of a [`CaseSpec`] round-trips through
//! [`CaseSpec::encode`] → [`CaseSpec::arbitrary`] unchanged, so corpus
//! entries can be constructed from real graph instances (the adversarial
//! generators in `cfl-datasets`) rather than hunted for by chance.
//!
//! Queries are encoded as a spanning tree (vertex `i`'s parent is some
//! earlier vertex) plus extra edges, so every decoded query is connected
//! by construction — the engine's validation never rejects a generated
//! case. Data graphs are arbitrary; `ng ≥ nq` avoids the trivial
//! query-larger-than-data rejection.

use arbitrary::{Arbitrary, Unstructured};
use cfl_graph::{graph_from_edges, Graph, VertexId};

/// Query size cap. Keeps VF2 (exponential, no index) tractable per case.
pub const MAX_QUERY: usize = 6;
/// Data graphs have at most `MAX_QUERY + MAX_DATA_EXTRA` vertices.
pub const MAX_DATA_EXTRA: usize = 40;
/// Label alphabet (the adversarial instances use labels `0..6`).
pub const NUM_LABELS: u32 = 6;
/// Cap on non-tree query edges.
pub const MAX_EXTRA_QUERY_EDGES: usize = 16;

/// A decoded fuzz case, in the reduced (in-range) domain. Field-for-field
/// identical to its byte encoding — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Query labels (`len ∈ 1..=MAX_QUERY`, each `< NUM_LABELS`).
    pub q_labels: Vec<u8>,
    /// `q_parents[i]` is the spanning-tree parent of query vertex `i + 1`
    /// (always `≤ i`, so the query is connected by construction).
    pub q_parents: Vec<u8>,
    /// Extra (non-tree) query edges; loops and duplicates are dropped at
    /// build time.
    pub q_extra: Vec<(u8, u8)>,
    /// Data labels (`len ∈ nq..=nq + MAX_DATA_EXTRA`, each `< NUM_LABELS`).
    pub g_labels: Vec<u8>,
    /// Data edges (endpoints `< g_labels.len()`); loops/duplicates dropped.
    pub g_edges: Vec<(u8, u8)>,
    /// Seed salt (`2..=4`), mixed into the per-case seed of the randomized
    /// targets. The trailing byte once chose a CPI build thread count; it
    /// still decodes to the same value, so every checked-in input keeps
    /// its case and its seed.
    pub salt: u8,
}

impl<'a> Arbitrary<'a> for CaseSpec {
    fn arbitrary(u: &mut Unstructured<'a>) -> arbitrary::Result<CaseSpec> {
        let nq = 1 + (u8::arbitrary(u)? as usize) % MAX_QUERY;
        let mut q_labels = Vec::with_capacity(nq);
        for _ in 0..nq {
            q_labels.push(u8::arbitrary(u)? % NUM_LABELS as u8);
        }
        let mut q_parents = Vec::with_capacity(nq.saturating_sub(1));
        for i in 1..nq {
            // `i ≥ 1`, so the modulus is never zero.
            q_parents.push(u8::arbitrary(u)? % i as u8);
        }
        let eq = (u8::arbitrary(u)? as usize) % (MAX_EXTRA_QUERY_EDGES + 1);
        let mut q_extra = Vec::with_capacity(eq);
        for _ in 0..eq {
            let a = u8::arbitrary(u)? % nq as u8;
            let b = u8::arbitrary(u)? % nq as u8;
            q_extra.push((a, b));
        }
        let ng = nq + (u8::arbitrary(u)? as usize) % (MAX_DATA_EXTRA + 1);
        let mut g_labels = Vec::with_capacity(ng);
        for _ in 0..ng {
            g_labels.push(u8::arbitrary(u)? % NUM_LABELS as u8);
        }
        let eg = (u16::arbitrary(u)? as usize) % (4 * ng + 1);
        let mut g_edges = Vec::with_capacity(eg);
        for _ in 0..eg {
            let a = u8::arbitrary(u)? % ng as u8;
            let b = u8::arbitrary(u)? % ng as u8;
            g_edges.push((a, b));
        }
        let salt = 2 + u8::arbitrary(u)? % 3;
        Ok(CaseSpec {
            q_labels,
            q_parents,
            q_extra,
            g_labels,
            g_edges,
            salt,
        })
    }
}

impl CaseSpec {
    /// Serializes the spec to the exact byte string that decodes back to
    /// it (every stored value is already below its modulus).
    pub fn encode(&self) -> Vec<u8> {
        let nq = self.q_labels.len();
        let ng = self.g_labels.len();
        let mut out = Vec::new();
        out.push((nq - 1) as u8);
        out.extend_from_slice(&self.q_labels);
        out.extend_from_slice(&self.q_parents);
        out.push(self.q_extra.len() as u8);
        for &(a, b) in &self.q_extra {
            out.push(a);
            out.push(b);
        }
        out.push((ng - nq) as u8);
        out.extend_from_slice(&self.g_labels);
        out.extend_from_slice(&(self.g_edges.len() as u16).to_le_bytes());
        for &(a, b) in &self.g_edges {
            out.push(a);
            out.push(b);
        }
        out.push(self.salt - 2);
        out
    }

    /// Re-expresses real graphs as a spec, or `None` if they exceed the
    /// format's caps. The query is re-ordered by BFS from vertex 0 so its
    /// spanning tree fits the parent-pointer encoding; the relabeled query
    /// is isomorphic to the original, which is all the differential
    /// targets need.
    pub fn from_graphs(q: &Graph, g: &Graph, salt: u8) -> Option<CaseSpec> {
        let nq = q.num_vertices();
        let ng = g.num_vertices();
        if nq == 0
            || nq > MAX_QUERY
            || ng < nq
            || ng > nq + MAX_DATA_EXTRA
            || !(2..=4).contains(&salt)
        {
            return None;
        }

        // BFS order from vertex 0; fails (None) on a disconnected query.
        let mut order: Vec<VertexId> = Vec::with_capacity(nq);
        let mut new_id = vec![u32::MAX; nq];
        let mut parent_of = vec![0u8; nq]; // by new id; [0] unused
        order.push(0);
        new_id[0] = 0;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in q.neighbors(v) {
                if new_id[w as usize] == u32::MAX {
                    new_id[w as usize] = order.len() as u32;
                    parent_of[order.len()] = new_id[v as usize] as u8;
                    order.push(w);
                }
            }
        }
        if order.len() != nq {
            return None;
        }

        let mut q_labels = vec![0u8; nq];
        for (new, &old) in order.iter().enumerate() {
            let label = q.label(old).0;
            if label >= NUM_LABELS {
                return None;
            }
            q_labels[new] = label as u8;
        }
        let q_parents: Vec<u8> = parent_of[1..].to_vec();

        // Non-tree edges, in new numbering.
        let mut q_extra = Vec::new();
        for (a, b) in q.edges() {
            let (na, nb) = (new_id[a as usize] as u8, new_id[b as usize] as u8);
            let (lo, hi) = (na.min(nb), na.max(nb));
            let is_tree = parent_of[hi as usize] == lo;
            if !is_tree {
                q_extra.push((lo, hi));
            }
        }
        if q_extra.len() > MAX_EXTRA_QUERY_EDGES {
            return None;
        }

        let mut g_labels = vec![0u8; ng];
        for v in g.vertices() {
            let label = g.label(v).0;
            if label >= NUM_LABELS {
                return None;
            }
            g_labels[v as usize] = label as u8;
        }
        let g_edges: Vec<(u8, u8)> = g.edges().map(|(a, b)| (a as u8, b as u8)).collect();
        if g_edges.len() > 4 * ng {
            return None;
        }

        Some(CaseSpec {
            q_labels,
            q_parents,
            q_extra,
            g_labels,
            g_edges,
            salt,
        })
    }

    /// Materializes the graphs. Always succeeds for a decoded spec (all
    /// endpoints are in range; the builder drops loops and duplicates).
    pub fn build(&self) -> Option<Case> {
        let nq = self.q_labels.len();
        let mut q_edges: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, &p) in self.q_parents.iter().enumerate() {
            q_edges.push((u32::from(p), (i + 1) as u32));
        }
        for &(a, b) in &self.q_extra {
            if a != b {
                q_edges.push((u32::from(a), u32::from(b)));
            }
        }
        let q_labels: Vec<u32> = self.q_labels.iter().map(|&l| u32::from(l)).collect();
        let q = graph_from_edges(&q_labels, &q_edges).ok()?;
        debug_assert_eq!(q.num_vertices(), nq);

        let g_labels: Vec<u32> = self.g_labels.iter().map(|&l| u32::from(l)).collect();
        let g_edges: Vec<(VertexId, VertexId)> = self
            .g_edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (u32::from(a), u32::from(b)))
            .collect();
        let g = graph_from_edges(&g_labels, &g_edges).ok()?;

        Some(Case {
            q,
            g,
            salt: self.salt,
        })
    }
}

/// A materialized fuzz case.
pub struct Case {
    pub q: Graph,
    pub g: Graph,
    /// Seed salt (see [`CaseSpec::salt`]).
    pub salt: u8,
}

impl Case {
    /// Decodes a byte string (total: every input yields a case).
    pub fn decode(bytes: &[u8]) -> Option<Case> {
        let mut u = Unstructured::new(bytes);
        CaseSpec::arbitrary(&mut u).ok()?.build()
    }
}
