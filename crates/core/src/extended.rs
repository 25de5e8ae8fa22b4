//! Edge-labeled and directed subgraph matching (paper §2's extension
//! claim), implemented by the subdivision reduction of
//! [`cfl_graph::transform`] plus the ordinary CFL-Match engine.

use cfl_graph::transform::{encode, EdgeListGraph, EncodingSpace};

use crate::config::MatchConfig;
use crate::error::Error;
use crate::result::{Embedding, MatchReport};
use crate::session::DataGraph;

/// Collects the embeddings of the edge-labeled (and optionally directed)
/// query `q` in data graph `g`: mappings of *original* query vertices that
/// preserve vertex labels, edge labels, and (when `directed`) edge
/// orientation.
pub fn collect_embeddings_extended(
    q: &EdgeListGraph,
    g: &EdgeListGraph,
    directed: bool,
    config: &MatchConfig,
) -> Result<(Vec<Embedding>, MatchReport), Error> {
    let space = EncodingSpace::covering(q, g, directed);
    let eq = encode(q, &space);
    let eg = encode(g, &space);
    let mut out = Vec::new();
    let report = DataGraph::new(&eg.graph).find_embeddings(&eq.graph, config, |m| {
        out.push(Embedding {
            mapping: eq.project(m).to_vec(),
        });
        true
    })?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_graph::transform::LabeledEdge;
    use cfl_graph::Label;

    fn elg(labels: &[u32], edges: &[(u32, u32, u32)]) -> EdgeListGraph {
        EdgeListGraph {
            vertex_labels: labels.iter().map(|&l| Label(l)).collect(),
            edges: edges
                .iter()
                .map(|&(from, to, label)| LabeledEdge {
                    from,
                    to,
                    label: Label(label),
                })
                .collect(),
        }
    }

    #[test]
    fn edge_labels_constrain_matching() {
        // Query: A -x- B. Data: A -x- B and A -y- B.
        let q = elg(&[0, 1], &[(0, 1, 0)]);
        let g = elg(&[0, 1, 0, 1], &[(0, 1, 0), (2, 3, 1)]);
        let (embs, report) =
            collect_embeddings_extended(&q, &g, false, &MatchConfig::exhaustive()).unwrap();
        assert_eq!(embs.len(), 1, "only the x-labeled edge matches");
        assert_eq!(embs[0].mapping, vec![0, 1]);
        assert!(report.outcome.is_complete());
    }

    #[test]
    fn direction_constrains_matching() {
        // Query: A → A. Data: 0 → 1 (one directed edge).
        let q = elg(&[0, 0], &[(0, 1, 0)]);
        let g = elg(&[0, 0], &[(0, 1, 0)]);
        let (embs, _) =
            collect_embeddings_extended(&q, &g, true, &MatchConfig::exhaustive()).unwrap();
        // Only the orientation-preserving mapping (0→0, 1→1) survives; the
        // undirected interpretation would also allow the swap.
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0].mapping, vec![0, 1]);

        let (undirected, _) =
            collect_embeddings_extended(&q, &g, false, &MatchConfig::exhaustive()).unwrap();
        assert_eq!(undirected.len(), 2, "undirected allows both orientations");
    }

    #[test]
    fn directed_triangle() {
        // Query: directed 3-cycle. Data: one directed 3-cycle plus one
        // anti-oriented chord.
        let q = elg(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let g = elg(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let (embs, _) =
            collect_embeddings_extended(&q, &g, true, &MatchConfig::exhaustive()).unwrap();
        // The directed cycle has exactly 3 rotational automorphisms (no
        // reflections — those reverse orientation).
        assert_eq!(embs.len(), 3);
    }

    #[test]
    fn mixed_edge_labels_and_direction() {
        // Query: A →x→ B →y→ C. Data has the exact chain plus a decoy with
        // swapped edge labels.
        let q = elg(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)]);
        let g = elg(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1, 0), (1, 2, 1), (3, 4, 1), (4, 5, 0)],
        );
        let (embs, _) =
            collect_embeddings_extended(&q, &g, true, &MatchConfig::exhaustive()).unwrap();
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0].mapping, vec![0, 1, 2]);
    }
}
