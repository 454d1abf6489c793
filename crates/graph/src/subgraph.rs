//! Induced subgraphs and density. A nucleus's density is counted on the
//! graph without building its subgraph ([`density_of`] is the shared
//! formula); [`induced_subgraph`] is the independent reference for that
//! count.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};

/// An induced subgraph together with the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph, with vertices renumbered `0..k`.
    pub graph: CsrGraph,
    /// `original[i]` = parent-graph id of subgraph vertex `i`.
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Density `2|E| / (|V| (|V|-1))` of the subgraph.
    pub fn density(&self) -> f64 {
        density(&self.graph)
    }
}

/// Extracts the subgraph induced by `verts` (need not be sorted or unique).
pub fn induced_subgraph(g: &CsrGraph, verts: &[VertexId]) -> InducedSubgraph {
    let mut original: Vec<VertexId> = verts.to_vec();
    original.sort_unstable();
    original.dedup();
    let mut local = vec![u32::MAX; g.num_vertices()];
    for (i, &v) in original.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let mut b = GraphBuilder::new().with_num_vertices(original.len());
    for &v in &original {
        for &w in g.neighbors(v) {
            if w > v && local[w as usize] != u32::MAX {
                b.add_edge(local[v as usize], local[w as usize]);
            }
        }
    }
    InducedSubgraph { graph: b.build(), original }
}

/// Graph density `2|E| / (|V| (|V|-1))`; `0.0` when `|V| < 2`.
/// This is the density definition the paper uses to compare nuclei quality.
pub fn density(g: &CsrGraph) -> f64 {
    density_of(g.num_vertices(), g.num_edges())
}

/// Density `2|E| / (|V| (|V|-1))` of a vertex set with `vertices`
/// vertices and `edges` induced edges; `0.0` when `|V| < 2`. The one
/// formula behind [`density`], for callers that count the edges without
/// building the subgraph.
pub fn density_of(vertices: usize, edges: usize) -> f64 {
    let n = vertices as f64;
    if n < 2.0 {
        return 0.0;
    }
    2.0 * edges as f64 / (n * (n - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn induced_triangle_from_k4_plus_tail() {
        let g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (1, 3), (3, 4)]);
        let sub = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3);
        assert_eq!(sub.original, vec![0, 1, 2]);
        assert!((sub.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_values() {
        let triangle = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        assert!((density(&triangle) - 1.0).abs() < 1e-12);
        let path = graph_from_edges([(0, 1), (1, 2)]);
        assert!((density(&path) - 2.0 / 3.0).abs() < 1e-12);
        let single = GraphBuilder::new().with_num_vertices(1).build();
        assert_eq!(density(&single), 0.0);
    }

    #[test]
    fn duplicate_and_unsorted_vertex_input() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let sub = induced_subgraph(&g, &[2, 0, 2, 1, 0]);
        assert_eq!(sub.graph.num_edges(), 3);
    }

    #[test]
    fn mapping_preserves_adjacency() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let sub = induced_subgraph(&g, &[0, 2, 3]);
        for v in sub.graph.vertices() {
            for &w in sub.graph.neighbors(v) {
                assert!(g.has_edge(sub.original[v as usize], sub.original[w as usize]));
            }
        }
    }
}
