//! The (1,2) space: k-core decomposition.
//!
//! r-cliques are vertices, s-cliques are edges. Each edge containing vertex
//! `v` has exactly one other member — the neighbor — so ρ degenerates to
//! the neighbor's τ and the update operator is precisely Lu et al.'s
//! iterated h-index on vertex degrees, which the paper generalizes.

use hdsd_graph::{CsrGraph, VertexId};

use super::CliqueSpace;

/// k-core view of a graph.
#[derive(Clone, Copy, Debug)]
pub struct CoreSpace<'g> {
    graph: &'g CsrGraph,
}

impl<'g> CoreSpace<'g> {
    /// Wraps a graph; no precomputation needed.
    pub fn new(graph: &'g CsrGraph) -> Self {
        CoreSpace { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }
}

impl CliqueSpace for CoreSpace<'_> {
    fn num_cliques(&self) -> usize {
        self.graph.num_vertices()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        (0..self.graph.num_vertices() as VertexId).map(|v| self.graph.degree(v) as u32).collect()
    }

    fn degree(&self, i: usize) -> u32 {
        self.graph.degree(i as VertexId) as u32
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        for &w in self.graph.neighbors(i as VertexId) {
            f(&[w as usize])?;
        }
        std::ops::ControlFlow::Continue(())
    }

    fn for_each_neighbor<F: FnMut(usize)>(&self, i: usize, mut f: F) {
        for &w in self.graph.neighbors(i as VertexId) {
            f(w as usize);
        }
    }

    fn r(&self) -> usize {
        1
    }

    fn s(&self) -> usize {
        2
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>) {
        out.push(i as VertexId);
    }

    fn name(&self) -> String {
        "(1,2) k-core".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    #[test]
    fn degrees_and_containers() {
        let g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]);
        let sp = CoreSpace::new(&g);
        assert_eq!(sp.num_cliques(), 4);
        assert_eq!(sp.initial_degrees(), vec![2, 2, 3, 1]);
        assert_eq!(sp.degree(2), 3);
        let mut containers = Vec::new();
        sp.for_each_container(2, |o| containers.push(o.to_vec()));
        assert_eq!(containers, vec![vec![0], vec![1], vec![3]]);
        assert_eq!((sp.r(), sp.s()), (1, 2));
    }

    #[test]
    fn vertices_of_is_identity() {
        let g = graph_from_edges([(0, 1)]);
        let sp = CoreSpace::new(&g);
        let mut out = Vec::new();
        sp.vertices_of(1, &mut out);
        assert_eq!(out, vec![1]);
    }
}
