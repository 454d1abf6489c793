//! The (2,3) space: k-truss decomposition.
//!
//! r-cliques are edges, s-cliques are triangles. Two strategies are
//! provided, mirroring the paper's discussion of not materializing the
//! hypergraph (§5):
//!
//! * [`TrussSpace::precomputed`] materializes the triangle list once and
//!   serves containers from flat arrays — fastest per iteration, costs
//!   `O(|△|)` memory.
//! * [`TrussSpace::on_the_fly`] stores nothing: containers are re-derived
//!   per call by intersecting the endpoint adjacency lists, exactly the
//!   "find participations of r-cliques in s-cliques on-the-fly" approach
//!   the paper uses for large graphs.
//!
//! Both expose identical semantics (cross-checked by tests).

use std::borrow::Cow;

use hdsd_graph::{CsrGraph, EdgeId, TriangleList, VertexId};

use super::CliqueSpace;

enum Strategy<'g> {
    /// Owned or borrowed triangle list (the long-lived engines keep one
    /// resident across updates and lend it to every rebuilt space).
    Precomputed(Cow<'g, TriangleList>),
    OnTheFly {
        tri_counts: Vec<u32>,
    },
}

/// k-truss view of a graph.
pub struct TrussSpace<'g> {
    graph: &'g CsrGraph,
    strategy: Strategy<'g>,
}

impl<'g> TrussSpace<'g> {
    /// Materializes the triangle list (fast containers, `O(|△|)` memory).
    pub fn precomputed(graph: &'g CsrGraph) -> Self {
        Self::from_triangles(graph, TriangleList::build(graph))
    }

    /// Reuses an already-built triangle list.
    pub fn from_triangles(graph: &'g CsrGraph, triangles: TriangleList) -> Self {
        TrussSpace { graph, strategy: Strategy::Precomputed(Cow::Owned(triangles)) }
    }

    /// Borrows a resident triangle list instead of building or owning one.
    pub fn with_triangles(graph: &'g CsrGraph, triangles: &'g TriangleList) -> Self {
        TrussSpace { graph, strategy: Strategy::Precomputed(Cow::Borrowed(triangles)) }
    }

    /// Stores only per-edge triangle counts; containers are recomputed by
    /// adjacency intersection on every call.
    pub fn on_the_fly(graph: &'g CsrGraph) -> Self {
        TrussSpace {
            graph,
            strategy: Strategy::OnTheFly {
                tri_counts: hdsd_graph::count_triangles_per_edge(graph),
            },
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The materialized triangle list, when this space has one.
    pub fn triangles(&self) -> Option<&TriangleList> {
        match &self.strategy {
            Strategy::Precomputed(tl) => Some(tl),
            Strategy::OnTheFly { .. } => None,
        }
    }

    /// Intersects the neighbor lists of `u` and `v`, yielding for every
    /// common neighbor `w` the edge ids of `(u,w)` and `(v,w)`.
    fn intersect_edges<F: FnMut(EdgeId, EdgeId) -> std::ops::ControlFlow<()>>(
        &self,
        u: VertexId,
        v: VertexId,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        let (nu, eu) = (self.graph.neighbors(u), self.graph.neighbor_edge_ids(u));
        let (nv, ev) = (self.graph.neighbors(v), self.graph.neighbor_edge_ids(v));
        let (mut a, mut b) = (0usize, 0usize);
        while a < nu.len() && b < nv.len() {
            match nu[a].cmp(&nv[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    f(eu[a], ev[b])?;
                    a += 1;
                    b += 1;
                }
            }
        }
        std::ops::ControlFlow::Continue(())
    }
}

impl CliqueSpace for TrussSpace<'_> {
    fn num_cliques(&self) -> usize {
        self.graph.num_edges()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        match &self.strategy {
            Strategy::Precomputed(tl) => {
                (0..self.graph.num_edges() as EdgeId).map(|e| tl.edge_triangle_count(e)).collect()
            }
            Strategy::OnTheFly { tri_counts } => tri_counts.clone(),
        }
    }

    fn degree(&self, i: usize) -> u32 {
        match &self.strategy {
            Strategy::Precomputed(tl) => tl.edge_triangle_count(i as EdgeId),
            Strategy::OnTheFly { tri_counts } => tri_counts[i],
        }
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        match &self.strategy {
            Strategy::Precomputed(tl) => {
                for pair in tl.partner_edges(i as EdgeId) {
                    f(&[pair[0] as usize, pair[1] as usize])?;
                }
                std::ops::ControlFlow::Continue(())
            }
            Strategy::OnTheFly { .. } => {
                let (u, v) = self.graph.edge_endpoints(i as EdgeId);
                self.intersect_edges(u, v, |e1, e2| f(&[e1 as usize, e2 as usize]))
            }
        }
    }

    fn r(&self) -> usize {
        2
    }

    fn s(&self) -> usize {
        3
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>) {
        let (u, v) = self.graph.edge_endpoints(i as EdgeId);
        out.push(u);
        out.push(v);
    }

    fn name(&self) -> String {
        "(2,3) k-truss".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    fn k4() -> CsrGraph {
        graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn strategies_agree_on_degrees() {
        let g = k4();
        let pre = TrussSpace::precomputed(&g);
        let fly = TrussSpace::on_the_fly(&g);
        assert_eq!(pre.initial_degrees(), fly.initial_degrees());
        assert_eq!(pre.initial_degrees(), vec![2; 6]);
    }

    #[test]
    fn strategies_agree_on_containers() {
        let g = k4();
        let pre = TrussSpace::precomputed(&g);
        let fly = TrussSpace::on_the_fly(&g);
        for e in 0..g.num_edges() {
            let collect = |sp: &TrussSpace| {
                let mut v: Vec<Vec<usize>> = Vec::new();
                sp.for_each_container(e, |o| {
                    let mut pair = o.to_vec();
                    pair.sort_unstable();
                    v.push(pair);
                });
                v.sort();
                v
            };
            assert_eq!(collect(&pre), collect(&fly), "edge {e}");
        }
    }

    #[test]
    fn container_members_form_triangles() {
        let g = k4();
        let sp = TrussSpace::precomputed(&g);
        for e in 0..g.num_edges() {
            sp.for_each_container(e, |others| {
                // The three edges must pairwise share vertices (a triangle).
                let es = [e, others[0], others[1]];
                let mut verts = Vec::new();
                for &x in &es {
                    let (a, b) = g.edge_endpoints(x as EdgeId);
                    verts.push(a);
                    verts.push(b);
                }
                verts.sort_unstable();
                verts.dedup();
                assert_eq!(verts.len(), 3, "container of edge {e} is not a triangle");
            });
        }
    }

    #[test]
    fn triangle_free_graph_has_empty_containers() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3)]);
        for sp in [TrussSpace::precomputed(&g), TrussSpace::on_the_fly(&g)] {
            assert_eq!(sp.initial_degrees(), vec![0, 0, 0]);
            let mut called = false;
            sp.for_each_container(0, |_| called = true);
            assert!(!called);
        }
    }

    #[test]
    fn vertices_of_returns_endpoints() {
        let g = k4();
        let sp = TrussSpace::on_the_fly(&g);
        let mut out = Vec::new();
        sp.vertices_of(0, &mut out);
        assert_eq!(out, vec![0, 1]);
    }
}
