//! The (3,4) space: the nucleus decomposition the paper highlights as the
//! sweet spot for dense hierarchy quality.
//!
//! r-cliques are triangles, s-cliques are 4-cliques. As with the truss
//! space, both a precomputed and an on-the-fly strategy exist: the K4 list
//! can be an order of magnitude bigger than the triangle list, which is why
//! the paper's implementation derives participations on the fly.

use std::borrow::Cow;

use hdsd_graph::{CsrGraph, K4List, Orientation, TriangleList, VertexId};

use super::CliqueSpace;

enum Strategy {
    Precomputed(K4List),
    OnTheFly { k4_counts: Vec<u32> },
}

/// (3,4)-nucleus view of a graph.
pub struct Nucleus34Space<'g> {
    graph: &'g CsrGraph,
    /// Owned or borrowed triangle universe (the long-lived engines keep
    /// one resident list across updates and lend it to every rebuilt
    /// space).
    triangles: Cow<'g, TriangleList>,
    strategy: Strategy,
}

impl<'g> Nucleus34Space<'g> {
    /// Materializes triangle and K4 lists (fast containers, high memory)
    /// over one shared degeneracy orientation.
    pub fn precomputed(graph: &'g CsrGraph) -> Self {
        let orient = Orientation::degeneracy(graph);
        let triangles = TriangleList::build_with(graph, &orient);
        let k4 = K4List::build_with(graph, &triangles, &orient);
        Nucleus34Space {
            graph,
            triangles: Cow::Owned(triangles),
            strategy: Strategy::Precomputed(k4),
        }
    }

    /// Materializes only the triangle list; K4 containers are re-derived per
    /// call by intersecting adjacency lists (the paper's approach).
    pub fn on_the_fly(graph: &'g CsrGraph) -> Self {
        let triangles = TriangleList::build(graph);
        Self::from_triangles(graph, triangles)
    }

    /// On-the-fly strategy over an already-built owned triangle list.
    pub fn from_triangles(graph: &'g CsrGraph, triangles: TriangleList) -> Self {
        let k4_counts = hdsd_graph::count_k4_per_triangle(graph, &triangles);
        Nucleus34Space {
            graph,
            triangles: Cow::Owned(triangles),
            strategy: Strategy::OnTheFly { k4_counts },
        }
    }

    /// Materializes the K4 list over a borrowed resident triangle list
    /// (the serving engine's cold build: one K4 enumeration, no per-call
    /// adjacency walks).
    pub fn with_triangles(graph: &'g CsrGraph, triangles: &'g TriangleList) -> Self {
        Nucleus34Space {
            graph,
            triangles: Cow::Borrowed(triangles),
            strategy: Strategy::Precomputed(K4List::build(graph, triangles)),
        }
    }

    /// The triangle universe of this space.
    pub fn triangles(&self) -> &TriangleList {
        &self.triangles
    }

    /// Consumes the space, returning the triangle list (the id universe of
    /// the κ values computed on this space). Clones when the list was
    /// borrowed.
    pub fn into_triangles(self) -> TriangleList {
        self.triangles.into_owned()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }
}

impl CliqueSpace for Nucleus34Space<'_> {
    fn num_cliques(&self) -> usize {
        self.triangles().len()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        match &self.strategy {
            Strategy::Precomputed(k4) => {
                (0..self.triangles().len() as u32).map(|t| k4.triangle_k4_count(t)).collect()
            }
            Strategy::OnTheFly { k4_counts } => k4_counts.clone(),
        }
    }

    fn degree(&self, i: usize) -> u32 {
        match &self.strategy {
            Strategy::Precomputed(k4) => k4.triangle_k4_count(i as u32),
            Strategy::OnTheFly { k4_counts } => k4_counts[i],
        }
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        match &self.strategy {
            Strategy::Precomputed(k4) => {
                for &q in k4.k4s_of_triangle(i as u32) {
                    let tris = k4.quad_tris[q as usize];
                    let mut others = [0usize; 3];
                    let mut n = 0;
                    for &t in &tris {
                        if t as usize != i {
                            others[n] = t as usize;
                            n += 1;
                        }
                    }
                    debug_assert_eq!(n, 3);
                    f(&others)?;
                }
                std::ops::ControlFlow::Continue(())
            }
            Strategy::OnTheFly { .. } => hdsd_graph::try_for_each_k4_of_triangle(
                self.graph,
                self.triangles(),
                i,
                |[x, y, z]| f(&[x as usize, y as usize, z as usize]),
            ),
        }
    }

    fn r(&self) -> usize {
        3
    }

    fn s(&self) -> usize {
        4
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>) {
        out.extend_from_slice(&self.triangles().tri_verts[i]);
    }

    fn name(&self) -> String {
        "(3,4) nucleus".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(edges)
    }

    #[test]
    fn strategies_agree_on_degrees() {
        let g = complete(6);
        let pre = Nucleus34Space::precomputed(&g);
        let fly = Nucleus34Space::on_the_fly(&g);
        assert_eq!(pre.initial_degrees(), fly.initial_degrees());
        // K6: each triangle extends with any of the 3 remaining vertices.
        assert!(pre.initial_degrees().iter().all(|&d| d == 3));
    }

    #[test]
    fn strategies_agree_on_containers() {
        let g = complete(6);
        let pre = Nucleus34Space::precomputed(&g);
        let fly = Nucleus34Space::on_the_fly(&g);
        for t in 0..pre.num_cliques() {
            let collect = |sp: &Nucleus34Space| {
                let mut v: Vec<Vec<usize>> = Vec::new();
                sp.for_each_container(t, |o| {
                    let mut trio = o.to_vec();
                    trio.sort_unstable();
                    v.push(trio);
                });
                v.sort();
                v
            };
            assert_eq!(collect(&pre), collect(&fly), "triangle {t}");
        }
    }

    #[test]
    fn k4_free_graph_has_zero_degrees() {
        // Bowtie: two triangles sharing a vertex, no K4.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let sp = Nucleus34Space::on_the_fly(&g);
        assert_eq!(sp.num_cliques(), 2);
        assert_eq!(sp.initial_degrees(), vec![0, 0]);
    }

    #[test]
    fn container_members_belong_to_one_k4() {
        let g = complete(5);
        let sp = Nucleus34Space::precomputed(&g);
        for t in 0..sp.num_cliques() {
            sp.for_each_container(t, |others| {
                // t + others = 4 triangles of one K4: union of vertices = 4.
                let mut verts = Vec::new();
                sp.vertices_of(t, &mut verts);
                for &o in others {
                    sp.vertices_of(o, &mut verts);
                }
                verts.sort_unstable();
                verts.dedup();
                assert_eq!(verts.len(), 4);
            });
        }
    }

    #[test]
    fn vertices_of_matches_triangle_list() {
        let g = complete(4);
        let sp = Nucleus34Space::precomputed(&g);
        let mut out = Vec::new();
        sp.vertices_of(0, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out, sp.triangles().tri_verts[0].to_vec());
    }
}
