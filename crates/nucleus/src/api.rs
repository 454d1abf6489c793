//! One-call conveniences for the common decompositions.
//!
//! These wrap the space construction + algorithm choice for users who just
//! want numbers: exact κ via the fastest exact path (peeling).

use hdsd_graph::{CsrGraph, EdgeId, VertexId};

use crate::hierarchy::{build_hierarchy, NucleusDensity};
use crate::peel::peel;
use crate::space::{CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};

/// Exact core numbers κ₂ of every vertex.
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    peel(&CoreSpace::new(g)).kappa
}

/// Exact truss numbers κ₃ of every edge (indexed by [`EdgeId`]).
pub fn truss_numbers(g: &CsrGraph) -> Vec<u32> {
    peel(&TrussSpace::precomputed(g)).kappa
}

/// Exact (3,4)-nucleus numbers κ₄ of every triangle, returned with the
/// triangle list that defines the ids.
pub fn nucleus34_numbers(g: &CsrGraph) -> (hdsd_graph::TriangleList, Vec<u32>) {
    let space = Nucleus34Space::precomputed(g);
    let kappa = peel(&space).kappa;
    (space.into_triangles(), kappa)
}

/// The densest nucleus of a decomposition with at least `min_vertices`
/// vertices, or `None` when the graph has no s-cliques.
///
/// Density here is the paper's `2|E| / (|V| (|V|−1))` on the nucleus's
/// induced subgraph, counted by [`crate::hierarchy::Hierarchy::materialize`]
/// without building it; the `min_vertices` floor filters out trivial
/// near-clique leaves.
pub fn densest_nucleus<S: CliqueSpace>(
    space: &S,
    g: &CsrGraph,
    min_vertices: usize,
) -> Option<(NucleusDensity, Vec<VertexId>)> {
    let kappa = peel(space).kappa;
    let forest = build_hierarchy(space, &kappa);
    let mut best: Option<(NucleusDensity, Vec<VertexId>)> = None;
    for id in 0..forest.len() as u32 {
        let (d, vertices) = forest.materialize(id, space, g);
        if d.vertices >= min_vertices && best.as_ref().is_none_or(|(b, _)| d.density > b.density) {
            best = Some((d, vertices));
        }
    }
    best
}

/// The maximum core of a vertex: the maximal connected subgraph around `v`
/// of vertices with κ₂ ≥ κ₂(v) (the paper's "maximum core" notion from §2).
pub fn maximum_core_of(g: &CsrGraph, v: VertexId) -> Vec<VertexId> {
    let kappa = core_numbers(g);
    let k = kappa[v as usize];
    // BFS over vertices with κ >= k.
    let mut visited = vec![false; g.num_vertices()];
    let mut queue = vec![v];
    visited[v as usize] = true;
    let mut members = Vec::new();
    while let Some(u) = queue.pop() {
        members.push(u);
        for &w in g.neighbors(u) {
            if !visited[w as usize] && kappa[w as usize] >= k {
                visited[w as usize] = true;
                queue.push(w);
            }
        }
    }
    members.sort_unstable();
    members
}

/// The maximum truss of an edge: the maximal triangle-connected set of
/// edges with κ₃ ≥ κ₃(e) containing `e`.
pub fn maximum_truss_of(g: &CsrGraph, e: EdgeId) -> Vec<EdgeId> {
    let space = TrussSpace::precomputed(g);
    let kappa = peel(&space).kappa;
    let k = kappa[e as usize];
    let mut visited = vec![false; g.num_edges()];
    let mut queue = vec![e as usize];
    visited[e as usize] = true;
    let mut members = Vec::new();
    while let Some(x) = queue.pop() {
        members.push(x as EdgeId);
        space.for_each_container(x, |others| {
            // Triangle connects its edges only if every edge clears k.
            if others.iter().all(|&o| kappa[o] >= k) {
                for &o in others {
                    if !visited[o] {
                        visited[o] = true;
                        queue.push(o);
                    }
                }
            }
        });
    }
    members.sort_unstable();
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    fn two_k4_bridge() -> CsrGraph {
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 A
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7), // K4 B
            (3, 8),
            (8, 4), // degree-2 connector
        ])
    }

    #[test]
    fn convenience_functions_match_peeling() {
        let g = two_k4_bridge();
        assert_eq!(core_numbers(&g), vec![3, 3, 3, 3, 3, 3, 3, 3, 2]);
        let truss = truss_numbers(&g);
        assert_eq!(truss[g.edge_id(0, 1).unwrap() as usize], 2);
        assert_eq!(truss[g.edge_id(3, 8).unwrap() as usize], 0);
        let (tl, k34) = nucleus34_numbers(&g);
        assert_eq!(tl.len(), 8);
        assert!(k34.iter().all(|&k| k == 1)); // each K4's triangles
    }

    #[test]
    fn densest_nucleus_finds_the_k4() {
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (3, 4),
            (4, 5),
            (5, 6), // tail
        ]);
        let sp = CoreSpace::new(&g);
        let (d, verts) = densest_nucleus(&sp, &g, 4).unwrap();
        assert_eq!(verts, vec![0, 1, 2, 3]);
        assert!((d.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn densest_nucleus_respects_min_vertices() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]); // triangle only
        let sp = CoreSpace::new(&g);
        assert!(densest_nucleus(&sp, &g, 4).is_none());
        assert!(densest_nucleus(&sp, &g, 3).is_some());
    }

    #[test]
    fn maximum_core_respects_connectivity() {
        let g = two_k4_bridge();
        // Vertex 0 has κ=3; its maximum core is K4 A only (the connector
        // has κ=2, breaking the ≥3 path to K4 B).
        assert_eq!(maximum_core_of(&g, 0), vec![0, 1, 2, 3]);
        // The connector's maximum core (κ=2) spans everything.
        assert_eq!(maximum_core_of(&g, 8).len(), 9);
    }

    #[test]
    fn maximum_truss_stays_within_triangle_connectivity() {
        let g = two_k4_bridge();
        let e01 = g.edge_id(0, 1).unwrap();
        let t = maximum_truss_of(&g, e01);
        // K4 A's six edges form the 2-truss around (0,1).
        assert_eq!(t.len(), 6);
        for e in t {
            let (u, v) = g.edge_endpoints(e);
            assert!(u <= 3 && v <= 3, "edge ({u},{v}) escapes K4 A");
        }
    }
}
