//! Triangle counting, enumeration, and the edge↔triangle incidence used by
//! the (2,3) (k-truss) and (3,4) nucleus substrates.
//!
//! Triangles are the k = 3 cliques of [`crate::for_each_clique`] over an
//! orientation (degeneracy order by default): the root `u`'s out-list is
//! marked, and each marked `w` in the out-list of an out-neighbor `v`
//! closes the triangle `u < v < w`. The lister hands over the edge ids
//! `uv`, `uw` and `vw` along with the vertices.
//!
//! [`TriangleList`] numbers triangles canonically (lexicographic vertex
//! triples) without a comparison sort. Edge ids are lexicographic, so a
//! triangle `a < b < c` has edge ids `ab < ac < bc`, and lexicographic
//! order of the triples is the order of the `(ab, ac)` pairs: two stable
//! counting-sort passes over edge ids, first by `ac`, then by `ab`.
//! Filling the incidence lists in that order leaves each edge's list
//! sorted by third vertex, so no per-edge sort is needed either.

use crate::cliques::for_each_clique;
use crate::csr::{CsrGraph, EdgeId, VertexId};
use crate::orientation::Orientation;

/// The edge ids `[uv, uw, vw]` of a triangle reported by
/// [`for_each_clique`] at k = 3.
#[inline]
fn triangle_edges(root: &[EdgeId], path: &[EdgeId]) -> [EdgeId; 3] {
    [root[0], root[1], path[1]]
}

/// Per-edge triangle counts (the `d_3` / initial τ values of k-truss).
pub fn count_triangles_per_edge(g: &CsrGraph) -> Vec<u32> {
    let orient = Orientation::degeneracy(g);
    let mut counts = vec![0u32; g.num_edges()];
    for_each_clique(g, &orient, 3, |_, root, path| {
        for e in triangle_edges(root, path) {
            counts[e as usize] += 1;
        }
    });
    counts
}

/// Total triangle count `|△|`.
pub fn total_triangles(g: &CsrGraph) -> u64 {
    let orient = Orientation::degeneracy(g);
    let mut n = 0u64;
    for_each_clique(g, &orient, 3, |_, _, _| n += 1);
    n
}

/// Materialized triangle list plus edge↔triangle incidence.
///
/// This is the hypergraph view of the (2,3) decomposition and the r-clique
/// universe of the (3,4) decomposition. Incidence lists per edge are sorted
/// by the id of the opposite vertex, enabling the `O(log △_e)` triangle-id
/// lookup that 4-clique enumeration relies on.
///
/// Triangle ids are **canonical**: triangles are numbered in lexicographic
/// order of their sorted vertex triples, independent of the enumeration
/// orientation — the numbering every (3, s) space uses, so a space spliced
/// across an edge batch lands on exactly the ids a from-scratch build of
/// the new graph assigns.
#[derive(Clone, Debug)]
pub struct TriangleList {
    /// Vertices of each triangle, sorted ascending by id.
    pub tri_verts: Vec<[VertexId; 3]>,
    /// Edge ids of each triangle (uv, uw, vw for sorted u<v<w).
    pub tri_edges: Vec<[EdgeId; 3]>,
    /// CSR offsets: triangles incident to each edge.
    edge_tri_offsets: Vec<usize>,
    /// Triangle ids per edge, sorted by opposite-vertex id.
    edge_tris: Vec<u32>,
    /// Opposite vertex per (edge, triangle) incidence, aligned with `edge_tris`.
    edge_tri_third: Vec<VertexId>,
}

impl TriangleList {
    /// Builds the list with a degeneracy orientation.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with(g, &Orientation::degeneracy(g))
    }

    /// Builds the list under a caller-provided orientation. Ids do not
    /// depend on the orientation.
    pub fn build_with(g: &CsrGraph, orient: &Orientation) -> Self {
        // Discovery order; a triangle's edge ids ascending are [ab, ac, bc].
        let mut found: Vec<[EdgeId; 3]> = Vec::new();
        for_each_clique(g, orient, 3, |_, root, path| {
            let [e1, e2, e3] = triangle_edges(root, path);
            let (lo, hi) = (e1.min(e2), e1.max(e2));
            let (mid, hi) = (hi.min(e3), hi.max(e3));
            found.push([lo.min(mid), lo.max(mid), hi]);
        });

        // Canonical order = (ab, ac) order: stable counting sorts on ac,
        // then on ab.
        let m = g.num_edges();
        let mut by_ac = vec![[0 as EdgeId; 3]; found.len()];
        counting_sort_by_slot(&found, 1, m, &mut by_ac);
        let mut tri_edges = found;
        counting_sort_by_slot(&by_ac, 0, m, &mut tri_edges);
        drop(by_ac);

        let tri_verts: Vec<[VertexId; 3]> = tri_edges
            .iter()
            .map(|&[ab, ac, _]| {
                let (a, b) = g.edge_endpoints(ab);
                [a, b, g.edge_endpoints(ac).1]
            })
            .collect();
        assert!(
            tri_verts.len() <= u32::MAX as usize,
            "triangle count {} exceeds u32 id space",
            tri_verts.len()
        );
        debug_assert!(tri_verts.is_sorted());

        // Edge -> triangle incidence.
        let mut edge_tri_offsets = vec![0usize; m + 1];
        for es in &tri_edges {
            for &e in es {
                edge_tri_offsets[e as usize + 1] += 1;
            }
        }
        for i in 0..m {
            edge_tri_offsets[i + 1] += edge_tri_offsets[i];
        }
        let total = edge_tri_offsets[m];
        let mut edge_tris = vec![0u32; total];
        let mut edge_tri_third = vec![0 as VertexId; total];
        let mut cursor = edge_tri_offsets.clone();
        // Filling in canonical order leaves each edge's list sorted by its
        // third vertex z: for edge (x, y), the triangles (z, x, y) with
        // z < x come first in lexicographic order, then (x, z, y), then
        // (x, y, z), each group ascending in z.
        for (t, (vs, es)) in tri_verts.iter().zip(tri_edges.iter()).enumerate() {
            let thirds = [vs[2], vs[1], vs[0]]; // opposite of ab, ac, bc
            for (slot, &e) in es.iter().enumerate() {
                let c = cursor[e as usize];
                edge_tris[c] = t as u32;
                edge_tri_third[c] = thirds[slot];
                cursor[e as usize] += 1;
            }
        }
        debug_assert!((0..m).all(|e| {
            let thirds = &edge_tri_third[edge_tri_offsets[e]..edge_tri_offsets[e + 1]];
            thirds.windows(2).all(|w| w[0] < w[1])
        }));

        TriangleList { tri_verts, tri_edges, edge_tri_offsets, edge_tris, edge_tri_third }
    }

    /// Number of triangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.tri_verts.len()
    }

    /// True when the graph is triangle-free.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tri_verts.is_empty()
    }

    /// Triangle ids incident to edge `e`.
    #[inline]
    pub fn triangles_of_edge(&self, e: EdgeId) -> &[u32] {
        &self.edge_tris[self.edge_tri_offsets[e as usize]..self.edge_tri_offsets[e as usize + 1]]
    }

    /// Opposite vertices aligned with [`Self::triangles_of_edge`].
    #[inline]
    pub fn thirds_of_edge(&self, e: EdgeId) -> &[VertexId] {
        &self.edge_tri_third
            [self.edge_tri_offsets[e as usize]..self.edge_tri_offsets[e as usize + 1]]
    }

    /// Triangle count of edge `e` (its `d_3`).
    #[inline]
    pub fn edge_triangle_count(&self, e: EdgeId) -> u32 {
        (self.edge_tri_offsets[e as usize + 1] - self.edge_tri_offsets[e as usize]) as u32
    }

    /// Looks up the id of triangle `{a, b, c}`; `None` if absent.
    /// `O(log △_e)` on the `{a,b}` edge's incidence list.
    pub fn triangle_id(&self, g: &CsrGraph, a: VertexId, b: VertexId, c: VertexId) -> Option<u32> {
        self.triangle_on_edge(g.edge_id(a, b)?, c)
    }

    /// The id of the triangle made by edge `e` and vertex `third`; `None`
    /// if absent. `O(log △_e)`.
    pub(crate) fn triangle_on_edge(&self, e: EdgeId, third: VertexId) -> Option<u32> {
        let thirds = self.thirds_of_edge(e);
        let i = thirds.binary_search(&third).ok()?;
        Some(self.triangles_of_edge(e)[i])
    }

    /// For each triangle incident to edge `e`, the other two edge ids.
    pub fn partner_edges(&self, e: EdgeId) -> impl Iterator<Item = [EdgeId; 2]> + '_ {
        self.triangles_of_edge(e).iter().map(move |&t| {
            let es = self.tri_edges[t as usize];
            let mut out = [0 as EdgeId; 2];
            let mut k = 0;
            for &x in &es {
                if x != e {
                    out[k] = x;
                    k += 1;
                }
            }
            debug_assert_eq!(k, 2);
            out
        })
    }

    /// Heap bytes used (for memory reporting in benches).
    pub fn heap_bytes(&self) -> usize {
        self.tri_verts.len() * 12
            + self.tri_edges.len() * 12
            + self.edge_tri_offsets.len() * std::mem::size_of::<usize>()
            + self.edge_tris.len() * 4
            + self.edge_tri_third.len() * 4
    }
}

/// Stable counting sort of `src` into `dst` by the edge id in `slot`, `m`
/// being the number of edge ids.
fn counting_sort_by_slot(src: &[[EdgeId; 3]], slot: usize, m: usize, dst: &mut [[EdgeId; 3]]) {
    let mut next = vec![0usize; m + 1];
    for es in src {
        next[es[slot] as usize + 1] += 1;
    }
    for i in 0..m {
        next[i + 1] += next[i];
    }
    for es in src {
        let at = &mut next[es[slot] as usize];
        dst[*at] = *es;
        *at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn k4() -> CsrGraph {
        graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = k4();
        assert_eq!(total_triangles(&g), 4);
        let counts = count_triangles_per_edge(&g);
        // every edge of K4 is in exactly 2 triangles
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn triangle_free_graph() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert_eq!(total_triangles(&g), 0);
        let tl = TriangleList::build(&g);
        assert!(tl.is_empty());
        for e in 0..g.num_edges() as u32 {
            assert_eq!(tl.edge_triangle_count(e), 0);
        }
    }

    #[test]
    fn list_matches_counts() {
        let g = k4();
        let tl = TriangleList::build(&g);
        let counts = count_triangles_per_edge(&g);
        for e in 0..g.num_edges() as u32 {
            assert_eq!(tl.edge_triangle_count(e), counts[e as usize]);
        }
        assert_eq!(tl.len() as u64, total_triangles(&g));
    }

    #[test]
    fn triangle_vertices_sorted_and_edges_consistent() {
        let g = k4();
        let tl = TriangleList::build(&g);
        for (vs, es) in tl.tri_verts.iter().zip(tl.tri_edges.iter()) {
            assert!(vs[0] < vs[1] && vs[1] < vs[2]);
            assert_eq!(g.edge_endpoints(es[0]), (vs[0], vs[1]));
            assert_eq!(g.edge_endpoints(es[1]), (vs[0], vs[2]));
            assert_eq!(g.edge_endpoints(es[2]), (vs[1], vs[2]));
        }
    }

    #[test]
    fn triangle_id_lookup() {
        let g = k4();
        let tl = TriangleList::build(&g);
        for (t, vs) in tl.tri_verts.iter().enumerate() {
            assert_eq!(tl.triangle_id(&g, vs[0], vs[1], vs[2]), Some(t as u32));
        }
        // Non-triangle lookups fail.
        let g2 = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let tl2 = TriangleList::build(&g2);
        assert_eq!(tl2.triangle_id(&g2, 0, 1, 3), None);
        assert_eq!(tl2.triangle_id(&g2, 0, 1, 2), Some(0));
    }

    #[test]
    fn partner_edges_cover_triangle() {
        let g = k4();
        let tl = TriangleList::build(&g);
        for e in 0..g.num_edges() as u32 {
            for partners in tl.partner_edges(e) {
                assert_ne!(partners[0], e);
                assert_ne!(partners[1], e);
                assert_ne!(partners[0], partners[1]);
            }
            assert_eq!(tl.partner_edges(e).count(), 2);
        }
    }

    #[test]
    fn bowtie_counts() {
        // Two triangles sharing vertex 2.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert_eq!(total_triangles(&g), 2);
        let counts = count_triangles_per_edge(&g);
        assert!(counts.iter().all(|&c| c == 1));
    }
}
