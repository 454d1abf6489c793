//! 4-clique (K4) counting and enumeration: the s-clique side of the (3,4)
//! nucleus decomposition.
//!
//! K4s are the k = 4 cliques of [`crate::for_each_clique`]: a K4
//! `{u, v, w, x}` with `rank(u) < rank(v) < rank(w) < rank(x)` is found
//! exactly once, as the triangle `(u, v, w)` extended by every `x` of
//! `out(w)` that also closes `u -> v`. They are visited by `u`, then `v`
//! and `w` in rank order, each triangle's `x` in rank order.
//!
//! [`K4List`] materializes them in that order with their triangle ids,
//! found by one incidence-list search per face from the base triangle's
//! edge ids. [`K4List::build_with`] takes the orientation the triangle
//! list was built with, so one orientation serves both substrates.

use crate::cliques::for_each_clique;
use crate::csr::{CsrGraph, EdgeId, VertexId};
use crate::orientation::Orientation;
use crate::triangles::TriangleList;

/// The four triangle ids of the K4 `vs = [u, v, w, x]` reported by
/// [`for_each_clique`] at k = 4 with its root and path edges, in the
/// sorted-vertex slot order `[abc, abd, acd, bcd]`: the face missing the
/// vertex with `k` larger K4 vertices sits in slot `k`.
fn k4_faces(tl: &TriangleList, vs: &[VertexId], root: &[EdgeId], path: &[EdgeId]) -> [u32; 4] {
    let (u, v, w, x) = (vs[0], vs[1], vs[2], vs[3]);
    let (e_uv, e_uw, e_vw) = (root[0], root[1], path[1]);
    let face = |e: EdgeId, third: VertexId| tl.triangle_on_edge(e, third).expect("face of a K4");
    let mut ids = [0u32; 4];
    for (missing, t) in
        [(x, face(e_uv, w)), (w, face(e_uv, x)), (v, face(e_uw, x)), (u, face(e_vw, x))]
    {
        ids[vs.iter().filter(|&&y| y > missing).count()] = t;
    }
    ids
}

/// Total 4-clique count `|K4|`.
pub fn total_k4(g: &CsrGraph) -> u64 {
    let orient = Orientation::degeneracy(g);
    let mut n = 0u64;
    for_each_clique(g, &orient, 4, |_, _, _| n += 1);
    n
}

/// Per-triangle K4 participation counts (the `d_4` / initial τ values of
/// the (3,4) decomposition), indexed by triangle id of `tl`.
pub fn count_k4_per_triangle(g: &CsrGraph, tl: &TriangleList) -> Vec<u32> {
    let orient = Orientation::degeneracy(g);
    let mut counts = vec![0u32; tl.len()];
    for_each_clique(g, &orient, 4, |vs, root, path| {
        for t in k4_faces(tl, vs, root, path) {
            counts[t as usize] += 1;
        }
    });
    counts
}

/// Calls `f([t_abd, t_acd, t_bcd])` for every 4-clique containing triangle
/// `t` of `tl` — the ids of the *other three* triangles of that K4, in the
/// sorted-vertex slot convention. Extension vertices are visited in
/// ascending id order. Stops early when `f` breaks.
///
/// This is the on-the-fly (3,4) container walk, shared by the
/// `Nucleus34Space` sweep path and the incremental container-cache splice
/// (which re-derives only batch-touched rows through it).
pub fn try_for_each_k4_of_triangle<F>(
    g: &CsrGraph,
    tl: &TriangleList,
    t: usize,
    mut f: F,
) -> std::ops::ControlFlow<()>
where
    F: FnMut([u32; 3]) -> std::ops::ControlFlow<()>,
{
    let [a, b, c] = tl.tri_verts[t];
    let (na, nb, nc) = (g.neighbors(a), g.neighbors(b), g.neighbors(c));
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < na.len() && j < nb.len() && k < nc.len() {
        let (x, y, z) = (na[i], nb[j], nc[k]);
        let max = x.max(y).max(z);
        if x == y && y == z {
            // The other three triangles of K4 {a, b, c, x}.
            let t_abd = tl.triangle_id(g, a, b, x);
            let t_acd = tl.triangle_id(g, a, c, x);
            let t_bcd = tl.triangle_id(g, b, c, x);
            match (t_abd, t_acd, t_bcd) {
                (Some(p), Some(q), Some(r)) => f([p, q, r])?,
                _ => unreachable!("extension vertex must close all three triangles"),
            }
            i += 1;
            j += 1;
            k += 1;
        } else {
            if x < max {
                i += 1;
            }
            if y < max {
                j += 1;
            }
            if z < max {
                k += 1;
            }
        }
    }
    std::ops::ControlFlow::Continue(())
}

/// Materialized K4 list with triangle↔K4 incidence, for the precomputed
/// (3,4) substrate.
#[derive(Clone, Debug)]
pub struct K4List {
    /// Triangle ids of each K4: `[abc, abd, acd, bcd]` for sorted vertices.
    pub quad_tris: Vec<[u32; 4]>,
    tri_k4_offsets: Vec<usize>,
    tri_k4: Vec<u32>,
}

impl K4List {
    /// Builds the list (degeneracy orientation).
    pub fn build(g: &CsrGraph, tl: &TriangleList) -> Self {
        Self::build_with(g, tl, &Orientation::degeneracy(g))
    }

    /// Builds the list under a caller-provided orientation (typically the
    /// one `tl` was built with). K4 ids follow [`for_each_clique`]'s
    /// visiting order under `orient`.
    pub fn build_with(g: &CsrGraph, tl: &TriangleList, orient: &Orientation) -> Self {
        let mut quad_tris: Vec<[u32; 4]> = Vec::new();
        for_each_clique(g, orient, 4, |vs, root, path| {
            quad_tris.push(k4_faces(tl, vs, root, path))
        });
        assert!(
            quad_tris.len() <= u32::MAX as usize,
            "K4 count {} exceeds u32 id space",
            quad_tris.len()
        );
        let nt = tl.len();
        let mut tri_k4_offsets = vec![0usize; nt + 1];
        for q in &quad_tris {
            for &t in q {
                tri_k4_offsets[t as usize + 1] += 1;
            }
        }
        for i in 0..nt {
            tri_k4_offsets[i + 1] += tri_k4_offsets[i];
        }
        let mut tri_k4 = vec![0u32; tri_k4_offsets[nt]];
        let mut cursor = tri_k4_offsets.clone();
        for (qid, q) in quad_tris.iter().enumerate() {
            for &t in q {
                tri_k4[cursor[t as usize]] = qid as u32;
                cursor[t as usize] += 1;
            }
        }
        K4List { quad_tris, tri_k4_offsets, tri_k4 }
    }

    /// Number of 4-cliques.
    #[inline]
    pub fn len(&self) -> usize {
        self.quad_tris.len()
    }

    /// True when the graph has no 4-cliques.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.quad_tris.is_empty()
    }

    /// K4 ids containing triangle `t`.
    #[inline]
    pub fn k4s_of_triangle(&self, t: u32) -> &[u32] {
        &self.tri_k4[self.tri_k4_offsets[t as usize]..self.tri_k4_offsets[t as usize + 1]]
    }

    /// K4 participation count of triangle `t`.
    #[inline]
    pub fn triangle_k4_count(&self, t: u32) -> u32 {
        (self.tri_k4_offsets[t as usize + 1] - self.tri_k4_offsets[t as usize]) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(edges)
    }

    fn binom4(n: u64) -> u64 {
        if n < 4 {
            0
        } else {
            n * (n - 1) * (n - 2) * (n - 3) / 24
        }
    }

    #[test]
    fn complete_graph_counts() {
        for n in 4..9u32 {
            let g = complete(n);
            assert_eq!(total_k4(&g), binom4(n as u64), "K{n}");
        }
    }

    #[test]
    fn k4_free_graphs() {
        // C5 has no triangles, hence no K4.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(total_k4(&g), 0);
        // A single triangle has no K4.
        let t = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        assert_eq!(total_k4(&t), 0);
    }

    #[test]
    fn per_triangle_counts_in_k5() {
        let g = complete(5);
        let tl = TriangleList::build(&g);
        let counts = count_k4_per_triangle(&g, &tl);
        // In K5 every triangle extends to a K4 with each of the 2 remaining
        // vertices.
        assert_eq!(counts.len(), 10);
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn k4list_matches_counts() {
        let g = complete(6);
        let tl = TriangleList::build(&g);
        let counts = count_k4_per_triangle(&g, &tl);
        let kl = K4List::build(&g, &tl);
        assert_eq!(kl.len() as u64, total_k4(&g));
        for t in 0..tl.len() as u32 {
            assert_eq!(kl.triangle_k4_count(t), counts[t as usize]);
        }
    }

    #[test]
    fn quad_triangle_ids_are_distinct_and_valid() {
        let g = complete(5);
        let tl = TriangleList::build(&g);
        let kl = K4List::build(&g, &tl);
        for q in &kl.quad_tris {
            let mut s = q.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4);
            for &t in q {
                assert!((t as usize) < tl.len());
            }
        }
    }

    #[test]
    fn two_overlapping_k4s() {
        // K4 on {0,1,2,3} and K4 on {2,3,4,5} sharing edge (2,3).
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
        ]);
        assert_eq!(total_k4(&g), 2);
        let tl = TriangleList::build(&g);
        let counts = count_k4_per_triangle(&g, &tl);
        // Triangles {0,1,2},... of the first K4 have count 1; triangle (2,3,x)
        // also count 1; no triangle belongs to two K4s here.
        assert_eq!(counts.iter().filter(|&&c| c == 1).count(), 8);
        assert_eq!(counts.iter().filter(|&&c| c == 0).count(), counts.len() - 8);
    }
}
