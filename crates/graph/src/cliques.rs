//! The k-clique lister every clique substrate is built from.
//!
//! [`for_each_clique`] walks an [`Orientation`] depth first, in the style
//! of kClist: each clique `v0 < v1 < … < v(k−1)` (ranks ascending) is
//! found exactly once, from its lowest-ranked vertex, by extending a path
//! of chosen vertices through the candidates that are out-neighbors of
//! every vertex chosen so far.
//!
//! * The root `v0`'s out-list is marked in a vertex-indexed array with its
//!   out-edge ids, so the first candidate set is `out(v0)` and every later
//!   vertex's root edge is one array read.
//! * Each deeper candidate set is the members of the chosen vertex's
//!   out-list that carry the previous depth's label; they are relabelled
//!   one depth up while that vertex is extended and relabelled back after.
//!   Candidate buffers are reused per depth.
//! * Candidates stay in rank order, so a candidate with fewer than
//!   `k − d − 1` later candidates (`d` vertices chosen) cannot complete a
//!   clique and is not extended.
//! * The last level is scanned inline: each labelled member of the last
//!   chosen vertex's out-list completes a clique.
//!
//! Roots are visited by vertex id, and every level in rank order. That
//! order is part of the contract: [`crate::K4List`] numbers K4s in it.

use crate::csr::{CsrGraph, EdgeId, VertexId};
use crate::delta::NO_ID;
use crate::orientation::Orientation;

/// Calls `f(verts, root_edges, path_edges)` once per k-clique of `g`.
///
/// * `verts` — the clique's `k` vertices, ranks ascending under `orient`
///   (vertex ids themselves are in no particular order);
/// * `root_edges[i]` — the id of the edge `verts[0] — verts[i + 1]`;
/// * `path_edges[i]` — the id of the edge `verts[i] — verts[i + 1]`
///   (so `path_edges[0] == root_edges[0]`).
///
/// Both edge slices have length `k − 1`. `k = 0` reports nothing; `k = 1`
/// reports every vertex with empty edge slices.
///
/// # Panics
/// Panics when `k` exceeds 255.
pub fn for_each_clique(
    g: &CsrGraph,
    orient: &Orientation,
    k: usize,
    mut f: impl FnMut(&[VertexId], &[EdgeId], &[EdgeId]),
) {
    match k {
        0 => return,
        1 => {
            for v in g.vertices() {
                f(&[v], &[], &[]);
            }
            return;
        }
        _ => assert!(k <= u8::MAX as usize, "clique size {k} exceeds the depth labels"),
    }
    let mut walk = Walk {
        orient,
        k,
        edge_to: vec![NO_ID; g.num_vertices()],
        label: if k > 3 { vec![0; g.num_vertices()] } else { Vec::new() },
        cands: vec![Vec::new(); k],
        verts: vec![0; k],
        root: vec![0; k - 1],
        path: vec![0; k - 1],
    };
    for u in g.vertices() {
        let (ou, oe) = (orient.out_neighbors(u), orient.out_edge_ids(u));
        if ou.len() < k - 1 {
            continue;
        }
        for (&w, &e) in ou.iter().zip(oe) {
            walk.edge_to[w as usize] = e;
        }
        walk.verts[0] = u;
        // The root's children still need k − 2 later candidates each.
        for (&v, &e) in ou[..ou.len() + 2 - k].iter().zip(oe) {
            walk.verts[1] = v;
            walk.root[0] = e;
            walk.path[0] = e;
            if k == 2 {
                f(&walk.verts, &walk.root, &walk.path);
            } else {
                walk.descend(2, &mut f);
            }
        }
        for &w in ou {
            walk.edge_to[w as usize] = NO_ID;
        }
    }
}

/// Scratch of one [`for_each_clique`] run.
struct Walk<'o> {
    orient: &'o Orientation,
    k: usize,
    /// `edge_to[w]` = id of the edge `root -> w` while the root's out-list
    /// is marked, [`NO_ID`] otherwise: the depth-1 label.
    edge_to: Vec<EdgeId>,
    /// `label[w] = d` (d ≥ 2): `w` is a candidate at depth `d`. Unused
    /// below k = 4.
    label: Vec<u8>,
    /// `cands[d]`: the candidates at depth `d` with the edge that joins
    /// each to `verts[d − 1]`, in rank order.
    cands: Vec<Vec<(VertexId, EdgeId)>>,
    /// The chosen vertices, root edges and path edges the callback sees.
    verts: Vec<VertexId>,
    root: Vec<EdgeId>,
    path: Vec<EdgeId>,
}

impl Walk<'_> {
    /// True when `w` is a candidate at depth `d`.
    #[inline]
    fn is_candidate(&self, w: VertexId, d: usize) -> bool {
        if d == 1 {
            self.edge_to[w as usize] != NO_ID
        } else {
            self.label[w as usize] as usize == d
        }
    }

    /// Extends the chosen prefix `verts[..d]` by every candidate at depth
    /// `d`: the members of `out(verts[d − 1])` that are candidates at
    /// depth `d − 1`.
    #[inline(always)]
    fn descend(&mut self, d: usize, f: &mut impl FnMut(&[VertexId], &[EdgeId], &[EdgeId])) {
        if d + 1 == self.k {
            self.complete(d, f);
        } else {
            self.extend(d, f);
        }
    }

    /// [`Self::descend`] at the last depth: every candidate completes a
    /// clique.
    #[inline(always)]
    fn complete(&mut self, d: usize, f: &mut impl FnMut(&[VertexId], &[EdgeId], &[EdgeId])) {
        let v = self.verts[d - 1];
        let (ov, oe) = (self.orient.out_neighbors(v), self.orient.out_edge_ids(v));
        for (&w, &e) in ov.iter().zip(oe) {
            if self.is_candidate(w, d - 1) {
                self.verts[d] = w;
                self.root[d - 1] = self.edge_to[w as usize];
                self.path[d - 1] = e;
                f(&self.verts, &self.root, &self.path);
            }
        }
    }

    /// [`Self::descend`] above the last depth: collects and labels the
    /// candidates, then descends from each one that can still complete a
    /// clique.
    fn extend(&mut self, d: usize, f: &mut impl FnMut(&[VertexId], &[EdgeId], &[EdgeId])) {
        let v = self.verts[d - 1];
        let (ov, oe) = (self.orient.out_neighbors(v), self.orient.out_edge_ids(v));
        let mut cands = std::mem::take(&mut self.cands[d]);
        cands.clear();
        for (&w, &e) in ov.iter().zip(oe) {
            if self.is_candidate(w, d - 1) {
                cands.push((w, e));
            }
        }
        // A candidate needs k − d − 1 later ones to complete a clique.
        let needed = self.k - d - 1;
        if cands.len() > needed {
            for &(w, _) in &cands {
                self.label[w as usize] = d as u8;
            }
            for &(w, e) in &cands[..cands.len() - needed] {
                self.verts[d] = w;
                self.root[d - 1] = self.edge_to[w as usize];
                self.path[d - 1] = e;
                self.descend(d + 1, f);
            }
            for &(w, _) in &cands {
                self.label[w as usize] = (d - 1) as u8;
            }
        }
        self.cands[d] = cands;
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

    fn count(g: &CsrGraph, k: usize) -> u64 {
        let mut n = 0;
        for_each_clique(g, &Orientation::degeneracy(g), k, |_, _, _| n += 1);
        n
    }

    #[test]
    fn complete_graph_counts_are_binomials() {
        let g = complete(6);
        let want = [0, 6, 15, 20, 15, 6, 1, 0];
        for (k, &c) in want.iter().enumerate() {
            assert_eq!(count(&g, k), c, "k = {k}");
        }
    }
}
