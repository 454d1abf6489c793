//! Incremental clique-space maintenance: splicing a [`CachedSpace`] across
//! an edge batch instead of re-enumerating it.
//!
//! Rebuilding the graph, re-enumerating every triangle and K4 and
//! re-materializing the flat container cache on each update would dwarf
//! the decomposition itself (building the rows costs ≈ 3× their peel).
//! This module splices instead, using the remaps produced by
//! [`hdsd_graph::delta`]:
//!
//! * the **core** space's containers are the adjacency itself, so its
//!   snapshot is re-materialized from the spliced CSR (one flat copy, no
//!   enumeration anywhere);
//! * the **truss** space reuses the maintained [`TriangleList`]: rows of
//!   edges whose triangle set is untouched are copied with ids remapped,
//!   and only the rows around the batch are re-derived from the new
//!   incidence lists;
//! * the **(3,4)** space re-derives only the rows of triangles whose K4
//!   membership changed ([`hdsd_graph::mark_k4_touched`]); every other row
//!   is copied with triangle ids remapped — no global K4 enumeration.
//!
//! The spliced rows are what the κ refresh peels
//! ([`crate::update::refresh_kappa`]); [`crate::update::update_space`]
//! picks the splice for its space. Each function also returns the
//! `new id → old id` clique remap and the **touched** set — the surviving
//! cliques whose container set changed, which the splice has to know anyway
//! to decide which rows to re-derive — so a resident forest is repaired
//! from exactly the cliques the batch reached
//! ([`crate::hierarchy::repair_hierarchy`]'s `dirty_seed`), positionally,
//! with no identity hashing.

use hdsd_graph::{
    try_for_each_k4_of_triangle, CsrDelta, CsrGraph, TriangleDelta, TriangleList, NO_ID,
};

use crate::space::{CachedSpace, CliqueSpace, CoreSpace};

/// A spliced space snapshot plus the clique-id remap into the old space.
pub struct SpaceDelta {
    /// The updated space's owned snapshot (ids match a from-scratch build).
    pub cached: CachedSpace,
    /// New clique id → old clique id ([`NO_ID`] for batch-created cliques).
    pub new_to_old: Vec<u32>,
    /// The surviving cliques (new ids, ascending) whose container set the
    /// batch changed: a containing s-clique was created or destroyed.
    /// Exactly that set — batch-created cliques are not in it (they have no
    /// old row to differ from) and neither are cliques whose κ merely
    /// moved.
    pub touched: Vec<u32>,
}

/// The surviving members of a splice's `touched` mask, ascending.
fn surviving_touched(mask: &[bool], new_to_old: &[u32]) -> Vec<u32> {
    (0..mask.len() as u32)
        .filter(|&i| mask[i as usize] && new_to_old[i as usize] != NO_ID)
        .collect()
}

/// The (1,2) core space after the batch `ed` that turned `old_graph` into
/// `new_graph`. Vertex ids are stable; the snapshot is re-materialized from
/// the already-spliced CSR (a flat copy — the core space's containers *are*
/// the adjacency rows), and the touched vertices are the batch endpoints
/// whose neighbor row differs (an edge removed and re-inserted in one
/// batch leaves its endpoints' rows as they were).
pub fn core_space_delta(old_graph: &CsrGraph, new_graph: &CsrGraph, ed: &CsrDelta) -> SpaceDelta {
    let cached = CachedSpace::build(&CoreSpace::new(new_graph));
    let old_n = old_graph.num_vertices();
    let n = new_graph.num_vertices();
    let new_to_old = (0..n as u32).map(|v| if (v as usize) < old_n { v } else { NO_ID }).collect();
    let mut touched = ed.inserted_endpoints(new_graph);
    touched.extend(ed.removed_endpoints(old_graph));
    touched.sort_unstable();
    touched.dedup();
    touched.retain(|&v| (v as usize) < old_n && old_graph.neighbors(v) != new_graph.neighbors(v));
    SpaceDelta { cached, new_to_old, touched }
}

/// The (2,3) truss space after the batch: untouched rows of the old
/// snapshot are copied with edge ids remapped; rows of edges that gained
/// or lost a triangle are re-read from the maintained incidence lists.
pub fn truss_space_delta(
    old: &CachedSpace,
    old_tl: &TriangleList,
    new_graph: &CsrGraph,
    ed: &CsrDelta,
    td: &TriangleDelta,
) -> SpaceDelta {
    debug_assert_eq!(old.r(), 2);
    let new_m = new_graph.num_edges();
    let new_tl = &td.list;

    // An edge's containers changed iff a triangle through it appeared or
    // disappeared.
    let mut touched = vec![false; new_m];
    for &t in &td.destroyed {
        for &e in &old_tl.tri_edges[t as usize] {
            let ne = ed.old_to_new[e as usize];
            if ne != NO_ID {
                touched[ne as usize] = true;
            }
        }
    }
    for &t in &td.created {
        for &e in &new_tl.tri_edges[t as usize] {
            touched[e as usize] = true;
        }
    }

    let flat = old.flat().splice(new_m, &ed.new_to_old, &ed.old_to_new, &touched, |e, out| {
        for pair in new_tl.partner_edges(e as u32) {
            out.push(pair[0]);
            out.push(pair[1]);
        }
    });

    let mut clique_verts = Vec::with_capacity(new_m * 2);
    for &(u, v) in new_graph.edges() {
        clique_verts.push(u);
        clique_verts.push(v);
    }
    let cached = CachedSpace::from_parts((2, 3), old.name(), flat, clique_verts);
    let touched = surviving_touched(&touched, &ed.new_to_old);
    SpaceDelta { cached, new_to_old: ed.new_to_old.clone(), touched }
}

/// The (3,4) nucleus space after the batch: only rows of triangles whose
/// K4 membership changed go back through the triple-intersection walk;
/// everything else is a copy with triangle ids remapped.
pub fn nucleus34_space_delta(
    old: &CachedSpace,
    old_graph: &CsrGraph,
    old_tl: &TriangleList,
    new_graph: &CsrGraph,
    ed: &CsrDelta,
    td: &TriangleDelta,
) -> SpaceDelta {
    debug_assert_eq!(old.r(), 3);
    let new_tl = &td.list;
    let touched = hdsd_graph::mark_k4_touched(old_graph, old_tl, new_graph, new_tl, ed, td);

    let flat =
        old.flat().splice(new_tl.len(), &td.new_to_old, &td.old_to_new, &touched, |t, out| {
            let _ = try_for_each_k4_of_triangle(new_graph, new_tl, t, |[x, y, z]| {
                out.extend([x, y, z]);
                std::ops::ControlFlow::Continue(())
            });
        });

    let mut clique_verts = Vec::with_capacity(new_tl.len() * 3);
    for vs in &new_tl.tri_verts {
        clique_verts.extend_from_slice(vs);
    }
    let cached = CachedSpace::from_parts((3, 4), old.name(), flat, clique_verts);
    let touched = surviving_touched(&touched, &td.new_to_old);
    SpaceDelta { cached, new_to_old: td.new_to_old.clone(), touched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Nucleus34Space, TrussSpace};
    use hdsd_graph::{apply_edge_batch, graph_from_edges, triangle_delta};

    fn two_k4s() -> CsrGraph {
        graph_from_edges([
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
            (5, 6),
        ])
    }

    fn sorted_containers(space: &CachedSpace, i: usize) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = Vec::new();
        space.for_each_container(i, |o| {
            let mut c = o.to_vec();
            c.sort_unstable();
            v.push(c);
        });
        v.sort();
        v
    }

    fn assert_cached_eq(spliced: &CachedSpace, fresh: &CachedSpace) {
        assert_eq!(spliced.num_cliques(), fresh.num_cliques());
        for i in 0..fresh.num_cliques() {
            assert_eq!(spliced.degree(i), fresh.degree(i), "degree of clique {i}");
            assert_eq!(spliced.clique_vertices(i), fresh.clique_vertices(i), "vertices of {i}");
            assert_eq!(sorted_containers(spliced, i), sorted_containers(fresh, i), "row {i}");
        }
    }

    #[test]
    fn spliced_spaces_match_cold_builds() {
        let g = two_k4s();
        let tl = TriangleList::build(&g);
        let old_truss = CachedSpace::build(&TrussSpace::with_triangles(&g, &tl));
        let old_n34 = CachedSpace::build(&Nucleus34Space::with_triangles(&g, &tl));

        let ins = [(1, 4), (0, 6), (4, 6)];
        let rm = [(2, 3), (5, 6)];
        let (g2, ed) = apply_edge_batch(&g, &ins, &rm);
        let td = triangle_delta(&tl, &g2, &ed);

        let truss = truss_space_delta(&old_truss, &tl, &g2, &ed, &td);
        assert_cached_eq(&truss.cached, &CachedSpace::build(&TrussSpace::on_the_fly(&g2)));

        let n34 = nucleus34_space_delta(&old_n34, &g, &tl, &g2, &ed, &td);
        assert_cached_eq(&n34.cached, &CachedSpace::build(&Nucleus34Space::on_the_fly(&g2)));

        let core = core_space_delta(&g, &g2, &ed);
        assert_cached_eq(&core.cached, &CachedSpace::build(&CoreSpace::new(&g2)));
        assert!(core.new_to_old.iter().all(|&o| o != NO_ID));
        // Every batch endpoint's row changed; vertex 3 lost (2,3) only.
        assert_eq!(core.touched, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
