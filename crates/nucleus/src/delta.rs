//! Incremental clique-space maintenance: splicing a [`CachedSpace`] across
//! an edge batch instead of re-enumerating it, for every (r, s).
//!
//! Rebuilding every clique list and re-materializing the flat container
//! rows on each update would dwarf the decomposition itself (building the
//! rows costs ≈ 3× their peel). A batch only reaches the cliques around
//! its edges, and one local rule finds them in any space:
//!
//! * the s-cliques the batch **creates** are exactly those that contain an
//!   inserted edge `(u, v)`: `{u, v}` plus an (s − 2)-clique of
//!   `N(u) ∩ N(v)` in the new graph. The ones it **destroys** are found
//!   the same way on the old graph from the removed edges;
//! * the r-cliques work the same way. Ids are lexicographic by sorted
//!   vertex tuple, so the new r-clique list is a merge of the old one,
//!   minus the r-cliques on a removed edge, with those on an inserted
//!   edge. For r = 2 that is [`CsrDelta`]'s edge remap; for r = 1 ids are
//!   stable and the list only grows;
//! * the **touched** r-cliques are the surviving r-subsets of the created
//!   and destroyed s-cliques. Only their rows (and those of created
//!   r-cliques) are re-derived — the (s − r)-cliques of their common
//!   neighbourhood, members named by [`CachedSpace::clique_id`] — and
//!   every other row is copied with ids remapped
//!   ([`crate::space::FlatContainers::splice`]).
//!
//! The spliced rows are what the κ refresh peels
//! ([`crate::update::refresh_kappa`]). [`space_delta`] also returns the
//! `new id → old id` remap and the touched set, so a resident forest is
//! repaired from exactly the cliques the batch reached
//! ([`crate::hierarchy::repair_hierarchy`]'s `dirty_seed`), positionally,
//! with no identity hashing.

use hdsd_graph::{CsrDelta, CsrGraph, VertexId, NO_ID};

use crate::space::{combinations, find_tuple, CachedSpace, CliqueSpace};

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

/// The (r, s) space `old` of `old_graph` carried across the batch `ed`
/// that turned `old_graph` into `new_graph`. The r-clique ids, rows and
/// clique vertex lists equal those of a cold build over `new_graph`; the
/// rows hold the same containers, possibly in another order.
///
/// `old`'s r-cliques must be numbered lexicographically by sorted vertex
/// tuple, as every cold builder numbers them.
pub fn space_delta(
    old: &CachedSpace,
    old_graph: &CsrGraph,
    new_graph: &CsrGraph,
    ed: &CsrDelta,
) -> SpaceDelta {
    let (r, s) = (old.r(), old.s());
    let ids = merge_r_cliques(old, old_graph, new_graph, ed);
    let new_n = ids.new_to_old.len();
    let combos = combinations(s, r);
    let mut members = Vec::with_capacity(combos.len() / r);

    // Touched: the surviving r-subsets of every s-clique whose member
    // list the batch changed. Both lists are sorted; walk them together.
    let destroyed = cliques_on_edges(old_graph, &ed.removed_ids, s);
    let created = cliques_on_edges(new_graph, &ed.inserted_ids, s);
    let mut touched = vec![false; new_n];
    let (mut i, mut j) = (0, 0);
    while i < destroyed.len() || j < created.len() {
        let (gone, born) = (destroyed.get(i..i + s), created.get(j..j + s));
        let changed = if let Some(d) = gone.filter(|&d| born.is_none_or(|c| d < c)) {
            i += s;
            subset_ids(d, &combos, r, &mut members, |t| {
                ids.old_to_new[old.clique_id(t).expect("an old r-clique")]
            });
            true
        } else {
            let c = born.expect("a created s-clique remains");
            j += s;
            subset_ids(c, &combos, r, &mut members, |t| ids.surviving(t));
            // An s-clique destroyed and re-created by the same batch
            // changes no row when all its r-subsets survive (r = 1).
            let recreated = gone == Some(c);
            i += if recreated { s } else { 0 };
            !recreated || members.contains(&NO_ID)
        };
        if changed {
            for &m in members.iter().filter(|&&m| m != NO_ID) {
                touched[m as usize] = true;
            }
        }
    }

    // Rows: touched and created ones are re-derived from the new graph.
    let mut tuple = Vec::with_capacity(s);
    let flat = old.flat().splice(new_n, &ids.new_to_old, &ids.old_to_new, &touched, |me, out| {
        let clique = &ids.verts[me * r..(me + 1) * r];
        for_each_clique_among(new_graph, &common_neighbors(new_graph, clique), s - r, |q| {
            tuple.clear();
            tuple.extend_from_slice(clique);
            tuple.extend_from_slice(q);
            tuple.sort_unstable();
            subset_ids(&tuple, &combos, r, &mut members, |t| {
                ids.find(t).expect("an r-subset of an s-clique is an r-clique")
            });
            out.extend(members.iter().filter(|&&m| m as usize != me));
        });
    });

    let touched = (0..new_n as u32).filter(|&i| touched[i as usize]).collect();
    let cached = CachedSpace::from_parts((r, s), old.name(), flat, ids.verts);
    SpaceDelta { cached, new_to_old: ids.new_to_old, touched }
}

/// The r-clique list after a batch, with both id remaps.
struct MergedCliques {
    r: usize,
    /// Sorted vertex tuples, `r` per clique, lexicographic.
    verts: Vec<VertexId>,
    new_to_old: Vec<u32>,
    old_to_new: Vec<u32>,
}

impl MergedCliques {
    /// The new id of the r-clique with sorted vertices `tuple`.
    fn find(&self, tuple: &[VertexId]) -> Option<u32> {
        find_tuple(&self.verts, self.r, tuple).map(|i| i as u32)
    }

    /// The new id of the r-clique `tuple` of the new graph when it
    /// survived the batch, [`NO_ID`] when the batch created it.
    fn surviving(&self, tuple: &[VertexId]) -> u32 {
        let id = self.find(tuple).expect("a new r-clique");
        if self.new_to_old[id as usize] == NO_ID {
            NO_ID
        } else {
            id
        }
    }
}

/// Merges `old`'s sorted r-clique list, minus the r-cliques on a removed
/// edge, with the r-cliques on an inserted edge.
fn merge_r_cliques(
    old: &CachedSpace,
    old_graph: &CsrGraph,
    new_graph: &CsrGraph,
    ed: &CsrDelta,
) -> MergedCliques {
    let r = old.r();
    let old_n = old.num_cliques();
    let mut destroyed = vec![false; old_n];
    let created = if r == 1 {
        (old_n as VertexId..new_graph.num_vertices() as VertexId).collect()
    } else {
        for t in cliques_on_edges(old_graph, &ed.removed_ids, r).chunks_exact(r) {
            destroyed[old.clique_id(t).expect("an old r-clique")] = true;
        }
        cliques_on_edges(new_graph, &ed.inserted_ids, r)
    };

    let new_n = old_n - destroyed.iter().filter(|&&d| d).count() + created.len() / r;
    let mut verts = Vec::with_capacity(new_n * r);
    let mut old_to_new = vec![NO_ID; old_n];
    let mut new_to_old = Vec::with_capacity(new_n);
    let (mut i, mut j) = (0, 0);
    while i < old_n || j < created.len() {
        // A destroyed r-clique and an identical re-created one collide on
        // the key; the old side goes first.
        let c = created.get(j..j + r);
        if i < old_n && c.is_none_or(|c| old.clique_vertices(i) <= c) {
            if !destroyed[i] {
                old_to_new[i] = new_to_old.len() as u32;
                new_to_old.push(i as u32);
                verts.extend_from_slice(old.clique_vertices(i));
            }
            i += 1;
        } else {
            new_to_old.push(NO_ID);
            verts.extend_from_slice(c.expect("a created r-clique remains"));
            j += r;
        }
    }
    debug_assert_eq!(new_to_old.len(), new_n);
    MergedCliques { r, verts, new_to_old, old_to_new }
}

/// The k-cliques of `g` that contain one of `edges`, as sorted vertex
/// tuples, lexicographically sorted and deduplicated, concatenated.
fn cliques_on_edges(g: &CsrGraph, edges: &[u32], k: usize) -> Vec<VertexId> {
    let mut found: Vec<Vec<VertexId>> = Vec::new();
    for &e in edges {
        let (u, v) = g.edge_endpoints(e);
        for_each_clique_among(g, &common_neighbors(g, &[u, v]), k - 2, |q| {
            let mut tuple = [&[u, v][..], q].concat();
            tuple.sort_unstable();
            found.push(tuple);
        });
    }
    found.sort_unstable();
    found.dedup();
    found.concat()
}

/// The ids `id_of` gives the `r`-subsets of the sorted tuple `clique`
/// (positions listed by `combos`), into `out`.
fn subset_ids(
    clique: &[VertexId],
    combos: &[usize],
    r: usize,
    out: &mut Vec<u32>,
    mut id_of: impl FnMut(&[VertexId]) -> u32,
) {
    out.clear();
    let mut subset = Vec::with_capacity(r);
    for combo in combos.chunks_exact(r) {
        subset.clear();
        subset.extend(combo.iter().map(|&at| clique[at]));
        out.push(id_of(&subset));
    }
}

/// The vertices adjacent to every vertex of `clique`, ascending.
fn common_neighbors(g: &CsrGraph, clique: &[VertexId]) -> Vec<VertexId> {
    let mut common = g.neighbors(clique[0]).to_vec();
    for &v in &clique[1..] {
        common = intersect(&common, g.neighbors(v));
    }
    common
}

/// Calls `f` with every k-clique of `g` among the ascending vertices
/// `cands`, each as an ascending tuple.
fn for_each_clique_among(
    g: &CsrGraph,
    cands: &[VertexId],
    k: usize,
    mut f: impl FnMut(&[VertexId]),
) {
    fn walk(
        g: &CsrGraph,
        cands: &[VertexId],
        k: usize,
        chosen: &mut Vec<VertexId>,
        f: &mut impl FnMut(&[VertexId]),
    ) {
        if k == 0 {
            return f(chosen);
        }
        for (at, &w) in cands.iter().enumerate().take((cands.len() + 1).saturating_sub(k)) {
            chosen.push(w);
            if k == 1 {
                f(chosen);
            } else {
                walk(g, &intersect(&cands[at + 1..], g.neighbors(w)), k - 1, chosen, f);
            }
            chosen.pop();
        }
    }
    walk(g, cands, k, &mut Vec::with_capacity(k), &mut f);
}

/// The common members of two ascending lists.
fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::SpaceSel;
    use hdsd_graph::{apply_edge_batch, graph_from_edges, TriangleList};

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
        let ins = [(1, 4), (0, 6), (4, 6)];
        let rm = [(2, 3), (5, 6)];
        let (g2, ed) = apply_edge_batch(&g, &ins, &rm);
        let (tl, tl2) = (TriangleList::build(&g), TriangleList::build(&g2));
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let old = sel.build_cached(&g, Some(&tl));
            let sd = space_delta(&old, &g, &g2, &ed);
            assert_cached_eq(&sd.cached, &sel.build_cached(&g2, Some(&tl2)));
            if sel == SpaceSel::Core {
                assert!(sd.new_to_old.iter().all(|&o| o != NO_ID));
                // Every batch endpoint's row changed; vertex 3 lost (2,3) only.
                assert_eq!(sd.touched, vec![0, 1, 2, 3, 4, 5, 6]);
            }
        }
    }
}
