//! Incremental CSR maintenance under edge batches.
//!
//! [`crate::GraphBuilder`] rebuilds everything from the raw edge list:
//! canonicalize, sort, dedup, refill every adjacency row. For a serving
//! engine that applies small update batches to a large resident graph that
//! cost is absurd — the batch touches a handful of rows and the rebuild
//! pays for all of them.
//!
//! [`apply_edge_batch`] applies a mixed insert/remove batch **by
//! splicing**: it produces the new [`CsrGraph`] with untouched adjacency
//! rows copied and batch-touched rows merge-spliced, in flat `O(n + m)`
//! array passes plus `O(Δ log Δ)` for the batch itself — no global sort,
//! no dedup scan. The output is **bit-identical** to what `GraphBuilder`
//! would produce for the updated edge set (same vertex count, same
//! lexicographic edge ids, same row layout), so everything downstream that
//! compares against a from-scratch build stays exact. The returned
//! [`CsrDelta`] carries the stable edge-id remaps; the clique spaces above
//! the graph are spliced from it by `hdsd-nucleus`'s `space_delta`.

use crate::csr::{CsrGraph, EdgeId, VertexId};

/// Sentinel for "no counterpart on the other side of the delta" in id
/// remap tables (removed/destroyed on the old side, created on the new).
pub const NO_ID: u32 = u32::MAX;

/// Stable edge-id remaps for one applied batch.
///
/// Ids are the dense lexicographic ids of [`CsrGraph`]; removed and
/// inserted slots hold [`NO_ID`].
#[derive(Clone, Debug)]
pub struct CsrDelta {
    /// Old edge id → new edge id (`NO_ID` for removed edges).
    pub old_to_new: Vec<EdgeId>,
    /// New edge id → old edge id (`NO_ID` for inserted edges).
    pub new_to_old: Vec<EdgeId>,
    /// New ids of inserted edges, ascending.
    pub inserted_ids: Vec<EdgeId>,
    /// Old ids of removed edges, ascending.
    pub removed_ids: Vec<EdgeId>,
}

impl CsrDelta {
    /// Edges actually inserted (after dedup against the old graph).
    pub fn inserted(&self) -> u32 {
        self.inserted_ids.len() as u32
    }

    /// Edges actually removed.
    pub fn removed(&self) -> u32 {
        self.removed_ids.len() as u32
    }

    /// True when the batch changed nothing.
    pub fn is_noop(&self) -> bool {
        self.inserted_ids.is_empty() && self.removed_ids.is_empty()
    }
}

/// Applies a mixed batch to `g` by adjacency splicing, returning the new
/// graph and the edge-id remaps.
///
/// Semantics match [`GraphBuilder`](crate::GraphBuilder)-based rebuilds
/// exactly: self-loops and duplicate inserts are dropped, inserting a
/// present edge is a no-op, removing an absent edge is a no-op, and an
/// edge both removed and inserted in one batch ends up present (counted
/// as one removal plus one insertion, like a rebuild would). The vertex
/// set grows to cover inserted endpoints and never shrinks.
pub fn apply_edge_batch(
    g: &CsrGraph,
    insert: &[(VertexId, VertexId)],
    remove: &[(VertexId, VertexId)],
) -> (CsrGraph, CsrDelta) {
    let old_m = g.num_edges();
    let old_n = g.num_vertices();

    // Removals: resolve to old edge ids (absent edges are no-ops).
    let mut removed_ids: Vec<EdgeId> =
        remove.iter().filter_map(|&(u, v)| g.edge_id(u, v)).collect();
    removed_ids.sort_unstable();
    removed_ids.dedup();
    let mut removed_mask = vec![false; old_m];
    for &e in &removed_ids {
        removed_mask[e as usize] = true;
    }

    // Insertions: canonicalize, dedup, keep only edges absent from the
    // post-removal graph (an edge removed and re-inserted in one batch is
    // kept here, mirroring what a rebuild does).
    let mut ins: Vec<(VertexId, VertexId)> =
        insert.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
    ins.sort_unstable();
    ins.dedup();
    ins.retain(|&(u, v)| match g.edge_id(u, v) {
        Some(e) => removed_mask[e as usize],
        None => true,
    });

    // Merge old (minus removed) with inserted into the new canonical edge
    // list, recording both remap directions. Keys collide only for
    // removed-and-reinserted edges, and the old side is skipped first.
    let new_m = old_m - removed_ids.len() + ins.len();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(new_m);
    let mut old_to_new = vec![NO_ID; old_m];
    let mut new_to_old: Vec<EdgeId> = Vec::with_capacity(new_m);
    let mut inserted_ids: Vec<EdgeId> = Vec::with_capacity(ins.len());
    let old_edges = g.edges();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_m || j < ins.len() {
        let take_old = match (old_edges.get(i), ins.get(j)) {
            (Some(oe), Some(ie)) => oe <= ie,
            (Some(_), None) => true,
            _ => false,
        };
        if take_old {
            if !removed_mask[i] {
                old_to_new[i] = edges.len() as EdgeId;
                new_to_old.push(i as EdgeId);
                edges.push(old_edges[i]);
            }
            i += 1;
        } else {
            inserted_ids.push(edges.len() as EdgeId);
            new_to_old.push(NO_ID);
            edges.push(ins[j]);
            j += 1;
        }
    }
    debug_assert_eq!(edges.len(), new_m);
    assert!(new_m <= EdgeId::MAX as usize, "edge count {new_m} exceeds u32 edge-id space");

    // Vertex set: grows to cover every *requested* insert endpoint — even
    // ones whose edge is dropped as a duplicate or self-loop — and never
    // shrinks (bit-identical to a `GraphBuilder` rebuild pinned to the
    // old vertex count).
    let new_n = insert.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(old_n);

    // Per-vertex insert partners, sorted by neighbor (each inserted edge
    // contributes to both endpoint rows).
    let mut ins_adj: Vec<(VertexId, VertexId, EdgeId)> = Vec::with_capacity(ins.len() * 2);
    for (k, &(u, v)) in ins.iter().enumerate() {
        let e = inserted_ids[k];
        ins_adj.push((u, v, e));
        ins_adj.push((v, u, e));
    }
    ins_adj.sort_unstable();

    // Offsets: old degrees adjusted by the batch.
    let mut deg = vec![0usize; new_n];
    for v in 0..old_n as VertexId {
        deg[v as usize] = g.degree(v);
    }
    for &e in &removed_ids {
        let (u, v) = g.edge_endpoints(e);
        deg[u as usize] -= 1;
        deg[v as usize] -= 1;
    }
    for &(u, v) in &ins {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut offsets = vec![0usize; new_n + 1];
    for v in 0..new_n {
        offsets[v + 1] = offsets[v] + deg[v];
    }

    // Rows: copy-and-remap untouched entries, merge-splice insert partners.
    let total = offsets[new_n];
    let mut neighbors = vec![0 as VertexId; total];
    let mut adj_edge_ids = vec![0 as EdgeId; total];
    let mut ins_at = 0usize;
    for v in 0..new_n {
        let mut at = offsets[v];
        let mut row_ins = ins_at;
        while row_ins < ins_adj.len() && ins_adj[row_ins].0 as usize == v {
            row_ins += 1;
        }
        let mut pending = &ins_adj[ins_at..row_ins];
        ins_at = row_ins;
        if v < old_n {
            let va = v as VertexId;
            for (w, e) in g.neighbors(va).iter().copied().zip(g.neighbor_edge_ids(va)) {
                let ne = old_to_new[*e as usize];
                if ne == NO_ID {
                    continue; // removed
                }
                while let Some(&(_, iw, ie)) = pending.first() {
                    if iw < w {
                        neighbors[at] = iw;
                        adj_edge_ids[at] = ie;
                        at += 1;
                        pending = &pending[1..];
                    } else {
                        break;
                    }
                }
                neighbors[at] = w;
                adj_edge_ids[at] = ne;
                at += 1;
            }
        }
        for &(_, iw, ie) in pending {
            neighbors[at] = iw;
            adj_edge_ids[at] = ie;
            at += 1;
        }
        debug_assert_eq!(at, offsets[v + 1], "row splice mismatch at vertex {v}");
    }

    let graph = CsrGraph::from_parts(offsets, neighbors, adj_edge_ids, edges);
    (graph, CsrDelta { old_to_new, new_to_old, inserted_ids, removed_ids })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    /// Rebuild-from-scratch reference for the same batch semantics.
    fn rebuilt(
        g: &CsrGraph,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> CsrGraph {
        let drop: std::collections::HashSet<(u32, u32)> =
            remove.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let n = insert
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(g.num_vertices());
        let mut b = GraphBuilder::with_capacity(g.num_edges() + insert.len()).with_num_vertices(n);
        for &(u, v) in g.edges() {
            if !drop.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in insert {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.edges(), b.edges());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "neighbors of {v}");
            assert_eq!(a.neighbor_edge_ids(v), b.neighbor_edge_ids(v), "edge ids of {v}");
        }
    }

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

    #[test]
    fn splice_matches_rebuild_on_mixed_batch() {
        let g = two_k4s();
        let ins = [(0, 6), (1, 4), (6, 7), (7, 8)];
        let rm = [(2, 3), (5, 6), (9, 9), (0, 6)]; // (0,6) absent, (9,9) loop
        let (g2, d) = apply_edge_batch(&g, &ins, &rm);
        assert_same_graph(&g2, &rebuilt(&g, &ins, &rm));
        assert_eq!(d.inserted(), 4);
        assert_eq!(d.removed(), 2);
        // Remaps are mutually inverse on survivors.
        for (old, &new) in d.old_to_new.iter().enumerate() {
            if new != NO_ID {
                assert_eq!(d.new_to_old[new as usize] as usize, old);
                assert_eq!(g.edge_endpoints(old as EdgeId), g2.edge_endpoints(new));
            }
        }
        for &e in &d.inserted_ids {
            assert_eq!(d.new_to_old[e as usize], NO_ID);
        }
    }

    #[test]
    fn noop_and_duplicate_batches() {
        let g = two_k4s();
        // Inserting present edges / removing absent ones changes nothing.
        let (g2, d) = apply_edge_batch(&g, &[(0, 1), (1, 0), (3, 3)], &[(0, 6), (6, 0)]);
        assert!(d.is_noop());
        assert_same_graph(&g2, &g);
        assert!(d.old_to_new.iter().enumerate().all(|(i, &e)| e as usize == i));
        // Empty batch.
        let (g3, d3) = apply_edge_batch(&g, &[], &[]);
        assert!(d3.is_noop());
        assert_same_graph(&g3, &g);
    }

    #[test]
    fn remove_and_reinsert_same_edge() {
        let g = two_k4s();
        let (g2, d) = apply_edge_batch(&g, &[(2, 3)], &[(3, 2)]);
        assert_same_graph(&g2, &g);
        assert_eq!(d.inserted(), 1);
        assert_eq!(d.removed(), 1);
        let e_old = g.edge_id(2, 3).unwrap();
        assert_eq!(d.old_to_new[e_old as usize], NO_ID);
        assert_eq!(d.inserted_ids, vec![g2.edge_id(2, 3).unwrap()]);
    }

    #[test]
    fn vertex_set_grows_but_never_shrinks() {
        let g = graph_from_edges([(0, 1), (1, 2)]);
        let (g2, _) = apply_edge_batch(&g, &[(4, 5)], &[(1, 2)]);
        assert_eq!(g2.num_vertices(), 6);
        assert_eq!(g2.degree(2), 0);
        let (g3, _) = apply_edge_batch(&g2, &[], &[(4, 5)]);
        assert_eq!(g3.num_vertices(), 6);
    }
}
