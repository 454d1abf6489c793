//! Vertex orders and the oriented (DAG) adjacency view.
//!
//! Triangle and 4-clique enumeration orient each undirected edge from the
//! lower-ranked endpoint to the higher-ranked one under some total order.
//! Each clique is then discovered exactly once, from its lowest-ranked
//! vertex. Degree order is the classical choice for triangle counting;
//! degeneracy order bounds out-degrees by the graph's degeneracy, which is
//! what makes 4-clique enumeration tractable on skewed graphs.
//!
//! Both the degeneracy order (Matula–Beck bucket peeling) and the
//! [`Orientation`] are linear-time: the oriented out-lists are filled by
//! walking the vertices in rank order, so they come out rank-sorted
//! without a sort. One degeneracy orientation is meant to be built once
//! and shared by every enumerator that needs it
//! ([`crate::TriangleList::build_with`], [`crate::K4List::build_with`]).

use crate::csr::{CsrGraph, EdgeId, VertexId};

/// A total order on vertices: `rank[v]` is the position of `v`.
#[derive(Clone, Debug)]
pub struct VertexOrder {
    /// `rank[v]` = position of vertex `v` in the order (smaller = earlier).
    pub rank: Vec<u32>,
}

impl VertexOrder {
    /// Builds the order from an explicit permutation `order[i] = vertex`.
    pub fn from_permutation(order: &[VertexId]) -> Self {
        let mut rank = vec![0u32; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        VertexOrder { rank }
    }

    /// True when `u` precedes `v`.
    #[inline]
    pub fn before(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }
}

/// Non-decreasing degree order with vertex id as the tie-breaker.
pub fn degree_order(g: &CsrGraph) -> VertexOrder {
    let n = g.num_vertices();
    let mut verts: Vec<VertexId> = (0..n as VertexId).collect();
    verts.sort_unstable_by_key(|&v| (g.degree(v), v));
    VertexOrder::from_permutation(&verts)
}

/// Degeneracy (smallest-last) order computed by the linear-time bucket
/// peeling of Matula–Beck. Returns the order and the degeneracy value
/// (the maximum core number of the graph).
pub fn degeneracy_order(g: &CsrGraph) -> (VertexOrder, u32) {
    let n = g.num_vertices();
    if n == 0 {
        return (VertexOrder { rank: Vec::new() }, 0);
    }
    let max_deg = g.max_degree();
    let mut deg: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();

    // Bucket queue: positions sorted by current degree.
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut pos_of = vec![0usize; n];
    let mut vert_at = vec![0 as VertexId; n];
    {
        let mut cursor = bucket_start.clone();
        for v in 0..n {
            let d = deg[v] as usize;
            pos_of[v] = cursor[d];
            vert_at[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }
    // bucket_start[d] = first position whose vertex currently has degree d.
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0u32;
    let mut removed = vec![false; n];
    for i in 0..n {
        let v = vert_at[i];
        removed[v as usize] = true;
        degeneracy = degeneracy.max(deg[v as usize]);
        order.push(v);
        for &w in g.neighbors(v) {
            let wi = w as usize;
            if removed[wi] || deg[wi] == 0 {
                continue;
            }
            // Swap w to the front of its bucket, then shrink its degree.
            let dw = deg[wi] as usize;
            let front = bucket_start[dw].max(i + 1);
            let pw = pos_of[wi];
            if pw != front {
                let other = vert_at[front];
                vert_at.swap(pw, front);
                pos_of[other as usize] = pw;
                pos_of[wi] = front;
            }
            bucket_start[dw] = front + 1;
            deg[wi] -= 1;
        }
    }
    (VertexOrder::from_permutation(&order), degeneracy)
}

/// Oriented adjacency: for each vertex, the neighbors that come *after* it
/// in a [`VertexOrder`], with the matching undirected edge ids. Out-lists
/// are sorted by the order's rank, which fixes the order in which the
/// enumerators visit cliques.
#[derive(Clone, Debug)]
pub struct Orientation {
    offsets: Vec<usize>,
    /// Out-neighbors, sorted by rank.
    out: Vec<VertexId>,
    /// Undirected edge ids aligned with `out`.
    out_eids: Vec<EdgeId>,
    order: VertexOrder,
}

impl Orientation {
    /// Orients `g` under `order` in `O(n + m)`.
    pub fn new(g: &CsrGraph, order: VertexOrder) -> Self {
        let n = g.num_vertices();
        let mut offsets = vec![0usize; n + 1];
        let mut by_rank = vec![0 as VertexId; n];
        for v in g.vertices() {
            offsets[v as usize + 1] =
                g.neighbors(v).iter().filter(|&&w| order.before(v, w)).count();
            by_rank[order.rank[v as usize] as usize] = v;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut out = vec![0 as VertexId; offsets[n]];
        let mut out_eids = vec![0 as EdgeId; offsets[n]];
        let mut cursor = offsets.clone();
        // Each vertex is appended to the out-lists of its lower-ranked
        // neighbors, and vertices arrive in rank order, so every out-list
        // comes out rank-sorted already: no per-vertex sort is needed.
        for &w in &by_rank {
            for (v, e) in g.neighbors_with_edges(w) {
                if order.before(v, w) {
                    let at = &mut cursor[v as usize];
                    out[*at] = w;
                    out_eids[*at] = e;
                    *at += 1;
                }
            }
        }
        Orientation { offsets, out, out_eids, order }
    }

    /// Orients by degeneracy order (the default for clique enumeration).
    pub fn degeneracy(g: &CsrGraph) -> Self {
        let (order, _) = degeneracy_order(g);
        Self::new(g, order)
    }

    /// Orients by degree order.
    pub fn degree(g: &CsrGraph) -> Self {
        Self::new(g, degree_order(g))
    }

    /// Out-neighbors of `v` (later in the order), sorted by rank.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.out[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge ids aligned with [`Self::out_neighbors`].
    #[inline]
    pub fn out_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.out_eids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The underlying order.
    #[inline]
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Rank of vertex `v` in the underlying order.
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.order.rank[v as usize]
    }

    /// Maximum out-degree (≤ degeneracy when degeneracy-ordered).
    pub fn max_out_degree(&self) -> usize {
        (0..self.offsets.len() - 1)
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
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
    fn degree_order_sorts_by_degree() {
        // star: center 0 has degree 3, leaves degree 1
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3)]);
        let ord = degree_order(&g);
        for leaf in 1..4 {
            assert!(ord.before(leaf, 0));
        }
    }

    #[test]
    fn degeneracy_of_complete_graph() {
        let (_, d) = degeneracy_order(&k4());
        assert_eq!(d, 3);
    }

    #[test]
    fn degeneracy_of_tree_is_one() {
        let g = graph_from_edges([(0, 1), (1, 2), (1, 3), (3, 4)]);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 1);
    }

    #[test]
    fn degeneracy_of_cycle_is_two() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 2);
    }

    #[test]
    fn orientation_covers_each_edge_once() {
        let g = k4();
        let o = Orientation::degeneracy(&g);
        let mut seen = vec![false; g.num_edges()];
        for v in g.vertices() {
            for &e in o.out_edge_ids(v) {
                assert!(!seen[e as usize], "edge {} oriented twice", e);
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn out_lists_sorted_by_rank() {
        let g = k4();
        let o = Orientation::degree(&g);
        for v in g.vertices() {
            let ranks: Vec<u32> = o.out_neighbors(v).iter().map(|&w| o.rank(w)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
            for &w in o.out_neighbors(v) {
                assert!(o.rank(w) > o.rank(v));
            }
        }
    }

    #[test]
    fn degeneracy_bounds_out_degree() {
        // Random-ish sparse graph: a few overlapping triangles.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 0)]);
        let (ord, d) = degeneracy_order(&g);
        let o = Orientation::new(&g, VertexOrder { rank: ord.rank.clone() });
        assert!(o.max_out_degree() <= d as usize);
    }
}
