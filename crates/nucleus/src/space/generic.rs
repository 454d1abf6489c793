//! The generic (r, s) builder: any `0 < r < s` as an owned [`CachedSpace`].
//!
//! The paper's framework covers every r < s, and so does this builder: the
//! (1,3) triangle-core, the (2,4) space of edges by K4 participation, and
//! the three headline spaces all come out of it. Both clique sets come
//! from the one lister of `hdsd-graph`, [`for_each_clique`], over a
//! degeneracy orientation:
//!
//! * **r-cliques** are numbered lexicographically by sorted vertex tuple
//!   — vertex ids for r = 1, edge ids for r = 2, canonical triangle ids
//!   for r = 3 — so κ vectors compare elementwise with the specialized
//!   spaces. The numbering is `r` stable counting sorts over vertex ids,
//!   last position first; the final pass groups the list by first vertex.
//! * **s-cliques** are listed once. Each one's `binom(s, r)` r-subsets are
//!   found by binary search in their first vertex's group, with no
//!   hashing.
//! * **Rows** are counted, prefix-summed and filled straight into the
//!   [`FlatContainers`] arrays; containers follow the lister's order.

use hdsd_graph::{for_each_clique, CsrGraph, Orientation, VertexId};

use super::{find_tuple, CachedSpace, FlatContainers};

impl CachedSpace {
    /// Builds the (r, s) space of `graph`: its r-cliques, numbered
    /// lexicographically by sorted vertex tuple, and their s-clique
    /// containers.
    ///
    /// # Panics
    /// Panics unless `0 < r < s`.
    pub fn from_graph(graph: &CsrGraph, r: usize, s: usize) -> Self {
        assert!(r >= 1 && s > r, "the (r, s) builder requires 0 < r < s (got r={r}, s={s})");
        let orient = Orientation::degeneracy(graph);
        let r_cliques = RCliques::list(graph, &orient, r);

        // Member r-clique ids of every s-clique, `subsets` per s-clique.
        let combos = combinations(s, r);
        let subsets = combos.len() / r;
        let mut members: Vec<u32> = Vec::new();
        let (mut sorted, mut tuple) = (vec![0; s], vec![0; r]);
        for_each_clique(graph, &orient, s, |vs, _, _| {
            sorted.copy_from_slice(vs);
            sorted.sort_unstable();
            for combo in combos.chunks_exact(r) {
                for (t, &at) in tuple.iter_mut().zip(combo) {
                    *t = sorted[at];
                }
                members.push(r_cliques.id_of(&tuple));
            }
        });

        // Rows: count, prefix-sum, fill.
        let n = r_cliques.len();
        let group = subsets - 1;
        let mut offsets = vec![0usize; n + 1];
        for &m in &members {
            offsets[m as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut others = vec![0u32; offsets[n] * group];
        let mut cursor = offsets.clone();
        for container in members.chunks_exact(subsets) {
            for (j, &m) in container.iter().enumerate() {
                let at = cursor[m as usize] * group;
                cursor[m as usize] += 1;
                let row = &mut others[at..at + group];
                row[..j].copy_from_slice(&container[..j]);
                row[j..].copy_from_slice(&container[j + 1..]);
            }
        }
        let flat = FlatContainers::from_rows(group, offsets, others);
        CachedSpace::from_parts((r, s), format!("({r},{s}) nucleus"), flat, r_cliques.verts)
    }
}

/// The r-cliques of a graph, sorted lexicographically and grouped by
/// first vertex.
struct RCliques {
    r: usize,
    /// Sorted vertex tuples, `r` per clique, concatenated.
    verts: Vec<VertexId>,
    /// `first[v]..first[v + 1]`: the ids of the r-cliques whose smallest
    /// vertex is `v`.
    first: Vec<usize>,
}

impl RCliques {
    fn list(graph: &CsrGraph, orient: &Orientation, r: usize) -> Self {
        let mut verts: Vec<VertexId> = Vec::new();
        for_each_clique(graph, orient, r, |vs, _, _| {
            let at = verts.len();
            verts.extend_from_slice(vs);
            verts[at..].sort_unstable();
        });
        assert!(verts.len() / r <= u32::MAX as usize, "r-clique count exceeds u32 id space");
        let n = graph.num_vertices();
        let mut sorted = vec![0; verts.len()];
        let mut first = Vec::new();
        for slot in (0..r).rev() {
            first = counting_sort_by_slot(&verts, r, slot, n, &mut sorted);
            std::mem::swap(&mut verts, &mut sorted);
        }
        RCliques { r, verts, first }
    }

    fn len(&self) -> usize {
        self.verts.len() / self.r
    }

    /// The id of the r-clique with sorted vertices `tuple`, searched in
    /// its first vertex's group.
    fn id_of(&self, tuple: &[VertexId]) -> u32 {
        let r = self.r;
        let (lo, hi) = (self.first[tuple[0] as usize], self.first[tuple[0] as usize + 1]);
        let at = find_tuple(&self.verts[lo * r..hi * r], r, tuple)
            .expect("an r-subset of an s-clique is an r-clique");
        (lo + at) as u32
    }
}

/// Stable counting sort of the `r`-tuples of `src` into `dst` by the
/// vertex in `slot`, `n` being the vertex count. Returns the bucket
/// offsets: tuple ids `out[v]..out[v + 1]` of `dst` have `v` in `slot`.
fn counting_sort_by_slot(
    src: &[VertexId],
    r: usize,
    slot: usize,
    n: usize,
    dst: &mut [VertexId],
) -> Vec<usize> {
    let mut starts = vec![0usize; n + 1];
    for tuple in src.chunks_exact(r) {
        starts[tuple[slot] as usize + 1] += 1;
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut next = starts.clone();
    for tuple in src.chunks_exact(r) {
        let at = &mut next[tuple[slot] as usize];
        dst[*at * r..(*at + 1) * r].copy_from_slice(tuple);
        *at += 1;
    }
    starts
}

/// The `r`-subsets of `0..s` as ascending index tuples, lexicographic,
/// concatenated.
pub(crate) fn combinations(s: usize, r: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut combo: Vec<usize> = (0..r).collect();
    loop {
        out.extend_from_slice(&combo);
        let Some(i) = (0..r).rev().find(|&i| combo[i] < s - r + i) else {
            return out;
        };
        combo[i] += 1;
        for j in i + 1..r {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::LocalConfig;
    use crate::peel::peel;
    use crate::snd::snd;
    use crate::space::CliqueSpace;
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
    fn clique_enumeration_counts_on_k5() {
        let g = complete(5);
        let counts: Vec<usize> =
            (1..5).map(|r| CachedSpace::from_graph(&g, r, r + 1).num_cliques()).collect();
        assert_eq!(counts, [5, 10, 10, 5]);
        // The one K5 is every K4's only container.
        assert_eq!(CachedSpace::from_graph(&g, 4, 5).initial_degrees(), vec![1; 5]);
        assert_eq!(CachedSpace::from_graph(&g, 4, 6).initial_degrees(), vec![0; 5]);
    }

    #[test]
    fn binom_values() {
        let sizes: Vec<usize> =
            [(4, 2), (5, 3), (3, 3), (5, 1)].map(|(s, r)| combinations(s, r).len() / r).to_vec();
        assert_eq!(sizes, [6, 10, 1, 5]);
        assert_eq!(combinations(4, 2), [0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]);
    }

    #[test]
    fn generic_12_matches_core_semantics() {
        let g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]);
        let sp = CachedSpace::from_graph(&g, 1, 2);
        assert_eq!(sp.num_cliques(), 4);
        assert_eq!(sp.initial_degrees(), vec![2, 2, 3, 1]);
        let mut containers = Vec::new();
        sp.for_each_container(2, |o| containers.push(o.to_vec()));
        containers.sort();
        assert_eq!(containers, vec![vec![0], vec![1], vec![3]]);
    }

    #[test]
    fn generic_23_matches_truss_semantics_on_k4() {
        let g = complete(4);
        let sp = CachedSpace::from_graph(&g, 2, 3);
        assert_eq!(sp.num_cliques(), 6);
        assert_eq!(sp.initial_degrees(), vec![2; 6]);
        // every container has 2 others
        sp.for_each_container(0, |o| assert_eq!(o.len(), 2));
    }

    #[test]
    fn generic_14_exotic_space() {
        // (1,4): vertices scored by K4 participation.
        let g = complete(5);
        let sp = CachedSpace::from_graph(&g, 1, 4);
        // every vertex of K5 is in binom(4,3)=4 K4s
        assert_eq!(sp.initial_degrees(), vec![4; 5]);
        sp.for_each_container(0, |o| assert_eq!(o.len(), 3));
    }

    #[test]
    fn r_clique_vertices_are_sorted() {
        let g = complete(5);
        let sp = CachedSpace::from_graph(&g, 3, 4);
        let tuples: Vec<&[VertexId]> =
            (0..sp.num_cliques()).map(|i| sp.clique_vertices(i)).collect();
        assert!(tuples.iter().all(|vs| vs.windows(2).all(|w| w[0] < w[1])));
        assert!(tuples.windows(2).all(|w| w[0] < w[1]), "lexicographic ids");
    }

    #[test]
    #[should_panic(expected = "requires 0 < r < s")]
    fn rejects_bad_rs() {
        let g = complete(3);
        CachedSpace::from_graph(&g, 2, 2);
    }

    #[test]
    fn degrees_count_vertex_triangles() {
        let g = complete(5);
        let sp = CachedSpace::from_graph(&g, 1, 3);
        // each vertex of K5 is in binom(4,2) = 6 triangles
        assert_eq!(sp.initial_degrees(), vec![6; 5]);
    }

    #[test]
    fn containers_fire_once_per_triangle() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let sp = CachedSpace::from_graph(&g, 1, 3);
        let mut containers = Vec::new();
        sp.for_each_container(2, |others| containers.push(others.to_vec()));
        containers.sort();
        assert_eq!(containers, [[0, 1], [3, 4]], "vertex 2 sits in both triangles of the bowtie");
        assert_eq!(sp.degree(2), 2);
    }

    #[test]
    fn local_algorithms_work_on_13() {
        let g = hdsd_datasets::holme_kim(150, 4, 0.6, 8);
        let sp = CachedSpace::from_graph(&g, 1, 3);
        let exact = peel(&sp).kappa;
        assert_eq!(snd(&sp, &LocalConfig::default()).tau, exact);
        assert_eq!(
            crate::asynchronous::and(&sp, &LocalConfig::default(), &crate::Order::Natural).tau,
            exact
        );
    }

    #[test]
    fn triangle_free_graph_is_all_zero() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let sp = CachedSpace::from_graph(&g, 1, 3);
        assert_eq!(peel(&sp).kappa, vec![0; 4]);
    }
}
