//! An owned, graph-independent snapshot of a clique space.
//!
//! Every other [`CliqueSpace`] implementation borrows the
//! [`CsrGraph`](hdsd_graph::CsrGraph) it
//! was built from, which makes it impossible for a long-lived owner (e.g.
//! the `hdsd-service` engine) to keep a graph *and* its spaces in one
//! struct. [`CachedSpace`] breaks the borrow: it materializes the
//! containers into a [`FlatContainers`] CSR plus the per-clique vertex
//! lists, and serves the full [`CliqueSpace`] interface from those owned
//! arrays. Clique ids are identical to the source space's, so κ vectors,
//! hierarchies and query results computed against either are
//! interchangeable. Every (r, s) without a specialized space is built
//! straight into this form by [`CachedSpace::from_graph`].

use hdsd_graph::VertexId;

use super::{CliqueSpace, FlatContainers, MAX_OTHERS_INLINE};

/// Owned snapshot of a clique space: flat containers + clique vertex lists.
#[derive(Clone, Debug)]
pub struct CachedSpace {
    rs: (usize, usize),
    name: String,
    flat: FlatContainers,
    /// `r` vertex ids per clique, concatenated.
    clique_verts: Vec<VertexId>,
}

impl CachedSpace {
    /// Materializes `space` into an owned snapshot (one full container
    /// walk, like [`FlatContainers::build`], plus one `vertices_of` pass).
    pub fn build<S: CliqueSpace>(space: &S) -> Self {
        let flat = FlatContainers::build(space);
        let r = space.r();
        let n = space.num_cliques();
        let mut clique_verts = Vec::with_capacity(n * r);
        let mut buf = Vec::with_capacity(r);
        for i in 0..n {
            buf.clear();
            space.vertices_of(i, &mut buf);
            debug_assert_eq!(buf.len(), r, "vertices_of arity mismatch at clique {i}");
            clique_verts.extend_from_slice(&buf);
        }
        CachedSpace { rs: (r, space.s()), name: space.name(), flat, clique_verts }
    }

    /// Assembles a snapshot from already-materialized parts: the flat
    /// container arrays plus the concatenated `r`-vertex lists. Used by the
    /// incremental splice path (`crate::delta`), which patches the flat
    /// arrays of an existing snapshot instead of walking a space, and by
    /// the generic builder ([`CachedSpace::from_graph`]).
    pub(crate) fn from_parts(
        rs: (usize, usize),
        name: String,
        flat: FlatContainers,
        clique_verts: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(clique_verts.len(), flat.num_cliques() * rs.0);
        CachedSpace { rs, name, flat, clique_verts }
    }

    /// The underlying flat container arrays.
    pub fn flat(&self) -> &FlatContainers {
        &self.flat
    }

    /// [`CliqueSpace::try_for_each_container`] for containers wider than
    /// [`MAX_OTHERS_INLINE`], through one heap buffer.
    #[cold]
    fn try_for_each_wide_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        let mut others = vec![0usize; self.flat.group()];
        for chunk in self.flat.containers(i).chunks_exact(others.len()) {
            for (slot, &o) in others.iter_mut().zip(chunk) {
                *slot = o as usize;
            }
            f(&others)?;
        }
        std::ops::ControlFlow::Continue(())
    }

    /// The `r` vertices of clique `i` as a slice (no allocation).
    pub fn clique_vertices(&self, i: usize) -> &[VertexId] {
        let r = self.rs.0;
        &self.clique_verts[i * r..(i + 1) * r]
    }

    /// The id of the r-clique with sorted vertices `tuple`, `None` when
    /// it is not one. Ids are lexicographic by sorted vertex tuple, as
    /// every builder numbers them, so this is a binary search.
    pub fn clique_id(&self, tuple: &[VertexId]) -> Option<usize> {
        find_tuple(&self.clique_verts, self.rs.0, tuple)
    }

    /// Heap bytes held by the snapshot.
    pub fn heap_bytes(&self) -> usize {
        self.flat.heap_bytes() + self.clique_verts.len() * std::mem::size_of::<VertexId>()
    }
}

/// The position of `tuple` in `verts`, a lexicographically sorted list
/// of `r`-tuples, concatenated: the one r-clique lookup of the builder,
/// the splice and [`CachedSpace::clique_id`].
pub(crate) fn find_tuple(verts: &[VertexId], r: usize, tuple: &[VertexId]) -> Option<usize> {
    if tuple.len() != r {
        return None;
    }
    let (mut lo, mut hi) = (0, verts.len() / r);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match verts[mid * r..(mid + 1) * r].cmp(tuple) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    None
}

impl CliqueSpace for CachedSpace {
    fn num_cliques(&self) -> usize {
        self.flat.num_cliques()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        (0..self.flat.num_cliques()).map(|i| self.flat.degree(i)).collect()
    }

    fn degree(&self, i: usize) -> u32 {
        self.flat.degree(i)
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> std::ops::ControlFlow<()> {
        let group = self.flat.group();
        if group > MAX_OTHERS_INLINE {
            return self.try_for_each_wide_container(i, f);
        }
        let mut others = [0usize; MAX_OTHERS_INLINE];
        for chunk in self.flat.containers(i).chunks_exact(group.max(1)) {
            for (slot, &o) in others.iter_mut().zip(chunk) {
                *slot = o as usize;
            }
            f(&others[..group])?;
        }
        std::ops::ControlFlow::Continue(())
    }

    fn r(&self) -> usize {
        self.rs.0
    }

    fn s(&self) -> usize {
        self.rs.1
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>) {
        out.extend_from_slice(self.clique_vertices(i));
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    /// The resident container arrays: the exact path peels these directly.
    fn as_flat(&self) -> Option<&FlatContainers> {
        Some(&self.flat)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CoreSpace, Nucleus34Space, TrussSpace};
    use super::*;
    use crate::peel::peel;
    use hdsd_graph::graph_from_edges;

    fn sample() -> hdsd_graph::CsrGraph {
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

    fn sorted_containers<S: CliqueSpace>(space: &S, i: usize) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = Vec::new();
        space.for_each_container(i, |o| {
            let mut c = o.to_vec();
            c.sort_unstable();
            v.push(c);
        });
        v.sort();
        v
    }

    fn assert_equivalent<S: CliqueSpace>(space: &S) {
        let cached = CachedSpace::build(space);
        assert_eq!(cached.num_cliques(), space.num_cliques());
        assert_eq!(cached.r(), space.r());
        assert_eq!(cached.s(), space.s());
        assert_eq!(cached.initial_degrees(), space.initial_degrees());
        for i in 0..space.num_cliques() {
            assert_eq!(
                sorted_containers(space, i),
                sorted_containers(&cached, i),
                "containers of clique {i}"
            );
            let mut a = Vec::new();
            let mut b = Vec::new();
            space.vertices_of(i, &mut a);
            cached.vertices_of(i, &mut b);
            assert_eq!(a, b, "vertices of clique {i}");
        }
        // κ computed on the snapshot is bit-identical to the source space.
        assert_eq!(peel(&cached).kappa, peel(space).kappa);
    }

    #[test]
    fn cached_space_is_equivalent_to_source() {
        let g = sample();
        assert_equivalent(&CoreSpace::new(&g));
        assert_equivalent(&TrussSpace::precomputed(&g));
        assert_equivalent(&TrussSpace::on_the_fly(&g));
        assert_equivalent(&Nucleus34Space::precomputed(&g));
        assert_equivalent(&Nucleus34Space::on_the_fly(&g));
        let tl = hdsd_graph::TriangleList::build(&g);
        assert_equivalent(&Nucleus34Space::with_triangles(&g, &tl));
        // Five other edges per K4: wider than the inline buffer.
        assert_equivalent(&CachedSpace::from_graph(&g, 2, 4));
    }

    #[test]
    fn cached_space_opts_out_of_double_caching() {
        // The kernels sweep resident rows in place: no budget builds a copy.
        let g = sample();
        let cached = CachedSpace::build(&TrussSpace::precomputed(&g));
        for budget in [usize::MAX, 0] {
            let rows = crate::space::resolve_rows(&cached, Some(budget));
            assert!(
                matches!(rows, Some(std::borrow::Cow::Borrowed(r)) if std::ptr::eq(r, cached.flat()))
            );
        }
        assert!(cached.heap_bytes() > 0);
    }
}
