//! Flat (CSR) container cache: one-shot materialization of a space's
//! containers into contiguous arrays.
//!
//! Every [`CliqueSpace`] serves containers through a callback walk; for the
//! on-the-fly spaces that walk re-runs adjacency intersections on *every*
//! call, and even the precomputed spaces chase per-triangle indirections.
//! Iterative sweeps (Snd/And) revisit each r-clique many times, so the
//! repeated walks dominate. [`FlatContainers`] pays the walk **once**,
//! packing every container's other-member ids into a CSR layout
//! (`offsets` + `others`); hot sweeps then read straight runs of
//! contiguous `u32`s through the fused ρ-min + h-index kernels of
//! `hdsd-hindex`.
//!
//! The trade is memory: `Σ d_S(R) · (binom(s,r) − 1)` ids. The sweep
//! drivers therefore gate the cache behind a byte budget
//! ([`FlatContainers::build_within`]). Spaces that own their rows already
//! ([`CachedSpace`](super::CachedSpace), whatever its (r, s)) are swept in
//! place and never copied.

use super::CliqueSpace;

/// CSR snapshot of a clique space's containers.
///
/// Container `c` of r-clique `i` occupies
/// `others[(offsets[i] + c) * group .. (offsets[i] + c + 1) * group]`, where
/// `group = binom(s, r) − 1` is the per-container other-member count (1 for
/// cores, 2 for trusses, 3 for the (3,4) nucleus).
#[derive(Clone, Debug)]
pub struct FlatContainers {
    group: usize,
    /// Per-clique container-count prefix sums (container units, length n+1).
    offsets: Vec<usize>,
    /// Packed other-member ids, `group` per container.
    others: Vec<u32>,
}

impl FlatContainers {
    /// Materializes the cache with one full container walk over `space`.
    pub fn build<S: CliqueSpace>(space: &S) -> Self {
        let n = space.num_cliques();
        let group = others_per_container(space);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for i in 0..n {
            total += space.degree(i) as usize;
            offsets.push(total);
        }
        let mut others = vec![0u32; total * group];
        for i in 0..n {
            let mut at = offsets[i] * group;
            space.for_each_container(i, |members| {
                debug_assert_eq!(members.len(), group, "container arity mismatch at clique {i}");
                for &o in members {
                    others[at] = o as u32;
                    at += 1;
                }
            });
            // Hard assert (release builds too): a space whose `degree()`
            // disagrees with its container walk would otherwise silently
            // pack garbage into neighboring cliques' slots, and every
            // sweep over the cache would return wrong κ values.
            assert_eq!(at, offsets[i + 1] * group, "degree() disagrees with container walk at {i}");
        }
        FlatContainers { group, offsets, others }
    }

    /// Assembles the cache from rows built elsewhere: `offsets` are the
    /// per-clique container-count prefix sums and `others` the packed
    /// other-member ids, `group` per container.
    pub(crate) fn from_rows(group: usize, offsets: Vec<usize>, others: Vec<u32>) -> Self {
        debug_assert_eq!(others.len(), offsets.last().copied().unwrap_or(0) * group);
        FlatContainers { group, offsets, others }
    }

    /// Builds the cache only when its estimated footprint fits `budget`
    /// bytes.
    pub fn build_within<S: CliqueSpace>(space: &S, budget: usize) -> Option<Self> {
        if Self::estimate_bytes(space) > budget {
            return None;
        }
        Some(Self::build(space))
    }

    /// Estimated heap bytes of the cache for `space`, computable without
    /// building it (one degree scan, no container walks).
    pub fn estimate_bytes<S: CliqueSpace>(space: &S) -> usize {
        let n = space.num_cliques();
        let group = others_per_container(space);
        let total: usize = (0..n).map(|i| space.degree(i) as usize).sum();
        total * group * std::mem::size_of::<u32>() + (n + 1) * std::mem::size_of::<usize>()
    }

    /// Actual heap bytes held by this cache.
    pub fn heap_bytes(&self) -> usize {
        self.others.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Number of r-cliques.
    #[inline]
    pub fn num_cliques(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Other-member ids per container (`binom(s, r) − 1`).
    #[inline]
    pub fn group(&self) -> usize {
        self.group
    }

    /// Container count (S-degree) of r-clique `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> u32 {
        (self.offsets[i + 1] - self.offsets[i]) as u32
    }

    /// The packed other-member ids of all of `i`'s containers: a slice of
    /// length `degree(i) * group`, consecutive `group`-chunks being
    /// containers. This is the input shape of
    /// [`hdsd_hindex::HBuffer::fused_rho_h`].
    #[inline]
    pub fn containers(&self, i: usize) -> &[u32] {
        &self.others[self.offsets[i] * self.group..self.offsets[i + 1] * self.group]
    }

    /// Splices this cache into the container cache of an updated space,
    /// reusing every untouched row instead of re-enumerating containers.
    ///
    /// * `new_n` — r-clique count of the updated space;
    /// * `new_to_old[i]` — the old id of new clique `i`, `u32::MAX` when
    ///   the clique was created by the update;
    /// * `member_remap[o]` — the new id of old member id `o` (`u32::MAX`
    ///   when that clique is gone; kept rows must never reference one —
    ///   a container that lost a member is a changed container and its
    ///   surviving members' rows must be marked `touched`);
    /// * `touched[i]` — new ids whose container set changed; their rows
    ///   (and those of created cliques) are re-derived through
    ///   `rebuild_row`, which appends whole containers (`group` members
    ///   per container) for the given new clique id.
    ///
    /// Kept rows cost one copy-and-remap pass; only the perturbed rows go
    /// back through enumeration.
    pub fn splice<F: FnMut(usize, &mut Vec<u32>)>(
        &self,
        new_n: usize,
        new_to_old: &[u32],
        member_remap: &[u32],
        touched: &[bool],
        mut rebuild_row: F,
    ) -> FlatContainers {
        assert_eq!(new_to_old.len(), new_n);
        assert_eq!(touched.len(), new_n);
        let group = self.group.max(1);

        // Re-derive the perturbed rows once, up front, so offsets can be
        // laid out in a single pass.
        let mut patch_data: Vec<u32> = Vec::new();
        let mut patch_row: Vec<(u32, u32)> = Vec::new(); // (start unit, units) per patched row
        let mut offsets = Vec::with_capacity(new_n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for i in 0..new_n {
            let old = new_to_old[i];
            let units = if old != u32::MAX && !touched[i] {
                self.degree(old as usize) as usize
            } else {
                let start = patch_data.len();
                rebuild_row(i, &mut patch_data);
                debug_assert_eq!((patch_data.len() - start) % group, 0);
                let units = (patch_data.len() - start) / group;
                patch_row.push(((start / group) as u32, units as u32));
                units
            };
            total += units;
            offsets.push(total);
        }

        let mut others = vec![0u32; total * self.group];
        let mut patched = patch_row.iter();
        for i in 0..new_n {
            let dst = &mut others[offsets[i] * self.group..offsets[i + 1] * self.group];
            let old = new_to_old[i];
            if old != u32::MAX && !touched[i] {
                for (slot, &o) in dst.iter_mut().zip(self.containers(old as usize)) {
                    let mapped = member_remap[o as usize];
                    debug_assert_ne!(mapped, u32::MAX, "kept row {i} references a removed member");
                    *slot = mapped;
                }
            } else {
                let &(start, units) = patched.next().expect("patched row accounted for");
                let src = start as usize * group;
                dst.copy_from_slice(&patch_data[src..src + units as usize * group]);
            }
        }
        FlatContainers { group: self.group, offsets, others }
    }
}

/// `binom(s, r) − 1`: the number of *other* r-cliques in each s-clique of
/// the space.
pub fn others_per_container<S: CliqueSpace + ?Sized>(space: &S) -> usize {
    binom(space.s(), space.r()) - 1
}

fn binom(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut out = 1usize;
    for i in 0..k {
        out = out * (n - i) / (i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{CachedSpace, CoreSpace, Nucleus34Space, TrussSpace};
    use super::*;
    use hdsd_graph::graph_from_edges;

    fn two_k4s() -> hdsd_graph::CsrGraph {
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

    fn assert_matches_walk<S: CliqueSpace>(space: &S) {
        let flat = FlatContainers::build(space);
        let group = others_per_container(space);
        assert_eq!(flat.group(), group);
        assert_eq!(flat.num_cliques(), space.num_cliques());
        for i in 0..space.num_cliques() {
            assert_eq!(flat.degree(i), space.degree(i), "degree of {i}");
            let mut walked: Vec<Vec<u32>> = Vec::new();
            space.for_each_container(i, |o| {
                let mut c: Vec<u32> = o.iter().map(|&x| x as u32).collect();
                c.sort_unstable();
                walked.push(c);
            });
            walked.sort();
            let mut cached: Vec<Vec<u32>> = flat
                .containers(i)
                .chunks_exact(group.max(1))
                .map(|c| {
                    let mut v = c.to_vec();
                    v.sort_unstable();
                    v
                })
                .collect();
            cached.sort();
            assert_eq!(cached, walked, "containers of {i} in {}", space.name());
        }
        assert_eq!(flat.heap_bytes(), FlatContainers::estimate_bytes(space));
    }

    #[test]
    fn flat_cache_matches_walk_on_all_spaces() {
        let g = two_k4s();
        assert_matches_walk(&CoreSpace::new(&g));
        assert_matches_walk(&TrussSpace::precomputed(&g));
        assert_matches_walk(&TrussSpace::on_the_fly(&g));
        assert_matches_walk(&Nucleus34Space::precomputed(&g));
        assert_matches_walk(&Nucleus34Space::on_the_fly(&g));
        let tl = hdsd_graph::TriangleList::build(&g);
        assert_matches_walk(&Nucleus34Space::with_triangles(&g, &tl));
        assert_matches_walk(&CachedSpace::from_graph(&g, 1, 3));
        assert_matches_walk(&CachedSpace::from_graph(&g, 2, 4));
    }

    #[test]
    fn budget_gates_construction() {
        let g = two_k4s();
        let sp = TrussSpace::precomputed(&g);
        let need = FlatContainers::estimate_bytes(&sp);
        assert!(FlatContainers::build_within(&sp, need).is_some());
        assert!(FlatContainers::build_within(&sp, need - 1).is_none());
    }

    #[test]
    fn group_arity_by_space() {
        let g = two_k4s();
        assert_eq!(others_per_container(&CoreSpace::new(&g)), 1);
        assert_eq!(others_per_container(&TrussSpace::precomputed(&g)), 2);
        assert_eq!(others_per_container(&Nucleus34Space::precomputed(&g)), 3);
        assert_eq!(others_per_container(&CachedSpace::from_graph(&g, 1, 3)), 2);
        assert_eq!(others_per_container(&CachedSpace::from_graph(&g, 2, 4)), 5);
    }
}
