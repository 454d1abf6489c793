//! An (r, s) clique space by definition, independent of every builder in
//! the library: the oracle the generic builder
//! ([`hdsd_nucleus::CachedSpace::from_graph`]) is checked against. Shared
//! by `hierarchy_repair_properties` and the facade's
//! `cross_algorithm_agreement`.
#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use hdsd_graph::{CsrGraph, VertexId};
use hdsd_nucleus::CliqueSpace;

/// The (r, s) space of a graph on at most 16 vertices, found by testing
/// every vertex subset with `has_edge`. r-cliques are numbered in
/// lexicographic order of their sorted vertices.
pub struct BruteSpace {
    r: usize,
    s: usize,
    cliques: Vec<Vec<VertexId>>,
    /// Per r-clique, the other members of each of its s-cliques.
    rows: Vec<Vec<Vec<usize>>>,
}

impl BruteSpace {
    pub fn new(g: &CsrGraph, r: usize, s: usize) -> Self {
        let n = g.num_vertices();
        assert!(n <= 16, "brute force covers at most 16 vertices, got {n}");
        let members =
            |mask: u32| -> Vec<VertexId> { (0..n as u32).filter(|v| mask >> v & 1 == 1).collect() };
        let is_clique = |vs: &[VertexId]| {
            vs.iter().enumerate().all(|(i, &a)| vs[i + 1..].iter().all(|&b| g.has_edge(a, b)))
        };
        let subsets = |size: usize| {
            (0u32..1 << n)
                .filter(move |m| m.count_ones() as usize == size)
                .map(members)
                .filter(|vs| is_clique(vs))
        };
        let mut cliques: Vec<Vec<VertexId>> = subsets(r).collect();
        cliques.sort();
        let ids: BTreeMap<&[VertexId], usize> =
            cliques.iter().enumerate().map(|(i, vs)| (&vs[..], i)).collect();
        let mut rows = vec![Vec::new(); cliques.len()];
        for big in subsets(s) {
            // The r-subsets of `big`, through bitmasks over its positions.
            let inside: Vec<usize> = (0u32..1 << s)
                .filter(|m| m.count_ones() as usize == r)
                .map(|m| {
                    let vs: Vec<VertexId> =
                        (0..s).filter(|&i| m >> i & 1 == 1).map(|i| big[i]).collect();
                    ids[&vs[..]]
                })
                .collect();
            for &id in &inside {
                rows[id].push(inside.iter().copied().filter(|&o| o != id).collect());
            }
        }
        BruteSpace { r, s, cliques, rows }
    }

    /// The sorted vertices of r-clique `i`.
    pub fn clique(&self, i: usize) -> &[VertexId] {
        &self.cliques[i]
    }
}

/// The containers of r-clique `i` of `space`, each sorted, as a sorted
/// list: a row compared as a multiset.
pub fn sorted_row<S: CliqueSpace>(space: &S, i: usize) -> Vec<Vec<usize>> {
    let mut row = Vec::new();
    space.for_each_container(i, |others| {
        let mut c = others.to_vec();
        c.sort_unstable();
        row.push(c);
    });
    row.sort();
    row
}

impl CliqueSpace for BruteSpace {
    fn num_cliques(&self) -> usize {
        self.cliques.len()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        self.rows.iter().map(|row| row.len() as u32).collect()
    }

    fn degree(&self, i: usize) -> u32 {
        self.rows[i].len() as u32
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> ControlFlow<()>>(
        &self,
        i: usize,
        mut f: F,
    ) -> ControlFlow<()> {
        for others in &self.rows[i] {
            f(others)?;
        }
        ControlFlow::Continue(())
    }

    fn r(&self) -> usize {
        self.r
    }

    fn s(&self) -> usize {
        self.s
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>) {
        out.extend_from_slice(&self.cliques[i]);
    }
}
