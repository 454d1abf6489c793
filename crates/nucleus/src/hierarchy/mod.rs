//! Nucleus hierarchy: the forest of k-(r,s) nuclei.
//!
//! Every r-clique has its κ index; the **k-(r,s) nuclei** at threshold `k`
//! are the S-connected components of the r-cliques with κ ≥ k, where
//! connectivity passes through s-cliques whose members all have κ ≥ k.
//! Because components only merge as `k` decreases, the nuclei of all
//! thresholds form a forest — the hierarchy in the paper's title (e.g. the
//! topic hierarchy recovered from citation networks in the authors' prior
//! work).
//!
//! Construction processes thresholds in decreasing order with a union–find
//! over r-cliques. The weight of an s-clique is
//! `w(S) = min_{R ⊂ S} κ(R)`: `S` connects its members exactly at
//! thresholds `k ≤ w(S)`. A node is created when a component first appears
//! at a threshold; when components merge at a smaller threshold the old
//! nodes become children of the merged node. Each r-clique `R` is assigned
//! (as an `own_clique`) to the node representing its component at
//! threshold `κ(R)` — the maximal nucleus in which it first participates.
//!
//! The forest is a by-product of one disjoint-set pass (Sarıyüce–Pınar,
//! *Fast Hierarchy Construction for Dense Subgraphs*), and it is built at
//! about the cost of the peel it follows. No list of s-cliques is ever
//! materialised or sorted: the r-cliques are counting-sorted by κ, and the
//! **level walk** of threshold `k` reads the container rows of the κ = `k`
//! cliques only. A container whose other members all have κ ≥ `k` has
//! weight exactly `k`; its smallest-id κ = `k` member writes it into one
//! reused buffer (`binom(s,r)` ids per s-clique), so each s-clique is
//! emitted once, at its weight. The buffer is then unioned (path halving +
//! union by rank). Nodes exist only where the forest has one: a component
//! with no node yet just joins, a node of larger threshold nests directly
//! under the merged node, and two nodes of the *same* threshold merge
//! **smaller into larger**, so a `children`/`own_cliques` entry moves
//! O(log n) times over the whole build however the ids are ordered.
//!
//! Reading a nucleus back ([`Hierarchy::materialize`]) walks its subtree
//! once and sets its cliques' vertices in a bitset of one bit per vertex.
//! The set bits are the sorted vertex set, and the density is counted on
//! the graph itself (marked neighbours of marked vertices): the induced
//! subgraph is never built.

pub mod canonical;
pub mod repair;

pub use canonical::assert_forest_eq;
pub use repair::{repair_hierarchy, RepairStats};

use hdsd_graph::{density_of, CsrGraph, VertexId};

use crate::cancel::{CancelToken, Cancelled};
use crate::space::{others_per_container, CliqueSpace};

/// One nucleus in the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyNode {
    /// The k of this k-(r,s) nucleus.
    pub k: u32,
    /// Parent node (a nucleus with smaller k containing this one).
    pub parent: Option<u32>,
    /// Children (nuclei with larger k nested inside this one).
    pub children: Vec<u32>,
    /// r-cliques with κ = `k` whose component this node represents.
    /// The full member set adds all descendants' members.
    pub own_cliques: Vec<u32>,
    /// Total r-cliques in this nucleus (own + descendants).
    pub size: usize,
}

/// The forest of all k-(r,s) nuclei of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    /// All nuclei. `parent`/`children` links always connect a larger-k
    /// child to a smaller-k parent.
    pub nodes: Vec<HierarchyNode>,
    /// Ids of root nodes (no parent).
    pub roots: Vec<u32>,
    /// The (r, s) of the decomposition.
    pub rs: (usize, usize),
}

impl Hierarchy {
    /// Number of nuclei (nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph had no s-cliques at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All r-cliques of node `id` (own + descendants), sorted.
    pub fn member_cliques(&self, id: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            out.extend_from_slice(&node.own_cliques);
            stack.extend_from_slice(&node.children);
        }
        out.sort_unstable();
        out
    }

    /// Vertex set of node `id`, resolved through the space: the vertex
    /// half of [`Hierarchy::materialize`], sorted and deduplicated.
    pub fn member_vertices<S: CliqueSpace>(&self, id: u32, space: &S) -> Vec<VertexId> {
        self.mark_members(id, space, 0).to_vec()
    }

    /// Density report of node `id`: the density half of
    /// [`Hierarchy::materialize`].
    pub fn node_density<S: CliqueSpace>(
        &self,
        id: u32,
        space: &S,
        graph: &CsrGraph,
    ) -> NucleusDensity {
        let members = self.mark_members(id, space, graph.num_vertices());
        self.density_over(id, &members, graph)
    }

    /// Node `id` materialized in one walk of its subtree: its density
    /// report and its sorted vertex set.
    ///
    /// The walk sets every member clique's vertices in a bitset of one bit
    /// per graph vertex. The set bits, read in order, are the sorted,
    /// deduplicated vertex set, and the induced edges are the marked
    /// neighbours of marked vertices, halved. No clique list, sort or
    /// induced subgraph is built.
    pub fn materialize<S: CliqueSpace>(
        &self,
        id: u32,
        space: &S,
        graph: &CsrGraph,
    ) -> (NucleusDensity, Vec<VertexId>) {
        let members = self.mark_members(id, space, graph.num_vertices());
        (self.density_over(id, &members, graph), members.to_vec())
    }

    /// The vertices of every member clique of node `id` (own cliques of
    /// the node and of all its descendants), as a bitset presized for
    /// `num_vertices` vertices.
    fn mark_members<S: CliqueSpace>(&self, id: u32, space: &S, num_vertices: usize) -> VertexBits {
        let mut members = VertexBits::with_capacity(num_vertices);
        let mut verts = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            for &c in &node.own_cliques {
                verts.clear();
                space.vertices_of(c as usize, &mut verts);
                for &v in &verts {
                    members.insert(v);
                }
            }
            stack.extend_from_slice(&node.children);
        }
        members
    }

    /// Density of node `id` whose vertices are `members`: every induced
    /// edge is seen once from each endpoint.
    fn density_over(&self, id: u32, members: &VertexBits, graph: &CsrGraph) -> NucleusDensity {
        let mut vertices = 0;
        let mut ends = 0;
        for v in members.iter() {
            vertices += 1;
            ends += graph.neighbors(v).iter().filter(|&&w| members.contains(w)).count();
        }
        let edges = ends / 2;
        NucleusDensity {
            k: self.nodes[id as usize].k,
            vertices,
            edges,
            density: density_of(vertices, edges),
        }
    }

    /// Leaves (innermost, densest nuclei).
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].children.is_empty())
            .collect()
    }

    /// Maximum nesting depth of the forest.
    pub fn depth(&self) -> usize {
        fn rec(h: &Hierarchy, id: u32) -> usize {
            1 + h.nodes[id as usize].children.iter().map(|&c| rec(h, c)).max().unwrap_or(0)
        }
        self.roots.iter().map(|&r| rec(self, r)).max().unwrap_or(0)
    }

    /// Nodes at a given threshold `k` — the maximal k-(r,s) nuclei.
    pub fn nuclei_at(&self, k: u32) -> Vec<u32> {
        (0..self.nodes.len() as u32).filter(|&i| self.nodes[i as usize].k == k).collect()
    }

    /// The inverted clique → node index: for each of `num_cliques`
    /// r-cliques, the node whose `own_cliques` contains it (`u32::MAX` for
    /// cliques in no nucleus). This is the index region queries resolve
    /// through; it is also persisted (and integrity-checked) in snapshots.
    pub fn clique_to_node(&self, num_cliques: usize) -> Vec<u32> {
        let mut node_of = vec![u32::MAX; num_cliques];
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.own_cliques {
                node_of[c as usize] = id as u32;
            }
        }
        node_of
    }

    /// Incrementally repairs this forest after an edge batch — see
    /// [`repair_hierarchy`] for the algorithm and the `dirty_seed`
    /// contract. `self` is the forest of the pre-batch graph; the result is
    /// structurally identical (canonical-form equal) to
    /// [`build_hierarchy`] over the post-batch space.
    pub fn repair<S: CliqueSpace>(
        &self,
        space: &S,
        kappa: &[u32],
        new_to_old: &[u32],
        old_num_cliques: usize,
        dirty_seed: &[u32],
    ) -> (Hierarchy, RepairStats) {
        repair_hierarchy(self, space, kappa, new_to_old, old_num_cliques, dirty_seed)
    }
}

/// Density summary of one nucleus, counted on the graph itself: no
/// induced subgraph is built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NucleusDensity {
    /// Nucleus threshold k.
    pub k: u32,
    /// Vertices of the nucleus.
    pub vertices: usize,
    /// Graph edges with both endpoints in the nucleus (the edges of its
    /// induced subgraph).
    pub edges: usize,
    /// `2|E| / (|V| (|V|−1))`; `0.0` when `|V| < 2`.
    pub density: f64,
}

/// A vertex set as one bit per vertex id: the scratch of one
/// materialization, 1/32 the size of a `u32` per vertex.
struct VertexBits(Vec<u64>);

impl VertexBits {
    /// An empty set with room for ids below `num_vertices`; larger ids
    /// grow it.
    fn with_capacity(num_vertices: usize) -> Self {
        VertexBits(vec![0; num_vertices.div_ceil(64)])
    }

    fn insert(&mut self, v: VertexId) {
        let word = v as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (v % 64);
    }

    fn contains(&self, v: VertexId) -> bool {
        self.0.get(v as usize / 64).is_some_and(|&w| w >> (v % 64) & 1 == 1)
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    i as VertexId * 64 + bit
                })
            })
        })
    }

    fn to_vec(&self) -> Vec<VertexId> {
        let len = self.0.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(len);
        out.extend(self.iter());
        out
    }
}

/// Builds the nucleus forest from exact κ indices (from [`crate::peel()`]
/// or a converged local run).
///
/// r-cliques participating in no s-clique are not part of any nucleus and
/// are omitted.
///
/// # Panics
/// Panics when `kappa.len() != space.num_cliques()`.
pub fn build_hierarchy<S: CliqueSpace>(space: &S, kappa: &[u32]) -> Hierarchy {
    build_hierarchy_within(space, kappa, &CancelToken::none())
        .expect("an unarmed token never cancels")
}

/// [`build_hierarchy`] with cooperative cancellation: the token is
/// checked every [`HIERARCHY_CANCEL_CHUNK`] scanned r-cliques and once per
/// union–find threshold batch, so a tripped deadline aborts the build with
/// bounded overshoot instead of running to completion.
///
/// # Panics
/// Panics when `kappa.len() != space.num_cliques()`.
pub fn build_hierarchy_within<S: CliqueSpace>(
    space: &S,
    kappa: &[u32],
    cancel: &CancelToken,
) -> Result<Hierarchy, Cancelled> {
    let n = space.num_cliques();
    assert_eq!(kappa.len(), n, "kappa length must match clique count");
    let mut fb = ForestBuilder::fresh(n);
    fb.level_walk(space, kappa, |_| false, cancel)?;
    Ok(fb.finalize((space.r(), space.s())))
}

/// r-cliques scanned between cancellation checks during the hierarchy's
/// s-clique scan.
pub const HIERARCHY_CANCEL_CHUNK: usize = 4096;

/// `node_of` value of a component that has no node yet.
const NO_NODE: u32 = u32::MAX;
/// `k` of a node absorbed by a same-threshold merge; dropped by
/// [`ForestBuilder::finalize`].
pub(crate) const TOMBSTONE: u32 = u32::MAX;

/// The threshold-descending union–find state shared by [`build_hierarchy`]
/// (which starts from an empty forest) and [`repair_hierarchy`] (which
/// starts pre-seeded with the preserved subtrees of the old forest).
pub(crate) struct ForestBuilder {
    /// Growing node arena; may contain tombstones (`k == TOMBSTONE`).
    pub(crate) nodes: Vec<HierarchyNode>,
    /// Union–find parent over r-cliques (path halving in [`find`]).
    pub(crate) parent: Vec<u32>,
    /// Union–find rank of each component root.
    pub(crate) rank: Vec<u8>,
    /// Component root → current node id ([`NO_NODE`] when none).
    pub(crate) node_of: Vec<u32>,
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Hangs `child` (a node of larger threshold, or [`NO_NODE`]) under `node`.
fn adopt(nodes: &mut [HierarchyNode], node: u32, child: u32) {
    if child != NO_NODE {
        nodes[child as usize].parent = Some(node);
        nodes[node as usize].children.push(child);
    }
}

/// Merges two nodes of one threshold, moving the shorter lists into the
/// longer (so a list entry moves at most log₂ n times over a whole build),
/// and returns the survivor.
fn absorb(nodes: &mut [HierarchyNode], a: u32, b: u32) -> u32 {
    let len = |x: u32| nodes[x as usize].children.len() + nodes[x as usize].own_cliques.len();
    let (winner, loser) = if len(a) >= len(b) { (a, b) } else { (b, a) };
    let mut kids = std::mem::take(&mut nodes[loser as usize].children);
    let mut own = std::mem::take(&mut nodes[loser as usize].own_cliques);
    #[cfg(test)]
    tests::MERGE_MOVES.with(|m| m.set(m.get() + kids.len() + own.len()));
    for &c in &kids {
        nodes[c as usize].parent = Some(winner);
    }
    nodes[winner as usize].children.append(&mut kids);
    nodes[winner as usize].own_cliques.append(&mut own);
    nodes[loser as usize].k = TOMBSTONE;
    winner
}

impl ForestBuilder {
    /// Empty-forest state over `n` r-cliques (the cold-build start).
    pub(crate) fn fresh(n: usize) -> ForestBuilder {
        ForestBuilder {
            nodes: Vec::new(),
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            node_of: vec![NO_NODE; n],
        }
    }

    /// Runs the union–find over every s-clique with a non-`preserved`
    /// member, thresholds descending, creating/merging nodes and assigning
    /// each walked r-clique to its component's node at its own κ. Returns
    /// the number of s-cliques processed.
    ///
    /// The non-preserved r-cliques are counting-sorted by κ; level `k`
    /// scans the container rows of its κ = `k` cliques into one reused
    /// buffer of `group + 1`-member s-cliques, then unions that buffer.
    /// An s-clique of weight `k` always has a walked member with κ = `k`
    /// (for repair, see the module docs of [`repair`]), so none is missed.
    ///
    /// The token is checked every [`HIERARCHY_CANCEL_CHUNK`] scanned
    /// r-cliques and before every threshold's unions.
    pub(crate) fn level_walk<S: CliqueSpace>(
        &mut self,
        space: &S,
        kappa: &[u32],
        preserved: impl Fn(usize) -> bool,
        cancel: &CancelToken,
    ) -> Result<usize, Cancelled> {
        let armed = cancel.is_armed();
        let walked = || (0..kappa.len()).filter(|&i| !preserved(i));
        let Some(max_k) = walked().map(|i| kappa[i] as usize).max() else {
            return Ok(0);
        };
        // Level k is order[bounds[k]..bounds[k + 1]], ids ascending.
        let mut bounds = vec![0usize; max_k + 2];
        for i in walked() {
            bounds[kappa[i] as usize + 1] += 1;
        }
        for k in 0..=max_k {
            bounds[k + 1] += bounds[k];
        }
        let mut order = vec![0u32; bounds[max_k + 1]];
        let mut cursor = bounds.clone();
        for i in walked() {
            let at = &mut cursor[kappa[i] as usize];
            order[*at] = i as u32;
            *at += 1;
        }

        let group = others_per_container(space);
        let mut buf: Vec<u32> = Vec::new(); // this level's s-cliques, group + 1 members each
        let mut pending: Vec<u32> = Vec::new(); // this level's cliques with a weight-k container
        let (mut scanned, mut processed) = (0usize, 0usize);
        for k in (0..=max_k as u32).rev() {
            buf.clear();
            pending.clear();
            for &i in &order[bounds[k as usize]..bounds[k as usize + 1]] {
                if armed && scanned % HIERARCHY_CANCEL_CHUNK == 0 {
                    cancel.check("hierarchy s-clique scan")?;
                }
                scanned += 1;
                let mut at_level = false;
                space.for_each_container(i as usize, |others| {
                    // Weight k iff no other member has a smaller κ; emitted
                    // by the smallest-id walked member with κ = k.
                    let mut emits = true;
                    for &o in others {
                        if kappa[o] < k {
                            return;
                        }
                        emits &= kappa[o] > k || o > i as usize || preserved(o);
                    }
                    at_level = true;
                    if emits {
                        buf.push(i);
                        buf.extend(others.iter().map(|&o| o as u32));
                    }
                });
                if at_level {
                    pending.push(i);
                }
            }
            if buf.is_empty() {
                continue;
            }
            if armed {
                cancel.check("hierarchy union-find")?;
            }
            processed += buf.len() / (group + 1);
            for members in buf.chunks_exact(group + 1) {
                let mut root = find(&mut self.parent, members[0]);
                for &m in &members[1..] {
                    let other = find(&mut self.parent, m);
                    if other != root {
                        root = self.link(root, other, k);
                    }
                }
            }
            // Every emitted s-clique brought in a fresh κ = k member, so
            // its component was linked at this threshold and has a node.
            for &m in &pending {
                let node = self.node_of[find(&mut self.parent, m) as usize];
                debug_assert_ne!(node, NO_NODE);
                self.nodes[node as usize].own_cliques.push(m);
            }
        }
        Ok(processed)
    }

    /// Unions the components rooted at `a` and `b` at threshold `k` and
    /// returns the merged root. The merged component's node at `k` is
    /// whichever side already has one (both: [`absorb`]), else a new node;
    /// a side whose node has a larger threshold nests under it, and a side
    /// with no node just joins.
    fn link(&mut self, a: u32, b: u32, k: u32) -> u32 {
        let nodes = &mut self.nodes;
        let (na, nb) = (self.node_of[a as usize], self.node_of[b as usize]);
        debug_assert!(na == NO_NODE || nodes[na as usize].k >= k, "thresholds descend");
        debug_assert!(nb == NO_NODE || nodes[nb as usize].k >= k, "thresholds descend");
        let at_k = |n: u32| n != NO_NODE && nodes[n as usize].k == k;
        let (a_at_k, b_at_k) = (at_k(na), at_k(nb));
        let node = match (a_at_k, b_at_k) {
            (true, true) => absorb(nodes, na, nb),
            (true, false) => na,
            (false, true) => nb,
            (false, false) => {
                nodes.push(HierarchyNode {
                    k,
                    parent: None,
                    children: Vec::new(),
                    own_cliques: Vec::new(),
                    size: 0,
                });
                nodes.len() as u32 - 1
            }
        };
        if !a_at_k {
            adopt(nodes, node, na);
        }
        if !b_at_k {
            adopt(nodes, node, nb);
        }
        let (root, child) =
            if self.rank[a as usize] >= self.rank[b as usize] { (a, b) } else { (b, a) };
        if self.rank[root as usize] == self.rank[child as usize] {
            self.rank[root as usize] += 1;
        }
        self.parent[child as usize] = root;
        self.node_of[child as usize] = NO_NODE;
        self.node_of[root as usize] = node;
        root
    }

    /// Compacts tombstones, recomputes roots and sizes, and assembles the
    /// final [`Hierarchy`].
    pub(crate) fn finalize(self, rs: (usize, usize)) -> Hierarchy {
        // Compact: drop tombstones and remap ids.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut nodes: Vec<HierarchyNode> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.into_iter().enumerate() {
            if node.k != TOMBSTONE {
                remap[i] = nodes.len() as u32;
                nodes.push(node);
            }
        }
        for node in &mut nodes {
            node.parent = node.parent.map(|p| {
                debug_assert_ne!(remap[p as usize], u32::MAX, "parent is a tombstone");
                remap[p as usize]
            });
            for c in &mut node.children {
                *c = remap[*c as usize];
            }
        }

        let roots: Vec<u32> =
            (0..nodes.len() as u32).filter(|&i| nodes[i as usize].parent.is_none()).collect();

        // Sizes bottom-up (iterative post-order: no recursion depth limit).
        for &r in &roots {
            let mut stack: Vec<(u32, usize)> = vec![(r, 0)];
            while let Some((x, child_at)) = stack.pop() {
                let node = &nodes[x as usize];
                if child_at < node.children.len() {
                    let c = node.children[child_at];
                    stack.push((x, child_at + 1));
                    stack.push((c, 0));
                } else {
                    let s = node.own_cliques.len()
                        + node.children.iter().map(|&c| nodes[c as usize].size).sum::<usize>();
                    nodes[x as usize].size = s;
                }
            }
        }

        Hierarchy { nodes, roots, rs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{CoreSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;

    thread_local! {
        /// List entries (children + own cliques) moved by [`absorb`] on
        /// this thread — the work the size-aware merge bounds.
        pub(super) static MERGE_MOVES: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    /// Builds the forest and returns it with the entries its merges moved.
    fn build_counting_moves<S: CliqueSpace>(space: &S, kappa: &[u32]) -> (Hierarchy, usize) {
        MERGE_MOVES.with(|m| m.set(0));
        let h = build_hierarchy(space, kappa);
        (h, MERGE_MOVES.with(|m| m.get()))
    }

    /// n·(⌈log₂ n⌉ + 1): what smaller-into-larger merging guarantees.
    fn merge_bound(n: usize) -> usize {
        n * (n.next_power_of_two().trailing_zeros() as usize + 1)
    }

    #[test]
    fn merge_work_is_bounded_on_truss() {
        let g = hdsd_datasets::holme_kim(5000, 8, 0.5, 11);
        let sp = TrussSpace::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let (h, moves) = build_counting_moves(&sp, &kappa);
        assert!(h.len() > 1);
        let n = sp.num_cliques();
        assert!(moves <= merge_bound(n), "{moves} entries moved for {n} edges");
    }

    /// One giant 2-core assembled through a hub: spoke `x_j` (ids first)
    /// carries its own K4 (a 3-core child node) and then meets the hub
    /// (largest id), so every hub edge is emitted by a small fresh
    /// component whose partner is the giant. Absorbing the partner into the
    /// emitter's node re-moves the giant's child list on every spoke —
    /// m²/2 entries; smaller-into-larger moves one entry per spoke.
    #[test]
    fn merge_work_is_bounded_on_adversarial_id_order() {
        let m = 1000u32;
        let hub = 5 * m;
        let mut edges = Vec::new();
        for j in 0..m {
            let b = m + 4 * j; // K4 on b..b+4
            for u in 0..4 {
                for v in (u + 1)..4 {
                    edges.push((b + u, b + v));
                }
            }
            edges.push((j, b));
            edges.push((j, hub));
        }
        let g = graph_from_edges(edges);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        assert!((0..m).all(|j| kappa[j as usize] == 2) && kappa[hub as usize] == 2);
        let (h, moves) = build_counting_moves(&sp, &kappa);
        assert_eq!(h.roots.len(), 1, "one giant component");
        assert_eq!(h.nodes[h.roots[0] as usize].children.len(), m as usize);
        let n = sp.num_cliques();
        assert!(moves >= m as usize - 1, "the spokes' nodes must really merge: {moves}");
        assert!(moves <= merge_bound(n), "{moves} entries moved for {n} vertices");
    }

    fn nested_core_graph() -> hdsd_graph::CsrGraph {
        // K5 {0..4} bridged to a 2-core triangle {5,6,7}, tail 8-9.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (5, 6),
            (6, 7),
            (7, 5),
            (0, 5),
            (5, 8),
            (8, 9),
        ])
    }

    #[test]
    fn core_hierarchy_nests_k5() {
        let g = nested_core_graph();
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let densest = h.nuclei_at(4);
        assert_eq!(densest.len(), 1, "exactly one 4-core");
        let verts = h.member_vertices(densest[0], &sp);
        assert_eq!(verts, vec![0, 1, 2, 3, 4]);
        let d = h.node_density(densest[0], &sp, &g);
        assert!((d.density - 1.0).abs() < 1e-12, "K5 density");
        // Parent chain k strictly decreases.
        let mut cur = densest[0];
        while let Some(p) = h.nodes[cur as usize].parent {
            assert!(h.nodes[p as usize].k < h.nodes[cur as usize].k);
            cur = p;
        }
    }

    #[test]
    fn separate_nuclei_merge_only_at_lower_k() {
        // Two K4s joined through a degree-2 connector vertex 8:
        // the 3-cores are separate; the 2-core is the whole graph.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 A
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7), // K4 B
            (3, 8),
            (8, 4), // connector
        ]);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        assert_eq!(kappa[8], 2);
        let h = build_hierarchy(&sp, &kappa);
        let k3 = h.nuclei_at(3);
        assert_eq!(k3.len(), 2, "two disjoint 3-cores");
        let k2 = h.nuclei_at(2);
        assert_eq!(k2.len(), 1, "one 2-core containing everything");
        let root = k2[0];
        assert!(h.roots.contains(&root));
        assert_eq!(h.member_vertices(root, &sp).len(), 9);
        assert_eq!(h.nodes[root as usize].own_cliques, vec![8]);
        // Both 3-cores are children of the 2-core.
        for id in k3 {
            assert_eq!(h.nodes[id as usize].parent, Some(root));
            assert_eq!(h.nodes[id as usize].size, 4);
        }
    }

    #[test]
    fn bridged_double_k4_is_single_3core() {
        // With a direct bridge edge the union *is* one 3-core (every vertex
        // keeps degree ≥ 3), so the hierarchy must report a single nucleus.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (3, 4),
        ]);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        assert!(kappa.iter().all(|&k| k == 3));
        let h = build_hierarchy(&sp, &kappa);
        assert_eq!(h.nuclei_at(3).len(), 1);
        assert_eq!(h.len(), 1);
        assert_eq!(h.nodes[0].size, 8);
    }

    #[test]
    fn paper_fig3b_34_nuclei_not_merged() {
        // The paper's Figure 3: two 1-(3,4) nuclei — K4 {a,b,c,d} and the
        // subgraph on {c,d,e,f,h} (union of K4s cdef and cefh) — share the
        // edge (c,d) but no 4-clique contains triangles from both, so they
        // are reported separately. a=0, b=1, c=2, d=3, e=4, f=5, h=7
        // (g=6 pendant on e).
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 abcd
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5), // K4 cdef
            (4, 6), // pendant g-e
            (2, 7),
            (4, 7),
            (5, 7), // h adjacent to c,e,f => K4 cefh
        ]);
        let sp = Nucleus34Space::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let ones = h.nuclei_at(1);
        assert_eq!(ones.len(), 2, "two separate 1-(3,4) nuclei");
        let mut vertex_sets: Vec<Vec<u32>> =
            ones.iter().map(|&id| h.member_vertices(id, &sp)).collect();
        vertex_sets.sort();
        assert_eq!(vertex_sets[0], vec![0, 1, 2, 3]);
        assert_eq!(vertex_sets[1], vec![2, 3, 4, 5, 7]);
    }

    #[test]
    fn every_positive_kappa_clique_appears_exactly_once() {
        let g = hdsd_datasets::holme_kim(150, 4, 0.6, 3);
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let mut seen = vec![0usize; sp.num_cliques()];
        for n in &h.nodes {
            for &c in &n.own_cliques {
                seen[c as usize] += 1;
            }
        }
        for (i, &s) in seen.iter().enumerate() {
            if sp.degree(i) > 0 {
                assert_eq!(s, 1, "clique {i} appears {s} times");
            } else {
                assert_eq!(s, 0, "isolated clique {i} must not appear");
            }
        }
        let total: usize = h.roots.iter().map(|&r| h.nodes[r as usize].size).sum();
        let expected = (0..sp.num_cliques()).filter(|&i| sp.degree(i) > 0).count();
        assert_eq!(total, expected);
    }

    #[test]
    fn hierarchy_structure_invariants() {
        let g = hdsd_datasets::planted_partition(&[15, 15, 15], 0.6, 0.05, 8);
        for use_truss in [false, true] {
            let (h, n_cliques) = if use_truss {
                let sp = TrussSpace::precomputed(&g);
                let kappa = peel(&sp).kappa;
                (build_hierarchy(&sp, &kappa), sp.num_cliques())
            } else {
                let sp = CoreSpace::new(&g);
                let kappa = peel(&sp).kappa;
                (build_hierarchy(&sp, &kappa), sp.num_cliques())
            };
            let _ = n_cliques;
            for (i, node) in h.nodes.iter().enumerate() {
                assert_ne!(node.k, u32::MAX, "tombstone survived compaction");
                if let Some(p) = node.parent {
                    assert!(h.nodes[p as usize].k < node.k, "node {i}");
                    assert!(h.nodes[p as usize].children.contains(&(i as u32)));
                }
                for &c in &node.children {
                    assert_eq!(h.nodes[c as usize].parent, Some(i as u32));
                }
            }
            // Roots cover all nodes exactly once.
            let mut visited = vec![false; h.len()];
            let mut stack: Vec<u32> = h.roots.clone();
            while let Some(x) = stack.pop() {
                assert!(!visited[x as usize], "cycle or shared child");
                visited[x as usize] = true;
                stack.extend_from_slice(&h.nodes[x as usize].children);
            }
            assert!(visited.iter().all(|&v| v));
        }
    }

    #[test]
    fn densities_increase_toward_leaves() {
        let g = hdsd_datasets::nested_communities(
            8,
            &[
                hdsd_datasets::NestedCommunitySpec { branching: 2, p: 0.25 },
                hdsd_datasets::NestedCommunitySpec { branching: 2, p: 0.9 },
            ],
            0.02,
            17,
        );
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        // Along any root-to-leaf chain, density is (weakly) increasing in
        // most steps; we check the aggregate: max leaf density exceeds the
        // root density.
        let root_d = h.node_density(h.roots[0], &sp, &g).density;
        let best_leaf =
            h.leaves().iter().map(|&l| h.node_density(l, &sp, &g).density).fold(0.0f64, f64::max);
        assert!(best_leaf >= root_d, "leaf density {best_leaf} < root density {root_d}");
    }

    #[test]
    fn empty_graph_hierarchy() {
        let g = graph_from_edges([]);
        let sp = CoreSpace::new(&g);
        let h = build_hierarchy(&sp, &[]);
        assert!(h.is_empty());
        assert_eq!(h.depth(), 0);
    }
}
