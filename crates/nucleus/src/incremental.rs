//! Incremental maintenance of κ indices under edge updates — generic over
//! the clique space.
//!
//! An update never re-enumerates anything: the CSR, the triangle substrate
//! and each space's flat container rows are **spliced** across the batch
//! ([`hdsd_graph::apply_edge_batch`], [`SpaceKind::apply_delta`]), so the
//! new graph's rows are resident the moment the splice returns. κ is then
//! refreshed by [`refresh_kappa`]: one sequential bucket-queue peel of
//! those rows. The paper's Theorem 4 is why that is the right local
//! algorithm here — And converges in a single pass when r-cliques are
//! visited in non-decreasing κ order, and that pass *is* the peel — so the
//! refresh costs one visit per clique and is exact by construction.
//! (A candidate-lifted And resume lived here until PR 21: it visited
//! cliques in lifted-τ order instead, and paid ≈ 2n recomputations plus an
//! all-n certification sweep to move κ on a few dozen cliques.)
//!
//! r-clique **ids are not stable** across batches (edge and triangle ids
//! are positional), so everything an update hands to its consumers is in
//! new ids with the new-id → old-id remap beside it
//! ([`SpaceDelta::new_to_old`]). The one set a forest repair needs —
//! the surviving cliques whose container set changed — is a by-product of
//! the splice ([`SpaceDelta::touched`]) and is reported, not recomputed.

use std::marker::PhantomData;

use hdsd_graph::{CsrDelta, CsrGraph, GraphBuilder, TriangleList, VertexId};

use crate::cancel::{CancelToken, Cancelled};
use crate::delta::SpaceDelta;
use crate::peel::{PeelEngine, PeelResult};
use crate::space::{CachedSpace, CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};

/// The κ refresh of the update path, shared by [`Incremental`] and the
/// `hdsd-service` engine: an exact bucket-queue peel of the
/// already-spliced resident rows ([`PeelEngine::peel_under`]).
///
/// `cancel` is probed as the peel's `"peel drain"` stage, every
/// [`crate::PEEL_CANCEL_CHUNK`] items. On `Err` nothing has been
/// published; callers keep serving the stale decomposition.
pub fn refresh_kappa(spliced: &CachedSpace, cancel: &CancelToken) -> Result<PeelResult, Cancelled> {
    hdsd_telemetry::span!("refresh.peel");
    PeelEngine::new().peel_under(spliced.flat(), cancel).map_err(|p| p.cancelled)
}

/// Applies a batch of insertions and removals to `graph`, returning the new
/// graph and the number of edges actually inserted (duplicates, self-loops
/// and absent removals are ignored). Vertex ids are preserved; the vertex
/// set grows to cover inserted endpoints.
pub fn rebuild_graph(
    graph: &CsrGraph,
    insert: &[(VertexId, VertexId)],
    remove: &[(VertexId, VertexId)],
) -> (CsrGraph, u32) {
    let drop: std::collections::HashSet<(u32, u32)> =
        remove.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    let new_n = insert
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(graph.num_vertices());
    let mut b =
        GraphBuilder::with_capacity(graph.num_edges() + insert.len()).with_num_vertices(new_n);
    let mut kept = 0usize;
    for &(u, v) in graph.edges() {
        if !drop.contains(&(u, v)) {
            b.add_edge(u, v);
            kept += 1;
        }
    }
    for &(u, v) in insert {
        b.add_edge(u, v);
    }
    let new_graph = b.build();
    let inserted = new_graph.num_edges().saturating_sub(kept) as u32;
    (new_graph, inserted)
}

/// A family of clique spaces constructible from any graph — the hook that
/// lets [`Incremental`] (and the `hdsd-service` engine) rebuild its space
/// after every batch without being tied to one decomposition.
///
/// Beyond the cold build, a kind describes how to *maintain* itself across
/// an edge batch: it owns a [`SpaceKind::Substrate`] (e.g. the triangle
/// list) and splices its [`CachedSpace`] through
/// [`SpaceKind::apply_delta`], so updates never re-enumerate the clique
/// universe.
pub trait SpaceKind: 'static {
    /// The space this kind builds.
    type Space<'g>: CliqueSpace;
    /// Clique substrate kept resident across updates (`()` for the core
    /// space, the maintained [`TriangleList`] for truss and (3,4)).
    type Substrate: Send + Sync + 'static;
    /// Short name for telemetry ("core", "truss", "nucleus34").
    const NAME: &'static str;
    /// Builds the space over `graph`.
    fn build(graph: &CsrGraph) -> Self::Space<'_>;
    /// Builds the substrate for a fresh graph (cold enumeration).
    fn init_substrate(graph: &CsrGraph) -> Self::Substrate;
    /// Materializes the owned snapshot from a graph plus its substrate.
    fn build_cached(graph: &CsrGraph, substrate: &Self::Substrate) -> CachedSpace;
    /// Splices `old_cached` across the batch `ed` (which turned
    /// `old_graph` into `new_graph`), updating the substrate in place and
    /// returning the new snapshot with its clique-id remap.
    fn apply_delta(
        substrate: &mut Self::Substrate,
        old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta;
}

/// The (1,2) k-core kind: r-cliques are vertices, ids are stable.
pub enum CoreKind {}

impl SpaceKind for CoreKind {
    type Space<'g> = CoreSpace<'g>;
    type Substrate = ();
    const NAME: &'static str = "core";
    fn build(graph: &CsrGraph) -> CoreSpace<'_> {
        CoreSpace::new(graph)
    }
    fn init_substrate(_graph: &CsrGraph) -> Self::Substrate {}
    fn build_cached(graph: &CsrGraph, _substrate: &Self::Substrate) -> CachedSpace {
        CachedSpace::build(&CoreSpace::new(graph))
    }
    fn apply_delta(
        _substrate: &mut Self::Substrate,
        _old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta {
        crate::delta::core_space_delta(old_graph, new_graph, ed)
    }
}

/// The (2,3) k-truss kind: r-cliques are edges.
pub enum TrussKind {}

impl SpaceKind for TrussKind {
    type Space<'g> = TrussSpace<'g>;
    type Substrate = TriangleList;
    const NAME: &'static str = "truss";
    fn build(graph: &CsrGraph) -> TrussSpace<'_> {
        TrussSpace::on_the_fly(graph)
    }
    fn init_substrate(graph: &CsrGraph) -> TriangleList {
        TriangleList::build(graph)
    }
    fn build_cached(graph: &CsrGraph, substrate: &TriangleList) -> CachedSpace {
        CachedSpace::build(&TrussSpace::with_triangles(graph, substrate))
    }
    fn apply_delta(
        substrate: &mut TriangleList,
        old_cached: &CachedSpace,
        _old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta {
        let td = hdsd_graph::triangle_delta(substrate, new_graph, ed);
        let out = crate::delta::truss_space_delta(old_cached, substrate, new_graph, ed, &td);
        *substrate = td.list;
        out
    }
}

/// The (3,4) nucleus kind: r-cliques are triangles.
pub enum Nucleus34Kind {}

impl SpaceKind for Nucleus34Kind {
    type Space<'g> = Nucleus34Space<'g>;
    type Substrate = TriangleList;
    const NAME: &'static str = "nucleus34";
    fn build(graph: &CsrGraph) -> Nucleus34Space<'_> {
        Nucleus34Space::on_the_fly(graph)
    }
    fn init_substrate(graph: &CsrGraph) -> TriangleList {
        TriangleList::build(graph)
    }
    fn build_cached(graph: &CsrGraph, substrate: &TriangleList) -> CachedSpace {
        CachedSpace::build(&Nucleus34Space::with_triangles(graph, substrate))
    }
    fn apply_delta(
        substrate: &mut TriangleList,
        old_cached: &CachedSpace,
        old_graph: &CsrGraph,
        new_graph: &CsrGraph,
        ed: &CsrDelta,
    ) -> SpaceDelta {
        let td = hdsd_graph::triangle_delta(substrate, new_graph, ed);
        let out = crate::delta::nucleus34_space_delta(
            old_cached, old_graph, substrate, new_graph, ed, &td,
        );
        *substrate = td.list;
        out
    }
}

/// Dynamically maintained decomposition of one space kind.
///
/// Owns the graph, the kind's clique substrate, and the space snapshot;
/// [`Incremental::insert_edges`] and [`Incremental::remove_edges`] apply a
/// batch by **splicing** all three ([`hdsd_graph::apply_edge_batch`] plus
/// [`SpaceKind::apply_delta`]) and refresh κ by peeling the spliced rows
/// ([`refresh_kappa`]) — no graph rebuild, no global triangle/K4 recount,
/// no identity hashing.
/// `Incremental<CoreKind>` is the historical [`IncrementalCore`];
/// `Incremental<TrussKind>` and `Incremental<Nucleus34Kind>` maintain
/// truss and (3,4)-nucleus indices the same way.
pub struct Incremental<K: SpaceKind> {
    graph: CsrGraph,
    substrate: K::Substrate,
    cached: CachedSpace,
    kappa: Vec<u32>,
    _kind: PhantomData<K>,
}

/// Dynamically maintained core decomposition (the original API).
pub type IncrementalCore = Incremental<CoreKind>;

impl<K: SpaceKind> Incremental<K> {
    /// Builds the initial decomposition (a full peel).
    pub fn new(graph: CsrGraph) -> Self {
        let substrate = K::init_substrate(&graph);
        let cached = K::build_cached(&graph, &substrate);
        // The same peel every later batch runs over its spliced rows.
        let kappa = refresh_kappa(&cached, &CancelToken::none())
            .expect("an unarmed token never cancels")
            .kappa;
        Incremental { graph, substrate, cached, kappa, _kind: PhantomData }
    }

    /// Current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Current exact κ indices (ids follow the current graph's space).
    pub fn kappa(&self) -> &[u32] {
        &self.kappa
    }

    /// The resident space snapshot the κ ids refer to.
    pub fn cached(&self) -> &CachedSpace {
        &self.cached
    }

    /// Inserts a batch of edges (duplicates and self-loops ignored) and
    /// refreshes κ. Returns the number of surviving cliques whose
    /// container set the batch changed ([`BatchOutcome::touched`]).
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        self.update_edges(edges, &[])
    }

    /// Removes a batch of edges (absent edges ignored) and refreshes κ.
    /// Returns the number of surviving cliques whose container set the
    /// batch changed.
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        self.update_edges(&[], edges)
    }

    /// Applies a mixed batch in one splice + one peel of the spliced rows.
    /// Returns the number of surviving cliques whose container set the
    /// batch changed.
    pub fn update_edges(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> usize {
        self.update_edges_outcome(insert, remove).touched.len()
    }

    /// [`Incremental::update_edges`] returning the full batch outcome: the
    /// clique-id remap and the touched set the splice already computes —
    /// everything [`Hierarchy::repair`] needs to repair a forest of the
    /// pre-batch graph instead of rebuilding it.
    ///
    /// A batch that changes neither the edge set nor the vertex count
    /// returns early: no splice, no peel, the identity remap.
    ///
    /// [`Hierarchy::repair`]: crate::hierarchy::Hierarchy::repair
    pub fn update_edges_outcome(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> BatchOutcome {
        let (new_graph, ed) = hdsd_graph::apply_edge_batch(&self.graph, insert, remove);
        let old_num_cliques = self.cached.num_cliques();
        // An insert naming a vertex beyond the current set grows the vertex
        // set even when its edge is dropped, so that is not a no-op.
        if ed.is_noop() && new_graph.num_vertices() == self.graph.num_vertices() {
            return BatchOutcome {
                old_num_cliques,
                new_to_old: (0..old_num_cliques as u32).collect(),
                touched: Vec::new(),
            };
        }
        let sd = K::apply_delta(&mut self.substrate, &self.cached, &self.graph, &new_graph, &ed);
        let peeled = refresh_kappa(&sd.cached, &CancelToken::none())
            .expect("an unarmed token never cancels");
        self.graph = new_graph;
        self.cached = sd.cached;
        self.kappa = peeled.kappa;
        BatchOutcome { old_num_cliques, new_to_old: sd.new_to_old, touched: sd.touched }
    }
}

/// What one [`Incremental::update_edges_outcome`] batch did — the inputs a
/// hierarchy repair needs, reported instead of recomputed.
pub struct BatchOutcome {
    /// Clique count of the pre-batch space.
    pub old_num_cliques: usize,
    /// New clique id → old clique id ([`hdsd_graph::NO_ID`] for created).
    pub new_to_old: Vec<u32>,
    /// Surviving new clique ids whose container set the batch changed
    /// ([`SpaceDelta::touched`]) — the `dirty_seed` of
    /// [`crate::hierarchy::repair_hierarchy`].
    pub touched: Vec<u32>,
}

impl Incremental<CoreKind> {
    /// Current exact core numbers (alias of [`Incremental::kappa`] kept for
    /// the original `IncrementalCore` API).
    pub fn core_numbers(&self) -> &[u32] {
        &self.kappa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::core_numbers;
    use crate::peel::peel;

    fn check_exact(inc: &IncrementalCore) {
        assert_eq!(inc.core_numbers(), core_numbers(inc.graph()).as_slice());
    }

    fn check_exact_kind<K: SpaceKind>(inc: &Incremental<K>) {
        let space = K::build(inc.graph());
        assert_eq!(inc.kappa(), peel(&space).kappa.as_slice(), "{} diverged", K::NAME);
    }

    #[test]
    fn insertions_match_from_scratch() {
        let g = hdsd_datasets::erdos_renyi_gnm(100, 300, 7);
        let mut inc = IncrementalCore::new(g);
        check_exact(&inc);
        inc.insert_edges(&[(0, 50), (1, 51), (2, 52)]);
        check_exact(&inc);
        // growing the vertex set on the fly
        inc.insert_edges(&[(99, 120), (120, 121)]);
        assert_eq!(inc.graph().num_vertices(), 122);
        check_exact(&inc);
    }

    #[test]
    fn deletions_match_from_scratch() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let mut inc = IncrementalCore::new(g);
        let some_edges: Vec<(u32, u32)> = inc.graph().edges().iter().copied().step_by(17).collect();
        inc.remove_edges(&some_edges);
        check_exact(&inc);
        // removing a non-existent edge is a no-op
        let before = inc.graph().num_edges();
        inc.remove_edges(&[(0, 0), (119, 118)]);
        assert!(inc.graph().num_edges() <= before);
        check_exact(&inc);
    }

    #[test]
    fn interleaved_updates_stay_exact() {
        let g = hdsd_datasets::erdos_renyi_gnm(60, 150, 11);
        let mut inc = IncrementalCore::new(g);
        for round in 0..5u32 {
            inc.insert_edges(&[(round, 59 - round), (round * 2, round * 2 + 30)]);
            check_exact(&inc);
            let e = inc.graph().edges()[round as usize * 3];
            inc.remove_edges(&[e]);
            check_exact(&inc);
        }
    }

    #[test]
    fn truss_mixed_batches_stay_exact() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.6, 5);
        let mut inc: Incremental<TrussKind> = Incremental::new(g);
        check_exact_kind(&inc);
        for round in 0..4u32 {
            let victims: Vec<(u32, u32)> = inc
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(41)
                .take(5)
                .collect();
            let fresh: Vec<(u32, u32)> =
                (0..5).map(|i| (round * 7 + i, (round * 11 + 3 * i + 40) % 150)).collect();
            inc.update_edges(&fresh, &victims);
            check_exact_kind(&inc);
        }
    }

    #[test]
    fn nucleus34_mixed_batches_stay_exact() {
        let g = hdsd_datasets::planted_partition(&[14, 14, 14], 0.7, 0.05, 9);
        let mut inc: Incremental<Nucleus34Kind> = Incremental::new(g);
        check_exact_kind(&inc);
        for round in 0..3u32 {
            let victims: Vec<(u32, u32)> = inc
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(29)
                .take(4)
                .collect();
            let fresh: Vec<(u32, u32)> =
                (0..4).map(|i| (round * 3 + i, (round * 5 + 2 * i + 20) % 42)).collect();
            inc.update_edges(&fresh, &victims);
            check_exact_kind(&inc);
        }
    }

    #[test]
    fn empty_batches_are_noops() {
        let g = hdsd_datasets::erdos_renyi_gnm(30, 60, 1);
        let mut inc = IncrementalCore::new(g);
        let before = inc.core_numbers().to_vec();
        inc.insert_edges(&[]);
        inc.remove_edges(&[]);
        assert_eq!(inc.core_numbers(), before.as_slice());
    }
}
