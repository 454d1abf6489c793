//! The update step: one edge batch through one resident clique space.
//!
//! An update never re-enumerates anything. The batch is applied once to
//! the shared graph ([`GraphStep`]: the CSR splice with its edge-id
//! remaps). Each space then takes one [`update_space`] call:
//!
//! 1. **splice** its r-clique list and flat container rows across the
//!    batch ([`crate::delta::space_delta`], the same code for every
//!    (r, s)), so the new graph's rows are resident at once;
//! 2. **refresh** κ by [`refresh_kappa`]: one sequential bucket-queue peel
//!    of those rows. The paper's Theorem 4 is why that is the right local
//!    algorithm here — And converges in a single pass when r-cliques are
//!    visited in non-decreasing κ order, and that pass *is* the peel — so
//!    the refresh costs one visit per clique and is exact by construction;
//! 3. **repair** the space's forest when one is resident
//!    ([`Hierarchy::repair`]), seeded with the splice's touched set: the
//!    forest follows from local component information, so a batch only
//!    rebuilds what it reached.
//!
//! r-clique **ids are not stable** across batches (they are positions in
//! the lexicographic r-clique list), so the repair reads the splice's
//! new-id → old-id remap ([`crate::SpaceDelta::new_to_old`]). The one set
//! it is seeded with — the surviving cliques whose container set changed
//! — is a by-product of the splice ([`crate::SpaceDelta::touched`]),
//! reported, not recomputed.
//!
//! The serving engine (`hdsd-service`) runs exactly this step for every
//! resident space, so the property suites that drive it prove the
//! daemon's update path.

use std::time::Instant;

use hdsd_graph::{apply_edge_batch, CsrDelta, CsrGraph, GraphBuilder, TriangleList, VertexId};

use crate::cancel::{CancelToken, Cancelled};
use crate::delta::space_delta;
use crate::hierarchy::{Hierarchy, RepairStats};
use crate::peel::{PeelEngine, PeelResult};
use crate::space::{CachedSpace, CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};

/// One of the three maintained clique spaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpaceSel {
    /// (1,2): k-core over vertices.
    Core,
    /// (2,3): k-truss over edges.
    Truss,
    /// (3,4): nucleus over triangles.
    Nucleus34,
}

impl SpaceSel {
    /// Parses the protocol's space names.
    pub fn parse(name: &str) -> Option<SpaceSel> {
        match name {
            "core" | "12" => Some(SpaceSel::Core),
            "truss" | "23" => Some(SpaceSel::Truss),
            "nucleus34" | "34" => Some(SpaceSel::Nucleus34),
            _ => None,
        }
    }

    /// The space of an `(r, s)` pair, as snapshots record it.
    pub fn from_rs(rs: (u32, u32)) -> Option<SpaceSel> {
        [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34].into_iter().find(|s| s.rs() == rs)
    }

    /// Protocol name.
    pub fn name(self) -> &'static str {
        match self {
            SpaceSel::Core => "core",
            SpaceSel::Truss => "truss",
            SpaceSel::Nucleus34 => "nucleus34",
        }
    }

    /// The `(r, s)` pair.
    pub fn rs(self) -> (u32, u32) {
        match self {
            SpaceSel::Core => (1, 2),
            SpaceSel::Truss => (2, 3),
            SpaceSel::Nucleus34 => (3, 4),
        }
    }

    /// Whether this space's cold build reads a triangle list.
    pub fn needs_triangles(self) -> bool {
        !matches!(self, SpaceSel::Core)
    }

    /// Cold materialization of the space's rows over `graph`. A triangle
    /// space reads `triangles`, which the caller builds once, shares
    /// between the spaces that need it, and may drop afterwards.
    pub fn build_cached(self, graph: &CsrGraph, triangles: Option<&TriangleList>) -> CachedSpace {
        let tl = || triangles.expect("a triangle space is built over the shared triangle list");
        match self {
            SpaceSel::Core => CachedSpace::build(&CoreSpace::new(graph)),
            SpaceSel::Truss => CachedSpace::build(&TrussSpace::with_triangles(graph, tl())),
            SpaceSel::Nucleus34 => CachedSpace::build(&Nucleus34Space::with_triangles(graph, tl())),
        }
    }
}

/// One edge batch applied to the shared graph, computed once per batch
/// and read by every space's [`update_space`].
pub struct GraphStep<'a> {
    /// The pre-batch graph.
    pub old_graph: &'a CsrGraph,
    /// The spliced graph.
    pub new_graph: CsrGraph,
    /// Edge-id remaps plus the ids actually inserted and removed.
    pub delta: CsrDelta,
}

impl<'a> GraphStep<'a> {
    /// Applies `insert` / `remove` to `old_graph` (duplicates, self-loops,
    /// present inserts and absent removals are ignored; the vertex set
    /// grows to cover inserted endpoints).
    pub fn new(
        old_graph: &'a CsrGraph,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> GraphStep<'a> {
        let (new_graph, delta) = apply_edge_batch(old_graph, insert, remove);
        GraphStep { old_graph, new_graph, delta }
    }

    /// Whether the batch changes neither the edge set nor the vertex count.
    /// (An insert naming a vertex beyond the current set grows the vertex
    /// set even when its edge is dropped, so that batch is not a no-op.)
    /// A no-op step has nothing to splice: callers keep the old state and
    /// do not call [`update_space`].
    pub fn is_noop(&self) -> bool {
        self.delta.is_noop() && self.new_graph.num_vertices() == self.old_graph.num_vertices()
    }
}

/// What one [`update_space`] call produced: the space's next state and the
/// stage times the update ack reports.
pub struct SpaceStep {
    /// The spliced rows (ids match a cold build over the new graph).
    pub cached: CachedSpace,
    /// Exact κ over `cached`.
    pub kappa: Vec<u32>,
    /// Surviving cliques (new ids, ascending) whose container set the batch
    /// changed ([`crate::SpaceDelta::touched`]) — the repair's seed.
    pub touched: Vec<u32>,
    /// The repaired forest and its telemetry, when a forest was passed in.
    pub forest: Option<(Hierarchy, RepairStats)>,
    /// Wall time of the row splice, µs.
    pub splice_us: u64,
    /// Wall time of the κ refresh (the peel of the spliced rows), µs.
    pub refresh_us: u64,
    /// Wall time of the forest repair, µs (0 without a forest).
    pub repair_us: u64,
}

/// Carries the space with rows `old` and optional forest `forest` across
/// the batch `step`: splice, refresh κ, repair the forest. The space's
/// (r, s) is read from `old`.
///
/// `cancel` is probed by the refresh as the peel's `"peel drain"` stage; on
/// `Err` nothing was produced and the caller keeps the old state.
///
/// # Examples
///
/// ```
/// use hdsd_nucleus::{peel, update_space, CancelToken, GraphStep, SpaceSel};
///
/// let g = hdsd_graph::graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]);
/// let tl = hdsd_graph::TriangleList::build(&g);
/// let rows = SpaceSel::Truss.build_cached(&g, Some(&tl));
/// let step = GraphStep::new(&g, &[(1, 3)], &[]);
/// let up = update_space(&rows, None, &step, &CancelToken::none()).unwrap();
/// assert_eq!(up.kappa, peel(&up.cached).kappa);
/// assert_eq!(up.kappa.iter().max(), Some(&1)); // (1,2) now sits in two triangles
/// ```
pub fn update_space(
    old: &CachedSpace,
    forest: Option<&Hierarchy>,
    step: &GraphStep<'_>,
    cancel: &CancelToken,
) -> Result<SpaceStep, Cancelled> {
    let t = Instant::now();
    let sd = {
        hdsd_telemetry::span!("update.splice");
        space_delta(old, step.old_graph, &step.new_graph, &step.delta)
    };
    let splice_us = micros_since(t);

    let t = Instant::now();
    let kappa = {
        hdsd_telemetry::span!("update.refresh");
        refresh_kappa(&sd.cached, cancel)?.kappa
    };
    let refresh_us = micros_since(t);

    let t = Instant::now();
    let forest = forest.map(|f| {
        hdsd_telemetry::span!("update.repair");
        f.repair(&sd.cached, &kappa, &sd.new_to_old, old.num_cliques(), &sd.touched)
    });
    let repair_us = if forest.is_some() { micros_since(t) } else { 0 };

    Ok(SpaceStep {
        cached: sd.cached,
        kappa,
        touched: sd.touched,
        forest,
        splice_us,
        refresh_us,
        repair_us,
    })
}

fn micros_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// The κ refresh of the update step: an exact bucket-queue peel of the
/// already-spliced resident rows ([`PeelEngine::peel_under`]).
///
/// `cancel` is probed as the peel's `"peel drain"` stage, every
/// [`crate::PEEL_CANCEL_CHUNK`] items. On `Err` nothing has been
/// published; callers keep serving the stale decomposition.
pub fn refresh_kappa(spliced: &CachedSpace, cancel: &CancelToken) -> Result<PeelResult, Cancelled> {
    hdsd_telemetry::span!("refresh.peel");
    PeelEngine::new().peel_under(spliced.flat(), cancel).map_err(|p| p.cancelled)
}

/// Applies a batch of insertions and removals to `graph` the slow way —
/// a full rebuild through [`GraphBuilder`] — returning the new graph and
/// the number of edges actually inserted. The reference the splice
/// ([`hdsd_graph::apply_edge_batch`]) is checked against.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;

    const ALL: [SpaceSel; 3] = [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];

    type Batch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

    /// One space carried through `batches` the way the engine carries it,
    /// asserting κ against a cold peel after every batch.
    fn stays_exact(sel: SpaceSel, mut g: CsrGraph, batches: &[Batch]) {
        let mut cached = sel.build_cached(&g, Some(&TriangleList::build(&g)));
        for (round, (ins, rm)) in batches.iter().enumerate() {
            let step = GraphStep::new(&g, ins, rm);
            if step.is_noop() {
                continue;
            }
            let up = update_space(&cached, None, &step, &CancelToken::none()).unwrap();
            g = step.new_graph;
            let cold = sel.build_cached(&g, Some(&TriangleList::build(&g)));
            assert_eq!(up.kappa, peel(&cold).kappa, "{} round {round}", sel.name());
            cached = up.cached;
        }
    }

    #[test]
    fn mixed_batches_stay_exact_in_every_space() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.6, 5);
        let batches: Vec<_> = (0..4u32)
            .map(|round| {
                let victims: Vec<(u32, u32)> =
                    g.edges().iter().copied().skip(round as usize).step_by(41).take(5).collect();
                let fresh: Vec<(u32, u32)> =
                    (0..5).map(|i| (round * 7 + i, (round * 11 + 3 * i + 40) % 150)).collect();
                (fresh, victims)
            })
            .collect();
        for sel in ALL {
            stays_exact(sel, g.clone(), &batches);
        }
    }

    #[test]
    fn inserts_grow_the_vertex_set() {
        let g = hdsd_datasets::erdos_renyi_gnm(100, 300, 7);
        let batches = [(vec![(99, 120), (120, 121)], vec![]), (vec![(130, 130)], vec![])];
        for sel in ALL {
            stays_exact(sel, g.clone(), &batches);
        }
        let step = GraphStep::new(&g, &[(130, 130)], &[]);
        assert!(!step.is_noop(), "a dropped insert naming a new vertex still grows the set");
        assert_eq!(step.new_graph.num_vertices(), 131);
    }

    #[test]
    fn batches_that_change_nothing_are_noops() {
        let g = hdsd_datasets::erdos_renyi_gnm(30, 60, 1);
        let present = g.edges()[3];
        for (ins, rm) in [(vec![], vec![]), (vec![present, (5, 5)], vec![(31, 32), (0, 0)])] {
            assert!(GraphStep::new(&g, &ins, &rm).is_noop());
        }
    }

    #[test]
    fn space_names_and_rs_pairs_round_trip() {
        for sel in ALL {
            assert_eq!(SpaceSel::parse(sel.name()), Some(sel));
            assert_eq!(SpaceSel::from_rs(sel.rs()), Some(sel));
        }
        assert_eq!(SpaceSel::from_rs((1, 3)), None);
    }
}
