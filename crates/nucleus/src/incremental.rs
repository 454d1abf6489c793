//! Incremental maintenance of κ indices under edge updates — generic over
//! the clique space.
//!
//! The paper's peeling baseline must restart from scratch when the graph
//! changes; the local formulation does not. Because the asynchronous
//! iteration converges to the exact κ from *any* pointwise upper bound
//! (see [`AndOptions::tau_init`]), a stale decomposition is a
//! valid warm start once it is lifted back above the new κ:
//!
//! * **deletions** — κ never increases (any witness sub-hypergraph of the
//!   smaller graph is one of the larger), so the stale τ is already an
//!   upper bound (clamped against the new degrees);
//! * **insertions** — a single edge insertion raises any κ by at most one
//!   in *every* supported space. For cores this is the classic Li–Yu /
//!   Sarıyüce et al. bound; for trusses it is Huang et al.'s: a new edge
//!   `e` participates in at most one triangle with any fixed surviving
//!   edge, so removing `e` from a witness subgraph costs each edge at most
//!   one triangle. The same counting works for the (3,4) nucleus: a K4
//!   containing a surviving triangle `T` and the new edge `e = (u, v)`
//!   must be `T ∪ {w}` with `w` an endpoint of `e` and the other endpoint
//!   in `T` — at most one such K4 per insertion. Hence
//!   `stale + #insertions`, clamped against the new degrees, is an upper
//!   bound for a batch.
//!
//! The wrinkle relative to the (1,2) case is that r-clique **ids are not
//! stable** across batches: edge and triangle ids are positional. Stale κ
//! values are therefore carried across *positionally*, through the
//! new-id → old-id remap the delta splice already produces
//! ([`SpaceDelta::new_to_old`]) — no hashing of either graph version — and
//! r-cliques created by the batch (which have no stale value) start from
//! their new S-degree.
//!
//! Lifting *every* clique by the batch size is sound but wasteful: the
//! uniform inflation drains as slowly as a cold run. The refresh therefore
//! lifts only the **candidate set** — the generalization of the classic
//! incremental-k-core "subcore traversal" to arbitrary clique spaces:
//!
//! > If κ(i) increases, the witness sub-hypergraph for its new value is
//! > S-connected, contains a container created by the batch, and all its
//! > members j satisfy κ'(j) ≥ κ(i) + 1, hence stale κ(j) ≥ κ(i) + 1 − b.
//!
//! So only cliques reachable from a batch-touched container through
//! cliques of stale κ ≥ κ(i) + 1 − b can rise (see
//! [`warm_tau_init_of`]); everything else warm-starts *at* its
//! fixpoint and goes idle after one recomputation. The refresh then
//! converges in a handful of sweeps instead of a full decomposition —
//! measured by the `sweeps` telemetry, asserted in the tests, and
//! reported in `BENCH_service.json`.

use std::marker::PhantomData;

use hdsd_graph::{CsrDelta, CsrGraph, GraphBuilder, TriangleList, VertexId};

use crate::asynchronous::{and_opts, AndOptions, Order};
use crate::cancel::{CancelToken, Cancelled};
use crate::convergence::{ConvergenceResult, LocalConfig};
use crate::delta::SpaceDelta;
use crate::space::{CachedSpace, CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};

/// Union–find with path halving; roots carry a "component contains a
/// batch seed" flag.
struct SeedForest {
    parent: Vec<u32>,
    has_seed: Vec<bool>,
}

impl SeedForest {
    fn new(n: usize) -> Self {
        SeedForest { parent: (0..n as u32).collect(), has_seed: vec![false; n] }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let seed = self.has_seed[ra as usize] || self.has_seed[rb as usize];
            self.parent[rb as usize] = ra;
            self.has_seed[ra as usize] = seed;
        }
    }
}

/// A warm start for [`and_opts`] ([`AndOptions::tau_init`] +
/// [`AndOptions::awake`]): the τ upper bound plus the cliques that need a
/// first look.
pub struct WarmStart {
    /// Pointwise upper bound on the new κ.
    pub tau: Vec<u32>,
    /// The initial And worklist: `structural` plus the lift candidates.
    pub awake: Vec<u32>,
    /// Cliques the batch touched structurally — new cliques, cliques with
    /// a batch endpoint among their vertices, and their container partners
    /// — a superset of the cliques whose container set changed. Lift
    /// candidates are *not* in it: their containers are unchanged, and a
    /// candidate whose κ really moved is found by comparing κ.
    pub structural: Vec<u32>,
    /// How many surviving cliques were lifted (the candidate set; its
    /// smallness is what makes the warm start cheap).
    pub lifted: usize,
}

/// The locally-lifted warm start for `new_space` after a batch that
/// inserted `lift` edges with endpoints `inserted_ends` and removed edges
/// with endpoints `removed_ends` (endpoint supersets are fine).
/// `stale_of[i]` is the stale κ of new clique `i`, resolved through the
/// splice's id remap (`None` for batch-created cliques).
///
/// Correctness of the lift: if κ(i) rose to `k + 1` or more, the witness
/// sub-hypergraph for that value is S-connected, contains a container
/// created by the batch (otherwise it already existed, contradicting the
/// stale κ), and every member `j` has new κ ≥ k + 1, hence stale
/// κ(j) ≥ k + 1 − `lift` (the uniform batch bound). A container created
/// by the batch contains an inserted edge, so some member's vertex set
/// meets `inserted_ends`. Candidates are therefore exactly the cliques
/// reachable from a batch-touched clique (or one of its container
/// partners, covering the whole container) through cliques of stale
/// κ ≥ κ(i) + 1 − `lift` — computed here with one κ-descending
/// union–find pass over the container adjacency, the generalization of
/// the incremental-k-core "subcore traversal" to every clique space.
/// Candidates start from `stale + lift` (clamped to the new degree),
/// brand-new cliques from their degree, and everything else *at* its
/// stale value, which deletion monotonicity keeps a valid upper bound.
///
/// The awake set contains every clique whose value or containers the
/// batch may have changed: candidates, new cliques, cliques with a batch
/// endpoint among their vertices, and the container partners of all of
/// those (covering spaces where a changed container has members disjoint
/// from the changed edge). Everything else starts asleep and is woken by
/// the notification mechanism if a neighbor's drop cascades to it; the
/// final certification sweep guarantees exactness regardless.
pub fn warm_tau_init_of<S: CliqueSpace>(
    stale_of: &[Option<u32>],
    new_space: &S,
    inserted_ends: &[VertexId],
    removed_ends: &[VertexId],
    lift: u32,
) -> WarmStart {
    let n = new_space.num_cliques();
    assert_eq!(stale_of.len(), n, "stale_of length mismatch");
    let mut scratch = Vec::new();
    let clamp = |i: usize, v: u32| v.min(new_space.degree(i));

    // Cliques touching any batch endpoint, plus their container partners:
    // the only places a container can have appeared or disappeared. The
    // insertion-touched subset seeds the candidate traversal.
    let all_ends: std::collections::HashSet<VertexId> =
        inserted_ends.iter().chain(removed_ends).copied().collect();
    let ins_ends: std::collections::HashSet<VertexId> = inserted_ends.iter().copied().collect();
    let mut awake = vec![false; n];
    let mut seed = vec![false; n];
    for i in 0..n {
        scratch.clear();
        new_space.vertices_of(i, &mut scratch);
        if stale_of[i].is_none() {
            awake[i] = true;
            seed[i] = true;
        } else if scratch.iter().any(|v| all_ends.contains(v)) {
            awake[i] = true;
            seed[i] = scratch.iter().any(|v| ins_ends.contains(v));
        }
    }
    let direct: Vec<usize> = (0..n).filter(|&i| awake[i]).collect();
    for &i in &direct {
        let spread = seed[i];
        new_space.for_each_neighbor(i, |o| {
            awake[o] = true;
            if spread {
                seed[o] = true;
            }
        });
    }

    let structural: Vec<u32> = (0..n as u32).filter(|&i| awake[i as usize]).collect();

    let mut candidate = vec![false; n];
    if lift > 0 {
        // Bottleneck traversal on the *cap*: the new kappa'(j) can never
        // exceed cap(j) = min(stale kappa(j) + lift, d_s'(j)), so a witness
        // path for "kappa(i) rose past its stale value" runs entirely
        // through cliques with cap >= stale kappa(i) + 1. Activate cliques
        // in descending cap order (new cliques cap at their degree) and
        // resolve each clique's check once its threshold's active set is
        // complete.
        let cap = |i: usize| match stale_of[i] {
            Some(k) => k.saturating_add(lift).min(new_space.degree(i)),
            None => new_space.degree(i),
        };
        let mut by_level: Vec<u32> = (0..n as u32).collect();
        by_level.sort_unstable_by_key(|&i| std::cmp::Reverse(cap(i as usize)));
        let check_level = |i: usize| stale_of[i].unwrap_or(0) + 1;
        let mut checks: Vec<u32> =
            (0..n as u32).filter(|&i| stale_of[i as usize].is_some()).collect();
        checks.sort_unstable_by_key(|&i| std::cmp::Reverse(check_level(i as usize)));

        let mut forest = SeedForest::new(n);
        let mut active = vec![false; n];
        let mut next_check = 0usize;
        let mut at = 0usize;
        while at < n {
            let t = cap(by_level[at] as usize);
            // Resolve pending checks whose threshold exceeds this level:
            // their active set is exactly the cliques activated so far.
            while next_check < checks.len() && check_level(checks[next_check] as usize) > t {
                let i = checks[next_check];
                next_check += 1;
                // A clique whose own cap is below its check threshold
                // cannot rise at all (inactive here => not a candidate).
                if active[i as usize] {
                    let r = forest.find(i);
                    candidate[i as usize] = forest.has_seed[r as usize];
                }
            }
            // Activate this level, unioning with already-active partners.
            while at < n && cap(by_level[at] as usize) == t {
                let i = by_level[at];
                at += 1;
                active[i as usize] = true;
                if seed[i as usize] {
                    let r = forest.find(i);
                    forest.has_seed[r as usize] = true;
                }
                new_space.for_each_neighbor(i as usize, |o| {
                    if active[o] {
                        forest.union(i, o as u32);
                    }
                });
            }
        }
        for &i in &checks[next_check..] {
            let r = forest.find(i);
            candidate[i as usize] = forest.has_seed[r as usize];
        }
    }

    let mut lifted = 0usize;
    let tau: Vec<u32> = (0..n)
        .map(|i| match stale_of[i] {
            Some(k) if candidate[i] => {
                lifted += 1;
                awake[i] = true;
                clamp(i, k.saturating_add(lift))
            }
            Some(k) => clamp(i, k),
            None => new_space.degree(i),
        })
        .collect();
    let awake: Vec<u32> = (0..n as u32).filter(|&i| awake[i as usize]).collect();
    WarmStart { tau, awake, structural, lifted }
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
        _ed: &CsrDelta,
    ) -> SpaceDelta {
        crate::delta::core_space_delta(new_graph, old_graph.num_vertices())
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

/// Outcome of one warm refresh (see [`warm_refresh`]).
pub struct RefreshOutcome {
    /// Full convergence telemetry; `result.tau` is the exact new κ.
    pub result: ConvergenceResult,
    /// Cliques seeded awake (batch-perturbed).
    pub awake: usize,
    /// Surviving cliques lifted by the candidate traversal.
    pub lifted: usize,
    /// Every clique the batch touched structurally
    /// ([`WarmStart::structural`]): new cliques, cliques in a
    /// created/destroyed container, and their container partners — the
    /// dirty-seed contract of [`crate::hierarchy::repair_hierarchy`]. The
    /// (far larger) set of lift candidates seeded awake is not part of it.
    pub perturbed: Vec<u32>,
}

impl RefreshOutcome {
    /// The dirty seed for an incremental hierarchy repair after this
    /// refresh: the structurally perturbed set plus every clique whose κ
    /// actually changed (cascaded drops can reach initially-asleep
    /// cliques). `stale_of` must be the same vector the refresh ran with.
    pub fn repair_dirty_seed(&self, stale_of: &[Option<u32>]) -> Vec<u32> {
        repair_dirty_seed(&self.perturbed, stale_of, &self.result.tau)
    }
}

/// The canonical warm refresh, shared by [`Incremental::update_edges`] and
/// the `hdsd-service` engine: candidate-lifted warm start over the
/// positionally resolved stale κ ([`warm_tau_init_of`]), τ-sorted
/// processing order (the warm τ is within `inserted` of κ, so this
/// approximates the Theorem-4 peeling order), and an awake-seeded resume
/// whose certification sweep guarantees the exact κ of the new graph.
///
/// `cancel` is threaded into the And resume ([`AndOptions::cancel`]). The
/// warm start itself (candidate traversal + τ sort) is not cancellable — it
/// is linear in the batch's neighborhood, not in the graph — so a trip
/// lands at the first sweep boundary. On `Err` nothing has been published;
/// callers keep serving the stale decomposition.
pub fn warm_refresh<S: CliqueSpace>(
    stale_of: &[Option<u32>],
    new_space: &S,
    inserted_ends: &[VertexId],
    removed_ends: &[VertexId],
    inserted: u32,
    cfg: &LocalConfig,
    cancel: &CancelToken,
) -> Result<RefreshOutcome, Cancelled> {
    let warm = warm_tau_init_of(stale_of, new_space, inserted_ends, removed_ends, inserted);
    hdsd_telemetry::span!("refresh.resume");
    let mut order: Vec<u32> = (0..warm.tau.len() as u32).collect();
    order.sort_unstable_by_key(|&i| warm.tau[i as usize]);
    let opts = AndOptions {
        tau_init: Some(warm.tau),
        awake: Some(&warm.awake),
        cancel: cancel.clone(),
        ..AndOptions::default()
    };
    let result = and_opts(new_space, cfg, &Order::Custom(order), opts)?;
    debug_assert!(result.converged);
    Ok(RefreshOutcome {
        result,
        awake: warm.awake.len(),
        lifted: warm.lifted,
        perturbed: warm.structural,
    })
}

/// Dynamically maintained decomposition of one space kind.
///
/// Owns the graph, the kind's clique substrate, and the space snapshot;
/// [`Incremental::insert_edges`] and [`Incremental::remove_edges`] apply a
/// batch by **splicing** all three ([`hdsd_graph::apply_edge_batch`] plus
/// [`SpaceKind::apply_delta`]) and refresh κ by a warm-started local run
/// whose stale values carry over positionally through the id remaps — no
/// graph rebuild, no global triangle/K4 recount, no identity hashing.
/// `Incremental<CoreKind>` is the historical [`IncrementalCore`];
/// `Incremental<TrussKind>` and `Incremental<Nucleus34Kind>` maintain
/// truss and (3,4)-nucleus indices the same way.
pub struct Incremental<K: SpaceKind> {
    graph: CsrGraph,
    substrate: K::Substrate,
    cached: CachedSpace,
    kappa: Vec<u32>,
    cfg: LocalConfig,
    _kind: PhantomData<K>,
}

/// Dynamically maintained core decomposition (the original API).
pub type IncrementalCore = Incremental<CoreKind>;

impl<K: SpaceKind> Incremental<K> {
    /// Builds the initial decomposition (a full peel).
    pub fn new(graph: CsrGraph) -> Self {
        Self::with_config(graph, LocalConfig::sequential())
    }

    /// Builds the initial decomposition with a custom refresh config.
    pub fn with_config(graph: CsrGraph, cfg: LocalConfig) -> Self {
        let substrate = K::init_substrate(&graph);
        let cached = K::build_cached(&graph, &substrate);
        // The drain peels the snapshot's resident rows in place with
        // however many threads the config asks for (one thread is the
        // sequential bucket queue; κ is bit-identical either way).
        let kappa = crate::peel::peel_parallel(&cached, cfg.parallel).kappa;
        Incremental { graph, substrate, cached, kappa, cfg, _kind: PhantomData }
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
    /// refreshes κ. Returns the number of sweeps the refresh needed.
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        self.update_edges(edges, &[])
    }

    /// Removes a batch of edges (absent edges ignored) and refreshes κ.
    /// Returns the number of sweeps the refresh needed.
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        self.update_edges(&[], edges)
    }

    /// Applies a mixed batch in one splice + one warm-started refresh.
    /// Returns the number of sweeps the refresh needed.
    pub fn update_edges(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> usize {
        self.update_edges_outcome(insert, remove).sweeps
    }

    /// [`Incremental::update_edges`] returning the full batch outcome: the
    /// clique-id remap and the changed-κ/perturbed set the refresh already
    /// computes internally — everything [`Hierarchy::repair`] needs to
    /// repair a forest of the pre-batch graph instead of rebuilding it.
    ///
    /// [`Hierarchy::repair`]: crate::hierarchy::Hierarchy::repair
    pub fn update_edges_outcome(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> BatchOutcome {
        let (new_graph, ed) = hdsd_graph::apply_edge_batch(&self.graph, insert, remove);
        let old_num_cliques = self.cached.num_cliques();
        let sd = K::apply_delta(&mut self.substrate, &self.cached, &self.graph, &new_graph, &ed);
        // Stale κ carried positionally: new clique → old clique → old κ.
        let stale_of: Vec<Option<u32>> = sd
            .new_to_old
            .iter()
            .map(|&o| if o == hdsd_graph::NO_ID { None } else { Some(self.kappa[o as usize]) })
            .collect();
        let ins_ends = ed.inserted_endpoints(&new_graph);
        let rm_ends = ed.removed_endpoints(&self.graph);
        let out = warm_refresh(
            &stale_of,
            &sd.cached,
            &ins_ends,
            &rm_ends,
            ed.inserted(),
            &self.cfg,
            &CancelToken::none(),
        )
        .expect("an unarmed token never cancels");
        self.graph = new_graph;
        self.cached = sd.cached;
        self.kappa = out.result.tau;
        BatchOutcome {
            sweeps: out.result.sweeps,
            old_num_cliques,
            new_to_old: sd.new_to_old,
            perturbed: out.perturbed,
            stale_of,
        }
    }
}

/// What one [`Incremental::update_edges_outcome`] batch did — the inputs a
/// hierarchy repair needs, reported instead of recomputed.
pub struct BatchOutcome {
    /// Sweeps the warm refresh needed.
    pub sweeps: usize,
    /// Clique count of the pre-batch space.
    pub old_num_cliques: usize,
    /// New clique id → old clique id ([`hdsd_graph::NO_ID`] for created).
    pub new_to_old: Vec<u32>,
    /// New clique ids the batch touched structurally (see
    /// [`RefreshOutcome::perturbed`]).
    pub perturbed: Vec<u32>,
    /// Stale κ per new clique id, as the refresh ran with it (`None` for
    /// batch-created cliques). Kept so the dirty seed can be derived on
    /// demand instead of on every batch.
    stale_of: Vec<Option<u32>>,
}

impl BatchOutcome {
    /// The dirty seed for repairing a hierarchy across this batch:
    /// `perturbed` plus every clique whose κ actually changed. `kappa`
    /// must be the post-batch exact κ (i.e. [`Incremental::kappa`] right
    /// after the update). Computed lazily — only hierarchy-repairing
    /// callers pay the scan.
    pub fn repair_dirty_seed(&self, kappa: &[u32]) -> Vec<u32> {
        repair_dirty_seed(&self.perturbed, &self.stale_of, kappa)
    }
}

/// `perturbed ∪ {i : stale_of[i] ≠ Some(kappa[i])}` — the dirty-seed
/// contract of [`crate::hierarchy::repair_hierarchy`], shared by
/// [`RefreshOutcome::repair_dirty_seed`] and
/// [`BatchOutcome::repair_dirty_seed`].
fn repair_dirty_seed(perturbed: &[u32], stale_of: &[Option<u32>], kappa: &[u32]) -> Vec<u32> {
    assert_eq!(stale_of.len(), kappa.len(), "stale_of length mismatch");
    let mut dirty = vec![false; kappa.len()];
    for &i in perturbed {
        dirty[i as usize] = true;
    }
    for (i, (&stale, &k)) in stale_of.iter().zip(kappa).enumerate() {
        if stale != Some(k) {
            dirty[i] = true;
        }
    }
    (0..kappa.len() as u32).filter(|&i| dirty[i as usize]).collect()
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
    use crate::snd::snd;

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
    fn warm_start_uses_fewer_sweeps_than_cold_start() {
        let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(800, 8, 0.5, 9), 0.7, 9);
        let cold = {
            let space = CoreSpace::new(&g);
            snd(&space, &LocalConfig::sequential()).sweeps
        };
        let mut inc = IncrementalCore::new(g);
        let sweeps = inc.insert_edges(&[(0, 400)]);
        assert!(sweeps < cold, "warm start took {sweeps} sweeps, cold start {cold}");
        check_exact(&inc);
    }

    /// One batch carried positionally, exactly as
    /// [`Incremental::update_edges_outcome`] and the service engine do it:
    /// splice graph, substrate and snapshot, then resolve each new
    /// clique's stale κ through the id remap.
    struct Spliced {
        graph: CsrGraph,
        cached: CachedSpace,
        stale_of: Vec<Option<u32>>,
        ins_ends: Vec<VertexId>,
        rm_ends: Vec<VertexId>,
        inserted: u32,
    }

    fn splice<K: SpaceKind>(g: &CsrGraph, insert: &[(u32, u32)], remove: &[(u32, u32)]) -> Spliced {
        let mut substrate = K::init_substrate(g);
        let cached = K::build_cached(g, &substrate);
        let kappa = peel(&cached).kappa;
        let (graph, ed) = hdsd_graph::apply_edge_batch(g, insert, remove);
        let sd = K::apply_delta(&mut substrate, &cached, g, &graph, &ed);
        let stale_of = sd
            .new_to_old
            .iter()
            .map(|&o| (o != hdsd_graph::NO_ID).then(|| kappa[o as usize]))
            .collect();
        // The from-scratch rebuild agrees on what the batch really did.
        let (rebuilt, inserted) = rebuild_graph(g, insert, remove);
        assert_eq!(rebuilt.edges(), graph.edges());
        assert_eq!(inserted, ed.inserted());
        Spliced {
            ins_ends: ed.inserted_endpoints(&graph),
            rm_ends: ed.removed_endpoints(g),
            graph,
            cached: sd.cached,
            stale_of,
            inserted,
        }
    }

    /// Shared harness: applies a mixed batch through the warm-start path
    /// and asserts exactness plus a strictly cheaper refresh than a cold
    /// And run on the updated graph (both sweeps and recomputations).
    fn assert_warm_beats_cold<K: SpaceKind>(
        g: CsrGraph,
        insert: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) {
        let cfg = LocalConfig::sequential();
        let sp = splice::<K>(&g, insert, remove);
        let exact = peel(&K::build(&sp.graph)).kappa;
        let cold = crate::asynchronous::and(&sp.cached, &cfg, &Order::Natural);
        assert_eq!(cold.tau, exact);

        let out = warm_refresh(
            &sp.stale_of,
            &sp.cached,
            &sp.ins_ends,
            &sp.rm_ends,
            sp.inserted,
            &cfg,
            &CancelToken::none(),
        )
        .expect("unarmed");
        // The candidate traversal lifts a minority, where a uniform lift
        // would inflate every surviving clique.
        assert!(
            out.lifted * 2 < exact.len(),
            "{}: lifted {} of {} cliques",
            K::NAME,
            out.lifted,
            exact.len()
        );
        let r = out.result;
        assert!(r.converged);
        assert_eq!(r.tau, exact, "{} warm refresh diverged", K::NAME);
        // Sweep counts are order-sensitive (canonical clique ids shift
        // them by ±1 on small graphs); recomputation count below is the
        // robust cheapness metric.
        assert!(
            r.sweeps <= cold.sweeps,
            "{}: warm took {} sweeps, cold {}",
            K::NAME,
            r.sweeps,
            cold.sweeps
        );
        assert!(
            r.total_processed() < cold.total_processed(),
            "{}: warm recomputed {}, cold {}",
            K::NAME,
            r.total_processed(),
            cold.total_processed()
        );
    }

    #[test]
    fn truss_warm_start_beats_cold_start_on_mixed_batch() {
        let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(500, 8, 0.6, 13), 0.7, 13);
        let rm: Vec<(u32, u32)> = g.edges().iter().copied().step_by(97).take(4).collect();
        assert_warm_beats_cold::<TrussKind>(g, &[(0, 250), (1, 251)], &rm);
    }

    #[test]
    fn nucleus34_warm_start_beats_cold_start_on_mixed_batch() {
        let g = hdsd_datasets::planted_partition(&[25, 25, 25, 25], 0.5, 0.04, 31);
        let rm: Vec<(u32, u32)> = g.edges().iter().copied().step_by(113).take(3).collect();
        assert_warm_beats_cold::<Nucleus34Kind>(g, &[(0, 26), (1, 27)], &rm);
    }

    /// The hierarchy-repair seed is the structural set, not the And
    /// worklist: a lift candidate's containers are unchanged, so it stays
    /// out unless it also touches the batch.
    #[test]
    fn structural_set_excludes_lift_candidates() {
        let g = hdsd_datasets::holme_kim(1500, 8, 0.5, 13);
        let insert: Vec<(u32, u32)> = (0..8).map(|j| (j, 700 + 31 * j)).collect();
        let remove: Vec<(u32, u32)> = g.edges().iter().copied().step_by(997).take(8).collect();
        let Spliced { graph, cached: space, stale_of, ins_ends, rm_ends, inserted } =
            splice::<TrussKind>(&g, &insert, &remove);
        let warm = warm_tau_init_of(&stale_of, &space, &ins_ends, &rm_ends, inserted);

        // The warm start's premise: τ is a pointwise upper bound on the
        // new κ (what makes resuming from it exact).
        let exact = peel(&TrussKind::build(&graph)).kappa;
        for (i, (&t, &k)) in warm.tau.iter().zip(&exact).enumerate() {
            assert!(t >= k, "warm τ[{i}] = {t} below κ = {k}");
        }

        let ends: std::collections::HashSet<u32> =
            ins_ends.iter().chain(&rm_ends).copied().collect();
        let touched = |i: usize| {
            let mut verts = Vec::new();
            space.vertices_of(i, &mut verts);
            verts.iter().any(|v| ends.contains(v))
        };
        for &i in &warm.structural {
            let mut near = touched(i as usize);
            space.for_each_neighbor(i as usize, |o| near |= touched(o));
            assert!(near, "clique {i} is structural but nowhere near the batch");
        }
        assert!(warm.lifted > 0, "the batch must lift something for this test to bite");
        assert!(warm.structural.iter().all(|i| warm.awake.binary_search(i).is_ok()));
        assert!(warm.structural.len() < warm.awake.len());
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
